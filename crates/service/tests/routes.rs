//! The route matrix: every (method, path) the service answers, in its
//! bare form and its `/v1/t/:tenant/` form, pinned to the route label the
//! timers, flight recorder and access log report, whether the request
//! took a token from the tenant's rate quota, and the exact status.

use ipe_schema::fixtures;
use ipe_service::{Client, Server, ServiceConfig};
use std::time::Duration;

/// Whether a request is charged against the tenant's rate quota.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Quota {
    Admitted,
    Exempt,
}
use Quota::{Admitted, Exempt};

/// One matrix row: the request and what it must produce.
struct Row {
    method: &'static str,
    /// Path relative to the route prefix: `/v1/` for the bare form,
    /// `/v1/t/acme/` for the tenant-scoped form. Rows starting with `/`
    /// are sent verbatim.
    path: &'static str,
    body: String,
    label: &'static str,
    quota: Quota,
    status: u16,
}

fn row(
    method: &'static str,
    path: &'static str,
    body: &str,
    label: &'static str,
    quota: Quota,
    status: u16,
) -> Row {
    Row {
        method,
        path,
        body: body.to_owned(),
        label,
        quota,
        status,
    }
}

fn start(follow: Option<String>) -> (Server, Client) {
    let server = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        reactors: 1,
        queue_depth: 32,
        request_timeout: Duration::from_secs(5),
        follow,
        ..Default::default()
    })
    .expect("bind server");
    let client = Client::new(server.addr().to_string());
    (server, client)
}

/// Sends every row under `prefix` and checks status, quota charge and
/// label. `tenant` is the tenant whose `admitted` counter the rows charge.
fn run(server: &Server, client: &mut Client, prefix: &str, tenant: &str, rows: &[Row]) {
    let obs_on = !ipe_obs::disabled();
    for (i, r) in rows.iter().enumerate() {
        let path = match r.path.strip_prefix('/') {
            Some(_) => r.path.to_owned(),
            None => format!("{prefix}{}", r.path),
        };
        let admitted = || {
            server
                .state()
                .tenants
                .get(tenant)
                .map_or(0, |t| t.counters().admitted)
        };
        let before = admitted();
        let trace_id = format!("matrix{}{i}", prefix.len());
        let resp = client
            .request_with(r.method, &path, &r.body, &[("x-ipe-trace-id", &trace_id)])
            .unwrap_or_else(|e| panic!("{} {path}: {e}", r.method));
        let what = format!("{} {path} -> {} {}", r.method, resp.status, resp.body);
        assert_eq!(resp.status, r.status, "status of {what}");
        let charged = if admitted() > before {
            Admitted
        } else {
            Exempt
        };
        assert_eq!(charged, r.quota, "quota charge of {what}");
        if obs_on {
            let recorded = server
                .state()
                .flight
                .lookup(&trace_id)
                .unwrap_or_else(|| panic!("no flight record for {what}"));
            assert_eq!(recorded.route, r.label, "label of {what}");
        }
    }
}

/// Rows shared by the bare and the tenant-scoped form.
fn common_rows(schema_json: &str, scoped: bool) -> Vec<Row> {
    let obs = |on: u16| if ipe_obs::disabled() { 404 } else { on };
    let complete = r#"{"schema":"uni","query":"ta~name"}"#;
    let batch = r#"{"schema":"uni","queries":["ta~name","bad~~"]}"#;
    let data = r#"{"gen":{"objects_per_class":2,"links_per_rel":2,"seed":1}}"#;
    // `/healthz`, `/readyz` and `/metrics` sit outside `/v1/`, so their
    // scoped spellings (`/v1/t/acme/healthz`) name no route.
    let top = |bare: &'static str, scoped_path: &'static str, label: &'static str| {
        if scoped {
            row("GET", scoped_path, "", "other", Exempt, 404)
        } else {
            row("GET", bare, "", label, Exempt, 200)
        }
    };
    vec![
        row("PUT", "schemas/uni", schema_json, "schemas", Admitted, 200),
        row("GET", "schemas", "", "schemas", Admitted, 200),
        row("GET", "schemas/uni", "", "schemas", Admitted, 200),
        row("GET", "schemas/nope", "", "schemas", Admitted, 404),
        row("GET", "schemas/a/b", "", "schemas", Admitted, 400),
        row("PUT", "schemas/", "{}", "schemas", Admitted, 400),
        row("PUT", "data/uni", data, "data", Admitted, 200),
        row("GET", "data/uni", "", "data", Admitted, 200),
        row("GET", "data/a/b", "", "data", Admitted, 400),
        row("POST", "complete", complete, "complete", Admitted, 200),
        row("POST", "complete", "[", "complete", Admitted, 400),
        row("POST", "complete/batch", batch, "batch", Admitted, 200),
        row("POST", "query", complete, "query", Admitted, 200),
        row("DELETE", "data/uni", "", "data", Admitted, 200),
        row("DELETE", "data/uni", "", "data", Admitted, 404),
        row("DELETE", "schemas/uni", "", "schemas", Admitted, 200),
        row("POST", "complete", complete, "complete", Admitted, 404),
        row("GET", "tenants", "", "tenants", Exempt, 200),
        row("GET", "tenants/acme", "", "tenants", Exempt, 200),
        row("GET", "tenants/nope", "", "tenants", Exempt, 404),
        row("GET", "tenants/a/b", "", "tenants", Exempt, 400),
        row("PUT", "tenants/zed", "", "tenants", Exempt, 201),
        row(
            "PUT",
            "tenants/zed",
            "{\"burst\": 3}",
            "tenants",
            Exempt,
            200,
        ),
        row("DELETE", "tenants/zed", "", "tenants", Exempt, 200),
        row("DELETE", "tenants/default", "", "tenants", Exempt, 409),
        top("/healthz", "healthz", "healthz"),
        top("/readyz", "readyz", "readyz"),
        top("/metrics", "metrics", "metrics"),
        row("GET", "repl/status", "", "repl", Exempt, 200),
        row("GET", "repl/stream", "", "repl", Exempt, 400),
        row("GET", "debug/requests", "", "debug", Exempt, obs(200)),
        row("GET", "debug/requests/nope", "", "debug", Exempt, 404),
        row("GET", "debug/requests/a/b", "", "debug", Exempt, obs(400)),
        row("POST", "debug/panic", "", "other", Exempt, 404),
        row("GET", "nope", "", "other", Exempt, 404),
        row("POST", "shutdown", "", "shutdown", Exempt, 200),
    ]
}

/// Every route in its bare form, served by the `default` tenant; the
/// bare-only top-level routes answer here and only here.
#[test]
fn bare_routes_match_the_matrix() {
    let (server, mut c) = start(None);
    let (status, body) = c.request("PUT", "/v1/tenants/acme", "").unwrap();
    assert_eq!(status, 201, "{body}");
    let schema = fixtures::university().to_json();
    let mut rows = common_rows(&schema, false);
    rows.insert(
        rows.len() - 1,
        row(
            "GET",
            "/metrics?format=prometheus",
            "",
            "metrics",
            Exempt,
            200,
        ),
    );
    rows.insert(
        rows.len() - 1,
        row("GET", "/nope", "", "other", Exempt, 404),
    );
    rows.insert(
        rows.len() - 1,
        row("GET", "/v1/t/acme", "", "other", Exempt, 404),
    );
    rows.insert(
        rows.len() - 1,
        row("GET", "/v1/t/Bad!/complete", "", "other", Exempt, 400),
    );
    run(&server, &mut c, "/v1/", "default", &rows);
    server.join();
}

/// Every route under `/v1/t/acme/`: the same rows charge `acme`'s quota,
/// the tenant control plane and the other exempt routes stay reachable
/// (and unscoped), and an unknown tenant is a 404 under the route's
/// label that charges nobody.
#[test]
fn tenant_scoped_routes_match_the_matrix() {
    let (server, mut c) = start(None);
    let (status, body) = c.request("PUT", "/v1/tenants/acme", "").unwrap();
    assert_eq!(status, 201, "{body}");
    let schema = fixtures::university().to_json();
    let mut rows = common_rows(&schema, true);
    for r in [
        row("GET", "/v1/t/nope/complete", "", "other", Exempt, 404),
        row("POST", "/v1/t/nope/complete", "{}", "complete", Exempt, 404),
        row("GET", "/v1/t/nope/tenants", "", "tenants", Exempt, 404),
        row("PUT", "/v1/t/nope/schemas/x", "{}", "schemas", Exempt, 404),
    ] {
        rows.insert(rows.len() - 1, r);
    }
    run(&server, &mut c, "/v1/t/acme/", "acme", &rows);
    server.join();
}

/// On a follower, schema writes are answered 421 with the leader's
/// address, after the rate quota has been charged; data loads and reads
/// stay node-local.
#[test]
fn follower_redirects_schema_writes_only() {
    // Nothing listens on the leader address: the follower never catches
    // up, which leaves the write routes' answers unaffected.
    let (server, mut c) = start(Some("127.0.0.1:9".to_owned()));
    let (status, body) = c.request("PUT", "/v1/tenants/acme", "").unwrap();
    assert_eq!(status, 201, "{body}");
    let rows = [
        row("PUT", "schemas/uni", "{}", "schemas", Admitted, 421),
        row("DELETE", "schemas/uni", "", "schemas", Admitted, 421),
        row("PUT", "schemas/a/b", "{}", "schemas", Admitted, 421),
        row("GET", "schemas/uni", "", "schemas", Admitted, 404),
        row("PUT", "data/uni", "{}", "data", Admitted, 404),
        row("GET", "repl/stream", "", "repl", Exempt, 400),
    ];
    run(&server, &mut c, "/v1/", "default", &rows);
    run(&server, &mut c, "/v1/t/acme/", "acme", &rows);
    let resp = c.request_with("PUT", "/v1/schemas/uni", "{}", &[]).unwrap();
    assert_eq!(resp.header("x-ipe-leader"), Some("127.0.0.1:9"));
    server.shutdown();
}
