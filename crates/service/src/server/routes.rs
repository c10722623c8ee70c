//! The route table and the request lifecycle around it.
//!
//! [`ROUTES`] is the one place that knows the service's URL shapes. Each
//! row names a method, a path pattern, the timer whose name carries the
//! route's label, the admission class, whether a follower redirects the
//! route to its leader, and the handler. Dispatch, quota admission, the
//! follower `421`, the per-route timers, and the flight-recorder and
//! access-log labels all read the one matched row.
//!
//! A tenant-scoped request (`/v1/t/:tenant/<rest>`) matches the same rows
//! as its bare spelling `/v1/<rest>` and runs under that tenant; a bare
//! request runs under the built-in `default` tenant, so legacy clients
//! never see a behavior change.

use super::handlers::{data, ops, schemas, search, tenants};
use super::state::ServiceState;
use crate::api::error_body;
use crate::http::Request;
use crate::repl::StreamStart;
use ipe_core::SearchStats;
use ipe_obs::{CompletedRequest, RequestTrace, SpanHandle, Timer};
use ipe_tenant::{Admission, Tenant, DEFAULT_TENANT};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// How a route is admitted against its tenant's quotas.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Class {
    /// Never throttled: health, metrics, replication, debug, and the
    /// tenant control plane. Throttling a health check or a scrape would
    /// blind the operator to the throttling itself, and an operator must
    /// always be able to raise a quota.
    Control,
    /// Takes one token of the tenant's request-rate quota.
    Work,
    /// Work that also holds one of the tenant's concurrent-search slots
    /// for the whole handler.
    Search,
}
use Class::{Control, Search, Work};

/// A handler's answer. `Err` is an early error reply, so handlers can
/// bail out with `?`.
pub(super) type Answer = Result<Reply, Reply>;

/// One row of [`ROUTES`].
pub(super) struct Route {
    method: &'static str,
    /// A literal path, or a literal prefix followed by one `:name`
    /// capture that takes the rest of the path.
    pattern: &'static str,
    /// The route's latency timer; its name is `service.route.<label>`.
    timer: &'static Timer,
    class: Class,
    /// Schema writes: a follower owns no part of the schema log, so it
    /// answers `421` with the leader's address.
    leader_only: bool,
    handler: fn(Call<'_>) -> Answer,
}

const fn route(
    method: &'static str,
    pattern: &'static str,
    timer: &'static Timer,
    class: Class,
    handler: fn(Call<'_>) -> Answer,
) -> Route {
    Route {
        method,
        pattern,
        timer,
        class,
        leader_only: false,
        handler,
    }
}

impl Route {
    const fn leader_only(self) -> Route {
        Route {
            leader_only: true,
            ..self
        }
    }

    /// The captured segment (`""` for a literal pattern) when this row
    /// matches. A `scoped` path has had its `/v1/t/:tenant` prefix
    /// removed, so it matches the part of the pattern after `/v1`.
    fn matches<'p>(&self, method: &str, path: &'p str, scoped: bool) -> Option<&'p str> {
        if self.method != method {
            return None;
        }
        let pattern = match scoped {
            true => self.pattern.strip_prefix("/v1")?,
            false => self.pattern,
        };
        match pattern.split_once(':') {
            Some((prefix, _)) => path.strip_prefix(prefix),
            None => (path == pattern).then_some(""),
        }
    }
}

/// The label of a `service.route.<label>` timer.
fn label(timer: &'static Timer) -> &'static str {
    &timer.name()["service.route.".len()..]
}

static COMPLETE: Timer = Timer::new("service.route.complete");
static BATCH: Timer = Timer::new("service.route.batch");
static QUERY: Timer = Timer::new("service.route.query");
static SCHEMAS: Timer = Timer::new("service.route.schemas");
static DATA: Timer = Timer::new("service.route.data");
static TENANTS: Timer = Timer::new("service.route.tenants");
static HEALTHZ: Timer = Timer::new("service.route.healthz");
static READYZ: Timer = Timer::new("service.route.readyz");
static METRICS: Timer = Timer::new("service.route.metrics");
static REPL: Timer = Timer::new("service.route.repl");
static DEBUG: Timer = Timer::new("service.route.debug");
static SHUTDOWN: Timer = Timer::new("service.route.shutdown");
/// Requests that match no row, and the opt-in panic route.
static OTHER: Timer = Timer::new("service.route.other");

/// Every route the service answers, hottest first.
#[rustfmt::skip]
static ROUTES: [Route; 23] = [
    route("POST", "/v1/complete", &COMPLETE, Search, search::complete),
    route("POST", "/v1/complete/batch", &BATCH, Search, search::batch),
    route("POST", "/v1/query", &QUERY, Search, search::query),
    route("GET", "/v1/schemas", &SCHEMAS, Work, schemas::list),
    route("GET", "/v1/schemas/:schema_name", &SCHEMAS, Work, schemas::get),
    route("PUT", "/v1/schemas/:schema_name", &SCHEMAS, Work, schemas::put).leader_only(),
    route("DELETE", "/v1/schemas/:schema_name", &SCHEMAS, Work, schemas::delete).leader_only(),
    route("GET", "/v1/data/:schema_name", &DATA, Work, data::get),
    route("PUT", "/v1/data/:schema_name", &DATA, Work, data::put),
    route("DELETE", "/v1/data/:schema_name", &DATA, Work, data::delete),
    route("GET", "/v1/tenants", &TENANTS, Control, tenants::list),
    route("GET", "/v1/tenants/:tenant_name", &TENANTS, Control, tenants::get),
    route("PUT", "/v1/tenants/:tenant_name", &TENANTS, Control, tenants::put),
    route("DELETE", "/v1/tenants/:tenant_name", &TENANTS, Control, tenants::delete),
    route("GET", "/healthz", &HEALTHZ, Control, ops::healthz),
    route("GET", "/readyz", &READYZ, Control, ops::readyz),
    route("GET", "/metrics", &METRICS, Control, ops::metrics),
    route("GET", "/v1/repl/stream", &REPL, Control, ops::repl_stream),
    route("GET", "/v1/repl/status", &REPL, Control, ops::repl_status),
    route("GET", "/v1/debug/requests", &DEBUG, Control, ops::debug_requests),
    route("GET", "/v1/debug/requests/:trace_id", &DEBUG, Control, ops::debug_request),
    route("POST", "/v1/debug/panic", &OTHER, Control, ops::debug_panic),
    route("POST", "/v1/shutdown", &SHUTDOWN, Control, ops::shutdown),
];

/// Splits a tenant-scoped path (`/v1/t/:tenant/<rest>`) into the tenant
/// name and `/<rest>`. Bare paths come back whole, with no tenant.
fn scope(path: &str) -> Result<(Option<&str>, &str), Reply> {
    let Some(rest) = path.strip_prefix("/v1/t/") else {
        return Ok((None, path));
    };
    let Some(slash) = rest.find('/') else {
        return Err(Reply::error(
            404,
            "tenant-scoped paths look like /v1/t/:tenant/<route>",
        ));
    };
    let (tenant, tail) = rest.split_at(slash);
    ipe_tenant::validate_tenant_name(tenant).map_err(|e| Reply::error(400, &e.to_string()))?;
    Ok((Some(tenant), tail))
}

/// What a handler is called with.
pub(super) struct Call<'a> {
    pub(super) state: &'a Arc<ServiceState>,
    pub(super) req: &'a Request,
    pub(super) tenant: &'a Arc<Tenant>,
    pub(super) obs: &'a mut ReqObs,
    route: &'static Route,
    /// The text the route's `:name` capture took.
    arg: &'a str,
}

impl<'a> Call<'a> {
    /// The route's `:name` segment. It is outside input, so it must be a
    /// single non-empty path segment; otherwise the request is a `400`.
    pub(super) fn segment(&self) -> Result<&'a str, Reply> {
        if self.arg.is_empty() || self.arg.contains('/') {
            let name = self.route.pattern.rsplit_once(':').map_or("", |(_, n)| n);
            let what = name.replace('_', " ");
            return Err(Reply::error(
                400,
                &format!("{what} must be a single path segment"),
            ));
        }
        Ok(self.arg)
    }

    /// The request body as UTF-8 text (a `400` otherwise).
    pub(super) fn text(&self) -> Result<&'a str, Reply> {
        self.req.text().map_err(|msg| Reply::error(400, msg))
    }

    /// The request body parsed as JSON into `T` (a `400` otherwise).
    pub(super) fn json_body<T: serde::Deserialize>(&self) -> Result<T, Reply> {
        serde_json::from_str(self.text()?)
            .map_err(|e| Reply::error(400, &format!("bad request body: {e}")))
    }
}

/// One routed response: status, body, and its content type (JSON for
/// everything except the Prometheus exposition).
pub(crate) struct Reply {
    pub(crate) status: u16,
    pub(crate) body: String,
    pub(crate) content_type: &'static str,
    /// Extra response headers (e.g. `x-ipe-leader` on follower `421`s).
    pub(crate) headers: Vec<(&'static str, String)>,
    /// When set, the reactor writes a bare head (no `Content-Length`,
    /// `Connection: close`), detaches the socket from its epoll loop, and
    /// hands it to a replication streaming thread.
    pub(crate) stream: Option<StreamStart>,
}

impl Reply {
    pub(super) fn json(status: u16, body: String) -> Reply {
        Reply {
            status,
            body,
            content_type: "application/json",
            headers: Vec::new(),
            stream: None,
        }
    }

    /// An error reply: `{"error": msg}`.
    pub(super) fn error(status: u16, msg: &str) -> Reply {
        Reply::json(status, error_body(msg))
    }

    /// `value` serialized as the JSON body.
    pub(super) fn serialized<T: serde::Serialize>(status: u16, value: &T) -> Reply {
        match serde_json::to_string(value) {
            Ok(json) => Reply::json(status, json),
            Err(e) => Reply::error(500, &e.to_string()),
        }
    }

    pub(super) fn with_header(mut self, name: &'static str, value: String) -> Reply {
        self.headers.push((name, value));
        self
    }
}

/// The request's propagated trace id when it is header-and-JSON safe,
/// otherwise a fresh one.
fn trace_id(req: &Request) -> String {
    match req
        .trace_id
        .as_deref()
        .filter(|id| ipe_obs::valid_trace_id(id))
    {
        Some(id) => id.to_owned(),
        None => ipe_obs::gen_trace_id(),
    }
}

/// [`handle_request`] behind a panic barrier: a panicking handler is
/// answered `500` and the poisoned locks it left behind are recovered by
/// the next `lock_recover`, so one bad request can no longer take the
/// server down with it. (`AssertUnwindSafe` is justified by exactly that
/// recovery story: every lock crossing this boundary is poison-recovered
/// and guards append-ordered or idempotent state.)
pub(crate) fn handle_request_catching(state: &Arc<ServiceState>, req: &Request) -> (Reply, String) {
    let caught =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle_request(state, req)));
    caught.unwrap_or_else(|_| {
        ipe_obs::counter!("service.request.panicked", 1);
        let reply = Reply::error(500, "internal error: request handler panicked");
        (reply, trace_id(req))
    })
}

/// Per-request observability context handed down to the route handlers:
/// the span handle children are opened under, plus the fields the access
/// log reports. The handle is disabled for unsampled requests, making
/// every span operation a no-op.
pub(super) struct ReqObs {
    pub(super) span: SpanHandle,
    /// Whether the completion cache answered (`None` for routes that do
    /// not consult it).
    pub(super) cache_hit: Option<bool>,
    /// Search node expansions performed by this request.
    expansions: u64,
    /// Search branches pruned by this request.
    prunes: u64,
}

impl ReqObs {
    /// Folds one search run's counters into the access-log totals.
    pub(super) fn absorb_stats(&mut self, stats: &SearchStats) {
        self.expansions += stats.calls;
        self.prunes += stats.pruned_visited
            + stats.pruned_best_t
            + stats.pruned_best_u
            + stats.pruned_index_unreachable
            + stats.pruned_index_bound;
    }
}

/// The full request lifecycle around [`dispatch`]: trace-id extraction (or
/// generation), head sampling, the root `http` span, tenant scoping, the
/// route lookup, per-route timing, flight-recorder retention, and the
/// access log. Returns the reply and the trace id to echo in the
/// `x-ipe-trace-id` response header.
fn handle_request(state: &Arc<ServiceState>, req: &Request) -> (Reply, String) {
    let _t = ipe_obs::timer!("service.request");
    ipe_obs::counter!("service.requests", 1);
    state.requests_total.fetch_add(1, Ordering::Relaxed);
    let started = Instant::now();
    let trace_id = trace_id(req);
    let sampled = state.flight.should_sample();
    let trace = sampled.then(|| RequestTrace::start(trace_id.clone(), 0));
    let mut obs = ReqObs {
        span: trace.as_ref().map(|t| t.root_handle()).unwrap_or_default(),
        cache_hit: None,
        expansions: 0,
        prunes: 0,
    };
    let mut http_span = obs.span.child("http");
    if obs.span.is_enabled() {
        // Guarded: the format allocates, and unsampled requests must pay
        // only the sampling check.
        http_span.note(&format!("{} {}", req.method, req.path));
    }
    obs.span = http_span.handle();
    let (reply, timer) = match scope(&req.path) {
        Err(reply) => (reply, &OTHER),
        Ok((scope, path)) => {
            let matched = ROUTES.iter().find_map(|route| {
                let arg = route.matches(&req.method, path, scope.is_some())?;
                Some((route, arg))
            });
            let tenant_name = scope.unwrap_or(DEFAULT_TENANT);
            let reply = match (state.tenants.get(tenant_name), matched) {
                (None, _) => Reply::error(404, &format!("no tenant named `{tenant_name}`")),
                (Some(_), None) => Reply::error(404, "no such endpoint"),
                (Some(tenant), Some((route, arg))) => {
                    let call = Call {
                        state,
                        req,
                        tenant: &tenant,
                        obs: &mut obs,
                        route,
                        arg,
                    };
                    dispatch(call)
                }
            };
            (reply, matched.map_or(&OTHER, |(route, _)| route.timer))
        }
    };
    http_span.attr("status", reply.status as u64);
    http_span.finish();
    let duration_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    timer.record_ns(duration_ns);
    let label = label(timer);
    let error = reply.status >= 400;
    let slow = state.slow_ms > 0 && duration_ns >= state.slow_ms.saturating_mul(1_000_000);
    if sampled || error || slow {
        let (spans, dropped_spans) = match trace {
            Some(t) => {
                let done = t.finish();
                (done.spans, done.dropped)
            }
            None => (Vec::new(), 0),
        };
        state.flight.record(CompletedRequest {
            trace_id: trace_id.clone(),
            route: label,
            method: req.method.clone(),
            path: req.path.clone(),
            status: reply.status,
            duration_ns,
            error,
            slow,
            spans,
            dropped_spans,
            seq: 0,
        });
    }
    if state.access_log {
        eprintln!(
            "{}",
            access_log_line(&trace_id, label, req, reply.status, duration_ns, slow, &obs)
        );
    }
    (reply, trace_id)
}

/// Runs one matched route under its tenant: admission first, before any
/// parsing or search work (the rate quota on work routes, then the
/// concurrent-search cap on search routes, the permit held for the whole
/// handler), then the follower redirect, then the handler.
fn dispatch(call: Call<'_>) -> Reply {
    let (route, tenant) = (call.route, call.tenant);
    if route.class != Control {
        if let Admission::Throttled { retry_after_ms } = tenant.admit_request() {
            return throttled_reply(tenant.name(), "request rate quota exceeded", retry_after_ms);
        }
    }
    let _permit = match route.class {
        Search => match tenant.begin_search() {
            Ok(permit) => Some(permit),
            Err(retry_after_ms) => {
                let what = "concurrent-search cap reached";
                return throttled_reply(tenant.name(), what, retry_after_ms);
            }
        },
        Work | Control => None,
    };
    if let (true, Some(follower)) = (route.leader_only, &call.state.follower) {
        ipe_obs::counter!("repl.follower.writes_rejected", 1);
        let msg = format!(
            "this node is a read-only follower; send schema writes for tenant `{}` to the leader at {}",
            tenant.name(),
            follower.leader
        );
        return Reply::error(421, &msg).with_header("x-ipe-leader", follower.leader.clone());
    }
    (route.handler)(call).unwrap_or_else(|reply| reply)
}

/// One structured access-log line: trace id, route, status, duration,
/// cache outcome, and search effort, as a single JSON object.
fn access_log_line(
    trace_id: &str,
    route: &'static str,
    req: &Request,
    status: u16,
    duration_ns: u64,
    slow: bool,
    obs: &ReqObs,
) -> String {
    use std::fmt::Write as _;
    let ts_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut out = String::with_capacity(224);
    let _ = write!(out, "{{\"ts_ms\": {ts_ms}, \"trace_id\": ");
    ipe_obs::json::push_str_literal(&mut out, trace_id);
    out.push_str(", \"route\": ");
    ipe_obs::json::push_str_literal(&mut out, route);
    out.push_str(", \"method\": ");
    ipe_obs::json::push_str_literal(&mut out, &req.method);
    out.push_str(", \"path\": ");
    ipe_obs::json::push_str_literal(&mut out, &req.path);
    let _ = write!(
        out,
        ", \"status\": {status}, \"duration_ns\": {duration_ns}"
    );
    match obs.cache_hit {
        Some(hit) => {
            let _ = write!(out, ", \"cache_hit\": {hit}");
        }
        None => out.push_str(", \"cache_hit\": null"),
    }
    let _ = write!(
        out,
        ", \"expansions\": {}, \"prunes\": {}, \"slow\": {slow}}}",
        obs.expansions, obs.prunes
    );
    out
}

/// Body of every `429`: the machine-readable retry envelope shared with
/// the replica `409` (see `handlers::search`) — `retryable` says whether
/// this same node can eventually serve the request, `retry_after_ms` is
/// the server's backoff hint. Clients branch on the fields, not on
/// message text.
#[derive(serde::Serialize)]
struct ThrottleBody {
    error: String,
    retryable: bool,
    retry_after_ms: u64,
    tenant: String,
}

/// Renders a `429 Too Many Requests` with the unified retry envelope and
/// a `Retry-After` header (whole seconds, rounded up, at least 1).
fn throttled_reply(tenant: &str, what: &str, retry_after_ms: u64) -> Reply {
    let body = ThrottleBody {
        error: format!("tenant `{tenant}`: {what}"),
        retryable: true,
        retry_after_ms,
        tenant: tenant.to_owned(),
    };
    let retry_after = retry_after_ms.div_ceil(1000).max(1).to_string();
    Reply::serialized(429, &body).with_header("retry-after", retry_after)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The row a request matches, by label and captured segment.
    fn lookup(method: &str, path: &'static str) -> Option<(&'static str, &'static str)> {
        let (scope, path) = scope(path).ok()?;
        ROUTES.iter().find_map(|route| {
            let arg = route.matches(method, path, scope.is_some())?;
            Some((label(route.timer), arg))
        })
    }

    /// Labels cover every endpoint family; captures take the rest of the
    /// path; scoped paths match their bare spelling; unknown paths match
    /// no row.
    #[test]
    fn rows_match_by_method_and_pattern() {
        assert_eq!(lookup("POST", "/v1/complete"), Some(("complete", "")));
        assert_eq!(lookup("POST", "/v1/complete/batch"), Some(("batch", "")));
        assert_eq!(lookup("PUT", "/v1/schemas/x"), Some(("schemas", "x")));
        assert_eq!(lookup("PUT", "/v1/schemas/a/b"), Some(("schemas", "a/b")));
        assert_eq!(lookup("GET", "/v1/t/acme/data/s"), Some(("data", "s")));
        assert_eq!(lookup("GET", "/v1/t/acme/tenants"), Some(("tenants", "")));
        assert_eq!(lookup("GET", "/healthz"), Some(("healthz", "")));
        assert_eq!(
            lookup("GET", "/v1/debug/requests/ab"),
            Some(("debug", "ab"))
        );
        assert_eq!(lookup("POST", "/v1/shutdown"), Some(("shutdown", "")));
        assert_eq!(lookup("GET", "/v1/t/acme/healthz"), None);
        assert_eq!(lookup("POST", "/v1/completeX"), None);
        assert_eq!(lookup("GET", "/v1/complete"), None);
        assert_eq!(lookup("GET", "/v1/schemasfoo"), None);
        assert_eq!(lookup("GET", "/nope"), None);
    }

    /// Every row's timer is a `service.route.*` timer, so every label
    /// slices cleanly.
    #[test]
    fn every_timer_names_a_route_label() {
        for route in &ROUTES {
            assert!(route.timer.name().starts_with("service.route."));
            assert!(!label(route.timer).is_empty());
        }
    }
}
