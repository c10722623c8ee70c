//! End-to-end tests of the service's background index builds: completes
//! issued during the build window succeed unindexed, post-build requests
//! report index hits in `/metrics`, and a restart rebuilds every
//! recovered schema's index from the WAL and snapshot alone — files an
//! older build left in the data directory are ignored.

use ipe_schema::fixtures;
use ipe_service::{Client, FsyncPolicy, Server, ServiceConfig};
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ipe-service-index-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn server_with(data_dir: Option<&Path>, build_delay_ms: u64) -> (Server, Client) {
    let server = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        reactors: 2,
        queue_depth: 16,
        request_timeout: Duration::from_secs(5),
        cache_capacity: 256,
        cache_shards: 2,
        data_dir: data_dir.map(Path::to_path_buf),
        fsync: FsyncPolicy::Always,
        snapshot_every: 4,
        index_build_delay_ms: build_delay_ms,
        ..Default::default()
    })
    .expect("bind ephemeral port");
    let client = Client::new(server.addr().to_string());
    (server, client)
}

fn get(v: &Value, key: &str) -> Value {
    v.get(key)
        .unwrap_or_else(|| panic!("missing key {key}"))
        .clone()
}

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::I64(i) => *i as u64,
        Value::U64(u) => *u,
        other => panic!("expected number, got {other:?}"),
    }
}

/// The `service.index` section of `/metrics`.
fn index_metrics(client: &mut Client) -> Value {
    let (status, body) = client.request("GET", "/metrics", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    get(&get(&v, "service"), "index")
}

/// Polls `/metrics` until the index section satisfies `pred`, panicking
/// after ten seconds.
fn wait_for_index(client: &mut Client, what: &str, pred: impl Fn(&Value) -> bool) -> Value {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let m = index_metrics(client);
        if pred(&m) {
            return m;
        }
        if Instant::now() > deadline {
            panic!("timed out waiting for {what}; last metrics: {m:?}");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// A complete issued during the (artificially widened) build window must
/// succeed — served unindexed — and once the build lands, fresh requests
/// must count as indexed in `/metrics`.
#[test]
fn completes_succeed_during_build_window_then_hit_the_index() {
    let (server, mut client) = server_with(None, 800);
    let uni = fixtures::university().to_json();
    let (status, body) = client.request("PUT", "/v1/schemas/uni", &uni).unwrap();
    assert_eq!(status, 200, "{body}");

    // Inside the build window: the complete succeeds without the index.
    let (status, body) = client
        .request(
            "POST",
            "/v1/complete",
            r#"{"schema": "uni", "query": "ta~name"}"#,
        )
        .unwrap();
    assert_eq!(status, 200, "complete during index build failed: {body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    let completions = match get(&v, "completions") {
        Value::Seq(items) => items,
        other => panic!("expected completions array, got {other:?}"),
    };
    assert_eq!(completions.len(), 2, "{body}");
    let m = index_metrics(&mut client);
    assert!(
        as_u64(&get(&m, "completes_unindexed")) >= 1,
        "the in-window complete should have been unindexed: {m:?}"
    );
    assert_eq!(as_u64(&get(&m, "builds_completed")), 0, "{m:?}");

    // After the build: a fresh (uncached) query reports an index hit.
    wait_for_index(&mut client, "background build", |m| {
        as_u64(&get(m, "builds_completed")) >= 1
    });
    let (status, body) = client
        .request(
            "POST",
            "/v1/complete",
            r#"{"schema": "uni", "query": "student~name"}"#,
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let m = index_metrics(&mut client);
    assert!(
        as_u64(&get(&m, "completes_indexed")) >= 1,
        "post-build complete should report an index hit: {m:?}"
    );
    server.shutdown();
}

/// A completion response with the per-request fields (`cached`,
/// `duration_ns`) removed, so answers from two runs compare equal.
fn answer(client: &mut Client, query: &str) -> Value {
    let body = format!(r#"{{"schema": "uni", "query": "{query}"}}"#);
    let (status, text) = client.request("POST", "/v1/complete", &body).unwrap();
    assert_eq!(status, 200, "{text}");
    match serde_json::parse_value_text(&text).unwrap() {
        Value::Map(fields) => Value::Map(
            fields
                .into_iter()
                .filter(|(k, _)| k != "cached" && k != "duration_ns")
                .collect(),
        ),
        other => panic!("expected an object, got {other:?}"),
    }
}

const QUERIES: [&str; 2] = ["ta~name", "department~take"];

/// A restart persists nothing derived: the recovered schema's index comes
/// from a fresh background build, completions after the restart are
/// indexed again, and they match the answers from before the restart.
#[test]
fn restart_rebuilds_the_index_and_answers_identically() {
    let dir = tmp_dir("restart");
    let uni = fixtures::university().to_json();
    let before: Vec<Value> = {
        let (server, mut client) = server_with(Some(&dir), 0);
        let (status, body) = client.request("PUT", "/v1/schemas/uni", &uni).unwrap();
        assert_eq!(status, 200, "{body}");
        wait_for_index(&mut client, "initial build", |m| {
            as_u64(&get(m, "builds_completed")) == 1
        });
        let answers = QUERIES.iter().map(|q| answer(&mut client, q)).collect();
        server.shutdown();
        answers
    };
    let files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        files.iter().all(|f| f == "wal.log" || f == "snapshot.bin"),
        "only the WAL and the snapshot are written: {files:?}"
    );

    let (server, mut client) = server_with(Some(&dir), 0);
    let m = wait_for_index(&mut client, "rebuild after restart", |m| {
        as_u64(&get(m, "builds_completed")) == 1
    });
    let keys: Vec<&str> = match &m {
        Value::Map(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    };
    assert_eq!(
        keys,
        [
            "mode",
            "builds_completed",
            "builds_in_flight",
            "completes_indexed",
            "completes_unindexed"
        ],
        "no gauge reports persisted index loads"
    );
    let indexed = as_u64(&get(&m, "completes_indexed"));
    for (query, expected) in QUERIES.iter().zip(&before) {
        assert_eq!(&answer(&mut client, query), expected, "{query}");
    }
    let m = index_metrics(&mut client);
    assert_eq!(
        as_u64(&get(&m, "completes_indexed")),
        indexed + QUERIES.len() as u64,
        "post-restart misses must run indexed: {m:?}"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A data directory written by an older build still holds a warmup
/// journal and an index file beside the WAL. Boot ignores both: the
/// server starts, serves the recorded generation, and builds its own
/// index.
#[test]
fn leftover_index_and_warmup_files_are_ignored() {
    let dir = tmp_dir("leftover");
    let uni = fixtures::university().to_json();
    {
        let (server, mut client) = server_with(Some(&dir), 0);
        for _ in 0..2 {
            let (status, body) = client.request("PUT", "/v1/schemas/uni", &uni).unwrap();
            assert_eq!(status, 200, "{body}");
        }
        server.shutdown();
    }
    // The journal's `hits \t schema \t query` lines name the query the
    // first request below repeats; the index file is garbage.
    std::fs::write(dir.join("warmup.tsv"), "9\tuni\tta ~ name\n").unwrap();
    std::fs::write(dir.join("index-1.idx"), b"\xffnot an index at all").unwrap();

    let (server, mut client) = server_with(Some(&dir), 0);
    let (status, body) = client.request("GET", "/v1/schemas/uni", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    assert_eq!(as_u64(&get(&v, "id")), 1, "{body}");
    assert_eq!(as_u64(&get(&v, "generation")), 2, "{body}");
    wait_for_index(&mut client, "build despite the leftover files", |m| {
        as_u64(&get(m, "builds_completed")) == 1
    });
    // The journal named this query, but the cache starts cold.
    for cached in [false, true] {
        let (status, body) = client
            .request(
                "POST",
                "/v1/complete",
                r#"{"schema": "uni", "query": "ta~name"}"#,
            )
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let v = serde_json::parse_value_text(&body).unwrap();
        assert_eq!(as_u64(&get(&v, "generation")), 2, "{body}");
        assert_eq!(get(&v, "cached"), Value::Bool(cached), "{body}");
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
