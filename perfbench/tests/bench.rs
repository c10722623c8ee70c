//! Tests of the benchmark itself: determinism of the request sequences,
//! agreement of the printed metrics with `BENCHMARK.json`, and failure on
//! a corrupted oracle.

use ipe_perfbench::bench::{run, Opts};
use ipe_perfbench::metrics::{MetricDef, Result as RunResult, END_TO_END, PER_LAYER};
use ipe_perfbench::oracle::{same_modulo_volatile, Oracle};
use ipe_perfbench::workload::{self as wl, Fixture, Workload};
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn pool(w: Workload, fx: &Fixture) -> Vec<wl::ReadKey> {
    match w {
        Workload::CompleteHot => wl::hot_pool(fx),
        Workload::CompleteCold => wl::cold_pool(&fx.cupid, &wl::build_index(&fx.cupid)),
        Workload::QueryEval => wl::query_pool(fx),
    }
}

/// The first `n` requests, as wire bytes, that `w` sends under `seed`, in
/// the connection-interleaved order the layer replay follows.
fn request_sequence(w: Workload, pool: &[wl::ReadKey], seed: u64, n: usize) -> Vec<Vec<u8>> {
    wl::interleaved_keys(&wl::key_order(w, pool.len(), seed, 2), n)
        .into_iter()
        .map(|k| wl::wire("POST", w.read_path(), &pool[k as usize].body))
        .collect()
}

#[test]
fn same_seed_gives_identical_request_sequence() {
    let fx = Fixture::new();
    for w in Workload::ALL {
        let pool = pool(w, &fx);
        let a = request_sequence(w, &pool, 42, 5000);
        let b = request_sequence(w, &pool, 42, 5000);
        let c = request_sequence(w, &pool, 43, 5000);
        assert_eq!(a, b, "{}: same seed, different requests", w.name());
        assert_ne!(a, c, "{}: different seeds, same requests", w.name());
        // The fixture itself is seed-independent.
        assert_eq!(Fixture::new().cupid_json, fx.cupid_json);
    }
}

#[test]
fn cold_pool_outgrows_the_cache_and_hot_pool_fits_it() {
    let fx = Fixture::new();
    let cold = pool(Workload::CompleteCold, &fx);
    assert!(cold.len() > 3 * 4096, "cold pool has {} keys", cold.len());
    assert_eq!(pool(Workload::CompleteHot, &fx).len(), 31);
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside perfbench/");
    serde_json::parse_value_text(&text).expect("BENCHMARK.json parses")
}

fn entries<'v>(doc: &'v Value, key: &str) -> &'v [Value] {
    match doc.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("BENCHMARK.json `{key}` is not a list: {other:?}"),
    }
}

fn text<'v>(v: &'v Value, key: &str) -> &'v str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

fn assert_catalogue(doc: &Value, key: &str, defs: &[MetricDef]) {
    let listed: Vec<(String, String, String)> = entries(doc, key)
        .iter()
        .map(|m| {
            (
                text(m, "name").to_owned(),
                text(m, "unit").to_owned(),
                text(m, "better").to_owned(),
            )
        })
        .collect();
    let printed: Vec<(String, String, String)> = defs
        .iter()
        .map(|d| {
            let better = if d.lower_is_better { "lower" } else { "higher" };
            (d.name.to_owned(), d.unit.to_owned(), better.to_owned())
        })
        .collect();
    assert_eq!(listed, printed, "`{key}` of BENCHMARK.json");
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let doc = benchmark_json();
    assert_catalogue(&doc, "end_to_end", END_TO_END);
    assert_catalogue(&doc, "per_layer", PER_LAYER);
    let workloads: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    // The result line carries exactly the catalogue, and refuses anything
    // else.
    for defs in [END_TO_END, PER_LAYER] {
        let result = RunResult {
            correct: true,
            attempted: 1,
            failed: 0,
            values: defs.iter().map(|d| (d.name, 1.5)).collect(),
        };
        let line = result.render(defs).unwrap();
        let parsed = serde_json::parse_value_text(&line).unwrap();
        let Some(Value::Map(metrics)) = parsed.get("metrics") else {
            panic!("no metrics map in {line}");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
        assert_eq!(names, want);
        let short = RunResult {
            values: result.values[1..].to_vec(),
            ..result
        };
        assert!(short.render(defs).is_err());
    }
}

#[test]
fn corrupted_oracle_disagrees_with_the_clean_one() {
    let fx = Fixture::new();
    let clean = Oracle::new(Arc::clone(&fx.cupid), false);
    let corrupt = Oracle::new(Arc::clone(&fx.cupid), true);
    for key in wl::hot_pool(&fx)
        .iter()
        .filter(|k| k.schema == wl::SCHEMA_NAME)
    {
        let a = clean.complete_body(key, 1).unwrap();
        let b = corrupt.complete_body(key, 1).unwrap();
        assert!(same_modulo_volatile(a.as_bytes(), a.as_bytes()));
        assert!(
            !same_modulo_volatile(a.as_bytes(), b.as_bytes()),
            "{}",
            key.query
        );
    }
}

/// The `ipe` binary: `$PERFBENCH_IPE`, or a fresh release build.
fn ipe_binary() -> PathBuf {
    if let Ok(path) = std::env::var("PERFBENCH_IPE") {
        return PathBuf::from(path);
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let status = std::process::Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--bin",
            "ipe",
            "--manifest-path",
        ])
        .arg(root.join("Cargo.toml"))
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building ipe failed");
    let target = std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| root.join("target"));
    target.join("release").join("ipe")
}

fn short_run(workload: Workload, corrupt_oracle: bool) -> RunResult {
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "perfbench-test-{}-{}",
        workload.name(),
        corrupt_oracle
    ));
    let opts = Opts {
        workload,
        seed: 5,
        seconds: 1,
        trace: false,
        ipe: ipe_binary(),
        work: work.clone(),
        corrupt_oracle,
    };
    let report = run(&opts).expect("the run completes");
    let _ = std::fs::remove_dir_all(&work);
    report.result
}

#[test]
fn corrupted_oracle_makes_the_run_fail() {
    let clean = short_run(Workload::CompleteHot, false);
    assert!(clean.correct && clean.failed == 0);
    for w in [Workload::CompleteHot, Workload::CompleteCold] {
        let bad = short_run(w, true);
        assert!(!bad.correct, "{}: a corrupted oracle passed", w.name());
        assert!(bad.failed > 0, "{}: no failed operation counted", w.name());
    }
}
