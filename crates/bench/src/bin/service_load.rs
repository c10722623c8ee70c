//! Correctness probe and tracing-overhead gate for the `ipe-service`
//! disambiguation server. Throughput and latency are the benchmark's job
//! (`python3 perfbench/run.py`, workloads `complete_hot` and
//! `complete_cold`), not this binary's.
//!
//! Two modes:
//!
//! * default: the tracing-overhead gate — warm-path server-side latency
//!   with tracing off vs. unsampled vs. sampled 1-in-`--trace-sample`
//!   (default 1), each on a fresh in-process server. Fails if unsampled
//!   tracing costs more than 2% over the no-tracing baseline, and writes
//!   the three regimes to `BENCH_service.json`.
//! * `--smoke`: the CI probe — spawn `ipe serve` (the sibling binary, or
//!   `$IPE_BIN`), complete `ta~name` against its `default` schema, assert
//!   the two Figure-2 answers, a cache hit on the repeat and the
//!   `/metrics` cache counters, then hammer the reactors with a
//!   64-connection burst whose every answer is checked. Ends with
//!   `POST /v1/shutdown` and fails unless the server exits 0.
//!
//! ```text
//! service_load [--trace-sample N] [--smoke]
//! ```

use ipe_bench::{call, json, json_bool, json_str, json_u64, write_run_report_with_stats};
use ipe_schema::fixtures;
use ipe_service::{Client, Server, ServiceConfig};
use serde::Value;
use std::process::ExitCode;

fn main() -> ExitCode {
    let (smoke_mode, trace_sample) =
        ipe_bench::args(|a| Ok((a.switch("--smoke"), a.num("--trace-sample", 1u64)?)));
    ipe_bench::exit(if smoke_mode {
        smoke()
    } else {
        overhead_gate(trace_sample)
    })
}

/// One `POST /v1/complete` of `ta~name` on the `default` schema,
/// returning (texts, cached, server duration ns).
fn complete(client: &mut Client) -> Result<(Vec<String>, bool, u64), String> {
    let body = "{\"schema\": \"default\", \"query\": \"ta~name\"}";
    let v = json(&call(client, "POST", "/v1/complete", body, 200)?)?;
    let Some(Value::Seq(items)) = v.get("completions") else {
        return Err("completions is not an array".to_owned());
    };
    let texts = items
        .iter()
        .map(|item| json_str(item, "text").map(str::to_owned))
        .collect::<Result<_, _>>()?;
    Ok((
        texts,
        json_bool(&v, "cached")?,
        json_u64(&v, "duration_ns")?,
    ))
}

const FIGURE2: [&str; 2] = [
    "ta@>grad@>student@>person.name",
    "ta@>instructor@>teacher@>employee@>person.name",
];

/// Whether `texts` are exactly the two Figure-2 answers.
fn is_figure2(texts: &[String]) -> bool {
    texts.len() == 2 && FIGURE2.iter().all(|e| texts.iter().any(|t| t == e))
}

/// High-concurrency correctness burst: `conns` simultaneous keep-alive
/// connections, each issuing `reps` completions, every answer checked.
/// Exercises the reactor front end (accept sharding, per-connection
/// state machines) well past the old thread-per-connection scale.
fn burst(addr: &str, conns: usize, reps: usize) -> Result<(), String> {
    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..conns {
            handles.push(scope.spawn(move || {
                let mut client = Client::new(addr);
                for _ in 0..reps {
                    let (texts, _, _) = complete(&mut client)?;
                    if !is_figure2(&texts) {
                        return Err(format!("burst answer diverged: {texts:?}"));
                    }
                }
                Ok(())
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("burst connection panicked"))
            .collect()
    });
    let failures: Vec<String> = results.into_iter().filter_map(|r| r.err()).collect();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} of {conns} burst connections failed; first: {}",
            failures.len(),
            failures[0]
        ))
    }
}

/// The CI probe against a spawned `ipe serve`.
fn smoke() -> Result<(), String> {
    let (child, addr) = ipe_bench::spawn_ipe(&[])?;
    let probed = probe(&addr);
    probed.and(ipe_bench::shutdown_ipe(child, &addr))
}

/// Figure-2 answers, a cache hit on the repeat, the `/metrics` cache
/// counters, then a high-concurrency burst.
fn probe(addr: &str) -> Result<(), String> {
    let mut client = Client::new(addr);
    let (texts, cached, cold_ns) = complete(&mut client)?;
    if !is_figure2(&texts) {
        return Err(format!(
            "expected exactly the 2 Figure-2 answers, got {texts:?}"
        ));
    }
    if cached {
        return Err("first request must not be cached".to_owned());
    }
    let (texts2, cached2, warm_ns) = complete(&mut client)?;
    if !cached2 {
        return Err("second identical request must be a cache hit".to_owned());
    }
    if texts2 != texts {
        return Err("cached answer diverges from the computed one".to_owned());
    }
    let metrics = json(&call(&mut client, "GET", "/metrics", "", 200)?)?;
    let cache = metrics
        .get("service")
        .and_then(|s| s.get("cache"))
        .ok_or("/metrics has no service.cache section")?;
    let (hits, misses) = (json_u64(cache, "hits")?, json_u64(cache, "misses")?);
    if hits < 1 || misses < 1 {
        return Err(format!(
            "/metrics counters inconsistent: hits {hits}, misses {misses}"
        ));
    }
    const BURST_CONNS: usize = 64;
    const BURST_REPS: usize = 8;
    burst(addr, BURST_CONNS, BURST_REPS)?;
    println!(
        "smoke OK: ta~name -> 2 Figure-2 completions, cold {cold_ns}ns, warm (cached) {warm_ns}ns; \
         burst {BURST_CONNS}x{BURST_REPS} lossless"
    );
    Ok(())
}

/// Warm-path server-side latency under three tracing configurations:
/// tracing off (`trace_sample_n` 0, no sampling tick), unsampled (a
/// sampling tick that declines every request), and sampled 1-in-`sample_n`.
/// Returns `(p50_ns, min_ns)` per mode. Each mode gets its own fresh
/// in-process server; rounds are interleaved across the three so drift
/// hits them equally, and the comparison uses the server-reported
/// `duration_ns` so the socket does not participate.
fn trace_overhead_stage(sample_n: u64) -> Result<[(u64, u64); 3], String> {
    let configs = [0u64, u64::MAX, sample_n.max(1)];
    let mut servers = Vec::new();
    for n in configs {
        let server = Server::start(ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            reactors: 2,
            trace_sample_n: n,
            slow_ms: 0,
            ..Default::default()
        })
        .map_err(|e| format!("cannot start overhead server: {e}"))?;
        server
            .state()
            .registry
            .insert("default", fixtures::university());
        let addr = server.addr().to_string();
        servers.push((server, Client::new(addr)));
    }
    // Prime each cache so every measured repetition is a warm hit.
    for (_, client) in servers.iter_mut() {
        complete(client)?;
    }
    let mut samples: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    const ROUNDS: usize = 3;
    const PER_ROUND: usize = 67; // ~200 warm repetitions per regime
    for _ in 0..ROUNDS {
        for (i, (_, client)) in servers.iter_mut().enumerate() {
            for _ in 0..PER_ROUND {
                let (_, cached, ns) = complete(client)?;
                if !cached {
                    return Err("overhead repetition missed the cache".to_owned());
                }
                samples[i].push(ns as f64);
            }
        }
    }
    for (server, mut client) in servers {
        let _ = client.request("POST", "/v1/shutdown", "");
        server.join();
    }
    Ok(samples.map(|s| {
        let summary = ipe_metrics::summarize(&s).expect("PER_ROUND samples per mode");
        (summary.median as u64, summary.min as u64)
    }))
}

/// Tracing overhead: off vs. unsampled vs. sampled, fresh servers,
/// server-side warm-path latency. The gate is on the minimum (robust
/// for a compute-bound path — noise only adds time), with a 500ns
/// absolute floor below which the timers cannot distinguish the modes
/// anyway.
fn overhead_gate(trace_sample: u64) -> Result<(), String> {
    let [(off_p50, off_min), (uns_p50, uns_min), (smp_p50, _smp_min)] =
        trace_overhead_stage(trace_sample)?;
    // Overhead is reported on the minima, same statistic the gate uses:
    // on a microsecond-scale warm path the p50 jitters by tens of ns
    // between runs, which would swamp the quantity being measured.
    let overhead_pct = if off_min > 0 {
        (uns_min as f64 - off_min as f64) * 100.0 / off_min as f64
    } else {
        0.0
    };
    println!(
        "tracing:         off min {}ns (p50 {}ns), unsampled min {}ns ({overhead_pct:+.2}%), sampled(1/{}) p50 {}ns",
        off_min,
        off_p50,
        uns_min,
        trace_sample.max(1),
        smp_p50
    );
    if uns_min > off_min + (off_min / 50).max(500) {
        return Err(format!(
            "unsampled tracing overhead exceeds the 2% budget: \
             off min {off_min}ns vs unsampled min {uns_min}ns"
        ));
    }
    write_run_report_with_stats(
        "service",
        &[("mode", "trace-overhead")],
        &[
            ("trace_off_min_ns", off_min),
            ("trace_unsampled_min_ns", uns_min),
            ("trace_off_p50_ns", off_p50),
            ("trace_unsampled_p50_ns", uns_p50),
            ("trace_sampled_p50_ns", smp_p50),
            ("trace_sample_n", trace_sample.max(1)),
            (
                "trace_unsampled_overhead_basis_points",
                (overhead_pct.max(0.0) * 100.0) as u64,
            ),
            ("obs_off", u64::from(ipe_obs::disabled())),
        ],
    );
    Ok(())
}
