//! Batch completion throughput: a 64-query mixed workload (cheap explicit
//! paths plus deadline-bound pathological multi-tilde searches) fanned
//! over the `ipe-core` batch work pool at 1, 2, and 4 threads.
//!
//! The headline number is the wall-clock speedup of 4 threads over 1.
//! The heavy items are *deadline*-dominated: each one burns its full
//! per-item budget and stops, so running them concurrently overlaps their
//! wall-clock cost the way I/O-bound work overlaps — the speedup holds
//! even on a single-core host (the report records
//! `available_parallelism` so the reader can tell which regime produced
//! it). The cheap items measure that the pool adds no meaningful
//! overhead around sub-millisecond searches.
//!
//! Writes `BENCH_batch.json` (see `ipe_bench::write_run_report_with_stats`).
//! `--smoke` runs a seconds-scale correctness pass instead: heavy items
//! must report `DeadlineExceeded`, cheap items must complete, at every
//! thread count.

use ipe_bench::write_run_report_with_stats;
use ipe_core::{complete_batch, BatchOptions, Completer, CompletionConfig};
use ipe_obs::{FlightConfig, FlightRecorder, RequestTrace, SpanHandle};
use ipe_parser::{parse_path_expression, PathExprAst};
use ipe_schema::{Primitive, Schema, SchemaBuilder};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Classes in the dense schema; 12 puts the pathological searches far
/// beyond any realistic deadline (the acyclic path count is factorial).
const DENSE_CLASSES: usize = 12;
/// Mixed workload size (the acceptance scenario).
const WORKLOAD: usize = 64;
/// Heavy (deadline-bound) items in the workload.
const HEAVY: usize = 8;
/// Per-item deadline for the full benchmark.
const DEADLINE_MS: u64 = 250;

/// A fully-connected schema whose single `goal` attribute sits on `c0`.
/// `c0~e{i}_{j}~goal` (i, j != 0) then has *no* acyclic completion — the
/// root already occupies `c0` — so the exhaustive multi-tilde search
/// explores the factorial path space until its deadline trips, without
/// ever hitting the result cap.
fn dense_schema() -> Schema {
    let mut b = SchemaBuilder::new();
    let classes: Vec<_> = (0..DENSE_CLASSES)
        .map(|i| b.class(&format!("c{i}")).expect("class"))
        .collect();
    for (i, &source) in classes.iter().enumerate() {
        for (j, &target) in classes.iter().enumerate() {
            if i != j {
                b.assoc(source, target, &format!("e{i}_{j}"))
                    .expect("assoc");
            }
        }
    }
    b.attr(classes[0], "goal", Primitive::Real).expect("attr");
    b.build().expect("dense schema")
}

/// The mixed workload: `heavy` deadline-bound queries spread evenly
/// through `total - heavy` cheap explicit ones.
fn workload(total: usize, heavy: usize) -> Vec<PathExprAst> {
    let mut exprs = Vec::with_capacity(total);
    let stride = total / heavy.max(1);
    let mut h = 0usize;
    for i in 0..total {
        let text = if heavy > 0 && i % stride == 0 && h < heavy {
            // Distinct interior edges, same pathological shape.
            let a = 1 + (h % (DENSE_CLASSES - 2));
            let b = 1 + ((h + 1) % (DENSE_CLASSES - 2));
            h += 1;
            format!("c0~e{a}_{b}~goal")
        } else {
            // One hop to c0, then the attribute: microseconds of work.
            let from = 1 + (i % (DENSE_CLASSES - 1));
            format!("c{from}.e{from}_0.goal")
        };
        exprs.push(parse_path_expression(&text).expect("workload expr"))
    }
    exprs
}

struct Run {
    wall: Duration,
    ok: usize,
    deadline_hits: usize,
    errors: usize,
}

fn run_once(
    engine: &Completer<'_>,
    items: &[PathExprAst],
    threads: usize,
    deadline: Duration,
) -> Run {
    let opts = BatchOptions {
        threads,
        deadline: Some(deadline),
        ..Default::default()
    };
    let started = Instant::now();
    let out = complete_batch(engine, items, &opts);
    let wall = started.elapsed();
    let deadline_hits = out.iter().filter(|i| i.deadline_exceeded()).count();
    let ok = out.iter().filter(|i| i.result.is_ok()).count();
    Run {
        wall,
        ok,
        deadline_hits,
        errors: out.len() - ok - deadline_hits,
    }
}

/// How requests are traced during the overhead rounds.
#[derive(Clone, Copy, PartialEq)]
enum TraceMode {
    /// No span handle and no sampling check — the pre-tracing baseline.
    Off,
    /// A head-sampling check that always declines: the cost every
    /// unsampled request pays in production.
    Unsampled,
    /// A live span tree recorded through the batch.
    Sampled,
}

/// One cheap-only batch under `mode`, returning its wall time. The heavy
/// deadline-bound items are excluded on purpose: their cost is the
/// deadline itself, which would mask any per-span overhead.
fn run_traced(
    engine: &Completer<'_>,
    items: &[PathExprAst],
    threads: usize,
    mode: TraceMode,
    recorder: &FlightRecorder,
) -> Duration {
    let started = Instant::now();
    let (span, trace) = match mode {
        TraceMode::Off => (SpanHandle::none(), None),
        TraceMode::Unsampled | TraceMode::Sampled => {
            if recorder.should_sample() && mode == TraceMode::Sampled {
                let t = RequestTrace::start(ipe_obs::gen_trace_id(), 0);
                (t.root_handle(), Some(t))
            } else {
                (SpanHandle::none(), None)
            }
        }
    };
    let opts = BatchOptions {
        threads,
        deadline: None,
        cancel: None,
        span,
    };
    let out = complete_batch(engine, items, &opts);
    assert!(out.iter().all(|i| i.result.is_ok()), "cheap item failed");
    if let Some(t) = trace {
        let done = t.finish();
        std::hint::black_box(done.spans.len());
    }
    started.elapsed()
}

/// Minimum over `reps` interleaved rounds per mode. The minimum (not the
/// mean) is the right estimator for a compute-bound loop: scheduler noise
/// only ever adds time.
fn trace_overhead(
    engine: &Completer<'_>,
    items: &[PathExprAst],
    threads: usize,
    sample_n: u64,
    reps: usize,
) -> [u64; 3] {
    let off_recorder = FlightRecorder::new(FlightConfig {
        sample_n: 0,
        ..FlightConfig::default()
    });
    // `u64::MAX` keeps the sampling tick live (the atomic an unsampled
    // request actually pays) while declining every request after the
    // first; the discard in `run_traced` covers that first tick.
    let unsampled_recorder = FlightRecorder::new(FlightConfig {
        sample_n: u64::MAX,
        ..FlightConfig::default()
    });
    let sampled_recorder = FlightRecorder::new(FlightConfig {
        sample_n: sample_n.max(1),
        ..FlightConfig::default()
    });
    let mut best = [u64::MAX; 3];
    for _ in 0..reps {
        // Interleave the modes so drift (thermal, scheduling) hits all
        // three equally.
        let runs = [
            (TraceMode::Off, &off_recorder),
            (TraceMode::Unsampled, &unsampled_recorder),
            (TraceMode::Sampled, &sampled_recorder),
        ];
        for (i, (mode, recorder)) in runs.into_iter().enumerate() {
            let wall = run_traced(engine, items, threads, mode, recorder);
            best[i] = best[i].min(wall.as_nanos() as u64);
        }
    }
    best
}

fn main() -> ExitCode {
    let (smoke, trace_sample) =
        ipe_bench::args(|a| Ok((a.switch("--smoke"), a.num("--trace-sample", 1u64)?)));
    ipe_bench::exit(run(smoke, trace_sample))
}

fn run(smoke: bool, trace_sample: u64) -> Result<(), String> {
    let schema = dense_schema();
    // Uncapped results: the heavy searches must be stopped by their
    // deadline, not by the result limit.
    let engine = Completer::with_config(
        &schema,
        CompletionConfig {
            max_results: usize::MAX,
            ..Default::default()
        },
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    if smoke {
        let items = workload(8, 2);
        for threads in [1, 2] {
            let run = run_once(&engine, &items, threads, Duration::from_millis(60));
            if run.deadline_hits != 2 || run.ok != 6 || run.errors != 0 {
                return Err(format!(
                    "smoke FAILED at {threads} thread(s): {} ok, {} deadline, {} errors (want 6/2/0)",
                    run.ok, run.deadline_hits, run.errors
                ));
            }
            eprintln!(
                "smoke ok at {threads} thread(s): 6 ok, 2 deadline-bound, {:.0}ms",
                run.wall.as_secs_f64() * 1e3
            );
        }
        return Ok(());
    }

    let items = workload(WORKLOAD, HEAVY);
    let deadline = Duration::from_millis(DEADLINE_MS);
    eprintln!(
        "batch_bench: {WORKLOAD} queries ({HEAVY} deadline-bound at {DEADLINE_MS}ms), \
         {cores} core(s) available"
    );
    let mut walls = Vec::new();
    for threads in [1usize, 2, 4] {
        let run = run_once(&engine, &items, threads, deadline);
        eprintln!(
            "  {threads} thread(s): {:>7.1}ms wall, {} ok, {} deadline-bound, {} errors",
            run.wall.as_secs_f64() * 1e3,
            run.ok,
            run.deadline_hits,
            run.errors
        );
        walls.push((threads, run));
    }
    let wall_1 = walls[0].1.wall.as_secs_f64();
    let wall_4 = walls[2].1.wall.as_secs_f64();
    let speedup = wall_1 / wall_4.max(1e-9);
    eprintln!("  4-thread speedup over 1 thread: {speedup:.2}x");
    if walls.iter().any(|(_, r)| r.errors > 0) {
        return Err("unexpected engine errors in the workload".to_owned());
    }

    // Tracing overhead over the cheap items, off vs. unsampled vs.
    // sampled 1-in-`trace_sample`. Unsampled requests must stay within
    // 2% of the no-tracing baseline (with a sub-noise absolute floor:
    // a diff under 100µs on a multi-millisecond batch is timer noise).
    let cheap = workload(WORKLOAD, 0);
    let [off_ns, unsampled_ns, sampled_ns] = trace_overhead(&engine, &cheap, 4, trace_sample, 7);
    let overhead_pct = if off_ns > 0 {
        (unsampled_ns as f64 - off_ns as f64) * 100.0 / off_ns as f64
    } else {
        0.0
    };
    eprintln!(
        "  tracing overhead ({} cheap items): off {:.2}ms, unsampled {:.2}ms ({overhead_pct:+.2}%), sampled(1/{}) {:.2}ms",
        cheap.len(),
        off_ns as f64 / 1e6,
        unsampled_ns as f64 / 1e6,
        trace_sample.max(1),
        sampled_ns as f64 / 1e6,
    );
    if unsampled_ns > off_ns + off_ns / 50 && unsampled_ns - off_ns > 100_000 {
        return Err(format!(
            "unsampled tracing overhead {overhead_pct:.2}% exceeds the 2% budget \
             ({off_ns}ns -> {unsampled_ns}ns)"
        ));
    }

    let cores_s = cores.to_string();
    let stats: Vec<(&str, u64)> = vec![
        ("items", WORKLOAD as u64),
        ("heavy_items", HEAVY as u64),
        ("deadline_ms", DEADLINE_MS),
        ("wall_1_thread_ns", walls[0].1.wall.as_nanos() as u64),
        ("wall_2_threads_ns", walls[1].1.wall.as_nanos() as u64),
        ("wall_4_threads_ns", walls[2].1.wall.as_nanos() as u64),
        ("deadline_hits_1_thread", walls[0].1.deadline_hits as u64),
        ("deadline_hits_4_threads", walls[2].1.deadline_hits as u64),
        ("speedup_4_threads_milli", (speedup * 1000.0) as u64),
        ("trace_off_wall_ns", off_ns),
        ("trace_unsampled_wall_ns", unsampled_ns),
        ("trace_sampled_wall_ns", sampled_ns),
        ("trace_sample_n", trace_sample),
        (
            "trace_unsampled_overhead_basis_points",
            (overhead_pct.max(0.0) * 100.0) as u64,
        ),
        ("obs_off", u64::from(ipe_obs::disabled())),
    ];
    write_run_report_with_stats(
        "batch",
        &[
            ("schema", "dense-12 (fully connected, goal on c0)"),
            ("workload", "64 mixed: 56 cheap explicit + 8 deadline-bound"),
            ("available_parallelism", &cores_s),
            (
                "speedup_source",
                "deadline-capped heavy items overlap in wall clock (holds on 1 core)",
            ),
        ],
        &stats,
    );
    if speedup < 2.5 {
        eprintln!("warning: 4-thread speedup below 2.5x ({speedup:.2}x)");
    }
    Ok(())
}
