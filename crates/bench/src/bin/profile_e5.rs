//! Developer utility: quick engine cost check across pruning modes and `E`
//! values on the first three workload queries (not a paper figure).
//!
//! Run: `cargo run -p ipe-bench --release --bin profile_e5`

use ipe_bench::experiment_setup;
use ipe_core::{Completer, CompletionConfig, Pruning};
use std::time::Instant;

fn main() {
    ipe_bench::args(|_| Ok(()));
    let (gen, workload) = experiment_setup(1994);
    for pruning in [Pruning::Safe, Pruning::Paper] {
        for e in [1usize, 3, 5] {
            let engine = Completer::with_config(
                &gen.schema,
                CompletionConfig {
                    e,
                    pruning,
                    ..Default::default()
                },
            );
            let start = Instant::now();
            let mut calls = 0u64;
            let mut recs = 0u64;
            let mut res = 0usize;
            for q in workload.iter().take(3) {
                let o = engine.complete_with_stats(&q.ast()).unwrap();
                calls += o.stats.calls;
                recs += o.stats.completions_recorded;
                res += o.completions.len();
            }
            println!(
                "{pruning:?} E={e}: {:?} for 3 queries, {calls} calls, {recs} recorded, {res} results",
                start.elapsed()
            );
        }
    }
    ipe_bench::write_run_report("profile_e5", &[("seed", "1994")]);
}
