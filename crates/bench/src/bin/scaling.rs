//! Scaling study (an extension beyond the paper's evaluation): how the
//! completion engine's response time and work grow with schema size, for
//! each pruning mode.
//!
//! Run: `cargo run -p ipe-bench --release --bin scaling [seed]`

use ipe_core::{Completer, CompletionConfig, Pruning};
use ipe_gen::{generate_schema, generate_workload, GenConfig, WorkloadConfig};
use std::time::Instant;

fn main() {
    let seed = ipe_bench::args(|a| a.positional("seed", 7u64));
    println!("Scaling: avg completion time/query vs schema size (E=1)\n");
    let mut rows = Vec::new();
    for classes in [23, 46, 92, 184, 368] {
        let gen = generate_schema(&GenConfig {
            classes,
            tree_roots: 3,
            assoc_edges: classes / 8,
            hubs: 2,
            hub_degree: classes / 9,
            seed,
            ..GenConfig::default()
        });
        let workload = generate_workload(
            &gen,
            &WorkloadConfig {
                queries: 8,
                // Scale the depth expectations with the schema; the default
                // calibration targets the 92-class CUPID size.
                walk_len: (3, (classes / 8).clamp(4, 14)),
                min_answer_len: 3,
                seed: seed + 1,
                ..Default::default()
            },
        );
        let mut row = vec![classes.to_string(), gen.schema.rel_count().to_string()];
        for pruning in [Pruning::Safe, Pruning::Paper, Pruning::None] {
            // Unpruned search must be depth-capped: it visits every acyclic
            // path, which is super-exponential at full depth.
            let max_depth = if pruning == Pruning::None { 10 } else { 24 };
            let engine = Completer::with_config(
                &gen.schema,
                CompletionConfig {
                    pruning,
                    max_depth,
                    ..Default::default()
                },
            );
            let start = Instant::now();
            let mut calls = 0u64;
            for q in &workload {
                if let Ok(o) = engine.complete_with_stats(&q.ast()) {
                    calls += o.stats.calls;
                }
            }
            let per_query_ms =
                start.elapsed().as_secs_f64() * 1000.0 / workload.len().max(1) as f64;
            row.push(format!(
                "{per_query_ms:.2} ms / {} calls",
                calls / workload.len().max(1) as u64
            ));
        }
        rows.push(row);
    }
    print!(
        "{}",
        ipe_metrics::table::render(
            &["classes", "rels", "Safe", "Paper", "None (depth<=10)"],
            &rows
        )
    );
    ipe_bench::write_run_report("scaling", &[("seed", &seed.to_string())]);
}
