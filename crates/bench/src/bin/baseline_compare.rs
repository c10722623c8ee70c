//! Effectiveness comparison against the naive hop-count baseline.
//!
//! The paper has no algorithmic comparator (none existed for OODB path
//! disambiguation); the natural strawman is graph proximity — complete
//! `s ~ N` with the fewest-edge consistent paths, ignoring relationship
//! semantics. This binary measures recall/precision of both systems on the
//! same planted workloads, quantifying how much the connector order and
//! semantic length actually buy.
//!
//! Run: `cargo run -p ipe-bench --release --bin baseline_compare [seed] [#seeds]`

use ipe_bench::{experiment_setup, pct, DEFAULT_SEED};
use ipe_core::baseline::HopBaseline;
use ipe_core::{Completer, CompletionConfig};
use ipe_metrics::recall_precision;

fn main() {
    let (seed, nseeds) = ipe_bench::args(|a| {
        Ok((
            a.positional("seed", DEFAULT_SEED)?,
            a.positional("#seeds", 3u64)?,
        ))
    });

    let mut rows = Vec::new();
    let mut sums = [0.0f64; 6];
    let mut n = 0usize;
    for s in 0..nseeds {
        let (gen, workload) = experiment_setup(seed + s);
        let engine = Completer::new(&gen.schema);
        let base_cfg = CompletionConfig {
            max_depth: 16,
            max_results: 50_000,
            ..Default::default()
        };
        for q in &workload {
            let root = gen.schema.class_named(&q.root).expect("workload class");
            let smart: Vec<String> = engine
                .complete(&q.ast())
                .unwrap_or_default()
                .iter()
                .map(|c| c.display(&gen.schema).to_string())
                .collect();
            let hops: Vec<String> = HopBaseline::new(&gen.schema)
                .with_config(base_cfg.clone())
                .complete(root, &q.target)
                .unwrap_or_default()
                .iter()
                .map(|c| c.display(&gen.schema).to_string())
                .collect();
            let pr_smart = recall_precision(&q.intended, &smart);
            let pr_hops = recall_precision(&q.intended, &hops);
            sums[0] += pr_smart.recall;
            sums[1] += pr_smart.precision;
            sums[2] += smart.len() as f64;
            sums[3] += pr_hops.recall;
            sums[4] += pr_hops.precision;
            sums[5] += hops.len() as f64;
            n += 1;
        }
    }
    let avg = |i: usize| sums[i] / n as f64;
    rows.push(vec![
        "semantics-aware (paper)".to_owned(),
        pct(avg(0)),
        pct(avg(1)),
        format!("{:.1}", avg(2)),
    ]);
    rows.push(vec![
        "hop-count baseline".to_owned(),
        pct(avg(3)),
        pct(avg(4)),
        format!("{:.1}", avg(5)),
    ]);
    println!("Baseline comparison at E=1  ({n} queries over {nseeds} seeds from {seed})\n");
    print!(
        "{}",
        ipe_metrics::table::render(&["system", "recall", "precision", "avg |S|"], &rows)
    );
    println!("\nThe hop-count baseline ignores relationship kinds and semantic length;");
    println!("its losses quantify the value of the paper's CON/AGG design.");
    ipe_bench::write_run_report(
        "baseline_compare",
        &[("seed", &seed.to_string()), ("nseeds", &nseeds.to_string())],
    );
}
