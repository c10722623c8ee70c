//! Regenerates **Figure 5** of the paper: average recall fraction as a
//! function of the `AGG*` parameter `E`, for the standard algorithm and for
//! the domain-knowledge variant (hub classes excluded).
//!
//! Paper result: recall ≈ 90%, flat in `E`, identical with and without
//! domain knowledge (exclusions only remove junk, never intents).
//!
//! Run: `cargo run -p ipe-bench --release --bin fig5_recall [seed] [#seeds]`

use ipe_bench::{experiment_setup, pct, DEFAULT_SEED};
use ipe_metrics::{sweep, ExperimentConfig};

fn main() {
    let (seed, nseeds) = ipe_bench::args(|a| {
        Ok((
            a.positional("seed", DEFAULT_SEED)?,
            a.positional("#seeds", 5u64)?,
        ))
    });

    let e_values: Vec<usize> = (1..=5).collect();
    let mut std_sum = vec![0.0; e_values.len()];
    let mut dk_sum = vec![0.0; e_values.len()];
    for s in 0..nseeds {
        let (gen, workload) = experiment_setup(seed + s);
        let standard = sweep(&gen, &workload, &ExperimentConfig::default());
        let dk = sweep(
            &gen,
            &workload,
            &ExperimentConfig {
                exclude_hubs: true,
                ..Default::default()
            },
        );
        for (i, p) in standard.iter().enumerate() {
            std_sum[i] += p.avg_recall;
        }
        for (i, p) in dk.iter().enumerate() {
            dk_sum[i] += p.avg_recall;
        }
    }
    println!(
        "Figure 5: average recall vs E  (CUPID-calibrated schema, 10 queries, {nseeds} seeds from {seed})\n"
    );
    let rows: Vec<Vec<String>> = e_values
        .iter()
        .enumerate()
        .map(|(i, &e)| {
            vec![
                e.to_string(),
                pct(std_sum[i] / nseeds as f64),
                pct(dk_sum[i] / nseeds as f64),
            ]
        })
        .collect();
    print!(
        "{}",
        ipe_metrics::table::render(
            &["E", "recall (standard)", "recall (domain knowledge)"],
            &rows
        )
    );
    println!("\npaper: ~90% at every E, both variants (Section 5.3, Figure 5)");
    ipe_bench::write_run_report(
        "fig5_recall",
        &[("seed", &seed.to_string()), ("nseeds", &nseeds.to_string())],
    );
}
