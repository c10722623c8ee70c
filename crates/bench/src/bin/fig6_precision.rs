//! Regenerates **Figure 6** of the paper: average precision fraction as a
//! function of the `AGG*` parameter `E`, standard vs domain knowledge.
//!
//! Paper result: 100% at `E = 1`; the standard algorithm drops to ~55% by
//! `E = 5` while the domain-knowledge variant only drops to ~93%, because
//! the junk admitted at larger `E` mostly routes through the excluded hub
//! classes.
//!
//! Run: `cargo run -p ipe-bench --release --bin fig6_precision [seed] [#seeds]`

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
    let mut ret_sum = vec![0.0; e_values.len()];
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
            std_sum[i] += p.avg_precision;
            ret_sum[i] += p.avg_returned;
        }
        for (i, p) in dk.iter().enumerate() {
            dk_sum[i] += p.avg_precision;
        }
    }
    println!(
        "Figure 6: average precision vs E  (CUPID-calibrated schema, 10 queries, {nseeds} seeds from {seed})\n"
    );
    let rows: Vec<Vec<String>> = e_values
        .iter()
        .enumerate()
        .map(|(i, &e)| {
            vec![
                e.to_string(),
                pct(std_sum[i] / nseeds as f64),
                pct(dk_sum[i] / nseeds as f64),
                format!("{:.1}", ret_sum[i] / nseeds as f64),
            ]
        })
        .collect();
    print!(
        "{}",
        ipe_metrics::table::render(
            &[
                "E",
                "precision (standard)",
                "precision (domain knowledge)",
                "avg |S| (standard)"
            ],
            &rows
        )
    );
    println!("\npaper: 100% at E=1; standard falls to ~55% by E=5, domain knowledge stays ~93%");
    println!("paper: 2-3 path expressions returned at E=1 (Section 5.3)");
    ipe_bench::write_run_report(
        "fig6_precision",
        &[("seed", &seed.to_string()), ("nseeds", &nseeds.to_string())],
    );
}
