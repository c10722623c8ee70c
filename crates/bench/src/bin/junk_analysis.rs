//! Developer utility: decomposes the result sets at each `E` into intended
//! completions, hub-routed junk, and other junk — the diagnostic behind the
//! Figure 6 domain-knowledge contrast.
//!
//! Run: `cargo run -p ipe-bench --release --bin junk_analysis [seed]`

use ipe_bench::{experiment_setup, DEFAULT_SEED};
use ipe_core::{Completer, CompletionConfig};

fn main() {
    let seed = ipe_bench::args(|a| a.positional("seed", DEFAULT_SEED));
    let (gen, workload) = experiment_setup(seed);
    println!("junk decomposition, seed {seed} (per E, summed over queries)\n");
    println!("variant   E   intended  hub-routed junk  other junk");
    for (variant, exclude) in [("standard", false), ("dk      ", true)] {
        for e in 1..=4usize {
            let engine = Completer::with_config(
                &gen.schema,
                CompletionConfig {
                    e,
                    excluded_classes: if exclude {
                        gen.hubs.clone()
                    } else {
                        Vec::new()
                    },
                    ..Default::default()
                },
            );
            let mut intended = 0usize;
            let mut hub_junk = 0usize;
            let mut other_junk = 0usize;
            for q in &workload {
                let out = engine.complete(&q.ast()).unwrap_or_default();
                for c in &out {
                    let text = c.display(&gen.schema).to_string();
                    if q.intended.contains(&text) {
                        intended += 1;
                    } else if c
                        .classes(&gen.schema)
                        .iter()
                        .any(|cl| gen.hubs.contains(cl))
                    {
                        hub_junk += 1;
                    } else {
                        other_junk += 1;
                    }
                }
            }
            println!("{variant}  {e}   {intended:>8}  {hub_junk:>15}  {other_junk:>10}");
        }
    }
    ipe_bench::write_run_report("junk_analysis", &[("seed", &seed.to_string())]);
}
