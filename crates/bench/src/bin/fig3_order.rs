//! Regenerates **Figure 3** of the paper: the *better-than* partial order
//! `≺` over connectors, printed as strength levels plus the Hasse relation
//! and the incomparability constraints the text states.
//!
//! Run: `cargo run -p ipe-bench --bin fig3_order`

use ipe_algebra::moose::{better, rank, Connector};

fn main() {
    ipe_bench::args(|_| Ok(()));
    println!("Figure 3: the partial order ≺ (arrows go from worse to better)\n");
    // Group by rank.
    let mut by_rank: Vec<(u8, Vec<String>)> = Vec::new();
    for c in Connector::all() {
        let r = rank(c);
        match by_rank.iter_mut().find(|(rr, _)| *rr == r) {
            Some((_, v)) => v.push(c.to_string()),
            None => by_rank.push((r, vec![c.to_string()])),
        }
    }
    by_rank.sort();
    for (r, cs) in &by_rank {
        println!("  strength {r} (best = 0): {}", cs.join("  "));
    }
    println!();
    // Count and spot-check the order's constraints.
    let mut pairs = 0;
    for a in Connector::all() {
        for b in Connector::all() {
            if better(a, b) {
                pairs += 1;
            }
        }
    }
    println!("{pairs} ordered pairs in ≺; constraints from the text:");
    let check = |label: &str, ok: bool| {
        println!("  [{}] {label}", if ok { "ok" } else { "VIOLATED" });
    };
    check(
        "every connector is incomparable to itself",
        Connector::all().all(|c| !better(c, c)),
    );
    check(
        "inverse connectors are incomparable (@>/<@, $>/<$)",
        !better(Connector::ISA, Connector::MAY_BE)
            && !better(Connector::MAY_BE, Connector::ISA)
            && !better(Connector::HAS_PART, Connector::IS_PART_OF)
            && !better(Connector::IS_PART_OF, Connector::HAS_PART),
    );
    check(
        "every connector is incomparable to its Possibly version",
        Connector::all().all(|c| !better(c, c.possibly()) && !better(c.possibly(), c)),
    );
    check(
        "@> is among the strongest connectors",
        Connector::all().all(|c| !better(c, Connector::ISA)),
    );
    ipe_bench::write_run_report("fig3_order", &[]);
}
