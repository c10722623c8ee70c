//! Regenerates **Table 1** of the paper: the `CON_c` connector composition
//! function. Rows are the first argument, columns the second.
//!
//! Run: `cargo run -p ipe-bench --bin table1_con`

use ipe_algebra::moose::{compose, Base, Connector};

fn main() {
    ipe_bench::args(|_| Ok(()));
    let bases = Base::ALL;
    let header: Vec<String> = bases.iter().map(|b| b.symbol().to_owned()).collect();
    let mut rows = Vec::new();
    for r in bases {
        let mut row = vec![r.symbol().to_owned()];
        for c in bases {
            row.push(compose(Connector::primary(r), Connector::primary(c)).to_string());
        }
        rows.push(row);
    }
    let mut headers = vec!["CON_c"];
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    headers.extend(header_refs);
    println!("Table 1: the CON_c function over the primary and secondary connectors");
    println!("(entries the published table leaves blank are `..`; see DESIGN.md)\n");
    print!("{}", ipe_metrics::table::render(&headers, &rows));
    println!();
    println!("Possibly rule: if either argument is a Possibly connector (suffix `*`),");
    println!("the result is the Possibly version of the plain composition, e.g.");
    println!(
        "CON($>*, <$) = {}   CON(., <@) = {}",
        compose(
            Connector::primary(Base::HasPart).possibly(),
            Connector::primary(Base::IsPartOf)
        ),
        compose(
            Connector::primary(Base::Assoc),
            Connector::primary(Base::MayBe)
        ),
    );
    // Closure check, as the paper asserts for Σ.
    let mut count = 0;
    for a in Connector::all() {
        for b in Connector::all() {
            let _ = compose(a, b);
            count += 1;
        }
    }
    println!("\nΣ is closed under CON_c ({count} compositions checked).");
    ipe_bench::write_run_report("table1_con", &[]);
}
