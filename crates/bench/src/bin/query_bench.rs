//! Benchmark for the `ipe-query` end-to-end path: disambiguate an
//! incomplete expression, evaluate the admitted completions, and merge
//! the results into certain/possible answer sets.
//!
//! Two modes:
//!
//! * default: measure answers/s on the university schema over a
//!   synthetic instance, cold (search + evaluate every time) vs warm
//!   (completions cached, evaluate only — the service's cache-hit
//!   path), then sweep E and record the certain/possible trade-off.
//!   Writes `BENCH_query.json`.
//! * `--smoke`: a fast CI probe — tiny instance, one pass, same
//!   invariant checks. Exits non-zero on any violation.
//!
//! ```text
//! query_bench [--objects N] [--links N] [--iters N] [--smoke]
//! ```
//!
//! Both modes assert, for every query, that the certain answers are a
//! subset of the possible answers at each E, and that sweeping E up
//! only shrinks (or holds) the certain set while only growing (or
//! holding) the possible set.

use ipe_bench::write_run_report_with_stats;
use ipe_core::CompletionConfig;
use ipe_oodb::gendata::{populate, DataConfig};
use ipe_oodb::{Database, EvalLimits};
use ipe_query::{evaluate_completions, query, Answer, QueryOptions};
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// The incomplete expressions swept by the bench. The first two resolve
/// through pure `Isa` chains (every completion agrees, so the answers
/// stay certain); the last two route through stored associations where
/// the completions genuinely disagree, so raising E trades certainty
/// for recall.
const QUERIES: &[&str] = &[
    "ta~name",
    "student~teacher",
    "university~ssn",
    "department~person",
];

const E_SWEEP: std::ops::RangeInclusive<usize> = 1..=4;

struct Args {
    objects: usize,
    links: usize,
    iters: usize,
    smoke: bool,
}

fn main() -> ExitCode {
    let args = ipe_bench::args(|a| {
        Ok(Args {
            objects: a.count("--objects", 300)?,
            links: a.num("--links", 40)?,
            iters: a.count("--iters", 200)?,
            smoke: a.switch("--smoke"),
        })
    });
    ipe_bench::exit(if args.smoke { smoke() } else { bench(&args) })
}

fn options_at(e: usize) -> QueryOptions {
    QueryOptions {
        config: CompletionConfig {
            e,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn university_instance(objects: usize, links: usize) -> Database {
    let schema = Arc::new(ipe_schema::fixtures::university());
    populate(
        &schema,
        &DataConfig {
            objects_per_class: objects,
            links_per_rel: links,
            seed: 1994,
        },
    )
}

/// The per-query answer partition at one E.
struct Partition {
    certain: BTreeSet<Answer>,
    possible: BTreeSet<Answer>,
}

/// Runs one query at E and checks the in-run invariants: certain is a
/// subset of possible, and provenance indices stay in range.
fn partition_at(db: &Database, text: &str, e: usize) -> Result<Partition, String> {
    let out = query(db, text, &options_at(e)).map_err(|e| format!("{text}: {e}"))?;
    let mut certain = BTreeSet::new();
    let mut possible = BTreeSet::new();
    for a in &out.answers {
        if a.completions.is_empty() || a.completions.iter().any(|&i| i >= out.completions.len()) {
            return Err(format!("{text} at e={e}: provenance out of range"));
        }
        if a.certain {
            certain.insert(a.answer.clone());
        }
        possible.insert(a.answer.clone());
    }
    if !certain.is_subset(&possible) || certain.len() != out.certain {
        return Err(format!("{text} at e={e}: certain set is not a subset"));
    }
    Ok(Partition { certain, possible })
}

/// Sweeps E for every query, asserting the certain set is monotone
/// nonincreasing and the possible set monotone nondecreasing, and
/// returns `(e, total certain, total possible)` rows.
fn e_sweep(db: &Database) -> Result<Vec<(usize, usize, usize)>, String> {
    let mut rows = Vec::new();
    for text in QUERIES {
        let mut prev: Option<Partition> = None;
        for e in E_SWEEP {
            let part = partition_at(db, text, e)?;
            if let Some(prev) = &prev {
                if !part.certain.is_subset(&prev.certain) {
                    return Err(format!("{text}: certain grew from e={} to e={e}", e - 1));
                }
                if !prev.possible.is_subset(&part.possible) {
                    return Err(format!("{text}: possible shrank from e={} to e={e}", e - 1));
                }
            }
            prev = Some(part);
        }
    }
    for e in E_SWEEP {
        let mut certain = 0;
        let mut possible = 0;
        for text in QUERIES {
            let part = partition_at(db, text, e)?;
            certain += part.certain.len();
            possible += part.possible.len();
        }
        rows.push((e, certain, possible));
    }
    Ok(rows)
}

/// Measures answers/s cold (full search + evaluate per call) and warm
/// (completions precomputed, evaluate only).
fn throughput(db: &Database, e: usize, iters: usize) -> Result<(u64, u64), String> {
    let opts = options_at(e);
    let started = Instant::now();
    let mut answers = 0u64;
    for i in 0..iters {
        let text = QUERIES[i % QUERIES.len()];
        let out = query(db, text, &opts).map_err(|e| format!("{text}: {e}"))?;
        answers += out.answers.len() as u64;
    }
    let cold = (answers as f64 / started.elapsed().as_secs_f64()) as u64;

    let completions: Vec<_> = QUERIES
        .iter()
        .map(|text| query(db, text, &opts).map(|out| out.completions))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut warm_answers = 0u64;
    for i in 0..iters {
        let set = &completions[i % completions.len()];
        let out =
            evaluate_completions(db, set, &EvalLimits::default()).map_err(|e| e.to_string())?;
        warm_answers += out.answers.len() as u64;
    }
    let warm = (warm_answers as f64 / started.elapsed().as_secs_f64()) as u64;
    if warm_answers != answers {
        return Err(format!(
            "warm pass produced {warm_answers} answers, cold produced {answers}"
        ));
    }
    Ok((cold, warm))
}

fn bench(args: &Args) -> Result<(), String> {
    let db = university_instance(args.objects, args.links);
    println!(
        "university instance: {} objects, {} links, {} attrs",
        db.object_count(),
        db.link_count(),
        db.attr_count()
    );
    let mut stats: Vec<(String, u64)> = Vec::new();

    println!(
        "throughput over {} queries ({} iters):",
        QUERIES.len(),
        args.iters
    );
    for e in [1usize, 3] {
        let (cold, warm) = throughput(&db, e, args.iters)?;
        println!("  e={e}  cold {cold:>9} answers/s   warm {warm:>9} answers/s");
        stats.push((format!("answers_per_sec_cold_e{e}"), cold));
        stats.push((format!("answers_per_sec_warm_e{e}"), warm));
    }

    println!("E sweep (certain shrinks, possible grows):");
    for (e, certain, possible) in e_sweep(&db)? {
        println!("  e={e}  certain {certain:>5}  possible {possible:>5}");
        stats.push((format!("certain_e{e}"), certain as u64));
        stats.push((format!("possible_e{e}"), possible as u64));
    }

    let objects = args.objects.to_string();
    let links = args.links.to_string();
    let iters = args.iters.to_string();
    let stat_refs: Vec<(&str, u64)> = stats.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    write_run_report_with_stats(
        "query",
        &[
            ("objects_per_class", objects.as_str()),
            ("links_per_rel", links.as_str()),
            ("iters", iters.as_str()),
        ],
        &stat_refs,
    );
    Ok(())
}

/// Fast CI probe: tiny instance, one throughput pass, full E sweep.
fn smoke() -> Result<(), String> {
    let db = university_instance(12, 6);
    let (cold, warm) = throughput(&db, 3, 8)?;
    if cold == 0 || warm == 0 {
        return Err("throughput measured zero answers".to_owned());
    }
    let rows = e_sweep(&db)?;
    let e3 = rows
        .iter()
        .find(|(e, _, _)| *e == 3)
        .ok_or("missing e=3 row")?;
    if e3.2 == 0 {
        return Err("e=3 produced no possible answers".to_owned());
    }
    println!(
        "query smoke OK: certain ⊆ possible at every E, certain antitone, \
         possible monotone, warm answers match cold"
    );
    Ok(())
}
