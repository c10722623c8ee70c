//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 --ipe PATH
//! --work-dir DIR`
//!
//! Prints notes, then one JSON result line. Exits 0 only when every
//! answer was right and every validity gate held.

use ipe_perfbench::bench::{run, Opts};
use ipe_perfbench::metrics::{END_TO_END, PER_LAYER};
use ipe_perfbench::workload::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut ipe = None;
    let mut work = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} must be a number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--ipe" => ipe = Some(PathBuf::from(value)),
            "--work-dir" => work = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        ipe: ipe.ok_or("--ipe is required")?,
        work: work.ok_or("--work-dir is required")?,
        corrupt_oracle: false,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &report.notes {
        println!("{line}");
    }
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    match report.result.render(defs) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
