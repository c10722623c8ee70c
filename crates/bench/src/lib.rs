//! Shared helpers for the experiment binaries and Criterion benches.
//!
//! Each binary regenerates one table or figure of the paper — see
//! EXPERIMENTS.md at the workspace root for the index and the recorded
//! paper-vs-measured comparison. Every binary reads its command line
//! through [`args`] and the service probes share one server kit:
//! [`tmp_dir`], [`spawn_ipe`], [`shutdown_ipe`], [`call`] and the
//! `json_*` field readers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ipe_gen::{cupid_like, generate_workload, GeneratedSchema, QuerySpec, WorkloadConfig};
use ipe_service::Client;
use serde::Value;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, ExitCode, Stdio};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

/// The default seed for all experiment binaries, so EXPERIMENTS.md is
/// reproducible bit-for-bit.
pub const DEFAULT_SEED: u64 = 1994;

/// Builds the CUPID-calibrated schema and the 10-query workload used by
/// Figures 5–7 and the statistics table.
pub fn experiment_setup(seed: u64) -> (GeneratedSchema, Vec<QuerySpec>) {
    let gen = cupid_like(seed);
    let workload = generate_workload(
        &gen,
        &WorkloadConfig {
            seed: seed.wrapping_add(1),
            ..Default::default()
        },
    );
    (gen, workload)
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Writes a machine-readable run report for an experiment binary.
///
/// The report captures the global `ipe-obs` counter/timer registries plus
/// any key/value metadata the binary supplies, and lands in
/// `BENCH_<name>.json` — in `$OBS_REPORT_DIR` when set, else the current
/// directory. Failures are reported on stderr but never fail the
/// experiment; in `obs-off` builds the metric sections are empty.
pub fn write_run_report(name: &str, meta: &[(&str, &str)]) {
    write_run_report_with_stats(name, meta, &[]);
}

/// [`write_run_report`], additionally recording named numeric statistics
/// in the report's `stats` section (throughputs, percentiles, ...).
pub fn write_run_report_with_stats(name: &str, meta: &[(&str, &str)], stats: &[(&str, u64)]) {
    let mut report = ipe_obs::Report::new();
    report.meta("experiment", name);
    for (k, v) in meta {
        report.meta(*k, *v);
    }
    for (k, v) in stats {
        report.stat(*k, *v);
    }
    report.capture_metrics();
    let dir = std::env::var("OBS_REPORT_DIR").unwrap_or_else(|_| ".".to_owned());
    let path = std::path::Path::new(&dir).join(format!("BENCH_{name}.json"));
    match report.write_to(&path) {
        Ok(()) => eprintln!("(run report written to {})", path.display()),
        Err(e) => eprintln!("warning: cannot write run report {}: {e}", path.display()),
    }
}

/// A bench binary's command line, consumed flag by flag (see [`args`]).
/// Take the switches and `--name N` flags before the positionals, so a
/// flag's value is never read as a positional.
#[derive(Debug)]
pub struct Args {
    argv: Vec<String>,
}

impl Args {
    /// Runs `take` over `argv` (program name excluded) and fails on any
    /// argument it left unconsumed.
    fn parse<T>(
        argv: impl IntoIterator<Item = String>,
        take: impl FnOnce(&mut Args) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut args = Args {
            argv: argv.into_iter().collect(),
        };
        let parsed = take(&mut args)?;
        match args.argv.first() {
            Some(extra) => Err(format!("unknown argument `{extra}`")),
            None => Ok(parsed),
        }
    }

    /// Whether the switch `name` (e.g. `--smoke`) was given.
    pub fn switch(&mut self, name: &str) -> bool {
        let before = self.argv.len();
        self.argv.retain(|a| a != name);
        self.argv.len() < before
    }

    /// The number after the flag `name` (e.g. `--requests 600`), or
    /// `default` when the flag is absent; the last occurrence wins.
    pub fn num<T: FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        let mut value = default;
        while let Some(i) = self.argv.iter().position(|a| a == name) {
            self.argv.remove(i);
            if i == self.argv.len() {
                return Err(format!("{name} needs a value"));
            }
            value = number(name, &self.argv.remove(i))?;
        }
        Ok(value)
    }

    /// [`Args::num`] for a count that must be at least 1.
    pub fn count(&mut self, name: &str, default: usize) -> Result<usize, String> {
        match self.num(name, default)? {
            0 => Err(format!("{name} must be >= 1")),
            n => Ok(n),
        }
    }

    /// The next positional argument (one not starting with `-`) as a
    /// number called `what`, or `default` when none is left.
    pub fn positional<T: FromStr>(&mut self, what: &str, default: T) -> Result<T, String> {
        match self.argv.iter().position(|a| !a.starts_with('-')) {
            Some(i) => number(what, &self.argv.remove(i)),
            None => Ok(default),
        }
    }
}

fn number<T: FromStr>(what: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{what} must be a number, got `{text}`"))
}

/// Parses this process's arguments with `take`, failing on any argument
/// `take` left unconsumed: on a malformed command line prints `error: …`
/// and exits 1.
pub fn args<T>(take: impl FnOnce(&mut Args) -> Result<T, String>) -> T {
    Args::parse(std::env::args().skip(1), take).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    })
}

/// The epilogue of every fallible binary: `error: …` and exit 1 on `Err`.
pub fn exit(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A fresh scratch directory under the system temp dir, unique to this
/// process and call.
pub fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ipe-bench-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Locates the `ipe` binary: `$IPE_BIN`, else a sibling of this binary.
fn ipe_binary() -> Result<PathBuf, String> {
    if let Ok(path) = std::env::var("IPE_BIN") {
        return Ok(PathBuf::from(path));
    }
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let sibling = me
        .parent()
        .ok_or("cannot locate target directory")?
        .join("ipe");
    if sibling.exists() {
        Ok(sibling)
    } else {
        Err(format!(
            "{} not found; build the `ipe` binary first or set IPE_BIN",
            sibling.display()
        ))
    }
}

/// Spawns `ipe serve --addr 127.0.0.1:0` with `extra` flags and returns
/// the child with the address scraped from its stdout.
pub fn spawn_ipe(extra: &[&str]) -> Result<(Child, String), String> {
    let ipe = ipe_binary()?;
    let mut child = Command::new(&ipe)
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", ipe.display()))?;
    let stdout = child.stdout.take().ok_or("no child stdout")?;
    let mut lines = std::io::BufReader::new(stdout).lines();
    for line in &mut lines {
        let line = line.map_err(|e| e.to_string())?;
        if let Some(addr) = line.strip_prefix("ipe-service listening on http://") {
            // Drain the remaining banner lines in the background so the
            // child never blocks on a full pipe.
            let addr = addr.trim().to_owned();
            std::thread::spawn(move || for _ in lines {});
            return Ok((child, addr));
        }
    }
    let _ = child.kill();
    Err("server exited before printing its address".to_owned())
}

/// Sends `POST /v1/shutdown` to the [`spawn_ipe`] child at `addr` and
/// waits for it, failing unless it exits 0.
pub fn shutdown_ipe(mut child: Child, addr: &str) -> Result<(), String> {
    let _ = Client::new(addr).request("POST", "/v1/shutdown", "");
    let status = child.wait().map_err(|e| e.to_string())?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("ipe serve at {addr} exited with {status}"))
    }
}

/// Sends one request and fails unless it answers `want`; returns the body.
pub fn call(
    client: &mut Client,
    method: &str,
    path: &str,
    body: &str,
    want: u16,
) -> Result<String, String> {
    let (status, resp) = client
        .request(method, path, body)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    if status != want {
        return Err(format!(
            "{method} {path}: expected {want}, got {status}: {resp}"
        ));
    }
    Ok(resp)
}

/// Parses a response body as JSON.
pub fn json(text: &str) -> Result<Value, String> {
    serde_json::parse_value_text(text).map_err(|e| format!("bad JSON ({e:?}): {text}"))
}

/// The non-negative integer field `key` of a JSON object.
pub fn json_u64(v: &Value, key: &str) -> Result<u64, String> {
    match v.get(key) {
        Some(Value::U64(u)) => Ok(*u),
        Some(Value::I64(i)) if *i >= 0 => Ok(*i as u64),
        other => Err(format!("bad `{key}` in response: {other:?}")),
    }
}

/// The boolean field `key` of a JSON object.
pub fn json_bool(v: &Value, key: &str) -> Result<bool, String> {
    match v.get(key) {
        Some(Value::Bool(b)) => Ok(*b),
        other => Err(format!("bad `{key}` in response: {other:?}")),
    }
}

/// The string field `key` of a JSON object.
pub fn json_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s.as_str()),
        other => Err(format!("bad `{key}` in response: {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse<T>(
        argv: &[&str],
        take: impl FnOnce(&mut Args) -> Result<T, String>,
    ) -> Result<T, String> {
        Args::parse(argv.iter().map(|a| a.to_string()), take)
    }

    #[test]
    fn switch_is_seen_and_consumed() {
        assert_eq!(parse(&["--smoke"], |a| Ok(a.switch("--smoke"))), Ok(true));
        assert_eq!(parse(&[], |a| Ok(a.switch("--smoke"))), Ok(false));
    }

    #[test]
    fn absent_flags_take_their_defaults() {
        let got = parse(&[], |a| {
            Ok((a.num("--requests", 600u64)?, a.positional("seed", 7u64)?))
        });
        assert_eq!(got, Ok((600, 7)));
    }

    #[test]
    fn flags_and_positionals_mix_in_any_order() {
        let got = parse(&["12", "--requests", "5", "--smoke", "3"], |a| {
            let smoke = a.switch("--smoke");
            let requests = a.num("--requests", 600u64)?;
            Ok((
                smoke,
                requests,
                a.positional("seed", 0u64)?,
                a.positional("#seeds", 0u64)?,
            ))
        });
        assert_eq!(got, Ok((true, 5, 12, 3)));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let got = parse(&["--smok"], |a| Ok(a.switch("--smoke")));
        assert_eq!(got, Err("unknown argument `--smok`".to_owned()));
        let got = parse(&["1", "2"], |a| a.positional("seed", 0u64));
        assert_eq!(got, Err("unknown argument `2`".to_owned()));
    }

    #[test]
    fn missing_value_is_an_error() {
        let got = parse(&["--requests"], |a| a.num("--requests", 1u64));
        assert_eq!(got, Err("--requests needs a value".to_owned()));
    }

    #[test]
    fn non_numbers_are_errors() {
        let got = parse(&["12x"], |a| a.positional("seed", 0u64));
        assert_eq!(got, Err("seed must be a number, got `12x`".to_owned()));
        let got = parse(&["--requests", "many"], |a| a.num("--requests", 1u64));
        assert_eq!(
            got,
            Err("--requests must be a number, got `many`".to_owned())
        );
        let got = parse(&["--requests", "0"], |a| a.count("--requests", 1));
        assert_eq!(got, Err("--requests must be >= 1".to_owned()));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(1.0), "100.0%");
        assert_eq!(pct(0.893), "89.3%");
    }

    #[test]
    fn setup_is_deterministic_and_full() {
        let (a_gen, a_wl) = experiment_setup(7);
        let (b_gen, b_wl) = experiment_setup(7);
        assert_eq!(a_gen.schema.to_json(), b_gen.schema.to_json());
        assert_eq!(a_wl.len(), 10);
        assert_eq!(
            a_wl.iter().map(|q| &q.expr).collect::<Vec<_>>(),
            b_wl.iter().map(|q| &q.expr).collect::<Vec<_>>()
        );
    }
}
