//! The `ipe serve` child process: spawning, `/proc` accounting, `/metrics`
//! scrapes, and shutdown.

use crate::client::Conn;
use serde::Value;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Clock ticks per second of `/proc/<pid>/stat` times (Linux `USER_HZ`).
const CLOCK_TICKS: f64 = 100.0;

/// A running `ipe serve`. Dropping it kills and reaps the process.
pub struct ServerProc {
    child: Option<Child>,
    drain: Option<std::thread::JoinHandle<()>>,
    /// `host:port` the server listens on.
    pub addr: String,
}

impl ServerProc {
    /// Spawns `ipe serve --addr 127.0.0.1:0 <extra>` and waits for its
    /// listening line. The child's stderr goes to `log`.
    pub fn spawn(ipe: &Path, extra: &[String], log: &Path) -> Result<ServerProc, String> {
        let stderr =
            File::create(log).map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        let mut cmd = Command::new(ipe);
        cmd.args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr);
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", ipe.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = ServerProc {
            child: Some(child),
            drain: None,
            addr: String::new(),
        };
        let mut lines = BufReader::new(stdout).lines();
        for line in lines.by_ref() {
            let line = line.map_err(|e| format!("reading server stdout: {e}"))?;
            if let Some(rest) = line.split("http://").nth(1) {
                server.addr = rest.trim().to_owned();
                break;
            }
        }
        if server.addr.is_empty() {
            return Err(format!(
                "server exited before listening; see {}",
                log.display()
            ));
        }
        // Keep draining stdout so the child never blocks on a full pipe.
        server.drain = Some(std::thread::spawn(move || for _ in lines {}));
        Ok(server)
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map(Child::id).unwrap_or(0)
    }

    /// User plus system CPU time the server has used so far, in seconds.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or("malformed /proc stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| "malformed /proc stat".to_owned())
        };
        Ok((tick(11)? + tick(12)?) / CLOCK_TICKS)
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_owned())
    }

    /// Asks the server to shut down and waits for it to exit; kills it if
    /// it has not exited within ten seconds.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Conn::connect(&self.addr)
            .and_then(|mut c| c.request("POST", "/v1/shutdown", ""))
            .map(|(status, _)| status == 200)
            .unwrap_or(false);
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut child = self.child.take().expect("child present until shutdown");
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    self.join_drain();
                    return if asked && status.success() {
                        Ok(())
                    } else {
                        Err(format!("server exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    self.join_drain();
                    return Err("server did not shut down within 10 s".to_owned());
                }
            }
        }
    }

    fn join_drain(&mut self) {
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.join_drain();
    }
}

/// A parsed `GET /metrics` body.
pub struct Scrape(Value);

impl Scrape {
    /// Fetches and parses `/metrics`.
    pub fn fetch(addr: &str) -> Result<Scrape, String> {
        let (status, body) = Conn::connect(addr)
            .and_then(|mut c| c.request("GET", "/metrics", ""))
            .map_err(|e| format!("/metrics: {e}"))?;
        if status != 200 {
            return Err(format!("/metrics: HTTP {status}"));
        }
        let text = String::from_utf8(body).map_err(|_| "/metrics is not UTF-8")?;
        serde_json::parse_value_text(&text)
            .map(Scrape)
            .map_err(|e| format!("/metrics JSON: {e:?}"))
    }

    /// The number at `path` (missing keys read 0: counters appear on
    /// first use).
    pub fn num(&self, path: &[&str]) -> f64 {
        let mut v = &self.0;
        for key in path {
            match v.get(key) {
                Some(next) => v = next,
                None => return 0.0,
            }
        }
        as_f64(v).unwrap_or(0.0)
    }

    /// A timer's `(count, total_ns)`.
    pub fn timer(&self, name: &str) -> (f64, f64) {
        (
            self.num(&["timers", name, "count"]),
            self.num(&["timers", name, "total_ns"]),
        )
    }

    /// Whether the server was built with its observability probes (an
    /// `obs-off` build reports no counters at all).
    pub fn obs_compiled_in(&self) -> bool {
        matches!(self.0.get("counters"), Some(Value::Map(m)) if !m.is_empty())
    }
}

/// A JSON number as `f64`.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::I64(i) => Some(*i as f64),
        Value::U64(u) => Some(*u as f64),
        Value::F64(f) => Some(*f),
        _ => None,
    }
}

/// Steal time of the whole machine so far (`/proc/stat`), in CPU-seconds:
/// time the hypervisor ran something else while this machine's CPUs had
/// work. `None` where the kernel does not report it.
pub fn host_steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let steal: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(steal / CLOCK_TICKS)
}

/// The CPUs this process may run on, from `/proc/self/status`
/// (`Cpus_allowed_list`, such as `0-3,6`), in ascending order.
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Pins thread or process `id` to `cpu` with `taskset` (`all`: every
/// thread of process `id`). Returns whether the pin took.
fn taskset(id: &str, cpu: usize, all: bool) -> bool {
    let mut cmd = Command::new("taskset");
    if all {
        cmd.arg("-a");
    }
    cmd.args(["-p", "-c", &cpu.to_string(), id])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Pins every thread of process `pid` to `cpu`.
pub fn pin_process(pid: u32, cpu: usize) -> bool {
    taskset(&pid.to_string(), cpu, true)
}

/// Pins the calling thread, and only it, to `cpu`.
pub fn pin_this_thread(cpu: usize) -> bool {
    // `/proc/thread-self` links to `<pid>/task/<tid>`.
    let Ok(link) = std::fs::read_link("/proc/thread-self") else {
        return false;
    };
    match link.file_name().and_then(|t| t.to_str()) {
        Some(tid) => taskset(tid, cpu, false),
        None => false,
    }
}

/// Polls `/metrics` until every index build has finished and at least
/// `builds` have completed.
pub fn wait_index_ready(addr: &str, builds: f64) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let m = Scrape::fetch(addr)?;
        let done = m.num(&["service", "index", "builds_completed"]);
        let running = m.num(&["service", "index", "builds_in_flight"]);
        if done >= builds && running == 0.0 {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("index builds not ready after 30 s ({done} done)"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A fresh scratch directory `<root>/<name>`, emptied if it exists.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}
