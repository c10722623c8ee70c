//! One benchmark run: set-up, the timed closed-loop phase against the
//! spawned server, the answer checks and validity gates, and (traced
//! runs) the layer replay.

use crate::client::Conn;
use crate::load::{drive, Check, ConnStats};
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::oracle::{
    answers_of, same_modulo_volatile, scan_generation, texts_of, AnswerKey, Oracle,
};
use crate::replay::Replay;
use crate::server::{
    allowed_cpus, fresh_dir, host_steal_seconds, pin_process, pin_this_thread, wait_index_ready,
    Scrape, ServerProc,
};
use crate::stats::{median, Dist};
use crate::workload::{self as wl, Fixture, ReadKey, Workload, SCHEMA_NAME};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Consecutive parts of equal length the timed phase is measured in. Each
/// end-to-end figure is taken over each whole part, and the run reports
/// the median of the parts' figures: a stall that recurs at least once a
/// part moves every part, and so the figure, while a one-off burst of
/// outside load moves one part only.
pub const PARTS: usize = 3;
/// Length of the traced run's depth-1 probe.
pub const PROBE: Duration = Duration::from_secs(1);
/// Most timed requests the layer replay runs.
pub const REPLAY_CAP: usize = 20_000;
/// Read samples each part needs for its 99th percentile (ten beyond it).
pub const MIN_READ_SAMPLES: usize = 1000;

/// Command-line options of one run.
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// Seed of the request sequence.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
    /// Traced run: print per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The `ipe` binary to serve with.
    pub ipe: PathBuf,
    /// Scratch directory for logs, data directories and span files.
    pub work: PathBuf,
    /// Test hook: corrupt every oracle answer, so the run must fail.
    pub corrupt_oracle: bool,
}

/// What a run prints: human-readable notes, then the verdict.
pub struct Report {
    /// Lines printed before the result.
    pub notes: Vec<String>,
    /// The verdict and metric values.
    pub result: metrics::Result,
}

/// The inputs and oracle answers of a run. They are computed in-process
/// before any server starts, so `setup_s` times only the server's set-up.
struct Prepared {
    pool: Vec<ReadKey>,
    wires: Vec<Vec<u8>>,
    /// Reference bodies (hot, query), one per pool key: the oracle's for
    /// hot, the verified warm-up bodies for query.
    refs: Vec<Vec<u8>>,
    /// Answers each reference body delivers.
    answers: Vec<u64>,
    /// The oracle's answer sets, one per pool key (query).
    wants: Vec<BTreeSet<AnswerKey>>,
    oracle: Oracle,
    /// The uploaded schema's JSON.
    schema_json: String,
    checks: Checks,
}

/// Tally of answer checks made outside the timed phase.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(msg());
            }
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Load connections: two, capped by `nproc`.
pub fn connections() -> usize {
    wl::CONNECTIONS.min(nproc())
}

/// Reactor threads of the server. One, so that every connection lands on
/// the same reactor: with more, `SO_REUSEPORT` hashes each connection's
/// ephemeral port to a reactor at random, and whether the two load
/// connections shared one made throughput bimodal from run to run.
pub const REACTORS: usize = 1;

/// CPUs of the server's threads and of the load thread.
type Cpus = Option<(usize, usize)>;

/// Pins the server to the first CPU this process may use and keeps the
/// second for the load thread, so that the reactor and the load thread
/// neither share a CPU nor migrate. `None` (nothing pinned) with fewer
/// than two CPUs or without `taskset`.
fn pin_apart(server: &ServerProc) -> Cpus {
    match allowed_cpus()[..] {
        [a, b, ..] if pin_process(server.pid(), a) => Some((a, b)),
        _ => None,
    }
}

/// Runs `load` on a thread of its own, pinned to the load CPU of `cpus`,
/// and `meanwhile` on the calling thread.
fn on_load_cpu<T: Send, U>(
    cpus: Cpus,
    load: impl FnOnce() -> T + Send,
    meanwhile: impl FnOnce() -> U,
) -> (T, U) {
    std::thread::scope(|s| {
        let handle = s.spawn(|| {
            if let Some((_, cpu)) = cpus {
                pin_this_thread(cpu);
            }
            load()
        });
        let other = meanwhile();
        (handle.join().expect("load thread panicked"), other)
    })
}

fn server_args(data_dir: Option<&Path>) -> Vec<String> {
    let mut args = vec!["--reactors".to_owned(), REACTORS.to_string()];
    if let Some(dir) = data_dir {
        args.extend([
            "--data-dir".to_owned(),
            dir.display().to_string(),
            "--fsync".to_owned(),
            "always".to_owned(),
        ]);
    }
    args
}

/// Runs one workload end to end.
pub fn run(opts: &Opts) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.work).map_err(|e| format!("{}: {e}", opts.work.display()))?;
    let w = opts.workload;
    let conns = connections();
    let log = opts.work.join(format!("server-{}.log", w.name()));
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let mut prep = prepare(w, opts.corrupt_oracle)?;
    let mut setup_s = Vec::with_capacity(reps);
    let mut live = None;
    for rep in 0..reps {
        let dir = w
            .durable()
            .then(|| fresh_dir(&opts.work, &format!("data-{}", w.name())))
            .transpose()?;
        let t0 = Instant::now();
        let server = ServerProc::spawn(&opts.ipe, &server_args(dir.as_deref()), &log)?;
        setup(w, &server.addr, &mut prep)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < reps {
            server.shutdown()?;
        } else {
            live = Some((server, dir));
        }
    }
    let (server, data_dir) = live.expect("at least one set-up");
    let cpus = pin_apart(&server);
    let mut phase = timed(w, &server, &prep, opts, conns, cpus)?;
    let probe = if opts.trace {
        Some(probe(w, &server, &prep, opts.seed, cpus, &mut phase.reads)?)
    } else {
        None
    };
    server.shutdown()?;

    post_check(&prep, &mut phase.reads);
    if let Some(dir) = &data_dir {
        restart_check(opts, dir, &log, &mut prep.checks)?;
    }

    let mut notes = vec![env_line(opts, conns, cpus, &phase.m0)];
    let gates = gates(w, &phase);
    let read_lat = Dist::new(phase.reads.lat_ns.clone());
    let reads = &phase.reads;
    let attempted = reads.attempted + prep.checks.attempted;
    let failed = reads.failed + prep.checks.failed;
    notes.push(format!(
        "{}: {} attempted, {} failed (error_rate {:.6}), {:.3} s measured",
        w.name(),
        attempted,
        failed,
        failed as f64 / attempted.max(1) as f64,
        phase.elapsed
    ));
    notes.push(format!("pool: {} keys", prep.pool.len()));
    if let Some(steal) = steal_pct(&phase.marks[0], &phase.marks[PARTS]) {
        notes.push(format!(
            "host steal during the phase: {steal:.1}% of {} CPUs",
            nproc()
        ));
    }
    notes.push(format!("read latency: {}", read_lat.summary("us", 1e3)));
    for e in reads.errors.iter().chain(&prep.checks.errors).take(5) {
        notes.push(format!("failure: {e}"));
    }
    for g in &gates {
        notes.push(format!("validity gate failed: {g}"));
    }

    let values: Vec<(&'static str, f64)> = if let Some(probe) = &probe {
        let layers = layer_replay(opts, &prep, &phase, probe, &mut notes)?;
        PER_LAYER
            .iter()
            .map(|d| (d.name, layers.get(d.name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let e2e = end_to_end(&phase, &setup_s, &mut notes);
        notes.push(format!(
            "setup_s samples: {}",
            setup_s
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        END_TO_END.iter().map(|d| (d.name, e2e[d.name])).collect()
    };
    for (name, value) in &values {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == *name)
            .map_or("", |d| d.unit);
        notes.push(format!("  {name:<28} {value:>14.4} {unit}"));
    }
    Ok(Report {
        notes,
        result: metrics::Result {
            correct: failed == 0 && gates.is_empty(),
            attempted,
            failed,
            values,
        },
    })
}

/// Builds the pool and the oracle answers. Runs before any server starts.
fn prepare(w: Workload, corrupt: bool) -> Result<Prepared, String> {
    let fx = Fixture::new();
    let mut prep = Prepared {
        pool: Vec::new(),
        wires: Vec::new(),
        refs: Vec::new(),
        answers: Vec::new(),
        wants: Vec::new(),
        oracle: Oracle::new(Arc::clone(&fx.cupid), corrupt),
        schema_json: fx.cupid_json.clone(),
        checks: Checks::default(),
    };
    match w {
        Workload::CompleteHot => {
            prep.pool = wl::hot_pool(&fx);
            let university = Oracle::new(Arc::new(ipe_schema::fixtures::university()), corrupt);
            for key in &prep.pool {
                let o = if key.schema == SCHEMA_NAME {
                    &prep.oracle
                } else {
                    &university
                };
                let body = o.complete_body(key, 1)?.into_bytes();
                prep.answers.push(texts_of(&body)?.len() as u64);
                prep.refs.push(body);
            }
        }
        Workload::CompleteCold => {
            prep.pool = wl::cold_pool(&fx.cupid, prep.oracle.index());
        }
        Workload::QueryEval => {
            prep.pool = wl::query_pool(&fx);
            let gen = ipe_gen::DataGenConfig {
                objects_per_class: Some(wl::DATA_OBJECTS),
                links_per_rel: Some(wl::DATA_LINKS),
                seed: Some(wl::DATA_SEED),
            };
            let db = ipe_gen::generate_database(&fx.cupid, &gen);
            prep.wants = prep
                .pool
                .iter()
                .map(|k| prep.oracle.answers(k, &db))
                .collect::<Result<_, _>>()?;
            prep.answers = prep.wants.iter().map(|a| a.len() as u64).collect();
            prep.refs = vec![Vec::new(); prep.pool.len()];
        }
    }
    prep.wires = prep
        .pool
        .iter()
        .map(|k| wl::wire("POST", w.read_path(), &k.body))
        .collect();
    Ok(prep)
}

/// The server's set-up, the part `setup_s` times: uploads the schema (and
/// data), waits for the index, and warms the cache, checking every
/// warm-up answer.
fn setup(w: Workload, addr: &str, prep: &mut Prepared) -> Result<(), String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut put = |path: &str, body: &str| -> Result<(), String> {
        let (status, reply) = conn
            .request("PUT", path, body)
            .map_err(|e| format!("PUT {path}: {e}"))?;
        if status != 200 {
            return Err(format!(
                "PUT {path}: HTTP {status}: {}",
                String::from_utf8_lossy(&reply)
            ));
        }
        Ok(())
    };
    put(&format!("/v1/schemas/{SCHEMA_NAME}"), &prep.schema_json)?;
    if w == Workload::QueryEval {
        put(&format!("/v1/data/{SCHEMA_NAME}"), &wl::data_body())?;
    }
    // The built-in `default` schema plus ours.
    wait_index_ready(addr, 2.0)?;
    match w {
        Workload::CompleteHot => {
            for (key, want) in prep.pool.iter().zip(&prep.refs) {
                let (status, body) = conn
                    .request("POST", "/v1/complete", &key.body)
                    .map_err(|e| e.to_string())?;
                let ok = status == 200 && same_modulo_volatile(&body, want);
                prep.checks.check(ok, || {
                    format!(
                        "warm-up {} e={}: HTTP {status}: {}",
                        key.query,
                        key.e,
                        String::from_utf8_lossy(&body)
                    )
                });
            }
        }
        Workload::CompleteCold => {}
        Workload::QueryEval => {
            // Each warm-up body must carry exactly the oracle's answer
            // sets; it then becomes the reference for the timed phase.
            for (i, key) in prep.pool.iter().enumerate() {
                let (status, body) = conn
                    .request("POST", "/v1/query", &key.body)
                    .map_err(|e| e.to_string())?;
                let got = (status == 200).then(|| answers_of(&body).ok()).flatten();
                prep.checks.check(got.as_ref() == Some(&prep.wants[i]), || {
                    format!(
                        "query {} e={}: answer sets differ from the oracle",
                        key.query, key.e
                    )
                });
                prep.refs[i] = body;
            }
        }
    }
    Ok(())
}

/// A reading taken at a part boundary of the timed phase.
#[derive(Clone, Copy)]
struct Mark {
    /// Seconds into the phase.
    t: f64,
    /// Server CPU seconds (utime+stime) so far.
    cpu: f64,
    /// CPU seconds the hypervisor has taken from this machine so far, where
    /// the kernel reports it.
    steal: Option<f64>,
}

impl Mark {
    fn take(t: f64, server: &ServerProc) -> Result<Mark, String> {
        Ok(Mark {
            t,
            cpu: server.cpu_seconds()?,
            steal: host_steal_seconds(),
        })
    }
}

/// Share of this machine's CPU time the hypervisor took between two marks,
/// in percent.
fn steal_pct(a: &Mark, b: &Mark) -> Option<f64> {
    let stolen = b.steal? - a.steal?;
    Some(100.0 * stolen / ((b.t - a.t) * nproc() as f64))
}

/// The timed phase's raw figures.
struct Phase {
    reads: ConnStats,
    elapsed: f64,
    /// Marks at the start, at each part boundary, and at the end.
    marks: Vec<Mark>,
    /// Indices into `reads.lat_ns` of the requests that completed in each
    /// part.
    parts: Vec<Vec<usize>>,
    rss_mb: f64,
    m0: Scrape,
    m1: Scrape,
}

/// How the connections check the bodies of workload `w`.
fn body_check(w: Workload, prep: &Prepared) -> Check<'_> {
    match w {
        Workload::CompleteHot | Workload::QueryEval => Check::Reference {
            refs: &prep.refs,
            answers: &prep.answers,
        },
        Workload::CompleteCold => Check::Capture,
    }
}

fn timed(
    w: Workload,
    server: &ServerProc,
    prep: &Prepared,
    opts: &Opts,
    conns: usize,
    cpus: Cpus,
) -> Result<Phase, String> {
    let order = wl::key_order(w, prep.pool.len(), opts.seed, conns);
    let check = body_check(w, prep);
    let addr = server.addr.as_str();
    let m0 = Scrape::fetch(addr)?;
    let mut marks = vec![Mark::take(0.0, server)?];
    let start = Instant::now();
    let deadline = start + Duration::from_secs(opts.seconds);
    let part = Duration::from_secs_f64(opts.seconds as f64 / PARTS as f64);
    let load = || {
        drive(
            addr,
            &prep.wires,
            &order,
            conns,
            w.window(),
            (start, deadline),
            &check,
        )
    };
    let (reads, inner) = on_load_cpu(cpus, load, || {
        (1..PARTS as u32)
            .map(|i| {
                std::thread::sleep((start + part * i).saturating_duration_since(Instant::now()));
                Mark::take(start.elapsed().as_secs_f64(), server)
            })
            .collect::<Vec<_>>()
    });
    let elapsed = start.elapsed().as_secs_f64();
    for m in inner {
        marks.push(m?);
    }
    marks.push(Mark::take(elapsed, server)?);
    let m1 = Scrape::fetch(addr)?;
    let rss_mb = server.peak_rss_mb()?;
    let mut parts = vec![Vec::new(); PARTS];
    for (i, &end) in reads.ends.iter().enumerate() {
        let t = end as f64 / 1e9;
        parts[marks[1..PARTS].partition_point(|m| m.t <= t)].push(i);
    }
    Ok(Phase {
        reads,
        elapsed,
        marks,
        parts,
        rss_mb,
        m0,
        m1,
    })
}

/// The untraced run's end-to-end figures: each the median of its values
/// over the [`PARTS`] parts, each value taken over its whole part.
fn end_to_end(
    phase: &Phase,
    setup_s: &[f64],
    notes: &mut Vec<String>,
) -> HashMap<&'static str, f64> {
    let reads = &phase.reads;
    // Answered requests count as correct in the share the whole run got
    // right (all of them on a correct run).
    let ok_share = reads.ok as f64 / reads.lat_ns.len().max(1) as f64;
    let answers_per_ok = reads.answers as f64 / reads.ok.max(1) as f64;
    let mut figures: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for (i, idx) in phase.parts.iter().enumerate() {
        let (a, b) = (&phase.marks[i], &phase.marks[i + 1]);
        let n = idx.len();
        let lat = Dist::new(idx.iter().map(|&j| reads.lat_ns[j]).collect());
        let rate = n as f64 * ok_share / (b.t - a.t);
        let cpu = (b.cpu - a.cpu) * 1e6 / n.max(1) as f64;
        for (name, value) in [
            ("throughput_rps", rate),
            ("latency_p50_us", lat.at(0.5, 1e3)),
            ("latency_p99_us", lat.at(0.99, 1e3)),
            ("server_cpu_us_per_req", cpu),
            ("answers_per_s", rate * answers_per_ok),
        ] {
            figures.entry(name).or_default().push(value);
        }
        notes.push(format!(
            "part {}: {:.2} s, {rate:.1} req/s, {}, server cpu {cpu:.1} us/req{}",
            i + 1,
            b.t - a.t,
            lat.summary("us", 1e3),
            steal_pct(a, b).map_or(String::new(), |p| format!(", host steal {p:.1}%"))
        ));
    }
    let mut out: HashMap<&'static str, f64> =
        figures.iter().map(|(&k, v)| (k, median(v))).collect();
    out.insert("setup_s", median(setup_s));
    out.insert("server_rss_mb", phase.rss_mb);
    out
}

/// The traced run's depth-1 probe: one connection, one request in flight,
/// for [`PROBE`], after the timed phase. With nothing queued ahead of a
/// request, its client latency minus the server's route time is what the
/// socket, reactor and framing cost. The probe's answers are checked like
/// the timed phase's and counted into `reads`.
struct Probe {
    /// Mean client-observed latency, ns.
    client_ns: f64,
    /// Mean `/metrics` route time over the probe, ns.
    route_ns: f64,
}

fn probe(
    w: Workload,
    server: &ServerProc,
    prep: &Prepared,
    seed: u64,
    cpus: Cpus,
    reads: &mut ConnStats,
) -> Result<Probe, String> {
    let order = wl::key_order(w, prep.pool.len(), seed, 1);
    let check = body_check(w, prep);
    let addr = server.addr.as_str();
    let route = route_timer(w);
    let (c0, t0) = Scrape::fetch(addr)?.timer(&route);
    let start = Instant::now();
    let load = || {
        drive(
            addr,
            &prep.wires,
            &order,
            1,
            1,
            (start, start + PROBE),
            &check,
        )
    };
    let (st, ()) = on_load_cpu(cpus, load, || ());
    let (c1, t1) = Scrape::fetch(addr)?.timer(&route);
    let client_ns = Dist::new(st.lat_ns.clone()).mean(1.0);
    reads.absorb_counts(st);
    Ok(Probe {
        client_ns,
        route_ns: if c1 > c0 { (t1 - t0) / (c1 - c0) } else { 0.0 },
    })
}

/// The `/metrics` timer of the route workload `w` reads through.
fn route_timer(w: Workload) -> String {
    let route = if w == Workload::QueryEval {
        "query"
    } else {
        "complete"
    };
    format!("service.route.{route}")
}

/// Checks the bodies `complete_cold` captured during the timed phase: each
/// distinct body's completions against the oracle's, weighted by how many
/// responses carried it.
fn post_check(prep: &Prepared, reads: &mut ConnStats) {
    let captured = std::mem::take(&mut reads.captured);
    let mut keys: Vec<u32> = captured.keys().map(|(k, _)| *k).collect();
    keys.sort_unstable();
    keys.dedup();
    let want = oracle_texts(&prep.oracle, &prep.pool, &keys);
    let (mut answers, mut bad) = (0u64, 0u64);
    for ((key, body), n) in &captured {
        let got = texts_of(body);
        match (&got, &want[key]) {
            (Ok(g), Ok(w)) if g == w => answers += g.len() as u64 * n,
            (_, expected) => {
                bad += n;
                if reads.errors.len() < 5 {
                    reads.errors.push(format!(
                        "{}: got {got:?}, oracle {expected:?}",
                        prep.pool[*key as usize].query
                    ));
                }
            }
        }
    }
    reads.ok -= bad;
    reads.failed += bad;
    reads.answers += answers;
}

/// The oracle's completion texts for each of `keys`, computed across the
/// available cores.
fn oracle_texts(
    oracle: &Oracle,
    pool: &[ReadKey],
    keys: &[u32],
) -> HashMap<u32, Result<Vec<String>, String>> {
    let chunk = keys.len().div_ceil(nproc()).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = keys
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&k| {
                            let texts =
                                oracle.complete(&pool[k as usize]).map(|o| oracle.texts(&o));
                            (k, texts)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// Restarts the durable server on its data directory and checks that it
/// recovers the schema generation set-up acknowledged.
fn restart_check(opts: &Opts, dir: &Path, log: &Path, checks: &mut Checks) -> Result<(), String> {
    let want = 1;
    let server = ServerProc::spawn(&opts.ipe, &server_args(Some(dir)), log)?;
    let reply = Conn::connect(&server.addr)
        .and_then(|mut c| c.request("GET", &format!("/v1/schemas/{SCHEMA_NAME}"), ""));
    server.shutdown()?;
    let got = match &reply {
        Ok((200, body)) => scan_generation(body),
        _ => None,
    };
    checks.check(got == Some(want), || {
        format!("restart recovered generation {got:?}, last acknowledged {want}")
    });
    Ok(())
}

fn delta(m0: &Scrape, m1: &Scrape, path: &[&str]) -> f64 {
    m1.num(path) - m0.num(path)
}

/// Server-side cache hit ratio over the timed phase.
fn hit_ratio(m0: &Scrape, m1: &Scrape) -> f64 {
    let hits = delta(m0, m1, &["service", "cache", "hits"]);
    let misses = delta(m0, m1, &["service", "cache", "misses"]);
    if hits + misses == 0.0 {
        0.0
    } else {
        hits / (hits + misses)
    }
}

/// The validity gates: each workload must exercise, or bypass, the
/// mechanism it claims to. Returns the gates that failed.
fn gates(w: Workload, phase: &Phase) -> Vec<String> {
    let mut failed = Vec::new();
    let reads = &phase.reads;
    let ratio = hit_ratio(&phase.m0, &phase.m1);
    match w {
        Workload::CompleteHot | Workload::QueryEval if ratio < 0.99 => {
            failed.push(format!("cache hit ratio {ratio:.4} < 0.99"))
        }
        Workload::CompleteCold if ratio > 0.05 => {
            failed.push(format!("cache hit ratio {ratio:.4} > 0.05"))
        }
        _ => {}
    }
    if w == Workload::CompleteHot && reads.throttled > 0 {
        failed.push(format!("{} requests answered 429", reads.throttled));
    }
    for (i, part) in phase.parts.iter().enumerate() {
        if part.len() < MIN_READ_SAMPLES {
            failed.push(format!(
                "part {}: {} read samples cannot support a 99th percentile (need {MIN_READ_SAMPLES})",
                i + 1,
                part.len()
            ));
        }
    }
    failed
}

/// The environment line printed with every result.
fn env_line(opts: &Opts, conns: usize, cpus: Cpus, m: &Scrape) -> String {
    let nproc = nproc();
    let w = opts.workload;
    let params = match w {
        Workload::CompleteHot => format!(
            "pool {} keys (10 planted x e{:?} + ta~name), zipf s={}, window {} per connection",
            10 * wl::HOT_E.len() + 1,
            wl::HOT_E,
            wl::HOT_ZIPF_S,
            wl::HOT_WINDOW
        ),
        Workload::CompleteCold => {
            format!("resolvable root~target pairs at e={}, depth 1", wl::COLD_E)
        }
        Workload::QueryEval => format!(
            "10 planted x e{:?}, data {} objects/class, {} links/rel, data seed {}",
            wl::QUERY_E,
            wl::DATA_OBJECTS,
            wl::DATA_LINKS,
            wl::DATA_SEED
        ),
    };
    format!(
        "env: workload={} seed={} seconds={} trace={} nproc={nproc} connections={conns} reactors={REACTORS} \
         pinned={} rev={} rustc={} obs={} fsync={} ipe={} params=[{params}]",
        w.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        cpus.map_or("no".to_owned(), |(s, l)| format!("server cpu {s}, load cpu {l}")),
        std::env::var("PERFBENCH_REV").unwrap_or_else(|_| "unknown".to_owned()),
        std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".to_owned()),
        if m.obs_compiled_in() { "on" } else { "off" },
        if w.durable() { "always" } else { "none (in-memory)" },
        opts.ipe.display(),
    )
}

/// The traced run's per-layer figures: the in-process replay with spans,
/// the same replay without them, and the server's counters over the
/// untraced phase.
fn layer_replay(
    opts: &Opts,
    prep: &Prepared,
    phase: &Phase,
    probe: &Probe,
    notes: &mut Vec<String>,
) -> Result<HashMap<&'static str, f64>, String> {
    let w = opts.workload;
    let order = wl::key_order(w, prep.pool.len(), opts.seed, connections());
    let n = phase.reads.lat_ns.len().clamp(1, REPLAY_CAP);
    let keys = wl::interleaved_keys(&order, n);
    let budget = Duration::from_secs_f64(opts.seconds as f64 / 2.0);
    let (traced, done, t_on) = replay_once(opts, prep, &keys, true, Some(budget))?;
    let (_, _, t_off) = replay_once(opts, prep, &keys[..done], false, None)?;
    let spans_path = opts
        .work
        .join(format!("spans-{}-{}.tsv", w.name(), opts.seed));
    traced
        .tracer
        .write_tsv(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    notes.push(format!(
        "layer replay: {done} requests, {} spans written to {}",
        traced.tracer.spans.len(),
        spans_path.display()
    ));

    let timed = traced.tracer.self_times(1);
    let setup = traced.tracer.self_times(0);
    // Mean self time per call over the timed requests, or over set-up when
    // the layer only ran there (the hot workload searches only while it
    // warms the cache).
    let mean = |name: &str| -> f64 {
        let pick = timed.get(name).or_else(|| setup.get(name));
        pick.map_or(0.0, |&(ns, calls)| ns as f64 / calls.max(1) as f64)
    };
    let total = |name: &str| timed.get(name).map_or(0.0, |&(ns, _)| ns as f64);
    let c = &traced.counts;
    let per = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let (m0, m1) = (&phase.m0, &phase.m1);
    let route = route_timer(w);
    let (rc0, rt0) = m0.timer(&route);
    let (rc1, rt1) = m1.timer(&route);
    let route_ns = if rc1 > rc0 {
        (rt1 - rt0) / (rc1 - rc0)
    } else {
        0.0
    };
    let (covered_ns, roots) = traced.tracer.covered("read", 1);
    let coverage = if route_ns > 0.0 && roots > 0 {
        covered_ns as f64 / roots as f64 / route_ns
    } else {
        0.0
    };
    Ok(HashMap::from([
        ("http.parse_ns", mean("http.parse")),
        ("http.render_ns", mean("http.render")),
        ("http.bytes_in", per(c.bytes_in, c.requests)),
        ("http.bytes_out", per(c.bytes_out, c.requests)),
        ("codec.decode_ns", mean("codec.decode")),
        ("codec.encode_ns", mean("codec.encode")),
        (
            "codec.ns_per_byte",
            (total("codec.decode") + total("codec.encode")) / (c.codec_bytes.max(1)) as f64,
        ),
        ("tenant.admit_ns", mean("tenant.admit")),
        ("tenant.refused", (phase.reads.throttled + c.refused) as f64),
        ("registry.lookup_ns", mean("registry.lookup")),
        ("parser.parse_ns", mean("parser.parse")),
        ("cache.probe_ns", mean("cache.probe")),
        ("cache.insert_ns", mean("cache.insert")),
        ("cache.hit_ratio", hit_ratio(m0, m1)),
        (
            "cache.evictions",
            delta(m0, m1, &["service", "cache", "evictions"]),
        ),
        ("cache.bytes", m1.num(&["service", "cache", "bytes"])),
        ("core.search_ns", mean("core.search")),
        ("core.calls_per_query", per(c.calls, c.searches)),
        ("core.completions_per_call", per(c.completions, c.calls)),
        ("index.build_ns", mean("index.build")),
        ("index.pruned_ratio", per(c.index_pruned, c.pruned)),
        (
            "index.unindexed_completes",
            delta(m0, m1, &["service", "index", "completes_unindexed"]),
        ),
        ("query.eval_ns", mean("query.eval")),
        ("query.visited_per_answer", per(c.visited, c.answers)),
        ("store.append_ns", mean("store.append")),
        ("store.bytes_per_user_byte", per(c.wal_bytes, c.user_bytes)),
        ("service.route_ns", route_ns),
        ("service.replay_coverage", coverage),
        (
            "reactor.residual_us",
            (probe.client_ns - probe.route_ns) / 1e3,
        ),
        ("obs.span_overhead_pct", (t_on - t_off) / t_off * 100.0),
    ]))
}

/// One pass of the layer replay: set-up, then `keys` as timed requests.
/// Stops early once `budget` is spent. Returns the replay, the number of
/// timed requests done, and their wall time in seconds.
fn replay_once<'p>(
    opts: &Opts,
    prep: &'p Prepared,
    keys: &[u32],
    trace: bool,
    budget: Option<Duration>,
) -> Result<(Replay<'p>, usize, f64), String> {
    let w = opts.workload;
    let store_dir = fresh_dir(&opts.work, &format!("replay-store-{}", w.name()))?;
    let mut r = Replay::new(w, &prep.pool, trace, &store_dir)?;
    r.put_schema(&prep.schema_json)?;
    if w == Workload::QueryEval {
        r.put_data(&wl::data_body())?;
    }
    if w != Workload::CompleteCold {
        for k in 0..prep.pool.len() as u32 {
            r.read(0, k)?;
        }
    }
    let start = Instant::now();
    let mut done = 0;
    for (i, &k) in keys.iter().enumerate() {
        r.read(i as u32 + 1, k)?;
        done += 1;
        if budget.is_some_and(|b| start.elapsed() > b) {
            break;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok((r, done, secs))
}
