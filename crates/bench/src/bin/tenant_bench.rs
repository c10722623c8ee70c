//! Benchmark and correctness probes for multi-tenant isolation.
//!
//! Two modes:
//!
//! * default: the isolation benchmark — measure a quiet tenant's warm
//!   completion p50 solo, then again while a noisy tenant is pinned at
//!   its admission quota (collecting 429s the whole time), and write
//!   `BENCH_tenant.json`. Gates: the noisy tenant must actually be
//!   throttled, the quiet tenant must see zero 429s, and (when the host
//!   has at least 2 CPUs) the quiet tenant's contended warm p50 must be
//!   within 2x of its solo run.
//! * `--smoke`: a fast in-process probe for CI — tenant CRUD, namespace
//!   isolation, the unified 429 retry envelope, and the delete-purge
//!   contract.
//!
//! ```text
//! tenant_bench [--requests N] [--smoke]
//! ```

use ipe_bench::{call, json, json_bool, json_str, json_u64, write_run_report_with_stats};
use ipe_schema::fixtures;
use ipe_service::{Client, Server, ServiceConfig};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let (smoke_mode, requests) =
        ipe_bench::args(|a| Ok((a.switch("--smoke"), a.count("--requests", 600)?)));
    ipe_bench::exit(if smoke_mode { smoke() } else { bench(requests) })
}

fn start_server() -> Result<Server, String> {
    Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        reactors: 2,
        queue_depth: 128,
        request_timeout: Duration::from_secs(10),
        ..Default::default()
    })
    .map_err(|e| format!("cannot start server: {e}"))
}

const COMPLETE_BODY: &str = "{\"schema\":\"bench\",\"query\":\"ta~name\"}";

/// Runs `n` warm completions for `tenant` on one pooled connection,
/// returning the p50 latency in microseconds and the non-200 count.
fn drive_quiet(addr: &str, tenant: &str, n: usize) -> Result<(f64, u64), String> {
    let path = format!("/v1/t/{tenant}/complete");
    let mut client = Client::new(addr.to_owned());
    let mut lat = Vec::with_capacity(n);
    let mut errors = 0u64;
    for _ in 0..n {
        let started = Instant::now();
        let (status, _) = client
            .request("POST", &path, COMPLETE_BODY)
            .map_err(|e| e.to_string())?;
        lat.push(started.elapsed().as_secs_f64() * 1e6);
        if status != 200 {
            errors += 1;
        }
    }
    Ok((
        ipe_metrics::summarize(&lat).map_or(0.0, |s| s.median),
        errors,
    ))
}

fn bench(requests: usize) -> Result<(), String> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let server = start_server()?;
    let addr = server.addr().to_string();
    let mut c = Client::new(addr.clone());

    // Quiet gets default (unlimited) quotas; noisy is pinned at 200
    // admitted requests/second.
    call(&mut c, "PUT", "/v1/tenants/quiet", "{}", 201)?;
    call(
        &mut c,
        "PUT",
        "/v1/tenants/noisy",
        "{\"rate_per_sec\": 200.0, \"burst\": 20, \"max_concurrent\": 2}",
        201,
    )?;
    let uni = fixtures::university().to_json();
    call(&mut c, "PUT", "/v1/t/quiet/schemas/bench", &uni, 200)?;
    call(&mut c, "PUT", "/v1/t/noisy/schemas/bench", &uni, 200)?;

    // Warm both partitions, then measure the quiet tenant alone.
    drive_quiet(&addr, "quiet", 8)?;
    drive_quiet(&addr, "noisy", 8)?;
    let (solo_p50, solo_errors) = drive_quiet(&addr, "quiet", requests)?;
    if solo_errors > 0 {
        return Err(format!("quiet tenant saw {solo_errors} solo errors"));
    }

    // Contended run: two noisy client threads hammer their own tenant
    // for the whole window. They back off 1ms per attempt, so they stay
    // an order of magnitude over their quota (mostly collecting 429s)
    // without turning the benchmark into a CPU-saturation test.
    let stop = Arc::new(AtomicBool::new(false));
    let noisy_ok = Arc::new(AtomicU64::new(0));
    let noisy_throttled = Arc::new(AtomicU64::new(0));
    let mut noisy_threads = Vec::new();
    for _ in 0..2 {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        let ok = Arc::clone(&noisy_ok);
        let throttled = Arc::clone(&noisy_throttled);
        noisy_threads.push(std::thread::spawn(move || -> Result<(), String> {
            let mut client = Client::new(addr);
            while !stop.load(Ordering::Relaxed) {
                let (status, body) = client
                    .request("POST", "/v1/t/noisy/complete", COMPLETE_BODY)
                    .map_err(|e| e.to_string())?;
                match status {
                    200 => ok.fetch_add(1, Ordering::Relaxed),
                    429 => {
                        // Pin the envelope while we are here: every 429
                        // must carry the machine-readable retry hint.
                        let v = json(&body)?;
                        if !json_bool(&v, "retryable")? || json_u64(&v, "retry_after_ms")? == 0 {
                            return Err(format!("bad throttle envelope: {body}"));
                        }
                        throttled.fetch_add(1, Ordering::Relaxed)
                    }
                    other => return Err(format!("noisy complete: status {other}: {body}")),
                };
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(())
        }));
    }
    // Let the noisy tenant drain its burst allowance before measuring.
    std::thread::sleep(Duration::from_millis(200));
    let (contended_p50, quiet_throttled) = drive_quiet(&addr, "quiet", requests)?;
    stop.store(true, Ordering::Relaxed);
    for t in noisy_threads {
        t.join().map_err(|_| "noisy thread panicked")??;
    }
    let noisy_ok = noisy_ok.load(Ordering::Relaxed);
    let noisy_throttled = noisy_throttled.load(Ordering::Relaxed);
    let ratio = contended_p50 / solo_p50.max(1e-3);

    println!("tenant isolation ({requests} requests/tenant, {cpus} CPU(s)):");
    println!("  quiet solo      p50: {solo_p50:>8.1}us");
    println!(
        "  quiet contended p50: {contended_p50:>8.1}us ({ratio:.2}x solo, {quiet_throttled} throttled)"
    );
    println!("  noisy: {noisy_ok} admitted, {noisy_throttled} throttled (pinned at quota)");

    if noisy_throttled == 0 {
        return Err("noisy tenant was never throttled; quota not enforced".to_owned());
    }
    if quiet_throttled > 0 {
        return Err(format!(
            "quiet tenant absorbed {quiet_throttled} of the noisy tenant's throttling"
        ));
    }
    // On a single core the noisy clients time-share the quiet tenant's
    // CPU, so the latency ratio stops measuring isolation.
    let sweep_mode = if cpus >= 2 {
        if ratio > 2.0 {
            return Err(format!(
                "quiet tenant's contended p50 is {ratio:.2}x its solo run (floor: 2.0x)"
            ));
        }
        "parallel"
    } else {
        "cpu-constrained"
    };

    server.shutdown();
    let requests_str = requests.to_string();
    let cpus_str = cpus.to_string();
    write_run_report_with_stats(
        "tenant",
        &[
            ("requests", requests_str.as_str()),
            ("cpus", cpus_str.as_str()),
            ("sweep_mode", sweep_mode),
            ("isolation_ceiling", "2.0"),
        ],
        &[
            ("quiet_solo_p50_us", solo_p50 as u64),
            ("quiet_contended_p50_us", contended_p50 as u64),
            ("isolation_ratio_milli", (ratio * 1000.0) as u64),
            ("quiet_throttled", quiet_throttled),
            ("noisy_admitted", noisy_ok),
            ("noisy_throttled", noisy_throttled),
        ],
    );
    Ok(())
}

/// Fast in-process CI probe: tenant CRUD, namespace isolation, the 429
/// envelope, and the delete purge.
fn smoke() -> Result<(), String> {
    let server = start_server()?;
    let addr = server.addr().to_string();
    let mut c = Client::new(addr.clone());
    let uni = fixtures::university().to_json();

    // CRUD: create is 201, reconfigure is 200, bad names are 400, and
    // `default` cannot be deleted.
    call(&mut c, "PUT", "/v1/tenants/acme", "{}", 201)?;
    call(
        &mut c,
        "PUT",
        "/v1/tenants/acme",
        "{\"cache_bytes\": 65536}",
        200,
    )?;
    call(&mut c, "PUT", "/v1/tenants/Not%20Valid", "{}", 400)?;
    call(&mut c, "DELETE", "/v1/tenants/default", "", 409)?;

    // Namespace isolation: the same schema name in two tenants is two
    // schemas; the legacy unprefixed route is the `default` tenant. A
    // tenant-scoped GET must not leak the scoped name.
    call(&mut c, "PUT", "/v1/t/acme/schemas/s", &uni, 200)?;
    call(&mut c, "PUT", "/v1/schemas/s", &uni, 200)?;
    let body = call(&mut c, "GET", "/v1/t/acme/schemas/s", "", 200)?;
    if json_str(&json(&body)?, "name")? != "s" {
        return Err(format!("tenant-scoped GET leaked a scoped name: {body}"));
    }
    call(&mut c, "GET", "/v1/t/nobody/schemas/s", "", 404)?;

    // Admission: a nearly-zero refill rate admits `burst` requests and
    // then answers 429 with the unified retry envelope.
    let quota = "{\"rate_per_sec\": 0.001, \"burst\": 2}";
    call(&mut c, "PUT", "/v1/tenants/throttled", quota, 201)?;
    call(&mut c, "PUT", "/v1/t/throttled/schemas/s", &uni, 200)?;
    let complete_s = "{\"schema\":\"s\",\"query\":\"ta~name\"}";
    call(&mut c, "POST", "/v1/t/throttled/complete", complete_s, 200)?;
    let resp = c
        .request_with("POST", "/v1/t/throttled/complete", complete_s, &[])
        .map_err(|e| e.to_string())?;
    if resp.status != 429 {
        return Err(format!(
            "quota not enforced: {}: {}",
            resp.status, resp.body
        ));
    }
    let v = json(&resp.body)?;
    if !json_bool(&v, "retryable")?
        || json_u64(&v, "retry_after_ms")? == 0
        || json_str(&v, "tenant")? != "throttled"
    {
        return Err(format!("bad 429 envelope: {}", resp.body));
    }
    if resp.header("retry-after").is_none() {
        return Err("429 missing Retry-After header".to_owned());
    }

    // Delete purges the namespace: schema count reported, cache partition
    // dropped, and the tenant 404s afterwards — without touching the
    // other tenants' same-named schemas.
    let body = call(&mut c, "DELETE", "/v1/tenants/acme", "", 200)?;
    if json_u64(&json(&body)?, "purged_schemas")? != 1 {
        return Err(format!("wrong purge count: {body}"));
    }
    call(&mut c, "GET", "/v1/t/acme/schemas/s", "", 404)?;
    call(&mut c, "GET", "/v1/schemas/s", "", 200)?;

    server.shutdown();
    println!("tenant smoke OK: CRUD, namespaces, 429 envelope, delete purge");
    Ok(())
}
