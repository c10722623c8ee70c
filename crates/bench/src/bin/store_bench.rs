//! Benchmark and crash-safety probes for the `ipe-store` durability
//! layer.
//!
//! Three modes:
//!
//! * default: a benchmark — measure WAL append throughput under each
//!   fsync policy (`always`, `interval:100`, `never`) and recovery time
//!   as a function of WAL length, and write `BENCH_store.json`.
//! * `--smoke`: a fast correctness probe for CI — append, compact,
//!   tear the WAL tail, and assert recovery returns exactly the durable
//!   prefix. Exits non-zero on any mismatch.
//! * `--kill9-smoke`: the full crash drill — spawn `ipe serve
//!   --data-dir --fsync always` as a child process, stream PUT traffic,
//!   SIGKILL it mid-write, restart on the same directory, and assert
//!   every acknowledged write survived, the deleted schema stayed dead,
//!   and ids/generations continue strictly monotonically.
//!
//! ```text
//! store_bench [--appends N] [--smoke] [--kill9-smoke]
//! ```
//!
//! `--kill9-smoke` runs the sibling `ipe` binary from the same target
//! directory (override with `IPE_BIN`).

use ipe_bench::{call, json, json_u64, spawn_ipe, tmp_dir, write_run_report_with_stats};
use ipe_schema::fixtures;
use ipe_service::Client;
use ipe_store::{FsyncPolicy, Store, StoreConfig, DEFAULT_TENANT};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let (smoke_mode, kill9_mode, appends) = ipe_bench::args(|a| {
        Ok((
            a.switch("--smoke"),
            a.switch("--kill9-smoke"),
            a.count("--appends", 4000)?,
        ))
    });
    ipe_bench::exit(if smoke_mode {
        smoke()
    } else if kill9_mode {
        kill9_smoke()
    } else {
        bench(appends)
    })
}

/// Appends `n` PUT records (round-robin over 64 names, so the log mixes
/// fresh registrations with hot-swaps) and returns the elapsed wall
/// clock including the final flush.
fn append_run(store: &mut Store, n: usize, payload: &str) -> Result<Duration, String> {
    let started = Instant::now();
    for i in 0..n {
        let name = format!("s{}", i % 64);
        store
            .append_put(
                DEFAULT_TENANT,
                &name,
                (i % 64) as u64 + 1,
                (i / 64) as u64 + 1,
                payload,
            )
            .map_err(|e| e.to_string())?;
    }
    store.sync().map_err(|e| e.to_string())?;
    Ok(started.elapsed())
}

fn bench(appends: usize) -> Result<(), String> {
    let payload = fixtures::university().to_json();
    let mut stats: Vec<(String, u64)> = Vec::new();

    // Append throughput per fsync policy. `always` pays one fsync per
    // record, so it runs a slice of the workload; the derived
    // records-per-second figures stay comparable.
    let policies = [
        ("always", FsyncPolicy::Always, (appends / 10).max(50)),
        (
            "interval_100ms",
            FsyncPolicy::Interval(Duration::from_millis(100)),
            appends,
        ),
        ("never", FsyncPolicy::Never, appends),
    ];
    println!("append throughput ({} B payload):", payload.len());
    for (label, fsync, n) in policies {
        let dir = tmp_dir(label);
        let (mut store, _) = Store::open(&StoreConfig {
            dir: dir.clone(),
            fsync,
            snapshot_every: 0,
        })
        .map_err(|e| e.to_string())?;
        let elapsed = append_run(&mut store, n, &payload)?;
        drop(store);
        let per_sec = (n as f64 / elapsed.as_secs_f64()) as u64;
        println!(
            "  fsync={label:<14} {n:>6} appends in {:>8.1}ms  {per_sec:>9} rec/s",
            elapsed.as_secs_f64() * 1e3
        );
        stats.push((format!("append_per_sec_{label}"), per_sec));
        stats.push((format!("append_count_{label}"), n as u64));
        std::fs::remove_dir_all(&dir).ok();
    }

    // Recovery time vs WAL length (no snapshot: the whole log replays).
    println!("recovery time vs WAL length:");
    for n in [appends / 8, appends / 2, appends * 2] {
        let n = n.max(16);
        let dir = tmp_dir("recover");
        let config = StoreConfig {
            dir: dir.clone(),
            fsync: FsyncPolicy::Never,
            snapshot_every: 0,
        };
        let (mut store, _) = Store::open(&config).map_err(|e| e.to_string())?;
        append_run(&mut store, n, &payload)?;
        drop(store);
        let started = Instant::now();
        let (store, recovery) = Store::open(&config).map_err(|e| e.to_string())?;
        let elapsed = started.elapsed();
        if recovery.wal_records != n as u64 {
            return Err(format!(
                "recovery replayed {} of {n} records",
                recovery.wal_records
            ));
        }
        println!(
            "  {n:>6} records replayed in {:>8.1}ms ({} live schemas)",
            elapsed.as_secs_f64() * 1e3,
            store.live_count()
        );
        stats.push((format!("recover_us_wal_{n}"), elapsed.as_micros() as u64));
        drop(store);

        // The same state recovered through a snapshot instead of replay.
        let (mut store, _) = Store::open(&config).map_err(|e| e.to_string())?;
        store.snapshot_now().map_err(|e| e.to_string())?;
        drop(store);
        let started = Instant::now();
        let (_, recovery) = Store::open(&config).map_err(|e| e.to_string())?;
        let elapsed = started.elapsed();
        if !recovery.from_snapshot || recovery.wal_records != 0 {
            return Err("post-compaction recovery should come from the snapshot".to_owned());
        }
        println!(
            "  {n:>6} records via snapshot in {:>8.1}ms",
            elapsed.as_secs_f64() * 1e3
        );
        stats.push((
            format!("recover_us_snapshot_{n}"),
            elapsed.as_micros() as u64,
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    let appends_str = appends.to_string();
    let payload_str = payload.len().to_string();
    let stat_refs: Vec<(&str, u64)> = stats.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    write_run_report_with_stats(
        "store",
        &[
            ("appends", appends_str.as_str()),
            ("payload_bytes", payload_str.as_str()),
        ],
        &stat_refs,
    );
    Ok(())
}

/// Fast CI probe: append, auto-compact, tear the tail, recover.
fn smoke() -> Result<(), String> {
    let dir = tmp_dir("smoke");
    let config = StoreConfig {
        dir: dir.clone(),
        fsync: FsyncPolicy::Always,
        snapshot_every: 4,
    };
    let payload = fixtures::assembly().to_json();
    {
        let (mut store, recovery) = Store::open(&config).map_err(|e| e.to_string())?;
        if recovery.last_seq != 0 {
            return Err("fresh dir should recover empty".to_owned());
        }
        store
            .append_put(DEFAULT_TENANT, "a", 1, 1, &payload)
            .and_then(|_| store.append_put(DEFAULT_TENANT, "b", 2, 1, &payload))
            .and_then(|_| store.append_put(DEFAULT_TENANT, "a", 1, 2, &payload))
            .and_then(|_| store.append_delete(DEFAULT_TENANT, "b")) // 4th append: auto-snapshot
            .map_err(|e| e.to_string())?;
        store
            .append_put(DEFAULT_TENANT, "c", 3, 1, &payload)
            .map_err(|e| e.to_string())?;
    }
    // Tear the last record: cut 3 bytes off the WAL tail.
    let wal = dir.join(ipe_store::WAL_FILE);
    let len = std::fs::metadata(&wal).map_err(|e| e.to_string())?.len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .map_err(|e| e.to_string())?;
    file.set_len(len - 3).map_err(|e| e.to_string())?;
    drop(file);

    let (store, recovery) = Store::open(&config).map_err(|e| e.to_string())?;
    let live: Vec<&str> = recovery.schemas.iter().map(|s| s.name.as_str()).collect();
    if !recovery.truncated_tail {
        return Err("torn tail was not detected".to_owned());
    }
    if !recovery.from_snapshot {
        return Err("auto-compaction snapshot was not loaded".to_owned());
    }
    if live != ["a"] || recovery.schemas[0].generation != 2 {
        return Err(format!("recovered wrong state: {live:?}"));
    }
    // The torn record (id 3) never happened; the deleted schema's id 2
    // still counts so it can never be reissued.
    if store.max_id() != 2 {
        return Err(format!("max_id {} forgot the deleted id", store.max_id()));
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
    println!("store smoke OK: compaction, torn-tail truncation, durable prefix recovered");
    Ok(())
}

/// One acknowledged PUT: name, registry id, generation.
type Ack = (String, u64, u64);

fn kill9_smoke() -> Result<(), String> {
    let dir = tmp_dir("kill9");
    let dir_flag = dir.to_str().ok_or("temp dir is not UTF-8")?;
    let flags = ["--fsync", "always", "--data-dir", dir_flag];
    let uni = fixtures::university().to_json();

    let (mut child, addr) = spawn_ipe(&flags)?;
    let mut client = Client::new(addr.clone());

    // A schema that is registered, then deleted, and must never come
    // back.
    call(&mut client, "PUT", "/v1/schemas/doomed", &uni, 200)?;
    call(&mut client, "DELETE", "/v1/schemas/doomed", "", 200)?;

    // Stream PUTs (8 names, repeatedly hot-swapped) until the kill.
    let acked: Arc<Mutex<Vec<Ack>>> = Arc::new(Mutex::new(Vec::new()));
    let writer = {
        let acked = Arc::clone(&acked);
        let addr = addr.clone();
        let uni = uni.clone();
        std::thread::spawn(move || {
            let mut client = Client::new(addr);
            for i in 0u64.. {
                let path = format!("/v1/schemas/k{}", i % 8);
                match client.request("PUT", &path, &uni) {
                    Ok((200, body)) => {
                        let Ok(v) = json(&body) else {
                            break;
                        };
                        let (Ok(id), Ok(generation)) =
                            (json_u64(&v, "id"), json_u64(&v, "generation"))
                        else {
                            break;
                        };
                        acked
                            .lock()
                            .unwrap()
                            .push((format!("k{}", i % 8), id, generation));
                    }
                    // The kill lands here: connection refused / reset, or
                    // a 500 while the server is dying.
                    _ => break,
                }
            }
        })
    };

    // Let a healthy amount of traffic get acknowledged, then pull the
    // plug (SIGKILL: no destructors, no flush beyond the per-record
    // fsync).
    let deadline = Instant::now() + Duration::from_secs(60);
    while acked.lock().unwrap().len() < 24 {
        if Instant::now() > deadline {
            let _ = child.kill();
            return Err("writer made no progress".to_owned());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().map_err(|e| e.to_string())?;
    child.wait().map_err(|e| e.to_string())?;
    writer.join().map_err(|_| "writer thread panicked")?;
    let acked = Arc::try_unwrap(acked)
        .map_err(|_| "acked list still shared")?
        .into_inner()
        .unwrap();
    println!(
        "killed server with SIGKILL after {} acknowledged writes",
        acked.len()
    );

    // Restart on the same directory; every acknowledged write must be
    // there, and the deleted schema must stay deleted.
    let (child, addr) = spawn_ipe(&flags)?;
    let mut client = Client::new(addr.clone());
    let check = (|| -> Result<(), String> {
        call(&mut client, "GET", "/v1/schemas/doomed", "", 404)?;
        // Fold the ack stream into the final acknowledged state per name.
        let mut last: Vec<Ack> = Vec::new();
        let mut max_acked_id = 0u64;
        for (name, id, generation) in &acked {
            max_acked_id = max_acked_id.max(*id);
            match last.iter_mut().find(|(n, _, _)| n == name) {
                Some(slot) => *slot = (name.clone(), *id, *generation),
                None => last.push((name.clone(), *id, *generation)),
            }
        }
        for (name, id, generation) in &last {
            let body = call(&mut client, "GET", &format!("/v1/schemas/{name}"), "", 200)?;
            let v = json(&body)?;
            let (got_id, got_gen) = (json_u64(&v, "id")?, json_u64(&v, "generation")?);
            if got_id != *id {
                return Err(format!(
                    "`{name}` id changed: acked {id}, recovered {got_id}"
                ));
            }
            // In-flight writes past the last ack may also be durable,
            // so recovered generation can exceed the acked one — never
            // trail it.
            if got_gen < *generation {
                return Err(format!(
                    "`{name}` lost generations: acked {generation}, recovered {got_gen}"
                ));
            }
        }
        // Post-restart mutations continue both sequences monotonically.
        let path = format!("/v1/schemas/{}", last[0].0);
        let before = json_u64(
            &json(&call(&mut client, "GET", &path, "", 200)?)?,
            "generation",
        )?;
        let after = json_u64(
            &json(&call(&mut client, "PUT", &path, &uni, 200)?)?,
            "generation",
        )?;
        if after != before + 1 {
            return Err("generation sequence did not continue".to_owned());
        }
        let body = call(&mut client, "PUT", "/v1/schemas/fresh", &uni, 200)?;
        if json_u64(&json(&body)?, "id")? <= max_acked_id {
            return Err("fresh schema id collides with a pre-crash id".to_owned());
        }
        println!(
            "recovery OK: {} schemas survived at their acked ids/generations, \
             delete held, sequences continued",
            last.len()
        );
        Ok(())
    })();
    let stopped = ipe_bench::shutdown_ipe(child, &addr);
    std::fs::remove_dir_all(&dir).ok();
    check.and(stopped)
}
