//! The long-lived disambiguation server: per-core epoll reactors, each
//! owning an `SO_REUSEPORT` acceptor shard, and graceful shutdown.
//!
//! Each reactor (see [`crate::reactor`]) multiplexes its shard's
//! connections off readiness events, so thousands of keep-alive
//! connections cost memory, not threads. Connections beyond a reactor's
//! live cap ([`ServiceConfig::queue_depth`]) are answered `503`
//! immediately instead of piling up. Shutdown — via [`Server::shutdown`]
//! or `POST /v1/shutdown` — wakes every reactor through its eventfd; each
//! stops accepting, flushes in-flight responses, and closes idle
//! connections.
//!
//! Lock poisoning is recovered, never propagated: a panicking request
//! handler is caught and answered `500`, and any mutex it poisoned on the
//! way down is re-entered by taking the inner value (safe here because
//! the WAL protocol is append-consistent — a torn logical update is
//! impossible, the lock only orders appends).
//!
//! Layout, one module per concern:
//!
//! * this module — [`Server`]: binding, recovery, reactor spawn, drain;
//! * `state` — [`ServiceConfig`] and the [`ServiceState`] every reactor
//!   and handler shares;
//! * `routes` — the route table (the one place that knows the URL
//!   shapes) and the request lifecycle around it: tenant scoping,
//!   admission, timing, tracing, the access log;
//! * `handlers` — one module per resource (search, schemas, data,
//!   tenants, operations);
//! * `metrics` — the `/metrics` JSON and Prometheus renderings.

mod handlers;
mod metrics;
mod routes;
mod state;

pub use metrics::{metrics_json, metrics_prometheus};
pub(crate) use routes::handle_request_catching;
pub(crate) use state::{lock_recover, spawn_index_build};
pub use state::{ServiceConfig, ServiceState, TENANTS_FILE};

use crate::epoll::Wake;
use crate::reactor::{reactor_loop, ReactorConfig};
use ipe_schema::Schema;
use ipe_store::{Store, StoreConfig};
use ipe_tenant::{scoped_name, TenantConfig, DEFAULT_TENANT};
use state::reactor_count;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running disambiguation server. Dropping the handle does **not** stop
/// the threads; call [`Server::shutdown`] (or hit `POST /v1/shutdown` and
/// [`Server::join`]).
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    reactor_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds one `SO_REUSEPORT` listener shard per reactor on
    /// `config.addr`, recovers the durable store (when `data_dir` is set)
    /// into the registry, and spawns the reactors. Returns once the
    /// sockets are listening and recovery is complete — a server that
    /// starts serving is never partially recovered. Derived state is not
    /// persisted: each recovered schema gets its index from the ordinary
    /// background build, and the completion cache starts cold.
    pub fn start(config: ServiceConfig) -> io::Result<Server> {
        let reactors = reactor_count(config.reactors);
        let requested =
            config.addr.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::other(format!("`{}` resolves to no address", config.addr))
            })?;
        // The first shard resolves port 0; its siblings bind the resolved
        // port. All set SO_REUSEPORT before binding, so the kernel
        // load-balances incoming connections across them by 4-tuple hash.
        let first = crate::epoll::bind_reuseport(requested)?;
        let addr = first.local_addr()?;
        let mut listeners = vec![first];
        for _ in 1..reactors {
            listeners.push(crate::epoll::bind_reuseport(addr)?);
        }
        let (store, recovery) = match &config.data_dir {
            None => (None, None),
            Some(dir) => {
                let store_config = StoreConfig {
                    dir: dir.clone(),
                    fsync: config.fsync,
                    snapshot_every: config.snapshot_every,
                };
                let (store, recovery) =
                    Store::open(&store_config).map_err(|e| io::Error::other(e.to_string()))?;
                (Some(store), Some(recovery))
            }
        };
        let state = Arc::new(ServiceState::new(&config, store));
        // Tenant configs load before schema recovery so each recovered
        // schema's cache partition already has its budget.
        state.load_tenants();
        if let Some(recovery) = recovery {
            for record in &recovery.schemas {
                let schema = Schema::from_json(&record.schema_json).map_err(|e| {
                    io::Error::other(format!(
                        "recovered schema `{}` does not parse: {e}",
                        record.name
                    ))
                })?;
                // Registry keys are tenant-scoped; a record whose tenant
                // no longer exists in tenants.json still recovers (the
                // WAL is authoritative for data, tenants.json only for
                // quotas) under default quotas.
                if record.tenant != DEFAULT_TENANT && state.tenants.get(&record.tenant).is_none() {
                    let _ = state.tenants.put(&record.tenant, TenantConfig::default());
                }
                let key = scoped_name(&record.tenant, &record.name);
                let entry = state
                    .registry
                    .restore(&key, record.id, record.generation, schema);
                spawn_index_build(&state, entry);
            }
            state.registry.reserve_ids(recovery.max_id);
            if let Some(follower) = &state.follower {
                // Resume the stream from what is already durable locally
                // instead of re-transferring from seq 0 on every boot —
                // the kill-and-catch-up path.
                follower.restore_applied(recovery.last_seq);
            }
            if recovery.truncated_tail {
                eprintln!(
                    "ipe-service: WAL tail was torn; recovered through seq {}",
                    recovery.last_seq
                );
            }
        }
        state
            .bound_addr
            .set(addr)
            .expect("bound_addr set exactly once");

        // A failed reactor spawn (thread exhaustion, ulimit) degrades the
        // fleet instead of killing the server: the failed shard's
        // listener drops here, leaving the SO_REUSEPORT group, so the
        // kernel stops hashing connections to an unowned queue. Zero
        // reactors is fatal — nothing would ever serve.
        let mut reactor_handles = Vec::with_capacity(reactors);
        let mut last_spawn_err: Option<io::Error> = None;
        for (i, listener) in listeners.into_iter().enumerate() {
            let wake = Arc::new(Wake::new()?);
            let st = Arc::clone(&state);
            let reactor_cfg = ReactorConfig {
                request_timeout: config.request_timeout,
                max_conns: config.queue_depth.max(1),
            };
            let thread_wake = Arc::clone(&wake);
            // Registered before the spawn so a shutdown racing startup
            // can never miss a live reactor's wake.
            lock_recover(&state.wakers, "wakers").push(wake);
            match std::thread::Builder::new()
                .name(format!("ipe-reactor-{i}"))
                .spawn(move || reactor_loop(listener, thread_wake, st, reactor_cfg))
            {
                Ok(handle) => reactor_handles.push(handle),
                Err(e) => {
                    lock_recover(&state.wakers, "wakers").pop();
                    ipe_obs::counter!("service.worker.spawn_failed", 1);
                    eprintln!("ipe-service: failed to spawn reactor {i}: {e}");
                    last_spawn_err = Some(e);
                }
            }
        }
        if reactor_handles.is_empty() {
            return Err(last_spawn_err
                .unwrap_or_else(|| io::Error::other("no reactor threads could be spawned")));
        }
        state
            .workers
            .store(reactor_handles.len() as u64, Ordering::Relaxed);
        if state.follower.is_some() {
            let st = Arc::clone(&state);
            match std::thread::Builder::new()
                .name("ipe-repl-follower".to_owned())
                .spawn(move || crate::repl::follower_loop(st))
            {
                Ok(handle) => lock_recover(&state.repl_threads, "repl threads").push(handle),
                Err(e) => {
                    // A follower that cannot apply must not serve: readers
                    // would see a frozen replica that still claims ready
                    // once caught up.
                    return Err(io::Error::other(format!(
                        "failed to spawn the follower apply thread: {e}"
                    )));
                }
            }
        }
        Ok(Server {
            addr,
            state,
            reactor_handles,
        })
    }

    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared registry/cache/gauge state.
    pub fn state(&self) -> &Arc<ServiceState> {
        &self.state
    }

    /// Registers a schema exactly as `PUT /v1/schemas/:name` would:
    /// durable write-through (when configured) plus a background index
    /// build. Embedders seeding schemas directly should use this rather
    /// than [`ServiceState::register_schema`], which skips indexing.
    pub fn register_schema(
        &self,
        name: &str,
        schema: ipe_schema::Schema,
        json: &str,
    ) -> std::io::Result<Arc<crate::SchemaEntry>> {
        let entry = self.state.register_schema(name, schema, json)?;
        spawn_index_build(&self.state, Arc::clone(&entry));
        Ok(entry)
    }

    /// Blocks until the server has shut down (via [`Server::shutdown`]
    /// from another thread or `POST /v1/shutdown`) and every reactor has
    /// drained.
    pub fn join(mut self) {
        self.join_inner();
    }

    /// Requests shutdown and waits for all threads to finish.
    pub fn shutdown(mut self) {
        self.state.request_shutdown();
        self.join_inner();
    }

    fn join_inner(&mut self) {
        for h in self.reactor_handles.drain(..) {
            let _ = h.join();
        }
        // Replication threads observe the shutdown flag (and the closed
        // hub) within a heartbeat interval; joining them before the final
        // snapshot keeps stream reads and follower applies off it.
        let repl: Vec<JoinHandle<()>> =
            std::mem::take(&mut *lock_recover(&self.state.repl_threads, "repl threads"));
        for h in repl {
            let _ = h.join();
        }
        // Let in-flight index builds finish so no build thread outlives
        // the server.
        let builders: Vec<JoinHandle<()>> = std::mem::take(&mut *lock_recover(
            &self.state.index_builders,
            "index builders",
        ));
        for h in builders {
            let _ = h.join();
        }
        // Clean shutdown: compact once so the next boot replays a
        // snapshot instead of the whole WAL.
        if let Some(store) = &self.state.store {
            if let Err(e) = lock_recover(store, "store").snapshot_now() {
                eprintln!("ipe-service: shutdown snapshot failed: {e}");
            }
        }
    }
}
