//! Server configuration and the state every reactor and handler shares:
//! the registries, the durable store, the replication endpoints, the
//! live gauges, and the background index builds.

use crate::cache::CachePartitions;
use crate::data::DataRegistry;
use crate::epoll::Wake;
use crate::registry::SchemaRegistry;
use crate::repl::FollowerStatus;
use ipe_index::{IndexMode, IndexedSchema};
use ipe_obs::{FlightConfig, FlightRecorder};
use ipe_repl::ReplHub;
use ipe_schema::Schema;
use ipe_store::{FsyncPolicy, Store, WalOp, WalRecord};
use ipe_tenant::{scoped_name, TenantConfig, TenantRegistry, DEFAULT_TENANT};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Locks a mutex, recovering from poisoning by taking the inner value.
///
/// Safe for every mutex in this crate: they guard append-ordered or
/// idempotent state (the WAL store serializes appends, the builder list
/// holds join handles), so a panic mid-critical-section cannot leave a
/// torn logical update behind.
/// Before this existed, one panicking worker poisoned the store mutex and
/// every later durable request died on `.expect("store poisoned")`.
pub(crate) fn lock_recover<'a, T>(mutex: &'a Mutex<T>, what: &str) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(|poisoned| {
        ipe_obs::counter!("service.lock.poison_recovered", 1);
        eprintln!("ipe-service: recovered poisoned {what} lock");
        poisoned.into_inner()
    })
}

/// Tuning knobs of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::addr`]).
    pub addr: String,
    /// Reactor threads, each owning an `SO_REUSEPORT` acceptor shard and
    /// an epoll loop multiplexing that shard's connections. `0` means one
    /// per available core.
    pub reactors: usize,
    /// Live connections one reactor will hold; beyond it new connections
    /// on that shard get an immediate `503` (the backpressure valve).
    pub queue_depth: usize,
    /// Budget for one request (first byte to framed request — a deadline,
    /// not a per-read timeout, so drip-fed requests are bounded too);
    /// also the idle keep-alive reap interval and the shutdown drain
    /// deadline. Expiry mid-request answers `408`.
    pub request_timeout: Duration,
    /// Completion cache size in entries.
    pub cache_capacity: usize,
    /// Completion cache shard count (rounded up to a power of two).
    pub cache_shards: usize,
    /// Byte budget of each tenant's completion-cache partition when the
    /// tenant does not set its own `cache_bytes` (0 = no byte budget;
    /// the entry capacity still bounds the partition).
    pub cache_bytes: u64,
    /// Default worker threads for `POST /v1/complete/batch` (a request's
    /// `threads` field overrides per batch).
    pub batch_threads: usize,
    /// Data directory for the durable schema store. `None` (the default)
    /// keeps the registry purely in memory, as before PR 4.
    pub data_dir: Option<PathBuf>,
    /// WAL flush policy when `data_dir` is set.
    pub fsync: FsyncPolicy,
    /// WAL appends between snapshot compactions (0 = snapshot only on
    /// clean shutdown).
    pub snapshot_every: u64,
    /// Search-index policy. `On` builds every schema's index (all goal
    /// tables eagerly) in the background after a PUT and at recovery;
    /// `Lazy` builds the closure matrices in the background but grows
    /// goal tables on first use; `Off` disables indexing entirely.
    /// Completions issued while a build is still running are served
    /// unindexed — a PUT never waits for indexing.
    pub index_mode: IndexMode,
    /// Artificial delay inserted before each background index build.
    /// Testing knob: widens the build window so the build-in-progress
    /// fallback path can be exercised deterministically. Zero in
    /// production.
    pub index_build_delay_ms: u64,
    /// Head sampling for request tracing: record a span tree for 1 in N
    /// requests (1 = every request, 0 = tracing off). An unsampled
    /// request pays one atomic check and nothing else.
    pub trace_sample_n: u64,
    /// Flight-recorder recent ring: how many completed request traces to
    /// retain.
    pub flight_capacity: usize,
    /// Flight recorder: size of the always-keep slowest-requests
    /// reservoir.
    pub flight_keep_slowest: usize,
    /// Flight recorder: size of the always-keep errored-requests ring.
    pub flight_keep_errors: usize,
    /// Requests whose handler wall time reaches this many milliseconds
    /// are flagged slow and force-retained in the flight recorder
    /// (0 disables the threshold).
    pub slow_ms: u64,
    /// Emit one structured JSON access-log line per request to stderr.
    pub access_log: bool,
    /// Cap on a `PUT /v1/data/:schema` load: explicit spec entries, or
    /// projected objects of a `gen` request. Beyond it the load is a
    /// `413`.
    pub max_data_entries: usize,
    /// Default wall-clock budget for `POST /v1/query`, in milliseconds
    /// (a request's `deadline_ms` overrides, capped at 60 000).
    pub query_deadline_ms: u64,
    /// Testing knob: expose `POST /v1/debug/panic`, which panics while
    /// holding the store and builder locks — the worst case for lock
    /// poisoning. Exists so the poison-recovery path is provable end to
    /// end; always `false` in production.
    pub debug_panic_route: bool,
    /// Run as a read-only follower of the leader at this `host:port`:
    /// tail its replication stream, apply schema mutations locally, and
    /// answer schema writes `421` with the leader's address. `None` (the
    /// default) runs as a standalone server / replication leader.
    pub follow: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:7474".to_owned(),
            reactors: 0,
            queue_depth: 256,
            request_timeout: Duration::from_secs(10),
            cache_capacity: 4096,
            cache_shards: 16,
            cache_bytes: 0,
            batch_threads: 4,
            data_dir: None,
            fsync: FsyncPolicy::Always,
            snapshot_every: 256,
            index_mode: IndexMode::On,
            index_build_delay_ms: 0,
            trace_sample_n: 1,
            flight_capacity: 256,
            flight_keep_slowest: 16,
            flight_keep_errors: 32,
            slow_ms: 500,
            access_log: false,
            max_data_entries: 500_000,
            query_deadline_ms: 2_000,
            debug_panic_route: false,
            follow: None,
        }
    }
}

/// Resolves [`ServiceConfig::reactors`]: `0` means one per core.
pub(super) fn reactor_count(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Tenant-config file name inside the data directory.
pub const TENANTS_FILE: &str = "tenants.json";

/// Upper bound on a requested batch thread count.
pub(super) const MAX_BATCH_THREADS: u64 = 16;

/// Shared state of a running server: registry, cache, and gauges.
pub struct ServiceState {
    /// The schema registry. Keys are tenant-scoped: the `default`
    /// tenant owns bare names, every other tenant's schemas live under
    /// `"{tenant}/{name}"` (see [`ipe_tenant::scoped_name`]).
    pub registry: SchemaRegistry,
    /// Per-tenant completion-cache partitions; the `default` tenant's
    /// partition serves the legacy un-prefixed routes. Partition byte
    /// budgets come from each tenant's `cache_bytes`.
    pub caches: CachePartitions,
    /// Tenant namespaces: admission quotas, cache budgets, and the
    /// per-tenant request defaults (`PUT /v1/tenants/:tenant`).
    pub tenants: TenantRegistry,
    /// Loaded data instances, per schema name (`PUT /v1/data/:schema`).
    pub data: DataRegistry,
    /// The durable store (`Some` when the server runs with a data
    /// directory). The mutex also serializes registry mutations with
    /// their WAL appends, so the log order always matches the registry's
    /// generation order.
    pub(crate) store: Option<Mutex<Store>>,
    /// Leader-side replication fan-out (`Some` iff durable and not a
    /// follower). Appends publish to it while still holding the store
    /// mutex, so subscribers see records in exact WAL order.
    pub(crate) repl_hub: Option<Arc<ReplHub>>,
    /// Follower progress (`Some` iff [`ServiceConfig::follow`] was set).
    pub(crate) follower: Option<Arc<FollowerStatus>>,
    /// Replication streams currently being served to followers.
    pub(crate) repl_streams_active: AtomicU64,
    /// Live replication threads (the follower apply loop, leader stream
    /// writers), joined on shutdown.
    pub(crate) repl_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Reactor threads actually running (the `workers` metrics gauge
    /// keeps its wire name across the rearchitecture).
    pub(super) workers: AtomicU64,
    pub(super) batch_threads: usize,
    /// Live connections across all reactors (the `queue_depth` metrics
    /// gauge keeps its wire name).
    pub(super) live_conns: AtomicU64,
    pub(super) requests_total: AtomicU64,
    pub(super) rejected_total: AtomicU64,
    pub(super) shutdown: AtomicBool,
    /// One eventfd per reactor; `request_shutdown` fires them all so a
    /// reactor blocked in `epoll_wait` observes the flag immediately.
    pub(super) wakers: Mutex<Vec<Arc<Wake>>>,
    pub(super) bound_addr: OnceLock<SocketAddr>,
    /// Index policy (see [`ServiceConfig::index_mode`]).
    pub(super) index_mode: IndexMode,
    index_build_delay_ms: u64,
    /// Data directory (holds `tenants.json`); `Some` iff the server is
    /// durable.
    data_dir: Option<PathBuf>,
    pub(super) index_builds_completed: AtomicU64,
    pub(super) index_builds_in_flight: AtomicU64,
    pub(super) completes_indexed: AtomicU64,
    pub(super) completes_unindexed: AtomicU64,
    /// Live background index-build threads, joined on shutdown.
    pub(super) index_builders: Mutex<Vec<JoinHandle<()>>>,
    /// The flight recorder of completed request traces (see
    /// `GET /v1/debug/requests`).
    pub flight: FlightRecorder,
    pub(super) slow_ms: u64,
    pub(super) access_log: bool,
    pub(super) max_data_entries: usize,
    pub(super) query_deadline_ms: u64,
    pub(super) debug_panic_route: bool,
}
impl ServiceState {
    pub(super) fn new(config: &ServiceConfig, store: Option<Store>) -> ServiceState {
        // Only a durable non-follower can lead: the stream protocol
        // resumes from the on-disk WAL, and a follower republishing the
        // leader's records would invert the topology.
        let repl_hub = match (&store, &config.follow) {
            (Some(store), None) => Some(Arc::new(ReplHub::new(store.last_seq()))),
            _ => None,
        };
        ServiceState {
            registry: SchemaRegistry::new(),
            caches: CachePartitions::new(
                config.cache_capacity,
                config.cache_shards,
                config.cache_bytes,
            ),
            tenants: TenantRegistry::new(TenantConfig::default()),
            data: DataRegistry::new(),
            store: store.map(Mutex::new),
            repl_hub,
            follower: config
                .follow
                .clone()
                .map(|leader| Arc::new(FollowerStatus::new(leader))),
            repl_streams_active: AtomicU64::new(0),
            repl_threads: Mutex::new(Vec::new()),
            workers: AtomicU64::new(reactor_count(config.reactors) as u64),
            batch_threads: config.batch_threads.clamp(1, MAX_BATCH_THREADS as usize),
            live_conns: AtomicU64::new(0),
            requests_total: AtomicU64::new(0),
            rejected_total: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            wakers: Mutex::new(Vec::new()),
            bound_addr: OnceLock::new(),
            index_mode: config.index_mode,
            index_build_delay_ms: config.index_build_delay_ms,
            data_dir: config.data_dir.clone(),
            index_builds_completed: AtomicU64::new(0),
            index_builds_in_flight: AtomicU64::new(0),
            completes_indexed: AtomicU64::new(0),
            completes_unindexed: AtomicU64::new(0),
            index_builders: Mutex::new(Vec::new()),
            flight: FlightRecorder::new(FlightConfig {
                capacity: config.flight_capacity,
                shards: 8,
                keep_slowest: config.flight_keep_slowest,
                keep_errors: config.flight_keep_errors,
                sample_n: config.trace_sample_n,
            }),
            slow_ms: config.slow_ms,
            access_log: config.access_log,
            max_data_entries: config.max_data_entries,
            query_deadline_ms: config.query_deadline_ms,
            debug_panic_route: config.debug_panic_route,
        }
    }

    /// One connection accepted by a reactor (the `queue_depth` gauge).
    pub(crate) fn conn_opened(&self) {
        self.live_conns.fetch_add(1, Ordering::Relaxed);
    }

    /// One connection closed by a reactor.
    pub(crate) fn conn_closed(&self) {
        self.live_conns.fetch_sub(1, Ordering::Relaxed);
    }

    /// One connection answered `503` at the reactor's live cap.
    pub(crate) fn count_rejected(&self) {
        self.rejected_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether this server persists its registry.
    pub fn durable(&self) -> bool {
        self.store.is_some()
    }

    /// Inserts (or hot-swaps) a schema under the `default` tenant. See
    /// [`ServiceState::register_schema_for`].
    pub fn register_schema(
        &self,
        name: &str,
        schema: Schema,
        json: &str,
    ) -> std::io::Result<Arc<crate::SchemaEntry>> {
        self.register_schema_for(DEFAULT_TENANT, name, schema, json)
    }

    /// Inserts (or hot-swaps) a tenant's schema and writes the mutation
    /// through to the WAL when the server is durable; a no-op append when
    /// it is not. `name` is the tenant-local (bare) name — the registry
    /// key is tenant-scoped, the WAL record carries the tenant id. `json`
    /// is the schema's serialized form as recorded in the log. The store
    /// lock is taken *before* the registry write so concurrent mutations
    /// hit the WAL in generation order. On a persistence failure the
    /// registry keeps the new generation (it is live in memory) but the
    /// error is returned so callers can refuse to acknowledge the write
    /// as durable.
    pub fn register_schema_for(
        &self,
        tenant: &str,
        name: &str,
        schema: Schema,
        json: &str,
    ) -> std::io::Result<Arc<crate::SchemaEntry>> {
        let key = scoped_name(tenant, name);
        let store_guard = self.store.as_ref().map(|m| lock_recover(m, "store"));
        let entry = self.registry.insert(&key, schema);
        if let Some(mut store) = store_guard {
            match store.append_put(tenant, name, entry.id, entry.generation, json) {
                Ok(seq) => {
                    // Published while still holding the store mutex, so
                    // followers observe records in exact WAL order and a
                    // concurrent stream handshake (which subscribes under
                    // this same mutex) can neither miss nor duplicate it.
                    if let Some(hub) = &self.repl_hub {
                        hub.publish(&WalRecord {
                            seq,
                            op: WalOp::Put {
                                tenant: tenant.to_owned(),
                                name: name.to_owned(),
                                id: entry.id,
                                generation: entry.generation,
                                schema_json: json.to_owned(),
                            },
                        });
                    }
                }
                Err(e) => {
                    ipe_obs::counter!("store.wal.append_failed", 1);
                    return Err(std::io::Error::other(e));
                }
            }
        }
        Ok(entry)
    }

    /// Path of the tenant-config file inside the data directory.
    fn tenants_path(&self) -> Option<PathBuf> {
        self.data_dir.as_ref().map(|dir| dir.join(TENANTS_FILE))
    }

    /// Persists every tenant's config as `tenants.json` (temp file +
    /// rename) so namespaces and quotas survive restarts. Best-effort on
    /// a durable server, a no-op otherwise: quota state is config, not
    /// data — losing it degrades to default quotas, never to data loss.
    pub(crate) fn persist_tenants(&self) {
        let Some(path) = self.tenants_path() else {
            return;
        };
        let map: BTreeMap<String, TenantConfig> = self
            .tenants
            .list()
            .iter()
            .map(|t| (t.name().to_owned(), t.config()))
            .collect();
        let json = match serde_json::to_string(&map) {
            Ok(json) => json,
            Err(_) => return,
        };
        let tmp = path.with_extension("json.tmp");
        let written =
            std::fs::write(&tmp, json.as_bytes()).and_then(|()| std::fs::rename(&tmp, &path));
        if written.is_err() {
            ipe_obs::counter!("service.tenant.persist_failed", 1);
        }
    }

    /// Loads `tenants.json` (if present) into the tenant registry and
    /// sizes each tenant's cache partition. Unknown or corrupt files are
    /// skipped: tenants degrade to defaults rather than blocking boot.
    pub(super) fn load_tenants(&self) {
        let Some(path) = self.tenants_path() else {
            return;
        };
        let Ok(bytes) = std::fs::read_to_string(&path) else {
            return;
        };
        let Ok(map) = serde_json::from_str::<BTreeMap<String, TenantConfig>>(&bytes) else {
            ipe_obs::counter!("service.tenant.load_failed", 1);
            eprintln!("ipe-service: ignoring corrupt {TENANTS_FILE}");
            return;
        };
        for (name, config) in map {
            let budget = config.cache_bytes;
            if self.tenants.put(&name, config).is_ok() {
                self.caches.ensure(&name, budget);
            }
        }
    }

    /// Accounts one engine-backed completion (a cache miss) as indexed or
    /// not, for `/metrics`.
    pub(super) fn count_complete(&self, indexed: bool) {
        if indexed {
            self.completes_indexed.fetch_add(1, Ordering::Relaxed);
            ipe_obs::counter!("service.complete.indexed", 1);
        } else {
            self.completes_unindexed.fetch_add(1, Ordering::Relaxed);
            ipe_obs::counter!("service.complete.unindexed", 1);
        }
    }

    /// Whether shutdown has been requested.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown and wakes every reactor so ones blocked in
    /// `epoll_wait` observe the flag and start draining.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Closing the hub ends every leader stream thread at its next
        // queue pop, so the drain can join them.
        if let Some(hub) = &self.repl_hub {
            hub.close();
        }
        for wake in lock_recover(&self.wakers, "wakers").iter() {
            wake.wake();
        }
    }
}

/// Spawns a background thread that builds `entry`'s search index and
/// installs it on the entry. Requests arriving while the build runs are
/// served unindexed. A no-op with [`IndexMode::Off`].
pub(crate) fn spawn_index_build(state: &Arc<ServiceState>, entry: Arc<crate::SchemaEntry>) {
    if state.index_mode == IndexMode::Off {
        return;
    }
    state.index_builds_in_flight.fetch_add(1, Ordering::SeqCst);
    let st = Arc::clone(state);
    let spawn = std::thread::Builder::new()
        .name(format!("ipe-index-{}", entry.id))
        .spawn(move || {
            if st.index_build_delay_ms > 0 {
                std::thread::sleep(Duration::from_millis(st.index_build_delay_ms));
            }
            let index = {
                let _t = ipe_obs::timer!("service.index.build");
                Arc::new(IndexedSchema::build(&entry.schema, st.index_mode))
            };
            if entry.set_index(index) {
                st.index_builds_completed.fetch_add(1, Ordering::SeqCst);
                ipe_obs::counter!("service.index.builds", 1);
            }
            st.index_builds_in_flight.fetch_sub(1, Ordering::SeqCst);
        });
    match spawn {
        Ok(handle) => lock_recover(&state.index_builders, "index builders").push(handle),
        Err(e) => {
            // Degrade to unindexed serving rather than failing the PUT.
            state.index_builds_in_flight.fetch_sub(1, Ordering::SeqCst);
            ipe_obs::counter!("service.index.spawn_failed", 1);
            eprintln!("ipe-service: failed to spawn index build: {e}");
        }
    }
}
