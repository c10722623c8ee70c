//! The layer replay: a workload's seeded request sequence run in-process,
//! one request at a time, through each layer's public functions in the
//! order the server calls them, with a span around every call.
//!
//! Spans (name, start, end, parent, request id) are kept in memory and
//! written out when the replay ends. A layer's self time is its span's
//! duration minus the time its child spans cover. Nothing inside the
//! program is instrumented: the spans sit in this file, around the calls.

use crate::workload::{ReadKey, Workload, SCHEMA_NAME};
use ipe_core::{Completer, SearchLimits, SearchOutcome};
use ipe_index::IndexedSchema;
use ipe_oodb::Database;
use ipe_parser::parse_path_expression;
use ipe_query::evaluate_completions;
use ipe_schema::Schema;
use ipe_service::api::SchemaPutResponse;
use ipe_service::http::{parse_request, render_response, ParseOutcome};
use ipe_service::{
    config_fingerprint, entry_weight, CacheKey, CachePartitions, CompleteRequest, CompleteResponse,
    CompletionView, DataPutRequest, QueryRequest, SchemaRegistry,
};
use ipe_store::{FsyncPolicy, Store, StoreConfig, WAL_FILE};
use ipe_tenant::{scoped_name, Tenant, TenantConfig, TenantRegistry};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer boundary name (`http.parse`, `core.search`, ...).
    pub name: &'static str,
    /// Start, ns since the replay began.
    pub start: u64,
    /// End, ns since the replay began.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Request the span belongs to (0 is set-up).
    pub req: u32,
}

/// An in-memory span recorder. Disabled, every call is a plain call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// Every span recorded, in start order.
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    req: u32,
}

impl Tracer {
    /// A recorder that records (`on`) or only forwards calls.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            req: self.req,
        });
        self.stack.push(idx);
        let r = f();
        self.stack.pop();
        self.spans[idx as usize].end = self.now();
        r
    }

    /// Opens the root span of request `req`.
    fn begin(&mut self, req: u32, name: &'static str) {
        self.req = req;
        if self.on {
            let idx = self.spans.len() as u32;
            let start = self.now();
            self.spans.push(Span {
                name,
                start,
                end: start,
                parent: None,
                req,
            });
            self.stack.push(idx);
        }
    }

    /// Closes the span [`begin`](Tracer::begin) opened.
    fn end(&mut self) {
        if let Some(idx) = self.stack.pop() {
            self.spans[idx as usize].end = self.now();
        }
    }

    /// Self time and call count per span name, over requests with id at
    /// least `from_req`.
    pub fn self_times(&self, from_req: u32) -> BTreeMap<&'static str, (u64, u64)> {
        let child_ns = self.child_ns();
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.req < from_req {
                continue;
            }
            let e = out.entry(s.name).or_default();
            e.0 += (s.end - s.start).saturating_sub(child_ns[i]);
            e.1 += 1;
        }
        out
    }

    /// The time child spans cover inside root spans named `root`, and the
    /// number of such roots, over requests with id at least `from_req`.
    pub fn covered(&self, root: &str, from_req: u32) -> (u64, u64) {
        let child_ns = self.child_ns();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none() && s.name == root && s.req >= from_req)
            .fold((0, 0), |(ns, n), (i, _)| (ns + child_ns[i], n + 1))
    }

    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end - s.start;
            }
        }
        child_ns
    }

    /// Writes the spans as tab-separated `req name start_ns end_ns
    /// parent` lines (`-` for no parent).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "req\tname\tstart_ns\tend_ns\tparent")?;
        for s in &self.spans {
            match s.parent {
                Some(p) => writeln!(out, "{}\t{}\t{}\t{}\t{p}", s.req, s.name, s.start, s.end)?,
                None => writeln!(out, "{}\t{}\t{}\t{}\t-", s.req, s.name, s.start, s.end)?,
            }
        }
        out.flush()
    }
}

/// Counts gathered at the layer boundaries while replaying.
#[derive(Default, Debug)]
pub struct Counts {
    /// Reads replayed after set-up.
    pub requests: u64,
    /// Wire bytes of those requests.
    pub bytes_in: u64,
    /// Wire bytes of their responses.
    pub bytes_out: u64,
    /// JSON body bytes decoded plus encoded.
    pub codec_bytes: u64,
    /// Searches run, with their node explorations and completions.
    pub searches: u64,
    /// Search node explorations.
    pub calls: u64,
    /// Completions the searches returned.
    pub completions: u64,
    /// Expansions the index pruned.
    pub index_pruned: u64,
    /// Expansions pruned for any reason.
    pub pruned: u64,
    /// Objects the evaluations visited.
    pub visited: u64,
    /// Answers the evaluations produced.
    pub answers: u64,
    /// Schema JSON bytes handed to the store.
    pub user_bytes: u64,
    /// WAL bytes those appends wrote.
    pub wal_bytes: u64,
    /// Requests refused by tenant admission.
    pub refused: u64,
}

/// The server-side state the replay threads requests through.
struct State {
    registry: SchemaRegistry,
    caches: CachePartitions,
    tenant: Arc<Tenant>,
    db: Option<Arc<Database>>,
    store: Option<Store>,
}

/// A replay of one workload.
pub struct Replay<'a> {
    workload: Workload,
    pool: &'a [ReadKey],
    state: State,
    /// The span recorder.
    pub tracer: Tracer,
    /// Counts at the layer boundaries.
    pub counts: Counts,
}

impl<'a> Replay<'a> {
    /// Fresh server state, mirroring `ipe serve`'s defaults: a 4096-entry,
    /// 16-shard cache, the `default` tenant with open quotas, and (for a
    /// durable workload) a store in `store_dir` with `--fsync always`.
    pub fn new(
        workload: Workload,
        pool: &'a [ReadKey],
        trace: bool,
        store_dir: &Path,
    ) -> Result<Replay<'a>, String> {
        let store = if workload.durable() {
            let mut cfg = StoreConfig::new(store_dir);
            cfg.fsync = FsyncPolicy::Always;
            Some(
                Store::open(&cfg)
                    .map_err(|e| format!("replay store: {e}"))?
                    .0,
            )
        } else {
            None
        };
        let tenants = TenantRegistry::new(TenantConfig::default());
        let tenant = tenants.get("default").ok_or("no default tenant")?;
        let registry = SchemaRegistry::new();
        let university = ipe_schema::fixtures::university();
        let entry = registry.insert(&scoped_name("default", "default"), university);
        entry.set_index(Arc::new(IndexedSchema::build(
            &entry.schema,
            ipe_index::IndexMode::On,
        )));
        Ok(Replay {
            workload,
            pool,
            state: State {
                registry,
                caches: CachePartitions::new(4096, 16, 0),
                tenant,
                db: None,
                store,
            },
            tracer: Tracer::new(trace),
            counts: Counts::default(),
        })
    }

    /// Replays the set-up's schema `PUT` of `json` under [`SCHEMA_NAME`].
    pub fn put_schema(&mut self, json: &str) -> Result<(), String> {
        let wire = crate::workload::wire("PUT", &format!("/v1/schemas/{SCHEMA_NAME}"), json);
        let tr = &mut self.tracer;
        let st = &mut self.state;
        tr.begin(0, "write");
        let request = tr.span("http.parse", || parse(&wire))?;
        let body = request.text().map_err(str::to_owned)?;
        let schema = tr
            .span("codec.decode", || Schema::from_json(body))
            .map_err(|e| e.to_string())?;
        let name = scoped_name(st.tenant.name(), SCHEMA_NAME);
        // Registry first, then the WAL, as `register_schema_for` orders them.
        let entry = tr.span("registry.insert", || st.registry.insert(&name, schema));
        if let Some(store) = st.store.as_mut() {
            let wal = store.dir().join(WAL_FILE);
            let before = file_len(&wal);
            tr.span("store.append", || {
                store.append_put(
                    st.tenant.name(),
                    SCHEMA_NAME,
                    entry.id,
                    entry.generation,
                    body,
                )
            })
            .map_err(|e| e.to_string())?;
            self.counts.user_bytes += body.len() as u64;
            self.counts.wal_bytes += file_len(&wal).saturating_sub(before);
        }
        let index = tr.span("index.build", || {
            IndexedSchema::build(&entry.schema, ipe_index::IndexMode::On)
        });
        entry.set_index(Arc::new(index));
        let json = tr
            .span("codec.encode", || {
                serde_json::to_string(&SchemaPutResponse {
                    name: SCHEMA_NAME.to_owned(),
                    id: entry.id,
                    generation: entry.generation,
                    purged_cache_entries: 0,
                })
            })
            .map_err(|e| e.to_string())?;
        tr.span("http.render", || {
            render_response(200, "application/json", &json, true, &[])
        });
        tr.end();
        Ok(())
    }

    /// Replays the data load of `query_eval`.
    pub fn put_data(&mut self, body: &str) -> Result<(), String> {
        let tr = &mut self.tracer;
        let st = &mut self.state;
        tr.begin(0, "load");
        let parsed: DataPutRequest = tr
            .span("codec.decode", || serde_json::from_str(body))
            .map_err(|e| e.to_string())?;
        let gen = parsed.gen.ok_or("data body without `gen`")?;
        let entry = st
            .registry
            .get(&scoped_name(st.tenant.name(), SCHEMA_NAME))
            .ok_or("data before schema")?;
        let db = tr.span("data.generate", || {
            ipe_gen::generate_database(&entry.schema, &gen)
        });
        st.db = Some(Arc::new(db));
        tr.end();
        Ok(())
    }

    /// Replays one read of pool key `key` as request `req` (0 for set-up
    /// traffic, which the per-request figures leave out). Returns the
    /// number of answers it delivered.
    pub fn read(&mut self, req: u32, key: u32) -> Result<u64, String> {
        let k = &self.pool[key as usize];
        let wire = crate::workload::wire("POST", self.workload.read_path(), &k.body);
        let tr = &mut self.tracer;
        let st = &mut self.state;
        let c = &mut self.counts;
        tr.begin(req, "read");
        let request = tr.span("http.parse", || parse(&wire))?;
        let body = request.text().map_err(str::to_owned)?;
        let query_route = self.workload == Workload::QueryEval;
        let (query, config_src) = if query_route {
            let q: QueryRequest = tr
                .span("codec.decode", || serde_json::from_str(body))
                .map_err(|e| e.to_string())?;
            (q.query.clone(), ConfigSrc::Query(q))
        } else {
            let q: CompleteRequest = tr
                .span("codec.decode", || serde_json::from_str(body))
                .map_err(|e| e.to_string())?;
            (q.query.clone(), ConfigSrc::Complete(q))
        };
        let admitted = tr.span("tenant.admit", || {
            matches!(st.tenant.admit_request(), ipe_tenant::Admission::Admitted)
        });
        if !admitted {
            c.refused += 1;
        }
        let name = scoped_name(st.tenant.name(), config_src.schema_name());
        let entry = tr
            .span("registry.lookup", || st.registry.get(&name))
            .ok_or_else(|| format!("no schema `{name}`"))?;
        let ast = tr
            .span("parser.parse", || parse_path_expression(&query))
            .map_err(|e| e.to_string())?;
        let cfg = config_src.config(&entry.schema)?;
        let normalized = ast.to_string();
        let cache_key = CacheKey {
            schema_id: entry.id,
            generation: entry.generation,
            query: normalized.clone(),
            fingerprint: config_fingerprint(&cfg),
        };
        let cache = st.caches.partition(st.tenant.name());
        let outcome: Arc<SearchOutcome> = match tr.span("cache.probe", || cache.get(&cache_key)) {
            Some(hit) => hit,
            None => {
                let outcome = tr
                    .span("core.search", || {
                        let mut engine = Completer::with_config(&entry.schema, cfg);
                        if let Some(ix) = entry.index() {
                            engine.attach_index(ix);
                        }
                        engine.complete_bounded(&ast, &SearchLimits::default())
                    })
                    .map_err(|e| format!("{query}: {e}"))?;
                let s = &outcome.stats;
                c.searches += 1;
                c.calls += s.calls;
                c.completions += outcome.completions.len() as u64;
                c.index_pruned += s.pruned_index_unreachable + s.pruned_index_bound;
                c.pruned += s.pruned_visited
                    + s.pruned_best_t
                    + s.pruned_best_u
                    + s.depth_limited
                    + s.pruned_index_unreachable
                    + s.pruned_index_bound;
                let weight = entry_weight(&cache_key, &outcome);
                let outcome = Arc::new(outcome);
                tr.span("cache.insert", || {
                    cache.insert_weighted(cache_key, Arc::clone(&outcome), weight)
                });
                outcome
            }
        };
        let schema = &entry.schema;
        let views = || -> Vec<CompletionView> {
            outcome
                .completions
                .iter()
                .map(|c| CompletionView {
                    text: c.display(schema).to_string(),
                    connector: c.label.connector.to_string(),
                    semlen: c.label.semlen as u64,
                    edges: c.edges.len() as u64,
                })
                .collect()
        };
        let (json, answers) = if query_route {
            let db = st.db.as_ref().ok_or("query before data")?;
            let merged = tr
                .span("query.eval", || {
                    evaluate_completions(db, &outcome.completions, &Default::default())
                })
                .map_err(|e| e.to_string())?;
            c.visited += merged.visited;
            c.answers += merged.answers.len() as u64;
            let answers = merged.answers.len() as u64;
            let json = tr
                .span("codec.encode", || {
                    serde_json::to_string(&ipe_service::QueryResponse {
                        schema: k.schema.clone(),
                        generation: entry.generation,
                        data_generation: 1,
                        query: normalized,
                        e: k.e,
                        cached: false,
                        duration_ns: 0,
                        completions: views(),
                        answers: merged.answers.iter().map(answer_view).collect(),
                        certain: merged.certain as u64,
                        possible: merged.possible() as u64,
                        visited: merged.visited,
                        stats: outcome.stats,
                    })
                })
                .map_err(|e| e.to_string())?;
            (json, answers)
        } else {
            let json = tr
                .span("codec.encode", || {
                    serde_json::to_string(&CompleteResponse {
                        schema: k.schema.clone(),
                        generation: entry.generation,
                        query: normalized,
                        cached: false,
                        duration_ns: 0,
                        completions: views(),
                        stats: outcome.stats,
                    })
                })
                .map_err(|e| e.to_string())?;
            (json, outcome.completions.len() as u64)
        };
        let out = tr.span("http.render", || {
            render_response(200, "application/json", &json, true, &[])
        });
        tr.end();
        if req > 0 {
            c.requests += 1;
            c.bytes_in += wire.len() as u64;
            c.bytes_out += out.len() as u64;
            c.codec_bytes += (body.len() + json.len()) as u64;
        }
        Ok(answers)
    }
}

/// The decoded request a read's configuration comes from.
enum ConfigSrc {
    Complete(CompleteRequest),
    Query(QueryRequest),
}

impl ConfigSrc {
    fn schema_name(&self) -> &str {
        match self {
            ConfigSrc::Complete(q) => q.schema_name(),
            ConfigSrc::Query(q) => q.schema_name(),
        }
    }

    fn config(&self, schema: &Schema) -> Result<ipe_core::CompletionConfig, String> {
        match self {
            ConfigSrc::Complete(q) => q.config(schema),
            ConfigSrc::Query(q) => q.config(schema),
        }
    }
}

fn answer_view(a: &ipe_query::ProvenanceAnswer) -> ipe_service::AnswerView {
    let (kind, object, value) = match &a.answer {
        ipe_query::Answer::Object(o) => ("object", Some(o.0 as u64), None),
        ipe_query::Answer::Value(v) => ("value", None, Some(v.to_string())),
    };
    ipe_service::AnswerView {
        kind: kind.to_owned(),
        object,
        value,
        certain: a.certain,
        completions: a.completions.iter().map(|&i| i as u64).collect(),
    }
}

fn parse(wire: &[u8]) -> Result<ipe_service::http::Request, String> {
    match parse_request(wire) {
        ParseOutcome::Ok { request, .. } => Ok(request),
        ParseOutcome::Incomplete => Err("replayed request is incomplete".to_owned()),
        ParseOutcome::Malformed(status, msg) => {
            Err(format!("replayed request refused {status}: {msg}"))
        }
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}
