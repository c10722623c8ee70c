//! The search routes: `POST /v1/complete`, `POST /v1/complete/batch`,
//! and `POST /v1/query`, all through the tenant's completion cache.

use crate::api::{
    AnswerView, BatchCompleteRequest, BatchCompleteResponse, BatchItemView, CompleteRequest,
    CompleteResponse, CompletionView, QueryRequest, QueryResponse,
};
use crate::cache::{config_fingerprint, entry_weight, CacheKey, CompletionCache};
use crate::server::routes::{Answer, Call, Reply, ReqObs};
use crate::server::state::{ServiceState, MAX_BATCH_THREADS};
use crate::SchemaEntry;
use ipe_core::{
    complete_batch, BatchOptions, CompleteError, Completer, CompletionConfig, SearchLimits,
    SearchOutcome,
};
use ipe_oodb::EvalLimits;
use ipe_parser::{parse_path_expression, PathExprAst};
use ipe_query::{evaluate_completions, Answer as QueryAnswer, QueryError};
use ipe_schema::Schema;
use ipe_tenant::{scoped_name, split_scoped};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard cap on `queries` per batch request; more is a `400`.
const MAX_BATCH_ITEMS: usize = 256;
/// Per-item deadline applied when a batch request does not set one.
const DEFAULT_BATCH_DEADLINE_MS: u64 = 2_000;
/// Upper bound on a requested per-item deadline.
const MAX_BATCH_DEADLINE_MS: u64 = 60_000;
/// Upper bound on a requested query deadline.
const MAX_QUERY_DEADLINE_MS: u64 = 60_000;

/// Body of a `409` from [`admit_read`]; shares the retry-envelope fields
/// of the `429` body.
#[derive(serde::Serialize)]
struct ReadRefused {
    error: String,
    /// Whether retrying against this same node can succeed (true on a
    /// lagging follower, false when the requested generation exists
    /// nowhere).
    retryable: bool,
    /// Backoff hint when `retryable` (same contract as the `429` body).
    #[serde(skip_serializing_if = "Option::is_none")]
    retry_after_ms: Option<u64>,
    schema: String,
    #[serde(skip_serializing_if = "Option::is_none")]
    generation: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    min_generation: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    applied_seq: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    lag_seq: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    lag_ms: Option<u64>,
}

/// Generation-aware read admission, then the schema itself. A reader
/// that pins `min_generation` (read-your-writes after a schema PUT on the
/// leader) never gets an older generation served silently: a follower
/// that hasn't applied it yet answers `409` with `retryable: true` and
/// its lag, and a caught-up node answers `409` with `retryable: false`
/// (the generation does not exist). A missing schema on a lagging
/// follower is also deferred — it may simply not have arrived yet — while
/// on a caught-up node it is the ordinary `404`.
fn admit_read(
    state: &ServiceState,
    name: &str,
    entry: Option<Arc<SchemaEntry>>,
    min_generation: Option<u64>,
) -> Result<Arc<SchemaEntry>, Reply> {
    let generation = entry.as_ref().map(|e| e.generation);
    match (entry, min_generation) {
        (Some(entry), None) => return Ok(entry),
        (Some(entry), Some(want)) if entry.generation >= want => return Ok(entry),
        _ => {}
    }
    if let Some(follower) = &state.follower {
        if !follower.is_ready() {
            ipe_obs::counter!("repl.follower.reads_deferred", 1);
            let body = ReadRefused {
                error: "replica has not applied this schema generation yet; retry".to_owned(),
                retryable: true,
                // Lag-proportional hint, floored so clients never spin
                // and capped so they re-probe a recovering replica soon.
                retry_after_ms: Some(follower.lag_ms().clamp(25, 2_000)),
                schema: name.to_owned(),
                generation,
                min_generation,
                applied_seq: Some(follower.applied_seq()),
                lag_seq: Some(follower.lag_seq()),
                lag_ms: Some(follower.lag_ms()),
            };
            return Err(Reply::serialized(409, &body));
        }
    }
    match (generation, min_generation) {
        (Some(have), Some(want)) => {
            let body = ReadRefused {
                error: format!(
                    "schema `{name}` is at generation {have}, below the requested min_generation {want}"
                ),
                retryable: false,
                retry_after_ms: None,
                schema: name.to_owned(),
                generation,
                min_generation,
                applied_seq: None,
                lag_seq: None,
                lag_ms: None,
            };
            Err(Reply::serialized(409, &body))
        }
        // Caught up (or leader) and the schema simply isn't registered.
        _ => Err(Reply::error(404, &format!("no schema named `{name}`"))),
    }
}

/// Serves `key` from `cache`, or runs the engine (under `deadline`, if
/// any) and caches the outcome. Returns the outcome and whether it was a
/// cache hit.
#[allow(clippy::too_many_arguments)]
fn cached_search(
    state: &ServiceState,
    entry: &SchemaEntry,
    cache: &CompletionCache,
    key: CacheKey,
    ast: &PathExprAst,
    cfg: CompletionConfig,
    deadline: Option<Instant>,
    obs: &mut ReqObs,
) -> Result<(Arc<SearchOutcome>, bool), CompleteError> {
    let mut probe_span = obs.span.child("cache.probe");
    let probe = cache.get(&key);
    probe_span.attr("hit", probe.is_some() as u64);
    probe_span.finish();
    if let Some(hit) = probe {
        return Ok((hit, true));
    }
    let mut engine = Completer::with_config(&entry.schema, cfg);
    let indexed = entry
        .index()
        .map(|ix| engine.attach_index(ix))
        .unwrap_or(false);
    state.count_complete(indexed);
    let mut search_span = obs.span.child("search");
    search_span.attr("indexed", indexed as u64);
    let limits = SearchLimits {
        deadline,
        span: search_span.handle(),
        ..SearchLimits::default()
    };
    let outcome = engine.complete_bounded(ast, &limits)?;
    search_span.attr("calls", outcome.stats.calls);
    search_span.finish();
    obs.absorb_stats(&outcome.stats);
    let weight = entry_weight(&key, &outcome);
    let outcome = Arc::new(outcome);
    cache.insert_weighted(key, Arc::clone(&outcome), weight);
    Ok((outcome, false))
}

fn elapsed_ns(started: Instant) -> u64 {
    started.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// `POST /v1/complete`: the completions of one incomplete expression.
pub(in crate::server) fn complete(call: Call<'_>) -> Answer {
    let mut parsed: CompleteRequest = call.json_body()?;
    let Call {
        state, tenant, obs, ..
    } = call;
    let tcfg = tenant.config();
    if parsed.e.is_none() {
        parsed.e = tcfg.default_e;
    }
    if parsed.pruning.is_none() {
        parsed.pruning = tcfg.default_pruning.clone();
    }
    let started = Instant::now();
    let name = parsed.schema_name();
    let key_name = scoped_name(tenant.name(), name);
    let mut lookup_span = obs.span.child("registry.lookup");
    lookup_span.note(&key_name);
    let entry = state.registry.get(&key_name);
    lookup_span.attr("found", entry.is_some() as u64);
    lookup_span.finish();
    let entry = admit_read(state, name, entry, parsed.min_generation)?;
    let cache = state.caches.partition(tenant.name());
    let mut parse_span = obs.span.child("parse");
    parse_span.note(&parsed.query);
    let ast =
        parse_path_expression(&parsed.query).map_err(|e| Reply::error(400, &e.to_string()))?;
    parse_span.finish();
    let cfg = parsed
        .config(&entry.schema)
        .map_err(|msg| Reply::error(400, &msg))?;
    let normalized = ast.to_string();
    let key = CacheKey {
        schema_id: entry.id,
        generation: entry.generation,
        query: normalized.clone(),
        fingerprint: config_fingerprint(&cfg),
    };
    let (outcome, cached) = cached_search(state, &entry, &cache, key, &ast, cfg, None, obs)
        .map_err(|e| Reply::error(422, &e.to_string()))?;
    obs.cache_hit = Some(cached);
    let response = CompleteResponse {
        schema: split_scoped(&entry.name).1.to_owned(),
        generation: entry.generation,
        query: normalized,
        cached,
        duration_ns: elapsed_ns(started),
        completions: completion_views(&entry.schema, &outcome),
        stats: outcome.stats,
    };
    Ok(Reply::serialized(200, &response))
}

/// Renders a search outcome's completions into wire form.
fn completion_views(schema: &Schema, outcome: &SearchOutcome) -> Vec<CompletionView> {
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
}

/// `POST /v1/complete/batch`: many expressions against one schema; cache
/// hits answer at once, the misses fan out over the batch work pool.
pub(in crate::server) fn batch(call: Call<'_>) -> Answer {
    let mut parsed: BatchCompleteRequest = call.json_body()?;
    let Call {
        state, tenant, obs, ..
    } = call;
    if parsed.queries.len() > MAX_BATCH_ITEMS {
        let msg = format!(
            "batch of {} queries exceeds the cap of {MAX_BATCH_ITEMS}",
            parsed.queries.len()
        );
        return Err(Reply::error(400, &msg));
    }
    let tcfg = tenant.config();
    if parsed.e.is_none() {
        parsed.e = tcfg.default_e;
    }
    if parsed.pruning.is_none() {
        parsed.pruning = tcfg.default_pruning.clone();
    }
    let started = Instant::now();
    let name = parsed.schema_name();
    let entry = state.registry.get(&scoped_name(tenant.name(), name));
    let entry = admit_read(state, name, entry, parsed.min_generation)?;
    let cache = state.caches.partition(tenant.name());
    let cfg = parsed
        .config(&entry.schema)
        .map_err(|msg| Reply::error(400, &msg))?;
    let deadline_ms = parsed
        .deadline_ms
        .or(tcfg.deadline_ms)
        .unwrap_or(DEFAULT_BATCH_DEADLINE_MS)
        .min(MAX_BATCH_DEADLINE_MS);
    let threads = parsed
        .threads
        .unwrap_or(state.batch_threads as u64)
        .clamp(1, MAX_BATCH_THREADS) as usize;
    let fingerprint = config_fingerprint(&cfg);

    // First pass: parse and probe the cache per item. Parse failures and
    // cache hits resolve immediately; misses collect into one parallel
    // engine batch.
    let mut prepare_span = obs.span.child("batch.prepare");
    prepare_span.attr("items", parsed.queries.len() as u64);
    let mut views: Vec<Option<BatchItemView>> = (0..parsed.queries.len()).map(|_| None).collect();
    let mut miss_slots: Vec<usize> = Vec::new();
    let mut miss_keys: Vec<CacheKey> = Vec::new();
    let mut miss_asts: Vec<PathExprAst> = Vec::new();
    for (i, query) in parsed.queries.iter().enumerate() {
        match parse_path_expression(query) {
            Err(e) => {
                views[i] = Some(BatchItemView {
                    query: query.clone(),
                    status: "error".to_owned(),
                    cached: false,
                    duration_ns: 0,
                    error: Some(e.to_string()),
                    completions: Vec::new(),
                });
            }
            Ok(ast) => {
                let normalized = ast.to_string();
                let key = CacheKey {
                    schema_id: entry.id,
                    generation: entry.generation,
                    query: normalized.clone(),
                    fingerprint,
                };
                if let Some(hit) = cache.get(&key) {
                    views[i] = Some(BatchItemView {
                        query: normalized,
                        status: "ok".to_owned(),
                        cached: true,
                        duration_ns: 0,
                        error: None,
                        completions: completion_views(&entry.schema, &hit),
                    });
                } else {
                    miss_slots.push(i);
                    miss_keys.push(key);
                    miss_asts.push(ast);
                }
            }
        }
    }

    let resolved = views.iter().filter(|v| v.is_some()).count();
    prepare_span.attr("resolved", resolved as u64);
    prepare_span.attr("misses", miss_asts.len() as u64);
    prepare_span.finish();

    // Second pass: the misses, fanned over the batch work pool. Only `ok`
    // results enter the cache — a deadline hit is a property of this
    // run's budget, not of the query.
    let mut deadline_hits = 0u64;
    if !miss_asts.is_empty() {
        let mut fanout_span = obs.span.child("batch");
        fanout_span.attr("misses", miss_asts.len() as u64);
        fanout_span.attr("threads", threads as u64);
        let opts = BatchOptions {
            threads,
            deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
            cancel: None,
            span: fanout_span.handle(),
        };
        let mut engine = Completer::with_config(&entry.schema, cfg);
        let indexed = entry
            .index()
            .map(|ix| engine.attach_index(ix))
            .unwrap_or(false);
        state.count_complete(indexed);
        let out = complete_batch(&engine, &miss_asts, &opts);
        fanout_span.finish();
        for item in out {
            let slot = miss_slots[item.index];
            let key = miss_keys[item.index].clone();
            let normalized = key.query.clone();
            views[slot] = Some(match item.result {
                Ok(outcome) => {
                    obs.absorb_stats(&outcome.stats);
                    let completions = completion_views(&entry.schema, &outcome);
                    let weight = entry_weight(&key, &outcome);
                    cache.insert_weighted(key, Arc::new(outcome), weight);
                    BatchItemView {
                        query: normalized,
                        status: "ok".to_owned(),
                        cached: false,
                        duration_ns: item.duration_ns,
                        error: None,
                        completions,
                    }
                }
                Err(e) => {
                    let status = if matches!(e, CompleteError::DeadlineExceeded) {
                        deadline_hits += 1;
                        "deadline_exceeded"
                    } else {
                        "error"
                    };
                    BatchItemView {
                        query: normalized,
                        status: status.to_owned(),
                        cached: false,
                        duration_ns: item.duration_ns,
                        error: Some(e.to_string()),
                        completions: Vec::new(),
                    }
                }
            });
        }
    }

    let response = BatchCompleteResponse {
        schema: split_scoped(&entry.name).1.to_owned(),
        generation: entry.generation,
        deadline_ms,
        threads: threads as u64,
        wall_ns: elapsed_ns(started),
        deadline_hits,
        items: views
            .into_iter()
            .map(|v| v.expect("every batch slot resolved"))
            .collect(),
    };
    // The batch as a whole "hit" only when every query resolved from
    // cache (no fan-out ran).
    obs.cache_hit = Some(response.items.iter().all(|v| v.cached));
    Ok(Reply::serialized(200, &response))
}

/// `POST /v1/query`: disambiguate an incomplete expression (through the
/// completion cache) and evaluate the top-E completions against the
/// schema's loaded data, answering with the certain/possible partition
/// and per-answer provenance.
///
/// Error mapping: unknown schema or no loaded data → `404`; data loaded
/// against an older schema generation → `409`; unparsable body or query →
/// `400`; already-complete expression at `e > 1`, engine rejections, and
/// evaluation failures → `422`; deadline or budget exhaustion → `504`.
pub(in crate::server) fn query(call: Call<'_>) -> Answer {
    ipe_obs::counter!("query.requests", 1);
    let _t = ipe_obs::timer!("query.request");
    let mut parsed: QueryRequest = call.json_body()?;
    let Call {
        state, tenant, obs, ..
    } = call;
    // Tenant defaults fill only what the request left unset.
    let tcfg = tenant.config();
    if parsed.e.is_none() {
        parsed.e = tcfg.default_e;
    }
    if parsed.pruning.is_none() {
        parsed.pruning = tcfg.default_pruning.clone();
    }
    let started = Instant::now();
    let name = parsed.schema_name();
    let key_name = scoped_name(tenant.name(), name);
    let mut lookup_span = obs.span.child("registry.lookup");
    lookup_span.note(name);
    let entry = state.registry.get(&key_name);
    lookup_span.attr("found", entry.is_some() as u64);
    lookup_span.finish();
    let entry = admit_read(state, name, entry, parsed.min_generation)?;
    let mut data_span = obs.span.child("data.lookup");
    let data = state.data.get(&key_name);
    data_span.attr("found", data.is_some() as u64);
    data_span.finish();
    let Some(data) = data else {
        let msg = format!("no data loaded for `{name}`; PUT /v1/data/{name} first");
        return Err(Reply::error(404, &msg));
    };
    if data.schema_id != entry.id || data.schema_generation != entry.generation {
        ipe_obs::counter!("query.stale_data", 1);
        let msg = format!(
            "data for `{name}` was loaded against schema generation {} but the schema is now at generation {}; re-PUT /v1/data/{name}",
            data.schema_generation, entry.generation
        );
        return Err(Reply::error(409, &msg));
    }
    let mut parse_span = obs.span.child("parse");
    parse_span.note(&parsed.query);
    let ast =
        parse_path_expression(&parsed.query).map_err(|e| Reply::error(400, &e.to_string()))?;
    parse_span.finish();
    let cfg = parsed
        .config(&entry.schema)
        .map_err(|msg| Reply::error(400, &msg))?;
    if ast.is_complete() && cfg.e > 1 {
        return Err(Reply::error(422, &QueryError::AlreadyComplete.to_string()));
    }
    let deadline_ms = parsed
        .deadline_ms
        .or(tcfg.deadline_ms)
        .unwrap_or(state.query_deadline_ms)
        .min(MAX_QUERY_DEADLINE_MS);
    let deadline = (deadline_ms > 0).then(|| started + Duration::from_millis(deadline_ms));
    // The completion phase shares the completion cache with
    // POST /v1/complete: same key, same entries, so a warm query reuses
    // the completion set and cold/warm answers are identical by
    // construction.
    let normalized = ast.to_string();
    let key = CacheKey {
        schema_id: entry.id,
        generation: entry.generation,
        query: normalized.clone(),
        fingerprint: config_fingerprint(&cfg),
    };
    let cache = state.caches.partition(tenant.name());
    let e = cfg.e as u64;
    let (outcome, cached) =
        match cached_search(state, &entry, &cache, key, &ast, cfg, deadline, obs) {
            Ok(found) => found,
            Err(CompleteError::DeadlineExceeded) => {
                ipe_obs::counter!("query.deadline_exceeded", 1);
                return Err(Reply::error(504, "query deadline exceeded during search"));
            }
            Err(e) => return Err(Reply::error(422, &e.to_string())),
        };
    obs.cache_hit = Some(cached);
    let eval_limits = EvalLimits {
        deadline,
        ..EvalLimits::default()
    };
    let mut eval_span = obs.span.child("evaluate");
    eval_span.attr("completions", outcome.completions.len() as u64);
    let merged = match evaluate_completions(&data.db, &outcome.completions, &eval_limits) {
        Ok(m) => m,
        Err(err) if ipe_query::is_deadline(&err) => {
            ipe_obs::counter!("query.deadline_exceeded", 1);
            return Err(Reply::error(504, &err.to_string()));
        }
        Err(err) => return Err(Reply::error(422, &err.to_string())),
    };
    eval_span.attr("possible", merged.possible() as u64);
    eval_span.attr("certain", merged.certain as u64);
    eval_span.finish();
    let answers = merged
        .answers
        .iter()
        .filter(|a| a.certain || !parsed.certain_only)
        .map(answer_view)
        .collect();
    let response = QueryResponse {
        schema: split_scoped(&entry.name).1.to_owned(),
        generation: entry.generation,
        data_generation: data.data_generation,
        query: normalized,
        e,
        cached,
        duration_ns: elapsed_ns(started),
        completions: completion_views(&entry.schema, &outcome),
        answers,
        certain: merged.certain as u64,
        possible: merged.possible() as u64,
        visited: merged.visited,
        stats: outcome.stats,
    };
    Ok(Reply::serialized(200, &response))
}

/// Renders one provenance-annotated answer into wire form.
fn answer_view(a: &ipe_query::ProvenanceAnswer) -> AnswerView {
    let (kind, object, value) = match &a.answer {
        QueryAnswer::Object(o) => ("object", Some(o.0 as u64), None),
        QueryAnswer::Value(v) => ("value", None, Some(v.to_string())),
    };
    AnswerView {
        kind: kind.to_owned(),
        object,
        value,
        certain: a.certain,
        completions: a.completions.iter().map(|&i| i as u64).collect(),
    }
}
