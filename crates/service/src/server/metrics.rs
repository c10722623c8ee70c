//! `GET /metrics`: the live service gauges, as a section of the JSON
//! metrics report and as Prometheus gauges next to every registered
//! counter and timer.

use super::state::{lock_recover, ServiceState};
use crate::api::error_body;
use std::sync::atomic::Ordering;

impl ServiceState {
    /// Gauges for `/metrics`.
    fn metrics_view(&self) -> ServiceMetrics {
        ServiceMetrics {
            cache: self.caches.stats(),
            tenants: self.tenant_metrics(),
            queue_depth: self.live_conns.load(Ordering::Relaxed),
            requests_total: self.requests_total.load(Ordering::Relaxed),
            rejected_total: self.rejected_total.load(Ordering::Relaxed),
            workers: self.workers.load(Ordering::Relaxed),
            schemas: self.registry.list().len() as u64,
            data_sets: self.data.len() as u64,
            durable: self.store.is_some(),
            wal_last_seq: self
                .store
                .as_ref()
                .map(|s| lock_recover(s, "store").last_seq())
                .unwrap_or(0),
            index: IndexMetrics {
                mode: self.index_mode.as_str().to_owned(),
                builds_completed: self.index_builds_completed.load(Ordering::SeqCst),
                builds_in_flight: self.index_builds_in_flight.load(Ordering::SeqCst),
                completes_indexed: self.completes_indexed.load(Ordering::Relaxed),
                completes_unindexed: self.completes_unindexed.load(Ordering::Relaxed),
            },
            repl: self.repl_metrics(),
        }
    }

    /// Per-tenant rows for `/metrics`: admission counters, in-flight
    /// searches, and the tenant's cache-partition footprint.
    fn tenant_metrics(&self) -> Vec<TenantMetricsRow> {
        self.tenants
            .list()
            .iter()
            .map(|t| {
                let partition = self.caches.partition(t.name());
                let counters = t.counters();
                TenantMetricsRow {
                    tenant: t.name().to_owned(),
                    in_flight: u64::from(t.in_flight()),
                    admitted: counters.admitted,
                    throttled: counters.throttled,
                    busy: counters.busy,
                    searches: counters.searches,
                    cache: partition.stats(),
                    cache_budget_bytes: partition.byte_budget(),
                }
            })
            .collect()
    }

    /// The `service.repl` gauge section, shared by `/metrics` and
    /// `/v1/repl/status`.
    pub(super) fn repl_metrics(&self) -> ReplMetrics {
        match (&self.follower, &self.repl_hub) {
            (Some(f), _) => ReplMetrics {
                role: "follower".to_owned(),
                leader: Some(f.leader.clone()),
                leader_seq: f.leader_seq(),
                applied_seq: f.applied_seq(),
                lag_seq: f.lag_seq(),
                lag_ms: f.lag_ms(),
                connected: f.connected(),
                ready: f.is_ready(),
                streams_active: 0,
                reconnects: f.reconnects(),
                records_applied: f.records_applied(),
                snapshots_installed: f.snapshots_installed(),
            },
            (None, Some(hub)) => ReplMetrics {
                role: "leader".to_owned(),
                leader: None,
                leader_seq: hub.last_seq(),
                applied_seq: hub.last_seq(),
                lag_seq: 0,
                lag_ms: 0,
                connected: true,
                ready: !self.shutting_down(),
                streams_active: self.repl_streams_active.load(Ordering::SeqCst),
                reconnects: 0,
                records_applied: 0,
                snapshots_installed: 0,
            },
            (None, None) => ReplMetrics {
                role: "none".to_owned(),
                leader: None,
                leader_seq: 0,
                applied_seq: 0,
                lag_seq: 0,
                lag_ms: 0,
                connected: false,
                ready: !self.shutting_down(),
                streams_active: 0,
                reconnects: 0,
                records_applied: 0,
                snapshots_installed: 0,
            },
        }
    }
}

/// One tenant's row in the `service.tenants` section of `GET /metrics`.
#[derive(Debug, serde::Serialize)]
struct TenantMetricsRow {
    tenant: String,
    /// Searches in flight right now (the concurrency-cap gauge).
    in_flight: u64,
    admitted: u64,
    throttled: u64,
    busy: u64,
    searches: u64,
    cache: crate::cache::CacheStats,
    cache_budget_bytes: u64,
}

/// The `service` section of `GET /metrics`.
#[derive(Debug, serde::Serialize)]
struct ServiceMetrics {
    cache: crate::cache::CacheStats,
    tenants: Vec<TenantMetricsRow>,
    queue_depth: u64,
    requests_total: u64,
    rejected_total: u64,
    workers: u64,
    schemas: u64,
    data_sets: u64,
    durable: bool,
    wal_last_seq: u64,
    index: IndexMetrics,
    repl: ReplMetrics,
}

/// The `service.repl` section of `GET /metrics` (also the body of
/// `GET /v1/repl/status`).
#[derive(Debug, serde::Serialize)]
pub(super) struct ReplMetrics {
    /// `"none"`, `"leader"`, or `"follower"`.
    role: String,
    #[serde(skip_serializing_if = "Option::is_none")]
    leader: Option<String>,
    leader_seq: u64,
    applied_seq: u64,
    lag_seq: u64,
    lag_ms: u64,
    connected: bool,
    ready: bool,
    streams_active: u64,
    reconnects: u64,
    records_applied: u64,
    snapshots_installed: u64,
}

/// The `service.index` section of `GET /metrics`.
#[derive(Debug, serde::Serialize)]
struct IndexMetrics {
    mode: String,
    builds_completed: u64,
    builds_in_flight: u64,
    completes_indexed: u64,
    completes_unindexed: u64,
}

/// Builds the `/metrics` body: the standard `ipe-obs` [`Report`] (global
/// counters and timers, including `service.cache.*` and
/// `service.request`) extended with a `service` section of live gauges.
///
/// [`Report`]: ipe_obs::Report
pub fn metrics_json(state: &ServiceState) -> String {
    let mut report = ipe_obs::Report::new();
    report.meta("component", "ipe-service");
    report.capture_metrics();
    attach_service_gauges(&mut report, serde_json::to_string(&state.metrics_view()));
    report.to_json()
}

/// Attaches the serialized `service` gauge section to a metrics report.
/// A serialization failure must not silently drop the section — the
/// scrape keeps its shape and carries an explicit error instead.
fn attach_service_gauges(report: &mut ipe_obs::Report, gauges: Result<String, serde_json::Error>) {
    match gauges {
        Ok(json) => report.attach_json("service", json),
        Err(e) => report.attach_json(
            "service",
            error_body(&format!("service gauges unavailable: {e}")),
        ),
    };
}

/// Builds the `/metrics?format=prometheus` body: every registered
/// counter and log2-bucket timer as Prometheus `counter`/`histogram`
/// families (with derived p50/p95/p99 quantile gauges), plus the live
/// service gauges.
pub fn metrics_prometheus(state: &ServiceState) -> String {
    use ipe_obs::prom::Gauge;
    let m = state.metrics_view();
    let mut gauges = vec![
        Gauge::new(
            "service.cache.entries",
            "Live entries in the completion cache.",
            m.cache.entries as f64,
        ),
        Gauge::new(
            "service.cache.bytes",
            "Approximate bytes held by completion-cache entries.",
            m.cache.bytes as f64,
        ),
        Gauge::new(
            "service.workers",
            "Reactor threads serving requests.",
            m.workers as f64,
        ),
        Gauge::new(
            "service.queue_depth",
            "Connections held live across all reactors right now.",
            m.queue_depth as f64,
        ),
        Gauge::new(
            "service.schemas",
            "Schemas registered in the service.",
            m.schemas as f64,
        ),
        Gauge::new(
            "service.data.loaded",
            "Data instances loaded in the service.",
            m.data_sets as f64,
        ),
        Gauge::new(
            "service.wal_last_seq",
            "Last durable WAL sequence number (0 when not durable).",
            m.wal_last_seq as f64,
        ),
        Gauge::new(
            "service.index.builds_completed",
            "Closure index builds finished since startup.",
            m.index.builds_completed as f64,
        ),
        Gauge::new(
            "service.index.builds_in_flight",
            "Closure index builds currently running.",
            m.index.builds_in_flight as f64,
        ),
        Gauge::new(
            "service.flight.recorded",
            "Request traces retained in the flight recorder.",
            state.flight.recorded() as f64,
        ),
    ];
    if m.repl.role != "none" {
        gauges.push(Gauge::new(
            "service.repl.lag_seq",
            "WAL records the replica is behind the leader (0 on a leader).",
            m.repl.lag_seq as f64,
        ));
        gauges.push(Gauge::new(
            "service.repl.lag_ms",
            "Milliseconds since the replica was last level with the leader.",
            m.repl.lag_ms as f64,
        ));
        gauges.push(Gauge::new(
            "service.repl.streams_active",
            "Replication streams this leader is serving right now.",
            m.repl.streams_active as f64,
        ));
        gauges.push(Gauge::new(
            "service.repl.connected",
            "Whether the follower's stream connection is up (1/0).",
            m.repl.connected as u64 as f64,
        ));
    }
    // Per-tenant families. The exposition layer has no label support, so
    // the tenant name is embedded in the metric name (tenant names are
    // `[a-z0-9_-]`, which mangles losslessly): `ipe_tenant_<name>_<what>`.
    for t in &m.tenants {
        let name = &t.tenant;
        gauges.push(Gauge::new(
            format!("tenant.{name}.admitted"),
            "Requests admitted past this tenant's rate quota.",
            t.admitted as f64,
        ));
        gauges.push(Gauge::new(
            format!("tenant.{name}.throttled"),
            "Requests bounced 429 by this tenant's rate quota.",
            t.throttled as f64,
        ));
        gauges.push(Gauge::new(
            format!("tenant.{name}.busy"),
            "Requests bounced 429 by this tenant's concurrent-search cap.",
            t.busy as f64,
        ));
        gauges.push(Gauge::new(
            format!("tenant.{name}.searches"),
            "Engine searches this tenant has executed.",
            t.searches as f64,
        ));
        gauges.push(Gauge::new(
            format!("tenant.{name}.in_flight"),
            "Searches in flight for this tenant right now.",
            t.in_flight as f64,
        ));
        gauges.push(Gauge::new(
            format!("tenant.{name}.cache.entries"),
            "Live entries in this tenant's cache partition.",
            t.cache.entries as f64,
        ));
        gauges.push(Gauge::new(
            format!("tenant.{name}.cache.bytes"),
            "Approximate bytes held by this tenant's cache partition.",
            t.cache.bytes as f64,
        ));
        gauges.push(Gauge::new(
            format!("tenant.{name}.cache.budget_bytes"),
            "Byte budget of this tenant's cache partition (0 = none).",
            t.cache_budget_bytes as f64,
        ));
    }
    ipe_obs::prom::render(&gauges)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The vendored `serde_json` serializer never actually fails, so the
    /// error branch of the gauge attachment is exercised with an error
    /// manufactured from the parser.
    #[test]
    fn metrics_report_carries_explicit_error_when_gauges_fail() {
        let err = serde_json::from_str::<u64>("not a number").unwrap_err();
        let mut report = ipe_obs::Report::new();
        attach_service_gauges(&mut report, Err(err));
        let json = report.to_json();
        assert!(
            json.contains("service gauges unavailable"),
            "error must be visible in the report: {json}"
        );
        assert!(
            json.contains("\"service\""),
            "the service section must keep its shape: {json}"
        );
    }

    #[test]
    fn metrics_report_embeds_gauges_on_success() {
        let mut report = ipe_obs::Report::new();
        attach_service_gauges(&mut report, Ok("{\"workers\": 4}".to_owned()));
        let json = report.to_json();
        assert!(json.contains("\"workers\": 4"), "{json}");
    }
}
