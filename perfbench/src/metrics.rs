//! The metric catalogue, mirrored by `BENCHMARK.json`, and the result
//! line every run ends with.

/// One metric's definition: name, unit, and whether lower is better.
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `true` for "lower", `false` for "higher".
    pub lower_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, lower_is_better: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better,
    }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", true),
    m("throughput_rps", "1/s", false),
    m("latency_p50_us", "us", true),
    m("latency_p99_us", "us", true),
    m("server_cpu_us_per_req", "us", true),
    m("server_rss_mb", "MiB", true),
    m("answers_per_s", "1/s", false),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("http.parse_ns", "ns", true),
    m("http.render_ns", "ns", true),
    m("http.bytes_in", "B", true),
    m("http.bytes_out", "B", true),
    m("codec.decode_ns", "ns", true),
    m("codec.encode_ns", "ns", true),
    m("codec.ns_per_byte", "ns/B", true),
    m("tenant.admit_ns", "ns", true),
    m("tenant.refused", "count", true),
    m("registry.lookup_ns", "ns", true),
    m("parser.parse_ns", "ns", true),
    m("cache.probe_ns", "ns", true),
    m("cache.insert_ns", "ns", true),
    m("cache.hit_ratio", "ratio", false),
    m("cache.evictions", "count", true),
    m("cache.bytes", "B", true),
    m("core.search_ns", "ns", true),
    m("core.calls_per_query", "count", true),
    m("core.completions_per_call", "ratio", false),
    m("index.build_ns", "ns", true),
    m("index.pruned_ratio", "ratio", false),
    m("index.unindexed_completes", "count", true),
    m("query.eval_ns", "ns", true),
    m("query.visited_per_answer", "count", true),
    m("store.append_ns", "ns", true),
    m("store.bytes_per_user_byte", "ratio", true),
    m("service.route_ns", "ns", true),
    m("service.replay_coverage", "ratio", false),
    m("reactor.residual_us", "us", true),
    m("obs.span_overhead_pct", "%", true),
];

/// A run's verdict and figures.
pub struct Result {
    /// Whether every answer was right and every validity gate held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, timed out, or were wrong.
    pub failed: u64,
    /// `(name, value)` for each metric of the run's catalogue.
    pub values: Vec<(&'static str, f64)>,
}

impl Result {
    /// The final JSON line. Errors when `values` does not cover `defs`
    /// exactly, in order.
    pub fn render(&self, defs: &[MetricDef]) -> std::result::Result<String, String> {
        let names: Vec<&str> = self.values.iter().map(|(n, _)| *n).collect();
        let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
        if names != want {
            return Err(format!(
                "metrics {names:?} do not match the catalogue {want:?}"
            ));
        }
        let mut metrics = Vec::with_capacity(defs.len());
        for (def, (_, value)) in defs.iter().zip(&self.values) {
            if !value.is_finite() {
                return Err(format!("metric {} is not a finite number", def.name));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                def.name, def.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }
}
