//! Metric names, units and the result line.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json` (a test keeps
//! them in step). Every workload reports every name: a per-layer
//! metric of a layer the workload does not exercise reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spans::Spans;

/// End-to-end metrics, reported by untraced runs: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_tps", "tuples/s"),
    ("latency_p50_us", "us"),
    ("locality", "ratio"),
    ("imbalance", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by traced runs: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.live.cpu_ns_per_tuple", "ns"),
    ("engine.live.batch_fill", "tuples/batch"),
    ("engine.live.control_flushes", "count"),
    ("engine.live.op_ns_per_tuple", "ns"),
    ("engine.live.span_queue_p50_us.local", "us"),
    ("engine.live.span_queue_p50_us.remote", "us"),
    ("engine.live.span_proc_p50_us", "us"),
    ("engine.live.latency_p99_us", "us"),
    ("engine.live.latency_samples", "count"),
    ("engine.live.gen_late_p99_us", "us"),
    ("engine.live.gen_late_max_us", "us"),
    ("engine.live.start_ms", "ms"),
    ("engine.live.drain_ms", "ms"),
    ("engine.router.ns_per_key", "ns"),
    ("engine.router.keys_per_call", "keys/call"),
    ("engine.router.table_hit_share", "ratio"),
    ("sketch.observe_ns_per_tuple", "ns"),
    ("sketch.observe_calls_per_tuple", "calls/tuple"),
    ("sketch.snapshot_ms", "ms"),
    ("sketch.merge_ms", "ms"),
    ("partition.ms", "ms"),
    ("partition.graph_vertices", "count"),
    ("partition.graph_edges", "count"),
    ("partition.expected_locality", "ratio"),
    ("partition.imbalance", "ratio"),
    ("core.manager.reconfigure_ms.p50", "ms"),
    ("core.manager.reconfigure_ms.max", "ms"),
    ("core.manager.reconfigure_ms.n", "count"),
    ("core.manager.estimate_ms", "ms"),
    ("core.manager.pairs_observed", "count"),
    ("core.manager.table_entries", "count"),
    ("core.manager.edges_used", "count"),
    ("core.manager.refused", "count"),
    ("engine.reconfig.wave_ms", "ms"),
    ("engine.reconfig.migrations", "count"),
    ("engine.reconfig.migration_bytes", "bytes"),
    ("engine.reconfig.late_forwarded", "count"),
    ("engine.reconfig.buffered", "count"),
    ("engine.sim.run_ms_per_window", "ms"),
    ("engine.sim.cluster_tps", "tuples/sim-s"),
    ("engine.sim.network_mb", "MB"),
    ("engine.sim.latency_windows", "windows"),
    ("engine.sim.max_queue_depth", "count"),
    ("workloads.gen_s", "s"),
    ("baseline.single_thread_tps", "tuples/s"),
    ("host.steal_share", "ratio"),
    ("host.max_rss_mb", "MiB"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// Values for one metric table, keyed by name.
#[derive(Debug, Clone)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// All metrics of `table`, at 0 until set.
    #[must_use]
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            table,
            values: table.iter().map(|&(n, _)| (n, 0.0)).collect(),
        }
    }

    /// Sets metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the table (a typo in the harness).
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _)| **n == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        *slot.1 = value;
    }

    /// Value of metric `name` (0.0 if unset or unknown).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `(name, value, unit)` in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.table.iter().map(|&(n, u)| (n, self.get(n), u))
    }

    /// The metrics as a JSON object `{"name": {"value": v, "unit": u}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            );
        }
        out.push('}');
        out
    }
}

/// A finite JSON number with every digit of `v` (non-finite → 0).
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Everything one benchmark invocation measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted: input tuples, live waves and manager
    /// reconfiguration calls.
    pub attempted: u64,
    /// Operations failed: tuples missing or duplicated against the
    /// reference counts, failed waves, refused reconfigurations, and
    /// locality readings that disagree with the reference routing.
    pub failed: u64,
    /// End-to-end metrics, always from an untraced pass.
    pub end_to_end: Metrics,
    /// Per-layer metrics from the traced pass (all 0 when untraced,
    /// except the `host.*` readings of the untraced pass).
    pub per_layer: Metrics,
    /// Workload-specific figures printed beside the result line:
    /// `(name, value, unit)`.
    pub extras: Vec<(&'static str, f64, &'static str)>,
    /// Spans of the traced pass as JSON lines (empty when untraced).
    pub spans_jsonl: String,
    /// Per-name span totals for the traced summary: `(name, count,
    /// total_ns, self_ns)`.
    pub span_totals: Vec<(&'static str, u64, u64, u64)>,
}

impl Outcome {
    /// An outcome with no measurements yet.
    #[must_use]
    pub fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            end_to_end: Metrics::new(END_TO_END),
            per_layer: Metrics::new(PER_LAYER),
            extras: Vec::new(),
            spans_jsonl: String::new(),
            span_totals: Vec::new(),
        }
    }

    /// Keeps the traced pass's spans for the exit-time write-out and
    /// the self-time summary.
    pub fn finish_spans(&mut self, workload: &str, seed: u64, spans: &Spans) {
        self.spans_jsonl = spans.to_jsonl(&format!("{workload}-{seed}"));
        self.span_totals = spans
            .totals()
            .into_iter()
            .map(|(name, (count, total, own))| (name, count, total, own))
            .collect();
        self.per_layer
            .set("trace.spans", spans.spans().len() as f64);
    }

    /// `true` when every output matched its reference.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// end-to-end (untraced) or per-layer (traced) metrics.
    #[must_use]
    pub fn result_json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.to_json()
        )
    }
}

impl Default for Outcome {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_every_metric() {
        let mut o = Outcome::new();
        o.attempted = 10;
        o.end_to_end.set("locality", 0.5);
        let line = o.result_json(false);
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")), "{line}");
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"locality\": {\"value\": 0.5, \"unit\": \"ratio\"}"));
        let traced = o.result_json(true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn unknown_metric_panics() {
        Metrics::new(END_TO_END).set("nope", 1.0);
    }
}
