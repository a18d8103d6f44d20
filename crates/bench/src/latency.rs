//! The `latency-report` harness: renders per-hop latency percentile
//! tables from the span histograms of [`SpanMetricName`]'s shared
//! schema, split local vs. remote and tagged by routing epoch, plus a
//! per-wave before/after locality-latency delta.
//!
//! The demo mode runs a seeded Zipf chain on the live runtime in the
//! paper's worst-case configuration — a [`ShiftedRouter`] guaranteeing
//! every A → B hop changes server — then reconfigures the hop to the
//! aligned [`ModuloRouter`] mid-stream, so epoch 0 captures the
//! all-remote latency distribution and epoch 1 the all-local one. The
//! resulting report is the engine-level analogue of the paper's
//! Fig. 9–11 latency comparison.
//!
//! [`ShiftedRouter`]: streamloc_engine::ShiftedRouter
//! [`ModuloRouter`]: streamloc_engine::ModuloRouter

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use streamloc_engine::{
    CountOperator, Grouping, HistogramSnapshot, Key, LiveConfig, LiveReconfig,
    LiveRuntime, MetricsRegistry, ModuloRouter, Placement, PoId, ShiftedRouter, SourceRate,
    SpanMetricName, SpanPhase, SpanSampler, Topology, Tuple,
};
use streamloc_workloads::{SplitMix64, Zipf};

use crate::csv::CsvWriter;

/// The percentiles every latency table reports.
pub const PERCENTILES: [(&str, f64); 4] =
    [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)];

/// Upper-bound estimate of quantile `q` from a fixed-bucket histogram:
/// the bound of the bucket holding the `ceil(q * total)`-th
/// observation. Observations in the overflow bucket report twice the
/// last bound (the finite stand-in for `+Inf`). Returns 0 for an empty
/// histogram.
#[must_use]
pub fn percentile(s: &HistogramSnapshot, q: f64) -> u64 {
    if s.total == 0 {
        return 0;
    }
    let rank = ((q * s.total as f64).ceil() as u64).max(1);
    let mut cumulative = 0u64;
    for (i, &count) in s.counts.iter().enumerate() {
        cumulative += count;
        if cumulative >= rank {
            return match s.bounds.get(i) {
                Some(&bound) => bound,
                None => s.bounds.last().copied().unwrap_or(0).saturating_mul(2),
            };
        }
    }
    s.bounds.last().copied().unwrap_or(0).saturating_mul(2)
}

/// Renders nanoseconds at human scale (`640ns`, `1.2µs`, `34ms`, …).
#[must_use]
pub fn format_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// One span histogram with its parsed identity.
#[derive(Debug, Clone)]
pub struct SpanRow {
    /// Parsed identity (phase, operator, locality, epoch).
    pub name: SpanMetricName,
    /// The histogram contents at collection time.
    pub snap: HistogramSnapshot,
}

/// Every span histogram found in a registry, ready to render.
#[derive(Debug, Clone, Default)]
pub struct SpanReport {
    /// One row per span histogram, in registration order.
    pub rows: Vec<SpanRow>,
}

impl SpanReport {
    /// Collects every histogram whose name parses as a
    /// [`SpanMetricName`]; other metrics are ignored.
    #[must_use]
    pub fn from_registry(registry: &MetricsRegistry) -> Self {
        let rows = registry
            .histograms()
            .into_iter()
            .filter_map(|(name, snap)| {
                SpanMetricName::parse(&name).map(|name| SpanRow { name, snap })
            })
            .collect();
        Self { rows }
    }

    /// Epochs with at least one observation, ascending.
    #[must_use]
    pub fn epochs(&self) -> Vec<u64> {
        let set: BTreeSet<u64> = self
            .rows
            .iter()
            .filter(|r| r.snap.total > 0)
            .map(|r| r.name.epoch)
            .collect();
        set.into_iter().collect()
    }

    fn find(&self, phase: SpanPhase, po: usize, remote: Option<bool>, epoch: u64) -> Option<&SpanRow> {
        self.rows.iter().find(|r| {
            r.name.phase == phase
                && r.name.po == po
                && r.name.remote == remote
                && r.name.epoch == epoch
        })
    }

    /// Fraction of an epoch's hop observations that crossed a server
    /// boundary (from the queue histograms); `None` with no hops.
    #[must_use]
    pub fn remote_share(&self, epoch: u64) -> Option<f64> {
        let (mut remote, mut total) = (0u64, 0u64);
        for r in &self.rows {
            if r.name.phase == SpanPhase::Queue && r.name.epoch == epoch {
                total += r.snap.total;
                if r.name.remote == Some(true) {
                    remote += r.snap.total;
                }
            }
        }
        (total > 0).then(|| remote as f64 / total as f64)
    }

    /// Renders the per-epoch percentile tables and, for each pair of
    /// consecutive observed epochs, the locality-latency delta.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let epochs = self.epochs();
        let _ = writeln!(out, "Span latency report — {} epoch(s)", epochs.len());
        if epochs.is_empty() {
            let _ = writeln!(out, "  (no sampled spans recorded)");
            return out;
        }
        let pos: BTreeSet<usize> = self.rows.iter().map(|r| r.name.po).collect();
        for &epoch in &epochs {
            let _ = writeln!(out, "== epoch {epoch} ==");
            let _ = writeln!(
                out,
                "  {:<4} {:<6} {:<7} {:>9} {:>9} {:>9} {:>9} {:>9}",
                "po", "phase", "hop", "n", "p50", "p90", "p99", "p999"
            );
            for &po in &pos {
                for (phase, label) in [(SpanPhase::Queue, "queue"), (SpanPhase::Proc, "proc")] {
                    for (remote, hop) in [(Some(false), "local"), (Some(true), "remote")] {
                        if let Some(row) = self.find(phase, po, remote, epoch) {
                            if row.snap.total > 0 {
                                let _ = writeln!(out, "{}", table_line(po, label, hop, &row.snap));
                            }
                        }
                    }
                }
                if let Some(row) = self.find(SpanPhase::EndToEnd, po, None, epoch) {
                    if row.snap.total > 0 {
                        let _ = writeln!(out, "{}", table_line(po, "e2e", "-", &row.snap));
                    }
                }
            }
        }
        for pair in epochs.windows(2) {
            let (before, after) = (pair[0], pair[1]);
            let _ = writeln!(out, "-- locality-latency delta e{before} → e{after} --");
            if let (Some(b), Some(a)) = (self.remote_share(before), self.remote_share(after)) {
                let _ = writeln!(
                    out,
                    "  remote hop share: {:.1}% → {:.1}%",
                    b * 100.0,
                    a * 100.0
                );
            }
            for &po in &pos {
                let (Some(b), Some(a)) = (
                    self.find(SpanPhase::EndToEnd, po, None, before),
                    self.find(SpanPhase::EndToEnd, po, None, after),
                ) else {
                    continue;
                };
                if b.snap.total == 0 || a.snap.total == 0 {
                    continue;
                }
                for (label, q) in [("p50", 0.50), ("p99", 0.99)] {
                    let (pb, pa) = (percentile(&b.snap, q), percentile(&a.snap, q));
                    let change = if pb == 0 {
                        String::new()
                    } else {
                        format!(
                            "  ({:+.1}%)",
                            (pa as f64 - pb as f64) / pb as f64 * 100.0
                        )
                    };
                    let _ = writeln!(
                        out,
                        "  po{po} e2e {label}: {} → {}{change}",
                        format_ns(pb),
                        format_ns(pa)
                    );
                }
            }
        }
        out
    }

    /// Writes one CSV row per span histogram under `results/<name>.csv`
    /// and returns the path.
    pub fn write_csv(&self, name: &str) -> std::path::PathBuf {
        let mut csv = CsvWriter::create(
            name,
            &[
                "phase", "po", "hop", "epoch", "count", "sum_ns", "p50_ns", "p90_ns", "p99_ns",
                "p999_ns",
            ],
        );
        for r in &self.rows {
            let phase = match r.name.phase {
                SpanPhase::Queue => "queue",
                SpanPhase::Proc => "proc",
                SpanPhase::EndToEnd => "e2e",
            };
            let hop = match r.name.remote {
                Some(true) => "remote",
                Some(false) => "local",
                None => "-",
            };
            let mut row = vec![
                phase.to_owned(),
                r.name.po.to_string(),
                hop.to_owned(),
                r.name.epoch.to_string(),
                r.snap.total.to_string(),
                r.snap.sum.to_string(),
            ];
            row.extend(PERCENTILES.map(|(_, q)| percentile(&r.snap, q).to_string()));
            csv.row(&row);
        }
        csv.finish()
    }
}

fn table_line(po: usize, phase: &str, hop: &str, snap: &HistogramSnapshot) -> String {
    let mut line = format!(
        "  po{:<2} {:<6} {:<7} {:>9}",
        po, phase, hop, snap.total
    );
    for (_, q) in PERCENTILES {
        let _ = write!(line, " {:>9}", format_ns(percentile(snap, q)));
    }
    line
}

/// Outcome of the seeded live demo pipeline.
#[derive(Debug)]
pub struct LatencyDemo {
    /// The registry holding the span histograms (and the live runtime's
    /// hot-path counters).
    pub registry: Arc<MetricsRegistry>,
    /// Parsed span rows, ready to render.
    pub report: SpanReport,
}

/// Runs the seeded Zipf chain: worst-case shifted routing for the
/// first part of the stream, a mid-stream reconfiguration wave to
/// aligned modulo routing for the rest. Sampling is 1 key in
/// `sample_denominator`; the stream is deterministic, so the sampled
/// key set is too.
#[must_use]
pub fn run_live_demo(quick: bool, sample_denominator: u64) -> LatencyDemo {
    const SERVERS: usize = 3;
    const KEYS: usize = 1_000;
    let total: u64 = if quick { 45_000 } else { 120_000 };
    let per_source = total / SERVERS as u64;

    let mut b = Topology::builder();
    let s = b.source("S", SERVERS, SourceRate::PerSecond(40_000.0), move |i| {
        let zipf = Zipf::new(KEYS, 1.0);
        let mut rng = SplitMix64::new(0x1a7e_0000 ^ i as u64);
        let mut left = per_source;
        Box::new(move || {
            if left == 0 {
                return None;
            }
            left -= 1;
            let k = zipf.sample(&mut rng) as u64;
            Some(Tuple::new([Key::new(k), Key::new(k)], 64))
        })
    });
    let a = b.stateful("A", SERVERS, CountOperator::factory());
    let bb = b.stateful("B", SERVERS, CountOperator::factory());
    b.connect(s, a, Grouping::fields_with(0, Arc::new(ModuloRouter)));
    // Worst case (paper §4.2): every A → B hop changes server.
    let hop = b.connect(a, bb, Grouping::fields_with(1, Arc::new(ShiftedRouter::new(1))));
    let topo = b.build().expect("valid chain");
    let placement = Placement::aligned(&topo, SERVERS);

    let registry = Arc::new(MetricsRegistry::new());
    let config = LiveConfig {
        metrics: Some(Arc::clone(&registry)),
        span_sampler: Some(SpanSampler::new(0xC0FFEE, sample_denominator)),
    };
    let rt = LiveRuntime::start(topo, placement, SERVERS, config);

    // Let epoch 0 accumulate all-remote spans, then swap the hop to
    // the aligned router (epoch 1: all-local).
    std::thread::sleep(Duration::from_millis(150));
    let migrations: Vec<(PoId, Key, usize, usize)> = (0..KEYS as u64)
        .map(|k| {
            let old = ((k + 1) % SERVERS as u64) as usize;
            let new = (k % SERVERS as u64) as usize;
            (bb, Key::new(k), old, new)
        })
        .filter(|&(_, _, old, new)| old != new)
        .collect();
    rt.reconfigure(LiveReconfig {
        routers: vec![(a, hop, Arc::new(ModuloRouter))],
        migrations,
    });
    let _ = rt.join();

    let report = SpanReport::from_registry(&registry);
    LatencyDemo { registry, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamloc_engine::{log2_bounds, SpanRecorder};

    #[test]
    fn percentile_walks_cumulative_buckets() {
        let snap = HistogramSnapshot {
            bounds: vec![1, 2, 4, 8],
            counts: vec![0, 50, 40, 9, 1], // 100 obs, 1 overflow
            sum: 0,
            total: 100,
        };
        assert_eq!(percentile(&snap, 0.50), 2);
        assert_eq!(percentile(&snap, 0.90), 4);
        assert_eq!(percentile(&snap, 0.99), 8);
        assert_eq!(percentile(&snap, 0.999), 16); // overflow → 2 * last bound
        let empty = HistogramSnapshot {
            bounds: vec![1],
            counts: vec![0, 0],
            sum: 0,
            total: 0,
        };
        assert_eq!(percentile(&empty, 0.5), 0);
    }

    #[test]
    fn formats_ns_at_human_scale() {
        assert_eq!(format_ns(640), "640ns");
        assert_eq!(format_ns(1_200), "1.2µs");
        assert_eq!(format_ns(34_000_000), "34.0ms");
        assert_eq!(format_ns(2_500_000_000), "2.50s");
    }

    #[test]
    fn report_renders_tables_and_delta() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut rec = SpanRecorder::new(Some(Arc::clone(&reg)));
        // Epoch 0: remote hops, slow end-to-end. Epoch 1: local, fast.
        for _ in 0..100 {
            rec.record_hop(1, 0, true, 4_000, 1_000);
            rec.record_end(2, 0, 1_000_000);
            rec.record_hop(1, 1, false, 500, 1_000);
            rec.record_end(2, 1, 100_000);
        }
        let report = SpanReport::from_registry(&reg);
        assert_eq!(report.epochs(), vec![0, 1]);
        assert!((report.remote_share(0).unwrap() - 1.0).abs() < 1e-9);
        assert!((report.remote_share(1).unwrap() - 0.0).abs() < 1e-9);
        let text = report.render();
        assert!(text.contains("== epoch 0 =="), "{text}");
        assert!(text.contains("== epoch 1 =="), "{text}");
        assert!(text.contains("remote"), "{text}");
        assert!(text.contains("locality-latency delta e0 → e1"), "{text}");
        assert!(text.contains("remote hop share: 100.0% → 0.0%"), "{text}");
        assert!(text.contains("po2 e2e p50"), "{text}");
    }

    #[test]
    fn non_span_histograms_are_ignored() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("other_latency", "", &log2_bounds(4));
        h.observe(3);
        let report = SpanReport::from_registry(&reg);
        assert!(report.rows.is_empty());
        assert!(report.render().contains("no sampled spans"));
    }
}
