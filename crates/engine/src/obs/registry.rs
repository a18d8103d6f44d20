//! Named counters, gauges and fixed-bucket histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`s
//! around relaxed atomics: cloning a handle shares the underlying
//! value, so hot paths increment without locks. The
//! [`MetricsRegistry`] itself is only locked at registration and
//! render time.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Power-of-two histogram bucket upper bounds: `[1, 2, 4, ..., 2^max_exp]`.
///
/// The shared bucket schema for every latency-shaped histogram in the
/// engine (window latency, wave duration, span queue/processing time):
/// log2 buckets give constant relative error (~2×) across nine orders
/// of magnitude with `max_exp + 1` buckets, and a fixed formula means
/// sim and live histograms are always mergeable.
///
/// # Panics
///
/// Panics if `max_exp >= 64` (the bound would overflow `u64`).
#[must_use]
pub fn log2_bounds(max_exp: u32) -> Vec<u64> {
    assert!(max_exp < 64, "2^{max_exp} overflows u64");
    (0..=max_exp).map(|e| 1u64 << e).collect()
}

/// A monotonically increasing counter. Clones share the value.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a counter not attached to any registry (always valid to
    /// increment; simply never exported).
    #[must_use]
    pub fn detached() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value. Clones share the value.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Creates a gauge not attached to any registry.
    #[must_use]
    pub fn detached() -> Self {
        Self::default()
    }

    /// Replaces the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if it is larger (monotonic high-water
    /// mark; racy reads are fine for telemetry).
    #[inline]
    pub fn max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds of the buckets, strictly increasing. An implicit
    /// `+Inf` bucket follows the last bound.
    bounds: Vec<u64>,
    /// One count per bound, plus the overflow bucket.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    total: AtomicU64,
}

/// A fixed-bucket histogram of `u64` observations. Clones share the
/// buckets.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Creates a histogram with the given strictly increasing bucket
    /// upper bounds (an overflow bucket is added automatically).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    #[must_use]
    pub fn with_bounds(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let idx = self
            .0
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.0.bounds.len());
        self.0.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
        self.0.total.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the current state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.0.bounds.clone(),
            counts: self
                .0
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.0.sum.load(Ordering::Relaxed),
            total: self.0.total.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (the overflow bucket is implicit).
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: u64,
    /// Number of observations.
    pub total: u64,
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug, Clone)]
struct Entry {
    name: String,
    help: String,
    metric: Metric,
}

/// A registry of named metrics, renderable as Prometheus text format
/// or a flat `(name, value)` snapshot.
///
/// Registration is idempotent: asking for an existing name returns a
/// handle to the same underlying value (panicking only if the kind
/// differs), so the sim and live runtime can share one registry.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or retrieves) a counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let mut entries = crate::lock(&self.entries);
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            match &e.metric {
                Metric::Counter(c) => return c.clone(),
                _ => panic!("metric {name} already registered with a different kind"),
            }
        }
        let c = Counter::detached();
        entries.push(Entry {
            name: name.to_owned(),
            help: help.to_owned(),
            metric: Metric::Counter(c.clone()),
        });
        c
    }

    /// Registers (or retrieves) a gauge.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let mut entries = crate::lock(&self.entries);
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            match &e.metric {
                Metric::Gauge(g) => return g.clone(),
                _ => panic!("metric {name} already registered with a different kind"),
            }
        }
        let g = Gauge::detached();
        entries.push(Entry {
            name: name.to_owned(),
            help: help.to_owned(),
            metric: Metric::Gauge(g.clone()),
        });
        g
    }

    /// Registers (or retrieves) a fixed-bucket histogram.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind, or
    /// if `bounds` is invalid (see [`Histogram::with_bounds`]).
    pub fn histogram(&self, name: &str, help: &str, bounds: &[u64]) -> Histogram {
        let mut entries = crate::lock(&self.entries);
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            match &e.metric {
                Metric::Histogram(h) => return h.clone(),
                _ => panic!("metric {name} already registered with a different kind"),
            }
        }
        let h = Histogram::with_bounds(bounds);
        entries.push(Entry {
            name: name.to_owned(),
            help: help.to_owned(),
            metric: Metric::Histogram(h.clone()),
        });
        h
    }

    /// Flat `(name, value)` snapshot of counters and gauges
    /// (histograms are summarized as `<name>_sum` and `<name>_count`).
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let entries = crate::lock(&self.entries);
        let mut out = Vec::with_capacity(entries.len());
        for e in entries.iter() {
            match &e.metric {
                Metric::Counter(c) => out.push((e.name.clone(), c.get())),
                Metric::Gauge(g) => out.push((e.name.clone(), g.get())),
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    out.push((format!("{}_sum", e.name), s.sum));
                    out.push((format!("{}_count", e.name), s.total));
                }
            }
        }
        out
    }

    /// Snapshots every registered histogram as `(name, snapshot)`
    /// pairs, in registration order. Counters and gauges are skipped;
    /// use [`snapshot`](Self::snapshot) for those.
    #[must_use]
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        let entries = crate::lock(&self.entries);
        entries
            .iter()
            .filter_map(|e| match &e.metric {
                Metric::Histogram(h) => Some((e.name.clone(), h.snapshot())),
                _ => None,
            })
            .collect()
    }

    /// Renders every metric in the Prometheus text exposition format.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let entries = crate::lock(&self.entries);
        let mut out = String::new();
        for e in entries.iter() {
            let _ = writeln!(out, "# HELP {} {}", e.name, e.help);
            match &e.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {} counter", e.name);
                    let _ = writeln!(out, "{} {}", e.name, c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {} gauge", e.name);
                    let _ = writeln!(out, "{} {}", e.name, g.get());
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {} histogram", e.name);
                    let s = h.snapshot();
                    let mut cumulative = 0u64;
                    for (i, &bound) in s.bounds.iter().enumerate() {
                        cumulative += s.counts[i];
                        let _ = writeln!(
                            out,
                            "{}_bucket{{le=\"{}\"}} {}",
                            e.name, bound, cumulative
                        );
                    }
                    cumulative += s.counts[s.bounds.len()];
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", e.name, cumulative);
                    let _ = writeln!(out, "{}_sum {}", e.name, s.sum);
                    let _ = writeln!(out, "{}_count {}", e.name, s.total);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_value() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("tuples_routed", "tuples routed");
        let b = reg.counter("tuples_routed", "tuples routed");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(reg.snapshot(), vec![("tuples_routed".to_owned(), 4)]);
    }

    #[test]
    fn histogram_buckets_and_render() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", "latency", &[1, 4, 16]);
        for v in [0, 1, 2, 5, 100] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 1, 1, 1]);
        assert_eq!(s.total, 5);
        assert_eq!(s.sum, 108);
        let text = reg.render_prometheus();
        assert!(text.contains("lat_bucket{le=\"4\"} 3"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("lat_count 5"));
    }

    #[test]
    fn gauge_max_is_high_water_mark() {
        let g = Gauge::detached();
        g.max(5);
        g.max(3);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn log2_bounds_pinned_edges() {
        // Pinned constants: these edges are a wire format (sim and live
        // histograms must stay mergeable across versions).
        assert_eq!(log2_bounds(0), vec![1]);
        assert_eq!(log2_bounds(3), vec![1, 2, 4, 8]);
        assert_eq!(log2_bounds(6), vec![1, 2, 4, 8, 16, 32, 64]);
        let ns = log2_bounds(36);
        assert_eq!(ns.len(), 37);
        assert_eq!(ns[0], 1);
        assert_eq!(ns[10], 1024);
        assert_eq!(ns[30], 1 << 30);
        assert_eq!(*ns.last().unwrap(), 68_719_476_736); // 2^36 ns ≈ 68.7 s
        assert!(ns.windows(2).all(|w| w[1] == 2 * w[0]));
    }

    #[test]
    fn histograms_accessor_lists_only_histograms() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("c", "");
        let h = reg.histogram("h", "", &log2_bounds(2));
        h.observe(3);
        let hists = reg.histograms();
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].0, "h");
        assert_eq!(hists[0].1.bounds, vec![1, 2, 4]);
        assert_eq!(hists[0].1.total, 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x", "");
        let _ = reg.gauge("x", "");
    }
}
