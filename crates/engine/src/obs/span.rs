//! Sampled end-to-end span tracing for the data plane.
//!
//! The paper's headline claim — locality-aware routing cuts
//! end-to-end tuple latency (Fig. 9–11) — needs per-tuple timing to
//! verify, but stamping every tuple would dominate the hot path. The
//! compromise is a deterministic per-key sampler: a splitmix64 mix of
//! `key ^ seed` against a `u64::MAX / n` threshold selects roughly one
//! key in `n`, and because the decision is a pure function of the key,
//! a columnar run of equal keys costs exactly one branch
//! ([`SpanSampler::stamp_batch`]) and the sampled set is identical
//! whether tuples are processed one at a time or in batches.
//!
//! Sampled tuples carry two stamps (see
//! [`Tuple::set_span_origin`](crate::Tuple::set_span_origin) /
//! [`set_span_hop`](crate::Tuple::set_span_hop)): the origin time,
//! written once at the source, and a per-hop send time with the
//! local/remote bit. Each receiving hop turns them into three
//! log2-bucketed histograms in the [`MetricsRegistry`] — queue wait,
//! processing time, and (at sinks) end-to-end latency — keyed by
//! operator, locality and the routing epoch active at record time, so
//! latency distributions can be compared before and after each
//! reconfiguration wave. The simulator feeds the same histograms from
//! window arithmetic, so simulated and live latency reports share one
//! schema ([`SpanMetricName`]).

use std::sync::Arc;

use streamloc_sketch::KeyMap;

use crate::key::{splitmix64, Key};
use crate::tuple::{tuple_run_len, Tuple};

use super::registry::{log2_bounds, Histogram, MetricsRegistry};

/// Largest histogram bound exponent for span timings: 2^36 ns ≈ 68.7 s
/// covers any latency this engine can produce before the run is
/// declared stuck for other reasons.
const SPAN_MAX_EXP: u32 = 36;

/// Deterministic per-key span sampler.
///
/// A key is sampled iff `splitmix64(key ^ seed) <= u64::MAX / n`, so
/// the decision is stable across runs, processes and batch shapes —
/// the property the `stamp_batch` ≡ per-tuple property tests pin.
///
/// # Example
///
/// ```
/// use streamloc_engine::{Key, SpanSampler};
///
/// let s = SpanSampler::new(0xC0FFEE, 64); // ~1/64 of keys
/// let sampled = (0..10_000).filter(|&v| s.sampled(Key::new(v))).count();
/// assert!((80..240).contains(&sampled), "{sampled} of 10000");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SpanSampler {
    seed: u64,
    threshold: u64,
    denominator: u64,
}

impl SpanSampler {
    /// Creates a sampler selecting roughly one key in `denominator`.
    ///
    /// # Panics
    ///
    /// Panics if `denominator` is 0.
    #[must_use]
    pub fn new(seed: u64, denominator: u64) -> Self {
        assert!(denominator > 0, "sampling denominator must be positive");
        Self {
            seed,
            threshold: u64::MAX / denominator,
            denominator,
        }
    }

    /// The configured `1/n` sampling denominator.
    #[must_use]
    pub fn denominator(&self) -> u64 {
        self.denominator
    }

    /// Whether `key` belongs to the sampled set. Pure and
    /// deterministic: one multiply-shift mix and one compare.
    #[inline]
    #[must_use]
    pub fn sampled(&self, key: Key) -> bool {
        splitmix64(key.value() ^ self.seed) <= self.threshold
    }

    /// Stamps the origin time onto every sampled tuple of a columnar
    /// batch. Batches arrive grouped into runs of equal keys, so the
    /// sampling decision costs one branch per run, not per tuple.
    ///
    /// Tuples with no field `field` are never sampled.
    pub fn stamp_batch(&self, tuples: &mut [Tuple], field: usize, now_ns: u64) {
        let mut rest = tuples;
        while !rest.is_empty() {
            if rest[0].field_count() <= field {
                return;
            }
            let len = tuple_run_len(rest, field);
            if self.sampled(rest[0].key(field)) {
                for t in &mut rest[..len] {
                    t.set_span_origin(now_ns);
                }
            }
            rest = &mut rest[len..];
        }
    }
}

/// Which timing a span histogram measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPhase {
    /// Time between the sender's hop stamp and the receiver's dequeue
    /// (channel + output-buffer residency).
    Queue,
    /// Operator processing time at the receiving hop.
    Proc,
    /// Source origin to sink completion (recorded at sinks only).
    EndToEnd,
}

/// Structured form of a span histogram's registry name.
///
/// The name is the schema: both the live runtime and the simulator
/// emit it, and `latency-report` parses it back. Formats:
///
/// * `span_queue_ns_po{p}_{local|remote}_e{epoch}`
/// * `span_proc_ns_po{p}_{local|remote}_e{epoch}`
/// * `span_e2e_ns_po{p}_e{epoch}`
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanMetricName {
    /// Which timing the histogram holds.
    pub phase: SpanPhase,
    /// Receiving operator (`PoId` index).
    pub po: usize,
    /// Whether the hop crossed workers; `None` for end-to-end, which
    /// aggregates over whole paths.
    pub remote: Option<bool>,
    /// Routing epoch active when the observation was recorded.
    pub epoch: u64,
}

impl SpanMetricName {
    /// Renders the canonical registry name.
    #[must_use]
    pub fn render(&self) -> String {
        match self.phase {
            SpanPhase::EndToEnd => format!("span_e2e_ns_po{}_e{}", self.po, self.epoch),
            phase => format!(
                "span_{}_ns_po{}_{}_e{}",
                if phase == SpanPhase::Queue { "queue" } else { "proc" },
                self.po,
                if self.remote == Some(true) { "remote" } else { "local" },
                self.epoch,
            ),
        }
    }

    /// Parses a registry name produced by [`render`](Self::render);
    /// `None` for non-span metrics.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        let rest = name.strip_prefix("span_")?;
        let (phase, rest) = if let Some(r) = rest.strip_prefix("queue_ns_") {
            (SpanPhase::Queue, r)
        } else if let Some(r) = rest.strip_prefix("proc_ns_") {
            (SpanPhase::Proc, r)
        } else if let Some(r) = rest.strip_prefix("e2e_ns_") {
            (SpanPhase::EndToEnd, r)
        } else {
            return None;
        };
        let rest = rest.strip_prefix("po")?;
        let (po_str, rest) = rest.split_once('_')?;
        let po = po_str.parse().ok()?;
        let (remote, rest) = match phase {
            SpanPhase::EndToEnd => (None, rest),
            _ => {
                let (loc, r) = rest.split_once('_')?;
                match loc {
                    "local" => (Some(false), r),
                    "remote" => (Some(true), r),
                    _ => return None,
                }
            }
        };
        let epoch = rest.strip_prefix('e')?.parse().ok()?;
        Some(Self {
            phase,
            po,
            remote,
            epoch,
        })
    }
}

/// Per-(queue, proc) histogram pair for one hop class.
#[derive(Debug, Clone)]
struct HopHists {
    queue: Histogram,
    proc: Histogram,
}

/// Sink for span observations: lazily registers one histogram per
/// `(operator, epoch, locality)` class and caches the handles, so the
/// hot path after the first observation of a class is two relaxed
/// atomic adds.
///
/// Each live worker owns its own recorder; registration in the shared
/// [`MetricsRegistry`] is idempotent, so recorders on different
/// threads share the underlying buckets. Without a registry the
/// histograms are detached (counted but never exported), which keeps
/// the call sites branch-free.
#[derive(Debug, Default)]
pub struct SpanRecorder {
    registry: Option<Arc<MetricsRegistry>>,
    hops: KeyMap<(usize, u64, bool), HopHists>,
    ends: KeyMap<(usize, u64), Histogram>,
}

impl SpanRecorder {
    /// Creates a recorder exporting through `registry` (or detached
    /// when `None`).
    #[must_use]
    pub fn new(registry: Option<Arc<MetricsRegistry>>) -> Self {
        Self {
            registry,
            hops: KeyMap::default(),
            ends: KeyMap::default(),
        }
    }

    fn histogram(registry: Option<&Arc<MetricsRegistry>>, name: &SpanMetricName) -> Histogram {
        let bounds = log2_bounds(SPAN_MAX_EXP);
        match registry {
            Some(reg) => reg.histogram(
                &name.render(),
                "span timing in nanoseconds (log2 buckets)",
                &bounds,
            ),
            None => Histogram::with_bounds(&bounds),
        }
    }

    /// Records one sampled tuple's hop: `queue_ns` waiting to be
    /// dequeued and `proc_ns` being processed at operator `po`, under
    /// routing epoch `epoch`, over a local or `remote` hop.
    pub fn record_hop(&mut self, po: usize, epoch: u64, remote: bool, queue_ns: u64, proc_ns: u64) {
        let registry = self.registry.as_ref();
        let hists = self.hops.entry((po, epoch, remote)).or_insert_with(|| {
            let base = SpanMetricName {
                phase: SpanPhase::Queue,
                po,
                remote: Some(remote),
                epoch,
            };
            HopHists {
                queue: Self::histogram(registry, &base),
                proc: Self::histogram(
                    registry,
                    &SpanMetricName {
                        phase: SpanPhase::Proc,
                        ..base
                    },
                ),
            }
        });
        hists.queue.observe(queue_ns);
        hists.proc.observe(proc_ns);
    }

    /// Records one sampled tuple completing its path at sink `po`:
    /// `total_ns` from source origin stamp to sink completion.
    pub fn record_end(&mut self, po: usize, epoch: u64, total_ns: u64) {
        let registry = self.registry.as_ref();
        self.ends
            .entry((po, epoch))
            .or_insert_with(|| {
                Self::histogram(
                    registry,
                    &SpanMetricName {
                        phase: SpanPhase::EndToEnd,
                        po,
                        remote: None,
                        epoch,
                    },
                )
            })
            .observe(total_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_roughly_one_in_n() {
        let s = SpanSampler::new(7, 64);
        let first: Vec<bool> = (0..50_000).map(|v| s.sampled(Key::new(v))).collect();
        let second: Vec<bool> = (0..50_000).map(|v| s.sampled(Key::new(v))).collect();
        assert_eq!(first, second);
        let hits = first.iter().filter(|&&b| b).count();
        // Expectation 781; allow generous slack, determinism pins it anyway.
        assert!((500..1200).contains(&hits), "{hits} of 50000 sampled");
        assert_eq!(s.denominator(), 64);
    }

    #[test]
    fn different_seeds_sample_different_sets() {
        let a = SpanSampler::new(1, 16);
        let b = SpanSampler::new(2, 16);
        let set = |s: &SpanSampler| -> Vec<u64> {
            (0..10_000).filter(|&v| s.sampled(Key::new(v))).collect()
        };
        assert_ne!(set(&a), set(&b));
    }

    #[test]
    fn stamp_batch_marks_whole_runs() {
        let s = SpanSampler::new(3, 4);
        // Find one sampled and one unsampled key.
        let hit = (0..1000).find(|&v| s.sampled(Key::new(v))).unwrap();
        let miss = (0..1000).find(|&v| !s.sampled(Key::new(v))).unwrap();
        let t = |v: u64| Tuple::new([Key::new(v)], 0);
        let mut batch = vec![t(hit), t(hit), t(miss), t(miss), t(hit)];
        s.stamp_batch(&mut batch, 0, 99);
        let stamped: Vec<bool> = batch.iter().map(Tuple::is_span_sampled).collect();
        assert_eq!(stamped, vec![true, true, false, false, true]);
        assert_eq!(batch[0].span_origin_ns(), 99);
        // Keyless tuples never sample.
        let mut keyless = vec![Tuple::new([], 0)];
        s.stamp_batch(&mut keyless, 0, 99);
        assert!(!keyless[0].is_span_sampled());
    }

    #[test]
    fn metric_name_round_trips() {
        let names = [
            SpanMetricName {
                phase: SpanPhase::Queue,
                po: 2,
                remote: Some(false),
                epoch: 0,
            },
            SpanMetricName {
                phase: SpanPhase::Proc,
                po: 11,
                remote: Some(true),
                epoch: 3,
            },
            SpanMetricName {
                phase: SpanPhase::EndToEnd,
                po: 5,
                remote: None,
                epoch: 17,
            },
        ];
        for n in names {
            assert_eq!(SpanMetricName::parse(&n.render()), Some(n), "{}", n.render());
        }
        assert_eq!(
            SpanMetricName {
                phase: SpanPhase::Queue,
                po: 2,
                remote: Some(false),
                epoch: 0
            }
            .render(),
            "span_queue_ns_po2_local_e0"
        );
        assert_eq!(SpanMetricName::parse("live_tuples_total"), None);
        assert_eq!(SpanMetricName::parse("span_queue_ns_poX_local_e0"), None);
    }

    #[test]
    fn recorder_registers_and_shares_histograms() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut a = SpanRecorder::new(Some(Arc::clone(&reg)));
        let mut b = SpanRecorder::new(Some(Arc::clone(&reg)));
        a.record_hop(1, 0, false, 10, 5);
        b.record_hop(1, 0, false, 20, 7);
        a.record_hop(1, 0, true, 100, 5);
        a.record_end(2, 0, 1000);
        let hists = reg.histograms();
        let get = |name: &str| {
            hists
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| s.clone())
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        // Two recorders on the same registry share one histogram.
        assert_eq!(get("span_queue_ns_po1_local_e0").total, 2);
        assert_eq!(get("span_queue_ns_po1_local_e0").sum, 30);
        assert_eq!(get("span_proc_ns_po1_local_e0").total, 2);
        assert_eq!(get("span_queue_ns_po1_remote_e0").total, 1);
        assert_eq!(get("span_e2e_ns_po2_e0").sum, 1000);
        // Detached recorder works without a registry.
        let mut d = SpanRecorder::new(None);
        d.record_hop(0, 0, false, 1, 1);
        d.record_end(0, 0, 1);
    }
}
