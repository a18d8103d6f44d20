//! The shard executor under saturation: traffic between two operator
//! shards in both directions, with a source that stages tuples as fast
//! as the runtime admits them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use streamloc::engine::{
    CountOperator, Grouping, Key, LiveConfig, LiveRuntime, MetricsRegistry, ModuloRouter,
    OpContext, Operator, Placement, SourceRate, Topology, Tuple,
};

const TOTAL: u64 = 1_000_000;
const KEYS: u64 = 1_000;

/// Tuple `c` of the stream: `(k, k + 1)`, so A's instance `k % 2` sends
/// it to B's instance `(k + 1) % 2`, on the other placement tag.
fn tuple(c: u64) -> Tuple {
    let k = (c.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % KEYS;
    Tuple::new([Key::new(k), Key::new(k + 1)], 0)
}

/// A counting sink that holds its first tuple until `gate` opens.
struct GatedCount {
    gate: Arc<AtomicBool>,
}

impl Operator for GatedCount {
    fn process(&mut self, tuple: Tuple, ctx: &mut OpContext<'_>) {
        self.on_batch(&[tuple], ctx);
    }

    fn on_batch(&mut self, tuples: &[Tuple], ctx: &mut OpContext<'_>) {
        while !self.gate.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        CountOperator.on_batch(tuples, ctx);
    }
}

/// Two operator shards hand tuples to each other in both directions,
/// which is a cycle: shard 0's A sends to shard 1's B and shard 1's A
/// to shard 0's B. Operator shards never block on a send, so the cycle
/// cannot deadlock; the source alone is held back. B holds its first
/// tuple until the test opens its gate, so the source runs into the
/// admission bound and must stop there. Then the gate opens, a million
/// tuples drain, and every per-key count is exact. The in-flight peak
/// never exceeds the bound by more than one stage on the source's one
/// out edge. (On a single hardware thread both tags share one shard.)
#[test]
fn a_saturating_source_stops_at_the_backlog_bound() {
    let emitted = Arc::new(AtomicU64::new(0));
    let gate = Arc::new(AtomicBool::new(false));
    let mut b = Topology::builder();
    let counter = Arc::clone(&emitted);
    let s = b.source("S", 1, SourceRate::Saturate, move |_| {
        let counter = Arc::clone(&counter);
        Box::new(move || {
            let c = counter.load(Ordering::Relaxed);
            counter.store(c + 1, Ordering::Relaxed);
            (c < TOTAL).then(|| tuple(c))
        })
    });
    let a = b.stateful("A", 2, CountOperator::factory());
    let gated = Arc::clone(&gate);
    let bb = b.stateful(
        "B",
        2,
        Box::new(move |_| {
            let gate = Arc::clone(&gated);
            Box::new(GatedCount { gate })
        }),
    );
    b.connect(s, a, Grouping::fields_with(0, Arc::new(ModuloRouter)));
    b.connect(a, bb, Grouping::fields_with(1, Arc::new(ModuloRouter)));
    let topo = b.build().unwrap();
    let placement = Placement::aligned(&topo, 2);
    let registry = Arc::new(MetricsRegistry::new());
    let config = LiveConfig {
        metrics: Some(Arc::clone(&registry)),
        ..LiveConfig::default()
    };
    let peak = || {
        let snapshot = registry.snapshot().into_iter();
        let mut peak = snapshot.filter(|(name, _)| name == "live_backlog_max_tuples");
        peak.next().map_or(0, |(_, n)| n)
    };
    let rt = LiveRuntime::start(topo, placement, 2, config);

    let deadline = Instant::now() + Duration::from_secs(30);
    while peak() < LiveRuntime::BACKLOG_BOUND {
        assert!(Instant::now() < deadline, "the backlog never reached the bound");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Held at the bound: the source stops staging.
    std::thread::sleep(Duration::from_millis(50));
    let held = emitted.load(Ordering::Relaxed);
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(emitted.load(Ordering::Relaxed), held, "the source kept staging");
    assert!(held < TOTAL / 2, "{held} tuples staged past a closed gate");
    gate.store(true, Ordering::Release);
    let reports = rt.join();

    let mut want: [HashMap<Key, u64>; 2] = Default::default();
    for t in (0..TOTAL).map(tuple) {
        for (field, counts) in want.iter_mut().enumerate() {
            *counts.entry(t.key(field)).or_default() += 1;
        }
    }
    for (po, want) in [(a, &want[0]), (bb, &want[1])] {
        let mut got: HashMap<Key, u64> = HashMap::new();
        for r in reports.iter().filter(|r| r.po == po) {
            for (&key, v) in &r.state {
                *got.entry(key).or_default() += v.as_count().unwrap();
            }
        }
        assert_eq!(&got, want, "{po:?} per-key counts");
    }
    let bound = LiveRuntime::BACKLOG_BOUND + LiveRuntime::BATCH as u64;
    assert!(peak() <= bound, "{} tuples in flight, bound {bound}", peak());
}
