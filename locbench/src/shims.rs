//! Timing shims for the layer objects the benchmark hands to the live
//! runtime: routers ([`KeyRouter`]), operators ([`Operator`]) and pair
//! observers ([`PairObserver`]).
//!
//! Each shim forwards every trait method to the wrapped object, so
//! routing decisions, operator state and sketch contents are exactly
//! those of an unwrapped run; it only adds two clock reads per call.
//! Operators and observers are owned by one worker thread each, so
//! they get one accumulator per instance. A router is shared by every
//! instance of the sending operator, so its accumulator has one
//! cache-line-padded slot per worker thread.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use streamloc::engine::{
    DestRun, Key, KeyRouter, OpContext, Operator, PairObserver, StateValue, Tuple,
};

/// Calls, items handled and nanoseconds spent inside one layer.
///
/// The counters are statistics that publish no other data, so relaxed
/// ordering suffices; they are read after the workers are joined.
#[derive(Debug, Default)]
pub struct Acc {
    calls: AtomicU64,
    items: AtomicU64,
    ns: AtomicU64,
}

/// A snapshot of one or more [`Acc`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Calls into the layer.
    pub calls: u64,
    /// Items (keys, tuples, observations) the calls covered.
    pub items: u64,
    /// Nanoseconds spent inside the calls.
    pub ns: u64,
}

impl Totals {
    /// Nanoseconds per item; 0.0 when idle.
    #[must_use]
    pub fn ns_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.ns as f64 / self.items as f64
        }
    }

    /// Items per call; 0.0 when idle.
    #[must_use]
    pub fn items_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.items as f64 / self.calls as f64
        }
    }
}

impl std::ops::Add for Totals {
    type Output = Totals;
    fn add(self, o: Totals) -> Totals {
        Totals {
            calls: self.calls + o.calls,
            items: self.items + o.items,
            ns: self.ns + o.ns,
        }
    }
}

impl std::iter::Sum for Totals {
    fn sum<I: Iterator<Item = Totals>>(iter: I) -> Totals {
        iter.fold(Totals::default(), |a, b| a + b)
    }
}

impl Acc {
    fn record(&self, items: u64, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Current totals.
    #[must_use]
    pub fn totals(&self) -> Totals {
        Totals {
            calls: self.calls.load(Ordering::Relaxed),
            items: self.items.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
        }
    }
}

/// One accumulator on a cache line of its own.
#[repr(align(128))]
#[derive(Debug, Default)]
struct PaddedAcc(Acc);

/// Accumulator slots of a shared router: more than the worker threads
/// of any benchmark topology, so threads rarely share a slot.
const ROUTER_SLOTS: usize = 16;

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % ROUTER_SLOTS;
}

/// Timing shim around a shared [`KeyRouter`].
pub struct TimedRouter {
    inner: Arc<dyn KeyRouter>,
    slots: Vec<PaddedAcc>,
}

impl std::fmt::Debug for TimedRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TimedRouter({})", self.inner.name())
    }
}

impl TimedRouter {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: Arc<dyn KeyRouter>) -> Arc<Self> {
        Arc::new(Self {
            inner,
            slots: (0..ROUTER_SLOTS).map(|_| PaddedAcc::default()).collect(),
        })
    }

    fn acc(&self) -> &Acc {
        &self.slots[SLOT.with(|s| *s)].0
    }

    /// Calls and keys routed so far, over all threads.
    #[must_use]
    pub fn totals(&self) -> Totals {
        self.slots.iter().map(|s| s.0.totals()).sum()
    }
}

impl KeyRouter for TimedRouter {
    fn route(&self, key: Key, instances: usize) -> u32 {
        let t = Instant::now();
        let dest = self.inner.route(key, instances);
        self.acc().record(1, t);
        dest
    }

    fn route_batch(&self, keys: &[Key], instances: usize, out: &mut Vec<DestRun>) {
        let t = Instant::now();
        self.inner.route_batch(keys, instances, out);
        self.acc().record(keys.len() as u64, t);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn epoch(&self) -> Option<u64> {
        self.inner.epoch()
    }
}

/// Timing shim around one operator instance.
pub struct TimedOperator {
    inner: Box<dyn Operator>,
    acc: Arc<Acc>,
}

impl TimedOperator {
    /// Wraps `inner`, accumulating into `acc`.
    #[must_use]
    pub fn new(inner: Box<dyn Operator>, acc: Arc<Acc>) -> Self {
        Self { inner, acc }
    }
}

impl Operator for TimedOperator {
    fn process(&mut self, tuple: Tuple, ctx: &mut OpContext<'_>) {
        let t = Instant::now();
        self.inner.process(tuple, ctx);
        self.acc.record(1, t);
    }

    fn init_state(&self) -> StateValue {
        self.inner.init_state()
    }

    fn on_batch(&mut self, tuples: &[Tuple], ctx: &mut OpContext<'_>) {
        let t = Instant::now();
        self.inner.on_batch(tuples, ctx);
        self.acc.record(tuples.len() as u64, t);
    }
}

/// Timing shim around one pair observer.
pub struct TimedObserver {
    inner: Box<dyn PairObserver>,
    acc: Arc<Acc>,
}

impl TimedObserver {
    /// Wraps `inner`, accumulating into `acc`.
    #[must_use]
    pub fn new(inner: Box<dyn PairObserver>, acc: Arc<Acc>) -> Self {
        Self { inner, acc }
    }
}

impl PairObserver for TimedObserver {
    fn observe(&mut self, input: Key, output: Key) {
        let t = Instant::now();
        self.inner.observe(input, output);
        self.acc.record(1, t);
    }

    fn observe_run(&mut self, input: Key, output: Key, count: u64) {
        let t = Instant::now();
        self.inner.observe_run(input, output, count);
        self.acc.record(count, t);
    }
}

/// Per-instance accumulators for one operator or observer set.
#[must_use]
pub fn accs(instances: usize) -> Vec<Arc<Acc>> {
    (0..instances).map(|_| Arc::new(Acc::default())).collect()
}

/// Sum over per-instance accumulators.
#[must_use]
pub fn sum(accs: &[Arc<Acc>]) -> Totals {
    accs.iter().map(|a| a.totals()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamloc::engine::HashRouter;

    #[test]
    fn router_shim_forwards_and_counts() {
        let shim = TimedRouter::new(Arc::new(HashRouter));
        let keys: Vec<Key> = (0..100).map(Key::new).collect();
        let mut out = Vec::new();
        shim.route_batch(&keys, 4, &mut out);
        let mut plain = Vec::new();
        HashRouter.route_batch(&keys, 4, &mut plain);
        assert_eq!(out, plain);
        assert_eq!(shim.route(Key::new(7), 4), HashRouter.route(Key::new(7), 4));
        let t = shim.totals();
        assert_eq!((t.calls, t.items), (2, 101));
        assert_eq!(shim.name(), HashRouter.name());
    }
}
