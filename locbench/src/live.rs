//! Helpers shared by the two live-runtime workloads: the traced pass's
//! shims and registry, and end-of-run synchronisation.

use std::sync::Arc;
use std::time::Duration;

use streamloc::engine::{
    Counter, KeyRouter, LiveConfig, LiveRuntime, MetricsRegistry, Operator, OperatorFactory,
    PairObserver, PoId, SpanMetricName, SpanPhase, SpanSampler,
};
use streamloc::routing::RoutingTable;

use crate::report::Metrics;
use crate::shims::{self, Acc, TimedObserver, TimedOperator, TimedRouter, Totals};
use crate::stats::histogram_quantile;

/// Span sampling rate of the traced pass: one key in 64.
pub const SPAN_DENOMINATOR: u64 = 64;

/// Span sampler seed. Sampling is per key of the source's routing
/// field, the location, and the live workloads have only 100
/// locations: at 1/64 most seeds sample none of them. This one samples
/// locations 25 and 53, about 1% of tuples.
pub const SPAN_SEED: u64 = 0x5a_3b1e;

/// The traced pass's instruments for one live topology: a metrics
/// registry, 1/64 span sampling, and timing shims around every router,
/// operator and pair observer the benchmark supplies.
#[derive(Debug)]
pub struct LiveTrace {
    registry: Arc<MetricsRegistry>,
    /// Per-instance accumulators of `by_location` then `by_hashtag`.
    ops: [Vec<Arc<Acc>>; 2],
    observers: Vec<Arc<Acc>>,
    tables: Vec<Arc<TimedRouter>>,
    hash_routers: Vec<Arc<TimedRouter>>,
    hash_fallback: Counter,
    stale_fallback: Counter,
}

impl LiveTrace {
    /// Instruments for `by_location` and `by_hashtag` operators of
    /// `instances` instances each, trackers on every `by_location`.
    #[must_use]
    pub fn new(instances: usize) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let hash_fallback = registry.counter(
            "routing_hash_fallback_total",
            "table lookups that hash-routed because the key had no entry",
        );
        let stale_fallback = registry.counter(
            "routing_stale_entry_fallback_total",
            "table lookups that hash-routed because the entry was out of range",
        );
        Self {
            registry,
            ops: [shims::accs(instances), shims::accs(instances)],
            observers: shims::accs(instances),
            tables: Vec::new(),
            hash_routers: Vec::new(),
            hash_fallback,
            stale_fallback,
        }
    }

    /// The runtime configuration of a traced run.
    #[must_use]
    pub fn config(&self) -> LiveConfig {
        LiveConfig {
            metrics: Some(Arc::clone(&self.registry)),
            span_sampler: Some(SpanSampler::new(SPAN_SEED, SPAN_DENOMINATOR)),
            ..LiveConfig::default()
        }
    }

    /// `table` with fallback counters attached, behind a timing shim.
    pub fn table(&mut self, mut table: RoutingTable) -> Arc<dyn KeyRouter> {
        table.attach_fallback_counters(self.hash_fallback.clone(), self.stale_fallback.clone());
        let shim = TimedRouter::new(Arc::new(table));
        self.tables.push(Arc::clone(&shim));
        shim
    }

    /// A non-table router behind a timing shim.
    pub fn router(&mut self, inner: Arc<dyn KeyRouter>) -> Arc<dyn KeyRouter> {
        let shim = TimedRouter::new(inner);
        self.hash_routers.push(Arc::clone(&shim));
        shim
    }

    /// Accumulators of operator `which` (0 = `by_location`, 1 =
    /// `by_hashtag`), for [`operator_factory`].
    #[must_use]
    pub fn op_accs(&self, which: usize) -> Vec<Arc<Acc>> {
        self.ops[which].clone()
    }

    /// `observer` for `by_location` instance `instance`, behind a
    /// timing shim.
    #[must_use]
    pub fn observer(
        &self,
        instance: usize,
        observer: Box<dyn PairObserver>,
    ) -> Box<dyn PairObserver> {
        Box::new(TimedObserver::new(
            observer,
            Arc::clone(&self.observers[instance]),
        ))
    }

    /// Registry counter `name` (0 when never registered).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.registry
            .snapshot()
            .into_iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| v)
    }

    /// Writes the data-plane, router and sketch per-layer metrics.
    pub fn report(&self, m: &mut Metrics) {
        let sends = self.counter("live_batch_sends_total");
        if sends > 0 {
            m.set(
                "engine.live.batch_fill",
                self.counter("live_batch_tuples_total") as f64 / sends as f64,
            );
        }
        m.set(
            "engine.live.control_flushes",
            self.counter("live_batch_control_flushes_total") as f64,
        );
        let ops: Totals = self.ops.iter().map(|a| shims::sum(a)).sum();
        m.set("engine.live.op_ns_per_tuple", ops.ns_per_item());

        let (queue_local, queue_remote, proc) = self.span_p50_us();
        m.set("engine.live.span_queue_p50_us.local", queue_local);
        m.set("engine.live.span_queue_p50_us.remote", queue_remote);
        m.set("engine.live.span_proc_p50_us", proc);

        let tables: Totals = self.tables.iter().map(|r| r.totals()).sum();
        let all = tables + self.hash_routers.iter().map(|r| r.totals()).sum();
        m.set("engine.router.ns_per_key", all.ns_per_item());
        m.set("engine.router.keys_per_call", all.items_per_call());
        if tables.items > 0 {
            let fallbacks = self.hash_fallback.get() + self.stale_fallback.get();
            m.set(
                "engine.router.table_hit_share",
                1.0 - fallbacks as f64 / tables.items as f64,
            );
        }
        let obs = shims::sum(&self.observers);
        m.set("sketch.observe_ns_per_tuple", obs.ns_per_item());
        if obs.items > 0 {
            m.set(
                "sketch.observe_calls_per_tuple",
                obs.calls as f64 / obs.items as f64,
            );
        }
        m.set(
            "engine.reconfig.migration_bytes",
            self.counter("live_migration_bytes_total") as f64,
        );
    }

    /// Median queue wait of local and remote hops and median
    /// processing time, microseconds, over every operator and epoch.
    fn span_p50_us(&self) -> (f64, f64, f64) {
        let mut merged: [(Vec<u64>, Vec<u64>); 3] = Default::default();
        for (name, h) in self.registry.histograms() {
            let Some(span) = SpanMetricName::parse(&name) else {
                continue;
            };
            let slot = match (span.phase, span.remote) {
                (SpanPhase::Queue, Some(false)) => 0,
                (SpanPhase::Queue, Some(true)) => 1,
                (SpanPhase::Proc, _) => 2,
                _ => continue,
            };
            let (bounds, counts) = &mut merged[slot];
            if counts.is_empty() {
                *bounds = h.bounds.clone();
                *counts = vec![0; h.counts.len()];
            }
            for (c, add) in counts.iter_mut().zip(&h.counts) {
                *c += add;
            }
        }
        let p50 =
            |(bounds, counts): &(Vec<u64>, Vec<u64>)| histogram_quantile(bounds, counts, 0.5) / 1e3;
        (p50(&merged[0]), p50(&merged[1]), p50(&merged[2]))
    }
}

/// `table` as a router for the runtime, behind a timing shim when
/// traced.
pub fn table_router(trace: Option<&mut LiveTrace>, table: &RoutingTable) -> Arc<dyn KeyRouter> {
    match trace {
        Some(t) => t.table(table.clone()),
        None => Arc::new(table.clone()),
    }
}

/// An operator factory making `make(i)` for instance `i`, wrapped in a
/// timing shim when `accs` are given.
#[must_use]
pub fn operator_factory<F>(make: F, accs: Option<Vec<Arc<Acc>>>) -> OperatorFactory
where
    F: Fn(usize) -> Box<dyn Operator> + Send + Sync + 'static,
{
    Box::new(move |i| {
        let op = make(i);
        match &accs {
            Some(a) => Box::new(TimedOperator::new(op, Arc::clone(&a[i]))),
            None => op,
        }
    })
}

/// Blocks until every instance of `po` has exited. An exited sender
/// has routed everything it will ever route, so edge counters read
/// afterwards are final. A live instance answers the state probe, an
/// exited one cannot be reached.
pub fn wait_exited(rt: &LiveRuntime, po: PoId, instances: usize) {
    for i in 0..instances {
        while rt.probe_state(po, i).is_some() {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamloc::engine::Key;

    #[test]
    fn span_seed_samples_some_locations() {
        let s = SpanSampler::new(SPAN_SEED, SPAN_DENOMINATOR);
        let sampled: Vec<u64> = (0..100).filter(|&k| s.sampled(Key::new(k))).collect();
        assert_eq!(sampled, vec![25, 53]);
    }
}
