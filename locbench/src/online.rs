//! `live-online`: an open loop on the live runtime with one live
//! reconfiguration wave.
//!
//! One source instance emits a pre-generated drifting Twitter-like
//! stream on a fixed schedule: tuple `i` is due at `t0 + i / RATE`
//! whether or not the pipeline keeps up, and its due time travels in
//! key field 2. `by_location` is a `CountOperator`; `by_hashtag` is a
//! benchmark sink that counts per key like `CountOperator` and records
//! sink time minus due time. Four instances each sit on four placement
//! tags. Routing starts as hash with pair trackers on; once the stream
//! reaches a fixed position the benchmark snapshots the trackers,
//! partitions the key graph and deploys tables and state migrations
//! through `LiveRuntime::reconfigure_with_deadline` while tuples keep
//! flowing.
//!
//! The trackers behind the snapshot see exactly the observations of the
//! stream prefix before that position — each `by_location` instance
//! forwards its first `P_i` observations, `P_i` being the prefix tuples
//! hash routing sends it — so the snapshot, the tables and the
//! migrations depend on the seed alone, never on how far the stream
//! had run when the wave started.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use streamloc::engine::{
    CountOperator, EdgeId, Grouping, HashRouter, Key, KeyRouter, LiveConfig, LiveObserver,
    LiveReconfig, LiveRuntime, OpContext, Operator, PairObserver, Placement, PoId, SourceRate,
    Topology, Tuple, TupleSource, WaveConfig,
};
use streamloc::routing::{PairTracker, TrackerHandle};

use crate::check::{mismatches, Reference};
use crate::host::{self, CpuTicks};
use crate::input;
use crate::live::{operator_factory, table_router, wait_exited, LiveTrace};
use crate::spans::Spans;
use crate::stats::{imbalance, median, quantile_u64};
use crate::tables::{self, PartitionStats};
use crate::{Outcome, RunConfig};

/// Placement tags, and instances of each operator.
pub const SERVERS: usize = 4;
/// Scheduled input rate, tuples per second — about a tenth of what the
/// pipeline drains closed-loop on a 2-vCPU host.
pub const RATE: f64 = 200_000.0;
/// The wave starts once this share of the stream has been emitted.
pub const WAVE_AT: f64 = 0.25;
/// Seconds of schedule in one open loop; a benchmark run repeats the
/// loop to fill its time.
pub const LOOP_SECONDS: u64 = 5;
/// Extra set-ups (empty input) per run, for a steady `setup_s`.
const SETUP_REPS: usize = 30;
/// Capacity of the prefix trackers: above the distinct pairs any one
/// instance sees before the wave, so nothing is evicted and the
/// snapshot holds exact counts.
const PREFIX_CAPACITY: usize = 100_000;
/// Capacity of the trackers that keep observing after the prefix.
const REST_CAPACITY: usize = 50_000;

/// Source-side state shared with the benchmark thread.
#[derive(Debug, Default)]
struct SourceState {
    /// Clock reading of the first generator call (`u64::MAX` before).
    first_ns: AtomicU64,
    /// Tuples emitted so far.
    emitted: AtomicU64,
    /// Set when the generator returned `None`.
    exhausted: AtomicBool,
}

/// The open-loop generator: emits tuple `i` no earlier than its due
/// time and stamps the due time into field 2.
struct Paced {
    tuples: Arc<Vec<Tuple>>,
    next: usize,
    clock: Instant,
    t0_ns: u64,
    state: Arc<SourceState>,
    late_ns: Vec<u64>,
    late_out: Arc<Mutex<Vec<u64>>>,
}

impl TupleSource for Paced {
    fn next_tuple(&mut self) -> Option<Tuple> {
        if self.next == 0 {
            self.t0_ns = ns_since(self.clock);
            self.state.first_ns.store(self.t0_ns, Ordering::SeqCst);
        }
        let Some(&tuple) = self.tuples.get(self.next) else {
            self.state.exhausted.store(true, Ordering::SeqCst);
            return None;
        };
        let due = self.t0_ns + (self.next as f64 * 1e9 / RATE) as u64;
        let mut now = ns_since(self.clock);
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
            now = ns_since(self.clock);
        }
        self.late_ns.push(now.saturating_sub(due));
        self.next += 1;
        self.state.emitted.store(self.next as u64, Ordering::SeqCst);
        Some(tuple.with_key(2, Key::new(due)))
    }
}

impl Drop for Paced {
    fn drop(&mut self) {
        if let Ok(mut out) = self.late_out.lock() {
            *out = std::mem::take(&mut self.late_ns);
        }
    }
}

fn ns_since(clock: Instant) -> u64 {
    clock.elapsed().as_nanos() as u64
}

/// The `by_hashtag` sink: counts per key like `CountOperator` and
/// records, per tuple, sink time minus due time.
struct LatencySink {
    clock: Instant,
    latencies: Vec<u64>,
    out: Arc<Mutex<Vec<u64>>>,
}

impl Operator for LatencySink {
    fn process(&mut self, tuple: Tuple, ctx: &mut OpContext<'_>) {
        self.on_batch(&[tuple], ctx);
    }

    fn on_batch(&mut self, tuples: &[Tuple], ctx: &mut OpContext<'_>) {
        if let Some(n) = ctx.state().as_count_mut() {
            *n += tuples.len() as u64;
        }
        let now = ns_since(self.clock);
        self.latencies
            .extend(tuples.iter().map(|t| now.saturating_sub(t.key(2).value())));
    }
}

impl Drop for LatencySink {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            out.append(&mut self.latencies);
        }
    }
}

/// Feeds the first `remaining` observations of one `by_location`
/// instance to the prefix tracker and the rest to another tracker.
struct PrefixObserver {
    prefix: TrackerHandle,
    rest: TrackerHandle,
    remaining: u64,
    fed: Arc<AtomicU64>,
}

impl PairObserver for PrefixObserver {
    fn observe(&mut self, input: Key, output: Key) {
        self.observe_run(input, output, 1);
    }

    fn observe_run(&mut self, input: Key, output: Key, count: u64) {
        let head = count.min(self.remaining);
        if head > 0 {
            self.prefix.observe_run(input, output, head);
            self.remaining -= head;
            self.fed.fetch_add(head, Ordering::SeqCst);
        }
        if count > head {
            self.rest.observe_run(input, output, count - head);
        }
    }
}

/// The generated input of one seed.
#[derive(Debug, Clone)]
pub struct Input {
    seed: u64,
    pairs: Vec<(Key, Key)>,
    tuples: Arc<Vec<Tuple>>,
    /// Prefix tuples hash routing sends to each `by_location` instance.
    prefix: Vec<u64>,
}

impl Input {
    /// `seconds` of input at [`RATE`] for `seed`.
    #[must_use]
    pub fn generate(seed: u64, seconds: u64) -> Self {
        let n = (RATE * seconds as f64) as usize;
        let mut tw = input::twitter(seed, input::live_config());
        let pairs = input::tweets(&mut tw, 0, n);
        let tuples = Arc::new(
            pairs
                .iter()
                .map(|&(l, t)| Tuple::new([l, t, Key::new(0)], 0))
                .collect(),
        );
        let mut prefix = vec![0u64; SERVERS];
        for &(loc, _) in &pairs[..wave_position(n)] {
            prefix[HashRouter.route(loc, SERVERS) as usize] += 1;
        }
        Self {
            seed,
            pairs,
            tuples,
            prefix,
        }
    }
}

fn wave_position(n: usize) -> usize {
    (n as f64 * WAVE_AT) as usize
}

/// A deployed open-loop pipeline.
struct Deployment {
    rt: LiveRuntime,
    start_ms: f64,
    clock: Instant,
    state: Arc<SourceState>,
    late: Arc<Mutex<Vec<u64>>>,
    sinks: Vec<Arc<Mutex<Vec<u64>>>>,
    fed: Vec<Arc<AtomicU64>>,
    prefix_trackers: Vec<Arc<PairTracker>>,
    source: PoId,
    by_location: PoId,
    by_hashtag: PoId,
    first_edge: EdgeId,
    hop: EdgeId,
}

/// Builds the topology over `tuples` and starts it. `prefix` holds the
/// per-instance prefix lengths the trackers' gates close at.
fn deploy(
    tuples: Arc<Vec<Tuple>>,
    prefix: &[u64],
    mut trace: Option<&mut LiveTrace>,
    spans: &mut Spans,
) -> Deployment {
    let clock = Instant::now();
    let state = Arc::new(SourceState {
        first_ns: AtomicU64::new(u64::MAX),
        ..SourceState::default()
    });
    let late = Arc::new(Mutex::new(Vec::new()));
    let mut b = Topology::builder();
    let source = {
        let state = Arc::clone(&state);
        let late = Arc::clone(&late);
        b.source("tweets", 1, SourceRate::Saturate, move |_| {
            Box::new(Paced {
                tuples: Arc::clone(&tuples),
                next: 0,
                clock,
                t0_ns: 0,
                state: Arc::clone(&state),
                late_ns: Vec::new(),
                late_out: Arc::clone(&late),
            })
        })
    };
    let by_location = b.stateful(
        "by_location",
        SERVERS,
        operator_factory(
            |_| Box::new(CountOperator),
            trace.as_ref().map(|t| t.op_accs(0)),
        ),
    );
    let sinks: Vec<Arc<Mutex<Vec<u64>>>> = (0..SERVERS)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let by_hashtag = {
        let sinks = sinks.clone();
        b.stateful(
            "by_hashtag",
            SERVERS,
            operator_factory(
                move |i| {
                    Box::new(LatencySink {
                        clock,
                        latencies: Vec::new(),
                        out: Arc::clone(&sinks[i]),
                    })
                },
                trace.as_ref().map(|t| t.op_accs(1)),
            ),
        )
    };
    let mut hash = || -> Arc<dyn KeyRouter> {
        match trace.as_deref_mut() {
            Some(t) => t.router(Arc::new(HashRouter)),
            None => Arc::new(HashRouter),
        }
    };
    let first_edge = b.connect(source, by_location, Grouping::fields_with(0, hash()));
    let hop = b.connect(by_location, by_hashtag, Grouping::fields_with(1, hash()));
    let topology = b.build().expect("live-online topology is a valid chain");
    let placement = Placement::aligned(&topology, SERVERS);

    let fed: Vec<Arc<AtomicU64>> = (0..SERVERS).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let prefix_trackers: Vec<Arc<PairTracker>> = (0..SERVERS)
        .map(|_| PairTracker::new(PREFIX_CAPACITY))
        .collect();
    let observers: Vec<LiveObserver> = (0..SERVERS)
        .map(|i| {
            let gate: Box<dyn PairObserver> = Box::new(PrefixObserver {
                prefix: prefix_trackers[i].handle(),
                rest: PairTracker::new(REST_CAPACITY).handle(),
                remaining: prefix[i],
                fed: Arc::clone(&fed[i]),
            });
            let obs = match trace.as_ref() {
                Some(t) => t.observer(i, gate),
                None => gate,
            };
            (by_location, i, hop, 1, obs)
        })
        .collect();
    let config = trace
        .as_ref()
        .map_or_else(LiveConfig::default, |t| t.config());
    let t = Instant::now();
    let rt = spans.time("LiveRuntime::start", || {
        LiveRuntime::start_with_observers(topology, placement, SERVERS, config, observers)
    });
    Deployment {
        start_ms: t.elapsed().as_secs_f64() * 1e3,
        rt,
        clock,
        state,
        late,
        sinks,
        fed,
        prefix_trackers,
        source,
        by_location,
        by_hashtag,
        first_edge,
        hop,
    }
}

/// Set-up time of one deployment over an empty stream: topology build
/// and `LiveRuntime::start` until the source admits its first tuple.
fn empty_setup_s() -> f64 {
    let t = Instant::now();
    let d = deploy(
        Arc::new(Vec::new()),
        &[0; SERVERS],
        None,
        &mut Spans::new(false),
    );
    while d.state.first_ns.load(Ordering::SeqCst) == u64::MAX {
        std::thread::yield_now();
    }
    let first = d.clock + Duration::from_nanos(d.state.first_ns.load(Ordering::SeqCst));
    let _ = d.rt.join();
    (first - t).as_secs_f64()
}

/// One open-loop run's measurements.
#[derive(Debug, Clone)]
pub struct Run {
    /// Build + start until the first tuple was admitted.
    pub setup_s: f64,
    /// `LiveRuntime::start` alone, milliseconds.
    pub start_ms: f64,
    /// Source exhaustion to `join` returning, milliseconds.
    pub drain_ms: f64,
    /// Input tuples over first due time → `join` returning.
    pub throughput_tps: f64,
    /// Sink time minus due time, every tuple, nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Emission time minus due time, every tuple, nanoseconds.
    pub late_ns: Vec<u64>,
    /// `edge_locality` of the `by_location → by_hashtag` edge.
    pub locality: f64,
    /// Tuples processed per `by_hashtag` instance.
    pub hashtag_loads: Vec<u64>,
    /// Tuples missing or extra against the reference, plus one for a
    /// failed wave.
    pub failed: u64,
    /// `LiveRuntime::reconfigure_with_deadline` wall time, ms.
    pub wave_ms: f64,
    /// State migrations in the wave's plan.
    pub migrations: usize,
    /// Tracker snapshots, ms (all instances).
    pub snapshot_ms: f64,
    /// Snapshot merge, ms.
    pub merge_ms: f64,
    /// The partition behind the deployed tables.
    pub partition: PartitionStats,
    /// Process CPU time over the run, ns.
    pub cpu_ns: f64,
}

/// Runs the open loop over `input` once.
pub fn run_once(
    input: &Input,
    reference: &Reference,
    mut trace: Option<&mut LiveTrace>,
    spans: &mut Spans,
) -> Run {
    let setup_start = Instant::now();
    let cpu_before = host::process_cpu_ns();
    let d = deploy(
        Arc::clone(&input.tuples),
        &input.prefix,
        trace.as_deref_mut(),
        spans,
    );
    let n = input.tuples.len();
    let position = wave_position(n) as u64;
    while d.state.emitted.load(Ordering::SeqCst) < position {
        std::thread::sleep(Duration::from_millis(1));
    }
    for (fed, &want) in d.fed.iter().zip(&input.prefix) {
        while fed.load(Ordering::SeqCst) < want {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    spans.enter("rebuild");
    // Instances observe disjoint location keys before the wave, so a
    // merge capacity of every prefix tracker's capacity loses nothing.
    let (mut pairs, snapshot_ms, merge_ms) =
        tables::merged_snapshot(&d.prefix_trackers, PREFIX_CAPACITY * SERVERS, spans);
    let partition = tables::partition(&mut pairs, SERVERS, input.seed, spans);
    let mut migrations: Vec<(PoId, Key, usize, usize)> = Vec::new();
    for (po, table) in [
        (d.by_location, &partition.location),
        (d.by_hashtag, &partition.hashtag),
    ] {
        for (key, new) in table.iter() {
            let old = HashRouter.route(key, SERVERS);
            if old != new {
                migrations.push((po, key, old as usize, new as usize));
            }
        }
    }
    migrations.sort_unstable();
    let n_migrations = migrations.len();
    let location = table_router(trace.as_deref_mut(), &partition.location);
    let hashtag = table_router(trace, &partition.hashtag);
    let plan = LiveReconfig {
        routers: vec![
            (d.source, d.first_edge, location),
            (d.by_location, d.hop, hashtag),
        ],
        migrations,
    };
    spans.exit();
    let t = Instant::now();
    let wave = spans.time("LiveRuntime::reconfigure", || {
        d.rt.reconfigure_with_deadline(plan, WaveConfig::default())
    });
    let wave_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut failed = u64::from(wave.is_err());

    while !d.state.exhausted.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let exhausted_at = Instant::now();
    spans.enter("LiveRuntime::join");
    wait_exited(&d.rt, d.by_location, SERVERS);
    let locality = d.rt.edge_locality(d.hop);
    let Deployment {
        rt,
        start_ms,
        clock,
        state,
        late,
        sinks,
        by_location,
        by_hashtag,
        ..
    } = d;
    let reports = rt.join();
    spans.exit();
    let end = Instant::now();
    let cpu_ns = host::process_cpu_ns() - cpu_before;

    let states = |po| reports.iter().filter(move |r| r.po == po).map(|r| &r.state);
    failed += mismatches(&reference.by_location, states(by_location));
    failed += mismatches(&reference.by_hashtag, states(by_hashtag));
    let first = clock + Duration::from_nanos(state.first_ns.load(Ordering::SeqCst));
    let take = |m: &Mutex<Vec<u64>>| std::mem::take(&mut *m.lock().expect("no sink panicked"));
    let latencies_ns: Vec<u64> = sinks.iter().flat_map(|s| take(s)).collect();
    failed += (n as u64).abs_diff(latencies_ns.len() as u64);
    let late_ns = take(&late);
    Run {
        setup_s: (first - setup_start).as_secs_f64(),
        start_ms,
        drain_ms: (end - exhausted_at).as_secs_f64() * 1e3,
        throughput_tps: n as f64 / (end - first).as_secs_f64(),
        latencies_ns,
        late_ns,
        locality,
        hashtag_loads: reports
            .iter()
            .filter(|r| r.po == by_hashtag)
            .map(|r| r.processed)
            .collect(),
        failed,
        wave_ms,
        migrations: n_migrations,
        snapshot_ms,
        merge_ms,
        partition: partition.stats,
        cpu_ns,
    }
}

/// Mean over the loops of `f` of each loop.
fn mean(runs: &[Run], f: impl Fn(&Run) -> f64) -> f64 {
    runs.iter().map(f).sum::<f64>() / runs.len() as f64
}

/// Median over the loops of `f` of each loop.
fn median_over(runs: &mut [Run], f: impl FnMut(&mut Run) -> f64) -> f64 {
    median(&runs.iter_mut().map(f).collect::<Vec<_>>())
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Runs `live-online` for `cfg`: repeated open loops of
/// [`LOOP_SECONDS`] each, each over its own input derived from the seed
/// and on a fresh deployment with one wave. Timings are medians over
/// the loops; locality and imbalance are means.
#[must_use]
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::new();
    let loops = (cfg.seconds / LOOP_SECONDS).max(1);
    let mut gen_s = 0.0;
    let mut generate = |k: u64| {
        let gen = Instant::now();
        let input = Input::generate(input::sub_seed(cfg.seed, k), LOOP_SECONDS);
        let reference = Reference::count(&input.pairs);
        gen_s += gen.elapsed().as_secs_f64();
        (input, reference)
    };
    // The first input exists before the empty set-ups, so that every
    // set-up, like every loop's, runs in a process that has generated
    // an input: set-up time depends on the allocator's state.
    let mut next = Some(generate(0));
    let mut setups: Vec<f64> = (0..SETUP_REPS).map(|_| empty_setup_s()).collect();
    let mut tuples = 0u64;
    let ticks = CpuTicks::now();
    let mut runs: Vec<Run> = Vec::new();
    for k in 0..loops {
        let (input, reference) = next.take().unwrap_or_else(|| generate(k));
        tuples += input.tuples.len() as u64;
        runs.push(run_once(&input, &reference, None, &mut Spans::new(false)));
    }
    let steal = ticks.steal_share_until(&CpuTicks::now());
    setups.extend(runs.iter().map(|r| r.setup_s));
    let p50_us = median_over(&mut runs, |r| us(quantile_u64(&mut r.latencies_ns, 0.5)));
    let e2e = &mut out.end_to_end;
    e2e.set(
        "throughput_tps",
        median_over(&mut runs, |r| r.throughput_tps),
    );
    e2e.set("latency_p50_us", p50_us);
    // Each loop streams its own input: the figures the input fixes are
    // averaged over them.
    e2e.set("locality", mean(&runs, |r| r.locality));
    e2e.set("imbalance", mean(&runs, |r| imbalance(&r.hashtag_loads)));
    e2e.set("setup_s", median(&setups));
    out.attempted = tuples + loops;
    out.failed = runs.iter().map(|r| r.failed).sum();
    let p99 = median_over(&mut runs, |r| us(quantile_u64(&mut r.latencies_ns, 0.99)));
    out.extras.push(("loops", loops as f64, "count"));
    out.extras.push(("latency_p99_us", p99, "us"));
    let late = median_over(&mut runs, |r| us(quantile_u64(&mut r.late_ns, 0.99)));
    out.extras.push(("gen_late_p99_us", late, "us"));
    out.extras
        .push(("wave_ms", median_over(&mut runs, |r| r.wave_ms), "ms"));
    out.extras
        .push(("migrations", runs[0].migrations as f64, "count"));
    out.extras.push((
        "expected_locality",
        runs[0].partition.expected_locality,
        "ratio",
    ));

    let m = &mut out.per_layer;
    m.set("host.steal_share", steal);
    m.set("workloads.gen_s", gen_s);
    if !cfg.trace {
        m.set("host.max_rss_mb", host::max_rss_mb());
        return out;
    }
    let cpu: f64 = runs.iter().map(|r| r.cpu_ns).sum();
    m.set("engine.live.cpu_ns_per_tuple", cpu / tuples as f64);

    let mut trace = LiveTrace::new(SERVERS);
    let mut spans = Spans::new(true);
    spans.enter("live-online");
    let input = Input::generate(input::sub_seed(cfg.seed, 0), LOOP_SECONDS);
    let reference = Reference::count(&input.pairs);
    let mut traced = run_once(&input, &reference, Some(&mut trace), &mut spans);
    spans.exit();
    out.attempted += input.tuples.len() as u64 + 1;
    out.failed += traced.failed;
    let m = &mut out.per_layer;
    trace.report(m);
    let traced_p50 = quantile_u64(&mut traced.latencies_ns, 0.5);
    m.set("trace.overhead_share", us(traced_p50) / p50_us - 1.0);
    m.set(
        "engine.live.latency_p99_us",
        us(quantile_u64(&mut traced.latencies_ns, 0.99)),
    );
    m.set(
        "engine.live.latency_samples",
        traced.latencies_ns.len() as f64,
    );
    m.set(
        "engine.live.gen_late_p99_us",
        us(quantile_u64(&mut traced.late_ns, 0.99)),
    );
    m.set(
        "engine.live.gen_late_max_us",
        us(quantile_u64(&mut traced.late_ns, 1.0)),
    );
    m.set("engine.live.start_ms", traced.start_ms);
    m.set("engine.live.drain_ms", traced.drain_ms);
    m.set("sketch.snapshot_ms", traced.snapshot_ms);
    m.set("sketch.merge_ms", traced.merge_ms);
    traced.partition.report(m);
    m.set("engine.reconfig.wave_ms", traced.wave_ms);
    m.set("engine.reconfig.migrations", traced.migrations as f64);
    m.set("host.max_rss_mb", host::max_rss_mb());
    out.finish_spans("live-online", cfg.seed, &spans);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn prefix_fits_in_the_trackers() {
        for seed in [1, 2, 3, crate::HELD_OUT_SEED] {
            let input = Input::generate(input::sub_seed(seed, 0), LOOP_SECONDS);
            let mut distinct: Vec<HashSet<(Key, Key)>> = vec![HashSet::new(); SERVERS];
            for &(loc, tag) in &input.pairs[..wave_position(input.pairs.len())] {
                distinct[HashRouter.route(loc, SERVERS) as usize].insert((loc, tag));
            }
            let max = distinct.iter().map(HashSet::len).max().unwrap_or(0);
            assert!(max < PREFIX_CAPACITY, "seed {seed}: {max} distinct pairs");
        }
    }
}
