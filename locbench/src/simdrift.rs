//! `sim-drift`: the deterministic cluster simulator on a drifting
//! stream, with the manager reconfiguring every period.
//!
//! A finite, pre-generated drifting Twitter-like stream (the default
//! 300 locations × 30k hashtags) is split over four source instances
//! and feeds `by_location` → `by_hashtag` (`CountOperator`s) on four
//! NIC-bound simulated servers (`ClusterSpec::lan_10g`, 12 kB tuples,
//! the paper's Fig. 8 padding). `Manager::attach` runs once,
//! `Manager::reconfigure` after every period of windows, and the run
//! ends with `run_until_drained`. Everything the simulator reports is a
//! function of the seed; only wall times vary between runs.

use std::sync::Arc;
use std::time::Instant;

use streamloc::engine::{
    ClusterSpec, CountOperator, EdgeId, Grouping, Key, PairObserver, Placement, PoId, SimConfig,
    Simulation, SourceRate, Topology, Tuple,
};
use streamloc::routing::{Manager, ManagerConfig, PairTracker, ReconfigSummary};
use streamloc::workloads::TwitterConfig;

use crate::check::{mismatches, Reference};
use crate::host::{self, CpuTicks};
use crate::input;
use crate::spans::Spans;
use crate::stats::{self, median};
use crate::tables;
use crate::{Outcome, RunConfig};

/// Simulated servers, and instances of every operator.
pub const SERVERS: usize = 4;
/// Tuple padding, bytes.
pub const PADDING: u32 = 12 * 1024;
/// Simulation windows between two `Manager::reconfigure` calls.
pub const WINDOWS_PER_PERIOD: usize = 20;
/// Stream tuples per second of `--seconds`: sized so that a run takes
/// about that long on a 2-vCPU host.
pub const TUPLES_PER_SECOND: usize = 300_000;
/// Extra set-ups per run, for a steady `setup_s`.
const SETUP_REPS: usize = 5;
/// Windows `run_until_drained` may take before the run counts as hung.
const DRAIN_LIMIT: usize = 100_000;
/// `Manager::estimate` calls timed at the end of a traced run.
const ESTIMATES: usize = 3;

/// The generated input of one seed.
#[derive(Debug, Clone)]
pub struct Input {
    seed: u64,
    pairs: Vec<(Key, Key)>,
    per_source: Vec<Arc<Vec<Tuple>>>,
}

impl Input {
    /// `seconds × TUPLES_PER_SECOND` tweets for `seed`, dealt round
    /// robin to the source instances.
    #[must_use]
    pub fn generate(seed: u64, seconds: u64) -> Self {
        let n = TUPLES_PER_SECOND * seconds as usize;
        let mut tw = input::twitter(seed, TwitterConfig::default());
        let pairs = input::tweets(&mut tw, 0, n);
        let per_source = (0..SERVERS)
            .map(|i| {
                Arc::new(
                    pairs
                        .iter()
                        .skip(i)
                        .step_by(SERVERS)
                        .map(|&(l, t)| Tuple::new([l, t], PADDING))
                        .collect(),
                )
            })
            .collect();
        Self {
            seed,
            pairs,
            per_source,
        }
    }

    /// The stream's `(location, hashtag)` pairs.
    #[must_use]
    pub fn pairs(&self) -> &[(Key, Key)] {
        &self.pairs
    }
}

/// A simulation with its manager attached.
struct Deployment {
    sim: Simulation,
    manager: Manager,
    by_location: PoId,
    by_hashtag: PoId,
    hop: EdgeId,
}

/// Topology, `Simulation::new` and `Manager::attach`.
fn deploy(input: &Input) -> Deployment {
    let mut b = Topology::builder();
    let per_source = input.per_source.clone();
    let source = b.source("tweets", SERVERS, SourceRate::Saturate, move |i| {
        let tuples = Arc::clone(&per_source[i]);
        let mut next = 0usize;
        Box::new(move || {
            let t = tuples.get(next).copied();
            next += 1;
            t
        })
    });
    let by_location = b.stateful("by_location", SERVERS, CountOperator::factory());
    let by_hashtag = b.stateful("by_hashtag", SERVERS, CountOperator::factory());
    b.connect(source, by_location, Grouping::fields(0));
    let hop = b.connect(by_location, by_hashtag, Grouping::fields(1));
    let topology = b.build().expect("sim-drift topology is a valid chain");
    let placement = Placement::aligned(&topology, SERVERS);
    let mut sim = Simulation::new(
        topology,
        ClusterSpec::lan_10g(SERVERS),
        placement,
        SimConfig::default(),
    );
    let manager = Manager::attach(&mut sim, ManagerConfig::default());
    Deployment {
        sim,
        manager,
        by_location,
        by_hashtag,
        hop,
    }
}

/// The simulator's exact outputs for one seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exact {
    /// `MetricsLog::edge_locality` of `by_location → by_hashtag`.
    pub locality: f64,
    /// `MetricsLog::load_imbalance` over the `by_hashtag` instances.
    pub imbalance: f64,
    /// `MetricsLog::avg_throughput`, tuples per simulated second.
    pub cluster_tps: f64,
    /// Sum of `ReconfigSummary::migrations`.
    pub migrations: u64,
}

/// Per-layer readings of the traced pass.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    snapshot_ms: Vec<f64>,
    merge_ms: Vec<f64>,
    partition: Vec<tables::PartitionStats>,
    estimate_ms: Vec<f64>,
}

/// One simulated run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Topology build, `Simulation::new` and `Manager::attach`.
    pub setup_s: f64,
    /// Wall time of every `Simulation::run`, `Manager::reconfigure`
    /// and `run_until_drained` call.
    pub simulate_s: f64,
    /// Wall time of the `Simulation::run` calls (incl. the drain).
    pub run_s: f64,
    /// Wall time of each `Manager::reconfigure` call, ms.
    pub reconfigure_ms: Vec<f64>,
    /// Successful reconfigurations.
    pub summaries: Vec<ReconfigSummary>,
    /// `Err(ReconfigInProgress)` returns.
    pub refused: u64,
    /// Windows simulated.
    pub windows: usize,
    /// The exact outputs.
    pub exact: Exact,
    /// Tuples missing or extra against the reference, plus one if the
    /// stream did not drain.
    pub failed: u64,
    /// `(migrated bytes, late forwarded, buffered, network bytes,
    /// latency windows, max queue depth)` from the metrics log.
    pub log: (u64, u64, u64, u64, f64, usize),
    /// Traced-pass readings (empty when untraced).
    pub layers: Layers,
}

/// Simulates `input` to the end; `traced` adds benchmark-owned
/// trackers (timed snapshot, merge and partition every period) and
/// times `Manager::estimate` after the last period.
pub fn simulate(input: &Input, reference: &Reference, traced: bool, spans: &mut Spans) -> Run {
    let t = Instant::now();
    let mut d = spans.time("setup", || deploy(input));
    let setup_s = t.elapsed().as_secs_f64();
    let mut layers = Layers::default();
    let trackers: Vec<Arc<PairTracker>> = if traced {
        d.sim
            .poi_ids(d.by_location)
            .into_iter()
            .map(|poi| {
                let tracker = PairTracker::new(ManagerConfig::default().sketch_capacity);
                let handle: Box<dyn PairObserver> = Box::new(tracker.handle());
                d.sim.add_pair_observer(poi, d.hop, 1, handle);
                tracker
            })
            .collect()
    } else {
        Vec::new()
    };

    let total = input.pairs.len() as u64;
    let (mut run_s, mut simulate_s) = (0.0, 0.0);
    let mut reconfigure_ms = Vec::new();
    let mut summaries = Vec::new();
    let mut refused = 0u64;
    while d.sim.metrics().total_emitted() < total {
        let t = Instant::now();
        spans.time("Simulation::run", || d.sim.run(WINDOWS_PER_PERIOD));
        let s = t.elapsed().as_secs_f64();
        run_s += s;
        simulate_s += s;
        if traced {
            measure_sketch_and_partition(&trackers, input.seed, &mut layers, spans);
        }
        let t = Instant::now();
        let result = spans.time("Manager::reconfigure", || d.manager.reconfigure(&mut d.sim));
        let s = t.elapsed().as_secs_f64();
        simulate_s += s;
        reconfigure_ms.push(s * 1e3);
        match result {
            Ok(summary) => summaries.push(summary),
            Err(_) => refused += 1,
        }
    }
    let t = Instant::now();
    let drained = spans.time("Simulation::run_until_drained", || {
        d.sim.run_until_drained(DRAIN_LIMIT)
    });
    let s = t.elapsed().as_secs_f64();
    run_s += s;
    simulate_s += s;
    if traced {
        // Timed after the last period: `estimate` updates the manager's
        // warm-start hint, so timing it between periods would change
        // every later partition.
        for _ in 0..ESTIMATES {
            let t = Instant::now();
            let _ = spans.time("Manager::estimate", || d.manager.estimate(&d.sim));
            layers.estimate_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }

    let sim = &d.sim;
    let log = sim.metrics();
    let hashtag_pois = sim.poi_ids(d.by_hashtag);
    let exact = Exact {
        locality: log.edge_locality(d.hop, 0),
        imbalance: log.load_imbalance(&hashtag_pois, 0),
        cluster_tps: log.avg_throughput(0),
        migrations: summaries.iter().map(|s| s.migrations as u64).sum(),
    };
    let states = |po| sim.poi_ids(po).into_iter().map(|poi| sim.poi_state(poi));
    let mut failed = mismatches(&reference.by_location, states(d.by_location));
    failed += mismatches(&reference.by_hashtag, states(d.by_hashtag));
    failed += u64::from(drained == DRAIN_LIMIT);
    let windows = log.windows();
    let (lat_sum, lat_n) = windows.iter().fold((0u64, 0u64), |(s, n), w| {
        (s + w.latency_window_sum, n + w.latency_count)
    });
    Run {
        setup_s,
        simulate_s,
        run_s,
        reconfigure_ms,
        summaries,
        refused,
        windows: windows.len(),
        exact,
        failed,
        log: (
            windows.iter().map(|w| w.migrated_bytes).sum(),
            windows.iter().map(|w| w.late_forwarded).sum(),
            windows.iter().map(|w| w.buffered).sum(),
            log.total_network_bytes(),
            if lat_n == 0 {
                0.0
            } else {
                lat_sum as f64 / lat_n as f64
            },
            windows.iter().map(|w| w.max_queue_depth).max().unwrap_or(0),
        ),
        layers,
    }
}

/// The manager's statistics pipeline, redone on benchmark-owned
/// trackers with each step timed: snapshot, merge, key-graph partition.
fn measure_sketch_and_partition(
    trackers: &[Arc<PairTracker>],
    seed: u64,
    layers: &mut Layers,
    spans: &mut Spans,
) {
    let capacity = ManagerConfig::default().sketch_capacity;
    let (mut pairs, snapshot_ms, merge_ms) = tables::merged_snapshot(trackers, capacity, spans);
    layers.snapshot_ms.push(snapshot_ms);
    layers.merge_ms.push(merge_ms);
    layers
        .partition
        .push(tables::partition(&mut pairs, SERVERS, seed, spans).stats);
    for t in trackers {
        t.reset();
    }
}

/// Runs `sim-drift` for `cfg`.
#[must_use]
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::new();
    let gen = Instant::now();
    let input = Input::generate(cfg.seed, cfg.seconds);
    let reference = Reference::count(&input.pairs);
    let gen_s = gen.elapsed().as_secs_f64();

    let mut setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let d = deploy(&input);
            let s = t.elapsed().as_secs_f64();
            drop(d);
            s
        })
        .collect();
    let ticks = CpuTicks::now();
    let run = simulate(&input, &reference, false, &mut Spans::new(false));
    let steal = ticks.steal_share_until(&CpuTicks::now());
    setups.push(run.setup_s);
    let n = input.pairs.len() as u64;
    let rebuild_ms = median(&run.reconfigure_ms);
    let e2e = &mut out.end_to_end;
    e2e.set("throughput_tps", n as f64 / run.simulate_s);
    e2e.set("latency_p50_us", rebuild_ms * 1e3);
    e2e.set("locality", run.exact.locality);
    e2e.set("imbalance", run.exact.imbalance);
    e2e.set("setup_s", median(&setups));
    out.attempted = n + run.reconfigure_ms.len() as u64;
    out.failed = run.failed + run.refused;
    out.extras
        .push(("sim_cluster_tps", run.exact.cluster_tps, "tuples/sim-s"));
    out.extras
        .push(("migrations", run.exact.migrations as f64, "key-states"));
    out.extras.push(("rebuild_p50_ms", rebuild_ms, "ms"));
    out.extras
        .push(("reconfigurations", run.reconfigure_ms.len() as f64, "count"));

    let m = &mut out.per_layer;
    m.set("host.steal_share", steal);
    m.set("workloads.gen_s", gen_s);
    if !cfg.trace {
        m.set("host.max_rss_mb", host::max_rss_mb());
        return out;
    }
    let mut spans = Spans::new(true);
    spans.enter("sim-drift");
    let traced = simulate(&input, &reference, true, &mut spans);
    spans.exit();
    out.attempted += n + traced.reconfigure_ms.len() as u64;
    out.failed += traced.failed + traced.refused;
    // Benchmark-owned trackers only observe, so the traced run must
    // reproduce the untraced one exactly.
    out.failed += u64::from(traced.exact != run.exact);
    let m = &mut out.per_layer;
    m.set(
        "trace.overhead_share",
        traced.simulate_s / run.simulate_s - 1.0,
    );
    let l = &traced.layers;
    m.set("sketch.snapshot_ms", median(&l.snapshot_ms));
    m.set("sketch.merge_ms", median(&l.merge_ms));
    if let Some(last) = l.partition.last() {
        tables::PartitionStats {
            ms: median(&l.partition.iter().map(|p| p.ms).collect::<Vec<_>>()),
            ..*last
        }
        .report(m);
    }
    let summaries = &traced.summaries;
    if let Some(last) = summaries.last() {
        m.set("core.manager.table_entries", last.table_entries as f64);
        m.set("core.manager.edges_used", last.edges_used as f64);
    }
    m.set(
        "core.manager.reconfigure_ms.p50",
        median(&traced.reconfigure_ms),
    );
    m.set(
        "core.manager.reconfigure_ms.max",
        stats::max(&traced.reconfigure_ms),
    );
    m.set(
        "core.manager.reconfigure_ms.n",
        traced.reconfigure_ms.len() as f64,
    );
    m.set("core.manager.estimate_ms", median(&l.estimate_ms));
    m.set(
        "core.manager.pairs_observed",
        summaries.iter().map(|s| s.pairs_observed).sum::<u64>() as f64,
    );
    m.set("core.manager.refused", traced.refused as f64);
    let (migrated_bytes, late_forwarded, buffered, network_bytes, latency_windows, max_queue) =
        traced.log;
    m.set("engine.reconfig.migrations", traced.exact.migrations as f64);
    m.set("engine.reconfig.migration_bytes", migrated_bytes as f64);
    m.set("engine.reconfig.late_forwarded", late_forwarded as f64);
    m.set("engine.reconfig.buffered", buffered as f64);
    m.set(
        "engine.sim.run_ms_per_window",
        traced.run_s * 1e3 / traced.windows.max(1) as f64,
    );
    m.set("engine.sim.cluster_tps", traced.exact.cluster_tps);
    m.set("engine.sim.network_mb", network_bytes as f64 / 1e6);
    m.set("engine.sim.latency_windows", latency_windows);
    m.set("engine.sim.max_queue_depth", max_queue as f64);
    m.set("host.max_rss_mb", host::max_rss_mb());
    out.finish_spans("sim-drift", cfg.seed, &spans);
    out
}
