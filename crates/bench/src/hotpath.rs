//! Hot-path benchmarks: live data-plane throughput and manager rebuild
//! latency (cold vs warm-started).
//!
//! These are the two budgets the paper treats as first-class: the
//! per-tuple routing-decision cost (§2) and the time the manager
//! spends rebuilding tables inside a reconfiguration (§4.4 measures
//! how fast throughput recovers). The `hotpath` binary runs both on
//! the synthetic Zipf workload and seeds the bench trajectory with
//! `BENCH_throughput.json` and `BENCH_rebuild.json` at the workspace
//! root; EXPERIMENTS.md documents the format.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use streamloc_core::{Manager, ManagerConfig};
use streamloc_engine::{
    ClusterSpec, CountOperator, Grouping, Key, LiveConfig, LiveRuntime, MetricsRegistry, Placement,
    SimConfig, Simulation, SourceRate, SpanSampler, Topology, Tuple,
};
use streamloc_workloads::{SplitMix64, Zipf};

/// One measured throughput run.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputRun {
    /// Wall-clock seconds from start to drained join.
    pub elapsed_s: f64,
    /// Source tuples over `elapsed_s`.
    pub tuples_per_s: f64,
    /// `live_batch_sends_total` after the run.
    pub batch_sends: u64,
}

/// The Zipf pipeline every throughput run deploys: `servers` sources
/// drawing keys from `Zipf(keys, 1.0)` with the pinned [`SplitMix64`]
/// stream, feeding two fields-grouped stateful hops — the same
/// source → A → B chain as the paper's evaluation topology.
fn zipf_chain(servers: usize, keys: usize, total: u64) -> Topology {
    let mut b = Topology::builder();
    let per_source = (total / servers as u64) as usize;
    // The key stream is drawn up front so the timed region measures
    // the data plane (route + channel + operator), not the sampler.
    let stream: Arc<Vec<u64>> = Arc::new({
        let zipf = Zipf::new(keys, 1.0);
        let mut rng = SplitMix64::new(0x2a2a);
        (0..per_source * servers)
            .map(|_| zipf.sample(&mut rng) as u64)
            .collect()
    });
    let s = b.source("S", servers, SourceRate::Saturate, move |i| {
        let stream = Arc::clone(&stream);
        let mut next = i * per_source;
        let end = (i + 1) * per_source;
        Box::new(move || {
            if next == end {
                return None;
            }
            let k = stream[next];
            next += 1;
            Some(Tuple::new([Key::new(k), Key::new(k)], 0))
        })
    });
    let a = b.stateful("A", servers, CountOperator::factory());
    let bb = b.stateful("B", servers, CountOperator::factory());
    b.connect(s, a, Grouping::fields(0));
    b.connect(a, bb, Grouping::fields(1));
    b.build().expect("valid chain")
}

fn throughput_run(
    servers: usize,
    keys: usize,
    total: u64,
    span_sampler: Option<SpanSampler>,
) -> ThroughputRun {
    let total = (total / servers as u64) * servers as u64;
    let topo = zipf_chain(servers, keys, total);
    let placement = Placement::aligned(&topo, servers);
    let registry = Arc::new(MetricsRegistry::new());
    let config = LiveConfig {
        metrics: Some(Arc::clone(&registry)),
        span_sampler,
    };
    let start = Instant::now();
    let rt = LiveRuntime::start(topo, placement, servers, config);
    let reports = rt.join();
    let elapsed_s = start.elapsed().as_secs_f64();
    let processed: u64 = reports
        .iter()
        .filter(|r| r.po.index() == 1)
        .map(|r| r.processed)
        .sum();
    assert_eq!(processed, total, "pipeline must drain every tuple");
    let batch_sends = registry
        .snapshot()
        .into_iter()
        .find(|(name, _)| name == "live_batch_sends_total")
        .map_or(0, |(_, v)| v);
    ThroughputRun {
        elapsed_s,
        tuples_per_s: total as f64 / elapsed_s,
        batch_sends,
    }
}

/// Runs the live throughput bench, best of 5 runs, and writes
/// `BENCH_throughput.json` at the workspace root.
pub fn bench_throughput(quick: bool) -> (ThroughputRun, PathBuf) {
    let servers = 3;
    let keys = 1_000;
    // Quick mode too: a batched run of 400k tuples lasts ≈ 36 ms, too
    // short to hold `bench-check`'s 20% gate on two shared cores.
    let total: u64 = 2_000_000;
    let reps = 5;
    println!(
        "Live throughput — Zipf({keys}) chain, {servers} servers, {total} tuples, batch {}",
        LiveRuntime::BATCH
    );
    // Best of `reps`: on a loaded machine the minimum wall time is the
    // least-perturbed estimate of the pipeline's actual cost.
    let best = (0..reps)
        .map(|_| throughput_run(servers, keys, total, None))
        .max_by(|a, b| a.tuples_per_s.total_cmp(&b.tuples_per_s))
        .expect("at least one rep");
    println!(
        "  best of {reps}:  {:.3}s   {:.0} tuples/s   {} batch sends",
        best.elapsed_s, best.tuples_per_s, best.batch_sends
    );
    let json = format!(
        "{{\n  \"bench\": \"live_throughput\",\n  \"workload\": \"zipf\",\n  \"zipf_keys\": {},\n  \"servers\": {},\n  \"total_tuples\": {},\n  \"quick\": {},\n  \"batch_size\": {},\n  \"reps\": {},\n  \"elapsed_s\": {:.6},\n  \"tuples_per_s\": {:.1},\n  \"batch_sends\": {}\n}}\n",
        keys,
        servers,
        total,
        quick,
        LiveRuntime::BATCH,
        reps,
        best.elapsed_s,
        best.tuples_per_s,
        best.batch_sends,
    );
    let path = workspace_root().join("BENCH_throughput.json");
    fs::write(&path, json).expect("write BENCH_throughput.json");
    (best, path)
}

/// Result of the span-tracing overhead bench.
#[derive(Debug, Clone)]
pub struct SpanOverheadBench {
    /// Sampling denominator (1 key in `n` sampled).
    pub denominator: u64,
    /// Sampling-off throughput of the median pair, tuples/second.
    pub off_tuples_per_s: f64,
    /// The same pair's 1/`denominator`-sampled throughput.
    pub on_tuples_per_s: f64,
    /// Every pair's overhead, in run order.
    pub pair_overheads: Vec<f64>,
}

impl SpanOverheadBench {
    /// Fractional throughput lost to sampling in the median pair
    /// (negative = noise made the sampled run faster).
    #[must_use]
    pub fn overhead(&self) -> f64 {
        1.0 - self.on_tuples_per_s / self.off_tuples_per_s.max(f64::MIN_POSITIVE)
    }
}

/// Measures the batched data plane with span sampling off vs. on at
/// 1/`denominator` over `pairs` off/on pairs, alternating which arm
/// runs first, and reports the pair with the median overhead (the
/// upper one for an even count). A burst of host load slows one run of
/// a pair and moves that pair's ratio either way; the median discards
/// such pairs without picking the ones noise made look cheapest, as
/// the minimum would, and alternating keeps the order out of it.
///
/// # Panics
///
/// Panics if `pairs` is zero.
#[must_use]
pub fn measure_span_overhead(total: u64, denominator: u64, pairs: usize) -> SpanOverheadBench {
    assert!(pairs > 0, "at least one pair");
    let servers = 3;
    let keys = 1_000;
    let run = |sampler| throughput_run(servers, keys, total, sampler);
    let sampled = || Some(SpanSampler::new(0xC0FFEE, denominator));
    let mut runs: Vec<(f64, f64)> = (0..pairs)
        .map(|i| {
            let (off, on) = if i % 2 == 0 {
                let off = run(None);
                (off, run(sampled()))
            } else {
                let on = run(sampled());
                (run(None), on)
            };
            (off.tuples_per_s, on.tuples_per_s)
        })
        .collect();
    let overhead = |&(off, on): &(f64, f64)| 1.0 - on / off;
    let pair_overheads = runs.iter().map(overhead).collect();
    runs.sort_by(|a, b| overhead(a).total_cmp(&overhead(b)));
    let (off, on) = runs[pairs / 2];
    SpanOverheadBench {
        denominator,
        off_tuples_per_s: off,
        on_tuples_per_s: on,
        pair_overheads,
    }
}

/// Runs the span-tracing overhead bench (1/64 sampling, the
/// budget point) and writes `BENCH_span_overhead.json` at the
/// workspace root. Quick mode too times 2M tuples per run: shorter
/// runs are noise-dominated.
pub fn bench_span_overhead(quick: bool) -> (SpanOverheadBench, PathBuf) {
    let total: u64 = 2_000_000;
    let pairs = 9;
    let bench = measure_span_overhead(total, 64, pairs);
    println!(
        "Span tracing overhead — batch {}, 1/{} sampling, median of {pairs} pairs of {total} tuples",
        LiveRuntime::BATCH,
        bench.denominator
    );
    println!("  sampling off:  {:>12.0} t/s", bench.off_tuples_per_s);
    println!("  sampling on:   {:>12.0} t/s", bench.on_tuples_per_s);
    println!("  overhead:      {:>11.2}%", bench.overhead() * 100.0);
    let per_pair: Vec<String> = bench
        .pair_overheads
        .iter()
        .map(|o| format!("{o:.4}"))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"span_overhead\",\n  \"workload\": \"zipf\",\n  \"quick\": {},\n  \"sample_denominator\": {},\n  \"tuples_per_run\": {},\n  \"pairs\": {},\n  \"off_tuples_per_s\": {:.1},\n  \"on_tuples_per_s\": {:.1},\n  \"overhead_fraction\": {:.4},\n  \"pair_overheads\": [{}]\n}}\n",
        quick,
        bench.denominator,
        total,
        pairs,
        bench.off_tuples_per_s,
        bench.on_tuples_per_s,
        bench.overhead(),
        per_pair.join(", "),
    );
    let path = workspace_root().join("BENCH_span_overhead.json");
    fs::write(&path, json).expect("write BENCH_span_overhead.json");
    (bench, path)
}

/// Result of the manager rebuild-latency bench.
#[derive(Debug, Clone)]
pub struct RebuildBench {
    /// Zipf key-domain size per hop side.
    pub keys: u64,
    /// Servers in the simulated cluster.
    pub servers: usize,
    /// Key pairs the sketches had absorbed before each rebuild.
    pub pairs_observed: u64,
    /// First rebuild, no assignment history (milliseconds).
    pub cold_ms: f64,
    /// Steady-state rebuild, warm-started from the previous
    /// assignment (milliseconds).
    pub warm_ms: f64,
    /// Steady-state rebuild with `warm_start: false` — the serial
    /// cold path on the same statistics (milliseconds).
    pub cold_steady_ms: f64,
}

/// A Zipf-keyed correlated simulation: key `k` on hop field 0 always
/// pairs with `k + keys` on field 1, with `k` Zipf-skewed, so the key
/// graph has `2 * keys` vertices worth of long-tail structure for the
/// partitioner to chew on.
fn zipf_sim(servers: usize, keys: u64) -> Simulation {
    let mut b = Topology::builder();
    let s = b.source("S", servers, SourceRate::PerSecond(40_000.0), move |i| {
        let zipf = Zipf::new(keys as usize, 1.0);
        let mut rng = SplitMix64::new(0x5eed ^ i as u64);
        Box::new(move || {
            let k = zipf.sample(&mut rng) as u64;
            Some(Tuple::new([Key::new(k), Key::new(k + keys)], 64))
        })
    });
    let a = b.stateful("A", servers, CountOperator::factory());
    let bb = b.stateful("B", servers, CountOperator::factory());
    b.connect(s, a, Grouping::fields(0));
    b.connect(a, bb, Grouping::fields(1));
    let topo = b.build().expect("valid chain");
    let placement = Placement::aligned(&topo, servers);
    Simulation::new(
        topo,
        ClusterSpec::lan_10g(servers),
        placement,
        SimConfig::default(),
    )
}

/// Runs the manager rebuild-latency bench and writes
/// `BENCH_rebuild.json` at the workspace root.
pub fn bench_rebuild(quick: bool) -> (RebuildBench, PathBuf) {
    let servers = 4;
    let keys: u64 = if quick { 2_000 } else { 20_000 };
    let windows = if quick { 10 } else { 30 };

    // Warm-started manager: first rebuild is cold (no history), the
    // second warm-starts from the first's assignment.
    let mut sim = zipf_sim(servers, keys);
    let mut mgr = Manager::attach(&mut sim, ManagerConfig::default());
    sim.run(windows);
    let pairs_observed = mgr.pairs_observed();
    let t = Instant::now();
    mgr.reconfigure(&mut sim).expect("cold rebuild");
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    sim.run(windows);
    let t = Instant::now();
    mgr.reconfigure(&mut sim).expect("warm rebuild");
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;

    // Control: the same steady-state rebuild without warm start.
    let mut cold_sim = zipf_sim(servers, keys);
    let mut cold_mgr = Manager::attach(
        &mut cold_sim,
        ManagerConfig {
            warm_start: false,
            ..ManagerConfig::default()
        },
    );
    cold_sim.run(windows);
    cold_mgr
        .reconfigure(&mut cold_sim)
        .expect("control rebuild");
    cold_sim.run(windows);
    let t = Instant::now();
    cold_mgr
        .reconfigure(&mut cold_sim)
        .expect("control steady rebuild");
    let cold_steady_ms = t.elapsed().as_secs_f64() * 1e3;

    let bench = RebuildBench {
        keys,
        servers,
        pairs_observed,
        cold_ms,
        warm_ms,
        cold_steady_ms,
    };
    println!("Manager rebuild — Zipf({keys}) pairs, {servers} servers");
    println!("  cold (first rebuild):        {cold_ms:>8.2} ms");
    println!("  warm (steady state):         {warm_ms:>8.2} ms");
    println!("  cold control (steady state): {cold_steady_ms:>8.2} ms");

    let json = format!(
        "{{\n  \"bench\": \"manager_rebuild\",\n  \"workload\": \"zipf\",\n  \"zipf_keys\": {},\n  \"servers\": {},\n  \"quick\": {},\n  \"pairs_observed\": {},\n  \"cold_ms\": {:.3},\n  \"warm_ms\": {:.3},\n  \"cold_steady_ms\": {:.3}\n}}\n",
        bench.keys,
        bench.servers,
        quick,
        bench.pairs_observed,
        bench.cold_ms,
        bench.warm_ms,
        bench.cold_steady_ms,
    );
    let path = workspace_root().join("BENCH_rebuild.json");
    fs::write(&path, json).expect("write BENCH_rebuild.json");
    (bench, path)
}

/// The workspace root of the current directory: see
/// [`workspace_root_from`].
#[must_use]
pub fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_default();
    workspace_root_from(&cwd)
}

/// The nearest ancestor of `start` (itself included) that holds
/// `BENCH_baseline.json`, so a binary run inside a copied checkout reads
/// and writes that checkout's `BENCH_*.json`. Falls back to the root
/// this crate was compiled in, so the binary also works from a
/// directory outside any checkout.
#[must_use]
pub fn workspace_root_from(start: &Path) -> PathBuf {
    match start
        .ancestors()
        .find(|dir| dir.join("BENCH_baseline.json").is_file())
    {
        Some(dir) => dir.to_path_buf(),
        None => Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_run_drains_and_counts_batches() {
        let run = throughput_run(2, 100, 6_000, None);
        assert!(run.tuples_per_s > 0.0);
        assert!(run.batch_sends > 0, "batched run must send batches");
    }

    #[test]
    fn workspace_root_is_the_nearest_checkout_above_the_start() {
        let scratch = std::env::temp_dir().join(format!("streamloc-root-{}", std::process::id()));
        let nested = scratch.join("copy").join("crates").join("bench");
        fs::create_dir_all(&nested).unwrap();
        fs::write(scratch.join("copy").join("BENCH_baseline.json"), "{}").unwrap();
        assert_eq!(workspace_root_from(&nested), scratch.join("copy"));
        let compiled = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert_eq!(
            workspace_root_from(&scratch).canonicalize().unwrap(),
            compiled.canonicalize().unwrap(),
            "no checkout above the start: the compile-time root"
        );
        fs::remove_dir_all(&scratch).unwrap();
    }

    #[test]
    fn span_overhead_within_five_percent() {
        // The hard budget: 1/64 sampling must cost the batched hot
        // path at most 5% throughput. The median of alternating pairs
        // keeps shared-machine noise out of the estimate; runs shorter
        // than ~400k tuples are noise-dominated. The 5%
        // budget is a property of the *optimized* hot path — the
        // `hotpath` binary asserts it in release — so unoptimized
        // builds get headroom and still catch gross regressions such
        // as an accidental per-tuple clock read.
        let budget = if cfg!(debug_assertions) { 0.15 } else { 0.05 };
        let bench = measure_span_overhead(400_000, 64, 4);
        assert!(
            bench.overhead() <= budget,
            "span sampling overhead {:.2}% exceeds the {:.0}% budget ({:.0} off vs {:.0} on t/s)",
            bench.overhead() * 100.0,
            budget * 100.0,
            bench.off_tuples_per_s,
            bench.on_tuples_per_s,
        );
    }
}
