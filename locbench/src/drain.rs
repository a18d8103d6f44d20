//! `live-drain`: a closed-loop batch job on the live runtime.
//!
//! One source instance replays a pre-generated drifting Twitter-like
//! stream as fast as the pipeline accepts it into `by_location`
//! (`CountOperator`, fields 0) and then `by_hashtag` (`CountOperator`,
//! fields 1), two instances each on two placement tags. Locality tables
//! are computed offline from a warm-up prefix and installed with
//! `Grouping::fields_with`; a `PairTracker` observes every
//! `by_location` instance. The job runs repeatedly until the run's time
//! is used up; every job is checked against the reference counts.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use streamloc::engine::{
    CountOperator, EdgeId, Grouping, Key, KeyRouter, LiveConfig, LiveObserver, LiveRuntime,
    PairObserver, Placement, SourceRate, StateValue, Topology, Tuple,
};
use streamloc::routing::PairTracker;

use crate::check::{mismatches, Reference};
use crate::host::{self, CpuTicks};
use crate::input;
use crate::live::{operator_factory, table_router, wait_exited, LiveTrace};
use crate::spans::Spans;
use crate::stats::{imbalance, median};
use crate::tables::{self, PartitionStats, Partitioned};
use crate::{Outcome, RunConfig};

/// Placement tags, and instances of each counting operator.
pub const SERVERS: usize = 2;
/// Tuples each job pushes through the pipeline.
pub const JOB_TUPLES: usize = 250_000;
/// Days of stream before the job's input that the offline tables are
/// computed from.
pub const WARMUP_DAYS: usize = 1;
/// Inputs per run: jobs cycle through this many streams derived from
/// the seed, so the figures the input fixes (`locality`, `imbalance`)
/// average over several streams instead of hanging on one.
pub const INPUTS: u64 = 4;
/// Jobs per run, at least (every input at least twice) and at most.
const MIN_JOBS: usize = 8;
const MAX_JOBS: usize = 200;
/// Pair tracker capacity per `by_location` instance.
const TRACKER_CAPACITY: usize = 50_000;

/// The generated input of one seed.
#[derive(Debug, Clone)]
pub struct Input {
    seed: u64,
    warmup: Vec<(Key, Key)>,
    pairs: Vec<(Key, Key)>,
    tuples: Arc<Vec<Tuple>>,
}

impl Input {
    /// Generates the warm-up prefix and the job's tuples for `seed`.
    #[must_use]
    pub fn generate(seed: u64) -> Self {
        let mut tw = input::twitter(seed, input::live_config());
        let per_day = tw.config().tuples_per_day;
        let warmup = input::tweets(&mut tw, 0, WARMUP_DAYS * per_day);
        let pairs = input::tweets(&mut tw, WARMUP_DAYS, JOB_TUPLES);
        let tuples = Arc::new(pairs.iter().map(|&(l, t)| Tuple::new([l, t], 0)).collect());
        Self {
            seed,
            warmup,
            pairs,
            tuples,
        }
    }

    /// The job's `(location, hashtag)` pairs.
    #[must_use]
    pub fn pairs(&self) -> &[(Key, Key)] {
        &self.pairs
    }

    /// Offline tables from the warm-up prefix.
    pub fn tables(&self, spans: &mut Spans) -> Partitioned {
        let mut counts = tables::pair_counts(&self.warmup);
        tables::partition(&mut counts, SERVERS, self.seed, spans)
    }
}

/// What a single-threaded pass over the job predicts.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Reference counts per key.
    pub reference: Reference,
    /// Share of `by_location → by_hashtag` transfers that stay on one
    /// server under the tables.
    pub locality: f64,
    /// Tuples each `by_hashtag` instance processes.
    pub hashtag_loads: Vec<u64>,
    /// Tuples per second of the single-threaded pass: the same table
    /// lookups, per-key counts and `observe_run` calls as the job, in
    /// one thread with no channels.
    pub single_thread_tps: f64,
}

impl Expected {
    /// Runs the job single-threaded under `tables`.
    #[must_use]
    pub fn compute(input: &Input, tables: &Partitioned) -> Self {
        let tracker = PairTracker::new(TRACKER_CAPACITY);
        let mut observer = tracker.handle();
        let mut loc_counts: Vec<HashMap<Key, u64>> = vec![HashMap::new(); SERVERS];
        let mut tag_counts: Vec<HashMap<Key, u64>> = vec![HashMap::new(); SERVERS];
        let mut local = 0u64;
        let t = Instant::now();
        for &(loc, tag) in &input.pairs {
            let a = tables.location.route(loc, SERVERS) as usize;
            let b = tables.hashtag.route(tag, SERVERS) as usize;
            *loc_counts[a].entry(loc).or_default() += 1;
            *tag_counts[b].entry(tag).or_default() += 1;
            observer.observe_run(loc, tag, 1);
            local += u64::from(a == b);
        }
        let elapsed = t.elapsed().as_secs_f64();
        let n = input.pairs.len() as u64;
        let hashtag_loads = tag_counts.iter().map(|c| c.values().sum()).collect();
        let merge = |per: Vec<HashMap<Key, u64>>| per.into_iter().flatten().collect();
        Self {
            reference: Reference {
                by_location: merge(loc_counts),
                by_hashtag: merge(tag_counts),
            },
            locality: local as f64 / n as f64,
            hashtag_loads,
            single_thread_tps: n as f64 / elapsed,
        }
    }
}

/// One job's measurements.
#[derive(Debug, Clone)]
pub struct Job {
    /// Workload start (table computation) to the first tuple admitted.
    pub setup_s: f64,
    /// First tuple admitted to `join` returning.
    pub elapsed_s: f64,
    /// `LiveRuntime::start` alone, milliseconds.
    pub start_ms: f64,
    /// Source exhaustion to `join` returning, milliseconds.
    pub drain_ms: f64,
    /// Process CPU time from `LiveRuntime::start` to `join`, ns.
    pub cpu_ns: f64,
    /// `edge_locality` of the `by_location → by_hashtag` edge.
    pub locality: f64,
    /// Tuples processed per `by_hashtag` instance.
    pub hashtag_loads: Vec<u64>,
    /// Tuples missing or extra against the reference, plus one if the
    /// locality or the recomputed tables disagree with the reference.
    pub failed: u64,
    /// The offline partition computed in this job's set-up.
    pub partition: PartitionStats,
}

/// Runs one job: offline tables, topology, start, drain, check.
/// Returns the measurements and the final state of every operator
/// instance, in report order.
pub fn run_job(
    input: &Input,
    expected: &Expected,
    reference_tables: &Partitioned,
    mut trace: Option<&mut LiveTrace>,
    spans: &mut Spans,
) -> (Job, Vec<HashMap<Key, StateValue>>) {
    let job_start = Instant::now();
    spans.enter("job");
    let partition = input.tables(spans);
    let mut failed = u64::from(
        partition.location != reference_tables.location
            || partition.hashtag != reference_tables.hashtag,
    );

    let first_tuple: Arc<OnceLock<Instant>> = Arc::new(OnceLock::new());
    let exhausted = Arc::new(AtomicBool::new(false));
    let mut b = Topology::builder();
    let source = {
        let tuples = Arc::clone(&input.tuples);
        let first_tuple = Arc::clone(&first_tuple);
        let exhausted = Arc::clone(&exhausted);
        b.source("tweets", 1, SourceRate::Saturate, move |_| {
            let tuples = Arc::clone(&tuples);
            let first_tuple = Arc::clone(&first_tuple);
            let exhausted = Arc::clone(&exhausted);
            let mut next = 0usize;
            Box::new(move || {
                if next == 0 {
                    first_tuple.get_or_init(Instant::now);
                }
                let t = tuples.get(next).copied();
                next += 1;
                if t.is_none() {
                    exhausted.store(true, Ordering::SeqCst);
                }
                t
            })
        })
    };
    let ops = |which: usize| {
        operator_factory(
            |_| Box::new(CountOperator),
            trace.as_ref().map(|t| t.op_accs(which)),
        )
    };
    let by_location = b.stateful("by_location", SERVERS, ops(0));
    let by_hashtag = b.stateful("by_hashtag", SERVERS, ops(1));
    let loc_router = table_router(trace.as_deref_mut(), &partition.location);
    let tag_router = table_router(trace.as_deref_mut(), &partition.hashtag);
    b.connect(source, by_location, Grouping::fields_with(0, loc_router));
    let hop: EdgeId = b.connect(
        by_location,
        by_hashtag,
        Grouping::fields_with(1, tag_router),
    );
    let topology = b.build().expect("live-drain topology is a valid chain");
    let placement = Placement::aligned(&topology, SERVERS);
    let observers: Vec<LiveObserver> = (0..SERVERS)
        .map(|i| {
            let handle: Box<dyn PairObserver> =
                Box::new(PairTracker::new(TRACKER_CAPACITY).handle());
            let obs = match trace.as_ref() {
                Some(t) => t.observer(i, handle),
                None => handle,
            };
            (by_location, i, hop, 1, obs)
        })
        .collect();
    let config = trace
        .as_ref()
        .map_or_else(LiveConfig::default, |t| t.config());

    let cpu_before = host::process_cpu_ns();
    let start = Instant::now();
    let rt = spans.time("LiveRuntime::start", || {
        LiveRuntime::start_with_observers(topology, placement, SERVERS, config, observers)
    });
    let start_ms = start.elapsed().as_secs_f64() * 1e3;
    while !exhausted.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_micros(500));
    }
    let exhausted_at = Instant::now();
    spans.enter("LiveRuntime::join");
    wait_exited(&rt, by_location, SERVERS);
    let locality = rt.edge_locality(hop);
    let reports = rt.join();
    spans.exit();
    let end = Instant::now();
    let cpu_ns = host::process_cpu_ns() - cpu_before;
    spans.exit();

    let first = *first_tuple.get().expect("the source ran");
    let states = |po| reports.iter().filter(move |r| r.po == po).map(|r| &r.state);
    failed += mismatches(&expected.reference.by_location, states(by_location));
    failed += mismatches(&expected.reference.by_hashtag, states(by_hashtag));
    let hashtag_loads: Vec<u64> = reports
        .iter()
        .filter(|r| r.po == by_hashtag)
        .map(|r| r.processed)
        .collect();
    // Routing is fixed for the whole job, so the transfer counts and
    // per-instance loads are exact, like the states.
    failed += u64::from(locality != expected.locality);
    failed += u64::from(hashtag_loads != expected.hashtag_loads);
    let job = Job {
        setup_s: (first - job_start).as_secs_f64(),
        elapsed_s: (end - first).as_secs_f64(),
        start_ms,
        drain_ms: (end - exhausted_at).as_secs_f64() * 1e3,
        cpu_ns,
        locality,
        hashtag_loads,
        failed,
        partition: partition.stats,
    };
    (job, reports.into_iter().map(|r| r.state).collect())
}

/// One input of a run, with its offline tables and reference.
struct Case {
    input: Input,
    tables: Partitioned,
    expected: Expected,
}

/// Runs jobs, cycling through `cases`, until `seconds` have passed (at
/// least [`MIN_JOBS`]). Each job comes with the index of its case.
fn run_jobs(
    cases: &[Case],
    seconds: u64,
    mut trace: Option<&mut LiveTrace>,
    spans: &mut Spans,
) -> Vec<(usize, Job)> {
    let t = Instant::now();
    let mut jobs = Vec::new();
    while jobs.len() < MIN_JOBS || (t.elapsed().as_secs() < seconds && jobs.len() < MAX_JOBS) {
        let k = jobs.len() % cases.len();
        let c = &cases[k];
        let (job, _) = run_job(
            &c.input,
            &c.expected,
            &c.tables,
            trace.as_deref_mut(),
            spans,
        );
        jobs.push((k, job));
    }
    jobs
}

/// Mean over the cases of `f` on one job of each case.
fn mean_over_cases(jobs: &[(usize, Job)], cases: usize, f: impl Fn(&Job) -> f64) -> f64 {
    let sum: f64 = (0..cases)
        .map(|k| {
            let (_, job) = jobs.iter().find(|(i, _)| *i == k).expect("every case ran");
            f(job)
        })
        .sum();
    sum / cases as f64
}

/// Median over jobs of `f`.
fn median_over(jobs: &[(usize, Job)], f: impl Fn(&Job) -> f64) -> f64 {
    median(&jobs.iter().map(|(_, j)| f(j)).collect::<Vec<_>>())
}

/// Runs `live-drain` for `cfg`.
#[must_use]
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::new();
    let gen = Instant::now();
    let inputs: Vec<Input> = (0..INPUTS)
        .map(|k| Input::generate(input::sub_seed(cfg.seed, k)))
        .collect();
    let gen_s = gen.elapsed().as_secs_f64();
    let cases: Vec<Case> = inputs
        .into_iter()
        .map(|input| {
            let tables = input.tables(&mut Spans::new(false));
            let expected = Expected::compute(&input, &tables);
            Case {
                input,
                tables,
                expected,
            }
        })
        .collect();
    let n_cases = cases.len();

    let ticks = CpuTicks::now();
    let jobs = run_jobs(&cases, cfg.seconds, None, &mut Spans::new(false));
    let steal = ticks.steal_share_until(&CpuTicks::now());
    let n = JOB_TUPLES as f64;
    let job_s = median_over(&jobs, |j| j.elapsed_s);
    let e2e = &mut out.end_to_end;
    e2e.set("throughput_tps", median_over(&jobs, |j| n / j.elapsed_s));
    e2e.set("latency_p50_us", job_s * 1e6);
    e2e.set("locality", mean_over_cases(&jobs, n_cases, |j| j.locality));
    e2e.set(
        "imbalance",
        mean_over_cases(&jobs, n_cases, |j| imbalance(&j.hashtag_loads)),
    );
    e2e.set("setup_s", median_over(&jobs, |j| j.setup_s));
    out.attempted = jobs.len() as u64 * JOB_TUPLES as u64;
    out.failed = jobs.iter().map(|(_, j)| j.failed).sum();
    out.extras.push(("jobs", jobs.len() as f64, "count"));

    let m = &mut out.per_layer;
    m.set("host.steal_share", steal);
    m.set("workloads.gen_s", gen_s);
    m.set(
        "baseline.single_thread_tps",
        median(
            &cases
                .iter()
                .map(|c| c.expected.single_thread_tps)
                .collect::<Vec<_>>(),
        ),
    );
    if !cfg.trace {
        m.set("host.max_rss_mb", host::max_rss_mb());
        return out;
    }
    let cpu: f64 = jobs.iter().map(|(_, j)| j.cpu_ns).sum();
    m.set(
        "engine.live.cpu_ns_per_tuple",
        cpu / (n * jobs.len() as f64),
    );

    let mut trace = LiveTrace::new(SERVERS);
    let mut spans = Spans::new(true);
    spans.enter("live-drain");
    let traced = run_jobs(&cases, cfg.seconds, Some(&mut trace), &mut spans);
    spans.exit();
    out.attempted += traced.len() as u64 * JOB_TUPLES as u64;
    out.failed += traced.iter().map(|(_, j)| j.failed).sum::<u64>();
    let m = &mut out.per_layer;
    trace.report(m);
    m.set(
        "trace.overhead_share",
        median_over(&traced, |j| j.elapsed_s) / job_s - 1.0,
    );
    m.set("engine.live.start_ms", median_over(&traced, |j| j.start_ms));
    m.set("engine.live.drain_ms", median_over(&traced, |j| j.drain_ms));
    PartitionStats {
        ms: median_over(&traced, |j| j.partition.ms),
        ..traced[0].1.partition
    }
    .report(m);
    m.set("host.max_rss_mb", host::max_rss_mb());
    out.finish_spans("live-drain", cfg.seed, &spans);
    out
}
