//! A real multi-threaded runtime executing the same [`Topology`] the
//! simulator models: a few shard threads, each driving a set of
//! operator instances, and the online reconfiguration protocol of
//! paper §3.4 running over actual message passing.
//!
//! The simulator (`sim.rs`) answers *performance* questions with a
//! controlled cost model; this runtime answers *functional* ones — it
//! executes user operators for real, under real thread interleavings,
//! with real backpressure. What an instance does is the sans-IO
//! [`Instance`] actor of `instance.rs` (data plane, wave participant,
//! end of stream), and the wave driver runs the same `WaveCoordinator`
//! as the simulator (stage, gate, release, and roll-forward recovery).
//! This module adds only the shards and the public API.
//!
//! A shard ([`Shard::run`]) is one thread that drives a set of
//! actors, each with a local FIFO queue. Every source instance has a
//! shard of its own, because a [`TupleSource`] is user code that may
//! block. Operator instances are grouped by placement tag into
//! `min(tags, available_parallelism)` shards, tag `t` in shard `t % k`.
//! A send to an instance of the same shard is pushed onto its queue:
//! an in-memory hand-off, with no channel and no wake-up. A send to
//! another shard goes on that shard's one unbounded channel, which the
//! wave driver, probes and crashes post to as well. "Servers" are
//! placement tags: transfers between instances with different tags are
//! counted as remote, so locality statistics remain meaningful even
//! though everything runs in one process. A shard ends when its last
//! actor is done, by protocol, so [`LiveRuntime::join`] returns exactly
//! when the pipeline drained.
//!
//! [`TupleSource`]: crate::TupleSource

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::checkpoint::ClusterCheckpoint;
use crate::fault::{ControlFate, FaultInjector, FaultPlan};
use crate::instance::{CoordMsg, Instance, Msg, Outbox, PairObserver, Shared};
use crate::key::Key;
use crate::obs::{Gauge, MetricsRegistry, SpanSampler};
use crate::operator::StateValue;
use crate::reconfig::{ReconfigError, ReconfigPlan, WaveConfig};
use crate::router::KeyRouter;
use crate::sim::Placement;
use crate::topology::{EdgeId, PoId, PoiId, Topology};
use crate::tuple::Tuple;
use crate::wave::{StagedReconf, WaveCoordinator, WaveSend};

/// An instrumentation registration for the live runtime:
/// `(operator, instance, out edge, observed field, observer)`.
pub type LiveObserver = (PoId, usize, EdgeId, usize, Box<dyn PairObserver>);

/// A reconfiguration for the live runtime, in instance coordinates.
pub struct LiveReconfig {
    /// `(sender po, out edge, new router)` — installed on every
    /// instance of the sender operator.
    pub routers: Vec<(PoId, EdgeId, Arc<dyn KeyRouter>)>,
    /// `(operator, key, old instance, new instance)` state transfers.
    pub migrations: Vec<(PoId, Key, usize, usize)>,
}

impl LiveReconfig {
    /// Every instance's ③ payload of this plan on `topology`.
    fn staged(&self, topology: &Topology) -> Vec<StagedReconf> {
        let poi = |po: PoId, i: usize| {
            let range = topology.instances(po);
            assert!(i < range.len(), "migration instance out of range");
            PoiId(range.start + i)
        };
        let routers = self.routers.iter().flat_map(|(po, edge, router)| {
            topology
                .instances(*po)
                .map(move |i| (PoiId(i), *edge, Arc::clone(router)))
        });
        let migrations = self.migrations.iter();
        let plan = ReconfigPlan {
            routers: routers.collect(),
            migrations: migrations
                .map(|&(po, key, old, new)| (poi(po, old), key, poi(po, new)))
                .collect(),
        };
        plan.split(&topology.instance_bases(), topology.total_instances())
    }
}

impl std::fmt::Debug for LiveReconfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveReconfig")
            .field("router_updates", &self.routers.len())
            .field("migrations", &self.migrations.len())
            .finish()
    }
}

/// Final report of one operator instance after shutdown.
#[derive(Debug)]
pub struct InstanceReport {
    /// The operator this instance belonged to.
    pub po: PoId,
    /// Instance index within the operator.
    pub instance: usize,
    /// Keyed state at shutdown (empty for sources and stateless).
    pub state: HashMap<Key, StateValue>,
    /// Tuples processed (for sources: tuples emitted).
    pub processed: u64,
}

/// How long a tuple may wait in a source stage or a send buffer
/// before its shard hands it off.
const LINGER: Duration = Duration::from_micros(100);

/// What a deployment reports and traces. The data plane has no knob:
/// tuples per destination are coalesced into batches of up to
/// [`LiveRuntime::BATCH`], flushed when full, when their shard is
/// about to wait, once a buffered tuple has waited 100 µs, and on
/// every control-plane boundary (staging a `Reconf`, forwarding
/// `Propagate`, answering a `StateProbe`, sending `Eos`), so
/// per-sender FIFO ordering relative to control messages is preserved.
#[derive(Debug, Clone, Default)]
pub struct LiveConfig {
    /// Observability registry. When set, the runtime registers its
    /// hot-path counters (tuples routed/remote, migrations, migration
    /// bytes, batch sends/flushes) there; workers feed them with
    /// relaxed atomic increments.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Span tracing: a deterministic per-key sampler selecting the
    /// tuples whose per-hop latency is measured. Sources stamp sampled
    /// tuples with a monotonic origin time; every hop records queue
    /// wait and processing time into `span_*` histograms of
    /// [`metrics`](Self::metrics) (see
    /// [`SpanMetricName`](crate::SpanMetricName)), split by local vs.
    /// remote hop and tagged with the active routing epoch. `None`
    /// (the default) disables tracing: the hot path pays one
    /// never-taken branch per tuple.
    pub span_sampler: Option<SpanSampler>,
}

/// A running multi-threaded deployment of a [`Topology`].
///
/// # Example
///
/// ```
/// use streamloc_engine::{
///     CountOperator, Grouping, Key, LiveConfig, LiveRuntime, Placement,
///     SourceRate, Topology, Tuple,
/// };
///
/// let mut builder = Topology::builder();
/// let s = builder.source("S", 2, SourceRate::Saturate, |i| {
///     let mut left = 1000u32;
///     let mut c = i as u64;
///     Box::new(move || {
///         if left == 0 {
///             return None;
///         }
///         left -= 1;
///         c += 1;
///         Some(Tuple::new([Key::new(c % 8)], 0))
///     })
/// });
/// let a = builder.stateful("A", 2, CountOperator::factory());
/// builder.connect(s, a, Grouping::fields(0));
/// let topology = builder.build()?;
///
/// let placement = Placement::aligned(&topology, 2);
/// let runtime = LiveRuntime::start(topology, placement, 2, LiveConfig::default());
/// let reports = runtime.join();
/// let counted: u64 = reports
///     .iter()
///     .flat_map(|r| r.state.values())
///     .filter_map(|v| v.as_count())
///     .sum();
/// assert_eq!(counted, 2000);
/// # Ok::<(), streamloc_engine::BuildTopologyError>(())
/// ```
pub struct LiveRuntime {
    topology: Topology,
    shared: Arc<Shared>,
    fabric: Arc<Fabric>,
    handles: Vec<JoinHandle<Vec<InstanceReport>>>,
    coord_rx: Receiver<CoordMsg>,
    last_checkpoint: Option<ClusterCheckpoint>,
    checkpoint_seq: u64,
}

impl std::fmt::Debug for LiveRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveRuntime")
            .field("instances", &self.instances())
            .field("shards", &self.handles.len())
            .finish_non_exhaustive()
    }
}

impl LiveRuntime {
    /// Tuples per data message, at most: a source stage and a
    /// per-destination send buffer each close once they hold this many.
    pub const BATCH: usize = 256;

    /// Admission bound: a source stages tuples only while fewer than
    /// this many are in flight between instances (in send buffers,
    /// shard queues and channels, summed over the deployment). With
    /// one source, and operators that send on at most one tuple for
    /// each tuple they take, the in-flight count never exceeds it by
    /// more than one stage per out edge of the source.
    pub const BACKLOG_BOUND: u64 = 16_384;

    /// Deploys `topology` on `servers` placement tags and starts every
    /// shard thread.
    ///
    /// # Panics
    ///
    /// Panics if the placement references servers outside
    /// `0..servers`.
    #[must_use]
    pub fn start(
        topology: Topology,
        placement: Placement,
        servers: usize,
        config: LiveConfig,
    ) -> Self {
        Self::start_with_observers(topology, placement, servers, config, Vec::new())
    }

    /// Like [`start`](Self::start), additionally installing pair
    /// observers: `(operator, instance, out edge, observed field,
    /// observer)` — the §3.2 instrumentation for live deployments.
    /// The observed field is normally the routed field of the edge;
    /// see [`Simulation::add_pair_observer`] for the
    /// through-stateless case.
    ///
    /// [`Simulation::add_pair_observer`]: crate::Simulation::add_pair_observer
    ///
    /// # Panics
    ///
    /// Panics if the placement references servers outside
    /// `0..servers`.
    #[must_use]
    pub fn start_with_observers(
        topology: Topology,
        placement: Placement,
        servers: usize,
        config: LiveConfig,
        observers: Vec<LiveObserver>,
    ) -> Self {
        assert!(servers > 0, "at least one server tag");
        let shared = Arc::new(Shared::new(&topology, &placement, &config));
        let in_range = shared.server.iter().all(|&s| s < servers);
        assert!(in_range, "placement server out of range");
        let instances = Instance::all(&topology, &placement, &shared, observers);
        // Operator shards first, tag `t` in shard `t % k`, then one
        // shard per source; each in global instance order.
        let k = servers.min(cores());
        let mut groups: Vec<Vec<(usize, Instance)>> = (0..k).map(|_| Vec::new()).collect();
        for (idx, instance) in instances.into_iter().enumerate() {
            if instance.pull_due().is_some() {
                groups.push(vec![(idx, instance)]);
            } else {
                groups[shared.server[idx] % k].push((idx, instance));
            }
        }
        groups.retain(|g| !g.is_empty());
        let mut place = vec![(0, 0); shared.server.len()];
        for (shard, group) in groups.iter().enumerate() {
            for (slot, (idx, _)) in group.iter().enumerate() {
                place[*idx] = (shard, slot);
            }
        }
        let (posts, receivers): (Vec<_>, Vec<_>) = groups.iter().map(|_| mpsc::channel()).unzip();
        let (coord, coord_rx) = mpsc::channel();
        let sources = groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g[0].1.pull_due().is_some());
        let registry = config.metrics.as_deref();
        let fabric = Arc::new(Fabric {
            exited: place.iter().map(|_| AtomicBool::new(false)).collect(),
            place,
            waiting: posts.iter().map(|_| AtomicBool::new(false)).collect(),
            sources: sources.map(|(shard, _)| shard).collect(),
            posts,
            coord,
            spares: Mutex::new(Spares::new(&topology)),
            backlog: AtomicI64::new(0),
            backlog_peak: registry.map_or_else(Gauge::detached, |r| {
                r.gauge(
                    "live_backlog_max_tuples",
                    "most tuples in flight between live instances at once",
                )
            }),
        });
        let handles = groups.into_iter().zip(receivers).enumerate();
        let handles = handles.map(|(id, (group, rx))| {
            let shard = Shard {
                rx,
                out: ShardOut {
                    fabric: Arc::clone(&fabric),
                    shard: id,
                    queues: group.iter().map(|_| VecDeque::new()).collect(),
                    sent: 0,
                },
                instances: group.into_iter().map(|(_, i)| Some(i)).collect(),
                buffered: 0,
            };
            std::thread::spawn(move || shard.run())
        });
        let handles = handles.collect();
        // Every shard runs: the sources may start.
        fabric.wake_sources();
        Self {
            handles,
            shared,
            fabric,
            coord_rx,
            topology,
            last_checkpoint: None,
            checkpoint_seq: 0,
        }
    }

    /// Number of instances, sources included.
    #[must_use]
    pub fn instances(&self) -> usize {
        self.fabric.place.len()
    }

    /// Locality of `edge` so far: local transfers / all transfers
    /// (1.0 when idle).
    ///
    /// # Panics
    ///
    /// Panics if `edge` is unknown.
    #[must_use]
    pub fn edge_locality(&self, edge: EdgeId) -> f64 {
        let counters = &self.shared.edges[edge.index()];
        let local = counters.local.load(Ordering::Relaxed);
        let remote = counters.remote.load(Ordering::Relaxed);
        if local + remote == 0 {
            1.0
        } else {
            local as f64 / (local + remote) as f64
        }
    }

    /// Snapshot of one instance's keyed state (blocks briefly).
    #[must_use]
    pub fn probe_state(&self, po: PoId, instance: usize) -> Option<HashMap<Key, StateValue>> {
        self.probe(self.topology.instances(po).start + instance)
    }

    /// Snapshot of global instance `idx`; `None` once it exited.
    fn probe(&self, idx: usize) -> Option<HashMap<Key, StateValue>> {
        let (tx, rx) = mpsc::channel();
        if !self.fabric.post(idx, Msg::StateProbe(tx)) {
            return None;
        }
        rx.recv().ok()
    }

    /// Runs the online reconfiguration protocol (③–⑥ of Algorithm 1)
    /// and blocks until every instance has applied its new routing
    /// tables. Data keeps flowing throughout; tuples for keys whose
    /// state is still in flight are buffered at their new owner.
    ///
    /// Equivalent to [`reconfigure_with_deadline`] with the default
    /// [`WaveConfig`].
    ///
    /// [`reconfigure_with_deadline`]: Self::reconfigure_with_deadline
    ///
    /// # Panics
    ///
    /// Panics if the wave fails — e.g. the pipeline drains (sources
    /// exhaust and instances shut down) while the wave is still
    /// propagating, or the deadline and every retry are exhausted —
    /// and on an invalid plan, as [`reconfigure_with_deadline`] does.
    pub fn reconfigure(&self, plan: LiveReconfig) {
        if let Err(e) = self.reconfigure_with_deadline(plan, WaveConfig::default()) {
            panic!("live reconfiguration failed: {e}");
        }
    }

    /// Runs the reconfiguration wave under a deadline with bounded
    /// retries, by the shared `WaveCoordinator`'s roll-forward rule: a
    /// lost ③ or ⑤ (fault injection, dead instance) makes the attempt
    /// miss its deadline, and the next one restages every instance that
    /// has not applied and force-applies it there. An instance that
    /// exits (or whose inbox is gone) counts as done — its `Eos` tokens
    /// are out — but the wave then reports [`ReconfigError::Nack`].
    ///
    /// One "window" of [`WaveConfig::deadline_windows`] is interpreted
    /// as 100 ms here. Injected [`ControlFate::Delay`] fates use the
    /// same scale: a delay of `d` windows holds the message in a
    /// driver-side timer queue for `d × 100 ms` — the driver keeps
    /// collecting acks meanwhile instead of sleeping.
    ///
    /// # Errors
    ///
    /// [`ReconfigError::Timeout`] when the deadline and every retry
    /// are exhausted with instances still unapplied;
    /// [`ReconfigError::Nack`] when the wave completed but one or more
    /// participants had exited mid-wave.
    ///
    /// # Panics
    ///
    /// Panics, before sending anything, if a migration names an
    /// instance outside its operator. A migration whose old and new
    /// instance are equal moves nothing and is skipped.
    pub fn reconfigure_with_deadline(
        &self,
        plan: LiveReconfig,
        wave: WaveConfig,
    ) -> Result<(), ReconfigError> {
        let shared = &*self.shared;
        let staged = plan.staged(&self.topology);
        let mut coord = WaveCoordinator::new(staged, self.topology.root_instances(), wave);
        // Discard coordinator leftovers of earlier waves; exits are
        // permanent and kept.
        while let Ok(msg) = self.coord_rx.try_recv() {
            if let CoordMsg::Exited(idx) = msg {
                coord.exited(idx);
            }
        }
        let windows = |n: u64| Duration::from_millis(n.saturating_mul(100));
        let clock = Instant::now();
        coord.start(0);
        // Delay-injected messages, held until their due time.
        let mut timers: Vec<(Instant, WaveSend)> = Vec::new();
        let outcome = loop {
            // A delayed message aimed at a settled instance is stale.
            let now = Instant::now();
            for (_, send) in timers.extract_if(.., |t| t.0 <= now) {
                if !coord.settled(send.to()) {
                    self.deliver(&mut coord, send);
                }
            }
            let sends = coord.take_sends();
            let sent = !sends.is_empty();
            for send in sends {
                let class = send.class();
                match class.map_or(ControlFate::Deliver, |c| shared.control_fate(c)) {
                    ControlFate::Deliver => self.deliver(&mut coord, send),
                    ControlFate::Drop => {}
                    ControlFate::Delay(d) => timers.push((now + windows(d.max(1)), send)),
                }
            }
            if let Some(outcome) = coord.outcome() {
                break outcome;
            }
            if sent {
                // A failed delivery may have released the wave.
                continue;
            }
            let deadline = clock + windows(coord.deadline);
            let wake = timers.iter().map(|t| t.0).fold(deadline, Instant::min);
            let left = wake.saturating_duration_since(Instant::now());
            match self.coord_rx.recv_timeout(left) {
                Ok(CoordMsg::Ack(idx)) => coord.ack(idx),
                Ok(CoordMsg::Applied(idx)) => coord.applied(idx),
                Ok(CoordMsg::Exited(idx)) => coord.exited(idx),
                Err(_) => {}
            }
            coord.tick((clock.elapsed().as_millis() / 100) as u64);
        };
        if !matches!(outcome, Err(ReconfigError::Timeout { .. })) {
            // Bump the routing epoch: span observations recorded from
            // here on ran under the new tables. Use the epoch the
            // manager stamped on its tables when available (keeps live
            // and manager numbering aligned), but never go backwards.
            let stamped = plan.routers.iter().filter_map(|r| r.2.epoch()).max();
            let next = (shared.epoch.load(Ordering::Relaxed) + 1).max(stamped.unwrap_or(0));
            shared.epoch.store(next, Ordering::Relaxed);
        }
        outcome
    }

    /// Delivers a wave message now. A failed send marks the target
    /// exited, so the wave never waits on a dead instance.
    fn deliver(&self, coord: &mut WaveCoordinator, send: WaveSend) {
        let idx = send.to();
        if !self.fabric.post(idx, Msg::Wave(send)) {
            coord.exited(idx);
        }
    }

    /// Arms fault injection: [`DropControl`] / [`DelayControl`] events
    /// fire against the control messages of subsequent waves (③/⑤ at
    /// the wave driver, ⑥ at the sending worker). `CrashPoi` and
    /// `KillManager` events are simulator-driven; crash live instances
    /// explicitly with [`crash_instance`](Self::crash_instance).
    ///
    /// [`DropControl`]: crate::FaultEvent::DropControl
    /// [`DelayControl`]: crate::FaultEvent::DelayControl
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        // Arm the batch-send hook before the injector is visible, so a
        // concurrent sender that sees the gate up always finds the
        // injector installed.
        self.shared
            .batch_faults
            .store(plan.has_batch_faults(), Ordering::Relaxed);
        *crate::lock(&self.shared.fault) = Some(FaultInjector::new(plan));
    }

    /// Snapshots every instance's keyed state into a
    /// [`ClusterCheckpoint`] and keeps it as the respawn point for
    /// [`crash_instance`](Self::crash_instance). Blocks briefly (one
    /// state probe per instance). Routing tables are not captured: a
    /// respawned live instance re-fetches the *current* tables from
    /// the manager, not the checkpoint's.
    pub fn checkpoint_now(&mut self) -> ClusterCheckpoint {
        let probes = (0..self.instances()).map(|idx| self.probe(idx).unwrap_or_default());
        let states = probes.collect();
        self.checkpoint_seq += 1;
        let cp = ClusterCheckpoint {
            window_index: self.checkpoint_seq,
            states,
            routers: vec![Vec::new(); self.instances()],
        };
        self.last_checkpoint = Some(cp.clone());
        cp
    }

    /// The snapshot [`crash_instance`](Self::crash_instance) respawns
    /// from, if [`checkpoint_now`](Self::checkpoint_now) was called.
    #[must_use]
    pub fn last_checkpoint(&self) -> Option<&ClusterCheckpoint> {
        self.last_checkpoint.as_ref()
    }

    /// Crashes one instance: its keyed state, queued inbox messages
    /// and any staged wave configuration are lost, then it respawns
    /// from the last [`checkpoint_now`](Self::checkpoint_now) snapshot
    /// (empty state if none was taken). Crashed sources stay down — a
    /// restarted generator would replay its stream. At-most-once:
    /// state updates since the checkpoint and queued tuples are gone.
    ///
    /// Keys a sibling holds (moved there since the checkpoint) are not
    /// restored: the simulator's held-elsewhere rule, by probe. A
    /// source restores nothing, so its siblings are not probed. A crash
    /// mid-wave can still restore a key whose ⑥ is in flight.
    pub fn crash_instance(&self, po: PoId, instance: usize) {
        let idx = self.topology.instances(po).start + instance;
        let mut restore = HashMap::new();
        if !self.topology.po(po).is_source() {
            let checkpoint = self.last_checkpoint.as_ref();
            restore = checkpoint
                .and_then(|cp| cp.states.get(idx).cloned())
                .unwrap_or_default();
            let siblings = self.topology.instances(po).filter(|&i| i != idx);
            for held in siblings.filter_map(|i| self.probe(i)) {
                restore.retain(|key, _| !held.contains_key(key));
            }
        }
        self.fabric.post(idx, Msg::Crash { restore });
    }

    /// Asks saturating sources to stop; finite sources stop on their
    /// own when exhausted.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        // A source waiting for credit or for its next stage re-checks.
        self.fabric.wake_sources();
    }

    /// Waits for the pipeline to drain (all `Eos` tokens delivered)
    /// and returns every instance's final report, sorted by
    /// `(operator, instance)`. Infinite sources must be stopped with
    /// [`stop`](Self::stop) first.
    ///
    /// # Panics
    ///
    /// Panics if a shard thread panicked.
    #[must_use]
    pub fn join(self) -> Vec<InstanceReport> {
        let mut reports: Vec<InstanceReport> = self
            .handles
            .into_iter()
            .flat_map(|h| h.join().expect("shard panicked"))
            .collect();
        reports.sort_by_key(|r| (r.po.index(), r.instance));
        reports
    }
}

/// Posts a shard takes off its channel per turn, at most.
const TURN_POSTS: usize = 16;

/// The hardware threads this process may use, read once.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

/// What a shard's channel carries.
enum Post {
    /// A message for the instance of this global index.
    To(usize, Msg),
    /// Wakes a source shard: the runtime started or stopped, or credit
    /// came back.
    Wake,
}

/// What the shards and the runtime share: where every instance runs,
/// the shard channels and the admission state.
struct Fabric {
    /// `(shard, slot in the shard)` of every instance, by global index.
    place: Vec<(usize, usize)>,
    /// Every shard's channel, by shard.
    posts: Vec<Sender<Post>>,
    /// Set once an instance finished: a send to it fails.
    exited: Vec<AtomicBool>,
    /// The source shards.
    sources: Vec<usize>,
    /// Set while a source shard waits for credit, by shard.
    waiting: Vec<AtomicBool>,
    coord: Sender<CoordMsg>,
    /// The deployment's spare batch buffers, shared by its shards.
    spares: Mutex<Spares>,
    /// Tuples in flight between instances: in send buffers, shard
    /// queues and channels. Each shard adds its net change once per
    /// turn, so the sum can dip below zero for a moment.
    backlog: AtomicI64,
    /// The most `backlog` read after an increase.
    backlog_peak: Gauge,
}

impl Fabric {
    /// Posts `msg` to instance `idx` from outside the shards; `false`
    /// once the instance or its shard is gone.
    fn post(&self, idx: usize, msg: Msg) -> bool {
        let shard = self.place[idx].0;
        !self.exited[idx].load(Ordering::Acquire)
            && self.posts[shard].send(Post::To(idx, msg)).is_ok()
    }

    /// Posts [`Post::Wake`] to every source shard.
    fn wake_sources(&self) {
        for &shard in &self.sources {
            let _ = self.posts[shard].send(Post::Wake);
        }
    }

    /// Whether a source may stage more tuples.
    fn admits(&self) -> bool {
        self.backlog.load(Ordering::SeqCst) < LiveRuntime::BACKLOG_BOUND as i64
    }

    /// Registers source shard `shard` as waiting for credit, unless
    /// credit came back meanwhile: `true` if it may stage now. Paired
    /// with [`publish`](Self::publish), whose decrease is ordered
    /// against this check, so a wake-up is never lost.
    fn await_credit(&self, shard: usize) -> bool {
        self.waiting[shard].store(true, Ordering::SeqCst);
        let admits = self.admits();
        if admits {
            self.waiting[shard].store(false, Ordering::SeqCst);
        }
        admits
    }

    /// Adds a shard's net change to the backlog. A decrease that leaves
    /// it under the bound wakes every source waiting for credit.
    fn publish(&self, delta: i64) {
        if delta == 0 {
            return;
        }
        let after = self.backlog.fetch_add(delta, Ordering::SeqCst) + delta;
        if delta > 0 {
            self.backlog_peak.max(after.max(0) as u64);
            return;
        }
        if after < LiveRuntime::BACKLOG_BOUND as i64 {
            for &shard in &self.sources {
                let waiting = &self.waiting[shard];
                if waiting.load(Ordering::SeqCst) && waiting.swap(false, Ordering::SeqCst) {
                    let _ = self.posts[shard].send(Post::Wake);
                }
            }
        }
    }
}

/// Batch buffers kept for reuse: what an [`Outbox`] takes back through
/// `recycle` and hands out again through `buffer`. The list keeps at
/// most `cap` buffers: one per full batch the backlog bound admits in
/// flight, and one per send buffer of the deployment (an instance's
/// successor instances, summed). That is enough for a saturated
/// pipeline to run without allocating, and a burst of flushed partial
/// batches leaves no more than that behind.
pub(crate) struct Spares {
    free: Vec<Vec<Tuple>>,
    cap: usize,
}

impl Spares {
    /// An empty list for a deployment of `topology`.
    pub(crate) fn new(topology: &Topology) -> Self {
        let pos = (0..topology.pos.len()).map(PoId);
        let send_buffers: usize = pos
            .map(|po| topology.instances(po).len() * topology.successor_instances(po).len())
            .sum();
        let cap = LiveRuntime::BACKLOG_BOUND as usize / LiveRuntime::BATCH + send_buffers;
        Self {
            free: Vec::with_capacity(cap),
            cap,
        }
    }

    /// A kept buffer if there is one, else a new one: empty, with room
    /// for a batch.
    pub(crate) fn take(&mut self) -> Vec<Tuple> {
        let spare = self.free.pop();
        spare.unwrap_or_else(|| Vec::with_capacity(LiveRuntime::BATCH))
    }

    /// Keeps `buf`, emptied, unless the list is full or `buf` has no
    /// room for a whole batch.
    pub(crate) fn put(&mut self, mut buf: Vec<Tuple>) {
        if self.free.len() < self.cap && buf.capacity() >= LiveRuntime::BATCH {
            buf.clear();
            self.free.push(buf);
        }
    }
}

/// A shard's outbox: the local queues of its instances, and every
/// other shard's channel.
struct ShardOut {
    fabric: Arc<Fabric>,
    shard: usize,
    /// The queue of each instance of this shard, by slot.
    queues: Vec<VecDeque<Msg>>,
    /// Tuples sent since the shard last published.
    sent: u64,
}

impl Outbox for ShardOut {
    fn send(&mut self, dest: usize, msg: Msg) -> bool {
        let fabric = &*self.fabric;
        if fabric.exited[dest].load(Ordering::Acquire) {
            return false;
        }
        let tuples = msg.tuples() as u64;
        let (shard, slot) = fabric.place[dest];
        if shard == self.shard {
            self.queues[slot].push_back(msg);
        } else if fabric.posts[shard].send(Post::To(dest, msg)).is_err() {
            return false;
        }
        self.sent += tuples;
        true
    }

    fn notify(&mut self, note: CoordMsg) {
        let _ = self.fabric.coord.send(note);
    }

    fn buffer(&mut self) -> Vec<Tuple> {
        crate::lock(&self.fabric.spares).take()
    }

    fn recycle(&mut self, buf: Vec<Tuple>) {
        crate::lock(&self.fabric.spares).put(buf);
    }
}

/// One shard thread: its instances by slot (`None` once finished), in
/// global instance order, so output handed to a later instance of the
/// shard is handled in the same turn.
struct Shard {
    rx: Receiver<Post>,
    instances: Vec<Option<Instance>>,
    out: ShardOut,
    /// Tuples in the instances' send buffers at the last publish.
    buffered: u64,
}

impl Shard {
    /// The shard driver, for sources and operators alike. A source
    /// shard first waits for `start`'s [`Post::Wake`], posted once every
    /// shard is spawned, so it does not compete with the start. A turn reads
    /// the clock once, moves what the channel holds onto the instance
    /// queues, and drains each queue into [`Instance::on_msg`] in slot
    /// order. A source pulls a stage once it is due — a paced source's
    /// tuple `k` at `k / rate` after it started, so the time spent
    /// generating and routing does not slow it down — and while the
    /// backlog admits one; the stage closes after [`LINGER`] at the
    /// latest. Then the shard publishes its net backlog change.
    ///
    /// The shard flushes every send buffer once a buffered tuple has
    /// lingered [`LINGER`], checked at the start of each turn, and when
    /// it is about to block: with every queue empty and no source ready
    /// to pull, it waits for a post, for a paced source's next stage,
    /// or for credit.
    fn run(mut self) -> Vec<InstanceReport> {
        if self.out.fabric.sources.contains(&self.out.shard) {
            // Only the API posts to a source, after this wake-up.
            let wake = self.rx.recv().expect("the fabric keeps the channel open");
            self.take(wake);
        }
        let start = Instant::now();
        let mut reports = Vec::new();
        let mut linger: Option<Instant> = None;
        let mut handled = 0;
        while reports.len() < self.instances.len() {
            let now = Instant::now();
            let mut taken = 0;
            while taken < TURN_POSTS {
                let Ok(post) = self.rx.try_recv() else {
                    break;
                };
                handled += self.take(post);
                taken += 1;
            }
            let more = taken == TURN_POSTS;
            if linger.is_some_and(|since| now.duration_since(since) >= LINGER) {
                self.flush();
                linger = None;
            }
            let (mut ready, mut wake) = (false, None::<Instant>);
            for slot in 0..self.instances.len() {
                let Some(instance) = self.instances[slot].as_mut() else {
                    continue;
                };
                while let Some(msg) = self.out.queues[slot].pop_front() {
                    handled += msg.tuples();
                    instance.on_msg(msg, &mut self.out);
                }
                instance.drained();
                let due = instance.pull_due().filter(|_| !instance.done());
                match due.map(|d| start + d) {
                    Some(due) if due > now => wake = Some(due),
                    Some(_)
                        if self.out.fabric.admits()
                            || self.out.fabric.await_credit(self.out.shard) =>
                    {
                        instance.pull(LiveRuntime::BATCH, Some(now + LINGER), &mut self.out);
                        ready = true;
                    }
                    _ => {}
                }
                if instance.done() {
                    let instance = self.instances[slot].take().expect("a live slot");
                    let idx = instance.index();
                    reports.push(instance.finish(&mut self.out));
                    self.out.fabric.exited[idx].store(true, Ordering::Release);
                    let queue = self.out.queues[slot].drain(..);
                    handled += queue.map(|msg| msg.tuples()).sum::<usize>();
                }
            }
            let buffered = self.publish(std::mem::take(&mut handled));
            linger = (buffered > 0).then(|| linger.unwrap_or(now));
            if ready || more || self.out.queues.iter().any(|q| !q.is_empty()) {
                continue;
            }
            self.flush();
            linger = None;
            if reports.len() == self.instances.len()
                || self.out.queues.iter().any(|q| !q.is_empty())
            {
                continue;
            }
            let post = match wake {
                Some(due) => self
                    .rx
                    .recv_timeout(due.saturating_duration_since(Instant::now()))
                    .ok(),
                // The fabric keeps this channel open: the receive cannot
                // fail.
                None => self.rx.recv().ok(),
            };
            if let Some(post) = post {
                handled += self.take(post);
            }
        }
        reports
    }

    /// Queues a post for its instance. Returns the tuples of a message
    /// whose instance already finished: it is dropped, and counts as
    /// handled.
    fn take(&mut self, post: Post) -> usize {
        let Post::To(idx, msg) = post else {
            return 0;
        };
        let slot = self.out.fabric.place[idx].1;
        if self.instances[slot].is_none() {
            return msg.tuples();
        }
        self.out.queues[slot].push_back(msg);
        0
    }

    /// Hands off every send buffer of the shard.
    fn flush(&mut self) {
        for instance in self.instances.iter_mut().flatten() {
            instance.flush_buffers(&mut self.out);
        }
    }

    /// Publishes the shard's net backlog change since the last call:
    /// tuples sent and newly buffered, less the `handled` tuples of
    /// the messages it took off its queues. Returns the tuples now
    /// buffered.
    fn publish(&mut self, handled: usize) -> u64 {
        let instances = self.instances.iter().flatten();
        let buffered: u64 = instances.map(|i| i.buffered() as u64).sum();
        let added = self.out.sent + buffered;
        let removed = self.buffered + handled as u64;
        self.out.fabric.publish(added as i64 - removed as i64);
        (self.buffered, self.out.sent) = (buffered, 0);
        buffered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{CountOperator, IdentityOperator};
    use crate::router::{HashRouter, ModuloRouter};
    use crate::topology::{Grouping, SourceRate, Topology};
    use crate::tuple::Tuple;
    use std::sync::Mutex;

    /// n sources emitting `total/n` tuples each of (c % keys, c % keys).
    fn chain(n: usize, keys: u64, total: u64) -> Topology {
        let mut b = Topology::builder();
        let s = b.source("S", n, SourceRate::Saturate, move |i| {
            let mut c = i as u64;
            let mut left = total / n as u64;
            Box::new(move || {
                if left == 0 {
                    return None;
                }
                left -= 1;
                c = c.wrapping_add(0x9e37_79b9);
                let k = c % keys;
                Some(Tuple::new([Key::new(k), Key::new(k)], 0))
            })
        });
        let a = b.stateful("A", n, CountOperator::factory());
        let bb = b.stateful("B", n, CountOperator::factory());
        b.connect(s, a, Grouping::fields(0));
        b.connect(a, bb, Grouping::fields(1));
        b.build().unwrap()
    }

    fn counts_of(reports: &[InstanceReport], po: PoId) -> HashMap<Key, u64> {
        let mut out = HashMap::new();
        for r in reports.iter().filter(|r| r.po == po) {
            for (&k, v) in &r.state {
                *out.entry(k).or_insert(0) += v.as_count().unwrap();
            }
        }
        out
    }

    #[test]
    fn finite_pipeline_drains_and_counts_everything() {
        let total = 30_000u64;
        let topo = chain(3, 12, total);
        let placement = Placement::aligned(&topo, 3);
        let rt = LiveRuntime::start(topo, placement, 3, LiveConfig::default());
        let reports = rt.join();
        let a_counts = counts_of(&reports, PoId(1));
        let b_counts = counts_of(&reports, PoId(2));
        assert_eq!(a_counts.values().sum::<u64>(), total);
        assert_eq!(b_counts.values().sum::<u64>(), total);
        // Keys identical across the two hops (same key used twice).
        assert_eq!(a_counts, b_counts);
    }

    #[test]
    fn stop_halts_infinite_sources() {
        let mut b = Topology::builder();
        let s = b.source("S", 2, SourceRate::Saturate, |i| {
            let mut c = i as u64;
            Box::new(move || {
                c += 1;
                Some(Tuple::new([Key::new(c % 5)], 0))
            })
        });
        let a = b.stateful("A", 2, CountOperator::factory());
        b.connect(s, a, Grouping::fields(0));
        let topo = b.build().unwrap();
        let placement = Placement::aligned(&topo, 2);
        let rt = LiveRuntime::start(topo, placement, 2, LiveConfig::default());
        std::thread::sleep(std::time::Duration::from_millis(50));
        rt.stop();
        let reports = rt.join();
        let emitted: u64 = reports
            .iter()
            .filter(|r| r.po == PoId(0))
            .map(|r| r.processed)
            .sum();
        let counted: u64 = counts_of(&reports, PoId(1)).values().sum();
        assert!(emitted > 0);
        assert_eq!(emitted, counted, "every emitted tuple counted");
    }

    #[test]
    fn unique_key_ownership() {
        let topo = chain(4, 32, 20_000);
        let placement = Placement::aligned(&topo, 4);
        let rt = LiveRuntime::start(topo, placement, 4, LiveConfig::default());
        let reports = rt.join();
        let mut seen = std::collections::HashSet::new();
        for r in reports.iter().filter(|r| r.po == PoId(2)) {
            for &k in r.state.keys() {
                assert!(seen.insert(k), "key {k} owned twice");
            }
        }
    }

    /// [`chain`] with sources paced to `rate` tuples/s each, so the
    /// stream comfortably outlives a reconfiguration wave.
    fn paced_chain(n: usize, keys: u64, total: u64, rate: f64) -> Topology {
        let mut b = Topology::builder();
        let s = b.source("S", n, SourceRate::PerSecond(rate), move |i| {
            let mut c = i as u64;
            let mut left = total / n as u64;
            Box::new(move || {
                if left == 0 {
                    return None;
                }
                left -= 1;
                c = c.wrapping_add(0x9e37_79b9);
                let k = c % keys;
                Some(Tuple::new([Key::new(k), Key::new(k)], 0))
            })
        });
        let a = b.stateful("A", n, CountOperator::factory());
        let bb = b.stateful("B", n, CountOperator::factory());
        b.connect(s, a, Grouping::fields(0));
        b.connect(a, bb, Grouping::fields(1));
        b.build().unwrap()
    }

    /// Swaps hop A→B of a [`paced_chain`] to modulo routing with the
    /// matching migrations: the new owner of key k is instance k % n,
    /// the old one is by hash.
    fn modulo_wave(n: usize, keys: u64) -> LiveReconfig {
        let migrations: Vec<(PoId, Key, usize, usize)> = (0..keys)
            .map(|k| {
                let key = Key::new(k);
                let old = HashRouter.route(key, n) as usize;
                let new = (k % n as u64) as usize;
                (PoId(2), key, old, new)
            })
            .filter(|&(_, _, old, new)| old != new)
            .collect();
        assert!(!migrations.is_empty());
        LiveReconfig {
            routers: vec![(PoId(1), EdgeId(1), Arc::new(ModuloRouter))],
            migrations,
        }
    }

    #[test]
    fn live_reconfiguration_conserves_counts() {
        let (n, keys, total) = (3, 9, 60_000u64);
        let topo = paced_chain(n, keys, total, 50_000.0);
        let placement = Placement::aligned(&topo, n);
        let rt = LiveRuntime::start(topo, placement, n, LiveConfig::default());
        std::thread::sleep(std::time::Duration::from_millis(20));
        rt.reconfigure(modulo_wave(n, keys));

        let reports = rt.join();
        let b_counts = counts_of(&reports, PoId(2));
        assert_eq!(
            b_counts.values().sum::<u64>(),
            total,
            "no tuple lost or double counted across live migration"
        );
        // Ownership matches the new table.
        for r in reports.iter().filter(|r| r.po == PoId(2)) {
            for &k in r.state.keys() {
                assert_eq!(
                    r.instance,
                    (k.value() % n as u64) as usize,
                    "key {k} at wrong owner after live migration"
                );
            }
        }
    }

    /// Runs a 3-instance, 9-key [`paced_chain`] through `wave` with
    /// span sampling 1/`denominator`, returning the reports and
    /// registry.
    fn sampled_wave_run(
        denominator: u64,
        wave: LiveReconfig,
    ) -> (Vec<InstanceReport>, Arc<MetricsRegistry>) {
        let (n, keys) = (3, 9);
        let topo = paced_chain(n, keys, 40_000, 50_000.0);
        let placement = Placement::aligned(&topo, n);
        let registry = Arc::new(MetricsRegistry::new());
        let rt = LiveRuntime::start(
            topo,
            placement,
            n,
            LiveConfig {
                metrics: Some(Arc::clone(&registry)),
                span_sampler: Some(SpanSampler::new(7, denominator)),
            },
        );
        std::thread::sleep(std::time::Duration::from_millis(30));
        rt.reconfigure(wave);
        (rt.join(), registry)
    }

    #[test]
    fn span_sampling_records_hop_histograms_split_by_epoch() {
        use crate::obs::{SpanMetricName, SpanPhase};

        let (reports, registry) = sampled_wave_run(2, modulo_wave(3, 9));
        // Sampling must not perturb the data plane.
        let b_counts = counts_of(&reports, PoId(2));
        assert_eq!(b_counts.values().sum::<u64>(), 39_999);

        let span_names: Vec<SpanMetricName> = registry
            .histograms()
            .iter()
            .filter(|(_, snap)| snap.total > 0)
            .filter_map(|(name, _)| SpanMetricName::parse(name))
            .collect();
        assert!(
            !span_names.is_empty(),
            "sampled run must populate span histograms"
        );
        for phase in [SpanPhase::Queue, SpanPhase::Proc, SpanPhase::EndToEnd] {
            assert!(
                span_names.iter().any(|nm| nm.phase == phase),
                "phase {phase:?} missing"
            );
        }
        // End-to-end latency lands only at the sink operator.
        assert!(span_names
            .iter()
            .filter(|nm| nm.phase == SpanPhase::EndToEnd)
            .all(|nm| nm.po == 2));
        // The wave completion bumps the routing epoch: observations
        // recorded before and after it land in distinct histograms.
        let mut epochs: Vec<u64> = span_names.iter().map(|nm| nm.epoch).collect();
        epochs.sort_unstable();
        epochs.dedup();
        assert!(
            epochs.len() >= 2,
            "epoch tagging must split pre/post-wave observations, got {epochs:?}"
        );
    }

    #[test]
    fn span_hops_are_recorded_once_per_processed_tuple() {
        use crate::obs::{SpanMetricName, SpanPhase};

        // Every tuple sampled, across a wave that moves B's keys but
        // leaves A routing on the old table: the new owners buffer
        // until the state arrives, and the old owners forward every
        // later tuple of a moved key. B processes every tuple, and
        // each must land exactly one hop observation, however many
        // deliveries it took.
        let wave = LiveReconfig {
            routers: Vec::new(),
            ..modulo_wave(3, 9)
        };
        let (reports, registry) = sampled_wave_run(1, wave);
        let processed: u64 = reports
            .iter()
            .filter(|r| r.po == PoId(2))
            .map(|r| r.processed)
            .sum();
        let hops: u64 = registry
            .histograms()
            .iter()
            .filter_map(|(name, snap)| {
                SpanMetricName::parse(name)
                    .filter(|nm| nm.phase == SpanPhase::Queue && nm.po == 2)
                    .map(|_| snap.total)
            })
            .sum();
        assert_eq!(processed, 39_999, "tuples B processed");
        assert_eq!(hops, processed, "hop samples of B vs tuples B processed");
    }

    #[test]
    fn locality_counters_track_placement() {
        // Everything on one server tag: all transfers are local.
        let topo = chain(3, 6, 5_000);
        let placement = Placement::aligned(&topo, 1);
        let rt = LiveRuntime::start(topo, placement, 1, LiveConfig::default());
        std::thread::sleep(std::time::Duration::from_millis(50));
        let one_server_locality = rt.edge_locality(EdgeId(1));
        let _ = rt.join();
        assert_eq!(one_server_locality, 1.0);

        // Aligned modulo routing on 3 servers: (k, k) tuples stay put
        // on the A→B hop.
        let mut b = Topology::builder();
        let s = b.source("S", 3, SourceRate::Saturate, |i| {
            let mut left = 5_000u32;
            let key = Key::new(i as u64);
            Box::new(move || {
                if left == 0 {
                    return None;
                }
                left -= 1;
                Some(Tuple::new([key, key], 0))
            })
        });
        let a = b.stateful("A", 3, CountOperator::factory());
        let bb = b.stateful("B", 3, CountOperator::factory());
        b.connect(s, a, Grouping::fields_with(0, Arc::new(ModuloRouter)));
        let hop = b.connect(a, bb, Grouping::fields_with(1, Arc::new(ModuloRouter)));
        let topo = b.build().unwrap();
        let placement = Placement::aligned(&topo, 3);
        let rt = LiveRuntime::start(topo, placement, 3, LiveConfig::default());
        std::thread::sleep(std::time::Duration::from_millis(50));
        let hop_locality = rt.edge_locality(hop);
        let _ = rt.join();
        assert_eq!(hop_locality, 1.0, "aligned modulo must stay local");
    }

    /// Shared pair-count map standing in for a sketch: observer totals
    /// must come out identical whether fed per tuple (`observe`) or in
    /// coalesced runs (`observe_run`).
    #[derive(Clone, Default)]
    struct PairCounts(Arc<Mutex<HashMap<(Key, Key), u64>>>);

    impl PairObserver for PairCounts {
        fn observe(&mut self, input: Key, output: Key) {
            *self.0.lock().unwrap().entry((input, output)).or_insert(0) += 1;
        }

        fn observe_run(&mut self, input: Key, output: Key, count: u64) {
            *self.0.lock().unwrap().entry((input, output)).or_insert(0) += count;
        }
    }

    /// S → A, then A → B on field 1 and A → C on field 2. Only A's
    /// second out edge carries an observer, and only on instance 0:
    /// it must see exactly the `(field 0, field 2)` pairs instance 0
    /// emits, and instance 1, with no observers, must feed nothing.
    #[test]
    fn observer_on_second_out_edge_sees_exactly_its_pairs() {
        let total = 12_000u64;
        let tuple = |c: u64| [Key::new(c % 10), Key::new(c % 7), Key::new(100 + c % 3)];
        let build = || {
            let mut b = Topology::builder();
            let s = b.source("S", 1, SourceRate::Saturate, move |_| {
                let mut c = 0u64;
                Box::new(move || {
                    c += 1;
                    (c <= total).then(|| Tuple::new(tuple(c), 0))
                })
            });
            let a = b.stateful("A", 2, CountOperator::factory());
            let bb = b.stateful("B", 2, CountOperator::factory());
            let cc = b.stateful("C", 2, CountOperator::factory());
            b.connect(s, a, Grouping::fields_with(0, Arc::new(ModuloRouter)));
            let first = b.connect(a, bb, Grouping::fields(1));
            let second = b.connect(a, cc, Grouping::fields(2));
            let topo = b.build().unwrap();
            assert_eq!(topo.out_edges(a), &[first, second]);
            (topo, a, second)
        };

        let mut want: HashMap<(Key, Key), u64> = HashMap::new();
        for [k0, _, k2] in (1..=total).map(tuple) {
            if k0.value() % 2 == 0 {
                *want.entry((k0, k2)).or_insert(0) += 1;
            }
        }
        let (topo, a, second) = build();
        let pairs = PairCounts::default();
        let observers: Vec<LiveObserver> = vec![(a, 0, second, 2, Box::new(pairs.clone()))];
        let placement = Placement::aligned(&topo, 2);
        let config = LiveConfig::default();
        let rt = LiveRuntime::start_with_observers(topo, placement, 2, config, observers);
        let _ = rt.join();
        assert_eq!(*pairs.0.lock().unwrap(), want);
    }

    /// Observers are fed in out-edge order, whatever order they were
    /// registered in: a sketch shared by several edges then sees its
    /// offers, and so its ties, in a fixed order. The observed field
    /// is the state key, so each run costs each observer one call.
    #[test]
    fn observers_are_fed_in_out_edge_order() {
        let mut b = Topology::builder();
        let s = b.source("S", 1, SourceRate::Saturate, move |_| {
            let mut c = 0u64;
            Box::new(move || {
                c += 1;
                (c <= 5_000).then(|| Tuple::new([Key::new(c % 10), Key::new(c % 7)], 0))
            })
        });
        let a = b.stateful("A", 1, CountOperator::factory());
        let bb = b.stateful("B", 1, CountOperator::factory());
        let cc = b.stateful("C", 1, CountOperator::factory());
        b.connect(s, a, Grouping::fields(0));
        let first = b.connect(a, bb, Grouping::fields(1));
        let second = b.connect(a, cc, Grouping::fields(1));
        let topo = b.build().unwrap();
        let log: Arc<Mutex<Vec<EdgeId>>> = Arc::default();
        let observers: Vec<LiveObserver> = [second, first]
            .into_iter()
            .map(|edge| {
                let log = Arc::clone(&log);
                let observer = move |_: Key, _: Key| log.lock().unwrap().push(edge);
                (a, 0, edge, 0, Box::new(observer) as Box<dyn PairObserver>)
            })
            .collect();
        let placement = Placement::aligned(&topo, 1);
        let config = LiveConfig::default();
        let _ = LiveRuntime::start_with_observers(topo, placement, 1, config, observers).join();
        let log = log.lock().unwrap();
        assert!(!log.is_empty());
        assert!(log.chunks(2).all(|c| c == [first, second]));
    }

    /// Runs a topology and reduces it to a fully deterministic
    /// fingerprint: every instance's sorted `(key, count)` state,
    /// every edge's `(local, remote)` transfer totals, and the sorted
    /// pair-observation totals of operator `A`'s out edge.
    type Fingerprint = (
        Vec<(usize, usize, Vec<(Key, u64)>)>,
        Vec<(u64, u64)>,
        Vec<((Key, Key), u64)>,
    );

    fn run_fingerprint(topo: Topology, servers: usize, config: LiveConfig) -> Fingerprint {
        let placement = Placement::aligned(&topo, servers);
        let pairs = PairCounts::default();
        let observers: Vec<LiveObserver> = (0..topo.po(PoId(1)).parallelism())
            .map(|i| {
                (
                    PoId(1),
                    i,
                    EdgeId(1),
                    1,
                    Box::new(pairs.clone()) as Box<dyn PairObserver>,
                )
            })
            .collect();
        let rt = LiveRuntime::start_with_observers(topo, placement, servers, config, observers);
        let shared = Arc::clone(&rt.shared);
        let reports = rt.join();
        let mut states = Vec::new();
        for r in &reports {
            let mut kv: Vec<(Key, u64)> = r
                .state
                .iter()
                .map(|(&k, v)| (k, v.as_count().unwrap()))
                .collect();
            kv.sort_unstable();
            states.push((r.po.index(), r.instance, kv));
        }
        let edges = shared
            .edges
            .iter()
            .map(|e| {
                (
                    e.local.load(Ordering::Relaxed),
                    e.remote.load(Ordering::Relaxed),
                )
            })
            .collect();
        let mut pair_counts: Vec<((Key, Key), u64)> = pairs
            .0
            .lock()
            .unwrap()
            .iter()
            .map(|(&p, &c)| (p, c))
            .collect();
        pair_counts.sort_unstable();
        (states, edges, pair_counts)
    }

    /// `n` source streams of `(k, (7k + 3) % keys)` pairs: stream `i`
    /// is exactly what instance `i` of [`replay_source`] emits.
    type Streams = Arc<Vec<Vec<(u64, u64)>>>;

    fn pair_streams(n: usize, keys: u64, total: u64) -> Streams {
        Arc::new(
            (0..n)
                .map(|i| {
                    let mut c = i as u64;
                    (0..total / n as u64)
                        .map(|_| {
                            c = c.wrapping_add(0x9e37_79b9);
                            let k = c % keys;
                            (k, (7 * k + 3) % keys)
                        })
                        .collect()
                })
                .collect(),
        )
    }

    /// A saturating source replaying `streams`, one per instance. With
    /// `pace`, each generator sleeps until its tuple `k` is due, `k /
    /// pace` seconds after its first call, so its stages close at the
    /// linger after a few tuples.
    fn replay_source(
        b: &mut crate::topology::TopologyBuilder,
        streams: &Streams,
        pace: Option<f64>,
    ) -> PoId {
        let streams = Arc::clone(streams);
        b.source("S", streams.len(), SourceRate::Saturate, move |i| {
            let streams = Arc::clone(&streams);
            let mut next = 0;
            let mut start = None;
            Box::new(move || {
                let &(k0, k1) = streams[i].get(next)?;
                if let Some(rate) = pace {
                    let start = *start.get_or_insert_with(Instant::now);
                    let due = start + Duration::from_secs_f64(next as f64 / rate);
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                }
                next += 1;
                Some(Tuple::new([Key::new(k0), Key::new(k1)], 0))
            })
        })
    }

    /// S → A → B with [`ModuloRouter`] on S → A and `hop` on A → B,
    /// the source paced as [`replay_source`]'s `pace`.
    fn chain_with(streams: &Streams, pace: Option<f64>, hop: Arc<dyn KeyRouter>) -> Topology {
        let n = streams.len();
        let mut b = Topology::builder();
        let s = replay_source(&mut b, streams, pace);
        let a = b.stateful("A", n, CountOperator::factory());
        let bb = b.stateful("B", n, CountOperator::factory());
        b.connect(s, a, Grouping::fields_with(0, Arc::new(ModuloRouter)));
        b.connect(a, bb, Grouping::fields_with(1, hop));
        b.build().unwrap()
    }

    /// S → A → B with [`ModuloRouter`] on both fields-grouped hops.
    fn modulo_chain(streams: &Streams, pace: Option<f64>) -> Topology {
        chain_with(streams, pace, Arc::new(ModuloRouter))
    }

    /// The fingerprint [`modulo_chain`] must produce, computed
    /// single-threaded from the input streams, modulo routing and the
    /// aligned placement (instance `i` on server `i % servers`).
    fn reference_fingerprint(streams: &Streams, servers: usize) -> Fingerprint {
        let n = streams.len();
        let mut counts: Vec<Vec<HashMap<Key, u64>>> = vec![vec![HashMap::new(); n]; 3];
        let mut edges = vec![(0u64, 0u64); 2];
        let mut pairs: HashMap<(Key, Key), u64> = HashMap::new();
        let mut hop = |edge: usize, from: usize, to: usize| {
            if from % servers == to % servers {
                edges[edge].0 += 1;
            } else {
                edges[edge].1 += 1;
            }
        };
        for (src, stream) in streams.iter().enumerate() {
            for &(k0, k1) in stream {
                let (a, b) = ((k0 % n as u64) as usize, (k1 % n as u64) as usize);
                *counts[1][a].entry(Key::new(k0)).or_insert(0) += 1;
                *counts[2][b].entry(Key::new(k1)).or_insert(0) += 1;
                hop(0, src, a);
                hop(1, a, b);
                *pairs.entry((Key::new(k0), Key::new(k1))).or_insert(0) += 1;
            }
        }
        let mut states = Vec::new();
        for (po, instances) in counts.into_iter().enumerate() {
            for (instance, state) in instances.into_iter().enumerate() {
                let mut kv: Vec<(Key, u64)> = state.into_iter().collect();
                kv.sort_unstable();
                states.push((po, instance, kv));
            }
        }
        let mut pair_counts: Vec<((Key, Key), u64)> = pairs.into_iter().collect();
        pair_counts.sort_unstable();
        (states, edges, pair_counts)
    }

    #[test]
    fn fingerprint_matches_single_threaded_reference() {
        // The single data plane against an independent reference:
        // operator state, per-edge locality totals and pair-observation
        // totals must come out exactly as computing them from the input
        // — from saturating sources, which fill their batches, and from
        // sources sleeping to 50k tuples/s each, whose stages close at
        // the linger after a few tuples, so small batches cross every
        // hop. Three instances on two servers mix local and remote hops
        // on both edges.
        let streams = pair_streams(3, 13, 30_000);
        let reference = reference_fingerprint(&streams, 2);
        assert!(reference
            .1
            .iter()
            .all(|&(local, remote)| local > 0 && remote > 0));
        for pace in [None, Some(50_000.0)] {
            let metrics = Arc::new(MetricsRegistry::new());
            let config = LiveConfig {
                metrics: Some(Arc::clone(&metrics)),
                span_sampler: None,
            };
            let live = run_fingerprint(modulo_chain(&streams, pace), 2, config);
            assert_eq!(
                live, reference,
                "pace={pace:?}: live run diverged from the reference"
            );
            if pace.is_some() {
                let snapshot = metrics.snapshot();
                let get = |name: &str| snapshot.iter().find(|(n, _)| n == name).map_or(0, |e| e.1);
                let fill = get("live_batch_tuples_total") / get("live_batch_sends_total").max(1);
                assert!(fill < 16, "paced sources filled batches of {fill} tuples");
            }
        }
    }

    #[test]
    fn fan_out_with_shuffle_edges_conserves_every_tuple() {
        // S ─fields(0)→ A (count)
        // S ─shuffle→ I (identity) ─fields(1)→ C (count)
        //                          ─local-or-shuffle→ D (identity)
        let n = 3;
        let streams = pair_streams(n, 20, 24_000);
        let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
        let mut want_a: HashMap<Key, u64> = HashMap::new();
        let mut want_c: HashMap<Key, u64> = HashMap::new();
        for &(k0, k1) in streams.iter().flatten() {
            *want_a.entry(Key::new(k0)).or_insert(0) += 1;
            *want_c.entry(Key::new(k1)).or_insert(0) += 1;
        }
        let mut b = Topology::builder();
        let s = replay_source(&mut b, &streams, None);
        let a = b.stateful("A", n, CountOperator::factory());
        let i = b.stateless("I", n, IdentityOperator::factory());
        let c = b.stateful("C", n, CountOperator::factory());
        let d = b.stateless("D", n, IdentityOperator::factory());
        b.connect(s, a, Grouping::fields(0));
        let shuffle = b.connect(s, i, Grouping::Shuffle);
        b.connect(i, c, Grouping::fields(1));
        let local = b.connect(i, d, Grouping::LocalOrShuffle);
        let topo = b.build().unwrap();
        let placement = Placement::aligned(&topo, n);
        let rt = LiveRuntime::start(topo, placement, n, LiveConfig::default());
        let shared = Arc::clone(&rt.shared);
        let reports = rt.join();
        assert_eq!(counts_of(&reports, a), want_a);
        assert_eq!(counts_of(&reports, c), want_c);
        for po in [i, d] {
            let processed: u64 = reports
                .iter()
                .filter(|r| r.po == po)
                .map(|r| r.processed)
                .sum();
            assert_eq!(processed, total, "{po:?}");
        }
        let totals = |e: EdgeId| {
            let counters = &shared.edges[e.index()];
            (
                counters.local.load(Ordering::Relaxed),
                counters.remote.load(Ordering::Relaxed),
            )
        };
        let (sl, sr) = totals(shuffle);
        assert_eq!(sl + sr, total);
        assert!(sr > 0, "round-robin shuffle must spread across servers");
        assert_eq!(
            totals(local),
            (total, 0),
            "local-or-shuffle must stay local"
        );
    }

    /// The cross-runtime agreement test. One finite topology runs to
    /// completion in both runtimes, three instances on two servers:
    /// S ─fields(0)→ A (count), S ─shuffle→ I (identity) ─fields(1)→ C
    /// (count), I ─local-or-shuffle→ D (identity). Both route, dispatch
    /// and hold through the same data plane, so per-instance state,
    /// per-instance processed counts and per-edge local/remote totals
    /// must be equal.
    #[test]
    fn sim_and_live_agree_on_a_finite_fan_out() {
        use crate::cluster::ClusterSpec;
        use crate::sim::{SimConfig, Simulation};

        let (n, servers) = (3, 2);
        let streams = pair_streams(n, 20, 24_000);
        let build = || {
            let mut b = Topology::builder();
            let s = replay_source(&mut b, &streams, None);
            let a = b.stateful("A", n, CountOperator::factory());
            let i = b.stateless("I", n, IdentityOperator::factory());
            let c = b.stateful("C", n, CountOperator::factory());
            let d = b.stateless("D", n, IdentityOperator::factory());
            b.connect(s, a, Grouping::fields(0));
            b.connect(s, i, Grouping::Shuffle);
            b.connect(i, c, Grouping::fields(1));
            b.connect(i, d, Grouping::LocalOrShuffle);
            let topo = b.build().unwrap();
            let placement = Placement::aligned(&topo, servers);
            (topo, placement)
        };
        let sorted = |state: &HashMap<Key, StateValue>| {
            let mut kv: Vec<(Key, u64)> = state
                .iter()
                .map(|(&k, v)| (k, v.as_count().unwrap()))
                .collect();
            kv.sort_unstable();
            kv
        };

        let (topo, placement) = build();
        let cluster = ClusterSpec::lan_10g(servers);
        let mut sim = Simulation::new(topo, cluster, placement, SimConfig::default());
        assert!(
            sim.run_until_drained(10_000) < 10_000,
            "simulator never drained"
        );
        let windows = sim.metrics().windows();
        let operators = n..5 * n;
        let sim_states: Vec<_> = (0..5 * n)
            .map(|i| sorted(sim.poi_state(PoiId(i))))
            .collect();
        let sim_processed: Vec<u64> = operators
            .clone()
            .map(|i| windows.iter().map(|w| w.poi_processed[i]).sum())
            .collect();
        let sim_edges: Vec<(u64, u64)> = (0..4)
            .map(|e| {
                let edge = windows.iter().map(|w| &w.edges[e]);
                edge.fold((0, 0), |(l, r), s| (l + s.local, r + s.remote))
            })
            .collect();

        let (topo, placement) = build();
        let rt = LiveRuntime::start(topo, placement, servers, LiveConfig::default());
        let shared = Arc::clone(&rt.shared);
        let reports = rt.join();
        let live_states: Vec<_> = reports.iter().map(|r| sorted(&r.state)).collect();
        let live_processed: Vec<u64> = reports[operators].iter().map(|r| r.processed).collect();
        let live_edges: Vec<(u64, u64)> = shared
            .edges
            .iter()
            .map(|e| {
                (
                    e.local.load(Ordering::Relaxed),
                    e.remote.load(Ordering::Relaxed),
                )
            })
            .collect();

        assert_eq!(live_states, sim_states, "per-instance keyed state");
        assert_eq!(live_processed, sim_processed, "per-instance processed");
        assert_eq!(live_edges, sim_edges, "per-edge (local, remote) totals");
        assert!(sim_edges.iter().all(|&(l, r)| l + r == 24_000));
    }

    /// A plan whose migrations disagree with its router updates: A's
    /// keys move to modulo owners while S keeps routing by hash, so old
    /// owners forward every later tuple of a moved key, up to the end
    /// of the stream. The sibling end markers keep every new owner
    /// alive until its siblings' forwards are in: A processes every
    /// tuple, and no forward is lost.
    #[test]
    fn every_forward_to_a_new_owner_is_processed() {
        let (n, keys, total) = (3, 9, 30_000u64);
        let mut b = Topology::builder();
        let s = b.source("S", n, SourceRate::PerSecond(50_000.0), move |i| {
            let mut c = i as u64;
            let mut left = total / n as u64;
            Box::new(move || {
                left = left.checked_sub(1)?;
                c = c.wrapping_add(0x9e37_79b9);
                Some(Tuple::new([Key::new(c % keys)], 0))
            })
        });
        let a = b.stateful("A", n, CountOperator::factory());
        b.connect(s, a, Grouping::fields(0));
        let topo = b.build().unwrap();
        let placement = Placement::aligned(&topo, n);
        let registry = Arc::new(MetricsRegistry::new());
        let config = LiveConfig {
            metrics: Some(Arc::clone(&registry)),
            ..LiveConfig::default()
        };
        let rt = LiveRuntime::start(topo, placement, n, config);
        std::thread::sleep(std::time::Duration::from_millis(20));
        let migrations = (0..keys)
            .filter_map(|k| {
                let key = Key::new(k);
                let (old, new) = (HashRouter.route(key, n) as usize, (k % n as u64) as usize);
                (old != new).then_some((a, key, old, new))
            })
            .collect();
        rt.reconfigure(LiveReconfig {
            routers: Vec::new(),
            migrations,
        });
        let reports = rt.join();
        let sum = |po: PoId| -> u64 {
            reports
                .iter()
                .filter(|r| r.po == po)
                .map(|r| r.processed)
                .sum()
        };
        let snap = registry.snapshot();
        let get = |name: &str| {
            snap.iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        let (forwarded, lost) = (
            get("live_late_forwarded_total"),
            get("live_forward_lost_tuples_total"),
        );
        let _ = get("live_buffered_tuples_total");
        assert_eq!(sum(s), total);
        assert!(forwarded > 0, "stale routers must force forwards");
        assert_eq!(lost, 0, "forwards lost to an exited owner");
        assert_eq!(sum(a), total, "tuples A processed");
    }

    #[test]
    fn batch_counters_account_for_every_tuple() {
        let total = 20_000u64;
        let metrics = Arc::new(MetricsRegistry::new());
        let topo = chain(2, 8, total);
        let placement = Placement::aligned(&topo, 2);
        let rt = LiveRuntime::start(
            topo,
            placement,
            2,
            LiveConfig {
                metrics: Some(Arc::clone(&metrics)),
                ..LiveConfig::default()
            },
        );
        let _ = rt.join();
        let get = |name: &str| {
            metrics
                .snapshot()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("{name} not registered"))
        };
        // Two hops, every tuple crosses both: routed == 2 × total, and
        // every routed tuple travels inside a batch.
        assert_eq!(get("live_tuples_routed_total"), 2 * total);
        assert_eq!(get("live_batch_tuples_total"), 2 * total);
        let sends = get("live_batch_sends_total");
        assert!(sends > 0, "no batches sent");
        assert!(
            sends < 2 * total,
            "batching did not coalesce ({sends} sends for {} tuples)",
            2 * total
        );
    }

    #[test]
    fn probe_state_sees_live_counts() {
        let mut b = Topology::builder();
        let s = b.source("S", 1, SourceRate::Saturate, |_| {
            Box::new(|| Some(Tuple::new([Key::new(1)], 0)))
        });
        let a = b.stateful("A", 1, CountOperator::factory());
        b.connect(s, a, Grouping::fields(0));
        let topo = b.build().unwrap();
        let placement = Placement::aligned(&topo, 1);
        let rt = LiveRuntime::start(topo, placement, 1, LiveConfig::default());
        std::thread::sleep(std::time::Duration::from_millis(30));
        let snapshot = rt.probe_state(PoId(1), 0).expect("instance alive");
        assert!(snapshot.get(&Key::new(1)).and_then(StateValue::as_count) > Some(0));
        rt.stop();
        let _ = rt.join();
    }

    #[test]
    fn live_self_migrations_are_no_ops() {
        // Every key listed, moved or not: an `old == new` entry must
        // not make the key "departed" to its own instance.
        let (n, keys, total) = (3, 12, 12_000u64);
        let topo = paced_chain(n, keys, total, 50_000.0);
        let placement = Placement::aligned(&topo, n);
        let rt = LiveRuntime::start(topo, placement, n, LiveConfig::default());
        std::thread::sleep(std::time::Duration::from_millis(20));
        let migrations: Vec<(PoId, Key, usize, usize)> = (0..keys)
            .map(|k| {
                let key = Key::new(k);
                let old = HashRouter.route(key, n) as usize;
                (PoId(2), key, old, (k % n as u64) as usize)
            })
            .collect();
        assert!(migrations.iter().any(|&(_, _, old, new)| old == new));
        rt.reconfigure(LiveReconfig {
            routers: vec![(PoId(1), EdgeId(1), Arc::new(ModuloRouter))],
            migrations,
        });
        let reports = rt.join();
        let counted: u64 = counts_of(&reports, PoId(2)).values().sum();
        assert_eq!(counted, total, "self-migrated keys lost tuples");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn live_migration_out_of_range_panics() {
        // Instances 3 and 4 of the 3-instance A would land on B0 and
        // B1 in global coordinates: B0 would ship its own state.
        let topo = paced_chain(3, 9, 3_000, 50_000.0);
        let placement = Placement::aligned(&topo, 3);
        let rt = LiveRuntime::start(topo, placement, 3, LiveConfig::default());
        rt.reconfigure(LiveReconfig {
            routers: Vec::new(),
            migrations: vec![(PoId(1), Key::new(0), 3, 4)],
        });
        let _ = rt.join();
    }

    /// A recycled buffer comes back empty with room for a batch, a
    /// buffer too small for one is not kept, and the list never holds
    /// more than its cap: one per full batch under the backlog bound
    /// and one per send buffer.
    #[test]
    fn spares_come_back_empty_and_stay_under_the_cap() {
        // S0, S1 each send to A0, A1; A0, A1 each to B0, B1.
        let mut spares = Spares::new(&chain(2, 8, 0));
        let cap = LiveRuntime::BACKLOG_BOUND as usize / LiveRuntime::BATCH + 8;
        assert_eq!(spares.cap, cap);
        let full = || vec![Tuple::new([Key::new(1)], 0); LiveRuntime::BATCH];
        spares.put(full());
        assert_eq!(spares.free.len(), 1);
        let buf = spares.take();
        assert!(buf.is_empty());
        assert!(buf.capacity() >= LiveRuntime::BATCH);
        spares.put(Vec::with_capacity(LiveRuntime::BATCH - 1));
        assert!(spares.free.is_empty(), "too small for a batch");
        for _ in 0..2 * cap {
            spares.put(full());
        }
        assert_eq!(spares.free.len(), cap);
        assert!(spares.free.iter().all(Vec::is_empty));
    }

    /// A second driver of the instance actor, on one thread: one
    /// `VecDeque` inbox per instance, and a seeded choice of which
    /// instance steps next — a non-empty inbox delivers its head, an
    /// idle source pulls a stage of seeded size. The wave coordinator
    /// runs on a virtual clock of one window per 100 steps: nothing
    /// sleeps or waits.
    mod seeded_driver {
        use std::collections::{HashSet, VecDeque};

        use super::*;
        use crate::key::splitmix64;

        /// The seeded driver's outbox. It recycles batch buffers as a
        /// shard does, so the reference check runs on reused buffers.
        struct Queues {
            inboxes: Vec<VecDeque<Msg>>,
            exited: Vec<bool>,
            notes: Vec<CoordMsg>,
            spares: Spares,
        }

        impl Outbox for Queues {
            fn send(&mut self, dest: usize, msg: Msg) -> bool {
                if !self.exited[dest] {
                    self.inboxes[dest].push_back(msg);
                }
                !self.exited[dest]
            }

            fn notify(&mut self, note: CoordMsg) {
                self.notes.push(note);
            }

            fn buffer(&mut self) -> Vec<Tuple> {
                self.spares.take()
            }

            fn recycle(&mut self, buf: Vec<Tuple>) {
                self.spares.put(buf);
            }
        }

        /// Runs `topology` to its end under `seed`, starting `wave` at a
        /// seeded step, and returns the wave's outcome and the reports
        /// sorted by `(operator, instance)`.
        fn run(
            seed: u64,
            topology: &Topology,
            wave: &LiveReconfig,
        ) -> (Option<Result<(), ReconfigError>>, Vec<InstanceReport>) {
            let placement = Placement::aligned(topology, 2);
            let shared = Arc::new(Shared::new(topology, &placement, &LiveConfig::default()));
            let instances = Instance::all(topology, &placement, &shared, Vec::new());
            let mut instances: Vec<Option<Instance>> = instances.into_iter().map(Some).collect();
            let n = instances.len();
            let mut q = Queues {
                inboxes: (0..n).map(|_| VecDeque::new()).collect(),
                exited: vec![false; n],
                notes: Vec::new(),
                spares: Spares::new(topology),
            };
            let mut rng = seed;
            let mut pick = |bound: usize| {
                rng = splitmix64(rng);
                (rng % bound as u64) as usize
            };
            let wave_at = pick(40) as u64;
            let (mut coord, mut outcome, mut reports) = (None, None, Vec::new());
            for step in 0u64.. {
                let now = step / 100;
                if step == wave_at {
                    let roots = topology.root_instances();
                    let staged = wave.staged(topology);
                    let mut c = WaveCoordinator::new(staged, roots, WaveConfig::default());
                    c.start(now);
                    coord = Some(c);
                }
                let notes = std::mem::take(&mut q.notes);
                if let Some(c) = coord.as_mut() {
                    for note in notes {
                        match note {
                            CoordMsg::Ack(i) => c.ack(i),
                            CoordMsg::Applied(i) => c.applied(i),
                            CoordMsg::Exited(i) => c.exited(i),
                        }
                    }
                    c.tick(now);
                    for send in c.take_sends() {
                        let i = send.to();
                        if !q.send(i, Msg::Wave(send)) {
                            c.exited(i);
                        }
                    }
                    outcome = c.outcome();
                    if outcome.is_some() {
                        coord = None;
                    }
                }
                let ready: Vec<usize> = (0..n)
                    .filter(|&i| {
                        let live = instances[i].as_ref();
                        live.is_some_and(|x| !q.inboxes[i].is_empty() || x.pull_due().is_some())
                    })
                    .collect();
                if ready.is_empty() {
                    break;
                }
                let i = ready[pick(ready.len())];
                let mut instance = instances[i].take().expect("ready instances are live");
                match q.inboxes[i].pop_front() {
                    Some(msg) => {
                        instance.on_msg(msg, &mut q);
                        if q.inboxes[i].is_empty() {
                            instance.flush_buffers(&mut q);
                            instance.drained();
                        }
                    }
                    None => instance.pull(1 + pick(LiveRuntime::BATCH), None, &mut q),
                }
                if instance.done() {
                    reports.push(instance.finish(&mut q));
                    q.exited[i] = true;
                    q.inboxes[i].clear();
                } else {
                    instances[i] = Some(instance);
                }
            }
            let stuck: Vec<usize> = (0..n).filter(|&i| instances[i].is_some()).collect();
            assert!(
                stuck.is_empty(),
                "seed {seed}: instances {stuck:?} never done"
            );
            // Consumed batches came back for reuse.
            assert!(!q.spares.free.is_empty(), "seed {seed}: no spares");
            reports.sort_by_key(|r| (r.po.index(), r.instance));
            (outcome, reports)
        }

        /// The actor under the seeded driver, over a fixed seed range: a
        /// modulo wave moves B's keys mid-stream, and the per-instance
        /// state must equal the single-threaded reference exactly, each
        /// key at one owner. Even seeds switch A's router with the wave;
        /// odd seeds leave it, so A keeps routing by hash and B's old
        /// owners forward every later tuple of a moved key to the end of
        /// the stream.
        #[test]
        fn seeded_driver_matches_the_reference_across_a_wave() {
            let (n, keys) = (3, 13);
            // 8,000 tuples per source: ~60 stages of seeded size up to
            // `BATCH`, so the stream outlasts the wave.
            let streams = pair_streams(n, keys, 24_000);
            let reference = reference_fingerprint(&streams, 2).0;
            let topology = chain_with(&streams, None, Arc::new(HashRouter));
            for seed in 0..40 {
                let mut wave = modulo_wave(n, keys);
                if seed % 2 == 1 {
                    wave.routers.clear();
                }
                let (outcome, reports) = run(seed, &topology, &wave);
                assert!(
                    matches!(outcome, Some(Ok(()))),
                    "seed {seed}: wave {outcome:?}"
                );
                let mut owned = HashSet::new();
                for r in reports.iter().filter(|r| r.po == PoId(2)) {
                    for &key in r.state.keys() {
                        assert!(owned.insert(key), "seed {seed}: key {key} has two owners");
                    }
                }
                let states: Vec<_> = reports
                    .iter()
                    .map(|r| {
                        let mut kv: Vec<(Key, u64)> = r
                            .state
                            .iter()
                            .map(|(&k, v)| (k, v.as_count().unwrap()))
                            .collect();
                        kv.sort_unstable();
                        (r.po.index(), r.instance, kv)
                    })
                    .collect();
                assert_eq!(
                    states, reference,
                    "seed {seed}: state diverged from the reference"
                );
            }
        }
    }
}
