//! One operator instance, written once.
//!
//! The data plane is shared by both runtimes: [`OutRoutes::route`]
//! decides where output goes and [`OperatorCore::dispatch`] runs the
//! operator; the hold rule of a wave is `WaveParticipant::hold`. The
//! live runtime hands these routines whole batches, the simulator
//! one-tuple slices, with the same result: `route_batch` expands to
//! per-key `route` calls, `on_batch` to per-tuple `process` calls,
//! `observe_run` to `count` observes, and a round-robin edge advances
//! its counter once per tuple.
//!
//! [`Instance`] is the live runtime's per-instance rule (paper
//! Algorithm 1), for sources and operators alike, as a sans-IO actor
//! over one FIFO inbox that sends only through an [`Outbox`]: a shard
//! thread drives it together with the other instances of its shard
//! (`live.rs`), or one seeded thread drives all of them (its tests).
//!
//! End of stream is by protocol. A source is done once exhausted,
//! stopped or crashed, and sends `Eos` to every successor instance. A
//! keyed operator instance sends one `SiblingEos` marker to each
//! sibling on its last predecessor `Eos`, and is done once it holds
//! every `Eos` and every marker. Nothing can then still be on its way
//! in:
//!
//! * a sibling forwards only while it processes predecessor input,
//!   which ends with that `Eos`, and a forward goes straight to the
//!   owner's inbox: per-sender FIFO puts it ahead of the marker;
//! * a ⑥ shipped on ⑤ is ahead of the marker too, as ⑤ precedes `Eos`
//!   (live ⑥s are never delayed); it also precedes its shipper's
//!   `Applied`, so it is queued ahead of the next wave's ③;
//! * a marker waits only on `Eos`, never on a sibling exiting: no wait
//!   cycle.
//!
//! So a key still pending at exit lost its ⑥: [`Instance::finish`]
//! adopts it with fresh state (at-most-once). Open: a ⑥ force-applied,
//! or a forward forwarded on (a key two waves moved), after the
//! sender's marker can reach an exited owner.

use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasher;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use streamloc_sketch::KeyState;

use crate::fault::{ControlClass, ControlFate, FaultInjector};
use crate::key::Key;
use crate::live::{InstanceReport, LiveConfig, LiveObserver, LiveRuntime};
use crate::obs::{Counter, MetricsRegistry, SpanRecorder, SpanSampler};
use crate::operator::{IdentityOperator, OpContext, Operator, StateValue};
use crate::router::{push_dest_run, DestRun, KeyRouter};
use crate::sim::Placement;
use crate::topology::{EdgeId, Grouping, PoId, PoKind, SourceRate, Topology, TupleSource};
use crate::tuple::{tuple_run_len, Tuple};
use crate::wave::{Hold, WaveParticipant, WaveSend};

/// A source stage reads the clock after its first, second and fourth
/// tuple, then after every this many, to close at its deadline: a
/// generator that blocks until each tuple is due is caught after one
/// tuple, a saturating one costs a read per 8 tuples.
const CLOCK_EVERY: usize = 8;

/// Observes the `(input key, output key)` pairs flowing through a
/// stateful instance — the instrumentation hook of paper §3.2.
///
/// The locality-aware routing crate installs a SpaceSaving-backed
/// implementation on every stateful POI; the engine invokes it for
/// each processed tuple that leaves through a fields-grouped edge.
pub trait PairObserver: Send {
    /// Records one co-occurrence of `input` (the key the tuple arrived
    /// on) and `output` (the key it departs on).
    fn observe(&mut self, input: Key, output: Key);

    /// Records `count` co-occurrences of the same `(input, output)`
    /// pair at once — the columnar data plane coalesces runs of equal
    /// keys before observing them.
    ///
    /// Must be equivalent to calling [`observe`](PairObserver::observe)
    /// `count` times; the default does exactly that. Sketch-backed
    /// observers override it with one weighted offer (one lock
    /// acquisition per run instead of per tuple).
    fn observe_run(&mut self, input: Key, output: Key, count: u64) {
        for _ in 0..count {
            self.observe(input, output);
        }
    }
}

impl<F> PairObserver for F
where
    F: FnMut(Key, Key) + Send,
{
    fn observe(&mut self, input: Key, output: Key) {
        self(input, output);
    }
}

/// One instance's pair observers, resolved once per out edge: slot `i`
/// holds the `(observed tuple field, observer)` entries of the
/// instance's `i`-th out edge, so feeding them walks a `Vec` instead of
/// looking each edge up. An edge can carry several observers (a
/// stateless fan-out behind it may lead to several stateful
/// successors).
#[derive(Default)]
pub(crate) struct ObserverSlots(Vec<Vec<(usize, Box<dyn PairObserver>)>>);

impl ObserverSlots {
    /// Adds `observer` of tuple field `field` on out edge `edge`, given
    /// the instance's out edges in order.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is not one of `out_edges`.
    pub(crate) fn add(
        &mut self,
        mut out_edges: impl ExactSizeIterator<Item = EdgeId>,
        edge: EdgeId,
        field: usize,
        observer: Box<dyn PairObserver>,
    ) {
        let outs = out_edges.len();
        let slot = out_edges
            .position(|e| e == edge)
            .expect("instance has no such out edge");
        if self.0.is_empty() {
            self.0.resize_with(outs, Vec::new);
        }
        self.0[slot].push((field, observer));
    }
}

/// How one out edge picks the destination of a tuple.
enum Pick {
    /// Fields grouping: the router on tuple field `field`, this
    /// instance's own slot (waves, restores and respawns replace it).
    Fields {
        field: usize,
        router: Arc<dyn KeyRouter>,
    },
    /// `Shuffle` and `LocalOrShuffle`: `targets[next % len]`, `next += 1`.
    RoundRobin { targets: Vec<u32>, next: usize },
}

/// One out edge of an instance.
struct OutRoute {
    edge: EdgeId,
    /// Global indices of the destination operator's instances.
    dests: Range<usize>,
    pick: Pick,
}

/// An instance's out edges, in topology order, and how each one picks
/// destinations. The only code that knows what router state looks like.
pub(crate) struct OutRoutes {
    outs: Vec<OutRoute>,
    /// Scratch key column of a fields edge.
    keys: Vec<Key>,
}

impl OutRoutes {
    /// The out edges of instance `instance` of operator `po`. A
    /// round-robin counter starts at the instance index. `Shuffle`
    /// targets every destination instance; `LocalOrShuffle` the ones on
    /// the sender's server, or every one when none is.
    pub(crate) fn new(
        topology: &Topology,
        placement: &Placement,
        po: PoId,
        instance: usize,
    ) -> Self {
        let server = placement.server(po, instance);
        let outs = topology.out_edges(po).iter().map(|&edge| {
            let to = topology.edge(edge).to();
            let dests = topology.instances(to);
            let all = 0..dests.len() as u32;
            let pick = match topology.edge(edge).grouping() {
                Grouping::Fields { field, router } => Pick::Fields {
                    field: *field,
                    router: Arc::clone(router),
                },
                grouping => {
                    let local = |&i: &u32| placement.server(to, i as usize) == server;
                    let mut targets: Vec<u32> = all.clone().filter(local).collect();
                    if matches!(grouping, Grouping::Shuffle) || targets.is_empty() {
                        targets = all.collect();
                    }
                    let next = instance;
                    Pick::RoundRobin { targets, next }
                }
            };
            OutRoute { edge, dests, pick }
        });
        Self {
            outs: outs.collect(),
            keys: Vec::new(),
        }
    }

    /// Number of out edges; 0 for a sink.
    pub(crate) fn len(&self) -> usize {
        self.outs.len()
    }

    /// `true` for a sink.
    pub(crate) fn is_empty(&self) -> bool {
        self.outs.is_empty()
    }

    /// The routing routine: replaces `runs` with `(global instance, len)`
    /// runs of `tuples` on out edge `pos`, in tuple order, and returns
    /// the edge. A fields edge routes the key column with
    /// [`KeyRouter::route_batch`], a round-robin edge tuple by tuple.
    pub(crate) fn route(
        &mut self,
        pos: usize,
        tuples: &[Tuple],
        runs: &mut Vec<DestRun>,
    ) -> EdgeId {
        runs.clear();
        let out = &mut self.outs[pos];
        match &mut out.pick {
            Pick::Fields { field, router } => {
                self.keys.clear();
                self.keys.extend(tuples.iter().map(|t| t.key(*field)));
                router.route_batch(&self.keys, out.dests.len(), runs);
            }
            Pick::RoundRobin { targets, next } => {
                for _ in tuples {
                    push_dest_run(runs, 0, targets[*next % targets.len()], 1);
                    *next = next.wrapping_add(1);
                }
            }
        }
        for run in runs.iter_mut() {
            run.dest += out.dests.start as u32;
        }
        out.edge
    }

    /// Replaces this instance's router on `edge`; `false`, changing
    /// nothing, if `edge` is not one of its fields out edges.
    pub(crate) fn set_router(&mut self, edge: EdgeId, router: Arc<dyn KeyRouter>) -> bool {
        let out = self.outs.iter_mut().find(|o| o.edge == edge);
        let Some(Pick::Fields { router: slot, .. }) = out.map(|o| &mut o.pick) else {
            return false;
        };
        *slot = router;
        true
    }

    /// Every fields router with its edge, in out-edge order: what a
    /// checkpoint captures and a restore puts back.
    pub(crate) fn routers(&self) -> impl Iterator<Item = (EdgeId, Arc<dyn KeyRouter>)> + '_ {
        self.outs.iter().filter_map(|o| match &o.pick {
            Pick::Fields { router, .. } => Some((o.edge, Arc::clone(router))),
            Pick::RoundRobin { .. } => None,
        })
    }

    /// The field span sampling decides on at a source: the first fields
    /// edge's, so sampled spans follow the keys the manager routes.
    pub(crate) fn span_field(&self) -> Option<usize> {
        self.outs.iter().find_map(|o| match o.pick {
            Pick::Fields { field, .. } => Some(field),
            Pick::RoundRobin { .. } => None,
        })
    }
}

/// An operator instance's processing core: the user operator, its keyed
/// state, its pair observers and the output of the current call. The
/// live runtime keys its state with the process-seeded [`KeyState`];
/// the simulator keeps `std`'s hasher, as [`Simulation::poi_state`]
/// lends its map out.
///
/// [`Simulation::poi_state`]: crate::Simulation::poi_state
pub(crate) struct OperatorCore<S = KeyState> {
    op: Box<dyn Operator>,
    stateful: bool,
    /// The field the state is keyed on (the input's fields grouping);
    /// `None` for an operator without fields input.
    pub(crate) state_field: Option<usize>,
    pub(crate) state: HashMap<Key, StateValue, S>,
    /// Per out edge instrumentation (§3.2).
    pub(crate) observers: ObserverSlots,
    /// Output of the dispatches since the caller last cleared it.
    pub(crate) emitted: Vec<Tuple>,
}

impl<S: BuildHasher + Default> OperatorCore<S> {
    pub(crate) fn new(op: Box<dyn Operator>, stateful: bool, state_field: Option<usize>) -> Self {
        Self {
            op,
            stateful,
            state_field,
            state: HashMap::default(),
            observers: ObserverSlots::default(),
            emitted: Vec::new(),
        }
    }

    /// The dispatch routine: runs the operator on `run`, non-empty tuples
    /// of state key `key` (of any key when there is none), with one state
    /// lookup and one [`Operator::on_batch`], appending to `emitted`. The
    /// output inherits the head's span origin (sampling is per key, so
    /// the head speaks for a keyed run, or for a lone keyless tuple), and
    /// each observer sees `(key, output key)` once per output-key run.
    pub(crate) fn dispatch(&mut self, run: &[Tuple], key: Option<Key>) {
        let run_start = self.emitted.len();
        let state = self.stateful.then(|| {
            let key = key.expect("stateful operators have a state field");
            self.state
                .entry(key)
                .or_insert_with(|| self.op.init_state())
        });
        let mut ctx = OpContext {
            state,
            routing_key: key,
            emitted: &mut self.emitted,
        };
        self.op.on_batch(run, &mut ctx);
        if run[0].is_span_sampled() && (key.is_some() || run.len() == 1) {
            let origin = run[0].span_origin_ns();
            for t in &mut self.emitted[run_start..] {
                t.set_span_origin(origin);
            }
        }
        let Some(key) = key else {
            return;
        };
        for (field, observer) in self.observers.0.iter_mut().flatten() {
            let mut out = &self.emitted[run_start..];
            while !out.is_empty() {
                let len = tuple_run_len(out, *field);
                observer.observe_run(key, out[0].key(*field), len as u64);
                out = &out[len..];
            }
        }
    }
}

/// Messages on an instance's inbox. Data and control share one FIFO
/// per receiver (like a TCP connection in Storm), so per-sender
/// ordering guarantees hold for `Eos`.
pub(crate) enum Msg {
    /// A run of data tuples coalesced by the sender; the receiver
    /// processes them in order.
    Batch(Vec<Tuple>),
    /// ③ new configuration, ⑤ a predecessor instance (or the
    /// coordinator) has switched, or apply now (a retry's release).
    Wave(WaveSend),
    /// ⑥ Migrated state for a key this instance now owns.
    Migrate { key: Key, state: Option<StateValue> },
    /// End of stream from one predecessor instance.
    Eos,
    /// End marker from a sibling: it holds every predecessor `Eos`, so
    /// it forwards nothing more to this instance.
    SiblingEos,
    /// Snapshot request: reply with a clone of the keyed state.
    StateProbe(Sender<HashMap<Key, StateValue>>),
    /// Fault injection: the instance "crashes" — keyed state, queued
    /// messages and any staged wave configuration are lost — then
    /// respawns with the carried checkpoint state.
    Crash { restore: HashMap<Key, StateValue> },
}

impl Msg {
    /// Data tuples the message carries.
    pub(crate) fn tuples(&self) -> usize {
        match self {
            Msg::Batch(tuples) => tuples.len(),
            _ => 0,
        }
    }
}

/// Instance → wave coordinator notifications, tagged with the global
/// instance index so retries and duplicates never double count.
pub(crate) enum CoordMsg {
    /// ④ An instance staged its new configuration.
    Ack(usize),
    /// An instance applied its configuration and forwarded the wave.
    Applied(usize),
    /// An instance shut down (its `Eos` tokens are out).
    Exited(usize),
}

/// An instance's only I/O, provided by its driver. The driver also
/// owns the data plane's memory: every send buffer and source stage
/// comes from [`buffer`](Self::buffer), and every consumed batch goes
/// back through [`recycle`](Self::recycle), so a driver that keeps the
/// returned buffers for reuse runs the data plane without allocating.
pub(crate) trait Outbox {
    /// Sends `msg` to global instance `dest`; `false` if `dest` has
    /// exited and can take nothing more.
    fn send(&mut self, dest: usize, msg: Msg) -> bool;

    /// Tells the wave coordinator `note`.
    fn notify(&mut self, note: CoordMsg);

    /// An empty buffer with room for at least [`LiveRuntime::BATCH`]
    /// tuples.
    fn buffer(&mut self) -> Vec<Tuple>;

    /// Takes back the buffer of a batch that was consumed (processed,
    /// or dropped by fault injection) or of a routed source stage.
    fn recycle(&mut self, buf: Vec<Tuple>);
}

/// Per-edge transfer counters.
#[derive(Debug, Default)]
pub(crate) struct EdgeCounters {
    pub(crate) local: AtomicU64,
    pub(crate) remote: AtomicU64,
}

/// What every instance of one live deployment shares: placement tags,
/// transfer and hot-path counters, the fault injector, span tracing
/// and the stop flag. It holds no channel.
pub(crate) struct Shared {
    /// Placement tag of every instance, by global index.
    pub(crate) server: Vec<usize>,
    pub(crate) edges: Vec<EdgeCounters>,
    pub(crate) stop: AtomicBool,
    /// Fault injector consulted for every control message: ③/⑤ by the
    /// wave driver, ⑥ by the sending instance.
    pub(crate) fault: Mutex<Option<FaultInjector>>,
    /// `true` when the installed fault plan schedules data-plane batch
    /// drops. Gates the injector lock out of the batch send path: the
    /// hot path pays one relaxed load, never a mutex, unless batch
    /// faults are actually armed.
    pub(crate) batch_faults: AtomicBool,
    /// Hot-path instruments. Without an attached registry they live in
    /// a private one that is never exported, so increments never
    /// branch.
    tuples_routed: Counter,
    tuples_remote: Counter,
    migrations_sent: Counter,
    migration_bytes: Counter,
    batch_sends: Counter,
    batch_tuples: Counter,
    batch_control_flushes: Counter,
    batch_drops: Counter,
    batch_dropped_tuples: Counter,
    buffered_tuples: Counter,
    late_forwarded: Counter,
    forward_lost: Counter,
    /// Span sampler (see [`LiveConfig::span_sampler`]); `None` keeps
    /// every span branch on the hot path never-taken.
    sampler: Option<SpanSampler>,
    /// Registry span histograms are registered in (each instance owns a
    /// [`SpanRecorder`]; idempotent registration shares the buckets).
    span_metrics: Option<Arc<MetricsRegistry>>,
    /// The monotonic clock epoch: all span timestamps are nanoseconds
    /// since this instant, so they are comparable across threads.
    clock: Instant,
    /// Routing epoch, bumped when a reconfiguration wave completes.
    /// Read (relaxed) when recording span observations, so latency
    /// histograms are split before/after each wave.
    pub(crate) epoch: AtomicU64,
}

impl Shared {
    pub(crate) fn new(topology: &Topology, placement: &Placement, config: &LiveConfig) -> Self {
        let private = MetricsRegistry::new();
        let reg = config.metrics.as_deref().unwrap_or(&private);
        Self {
            server: placement.per_po.iter().flatten().map(|s| s.0).collect(),
            edges: (0..topology.edges().len())
                .map(|_| EdgeCounters::default())
                .collect(),
            stop: AtomicBool::new(false),
            fault: Mutex::new(None),
            batch_faults: AtomicBool::new(false),
            tuples_routed: reg.counter(
                "live_tuples_routed_total",
                "tuples sent on all edges by the live runtime",
            ),
            tuples_remote: reg.counter(
                "live_tuples_remote_total",
                "live tuples that crossed a server boundary",
            ),
            migrations_sent: reg.counter(
                "live_migrations_total",
                "key states shipped by live reconfiguration waves",
            ),
            migration_bytes: reg.counter(
                "live_migration_bytes_total",
                "bytes of key state shipped by live waves",
            ),
            batch_sends: reg.counter(
                "live_batch_sends_total",
                "coalesced Batch messages sent on the live data plane",
            ),
            batch_tuples: reg.counter(
                "live_batch_tuples_total",
                "tuples carried inside live Batch messages",
            ),
            batch_control_flushes: reg.counter(
                "live_batch_control_flushes_total",
                "send-buffer flushes forced by control-plane boundaries",
            ),
            batch_drops: reg.counter(
                "live_batch_drops_total",
                "Batch messages lost mid-flight to fault injection",
            ),
            batch_dropped_tuples: reg.counter(
                "live_batch_dropped_tuples_total",
                "tuples lost inside fault-dropped Batch messages",
            ),
            buffered_tuples: reg.counter(
                "live_buffered_tuples_total",
                "tuples buffered while their key's state was in flight",
            ),
            late_forwarded: reg.counter(
                "live_late_forwarded_total",
                "stragglers forwarded from old to new key owners",
            ),
            forward_lost: reg.counter(
                "live_forward_lost_tuples_total",
                "forwards whose new owner had exited (a tripwire: end markers keep it 0)",
            ),
            sampler: config.span_sampler,
            span_metrics: config.metrics.clone(),
            clock: Instant::now(),
            epoch: AtomicU64::new(0),
        }
    }

    /// What the injector (if armed) decides about one control message.
    pub(crate) fn control_fate(&self, class: ControlClass) -> ControlFate {
        crate::lock(&self.fault)
            .as_mut()
            .map_or(ControlFate::Deliver, |inj| inj.on_control(class))
    }

    /// Sends one coalesced batch, consulting the armed fault injector
    /// first: a dropped batch is lost on the wire with every tuple in it
    /// (at-most-once), accounted by the `live_batch_drop*` counters.
    fn send_batch(&self, dest: usize, batch: Vec<Tuple>, out: &mut impl Outbox) {
        self.batch_sends.inc();
        self.batch_tuples.add(batch.len() as u64);
        if self.batch_faults.load(Ordering::Relaxed) {
            let mut fault = crate::lock(&self.fault);
            if fault.as_mut().is_some_and(FaultInjector::on_batch_send) {
                self.batch_drops.inc();
                self.batch_dropped_tuples.add(batch.len() as u64);
                out.recycle(batch);
                return;
            }
        }
        out.send(dest, Msg::Batch(batch));
    }

    /// Nanoseconds since the clock epoch.
    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }
}

/// One live instance, source or operator: the per-instance rule as an
/// actor. A driver delivers its inbox in order to
/// [`on_msg`](Self::on_msg), lets a source [`pull`](Self::pull), calls
/// [`drained`](Self::drained) when the inbox ran dry, hands off the
/// send buffers with [`flush_buffers`](Self::flush_buffers) when it
/// chooses, and [`finish`](Self::finish)es the instance once
/// [`done`](Self::done).
pub(crate) struct Instance {
    po: PoId,
    /// Index within the operator.
    instance: usize,
    /// Global index.
    index: usize,
    /// A source's generator and rate, until it runs dry or crashes (a
    /// crashed source stays down: restarting its generator would replay
    /// its stream); `None` for an operator.
    source: Option<(Box<dyn TupleSource>, SourceRate)>,
    /// The operator; a source's is an undispatched placeholder.
    core: OperatorCore,
    /// Global indices of every successor instance; `Propagate` and
    /// `Eos` go to each.
    successors: Vec<usize>,
    /// The other instances of this operator if it is keyed (as for the
    /// hold rule): they exchange end markers.
    siblings: Vec<usize>,
    /// `Eos` tokens and sibling markers received.
    eos: usize,
    markers: usize,
    /// A crash is draining the messages queued behind it: all but `Eos`,
    /// markers and probes die with the instance until the inbox runs
    /// dry.
    respawning: bool,
    /// This instance's side of the reconfiguration wave, including the
    /// data plane's `pending` buffers and `departed` forwards.
    wave: WaveParticipant<VecDeque<Tuple>>,
    routes: OutRoutes,
    /// Per-destination send buffers (indexed by global instance), each
    /// sent as one `Msg::Batch` once it holds [`LiveRuntime::BATCH`]
    /// tuples or its shard flushes it. A sent buffer is replaced from
    /// [`Outbox::buffer`] only when the next tuple for its destination
    /// comes. Edge counters and observers get bulk adds per routed
    /// batch, so locality statistics do not depend on where a batch
    /// boundary falls.
    out_buf: Vec<Vec<Tuple>>,
    /// Tuples in `out_buf`, summed over destinations.
    buffered: usize,
    /// Scratch `(dest, len)` runs of one out edge.
    run_buf: Vec<DestRun>,
    /// Tuples processed (for a source: emitted).
    processed: u64,
    /// Span tracing: each instance owns a recorder; `None` when the
    /// sampler is off, so the hot path pays one never-taken branch.
    span_rec: Option<SpanRecorder>,
    /// Scratch `(hop_send_ns, remote, origin_ns)` stamps of the sampled
    /// tuples one call processed.
    sampled: Vec<(u64, bool, u64)>,
    shared: Arc<Shared>,
}

impl Instance {
    /// Every instance of `topology`, in global order, each feeding the
    /// observers registered on it.
    ///
    /// # Panics
    ///
    /// Panics if an observer names a missing instance or out edge.
    pub(crate) fn all(
        topology: &Topology,
        placement: &Placement,
        shared: &Arc<Shared>,
        observers: Vec<LiveObserver>,
    ) -> Vec<Self> {
        let n = topology.total_instances();
        let mut slots: Vec<ObserverSlots> = (0..n).map(|_| ObserverSlots::default()).collect();
        for (po, instance, edge, field, obs) in observers {
            let instances = topology.instances(po);
            assert!(instance < instances.len(), "observer on a missing instance");
            let out_edges = topology.out_edges(po).iter().copied();
            slots[instances.start + instance].add(out_edges, edge, field, obs);
        }
        let mut slots = slots.into_iter();
        let mut all = Vec::with_capacity(n);
        for (po, spec) in (0..).map(PoId).zip(&topology.pos) {
            let (range, state_field) = (topology.instances(po), topology.state_field(po));
            for (instance, index) in range.clone().enumerate() {
                let (source, op, stateful): (_, Box<dyn Operator>, _) = match &spec.kind {
                    PoKind::Source { factory, rate } => (
                        Some((factory(instance), *rate)),
                        Box::new(IdentityOperator),
                        false,
                    ),
                    PoKind::Operator { factory, stateful } => (None, factory(instance), *stateful),
                };
                let mut core = OperatorCore::new(op, stateful, state_field);
                core.observers = slots.next().expect("one observer slot per instance");
                let siblings = range
                    .clone()
                    .filter(|&i| state_field.is_some() && i != index);
                all.push(Self {
                    po,
                    instance,
                    index,
                    source,
                    core,
                    successors: topology.successor_instances(po),
                    siblings: siblings.collect(),
                    eos: 0,
                    markers: 0,
                    respawning: false,
                    wave: WaveParticipant::new(topology.predecessor_instances(po)),
                    routes: OutRoutes::new(topology, placement, po, instance),
                    out_buf: vec![Vec::new(); n],
                    buffered: 0,
                    run_buf: Vec::new(),
                    processed: 0,
                    span_rec: shared
                        .sampler
                        .map(|_| SpanRecorder::new(shared.span_metrics.clone())),
                    sampled: Vec::new(),
                    shared: Arc::clone(shared),
                });
            }
        }
        all
    }

    /// Handles one message of the inbox: the whole per-instance rule.
    pub(crate) fn on_msg(&mut self, msg: Msg, out: &mut impl Outbox) {
        // Queued messages die with a crashed instance — except the
        // stream-lifecycle `Eos` tokens and sibling markers (a respawned
        // instance still knows who finished) and state probes, which
        // must always be answered.
        if self.respawning && !matches!(msg, Msg::Eos | Msg::SiblingEos | Msg::StateProbe(_)) {
            return;
        }
        match msg {
            Msg::Batch(tuples) => {
                self.process(&tuples, out);
                out.recycle(tuples);
            }
            Msg::Wave(WaveSend::Reconf(_, staged)) => {
                self.flush(out, true);
                self.wave.stage(*staged);
                out.notify(CoordMsg::Ack(self.index));
            }
            Msg::Wave(WaveSend::Propagate(_)) => self.apply(false, out),
            Msg::Wave(WaveSend::ForceApply(_)) => self.apply(true, out),
            Msg::Migrate { key, state } => {
                if let Some(state) = state {
                    self.core.state.insert(key, state);
                }
                if let Some(mut buffered) = self.wave.pending.remove(&key) {
                    self.process(buffered.make_contiguous(), out);
                }
            }
            Msg::Eos => {
                self.eos += 1;
                // The last predecessor `Eos` ends this instance's
                // forwards.
                if self.eos == self.wave.preds {
                    for &sibling in &self.siblings {
                        out.send(sibling, Msg::SiblingEos);
                    }
                }
            }
            Msg::SiblingEos => self.markers += 1,
            Msg::StateProbe(reply) => {
                // Checkpoint boundary: buffered output is handed off
                // before the state snapshot is taken.
                self.flush(out, true);
                let snapshot = self.core.state.iter().map(|(&k, v)| (k, v.clone()));
                let _ = reply.send(snapshot.collect());
            }
            Msg::Crash { restore } => {
                // Everything volatile is lost; the instance respawns from
                // the checkpoint the runtime carried over.
                self.out_buf.iter_mut().for_each(Vec::clear);
                self.buffered = 0;
                self.core.state = restore.into_iter().collect();
                self.wave.reset();
                self.respawning = true;
                self.source = None;
            }
        }
    }

    /// ⑤ or `ForceApply`. When the staged configuration applies: flush,
    /// install its routers, ship ⑥ `Migrate` for every moved key (an
    /// operator's keyed state; a source has none), forward ⑤ to every
    /// successor and report `Applied`.
    fn apply(&mut self, force: bool, out: &mut impl Outbox) {
        let Some(applied) = self.wave.propagate(force) else {
            return;
        };
        // Flush before switching tables and forwarding the wave:
        // buffered tuples were routed under the old configuration and
        // must stay ahead of the `Propagate`s in every channel.
        self.flush(out, true);
        // A router on anything but a fields out edge is ignored.
        for (edge, router) in applied.routers {
            self.routes.set_router(edge, router);
        }
        for (key, dest) in applied.send {
            let moved = self.core.state.remove(&key);
            // A dropped ⑥ loses the moved state (at-most-once); the new
            // owner adopts the key with fresh state when it exits.
            if self.shared.control_fate(ControlClass::Migrate) == ControlFate::Drop {
                continue;
            }
            self.shared.migrations_sent.inc();
            self.shared
                .migration_bytes
                .add(moved.as_ref().map_or(0, StateValue::size_bytes));
            out.send(dest.index(), Msg::Migrate { key, state: moved });
        }
        for &succ in &self.successors {
            out.send(succ, Msg::Wave(WaveSend::Propagate(succ)));
        }
        out.notify(CoordMsg::Applied(self.index));
    }

    /// A source's step: stages at most `max` generated tuples in a
    /// buffer from [`Outbox::buffer`], stamps span origins, routes them
    /// as a column and recycles the stage. The stage also closes at
    /// `close`, if given: a generator may block until its tuples are
    /// due, and a tuple must not wait for a full stage (the clock reads
    /// are spaced as [`CLOCK_EVERY`] says). An operator has nothing to
    /// pull.
    pub(crate) fn pull(&mut self, max: usize, close: Option<Instant>, out: &mut impl Outbox) {
        let Some((gen, _)) = &mut self.source else {
            return;
        };
        let mut stage = out.buffer();
        let mut dry = false;
        while stage.len() < max {
            let n = stage.len();
            let check = n.is_power_of_two() || n.is_multiple_of(CLOCK_EVERY);
            if n > 0 && check && close.is_some_and(|c| Instant::now() >= c) {
                break;
            }
            match gen.next_tuple() {
                Some(tuple) => stage.push(tuple),
                None => {
                    dry = true;
                    break;
                }
            }
        }
        if dry {
            self.source = None;
        }
        self.processed += stage.len() as u64;
        // Span origin: sampled tuples get their birth timestamp here,
        // once, before entering the data plane. Sampling is decided on
        // the field the (first) fields-grouped out edge routes on.
        if let (Some(sampler), Some(field)) = (&self.shared.sampler, self.routes.span_field()) {
            sampler.stamp_batch(&mut stage, field, self.shared.now_ns());
        }
        self.route(&mut stage, out);
        out.recycle(stage);
    }

    /// Global index.
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    /// When a source's next [`pull`](Self::pull) is due, as time since
    /// it started: a paced source's tuple `k` is due at `k / rate`, a
    /// saturating source's at once (`ZERO`). `None` for an operator.
    pub(crate) fn pull_due(&self) -> Option<Duration> {
        let secs = match self.source.as_ref()?.1 {
            SourceRate::PerSecond(r) => self.processed as f64 / r.max(1.0),
            SourceRate::Saturate => 0.0,
        };
        Some(Duration::from_secs_f64(secs))
    }

    /// The exit condition: every predecessor `Eos` and every sibling
    /// marker is in. A source has neither: it is done once stopped, or
    /// once its generator is gone.
    pub(crate) fn done(&self) -> bool {
        match self.source {
            Some(_) => self.shared.stop.load(Ordering::Relaxed),
            None => self.eos >= self.wave.preds && self.markers >= self.siblings.len(),
        }
    }

    /// Hands off the partial batches. The driver decides when: before
    /// it waits, and once a buffered tuple has lingered long enough.
    pub(crate) fn flush_buffers(&mut self, out: &mut impl Outbox) {
        self.flush(out, false);
    }

    /// Tuples in the send buffers, waiting for a flush.
    pub(crate) fn buffered(&self) -> usize {
        self.buffered
    }

    /// The inbox ran dry: a crash's drain ends here.
    pub(crate) fn drained(&mut self) {
        self.respawning = false;
    }

    /// Shuts this instance down: adopts orphaned keys, then sends the
    /// last partial batches ahead of its `Eos` tokens (per-sender
    /// FIFO), then tells the coordinator it exited.
    pub(crate) fn finish(mut self, out: &mut impl Outbox) -> InstanceReport {
        // Keys still buffered for a `Migrate` that never came (lost
        // transfer) start fresh — at-most-once — but no tuple is
        // silently discarded.
        let mut orphans: Vec<_> = self.wave.pending.drain().collect();
        orphans.sort_unstable_by_key(|(key, _)| *key);
        for (_, mut buffered) in orphans {
            self.process(buffered.make_contiguous(), out);
        }
        self.flush(out, true);
        for &succ in &self.successors {
            out.send(succ, Msg::Eos);
        }
        out.notify(CoordMsg::Exited(self.index));
        InstanceReport {
            po: self.po,
            instance: self.instance,
            state: self.core.state.into_iter().collect(),
            processed: self.processed,
        }
    }

    /// Flushes every non-empty send buffer. `control` marks flushes
    /// forced by a control-plane boundary (counted separately); those
    /// must happen *before* the control message is sent so per-sender
    /// FIFO ordering — data routed under the old configuration arrives
    /// ahead of `Propagate`/`Eos` — is preserved.
    fn flush(&mut self, out: &mut impl Outbox, control: bool) {
        if self.buffered == 0 {
            return;
        }
        for dest in 0..self.out_buf.len() {
            if !self.out_buf[dest].is_empty() {
                let batch = std::mem::take(&mut self.out_buf[dest]);
                self.shared.send_batch(dest, batch, out);
            }
        }
        self.buffered = 0;
        if control {
            self.shared.batch_control_flushes.inc();
        }
    }

    /// Sends `tuples` down every out edge of this instance. Each edge
    /// turns the batch into `(dest, len)` runs by the shared
    /// [`OutRoutes::route`], and each run is appended to its
    /// destination's send buffer, which leaves as one `Msg::Batch` of
    /// exactly [`LiveRuntime::BATCH`] tuples once full (the shard
    /// flushes partial ones). An empty send buffer is taken from
    /// [`Outbox::buffer`] when a run for its destination comes, so the
    /// driver's spares, not the allocator, back the data plane. Edge
    /// and hot counters get one relaxed add per edge per batch instead
    /// of one contended RMW per tuple. Edges are routed one after
    /// another, so a tuple's copies on different edges are not
    /// interleaved; per-destination order (all FIFO guarantees rely on)
    /// is kept.
    fn route(&mut self, tuples: &mut [Tuple], out: &mut impl Outbox) {
        if tuples.is_empty() || self.routes.is_empty() {
            return;
        }
        let shared = &*self.shared;
        let my_server = shared.server[self.index];
        // One clock read per batch covers every span hop stamp in it;
        // sampler off ⇒ the stamping pass is skipped.
        let hop_now = shared.sampler.as_ref().map(|_| shared.now_ns());
        let mut runs = std::mem::take(&mut self.run_buf);
        for pos in 0..self.routes.len() {
            let edge = self.routes.route(pos, tuples, &mut runs);
            let (mut local, mut remote) = (0u64, 0u64);
            let mut offset = 0usize;
            for run in &runs {
                let len = run.len as usize;
                let dest = run.dest as usize;
                let remote_hop = shared.server[dest] != my_server;
                if remote_hop {
                    remote += u64::from(run.len);
                } else {
                    local += u64::from(run.len);
                }
                if let Some(now) = hop_now {
                    // One predictable branch per tuple: at 1/64 sampling
                    // the stamp is almost never taken, and the plain
                    // pass beats re-detecting key runs just to share it.
                    for t in &mut tuples[offset..offset + len] {
                        if t.is_span_sampled() {
                            t.set_span_hop(now, remote_hop);
                        }
                    }
                }
                let mut rest = &tuples[offset..offset + len];
                offset += len;
                // Append the run in chunks sized to the remaining
                // buffer room, so every batch leaves exactly full.
                while !rest.is_empty() {
                    let buf = &mut self.out_buf[dest];
                    if buf.capacity() == 0 {
                        *buf = out.buffer();
                    }
                    let take = rest.len().min(LiveRuntime::BATCH - buf.len());
                    buf.extend_from_slice(&rest[..take]);
                    rest = &rest[take..];
                    self.buffered += take;
                    if buf.len() >= LiveRuntime::BATCH {
                        let full = std::mem::take(buf);
                        self.buffered -= full.len();
                        shared.send_batch(dest, full, out);
                    }
                }
            }

            let counters = &shared.edges[edge.index()];
            if local > 0 {
                counters.local.fetch_add(local, Ordering::Relaxed);
            }
            if remote > 0 {
                counters.remote.fetch_add(remote, Ordering::Relaxed);
                shared.tuples_remote.add(remote);
            }
        }
        self.run_buf = runs;
        let routed = tuples.len() * self.routes.len();
        shared.tuples_routed.add(routed as u64);
    }

    /// The processing routine. Every tuple goes through it: a
    /// `Msg::Batch` whole, and the buffered tuples released by
    /// `Migrate` or adopted at shutdown.
    ///
    /// Walks `tuples` in runs of equal state key and applies the
    /// wave's hold rule to each. A buffered run waits in its `pending`
    /// buffer; a departed run is forwarded to the new owner as one
    /// `Msg::Batch` (straight to its inbox: no batch counters, no batch
    /// fault gate); an owned run goes through the core's dispatch. The
    /// call's output is routed once at the end. Span hops are recorded
    /// for the processed tuples only — a buffered or forwarded tuple
    /// records its hop when it is finally processed.
    fn process(&mut self, tuples: &[Tuple], out: &mut impl Outbox) {
        let core = &mut self.core;
        let shared = &*self.shared;
        let arrive = match self.span_rec {
            Some(_) if tuples.iter().any(|t| t.span_hop().is_some()) => Some(shared.now_ns()),
            _ => None,
        };
        self.sampled.clear();
        core.emitted.clear();
        let mut rest = tuples;
        while !rest.is_empty() {
            // Without a routed input field there is no per-key state:
            // one dispatch covers the whole call.
            let (key, len) = match core.state_field {
                Some(f) => (Some(rest[0].key(f)), tuple_run_len(rest, f)),
                None => (None, rest.len()),
            };
            let (run, tail) = rest.split_at(len);
            rest = tail;
            let n = len as u64;
            if let Some(key) = key {
                match self.wave.hold(key, run.iter().copied()) {
                    Hold::Owned => {}
                    Hold::Buffered { .. } => {
                        shared.buffered_tuples.add(n);
                        continue;
                    }
                    Hold::Departed(owner) => {
                        shared.late_forwarded.add(n);
                        let mut batch = out.buffer();
                        batch.extend_from_slice(run);
                        if !out.send(owner.index(), Msg::Batch(batch)) {
                            shared.forward_lost.add(n);
                        }
                        continue;
                    }
                }
            }
            core.dispatch(run, key);
            self.processed += n;
            if arrive.is_some() {
                self.sampled.extend(run.iter().filter_map(|t| {
                    t.span_hop()
                        .map(|(sent, remote)| (sent, remote, t.span_origin_ns()))
                }));
            }
        }
        let mut emitted = std::mem::take(&mut core.emitted);
        self.route(&mut emitted, out);
        self.core.emitted = emitted;

        // Queue wait is per sender stamp; processing time is an equal
        // share of the call, which has no per-tuple boundary to time.
        let (Some(rec), Some(arrive)) = (self.span_rec.as_mut(), arrive) else {
            return;
        };
        if self.sampled.is_empty() {
            return;
        }
        let done = self.shared.now_ns();
        let per_tuple = done.saturating_sub(arrive) / tuples.len() as u64;
        let epoch = self.shared.epoch.load(Ordering::Relaxed);
        let po = self.po.index();
        for &(sent, remote, origin) in &self.sampled {
            rec.record_hop(po, epoch, remote, arrive.saturating_sub(sent), per_tuple);
            if self.routes.is_empty() {
                rec.record_end(po, epoch, done.saturating_sub(origin));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::IdentityOperator;
    use crate::router::ModuloRouter;
    use crate::topology::{ServerId, SourceRate};

    /// S (2 instances) fans out to A (3) by `Shuffle`, to B (3) by
    /// `LocalOrShuffle` and to C (3) on field 0 by `ModuloRouter`.
    /// `b_servers` places B's instances; S and A are aligned on 2
    /// servers.
    fn fan_out(b_servers: [usize; 3]) -> (Topology, Placement) {
        let mut b = Topology::builder();
        let s = b.source("S", 2, SourceRate::Saturate, |_| Box::new(|| None));
        let a = b.stateless("A", 3, IdentityOperator::factory());
        let bb = b.stateless("B", 3, IdentityOperator::factory());
        let c = b.stateless("C", 3, IdentityOperator::factory());
        b.connect(s, a, Grouping::Shuffle);
        b.connect(s, bb, Grouping::LocalOrShuffle);
        b.connect(s, c, Grouping::fields_with(0, Arc::new(ModuloRouter)));
        let topology = b.build().unwrap();
        let aligned = |n: usize| (0..n).map(|i| ServerId(i % 2)).collect();
        let per_po = vec![
            aligned(2),
            aligned(3),
            b_servers.map(ServerId).to_vec(),
            aligned(3),
        ];
        let placement = Placement::custom(&topology, 2, per_po);
        (topology, placement)
    }

    fn tuples(n: u64) -> Vec<Tuple> {
        (0..n).map(|k| Tuple::new([Key::new(k)], 0)).collect()
    }

    /// The destinations of `tuples` on out edge `pos`, one per tuple,
    /// as instance indices of the destination operator.
    fn dests(routes: &mut OutRoutes, pos: usize, tuples: &[Tuple]) -> Vec<u32> {
        let mut runs = Vec::new();
        routes.route(pos, tuples, &mut runs);
        let base = routes.outs[pos].dests.start as u32;
        let expand = runs
            .iter()
            .flat_map(|r| std::iter::repeat_n(r.dest - base, r.len as usize));
        expand.collect()
    }

    #[test]
    fn round_robin_starts_at_the_instance_index() {
        let (topology, placement) = fan_out([0, 1, 0]);
        for instance in 0..2 {
            let mut routes = OutRoutes::new(&topology, &placement, PoId(0), instance);
            let want: Vec<u32> = (0..7).map(|i| ((instance + i) % 3) as u32).collect();
            assert_eq!(dests(&mut routes, 0, &tuples(7)), want, "S{instance}");
        }
        // Co-located: S0 (server 0) alternates between B0 and B2,
        // starting at index 0; S1 (server 1) has only B1.
        let mut s0 = OutRoutes::new(&topology, &placement, PoId(0), 0);
        assert_eq!(dests(&mut s0, 1, &tuples(5)), [0, 2, 0, 2, 0]);
        let mut s1 = OutRoutes::new(&topology, &placement, PoId(0), 1);
        assert_eq!(dests(&mut s1, 1, &tuples(3)), [1, 1, 1]);
    }

    #[test]
    fn local_or_shuffle_falls_back_to_every_instance() {
        // Every B instance on server 0: S1 (server 1) has none
        // co-located and round-robins over all three from index 1.
        let (topology, placement) = fan_out([0, 0, 0]);
        let mut s1 = OutRoutes::new(&topology, &placement, PoId(0), 1);
        assert_eq!(dests(&mut s1, 1, &tuples(4)), [1, 2, 0, 1]);
        let mut s0 = OutRoutes::new(&topology, &placement, PoId(0), 0);
        assert_eq!(dests(&mut s0, 1, &tuples(4)), [0, 1, 2, 0]);
    }

    #[test]
    fn router_swap_touches_one_instance() {
        struct Zero;
        impl KeyRouter for Zero {
            fn route(&self, _: Key, _: usize) -> u32 {
                0
            }
        }
        let (topology, placement) = fan_out([0, 1, 0]);
        let edge = topology.out_edges(PoId(0))[2];
        let mut s0 = OutRoutes::new(&topology, &placement, PoId(0), 0);
        let mut s1 = OutRoutes::new(&topology, &placement, PoId(0), 1);
        assert!(s0.set_router(edge, Arc::new(Zero)));
        assert!(!s0.set_router(topology.out_edges(PoId(0))[0], Arc::new(Zero)));
        assert_eq!(dests(&mut s0, 2, &tuples(4)), [0, 0, 0, 0]);
        assert_eq!(dests(&mut s1, 2, &tuples(4)), [0, 1, 2, 0]);
        assert_eq!(s0.routers().count(), 1);
        let (_, router) = s1.routers().next().unwrap();
        assert_eq!(router.route(Key::new(5), 3), 2);
        assert_eq!(s0.span_field(), Some(0));
    }

    #[test]
    fn one_tuple_slices_route_like_the_whole_batch() {
        let (topology, placement) = fan_out([0, 1, 0]);
        let batch: Vec<Tuple> = (0..50)
            .map(|k| Tuple::new([Key::new(k * 7 % 11)], 0))
            .collect();
        for instance in 0..2 {
            let mut whole = OutRoutes::new(&topology, &placement, PoId(0), instance);
            let mut single = OutRoutes::new(&topology, &placement, PoId(0), instance);
            for pos in 0..3 {
                let want = dests(&mut whole, pos, &batch);
                let got: Vec<u32> = batch
                    .iter()
                    .flat_map(|t| dests(&mut single, pos, std::slice::from_ref(t)))
                    .collect();
                assert_eq!(got, want, "S{instance}, edge {pos}");
            }
        }
    }
}
