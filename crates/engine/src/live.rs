//! A real multi-threaded runtime executing the same [`Topology`] the
//! simulator models: one OS thread per operator instance, bounded
//! crossbeam channels between them, and the online reconfiguration
//! protocol of paper §3.4 running over actual message passing.
//!
//! The simulator (`sim.rs`) answers *performance* questions with a
//! controlled cost model; this runtime answers *functional* ones — it
//! executes user operators for real, under real thread interleavings,
//! with real backpressure. Both runtimes run the same sans-IO code:
//! each instance routes, dispatches and holds tuples through the data
//! plane of `instance.rs` (here in whole batches), runs the
//! reconfiguration wave (SEND_RECONF → ACK → PROPAGATE → MIGRATE with
//! tuple buffering) on the same `WaveParticipant`, and the wave driver
//! runs the same `WaveCoordinator` (stage, gate, release, and
//! roll-forward recovery). This module adds only the threads, channels
//! and batching, and meets genuine concurrency instead of deterministic
//! windows. "Servers" are placement tags: transfers between instances
//! with different tags are counted as remote, so locality statistics
//! remain meaningful even though everything runs in one process.
//!
//! Termination is by protocol: an exhausted (or stopped) source sends
//! `Eos` to every successor instance; an operator instance sends an end
//! marker to each sibling on its last predecessor `Eos`, and exits (its
//! own `Eos` out) once it holds every `Eos` and marker (`operator_loop`)
//! — so [`LiveRuntime::join`] returns exactly when the pipeline drained.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::checkpoint::ClusterCheckpoint;
use crate::fault::{ControlClass, ControlFate, FaultInjector, FaultPlan};
use crate::instance::{ObserverSlots, OperatorCore, OutRoutes, PairObserver};
use crate::key::Key;
use crate::obs::{Counter, MetricsRegistry, SpanRecorder, SpanSampler};
use crate::operator::StateValue;
use crate::reconfig::{ReconfigError, ReconfigPlan, WaveConfig};
use crate::router::{DestRun, KeyRouter};
use crate::sim::Placement;
use crate::topology::{EdgeId, PoId, PoKind, PoSpec, PoiId, SourceRate, Topology, TupleSource};
use crate::tuple::{tuple_run_len, Tuple};
use crate::wave::{Hold, StagedReconf, WaveCoordinator, WaveParticipant, WaveSend};

/// Messages on an instance's inbox. Data and control share one FIFO
/// channel per receiver (like a TCP connection in Storm), so per-
/// sender ordering guarantees hold for `Eos`.
enum Msg {
    /// A data tuple.
    Data(Tuple),
    /// A run of data tuples coalesced by the sender (one channel
    /// message instead of `len()`); the receiver processes them in
    /// order, so FIFO semantics are identical to `len()` `Data`s.
    Batch(Vec<Tuple>),
    /// ③ New configuration for this instance.
    Reconf(StagedReconf),
    /// ⑤ One predecessor instance (or the coordinator) has switched.
    Propagate,
    /// ⑥ Migrated state for a key this instance now owns.
    Migrate {
        key: Key,
        state: Option<StateValue>,
    },
    /// End of stream from one predecessor instance.
    Eos,
    /// End marker from a sibling: it holds every predecessor `Eos`, so
    /// it forwards nothing more to this instance.
    SiblingEos,
    /// Snapshot request: reply with a clone of the keyed state.
    StateProbe(Sender<HashMap<Key, StateValue>>),
    /// Wave recovery: apply the staged configuration *now*, without
    /// the predecessor propagates still missing (a retry's release).
    ForceApply,
    /// Fault injection: the instance "crashes" — keyed state, queued
    /// messages and any staged wave configuration are lost — then
    /// respawns with the carried checkpoint state.
    Crash {
        restore: HashMap<Key, StateValue>,
    },
}

/// Worker → coordinator notifications, tagged with the worker's global
/// instance index so retries and duplicates never double count.
enum CoordMsg {
    /// ④ An instance staged its new configuration.
    Ack(usize),
    /// An instance applied its configuration and forwarded the wave.
    Applied(usize),
    /// An instance shut down (its `Eos` tokens are out).
    Exited(usize),
}

/// Per-edge transfer counters shared with the caller.
#[derive(Debug, Default)]
struct EdgeCounters {
    local: AtomicU64,
    remote: AtomicU64,
}

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
    /// This plan in global instance coordinates: instance `i` of
    /// operator `po` is `poi_base[po] + i`.
    fn to_plan(&self, poi_base: &[usize], parallelism: &[usize]) -> ReconfigPlan {
        let poi = |po: PoId, i: usize| {
            let range = 0..parallelism[po.index()];
            assert!(range.contains(&i), "migration instance out of range");
            PoiId(poi_base[po.index()] + i)
        };
        let routers = self.routers.iter().flat_map(|(po, edge, router)| {
            (0..parallelism[po.index()]).map(move |i| (poi(*po, i), *edge, Arc::clone(router)))
        });
        let migrations = self.migrations.iter();
        ReconfigPlan {
            routers: routers.collect(),
            migrations: migrations
                .map(|&(po, key, old, new)| (poi(po, old), key, poi(po, new)))
                .collect(),
        }
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

/// Bounded capacity of each instance inbox (backpressure).
const INBOX_CAPACITY: usize = 8_192;

/// Runtime tuning knobs.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Data-plane batching: tuples per destination are coalesced into
    /// `Msg::Batch` sends of up to this many tuples. Buffers are
    /// flushed when full, whenever the worker would otherwise block on
    /// an empty inbox, and on every control-plane boundary (staging a
    /// `Reconf`, forwarding `Propagate`, answering a `StateProbe`,
    /// sending `Eos`) so per-sender FIFO ordering relative to control
    /// messages is preserved. `0` or `1` disables batching (one
    /// `Msg::Data` per tuple, the pre-batching behavior).
    pub batch_size: usize,
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

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            batch_size: 64,
            metrics: None,
            span_sampler: None,
        }
    }
}

/// Hot-path instruments shared by every worker. Without an attached
/// registry they live in a private one that is never exported, so
/// increments never branch.
struct LiveHot {
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
}

impl LiveHot {
    fn new(registry: Option<&MetricsRegistry>) -> Self {
        let private = MetricsRegistry::new();
        let reg = registry.unwrap_or(&private);
        Self {
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
        }
    }
}

/// Everything workers share.
struct WorkerShared {
    inboxes: Vec<Sender<Msg>>,
    server: Vec<usize>,
    edges: Vec<EdgeCounters>,
    stop: AtomicBool,
    coord: Sender<CoordMsg>,
    parallelism: Vec<usize>,
    poi_base: Vec<usize>,
    /// Fault injector consulted for every control message: ③/⑤ by the
    /// wave driver, ⑥ by the sending worker.
    fault: Mutex<Option<FaultInjector>>,
    /// `true` when the installed fault plan schedules data-plane batch
    /// drops. Gates the injector lock out of the batch send path: the
    /// hot path pays one relaxed load, never a mutex, unless batch
    /// faults are actually armed.
    batch_faults: AtomicBool,
    /// Data-plane batch size (≤ 1 disables batching).
    batch_size: usize,
    /// Hot-path observability counters (see [`LiveHot`]).
    hot: LiveHot,
    /// Span sampler (see [`LiveConfig::span_sampler`]); `None` keeps
    /// every span branch on the hot path never-taken.
    sampler: Option<SpanSampler>,
    /// Registry span histograms are registered in (each worker owns a
    /// [`SpanRecorder`]; idempotent registration shares the buckets).
    span_metrics: Option<Arc<MetricsRegistry>>,
    /// The runtime's monotonic clock epoch: all span timestamps are
    /// nanoseconds since this instant, so they are comparable across
    /// worker threads.
    clock: Instant,
    /// Routing epoch, bumped when a reconfiguration wave completes.
    /// Workers read it (relaxed) when recording span observations, so
    /// latency histograms are split before/after each wave.
    epoch: AtomicU64,
}

impl WorkerShared {
    /// What the injector (if armed) decides about one control message.
    fn control_fate(&self, class: ControlClass) -> ControlFate {
        self.fault
            .lock()
            .as_mut()
            .map_or(ControlFate::Deliver, |inj| inj.on_control(class))
    }
}

/// Nanoseconds since the runtime clock's epoch.
fn span_now_ns(clock: &Instant) -> u64 {
    clock.elapsed().as_nanos() as u64
}

/// Sends one coalesced batch, consulting the armed fault injector
/// first: a dropped batch is lost on the wire with every tuple in it
/// (at-most-once), accounted by the `live_batch_drop*` counters.
fn send_batch(shared: &WorkerShared, dest_idx: usize, batch: Vec<Tuple>) {
    shared.hot.batch_sends.inc();
    shared.hot.batch_tuples.add(batch.len() as u64);
    if shared.batch_faults.load(Ordering::Relaxed) {
        let dropped = shared
            .fault
            .lock()
            .as_mut()
            .is_some_and(|inj| inj.on_batch_send());
        if dropped {
            shared.hot.batch_drops.inc();
            shared.hot.batch_dropped_tuples.add(batch.len() as u64);
            return;
        }
    }
    let _ = shared.inboxes[dest_idx].send(Msg::Batch(batch));
}

/// Per-worker context: this instance's out edges, its send buffers,
/// its side of the reconfiguration wave, and its span bookkeeping.
struct WorkerCtx {
    po_idx: usize,
    my_idx: usize,
    /// Global indices of every successor instance; `Propagate` and
    /// `Eos` go to each.
    successors: Vec<usize>,
    /// The other instances of this operator if it is keyed (as for the
    /// hold rule): they exchange end markers.
    siblings: Vec<usize>,
    /// This instance's side of the reconfiguration wave, including the
    /// data plane's `pending` buffers and `departed` forwards.
    wave: WaveParticipant<VecDeque<Tuple>>,
    /// Where this instance's output goes (shared with the simulator).
    routes: OutRoutes,
    /// Per-destination send buffers (indexed by global instance), the
    /// data-plane batching of `LiveConfig::batch_size`. Edge counters
    /// and observers get bulk adds per routed batch, so locality
    /// statistics do not depend on the batch size.
    out_buf: Vec<Vec<Tuple>>,
    batch: usize,
    /// Scratch `(dest, len)` runs of one out edge.
    run_buf: Vec<DestRun>,
    /// Tuples processed (for a source: emitted).
    processed: u64,
    /// Span tracing: each worker owns a recorder (idempotent registry
    /// registration shares the histograms across workers); `None` when
    /// the sampler is off, so the hot path pays one never-taken branch.
    span_rec: Option<SpanRecorder>,
    /// Scratch `(hop_send_ns, remote, origin_ns)` stamps of the sampled
    /// tuples one call processed.
    sampled: Vec<(u64, bool, u64)>,
}

impl WorkerCtx {
    fn new(
        topology: &Topology,
        placement: &Placement,
        po: PoId,
        instance: usize,
        shared: &WorkerShared,
    ) -> Self {
        let my_idx = shared.poi_base[po.index()] + instance;
        let keyed = topology.state_field(po).is_some();
        let siblings = topology.instances(po).filter(|&i| keyed && i != my_idx);
        Self {
            po_idx: po.index(),
            my_idx,
            successors: topology.successor_instances(po),
            siblings: siblings.collect(),
            wave: WaveParticipant::new(topology.predecessor_instances(po)),
            routes: OutRoutes::new(topology, placement, po, instance),
            out_buf: vec![Vec::new(); shared.inboxes.len()],
            batch: shared.batch_size,
            run_buf: Vec::new(),
            processed: 0,
            span_rec: shared
                .sampler
                .map(|_| SpanRecorder::new(shared.span_metrics.clone())),
            sampled: Vec::new(),
        }
    }

    /// Flushes every non-empty send buffer. `control` marks flushes
    /// forced by a control-plane boundary (counted separately); those
    /// must happen *before* the control message is sent so per-sender
    /// FIFO ordering — data routed under the old configuration arrives
    /// ahead of `Propagate`/`Eos` — is preserved.
    fn flush_outputs(&mut self, shared: &WorkerShared, control: bool) {
        if self.batch <= 1 {
            return;
        }
        let mut flushed = false;
        for dest_idx in 0..self.out_buf.len() {
            if self.out_buf[dest_idx].is_empty() {
                continue;
            }
            let batch = std::mem::take(&mut self.out_buf[dest_idx]);
            send_batch(shared, dest_idx, batch);
            flushed = true;
        }
        if control && flushed {
            shared.hot.batch_control_flushes.inc();
        }
    }

    /// Drops buffered tuples (crash semantics: unsent output dies with
    /// the instance, at-most-once).
    fn discard_outputs(&mut self) {
        for buf in &mut self.out_buf {
            buf.clear();
        }
    }

    /// The wave I/O (paper §3.4) around the shared [`WaveParticipant`],
    /// for sources and operators. ③ `Reconf`: flush, stage, ack ④. When
    /// a ⑤ `Propagate` or `ForceApply` applies the staged configuration:
    /// flush, install the routers, ship ⑥ `Migrate` for every moved
    /// key, forward ⑤ to every successor, report `Applied`. `StateProbe`
    /// gets a snapshot of `state`, the operator's keyed state; a source
    /// passes `None`, ships nothing and probes empty. Other messages are
    /// ignored here.
    fn on_control(
        &mut self,
        msg: Msg,
        shared: &WorkerShared,
        state: Option<&mut HashMap<Key, StateValue>>,
    ) {
        match msg {
            Msg::Reconf(staged) => {
                self.flush_outputs(shared, true);
                self.wave.stage(staged);
                let _ = shared.coord.send(CoordMsg::Ack(self.my_idx));
            }
            m @ (Msg::Propagate | Msg::ForceApply) => {
                let Some(applied) = self.wave.propagate(matches!(m, Msg::ForceApply)) else {
                    return;
                };
                // Flush before switching tables and forwarding the
                // wave: buffered tuples were routed under the old
                // configuration and must stay ahead of the `Propagate`s
                // in every channel.
                self.flush_outputs(shared, true);
                // A router on anything but a fields out edge is ignored.
                for (edge, router) in applied.routers {
                    self.routes.set_router(edge, router);
                }
                if let Some(state) = state {
                    for (key, dest) in applied.send {
                        let moved = state.remove(&key);
                        // A dropped ⑥ loses the moved state (at-most-
                        // once); the new owner adopts the key with
                        // fresh state when it exits.
                        if matches!(shared.control_fate(ControlClass::Migrate), ControlFate::Drop) {
                            continue;
                        }
                        shared.hot.migrations_sent.inc();
                        shared
                            .hot
                            .migration_bytes
                            .add(moved.as_ref().map_or(0, StateValue::size_bytes));
                        let msg = Msg::Migrate { key, state: moved };
                        let _ = shared.inboxes[dest.index()].send(msg);
                    }
                }
                for &succ in &self.successors {
                    let _ = shared.inboxes[succ].send(Msg::Propagate);
                }
                let _ = shared.coord.send(CoordMsg::Applied(self.my_idx));
            }
            Msg::StateProbe(reply) => {
                // Checkpoint boundary: buffered output is handed off
                // before the state snapshot is taken.
                self.flush_outputs(shared, true);
                let _ = reply.send(state.map_or_else(HashMap::new, |state| state.clone()));
            }
            _ => {}
        }
    }

    /// Shuts this instance down: the last partial batches precede its
    /// `Eos` tokens in every successor channel (per-sender FIFO), then
    /// the coordinator learns it exited. Returns the final report.
    fn exit(mut self, shared: &WorkerShared, state: HashMap<Key, StateValue>) -> InstanceReport {
        self.flush_outputs(shared, true);
        for &succ in &self.successors {
            let _ = shared.inboxes[succ].send(Msg::Eos);
        }
        let _ = shared.coord.send(CoordMsg::Exited(self.my_idx));
        InstanceReport {
            po: PoId(self.po_idx),
            instance: self.my_idx - shared.poi_base[self.po_idx],
            state,
            processed: self.processed,
        }
    }

    /// Sends `tuples` down every out edge of this instance. Each edge
    /// turns the batch into `(dest, len)` runs by the shared
    /// [`OutRoutes::route`], and each run is appended to its
    /// destination's send buffer. Edge and hot counters get one relaxed
    /// add per edge per batch instead of one contended RMW per tuple.
    /// Edges are routed one after another, so a tuple's copies on
    /// different edges are not interleaved; per-destination order (all
    /// FIFO guarantees rely on) is kept.
    fn route_out_batch(&mut self, shared: &WorkerShared, tuples: &mut [Tuple]) {
        if tuples.is_empty() || self.routes.is_empty() {
            return;
        }
        let my_server = shared.server[self.my_idx];
        // One clock read per batch covers every span hop stamp in it;
        // sampler off ⇒ the stamping pass is skipped.
        let hop_now = shared.sampler.as_ref().map(|_| span_now_ns(&shared.clock));
        let mut runs = std::mem::take(&mut self.run_buf);
        for pos in 0..self.routes.len() {
            let edge = self.routes.route(pos, tuples, &mut runs);
            let (mut local, mut remote) = (0u64, 0u64);
            let mut offset = 0usize;
            for run in &runs {
                let len = run.len as usize;
                let dest_idx = run.dest as usize;
                let remote_hop = shared.server[dest_idx] != my_server;
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
                if self.batch <= 1 {
                    for &tuple in rest {
                        let _ = shared.inboxes[dest_idx].send(Msg::Data(tuple));
                    }
                    continue;
                }
                // Append the run in chunks sized to the remaining
                // buffer room, so every batch leaves exactly full.
                while !rest.is_empty() {
                    let buf = &mut self.out_buf[dest_idx];
                    let take = rest.len().min(self.batch - buf.len());
                    buf.extend_from_slice(&rest[..take]);
                    rest = &rest[take..];
                    if buf.len() >= self.batch {
                        let batch = std::mem::replace(buf, Vec::with_capacity(self.batch));
                        send_batch(shared, dest_idx, batch);
                    }
                }
            }

            let counters = &shared.edges[edge.index()];
            if local > 0 {
                counters.local.fetch_add(local, Ordering::Relaxed);
            }
            if remote > 0 {
                counters.remote.fetch_add(remote, Ordering::Relaxed);
                shared.hot.tuples_remote.add(remote);
            }
        }
        self.run_buf = runs;
        let routed = tuples.len() * self.routes.len();
        shared.hot.tuples_routed.add(routed as u64);
    }

    /// The processing routine. Every tuple goes through it: a
    /// `Msg::Data` as a one-tuple slice, a `Msg::Batch` whole, and the
    /// buffered tuples released by `Migrate` or adopted at shutdown.
    ///
    /// Walks `tuples` in runs of equal state key and applies the
    /// wave's hold rule to each. A buffered run waits in its `pending`
    /// buffer; a departed run is forwarded to the new owner as one
    /// `Msg::Batch` (straight to its inbox: no batch counters, no batch
    /// fault gate); an owned run goes through the core's dispatch. The
    /// call's output is routed once at the end. Span hops are recorded
    /// for the processed tuples only — a buffered or forwarded tuple
    /// records its hop when it is finally processed.
    fn process(&mut self, core: &mut OperatorCore, tuples: &[Tuple], shared: &WorkerShared) {
        let arrive = match self.span_rec {
            Some(_) if tuples.iter().any(|t| t.span_hop().is_some()) => {
                Some(span_now_ns(&shared.clock))
            }
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
                        shared.hot.buffered_tuples.add(n);
                        continue;
                    }
                    Hold::Departed(owner) => {
                        shared.hot.late_forwarded.add(n);
                        let forward = Msg::Batch(run.to_vec());
                        if shared.inboxes[owner.index()].send(forward).is_err() {
                            shared.hot.forward_lost.add(n);
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
        let mut out = std::mem::take(&mut core.emitted);
        self.route_out_batch(shared, &mut out);
        core.emitted = out;

        // Queue wait is per sender stamp; processing time is an equal
        // share of the call, which has no per-tuple boundary to time.
        let (Some(rec), Some(arrive)) = (self.span_rec.as_mut(), arrive) else {
            return;
        };
        if self.sampled.is_empty() {
            return;
        }
        let done = span_now_ns(&shared.clock);
        let per_tuple = done.saturating_sub(arrive) / tuples.len() as u64;
        let epoch = shared.epoch.load(Ordering::Relaxed);
        for &(sent, remote, origin) in &self.sampled {
            rec.record_hop(
                self.po_idx,
                epoch,
                remote,
                arrive.saturating_sub(sent),
                per_tuple,
            );
            if self.routes.is_empty() {
                rec.record_end(self.po_idx, epoch, done.saturating_sub(origin));
            }
        }
    }
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
    shared: Arc<WorkerShared>,
    handles: Vec<JoinHandle<InstanceReport>>,
    coord_rx: Receiver<CoordMsg>,
    roots: Vec<usize>,
    n_instances: usize,
    last_checkpoint: Option<ClusterCheckpoint>,
    checkpoint_seq: u64,
}

impl std::fmt::Debug for LiveRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveRuntime")
            .field("instances", &self.n_instances)
            .finish_non_exhaustive()
    }
}

impl LiveRuntime {
    /// Deploys `topology` on `servers` placement tags and starts every
    /// instance thread.
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
        let n_instances = topology.total_instances();

        let (inboxes, receivers): (Vec<_>, Vec<_>) = (0..n_instances)
            .map(|_| bounded::<Msg>(INBOX_CAPACITY))
            .unzip();
        let server: Vec<usize> = placement.per_po.iter().flatten().map(|s| s.0).collect();
        let in_range = server.iter().all(|&s| s < servers);
        assert!(in_range, "placement server out of range");
        // Bounded: per wave attempt a worker sends at most one Ack and
        // one Applied, plus one lifetime Exited; with the default retry
        // budget this capacity is never reached, so workers never block
        // on coordinator notifications.
        let (coord_tx, coord_rx) = bounded(8 * n_instances + 16);

        let shared = Arc::new(WorkerShared {
            inboxes,
            server,
            edges: (0..topology.edges().len())
                .map(|_| EdgeCounters::default())
                .collect(),
            stop: AtomicBool::new(false),
            coord: coord_tx,
            parallelism: topology.pos.iter().map(PoSpec::parallelism).collect(),
            poi_base: topology.instance_bases(),
            fault: Mutex::new(None),
            batch_faults: AtomicBool::new(false),
            batch_size: config.batch_size,
            hot: LiveHot::new(config.metrics.as_deref()),
            sampler: config.span_sampler,
            span_metrics: config.metrics.clone(),
            clock: Instant::now(),
            epoch: AtomicU64::new(0),
        });

        let mut observer_slots: Vec<ObserverSlots> =
            (0..n_instances).map(|_| ObserverSlots::default()).collect();
        for (po, instance, edge, field, obs) in observers {
            let instances = topology.instances(po);
            assert!(instance < instances.len(), "observer on a missing instance");
            let out_edges = topology.out_edges(po).iter().copied();
            observer_slots[instances.start + instance].add(out_edges, edge, field, obs);
        }

        let mut receivers = receivers.into_iter();
        let mut handles = Vec::with_capacity(n_instances);
        for (po_idx, po) in topology.pos.iter().enumerate() {
            let po_id = PoId(po_idx);
            for instance in 0..po.parallelism {
                let shared = Arc::clone(&shared);
                let rx = receivers.next().expect("one inbox per instance");
                let ctx = WorkerCtx::new(&topology, &placement, po_id, instance, &shared);
                handles.push(match &po.kind {
                    PoKind::Source { factory, rate } => {
                        let (gen, rate) = (factory(instance), *rate);
                        std::thread::spawn(move || source_loop(ctx, gen, rate, shared, rx))
                    }
                    PoKind::Operator { factory, stateful } => {
                        let state_field = topology.state_field(po_id);
                        let mut core = OperatorCore::new(factory(instance), *stateful, state_field);
                        core.observers = std::mem::take(&mut observer_slots[ctx.my_idx]);
                        std::thread::spawn(move || operator_loop(ctx, core, shared, rx))
                    }
                });
            }
        }

        Self {
            shared,
            handles,
            coord_rx,
            roots: topology.root_instances(),
            n_instances,
            last_checkpoint: None,
            checkpoint_seq: 0,
        }
    }

    /// Number of instance threads.
    #[must_use]
    pub fn instances(&self) -> usize {
        self.n_instances
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
        let idx = self.shared.poi_base[po.index()] + instance;
        let (tx, rx) = bounded(1);
        if self.shared.inboxes[idx].send(Msg::StateProbe(tx)).is_err() {
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
        let staged = plan
            .to_plan(&shared.poi_base, &shared.parallelism)
            .split(&shared.poi_base, self.n_instances);
        let mut coord = WaveCoordinator::new(staged, self.roots.clone(), wave);
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
        let mut timers: Vec<(Instant, usize, Msg)> = Vec::new();
        let outcome = loop {
            // A delayed message aimed at a settled instance is stale.
            let now = Instant::now();
            for (_, idx, msg) in timers.extract_if(.., |t| t.0 <= now) {
                if !coord.settled(idx) {
                    deliver(shared, &mut coord, idx, msg);
                }
            }
            let sends = coord.take_sends();
            let sent = !sends.is_empty();
            for send in sends {
                let class = send.class();
                let fate = class.map_or(ControlFate::Deliver, |c| shared.control_fate(c));
                let (idx, msg) = match send {
                    WaveSend::Reconf(i, s) => (i, Msg::Reconf(s)),
                    WaveSend::Propagate(i) => (i, Msg::Propagate),
                    WaveSend::ForceApply(i) => (i, Msg::ForceApply),
                };
                match fate {
                    ControlFate::Deliver => deliver(shared, &mut coord, idx, msg),
                    ControlFate::Drop => {}
                    ControlFate::Delay(d) => timers.push((now + windows(d.max(1)), idx, msg)),
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
        *self.shared.fault.lock() = Some(FaultInjector::new(plan));
    }

    /// Snapshots every instance's keyed state into a
    /// [`ClusterCheckpoint`] and keeps it as the respawn point for
    /// [`crash_instance`](Self::crash_instance). Blocks briefly (one
    /// state probe per instance). Routing tables are not captured: a
    /// respawned live instance re-fetches the *current* tables from
    /// the manager, not the checkpoint's.
    pub fn checkpoint_now(&mut self) -> ClusterCheckpoint {
        let mut states = Vec::with_capacity(self.n_instances);
        for po_idx in 0..self.shared.parallelism.len() {
            for i in 0..self.shared.parallelism[po_idx] {
                states.push(self.probe_state(PoId(po_idx), i).unwrap_or_default());
            }
        }
        self.checkpoint_seq += 1;
        let cp = ClusterCheckpoint {
            window_index: self.checkpoint_seq,
            states,
            routers: vec![Vec::new(); self.n_instances],
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
    /// restored: the simulator's held-elsewhere rule, by probe. A crash
    /// mid-wave can still restore a key whose ⑥ is in flight.
    pub fn crash_instance(&self, po: PoId, instance: usize) {
        let idx = self.shared.poi_base[po.index()] + instance;
        let mut restore = self
            .last_checkpoint
            .as_ref()
            .and_then(|cp| cp.states.get(idx).cloned())
            .unwrap_or_default();
        let siblings = (0..self.shared.parallelism[po.index()]).filter(|&i| i != instance);
        for held in siblings.filter_map(|i| self.probe_state(po, i)) {
            restore.retain(|key, _| !held.contains_key(key));
        }
        let _ = self.shared.inboxes[idx].send(Msg::Crash { restore });
    }

    /// Asks saturating sources to stop; finite sources stop on their
    /// own when exhausted.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
    }

    /// Waits for the pipeline to drain (all `Eos` tokens delivered)
    /// and returns every instance's final report, sorted by
    /// `(operator, instance)`. Infinite sources must be stopped with
    /// [`stop`](Self::stop) first.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked.
    #[must_use]
    pub fn join(self) -> Vec<InstanceReport> {
        let mut reports: Vec<InstanceReport> = self
            .handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        reports.sort_by_key(|r| (r.po.index(), r.instance));
        reports
    }
}

/// Delivers a wave message now. A failed send marks the target exited,
/// so the wave never waits on a dead instance.
fn deliver(shared: &WorkerShared, coord: &mut WaveCoordinator, idx: usize, msg: Msg) {
    if shared.inboxes[idx].send(msg).is_err() {
        coord.exited(idx);
    }
}

fn source_loop(
    mut ctx: WorkerCtx,
    mut gen: Box<dyn TupleSource>,
    rate: SourceRate,
    shared: Arc<WorkerShared>,
    rx: Receiver<Msg>,
) -> InstanceReport {
    let mut stage: Vec<Tuple> = Vec::with_capacity(64);
    let mut down = false;
    let batch_sleep = match rate {
        SourceRate::Saturate => None,
        SourceRate::PerSecond(r) => Some(Duration::from_secs_f64(64.0 / r.max(1.0))),
    };
    loop {
        // Participate in the control plane between batches.
        while let Ok(msg) = rx.try_recv() {
            match msg {
                // A crashed source stays down: restarting the
                // generator would replay its whole stream.
                Msg::Crash { .. } => {
                    ctx.discard_outputs();
                    down = true;
                }
                msg => ctx.on_control(msg, &shared, None),
            }
        }
        if down || shared.stop.load(Ordering::Relaxed) {
            break;
        }
        // Stage up to one batch of generated tuples, then route them
        // as a column: the batch-first data plane begins at the source.
        stage.clear();
        stage.extend(std::iter::from_fn(|| gen.next_tuple()).take(64));
        let exhausted = stage.len() < 64;
        ctx.processed += stage.len() as u64;
        // Span origin: sampled tuples get their birth timestamp here,
        // once, before entering the data plane. Sampling is decided on
        // the field the (first) fields-grouped out edge routes on.
        if let Some(sampler) = &shared.sampler {
            if let Some(field) = ctx.routes.span_field() {
                sampler.stamp_batch(&mut stage, field, span_now_ns(&shared.clock));
            }
        }
        ctx.route_out_batch(&shared, &mut stage);
        if exhausted {
            break;
        }
        if let Some(d) = batch_sleep {
            // A rate-limited source is about to idle: hand off what it
            // has so downstream latency stays bounded by the rate, not
            // by the batch size.
            ctx.flush_outputs(&shared, false);
            std::thread::sleep(d);
        }
    }
    // Serve any control messages already queued (common race: a wave
    // started just as the stream ran dry), then announce the exit.
    while let Ok(msg) = rx.try_recv() {
        ctx.on_control(msg, &shared, None);
    }
    ctx.exit(&shared, HashMap::new())
}

/// An operator instance's loop. It exits by one rule, with no timer:
/// once it holds every predecessor `Eos` and every sibling's
/// `SiblingEos`, which a sibling sends on its own last predecessor
/// `Eos`. Nothing can then still be on its way in:
///
/// * a sibling forwards only while it processes predecessor input,
///   which ends with that `Eos`, and a forward goes straight to the
///   owner's inbox: per-sender FIFO puts it ahead of the marker;
/// * a ⑥ shipped on ⑤ is ahead of the marker too, as ⑤ precedes `Eos`
///   (live ⑥s are never delayed); it also precedes its shipper's
///   `Applied`, so it is queued ahead of the next wave's ③;
/// * a marker waits only on `Eos`, never on a sibling exiting: no wait
///   cycle.
///
/// So a key still pending at exit lost its ⑥: it is adopted with fresh
/// state (at-most-once). Open: a ⑥ force-applied, or a forward
/// forwarded on (a key two waves moved), after the sender's marker can
/// reach an exited owner.
fn operator_loop(
    mut ctx: WorkerCtx,
    mut core: OperatorCore,
    shared: Arc<WorkerShared>,
    rx: Receiver<Msg>,
) -> InstanceReport {
    let (mut eos_seen, mut markers_seen) = (0usize, 0usize);
    loop {
        // Drain the inbox opportunistically; only once it runs dry are
        // the send buffers flushed and the thread allowed to block —
        // so batches fill under load but never sit on an idle worker.
        let msg = rx.try_recv().or_else(|_| {
            ctx.flush_outputs(&shared, false);
            rx.recv()
        });
        let Ok(msg) = msg else { break };
        let eos_before = eos_seen;
        match msg {
            Msg::Data(tuple) => ctx.process(&mut core, std::slice::from_ref(&tuple), &shared),
            Msg::Batch(tuples) => ctx.process(&mut core, &tuples, &shared),
            Msg::Migrate { key, state: moved } => {
                if let Some(moved) = moved {
                    core.state.insert(key, moved);
                }
                if let Some(mut buffered) = ctx.wave.pending.remove(&key) {
                    ctx.process(&mut core, buffered.make_contiguous(), &shared);
                }
            }
            Msg::Eos => eos_seen += 1,
            Msg::SiblingEos => markers_seen += 1,
            Msg::Crash { restore } => {
                // Everything volatile is lost; respawn from the
                // checkpoint the coordinator carried over.
                ctx.discard_outputs();
                core.state = restore;
                ctx.wave.reset();
                // Queued messages die with the instance — except the
                // stream-lifecycle `Eos` tokens and sibling markers (a
                // respawned instance still knows who finished) and
                // state probes, which must always be answered.
                while let Ok(m) = rx.try_recv() {
                    match m {
                        Msg::Eos => eos_seen += 1,
                        Msg::SiblingEos => markers_seen += 1,
                        Msg::StateProbe(reply) => {
                            let _ = reply.send(core.state.clone());
                        }
                        _ => {}
                    }
                }
            }
            msg => ctx.on_control(msg, &shared, Some(&mut core.state)),
        }
        // The last predecessor `Eos` ends this instance's forwards.
        if eos_before < ctx.wave.preds && eos_seen >= ctx.wave.preds {
            for &sibling in &ctx.siblings {
                let _ = shared.inboxes[sibling].send(Msg::SiblingEos);
            }
        }
        if eos_seen >= ctx.wave.preds && markers_seen >= ctx.siblings.len() {
            break;
        }
    }
    // Adopt keys still buffered for a `Migrate` that never came (lost
    // transfer): their state starts fresh — at-most-once — but no
    // tuple is silently discarded.
    let mut orphans: Vec<_> = ctx.wave.pending.drain().collect();
    orphans.sort_unstable_by_key(|(key, _)| *key);
    for (_, mut buffered) in orphans {
        ctx.process(&mut core, buffered.make_contiguous(), &shared);
    }
    ctx.exit(&shared, core.state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{CountOperator, IdentityOperator};
    use crate::router::{HashRouter, ModuloRouter};
    use crate::topology::{Grouping, Topology};

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
                ..LiveConfig::default()
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
        assert!(!span_names.is_empty(), "sampled run must populate span histograms");
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
            *self.0.lock().entry((input, output)).or_insert(0) += 1;
        }

        fn observe_run(&mut self, input: Key, output: Key, count: u64) {
            *self.0.lock().entry((input, output)).or_insert(0) += count;
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
        for batch_size in [1, 64] {
            let (topo, a, second) = build();
            let pairs = PairCounts::default();
            let observers: Vec<LiveObserver> = vec![(a, 0, second, 2, Box::new(pairs.clone()))];
            let placement = Placement::aligned(&topo, 2);
            let config = LiveConfig {
                batch_size,
                ..LiveConfig::default()
            };
            let rt = LiveRuntime::start_with_observers(topo, placement, 2, config, observers);
            let _ = rt.join();
            assert_eq!(*pairs.0.lock(), want, "batch_size={batch_size}");
        }
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
                let observer = move |_: Key, _: Key| log.lock().push(edge);
                (a, 0, edge, 0, Box::new(observer) as Box<dyn PairObserver>)
            })
            .collect();
        let placement = Placement::aligned(&topo, 1);
        let config = LiveConfig::default();
        let _ = LiveRuntime::start_with_observers(topo, placement, 1, config, observers).join();
        let log = log.lock();
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
        let mut pair_counts: Vec<((Key, Key), u64)> =
            pairs.0.lock().iter().map(|(&p, &c)| (p, c)).collect();
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

    /// A saturating source replaying `streams`, one per instance.
    fn replay_source(b: &mut crate::topology::TopologyBuilder, streams: &Streams) -> PoId {
        let streams = Arc::clone(streams);
        b.source("S", streams.len(), SourceRate::Saturate, move |i| {
            let streams = Arc::clone(&streams);
            let mut next = 0;
            Box::new(move || {
                let &(k0, k1) = streams[i].get(next)?;
                next += 1;
                Some(Tuple::new([Key::new(k0), Key::new(k1)], 0))
            })
        })
    }

    /// S → A → B with [`ModuloRouter`] on both fields-grouped hops.
    fn modulo_chain(streams: &Streams) -> Topology {
        let n = streams.len();
        let mut b = Topology::builder();
        let s = replay_source(&mut b, streams);
        let a = b.stateful("A", n, CountOperator::factory());
        let bb = b.stateful("B", n, CountOperator::factory());
        b.connect(s, a, Grouping::fields_with(0, Arc::new(ModuloRouter)));
        b.connect(a, bb, Grouping::fields_with(1, Arc::new(ModuloRouter)));
        b.build().unwrap()
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
        // — across the unbatched, degenerate, default and jumbo batch
        // sizes. Three instances on two servers mix local and remote
        // hops on both edges.
        let streams = pair_streams(3, 13, 30_000);
        let reference = reference_fingerprint(&streams, 2);
        assert!(reference.1.iter().all(|&(local, remote)| local > 0 && remote > 0));
        for batch_size in [1, 2, 64, 1024] {
            let live = run_fingerprint(
                modulo_chain(&streams),
                2,
                LiveConfig {
                    batch_size,
                    ..LiveConfig::default()
                },
            );
            assert_eq!(
                live, reference,
                "batch_size={batch_size}: live run diverged from the reference"
            );
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
        for batch_size in [1, 64] {
            let mut b = Topology::builder();
            let s = replay_source(&mut b, &streams);
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
            let config = LiveConfig {
                batch_size,
                ..LiveConfig::default()
            };
            let rt = LiveRuntime::start(topo, placement, n, config);
            let shared = Arc::clone(&rt.shared);
            let reports = rt.join();
            assert_eq!(counts_of(&reports, a), want_a, "batch_size={batch_size}");
            assert_eq!(counts_of(&reports, c), want_c, "batch_size={batch_size}");
            for po in [i, d] {
                let processed: u64 = reports.iter().filter(|r| r.po == po).map(|r| r.processed).sum();
                assert_eq!(processed, total, "batch_size={batch_size}, {po:?}");
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
            assert_eq!(totals(local), (total, 0), "local-or-shuffle must stay local");
        }
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
            let s = replay_source(&mut b, &streams);
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
        assert!(sim.run_until_drained(10_000) < 10_000, "simulator never drained");
        let windows = sim.metrics().windows();
        let operators = n..5 * n;
        let sim_states: Vec<_> = (0..5 * n).map(|i| sorted(sim.poi_state(PoiId(i)))).collect();
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
            .map(|e| (e.local.load(Ordering::Relaxed), e.remote.load(Ordering::Relaxed)))
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
        let sum = |po: PoId| -> u64 { reports.iter().filter(|r| r.po == po).map(|r| r.processed).sum() };
        let snap = registry.snapshot();
        let get = |name: &str| snap.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap();
        let (forwarded, lost) = (get("live_late_forwarded_total"), get("live_forward_lost_tuples_total"));
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
                batch_size: 64,
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
        // in batch mode every routed tuple travels inside a batch.
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
    fn unbatched_mode_sends_no_batches() {
        let metrics = Arc::new(MetricsRegistry::new());
        let topo = chain(2, 8, 5_000);
        let placement = Placement::aligned(&topo, 2);
        let rt = LiveRuntime::start(
            topo,
            placement,
            2,
            LiveConfig {
                batch_size: 1,
                metrics: Some(Arc::clone(&metrics)),
                ..LiveConfig::default()
            },
        );
        let _ = rt.join();
        let snap = metrics.snapshot();
        let get = |name: &str| snap.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert_eq!(get("live_batch_sends_total"), Some(0));
        assert_eq!(get("live_batch_tuples_total"), Some(0));
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
}
