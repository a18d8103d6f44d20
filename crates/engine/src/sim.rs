//! The deterministic discrete-time cluster simulator.
//!
//! Time advances in fixed windows (default 100 ms of simulated time).
//! Within a window each operator instance (POI) has a CPU budget of
//! one window-second and each server NIC an ingress and an egress byte
//! budget. Tuples go *individually* through the data plane the live
//! runtime runs (`instance.rs`: routing, dispatch and the wave's hold
//! rule, on one-tuple slices) — so locality statistics, pair
//! observation and routing-table behaviour are exact, while throughput
//! emerges from the CPU/NIC budget contention. This module keeps only
//! the budgets, costs, windows and accounting. See DESIGN.md §5 for the
//! substitution rationale.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use crate::checkpoint::ClusterCheckpoint;
use crate::cluster::ClusterSpec;
use crate::fault::{FaultInjector, FaultPlan};
use crate::instance::{OperatorCore, OutRoutes, PairObserver};
use crate::key::Key;
use crate::metrics::{MetricsLog, WindowMetrics};
use crate::obs::{
    log2_bounds, Counter, EventTracer, Gauge, Histogram, MetricsRegistry, SpanRecorder,
    SpanSampler, TraceEvent, TraceEventKind,
};
use crate::operator::{IdentityOperator, Operator, StateValue};
use crate::reconfig::ReconfigExec;
use crate::router::{DestRun, KeyRouter};
use crate::topology::{EdgeId, PoId, PoKind, PoiId, ServerId, SourceRate, Topology, TupleSource};
use crate::tuple::Tuple;
use crate::wave::{Hold, WaveParticipant, WaveSend};

/// Simulator tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Window length, seconds of simulated time.
    pub window: f64,
    /// Source admission cap: sources pause while more than this many
    /// tuples are in flight (queued, buffered or on the wire). This
    /// bounds queue growth at saturation, like Storm's max spout
    /// pending.
    pub max_in_flight: usize,
    /// Hard cap on tuples emitted per source instance per window.
    pub source_burst_per_window: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            window: 0.1,
            max_in_flight: 100_000,
            source_burst_per_window: 200_000,
        }
    }
}

/// Assignment of operator instances to servers.
///
/// The paper deploys instance `i` of every operator on server `i`
/// (§4.1), which [`Placement::aligned`] reproduces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    pub(crate) per_po: Vec<Vec<ServerId>>,
}

impl Placement {
    /// Instance `i` of each operator on server `i % servers`.
    #[must_use]
    pub fn aligned(topology: &Topology, servers: usize) -> Self {
        assert!(servers > 0, "cluster must have at least one server");
        let per_po = topology
            .pos
            .iter()
            .map(|po| {
                (0..po.parallelism)
                    .map(|i| ServerId(i % servers))
                    .collect()
            })
            .collect();
        Self { per_po }
    }

    /// Explicit per-operator, per-instance server assignment.
    ///
    /// # Panics
    ///
    /// Panics if the shape does not match the topology or a server id
    /// is out of range.
    #[must_use]
    pub fn custom(topology: &Topology, servers: usize, per_po: Vec<Vec<ServerId>>) -> Self {
        assert_eq!(per_po.len(), topology.pos.len(), "one entry per operator");
        for (po, servers_of) in topology.pos.iter().zip(&per_po) {
            assert_eq!(
                servers_of.len(),
                po.parallelism,
                "one server per instance of {}",
                po.name
            );
            assert!(
                servers_of.iter().all(|s| s.0 < servers),
                "server id out of range"
            );
        }
        Self { per_po }
    }

    /// Server of instance `instance` of operator `po`.
    #[must_use]
    pub fn server(&self, po: PoId, instance: usize) -> ServerId {
        self.per_po[po.index()][instance]
    }
}

/// A tuple waiting in an input queue, with its arrival mode.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InTuple {
    pub(crate) tuple: Tuple,
    pub(crate) remote: bool,
    /// Window index at which the source emitted the originating tuple
    /// (for end-to-end latency accounting).
    pub(crate) born: u64,
    /// Window index at which the tuple entered this input queue (for
    /// span queue-wait attribution; equals `born` on the first hop).
    pub(crate) enqueued: u64,
}

pub(crate) enum PoiKindRt {
    Source {
        gen: Box<dyn TupleSource>,
        rate: SourceRate,
        exhausted: bool,
        credit: f64,
    },
    Operator,
}

pub(crate) struct PoiRt {
    pub(crate) po: PoId,
    pub(crate) instance: usize,
    pub(crate) server: ServerId,
    pub(crate) kind: PoiKindRt,
    /// The operator, its keyed state and its observers. A source's core
    /// is never dispatched: it holds no state and feeds no observer.
    pub(crate) core: OperatorCore<RandomState>,
    pub(crate) cost_per_tuple: f64,
    pub(crate) input: VecDeque<InTuple>,
    /// Where this POI's output goes.
    pub(crate) routes: OutRoutes,
    /// This POI's side of the reconfiguration wave (see reconfig.rs).
    pub(crate) wave: WaveParticipant<VecDeque<InTuple>>,
}

pub(crate) enum NetPayload {
    Data {
        tuple: Tuple,
        edge: EdgeId,
        born: u64,
    },
    Migrate {
        key: Key,
        state: Option<StateValue>,
    },
}

pub(crate) struct NetMsg {
    pub(crate) from_server: usize,
    pub(crate) to_poi: usize,
    pub(crate) bytes: u64,
    pub(crate) payload: NetPayload,
}

/// A ⑥ `MIGRATE` message the injector dropped or delayed, queued for
/// retransmission (see `reconfig.rs`).
pub(crate) struct LostMigration {
    pub(crate) redeliver_at: u64,
    pub(crate) from: usize,
    pub(crate) to: usize,
    pub(crate) key: Key,
    pub(crate) state: Option<StateValue>,
    pub(crate) attempts: u32,
}

pub(crate) struct ServerRt {
    pub(crate) egress: f64,
    pub(crate) ingress: f64,
    pub(crate) rack: usize,
    pub(crate) backlog: VecDeque<NetMsg>,
}

/// Per-window budgets of one rack's aggregation uplink.
pub(crate) struct RackRt {
    pub(crate) up: f64,
    pub(crate) down: f64,
}

/// A deployed topology executing on a simulated cluster.
///
/// # Example
///
/// ```
/// use streamloc_engine::{
///     ClusterSpec, CountOperator, Grouping, Key, Placement, SimConfig,
///     Simulation, SourceRate, Topology, Tuple,
/// };
///
/// let mut builder = Topology::builder();
/// let n = 2;
/// let s = builder.source("S", n, SourceRate::PerSecond(1000.0), |i| {
///     let mut c = 0u64;
///     Box::new(move || {
///         c += 1;
///         Some(Tuple::new([Key::new(c % 4), Key::new(c % 8)], 0))
///     })
/// });
/// let a = builder.stateful("A", n, CountOperator::factory());
/// let b = builder.stateful("B", n, CountOperator::factory());
/// builder.connect(s, a, Grouping::fields(0));
/// builder.connect(a, b, Grouping::fields(1));
/// let topology = builder.build()?;
///
/// let cluster = ClusterSpec::lan_10g(n);
/// let placement = Placement::aligned(&topology, n);
/// let mut sim = Simulation::new(topology, cluster, placement, SimConfig::default());
/// sim.run(50); // 5 simulated seconds
/// assert!(sim.metrics().total_sink() > 0);
/// # Ok::<(), streamloc_engine::BuildTopologyError>(())
/// ```
pub struct Simulation {
    pub(crate) topo: Topology,
    pub(crate) cluster: ClusterSpec,
    pub(crate) config: SimConfig,
    pub(crate) pois: Vec<PoiRt>,
    /// Per operator, the instances each of its instances forwards ⑤ to.
    pub(crate) successors: Vec<Vec<usize>>,
    pub(crate) servers: Vec<ServerRt>,
    pub(crate) racks: Vec<RackRt>,
    pub(crate) window_index: u64,
    pub(crate) in_flight: i64,
    /// Management-plane bytes to debit from each server's egress at
    /// the next budget refill (statistics uploads to the manager).
    pub(crate) mgmt_debt: Vec<f64>,
    pub(crate) metrics: MetricsLog,
    pub(crate) control_queue: Vec<(u64, WaveSend)>,
    pub(crate) reconfig: Option<ReconfigExec>,
    // --- failure injection & recovery (see fault.rs) ---
    pub(crate) fault: Option<FaultInjector>,
    pub(crate) manager_down: bool,
    pub(crate) degraded: bool,
    pub(crate) last_checkpoint: Option<ClusterCheckpoint>,
    pub(crate) auto_checkpoint_every: Option<u64>,
    pub(crate) lost_migrations: Vec<LostMigration>,
    // --- observability (see obs/) ---
    /// Control-plane event ring; `None` until tracing is enabled.
    pub(crate) tracer: Option<Box<EventTracer>>,
    /// Registry-backed counters fed once per window; `None` until a
    /// registry is attached.
    pub(crate) obs_metrics: Option<SimObsMetrics>,
    /// Per-key span sampler; `None` until span tracing is enabled.
    pub(crate) span_sampler: Option<SpanSampler>,
    /// Histogram-backed span recorder, created with the sampler.
    pub(crate) span_rec: Option<SpanRecorder>,
    /// Waves started so far; the next wave gets this id.
    pub(crate) wave_seq: u64,
    /// Id of the most recently started wave, kept after completion so
    /// late migrations and buffering events stay attributable.
    pub(crate) last_wave: Option<u64>,
    /// Scratch destination runs of one routed tuple.
    route_runs: Vec<DestRun>,
}

/// The simulator's registry-backed instruments. Fed from per-window
/// aggregates at the end of [`Simulation::step`], never per tuple, so
/// the data-plane hot path is untouched.
#[derive(Debug, Clone)]
pub(crate) struct SimObsMetrics {
    pub(crate) tuples_routed: Counter,
    pub(crate) tuples_remote: Counter,
    pub(crate) sink_tuples: Counter,
    pub(crate) migrated_states: Counter,
    pub(crate) migration_bytes: Counter,
    pub(crate) buffered_tuples: Counter,
    pub(crate) late_forwarded: Counter,
    pub(crate) dropped_control: Counter,
    pub(crate) delayed_control: Counter,
    pub(crate) crashes: Counter,
    pub(crate) statistics_bytes: Counter,
    pub(crate) max_queue_depth: Gauge,
    pub(crate) backlog_messages: Gauge,
    /// Distribution of per-window maximum tuple latency, in windows.
    pub(crate) window_latency: Histogram,
    /// Distribution of completed wave durations, in windows.
    pub(crate) wave_duration: Histogram,
}

impl SimObsMetrics {
    fn register(reg: &MetricsRegistry) -> Self {
        Self {
            tuples_routed: reg.counter("sim_tuples_routed_total", "tuples sent on all edges"),
            tuples_remote: reg.counter(
                "sim_tuples_remote_total",
                "tuples that crossed a server boundary",
            ),
            sink_tuples: reg.counter("sim_sink_tuples_total", "tuples absorbed by sinks"),
            migrated_states: reg.counter(
                "sim_migrated_states_total",
                "key states moved by reconfiguration waves",
            ),
            migration_bytes: reg.counter(
                "sim_migration_bytes_total",
                "bytes of key state shipped over the network",
            ),
            buffered_tuples: reg.counter(
                "sim_buffered_tuples_total",
                "tuples buffered while their key's state was in flight",
            ),
            late_forwarded: reg.counter(
                "sim_late_forwarded_total",
                "stragglers forwarded from old to new key owners",
            ),
            dropped_control: reg.counter(
                "sim_dropped_control_total",
                "control messages dropped by fault injection",
            ),
            delayed_control: reg.counter(
                "sim_delayed_control_total",
                "control messages delayed by fault injection",
            ),
            crashes: reg.counter("sim_poi_crashes_total", "instance crashes injected"),
            statistics_bytes: reg.counter(
                "sim_statistics_bytes_total",
                "bytes of ①/② pair-statistics uploads charged to NICs",
            ),
            max_queue_depth: reg.gauge(
                "sim_max_queue_depth",
                "deepest instance input queue seen in any window",
            ),
            backlog_messages: reg.gauge(
                "sim_backlog_messages",
                "network messages awaiting delivery at window end",
            ),
            window_latency: reg.histogram(
                "sim_window_latency_windows",
                "per-window max tuple latency, in windows",
                &log2_bounds(6),
            ),
            wave_duration: reg.histogram(
                "sim_wave_duration_windows",
                "completed reconfiguration wave durations, in windows",
                &log2_bounds(7)[1..],
            ),
        }
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("operators", &self.topo.operator_count())
            .field("instances", &self.pois.len())
            .field("servers", &self.servers.len())
            .field("window_index", &self.window_index)
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Deploys `topology` on `cluster` according to `placement`.
    ///
    /// # Panics
    ///
    /// Panics if the placement shape does not match the topology or
    /// references servers outside the cluster.
    #[must_use]
    pub fn new(
        topology: Topology,
        cluster: ClusterSpec,
        placement: Placement,
        config: SimConfig,
    ) -> Self {
        assert!(cluster.servers > 0, "cluster must have at least one server");
        assert_eq!(
            placement.per_po.len(),
            topology.pos.len(),
            "placement does not match topology"
        );
        let mut pois = Vec::with_capacity(topology.total_instances());
        for (po_idx, po) in topology.pos.iter().enumerate() {
            let po_id = PoId(po_idx);
            for instance in 0..po.parallelism {
                let server = placement.server(po_id, instance);
                assert!(server.0 < cluster.servers, "placement server out of range");
                let (kind, op, stateful): (_, Box<dyn Operator>, _) = match &po.kind {
                    PoKind::Source { factory, rate } => {
                        let source = PoiKindRt::Source {
                            gen: factory(instance),
                            rate: *rate,
                            exhausted: false,
                            credit: 0.0,
                        };
                        (source, Box::new(IdentityOperator), false)
                    }
                    PoKind::Operator { factory, stateful } => {
                        (PoiKindRt::Operator, factory(instance), *stateful)
                    }
                };
                pois.push(PoiRt {
                    po: po_id,
                    instance,
                    server,
                    kind,
                    core: OperatorCore::new(op, stateful, topology.state_field(po_id)),
                    cost_per_tuple: po
                        .cost_per_tuple
                        .unwrap_or(cluster.default_cost_per_tuple),
                    input: VecDeque::new(),
                    routes: OutRoutes::new(&topology, &placement, po_id, instance),
                    wave: WaveParticipant::new(topology.predecessor_instances(po_id)),
                });
            }
        }
        let servers = (0..cluster.servers)
            .map(|s| ServerRt {
                egress: 0.0,
                ingress: 0.0,
                rack: cluster.rack_of(s),
                backlog: VecDeque::new(),
            })
            .collect();
        let racks = (0..cluster.rack_count)
            .map(|_| RackRt { up: 0.0, down: 0.0 })
            .collect();
        let window = config.window;
        let n_servers = cluster.servers;
        Self {
            cluster,
            config,
            pois,
            successors: (0..topology.pos.len())
                .map(|po| topology.successor_instances(PoId(po)))
                .collect(),
            servers,
            racks,
            window_index: 0,
            in_flight: 0,
            mgmt_debt: vec![0.0; n_servers],
            metrics: MetricsLog::new(window),
            control_queue: Vec::new(),
            reconfig: None,
            fault: None,
            manager_down: false,
            degraded: false,
            last_checkpoint: None,
            auto_checkpoint_every: None,
            lost_migrations: Vec::new(),
            tracer: None,
            obs_metrics: None,
            span_sampler: None,
            span_rec: None,
            wave_seq: 0,
            last_wave: None,
            route_runs: Vec::new(),
            topo: topology,
        }
    }

    /// Enables control-plane event tracing with a ring of `capacity`
    /// events (idempotent; an existing ring and its contents are
    /// kept). Only control-plane activity is recorded — waves,
    /// migrations, faults, first-stalls — so tracing does not perturb
    /// simulated throughput.
    pub fn enable_tracing(&mut self, capacity: usize) {
        if self.tracer.is_none() {
            self.tracer = Some(Box::new(EventTracer::new(capacity)));
        }
    }

    /// The event tracer, if tracing is enabled.
    #[must_use]
    pub fn tracer(&self) -> Option<&EventTracer> {
        self.tracer.as_deref()
    }

    /// Drains and returns all traced events (empty when tracing is
    /// disabled).
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        self.tracer.as_mut().map(|t| t.take()).unwrap_or_default()
    }

    /// Attaches `registry`: the simulator registers its counters,
    /// gauges and histograms there and feeds them per-window
    /// aggregates at the end of every [`step`](Self::step).
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.obs_metrics = Some(SimObsMetrics::register(registry));
    }

    /// Enables sampled end-to-end span tracing: `sampler` picks keys
    /// at source emit, and every hop records queue-wait and processing
    /// time (simulated windows and CPU charges converted to
    /// nanoseconds) into the same per-hop histograms the live runtime
    /// uses — see [`SpanMetricName`](crate::obs::SpanMetricName) for
    /// the shared schema. Pass a `registry` to export them; `None`
    /// keeps the histograms detached (events still reach the tracer).
    pub fn enable_span_tracing(
        &mut self,
        sampler: SpanSampler,
        registry: Option<Arc<MetricsRegistry>>,
    ) {
        self.span_sampler = Some(sampler);
        self.span_rec = Some(SpanRecorder::new(registry));
    }

    /// Simulated-time nanoseconds at the start of window `window`.
    #[inline]
    fn window_ns(&self, window: u64) -> u64 {
        (window as f64 * self.config.window * 1e9) as u64
    }

    /// Routing epoch for span attribution: 0 before any wave completes,
    /// then `last completed wave + 1` — mirroring the live runtime's
    /// post-wave epoch bump. `last_wave` is stamped at wave *start*, so
    /// while a wave is still in flight the previous epoch stays active.
    #[inline]
    fn span_epoch(&self) -> u64 {
        match self.last_wave {
            Some(w) if self.reconfig.is_some() => w,
            Some(w) => w + 1,
            None => 0,
        }
    }

    /// Records one trace event (no-op while tracing is disabled).
    #[inline]
    pub(crate) fn trace(&mut self, wave: Option<u64>, kind: TraceEventKind) {
        if let Some(tracer) = self.tracer.as_mut() {
            let window = self.window_index;
            tracer.record(window, window as f64 * self.config.window, wave, kind);
        }
    }

    /// Wave id for events that only make sense inside a running wave.
    #[inline]
    pub(crate) fn active_wave(&self) -> Option<u64> {
        self.reconfig.as_ref().map(|e| e.wave_id)
    }

    /// Wave id for events caused by the latest wave even after it
    /// finished (late migrations, buffering, straggler forwarding).
    #[inline]
    pub(crate) fn wave_hint(&self) -> Option<u64> {
        self.active_wave().or(self.last_wave)
    }

    /// The deployed topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The cluster specification.
    #[must_use]
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Global instance ids of operator `po`, in instance order.
    #[must_use]
    pub fn poi_ids(&self, po: PoId) -> Vec<PoiId> {
        self.topo.instances(po).map(PoiId).collect()
    }

    /// Server hosting `poi`.
    ///
    /// # Panics
    ///
    /// Panics if `poi` is out of range.
    #[must_use]
    pub fn poi_server(&self, poi: PoiId) -> ServerId {
        self.pois[poi.index()].server
    }

    /// Operator `poi` belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `poi` is out of range.
    #[must_use]
    pub fn poi_po(&self, poi: PoiId) -> PoId {
        self.pois[poi.index()].po
    }

    /// Instance index of `poi` within its operator.
    ///
    /// # Panics
    ///
    /// Panics if `poi` is out of range.
    #[must_use]
    pub fn poi_instance(&self, poi: PoiId) -> usize {
        self.pois[poi.index()].instance
    }

    /// The key state currently held by `poi` (for inspection/tests).
    ///
    /// # Panics
    ///
    /// Panics if `poi` is out of range.
    #[must_use]
    pub fn poi_state(&self, poi: PoiId) -> &HashMap<Key, StateValue> {
        &self.pois[poi.index()].core.state
    }

    /// Adds a pair-statistics observer on `poi` for its outgoing
    /// edge `edge` (paper §3.2 instrumentation); an edge can carry
    /// several observers. For every tuple the instance emits through
    /// `edge`, the observer sees `(input key,
    /// tuple.key(observed_field))`.
    ///
    /// `observed_field` is normally the routed field of `edge` itself,
    /// but when the next stateful operator sits behind a chain of
    /// stateless local-or-shuffle stages (the paper's Fig. 3 layout),
    /// it is the field of the eventual fields grouping — the tuple
    /// already carries that key here.
    ///
    /// # Panics
    ///
    /// Panics if `poi` has no outgoing edge `edge`.
    pub fn add_pair_observer(
        &mut self,
        poi: PoiId,
        edge: EdgeId,
        observed_field: usize,
        observer: Box<dyn PairObserver>,
    ) {
        let poi = &mut self.pois[poi.index()];
        let out_edges = self.topo.out_edges[poi.po.index()].iter().copied();
        let observers = &mut poi.core.observers;
        observers.add(out_edges, edge, observed_field, observer);
    }

    /// Replaces the router `poi` uses on out-edge `edge`, immediately
    /// and without the reconfiguration protocol (offline mode: load
    /// tables before starting the stream, §3.4).
    ///
    /// # Panics
    ///
    /// Panics if `poi` does not have an outgoing fields edge `edge`.
    pub fn set_poi_router(&mut self, poi: PoiId, edge: EdgeId, router: Arc<dyn KeyRouter>) {
        let swapped = self.pois[poi.index()].routes.set_router(edge, router);
        assert!(swapped, "poi has no fields out edge {edge:?}");
        self.trace(
            self.wave_hint(),
            TraceEventKind::RouterSwapped {
                poi: poi.index(),
                edge: edge.index(),
            },
        );
    }

    /// Replaces the router on `edge` for every upstream instance at
    /// once (offline configuration).
    ///
    /// # Panics
    ///
    /// Panics if `edge` is not fields-grouped.
    pub fn set_edge_router(&mut self, edge: EdgeId, router: Arc<dyn KeyRouter>) {
        let from = self.topo.edges[edge.index()].from;
        for poi in self.poi_ids(from) {
            self.set_poi_router(poi, edge, Arc::clone(&router));
        }
    }

    /// Number of windows simulated so far.
    #[must_use]
    pub fn window_index(&self) -> u64 {
        self.window_index
    }

    /// Current simulated time, seconds.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.window_index as f64 * self.config.window
    }

    /// Tuples currently in flight (queued, buffered, or on the wire).
    #[must_use]
    pub fn in_flight(&self) -> i64 {
        self.in_flight
    }

    /// The metrics recorded so far.
    #[must_use]
    pub fn metrics(&self) -> &MetricsLog {
        &self.metrics
    }

    /// Charges `bytes` of management-plane egress to `server`,
    /// debited from its NIC budget over the following windows — the
    /// cost of a POI uploading its statistics to the manager
    /// (protocol steps ① GET_METRICS / ② SEND_METRICS of §3.4, whose
    /// payloads the manager otherwise reads out-of-band).
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn charge_management_traffic(&mut self, server: ServerId, bytes: u64) {
        self.mgmt_debt[server.0] += bytes as f64;
    }

    /// Like [`charge_management_traffic`], but attributed to a
    /// specific instance: records the ① `GET_METRICS` / ②
    /// `SEND_METRICS` exchange for `poi` in the trace, feeds the
    /// statistics-bytes counter, and charges the upload to its
    /// server's NIC. This is the entry point the manager uses when it
    /// polls instrumented POIs.
    ///
    /// While a wave is active the ①/② events are *not* re-emitted —
    /// the wave start already traced the exchange for every POI
    /// (see [`Simulation::start_reconfiguration`]) and a second pair
    /// would double-count the protocol step; only the byte accounting
    /// is applied then.
    ///
    /// [`charge_management_traffic`]: Self::charge_management_traffic
    ///
    /// # Panics
    ///
    /// Panics if `poi` is out of range.
    pub fn charge_statistics_upload(&mut self, poi: PoiId, bytes: u64) {
        let server = self.pois[poi.index()].server;
        if self.active_wave().is_none() {
            self.trace(None, TraceEventKind::GetMetrics { poi: poi.index() });
            self.trace(
                None,
                TraceEventKind::SendMetrics {
                    poi: poi.index(),
                    bytes,
                },
            );
        }
        if let Some(obs) = &self.obs_metrics {
            obs.statistics_bytes.add(bytes);
        }
        self.charge_management_traffic(server, bytes);
    }

    /// Arms fault injection: the failures scheduled in `plan` fire
    /// deterministically as the simulation advances. Replaces any
    /// previously installed plan (and its occurrence counters).
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(FaultInjector::new(plan));
    }

    /// Enables periodic checkpointing: every `every` windows the
    /// engine snapshots all keyed state and routing tables, and a
    /// crashed instance respawns from the latest snapshot. Windows
    /// where a wave or migration is in flight skip the snapshot (a
    /// consistent cut needs quiescent ownership). `None` disables.
    pub fn set_auto_checkpoint(&mut self, every: Option<u64>) {
        self.auto_checkpoint_every = every.filter(|&e| e > 0);
    }

    /// The most recent automatic checkpoint, if any was taken.
    #[must_use]
    pub fn last_checkpoint(&self) -> Option<&ClusterCheckpoint> {
        self.last_checkpoint.as_ref()
    }

    /// `true` once fault injection has killed the manager. While down,
    /// no new reconfiguration can start and a running wave can only
    /// time out and roll back.
    #[must_use]
    pub fn manager_down(&self) -> bool {
        self.manager_down
    }

    /// `true` once the deployment fell back to pure hash routing
    /// because the manager became unreachable.
    #[must_use]
    pub fn degraded_to_hash(&self) -> bool {
        self.degraded
    }

    /// Brings a killed manager back (a restarted manager process).
    /// Reconfiguration becomes possible again; a later manager death
    /// degrades the deployment afresh.
    pub fn revive_manager(&mut self) {
        self.manager_down = false;
        self.degraded = false;
    }

    /// Crashes instance `poi` right now, as [`FaultEvent::CrashPoi`]
    /// would: its keyed state, input queue and buffered tuples are
    /// lost, then it respawns from the last checkpoint (empty if none
    /// was taken). Crashed sources stay down. A running wave is not
    /// told: it finds the instance unapplied at its deadline and
    /// restages it.
    ///
    /// [`FaultEvent::CrashPoi`]: crate::FaultEvent::CrashPoi
    ///
    /// # Panics
    ///
    /// Panics if `poi` is out of range.
    pub fn crash_poi(&mut self, poi: PoiId, wm: Option<&mut WindowMetrics>) {
        let idx = poi.index();
        assert!(idx < self.pois.len(), "poi out of range");
        if let Some(wm) = wm {
            wm.crashes += 1;
        }
        self.trace(self.active_wave(), TraceEventKind::PoiCrashed { poi: idx });
        let poi = &mut self.pois[idx];
        let buffered: usize = poi.wave.reset().values().map(VecDeque::len).sum();
        let dropped = (poi.input.len() + buffered) as i64;
        poi.input.clear();
        poi.core.state.clear();
        // A restarted generator would replay its stream from the
        // beginning; keep it down instead.
        if let PoiKindRt::Source { exhausted, .. } = &mut poi.kind {
            *exhausted = true;
        }
        self.in_flight -= dropped;
        debug_assert!(self.in_flight >= 0, "in-flight accounting underflow");

        // Respawn from the last checkpoint. Keys that have since
        // migrated to another live instance, or are on their way to
        // one (⑥ on the wire or awaiting retransmission), are skipped —
        // the migrated copy is newer and ownership must stay unique.
        let (restored_state, restored_routers) = match &self.last_checkpoint {
            Some(cp) if cp.states.len() == self.pois.len() => {
                (cp.states[idx].clone(), cp.routers[idx].clone())
            }
            _ => return,
        };
        let siblings = self.topo.instances(self.pois[idx].po);
        let lost = self.lost_migrations.iter().map(|m| (m.to, m.key));
        let wire = self.servers.iter().flat_map(|s| &s.backlog);
        let in_transit: HashSet<Key> = wire
            .filter_map(|m| match m.payload {
                NetPayload::Migrate { key, .. } => Some((m.to_poi, key)),
                _ => None,
            })
            .chain(lost)
            .filter_map(|(to, key)| siblings.contains(&to).then_some(key))
            .collect();
        for (key, state) in restored_state {
            let held_elsewhere = siblings
                .clone()
                .any(|j| j != idx && self.pois[j].core.state.contains_key(&key));
            if !held_elsewhere && !in_transit.contains(&key) {
                self.pois[idx].core.state.insert(key, state);
            }
        }
        for (edge, router) in restored_routers {
            self.set_poi_router(PoiId(idx), edge, router);
        }
    }

    /// Applies the faults scheduled for the current window.
    fn apply_due_faults(&mut self, wm: &mut WindowMetrics) {
        let now = self.window_index;
        let (crashes, kill) = match &mut self.fault {
            Some(injector) => (injector.poi_crashes_due(now), injector.manager_kill_due(now)),
            None => return,
        };
        for idx in crashes {
            if idx < self.pois.len() {
                self.crash_poi(PoiId(idx), Some(wm));
            }
        }
        if kill {
            self.manager_down = true;
            self.trace(self.active_wave(), TraceEventKind::ManagerKilled);
            // With no wave running there is nothing to wait for: fall
            // back to hash routing immediately. A running wave is given
            // until its deadline, then abandoned, rolled back and
            // degraded (see check_wave_progress).
            if self.reconfig.is_none() {
                self.degrade_to_hash(wm);
            }
        }
    }

    /// Runs `windows` simulation windows.
    pub fn run(&mut self, windows: usize) {
        for _ in 0..windows {
            self.step();
        }
    }

    /// Runs until all sources are exhausted and no tuple remains in
    /// flight, or `max_windows` elapse. Returns the number of windows
    /// executed.
    pub fn run_until_drained(&mut self, max_windows: usize) -> usize {
        for executed in 0..max_windows {
            if self.is_drained() {
                return executed;
            }
            self.step();
        }
        max_windows
    }

    /// `true` when every source is exhausted and nothing is in flight.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.in_flight == 0
            && self.control_queue.is_empty()
            && self.reconfig.is_none()
            && self.lost_migrations.is_empty()
            && self.pois.iter().all(|p| match &p.kind {
                PoiKindRt::Source { exhausted, .. } => *exhausted,
                _ => p.input.is_empty() && p.wave.pending.is_empty(),
            })
    }

    /// Executes one simulation window.
    pub fn step(&mut self) {
        let window = self.config.window;
        let mut wm = WindowMetrics {
            time: (self.window_index + 1) as f64 * window,
            edges: vec![Default::default(); self.topo.edges.len()],
            poi_processed: vec![0; self.pois.len()],
            ..WindowMetrics::default()
        };

        // 1. Refill NIC and rack-uplink budgets, debiting any
        // management-plane traffic (statistics uploads) queued since
        // the last window.
        let nic = self.cluster.nic_bytes_per_window(window);
        for (server, debt) in self.servers.iter_mut().zip(&mut self.mgmt_debt) {
            let paid = debt.min(nic);
            server.egress = nic - paid;
            server.ingress = nic;
            *debt -= paid;
        }
        let uplink = self.cluster.uplink_bytes_per_window(window);
        for rack in &mut self.racks {
            rack.up = uplink;
            rack.down = uplink;
        }

        // 2. Drain network backlogs: FIFO per sending server, round-
        // robin across servers so one blocked head does not strand the
        // other NICs' budgets. The starting server rotates per window
        // for long-run fairness.
        let n_servers = self.servers.len();
        let start = (self.window_index as usize) % n_servers.max(1);
        loop {
            let mut progressed = false;
            for offset in 0..n_servers {
                let s = (start + offset) % n_servers;
                // Transmit as many back-to-back messages from this
                // server as both budgets allow before rotating.
                while let Some(head) = self.servers[s].backlog.front() {
                    let bytes = head.bytes as f64;
                    let dest_server = self.pois[head.to_poi].server.0;
                    if !self.net_budget_ok(s, dest_server, bytes) {
                        break;
                    }
                    let msg = self.servers[s].backlog.pop_front().expect("peeked");
                    self.consume_net_budget(s, dest_server, bytes);
                    self.deliver_remote_payload(msg, &mut wm);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }

        // 3. Fire scheduled faults, then deliver due control messages
        // (reconfiguration protocol), retransmit lost migrations, and
        // check the running wave against its deadline.
        self.apply_due_faults(&mut wm);
        self.process_lost_migrations(&mut wm);
        self.process_due_control(&mut wm);
        self.check_wave_progress(&mut wm);

        // 4a. Sources emit, interleaved fairly so saturating sources
        // share the in-flight admission budget instead of the first
        // instance monopolizing it.
        self.run_sources(window, &mut wm);

        // 4b. Operators process, in topological order.
        for po_pos in 0..self.topo.topo_order.len() {
            let po = self.topo.topo_order[po_pos];
            if self.topo.pos[po.index()].is_source() {
                continue;
            }
            for idx in self.topo.instances(po) {
                self.run_operator(idx, window, &mut wm);
            }
        }

        // 5. Occupancy snapshot for diagnostics.
        wm.max_queue_depth = self.pois.iter().map(|p| p.input.len()).max().unwrap_or(0);
        wm.backlog_messages = self.servers.iter().map(|s| s.backlog.len()).sum();

        // 5b. Feed the attached metrics registry from the finished
        // window's aggregates — one batch of adds per window, so the
        // per-tuple hot path never touches an atomic.
        if let Some(m) = &self.obs_metrics {
            let (mut routed, mut remote) = (0u64, 0u64);
            for e in &wm.edges {
                routed += e.local + e.remote;
                remote += e.remote;
            }
            m.tuples_routed.add(routed);
            m.tuples_remote.add(remote);
            m.sink_tuples.add(wm.sink_tuples);
            m.migrated_states.add(wm.migrated_states);
            m.migration_bytes.add(wm.migrated_bytes);
            m.buffered_tuples.add(wm.buffered);
            m.late_forwarded.add(wm.late_forwarded);
            m.dropped_control.add(wm.dropped_control);
            m.delayed_control.add(wm.delayed_control);
            m.crashes.add(wm.crashes);
            m.max_queue_depth.max(wm.max_queue_depth as u64);
            m.backlog_messages.set(wm.backlog_messages as u64);
            if wm.latency_count > 0 {
                m.window_latency.observe(wm.latency_window_max);
            }
        }

        self.window_index += 1;
        self.metrics.push(wm);

        // 6. Periodic checkpoint for crash recovery (skipped while a
        // wave or migration is in flight — no consistent cut exists).
        if let Some(every) = self.auto_checkpoint_every {
            if self.window_index.is_multiple_of(every) {
                if let Ok(cp) = self.checkpoint() {
                    self.last_checkpoint = Some(cp);
                }
            }
        }
    }

    /// Emits from every source instance in round-robin turns of up to
    /// `TURN` tuples until all are exhausted, rate-capped,
    /// CPU-exhausted, or admission control blocks further emission.
    fn run_sources(&mut self, window: f64, wm: &mut WindowMetrics) {
        const TURN: usize = 64;
        let source_pois: Vec<usize> = (0..self.pois.len())
            .filter(|&i| matches!(self.pois[i].kind, PoiKindRt::Source { .. }))
            .collect();
        let n = source_pois.len();
        let mut budgets = vec![window; n];
        let mut remaining = Vec::with_capacity(n);
        for &idx in &source_pois {
            let PoiKindRt::Source { rate, credit, .. } = &mut self.pois[idx].kind else {
                unreachable!("filtered above");
            };
            remaining.push(match rate {
                SourceRate::Saturate => self.config.source_burst_per_window,
                SourceRate::PerSecond(r) => {
                    *credit += *r * window;
                    let whole = credit.floor();
                    *credit -= whole;
                    whole as usize
                }
            });
        }
        loop {
            let mut progressed = false;
            for si in 0..n {
                let idx = source_pois[si];
                for _ in 0..TURN.min(remaining[si]) {
                    if self.in_flight >= self.config.max_in_flight as i64
                        || budgets[si] <= 0.0
                    {
                        remaining[si] = 0;
                        break;
                    }
                    let mut tuple = {
                        let PoiKindRt::Source { gen, exhausted, .. } =
                            &mut self.pois[idx].kind
                        else {
                            unreachable!("filtered above");
                        };
                        if *exhausted {
                            remaining[si] = 0;
                            break;
                        }
                        match gen.next_tuple() {
                            Some(t) => t,
                            None => {
                                *exhausted = true;
                                remaining[si] = 0;
                                break;
                            }
                        }
                    };
                    wm.emitted += 1;
                    remaining[si] -= 1;
                    let born = self.window_index;
                    // Span sampling at the source: the decision is
                    // made on the first fields-routed key, so sampled
                    // spans follow exactly the keys whose routing the
                    // manager controls.
                    if let Some(sampler) = self.span_sampler {
                        if let Some(field) = self.pois[idx].routes.span_field() {
                            if tuple.field_count() > field && sampler.sampled(tuple.key(field))
                            {
                                tuple.set_span_origin(self.window_ns(born));
                                let key = tuple.key(field).value();
                                self.trace(
                                    self.wave_hint(),
                                    TraceEventKind::SpanBegin { poi: idx, key },
                                );
                            }
                        }
                    }
                    let copies = self.emit_from(idx, tuple, born, &mut budgets[si], wm);
                    self.in_flight += copies as i64;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// Processes `idx`'s input queue within its CPU budget, one tuple at
    /// a time through the shared data plane: the hold rule, then one
    /// dispatch and one routing of its output, edge by edge.
    fn run_operator(&mut self, idx: usize, window: f64, wm: &mut WindowMetrics) {
        let mut budget = window;
        let mut emitted = Vec::new();
        while budget > 0.0 {
            let Some(in_tuple) = self.pois[idx].input.pop_front() else {
                break;
            };
            let poi = &mut self.pois[idx];
            let state_key = poi.core.state_field.map(|f| in_tuple.tuple.key(f));
            if let Some(key) = state_key {
                match poi.wave.hold(key, [in_tuple]) {
                    Hold::Owned => {}
                    // Awaiting migrated state (paper §3.4). The first
                    // buffered tuple is traced as one stall per key.
                    Hold::Buffered { first } => {
                        wm.buffered += 1;
                        if first {
                            let stall = TraceEventKind::BufferStall {
                                poi: idx,
                                key: key.value(),
                            };
                            self.trace(self.wave_hint(), stall);
                        }
                        continue;
                    }
                    // State departed to a new owner: forward the
                    // straggler, charged like any remote handoff.
                    Hold::Departed(new_owner) => {
                        wm.late_forwarded += 1;
                        budget -= self.cluster.remote_send_cpu;
                        let from_server = self.pois[idx].server;
                        let edge = self.topo.in_edges[self.pois[idx].po.index()]
                            .first()
                            .copied()
                            .expect("stateful operator has an input edge");
                        let (tuple, born) = (in_tuple.tuple, in_tuple.born);
                        self.deliver_data(from_server, new_owner.index(), tuple, edge, born, wm);
                        continue;
                    }
                }
            }

            // Charge processing cost.
            let mut cost = self.pois[idx].cost_per_tuple;
            if in_tuple.remote {
                cost += self.cluster.remote_recv_cpu
                    + self.cluster.remote_cpu_per_byte * f64::from(in_tuple.tuple.payload_bytes());
            }
            budget -= cost;
            wm.poi_processed[idx] += 1;

            // Span hop: queue wait from the enqueue window, processing
            // time from the CPU charge, into the same log2 histograms
            // (and metric names) the live runtime uses.
            let is_sink = self.pois[idx].routes.is_empty();
            if self.span_rec.is_some() && in_tuple.tuple.is_span_sampled() {
                let queue_ns =
                    self.window_ns(self.window_index - in_tuple.enqueued);
                let proc_ns = (cost * 1e9) as u64;
                let epoch = self.span_epoch();
                let po = self.pois[idx].po.index();
                let total_ns = self
                    .window_ns(self.window_index)
                    .saturating_sub(in_tuple.tuple.span_origin_ns());
                let rec = self.span_rec.as_mut().expect("checked above");
                rec.record_hop(po, epoch, in_tuple.remote, queue_ns, proc_ns);
                if is_sink {
                    rec.record_end(po, epoch, total_ns);
                }
                let key = state_key
                    .unwrap_or_else(|| in_tuple.tuple.key(0))
                    .value();
                self.trace(
                    self.wave_hint(),
                    TraceEventKind::SpanHop {
                        poi: idx,
                        key,
                        queue_ns,
                        proc_ns,
                        remote: in_tuple.remote,
                    },
                );
                if is_sink {
                    self.trace(
                        self.wave_hint(),
                        TraceEventKind::SpanEnd {
                            poi: idx,
                            key,
                            total_ns,
                        },
                    );
                }
            }

            // Run the operator, then route its output tuple by tuple.
            let core = &mut self.pois[idx].core;
            core.emitted.clear();
            core.dispatch(std::slice::from_ref(&in_tuple.tuple), state_key);
            std::mem::swap(&mut core.emitted, &mut emitted);
            let mut copies = 0usize;
            for &t in &emitted {
                copies += self.emit_from(idx, t, in_tuple.born, &mut budget, wm);
            }
            if is_sink {
                wm.sink_tuples += 1;
                self.in_flight -= 1;
                let waited = self.window_index - in_tuple.born;
                wm.latency_window_sum += waited;
                wm.latency_count += 1;
                wm.latency_window_max = wm.latency_window_max.max(waited);
            } else {
                self.in_flight += copies as i64 - 1;
            }
        }
    }

    /// Routes `tuple` through every out edge of `idx`, charging remote
    /// serialization to `budget`. Returns the number of delivered
    /// copies.
    fn emit_from(
        &mut self,
        idx: usize,
        tuple: Tuple,
        born: u64,
        budget: &mut f64,
        wm: &mut WindowMetrics,
    ) -> usize {
        let from_server = self.pois[idx].server;
        let n_out = self.pois[idx].routes.len();
        for pos in 0..n_out {
            let routes = &mut self.pois[idx].routes;
            let edge = routes.route(pos, std::slice::from_ref(&tuple), &mut self.route_runs);
            let dest_global = self.route_runs[0].dest as usize;
            let dest_server = self.pois[dest_global].server;
            if dest_server != from_server {
                *budget -= self.cluster.remote_send_cpu
                    + self.cluster.remote_cpu_per_byte * f64::from(tuple.payload_bytes());
            }
            self.deliver_data(from_server, dest_global, tuple, edge, born, wm);
        }
        n_out
    }

    /// Hands a data tuple to `to_poi`, in memory when co-located,
    /// otherwise through the NIC budgets or the egress backlog.
    pub(crate) fn deliver_data(
        &mut self,
        from_server: ServerId,
        to_poi: usize,
        tuple: Tuple,
        edge: EdgeId,
        born: u64,
        wm: &mut WindowMetrics,
    ) {
        let dest_server = self.pois[to_poi].server;
        if dest_server == from_server {
            wm.edges[edge.index()].record_local(1);
            self.enqueue(to_poi, tuple, false, born);
            return;
        }
        let bytes = self.cluster.message_bytes(tuple.wire_bytes());
        let fb = bytes as f64;
        let sender_clear = self.servers[from_server.0].backlog.is_empty();
        if sender_clear && self.net_budget_ok(from_server.0, dest_server.0, fb) {
            self.consume_net_budget(from_server.0, dest_server.0, fb);
            let crossed =
                u64::from(self.servers[from_server.0].rack != self.servers[dest_server.0].rack);
            wm.edges[edge.index()].record_remote(1, crossed, bytes);
            self.enqueue(to_poi, tuple, true, born);
        } else {
            self.servers[from_server.0].backlog.push_back(NetMsg {
                from_server: from_server.0,
                to_poi,
                bytes,
                payload: NetPayload::Data { tuple, edge, born },
            });
        }
    }

    /// Appends a tuple that arrived now to `to_poi`'s input queue.
    fn enqueue(&mut self, to_poi: usize, tuple: Tuple, remote: bool, born: u64) {
        let enqueued = self.window_index;
        let arrival = InTuple {
            tuple,
            remote,
            born,
            enqueued,
        };
        self.pois[to_poi].input.push_back(arrival);
    }

    /// Whether the NIC budgets (and rack uplinks when crossing racks)
    /// can carry `bytes` from `from` to `to` this window.
    fn net_budget_ok(&self, from: usize, to: usize, bytes: f64) -> bool {
        if self.servers[from].egress < bytes || self.servers[to].ingress < bytes {
            return false;
        }
        let (fr, tr) = (self.servers[from].rack, self.servers[to].rack);
        fr == tr || (self.racks[fr].up >= bytes && self.racks[tr].down >= bytes)
    }

    /// Consumes the budgets checked by [`net_budget_ok`].
    ///
    /// [`net_budget_ok`]: Simulation::net_budget_ok
    fn consume_net_budget(&mut self, from: usize, to: usize, bytes: f64) {
        self.servers[from].egress -= bytes;
        self.servers[to].ingress -= bytes;
        let (fr, tr) = (self.servers[from].rack, self.servers[to].rack);
        if fr != tr {
            self.racks[fr].up -= bytes;
            self.racks[tr].down -= bytes;
        }
    }

    /// Completes delivery of a backlogged remote message.
    fn deliver_remote_payload(&mut self, msg: NetMsg, wm: &mut WindowMetrics) {
        match msg.payload {
            NetPayload::Data { tuple, edge, born } => {
                let dest = self.pois[msg.to_poi].server.0;
                let crossed =
                    u64::from(self.servers[msg.from_server].rack != self.servers[dest].rack);
                wm.edges[edge.index()].record_remote(1, crossed, msg.bytes);
                self.enqueue(msg.to_poi, tuple, true, born);
            }
            NetPayload::Migrate { key, state } => {
                wm.migrated_states += 1;
                wm.migrated_bytes += msg.bytes;
                self.apply_migration(msg.to_poi, key, state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{CountOperator, IdentityOperator};
    use crate::router::ModuloRouter;
    use crate::topology::Grouping;

    /// The paper's evaluation topology: n sources → A (stateful count
    /// on field 0) → B (stateful count on field 1).
    fn chain(n: usize, keys: u64, payload: u32) -> Topology {
        let mut b = Topology::builder();
        let s = b.source("S", n, SourceRate::Saturate, move |i| {
            let mut c = i as u64;
            Box::new(move || {
                c += 1;
                Some(Tuple::new(
                    [Key::new(c % keys), Key::new((c / keys) % keys)],
                    payload,
                ))
            })
        });
        let a = b.stateful("A", n, CountOperator::factory());
        let bb = b.stateful("B", n, CountOperator::factory());
        b.connect(s, a, Grouping::fields(0));
        b.connect(a, bb, Grouping::fields(1));
        b.build().unwrap()
    }

    fn sim(topo: Topology, servers: usize) -> Simulation {
        let cluster = ClusterSpec::lan_10g(servers);
        let placement = Placement::aligned(&topo, servers);
        Simulation::new(topo, cluster, placement, SimConfig::default())
    }

    #[test]
    fn single_server_throughput_is_cpu_bound() {
        let mut s = sim(chain(1, 8, 0), 1);
        s.run(30);
        // One instance at 8 µs/tuple → 125 Ktuples/s; everything local.
        let tput = s.metrics().avg_throughput(10);
        assert!(
            (100_000.0..140_000.0).contains(&tput),
            "throughput {tput} out of CPU-bound range"
        );
        // All transfers local on one server.
        for w in s.metrics().windows() {
            for e in &w.edges {
                assert_eq!(e.remote, 0);
            }
        }
    }

    #[test]
    fn tuples_are_conserved() {
        let mut s = sim(chain(2, 6, 100), 2);
        s.run(20);
        let emitted = s.metrics().total_emitted();
        let sunk = s.metrics().total_sink();
        let queued: usize = s.pois.iter().map(|p| p.input.len()).sum();
        let backlog: usize = s.servers.iter().map(|sv| sv.backlog.len()).sum();
        assert!(emitted > 0);
        assert_eq!(
            emitted,
            sunk + queued as u64 + backlog as u64,
            "tuple conservation violated"
        );
        assert_eq!(s.in_flight(), (queued + backlog) as i64);
    }

    #[test]
    fn fields_grouping_sends_key_to_one_instance() {
        let mut s = sim(chain(3, 9, 0), 3);
        s.run(10);
        let a_pois = s.poi_ids(s.topology().po_by_name("A").unwrap());
        // Each key must appear in exactly one instance's state.
        let mut seen = HashMap::new();
        for &poi in &a_pois {
            for (&k, v) in s.poi_state(poi) {
                assert!(
                    seen.insert(k, v.as_count().unwrap()).is_none(),
                    "key {k} appears in two instances"
                );
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn state_counts_match_processed() {
        let mut s = sim(chain(2, 4, 0), 2);
        s.run(10);
        let a = s.topology().po_by_name("A").unwrap();
        let a_pois = s.poi_ids(a);
        let total_state: u64 = a_pois
            .iter()
            .flat_map(|&p| s.poi_state(p).values())
            .map(|v| v.as_count().unwrap())
            .sum();
        let processed: u64 = s
            .metrics()
            .windows()
            .iter()
            .map(|w| {
                a_pois
                    .iter()
                    .map(|p| w.poi_processed[p.index()])
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(total_state, processed);
    }

    #[test]
    fn modulo_routing_is_fully_local_for_aligned_keys() {
        // Keys 0..n with modulo routers on both hops: tuple (i, i)
        // stays on server i end to end.
        let n = 3;
        let mut b = Topology::builder();
        let s = b.source("S", n, SourceRate::Saturate, move |i| {
            let key = Key::new(i as u64);
            Box::new(move || Some(Tuple::new([key, key], 0)))
        });
        let a = b.stateful("A", n, CountOperator::factory());
        let bb = b.stateful("B", n, CountOperator::factory());
        b.connect(s, a, Grouping::fields_with(0, Arc::new(ModuloRouter)));
        b.connect(a, bb, Grouping::fields_with(1, Arc::new(ModuloRouter)));
        let topo = b.build().unwrap();
        let mut s = sim(topo, n);
        s.run(10);
        for w in s.metrics().windows() {
            for e in &w.edges {
                assert_eq!(e.remote, 0, "aligned modulo routing must stay local");
            }
        }
        assert!(s.metrics().total_sink() > 0);
    }

    #[test]
    fn network_bottleneck_limits_throughput() {
        // Large payloads on a 1 Gb/s network: remote traffic dominates.
        let topo = chain(2, 64, 12 * 1024);
        let cluster = ClusterSpec::lan_1g(2);
        let placement = Placement::aligned(&topo, 2);
        let mut s = Simulation::new(topo, cluster, placement, SimConfig::default());
        s.run(30);
        let tput = s.metrics().avg_throughput(10);
        // 1 Gb/s = 125 MB/s; at ~12 kB remote tuples the NIC caps the
        // remote stream at ~10 Ktuples/s, far below the CPU bound.
        assert!(
            tput < 60_000.0,
            "throughput {tput} should be network-bound"
        );
        assert!(tput > 1_000.0, "throughput {tput} should still flow");
        // The bottleneck shows up as standing network backlog.
        let w = s.metrics().windows().last().unwrap();
        assert!(w.backlog_messages > 0, "expected a standing backlog");
        assert!(w.max_queue_depth < 1_000_000);
    }

    #[test]
    fn local_or_shuffle_prefers_local() {
        let mut b = Topology::builder();
        let s = b.source("S", 2, SourceRate::PerSecond(10_000.0), |_| {
            Box::new(|| Some(Tuple::new([Key::new(0)], 0)))
        });
        let a = b.stateless("A", 2, IdentityOperator::factory());
        b.connect(s, a, Grouping::LocalOrShuffle);
        let topo = b.build().unwrap();
        let mut s = sim(topo, 2);
        s.run(10);
        for w in s.metrics().windows() {
            assert_eq!(w.edges[0].remote, 0, "local-or-shuffle crossed servers");
        }
    }

    #[test]
    fn shuffle_spreads_round_robin() {
        let mut b = Topology::builder();
        let s = b.source("S", 1, SourceRate::PerSecond(40_000.0), |_| {
            Box::new(|| Some(Tuple::new([Key::new(0)], 0)))
        });
        let a = b.stateless("A", 4, IdentityOperator::factory());
        b.connect(s, a, Grouping::Shuffle);
        let topo = b.build().unwrap();
        let mut s = sim(topo, 4);
        s.run(10);
        let a_po = s.topology().po_by_name("A").unwrap();
        let pois = s.poi_ids(a_po);
        let loads: Vec<u64> = pois
            .iter()
            .map(|&p| {
                s.metrics()
                    .windows()
                    .iter()
                    .map(|w| w.poi_processed[p.index()])
                    .sum()
            })
            .collect();
        let max = *loads.iter().max().unwrap();
        let min = *loads.iter().min().unwrap();
        assert!(max - min <= 1 + max / 100, "shuffle imbalance: {loads:?}");
    }

    #[test]
    fn rate_limited_source_obeys_rate() {
        let mut b = Topology::builder();
        let s = b.source("S", 1, SourceRate::PerSecond(1000.0), |_| {
            Box::new(|| Some(Tuple::new([Key::new(0)], 0)))
        });
        let a = b.stateful("A", 1, CountOperator::factory());
        b.connect(s, a, Grouping::fields(0));
        let topo = b.build().unwrap();
        let mut s = sim(topo, 1);
        s.run(10); // 1 second
        let emitted = s.metrics().total_emitted();
        assert!((900..=1100).contains(&(emitted as i64)), "emitted {emitted}");
    }

    #[test]
    fn finite_source_drains() {
        let mut b = Topology::builder();
        let s = b.source("S", 1, SourceRate::Saturate, |_| {
            let mut left = 500u32;
            Box::new(move || {
                if left == 0 {
                    None
                } else {
                    left -= 1;
                    Some(Tuple::new([Key::new(u64::from(left) % 7)], 0))
                }
            })
        });
        let a = b.stateful("A", 1, CountOperator::factory());
        b.connect(s, a, Grouping::fields(0));
        let topo = b.build().unwrap();
        let mut s = sim(topo, 1);
        let windows = s.run_until_drained(100);
        assert!(windows < 100, "should drain quickly");
        assert_eq!(s.metrics().total_emitted(), 500);
        assert_eq!(s.metrics().total_sink(), 500);
        assert!(s.is_drained());
    }

    #[test]
    fn management_traffic_debits_egress() {
        // A tight NIC: a large statistics upload visibly dents the
        // following windows' throughput, then recovers.
        let topo = chain(2, 16, 8 * 1024);
        let cluster = ClusterSpec::lan_1g(2);
        let placement = Placement::aligned(&topo, 2);
        let mut s = Simulation::new(topo, cluster, placement, SimConfig::default());
        s.run(20);
        let before = s.metrics().avg_throughput(10);
        // Debit ~3 windows of egress from server 0.
        let budget = s.cluster().nic_bytes_per_window(s.metrics().window_len());
        s.charge_management_traffic(crate::topology::ServerId(0), (3.0 * budget) as u64);
        s.run(4);
        let windows = s.metrics().windows();
        let during: u64 = windows[20..24].iter().map(|w| w.sink_tuples).sum();
        let dent = during as f64 / (4.0 * s.metrics().window_len());
        assert!(
            dent < before * 0.9,
            "upload should dent throughput: {before} -> {dent}"
        );
        s.run(20);
        let after = s.metrics().avg_throughput(34);
        assert!(
            after > before * 0.9,
            "throughput should recover: {before} -> {after}"
        );
    }

    /// S → A, then A → B on field 1 and A → C on field 2. Only A's
    /// second out edge carries an observer, and only on instance 0:
    /// it must see exactly the `(field 0, field 2)` pairs instance 0
    /// emits, and instance 1, with no observers, must feed nothing.
    #[test]
    fn observer_on_second_out_edge_sees_exactly_its_pairs() {
        use std::sync::Mutex;
        let total = 3_000u64;
        let tuple = |c: u64| [Key::new(c % 10), Key::new(c % 7), Key::new(100 + c % 3)];
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
        let mut s = sim(b.build().unwrap(), 2);
        assert_eq!(s.topology().out_edges(a), &[first, second]);

        let seen: Arc<Mutex<HashMap<(Key, Key), u64>>> = Arc::default();
        let sink = Arc::clone(&seen);
        let observer = move |i: Key, o: Key| *sink.lock().unwrap().entry((i, o)).or_insert(0) += 1;
        s.add_pair_observer(s.poi_ids(a)[0], second, 2, Box::new(observer));
        s.run_until_drained(10_000);
        assert!(s.is_drained());

        let mut want: HashMap<(Key, Key), u64> = HashMap::new();
        for [k0, _, k2] in (1..=total).map(tuple) {
            if k0.value() % 2 == 0 {
                *want.entry((k0, k2)).or_insert(0) += 1;
            }
        }
        assert_eq!(*seen.lock().unwrap(), want);
    }

    /// Observers are fed in out-edge order, whatever order they were
    /// registered in: a sketch shared by several edges then sees its
    /// offers, and so its ties, in a fixed order.
    #[test]
    fn observers_are_fed_in_out_edge_order() {
        use std::sync::Mutex;
        let mut b = Topology::builder();
        let s = b.source("S", 1, SourceRate::Saturate, move |_| {
            let mut c = 0u64;
            Box::new(move || {
                c += 1;
                (c <= 500).then(|| Tuple::new([Key::new(c % 10), Key::new(c % 7)], 0))
            })
        });
        let a = b.stateful("A", 1, CountOperator::factory());
        let bb = b.stateful("B", 1, CountOperator::factory());
        let cc = b.stateful("C", 1, CountOperator::factory());
        b.connect(s, a, Grouping::fields(0));
        let first = b.connect(a, bb, Grouping::fields(1));
        let second = b.connect(a, cc, Grouping::fields(1));
        let mut s = sim(b.build().unwrap(), 1);
        let log: Arc<Mutex<Vec<EdgeId>>> = Arc::default();
        let poi = s.poi_ids(a)[0];
        for edge in [second, first] {
            let log = Arc::clone(&log);
            let observer = move |_: Key, _: Key| log.lock().unwrap().push(edge);
            s.add_pair_observer(poi, edge, 1, Box::new(observer));
        }
        s.run_until_drained(10_000);
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 1_000);
        assert!(log.chunks(2).all(|c| c == [first, second]));
    }

    #[test]
    fn observer_sees_pairs() {
        use std::sync::Mutex;
        let pairs = Arc::new(Mutex::new(Vec::new()));
        let topo = chain(2, 4, 0);
        let mut s = sim(topo, 2);
        let a = s.topology().po_by_name("A").unwrap();
        let b = s.topology().po_by_name("B").unwrap();
        let edge = s.topology().edge_between(a, b).unwrap();
        for poi in s.poi_ids(a) {
            let sink = Arc::clone(&pairs);
            s.add_pair_observer(
                poi,
                edge,
                1,
                Box::new(move |i: Key, o: Key| {
                    sink.lock().unwrap().push((i, o));
                }),
            );
        }
        s.run(3);
        let observed = pairs.lock().unwrap();
        assert!(!observed.is_empty());
        // Source emits (c % 4, (c/4) % 4): both fields in 0..4.
        for &(i, o) in observed.iter() {
            assert!(i.value() < 4 && o.value() < 4);
        }
    }
}
