//! A Storm-like stream-processing topology model and a deterministic
//! cluster simulator.
//!
//! This crate is the substrate on which the locality-aware routing
//! reproduction runs (Caneill et al., Middleware 2016 — see the
//! workspace DESIGN.md). It provides:
//!
//! * the **application model** of paper §2: processing operators
//!   ([`Topology`], [`Operator`]) replicated into instances (POIs),
//!   connected by streams with the three grouping policies of §2.2
//!   ([`Grouping::Shuffle`], [`Grouping::LocalOrShuffle`],
//!   [`Grouping::Fields`]);
//! * a pluggable fields-grouping policy ([`KeyRouter`]) — the hook the
//!   locality-aware routing tables plug into;
//! * a **deterministic discrete-time simulator** ([`Simulation`]) that
//!   substitutes for the paper's 8-server Storm testbed: per-instance
//!   CPU budgets, per-server NIC budgets ([`ClusterSpec`]), in-memory
//!   local handoffs vs. priced remote transfers, queues and source
//!   admission control;
//! * the **reconfiguration mechanism** of §3.4 ([`ReconfigPlan`],
//!   [`Simulation::start_reconfiguration`]): routing-table waves,
//!   online key-state migration and tuple buffering without stream
//!   disruption;
//! * the **instrumentation hook** of §3.2 ([`PairObserver`]) invoked
//!   with the (input key, output key) pair of every processed tuple.
//!
//! # Quickstart
//!
//! ```
//! use streamloc_engine::{
//!     ClusterSpec, CountOperator, Grouping, Key, Placement, SimConfig,
//!     Simulation, SourceRate, Topology, Tuple,
//! };
//!
//! // Geo-tagged messages: route on location, then on hashtag.
//! let mut builder = Topology::builder();
//! let source = builder.source("tweets", 2, SourceRate::Saturate, |i| {
//!     let mut c = i as u64;
//!     Box::new(move || {
//!         c += 1;
//!         Some(Tuple::new([Key::new(c % 10), Key::new(c % 50)], 140))
//!     })
//! });
//! let by_location = builder.stateful("by_location", 2, CountOperator::factory());
//! let by_hashtag = builder.stateful("by_hashtag", 2, CountOperator::factory());
//! builder.connect(source, by_location, Grouping::fields(0));
//! builder.connect(by_location, by_hashtag, Grouping::fields(1));
//! let topology = builder.build()?;
//!
//! let cluster = ClusterSpec::lan_10g(2);
//! let placement = Placement::aligned(&topology, 2);
//! let mut sim = Simulation::new(topology, cluster, placement, SimConfig::default());
//! sim.run(20);
//! println!("throughput: {:.0} tuples/s", sim.metrics().avg_throughput(10));
//! # Ok::<(), streamloc_engine::BuildTopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod checkpoint;
mod cluster;
mod fault;
mod instance;
mod key;
mod live;
mod metrics;
pub mod obs;
mod operator;
mod operators_ext;
mod reconfig;
mod router;
mod sim;
mod topology;
mod tuple;
mod wave;

pub use checkpoint::{CheckpointError, ClusterCheckpoint};
pub use cluster::ClusterSpec;
pub use fault::{ControlClass, ControlFate, FaultEvent, FaultInjector, FaultPlan};
pub use instance::PairObserver;
pub use key::{splitmix64, Key, KeyInterner};
pub use live::{InstanceReport, LiveConfig, LiveObserver, LiveReconfig, LiveRuntime};
pub use metrics::{EdgeWindowStats, MetricsLog, WindowMetrics};
pub use obs::{
    log2_bounds, Counter, EventTracer, Gauge, Histogram, HistogramSnapshot, MetricsRegistry,
    SpanMetricName, SpanPhase, SpanRecorder, SpanSampler, TraceEvent, TraceEventKind,
};
pub use operator::{
    CountOperator, FnOperator, IdentityOperator, OpContext, Operator, OperatorFactory, StateValue,
};
pub use operators_ext::{ApproxDistinctOperator, WindowedCountOperator};
pub use reconfig::{ReconfigError, ReconfigInProgress, ReconfigPlan, WaveConfig};
pub use router::{
    key_run_len, push_dest_run, DestRun, HashRouter, KeyRouter, ModuloRouter, PartialKeyRouter,
    ShiftedRouter,
};
pub use sim::{Placement, SimConfig, Simulation};
pub use topology::{
    BuildTopologyError, Edge, EdgeId, Grouping, PoId, PoSpec, PoiId, ServerId, SourceFactory,
    SourceRate, Topology, TopologyBuilder, TupleSource,
};
pub use tuple::{Tuple, MAX_FIELDS};

/// Locks `mutex`, also after a holder panicked: the fault injector and
/// the metrics list are whole between calls, so they stay usable.
fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
