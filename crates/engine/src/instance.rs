//! One operator instance's data plane, written once for both runtimes:
//! [`OutRoutes::route`] decides where output goes and
//! [`OperatorCore::dispatch`] runs the operator; the hold rule of a
//! wave is `WaveParticipant::hold`. Like the wave, it is sans-IO: the
//! simulator and the live runtime keep only their I/O around it.
//!
//! The live runtime hands these routines whole batches, the simulator
//! one-tuple slices, with the same result: `route_batch` expands to
//! per-key `route` calls, `on_batch` to per-tuple `process` calls,
//! `observe_run` to `count` observes, and a round-robin edge advances
//! its counter once per tuple.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use crate::key::Key;
use crate::operator::{OpContext, Operator, StateValue};
use crate::router::{push_dest_run, DestRun, KeyRouter};
use crate::sim::Placement;
use crate::topology::{EdgeId, Grouping, PoId, Topology};
use crate::tuple::{tuple_run_len, Tuple};

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
/// state, its pair observers and the output of the current call.
pub(crate) struct OperatorCore {
    op: Box<dyn Operator>,
    stateful: bool,
    /// The field the state is keyed on (the input's fields grouping);
    /// `None` for an operator without fields input.
    pub(crate) state_field: Option<usize>,
    pub(crate) state: HashMap<Key, StateValue>,
    /// Per out edge instrumentation (§3.2).
    pub(crate) observers: ObserverSlots,
    /// Output of the dispatches since the caller last cleared it.
    pub(crate) emitted: Vec<Tuple>,
}

impl OperatorCore {
    pub(crate) fn new(op: Box<dyn Operator>, stateful: bool, state_field: Option<usize>) -> Self {
        Self {
            op,
            stateful,
            state_field,
            state: HashMap::new(),
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
