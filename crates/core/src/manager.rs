//! The manager: statistics collection, key-graph partitioning,
//! routing-table generation and reconfiguration orchestration
//! (paper §3.3–3.4).

use std::collections::HashMap;
use std::sync::Arc;

use streamloc_engine::{
    Counter, EdgeId, Grouping, Key, KeyRouter, MetricsRegistry, PoId, PoiId, ReconfigInProgress,
    ReconfigPlan, Simulation,
};
use streamloc_partition::{
    Graph, GreedyPartitioner, HashPartitioner, HierarchicalPartitioner, MultilevelPartitioner,
    Partitioner, VertexId,
};
use streamloc_sketch::SpaceSaving;

use crate::routing_table::RoutingTable;
use crate::store::SavedConfiguration;
use crate::tracker::PairTracker;

/// Which graph partitioner the manager runs (the multilevel one plays
/// the paper's Metis role; the others exist for the ablation benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionerKind {
    /// Multilevel coarsening + refinement (Metis-equivalent, default).
    #[default]
    Multilevel,
    /// One-pass greedy placement.
    Greedy,
    /// Hash assignment (degenerates to plain fields grouping).
    Hash,
}

impl PartitionerKind {
    fn run(self, graph: &Graph, k: usize, alpha: f64, seed: u64) -> streamloc_partition::Partition {
        match self {
            PartitionerKind::Multilevel => {
                MultilevelPartitioner::default().partition(graph, k, alpha, seed)
            }
            PartitionerKind::Greedy => GreedyPartitioner.partition(graph, k, alpha, seed),
            PartitionerKind::Hash => HashPartitioner.partition(graph, k, alpha, seed),
        }
    }
}

/// Manager tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ManagerConfig {
    /// SpaceSaving capacity of each instance's pair tracker (the
    /// paper's "1 MB of memory per POI" corresponds to ~10^4–10^5
    /// monitored pairs).
    pub sketch_capacity: usize,
    /// Use at most this many of the heaviest pair edges per hop when
    /// building the key graph (Fig. 12's x-axis).
    pub max_edges: usize,
    /// Imbalance bound α (paper uses Metis' default 1.03).
    pub alpha: f64,
    /// Partitioner selection.
    pub partitioner: PartitionerKind,
    /// When `true` and the cluster declares more than one rack (with a
    /// server count divisible by the rack count), partition the key
    /// graph hierarchically: across racks first, then across each
    /// rack's servers — keys that cannot share a server still share a
    /// rack, sparing the uplinks (paper §6 future work). Falls back to
    /// the flat partitioner otherwise.
    pub rack_aware: bool,
    /// Warm-start the multilevel partitioner from the previous
    /// window's key assignment when at least half of the current
    /// graph's keys have history: steady-state repartitioning then
    /// only moves the keys whose correlations actually changed,
    /// instead of re-deriving the whole assignment from scratch. Only
    /// applies to [`PartitionerKind::Multilevel`] without rack
    /// awareness; the first window (no history) always runs cold.
    pub warm_start: bool,
    /// Seed for the partitioner's internal randomness.
    pub seed: u64,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        Self {
            sketch_capacity: 100_000,
            max_edges: 1_000_000,
            alpha: 1.03,
            partitioner: PartitionerKind::Multilevel,
            rack_aware: false,
            warm_start: true,
            seed: 0x5eed,
        }
    }
}

/// One instrumented hop: a stateful operator X whose output reaches a
/// stateful operator Y through a fields grouping — either directly, or
/// through a chain of stateless local-or-shuffle stages (the paper's
/// Fig. 3 deployment: `B → (l-o-s) → C → (fields) → D`), which
/// preserve the sender's server so co-locating X's and Y's keys still
/// keeps the whole path in memory.
#[derive(Debug)]
struct Hop {
    /// The instrumented upstream operator (X in §3.2).
    tracked_po: PoId,
    /// The downstream stateful operator (Y).
    dest_po: PoId,
    /// The fields edge into Y (sender = X itself or the last stateless
    /// stage).
    dest_edge: EdgeId,
    /// X's first fields in-edge (the grouping its input keys route
    /// on), when X has one.
    in_edge: Option<EdgeId>,
    trackers: Vec<Arc<PairTracker>>,
}

/// Thresholds for [`Manager::reconfigure_if_beneficial`].
///
/// Locality gain is a fraction in `[0, 1]`; imbalance gain is a
/// reduction of the max/avg load ratio. The imbalance default is
/// deliberately coarser: the candidate's imbalance is measured on the
/// very sample it was optimized for, so small apparent reductions are
/// sampling noise, while a burst-induced skew shows up as a gain of
/// 0.5 or more.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigPolicy {
    /// Deploy when predicted locality improves by at least this much.
    pub min_locality_gain: f64,
    /// Deploy when predicted imbalance drops by at least this much.
    pub min_imbalance_gain: f64,
}

impl Default for ReconfigPolicy {
    fn default() -> Self {
        Self {
            min_locality_gain: 0.05,
            min_imbalance_gain: 0.30,
        }
    }
}

/// Statistics returned by a successful reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigSummary {
    /// Locality the partitioner achieved on the statistics graph (the
    /// "Metis reports 75%" figure of §4.3 — an upper bound on future
    /// locality).
    pub expected_locality: f64,
    /// Imbalance (max/avg part weight) on the statistics graph.
    pub expected_imbalance: f64,
    /// Key states scheduled for migration.
    pub migrations: usize,
    /// Explicit entries across all generated routing tables.
    pub table_entries: usize,
    /// Pair observations merged from all trackers this period.
    pub pairs_observed: u64,
    /// Distinct pair edges actually used to build the graph.
    pub edges_used: usize,
    /// Locality the *currently deployed* tables achieve on the same
    /// statistics — the baseline the candidate is compared against.
    pub current_locality: f64,
    /// Load imbalance (max/avg per-server weight of the downstream
    /// keys) the currently deployed tables produce on the same
    /// statistics.
    pub current_imbalance: f64,
}

impl ReconfigSummary {
    /// Predicted locality improvement of deploying the candidate
    /// tables (`expected_locality - current_locality`).
    #[must_use]
    pub fn locality_gain(&self) -> f64 {
        self.expected_locality - self.current_locality
    }

    /// Predicted imbalance reduction (`current_imbalance -
    /// expected_imbalance`); positive when the candidate rebalances a
    /// skewed deployment (e.g. after a burst shifted the hot keys).
    #[must_use]
    pub fn imbalance_gain(&self) -> f64 {
        self.current_imbalance - self.expected_imbalance
    }
}

/// The routing manager of §3.3: periodically turns the pair statistics
/// collected by the instrumented operators into balanced, locality-
/// maximizing routing tables and deploys them through the online
/// reconfiguration protocol.
///
/// # Example
///
/// See [`Manager::attach`] and the crate-level documentation; the
/// `online_rebalance` example runs the full loop.
#[derive(Debug)]
pub struct Manager {
    config: ManagerConfig,
    hops: Vec<Hop>,
    /// Stateful operators that receive routing tables, with their
    /// fields in-edges.
    routed: Vec<(PoId, Vec<EdgeId>)>,
    /// Last generated table per routed operator (by position in
    /// `routed`).
    tables: Vec<RoutingTable>,
    /// Shared `(hash, stale)` fallback counter handles attached to
    /// every table this manager deploys; `None` until
    /// [`Manager::attach_metrics`] is called.
    fallback_counters: Option<(Counter, Counter)>,
    /// Per-key server assignment of the last computed partition — the
    /// warm-start hint for the next window (empty before the first
    /// round).
    prev_assignment: HashMap<(PoId, Key), u32>,
    /// Optimization rounds run so far; each rebuilt table is stamped
    /// with the round it was generated in (its routing epoch, see
    /// [`RoutingTable::set_epoch`]).
    rounds: u64,
}

impl Manager {
    /// Scans the deployed topology for consecutive stateful operators
    /// joined by fields grouping, installs a [`PairTracker`] on every
    /// instance of each upstream operator, and returns the manager.
    ///
    /// Returns a manager with no hops (a no-op) if the topology has no
    /// consecutive stateful pair — there is nothing to optimize then.
    pub fn attach(sim: &mut Simulation, config: ManagerConfig) -> Self {
        let mut hops = Vec::new();
        let mut routed_set: Vec<PoId> = Vec::new();
        let topo = sim.topology();

        /// `(tracked X, dest Y, observe edge, observe field, dest edge)`.
        type HopSpec = (PoId, PoId, EdgeId, usize, EdgeId);

        /// Follows a chain of stateless local-or-shuffle stages from
        /// `po` until fields edges into stateful operators are found
        /// (the paper's Fig. 3: `B → l-o-s → C → fields → D`).
        fn walk_stateless(
            topo: &streamloc_engine::Topology,
            po: PoId,
            origin: PoId,
            observe_edge: EdgeId,
            out: &mut Vec<HopSpec>,
        ) {
            for &e in topo.out_edges(po) {
                let edge = topo.edge(e);
                let to = edge.to();
                match edge.grouping() {
                    Grouping::Fields { field, .. } if topo.po(to).is_stateful() => {
                        out.push((origin, to, observe_edge, *field, e));
                    }
                    Grouping::LocalOrShuffle if !topo.po(to).is_stateful() => {
                        walk_stateless(topo, to, origin, observe_edge, out);
                    }
                    _ => {}
                }
            }
        }

        let mut hop_specs: Vec<HopSpec> = Vec::new();
        for &from in topo.topo_order() {
            if !topo.po(from).is_stateful() || topo.state_field(from).is_none() {
                continue;
            }
            for &e in topo.out_edges(from) {
                let edge = topo.edge(e);
                let to = edge.to();
                match edge.grouping() {
                    Grouping::Fields { field, .. } if topo.po(to).is_stateful() => {
                        hop_specs.push((from, to, e, *field, e));
                    }
                    Grouping::LocalOrShuffle if !topo.po(to).is_stateful() => {
                        walk_stateless(topo, to, from, e, &mut hop_specs);
                    }
                    _ => {}
                }
            }
        }
        for &(from, to, ..) in &hop_specs {
            for po in [from, to] {
                if !routed_set.contains(&po) {
                    routed_set.push(po);
                }
            }
        }
        for (from, to, observe_edge, observe_field, dest_edge) in hop_specs {
            let in_edge = sim
                .topology()
                .in_edges(from)
                .iter()
                .copied()
                .find(|&e| {
                    matches!(sim.topology().edge(e).grouping(), Grouping::Fields { .. })
                });
            let trackers: Vec<Arc<PairTracker>> = sim
                .poi_ids(from)
                .into_iter()
                .map(|poi| {
                    let tracker = PairTracker::new(config.sketch_capacity);
                    sim.add_pair_observer(
                        poi,
                        observe_edge,
                        observe_field,
                        Box::new(tracker.handle()),
                    );
                    tracker
                })
                .collect();
            hops.push(Hop {
                tracked_po: from,
                dest_po: to,
                dest_edge,
                in_edge,
                trackers,
            });
        }
        let routed = routed_set
            .into_iter()
            .map(|po| {
                let in_edges = sim
                    .topology()
                    .in_edges(po)
                    .iter()
                    .copied()
                    .filter(|&e| {
                        matches!(
                            sim.topology().edge(e).grouping(),
                            Grouping::Fields { .. }
                        )
                    })
                    .collect();
                (po, in_edges)
            })
            .collect::<Vec<_>>();
        let tables = vec![RoutingTable::new(); routed.len()];
        Self {
            config,
            hops,
            routed,
            tables,
            fallback_counters: None,
            prev_assignment: HashMap::new(),
            rounds: 0,
        }
    }

    /// Registers the routing fallback counters in `registry` and wires
    /// them into every table this manager has deployed or will deploy:
    /// `routing_hash_fallback_total` counts lookups of keys with no
    /// explicit entry, `routing_stale_entry_fallback_total` counts
    /// lookups whose entry pointed past the current parallelism.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        let hash = registry.counter(
            "routing_hash_fallback_total",
            "table lookups that hash-routed because the key had no entry",
        );
        let stale = registry.counter(
            "routing_stale_entry_fallback_total",
            "table lookups that hash-routed because the entry was out of range",
        );
        for table in &mut self.tables {
            table.attach_fallback_counters(hash.clone(), stale.clone());
        }
        self.fallback_counters = Some((hash, stale));
    }

    /// Number of instrumented hops.
    #[must_use]
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// The routing table last deployed for `po`, if `po` is routed by
    /// this manager.
    #[must_use]
    pub fn table_for(&self, po: PoId) -> Option<&RoutingTable> {
        self.routed
            .iter()
            .position(|&(p, _)| p == po)
            .map(|i| &self.tables[i])
    }

    /// Pair observations accumulated since the last reconfiguration.
    #[must_use]
    pub fn pairs_observed(&self) -> u64 {
        self.hops
            .iter()
            .flat_map(|h| &h.trackers)
            .map(|t| t.total())
            .sum()
    }

    /// Runs one full optimization round: merge statistics (①–②),
    /// partition the key graph, generate routing tables, and deploy
    /// them with state migration through the online protocol (③–⑥).
    /// Statistics are reset afterwards so the next round sees fresh
    /// data.
    ///
    /// # Errors
    ///
    /// Returns [`ReconfigInProgress`] (leaving statistics intact) if
    /// the previous wave has not finished, or if the manager process
    /// is down ([`Simulation::manager_down`]) — a degraded deployment
    /// keeps routing by hash and cannot be reconfigured until
    /// [`Simulation::revive_manager`] is called.
    pub fn reconfigure(
        &mut self,
        sim: &mut Simulation,
    ) -> Result<ReconfigSummary, ReconfigInProgress> {
        if sim.manager_down() {
            return Err(ReconfigInProgress);
        }
        let (summary, plan, tables) = self.compute(sim);
        self.deploy(sim, plan, tables)?;
        Ok(summary)
    }

    /// Starts the wave for `plan`, commits `tables` as the deployed
    /// ones, charges the statistics upload and resets the statistics.
    fn deploy(
        &mut self,
        sim: &mut Simulation,
        plan: ReconfigPlan,
        tables: Vec<RoutingTable>,
    ) -> Result<(), ReconfigInProgress> {
        sim.start_reconfiguration(plan)?;
        self.tables = tables;
        self.charge_metrics_upload(sim);
        for hop in &self.hops {
            for tracker in &hop.trackers {
                tracker.reset();
            }
        }
        Ok(())
    }

    /// Estimates the impact of reconfiguring *now*, without applying
    /// anything or resetting statistics: the candidate tables'
    /// expected locality vs the locality the current tables achieve on
    /// the same fresh statistics — the estimator sketched as future
    /// work in the paper's §6 ("predict the impact of a
    /// reconfiguration to provide more fine-grained information to the
    /// manager").
    #[must_use]
    pub fn estimate(&mut self, sim: &Simulation) -> ReconfigSummary {
        self.compute(sim).0
    }

    /// Reconfigures only when the predicted *locality* gain reaches
    /// `min_gain`, or the predicted *imbalance* reduction does (a
    /// burst may leave locality intact while piling correlated hot
    /// keys on one server — the paper's Fig. 11b spikes). Otherwise
    /// the deployment and the accumulated statistics are left
    /// untouched, so a later period can act on more evidence: the
    /// guard against paying migration costs for ephemeral
    /// correlations (§6).
    ///
    /// # Errors
    ///
    /// Returns [`ReconfigInProgress`] if a wave is still running or
    /// the manager process is down (see [`Manager::reconfigure`]).
    pub fn reconfigure_if_beneficial(
        &mut self,
        sim: &mut Simulation,
        policy: ReconfigPolicy,
    ) -> Result<Option<ReconfigSummary>, ReconfigInProgress> {
        if sim.manager_down() {
            return Err(ReconfigInProgress);
        }
        let (summary, plan, tables) = self.compute(sim);
        if summary.locality_gain() < policy.min_locality_gain
            && summary.imbalance_gain() < policy.min_imbalance_gain
        {
            return Ok(None);
        }
        self.deploy(sim, plan, tables)?;
        Ok(Some(summary))
    }

    /// Debits the ①/② statistics upload from each instrumented
    /// instance's NIC: ~24 bytes per monitored pair (two keys and a
    /// count) plus framing. Goes through
    /// [`Simulation::charge_statistics_upload`] so the exchange lands
    /// in the event trace and the statistics-bytes counter.
    fn charge_metrics_upload(&self, sim: &mut Simulation) {
        for hop in &self.hops {
            for (poi, tracker) in sim.poi_ids(hop.tracked_po).into_iter().zip(&hop.trackers) {
                let bytes = tracker.snapshot().len() as u64 * 24 + 256;
                sim.charge_statistics_upload(poi, bytes);
            }
        }
    }

    /// Snapshots the currently deployed routing tables for stable
    /// storage (paper §3.4: the manager persists every configuration
    /// before reconfiguring). Pair with a
    /// [`ConfigStore`](crate::ConfigStore).
    #[must_use]
    pub fn snapshot_configuration(&self, sim: &Simulation) -> SavedConfiguration {
        let mut config = SavedConfiguration::new();
        for (slot, (po, _)) in self.routed.iter().enumerate() {
            config.insert(sim.topology().po(*po).name(), self.tables[slot].clone());
        }
        config
    }

    /// Re-installs a previously saved configuration after a manager
    /// restart: tables are deployed immediately on every sender (no
    /// wave, no migration — after a crash, state recovery is the
    /// engine's concern, §3.4). Tables for operators absent from this
    /// topology are ignored.
    pub fn restore_configuration(
        &mut self,
        sim: &mut Simulation,
        config: &SavedConfiguration,
    ) {
        for (slot, (po, in_edges)) in self.routed.iter().enumerate() {
            let name = sim.topology().po(*po).name().to_owned();
            let Some(table) = config.table(&name) else {
                continue;
            };
            let mut table = table.clone();
            // The saved configuration may predate a parallelism change;
            // entries pointing past the current instance count would
            // silently hash-route forever, so drop them at install time.
            table.purge_out_of_range(sim.poi_ids(*po).len());
            if let Some((hash, stale)) = &self.fallback_counters {
                table.attach_fallback_counters(hash.clone(), stale.clone());
            }
            self.tables[slot] = table.clone();
            let shared: Arc<dyn KeyRouter> = Arc::new(table);
            for &edge in in_edges {
                let sender = sim.topology().edge(edge).from();
                for poi in sim.poi_ids(sender) {
                    sim.set_poi_router(poi, edge, Arc::clone(&shared));
                }
            }
        }
    }

    /// Computes and *immediately* installs routing tables on every
    /// sender, bypassing the protocol and migrating no state. Only
    /// safe before any data has flowed (the paper's offline mode:
    /// "optimized routing tables can be loaded at the start of the
    /// application", §3.4).
    pub fn apply_offline(&mut self, sim: &mut Simulation) -> ReconfigSummary {
        let (summary, plan, tables) = self.compute(sim);
        for (poi, edge, router) in plan.routers {
            sim.set_poi_router(poi, edge, router);
        }
        self.tables = tables;
        for hop in &self.hops {
            for tracker in &hop.trackers {
                tracker.reset();
            }
        }
        summary
    }

    /// Builds the key graph, partitions it and assembles the plan,
    /// returning the new tables for the caller to commit to
    /// `self.tables` once the plan is deployed: migrations are planned
    /// against the tables actually in force.
    fn compute(
        &mut self,
        sim: &Simulation,
    ) -> (ReconfigSummary, ReconfigPlan, Vec<RoutingTable>) {
        let servers = sim.cluster().servers;
        let mut builder = Graph::builder();
        let mut vmap: HashMap<(PoId, Key), VertexId> = HashMap::new();
        let mut pairs_observed = 0u64;
        let mut edges_used = 0usize;
        let mut current_local = 0u64;
        let mut current_weight = 0u64;
        let mut current_server_load = vec![0u64; servers];

        // ①–② in parallel: each hop's tracker snapshots and
        // SpaceSaving merges are independent (trackers are internally
        // locked), and the merge is the per-hop O(capacity) heavy step
        // — so rebuild latency scales with the slowest hop, not the
        // hop count. Scoped threads: no new dependencies, nothing
        // outlives this call.
        let capacity = self.config.sketch_capacity;
        type Merged = (Option<SpaceSaving<(Key, Key)>>, u64);
        let merged_per_hop: Vec<Merged> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .hops
                .iter()
                .map(|hop| {
                    scope.spawn(move || {
                        let mut pairs = 0u64;
                        let mut merged: Option<SpaceSaving<(Key, Key)>> = None;
                        for tracker in &hop.trackers {
                            let snap = tracker.snapshot();
                            pairs += snap.total();
                            merged = Some(match merged {
                                None => snap,
                                Some(m) => SpaceSaving::merged(&m, &snap, capacity),
                            });
                        }
                        (merged, pairs)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("hop merge thread panicked"))
                .collect()
        });

        for (hop, (merged, pairs)) in self.hops.iter().zip(merged_per_hop) {
            pairs_observed += pairs;
            let Some(merged) = merged else { continue };
            // Where the *current* tables send each hop (for the
            // impact estimate): the sender instances of both edges.
            let cur_route = |edge: EdgeId, key: Key| -> Option<u32> {
                let sender = sim.topology().edge(edge).from();
                let poi = sim.poi_ids(sender)[0];
                Some(sim.current_route(poi, edge, key))
            };
            let x_pois = sim.poi_ids(hop.tracked_po);
            let y_pois = sim.poi_ids(hop.dest_po);
            for entry in merged.iter().take(self.config.max_edges) {
                let &(ka, kb) = entry.key;
                let count = entry.count;
                if count == 0 {
                    continue;
                }
                if let Some(in_edge) = hop.in_edge {
                    let sa = cur_route(in_edge, ka)
                        .map(|i| sim.poi_server(x_pois[i as usize]));
                    let sb = cur_route(hop.dest_edge, kb)
                        .map(|i| sim.poi_server(y_pois[i as usize]));
                    current_weight += count;
                    if sa == sb {
                        current_local += count;
                    }
                    if let Some(server) = sb {
                        current_server_load[server.0] += count;
                    }
                }
                let va = *vmap
                    .entry((hop.tracked_po, ka))
                    .or_insert_with(|| builder.add_vertex(0));
                let vb = *vmap
                    .entry((hop.dest_po, kb))
                    .or_insert_with(|| builder.add_vertex(0));
                builder.add_vertex_weight(va, count);
                builder.add_vertex_weight(vb, count);
                builder.add_edge(va, vb, count);
                edges_used += 1;
            }
        }

        let graph = builder.build();
        // Warm-start hint: the part each vertex's key landed on last
        // window (`u32::MAX` = no history). Only worthwhile once most
        // keys carry history; a mostly-cold graph partitions better
        // from scratch.
        let mut hint = vec![u32::MAX; graph.vertex_count()];
        let mut hinted = 0usize;
        for (pk, &vertex) in &vmap {
            if let Some(&part) = self.prev_assignment.get(pk) {
                hint[vertex as usize] = part;
                hinted += 1;
            }
        }
        let racks = sim.cluster().rack_count;
        let rack_aware = self.config.rack_aware && racks > 1 && servers.is_multiple_of(racks);
        let warm = self.config.warm_start
            && !rack_aware
            && self.config.partitioner == PartitionerKind::Multilevel
            && graph.vertex_count() > 0
            && 2 * hinted >= graph.vertex_count();
        let partition = if rack_aware {
            HierarchicalPartitioner::new(racks, servers / racks).partition(
                &graph,
                servers,
                self.config.alpha,
                self.config.seed,
            )
        } else if warm {
            MultilevelPartitioner::default().partition_with_hint(
                &graph,
                servers,
                self.config.alpha,
                self.config.seed,
                &hint,
            )
        } else {
            self.config
                .partitioner
                .run(&graph, servers, self.config.alpha, self.config.seed)
        };
        self.prev_assignment = vmap
            .iter()
            .map(|(&pk, &vertex)| (pk, partition.part(vertex)))
            .collect();
        let expected_locality = partition.locality(&graph);
        let expected_imbalance = partition.imbalance(&graph);

        // Turn parts (servers) into per-operator instance assignments.
        let mut assignments: Vec<HashMap<Key, u32>> =
            vec![HashMap::new(); self.routed.len()];
        for (&(po, key), &vertex) in &vmap {
            let Some(slot) = self.routed.iter().position(|&(p, _)| p == po) else {
                continue;
            };
            let part = partition.part(vertex);
            let instance = instance_on_server(sim, po, part as usize);
            assignments[slot].insert(key, instance);
        }

        // Assemble tables, router updates and migrations.
        self.rounds += 1;
        let mut routers: Vec<(PoiId, EdgeId, Arc<dyn KeyRouter>)> = Vec::new();
        let mut migrations = Vec::new();
        let mut table_entries = 0usize;
        let mut tables = Vec::with_capacity(self.routed.len());
        for (slot, (po, in_edges)) in self.routed.iter().enumerate() {
            let mut table = RoutingTable::from_assignments(
                assignments[slot].iter().map(|(&k, &i)| (k, i)),
            );
            table.set_epoch(self.rounds);
            table_entries += table.len();
            if let Some(&first_edge) = in_edges.first() {
                // A key leaving the table falls back to hash routing;
                // its state must move there too, or it is stranded on
                // the old owner. Resolved before the fallback counters
                // are attached, so planning does not count as routing.
                let parallelism = sim.poi_ids(*po).len();
                let leaving: Vec<(Key, u32)> = self.tables[slot]
                    .iter()
                    .filter(|(key, _)| !assignments[slot].contains_key(key))
                    .map(|(key, _)| (key, table.route(key, parallelism)))
                    .collect();
                assignments[slot].extend(leaving);
                migrations.extend(sim.migrations_for(first_edge, &assignments[slot]));
            }
            if let Some((hash, stale)) = &self.fallback_counters {
                table.attach_fallback_counters(hash.clone(), stale.clone());
            }
            let shared: Arc<dyn KeyRouter> = Arc::new(table.clone());
            for &edge in in_edges {
                let sender = sim.topology().edge(edge).from();
                for poi in sim.poi_ids(sender) {
                    routers.push((poi, edge, Arc::clone(&shared)));
                }
            }
            tables.push(table);
        }

        let summary = ReconfigSummary {
            expected_locality,
            expected_imbalance,
            migrations: migrations.len(),
            table_entries,
            pairs_observed,
            edges_used,
            current_locality: if current_weight == 0 {
                0.0
            } else {
                current_local as f64 / current_weight as f64
            },
            current_imbalance: {
                let total: u64 = current_server_load.iter().sum();
                if total == 0 {
                    1.0
                } else {
                    let avg = total as f64 / servers as f64;
                    *current_server_load.iter().max().expect("servers > 0") as f64 / avg
                }
            },
        };
        (
            summary,
            ReconfigPlan {
                routers,
                migrations,
            },
            tables,
        )
    }
}

/// The instance of `po` hosted on server `server`, falling back to
/// `server % parallelism` when the placement puts no instance there.
fn instance_on_server(sim: &Simulation, po: PoId, server: usize) -> u32 {
    let pois = sim.poi_ids(po);
    pois.iter()
        .position(|&poi| sim.poi_server(poi).0 == server)
        .unwrap_or(server % pois.len()) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use streamloc_engine::{
        ClusterSpec, CountOperator, Placement, SimConfig, SourceRate, Topology, Tuple,
    };

    /// The paper's chain with a perfectly correlated synthetic source:
    /// tuple (i, i + n) — key i routes A, key i+n routes B, and the
    /// pair is deterministic, so ideal tables achieve 100% locality.
    fn correlated_sim(n: usize) -> Simulation {
        let keys = n as u64 * 4;
        let mut b = Topology::builder();
        let s = b.source("S", n, SourceRate::PerSecond(20_000.0), move |i| {
            let mut c = i as u64;
            Box::new(move || {
                c = c.wrapping_add(0x9e37_79b9);
                let ka = c % keys;
                Some(Tuple::new([Key::new(ka), Key::new(ka + keys)], 64))
            })
        });
        let a = b.stateful("A", n, CountOperator::factory());
        let bb = b.stateful("B", n, CountOperator::factory());
        b.connect(s, a, Grouping::fields(0));
        b.connect(a, bb, Grouping::fields(1));
        let topo = b.build().unwrap();
        let cluster = ClusterSpec::lan_10g(n);
        let placement = Placement::aligned(&topo, n);
        Simulation::new(topo, cluster, placement, SimConfig::default())
    }

    #[test]
    fn attach_finds_the_hop() {
        let mut sim = correlated_sim(2);
        let mgr = Manager::attach(&mut sim, ManagerConfig::default());
        assert_eq!(mgr.hop_count(), 1);
        assert_eq!(mgr.pairs_observed(), 0);
    }

    #[test]
    fn no_hop_without_consecutive_stateful() {
        let mut b = Topology::builder();
        let s = b.source("S", 1, SourceRate::Saturate, |_| {
            Box::new(|| Some(Tuple::new([Key::new(0)], 0)))
        });
        let a = b.stateful("A", 1, CountOperator::factory());
        b.connect(s, a, Grouping::fields(0));
        let topo = b.build().unwrap();
        let placement = Placement::aligned(&topo, 1);
        let mut sim = Simulation::new(
            topo,
            ClusterSpec::lan_10g(1),
            placement,
            SimConfig::default(),
        );
        let mgr = Manager::attach(&mut sim, ManagerConfig::default());
        assert_eq!(mgr.hop_count(), 0);
    }

    #[test]
    fn reconfigure_raises_locality_to_one() {
        let n = 3;
        let mut sim = correlated_sim(n);
        let mut mgr = Manager::attach(&mut sim, ManagerConfig::default());

        sim.run(20);
        assert!(mgr.pairs_observed() > 0);
        let a_po = sim.topology().po_by_name("A").unwrap();
        let b_po = sim.topology().po_by_name("B").unwrap();
        let edge_ab = sim.topology().edge_between(a_po, b_po).unwrap();
        let before = sim.metrics().edge_locality(edge_ab, 0);
        assert!(before < 0.6, "hash locality {before} should be ~1/n");

        let summary = mgr.reconfigure(&mut sim).unwrap();
        assert!(summary.expected_locality > 0.99, "{summary:?}");
        assert!(summary.table_entries > 0);
        assert_eq!(mgr.pairs_observed(), 0, "stats reset after reconfig");

        sim.run(40);
        assert!(!sim.reconfig_active());
        assert_eq!(sim.pending_migrations(), 0);
        let windows = sim.metrics().windows();
        let tail = &windows[windows.len() - 10..];
        let (mut local, mut remote) = (0u64, 0u64);
        for w in tail {
            local += w.edges[edge_ab.index()].local;
            remote += w.edges[edge_ab.index()].remote;
        }
        let after = local as f64 / (local + remote).max(1) as f64;
        assert!(
            after > 0.95,
            "post-reconfig locality {after} should be near 1"
        );
    }

    #[test]
    fn load_stays_balanced() {
        let n = 3;
        let mut sim = correlated_sim(n);
        let mut mgr = Manager::attach(&mut sim, ManagerConfig::default());
        sim.run(20);
        let summary = mgr.reconfigure(&mut sim).unwrap();
        assert!(
            summary.expected_imbalance < 1.25,
            "imbalance {} too high",
            summary.expected_imbalance
        );
        sim.run(40);
        let b_po = sim.topology().po_by_name("B").unwrap();
        let pois = sim.poi_ids(b_po);
        let imbalance = sim.metrics().load_imbalance(&pois, 40);
        assert!(imbalance < 1.3, "runtime imbalance {imbalance} too high");
    }

    #[test]
    fn tables_cover_both_operators() {
        let mut sim = correlated_sim(2);
        let mut mgr = Manager::attach(&mut sim, ManagerConfig::default());
        sim.run(10);
        mgr.reconfigure(&mut sim).unwrap();
        let a = sim.topology().po_by_name("A").unwrap();
        let b = sim.topology().po_by_name("B").unwrap();
        assert!(mgr.table_for(a).is_some_and(|t| !t.is_empty()));
        assert!(mgr.table_for(b).is_some_and(|t| !t.is_empty()));
        assert!(mgr.table_for(sim.topology().po_by_name("S").unwrap()).is_none());
    }

    #[test]
    fn correlated_keys_colocate() {
        let mut sim = correlated_sim(2);
        let keys = 2u64 * 4;
        let mut mgr = Manager::attach(&mut sim, ManagerConfig::default());
        sim.run(15);
        mgr.reconfigure(&mut sim).unwrap();
        let a = sim.topology().po_by_name("A").unwrap();
        let b = sim.topology().po_by_name("B").unwrap();
        let ta = mgr.table_for(a).unwrap();
        let tb = mgr.table_for(b).unwrap();
        // Pair (k, k + keys) must be assigned to the same server
        // (= instance, with aligned placement).
        let mut checked = 0;
        for k in 0..keys {
            if let (Some(ia), Some(ib)) = (ta.get(Key::new(k)), tb.get(Key::new(k + keys))) {
                assert_eq!(ia, ib, "correlated pair ({k}) split across servers");
                checked += 1;
            }
        }
        assert!(checked > 0, "no pair covered by the tables");
    }

    #[test]
    fn reconfigure_while_wave_active_fails_and_keeps_stats() {
        let mut sim = correlated_sim(2);
        let mut mgr = Manager::attach(&mut sim, ManagerConfig::default());
        sim.run(10);
        mgr.reconfigure(&mut sim).unwrap();
        // Wave still propagating (no step since): second call fails.
        let before = mgr.pairs_observed();
        assert!(mgr.reconfigure(&mut sim).is_err());
        assert_eq!(mgr.pairs_observed(), before);
    }

    #[test]
    fn warm_start_keeps_steady_state_assignment_stable() {
        // Round 1 runs cold (no history). Round 2 sees statistically
        // identical fresh data; the warm-started partition must keep
        // the same near-perfect locality and — since nothing changed —
        // schedule (almost) no migrations.
        let n = 3;
        let mut sim = correlated_sim(n);
        let mut mgr = Manager::attach(&mut sim, ManagerConfig::default());
        sim.run(20);
        let first = mgr.reconfigure(&mut sim).unwrap();
        assert!(first.expected_locality > 0.99, "{first:?}");
        sim.run(20);
        let second = mgr.reconfigure(&mut sim).unwrap();
        assert!(second.expected_locality > 0.99, "{second:?}");
        assert!(
            second.migrations * 10 <= first.migrations.max(1),
            "steady state moved {} keys (first round moved {})",
            second.migrations,
            first.migrations
        );
    }

    #[test]
    fn warm_start_matches_cold_quality() {
        let n = 3;
        let mut warm_sim = correlated_sim(n);
        let mut cold_sim = correlated_sim(n);
        let mut warm_mgr = Manager::attach(&mut warm_sim, ManagerConfig::default());
        let mut cold_mgr = Manager::attach(
            &mut cold_sim,
            ManagerConfig {
                warm_start: false,
                ..ManagerConfig::default()
            },
        );
        for (sim, mgr) in [(&mut warm_sim, &mut warm_mgr), (&mut cold_sim, &mut cold_mgr)] {
            sim.run(20);
            mgr.reconfigure(sim).unwrap();
            sim.run(20);
        }
        let warm = warm_mgr.reconfigure(&mut warm_sim).unwrap();
        let cold = cold_mgr.reconfigure(&mut cold_sim).unwrap();
        assert!(
            warm.expected_locality >= cold.expected_locality - 0.02,
            "warm {} vs cold {}",
            warm.expected_locality,
            cold.expected_locality
        );
        assert!(warm.expected_imbalance < 1.25, "{warm:?}");
    }

    #[test]
    fn apply_offline_installs_tables_without_migration() {
        let mut sim = correlated_sim(2);
        let mut mgr = Manager::attach(&mut sim, ManagerConfig::default());
        sim.run(10);
        let summary = mgr.apply_offline(&mut sim);
        assert!(summary.expected_locality > 0.99);
        assert!(!sim.reconfig_active(), "offline mode bypasses the wave");
        sim.run(20);
        assert_eq!(sim.pending_migrations(), 0);
    }

    #[test]
    fn keys_leaving_the_tables_are_migrated() {
        // The key window slides each round, so most keys of one round's
        // tables are absent from the next round's statistics and fall
        // back to hash routing. Every key of the old ∪ new table whose
        // route changes must get exactly one migration, old owner → new.
        use std::sync::atomic::{AtomicU64, Ordering};
        let n = 3;
        let phase = Arc::new(AtomicU64::new(0));
        let mut b = Topology::builder();
        let window = Arc::clone(&phase);
        let s = b.source("S", n, SourceRate::PerSecond(20_000.0), move |i| {
            let window = Arc::clone(&window);
            let mut c = i as u64;
            Box::new(move || {
                c = c.wrapping_add(0x9e37_79b9);
                let ka = 8 * window.load(Ordering::Relaxed) + c % 12;
                Some(Tuple::new([Key::new(ka), Key::new(ka + 1_000)], 64))
            })
        });
        let a = b.stateful("A", n, CountOperator::factory());
        let bb = b.stateful("B", n, CountOperator::factory());
        b.connect(s, a, Grouping::fields(0));
        b.connect(a, bb, Grouping::fields(1));
        let topo = b.build().unwrap();
        let placement = Placement::aligned(&topo, n);
        let mut sim = Simulation::new(topo, ClusterSpec::lan_10g(n), placement, SimConfig::default());
        let mut mgr = Manager::attach(&mut sim, ManagerConfig::default());

        let mut leaving = 0;
        for round in 0..3 {
            phase.store(round, Ordering::Relaxed);
            sim.run(20);
            let old = mgr.tables.clone();
            // An estimate deploys nothing: the plan must still be made
            // against the tables in force.
            let _ = mgr.estimate(&sim);
            let (_, plan, tables) = mgr.compute(&sim);
            for (slot, &(po, _)) in mgr.routed.iter().enumerate() {
                let pois = sim.poi_ids(po);
                let keys: HashSet<Key> = old[slot]
                    .iter()
                    .chain(tables[slot].iter())
                    .map(|(key, _)| key)
                    .collect();
                for key in keys {
                    let from = old[slot].route(key, n) as usize;
                    let to = tables[slot].route(key, n) as usize;
                    if old[slot].get(key).is_some() && tables[slot].get(key).is_none() {
                        leaving += 1;
                    }
                    let moves: Vec<_> = plan
                        .migrations
                        .iter()
                        .filter(|&&(_, k, dest)| k == key && pois.contains(&dest))
                        .copied()
                        .collect();
                    let expected = if from == to {
                        vec![]
                    } else {
                        vec![(pois[from], key, pois[to])]
                    };
                    assert_eq!(moves, expected, "round {round}, key {key}");
                }
            }
            mgr.deploy(&mut sim, plan, tables).unwrap();
            sim.run(20);
            assert!(!sim.reconfig_active(), "wave of round {round} did not finish");
        }
        assert!(leaving > 0, "no key ever left the tables");
    }
}
