//! The online reconfiguration mechanism (paper §3.4, Algorithm 1).
//!
//! This module implements the *mechanism* side of the protocol — the
//! wave of control messages, routing-table swaps, state migration and
//! tuple buffering executed by the operator instances. The *policy*
//! side (collecting statistics, partitioning the key graph and
//! computing the [`ReconfigPlan`]) lives in `streamloc-core`'s
//! `Manager`, mirroring the paper's separation between POIs and the
//! manager process.
//!
//! Message flow, following Algorithm 1 (steps ① GET_METRICS and
//! ② SEND_METRICS are performed by the manager reading the installed
//! [`PairObserver`](crate::PairObserver)s):
//!
//! * ③ `SEND_RECONF` — every POI receives its routing-table update,
//!   send list and receive list ([`ReconfigPlan::split`]); it
//!   immediately starts buffering tuples for receive-list keys.
//! * ④ `ACK_RECONF` — each POI reports it staged.
//! * ⑤ `PROPAGATE` — once all POIs acked, the manager propagates to
//!   the source POIs; each POI that has received a propagate from
//!   *every* instance of *every* predecessor operator applies its new
//!   routing table, ships reassigned key state (⑥ `MIGRATE`) to the
//!   new owners, and forwards the propagate wave downstream.
//!
//! The per-POI rule is the sans-IO [`WaveParticipant`] and the
//! manager's the sans-IO [`WaveCoordinator`], both shared with the live
//! runtime. A wave that misses its deadline rolls forward: the
//! coordinator restages what is left and force-applies it. Only an
//! abandoned wave is rolled back (`rollback_wave`). This
//! module holds the simulator's I/O around them: the control queue,
//! tracing, NIC charging, and the rollback.
//!
//! Data streams are never suspended. A tuple reaching the new owner of
//! a key before that key's state arrives is buffered (Algorithm 1's
//! buffering rule); a tuple reaching the *old* owner after its state
//! departed — possible because in-flight tuples are not flushed — is
//! forwarded to the new owner, preserving exactly-once state updates.
//!
//! [`WaveParticipant`]: crate::wave::WaveParticipant
//! [`WaveCoordinator`]: crate::wave::WaveCoordinator

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::fault::{ControlClass, ControlFate};
use crate::key::Key;
use crate::metrics::WindowMetrics;
use crate::obs::TraceEventKind;
use crate::operator::StateValue;
use crate::router::{HashRouter, KeyRouter};
use crate::sim::{LostMigration, NetMsg, NetPayload, Simulation};
use crate::topology::{EdgeId, Grouping, PoId, PoiId};
use crate::wave::{WaveCoordinator, WaveSend};

/// How many times a dropped ⑥ `MIGRATE` message is retransmitted
/// before the engine recovers the state out of band (from its
/// replicated copy) and surfaces [`ReconfigError::MigrationLost`].
pub(crate) const MAX_MIGRATE_RETRANSMITS: u32 = 3;

/// Windows between retransmissions of an undelivered migration.
pub(crate) const MIGRATE_RETRY_WINDOWS: u64 = 3;

/// A complete reconfiguration computed by the manager: new routers for
/// the fields-grouped edges and the key-state migrations they imply.
#[derive(Clone)]
pub struct ReconfigPlan {
    /// `(sender instance, out edge, new router)` updates.
    pub routers: Vec<(PoiId, EdgeId, Arc<dyn KeyRouter>)>,
    /// `(old owner, key, new owner)` state transfers. Old and new
    /// owner must be instances of the same operator.
    pub migrations: Vec<(PoiId, Key, PoiId)>,
}

impl fmt::Debug for ReconfigPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReconfigPlan")
            .field("router_updates", &self.routers.len())
            .field("migrations", &self.migrations.len())
            .finish()
    }
}

impl ReconfigPlan {
    /// An empty plan (useful as a no-op reconfiguration in tests).
    #[must_use]
    pub fn empty() -> Self {
        Self {
            routers: Vec::new(),
            migrations: Vec::new(),
        }
    }
}

/// Error returned when a reconfiguration overlaps a running one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconfigInProgress;

impl fmt::Display for ReconfigInProgress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("a reconfiguration wave is already in progress")
    }
}

impl std::error::Error for ReconfigInProgress {}

/// Why a reconfiguration wave failed (surfaced per window in
/// [`WindowMetrics::reconfig_errors`] and returned by the live
/// runtime's wave driver).
///
/// [`WindowMetrics::reconfig_errors`]: crate::WindowMetrics::reconfig_errors
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigError {
    /// The wave missed its deadline (attempt number is 0-based).
    Timeout {
        /// Which attempt timed out (0 = the first).
        attempt: u32,
    },
    /// A participant exited mid-wave (live runtime), so the wave could
    /// not complete as sent.
    Nack,
    /// A state migration was lost in transit and, after retransmission
    /// attempts were exhausted, recovered out of band from the
    /// engine's replicated copy.
    MigrationLost,
    /// The wave was rolled back for good: routing tables and key
    /// ownership were reverted to their pre-wave values.
    Aborted,
}

impl fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Timeout { attempt } => {
                write!(f, "reconfiguration attempt {attempt} missed its deadline")
            }
            Self::Nack => f.write_str("a participant rejected the staged configuration"),
            Self::MigrationLost => {
                f.write_str("a state migration was lost and recovered out of band")
            }
            Self::Aborted => f.write_str("the reconfiguration wave was rolled back"),
        }
    }
}

impl std::error::Error for ReconfigError {}

/// Failure-handling knobs of one reconfiguration wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveConfig {
    /// Windows an attempt may take (at least 2) before the manager
    /// restages what is left of the wave and force-applies it.
    pub deadline_windows: u64,
    /// Attempts after the first before the wave is abandoned (and, in
    /// the simulator, rolled back).
    pub max_retries: u32,
    /// Deadline multiplier applied per retry (exponential backoff:
    /// attempt `k` gets `max(deadline_windows, 2) * backoff^k`).
    pub backoff: u64,
}

impl Default for WaveConfig {
    fn default() -> Self {
        Self {
            deadline_windows: 16,
            max_retries: 2,
            backoff: 2,
        }
    }
}

/// The running wave: its coordinator, and what an abandoned wave needs
/// to roll back (the plan and the pre-wave router snapshot).
pub(crate) struct ReconfigExec {
    pub(crate) coord: WaveCoordinator,
    pub(crate) plan: ReconfigPlan,
    /// Stable identifier of this wave across retries (trace
    /// attribution); assigned from `Simulation::wave_seq`.
    pub(crate) wave_id: u64,
    /// Window the wave (attempt 0) started in.
    pub(crate) started_at: u64,
    /// Every POI's fields routers as they were before the wave, for
    /// rollback.
    pub(crate) pre_wave_routers: Vec<Vec<(EdgeId, Arc<dyn KeyRouter>)>>,
}

impl Simulation {
    /// Starts the online reconfiguration protocol for `plan` with the
    /// default [`WaveConfig`].
    ///
    /// Control messages take one window per hop, mirroring the paper's
    /// progressive wave; the data stream keeps flowing throughout.
    ///
    /// # Errors
    ///
    /// Returns [`ReconfigInProgress`] if a previous wave has not
    /// finished applying (pending state migrations do not block a new
    /// wave, matching the paper's continuous operation), or if the
    /// manager has been killed by fault injection — a dead manager
    /// cannot orchestrate a wave.
    pub fn start_reconfiguration(&mut self, plan: ReconfigPlan) -> Result<(), ReconfigInProgress> {
        self.start_reconfiguration_with(plan, WaveConfig::default())
    }

    /// Like [`start_reconfiguration`](Self::start_reconfiguration)
    /// with explicit deadline/retry behaviour.
    ///
    /// # Errors
    ///
    /// Same as [`start_reconfiguration`](Self::start_reconfiguration).
    ///
    /// # Panics
    ///
    /// Panics if a migration names an unknown instance or moves state
    /// between instances of different operators.
    pub fn start_reconfiguration_with(
        &mut self,
        plan: ReconfigPlan,
        wave: WaveConfig,
    ) -> Result<(), ReconfigInProgress> {
        if self.reconfig.is_some() || self.manager_down {
            return Err(ReconfigInProgress);
        }
        let staged = plan.split(&self.topo.instance_bases(), self.pois.len());
        let mut coord = WaveCoordinator::new(staged, self.topo.root_instances(), wave);
        coord.start(self.window_index);
        let pre_wave_routers = self.snapshot_routers();
        let wave_id = self.wave_seq;
        self.wave_seq += 1;
        self.last_wave = Some(wave_id);
        if self.tracer.is_some() {
            // ①/② — the metrics exchange that precedes every wave: the
            // manager reads each POI's observers before computing the
            // plan. Byte-accurate NIC charging happens separately via
            // `charge_statistics_upload`.
            for poi in 0..self.pois.len() {
                self.trace(Some(wave_id), TraceEventKind::GetMetrics { poi });
                self.trace(Some(wave_id), TraceEventKind::SendMetrics { poi, bytes: 0 });
            }
            self.trace(
                Some(wave_id),
                TraceEventKind::WaveStarted {
                    routers: plan.routers.len(),
                    migrations: plan.migrations.len(),
                    attempt: 0,
                },
            );
        }
        self.reconfig = Some(ReconfigExec {
            coord,
            plan,
            wave_id,
            started_at: self.window_index,
            pre_wave_routers,
        });
        self.send_wave(self.window_index);
        Ok(())
    }

    /// Queues the coordinator's sends, due at `due` (processed in the
    /// next window: 1 hop). A dead manager sends nothing.
    fn send_wave(&mut self, due: u64) {
        let Some(exec) = self.reconfig.as_mut() else {
            return;
        };
        let sends = exec.coord.take_sends().into_iter().map(|s| (due, s));
        if !self.manager_down {
            self.control_queue.extend(sends);
        }
    }

    /// `true` while the protocol wave (③–⑤) is still running.
    #[must_use]
    pub fn reconfig_active(&self) -> bool {
        self.reconfig.is_some()
    }

    /// Number of keys still awaiting their migrated state (⑥ in
    /// flight).
    #[must_use]
    pub fn pending_migrations(&self) -> usize {
        self.pois.iter().map(|p| p.wave.pending.len()).sum()
    }

    /// Processes every control message due at the current window.
    pub(crate) fn process_due_control(&mut self, wm: &mut WindowMetrics) {
        let now = self.window_index;
        // Stable processing order: (due, poi), preserving insertion
        // order for equal keys.
        let mut due: Vec<_> = self.control_queue.extract_if(.., |m| m.0 <= now).collect();
        due.sort_by_key(|(when, msg)| (*when, msg.to()));
        for (_, msg) in due {
            let poi = msg.to();
            let class = msg.class();
            // Fault injection: the injector may drop or delay any
            // control message on the wire, except `ForceApply`.
            let fate = match (&mut self.fault, class) {
                (Some(injector), Some(class)) => injector.on_control(class),
                _ => ControlFate::Deliver,
            };
            match (fate, class) {
                (ControlFate::Drop, Some(class)) => {
                    wm.dropped_control += 1;
                    self.trace(self.active_wave(), TraceEventKind::ControlDropped { class });
                    continue;
                }
                (ControlFate::Delay(windows), Some(class)) => {
                    wm.delayed_control += 1;
                    self.trace(
                        self.active_wave(),
                        TraceEventKind::ControlDelayed { class, windows },
                    );
                    self.control_queue.push((now + windows, msg));
                    continue;
                }
                _ => {}
            }
            match msg {
                WaveSend::Reconf(_, staged) => {
                    self.trace(self.active_wave(), TraceEventKind::SendReconf { poi });
                    // ③/④: stage and ack, unless the wave is over or a
                    // delayed ③ reaches an instance that already applied.
                    let Some(exec) = self.reconfig.as_mut() else {
                        continue;
                    };
                    if exec.coord.settled(poi) {
                        continue;
                    }
                    self.pois[poi].wave.stage(*staged);
                    exec.coord.ack(poi);
                    let (wave_id, acks_pending) = (exec.wave_id, exec.coord.unacked());
                    let ack = TraceEventKind::AckReconf { poi, acks_pending };
                    self.trace(Some(wave_id), ack);
                    // ⑤: the release, once all acks are in.
                    self.send_wave(now + 1);
                }
                WaveSend::Propagate(_) | WaveSend::ForceApply(_) => {
                    self.trace(self.active_wave(), TraceEventKind::Propagate { poi });
                    let force = matches!(msg, WaveSend::ForceApply(_));
                    let Some(applied) = self.pois[poi].wave.propagate(force) else {
                        continue;
                    };
                    self.trace(self.active_wave(), TraceEventKind::WaveApplied { poi });
                    for (edge, router) in applied.routers {
                        self.set_poi_router(PoiId(poi), edge, router);
                    }
                    // ⑥: ship the state of reassigned keys.
                    for (key, dest) in applied.send {
                        let state = self.pois[poi].core.state.remove(&key);
                        self.send_migration_attempt(poi, dest.index(), key, state, 0, wm);
                    }
                    for &succ in &self.successors[self.pois[poi].po.index()] {
                        let forward = WaveSend::Propagate(succ);
                        self.control_queue.push((now + 1, forward));
                    }
                    let Some(exec) = self.reconfig.as_mut() else {
                        continue;
                    };
                    exec.coord.applied(poi);
                    if exec.coord.outcome().is_some() {
                        let exec = self.reconfig.take().expect("checked above");
                        let duration_windows = now.saturating_sub(exec.started_at);
                        let done = TraceEventKind::WaveCompleted { duration_windows };
                        self.trace(Some(exec.wave_id), done);
                        if let Some(m) = &self.obs_metrics {
                            m.wave_duration.observe(duration_windows);
                        }
                    }
                }
            }
        }
    }

    /// One transmission attempt of a ⑥ `MIGRATE`, in memory when
    /// co-located, over the NIC otherwise. The injector may
    /// drop it (queued for retransmission) or delay it; after
    /// [`MAX_MIGRATE_RETRANSMITS`] drops the state is recovered out of
    /// band and [`ReconfigError::MigrationLost`] is surfaced.
    pub(crate) fn send_migration_attempt(
        &mut self,
        from_idx: usize,
        to_idx: usize,
        key: Key,
        state: Option<StateValue>,
        attempts: u32,
        wm: &mut WindowMetrics,
    ) {
        let fate = match &mut self.fault {
            Some(injector) => injector.on_control(ControlClass::Migrate),
            None => ControlFate::Deliver,
        };
        let class = ControlClass::Migrate;
        let retry = match fate {
            ControlFate::Deliver => None,
            ControlFate::Drop => {
                wm.dropped_control += 1;
                self.trace(self.wave_hint(), TraceEventKind::ControlDropped { class });
                if attempts + 1 > MAX_MIGRATE_RETRANSMITS {
                    // Retransmissions exhausted: recover the state from
                    // the engine's replicated copy and tell the operator
                    // what happened.
                    wm.reconfig_errors.push(ReconfigError::MigrationLost);
                    wm.migrated_states += 1;
                    let (to, key_value) = (to_idx, key.value());
                    let lost = TraceEventKind::MigrationLost { to, key: key_value };
                    self.trace(self.wave_hint(), lost);
                    self.apply_migration(to_idx, key, state);
                    return;
                }
                Some((MIGRATE_RETRY_WINDOWS, attempts + 1))
            }
            ControlFate::Delay(windows) => {
                wm.delayed_control += 1;
                let delayed = TraceEventKind::ControlDelayed { class, windows };
                self.trace(self.wave_hint(), delayed);
                Some((windows, attempts))
            }
        };
        if let Some((windows, attempts)) = retry {
            self.lost_migrations.push(LostMigration {
                redeliver_at: self.window_index + windows,
                from: from_idx,
                to: to_idx,
                key,
                state,
                attempts,
            });
            return;
        }
        let from_server = self.pois[from_idx].server;
        let to_server = self.pois[to_idx].server;
        let state_bytes = state.as_ref().map_or(0, StateValue::size_bytes) + 8;
        self.trace(
            self.wave_hint(),
            TraceEventKind::MigrateSent {
                from: from_idx,
                to: to_idx,
                key: key.value(),
                bytes: state_bytes,
            },
        );
        if from_server == to_server {
            wm.migrated_states += 1;
            self.apply_migration(to_idx, key, state);
            return;
        }
        let bytes = self.cluster.message_bytes(state_bytes);
        self.servers[from_server.0].backlog.push_back(NetMsg {
            from_server: from_server.0,
            to_poi: to_idx,
            bytes,
            payload: NetPayload::Migrate { key, state },
        });
    }

    /// Retransmits migrations whose previous attempt was dropped or
    /// delayed and whose retry timer expired.
    pub(crate) fn process_lost_migrations(&mut self, wm: &mut WindowMetrics) {
        let now = self.window_index;
        let ready = |lm: &mut LostMigration| lm.redeliver_at <= now;
        let mut due: Vec<_> = self.lost_migrations.extract_if(.., ready).collect();
        // Stable order for determinism.
        due.sort_by_key(|lm| (lm.to, lm.key));
        for lm in due {
            self.send_migration_attempt(lm.from, lm.to, lm.key, lm.state, lm.attempts, wm);
        }
    }

    /// Tells the coordinator the time. A missed deadline restages the
    /// rest of the wave, or, once retries are exhausted or the manager
    /// is dead, abandons and rolls it back (falling back to hash
    /// routing without a manager). Called once per window by
    /// [`Simulation::step`].
    ///
    /// [`Simulation::step`]: crate::Simulation::step
    pub(crate) fn check_wave_progress(&mut self, wm: &mut WindowMetrics) {
        let now = self.window_index;
        let Some(exec) = self.reconfig.as_mut() else {
            return;
        };
        let Some(ReconfigError::Timeout { attempt }) = exec.coord.tick(now) else {
            return;
        };
        wm.reconfig_errors.push(ReconfigError::Timeout { attempt });
        if exec.coord.outcome().is_none() && !self.manager_down {
            let (wave_id, attempt) = (exec.wave_id, exec.coord.attempt);
            self.trace(Some(wave_id), TraceEventKind::WaveRetried { attempt });
            self.send_wave(now);
            return;
        }
        let exec = self.reconfig.take().expect("checked above");
        self.rollback_wave(&exec);
        let rolled_back = TraceEventKind::WaveRolledBack { attempt };
        self.trace(Some(exec.wave_id), rolled_back);
        wm.reconfig_errors.push(ReconfigError::Aborted);
        self.trace(Some(exec.wave_id), TraceEventKind::WaveAborted);
        if self.manager_down {
            self.degrade_to_hash(wm);
        }
    }

    /// Reverts everything an abandoned wave touched: routing tables go
    /// back to the pre-wave snapshot, migrated state returns to its old
    /// owners, buffered tuples are released back to the input queues,
    /// and all wave control messages are purged.
    fn rollback_wave(&mut self, exec: &ReconfigExec) {
        // 1. Restore the pre-wave routing tables everywhere.
        for (idx, routers) in exec.pre_wave_routers.iter().enumerate() {
            for (edge, router) in routers {
                self.set_poi_router(PoiId(idx), *edge, Arc::clone(router));
            }
        }
        // 2. Purge in-flight wave control messages (the queue only
        // ever carries wave messages).
        self.control_queue.clear();
        // 3. Pull back migrations still on the wire: network backlogs
        // and the retransmission queue.
        let mut in_transit: Vec<(usize, Key, Option<StateValue>)> = Vec::new();
        for server in &mut self.servers {
            let mut kept = std::collections::VecDeque::new();
            while let Some(msg) = server.backlog.pop_front() {
                match msg.payload {
                    NetPayload::Migrate { key, state } => in_transit.push((msg.to_poi, key, state)),
                    _ => kept.push_back(msg),
                }
            }
            server.backlog = kept;
        }
        for lm in std::mem::take(&mut self.lost_migrations) {
            in_transit.push((lm.to, lm.key, lm.state));
        }
        // 4. Return state to the pre-wave owners. Migrations of *this*
        // wave revert `to → from`; anything else still in transit
        // (e.g. a straggler of an earlier wave) is delivered directly
        // so no state is ever dropped.
        for (to_poi, key, state) in in_transit {
            match exec
                .plan
                .migrations
                .iter()
                .find(|&&(_, k, to)| k == key && to.index() == to_poi)
            {
                Some(&(from, _, _)) => {
                    if let Some(state) = state {
                        self.pois[from.index()].core.state.insert(key, state);
                    }
                }
                None => self.apply_migration(to_poi, key, state),
            }
        }
        for &(from, key, to) in &exec.plan.migrations {
            if let Some(state) = self.pois[to.index()].core.state.remove(&key) {
                self.pois[from.index()].core.state.insert(key, state);
            }
        }
        // 5. Clear the per-POI wave runtime and release buffered
        // tuples back to the front of the input queues (sorted by key
        // for run-to-run determinism). The released tuples sit at the
        // *intended new* owner while the state just went back to the
        // old one, so a reversed straggler-forwarding entry sends them
        // after it — the same §3.4 mechanism the forward path uses.
        for (idx, poi) in self.pois.iter_mut().enumerate() {
            let mut buffered: Vec<_> = poi.wave.reset().into_iter().collect();
            buffered.sort_by_key(|&(key, _)| key);
            for (key, buf) in buffered.into_iter().rev() {
                if let Some(&(from, _, _)) = exec
                    .plan
                    .migrations
                    .iter()
                    .find(|&&(_, k, to)| k == key && to.index() == idx)
                {
                    poi.wave.departed.insert(key, from);
                }
                for t in buf.into_iter().rev() {
                    poi.input.push_front(t);
                }
            }
        }
    }

    /// Whole-table fallback: installs plain hash routing on every
    /// fields edge and relocates all keyed state to match — zero state
    /// loss, locality optimizations abandoned. This is the graceful-
    /// degradation path when the manager becomes unreachable: POIs can
    /// always compute the hash assignment locally, with no routing
    /// tables to distribute.
    pub(crate) fn degrade_to_hash(&mut self, wm: &mut WindowMetrics) {
        if self.degraded {
            return;
        }
        self.degraded = true;
        self.trace(self.wave_hint(), TraceEventKind::DegradedToHash);
        let hash: Arc<dyn KeyRouter> = Arc::new(HashRouter);
        let fields_edges: Vec<EdgeId> = (0..self.topo.edges.len())
            .map(EdgeId)
            .filter(|e| matches!(self.topo.edges[e.index()].grouping, Grouping::Fields { .. }))
            .collect();
        for &edge in &fields_edges {
            self.set_edge_router(edge, Arc::clone(&hash));
        }
        // Relocate keyed state to the hash owners (direct moves: the
        // engine recovers state placement from its store, §3.4).
        let mut moves: Vec<(usize, usize, Key)> = Vec::new();
        for &edge in &fields_edges {
            let dest_po = self.topo.edges[edge.index()].to;
            if self.topo.state_field(dest_po).is_none() {
                continue;
            }
            let instances = self.topo.instances(dest_po);
            let (base, parallelism) = (instances.start, instances.len());
            for (i, from) in instances.enumerate() {
                let mut keys: Vec<Key> = self.pois[from].core.state.keys().copied().collect();
                keys.sort_unstable();
                for key in keys {
                    let owner = HashRouter.route(key, parallelism) as usize;
                    if owner != i {
                        moves.push((from, base + owner, key));
                    }
                }
            }
        }
        for (from, to, key) in moves {
            if let Some(state) = self.pois[from].core.state.remove(&key) {
                self.pois[to].core.state.insert(key, state);
                wm.migrated_states += 1;
            }
            // Release any tuples buffered for the key at either end.
            for idx in [from, to] {
                let poi = &mut self.pois[idx];
                poi.wave.departed.remove(&key);
                for t in poi.wave.pending.remove(&key).into_iter().flatten().rev() {
                    poi.input.push_front(t);
                }
            }
        }
    }

    /// Installs migrated state at its new owner and releases any
    /// buffered tuples for the key (front of queue, preserving their
    /// arrival order).
    pub(crate) fn apply_migration(&mut self, to_idx: usize, key: Key, state: Option<StateValue>) {
        self.trace(
            self.wave_hint(),
            TraceEventKind::MigrateApplied {
                poi: to_idx,
                key: key.value(),
            },
        );
        let poi = &mut self.pois[to_idx];
        if let Some(state) = state {
            poi.core.state.insert(key, state);
        }
        for t in poi.wave.pending.remove(&key).into_iter().flatten().rev() {
            poi.input.push_front(t);
        }
    }

    /// Immediately migrates key state between two instances of one
    /// operator *without* the protocol (test/diagnostic helper;
    /// production reconfigurations go through
    /// [`start_reconfiguration`](Self::start_reconfiguration)).
    ///
    /// # Panics
    ///
    /// Panics if the instances belong to different operators.
    pub fn force_migrate(&mut self, from: PoiId, key: Key, to: PoiId) {
        assert_eq!(
            self.pois[from.index()].po,
            self.pois[to.index()].po,
            "state migrates between instances of one operator"
        );
        let state = self.pois[from.index()].core.state.remove(&key);
        self.apply_migration(to.index(), key, state);
    }

    /// Routing-table lookup helper: which instance of the edge's
    /// destination would `key` go to right now, according to sender
    /// `poi`'s router?
    ///
    /// # Panics
    ///
    /// Panics if `poi` has no fields-grouped out edge `edge`.
    #[must_use]
    pub fn current_route(&self, poi: PoiId, edge: EdgeId, key: Key) -> u32 {
        let parallelism = self.topo.pos[self.topo.edges[edge.index()].to.index()].parallelism;
        let mut routers = self.pois[poi.index()].routes.routers();
        let (_, router) = routers.find(|r| r.0 == edge).expect("no such fields edge");
        router.route(key, parallelism)
    }

    /// Builds the `(old owner, key, new owner)` migration list implied
    /// by changing the routing of `edge` so that each listed key maps
    /// to the given destination instance, taking the *current* routing
    /// as the old assignment.
    ///
    /// This helper lets policy crates compute migrations without
    /// duplicating the old-route lookup; `keys` pairs each key with its
    /// new destination instance index.
    #[must_use]
    pub fn migrations_for(
        &self,
        edge: EdgeId,
        keys: &HashMap<Key, u32>,
    ) -> Vec<(PoiId, Key, PoiId)> {
        let dest_po: PoId = self.topo.edges[edge.index()].to;
        let from_po = self.topo.edges[edge.index()].from;
        let sender = self.poi_ids(from_po)[0];
        let dest_pois = self.poi_ids(dest_po);
        let mut migrations = Vec::new();
        for (&key, &new_instance) in keys {
            let old_instance = self.current_route(sender, edge, key);
            if old_instance != new_instance {
                migrations.push((
                    dest_pois[old_instance as usize],
                    key,
                    dest_pois[new_instance as usize],
                ));
            }
        }
        migrations.sort_by_key(|&(_, k, _)| k);
        migrations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::operator::CountOperator;
    use crate::router::{HashRouter, ModuloRouter, ShiftedRouter};
    use crate::sim::{Placement, SimConfig};
    use crate::topology::{Grouping, SourceRate, Topology};
    use crate::tuple::Tuple;

    /// n sources emitting (c % keys, c % keys) so both hops share keys.
    fn chain(n: usize, keys: u64) -> Topology {
        finite_chain(n, keys, u64::MAX)
    }

    fn sim(n: usize, keys: u64) -> Simulation {
        let topo = chain(n, keys);
        let cluster = ClusterSpec::lan_10g(n);
        let placement = Placement::aligned(&topo, n);
        Simulation::new(topo, cluster, placement, SimConfig::default())
    }

    fn total_counts(sim: &Simulation, po_name: &str) -> HashMap<Key, u64> {
        let po = sim.topology().po_by_name(po_name).unwrap();
        let mut counts = HashMap::new();
        for poi in sim.poi_ids(po) {
            for (&k, v) in sim.poi_state(poi) {
                *counts.entry(k).or_insert(0) += v.as_count().unwrap();
            }
        }
        counts
    }

    #[test]
    fn empty_plan_completes() {
        let mut s = sim(2, 8);
        s.run(3);
        s.start_reconfiguration(ReconfigPlan::empty()).unwrap();
        assert!(s.reconfig_active());
        s.run(10);
        assert!(!s.reconfig_active());
        assert_eq!(s.pending_migrations(), 0);
    }

    #[test]
    fn overlapping_waves_rejected() {
        let mut s = sim(2, 8);
        s.start_reconfiguration(ReconfigPlan::empty()).unwrap();
        assert_eq!(
            s.start_reconfiguration(ReconfigPlan::empty()),
            Err(ReconfigInProgress)
        );
    }

    #[test]
    fn router_swap_takes_effect_in_wave_order() {
        let mut s = sim(2, 2);
        s.run(5);
        let edge_ab = EdgeId(1);
        let a = s.topology().po_by_name("A").unwrap();
        let a_pois = s.poi_ids(a);
        // Swap hop A→B from hash to modulo on every A instance.
        let plan = ReconfigPlan {
            routers: a_pois
                .iter()
                .map(|&p| (p, edge_ab, Arc::new(ModuloRouter) as Arc<dyn KeyRouter>))
                .collect(),
            migrations: Vec::new(),
        };
        s.start_reconfiguration(plan).unwrap();
        s.run(10);
        assert!(!s.reconfig_active());
        for &p in &a_pois {
            assert_eq!(s.current_route(p, edge_ab, Key::new(1)), 1);
            assert_eq!(s.current_route(p, edge_ab, Key::new(0)), 0);
        }
    }

    #[test]
    fn state_is_conserved_across_migration() {
        let keys = 6u64;
        let mut s = sim(3, keys);
        s.run(10);
        let before = total_counts(&s, "B");
        let emitted_before = s.metrics().total_emitted();
        assert!(emitted_before > 0);

        // Move every key of hop A→B to the modulo assignment, with the
        // matching migrations, through the full protocol.
        let edge_ab = EdgeId(1);
        let new_owner: HashMap<Key, u32> = (0..keys)
            .map(|k| (Key::new(k), (k % 3) as u32))
            .collect();
        let migrations = s.migrations_for(edge_ab, &new_owner);
        assert!(!migrations.is_empty(), "hash and modulo should disagree");
        let a_pois = s.poi_ids(s.topology().po_by_name("A").unwrap());
        let plan = ReconfigPlan {
            routers: a_pois
                .iter()
                .map(|&p| (p, edge_ab, Arc::new(ModuloRouter) as Arc<dyn KeyRouter>))
                .collect(),
            migrations,
        };
        s.start_reconfiguration(plan).unwrap();
        s.run(30);
        assert!(!s.reconfig_active());
        assert_eq!(s.pending_migrations(), 0);

        // No tuple was lost or double counted: each key's total count
        // across B instances equals the tuples processed for it, and
        // keys' counts never decreased.
        let after = total_counts(&s, "B");
        for (k, n_before) in &before {
            assert!(after[k] >= *n_before, "count of {k} shrank");
        }
        let total_after: u64 = after.values().sum();
        let b_po = s.topology().po_by_name("B").unwrap();
        let b_pois = s.poi_ids(b_po);
        let processed: u64 = s
            .metrics()
            .windows()
            .iter()
            .map(|w| {
                b_pois
                    .iter()
                    .map(|p| w.poi_processed[p.index()])
                    .sum::<u64>()
            })
            .sum();
        let forwarded: u64 = s.metrics().windows().iter().map(|w| w.late_forwarded).sum();
        assert_eq!(
            total_after,
            processed - forwarded,
            "state must equal processed tuples (minus forwarded stragglers)"
        );
    }

    #[test]
    fn each_key_owned_by_one_instance_after_reconfig() {
        let keys = 8u64;
        let mut s = sim(2, keys);
        s.run(8);
        let edge_ab = EdgeId(1);
        let new_owner: HashMap<Key, u32> = (0..keys)
            .map(|k| (Key::new(k), (k % 2) as u32))
            .collect();
        let migrations = s.migrations_for(edge_ab, &new_owner);
        let a_pois = s.poi_ids(s.topology().po_by_name("A").unwrap());
        let plan = ReconfigPlan {
            routers: a_pois
                .iter()
                .map(|&p| (p, edge_ab, Arc::new(ModuloRouter) as Arc<dyn KeyRouter>))
                .collect(),
            migrations,
        };
        s.start_reconfiguration(plan).unwrap();
        s.run(30);
        let b_pois = s.poi_ids(s.topology().po_by_name("B").unwrap());
        let mut owner: HashMap<Key, usize> = HashMap::new();
        for &poi in &b_pois {
            for &k in s.poi_state(poi).keys() {
                assert!(
                    owner.insert(k, poi.index()).is_none(),
                    "key {k} held by two instances"
                );
            }
        }
        // And ownership matches the new table.
        for (&k, &poi_idx) in &owner {
            let expected = b_pois[new_owner[&k] as usize].index();
            assert_eq!(poi_idx, expected, "key {k} at wrong owner");
        }
    }

    #[test]
    fn locality_improves_after_reconfig() {
        // Start with adversarial routing, reconfigure to aligned
        // modulo: the A→B hop becomes fully local.
        let n = 3;
        let keys = n as u64;
        let mut b = Topology::builder();
        let src = b.source("S", n, SourceRate::PerSecond(20_000.0), move |i| {
            let mut c = i as u64;
            Box::new(move || {
                c += 1;
                let k = Key::new(c % keys);
                Some(Tuple::new([k, k], 0))
            })
        });
        let a = b.stateful("A", n, CountOperator::factory());
        let bb = b.stateful("B", n, CountOperator::factory());
        b.connect(src, a, Grouping::fields_with(0, Arc::new(ModuloRouter)));
        b.connect(a, bb, Grouping::fields_with(1, Arc::new(ShiftedRouter::new(1))));
        let topo = b.build().unwrap();
        let cluster = ClusterSpec::lan_10g(n);
        let placement = Placement::aligned(&topo, n);
        let mut s = Simulation::new(topo, cluster, placement, SimConfig::default());

        s.run(10);
        let edge_ab = EdgeId(1);
        let locality_before = s.metrics().edge_locality(edge_ab, 0);
        assert!(locality_before < 0.01, "shifted routing must be remote");

        let new_owner: HashMap<Key, u32> =
            (0..keys).map(|k| (Key::new(k), k as u32)).collect();
        let migrations = s.migrations_for(edge_ab, &new_owner);
        let a_pois = s.poi_ids(s.topology().po_by_name("A").unwrap());
        let plan = ReconfigPlan {
            routers: a_pois
                .iter()
                .map(|&p| (p, edge_ab, Arc::new(ModuloRouter) as Arc<dyn KeyRouter>))
                .collect(),
            migrations,
        };
        s.start_reconfiguration(plan).unwrap();
        s.run(20);
        let windows = s.metrics().windows();
        let tail = &windows[windows.len() - 5..];
        let (mut local, mut remote) = (0, 0);
        for w in tail {
            local += w.edges[edge_ab.index()].local;
            remote += w.edges[edge_ab.index()].remote;
        }
        assert!(local > 0);
        assert_eq!(remote, 0, "post-reconfig hop must be fully local");
    }

    #[test]
    fn force_migrate_moves_state() {
        let mut s = sim(2, 4);
        s.run(5);
        let b_pois = s.poi_ids(s.topology().po_by_name("B").unwrap());
        let key = *s
            .poi_state(b_pois[0])
            .keys()
            .next()
            .expect("instance 0 holds some key");
        let count = s.poi_state(b_pois[0])[&key].as_count().unwrap();
        s.force_migrate(b_pois[0], key, b_pois[1]);
        assert!(!s.poi_state(b_pois[0]).contains_key(&key));
        assert_eq!(s.poi_state(b_pois[1])[&key].as_count(), Some(count));
    }

    #[test]
    fn throughput_not_disrupted_by_reconfig() {
        // Fig. 13's claim: deploying a configuration and migrating is
        // fast and does not hurt throughput. With a no-op plan the
        // throughput before/after must be statistically identical.
        let mut s = sim(2, 16);
        s.run(20);
        let before = s.metrics().avg_throughput(10);
        let a_pois = s.poi_ids(s.topology().po_by_name("A").unwrap());
        let plan = ReconfigPlan {
            routers: a_pois
                .iter()
                .map(|&p| (p, EdgeId(1), Arc::new(HashRouter) as Arc<dyn KeyRouter>))
                .collect(),
            migrations: Vec::new(),
        };
        s.start_reconfiguration(plan).unwrap();
        s.run(20);
        let after = s.metrics().avg_throughput(25);
        assert!(
            (after - before).abs() / before < 0.05,
            "reconfig disrupted throughput: {before} -> {after}"
        );
    }

    /// [`chain`] with each source emitting `per_source` tuples, so
    /// the pipeline drains.
    fn finite_chain(n: usize, keys: u64, per_source: u64) -> Topology {
        let mut b = Topology::builder();
        let s = b.source("S", n, SourceRate::PerSecond(5_000.0), move |i| {
            let mut c = i as u64;
            let mut left = per_source;
            Box::new(move || {
                left = left.checked_sub(1)?;
                c += 1;
                Some(Tuple::new([Key::new(c % keys), Key::new(c % keys)], 0))
            })
        });
        let a = b.stateful("A", n, CountOperator::factory());
        let bb = b.stateful("B", n, CountOperator::factory());
        b.connect(s, a, Grouping::fields(0));
        b.connect(a, bb, Grouping::fields(1));
        b.build().unwrap()
    }

    #[test]
    fn self_migrations_are_no_ops() {
        // A plan listing every key, including those whose owner does
        // not change: an `old == new` entry must not make the key
        // "departed" to its own instance (its tuples would be
        // forwarded to itself forever).
        let (n, keys, per_source) = (3, 12u64, 10_000u64);
        let topo = finite_chain(n, keys, per_source);
        let placement = Placement::aligned(&topo, n);
        let mut s = Simulation::new(
            topo,
            ClusterSpec::lan_10g(n),
            placement,
            SimConfig::default(),
        );
        s.run(3);
        let edge_ab = EdgeId(1);
        let a_pois = s.poi_ids(s.topology().po_by_name("A").unwrap());
        let b_pois = s.poi_ids(s.topology().po_by_name("B").unwrap());
        let migrations: Vec<(PoiId, Key, PoiId)> = (0..keys)
            .map(|k| {
                let key = Key::new(k);
                let old = s.current_route(a_pois[0], edge_ab, key) as usize;
                (b_pois[old], key, b_pois[(k % n as u64) as usize])
            })
            .collect();
        assert!(migrations.iter().any(|&(from, _, to)| from == to));
        let plan = ReconfigPlan {
            routers: a_pois
                .iter()
                .map(|&p| (p, edge_ab, Arc::new(ModuloRouter) as Arc<dyn KeyRouter>))
                .collect(),
            migrations,
        };
        s.start_reconfiguration(plan).unwrap();
        assert!(s.run_until_drained(2_000) < 2_000, "pipeline never drained");
        let counted: u64 = total_counts(&s, "B").values().sum();
        assert_eq!(counted, n as u64 * per_source);
    }
}
