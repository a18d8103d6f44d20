//! The reconfiguration wave (paper §3.4, Algorithm 1), written once for
//! both runtimes: each instance's side and the manager's side.
//!
//! Both halves are sans-IO state machines: they send nothing, take no
//! lock and read no clock. The simulator (`reconfig.rs`) and the live
//! runtime (the `Instance` actor and the wave driver in `live.rs`) feed
//! them and do the I/O their transitions return.
//!
//! * [`WaveParticipant`] is one instance. It takes ③ `SEND_RECONF`
//!   payloads cut by [`ReconfigPlan::split`], ⑤ `PROPAGATE` and the
//!   coordinator's `ForceApply`; when it applies, the runtime installs
//!   the routers, ships ⑥ `MIGRATE` and forwards the wave. Its hold
//!   rule tells both data planes to buffer a tuple whose key's state is
//!   on its way in (`pending`), or to forward one whose state left
//!   (`departed`).
//! * [`WaveCoordinator`] is the manager. It stages ③, gates on the ④
//!   acks, releases ⑤ and, when an attempt misses its deadline,
//!   restages what is left and force-applies it (roll-forward). Its
//!   clock is in windows: simulator windows, 100 ms live.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use streamloc_sketch::KeyMap;

use crate::fault::ControlClass;
use crate::key::Key;
use crate::reconfig::{ReconfigError, ReconfigPlan, WaveConfig};
use crate::router::KeyRouter;
use crate::topology::{EdgeId, PoiId};

/// The per-instance payload of a ③ `SEND_RECONF` message.
#[derive(Clone, Default)]
pub(crate) struct StagedReconf {
    /// Router overrides for this instance's out edges.
    pub(crate) routers: Vec<(EdgeId, Arc<dyn KeyRouter>)>,
    /// `(key, new owner)` states this instance ships when it applies.
    pub(crate) send: Vec<(Key, PoiId)>,
    /// Keys whose state migrates to this instance.
    pub(crate) receive: Vec<Key>,
}

impl ReconfigPlan {
    /// Splits the plan into every instance's ③ payload. Instances are
    /// numbered globally: instance `i` of operator `po` is
    /// `poi_base[po] + i`, and there are `n` of them. A migration whose
    /// old owner is its new owner moves nothing and is dropped.
    ///
    /// # Panics
    ///
    /// Panics if a migration names an instance outside `0..n` or moves
    /// state between instances of different operators.
    pub(crate) fn split(&self, poi_base: &[usize], n: usize) -> Vec<StagedReconf> {
        let po_of = |poi: PoiId| {
            assert!(poi.index() < n, "migration instance out of range");
            poi_base.partition_point(|&base| base <= poi.index())
        };
        let mut staged = vec![StagedReconf::default(); n];
        for (poi, edge, router) in &self.routers {
            staged[poi.index()]
                .routers
                .push((*edge, Arc::clone(router)));
        }
        for &(from, key, to) in &self.migrations {
            assert_eq!(
                po_of(from),
                po_of(to),
                "state migrates between instances of one operator"
            );
            if from != to {
                staged[from.index()].send.push((key, to));
                staged[to.index()].receive.push(key);
            }
        }
        staged
    }
}

/// One instance's wave state: the staged configuration, the ⑤
/// propagates it still awaits, the tuples it buffers for incoming keys
/// and the new owners of the keys it shipped. `B` is the data plane's
/// tuple buffer.
pub(crate) struct WaveParticipant<B> {
    /// Predecessor instances (0 for a root operator); the live runtime
    /// also awaits one `Eos` from each.
    pub(crate) preds: usize,
    staged: Option<StagedReconf>,
    /// ⑤ propagates still missing before `staged` applies.
    awaiting: usize,
    /// Tuples of keys whose state migrates to this instance, buffered
    /// until their ⑥ `MIGRATE` arrives.
    pub(crate) pending: KeyMap<Key, B>,
    /// Keys the last applied wave moved away, with their new owner.
    pub(crate) departed: KeyMap<Key, PoiId>,
}

impl<B: Default> WaveParticipant<B> {
    pub(crate) fn new(preds: usize) -> Self {
        Self {
            preds,
            staged: None,
            awaiting: 0,
            pending: KeyMap::default(),
            departed: KeyMap::default(),
        }
    }

    /// ③: stages `reconf` and starts buffering its incoming keys. It
    /// applies on the last propagate from every predecessor instance;
    /// a root waits for the coordinator's single one.
    pub(crate) fn stage(&mut self, reconf: StagedReconf) {
        // Stragglers of the previous wave are assumed drained by now.
        self.departed.clear();
        for &key in &reconf.receive {
            self.pending.entry(key).or_default();
        }
        self.awaiting = self.preds.max(1);
        self.staged = Some(reconf);
    }

    /// ⑤: one propagate arrived; `force` (the live coordinator's
    /// `ForceApply`) stands in for all that are still missing, as they
    /// were lost for good. Returns the staged configuration if it
    /// applies now: the caller installs its routers and ships its
    /// `send` list, whose keys are recorded as `departed`. A duplicate
    /// or stale propagate, or one with nothing staged, returns `None`.
    pub(crate) fn propagate(&mut self, force: bool) -> Option<StagedReconf> {
        if self.awaiting == 0 {
            return None;
        }
        self.awaiting = if force { 0 } else { self.awaiting - 1 };
        if self.awaiting > 0 {
            return None;
        }
        let staged = self.staged.take()?;
        self.departed.extend(staged.send.iter().copied());
        Some(staged)
    }

    /// Crash or rollback: forgets the wave. Returns the buffered tuples
    /// it drops, for the caller to account for or release.
    pub(crate) fn reset(&mut self) -> KeyMap<Key, B> {
        self.staged = None;
        self.awaiting = 0;
        self.departed.clear();
        std::mem::take(&mut self.pending)
    }
}

/// The fate [`WaveParticipant::hold`] gives tuples of one state key.
pub(crate) enum Hold {
    /// Buffered until the key's state arrives; `first` if a stall began.
    Buffered { first: bool },
    /// The state left for this new owner: forward the tuples there.
    Departed(PoiId),
    /// Owned here: process the tuples.
    Owned,
}

impl<T> WaveParticipant<VecDeque<T>> {
    /// The data plane's hold rule: `tuples` of state key `key` are
    /// buffered (consumed) while the key's state is pending here.
    pub(crate) fn hold(&mut self, key: Key, tuples: impl IntoIterator<Item = T>) -> Hold {
        if let Some(buf) = self.pending.get_mut(&key) {
            let first = buf.is_empty();
            buf.extend(tuples);
            return Hold::Buffered { first };
        }
        self.departed
            .get(&key)
            .map_or(Hold::Owned, |&owner| Hold::Departed(owner))
    }
}

/// What the coordinator has heard from one instance during the wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Report {
    Nothing,
    /// ④: staged, in this attempt or an earlier one.
    Acked,
    Applied,
    Exited,
}

impl Report {
    /// `true` once the instance needs nothing more from the wave.
    fn settled(self) -> bool {
        matches!(self, Self::Applied | Self::Exited)
    }
}

/// A wave control message and the instance it goes to: what the
/// coordinator asks its runtime to send, and the ⑤ an instance forwards.
#[derive(Clone)]
pub(crate) enum WaveSend {
    /// ③: the part of the instance's plan not yet carried out. Boxed,
    /// as a live inbox sizes each of its slots for the largest message.
    Reconf(usize, Box<StagedReconf>),
    /// ⑤: from the coordinator to a root, it releases attempt 0.
    Propagate(usize),
    /// Apply now, at a straggler: releases a later attempt. Never
    /// fault-injected.
    ForceApply(usize),
}

impl WaveSend {
    /// The instance the message goes to.
    pub(crate) fn to(&self) -> usize {
        match self {
            Self::Reconf(i, _) | Self::Propagate(i) | Self::ForceApply(i) => *i,
        }
    }

    /// The class a fault injector sees the message as; `None` for
    /// `ForceApply`, which is never injected.
    pub(crate) fn class(&self) -> Option<ControlClass> {
        match self {
            Self::Reconf(..) => Some(ControlClass::SendReconf),
            Self::Propagate(_) => Some(ControlClass::Propagate),
            Self::ForceApply(_) => None,
        }
    }
}

/// The manager's side of one wave, with its one recovery rule
/// (roll-forward):
///
/// 1. Attempt `k` sends ③ to every instance that has neither applied
///    nor exited. The ③ leaves out migrations whose old owner has
///    applied: that state is shipped, so the receiver must not buffer
///    for it again.
/// 2. Once every such instance has acked (an ack from an earlier
///    attempt counts: per-instance FIFO keeps the new ③ ahead), the
///    wave is released: attempt 0 sends ⑤ to the roots, later attempts
///    send `ForceApply` to each straggler.
/// 3. The wave is done when every instance has applied or exited:
///    `Ok`, or [`ReconfigError::Nack`] if any exited.
/// 4. Attempt `k` has [`attempt_windows`] from its start. A missed
///    deadline is a [`ReconfigError::Timeout`] and starts attempt
///    `k + 1`; after [`WaveConfig::max_retries`] the wave is abandoned.
pub(crate) struct WaveCoordinator {
    plan: Vec<StagedReconf>,
    /// Instances of the root operators.
    roots: Vec<usize>,
    config: WaveConfig,
    reports: Vec<Report>,
    /// The running attempt (0-based).
    pub(crate) attempt: u32,
    /// When the running attempt times out.
    pub(crate) deadline: u64,
    released: bool,
    abandoned: bool,
    sends: Vec<WaveSend>,
}

/// Windows attempt `attempt` of a wave may take:
/// `max(deadline_windows, 2) × backoff^attempt`.
fn attempt_windows(config: &WaveConfig, attempt: u32) -> u64 {
    let backoff = config.backoff.max(1).saturating_pow(attempt);
    config.deadline_windows.max(2).saturating_mul(backoff)
}

impl WaveCoordinator {
    /// A coordinator for the per-instance payloads `plan` (see
    /// [`ReconfigPlan::split`]); it sends nothing before
    /// [`start`](Self::start).
    pub(crate) fn new(plan: Vec<StagedReconf>, roots: Vec<usize>, config: WaveConfig) -> Self {
        Self {
            reports: vec![Report::Nothing; plan.len()],
            plan,
            roots,
            config,
            attempt: 0,
            deadline: 0,
            released: false,
            abandoned: false,
            sends: Vec::new(),
        }
    }

    /// Starts the running attempt at time `now`: ③ to every unsettled
    /// instance, from the last one down.
    pub(crate) fn start(&mut self, now: u64) {
        self.deadline = now.saturating_add(attempt_windows(&self.config, self.attempt));
        self.released = false;
        let applied = |&i: &usize| self.reports[i] == Report::Applied;
        let shipped: HashSet<(Key, PoiId)> = (0..self.plan.len())
            .filter(applied)
            .flat_map(|i| self.plan[i].send.iter().copied())
            .collect();
        for i in (0..self.plan.len()).rev() {
            if !self.reports[i].settled() {
                let mut reconf = self.plan[i].clone();
                reconf
                    .receive
                    .retain(|&k| !shipped.contains(&(k, PoiId(i))));
                self.sends.push(WaveSend::Reconf(i, Box::new(reconf)));
            }
        }
        self.release_if_staged();
    }

    fn release_if_staged(&mut self) {
        if self.released || self.reports.contains(&Report::Nothing) {
            return;
        }
        self.released = true;
        let reports = &self.reports;
        let unsettled = |&i: &usize| !reports[i].settled();
        if self.attempt == 0 {
            let roots = self.roots.iter().copied().filter(unsettled);
            self.sends.extend(roots.map(WaveSend::Propagate));
        } else {
            let stragglers = (0..reports.len()).filter(unsettled);
            self.sends.extend(stragglers.map(WaveSend::ForceApply));
        }
    }

    /// ④: instance `i` staged.
    pub(crate) fn ack(&mut self, i: usize) {
        if self.reports[i] == Report::Nothing {
            self.reports[i] = Report::Acked;
            self.release_if_staged();
        }
    }

    /// Instance `i` applied its configuration and forwarded the wave.
    pub(crate) fn applied(&mut self, i: usize) {
        if !self.reports[i].settled() {
            self.reports[i] = Report::Applied;
        }
    }

    /// Instance `i` shut down.
    pub(crate) fn exited(&mut self, i: usize) {
        self.reports[i] = Report::Exited;
        self.release_if_staged();
    }

    /// The time is `now`. Returns the timeout of an attempt whose
    /// deadline passed; the next attempt, if any, has then started.
    pub(crate) fn tick(&mut self, now: u64) -> Option<ReconfigError> {
        if self.outcome().is_some() || now < self.deadline {
            return None;
        }
        let attempt = self.attempt;
        if attempt < self.config.max_retries {
            self.attempt += 1;
            self.start(now);
        } else {
            self.abandoned = true;
        }
        Some(ReconfigError::Timeout { attempt })
    }

    /// The sends made necessary since the last call, in order.
    pub(crate) fn take_sends(&mut self) -> Vec<WaveSend> {
        std::mem::take(&mut self.sends)
    }

    /// The wave's outcome once it is done or abandoned.
    pub(crate) fn outcome(&self) -> Option<Result<(), ReconfigError>> {
        if self.abandoned {
            let attempt = self.attempt;
            Some(Err(ReconfigError::Timeout { attempt }))
        } else if !self.reports.iter().all(|r| r.settled()) {
            None
        } else if self.reports.contains(&Report::Exited) {
            Some(Err(ReconfigError::Nack))
        } else {
            Some(Ok(()))
        }
    }

    /// `true` once instance `i` needs nothing more from the wave.
    pub(crate) fn settled(&self, i: usize) -> bool {
        self.reports[i].settled()
    }

    /// Instances the release still waits for.
    pub(crate) fn unacked(&self) -> usize {
        let unacked = self.reports.iter().filter(|&&r| r == Report::Nothing);
        unacked.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::HashRouter;

    type Participant = WaveParticipant<Vec<u32>>;

    fn reconf(send: &[(u64, usize)], receive: &[u64]) -> StagedReconf {
        StagedReconf {
            routers: vec![(EdgeId(0), Arc::new(HashRouter) as Arc<dyn KeyRouter>)],
            send: send
                .iter()
                .map(|&(k, to)| (Key::new(k), PoiId(to)))
                .collect(),
            receive: receive.iter().map(|&k| Key::new(k)).collect(),
        }
    }

    #[test]
    fn a_root_awaits_one_propagate() {
        let mut p = Participant::new(0);
        p.stage(reconf(&[], &[]));
        assert_eq!(p.awaiting, 1);
        assert!(p.propagate(false).is_some());
    }

    #[test]
    fn applies_on_the_last_predecessor_propagate() {
        let mut p = Participant::new(3);
        p.stage(reconf(&[], &[]));
        assert_eq!(p.awaiting, 3);
        assert!(p.propagate(false).is_none());
        assert!(p.propagate(false).is_none());
        let applied = p.propagate(false).expect("third propagate applies");
        assert_eq!(applied.routers.len(), 1);
    }

    #[test]
    fn duplicate_and_stale_propagates_are_ignored() {
        let mut p = Participant::new(1);
        p.stage(reconf(&[(7, 2)], &[]));
        assert!(p.propagate(false).is_some());
        assert!(p.propagate(false).is_none());
        assert!(p.propagate(true).is_none());
        assert_eq!(p.departed.len(), 1);
    }

    #[test]
    fn force_apply_applies_with_propagates_missing() {
        let mut p = Participant::new(4);
        p.stage(reconf(&[], &[]));
        assert!(p.propagate(false).is_none());
        assert!(p.propagate(true).is_some());
        assert_eq!(p.awaiting, 0);
    }

    #[test]
    fn a_propagate_with_nothing_staged_is_ignored() {
        let mut p = Participant::new(0);
        assert!(p.propagate(false).is_none());
        assert!(p.propagate(true).is_none());
        assert!(p.departed.is_empty());
    }

    #[test]
    fn restaging_clears_departed_and_opens_pending() {
        let mut p = Participant::new(0);
        p.stage(reconf(&[(1, 5)], &[]));
        p.propagate(false).unwrap();
        assert!(p.departed.contains_key(&Key::new(1)));
        p.stage(reconf(&[], &[2, 3]));
        assert!(p.departed.is_empty());
        assert_eq!(p.pending.len(), 2);
        assert!(p.pending[&Key::new(2)].is_empty());
    }

    #[test]
    fn apply_records_every_shipped_key_as_departed() {
        let mut p = Participant::new(0);
        p.stage(reconf(&[(1, 4), (2, 5), (3, 4)], &[]));
        let applied = p.propagate(false).unwrap();
        assert_eq!(applied.send.len(), 3);
        for (key, to) in applied.send {
            assert_eq!(p.departed[&key], to);
        }
    }

    #[test]
    fn reset_clears_all_wave_state() {
        let mut p = Participant::new(2);
        p.stage(reconf(&[(1, 4)], &[]));
        p.propagate(false);
        p.departed.insert(Key::new(9), PoiId(1));
        p.pending.insert(Key::new(8), vec![1, 2]);
        let dropped = p.reset();
        assert_eq!(dropped[&Key::new(8)], vec![1, 2]);
        assert!(p.staged.is_none());
        assert_eq!(p.awaiting, 0);
        assert!(p.pending.is_empty());
        assert!(p.departed.is_empty());
        assert!(p.propagate(true).is_none(), "nothing staged after reset");
    }

    #[test]
    fn hold_buffers_pending_forwards_departed_and_passes_owned() {
        let mut p = WaveParticipant::<VecDeque<u32>>::new(1);
        p.stage(reconf(&[(1, 7)], &[2]));
        let (k1, k2, k3) = (Key::new(1), Key::new(2), Key::new(3));
        assert!(matches!(p.hold(k2, [10]), Hold::Buffered { first: true }));
        assert!(matches!(
            p.hold(k2, [11, 12]),
            Hold::Buffered { first: false }
        ));
        // Key 1 leaves only when the wave applies here.
        assert!(matches!(p.hold(k1, [13]), Hold::Owned));
        assert!(p.propagate(false).is_some());
        assert!(matches!(p.hold(k1, [14]), Hold::Departed(PoiId(7))));
        assert!(matches!(p.hold(k3, [15]), Hold::Owned));
        assert_eq!(p.pending[&k2], [10, 11, 12]);
        assert_eq!(p.pending.len(), 1);
    }

    fn plan(migrations: &[(usize, u64, usize)]) -> ReconfigPlan {
        ReconfigPlan {
            routers: Vec::new(),
            migrations: migrations
                .iter()
                .map(|&(from, k, to)| (PoiId(from), Key::new(k), PoiId(to)))
                .collect(),
        }
    }

    #[test]
    fn split_drops_self_migrations() {
        // Two operators of 3 instances: globals 0..3 and 3..6.
        let staged = plan(&[(3, 1, 4), (5, 2, 5)]).split(&[0, 3], 6);
        assert_eq!(staged[3].send, vec![(Key::new(1), PoiId(4))]);
        assert_eq!(staged[4].receive, vec![Key::new(1)]);
        assert!(staged[5].send.is_empty() && staged[5].receive.is_empty());
    }

    #[test]
    #[should_panic(expected = "state migrates between instances of one operator")]
    fn split_rejects_cross_operator_migrations() {
        let _ = plan(&[(2, 1, 3)]).split(&[0, 3], 6);
    }

    #[test]
    #[should_panic(expected = "migration instance out of range")]
    fn split_rejects_out_of_range_instances() {
        let _ = plan(&[(4, 1, 6)]).split(&[0, 3], 6);
    }

    // ---- the coordinator ------------------------------------------

    /// Instances 0, 1 are the roots; 2 ships key 7 to 3.
    fn coordinator() -> WaveCoordinator {
        let mut plan = vec![StagedReconf::default(); 4];
        plan[2].send.push((Key::new(7), PoiId(3)));
        plan[3].receive.push(Key::new(7));
        let config = WaveConfig {
            deadline_windows: 4,
            max_retries: 2,
            backoff: 2,
        };
        WaveCoordinator::new(plan, vec![0, 1], config)
    }

    /// The sends as `(kind, instance)`, in order.
    fn sends(c: &mut WaveCoordinator) -> Vec<(&'static str, usize)> {
        c.take_sends()
            .into_iter()
            .map(|s| match s {
                WaveSend::Reconf(i, _) => ("reconf", i),
                WaveSend::Propagate(i) => ("propagate", i),
                WaveSend::ForceApply(i) => ("force", i),
            })
            .collect()
    }

    fn reconf_of(c: &mut WaveCoordinator, instance: usize) -> StagedReconf {
        let found = c.take_sends().into_iter().find_map(|s| match s {
            WaveSend::Reconf(i, r) if i == instance => Some(*r),
            _ => None,
        });
        found.expect("instance was restaged")
    }

    /// Runs attempt 0 until its deadline with only `applied` applied.
    fn miss_first_deadline(c: &mut WaveCoordinator, applied: &[usize]) {
        c.start(10);
        (0..4).for_each(|i| c.ack(i));
        applied.iter().for_each(|&i| c.applied(i));
        c.take_sends();
        assert_eq!(c.tick(14), Some(ReconfigError::Timeout { attempt: 0 }));
    }

    #[test]
    fn stages_everyone_first_and_only_the_unsettled_on_a_retry() {
        let mut c = coordinator();
        c.start(0);
        let first = sends(&mut c);
        let all = [("reconf", 3), ("reconf", 2), ("reconf", 1), ("reconf", 0)];
        assert_eq!(first, all);
        (0..4).for_each(|i| c.ack(i));
        c.take_sends();
        c.applied(0);
        c.applied(2);
        assert_eq!(c.tick(4), Some(ReconfigError::Timeout { attempt: 0 }));
        let restaged: Vec<_> = sends(&mut c)
            .into_iter()
            .filter(|s| s.0 == "reconf")
            .collect();
        assert_eq!(restaged, [("reconf", 3), ("reconf", 1)]);
    }

    #[test]
    fn the_release_waits_for_every_ack() {
        let mut c = coordinator();
        c.start(0);
        c.take_sends();
        for i in [3, 0, 2] {
            c.ack(i);
            assert!(c.take_sends().is_empty(), "released before all acks");
        }
        assert_eq!(c.unacked(), 1);
        c.ack(1);
        assert_eq!(sends(&mut c), [("propagate", 0), ("propagate", 1)]);
    }

    #[test]
    fn a_retry_force_applies_at_the_stragglers_only() {
        let mut c = coordinator();
        miss_first_deadline(&mut c, &[0, 1]);
        // Acks of attempt 0 count: the release follows the restage.
        let retry = sends(&mut c);
        let release: Vec<_> = retry.iter().filter(|s| s.0 != "reconf").copied().collect();
        assert_eq!(release, [("force", 2), ("force", 3)]);
        assert_eq!(retry.iter().position(|s| s.0 == "force"), Some(2));
    }

    #[test]
    fn a_restaged_receiver_skips_state_its_old_owner_already_shipped() {
        let mut c = coordinator();
        miss_first_deadline(&mut c, &[]);
        assert_eq!(reconf_of(&mut c, 3).receive, vec![Key::new(7)]);

        let mut c = coordinator();
        miss_first_deadline(&mut c, &[2]);
        assert!(reconf_of(&mut c, 3).receive.is_empty());
    }

    #[test]
    fn deadlines_are_floored_at_two_windows_and_back_off() {
        let config = |deadline_windows, backoff| WaveConfig {
            deadline_windows,
            max_retries: 3,
            backoff,
        };
        let spans = |cfg: WaveConfig| (0..4).map(|k| attempt_windows(&cfg, k)).collect::<Vec<_>>();
        assert_eq!(spans(config(4, 2)), [4, 8, 16, 32]);
        assert_eq!(spans(config(0, 3)), [2, 6, 18, 54]);
        assert_eq!(spans(config(5, 0)), [5, 5, 5, 5]);
        let mut c = coordinator();
        c.start(10);
        assert_eq!(c.tick(13), None);
        assert!(c.tick(14).is_some());
        assert_eq!((c.attempt, c.deadline), (1, 14 + 8));
    }

    #[test]
    fn an_exit_settles_the_instance_and_nacks_the_wave() {
        let mut c = coordinator();
        c.exited(3);
        c.start(0);
        assert!(
            !sends(&mut c).contains(&("reconf", 3)),
            "no ③ to the exited"
        );
        (0..3).for_each(|i| c.ack(i));
        (0..3).for_each(|i| c.applied(i));
        assert_eq!(c.outcome(), Some(Err(ReconfigError::Nack)));

        let mut c = coordinator();
        c.start(0);
        (0..4).for_each(|i| c.ack(i));
        (0..4).for_each(|i| c.applied(i));
        assert_eq!(c.outcome(), Some(Ok(())));
    }

    #[test]
    fn duplicate_and_late_reports_are_ignored() {
        let mut c = coordinator();
        c.start(0);
        c.take_sends();
        c.ack(0);
        c.ack(0);
        assert_eq!(c.unacked(), 3);
        c.applied(1);
        c.ack(1);
        assert!(c.settled(1), "an ack after the apply is late");
        c.ack(2);
        c.ack(3);
        assert_eq!(sends(&mut c), [("propagate", 0)], "settled root 1 skipped");
        c.ack(3);
        assert!(c.take_sends().is_empty(), "one release per attempt");
        (0..4).for_each(|i| c.applied(i));
        c.applied(2);
        assert_eq!(c.outcome(), Some(Ok(())));
        assert_eq!(c.tick(1_000), None, "a done wave never times out");
    }

    #[test]
    fn the_wave_is_abandoned_after_max_retries() {
        let mut c = coordinator();
        c.start(0);
        assert_eq!(c.tick(4), Some(ReconfigError::Timeout { attempt: 0 }));
        assert_eq!(c.tick(4 + 8), Some(ReconfigError::Timeout { attempt: 1 }));
        assert_eq!(c.outcome(), None);
        let last = Some(ReconfigError::Timeout { attempt: 2 });
        assert_eq!(c.tick(12 + 16), last);
        assert_eq!(c.outcome(), last.map(Err));
        assert_eq!(c.tick(1_000), None);
    }
}
