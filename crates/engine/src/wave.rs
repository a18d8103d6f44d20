//! One instance's side of the reconfiguration wave (paper §3.4,
//! Algorithm 1), written once for both runtimes.
//!
//! [`WaveParticipant`] is a sans-IO state machine: it sends nothing,
//! takes no lock and reads no clock. The simulator (`reconfig.rs`) and
//! the live runtime (`live.rs`) feed it ③ `SEND_RECONF` payloads cut by
//! [`ReconfigPlan::split`], ⑤ `PROPAGATE` and the live coordinator's
//! `ForceApply`, and do the I/O its transitions return: install the
//! routers, ship ⑥ `MIGRATE`, forward the wave. Their data planes
//! buffer tuples of the keys in its `pending` map (state on its way in)
//! and forward those of the keys in its `departed` map (state gone).

use std::collections::HashMap;
use std::sync::Arc;

use crate::key::Key;
use crate::reconfig::ReconfigPlan;
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
    pub(crate) pending: HashMap<Key, B>,
    /// Keys the last applied wave moved away, with their new owner.
    pub(crate) departed: HashMap<Key, PoiId>,
}

impl<B: Default> WaveParticipant<B> {
    pub(crate) fn new(preds: usize) -> Self {
        Self {
            preds,
            staged: None,
            awaiting: 0,
            pending: HashMap::new(),
            departed: HashMap::new(),
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
    pub(crate) fn reset(&mut self) -> HashMap<Key, B> {
        self.staged = None;
        self.awaiting = 0;
        self.departed.clear();
        std::mem::take(&mut self.pending)
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
}
