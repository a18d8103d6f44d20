//! SpaceSaving-backed pair instrumentation for stateful instances.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use streamloc_engine::{Key, PairObserver};
use streamloc_sketch::SpaceSaving;

/// The per-instance statistics collector of paper §3.2: counts the
/// `(input key, output key)` pairs flowing through a stateful
/// instance, in bounded memory, using the SpaceSaving sketch.
///
/// A tracker is shared between the engine (which feeds observations
/// through the [`PairObserver`] hook) and the manager (which snapshots
/// and resets it at every reconfiguration) — hence the internal lock.
///
/// # Example
///
/// ```
/// use streamloc_core::PairTracker;
/// use streamloc_engine::{Key, PairObserver};
///
/// let tracker = PairTracker::new(100);
/// tracker.handle().observe(Key::new(1), Key::new(2));
/// tracker.handle().observe(Key::new(1), Key::new(2));
/// let top = tracker.snapshot().top_k(1);
/// assert_eq!(top[0].0, (Key::new(1), Key::new(2)));
/// assert_eq!(top[0].1.count, 2);
/// ```
#[derive(Debug)]
pub struct PairTracker {
    sketch: Mutex<SpaceSaving<(Key, Key)>>,
}

impl PairTracker {
    /// Creates a tracker monitoring at most `capacity` distinct pairs.
    ///
    /// With 1 MB per instance the paper monitors on the order of 10^4
    /// to 10^5 pairs; `capacity` plays that role here. Nothing is
    /// allocated up front: memory grows with the number of distinct
    /// pairs observed, up to `capacity`. Until the sketch fills, an
    /// observation is one counter update (see [`SpaceSaving`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            sketch: Mutex::new(SpaceSaving::new(capacity)),
        })
    }

    /// An observer handle to install on the engine side
    /// ([`streamloc_engine::Simulation::add_pair_observer`]).
    #[must_use]
    pub fn handle(self: &Arc<Self>) -> TrackerHandle {
        TrackerHandle(Arc::clone(self))
    }

    /// A copy of the current pair statistics (the ② `SEND_METRICS`
    /// payload). It reflects every observation that has returned. The
    /// lock is held only to copy the sketch: a sketch that has not
    /// filled yet is ordered when the copy is read, outside the lock.
    #[must_use]
    pub fn snapshot(&self) -> SpaceSaving<(Key, Key)> {
        self.locked().clone()
    }

    /// Total pairs observed since the last reset.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.locked().total()
    }

    /// Discards all statistics, so the next period only reflects fresh
    /// data (paper §3.2: "Whenever the routing of keys is updated, the
    /// statistics are reinitialized").
    pub fn reset(&self) {
        self.locked().clear();
    }

    /// The sketch, also after an observer panicked holding it: an offer
    /// leaves the sketch whole, so the counts before the panic stand.
    fn locked(&self) -> MutexGuard<'_, SpaceSaving<(Key, Key)>> {
        self.sketch.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The engine-facing side of a [`PairTracker`].
#[derive(Debug, Clone)]
pub struct TrackerHandle(Arc<PairTracker>);

impl PairObserver for TrackerHandle {
    fn observe(&mut self, input: Key, output: Key) {
        self.0.locked().offer((input, output));
    }

    /// One lock acquisition and one weighted offer per run.
    fn observe_run(&mut self, input: Key, output: Key, count: u64) {
        if count > 0 {
            self.0.locked().offer_weighted((input, output), count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observes_and_snapshots() {
        let tracker = PairTracker::new(16);
        let mut handle = tracker.handle();
        for _ in 0..5 {
            handle.observe(Key::new(1), Key::new(10));
        }
        handle.observe(Key::new(2), Key::new(20));
        assert_eq!(tracker.total(), 6);
        let snap = tracker.snapshot();
        assert_eq!(snap.get(&(Key::new(1), Key::new(10))).unwrap().count, 5);
        assert_eq!(snap.get(&(Key::new(2), Key::new(20))).unwrap().count, 1);
    }

    #[test]
    fn reset_clears() {
        let tracker = PairTracker::new(16);
        tracker.handle().observe(Key::new(1), Key::new(2));
        tracker.reset();
        assert_eq!(tracker.total(), 0);
        assert!(tracker.snapshot().is_empty());
    }

    #[test]
    fn capacity_bounds_memory() {
        let tracker = PairTracker::new(4);
        let mut handle = tracker.handle();
        for i in 0..100 {
            handle.observe(Key::new(i % 10), Key::new(i % 7));
        }
        assert!(tracker.snapshot().len() <= 4);
        assert_eq!(tracker.total(), 100);
    }

    #[test]
    fn observe_run_matches_repeated_observe() {
        let run_tracker = PairTracker::new(8);
        let per_tracker = PairTracker::new(8);
        let mut run_handle = run_tracker.handle();
        let mut per_handle = per_tracker.handle();
        for (i, o, n) in [(1, 10, 5), (2, 20, 1), (1, 10, 3), (3, 30, 0)] {
            run_handle.observe_run(Key::new(i), Key::new(o), n);
            for _ in 0..n {
                per_handle.observe(Key::new(i), Key::new(o));
            }
        }
        assert_eq!(run_tracker.total(), per_tracker.total());
        let (a, b) = (run_tracker.snapshot(), per_tracker.snapshot());
        assert_eq!(a.get(&(Key::new(1), Key::new(10))).unwrap().count, 8);
        for entry in a.iter() {
            assert_eq!(b.get(entry.key).map(|e| e.count), Some(entry.count));
        }
    }

    /// Before the sketch fills it holds plain counters; a snapshot
    /// then orders them on demand. It must read exactly as a sketch
    /// ordered from its first offer, and `total()` must count every
    /// returned `observe_run`.
    #[test]
    fn snapshot_before_fill_equals_ordered_sketch() {
        let tracker = PairTracker::new(64);
        let mut handle = tracker.handle();
        let mut ordered = SpaceSaving::new(64);
        ordered.order_now();
        let mut returned = 0;
        for i in 0..200u64 {
            let (pair, n) = ((Key::new(i % 11), Key::new(i % 5)), i % 4);
            handle.observe_run(pair.0, pair.1, n);
            returned += n;
            ordered.offer_weighted(pair, n);
            assert_eq!(tracker.total(), returned);
        }
        let snap = tracker.snapshot();
        assert!(snap.len() < snap.capacity(), "the sketch must not fill");
        let listed = |s: &SpaceSaving<(Key, Key)>| -> Vec<_> {
            s.iter().map(|e| (*e.key, e.count, e.error)).collect()
        };
        assert_eq!(listed(&snap), listed(&ordered));
        assert_eq!(snap.min_count(), ordered.min_count());
        assert_eq!(snap.top_k(5), ordered.top_k(5));
    }

    /// Snapshots taken while two workers observe see every returned
    /// observation and never a torn sketch: below capacity the counts
    /// sum to `total()`, which only grows.
    #[test]
    fn concurrent_snapshots_see_every_returned_observation() {
        let tracker = PairTracker::new(1_000);
        let per_worker = 5_000u64;
        let workers: Vec<_> = (0..2u64)
            .map(|w| {
                let mut handle = tracker.handle();
                std::thread::spawn(move || {
                    for i in 0..per_worker {
                        handle.observe_run(Key::new(w), Key::new(i % 97), 1 + i % 3);
                    }
                })
            })
            .collect();
        let mut last = 0;
        while workers.iter().any(|h| !h.is_finished()) {
            let snap = tracker.snapshot();
            assert_eq!(snap.iter().map(|e| e.count).sum::<u64>(), snap.total());
            assert!(snap.total() >= last, "total went backwards");
            last = snap.total();
        }
        for h in workers {
            h.join().unwrap();
        }
        let per_worker_total: u64 = (0..per_worker).map(|i| 1 + i % 3).sum();
        assert_eq!(tracker.total(), 2 * per_worker_total);
        assert_eq!(tracker.snapshot().total(), 2 * per_worker_total);
    }

    /// A thread that panics holding the lock leaves it poisoned; the
    /// tracker keeps working on the counts taken before the panic.
    #[test]
    fn a_panic_under_the_lock_leaves_the_tracker_usable() {
        let tracker = PairTracker::new(16);
        let mut handle = tracker.handle();
        handle.observe_run(Key::new(1), Key::new(10), 3);
        handle.observe(Key::new(2), Key::new(20));
        let held = Arc::clone(&tracker);
        let crashed = std::thread::spawn(move || {
            let _guard = held.sketch.lock();
            panic!("a panic while the tracker lock is held");
        });
        assert!(crashed.join().is_err());
        assert!(tracker.sketch.is_poisoned());
        assert_eq!(tracker.total(), 4);
        let count = |t: &PairTracker, i, o| {
            let snap = t.snapshot();
            snap.get(&(Key::new(i), Key::new(o))).map(|e| e.count)
        };
        assert_eq!(count(&tracker, 1, 10), Some(3));
        assert_eq!(count(&tracker, 2, 20), Some(1));
        handle.observe_run(Key::new(1), Key::new(10), 2);
        assert_eq!(tracker.total(), 6);
        assert_eq!(count(&tracker, 1, 10), Some(5));
    }

    #[test]
    fn handles_share_one_sketch() {
        let tracker = PairTracker::new(8);
        let mut h1 = tracker.handle();
        let mut h2 = tracker.handle();
        h1.observe(Key::new(1), Key::new(1));
        h2.observe(Key::new(1), Key::new(1));
        assert_eq!(tracker.total(), 2);
    }
}
