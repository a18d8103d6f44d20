//! Key routers: the pluggable policy behind fields grouping.

use crate::key::{splitmix64, Key};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A run of consecutive tuples routed to the same destination
/// instance, as produced by [`KeyRouter::route_batch`].
///
/// The columnar data plane consumes batches as `(dest, len)` runs: one
/// channel append, one edge-counter add and one sketch offer per run
/// instead of per tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DestRun {
    /// Destination instance index, in `0..instances`.
    pub dest: u32,
    /// Number of consecutive tuples routed there.
    pub len: u32,
}

/// Appends `(dest, len)` to `out`, coalescing with the previous run of
/// this call when the destination repeats. `start` is `out.len()` at
/// the beginning of the `route_batch` call, so runs never merge across
/// calls.
#[inline]
pub fn push_dest_run(out: &mut Vec<DestRun>, start: usize, dest: u32, len: u32) {
    if out.len() > start {
        if let Some(last) = out.last_mut() {
            if last.dest == dest {
                last.len += len;
                return;
            }
        }
    }
    out.push(DestRun { dest, len });
}

/// Length of the leading run of equal keys in `keys` (0 when empty).
#[inline]
pub fn key_run_len(keys: &[Key]) -> usize {
    match keys.first() {
        None => 0,
        Some(&first) => 1 + keys[1..].iter().take_while(|&&k| k == first).count(),
    }
}

/// Decides which instance of the downstream operator receives a key.
///
/// This is the extension point the paper's contribution plugs into:
/// the default is [`HashRouter`] (Storm's fields grouping); the
/// locality-aware system swaps in a table-based router generated from
/// the partitioned key graph. Implementations must be pure functions
/// of `(key, instances)` so that routing is deterministic.
pub trait KeyRouter: Send + Sync {
    /// Instance index in `0..instances` for `key`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `instances == 0`.
    fn route(&self, key: Key, instances: usize) -> u32;

    /// Routes a whole batch of keys at once, appending the resulting
    /// destination runs to `out` (runs within one call are coalesced;
    /// `sum(len) == keys.len()` always holds).
    ///
    /// The contract is strict equivalence: expanding the runs must
    /// yield exactly the per-key [`route`](KeyRouter::route) sequence,
    /// including any observable side effects (fallback counters, load
    /// state) in aggregate. The default implementation delegates
    /// per key; stateless routers whose decision is pure in the key
    /// ([`HashRouter`], `RoutingTable`) override it to route each run
    /// of equal keys once, with a small last-key memo for alternating
    /// keys — the batch-amortization lever of skewed streams, where
    /// correlated keys arrive in runs.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `instances == 0`.
    fn route_batch(&self, keys: &[Key], instances: usize, out: &mut Vec<DestRun>) {
        let start = out.len();
        for &key in keys {
            let dest = self.route(key, instances);
            push_dest_run(out, start, dest, 1);
        }
    }

    /// Short name used in experiment logs.
    fn name(&self) -> &'static str {
        "custom"
    }

    /// The reconfiguration epoch this router was generated in, when
    /// the implementation tracks one (`RoutingTable` does: the manager
    /// stamps each rebuilt table with its wave count). Span-tracing
    /// hops are tagged with the active epoch so latency distributions
    /// can be compared before and after each wave. Stateless routers
    /// return `None`.
    fn epoch(&self) -> Option<u64> {
        None
    }
}

impl fmt::Debug for dyn KeyRouter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyRouter({})", self.name())
    }
}

/// Hash-based fields grouping: `hash(key) % instances`.
///
/// Random-but-deterministic assignment; the baseline in every
/// experiment and the fallback for keys absent from routing tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HashRouter;

impl KeyRouter for HashRouter {
    fn route(&self, key: Key, instances: usize) -> u32 {
        assert!(instances > 0, "routing to an operator with no instances");
        (key.stable_hash() % instances as u64) as u32
    }

    /// Hashes each run of equal keys once. A two-entry memo of the
    /// most recent distinct keys catches alternating traffic (A B A B)
    /// that run detection alone cannot coalesce.
    fn route_batch(&self, keys: &[Key], instances: usize, out: &mut Vec<DestRun>) {
        assert!(instances > 0, "routing to an operator with no instances");
        let start = out.len();
        let mut memo: [Option<(Key, u32)>; 2] = [None, None];
        let mut rest = keys;
        while !rest.is_empty() {
            let key = rest[0];
            let len = key_run_len(rest);
            let dest = match memo {
                [Some((k, d)), _] if k == key => d,
                [_, Some((k, d))] if k == key => {
                    memo.swap(0, 1); // keep the most recent key in front
                    d
                }
                _ => {
                    let d = self.route(key, instances);
                    memo[1] = memo[0];
                    memo[0] = Some((key, d));
                    d
                }
            };
            push_dest_run(out, start, dest, len as u32);
            rest = &rest[len..];
        }
    }

    fn name(&self) -> &'static str {
        "hash"
    }
}

/// Modulo routing: key `v` goes to instance `v % instances`.
///
/// For the synthetic workload of §4.2, whose keys are integers in
/// `0..n`, this is exactly the "locality-aware" oracle routing table:
/// tuple `(i, j)` goes to instance `i` of the first operator and
/// instance `j` of the second, so tuples with `i == j` stay on one
/// server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModuloRouter;

impl KeyRouter for ModuloRouter {
    fn route(&self, key: Key, instances: usize) -> u32 {
        assert!(instances > 0, "routing to an operator with no instances");
        (key.value() % instances as u64) as u32
    }

    fn name(&self) -> &'static str {
        "modulo"
    }
}

/// Adversarial routing: key `v` goes to instance `(v + shift) %
/// instances`.
///
/// Paired with [`ModuloRouter`] on the previous hop, a `shift` of 1
/// guarantees that correlated synthetic tuples `(i, i)` always change
/// server between the two stateful operators — the paper's
/// "worst-case" lower bound (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShiftedRouter {
    shift: u64,
}

impl ShiftedRouter {
    /// Creates a router displacing keys by `shift` instances.
    #[must_use]
    pub fn new(shift: u64) -> Self {
        Self { shift }
    }
}

impl Default for ShiftedRouter {
    fn default() -> Self {
        Self::new(1)
    }
}

impl KeyRouter for ShiftedRouter {
    fn route(&self, key: Key, instances: usize) -> u32 {
        assert!(instances > 0, "routing to an operator with no instances");
        ((key.value() + self.shift) % instances as u64) as u32
    }

    fn name(&self) -> &'static str {
        "shifted"
    }
}

/// Partial key grouping (Nasir et al., ICDE 2015 — paper §5.2): each
/// key may go to either of two hash-chosen candidate instances, and
/// the sender picks the currently less-loaded one.
///
/// PKG balances skewed streams beautifully, but **splits each key's
/// state across two instances**, so it only suits operators whose
/// per-key state is aggregatable downstream — exactly the limitation
/// the paper contrasts its routing tables against. Provided here as
/// the load-balancing baseline for the balance ablation bench.
#[derive(Debug)]
pub struct PartialKeyRouter {
    loads: Vec<AtomicU64>,
}

impl PartialKeyRouter {
    /// Creates the router for a destination with `instances`
    /// instances.
    ///
    /// # Panics
    ///
    /// Panics if `instances == 0`.
    #[must_use]
    pub fn new(instances: usize) -> Self {
        assert!(instances > 0, "routing to an operator with no instances");
        Self {
            loads: (0..instances).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Tuples sent so far to each instance.
    #[must_use]
    pub fn loads(&self) -> Vec<u64> {
        self.loads.iter().map(|l| l.load(Ordering::Relaxed)).collect()
    }
}

impl KeyRouter for PartialKeyRouter {
    fn route(&self, key: Key, instances: usize) -> u32 {
        assert!(instances > 0, "routing to an operator with no instances");
        let h1 = (key.stable_hash() % instances as u64) as usize;
        if instances != self.loads.len() {
            return h1 as u32; // built for another parallelism
        }
        let h2 = (splitmix64(key.value() ^ 0x7ce9_u64) % instances as u64) as usize;
        let pick = if self.loads[h1].load(Ordering::Relaxed)
            <= self.loads[h2].load(Ordering::Relaxed)
        {
            h1
        } else {
            h2
        };
        self.loads[pick].fetch_add(1, Ordering::Relaxed);
        pick as u32
    }

    fn name(&self) -> &'static str {
        "pkg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_router_is_stable_and_in_range() {
        let r = HashRouter;
        for v in 0..100 {
            let k = Key::new(v);
            let a = r.route(k, 6);
            assert!(a < 6);
            assert_eq!(a, r.route(k, 6), "routing must be deterministic");
        }
    }

    #[test]
    fn hash_router_spreads_uniformly() {
        let r = HashRouter;
        let mut counts = [0u32; 4];
        for v in 0..4000 {
            counts[r.route(Key::new(v), 4) as usize] += 1;
        }
        for &c in &counts {
            assert!((800..=1200).contains(&c), "bucket count {c} skewed");
        }
    }

    #[test]
    fn modulo_router_is_identity_for_small_keys() {
        let r = ModuloRouter;
        for v in 0..6 {
            assert_eq!(r.route(Key::new(v), 6), v as u32);
        }
        assert_eq!(r.route(Key::new(7), 6), 1);
    }

    #[test]
    fn shifted_router_never_matches_modulo() {
        let m = ModuloRouter;
        let s = ShiftedRouter::new(1);
        for v in 0..100 {
            let k = Key::new(v);
            for n in 2..7 {
                assert_ne!(m.route(k, n), s.route(k, n), "shift must displace");
            }
        }
    }

    #[test]
    #[should_panic(expected = "no instances")]
    fn zero_instances_panics() {
        let _ = HashRouter.route(Key::new(1), 0);
    }

    #[test]
    fn pkg_balances_a_skewed_stream() {
        // One scorching key + a long tail: hash piles the hot key on
        // one instance; PKG splits it across its two candidates.
        let n = 4;
        let pkg = PartialKeyRouter::new(n);
        let hash = HashRouter;
        let mut hash_loads = [0u64; 4];
        for i in 0..10_000u64 {
            let key = if i % 2 == 0 { Key::new(0) } else { Key::new(i) };
            let _ = pkg.route(key, n);
            hash_loads[hash.route(key, n) as usize] += 1;
        }
        let pkg_loads = pkg.loads();
        let imb = |loads: &[u64]| {
            let max = *loads.iter().max().unwrap() as f64;
            let avg = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
            max / avg
        };
        assert!(
            imb(&pkg_loads) < 1.3,
            "pkg should balance: {pkg_loads:?}"
        );
        assert!(
            imb(&hash_loads) > 1.8,
            "hash should be skewed: {hash_loads:?}"
        );
    }

    /// Expands `(dest, len)` runs back into one destination per key.
    fn expand(runs: &[DestRun]) -> Vec<u32> {
        runs.iter()
            .flat_map(|r| std::iter::repeat_n(r.dest, r.len as usize))
            .collect()
    }

    fn per_key(router: &dyn KeyRouter, keys: &[Key], instances: usize) -> Vec<u32> {
        keys.iter().map(|&k| router.route(k, instances)).collect()
    }

    #[test]
    fn route_batch_matches_per_key_route() {
        // Runs, alternation, and a long mixed tail.
        let mut keys: Vec<Key> = Vec::new();
        keys.extend([3, 3, 3, 7, 3, 7, 3, 7, 9, 9].map(Key::new));
        for v in 0..200u64 {
            keys.push(Key::new(splitmix64(v) % 17));
        }
        for instances in 1..6 {
            for router in [&HashRouter as &dyn KeyRouter, &ModuloRouter, &ShiftedRouter::new(2)] {
                let mut runs = Vec::new();
                router.route_batch(&keys, instances, &mut runs);
                assert_eq!(
                    expand(&runs),
                    per_key(router, &keys, instances),
                    "{} route_batch diverged at parallelism {instances}",
                    router.name()
                );
                assert_eq!(
                    runs.iter().map(|r| r.len as usize).sum::<usize>(),
                    keys.len()
                );
                // Runs are maximal: no two adjacent runs share a dest.
                assert!(runs.windows(2).all(|w| w[0].dest != w[1].dest));
            }
        }
    }

    #[test]
    fn route_batch_memo_covers_alternating_keys() {
        // A B A B …: run detection sees only length-1 runs, so any
        // coalescing must come from the memo — and the output must
        // still match the per-key baseline exactly.
        let keys: Vec<Key> = (0..100).map(|i| Key::new(if i % 2 == 0 { 5 } else { 11 })).collect();
        let mut runs = Vec::new();
        HashRouter.route_batch(&keys, 7, &mut runs);
        assert_eq!(expand(&runs), per_key(&HashRouter, &keys, 7));
    }

    #[test]
    fn route_batch_appends_without_cross_call_merge() {
        let mut runs = vec![DestRun { dest: 0, len: 3 }];
        // Key 0 hashes somewhere; even if it lands on dest 0 the new
        // run must not merge into the pre-existing one.
        HashRouter.route_batch(&[Key::new(0), Key::new(0)], 1, &mut runs);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0], DestRun { dest: 0, len: 3 });
        assert_eq!(runs[1], DestRun { dest: 0, len: 2 });
    }

    #[test]
    fn route_batch_empty_is_noop() {
        let mut runs = Vec::new();
        HashRouter.route_batch(&[], 4, &mut runs);
        assert!(runs.is_empty());
    }

    #[test]
    fn key_run_len_detects_leading_runs() {
        let keys = [1, 1, 1, 2, 1].map(Key::new);
        assert_eq!(key_run_len(&keys), 3);
        assert_eq!(key_run_len(&keys[3..]), 1);
        assert_eq!(key_run_len(&[]), 0);
    }

    #[test]
    fn pkg_uses_at_most_two_instances_per_key() {
        let n = 6;
        let pkg = PartialKeyRouter::new(n);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(pkg.route(Key::new(42), n));
        }
        assert!(seen.len() <= 2, "key split over {seen:?}");
    }
}
