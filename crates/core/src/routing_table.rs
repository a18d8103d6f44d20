//! Explicit key → instance routing tables with hash fallback.

use streamloc_engine::{
    key_run_len, push_dest_run, Counter, DestRun, HashRouter, Key, KeyRouter,
};
use streamloc_sketch::KeyMap;

/// How one key resolved against the table; cached in the `route_batch`
/// memo so repeated keys also skip the counter classification, and
/// replayed into the fallback counters in bulk (once per call) so the
/// totals stay numerically identical to per-tuple routing.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Resolution {
    /// Explicit in-range entry: no fallback counter.
    Hit,
    /// Entry points past the current parallelism: stale fallback.
    Stale,
    /// No entry: hash fallback.
    Missing,
}

/// A routing table for fields grouping: explicitly assigns the
/// monitored keys to operator instances and falls back to hash routing
/// for every other key (paper §3.3: "When a key is not present in the
/// routing table, it falls back to the standard hash-based routing
/// policy").
///
/// # Example
///
/// ```
/// use streamloc_core::RoutingTable;
/// use streamloc_engine::{HashRouter, Key, KeyRouter};
///
/// let table = RoutingTable::from_assignments([(Key::new(7), 2)]);
/// assert_eq!(table.route(Key::new(7), 4), 2);
/// // Unknown keys take the hash route.
/// let k = Key::new(100);
/// assert_eq!(table.route(k, 4), HashRouter.route(k, 4));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    table: KeyMap<Key, u32>,
    /// Incremented when a key takes the hash route because it has no
    /// explicit entry. Detached (free-floating) unless wired to a
    /// registry via [`RoutingTable::attach_fallback_counters`].
    hash_fallback: Counter,
    /// Incremented when a key takes the hash route because its explicit
    /// entry points past the current parallelism (stale entry).
    stale_entry_fallback: Counter,
    /// Reconfiguration epoch this table was generated in (the
    /// manager's wave count at build time). Surfaced through
    /// [`KeyRouter::epoch`] so span-tracing hops can tag latency
    /// observations with the routing generation they ran under.
    epoch: u64,
}

// Equality is over the routing decisions only; the observability
// counters are incidental state.
impl PartialEq for RoutingTable {
    fn eq(&self, other: &Self) -> bool {
        self.table == other.table
    }
}

impl RoutingTable {
    /// Creates an empty table (pure hash routing).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a table from explicit `(key, instance)` assignments.
    #[must_use]
    pub fn from_assignments<I>(assignments: I) -> Self
    where
        I: IntoIterator<Item = (Key, u32)>,
    {
        Self {
            table: assignments.into_iter().collect(),
            ..Self::default()
        }
    }

    /// Adds or replaces one assignment.
    pub fn insert(&mut self, key: Key, instance: u32) {
        self.table.insert(key, instance);
    }

    /// Explicit assignment of `key`, if present.
    #[must_use]
    pub fn get(&self, key: Key) -> Option<u32> {
        self.table.get(&key).copied()
    }

    /// Number of explicitly routed keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` when every key falls back to hashing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Iterates over the explicit `(key, instance)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (Key, u32)> + '_ {
        self.table.iter().map(|(&k, &i)| (k, i))
    }

    /// Removes every entry that points at an instance `>= instances`
    /// and returns how many were dropped.
    ///
    /// Call this when installing a table for a destination whose
    /// parallelism is known: stale entries would silently degrade to
    /// hash routing on every lookup (see [`KeyRouter::route`]), so it
    /// is cheaper — and observable via the return value — to purge
    /// them once at install time.
    pub fn purge_out_of_range(&mut self, instances: usize) -> usize {
        let before = self.table.len();
        self.table.retain(|_, &mut i| (i as usize) < instances);
        before - self.table.len()
    }

    /// Stamps the reconfiguration epoch this table belongs to.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The reconfiguration epoch stamped by [`set_epoch`]
    /// (0 for tables never stamped).
    ///
    /// [`set_epoch`]: Self::set_epoch
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Wires the fallback counters to externally owned handles
    /// (typically registered in a
    /// [`MetricsRegistry`](streamloc_engine::MetricsRegistry)). Until
    /// called, the counters are detached but still count.
    pub fn attach_fallback_counters(&mut self, hash: Counter, stale: Counter) {
        self.hash_fallback = hash;
        self.stale_entry_fallback = stale;
    }

    /// Number of lookups that fell back to hashing because the key had
    /// no explicit entry.
    #[must_use]
    pub fn hash_fallbacks(&self) -> u64 {
        self.hash_fallback.get()
    }

    /// Number of lookups that fell back to hashing because the entry
    /// pointed past the current parallelism.
    #[must_use]
    pub fn stale_entry_fallbacks(&self) -> u64 {
        self.stale_entry_fallback.get()
    }
}

impl KeyRouter for RoutingTable {
    fn route(&self, key: Key, instances: usize) -> u32 {
        match self.table.get(&key) {
            Some(&i) if (i as usize) < instances => i,
            // A stale table entry pointing past the current parallelism
            // degrades to hashing rather than panicking.
            Some(_) => {
                self.stale_entry_fallback.inc();
                HashRouter.route(key, instances)
            }
            None => {
                self.hash_fallback.inc();
                HashRouter.route(key, instances)
            }
        }
    }

    /// Looks up each run of equal keys once. A two-entry memo of the
    /// most recent distinct keys (carrying the fallback class so the
    /// counters stay exact) catches alternating traffic; the fallback
    /// counters get one bulk add per call instead of one RMW per tuple.
    fn route_batch(&self, keys: &[Key], instances: usize, out: &mut Vec<DestRun>) {
        let start = out.len();
        let mut memo: [Option<(Key, u32, Resolution)>; 2] = [None, None];
        let (mut stale, mut missing) = (0u64, 0u64);
        let mut rest = keys;
        while !rest.is_empty() {
            let key = rest[0];
            let len = key_run_len(rest) as u64;
            let (dest, res) = match memo {
                [Some((k, d, r)), _] if k == key => (d, r),
                [_, Some((k, d, r))] if k == key => {
                    memo.swap(0, 1); // keep the most recent key in front
                    (d, r)
                }
                _ => {
                    let (d, r) = match self.table.get(&key) {
                        Some(&i) if (i as usize) < instances => (i, Resolution::Hit),
                        Some(_) => (HashRouter.route(key, instances), Resolution::Stale),
                        None => (HashRouter.route(key, instances), Resolution::Missing),
                    };
                    memo[1] = memo[0];
                    memo[0] = Some((key, d, r));
                    (d, r)
                }
            };
            match res {
                Resolution::Hit => {}
                Resolution::Stale => stale += len,
                Resolution::Missing => missing += len,
            }
            push_dest_run(out, start, dest, len as u32);
            rest = &rest[len as usize..];
        }
        if stale > 0 {
            self.stale_entry_fallback.add(stale);
        }
        if missing > 0 {
            self.hash_fallback.add(missing);
        }
    }

    fn name(&self) -> &'static str {
        "table"
    }

    fn epoch(&self) -> Option<u64> {
        Some(self.epoch)
    }
}

impl FromIterator<(Key, u32)> for RoutingTable {
    fn from_iter<I: IntoIterator<Item = (Key, u32)>>(iter: I) -> Self {
        Self::from_assignments(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_entries_override_hash() {
        let mut t = RoutingTable::new();
        assert!(t.is_empty());
        t.insert(Key::new(1), 3);
        t.insert(Key::new(2), 0);
        assert_eq!(t.route(Key::new(1), 4), 3);
        assert_eq!(t.route(Key::new(2), 4), 0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(Key::new(1)), Some(3));
        assert_eq!(t.get(Key::new(9)), None);
    }

    #[test]
    fn fallback_matches_hash_router() {
        let t = RoutingTable::new();
        for v in 0..50 {
            let k = Key::new(v);
            for n in 1..8 {
                assert_eq!(t.route(k, n), HashRouter.route(k, n));
            }
        }
    }

    #[test]
    fn out_of_range_entry_degrades_to_hash() {
        let t = RoutingTable::from_assignments([(Key::new(5), 10)]);
        assert_eq!(t.route(Key::new(5), 4), HashRouter.route(Key::new(5), 4));
        // But valid again if parallelism grows.
        assert_eq!(t.route(Key::new(5), 11), 10);
    }

    #[test]
    fn purge_drops_only_out_of_range_entries() {
        let mut t = RoutingTable::from_assignments([
            (Key::new(1), 0),
            (Key::new(2), 3),
            (Key::new(3), 4),
            (Key::new(4), 9),
        ]);
        assert_eq!(t.purge_out_of_range(4), 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(Key::new(1)), Some(0));
        assert_eq!(t.get(Key::new(2)), Some(3));
        assert_eq!(t.get(Key::new(3)), None);
        assert_eq!(t.get(Key::new(4)), None);
        // Idempotent.
        assert_eq!(t.purge_out_of_range(4), 0);
    }

    #[test]
    fn fallback_counters_distinguish_missing_from_stale() {
        let t = RoutingTable::from_assignments([(Key::new(1), 0), (Key::new(2), 8)]);
        t.route(Key::new(1), 4); // explicit hit: no fallback
        t.route(Key::new(9), 4); // missing: hash fallback
        t.route(Key::new(2), 4); // stale: stale fallback
        t.route(Key::new(2), 4);
        assert_eq!(t.hash_fallbacks(), 1);
        assert_eq!(t.stale_entry_fallbacks(), 2);
    }

    #[test]
    fn route_batch_matches_per_key_route_and_counters() {
        use streamloc_engine::DestRun;
        // 1 → explicit hit, 2 → stale entry, everything else missing.
        let batch_t = RoutingTable::from_assignments([(Key::new(1), 0), (Key::new(2), 8)]);
        let tuple_t = batch_t.clone();
        // Runs, alternation across all three classes, and a mixed tail.
        let mut keys: Vec<Key> = Vec::new();
        keys.extend([1, 1, 1, 2, 2, 9, 1, 9, 1, 9, 2, 9, 2].map(Key::new));
        for v in 0..100u64 {
            keys.push(Key::new(streamloc_engine::splitmix64(v) % 5));
        }
        let mut runs: Vec<DestRun> = Vec::new();
        batch_t.route_batch(&keys, 4, &mut runs);
        let expanded: Vec<u32> = runs
            .iter()
            .flat_map(|r| std::iter::repeat_n(r.dest, r.len as usize))
            .collect();
        let per_key: Vec<u32> = keys.iter().map(|&k| tuple_t.route(k, 4)).collect();
        assert_eq!(expanded, per_key);
        // The fallback counters must be numerically identical too.
        assert_eq!(batch_t.hash_fallbacks(), tuple_t.hash_fallbacks());
        assert_eq!(
            batch_t.stale_entry_fallbacks(),
            tuple_t.stale_entry_fallbacks()
        );
        assert!(batch_t.hash_fallbacks() > 0);
        assert!(batch_t.stale_entry_fallbacks() > 0);
    }

    #[test]
    fn epoch_stamp_rides_outside_equality() {
        let mut a = RoutingTable::from_assignments([(Key::new(1), 0)]);
        let b = a.clone();
        assert_eq!(KeyRouter::epoch(&a), Some(0));
        a.set_epoch(3);
        assert_eq!(a.epoch(), 3);
        assert_eq!(KeyRouter::epoch(&a), Some(3));
        // Equality stays over routing decisions only.
        assert_eq!(a, b);
    }

    #[test]
    fn collects_from_iterator() {
        let t: RoutingTable = (0..10u64).map(|v| (Key::new(v), (v % 3) as u32)).collect();
        assert_eq!(t.len(), 10);
        assert_eq!(t.route(Key::new(4), 3), 1);
    }
}
