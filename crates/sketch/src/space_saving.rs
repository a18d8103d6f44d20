//! The SpaceSaving stream-summary structure.

use std::cmp::{Ordering, Reverse};
use std::collections::hash_map::Entry as MapEntry;
use std::fmt;
use std::hash::Hash;

use crate::{KeyMap, KeyState};

/// Identifier of an entry slot in the slab.
type EntryId = usize;
/// Identifier of a bucket slot in the slab.
type BucketId = usize;

const NIL: usize = usize::MAX;

/// A frequency estimate returned by [`SpaceSaving::get`].
///
/// The true count `f` of the item is bounded by
/// `count - error <= f <= count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Estimate {
    /// Upper bound on the item's true count.
    pub count: u64,
    /// Maximum overestimation: the count the item inherited when it
    /// (re-)entered the summary by evicting the minimum.
    pub error: u64,
}

impl Estimate {
    /// Lower bound on the item's true count (`count - error`).
    ///
    /// Estimates produced by [`SpaceSaving`] always satisfy
    /// `error <= count`; a hand-built or corrupted estimate may not,
    /// so the subtraction saturates at zero instead of overflowing in
    /// release builds.
    #[must_use]
    pub fn guaranteed(&self) -> u64 {
        debug_assert!(
            self.error <= self.count,
            "Estimate invariant violated: error {} > count {}",
            self.error,
            self.count
        );
        self.count.saturating_sub(self.error)
    }
}

/// A monitored item yielded by [`SpaceSaving::iter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry<'a, K> {
    /// The monitored key.
    pub key: &'a K,
    /// Upper bound on the key's true count.
    pub count: u64,
    /// Maximum overestimation of `count`.
    pub error: u64,
}

/// A monitored item of a summary that has not evicted yet.
#[derive(Debug, Clone, Copy)]
struct Counter {
    count: u64,
    error: u64,
    /// Sequence number of the last offer that touched the item.
    touched: u64,
}

impl Counter {
    /// Position in the stream summary, ascending: by count, and among
    /// equal counts by last touch — the summary lists a bucket's
    /// entries most recently attached first, and an entry is
    /// re-attached on every offer that touches it.
    fn rank(&self) -> (u64, u64) {
        (self.count, self.touched)
    }

    fn estimate(&self) -> Estimate {
        Estimate {
            count: self.count,
            error: self.error,
        }
    }
}

#[derive(Debug, Clone)]
struct EntrySlot<K> {
    key: K,
    error: u64,
    bucket: BucketId,
    prev: EntryId,
    next: EntryId,
}

#[derive(Debug, Clone, Copy)]
struct BucketSlot {
    count: u64,
    head: EntryId,
    len: usize,
    prev: BucketId,
    next: BucketId,
}

#[derive(Debug, Clone)]
enum Store<K> {
    /// Plain counters, kept until the first offer that must evict.
    Flat {
        counters: KeyMap<K, Counter>,
        /// Offers seen so far: the `touched` stamp of the latest one.
        clock: u64,
    },
    /// The ordered stream summary, built at the first eviction.
    Summary(Summary<K>),
}

impl<K> Store<K> {
    fn flat() -> Self {
        Self::Flat {
            counters: KeyMap::default(),
            clock: 0,
        }
    }

    fn len(&self) -> usize {
        match self {
            Self::Flat { counters, .. } => counters.len(),
            Self::Summary(s) => s.index.len(),
        }
    }
}

/// SpaceSaving top-k summary (Metwally et al., ICDT 2005).
///
/// Maintains at most `capacity` monitored items. While there is room
/// for every item offered, an offer is one hash-map update of a plain
/// counter, and ordered reads sort the counters on the fly. The first
/// offer that must evict sorts them once into a *stream summary*: a
/// doubly-linked list of buckets ordered by count, each holding the
/// items sharing that count. Incrementing an item by 1 moves it at most
/// one bucket forward, so updates are O(1) amortized. The summary is
/// kept until [`clear`](SpaceSaving::clear).
///
/// Both regimes yield the same state for every sequence of offers:
/// equal counts are ordered most recently touched first, and an
/// eviction removes the most recently touched item of minimum count.
///
/// # Guarantees
///
/// With `N = total()` observations and capacity `m`:
///
/// * every reported count overestimates the true count by at most
///   `min_count() <= N / m`;
/// * any item whose true count exceeds `N / m` is present in the summary.
///
/// # Example
///
/// ```
/// use streamloc_sketch::SpaceSaving;
///
/// let mut ss = SpaceSaving::new(2);
/// ss.offer(1u32);
/// ss.offer(1);
/// ss.offer(2);
/// ss.offer(3); // evicts the minimum (key 2), inheriting its count
/// assert_eq!(ss.get(&1).unwrap().count, 2);
/// let est = ss.get(&3).unwrap();
/// assert_eq!(est.count, 2);
/// assert_eq!(est.error, 1);
/// ```
#[derive(Clone)]
pub struct SpaceSaving<K> {
    capacity: usize,
    store: Store<K>,
    total: u64,
}

impl<K: fmt::Debug> fmt::Debug for SpaceSaving<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpaceSaving")
            .field("capacity", &self.capacity)
            .field("len", &self.store.len())
            .field("total", &self.total)
            .finish_non_exhaustive()
    }
}

impl<K: Eq + Hash + Clone> SpaceSaving<K> {
    /// Creates a summary monitoring at most `capacity` distinct items.
    /// Nothing is allocated up front: storage grows with the number of
    /// distinct items, up to `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "SpaceSaving capacity must be positive");
        Self {
            capacity,
            store: Store::flat(),
            total: 0,
        }
    }

    /// Number of distinct items currently monitored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Returns `true` when no item is monitored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of monitored items.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total weight offered since creation or the last [`clear`].
    ///
    /// [`clear`]: SpaceSaving::clear
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest count in the summary (0 when empty). This bounds the
    /// overestimation error of any newly inserted item.
    #[must_use]
    pub fn min_count(&self) -> u64 {
        match &self.store {
            Store::Flat { counters, .. } => counters.values().map(|c| c.count).min().unwrap_or(0),
            Store::Summary(s) => s.min_count(),
        }
    }

    /// Observes one occurrence of `key`.
    ///
    /// If the summary is full and `key` is not monitored, the item with
    /// the minimum count is evicted and `key` inherits its count as
    /// error, per the SpaceSaving replacement rule.
    pub fn offer(&mut self, key: K) {
        self.offer_weighted(key, 1);
    }

    /// Observes `weight` occurrences of `key` at once.
    ///
    /// Weighted updates follow the weighted SpaceSaving variant: an
    /// evicting insertion inherits `min_count()` as its error. Until
    /// the first eviction every offer is one hash-map update. After
    /// it, updates with large weights may walk several buckets and are
    /// O(distinct counts) in the worst case; `weight == 1` is O(1)
    /// amortized.
    pub fn offer_weighted(&mut self, key: K, weight: u64) {
        if weight == 0 {
            return;
        }
        self.total += weight;
        let key = match &mut self.store {
            Store::Flat { counters, clock } => {
                *clock += 1;
                let len = counters.len();
                match counters.entry(key) {
                    MapEntry::Occupied(mut slot) => {
                        let counter = slot.get_mut();
                        counter.count += weight;
                        counter.touched = *clock;
                        return;
                    }
                    MapEntry::Vacant(slot) if len < self.capacity => {
                        slot.insert(Counter {
                            count: weight,
                            error: 0,
                            touched: *clock,
                        });
                        return;
                    }
                    // The first offer that must evict orders the summary.
                    MapEntry::Vacant(slot) => slot.into_key(),
                }
            }
            Store::Summary(_) => key,
        };
        let capacity = self.capacity;
        self.summary().offer(key, weight, capacity);
    }

    /// Returns the estimate for `key`, if monitored.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<Estimate> {
        match &self.store {
            Store::Flat { counters, .. } => counters.get(key).map(Counter::estimate),
            Store::Summary(s) => s.get(key),
        }
    }

    /// Returns `true` if `key` is currently monitored.
    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        match &self.store {
            Store::Flat { counters, .. } => counters.contains_key(key),
            Store::Summary(s) => s.index.contains_key(key),
        }
    }

    /// Iterates over monitored items in descending count order.
    ///
    /// Equal counts are returned most recently touched first (after
    /// [`from_counts`](SpaceSaving::from_counts): in key order). A
    /// summary that never evicted sorts its counters here, in
    /// O(len log len).
    #[must_use]
    pub fn iter(&self) -> Iter<'_, K> {
        match &self.store {
            Store::Flat { counters, .. } => {
                let mut items: Vec<(&K, Counter)> = counters.iter().map(|(k, c)| (k, *c)).collect();
                items.sort_unstable_by_key(|(_, c)| Reverse(c.rank()));
                Iter(IterInner::Sorted(items.into_iter()))
            }
            Store::Summary(s) => s.iter(),
        }
    }

    /// Returns the `k` most frequent items, descending by count.
    #[must_use]
    pub fn top_k(&self, k: usize) -> Vec<(K, Estimate)> {
        self.iter()
            .take(k)
            .map(|e| {
                (
                    e.key.clone(),
                    Estimate {
                        count: e.count,
                        error: e.error,
                    },
                )
            })
            .collect()
    }

    /// Removes every monitored item and resets [`total`].
    ///
    /// The routing manager calls this after each reconfiguration so that
    /// statistics only reflect data observed since the last routing
    /// update (paper §3.2). The summary goes back to plain counters.
    ///
    /// [`total`]: SpaceSaving::total
    pub fn clear(&mut self) {
        match &mut self.store {
            Store::Flat { counters, clock } => {
                counters.clear();
                *clock = 0;
            }
            Store::Summary(_) => self.store = Store::flat(),
        }
        self.total = 0;
    }

    /// Builds a summary of capacity `capacity` from explicit
    /// `(key, count, error)` triples, keeping the `capacity` largest
    /// counts (ties broken by key order, so the result is fully
    /// deterministic). Duplicate keys are not allowed.
    ///
    /// This is the primitive used by [`merged`](SpaceSaving::merged).
    #[must_use]
    pub fn from_counts<I>(capacity: usize, items: I) -> Self
    where
        I: IntoIterator<Item = (K, u64, u64)>,
        K: Ord,
    {
        let mut items: Vec<(K, u64, u64)> = items.into_iter().collect();
        items.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        items.truncate(capacity);
        let mut out = Self::new(capacity);
        let Store::Flat { counters, clock } = &mut out.store else {
            unreachable!("a new summary holds plain counters");
        };
        counters.reserve(items.len());
        // Stamped as if offered in ascending (count, descending key)
        // order: among equal counts the smallest key is the most
        // recently touched, so it iterates first.
        *clock = items.len() as u64;
        for (i, (key, count, error)) in items.into_iter().enumerate() {
            if count == 0 {
                continue;
            }
            let counter = Counter {
                count,
                error,
                touched: *clock - i as u64,
            };
            let dup = counters.insert(key, counter);
            assert!(dup.is_none(), "from_counts: duplicate key");
            out.total += count - error;
        }
        out
    }

    /// Merges two summaries into a new one of capacity `capacity`,
    /// following the mergeable-summaries construction (Agarwal et al.):
    /// counts of common keys add up; a key present in only one summary
    /// is assumed to have up to `min_count()` occurrences in the other,
    /// which is added to both its count and its error.
    ///
    /// The routing manager uses this to combine the pair statistics
    /// reported by every instance of an operator. Each input is read
    /// once and sorted by key; the two sorted runs are then merged.
    #[must_use]
    pub fn merged(a: &Self, b: &Self, capacity: usize) -> Self
    where
        K: Ord,
    {
        let (a_items, a_min) = a.by_key();
        let (b_items, b_min) = b.by_key();
        let mut combined = Vec::with_capacity(a_items.len() + b_items.len());
        let (mut a_items, mut b_items) = (
            a_items.into_iter().peekable(),
            b_items.into_iter().peekable(),
        );
        loop {
            let order = match (a_items.peek(), b_items.peek()) {
                (Some(x), Some(y)) => x.0.cmp(y.0),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => break,
            };
            let (key, count, error) = match order {
                // Keys of `a` missing from `b` get the b_min correction.
                Ordering::Less => {
                    let (k, c, e) = a_items.next().expect("peeked");
                    (k, c + b_min, e + b_min)
                }
                Ordering::Greater => {
                    let (k, c, e) = b_items.next().expect("peeked");
                    (k, c + a_min, e + a_min)
                }
                Ordering::Equal => {
                    let (k, ca, ea) = a_items.next().expect("peeked");
                    let (_, cb, eb) = b_items.next().expect("peeked");
                    (k, ca + cb, ea + eb)
                }
            };
            combined.push((key.clone(), count, error));
        }
        let mut out = Self::from_counts(capacity, combined);
        out.total = a.total + b.total;
        out
    }

    /// The `(key, count, error)` triples sorted by key, and the count a
    /// key missing from this summary may have had in its stream:
    /// `min_count()` when full, else 0.
    fn by_key(&self) -> (Vec<(&K, u64, u64)>, u64)
    where
        K: Ord,
    {
        let mut items: Vec<(&K, u64, u64)> = match &self.store {
            Store::Flat { counters, .. } => counters
                .iter()
                .map(|(k, c)| (k, c.count, c.error))
                .collect(),
            Store::Summary(s) => s
                .entries
                .iter()
                .map(|e| (&e.key, s.buckets[e.bucket].count, e.error))
                .collect(),
        };
        let missing = if items.len() == self.capacity {
            items.iter().map(|&(_, c, _)| c).min().unwrap_or(0)
        } else {
            0
        };
        items.sort_unstable_by(|x, y| x.0.cmp(y.0));
        (items, missing)
    }

    /// Orders the summary now instead of at the first eviction. Later
    /// offers maintain the bucket list, until [`clear`]. Observable
    /// state is the same either way; this exists so tests can compare
    /// the two regimes.
    ///
    /// [`clear`]: SpaceSaving::clear
    #[doc(hidden)]
    pub fn order_now(&mut self) {
        self.summary();
    }

    /// The stream summary, built from the plain counters on first use.
    fn summary(&mut self) -> &mut Summary<K> {
        if let Store::Flat { counters, .. } = &mut self.store {
            self.store = Store::Summary(Summary::from_counters(std::mem::take(counters)));
        }
        match &mut self.store {
            Store::Summary(s) => s,
            Store::Flat { .. } => unreachable!("ordered above"),
        }
    }

    /// Validates every structural invariant. Used by tests; O(len log len).
    ///
    /// # Panics
    ///
    /// Panics (with a description) on any violated invariant.
    pub fn check_invariants(&self) {
        assert!(self.len() <= self.capacity, "len exceeds capacity");
        match &self.store {
            Store::Flat { counters, clock } => {
                let mut stamps: Vec<u64> = Vec::with_capacity(counters.len());
                for c in counters.values() {
                    assert!(c.count > 0, "zero count monitored");
                    assert!(c.error <= c.count, "error exceeds count");
                    assert!(
                        (1..=*clock).contains(&c.touched),
                        "touched stamp out of range"
                    );
                    stamps.push(c.touched);
                }
                stamps.sort_unstable();
                assert!(
                    stamps.windows(2).all(|w| w[0] < w[1]),
                    "touched stamps not unique"
                );
            }
            Store::Summary(s) => s.check_invariants(),
        }
    }
}

/// The stream summary: buckets of equal count in a doubly-linked list
/// ascending by count, each listing its entries most recently attached
/// first.
#[derive(Debug, Clone)]
struct Summary<K> {
    index: KeyMap<K, EntryId>,
    entries: Vec<EntrySlot<K>>,
    buckets: Vec<BucketSlot>,
    free_buckets: Vec<BucketId>,
    min_bucket: BucketId,
    max_bucket: BucketId,
}

impl<K: Eq + Hash + Clone> Summary<K> {
    /// Builds the summary of `counters` by attaching them in ascending
    /// (count, last touch) order, so each bucket lists its entries most
    /// recently touched first — the order unit offers would have left.
    fn from_counters(counters: KeyMap<K, Counter>) -> Self {
        let mut items: Vec<(K, Counter)> = counters.into_iter().collect();
        items.sort_unstable_by_key(|(_, c)| c.rank());
        let mut out = Self {
            index: KeyMap::with_capacity_and_hasher(items.len(), KeyState::default()),
            entries: Vec::with_capacity(items.len()),
            buckets: Vec::new(),
            free_buckets: Vec::new(),
            min_bucket: NIL,
            max_bucket: NIL,
        };
        for (key, counter) in items {
            let e = out.entries.len();
            out.entries.push(EntrySlot {
                key: key.clone(),
                error: counter.error,
                bucket: NIL,
                prev: NIL,
                next: NIL,
            });
            out.index.insert(key, e);
            let last = out.max_bucket;
            let bucket = if last != NIL && out.buckets[last].count == counter.count {
                last
            } else {
                out.new_bucket(counter.count, last, NIL)
            };
            out.attach(e, bucket);
        }
        out
    }

    fn min_count(&self) -> u64 {
        if self.min_bucket == NIL {
            0
        } else {
            self.buckets[self.min_bucket].count
        }
    }

    fn offer(&mut self, key: K, weight: u64, capacity: usize) {
        if let Some(&e) = self.index.get(&key) {
            self.increase(e, weight);
        } else if self.index.len() < capacity {
            let e = self.entries.len();
            self.entries.push(EntrySlot {
                key: key.clone(),
                error: 0,
                bucket: NIL,
                prev: NIL,
                next: NIL,
            });
            self.index.insert(key, e);
            self.place(e, weight, NIL, self.min_bucket);
        } else {
            // Evict one item from the minimum bucket.
            let min = self.min_bucket;
            let victim = self.buckets[min].head;
            let inherited = self.buckets[min].count;
            let old_key = std::mem::replace(&mut self.entries[victim].key, key.clone());
            self.index.remove(&old_key);
            self.index.insert(key, victim);
            self.entries[victim].error = inherited;
            self.increase(victim, weight);
        }
    }

    fn get(&self, key: &K) -> Option<Estimate> {
        self.index.get(key).map(|&e| {
            let entry = &self.entries[e];
            Estimate {
                count: self.buckets[entry.bucket].count,
                error: entry.error,
            }
        })
    }

    fn iter(&self) -> Iter<'_, K> {
        let entry = if self.max_bucket == NIL {
            NIL
        } else {
            self.buckets[self.max_bucket].head
        };
        Iter(IterInner::Summary {
            summary: self,
            bucket: self.max_bucket,
            entry,
        })
    }

    /// Moves entry `e` forward by `add` counts.
    fn increase(&mut self, e: EntryId, add: u64) {
        let old_bucket = self.entries[e].bucket;
        let target = self.buckets[old_bucket].count + add;
        self.detach(e);
        let (scan_prev, scan_from) = if self.buckets[old_bucket].len == 0 {
            let prev = self.buckets[old_bucket].prev;
            let next = self.buckets[old_bucket].next;
            self.unlink_bucket(old_bucket);
            (prev, next)
        } else {
            (old_bucket, self.buckets[old_bucket].next)
        };
        self.place(e, target, scan_prev, scan_from);
    }

    /// Inserts entry `e` (already detached) into the bucket holding
    /// `count`, scanning forward from `from` (with `prev` the bucket
    /// just before `from`, or `NIL`). Creates the bucket if missing.
    fn place(&mut self, e: EntryId, count: u64, mut prev: BucketId, mut from: BucketId) {
        while from != NIL && self.buckets[from].count < count {
            prev = from;
            from = self.buckets[from].next;
        }
        let bucket = if from != NIL && self.buckets[from].count == count {
            from
        } else {
            self.new_bucket(count, prev, from)
        };
        self.attach(e, bucket);
    }

    /// Allocates a bucket with `count` between `prev` and `next`.
    fn new_bucket(&mut self, count: u64, prev: BucketId, next: BucketId) -> BucketId {
        let slot = BucketSlot {
            count,
            head: NIL,
            len: 0,
            prev,
            next,
        };
        let b = if let Some(free) = self.free_buckets.pop() {
            self.buckets[free] = slot;
            free
        } else {
            self.buckets.push(slot);
            self.buckets.len() - 1
        };
        if prev != NIL {
            self.buckets[prev].next = b;
        } else {
            self.min_bucket = b;
        }
        if next != NIL {
            self.buckets[next].prev = b;
        } else {
            self.max_bucket = b;
        }
        b
    }

    /// Removes an empty bucket from the ordered list.
    fn unlink_bucket(&mut self, b: BucketId) {
        debug_assert_eq!(self.buckets[b].len, 0);
        let (prev, next) = (self.buckets[b].prev, self.buckets[b].next);
        if prev != NIL {
            self.buckets[prev].next = next;
        } else {
            self.min_bucket = next;
        }
        if next != NIL {
            self.buckets[next].prev = prev;
        } else {
            self.max_bucket = prev;
        }
        self.free_buckets.push(b);
    }

    /// Detaches entry `e` from its bucket's entry list (bucket link
    /// fields on the entry are left stale; `attach` rewrites them).
    fn detach(&mut self, e: EntryId) {
        let (bucket, prev, next) = {
            let slot = &self.entries[e];
            (slot.bucket, slot.prev, slot.next)
        };
        if prev != NIL {
            self.entries[prev].next = next;
        } else {
            self.buckets[bucket].head = next;
        }
        if next != NIL {
            self.entries[next].prev = prev;
        }
        self.buckets[bucket].len -= 1;
    }

    /// Pushes entry `e` at the front of `bucket`'s entry list.
    fn attach(&mut self, e: EntryId, bucket: BucketId) {
        let head = self.buckets[bucket].head;
        self.entries[e].bucket = bucket;
        self.entries[e].prev = NIL;
        self.entries[e].next = head;
        if head != NIL {
            self.entries[head].prev = e;
        }
        self.buckets[bucket].head = e;
        self.buckets[bucket].len += 1;
    }

    fn check_invariants(&self) {
        let mut seen_entries = 0usize;
        let mut b = self.min_bucket;
        let mut prev_bucket = NIL;
        let mut prev_count = 0u64;
        while b != NIL {
            let bucket = &self.buckets[b];
            assert!(bucket.len > 0, "empty bucket in list");
            assert!(
                prev_bucket == NIL || bucket.count > prev_count,
                "bucket counts not strictly ascending"
            );
            assert_eq!(bucket.prev, prev_bucket, "bucket prev link broken");
            let mut e = bucket.head;
            let mut prev_entry = NIL;
            let mut n = 0usize;
            while e != NIL {
                let entry = &self.entries[e];
                assert_eq!(entry.bucket, b, "entry bucket backref broken");
                assert_eq!(entry.prev, prev_entry, "entry prev link broken");
                assert!(entry.error <= bucket.count, "error exceeds count");
                assert_eq!(
                    self.index.get(&entry.key),
                    Some(&e),
                    "index does not point at entry"
                );
                prev_entry = e;
                e = entry.next;
                n += 1;
            }
            assert_eq!(n, bucket.len, "bucket len mismatch");
            seen_entries += n;
            prev_count = bucket.count;
            prev_bucket = b;
            b = bucket.next;
        }
        assert_eq!(prev_bucket, self.max_bucket, "max_bucket mismatch");
        assert_eq!(seen_entries, self.index.len(), "orphan entries");
    }
}

/// Descending-count iterator over a [`SpaceSaving`] summary.
#[derive(Debug)]
pub struct Iter<'a, K>(IterInner<'a, K>);

#[derive(Debug)]
enum IterInner<'a, K> {
    /// The counters of a summary that never evicted, sorted.
    Sorted(std::vec::IntoIter<(&'a K, Counter)>),
    /// A walk of the stream summary's bucket list.
    Summary {
        summary: &'a Summary<K>,
        bucket: BucketId,
        entry: EntryId,
    },
}

impl<'a, K: Eq + Hash + Clone> Iterator for Iter<'a, K> {
    type Item = Entry<'a, K>;

    fn next(&mut self) -> Option<Self::Item> {
        let (summary, bucket, entry) = match &mut self.0 {
            IterInner::Sorted(items) => {
                return items.next().map(|(key, c)| Entry {
                    key,
                    count: c.count,
                    error: c.error,
                })
            }
            IterInner::Summary {
                summary,
                bucket,
                entry,
            } => (*summary, bucket, entry),
        };
        if *bucket == NIL {
            return None;
        }
        while *entry == NIL {
            *bucket = summary.buckets[*bucket].prev;
            if *bucket == NIL {
                return None;
            }
            *entry = summary.buckets[*bucket].head;
        }
        let slot = &summary.entries[*entry];
        let item = Entry {
            key: &slot.key,
            count: summary.buckets[*bucket].count,
            error: slot.error,
        };
        *entry = slot.next;
        Some(item)
    }
}

impl<'a, K: Eq + Hash + Clone> IntoIterator for &'a SpaceSaving<K> {
    type Item = Entry<'a, K>;
    type IntoIter = Iter<'a, K>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<K: Eq + Hash + Clone> Extend<K> for SpaceSaving<K> {
    fn extend<I: IntoIterator<Item = K>>(&mut self, iter: I) {
        for key in iter {
            self.offer(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn single_key_counts_exactly() {
        let mut ss = SpaceSaving::new(4);
        for _ in 0..10 {
            ss.offer("x");
        }
        let est = ss.get(&"x").unwrap();
        assert_eq!(est.count, 10);
        assert_eq!(est.error, 0);
        assert_eq!(ss.total(), 10);
        ss.check_invariants();
    }

    #[test]
    fn below_capacity_is_exact() {
        let mut ss = SpaceSaving::new(8);
        let stream = [1, 2, 3, 1, 2, 1, 4, 4, 4, 4];
        for k in stream {
            ss.offer(k);
        }
        assert_eq!(ss.get(&1).unwrap().count, 3);
        assert_eq!(ss.get(&2).unwrap().count, 2);
        assert_eq!(ss.get(&3).unwrap().count, 1);
        assert_eq!(ss.get(&4).unwrap().count, 4);
        for k in [1, 2, 3, 4] {
            assert_eq!(ss.get(&k).unwrap().error, 0);
        }
        ss.check_invariants();
    }

    #[test]
    fn eviction_inherits_min_count() {
        let mut ss = SpaceSaving::new(2);
        ss.offer("a");
        ss.offer("a");
        ss.offer("b");
        ss.offer("c"); // evicts b (count 1)
        assert!(!ss.contains(&"b"));
        let est = ss.get(&"c").unwrap();
        assert_eq!(est.count, 2);
        assert_eq!(est.error, 1);
        assert_eq!(est.guaranteed(), 1);
        ss.check_invariants();
    }

    #[test]
    fn iter_is_descending() {
        let mut ss = SpaceSaving::new(16);
        for (k, n) in [("a", 5), ("b", 3), ("c", 7), ("d", 1)] {
            for _ in 0..n {
                ss.offer(k);
            }
        }
        let counts: Vec<u64> = ss.iter().map(|e| e.count).collect();
        assert_eq!(counts, vec![7, 5, 3, 1]);
        assert_eq!(ss.iter().next().unwrap().key, &"c");
    }

    #[test]
    fn top_k_truncates() {
        let mut ss = SpaceSaving::new(16);
        for (k, n) in [("a", 5), ("b", 3), ("c", 7)] {
            for _ in 0..n {
                ss.offer(k);
            }
        }
        let top = ss.top_k(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, "c");
        assert_eq!(top[1].0, "a");
    }

    #[test]
    fn weighted_updates() {
        let mut ss = SpaceSaving::new(4);
        ss.offer_weighted("a", 100);
        ss.offer_weighted("b", 50);
        ss.offer_weighted("a", 7);
        assert_eq!(ss.get(&"a").unwrap().count, 107);
        assert_eq!(ss.get(&"b").unwrap().count, 50);
        assert_eq!(ss.total(), 157);
        ss.check_invariants();
    }

    #[test]
    fn weighted_eviction_error_is_min_count() {
        let mut ss = SpaceSaving::new(2);
        ss.offer_weighted("a", 10);
        ss.offer_weighted("b", 4);
        ss.offer_weighted("c", 3); // evicts b: inherits 4, count 7
        let est = ss.get(&"c").unwrap();
        assert_eq!(est.count, 7);
        assert_eq!(est.error, 4);
        ss.check_invariants();
    }

    #[test]
    fn zero_weight_is_noop() {
        let mut ss = SpaceSaving::new(2);
        ss.offer_weighted("a", 0);
        assert!(ss.is_empty());
        assert_eq!(ss.total(), 0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut ss = SpaceSaving::new(4);
        for k in 0..10 {
            ss.offer(k % 3);
        }
        ss.clear();
        assert!(ss.is_empty());
        assert_eq!(ss.total(), 0);
        assert_eq!(ss.min_count(), 0);
        ss.offer(42);
        assert_eq!(ss.get(&42).unwrap().count, 1);
        ss.check_invariants();
    }

    #[test]
    fn from_counts_keeps_largest() {
        let ss = SpaceSaving::from_counts(2, vec![("a", 5, 0), ("b", 9, 1), ("c", 2, 0)]);
        assert_eq!(ss.len(), 2);
        assert!(ss.contains(&"b"));
        assert!(ss.contains(&"a"));
        assert!(!ss.contains(&"c"));
        assert_eq!(ss.get(&"b").unwrap().error, 1);
        ss.check_invariants();
    }

    #[test]
    fn from_counts_skips_zero_counts() {
        let ss = SpaceSaving::from_counts(4, vec![("a", 0, 0), ("b", 2, 0)]);
        assert_eq!(ss.len(), 1);
        assert!(ss.contains(&"b"));
    }

    #[test]
    fn merge_adds_common_keys() {
        let mut a = SpaceSaving::new(8);
        let mut b = SpaceSaving::new(8);
        for _ in 0..5 {
            a.offer("x");
        }
        for _ in 0..3 {
            b.offer("x");
        }
        b.offer("y");
        let m = SpaceSaving::merged(&a, &b, 8);
        assert_eq!(m.get(&"x").unwrap().count, 8);
        assert_eq!(m.get(&"y").unwrap().count, 1);
        assert_eq!(m.total(), 9);
        m.check_invariants();
    }

    #[test]
    fn merge_full_sketches_adds_min_correction() {
        let mut a = SpaceSaving::new(2);
        let mut b = SpaceSaving::new(2);
        a.offer_weighted("a", 10);
        a.offer_weighted("b", 6);
        b.offer_weighted("c", 4);
        b.offer_weighted("d", 2);
        let m = SpaceSaving::merged(&a, &b, 4);
        // "a" absent from b (min 2): count 10+2=12, error 0+2=2.
        let est = m.get(&"a").unwrap();
        assert_eq!(est.count, 12);
        assert_eq!(est.error, 2);
        // "c" absent from a (min 6): count 4+6=10, error 6.
        let est = m.get(&"c").unwrap();
        assert_eq!(est.count, 10);
        assert_eq!(est.error, 6);
        m.check_invariants();
    }

    #[test]
    fn merge_upper_bound_still_holds() {
        // The merged count must remain an upper bound of the true count.
        let mut a = SpaceSaving::new(4);
        let mut b = SpaceSaving::new(4);
        let mut truth: HashMap<u32, u64> = HashMap::new();
        let stream_a = [1, 1, 2, 3, 4, 5, 1, 2];
        let stream_b = [6, 1, 6, 2, 7, 8, 6, 6];
        for k in stream_a {
            a.offer(k);
            *truth.entry(k).or_default() += 1;
        }
        for k in stream_b {
            b.offer(k);
            *truth.entry(k).or_default() += 1;
        }
        let m = SpaceSaving::merged(&a, &b, 4);
        for e in m.iter() {
            let t = truth[e.key];
            assert!(e.count >= t, "count {} < true {}", e.count, t);
            assert!(e.count - e.error <= t, "guaranteed above true count");
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SpaceSaving::<u32>::new(0);
    }

    #[test]
    fn extend_offers_all() {
        let mut ss = SpaceSaving::new(8);
        ss.extend([1, 1, 2]);
        assert_eq!(ss.get(&1).unwrap().count, 2);
        assert_eq!(ss.total(), 3);
    }

    #[test]
    fn guaranteed_is_count_minus_error() {
        let e = Estimate {
            count: 10,
            error: 3,
        };
        assert_eq!(e.guaranteed(), 7);
        let exact = Estimate { count: 5, error: 0 };
        assert_eq!(exact.guaranteed(), 5);
    }

    /// A corrupted estimate (`error > count`) must not overflow in
    /// release builds; the subtraction saturates at zero.
    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "Estimate invariant violated")
    )]
    fn guaranteed_saturates_on_corrupt_estimate() {
        let corrupt = Estimate { count: 2, error: 5 };
        assert_eq!(corrupt.guaranteed(), 0);
    }

    #[test]
    fn bucket_reuse_after_churn() {
        let mut ss = SpaceSaving::new(3);
        for i in 0..1000u32 {
            ss.offer(i % 7);
            if i % 97 == 0 {
                ss.check_invariants();
            }
        }
        ss.check_invariants();
        assert_eq!(ss.len(), 3);
        assert_eq!(ss.total(), 1000);
    }
}
