//! Exact frequency counting: the test oracle of the SpaceSaving sketch.

use std::collections::HashMap;
use std::hash::Hash;

/// An exact frequency counter over an unbounded key domain.
///
/// The oracle against which [`SpaceSaving`]'s error bounds and
/// totals are property-tested. The offline analysis mode (§3.2) does
/// not use it: `Manager::apply_offline` and the replay harness's
/// `tables_from_batch` count pairs with SpaceSaving, as the online
/// mode does.
///
/// [`SpaceSaving`]: crate::SpaceSaving
///
/// # Example
///
/// ```
/// use streamloc_sketch::ExactCounter;
///
/// let mut counter = ExactCounter::new();
/// counter.offer("a");
/// counter.offer_weighted("b", 3);
/// assert_eq!(counter.count(&"b"), 3);
/// assert_eq!(counter.top_k(1)[0].0, "b");
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExactCounter<K> {
    counts: HashMap<K, u64>,
    total: u64,
}

impl<K: Eq + Hash + Clone> ExactCounter<K> {
    /// Creates an empty counter.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: HashMap::new(),
            total: 0,
        }
    }

    /// Observes one occurrence of `key`.
    pub fn offer(&mut self, key: K) {
        self.offer_weighted(key, 1);
    }

    /// Observes `weight` occurrences of `key`.
    pub fn offer_weighted(&mut self, key: K, weight: u64) {
        if weight == 0 {
            return;
        }
        *self.counts.entry(key).or_default() += weight;
        self.total += weight;
    }

    /// Exact count of `key` (0 if never seen).
    #[must_use]
    pub fn count(&self, key: &K) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Number of distinct keys observed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Returns `true` when nothing has been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total weight observed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `k` most frequent keys, descending by count. Ties are broken
    /// deterministically only if `K: Ord`-independent callers sort again;
    /// this method leaves tie order unspecified.
    #[must_use]
    pub fn top_k(&self, k: usize) -> Vec<(K, u64)> {
        let mut all: Vec<(K, u64)> = self
            .counts
            .iter()
            .map(|(key, &n)| (key.clone(), n))
            .collect();
        all.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        all.truncate(k);
        all
    }

    /// Iterates over `(key, count)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.counts.iter().map(|(k, &n)| (k, n))
    }

    /// Removes all observations.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.total = 0;
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &Self) {
        for (key, &n) in &other.counts {
            *self.counts.entry(key.clone()).or_default() += n;
        }
        self.total += other.total;
    }
}

impl<K: Eq + Hash + Clone> Extend<K> for ExactCounter<K> {
    fn extend<I: IntoIterator<Item = K>>(&mut self, iter: I) {
        for key in iter {
            self.offer(key);
        }
    }
}

impl<K: Eq + Hash + Clone> FromIterator<K> for ExactCounter<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        let mut counter = Self::new();
        counter.extend(iter);
        counter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_total() {
        let mut c = ExactCounter::new();
        c.offer(1);
        c.offer(1);
        c.offer(2);
        assert_eq!(c.count(&1), 2);
        assert_eq!(c.count(&2), 1);
        assert_eq!(c.count(&3), 0);
        assert_eq!(c.total(), 3);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn top_k_descending() {
        let c: ExactCounter<_> = ["a", "b", "a", "c", "a", "b"].into_iter().collect();
        let top = c.top_k(2);
        assert_eq!(top[0], ("a", 3));
        assert_eq!(top[1], ("b", 2));
    }

    #[test]
    fn merge_sums_counts() {
        let a: ExactCounter<_> = [1, 1, 2].into_iter().collect();
        let b: ExactCounter<_> = [2, 3].into_iter().collect();
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count(&1), 2);
        assert_eq!(m.count(&2), 2);
        assert_eq!(m.count(&3), 1);
        assert_eq!(m.total(), 5);
    }

    #[test]
    fn clear_resets() {
        let mut c: ExactCounter<_> = [1, 2].into_iter().collect();
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.total(), 0);
    }
}
