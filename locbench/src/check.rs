//! Exact output checks against single-threaded reference counts.
//!
//! Both counting operators keep one counter per key, so the final state
//! of an operator, summed over its instances, must equal the number of
//! input tuples carrying each key — whatever the routing, the batching
//! or the timing of a reconfiguration wave. A key whose state was split
//! over instances still sums correctly; a lost or duplicated tuple does
//! not.

use std::collections::HashMap;

use streamloc::engine::{Key, StateValue};

/// Per-key tuple counts.
pub type Counts = HashMap<Key, u64>;

/// Reference counts for the two counting operators.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reference {
    /// Tuples per location key (`by_location`).
    pub by_location: Counts,
    /// Tuples per hashtag key (`by_hashtag`).
    pub by_hashtag: Counts,
}

impl Reference {
    /// Counts `pairs` in one thread.
    #[must_use]
    pub fn count(pairs: &[(Key, Key)]) -> Self {
        let mut r = Self::default();
        for &(loc, tag) in pairs {
            *r.by_location.entry(loc).or_default() += 1;
            *r.by_hashtag.entry(tag).or_default() += 1;
        }
        r
    }
}

/// Tuples missing or extra in `states` (the final states of every
/// instance of one operator) against `expected`: the sum over keys of
/// the absolute count difference. State that is not a counter counts
/// as one mismatch per key.
pub fn mismatches<'a, I>(expected: &Counts, states: I) -> u64
where
    I: IntoIterator<Item = &'a HashMap<Key, StateValue>>,
{
    let mut actual: Counts = HashMap::with_capacity(expected.len());
    let mut bad_state = 0u64;
    for state in states {
        for (key, value) in state {
            match value.as_count() {
                Some(c) => *actual.entry(*key).or_default() += c,
                None => bad_state += 1,
            }
        }
    }
    let mut diff = bad_state;
    for (key, &want) in expected {
        diff += want.abs_diff(actual.get(key).copied().unwrap_or(0));
    }
    for (key, &got) in &actual {
        if !expected.contains_key(key) {
            diff += got;
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(entries: &[(u64, u64)]) -> HashMap<Key, StateValue> {
        entries
            .iter()
            .map(|&(k, c)| (Key::new(k), StateValue::Count(c)))
            .collect()
    }

    #[test]
    fn split_state_sums_per_key() {
        let r = Reference::count(&[(Key::new(1), Key::new(10)); 3]);
        let a = state(&[(1, 2)]);
        let b = state(&[(1, 1)]);
        assert_eq!(mismatches(&r.by_location, [&a, &b]), 0);
    }

    #[test]
    fn missing_and_extra_tuples_count() {
        let r = Reference::count(&[(Key::new(1), Key::new(10)), (Key::new(2), Key::new(10))]);
        assert_eq!(mismatches(&r.by_location, [&state(&[(1, 1)])]), 1);
        assert_eq!(
            mismatches(&r.by_location, [&state(&[(1, 1), (2, 1), (3, 4)])]),
            4
        );
        assert_eq!(mismatches(&r.by_hashtag, [&state(&[(10, 3)])]), 1);
    }
}
