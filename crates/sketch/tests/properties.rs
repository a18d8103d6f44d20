//! Property-based tests checking the SpaceSaving guarantees against an
//! exact oracle (Metwally et al. 2005, Theorems 2-4).

use proptest::prelude::*;
use streamloc_sketch::{ExactCounter, SpaceSaving};

/// A random stream over a small key domain so collisions are frequent.
fn stream() -> impl Strategy<Value = Vec<u16>> {
    prop::collection::vec(0u16..64, 0..2000)
}

/// A random weighted stream.
fn weighted_stream() -> impl Strategy<Value = Vec<(u16, u64)>> {
    prop::collection::vec((0u16..32, 1u64..50), 0..500)
}

/// A weighted stream whose weights span nine orders of magnitude, so
/// a single offer must leapfrog many distinct count buckets — the
/// documented O(distinct counts) walk in `offer_weighted`.
fn heavy_weighted_stream() -> impl Strategy<Value = Vec<(u16, u64)>> {
    let weight = (0u8..3, 1u64..1_000).prop_map(|(mag, base)| match mag {
        0 => base,
        1 => base * 1_000,
        _ => base * 1_000_000_000,
    });
    prop::collection::vec((0u16..32, weight), 0..300)
}

proptest! {
    #[test]
    fn count_bounds_hold(stream in stream(), capacity in 1usize..32) {
        let mut sketch = SpaceSaving::new(capacity);
        let mut oracle = ExactCounter::new();
        for &k in &stream {
            sketch.offer(k);
            oracle.offer(k);
        }
        sketch.check_invariants();
        prop_assert_eq!(sketch.total(), oracle.total());
        for entry in sketch.iter() {
            let truth = oracle.count(entry.key);
            prop_assert!(entry.count >= truth,
                "count {} underestimates true {}", entry.count, truth);
            prop_assert!(entry.count - entry.error <= truth,
                "guaranteed {} exceeds true {}", entry.count - entry.error, truth);
        }
    }

    #[test]
    fn min_count_bounded_by_total_over_capacity(
        stream in stream(), capacity in 1usize..32,
    ) {
        let mut sketch = SpaceSaving::new(capacity);
        for &k in &stream {
            sketch.offer(k);
        }
        if sketch.len() == capacity {
            prop_assert!(sketch.min_count() <= sketch.total() / capacity as u64,
                "min {} > N/m = {}", sketch.min_count(),
                sketch.total() / capacity as u64);
        }
    }

    #[test]
    fn heavy_hitters_are_monitored(stream in stream(), capacity in 1usize..32) {
        let mut sketch = SpaceSaving::new(capacity);
        let mut oracle = ExactCounter::new();
        for &k in &stream {
            sketch.offer(k);
            oracle.offer(k);
        }
        let threshold = oracle.total() / capacity as u64;
        for (key, count) in oracle.iter() {
            if count > threshold {
                prop_assert!(sketch.contains(key),
                    "heavy hitter {key:?} (count {count}) missing");
            }
        }
    }

    #[test]
    fn iter_is_sorted_descending(stream in stream(), capacity in 1usize..32) {
        let mut sketch = SpaceSaving::new(capacity);
        for &k in &stream {
            sketch.offer(k);
        }
        let counts: Vec<u64> = sketch.iter().map(|e| e.count).collect();
        prop_assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        prop_assert!(sketch.len() <= capacity);
        prop_assert_eq!(counts.len(), sketch.len());
    }

    #[test]
    fn weighted_bounds_hold(stream in weighted_stream(), capacity in 1usize..16) {
        let mut sketch = SpaceSaving::new(capacity);
        let mut oracle = ExactCounter::new();
        for &(k, w) in &stream {
            sketch.offer_weighted(k, w);
            oracle.offer_weighted(k, w);
        }
        sketch.check_invariants();
        prop_assert_eq!(sketch.total(), oracle.total());
        for entry in sketch.iter() {
            let truth = oracle.count(entry.key);
            prop_assert!(entry.count >= truth);
            prop_assert!(entry.count - entry.error <= truth);
        }
    }

    #[test]
    fn heavy_weighted_bounds_hold(
        stream in heavy_weighted_stream(), capacity in 1usize..16,
    ) {
        let mut sketch = SpaceSaving::new(capacity);
        let mut oracle = ExactCounter::new();
        for &(k, w) in &stream {
            sketch.offer_weighted(k, w);
            oracle.offer_weighted(k, w);
        }
        sketch.check_invariants();
        prop_assert_eq!(sketch.total(), oracle.total());
        let counts: Vec<u64> = sketch.iter().map(|e| e.count).collect();
        prop_assert!(counts.windows(2).all(|w| w[0] >= w[1]),
            "iter must stay sorted after bucket walks");
        for entry in sketch.iter() {
            let truth = oracle.count(entry.key);
            prop_assert!(entry.count >= truth,
                "count {} underestimates true {}", entry.count, truth);
            prop_assert!(entry.count - entry.error <= truth,
                "guaranteed {} exceeds true {}", entry.count - entry.error, truth);
        }
        if sketch.len() == capacity {
            prop_assert!(sketch.min_count() <= sketch.total() / capacity as u64);
        }
    }

    #[test]
    fn heavy_weighted_is_exact_without_eviction(
        stream in heavy_weighted_stream(),
    ) {
        // Capacity covers the whole 0..32 domain: no evictions, so
        // every estimate must be exact with zero error regardless of
        // how far each weighted offer jumps.
        let mut sketch = SpaceSaving::new(32);
        let mut oracle = ExactCounter::new();
        for &(k, w) in &stream {
            sketch.offer_weighted(k, w);
            oracle.offer_weighted(k, w);
        }
        sketch.check_invariants();
        for entry in sketch.iter() {
            prop_assert_eq!(entry.error, 0);
            prop_assert_eq!(entry.count, oracle.count(entry.key));
        }
    }

    #[test]
    fn merged_bounds_hold(
        stream_a in stream(), stream_b in stream(), capacity in 1usize..16,
    ) {
        let mut a = SpaceSaving::new(capacity);
        let mut b = SpaceSaving::new(capacity);
        let mut oracle = ExactCounter::new();
        for &k in &stream_a {
            a.offer(k);
            oracle.offer(k);
        }
        for &k in &stream_b {
            b.offer(k);
            oracle.offer(k);
        }
        let merged = SpaceSaving::merged(&a, &b, capacity * 2);
        merged.check_invariants();
        prop_assert_eq!(merged.total(), oracle.total());
        for entry in merged.iter() {
            let truth = oracle.count(entry.key);
            prop_assert!(entry.count >= truth,
                "merged count {} < true {}", entry.count, truth);
            prop_assert!(entry.count - entry.error <= truth,
                "merged guaranteed above truth");
        }
    }

    #[test]
    fn clear_then_reuse_is_fresh(stream in stream(), capacity in 1usize..16) {
        let mut sketch = SpaceSaving::new(capacity);
        for &k in &stream {
            sketch.offer(k);
        }
        sketch.clear();
        let mut oracle = ExactCounter::new();
        for &k in &stream {
            sketch.offer(k);
            oracle.offer(k);
        }
        sketch.check_invariants();
        prop_assert_eq!(sketch.total(), oracle.total());
    }
}

mod bulk_offer_props {
    use proptest::prelude::*;
    use streamloc_sketch::{CountMin, SpaceSaving};

    /// A stream with deliberate runs of consecutive equal keys — the
    /// shape the columnar data plane coalesces.
    fn run_stream() -> impl Strategy<Value = Vec<u16>> {
        prop::collection::vec((0u16..24, 1usize..6), 0..200).prop_map(|segments| {
            segments
                .into_iter()
                .flat_map(|(k, n)| std::iter::repeat_n(k, n))
                .collect()
        })
    }

    /// Coalesces each leading run of equal keys into one
    /// `(key, run length)` pair.
    fn coalesce(stream: &[u16]) -> Vec<(u16, u64)> {
        let mut runs = Vec::new();
        let mut rest = stream;
        while let Some(&first) = rest.first() {
            let len = 1 + rest[1..].iter().take_while(|&&k| k == first).count();
            runs.push((first, len as u64));
            rest = &rest[len..];
        }
        runs
    }

    proptest! {
        /// One weighted offer per run must leave the SpaceSaving
        /// summary in exactly the state per-tuple offers produce:
        /// within a run the key is monitored after its first unit
        /// offer, so the remaining units are pure increments — which
        /// is precisely what the weighted offer adds.
        #[test]
        fn coalesced_offers_match_per_tuple_offers(
            stream in run_stream(),
            capacity in 1usize..16,
        ) {
            let mut bulk = SpaceSaving::new(capacity);
            let mut per = SpaceSaving::new(capacity);
            for (key, weight) in coalesce(&stream) {
                bulk.offer_weighted(key, weight);
            }
            for &key in &stream {
                per.offer(key);
            }
            bulk.check_invariants();
            prop_assert_eq!(bulk.total(), per.total());
            prop_assert_eq!(bulk.len(), per.len());
            for entry in bulk.iter() {
                let other = per.get(entry.key);
                prop_assert_eq!(
                    other.map(|e| (e.count, e.error)),
                    Some((entry.count, entry.error)),
                    "summaries diverged at key {:?}", entry.key
                );
            }
        }

        /// `CountMin::offer_runs` must match per-key unit offers on
        /// every estimate, not just on totals.
        #[test]
        fn count_min_offer_runs_matches_per_key(stream in run_stream()) {
            let mut bulk = CountMin::new(3, 16);
            let mut per = CountMin::new(3, 16);
            bulk.offer_runs(&stream);
            for k in &stream {
                per.offer(k);
            }
            prop_assert_eq!(bulk.total(), per.total());
            for key in 0u16..24 {
                prop_assert_eq!(bulk.estimate(&key), per.estimate(&key));
            }
        }
    }
}

mod count_min_props {
    use proptest::prelude::*;
    use streamloc_sketch::{CountMin, ExactCounter};

    proptest! {
        #[test]
        fn count_min_never_underestimates(
            stream in prop::collection::vec((0u16..128, 1u64..20), 0..800),
            depth in 1usize..6,
            width in 8usize..256,
        ) {
            let mut cm = CountMin::new(depth, width);
            let mut oracle = ExactCounter::new();
            for &(k, w) in &stream {
                cm.offer_weighted(&k, w);
                oracle.offer_weighted(k, w);
            }
            prop_assert_eq!(cm.total(), oracle.total());
            for (key, count) in oracle.iter() {
                prop_assert!(cm.estimate(key) >= count,
                    "cm {} < true {}", cm.estimate(key), count);
            }
        }

        #[test]
        fn count_min_merge_upper_bounds(
            a_stream in prop::collection::vec(0u16..64, 0..500),
            b_stream in prop::collection::vec(0u16..64, 0..500),
        ) {
            let mut a = CountMin::new(4, 64);
            let mut b = CountMin::new(4, 64);
            let mut oracle = ExactCounter::new();
            for &k in &a_stream {
                a.offer(&k);
                oracle.offer(k);
            }
            for &k in &b_stream {
                b.offer(&k);
                oracle.offer(k);
            }
            a.merge(&b);
            prop_assert_eq!(a.total(), oracle.total());
            for (key, count) in oracle.iter() {
                prop_assert!(a.estimate(key) >= count);
            }
        }
    }
}

/// The guarantee properties above in both regimes of the summary: for
/// each stream, capacities that never fill, fill without evicting, and
/// evict (the stream summary is built at the first eviction).
mod both_regimes_props {
    use proptest::prelude::*;
    use streamloc_sketch::{ExactCounter, SpaceSaving};

    /// Capacities around the stream's distinct-key count `distinct`:
    /// never full, full but never evicting, evicting, and evicting on
    /// almost every offer.
    fn capacities(distinct: usize) -> [usize; 4] {
        [distinct + 3, distinct.max(1), (distinct / 2).max(1), 1]
    }

    /// The SpaceSaving guarantees of `sketch` against `oracle`.
    fn check(sketch: &SpaceSaving<u16>, oracle: &ExactCounter<u16>) {
        sketch.check_invariants();
        let capacity = sketch.capacity() as u64;
        prop_assert_eq!(sketch.total(), oracle.total());
        let counts: Vec<u64> = sketch.iter().map(|e| e.count).collect();
        prop_assert!(
            counts.windows(2).all(|w| w[0] >= w[1]),
            "iter not descending"
        );
        prop_assert_eq!(counts.len(), sketch.len());
        for entry in sketch.iter() {
            let truth = oracle.count(entry.key);
            prop_assert!(
                entry.count >= truth,
                "count {} < true {}",
                entry.count,
                truth
            );
            prop_assert!(entry.count - entry.error <= truth, "guaranteed above truth");
        }
        if sketch.len() == sketch.capacity() {
            prop_assert!(sketch.min_count() <= sketch.total() / capacity);
        }
        for (key, count) in oracle.iter() {
            if count > oracle.total() / capacity {
                prop_assert!(sketch.contains(key), "heavy hitter {:?} missing", key);
            }
        }
    }

    proptest! {
        #[test]
        fn guarantees_hold_in_both_regimes(
            stream in prop::collection::vec((0u16..48, 1u64..1_000), 0..600),
            unit in any::<bool>(),
        ) {
            let mut oracle = ExactCounter::new();
            for &(k, w) in &stream {
                oracle.offer_weighted(k, if unit { 1 } else { w });
            }
            for capacity in capacities(oracle.len()) {
                let mut sketch = SpaceSaving::new(capacity);
                for &(k, w) in &stream {
                    sketch.offer_weighted(k, if unit { 1 } else { w });
                }
                check(&sketch, &oracle);
            }
        }
    }
}

/// A summary that keeps plain counters until it must evict against one
/// ordered from its first offer (`order_now`): every query must agree
/// after every offer, so ordering on demand is unobservable.
mod order_on_demand_props {
    use std::collections::BTreeMap;

    use proptest::prelude::*;
    use streamloc_sketch::SpaceSaving;

    #[derive(Debug, Clone)]
    enum Step {
        Offer(u16, u64),
        Clear,
    }

    /// Mostly unit weights, some zero, some up to 10⁹.
    fn weight() -> impl Strategy<Value = u64> {
        (0u8..10, 0u64..=1_000_000_000).prop_map(|(kind, big)| match kind {
            0 => 0,
            1 => big,
            2 | 3 => big % 100,
            _ => 1,
        })
    }

    /// A from_counts start: `(key, count, error)` triples with unique
    /// keys and `error <= count`.
    type Start = Option<Vec<(u16, u64, u64)>>;

    /// `(capacity, domain, start, steps)`: capacities 1–64, domains
    /// smaller and larger than the capacity, an occasional `clear()`.
    fn scenario() -> impl Strategy<Value = (usize, u16, Start, Vec<Step>)> {
        (1usize..=64, 1u16..=128).prop_flat_map(|(capacity, domain)| {
            let triples = prop::collection::vec((0..domain, 0u64..20, 0u64..20), 0..2 * capacity);
            let start = (any::<bool>(), triples).prop_map(|(use_it, triples)| {
                use_it.then(|| {
                    let unique: BTreeMap<u16, (u64, u64)> = triples
                        .into_iter()
                        .map(|(k, c, e)| (k, (c, e.min(c))))
                        .collect();
                    unique.into_iter().map(|(k, (c, e))| (k, c, e)).collect()
                })
            });
            let step = (0u8..60, 0..domain, weight()).prop_map(|(kind, k, w)| {
                if kind == 0 {
                    Step::Clear
                } else {
                    Step::Offer(k, w)
                }
            });
            (
                Just(capacity),
                Just(domain),
                start,
                prop::collection::vec(step, 0..300),
            )
        })
    }

    /// Everything a reader can see of `s`, `domain` the probed keys.
    #[allow(clippy::type_complexity)]
    fn observe(
        s: &SpaceSaving<u16>,
        domain: u16,
    ) -> (
        Vec<(u16, u64, u64)>,
        Vec<(u16, u64, u64)>,
        Vec<Option<(u64, u64)>>,
        (u64, u64, usize, bool),
    ) {
        let listed = s.iter().map(|e| (*e.key, e.count, e.error)).collect();
        let top = s
            .top_k(s.capacity() / 2 + 1)
            .into_iter()
            .map(|(k, e)| (k, e.count, e.error))
            .collect();
        let probed = (0..domain)
            .map(|k| s.get(&k).map(|e| (e.count, e.error)))
            .collect();
        (
            listed,
            top,
            probed,
            (s.total(), s.min_count(), s.len(), s.is_empty()),
        )
    }

    proptest! {
        #[test]
        fn unordered_matches_ordered_from_start(
            (capacity, domain, start, steps) in scenario(),
        ) {
            let mut lazy = match start {
                Some(items) => SpaceSaving::from_counts(capacity, items),
                None => SpaceSaving::new(capacity),
            };
            let mut ordered = lazy.clone();
            ordered.order_now();
            prop_assert_eq!(observe(&lazy, domain), observe(&ordered, domain));
            for step in steps {
                match step {
                    Step::Offer(k, w) => {
                        lazy.offer_weighted(k, w);
                        ordered.offer_weighted(k, w);
                    }
                    Step::Clear => {
                        lazy.clear();
                        ordered.clear();
                        ordered.order_now();
                    }
                }
                prop_assert_eq!(observe(&lazy, domain), observe(&ordered, domain));
            }
            lazy.check_invariants();
            ordered.check_invariants();
        }

        /// `merged` against a brute-force Agarwal construction: common
        /// keys add up, a key missing from a full input gains that
        /// input's `min_count()` in count and error, and the result
        /// keeps the `capacity` largest counts, ties in key order.
        #[test]
        fn merged_matches_brute_force_agarwal(
            a_stream in prop::collection::vec((0u16..40, weight()), 0..200),
            b_stream in prop::collection::vec((20u16..60, weight()), 0..200),
            a_capacity in 1usize..32,
            b_capacity in 1usize..32,
            capacity in 1usize..64,
        ) {
            let mut a = SpaceSaving::new(a_capacity);
            let mut b = SpaceSaving::new(b_capacity);
            for (k, w) in a_stream {
                a.offer_weighted(k, w);
            }
            for (k, w) in b_stream {
                b.offer_weighted(k, w);
            }
            let missing = |s: &SpaceSaving<u16>| {
                if s.len() == s.capacity() { s.min_count() } else { 0 }
            };
            let (a_min, b_min) = (missing(&a), missing(&b));
            let mut expected: BTreeMap<u16, (u64, u64)> = BTreeMap::new();
            for e in a.iter() {
                let (c, err) = match b.get(e.key) {
                    Some(other) => (e.count + other.count, e.error + other.error),
                    None => (e.count + b_min, e.error + b_min),
                };
                expected.insert(*e.key, (c, err));
            }
            for e in b.iter() {
                expected
                    .entry(*e.key)
                    .or_insert((e.count + a_min, e.error + a_min));
            }
            let mut expected: Vec<(u16, u64, u64)> =
                expected.into_iter().map(|(k, (c, e))| (k, c, e)).collect();
            expected.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
            expected.truncate(capacity);
            expected.retain(|&(_, c, _)| c > 0);

            let merged = SpaceSaving::merged(&a, &b, capacity);
            merged.check_invariants();
            let got: Vec<(u16, u64, u64)> =
                merged.iter().map(|e| (*e.key, e.count, e.error)).collect();
            prop_assert_eq!(got, expected);
            prop_assert_eq!(merged.total(), a.total() + b.total());
        }
    }
}
