//! Input generation: drifting Twitter-like `(location, hashtag)`
//! streams, generated in full before any timing starts.

use streamloc::engine::{splitmix64, Key};
use streamloc::workloads::{TwitterConfig, TwitterWorkload};

/// The Twitter-like generator for benchmark seed `seed` on top of
/// `base` (only the generator seed is replaced).
#[must_use]
pub fn twitter(seed: u64, base: TwitterConfig) -> TwitterWorkload {
    TwitterWorkload::new(TwitterConfig {
        seed: splitmix64(seed ^ 0x10ca_11e5),
        ..base
    })
}

/// Seed of the `k`-th of several inputs a run derives from one
/// benchmark seed.
#[must_use]
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    splitmix64(seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// The live workloads' key space: 100 locations × 5k hashtags, with
/// days long enough that one job or open loop spans days of drift, not
/// months.
#[must_use]
pub fn live_config() -> TwitterConfig {
    TwitterConfig {
        locations: 100,
        hashtags: 5_000,
        fresh_per_week: 100,
        tuples_per_day: 200_000,
        ..TwitterConfig::default()
    }
}

/// `n` consecutive tweets starting at day `first_day`.
pub fn tweets(tw: &mut TwitterWorkload, first_day: usize, n: usize) -> Vec<(Key, Key)> {
    let mut out = Vec::with_capacity(n);
    let mut day = first_day;
    while out.len() < n {
        out.extend(tw.day(day));
        day += 1;
    }
    out.truncate(n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_tweets() {
        let a = tweets(&mut twitter(7, live_config()), 0, 1_000);
        let b = tweets(&mut twitter(7, live_config()), 0, 1_000);
        let c = tweets(&mut twitter(8, live_config()), 0, 1_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 1_000);
    }
}
