//! A pinned, platform-stable random number generator for workloads.
//!
//! The generators in this crate are part of the experiment contract:
//! a seed must reproduce the exact same tuple stream on any platform
//! and forever, the same guarantee `streamloc-sketch` pins for
//! hashing. A third-party RNG cannot promise that across versions, so
//! workloads draw from this splitmix64 counter stream built on the
//! same [`splitmix64`] finalizer `Key::stable_hash` uses.
//!
//! The stream is fully specified: draw `i` for seed `s` is
//! `splitmix64(s + i * 0x9e37_79b9_7f4a_7c15)` (wrapping), and the
//! float/range conversions below are part of the pinned contract —
//! see the regression tests with hard-coded constants.

use std::ops::Range;

use streamloc_engine::splitmix64;

/// Weyl-sequence increment of the splitmix64 stream (the golden
/// ratio in fixed point; also the constant inside [`splitmix64`]).
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// A splitmix64 counter-stream RNG with pinned output.
///
/// # Example
///
/// ```
/// use streamloc_workloads::SplitMix64;
///
/// let mut rng = SplitMix64::new(0);
/// assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the generator; `seed` fully determines the stream.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN);
        out
    }

    /// Uniform in `[0, 1)` with 53 mantissa bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} not a probability");
        self.next_f64() < p
    }

    /// Samples uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "cannot sample empty range");
        let span = (range.end - range.start) as u128;
        range.start + ((self.next_u64() as u128) % span) as u64
    }

    /// Samples uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range_usize(&mut self, range: Range<usize>) -> usize {
        self.gen_range(range.start as u64..range.end as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pinned contract: these constants must never change. They
    /// pin the full stream spec — seeding, the Weyl increment, and
    /// the splitmix64 finalizer.
    #[test]
    fn pinned_u64_streams() {
        let draws = |seed: u64| -> [u64; 4] {
            let mut rng = SplitMix64::new(seed);
            [rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()]
        };
        assert_eq!(
            draws(0),
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f,
                0xf88b_b8a8_724c_81ec,
            ]
        );
        assert_eq!(
            draws(1),
            [
                0x910a_2dec_8902_5cc1,
                0xbeeb_8da1_658e_ec67,
                0xf893_a2ee_fb32_555e,
                0x71c1_8690_ee42_c90b,
            ]
        );
        assert_eq!(
            draws(0xdead_beef),
            [
                0x4adf_b90f_68c9_eb9b,
                0xde58_6a31_41a1_0922,
                0x021f_bc2f_8e1c_fc1d,
                0x7466_ce73_7be1_6790,
            ]
        );
    }

    /// The float conversion is part of the pinned contract too.
    #[test]
    fn pinned_f64_stream() {
        let mut rng = SplitMix64::new(42);
        assert_eq!(rng.next_f64(), 0.741_564_878_771_823_3);
        assert_eq!(rng.next_f64(), 0.159_910_392_876_920_1);
        assert_eq!(rng.next_f64(), 0.278_601_130_255_138_66);
    }

    #[test]
    fn draws_match_the_documented_formula() {
        let seed = 0x1234_5678_9abc_def0u64;
        let mut rng = SplitMix64::new(seed);
        for i in 0..100u64 {
            let expected = splitmix64(seed.wrapping_add(i.wrapping_mul(GOLDEN)));
            assert_eq!(rng.next_u64(), expected, "draw {i}");
        }
    }

    #[test]
    fn f64_is_in_unit_interval_and_roughly_uniform() {
        let mut rng = SplitMix64::new(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_range_stays_in_bounds_and_balances() {
        let mut rng = SplitMix64::new(7);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.gen_range_usize(0..8)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "skewed bucket: {counts:?}");
        }
        for _ in 0..1_000 {
            let v = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SplitMix64::new(11);
        let hits = (0..50_000).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / 50_000.0;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac} far from 0.3");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let _ = SplitMix64::new(0).gen_range(5..5);
    }
}
