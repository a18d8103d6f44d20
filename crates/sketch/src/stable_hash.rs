//! The deterministic integer mix shared by every crate in the workspace.
//!
//! `std`'s `DefaultHasher` is explicitly unstable: its algorithm may
//! change between Rust releases, and `RandomState` seeds it per
//! process. Hash-based fields grouping (`Key::stable_hash`), the span
//! sampler's per-key decision and the seeded generators must instead be
//! identical across runs, platforms and compiler versions, so they all
//! mix through [`splitmix64`].
//!
//! In-memory maps whose order nothing depends on hash with the
//! process-seeded [`KeyState`](crate::KeyState) instead; DESIGN.md §12,
//! "Key hashing threat model", says which maps those are, where their
//! seed comes from and what it does and does not defend against.

/// SplitMix64 finalizer: the deterministic integer mix used everywhere
/// hashing is needed in the workspace, so results are identical across
/// runs and platforms (unlike `std`'s randomized `DefaultHasher`).
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_reference_values() {
        // Reference outputs of the canonical SplitMix64 finalizer.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
        assert_eq!(splitmix64(0xdead_beef), 0x4adf_b90f_68c9_eb9b);
    }
}
