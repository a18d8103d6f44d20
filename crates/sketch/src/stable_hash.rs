//! Deterministic hashing shared by every crate in the workspace.
//!
//! `std`'s `DefaultHasher` is explicitly unstable: its algorithm may
//! change between Rust releases, and `RandomState` seeds it per
//! process. Sketch row hashes, hash-based fields grouping and the
//! simulator's seeded choices must instead be identical across runs,
//! platforms and compiler versions, so everything funnels through the
//! two primitives here: [`splitmix64`] for single `u64` values and
//! [`StableHasher`] for arbitrary `Hash` types.
//!
//! In-memory maps whose order nothing depends on hash with the
//! process-seeded [`KeyState`](crate::KeyState) instead; DESIGN.md §12,
//! "Key hashing threat model", says which maps those are, where their
//! seed comes from and what it does and does not defend against.

use std::hash::Hasher;

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

/// A byte-stream [`Hasher`] built on [`splitmix64`] with a fixed
/// initial state: stable across runs, platforms and Rust releases.
///
/// Integers are absorbed in little-endian order explicitly (the
/// default `Hasher` integer methods use native endianness, which would
/// make results differ between platforms).
///
/// # Example
///
/// ```
/// use std::hash::{Hash, Hasher};
/// use streamloc_sketch::StableHasher;
///
/// let mut h = StableHasher::new();
/// "hello".hash(&mut h);
/// let a = h.finish();
/// let mut h = StableHasher::new();
/// "hello".hash(&mut h);
/// assert_eq!(a, h.finish());
/// ```
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
    /// Total bytes absorbed, folded into the final mix so streams that
    /// differ only by trailing zero-padding hash differently.
    len: u64,
}

impl StableHasher {
    /// Fixed initial state (an arbitrary odd constant).
    const SEED: u64 = 0x51ab_7040_f782_25c1;

    /// Creates a hasher with the fixed seed.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: Self::SEED,
            len: 0,
        }
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        splitmix64(self.state ^ self.len)
    }

    fn write(&mut self, bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.state = splitmix64(self.state ^ word);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.state = splitmix64(self.state ^ u64::from_le_bytes(word));
        }
    }

    // Fixed little-endian encodings: the default integer methods write
    // native-endian bytes, which is not cross-platform stable.
    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }
    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }
    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }
    fn write_usize(&mut self, i: usize) {
        // usize width differs per platform; widen to 64 bits.
        self.write(&(i as u64).to_le_bytes());
    }
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }
    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }
    fn write_isize(&mut self, i: isize) {
        self.write_usize(i as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = StableHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash("streamloc"), hash("streamloc"));
        assert_eq!(hash(&42u64), hash(&42u64));
        assert_eq!(hash(&(1u32, 2u64)), hash(&(1u32, 2u64)));
    }

    #[test]
    fn distinguishes_inputs() {
        assert_ne!(hash("a"), hash("b"));
        assert_ne!(hash(&0u64), hash(&1u64));
        // Length folding: zero bytes vs nothing.
        assert_ne!(hash(&[0u8; 4][..]), hash(&[0u8; 8][..]));
    }

    #[test]
    fn splitmix64_reference_values() {
        // Reference outputs of the canonical SplitMix64 finalizer.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
        assert_eq!(splitmix64(0xdead_beef), 0x4adf_b90f_68c9_eb9b);
    }
}
