//! The hasher of the in-memory maps on the per-tuple path.
//!
//! [`KeyState`] builds [`KeyHasher`]s keyed by two secret 64-bit words
//! drawn once per process from `std`'s `RandomState`; [`KeyMap`] is the
//! `std` map that uses it. Each absorbed pair of words costs one folded
//! 64×64→128 multiply and one more finishes (the foldhash / aHash
//! fallback construction), against SipHash-1-3's round per word and
//! three to finish. Unlike [`StableHasher`](crate::StableHasher), its
//! output differs between processes: use it for maps whose iteration
//! order nothing depends on, never for a value that must be the same
//! across runs. DESIGN.md §12, "Key hashing threat model", says which
//! maps use it and what the seed protects against.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` keyed by the process-seeded [`KeyHasher`].
pub type KeyMap<K, V> = HashMap<K, V, KeyState>;

/// The two secret words, drawn once per process.
fn process_seed() -> [u64; 2] {
    static SEED: OnceLock<[u64; 2]> = OnceLock::new();
    *SEED.get_or_init(|| {
        // `RandomState` draws its SipHash keys from the operating
        // system's random source; hashing two constants under them
        // yields two secret words.
        let sip = RandomState::new();
        [sip.hash_one(0u64), sip.hash_one(1u64)]
    })
}

/// The multiplier of the last fold: the first 64 bits of π's
/// fraction, an odd constant with no structure.
const FINISH: u64 = 0x243f_6a88_85a3_08d3;

/// The low and high halves of the 128-bit product, xor-ed: every bit of
/// either operand reaches every bit of the result.
#[inline]
fn folded_multiply(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ ((full >> 64) as u64)
}

/// Builds [`KeyHasher`]s under the process seed; `Default` reads it.
///
/// # Example
///
/// ```
/// use std::hash::BuildHasher;
/// use streamloc_sketch::{KeyMap, KeyState};
///
/// let mut counts: KeyMap<u64, u32> = KeyMap::default();
/// *counts.entry(7).or_default() += 1;
/// assert_eq!(counts[&7], 1);
/// // One process, one seed: equal keys hash equally in every map.
/// assert_eq!(KeyState::default().hash_one(7u64), KeyState::default().hash_one(7u64));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct KeyState {
    seed: [u64; 2],
}

impl Default for KeyState {
    fn default() -> Self {
        Self {
            seed: process_seed(),
        }
    }
}

impl BuildHasher for KeyState {
    type Hasher = KeyHasher;

    #[inline]
    fn build_hasher(&self) -> KeyHasher {
        KeyHasher {
            acc: self.seed[0],
            fold: self.seed[1],
            pending: None,
        }
    }
}

/// A [`Hasher`] that absorbs 64-bit words in pairs, one folded multiply
/// per pair and one to finish: a `u64` key costs two multiplies, a pair
/// of `u64`s too.
/// Narrower integers are widened to a word; byte strings are absorbed
/// as little-endian 8-byte words (the last one zero-padded) followed by
/// their length.
#[derive(Debug, Clone)]
pub struct KeyHasher {
    acc: u64,
    fold: u64,
    /// A word waiting for its partner.
    pending: Option<u64>,
}

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let acc = match self.pending {
            Some(word) => folded_multiply(self.acc ^ word, self.fold),
            None => self.acc,
        };
        // A product moves a word's entropy only upwards and the fold
        // brings it back only partly: keys that differ only in their
        // top bits (multiples of 2⁴⁸) would share the top bits that
        // hashbrown tags slots with. A second fold spreads them.
        folded_multiply(acc, FINISH)
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        match self.pending.take() {
            Some(first) => self.acc = folded_multiply(self.acc ^ first, self.fold ^ word),
            None => self.pending = Some(word),
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
        self.write_u64(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }
    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.write_u64(i as u64);
        self.write_u64((i >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
    #[inline]
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }
    #[inline]
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }
    #[inline]
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }
    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }
    #[inline]
    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }
    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.write_usize(i as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash<T: std::hash::Hash + ?Sized>(v: &T) -> u64 {
        KeyState::default().hash_one(v)
    }

    #[test]
    fn one_seed_per_process() {
        assert_eq!(hash(&42u64), hash(&42u64));
        assert_eq!(hash(&(1u64, 2u64)), hash(&(1u64, 2u64)));
        assert_eq!(hash("streamloc"), hash("streamloc"));
    }

    #[test]
    fn distinguishes_inputs() {
        assert_ne!(hash(&0u64), hash(&1u64));
        assert_ne!(hash(&(1u64, 2u64)), hash(&(2u64, 1u64)));
        assert_ne!(hash(&(7u64, 7u64)), hash(&(7u64, 8u64)));
        assert_ne!(hash("a"), hash("b"));
        // The length word: zero bytes are not nothing.
        assert_ne!(hash(&[0u8; 4][..]), hash(&[0u8; 8][..]));
    }

    #[test]
    fn the_seed_is_not_the_stable_hash() {
        // Not a proof of secrecy, only that the seed was drawn: both
        // words zero would reduce every key to one product.
        assert_ne!(process_seed(), [0, 0]);
        assert_ne!(hash(&5u64), crate::splitmix64(5));
    }
}
