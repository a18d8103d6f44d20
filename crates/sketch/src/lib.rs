//! Bounded-memory frequency sketches for online stream statistics.
//!
//! The locality-aware routing protocol of Caneill et al. (Middleware 2016)
//! instruments every stateful operator instance with a counter of the
//! *pairs of keys* observed in consecutive fields groupings. Because the
//! key domain is unbounded, the paper relies on the **SpaceSaving**
//! algorithm (Metwally, Agrawal, El Abbadi — ICDT 2005) to maintain an
//! approximate list of the most frequent items in O(capacity) memory.
//!
//! This crate provides:
//!
//! * [`SpaceSaving`] — the stream-summary implementation with O(1)
//!   amortized updates (one hash-map update until the first eviction),
//!   per-item error bounds, descending iteration and lossless merging
//!   of sketches collected from different operator instances;
//! * [`KeyMap`] — a `std` map under [`KeyState`], the process-seeded
//!   hasher of every in-memory map on the per-tuple path
//!   (SpaceSaving's own, routing tables, operator state);
//! * [`ExactCounter`] — an exact hash-map counter, the oracle the
//!   sketch's error bounds are tested against;
//! * [`splitmix64`] — the deterministic integer mix behind hash-based
//!   fields grouping, the span sampler and the seeded generators.
//!
//! # Example
//!
//! ```
//! use streamloc_sketch::SpaceSaving;
//!
//! let mut sketch = SpaceSaving::new(100);
//! for word in ["a", "b", "a", "c", "a", "b"] {
//!     sketch.offer(word);
//! }
//! let top: Vec<_> = sketch.iter().map(|e| (e.key, e.count)).collect();
//! assert_eq!(top[0], (&"a", 3));
//! assert_eq!(sketch.total(), 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod exact;
mod key_hash;
mod space_saving;
mod stable_hash;

pub use exact::ExactCounter;
pub use key_hash::{KeyHasher, KeyMap, KeyState};
pub use space_saving::{Entry, Estimate, Iter, SpaceSaving};
pub use stable_hash::splitmix64;
