//! Randomness plumbing.
//!
//! Every stochastic component in this workspace draws from a [`SimRng`],
//! a counter-based ChaCha12 generator. Using one concrete, seedable RNG
//! everywhere gives us bit-for-bit reproducible experiments (every number
//! the `mlss-bench` binaries print can be regenerated from their seeds) while
//! remaining statistically strong enough for rare-event estimation, where
//! a weak generator could visibly bias tail probabilities.
//!
//! Being counter-based is also what makes the vectorized draw pipeline
//! possible: a stream's next keystream block is a pure function of
//! `(key, counter)`, so [`crate::simd::chacha`] can compute many lanes'
//! next blocks in one SIMD pass — ahead of need, in any grouping —
//! and hand each lane *exactly* the words its scalar `next_u32`/`next_u64`
//! sequence would have produced. The generator's block-level accessors
//! (`block_key`, `block_counter`, `words_remaining`, `install_block`)
//! are the seam; per-stream word order never changes.

use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// The workspace-wide simulation RNG.
pub type SimRng = ChaCha12Rng;

/// Create a [`SimRng`] from a 64-bit seed.
pub fn rng_from_seed(seed: u64) -> SimRng {
    SimRng::seed_from_u64(seed)
}

/// Derive a child RNG from a parent.
///
/// Used to hand independent streams to worker threads and to root paths:
/// the parent draws a fresh 64-bit seed for each child, so child streams
/// are independent of each other and of the parent's subsequent output.
pub fn split_rng(parent: &mut SimRng) -> SimRng {
    SimRng::seed_from_u64(parent.random::<u64>())
}

/// A small factory for numbered, independent RNG streams.
///
/// `StreamFactory::new(seed).stream(k)` is a pure function of `(seed, k)`,
/// which lets parallel drivers assign stream `k` to root path `k`
/// regardless of which thread executes it — results are then identical
/// across thread counts.
#[derive(Debug, Clone, Copy)]
pub struct StreamFactory {
    seed: u64,
}

impl StreamFactory {
    /// Create a factory rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The `k`-th independent stream.
    pub fn stream(&self, k: u64) -> SimRng {
        // SplitMix64-style mix so that consecutive k map to well-separated
        // ChaCha seeds.
        let mut z = self.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng::seed_from_u64(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_reproducible() {
        let mut a = rng_from_seed(42);
        let mut b = rng_from_seed(42);
        for _ in 0..16 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = rng_from_seed(1);
        let mut b = rng_from_seed(2);
        let xs: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn split_rng_departs_from_parent() {
        let mut parent = rng_from_seed(7);
        let mut child = split_rng(&mut parent);
        let xs: Vec<u64> = (0..8).map(|_| parent.random()).collect();
        let ys: Vec<u64> = (0..8).map(|_| child.random()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn stream_factory_is_pure() {
        let f = StreamFactory::new(99);
        let mut a = f.stream(5);
        let mut b = f.stream(5);
        assert_eq!(a.random::<u64>(), b.random::<u64>());
        let mut c = f.stream(6);
        assert_ne!(f.stream(5).random::<u64>(), c.random::<u64>());
    }

    #[test]
    fn stream_factory_streams_are_distinct_across_seeds() {
        let f1 = StreamFactory::new(1);
        let f2 = StreamFactory::new(2);
        assert_ne!(f1.stream(0).random::<u64>(), f2.stream(0).random::<u64>());
    }
}
