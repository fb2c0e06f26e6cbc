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
//!
//! Being counter-based also makes a run's randomness index-addressed
//! (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3",
//! SC'11): a run is keyed once, and root `k`, quality check `i` and the
//! closing estimate each draw from a stream that is a pure function of
//! `(key, index)` ([`RootCursor`]). Which driver, thread or slice runs a
//! root never changes what it draws.

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
/// Used to hand independent streams to sessions and to materialized
/// sample paths: the parent draws a fresh 64-bit seed for each child, so
/// child streams are independent of each other and of the parent's
/// subsequent output.
pub fn split_rng(parent: &mut SimRng) -> SimRng {
    SimRng::seed_from_u64(parent.random::<u64>())
}

/// A small factory for numbered, independent RNG streams.
///
/// `StreamFactory::new(seed).stream(k)` is a pure function of `(seed, k)`:
/// [`RootCursor`] hands stream `k` of a run's key to root path `k`,
/// whichever thread executes it.
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

/// Key-domain salts: a run's check and closing streams come from
/// factories keyed apart from its root streams.
const CHECK_DOMAIN: u64 = 0xC4EC_6B5A_17E2_0F3D;
const CLOSING_DOMAIN: u64 = 0x0C1F_E5A7_93D2_B861;

/// A run's root cursor. Root `k` of the run keyed `key` draws every
/// random number of its splitting tree from
/// `StreamFactory::new(key).stream(k)`; quality check `i` draws from
/// [`RootCursor::check_stream`] and the closing estimate from
/// [`RootCursor::closing_stream`], keyed apart from every root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootCursor {
    /// The run key.
    pub key: u64,
    /// Index of the next root to commit.
    pub next: u64,
    /// Exclusive bound on the roots a chunk may commit: `u64::MAX` for a
    /// whole run, a block end for one helper's claim.
    pub end: u64,
}

impl RootCursor {
    /// A fresh run under `key`, at root 0.
    pub fn new(key: u64) -> Self {
        Self {
            key,
            next: 0,
            end: u64::MAX,
        }
    }

    /// A fresh run keyed by one draw from `rng`.
    pub fn from_rng(rng: &mut SimRng) -> Self {
        Self::new(rng.random::<u64>())
    }

    /// Root `k`'s stream.
    pub fn stream(&self, k: u64) -> SimRng {
        StreamFactory::new(self.key).stream(k)
    }

    /// Quality check `i`'s stream.
    pub fn check_stream(&self, i: u64) -> SimRng {
        StreamFactory::new(self.key ^ CHECK_DOMAIN).stream(i)
    }

    /// The closing estimate's stream.
    pub fn closing_stream(&self) -> SimRng {
        StreamFactory::new(self.key ^ CLOSING_DOMAIN).stream(0)
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
    fn root_check_and_closing_streams_are_keyed_apart() {
        let c = RootCursor::from_rng(&mut StreamFactory::new(3).stream(0));
        let first = |mut r: SimRng| r.random::<u64>();
        let root = first(c.stream(0));
        assert_eq!(root, first(c.stream(0)));
        assert_ne!(root, first(c.check_stream(0)));
        assert_ne!(root, first(c.closing_stream()));
        assert_ne!(first(c.check_stream(0)), first(c.closing_stream()));
    }

    #[test]
    fn stream_factory_streams_are_distinct_across_seeds() {
        let f1 = StreamFactory::new(1);
        let f2 = StreamFactory::new(2);
        assert_ne!(f1.stream(0).random::<u64>(), f2.stream(0).random::<u64>());
    }
}
