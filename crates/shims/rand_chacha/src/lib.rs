//! A genuine ChaCha12 block generator exposed as `ChaCha12Rng`.
//!
//! This is a faithful implementation of the ChaCha stream cipher keystream
//! (D. J. Bernstein) with 12 rounds — not a toy LCG — because the
//! workspace uses it for rare-event estimation where generator weaknesses
//! can visibly bias tail probabilities. Output bytes differ from the
//! crates.io `rand_chacha` (word serialization order is unspecified
//! there), but the statistical properties are those of ChaCha12.

use rand::{RngCore, SeedableRng};

const BLOCK_WORDS: usize = 16;

/// One raw ChaCha12 keystream block: the 16 output words for `(key,
/// counter)`. This is the scalar reference implementation of the block
/// function; [`ChaCha12Rng::refill`] consumes it, and vectorized
/// multi-stream generators (`mlss_core::simd::chacha`) must reproduce it
/// word for word — the block function is pure integer arithmetic
/// (wrapping adds, xors, rotates), so any correct implementation is
/// bit-identical on every backend.
pub fn chacha12_block(key: &[u32; 8], counter: u64) -> [u32; BLOCK_WORDS] {
    // "expand 32-byte k" constants.
    let mut state: [u32; BLOCK_WORDS] = [
        0x6170_7865,
        0x3320_646E,
        0x7962_2D32,
        0x6B20_6574,
        key[0],
        key[1],
        key[2],
        key[3],
        key[4],
        key[5],
        key[6],
        key[7],
        counter as u32,
        (counter >> 32) as u32,
        0,
        0,
    ];
    let initial = state;
    for _ in 0..6 {
        // One double round: 4 column + 4 diagonal quarter rounds.
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    for (word, init) in state.iter_mut().zip(initial.iter()) {
        *word = word.wrapping_add(*init);
    }
    state
}

/// ChaCha12-based random number generator.
#[derive(Debug, Clone)]
pub struct ChaCha12Rng {
    key: [u32; 8],
    counter: u64,
    buf: [u32; BLOCK_WORDS],
    /// Next unread word in `buf`; `BLOCK_WORDS` means "refill".
    idx: usize,
    /// Process-unique stream identity, allocated at construction. The
    /// key never mutates after construction, so `stream == stream`
    /// implies `key == key` — batch pipelines tag cached blocks with
    /// this one word instead of comparing the full 32-byte key. Clones
    /// share the identity (same key, same stream).
    stream: u64,
}

/// Allocate a fresh process-unique stream identity. Threads reserve ids
/// from the global counter in batches, so the per-root streams of
/// concurrent threads do not contend on one atomic.
fn alloc_stream_id() -> u64 {
    use core::cell::Cell;
    use core::sync::atomic::{AtomicU64, Ordering};
    const BATCH: u64 = 1024;
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::thread_local! {
        static RESERVED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }
    RESERVED.with(|r| {
        let (mut next, mut end) = r.get();
        if next == end {
            next = NEXT.fetch_add(BATCH, Ordering::Relaxed);
            end = next + BATCH;
        }
        r.set((next + 1, end));
        next
    })
}

#[inline(always)]
fn quarter_round(state: &mut [u32; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha12Rng {
    /// Number of 32-bit words per keystream block.
    pub const BLOCK_WORDS: usize = BLOCK_WORDS;

    #[inline]
    fn refill(&mut self) {
        self.buf = chacha12_block(&self.key, self.counter);
        self.idx = 0;
        self.counter = self.counter.wrapping_add(1);
    }

    // ---- block-level access ------------------------------------------
    //
    // Vectorized multi-stream pipelines (see `mlss_core::simd`) compute
    // many streams' *next* blocks in one SIMD pass and hand each stream
    // its own block back. These accessors expose exactly the state that
    // pipeline needs — the stream's key, the counter of the next block,
    // and the read position in the current block — without giving up the
    // invariant that a stream's word sequence is a pure function of its
    // seed.

    /// The stream's ChaCha key (derived from the seed, never mutated).
    #[inline]
    pub fn block_key(&self) -> &[u32; 8] {
        &self.key
    }

    /// This stream's process-unique identity: equal identities imply
    /// equal keys, making `(stream_id, counter)` a sufficient cache tag
    /// for an externally computed block.
    #[inline]
    pub fn stream_id(&self) -> u64 {
        self.stream
    }

    /// Counter of the *next* block this stream will generate.
    #[inline]
    pub fn block_counter(&self) -> u64 {
        self.counter
    }

    /// Unread words left in the current block (0 means the next word
    /// read triggers a refill).
    #[inline]
    pub fn words_remaining(&self) -> usize {
        BLOCK_WORDS - self.idx
    }

    /// The unread tail of the current block, without advancing. Together
    /// with [`ChaCha12Rng::skip_words`] this lets a batch kernel read
    /// draws as pure loads against a local cursor and commit the
    /// consumption once, instead of paying a buffer-index round-trip per
    /// word.
    #[inline]
    pub fn remaining_slice(&self) -> &[u32] {
        &self.buf[self.idx..]
    }

    /// The whole current block buffer, including already-read words
    /// (callers index from `BLOCK_WORDS - words_remaining()`); garbage
    /// when the stream has never filled — which is exactly when
    /// `words_remaining()` is 0 and no valid index exists.
    #[inline]
    pub fn current_block(&self) -> &[u32; BLOCK_WORDS] {
        &self.buf
    }

    /// Advance the stream past `n` unread words of the current block —
    /// exactly as if they had been read. Commits a batch kernel's local
    /// cursor over [`ChaCha12Rng::remaining_slice`].
    ///
    /// # Panics
    ///
    /// Panics when `n` exceeds the unread words.
    #[inline]
    pub fn skip_words(&mut self, n: usize) {
        assert!(
            n <= BLOCK_WORDS - self.idx,
            "skip_words past the current block"
        );
        self.idx += n;
    }

    /// Copy the next `out.len()` `u64` draws straight out of the current
    /// block when it holds enough unread words, advancing the stream
    /// exactly as that many `next_u64` calls would; returns `false`
    /// (drawing nothing) when the buffer is short. The fast path of the
    /// vectorized gather — no per-word refill checks.
    #[inline]
    pub fn try_fill_u64(&mut self, out: &mut [u64]) -> bool {
        if BLOCK_WORDS - self.idx < 2 * out.len() {
            return false;
        }
        for o in out.iter_mut() {
            let lo = self.buf[self.idx] as u64;
            let hi = self.buf[self.idx + 1] as u64;
            self.idx += 2;
            *o = (hi << 32) | lo;
        }
        true
    }

    /// Install an externally computed next block, exactly as the internal
    /// refill would: `block` must equal
    /// [`chacha12_block`]`(&self.block_key(), self.block_counter())`.
    ///
    /// # Panics
    ///
    /// Panics when the current block still has unread words — installing
    /// early would skip keystream and break draw-identity.
    #[inline]
    pub fn install_block(&mut self, block: [u32; BLOCK_WORDS]) {
        assert_eq!(
            self.idx, BLOCK_WORDS,
            "install_block requires a drained buffer"
        );
        debug_assert_eq!(
            block,
            chacha12_block(&self.key, self.counter),
            "installed block does not match this stream's next block"
        );
        self.buf = block;
        self.idx = 0;
        self.counter = self.counter.wrapping_add(1);
    }
}

impl SeedableRng for ChaCha12Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (i, word) in key.iter_mut().enumerate() {
            *word = u32::from_le_bytes(seed[4 * i..4 * i + 4].try_into().unwrap());
        }
        Self {
            key,
            counter: 0,
            buf: [0; BLOCK_WORDS],
            idx: BLOCK_WORDS,
            stream: alloc_stream_id(),
        }
    }
}

impl RngCore for ChaCha12Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.idx >= BLOCK_WORDS {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        (hi << 32) | lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha12Rng::seed_from_u64(5);
        let mut b = ChaCha12Rng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = ChaCha12Rng::seed_from_u64(6);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn stream_ids_stay_unique_across_threads_and_batches() {
        let ids: Vec<u64> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..3)
                .map(|k| {
                    s.spawn(move || {
                        (0..2_500)
                            .map(|i| ChaCha12Rng::seed_from_u64(k * 10_000 + i).stream_id())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            hs.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let distinct: std::collections::BTreeSet<u64> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), ids.len());
    }

    #[test]
    fn uniformity_smoke() {
        // Mean of 100k uniforms should be 0.5 within ~5σ (σ ≈ 0.00091).
        let mut rng = ChaCha12Rng::seed_from_u64(42);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.random::<f64>()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn block_access_reproduces_the_stream() {
        // Drain blocks via the block-level API and via next_u32: the word
        // sequences must be identical, including across block boundaries.
        let mut scalar = ChaCha12Rng::seed_from_u64(77);
        let mut blocky = ChaCha12Rng::seed_from_u64(77);
        for _ in 0..5 {
            // Drain the current block word by word.
            while blocky.words_remaining() > 0 {
                assert_eq!(scalar.next_u32(), blocky.next_u32());
            }
            let block = chacha12_block(blocky.block_key(), blocky.block_counter());
            blocky.install_block(block);
        }
        assert_eq!(scalar.next_u64(), blocky.next_u64());
    }

    #[test]
    #[should_panic]
    fn install_block_rejects_unread_words() {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let _ = rng.next_u32(); // buffer now partially read
        let block = chacha12_block(rng.block_key(), rng.block_counter());
        rng.install_block(block);
    }

    #[test]
    fn bits_look_balanced() {
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        let mut ones = 0u64;
        let draws = 10_000;
        for _ in 0..draws {
            ones += rng.next_u64().count_ones() as u64;
        }
        let expect = draws * 32;
        let dev = (ones as i64 - expect as i64).abs();
        // σ = √(64·draws·0.25) = 400 for 10k draws; allow 6σ.
        assert!(dev < 2400, "bit-count deviation {dev}");
    }
}
