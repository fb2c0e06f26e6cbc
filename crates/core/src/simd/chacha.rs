//! Multi-stream ChaCha12 block generation: K independent lanes' next
//! blocks in one vectorized pass.
//!
//! Each frontier lane owns a private [`SimRng`] (ChaCha12) stream — that
//! is the draw-identity invariant, and it never changes here. What this
//! module vectorizes is the *block function*: vector register `w` holds
//! word `w` of K different streams' states, and the double-round
//! schedule runs once for all K. Because ChaCha is pure wrapping-`u32`
//! arithmetic, lane `k`'s output is `chacha12_block(key_k, counter_k)`
//! bit for bit on every backend; the lanes stay fully independent (their
//! own keys, their own counters, their own read positions).
//!
//! Two front ends feed kernels:
//!
//! * [`gather_u64`] — for models with a *fixed* number of draws per step
//!   (`walk`: 1, `gbm`: 2): pull `per_lane` `u64` words from every
//!   listed lane into a lane-major buffer, refilling all lanes that
//!   would run dry in one vectorized [`compute_blocks`] pass.
//! * [`stage_refills`] + [`draw_u64`] — for models with data-dependent
//!   draw counts (`cpp`'s Knuth loop): precompute the next block of
//!   every lane that is running low, then let the per-lane loop install
//!   the staged block the moment the lane drains. A lane that outruns
//!   its staged block (a rare long Knuth/jump tail) falls back to the
//!   scalar refill inside `next_u32` — still bit-identical, just not
//!   vectorized for that tail.
//!
//! A third front end, `fill_below`, serves one stream rather than
//! many: the bootstrap's bulk `random_range(0..n)` draws, computing that
//! stream's next 16 consecutive blocks per pass.
//!
//! Word extraction mirrors `ChaCha12Rng::next_u64` exactly (low word
//! first, refill checked before every word), so a lane's draw sequence
//! is indistinguishable from scalar stepping at any interleaving.

use super::{Backend, KernelScratch};
use crate::rng::SimRng;
use rand::RngCore;
use rand_chacha::chacha12_block;

/// Words per ChaCha block (16 × `u32`).
pub const BLOCK_WORDS: usize = 16;

/// Compute the next block of each stream `(keys[i], counters[i])` into
/// `out[i]`, using the process-wide active backend.
pub fn compute_blocks(keys: &[[u32; 8]], counters: &[u64], out: &mut [[u32; BLOCK_WORDS]]) {
    compute_blocks_with(Backend::active(), keys, counters, out)
}

/// [`compute_blocks`] on an explicit backend — the test harness uses
/// this to pin cross-backend bit-equality.
pub fn compute_blocks_with(
    backend: Backend,
    keys: &[[u32; 8]],
    counters: &[u64],
    out: &mut [[u32; BLOCK_WORDS]],
) {
    assert_eq!(keys.len(), counters.len());
    assert_eq!(keys.len(), out.len());
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    {
        if backend >= Backend::Avx512 {
            while keys.len() - done >= 16 {
                // SAFETY: Backend::Avx512 is only reachable when AVX-512F
                // was detected (Backend::active/available cap at detect()).
                unsafe {
                    blocks16_avx512(
                        &keys[done..done + 16],
                        &counters[done..done + 16],
                        &mut out[done..done + 16],
                    )
                };
                done += 16;
            }
            // Ragged tails: the wide pass is latency-bound (near-flat
            // cost regardless of how many streams are real), so one
            // padded 16-wide pass beats the narrower cascade for most
            // remainder sizes. Sizes the narrower passes serve better
            // (4 → SSE2, 8 → AVX2, tiny → scalar) fall through.
            let rem = keys.len() - done;
            if rem >= 5 && rem != 8 {
                let mut pk = [[0u32; 8]; 16];
                let mut pc = [0u64; 16];
                pk[..rem].copy_from_slice(&keys[done..]);
                pc[..rem].copy_from_slice(&counters[done..]);
                let mut pout = [[0u32; BLOCK_WORDS]; 16];
                // SAFETY: Backend::Avx512 is only reachable when AVX-512F
                // was detected (Backend::active/available cap at detect()).
                unsafe { blocks16_avx512(&pk, &pc, &mut pout) };
                out[done..].copy_from_slice(&pout[..rem]);
                done = keys.len();
            }
        }
        if backend >= Backend::Avx2 {
            while keys.len() - done >= 8 {
                // SAFETY: Backend::Avx2 is only reachable when AVX2 was
                // detected (Backend::active/available cap at detect()).
                unsafe {
                    blocks8_avx2(
                        &keys[done..done + 8],
                        &counters[done..done + 8],
                        &mut out[done..done + 8],
                    )
                };
                done += 8;
            }
        }
        if backend >= Backend::Sse2 {
            while keys.len() - done >= 4 {
                // SAFETY: SSE2 is part of the x86_64 baseline.
                unsafe {
                    blocks4_sse2(
                        &keys[done..done + 4],
                        &counters[done..done + 4],
                        &mut out[done..done + 4],
                    )
                };
                done += 4;
            }
        }
    }
    let _ = backend;
    for i in done..keys.len() {
        out[i] = chacha12_block(&keys[i], counters[i]);
    }
}

// In-register 16×16 `u32` transpose (the canonical unpack/unpack/
// shuffle_i32x4 ladder, 64 shuffles): `v[r]` holds row `r` in, column
// `r` out. Both ends of `blocks16_avx512` are transposes — states in,
// keystream out — and doing them in registers is what makes the 16-wide
// pass worth it (element-by-element extraction costs more than the
// rounds themselves).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn transpose16(v: &mut [std::arch::x86_64::__m512i; 16]) {
    use std::arch::x86_64::*;
    // Stage 1: interleave row pairs at u32 granularity.
    let mut t = [_mm512_setzero_si512(); 16];
    for k in 0..8 {
        t[2 * k] = _mm512_unpacklo_epi32(v[2 * k], v[2 * k + 1]);
        t[2 * k + 1] = _mm512_unpackhi_epi32(v[2 * k], v[2 * k + 1]);
    }
    // Stage 2: interleave pair-groups at u64 granularity. s[4g + c] now
    // holds, for row group g (rows 4g..4g+4), columns {c, c+4, c+8,
    // c+12} as four 128-bit chunks.
    let mut s = [_mm512_setzero_si512(); 16];
    for g in 0..4 {
        let b = 4 * g;
        s[b] = _mm512_unpacklo_epi64(t[b], t[b + 2]);
        s[b + 1] = _mm512_unpackhi_epi64(t[b], t[b + 2]);
        s[b + 2] = _mm512_unpacklo_epi64(t[b + 1], t[b + 3]);
        s[b + 3] = _mm512_unpackhi_epi64(t[b + 1], t[b + 3]);
    }
    // Stages 3+4: gather matching 128-bit chunks across row groups.
    for c in 0..4 {
        let a = _mm512_shuffle_i32x4::<0x88>(s[c], s[4 + c]);
        let b = _mm512_shuffle_i32x4::<0xdd>(s[c], s[4 + c]);
        let d = _mm512_shuffle_i32x4::<0x88>(s[8 + c], s[12 + c]);
        let e = _mm512_shuffle_i32x4::<0xdd>(s[8 + c], s[12 + c]);
        v[c] = _mm512_shuffle_i32x4::<0x88>(a, d);
        v[c + 4] = _mm512_shuffle_i32x4::<0x88>(b, e);
        v[c + 8] = _mm512_shuffle_i32x4::<0xdd>(a, d);
        v[c + 12] = _mm512_shuffle_i32x4::<0xdd>(b, e);
    }
}

// The 16-lane mirror of `blocks8_avx2` below (same round schedule, same
// counter packing) at `__m512i` width — 16 independent streams' next
// blocks per pass. AVX-512F has a native rotate (`vprold`), so `rotl!`
// is one instruction instead of shift/shift/or, and both transposes run
// in-register (`transpose16`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn blocks16_avx512(keys: &[[u32; 8]], counters: &[u64], out: &mut [[u32; BLOCK_WORDS]]) {
    use std::arch::x86_64::*;

    macro_rules! rotl {
        ($x:expr, $n:literal) => {
            _mm512_rol_epi32::<$n>($x)
        };
    }
    macro_rules! qr {
        ($v:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
            $v[$a] = _mm512_add_epi32($v[$a], $v[$b]);
            $v[$d] = rotl!(_mm512_xor_si512($v[$d], $v[$a]), 16);
            $v[$c] = _mm512_add_epi32($v[$c], $v[$d]);
            $v[$b] = rotl!(_mm512_xor_si512($v[$b], $v[$c]), 12);
            $v[$a] = _mm512_add_epi32($v[$a], $v[$b]);
            $v[$d] = rotl!(_mm512_xor_si512($v[$d], $v[$a]), 8);
            $v[$c] = _mm512_add_epi32($v[$c], $v[$d]);
            $v[$b] = rotl!(_mm512_xor_si512($v[$b], $v[$c]), 7);
        };
    }

    const CONSTS: [u32; 4] = [0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574];
    // Build each stream's full 16-word state row contiguously, then
    // transpose in-register: vector w = word w of all 16 streams.
    let mut rows = [[0u32; BLOCK_WORDS]; 16];
    for (s, row) in rows.iter_mut().enumerate() {
        row[..4].copy_from_slice(&CONSTS);
        row[4..12].copy_from_slice(&keys[s]);
        row[12] = counters[s] as u32;
        row[13] = (counters[s] >> 32) as u32;
        // Words 14, 15 stay zero (nonce words).
    }
    let mut v = [_mm512_setzero_si512(); BLOCK_WORDS];
    for (s, row) in rows.iter().enumerate() {
        v[s] = _mm512_loadu_si512(row.as_ptr() as *const __m512i);
    }
    transpose16(&mut v);

    let init = v;
    for _ in 0..6 {
        qr!(v, 0, 4, 8, 12);
        qr!(v, 1, 5, 9, 13);
        qr!(v, 2, 6, 10, 14);
        qr!(v, 3, 7, 11, 15);
        qr!(v, 0, 5, 10, 15);
        qr!(v, 1, 6, 11, 12);
        qr!(v, 2, 7, 8, 13);
        qr!(v, 3, 4, 9, 14);
    }
    for (w, vec) in v.iter_mut().enumerate() {
        *vec = _mm512_add_epi32(*vec, init[w]);
    }
    // Transpose back: row s = stream s's keystream block, one store each.
    transpose16(&mut v);
    for (s, o) in out.iter_mut().enumerate() {
        _mm512_storeu_si512(o.as_mut_ptr() as *mut __m512i, v[s]);
    }
}

// In-register 8×8 `u32` transpose (unpack/unpack/permute2x128 ladder,
// 24 shuffles): `v[r]` holds row `r` in, column `r` out.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn transpose8(v: &mut [std::arch::x86_64::__m256i; 8]) {
    use std::arch::x86_64::*;
    let mut t = [_mm256_setzero_si256(); 8];
    for k in 0..4 {
        t[2 * k] = _mm256_unpacklo_epi32(v[2 * k], v[2 * k + 1]);
        t[2 * k + 1] = _mm256_unpackhi_epi32(v[2 * k], v[2 * k + 1]);
    }
    let mut s = [_mm256_setzero_si256(); 8];
    for g in 0..2 {
        let b = 4 * g;
        s[b] = _mm256_unpacklo_epi64(t[b], t[b + 2]);
        s[b + 1] = _mm256_unpackhi_epi64(t[b], t[b + 2]);
        s[b + 2] = _mm256_unpacklo_epi64(t[b + 1], t[b + 3]);
        s[b + 3] = _mm256_unpackhi_epi64(t[b + 1], t[b + 3]);
    }
    for c in 0..4 {
        v[c] = _mm256_permute2x128_si256::<0x20>(s[c], s[4 + c]);
        v[c + 4] = _mm256_permute2x128_si256::<0x31>(s[c], s[4 + c]);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn blocks8_avx2(keys: &[[u32; 8]], counters: &[u64], out: &mut [[u32; BLOCK_WORDS]]) {
    use std::arch::x86_64::*;

    macro_rules! rotl {
        ($x:expr, $n:literal) => {
            _mm256_or_si256(_mm256_slli_epi32($x, $n), _mm256_srli_epi32($x, 32 - $n))
        };
    }
    macro_rules! qr {
        ($v:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
            $v[$a] = _mm256_add_epi32($v[$a], $v[$b]);
            $v[$d] = rotl!(_mm256_xor_si256($v[$d], $v[$a]), 16);
            $v[$c] = _mm256_add_epi32($v[$c], $v[$d]);
            $v[$b] = rotl!(_mm256_xor_si256($v[$b], $v[$c]), 12);
            $v[$a] = _mm256_add_epi32($v[$a], $v[$b]);
            $v[$d] = rotl!(_mm256_xor_si256($v[$d], $v[$a]), 8);
            $v[$c] = _mm256_add_epi32($v[$c], $v[$d]);
            $v[$b] = rotl!(_mm256_xor_si256($v[$b], $v[$c]), 7);
        };
    }

    const CONSTS: [u32; 4] = [0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574];
    // Build each stream's full 16-word state row, then transpose the two
    // 8×8 halves in-register: vector w = word w of all 8 streams.
    let mut rows = [[0u32; BLOCK_WORDS]; 8];
    for (s, row) in rows.iter_mut().enumerate() {
        row[..4].copy_from_slice(&CONSTS);
        row[4..12].copy_from_slice(&keys[s]);
        row[12] = counters[s] as u32;
        row[13] = (counters[s] >> 32) as u32;
        // Words 14, 15 stay zero (nonce words).
    }
    let mut lo = [_mm256_setzero_si256(); 8];
    let mut hi = [_mm256_setzero_si256(); 8];
    for s in 0..8 {
        lo[s] = _mm256_loadu_si256(rows[s].as_ptr() as *const __m256i);
        hi[s] = _mm256_loadu_si256(rows[s].as_ptr().add(8) as *const __m256i);
    }
    transpose8(&mut lo);
    transpose8(&mut hi);
    let mut v = [_mm256_setzero_si256(); BLOCK_WORDS];
    v[..8].copy_from_slice(&lo);
    v[8..].copy_from_slice(&hi);

    let init = v;
    for _ in 0..6 {
        qr!(v, 0, 4, 8, 12);
        qr!(v, 1, 5, 9, 13);
        qr!(v, 2, 6, 10, 14);
        qr!(v, 3, 7, 11, 15);
        qr!(v, 0, 5, 10, 15);
        qr!(v, 1, 6, 11, 12);
        qr!(v, 2, 7, 8, 13);
        qr!(v, 3, 4, 9, 14);
    }
    for (w, vec) in v.iter_mut().enumerate() {
        *vec = _mm256_add_epi32(*vec, init[w]);
    }
    // Transpose back: row s = stream s's keystream block, two stores.
    lo.copy_from_slice(&v[..8]);
    hi.copy_from_slice(&v[8..]);
    transpose8(&mut lo);
    transpose8(&mut hi);
    for (s, o) in out.iter_mut().enumerate() {
        _mm256_storeu_si256(o.as_mut_ptr() as *mut __m256i, lo[s]);
        _mm256_storeu_si256(o.as_mut_ptr().add(8) as *mut __m256i, hi[s]);
    }
}

// In-register 4×4 `u32` transpose (8 shuffles): `v[r]` holds row `r`
// in, column `r` out.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[inline]
unsafe fn transpose4(v: &mut [std::arch::x86_64::__m128i; 4]) {
    use std::arch::x86_64::*;
    let t0 = _mm_unpacklo_epi32(v[0], v[1]);
    let t1 = _mm_unpackhi_epi32(v[0], v[1]);
    let t2 = _mm_unpacklo_epi32(v[2], v[3]);
    let t3 = _mm_unpackhi_epi32(v[2], v[3]);
    v[0] = _mm_unpacklo_epi64(t0, t2);
    v[1] = _mm_unpackhi_epi64(t0, t2);
    v[2] = _mm_unpacklo_epi64(t1, t3);
    v[3] = _mm_unpackhi_epi64(t1, t3);
}

// Deliberately a 4-lane mirror of `blocks8_avx2` (same round schedule,
// same counter packing) rather than one width-generic macro — keep the
// two in lockstep when editing either. Every CI leg exercises both: the
// 4-wide path also runs as the remainder chunk of AVX2 refill sets, and
// `compute_blocks_matches_scalar_on_every_backend` pins each against
// the scalar block function.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn blocks4_sse2(keys: &[[u32; 8]], counters: &[u64], out: &mut [[u32; BLOCK_WORDS]]) {
    use std::arch::x86_64::*;

    macro_rules! rotl {
        ($x:expr, $n:literal) => {
            _mm_or_si128(_mm_slli_epi32($x, $n), _mm_srli_epi32($x, 32 - $n))
        };
    }
    macro_rules! qr {
        ($v:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
            $v[$a] = _mm_add_epi32($v[$a], $v[$b]);
            $v[$d] = rotl!(_mm_xor_si128($v[$d], $v[$a]), 16);
            $v[$c] = _mm_add_epi32($v[$c], $v[$d]);
            $v[$b] = rotl!(_mm_xor_si128($v[$b], $v[$c]), 12);
            $v[$a] = _mm_add_epi32($v[$a], $v[$b]);
            $v[$d] = rotl!(_mm_xor_si128($v[$d], $v[$a]), 8);
            $v[$c] = _mm_add_epi32($v[$c], $v[$d]);
            $v[$b] = rotl!(_mm_xor_si128($v[$b], $v[$c]), 7);
        };
    }

    const CONSTS: [u32; 4] = [0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574];
    // Build each stream's full 16-word state row, then transpose the
    // four 4×4 quarters in-register: vector w = word w of all 4 streams.
    let mut rows = [[0u32; BLOCK_WORDS]; 4];
    for (s, row) in rows.iter_mut().enumerate() {
        row[..4].copy_from_slice(&CONSTS);
        row[4..12].copy_from_slice(&keys[s]);
        row[12] = counters[s] as u32;
        row[13] = (counters[s] >> 32) as u32;
        // Words 14, 15 stay zero (nonce words).
    }
    let mut v = [_mm_setzero_si128(); BLOCK_WORDS];
    for q in 0..4 {
        let mut quad = [_mm_setzero_si128(); 4];
        for s in 0..4 {
            quad[s] = _mm_loadu_si128(rows[s].as_ptr().add(4 * q) as *const __m128i);
        }
        transpose4(&mut quad);
        v[4 * q..4 * q + 4].copy_from_slice(&quad);
    }

    let init = v;
    for _ in 0..6 {
        qr!(v, 0, 4, 8, 12);
        qr!(v, 1, 5, 9, 13);
        qr!(v, 2, 6, 10, 14);
        qr!(v, 3, 7, 11, 15);
        qr!(v, 0, 5, 10, 15);
        qr!(v, 1, 6, 11, 12);
        qr!(v, 2, 7, 8, 13);
        qr!(v, 3, 4, 9, 14);
    }
    for (w, vec) in v.iter_mut().enumerate() {
        *vec = _mm_add_epi32(*vec, init[w]);
    }
    // Transpose back quarter by quarter: row s = stream s's words.
    for q in 0..4 {
        let mut quad = [_mm_setzero_si128(); 4];
        quad.copy_from_slice(&v[4 * q..4 * q + 4]);
        transpose4(&mut quad);
        for (s, o) in out.iter_mut().enumerate() {
            _mm_storeu_si128(o.as_mut_ptr().add(4 * q) as *mut __m128i, quad[s]);
        }
    }
}

/// Read one `u32` word from the lane's stream, installing the staged
/// block if the lane just drained (otherwise `next_u32` scalar-refills —
/// bit-identical either way).
#[inline(always)]
fn next_word(rng: &mut SimRng, pending: &mut Option<[u32; BLOCK_WORDS]>) -> u32 {
    if rng.words_remaining() == 0 {
        if let Some(block) = pending.take() {
            rng.install_block(block);
        }
    }
    rng.next_u32()
}

/// Draw one `u64` from the lane's stream — exactly
/// `ChaCha12Rng::next_u64` (low word, then high word, refill checked
/// before each) with staged-refill support.
#[inline(always)]
pub fn draw_u64(rng: &mut SimRng, pending: &mut Option<[u32; BLOCK_WORDS]>) -> u64 {
    let lo = next_word(rng, pending) as u64;
    let hi = next_word(rng, pending) as u64;
    (hi << 32) | lo
}

/// Sentinel cursor value: the lane outran its view, its consumption has
/// been committed, and further draws go through the mutating
/// [`draw_u64`] path.
pub const VIEW_COMMITTED: u32 = u32::MAX;

/// Words per lane view row: the lane's whole current block followed by
/// its staged next block.
pub const VIEW_STRIDE: usize = 2 * BLOCK_WORDS;

/// Synchronize the *persistent* per-lane draw views with the streams'
/// current positions, staging next blocks in the same pass. Row `i` of
/// `sc.views` is lane `i`'s current block followed by its staged next
/// block, pinned to an exact stream position by `(sc.view_stream[i],
/// sc.view_ctr0[i])` — equal stream identities imply equal keys, so
/// matching tags mean the row bytes *are* the lane's keystream and the
/// row survives from the previous step untouched. Only three cases do
/// any work:
///
/// * stale tags (first step, a reseeded/replaced lane, or an external
///   block crossing): the current block is recopied (64 B);
/// * a missing staged half (after a rebase in [`commit_view`], or a
///   fresh row): the next block is computed — all such lanes in one
///   [`compute_blocks`] pass — and scattered into the row;
/// * everything else: the cursor is recomputed from the stream (two
///   loads), nothing is copied.
///
/// Draws then become pure loads against the row ([`view_row_u64`]) with
/// a single [`commit_view`] per lane at the end of the step — no
/// per-draw stream mutation, no per-step row rebuild.
pub fn sync_views(rngs: &[SimRng], lanes: &[usize], sc: &mut KernelScratch) {
    let n_lanes = rngs.len();
    if sc.views.len() < n_lanes {
        sc.views.resize(n_lanes, [0u32; VIEW_STRIDE]);
        sc.view_stream.resize(n_lanes, u64::MAX);
        sc.view_ctr0.resize(n_lanes, 0);
        sc.view_staged.resize(n_lanes, false);
        sc.cursors.resize(n_lanes, 0);
    }
    // Here `idxs` holds the lanes whose staged half needs computing.
    sc.idxs.clear();
    sc.keys.clear();
    sc.counters.clear();
    let KernelScratch {
        views,
        view_stream,
        view_ctr0,
        view_staged,
        cursors,
        idxs,
        keys,
        counters,
        blocks,
        ..
    } = sc;
    for &i in lanes {
        let rng = &rngs[i];
        let rem = rng.words_remaining();
        // The counter of the *current* (possibly partially read) block.
        // A never-filled stream wraps to `counter - 1` of garbage — but
        // there `rem == 0`, the cursor starts past the first half, and
        // the tag still pins the staged half correctly.
        let ctr0 = rng.block_counter().wrapping_sub(1);
        cursors[i] = (BLOCK_WORDS - rem) as u32;
        if view_stream[i] != rng.stream_id() || view_ctr0[i] != ctr0 {
            views[i][..BLOCK_WORDS].copy_from_slice(rng.current_block());
            view_stream[i] = rng.stream_id();
            view_ctr0[i] = ctr0;
            view_staged[i] = false;
        }
        if !view_staged[i] {
            idxs.push(i);
            keys.push(*rng.block_key());
            counters.push(rng.block_counter());
            view_staged[i] = true;
        }
    }
    let n = idxs.len();
    if n > 0 {
        if blocks.len() < n {
            blocks.resize(n, [0u32; BLOCK_WORDS]);
        }
        compute_blocks(keys, counters, &mut blocks[..n]);
        for (k, &i) in idxs.iter().enumerate() {
            views[i][BLOCK_WORDS..].copy_from_slice(&blocks[k]);
        }
    }
}

/// One `u64` from a lane's view row, advancing only the local `cursor` —
/// `None` when the row cannot cover another draw (caller commits and
/// falls back to [`draw_u64`]). Word order is exactly `next_u64`'s (low
/// word, then high), so a committed view is bit-identical to mutating
/// draws.
#[inline(always)]
pub fn view_row_u64(row: &[u32; VIEW_STRIDE], cursor: &mut u32) -> Option<u64> {
    let c = *cursor as usize;
    if c + 2 > VIEW_STRIDE {
        return None;
    }
    let lo = row[c] as u64;
    let hi = row[c + 1] as u64;
    *cursor += 2;
    Some((hi << 32) | lo)
}

/// Commit a lane's view consumption to its stream: skip within the
/// current block, or — when the cursor crossed into the staged half —
/// install the staged block and *rebase* the row (the staged half
/// becomes the current half, 64 B, and the tag advances) so the row
/// stays valid for the next step's [`sync_views`] with only its staged
/// half to refill. After this, mutating draws continue seamlessly from
/// the cursor position.
#[inline]
pub fn commit_view(
    rng: &mut SimRng,
    i: usize,
    views: &mut [[u32; VIEW_STRIDE]],
    view_ctr0: &mut [u64],
    view_staged: &mut [bool],
    cursor: u32,
) {
    let c = cursor as usize;
    let rem = rng.words_remaining();
    let start = BLOCK_WORDS - rem;
    debug_assert!(c >= start, "cursor behind the stream position");
    if c <= BLOCK_WORDS {
        rng.skip_words(c - start);
    } else {
        rng.skip_words(rem);
        debug_assert!(view_staged[i], "view crossed into an unstaged half");
        let row = &mut views[i];
        let staged: [u32; BLOCK_WORDS] = row[BLOCK_WORDS..].try_into().unwrap();
        rng.install_block(staged);
        rng.skip_words(c - BLOCK_WORDS);
        row.copy_within(BLOCK_WORDS.., 0);
        view_ctr0[i] = view_ctr0[i].wrapping_add(1);
        view_staged[i] = false;
    }
}

/// Stage vectorized refills: record every listed lane whose current
/// block holds fewer than `min_words` unread words into `sc.idxs`, and
/// compute those lanes' next blocks into `sc.blocks` in one
/// [`compute_blocks`] pass. `sc.idxs` preserves the order of `lanes`.
pub fn stage_refills(rngs: &[SimRng], lanes: &[usize], min_words: usize, sc: &mut KernelScratch) {
    sc.idxs.clear();
    sc.keys.clear();
    sc.counters.clear();
    for &i in lanes {
        if rngs[i].words_remaining() < min_words {
            sc.idxs.push(i);
            sc.keys.push(*rngs[i].block_key());
            sc.counters.push(rngs[i].block_counter());
        }
    }
    let n = sc.idxs.len();
    if sc.blocks.len() < n {
        sc.blocks.resize(n, [0u32; BLOCK_WORDS]);
    }
    compute_blocks(&sc.keys, &sc.counters, &mut sc.blocks[..n]);
}

/// Stage refills with the per-lane pending-block cache: like
/// [`stage_refills`], but a lane whose next block was already computed
/// by an earlier pass (and is still valid — same key, same counter) is
/// served from `sc.pending` instead of being recomputed, so every SIMD
/// block compute is eventually consumed exactly once. Used by kernels
/// with data-dependent draw counts, where a staged block may not be
/// installed on the step that computed it.
pub fn stage_refills_cached(
    rngs: &[SimRng],
    lanes: &[usize],
    min_words: usize,
    sc: &mut KernelScratch,
) {
    if let Some(&max) = lanes.iter().max() {
        if sc.pending.len() <= max {
            sc.pending.resize(max + 1, None);
        }
    }
    sc.idxs.clear();
    sc.keys.clear();
    sc.counters.clear();
    for &i in lanes {
        if rngs[i].words_remaining() < min_words {
            let counter = rngs[i].block_counter();
            let cached = matches!(
                &sc.pending[i],
                Some(p) if p.counter == counter && p.stream == rngs[i].stream_id()
            );
            if !cached {
                sc.idxs.push(i);
                sc.keys.push(*rngs[i].block_key());
                sc.counters.push(counter);
            }
        }
    }
    let n = sc.idxs.len();
    if sc.blocks.len() < n {
        sc.blocks.resize(n, [0u32; BLOCK_WORDS]);
    }
    compute_blocks(&sc.keys, &sc.counters, &mut sc.blocks[..n]);
    for (j, &i) in sc.idxs.iter().enumerate() {
        sc.pending[i] = Some(super::PendingBlock {
            stream: rngs[i].stream_id(),
            counter: sc.counters[j],
            block: sc.blocks[j],
        });
    }
}

/// Take lane `i`'s staged next block out of the cache, if it is still
/// valid for the lane's current stream position. Pair with
/// [`restore_pending`] when the lane ends up not consuming it.
#[inline]
pub fn take_pending(
    rng: &SimRng,
    i: usize,
    sc_pending: &mut [Option<super::PendingBlock>],
) -> Option<[u32; BLOCK_WORDS]> {
    match sc_pending.get_mut(i).and_then(|p| p.take()) {
        Some(p) if p.stream == rng.stream_id() && p.counter == rng.block_counter() => Some(p.block),
        _ => None,
    }
}

/// Put an unconsumed staged block back into the cache (it is still the
/// lane's next block — the lane simply did not drain this step).
#[inline]
pub fn restore_pending(
    rng: &SimRng,
    i: usize,
    block: [u32; BLOCK_WORDS],
    sc_pending: &mut [Option<super::PendingBlock>],
) {
    sc_pending[i] = Some(super::PendingBlock {
        stream: rng.stream_id(),
        counter: rng.block_counter(),
        block,
    });
}

/// Gather `per_lane` `u64` draws from each lane in `lanes` into
/// `sc.words`, lane-major (`sc.words[j * per_lane + d]` is draw `d` of
/// the `j`-th listed lane). Bit-identical to `per_lane` scalar
/// `next_u64()` calls on each lane's RNG; every block refill this
/// requires is computed in one vectorized pass up front, and lanes with
/// enough buffered words copy straight out of their block.
///
/// `per_lane` must be at most 8 (one block refill per lane per call).
pub fn gather_u64(rngs: &mut [SimRng], lanes: &[usize], per_lane: usize, sc: &mut KernelScratch) {
    assert!(
        per_lane * 2 <= BLOCK_WORDS,
        "gather_u64 supports at most {} draws per lane per call",
        BLOCK_WORDS / 2
    );
    stage_refills(rngs, lanes, per_lane * 2, sc);
    sc.words.clear();
    sc.words.resize(lanes.len() * per_lane, 0);
    let (words, idxs, blocks) = (&mut sc.words, &sc.idxs, &sc.blocks);
    let mut ri = 0;
    for (j, &i) in lanes.iter().enumerate() {
        let out = &mut words[j * per_lane..(j + 1) * per_lane];
        let rng = &mut rngs[i];
        if ri < idxs.len() && idxs[ri] == i {
            // This lane drains mid-gather: word-by-word with the staged
            // block installed the moment the buffer empties.
            ri += 1;
            let mut pending = Some(blocks[ri - 1]);
            for o in out {
                *o = draw_u64(rng, &mut pending);
            }
            debug_assert!(pending.is_none());
        } else {
            // Fast path: the current block covers the whole request
            // (stage_refills listed every lane it would not).
            if !rng.try_fill_u64(out) {
                debug_assert!(false, "stage_refills guarantees buffered words");
                let mut none = None;
                for o in out {
                    *o = draw_u64(rng, &mut none);
                }
            }
        }
    }
    debug_assert_eq!(ri, idxs.len());
}

/// Exact `v % n` for any 64-bit `v` and divisor `n ≥ 1`, by direct
/// computation (Lemire, Kaser & Kurz, "Faster Remainder by Direct
/// Computation", 2019): with `c = ⌈2¹²⁸ / n⌉`, `v mod n` is the top 64
/// bits of `((c · v) mod 2¹²⁸) · n`. The paper's condition `c·n − 2¹²⁸
/// ≤ 2⁶⁴` holds for every 64-bit `n` at this 128-bit precision, so the
/// result equals `%` on every input — a handful of multiplies instead of
/// a 64-bit divide. (`n = 1` wraps `c` to 0, which yields the correct 0.)
#[derive(Debug, Clone, Copy)]
struct FastRem {
    c: u128,
    n: u64,
}

impl FastRem {
    /// Precompute the reciprocal for divisor `n`.
    ///
    /// # Panics
    ///
    /// Panics when `n` is 0.
    fn new(n: u64) -> Self {
        assert!(n > 0, "FastRem divisor must be nonzero");
        Self {
            c: (u128::MAX / n as u128).wrapping_add(1),
            n,
        }
    }

    /// `v % n`, bit-exact.
    #[inline(always)]
    fn reduce(self, v: u64) -> u64 {
        let low = self.c.wrapping_mul(v as u128);
        let n = self.n as u128;
        // High 64 bits of the 192-bit product `low · n`, from two
        // 64×64 → 128 partial products (their sum cannot overflow).
        let lo = (low as u64 as u128) * n;
        let hi = (low >> 64) * n;
        ((hi + (lo >> 64)) >> 64) as u64
    }
}

/// Blocks per bulk keystream pass of [`fill_below`] — one 16-stream
/// [`compute_blocks`] pass of the same stream's consecutive counters.
const FILL_PASS_BLOCKS: usize = 16;

/// Fill `out` with uniform draws from `[0, n)`, exactly as `out.len()`
/// successive `rng.random_range(0..n)` calls would — same values, and
/// the stream left at the same position — on the process-wide active
/// backend.
pub(crate) fn fill_below(rng: &mut SimRng, n: u64, out: &mut [u64]) {
    fill_below_with(Backend::active(), rng, n, out)
}

/// [`fill_below`] on an explicit backend — the test harness uses this to
/// pin draw-identity on every backend.
///
/// `random_range(0..n)` draws `v = next_u64()` (low word first) until
/// `v` falls in the rejection zone, then returns `v % n`. Here the
/// stream's words are laid out flat — the unread tail of the current
/// block, then up to [`FILL_PASS_BLOCKS`] next blocks computed in one
/// pass — and every attempt reads the next word pair as a pure load.
/// Each attempt consumes exactly two words, so an odd tail word carries
/// into the next pass's layout and no pair is ever split. The words a
/// pass consumed are committed with `install_block` + `skip_words`.
///
/// # Panics
///
/// Panics when `n` is 0.
pub(crate) fn fill_below_with(backend: Backend, rng: &mut SimRng, n: u64, out: &mut [u64]) {
    assert!(n > 0, "cannot sample from an empty range");
    let zone = u64::MAX - (u64::MAX - n + 1) % n;
    let rem = FastRem::new(n);
    let keys = [*rng.block_key(); FILL_PASS_BLOCKS];
    let mut counters = [0u64; FILL_PASS_BLOCKS];
    // Slot 0 holds the current block; slots 1.. the pass's new blocks.
    let mut buf = [[0u32; BLOCK_WORDS]; FILL_PASS_BLOCKS + 1];
    let mut filled = 0;
    while filled < out.len() {
        let tail = rng.words_remaining();
        if tail > 0 {
            buf[0] = *rng.current_block();
        }
        // Enough new blocks for the draws still owed, absent rejections.
        let owed_words = 2 * (out.len() - filled);
        let k = owed_words
            .saturating_sub(tail)
            .div_ceil(BLOCK_WORDS)
            .min(FILL_PASS_BLOCKS);
        let base = rng.block_counter();
        for (j, c) in counters[..k].iter_mut().enumerate() {
            *c = base.wrapping_add(j as u64);
        }
        compute_blocks_with(backend, &keys[..k], &counters[..k], &mut buf[1..=k]);
        let words = &buf.as_flattened()[BLOCK_WORDS - tail..BLOCK_WORDS * (k + 1)];
        let mut used = 0;
        for pair in words.chunks_exact(2) {
            if filled == out.len() {
                break;
            }
            used += 2;
            let v = ((pair[1] as u64) << 32) | pair[0] as u64;
            if v <= zone {
                out[filled] = rem.reduce(v);
                filled += 1;
            }
        }
        // Commit: the current block's tail first, then every new block
        // up to the one holding the last consumed word.
        rng.skip_words(used.min(tail));
        let mut fresh = used.saturating_sub(tail);
        for block in &buf[1..] {
            if fresh == 0 {
                break;
            }
            rng.install_block(*block);
            let take = fresh.min(BLOCK_WORDS);
            rng.skip_words(take);
            fresh -= take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{rng_from_seed, split_rng};
    use rand::RngExt;

    #[test]
    fn compute_blocks_matches_scalar_on_every_backend() {
        let mut seeder = rng_from_seed(101);
        for n in [0usize, 1, 3, 4, 5, 8, 13, 32] {
            let streams: Vec<SimRng> = (0..n).map(|_| split_rng(&mut seeder)).collect();
            let keys: Vec<[u32; 8]> = streams.iter().map(|r| *r.block_key()).collect();
            let counters: Vec<u64> = streams.iter().map(|r| r.block_counter()).collect();
            let expect: Vec<[u32; 16]> = keys
                .iter()
                .zip(&counters)
                .map(|(k, &c)| chacha12_block(k, c))
                .collect();
            for backend in Backend::available() {
                let mut out = vec![[0u32; 16]; n];
                compute_blocks_with(backend, &keys, &counters, &mut out);
                assert_eq!(out, expect, "backend {backend}, n={n}");
            }
        }
    }

    #[test]
    fn gather_matches_scalar_draws_across_block_boundaries() {
        // Lanes at staggered positions, drawn repeatedly: gathered words
        // must equal per-lane scalar next_u64 sequences.
        let mut gathered: Vec<SimRng> = (0..7).map(|k| rng_from_seed(500 + k)).collect();
        let mut scalar = gathered.clone();
        // Stagger read positions.
        for (k, rng) in gathered.iter_mut().enumerate() {
            for _ in 0..k {
                let _ = rng.random::<u64>();
            }
        }
        for (k, rng) in scalar.iter_mut().enumerate() {
            for _ in 0..k {
                let _ = rng.random::<u64>();
            }
        }
        let lanes: Vec<usize> = (0..7).collect();
        let mut sc = KernelScratch::default();
        for per_lane in [1usize, 2, 3, 8] {
            for _ in 0..10 {
                gather_u64(&mut gathered, &lanes, per_lane, &mut sc);
                for (j, &i) in lanes.iter().enumerate() {
                    for d in 0..per_lane {
                        assert_eq!(
                            sc.words[j * per_lane + d],
                            scalar[i].random::<u64>(),
                            "lane {i} draw {d} (per_lane {per_lane})"
                        );
                    }
                }
            }
        }
        // Final positions agree too.
        for (a, b) in gathered.iter_mut().zip(scalar.iter_mut()) {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn fast_rem_equals_hardware_remainder() {
        let edges = [
            1u64,
            2,
            3,
            7,
            1000,
            (1 << 32) - 1,
            1 << 32,
            (1 << 32) + 1,
            (1 << 63) - 1,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        let values = [
            0u64,
            1,
            2,
            999,
            1 << 32,
            (1 << 63) + 5,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut rng = rng_from_seed(17);
        for &n in &edges {
            let fr = FastRem::new(n);
            for &v in &values {
                assert_eq!(fr.reduce(v), v % n, "{v} % {n}");
            }
            for v in [
                n - 1,
                n,
                n.wrapping_add(1),
                n.wrapping_mul(2).wrapping_sub(1),
            ] {
                assert_eq!(fr.reduce(v), v % n, "{v} % {n}");
            }
        }
        for _ in 0..20_000 {
            // Divisors of every magnitude: shift a random word down.
            let n = (rng.random::<u64>() >> rng.random_range(0u64..64)).max(1);
            let v = rng.random::<u64>();
            assert_eq!(FastRem::new(n).reduce(v), v % n, "{v} % {n}");
        }
    }

    #[test]
    fn fill_below_equals_scalar_random_range_draw_for_draw() {
        let bounds = [2u64, 3, 1000, (1 << 32) + 1, (1 << 63) + 1];
        let lens = [1usize, 7, 8, 9, 128, 129, 1000];
        let mut out = vec![0u64; 1000];
        for backend in Backend::available() {
            for offset in 0..=BLOCK_WORDS {
                // One block drained, the next one installed, and `offset`
                // of its words already read (offset 16 = fully drained).
                let mut start = rng_from_seed(4000 + offset as u64);
                for _ in 0..BLOCK_WORDS {
                    let _ = start.next_u32();
                }
                start.install_block(chacha12_block(start.block_key(), start.block_counter()));
                for _ in 0..offset {
                    let _ = start.next_u32();
                }
                for &n in &bounds {
                    for &len in &lens {
                        let mut bulk = start.clone();
                        let mut scalar = start.clone();
                        fill_below_with(backend, &mut bulk, n, &mut out[..len]);
                        for (k, &got) in out[..len].iter().enumerate() {
                            assert_eq!(
                                got,
                                scalar.random_range(0..n),
                                "{backend}: offset {offset}, n {n}, len {len}, draw {k}"
                            );
                        }
                        assert_eq!(
                            bulk.next_u32(),
                            scalar.next_u32(),
                            "{backend}: stream position after offset {offset}, n {n}, len {len}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn staged_draws_match_scalar_with_data_dependent_consumption() {
        // Variable draws per lane per round (the cpp pattern): staged
        // refills + draw_u64 equal scalar sequences.
        let mut staged: Vec<SimRng> = (0..5).map(|k| rng_from_seed(900 + k)).collect();
        let mut scalar = staged.clone();
        let lanes: Vec<usize> = (0..5).collect();
        let mut sc = KernelScratch::default();
        let mut pattern = rng_from_seed(1);
        for _ in 0..50 {
            stage_refills(&staged, &lanes, 8, &mut sc);
            let mut ri = 0;
            for &i in &lanes {
                let mut pending = if ri < sc.idxs.len() && sc.idxs[ri] == i {
                    ri += 1;
                    Some(sc.blocks[ri - 1])
                } else {
                    None
                };
                let n = pattern.random_range(0u64..6);
                for _ in 0..n {
                    assert_eq!(
                        draw_u64(&mut staged[i], &mut pending),
                        scalar[i].random::<u64>()
                    );
                }
            }
        }
    }
}
