//! The vectorized draw pipeline: wide lanes, multi-stream ChaCha blocks,
//! and bit-exact vector math.
//!
//! The closed-form simulation models (`cpp`, `gbm`, `walk`) are RNG- and
//! transcendental-bound: after the batched SoA frontier (PR 3) their
//! native kernels ran at ~1x the scalar adapter's steps/s because every
//! lane still paid a scalar ChaCha block and scalar `exp`/`ln`/`cos` per
//! step. This module is the ROADMAP follow-up: a pipeline that computes
//! **K lanes' next ChaCha blocks in one vectorized pass** and evaluates
//! the transcendental transforms **4–8 lanes at a time**, while preserving
//! the workspace's defining invariant — *per-lane draw-identity*. Every
//! lane keeps its own independent stream and its own bit-exact values;
//! vectorization changes wall-clock, never results.
//!
//! ## Why bit-identity holds across backends
//!
//! Two mechanisms, one per half of the pipeline:
//!
//! * **ChaCha is exact integer arithmetic.** The block function is
//!   wrapping `u32` adds, xors, and rotates — operations with one defined
//!   result on every ISA. The multi-stream generator in [`chacha`] holds
//!   word `w` of K independent streams in one vector register and runs
//!   the identical double-round schedule, so lane `k`'s output block *is*
//!   `chacha12_block(key_k, counter_k)`, bit for bit (pinned by
//!   `stream_equivalence` tests against N scalar streams).
//! * **One polynomial, one operation order, per lane.** The [`vmath`]
//!   transcendentals are written once as branch-free elementwise lane
//!   code ([`wide::F64Lanes`]) and instantiated per backend
//!   (`#[target_feature]`). Every operation is an IEEE-754
//!   correctly-rounded scalar op applied lane-wise (add/mul/div/sqrt,
//!   integer bit manipulation, compare-and-select), and none of them
//!   change result by vector width — so the scalar fallback and the
//!   SIMD instantiations agree on every bit, including NaN propagation
//!   and edge clamps. No FMA is used anywhere (fused rounding differs
//!   from mul-then-add, and not all backends have it).
//!
//! ## Backend selection
//!
//! [`Backend::active`] picks the widest available backend at first use:
//! AVX-512 (16-wide `u32` / 8-wide `f64`) when the CPU supports it, AVX2
//! (8-wide `u32` / 4-wide `f64`), SSE2 (4-wide `u32`) on any `x86_64`,
//! and the portable scalar path everywhere else. The `MLSS_SIMD`
//! environment variable overrides the choice (`scalar`, `sse2`, `avx2`,
//! `avx512`, or `auto`); forcing a backend the CPU lacks falls back to
//! the widest supported one — so an `MLSS_SIMD=avx512` CI leg degrades
//! gracefully on a runner without the ISA. CI runs the whole test suite
//! under `MLSS_SIMD=scalar` *and* the auto backend — because results are
//! bit-identical, the flag is purely a throughput knob (and a debugging
//! aid).

pub mod chacha;
pub mod vmath;
pub mod wide;

use std::sync::OnceLock;

/// Cohorts below this size are not worth routing through the vectorized
/// pipeline — the staging/dispatch overhead outweighs the SIMD win, most
/// acutely at width 1 (the default when a statement sets no width).
/// Native kernels fall back to their scalar per-lane loop under this
/// threshold; results are bit-identical either way, so the cutoff is a
/// pure throughput choice.
pub const MIN_SIMD_COHORT: usize = 8;

/// True when the vectorized *draw* pipeline should engage for a cohort
/// of this size: wide enough to amortize staging, and a real SIMD
/// backend active. On the pure-scalar backend the staged multi-stream
/// machinery is overhead with nothing to amortize it, so RNG-bound
/// kernels (walk, cpp) take their scalar loop instead; kernels whose
/// win comes from the chunked `vmath` transforms (gbm) engage on cohort
/// size alone. Either way the results are bit-identical — this is a
/// pure throughput gate.
pub fn pipeline_engaged(cohort: usize) -> bool {
    cohort >= MIN_SIMD_COHORT && Backend::active() > Backend::Scalar
}

/// A vector instruction set the draw pipeline can run on.
///
/// Ordered narrow-to-wide; see the module docs for what each backend
/// vectorizes. All backends are bit-identical — selection is a pure
/// throughput choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Backend {
    /// Portable elementwise code, no `std::arch` — the fallback on every
    /// architecture and the reference the others are tested against.
    Scalar,
    /// `x86_64` SSE2: 4-wide `u32` ChaCha blocks (`__m128i`).
    Sse2,
    /// `x86_64` AVX2: 8-wide `u32` ChaCha blocks (`__m256i`) and 256-bit
    /// `f64` vector math.
    Avx2,
    /// `x86_64` AVX-512F: 16-wide `u32` ChaCha blocks (`__m512i`, 16
    /// independent streams per pass) and 512-bit `f64` vector math.
    Avx512,
}

impl Backend {
    /// The widest backend this CPU supports.
    pub fn detect() -> Backend {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Backend::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Backend::Avx2;
            }
            // SSE2 is part of the x86_64 baseline.
            Backend::Sse2
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Backend::Scalar
        }
    }

    /// The process-wide active backend: `min(detected, MLSS_SIMD)`,
    /// resolved once. `MLSS_SIMD=scalar|sse2|avx2|avx512` caps the
    /// backend; `auto` (or unset, or unparseable) uses the detected one.
    pub fn active() -> Backend {
        static ACTIVE: OnceLock<Backend> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            let detected = Backend::detect();
            match std::env::var("MLSS_SIMD").ok().as_deref() {
                Some("scalar") => Backend::Scalar,
                Some("sse2") => detected.min(Backend::Sse2),
                Some("avx2") => detected.min(Backend::Avx2),
                Some("avx512") => detected.min(Backend::Avx512),
                _ => detected,
            }
        })
    }

    /// Every backend this CPU can run, narrowest first — the test
    /// harness iterates this to pin cross-backend bit-equality.
    pub fn available() -> Vec<Backend> {
        let mut v = vec![Backend::Scalar];
        for candidate in [Backend::Sse2, Backend::Avx2, Backend::Avx512] {
            if Backend::detect() >= candidate {
                v.push(candidate);
            }
        }
        v
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        })
    }
}

/// Reusable per-thread scratch for native batch kernels: draw buffers and
/// staging for the vectorized pipeline, so `step_batch` calls allocate
/// nothing in steady state.
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// Gathered `u64` draws, lane-major.
    pub words: Vec<u64>,
    /// General `f64` staging (kernel-defined meaning).
    pub f1: Vec<f64>,
    /// Second `f64` staging buffer.
    pub f2: Vec<f64>,
    /// Precomputed ChaCha blocks for refilling lanes.
    pub blocks: Vec<[u32; 16]>,
    /// Lane-index staging (which lanes need a refill, etc.).
    pub idxs: Vec<usize>,
    /// Gathered stream keys for [`chacha::compute_blocks`].
    pub keys: Vec<[u32; 8]>,
    /// Gathered stream counters for [`chacha::compute_blocks`].
    pub counters: Vec<u64>,
    /// Per-lane staged-next-block cache (see
    /// [`chacha::stage_refills_cached`]): a block computed ahead of need
    /// stays here, validated by (key, counter), until the lane installs
    /// it — so no SIMD block compute is ever wasted.
    pub pending: Vec<Option<PendingBlock>>,
    /// Per-cohort-position `u64` counters (kernel-defined meaning — the
    /// cpp kernel keeps its per-lane Poisson counts here).
    pub counts: Vec<u64>,
    /// Per-lane *persistent* draw views (see [`chacha::sync_views`]):
    /// row `i` is lane `i`'s current block followed by its staged next
    /// block, read as pure loads. Rows survive across steps — a step
    /// revalidates each row against its tags instead of rebuilding it,
    /// and a lane that crossed a block boundary rebases its row (64 B)
    /// rather than recopying every lane every step. Fixed-size rows let
    /// the draw loop elide bounds checks.
    pub views: Vec<[u32; chacha::VIEW_STRIDE]>,
    /// Per-lane view validity tag: the `stream_id()` of the RNG the row
    /// was built for (`u64::MAX` = never built).
    pub view_stream: Vec<u64>,
    /// Per-lane view validity tag: the counter of the block in the
    /// row's first half. Together with `view_stream` this pins the row
    /// to an exact stream position — equal identities imply equal keys,
    /// so matching tags mean the row bytes are the lane's keystream.
    pub view_ctr0: Vec<u64>,
    /// Per-lane flag: the row's second half holds the staged next block
    /// (`view_ctr0 + 1`). Cleared on rebase, refilled by the next
    /// [`chacha::sync_views`] pass in one SIMD block compute.
    pub view_staged: Vec<bool>,
    /// Per-lane view cursors: words consumed from the lane's view,
    /// committed to the stream once per step
    /// ([`chacha::commit_view`]).
    pub cursors: Vec<u32>,
}

/// One staged ChaCha block, tagged with the stream position it is the
/// next block *of* (so a recycled lane slot can never install a stale
/// block). The tag is the stream's process-unique identity rather than
/// its 32-byte key — equal identities imply equal keys (the shim never
/// mutates a key after construction), and the one-word compare keeps
/// the per-lane cache-validity scan cheap.
#[derive(Debug, Clone, Copy)]
pub struct PendingBlock {
    /// The stream's identity (`stream_id()`) at staging time.
    pub stream: u64,
    /// The counter this block was computed for.
    pub counter: u64,
    /// The computed keystream block.
    pub block: [u32; 16],
}

/// Run `f` with the calling thread's [`KernelScratch`].
///
/// Kernels must not nest `with_scratch` calls; if one ever does (e.g. a
/// wrapper model whose batch kernel drives another native kernel), the
/// inner call transparently falls back to a fresh scratch.
pub fn with_scratch<R>(f: impl FnOnce(&mut KernelScratch) -> R) -> R {
    use std::cell::RefCell;
    thread_local! {
        static SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::default());
    }
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut KernelScratch::default()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_engaged_iff_simd_backend_and_full_cohort() {
        // Guards against a silent scalar fallback: on any SIMD backend
        // every cohort of at least MIN_SIMD_COHORT lanes must engage.
        let simd = Backend::active() > Backend::Scalar;
        for n in 0..=4 * MIN_SIMD_COHORT {
            assert_eq!(
                pipeline_engaged(n),
                simd && n >= MIN_SIMD_COHORT,
                "cohort {n} on backend {}",
                Backend::active()
            );
        }
    }

    #[test]
    fn detect_is_stable_and_available_contains_scalar() {
        assert_eq!(Backend::detect(), Backend::detect());
        let av = Backend::available();
        assert_eq!(av[0], Backend::Scalar);
        assert!(av.contains(&Backend::detect()));
        // Narrowest-first ordering.
        let mut sorted = av.clone();
        sorted.sort();
        assert_eq!(av, sorted);
    }

    #[test]
    fn scratch_nesting_does_not_panic() {
        let out = with_scratch(|outer| {
            outer.words.push(1);
            with_scratch(|inner| {
                inner.words.push(2);
                inner.words.len()
            })
        });
        assert_eq!(out, 1, "inner call sees a fresh scratch");
    }
}
