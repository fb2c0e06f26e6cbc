//! The adaptive batch-width policy: `batch_width=auto`.
//!
//! The batched frontier is bit-identical at every width, so width is a
//! pure throughput knob — but the *right* width varies by kernel. A
//! SIMD-hot closed-form model (gbm, cpp) wants a wide cohort to keep the
//! vectorized draw pipeline full; a generic adapter-loop model gains
//! nothing past the cache-friendly sweet spot; a table-lookup model is
//! fastest narrow, where staging overhead stays off the profile. This
//! module turns that choice into policy:
//!
//! * [`AUTO_WIDTH`] is the sentinel a spec, a scheduler config, or a
//!   session config carries for "pick for me". Every execution layer
//!   resolves it **before** dispatch (see `proc::ModelRunner`'s
//!   `resolve_width`); the drivers themselves map a leaked sentinel to
//!   a safe static default ([`effective`]) so no code path can launch a
//!   `usize::MAX`-lane cohort.
//! * [`KernelClass`] is the model's self-declared cost shape
//!   (`SimulationModel::kernel_class`), and [`static_width`] maps it to
//!   a launch width without measuring anything.
//! * [`calibrate`] is the micro-probe: time a small burst per candidate
//!   width and keep the fastest. The caller memoizes the winner in the
//!   plan cache keyed by the query fingerprint, so only the first query
//!   of a family pays the probe. Probes run on throwaway RNG streams —
//!   never the query's own stream — so `batch_width=auto` remains
//!   bit-identical to the resolved explicit width.
//! * [`record_frontier`] / [`take_thread_stats`] / [`snapshot`] count
//!   speculation waste: the batched frontier launches roots ahead of
//!   the commit target, and lanes still in flight when the target lands
//!   are discarded. The sequential driver already narrows its final
//!   chunks near a budget boundary; these counters are how tests pin
//!   that the shrink eliminates the waste, and how `SHOW DIAGNOSTICS`
//!   reports the effective width a session actually ran at.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Sentinel width meaning "resolve adaptively" (`batch_width=auto` in
/// SQL). Carried by `ExecOptions::batch_width`, `SchedulerConfig`,
/// `EstimatorQuery`, and `SessionConfig`; resolved to a concrete width
/// before any frontier launches.
pub const AUTO_WIDTH: usize = usize::MAX;

/// The width the drivers substitute when an unresolved [`AUTO_WIDTH`]
/// reaches them: a safe middle pick that is near-optimal for adapter
/// kernels and acceptable everywhere.
pub const FALLBACK_WIDTH: usize = 64;

/// A model's self-declared cost shape, used to pick a launch width (and
/// probe candidates) without measuring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelClass {
    /// Per-step work is a table lookup or a couple of flops; staging a
    /// wide cohort costs more than it saves. Run narrow.
    Cheap,
    /// Steps run through the generic scalar `step_batch` adapter loop
    /// (or a native kernel with no vectorized pipeline): batching
    /// amortizes dispatch but nothing vectorizes. The middle widths win.
    Adapter,
    /// A native kernel backed by the vectorized draw pipeline
    /// (multi-stream ChaCha + chunked `vmath`): throughput keeps rising
    /// until the cohort fills the SIMD lanes several times over. Run
    /// wide, wider still on long horizons where cohorts stay full.
    SimdHot,
}

impl KernelClass {
    /// Candidate widths a micro-probe should time for this class,
    /// narrowest first. The static pick is always among them.
    pub fn probe_candidates(self) -> &'static [usize] {
        match self {
            KernelClass::Cheap => &[8, 16, 32],
            KernelClass::Adapter => &[16, 64, 128],
            KernelClass::SimdHot => &[64, 128, 256],
        }
    }
}

/// The measurement-free width pick for a kernel class at a horizon.
/// Long-horizon SIMD-hot models go widest: their cohorts stay full for
/// many steps, so staging amortizes completely.
pub fn static_width(class: KernelClass, horizon: u64) -> usize {
    match class {
        KernelClass::Cheap => 16,
        KernelClass::Adapter => 64,
        KernelClass::SimdHot => {
            if horizon >= 256 {
                256
            } else {
                128
            }
        }
    }
}

/// Map a possibly-sentinel width to one the drivers can launch. Every
/// dispatch point (scheduler slices, helper blocks, the sequential driver) runs
/// its configured width through this, so an [`AUTO_WIDTH`] that escaped
/// resolution degrades to [`FALLBACK_WIDTH`] instead of an allocation
/// of `usize::MAX` lanes.
#[inline]
pub fn effective(width: usize) -> usize {
    if width == AUTO_WIDTH {
        FALLBACK_WIDTH
    } else {
        width
    }
}

/// A probed width must be this much faster than the pick so far to
/// replace it. Widths whose kernels run equally fast time a few percent
/// apart from run to run; without a margin the memoized pick (and with
/// it `EXPLAIN` and the width a run reports) would follow that noise.
const PROBE_MARGIN: f64 = 0.10;

/// Interleaved timing rounds per candidate. Interference only ever slows
/// a timing down, so a candidate's fastest round is its cost.
const PROBE_ROUNDS: usize = 3;

/// Time `bench(width)` for every candidate and return the fastest width.
/// `bench` must do a fixed amount of *work* per call (the same roots
/// at every width) on throwaway state — a probe must never consume
/// draws from a query's committed stream, or `auto` would stop being
/// bit-identical to the resolved width.
///
/// One warm-up call runs first (the first timing otherwise charges lazy
/// scratch growth to the narrowest width), then [`PROBE_ROUNDS`] rounds
/// over the candidates, narrow-to-wide. Near-ties break narrow: a
/// candidate wins only by beating the pick so far by [`PROBE_MARGIN`].
pub fn calibrate(candidates: &[usize], mut bench: impl FnMut(usize)) -> usize {
    debug_assert!(!candidates.is_empty());
    bench(candidates[0]); // warm scratch/caches off the clock
    let mut fastest = vec![Duration::MAX; candidates.len()];
    for _ in 0..PROBE_ROUNDS {
        for (f, &w) in fastest.iter_mut().zip(candidates) {
            let t0 = Instant::now();
            bench(w);
            *f = (*f).min(t0.elapsed());
        }
    }
    let mut best = 0;
    for i in 1..candidates.len() {
        if fastest[i] < fastest[best].mul_f64(1.0 - PROBE_MARGIN) {
            best = i;
        }
    }
    candidates[best]
}

/// One frontier chunk's speculation ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Frontier chunks recorded.
    pub chunks: u64,
    /// Roots the frontier launched (committed + speculative).
    pub launched: u64,
    /// Roots whose outcomes were committed to the shard.
    pub committed: u64,
    /// Sum over chunks of the launch width (for the effective-width
    /// average: `width_sum / chunks`).
    pub width_sum: u64,
}

impl SpecStats {
    /// Roots launched but never committed — work thrown away when the
    /// chunk's step target landed mid-flight.
    pub fn discarded(&self) -> u64 {
        self.launched - self.committed
    }
}

// Process-wide totals, fed by every frontier chunk on every thread —
// the source for the session diagnostics block.
static G_CHUNKS: AtomicU64 = AtomicU64::new(0);
static G_LAUNCHED: AtomicU64 = AtomicU64::new(0);
static G_COMMITTED: AtomicU64 = AtomicU64::new(0);
static G_WIDTH_SUM: AtomicU64 = AtomicU64::new(0);
// Memoized micro-probes re-run because a plan's observed steps/root
// drifted >2x from the regime the probe was measured in.
static G_REPROBED: AtomicU64 = AtomicU64::new(0);

/// Count one regime-drift re-probe (surfaced as `reprobed` in the
/// `width_policy` diagnostics ledger).
pub fn record_reprobe() {
    G_REPROBED.fetch_add(1, Ordering::Relaxed);
}

/// Process-wide re-probe count since process start.
pub fn reprobe_count() -> u64 {
    G_REPROBED.load(Ordering::Relaxed)
}

thread_local! {
    static T_STATS: std::cell::Cell<SpecStats> = const { std::cell::Cell::new(SpecStats {
        chunks: 0,
        launched: 0,
        committed: 0,
        width_sum: 0,
    }) };
}

/// Record one batched-frontier chunk: it ran at `width`, launched
/// `launched` roots, committed `committed` of them. Called by
/// `run_frontier` on exit; cost is four relaxed atomic adds plus a
/// thread-local update.
pub fn record_frontier(width: usize, launched: u64, committed: u64) {
    G_CHUNKS.fetch_add(1, Ordering::Relaxed);
    G_LAUNCHED.fetch_add(launched, Ordering::Relaxed);
    G_COMMITTED.fetch_add(committed, Ordering::Relaxed);
    G_WIDTH_SUM.fetch_add(width as u64, Ordering::Relaxed);
    T_STATS.with(|cell| {
        let mut s = cell.get();
        s.chunks += 1;
        s.launched += launched;
        s.committed += committed;
        s.width_sum += width as u64;
        cell.set(s);
    });
}

/// Drain the calling thread's accumulated frontier stats. The
/// sequential driver runs on the caller's thread, so a test can bracket
/// a run with `take_thread_stats` and assert on exactly that run's
/// speculation (the global totals aggregate every thread and test in
/// the process).
pub fn take_thread_stats() -> SpecStats {
    T_STATS.with(|cell| cell.replace(SpecStats::default()))
}

/// Process-wide frontier totals since process start (monotone; shared
/// by all sessions in the process, like the backend counters).
pub fn snapshot() -> SpecStats {
    SpecStats {
        chunks: G_CHUNKS.load(Ordering::Relaxed),
        launched: G_LAUNCHED.load(Ordering::Relaxed),
        committed: G_COMMITTED.load(Ordering::Relaxed),
        width_sum: G_WIDTH_SUM.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_maps_only_the_sentinel() {
        assert_eq!(effective(AUTO_WIDTH), FALLBACK_WIDTH);
        assert_eq!(effective(0), 0);
        assert_eq!(effective(1), 1);
        assert_eq!(effective(256), 256);
    }

    #[test]
    fn static_widths_are_probe_candidates() {
        for class in [
            KernelClass::Cheap,
            KernelClass::Adapter,
            KernelClass::SimdHot,
        ] {
            for horizon in [1, 255, 256, 100_000] {
                let w = static_width(class, horizon);
                assert!(
                    class.probe_candidates().contains(&w),
                    "{class:?} static pick {w} must be probeable"
                );
            }
        }
    }

    #[test]
    fn calibrate_returns_a_candidate_and_prefers_faster() {
        // A bench whose cost is deterministic in the width: wider is
        // slower. The probe must land on the narrowest candidate.
        let picked = calibrate(&[8, 64, 256], |w| {
            std::thread::sleep(std::time::Duration::from_micros(w as u64 * 50));
        });
        assert_eq!(picked, 8);
    }

    #[test]
    fn thread_stats_drain_and_global_accumulates() {
        let _ = take_thread_stats();
        let before = snapshot();
        record_frontier(32, 100, 90);
        record_frontier(16, 10, 10);
        let t = take_thread_stats();
        assert_eq!(t.chunks, 2);
        assert_eq!(t.launched, 110);
        assert_eq!(t.committed, 100);
        assert_eq!(t.discarded(), 10);
        assert_eq!(t.width_sum, 48);
        assert_eq!(take_thread_stats(), SpecStats::default());
        let after = snapshot();
        assert!(after.launched >= before.launched + 110);
        assert!(after.chunks >= before.chunks + 2);
    }
}
