//! The batch-width policy: which launch width a query runs at when it
//! does not name one.
//!
//! The batched frontier is bit-identical at every width, so width is a
//! pure throughput knob — but the *right* width depends on the kernel.
//! A model on the vectorized draw pipeline (walk, gbm, small-λ cpp)
//! needs a full cohort to keep the SIMD lanes busy; every other kernel
//! steps lane by lane, where a wide cohort only adds staging and
//! speculation. This module turns that choice into one fixed policy:
//!
//! * [`KernelClass`] is the model's self-declared cost shape
//!   (`SimulationModel::kernel_class`), and [`KernelClass::width`] maps
//!   it to a launch width without measuring anything: 64 lanes for
//!   [`KernelClass::SimdHot`], 1 for [`KernelClass::Scalar`]. The table
//!   and the timings behind it are in `docs/kernel.md`.
//! * [`AUTO_WIDTH`] is the sentinel a spec, a scheduler config, or a
//!   session config carries for "the model's default". Every execution
//!   layer resolves it **before** dispatch (see `proc::ModelRunner`'s
//!   `resolve_width`); the drivers themselves map a leaked sentinel to
//!   a safe static width ([`effective`]) so no code path can launch a
//!   `usize::MAX`-lane cohort.
//! * [`record_frontier`] / [`take_thread_stats`] / [`snapshot`] count
//!   speculation waste: the batched frontier launches roots ahead of
//!   the commit target, and lanes still in flight when the target lands
//!   are discarded. The sequential driver already narrows its final
//!   chunks near a budget boundary; these counters are how tests pin
//!   that the shrink eliminates the waste, and how `SHOW DIAGNOSTICS`
//!   reports the effective width a session actually ran at.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sentinel width meaning "the model's default" (`batch_width=auto` in
/// SQL, and the session default). Carried by `ExecOptions::batch_width`,
/// `SchedulerConfig`, `EstimatorQuery`, and `SessionConfig`; resolved to
/// a concrete width before any frontier launches.
pub const AUTO_WIDTH: usize = usize::MAX;

/// The width the drivers substitute when an unresolved [`AUTO_WIDTH`]
/// reaches them: the SIMD launch width, which is acceptable everywhere.
pub const FALLBACK_WIDTH: usize = 64;

/// A model's self-declared cost shape, which fixes its default launch
/// width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelClass {
    /// Steps run lane by lane — the generic scalar `step_batch` adapter
    /// loop, a table lookup, or a native kernel with no vectorized
    /// pipeline. Nothing vectorizes, so one lane at a time is fastest:
    /// no cohort staging, no speculative roots.
    Scalar,
    /// A native kernel backed by the vectorized draw pipeline
    /// (multi-stream ChaCha + chunked `vmath`): a full cohort keeps the
    /// SIMD lanes busy.
    SimdHot,
}

impl KernelClass {
    /// The launch width a query of this class runs at unless it names
    /// one. Wider SIMD cohorts measured slower, not faster: they add
    /// speculation at every chunk end and fall out of cache.
    pub fn width(self) -> usize {
        match self {
            KernelClass::Scalar => 1,
            KernelClass::SimdHot => 64,
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
