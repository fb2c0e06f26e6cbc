//! The batched simulation frontier — one engine behind every estimator's
//! chunk loop.
//!
//! All four samplers used to advance one root path at a time: a scalar
//! `step`, a state clone, an atomic bump. This module replaces those
//! inner loops with a **frontier of in-flight root paths** stepped as one
//! cohort per [`crate::model::SimulationModel::step_batch`] call, which
//! amortizes dispatch and bookkeeping and lets models run native batch
//! kernels (contiguous `f64` lanes for the closed-form models, a batched
//! matrix forward pass for the RNN). The estimator-specific logic — what
//! a root *is*, when it splits, what it commits — plugs in through the
//! [`RootKernel`] trait.
//!
//! ## Bit-identity across widths
//!
//! The engine's defining invariant: **the committed shard is a pure
//! function of the run key, the root cursor and the budget, independent
//! of the frontier width.** Width changes wall-clock, never results.
//! Three mechanisms deliver that:
//!
//! * **index-addressed root streams** — root `k` draws every random
//!   number of its whole splitting tree from stream `k` of the run key
//!   ([`crate::rng::RootCursor`]), so a root's outcome does not depend
//!   on which other roots run concurrently, or on which chunk, slice,
//!   worker or driver launches it.
//! * **in-order commits** — roots retire out of order at width > 1, but
//!   outcomes are buffered and folded into the shard strictly in root
//!   index order, so shard contents (including per-root ledgers and
//!   hit-moment sequences) match the width-1 execution bit for bit.
//! * **the scalar commit rule with speculation discard** — root `k`
//!   commits iff the steps committed before it are below the chunk
//!   target (and `k` is below the cursor's `end`), exactly the classic
//!   "stop at the first completion at or beyond the budget" rule. Lanes
//!   launched speculatively past that point are discarded; the cursor
//!   advances past the committed roots only, so nothing needs undoing.
//!
//! This is the workspace's only randomness discipline: every estimator,
//! driver and session runs its chunks here, width 1 included, so a
//! statement's answer never depends on the width it ran at.
//!
//! The engine itself is width-policy only: the per-step SIMD work —
//! multi-stream ChaCha refills, vectorized `exp`/`ln`/normal transforms
//! — lives in the models' native `step_batch`/`step_tilted_batch`
//! kernels on [`crate::simd`], which see the whole alive cohort through
//! one call and stay bit-identical to scalar stepping (so everything
//! this module guarantees about widths holds on every SIMD backend,
//! including the forced-scalar one).
//!
//! See `docs/kernel.md` for the full contract.

use crate::estimator::{ChunkOutcome, Ledger};
use crate::model::{SimulationModel, Time};
use crate::quality::steps_per_root;
use crate::query::{Problem, ValueFunction};
use crate::rng::{RootCursor, SimRng};
use std::collections::BTreeMap;

/// Verdict of [`RootKernel::on_step`] for the lane's current segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SegmentStatus {
    /// The segment keeps stepping.
    Running,
    /// The segment ended (crossing, hit, or estimator-specific stop);
    /// the engine pulls the root's next segment or retires the root.
    SegmentDone,
}

/// Estimator-specific root-path program run by the frontier engine.
///
/// A *root* is one independent sample (with its whole splitting tree, for
/// the MLSS samplers); a *segment* is one contiguous simulated stretch of
/// it (a path between split points). The engine owns lane scheduling,
/// step accounting, commit ordering, and the budget rule; the kernel owns
/// everything the estimator defines: segment transitions, split
/// bookkeeping, and how a finished root folds into the shard.
///
/// Equivalence contract: driving a kernel through the engine must be
/// bit-identical to the estimator's scalar reference loop run root by
/// root, root `k` on stream `k` of the run key — same draws, same shard.
pub(crate) trait RootKernel<M, V>
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
{
    /// Per-root scratch (splitting stack, weight accumulators, …).
    type Scratch;
    /// Everything one finished root contributes to the shard.
    type Outcome;
    /// The estimator's shard type.
    type Shard: Ledger;

    /// A fresh scratch (reused across roots via [`RootKernel::begin_root`]).
    fn new_scratch(&self) -> Self::Scratch;

    /// Reset `scratch` for a new root and return its first segment
    /// `(base state, base time)`. The first step will target `t + 1`.
    fn begin_root(
        &self,
        problem: &Problem<'_, M, V>,
        scratch: &mut Self::Scratch,
    ) -> (M::State, Time);

    /// Advance every alive lane one step. The default delegates to the
    /// model's (possibly native) batch kernel; estimators with their own
    /// stepping rule (importance sampling's tilted proposal) override.
    fn step_lanes(
        &self,
        problem: &Problem<'_, M, V>,
        lanes: &mut [M::State],
        ts: &[Time],
        rngs: &mut [SimRng],
        alive: &[usize],
        scratches: &mut [Self::Scratch],
    ) {
        let _ = scratches;
        problem.model.step_batch(lanes, ts, rngs, alive);
    }

    /// Inspect a lane after one step (`state` is the freshly produced
    /// state at time `t`); record estimator bookkeeping in `scratch`.
    fn on_step(
        &self,
        problem: &Problem<'_, M, V>,
        scratch: &mut Self::Scratch,
        state: &M::State,
        t: Time,
    ) -> SegmentStatus;

    /// The root's next pending segment, or `None` when the root is done.
    fn next_segment(&self, scratch: &mut Self::Scratch) -> Option<(M::State, Time)>;

    /// Package the finished root; `steps` is its total `g` invocations.
    fn finish_root(&self, scratch: &mut Self::Scratch, steps: u64) -> Self::Outcome;

    /// Fold a committed root into the shard. Called strictly in root
    /// index order; must add the root's steps to the shard's step count.
    fn commit(&self, shard: &mut Self::Shard, outcome: Self::Outcome);
}

/// Run the kernel until at least `budget` additional `g` invocations have
/// been *committed* into `shard` (the chunk contract: stop at the first
/// root completing at or beyond the budget) or the cursor reaches its
/// `end`, advancing up to `width` roots (clamped to ≥ 1) per step call.
/// Roots launch from `roots.next`; on return it indexes the first
/// uncommitted root.
pub(crate) fn run_frontier<M, V, K>(
    kernel: &K,
    problem: &Problem<'_, M, V>,
    shard: &mut K::Shard,
    budget: u64,
    roots: &mut RootCursor,
    width: usize,
) -> ChunkOutcome
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
    K: RootKernel<M, V>,
{
    let target = shard.steps().saturating_add(budget);
    let mut chunk = ChunkOutcome::default();
    if shard.steps() >= target || roots.next >= roots.end {
        return chunk;
    }
    let width = width.max(1);
    let horizon = problem.horizon;

    // Lane-parallel storage (allocated up to `width` slots, recycled).
    let mut lanes: Vec<M::State> = Vec::with_capacity(width);
    let mut ts: Vec<Time> = Vec::with_capacity(width);
    let mut rngs: Vec<SimRng> = Vec::with_capacity(width);
    let mut scratches: Vec<K::Scratch> = Vec::with_capacity(width);
    let mut root_of: Vec<u64> = Vec::with_capacity(width);
    let mut steps_of: Vec<u64> = Vec::with_capacity(width);
    let mut alive: Vec<usize> = Vec::with_capacity(width);
    let mut free: Vec<usize> = Vec::new();

    let first = roots.next;
    let mut next_root = first; // next root index to launch
    let mut next_commit = first; // next root index to fold into the shard
    let mut pending: BTreeMap<u64, (K::Outcome, u64)> = BTreeMap::new();
    // Steps taken by alive lanes plus retired-but-uncommitted roots;
    // bounds speculation in the launch gate below.
    let mut inflight_steps: u64 = 0;
    // The alive roots' projected remaining cost, summed by the step loop:
    // each root at least the rest of its current segment, and at least
    // its shortfall from the observed cost per committed root.
    let mut reserved: u64 = 0;
    let mut per_root = horizon;

    'outer: loop {
        // ---- launch: keep lanes busy while projected work is below target
        // A root launches only while the committed steps, the steps the
        // uncommitted roots took and their reserve stay below target, so
        // the last cohort of a step-bounded chunk runs no root the budget
        // cannot pay for (none at all for single-segment roots).
        if !free.is_empty() || lanes.len() < width {
            per_root = steps_per_root(shard.steps(), shard.n_roots(), horizon);
        }
        let mut projected = (shard.steps() + inflight_steps).saturating_add(reserved);
        while (!free.is_empty() || lanes.len() < width)
            && projected < target
            && next_root < roots.end
        {
            let slot = match free.pop() {
                Some(s) => s,
                None => {
                    let s = lanes.len();
                    scratches.push(kernel.new_scratch());
                    // Placeholder values; overwritten below.
                    lanes.push(problem.model.initial_state());
                    ts.push(0);
                    rngs.push(roots.stream(next_root));
                    root_of.push(0);
                    steps_of.push(0);
                    s
                }
            };
            rngs[slot] = roots.stream(next_root);
            let (state, t0) = kernel.begin_root(problem, &mut scratches[slot]);
            debug_assert!(t0 < horizon, "roots must have at least one step");
            projected = projected.saturating_add(per_root.max(horizon - t0));
            lanes[slot] = state;
            ts[slot] = t0;
            root_of[slot] = next_root;
            steps_of[slot] = 0;
            next_root += 1;
            alive.push(slot);
        }

        // ---- step the cohort ------------------------------------------
        reserved = 0;
        if !alive.is_empty() {
            for &i in &alive {
                ts[i] += 1; // target time of the state being produced
            }
            kernel.step_lanes(problem, &mut lanes, &ts, &mut rngs, &alive, &mut scratches);
            let mut k = 0;
            while k < alive.len() {
                let i = alive[k];
                steps_of[i] += 1;
                inflight_steps += 1;
                let status = kernel.on_step(problem, &mut scratches[i], &lanes[i], ts[i]);
                if status == SegmentStatus::SegmentDone || ts[i] >= horizon {
                    // Install the next runnable segment (segments born at
                    // or past the horizon run zero steps — skip them).
                    let mut retired = true;
                    while let Some((s, t)) = kernel.next_segment(&mut scratches[i]) {
                        if t < horizon {
                            lanes[i] = s;
                            ts[i] = t;
                            retired = false;
                            break;
                        }
                    }
                    if retired {
                        let out = kernel.finish_root(&mut scratches[i], steps_of[i]);
                        pending.insert(root_of[i], (out, steps_of[i]));
                        free.push(i);
                        alive.swap_remove(k);
                        continue;
                    }
                }
                let rest = per_root.saturating_sub(steps_of[i]).max(horizon - ts[i]);
                reserved = reserved.saturating_add(rest);
                k += 1;
            }
        }

        // ---- commit in root order -------------------------------------
        while let Some((out, steps)) = pending.remove(&next_commit) {
            if shard.steps() >= target {
                // The scalar rule would never have launched this root —
                // discard it (and, transitively, everything after it).
                break 'outer;
            }
            inflight_steps -= steps;
            let before = shard.steps();
            kernel.commit(shard, out);
            chunk.steps += shard.steps() - before;
            chunk.roots += 1;
            next_commit += 1;
        }
        if shard.steps() >= target || next_commit == roots.end {
            break;
        }
    }

    // ---- speculation ledger ---------------------------------------------
    // Roots launched past the last committed one are discarded work —
    // the cost of running a frontier wider than the chunk's remaining
    // commit target. The launch gate above keeps it at zero for
    // single-segment roots; the counters let tests and SHOW DIAGNOSTICS
    // see it.
    crate::width::record_frontier(width, next_root - first, next_commit - first);
    roots.next = next_commit;
    chunk
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::Estimator;
    use crate::gmlss::GMlssConfig;
    use crate::levels::PartitionPlan;
    use crate::quality::RunControl;
    use crate::query::RatioValue;
    use crate::srs::SrsEstimator;
    use rand::RngExt;

    struct JumpyWalk;

    impl SimulationModel for JumpyWalk {
        type State = f64;

        fn initial_state(&self) -> f64 {
            0.0
        }

        fn step(&self, s: &f64, _t: Time, rng: &mut SimRng) -> f64 {
            let mut v = s + if rng.random::<f64>() < 0.5 {
                0.05
            } else {
                -0.05
            };
            if rng.random::<f64>() < 0.02 {
                v += 0.5;
            }
            v.clamp(0.0, 1.0)
        }
    }

    type Vf = RatioValue<fn(&f64) -> f64>;

    fn vf() -> Vf {
        fn score(s: &f64) -> f64 {
            *s
        }
        RatioValue::new(score as fn(&f64) -> f64, 1.0)
    }

    #[test]
    fn widths_are_bit_identical_and_advance_the_cursor_alike() {
        let model = JumpyWalk;
        let v = vf();
        let problem = Problem::new(&model, &v, 60);
        let mut reference: Option<(u64, u64, u64, u64)> = None;
        for width in [1usize, 3, 17, 64] {
            let mut roots = RootCursor::new(42);
            let mut shard = <SrsEstimator as Estimator<JumpyWalk, Vf>>::shard(&SrsEstimator);
            SrsEstimator.run_chunk(problem, &mut shard, 40_000, &mut roots, width);
            assert_eq!(roots.next, shard.n, "one cursor step per committed root");
            let sig = (shard.n, shard.hits, shard.steps, roots.next);
            match &reference {
                None => reference = Some(sig),
                Some(r) => assert_eq!(*r, sig, "width {width} diverged"),
            }
        }
    }

    #[test]
    fn batched_chunk_boundaries_are_invisible() {
        // Two wide chunks must equal one big wide chunk — shard and
        // cursor both — at a width that forces speculation discard at
        // each boundary.
        let model = JumpyWalk;
        let v = vf();
        let problem = Problem::new(&model, &v, 60);
        let plan = PartitionPlan::new(vec![0.4, 0.7]).unwrap();
        let cfg = GMlssConfig::new(plan, RunControl::budget(1));

        let mut roots_a = RootCursor::new(7);
        let mut one = crate::estimator::shard_for(&cfg, &problem);
        cfg.run_chunk(problem, &mut one, 50_000, &mut roots_a, 32);

        let mut roots_b = RootCursor::new(7);
        let mut two = crate::estimator::shard_for(&cfg, &problem);
        cfg.run_chunk(problem, &mut two, 20_000, &mut roots_b, 32);
        let already = two.steps();
        cfg.run_chunk(problem, &mut two, 50_000 - already, &mut roots_b, 32);

        assert_eq!(one.steps(), two.steps());
        assert_eq!(one.n_roots(), two.n_roots());
        assert_eq!(one.hits, two.hits);
        assert_eq!(one.tau().to_bits(), two.tau().to_bits());
        assert_eq!(roots_a, roots_b);
    }

    #[test]
    fn a_bounded_cursor_commits_exactly_its_block() {
        // Root blocks — what a pool helper claims — merged in index
        // order equal one unbounded chunk over the same roots.
        let model = JumpyWalk;
        let v = vf();
        let problem = Problem::new(&model, &v, 60);
        let mut whole = <SrsEstimator as Estimator<JumpyWalk, Vf>>::shard(&SrsEstimator);
        let mut roots = RootCursor::new(5);
        roots.end = 300;
        SrsEstimator.run_chunk(problem, &mut whole, u64::MAX, &mut roots, 16);
        assert_eq!((whole.n, roots.next), (300, 300));

        let mut merged = <SrsEstimator as Estimator<JumpyWalk, Vf>>::shard(&SrsEstimator);
        for start in (0..300).step_by(70) {
            let mut block = <SrsEstimator as Estimator<JumpyWalk, Vf>>::shard(&SrsEstimator);
            let mut cursor = RootCursor {
                key: 5,
                next: start,
                end: (start + 70).min(300),
            };
            SrsEstimator.run_chunk(problem, &mut block, u64::MAX, &mut cursor, 8);
            merged.merge(block);
        }
        assert_eq!(
            (merged.n, merged.hits, merged.steps),
            (whole.n, whole.hits, whole.steps)
        );
    }

    #[test]
    fn overshoot_stays_one_root_at_any_width() {
        // The commit rule is the scalar stopping rule at every width:
        // never more than one root past the budget.
        let model = JumpyWalk;
        let v = vf();
        let problem = Problem::new(&model, &v, 50);
        for width in [1usize, 64] {
            let mut shard = <SrsEstimator as Estimator<JumpyWalk, Vf>>::shard(&SrsEstimator);
            SrsEstimator.run_chunk(problem, &mut shard, 10_000, &mut RootCursor::new(3), width);
            assert!(shard.steps >= 10_000);
            assert!(shard.steps < 10_000 + 50, "width {width}: {}", shard.steps);
        }
    }
}
