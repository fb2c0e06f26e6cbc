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
//! Two mechanisms keep the per-lane cost of a step near the kernel's:
//!
//! * **watch values** — each lane carries the value at or above which
//!   its current segment can end ([`RootKernel::watch`]: the next
//!   boundary for the MLSS samplers, 1.0 for SRS and IS). The step loop
//!   computes the lane's value once and consults the kernel only at or
//!   above the watch, so a step that changes nothing costs one compare.
//!   The filter is exact: no kernel acts below its watch.
//! * **the commit ring** — finished roots wait for their in-order commit
//!   in a ring indexed by `root − next_commit` whose slots, outcome
//!   buffers included, are reused, so once it has grown committing
//!   allocates nothing. A long root at the head only grows the ring (to
//!   the roots that finish behind it); it never reorders a commit.
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
use std::collections::VecDeque;

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
///
/// Watch contract: [`RootKernel::watch`] names the value at or above
/// which the current segment can end. For every value `v` with
/// `!(v >= watch)` (NaN included), `on_step` must return
/// [`SegmentStatus::Running`] and leave the scratch untouched, so the
/// engine skips the call. The watch may change only when a segment
/// begins ([`RootKernel::begin_root`], [`RootKernel::next_segment`]).
pub(crate) trait RootKernel<M, V>
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
{
    /// Per-root scratch (splitting stack, weight accumulators, …).
    type Scratch;
    /// Everything one finished root contributes to the shard. Slots of
    /// the commit ring are reused across roots, so an outcome's buffers
    /// are allocated once per slot, not once per root.
    type Outcome: Default;
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

    /// The value at or above which the current segment needs
    /// [`RootKernel::on_step`] (see the watch contract above).
    fn watch(&self, scratch: &Self::Scratch) -> f64;

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
    /// state at time `t`, `v` its value); record estimator bookkeeping
    /// in `scratch`. The engine calls it only when `v >= watch`.
    fn on_step(
        &self,
        scratch: &mut Self::Scratch,
        state: &M::State,
        v: f64,
        t: Time,
    ) -> SegmentStatus;

    /// The root's next pending segment, or `None` when the root is done.
    fn next_segment(&self, scratch: &mut Self::Scratch) -> Option<(M::State, Time)>;

    /// Package the finished root into `out` (a recycled ring slot);
    /// `steps` is its total `g` invocations.
    fn finish_root(&self, scratch: &mut Self::Scratch, steps: u64, out: &mut Self::Outcome);

    /// Fold a committed root into the shard. Called strictly in root
    /// index order; must add the root's steps to the shard's step count.
    fn commit(&self, shard: &mut Self::Shard, outcome: &Self::Outcome);
}

/// Finished roots awaiting their in-order commit: slot `j` holds root
/// `next_commit + j`. Committing the head rotates its slot to the back,
/// so the ring grows only to the widest commit window a chunk sees (the
/// roots that finish while an earlier root still runs) and its outcome
/// buffers are reused from then on.
struct CommitRing<O> {
    /// `(outcome, steps)`; `steps` is `None` while the root is in flight.
    slots: VecDeque<(O, Option<u64>)>,
}

impl<O: Default> CommitRing<O> {
    fn new() -> Self {
        Self {
            slots: VecDeque::new(),
        }
    }

    /// The slot of the root `offset` places after the commit head.
    fn slot(&mut self, offset: usize) -> &mut (O, Option<u64>) {
        while self.slots.len() <= offset {
            self.slots.push_back((O::default(), None));
        }
        &mut self.slots[offset]
    }

    /// The head root's outcome and steps, if it has finished.
    fn head(&self) -> Option<(&O, u64)> {
        let (out, steps) = self.slots.front()?;
        Some((out, (*steps)?))
    }

    /// Retire the head slot: the next root becomes the head.
    fn advance(&mut self) {
        let mut slot = self
            .slots
            .pop_front()
            .expect("advance past a committed head");
        slot.1 = None;
        self.slots.push_back(slot);
    }
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
    let mut watch: Vec<f64> = Vec::with_capacity(width);
    let mut rngs: Vec<SimRng> = Vec::with_capacity(width);
    let mut scratches: Vec<K::Scratch> = Vec::with_capacity(width);
    let mut root_of: Vec<u64> = Vec::with_capacity(width);
    let mut steps_of: Vec<u64> = Vec::with_capacity(width);
    let mut alive: Vec<usize> = Vec::with_capacity(width);
    let mut free: Vec<usize> = Vec::new();

    let first = roots.next;
    let mut next_root = first; // next root index to launch
    let mut next_commit = first; // next root index to fold into the shard
    let mut ring: CommitRing<K::Outcome> = CommitRing::new();
    // Steps taken by alive lanes plus retired-but-uncommitted roots;
    // bounds speculation in the launch gate below.
    let mut inflight_steps: u64 = 0;
    // The observed cost per committed root, as of the last launch.
    let mut per_root = horizon;

    'outer: loop {
        // ---- launch: keep lanes busy while projected work is below target
        // A root launches only while the committed steps, the steps the
        // uncommitted roots took and their reserve stay below target, so
        // the last cohort of a step-bounded chunk runs no root the budget
        // cannot pay for (none at all for single-segment roots). The
        // reserve is each alive root's projected remaining cost: at least
        // the rest of its current segment, and at least its shortfall
        // from the cost per root the previous launch saw.
        if (!free.is_empty() || lanes.len() < width) && next_root < roots.end {
            let reserved = alive.iter().fold(0u64, |sum, &i| {
                let rest = per_root.saturating_sub(steps_of[i]).max(horizon - ts[i]);
                sum.saturating_add(rest)
            });
            per_root = steps_per_root(shard.steps(), shard.n_roots(), horizon);
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
                        watch.push(0.0);
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
                watch[slot] = kernel.watch(&scratches[slot]);
                root_of[slot] = next_root;
                steps_of[slot] = 0;
                next_root += 1;
                alive.push(slot);
            }
        }

        // ---- step the cohort ------------------------------------------
        if !alive.is_empty() {
            for &i in &alive {
                ts[i] += 1; // target time of the state being produced
            }
            kernel.step_lanes(problem, &mut lanes, &ts, &mut rngs, &alive, &mut scratches);
            inflight_steps += alive.len() as u64;
            let mut k = 0;
            while k < alive.len() {
                let i = alive[k];
                steps_of[i] += 1;
                // One compare per lane-step: below its watch a segment
                // keeps running, so the kernel is not consulted.
                let v = problem.value(&lanes[i]);
                let done = v >= watch[i]
                    && kernel.on_step(&mut scratches[i], &lanes[i], v, ts[i])
                        == SegmentStatus::SegmentDone;
                if done || ts[i] >= horizon {
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
                        let slot = ring.slot((root_of[i] - next_commit) as usize);
                        kernel.finish_root(&mut scratches[i], steps_of[i], &mut slot.0);
                        slot.1 = Some(steps_of[i]);
                        free.push(i);
                        alive.swap_remove(k);
                        continue;
                    }
                    watch[i] = kernel.watch(&scratches[i]);
                }
                k += 1;
            }
        }

        // ---- commit in root order -------------------------------------
        while let Some((out, steps)) = ring.head() {
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
            ring.advance();
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

    /// A process parked at a fixed value: `begin_root` places a root at
    /// the level its start value names, and `on_step` is fed values
    /// directly, so no step is ever simulated.
    struct Parked(f64);

    impl SimulationModel for Parked {
        type State = f64;

        fn initial_state(&self) -> f64 {
            self.0
        }

        fn step(&self, s: &f64, _t: Time, _rng: &mut SimRng) -> f64 {
            *s
        }
    }

    impl crate::is::TiltableModel for Parked {
        fn step_tilted(&self, s: &f64, _t: Time, _theta: f64, _rng: &mut SimRng) -> (f64, f64) {
            (*s, 0.0)
        }
    }

    /// `f(x) = x`, unclamped, so the probe values reach `on_step` as is.
    struct Identity;

    impl ValueFunction<f64> for Identity {
        fn value(&self, s: &f64) -> f64 {
            *s
        }
    }

    /// Feed each value to a fresh root's `on_step` and check the watch
    /// contract: below the watch the segment keeps running and the
    /// scratch is left as it was (same outcome, same pending segments as
    /// a root that saw no value). With `tight`, every value at or above
    /// the watch must end the segment. Returns the root's watch.
    fn check_watch<K>(kernel: &K, start: f64, values: &[f64], tight: bool, what: &str) -> f64
    where
        K: RootKernel<Parked, Identity>,
        K::Outcome: PartialEq + std::fmt::Debug,
    {
        let model = Parked(start);
        let problem = Problem::new(&model, &Identity, 10);
        let settle = |scratch: &mut K::Scratch| {
            let mut pending = 0;
            while kernel.next_segment(scratch).is_some() {
                pending += 1;
            }
            let mut out = K::Outcome::default();
            kernel.finish_root(scratch, 1, &mut out);
            (pending, out)
        };
        let mut untouched = kernel.new_scratch();
        let (state, _) = kernel.begin_root(&problem, &mut untouched);
        let watch = kernel.watch(&untouched);
        let reference = settle(&mut untouched);
        for &v in values {
            let mut scratch = kernel.new_scratch();
            kernel.begin_root(&problem, &mut scratch);
            let status = kernel.on_step(&mut scratch, &state, v, 1);
            if v >= watch {
                if tight {
                    assert_eq!(
                        status,
                        SegmentStatus::SegmentDone,
                        "{what}: v = {v} ≥ watch {watch}"
                    );
                }
            } else {
                assert_eq!(
                    status,
                    SegmentStatus::Running,
                    "{what}: v = {v} < watch {watch}"
                );
                assert_eq!(
                    settle(&mut scratch),
                    reference,
                    "{what}: v = {v} touched the scratch"
                );
            }
        }
        watch
    }

    #[test]
    fn no_kernel_acts_below_its_watch() {
        let plans = [
            ("trivial", PartitionPlan::trivial()),
            ("uniform", PartitionPlan::uniform(4)),
            ("geometric", PartitionPlan::geometric(5, 0.5)),
            (
                "near-1",
                PartitionPlan::new(vec![0.5, 1.0f64.next_down()]).unwrap(),
            ),
        ];
        for (name, plan) in &plans {
            let m = plan.num_levels();
            let mut values = vec![f64::NAN, f64::NEG_INFINITY, 1.0, 1.5, f64::INFINITY];
            for i in 0..=m {
                let b = plan.boundary(i);
                values.extend([b, b.next_up(), b.next_down()]);
            }
            for level in 0..m {
                let start = plan.boundary(level);
                let gmlss = crate::gmlss::GMlssKernel {
                    plan,
                    ratio: 2,
                    track_ledger: true,
                };
                let what = format!("gmlss/{name} from level {level}");
                let watch = check_watch(&gmlss, start, &values, true, &what);
                assert_eq!(watch, plan.boundary(level + 1), "{what}");
                let smlss = crate::smlss::SMlssKernel { plan, ratio: 2 };
                let what = format!("smlss/{name} from level {level}");
                let watch = check_watch(&smlss, start, &values, false, &what);
                assert_eq!(watch, plan.boundary(level + 1), "{what}");
            }
            let srs = crate::srs::SrsKernel;
            assert_eq!(check_watch(&srs, 0.0, &values, true, "srs"), 1.0);
            let is = crate::is::IsKernel { theta: 0.3 };
            assert_eq!(check_watch(&is, 0.0, &values, true, "is"), 1.0);
        }
    }

    /// A kernel with scripted root lifetimes: the first root it begins
    /// lives `long` steps, every later one 1–9 steps. Roots begin in
    /// index order at every width, so root `first + n` is the `n`-th
    /// `begin_root`. Each outcome records the root's index, steps and
    /// last value, so the shard's commit log shows order and streams.
    struct Scripted {
        long: Time,
        begun: std::cell::Cell<u64>,
        /// Roots finished before the long root finished.
        overtaken: std::cell::Cell<Option<u64>>,
        finished: std::cell::Cell<u64>,
    }

    #[derive(Default)]
    struct Life {
        root: u64,
        life: Time,
        last: f64,
    }

    /// A committed root: `(index, steps, last value bits)`.
    type Commit = (u64, u64, u64);

    #[derive(Default)]
    struct LogShard {
        log: Vec<Commit>,
        steps: u64,
    }

    impl Ledger for LogShard {
        fn merge(&mut self, other: Self) {
            self.log.extend(other.log);
            self.steps += other.steps;
        }

        fn n_roots(&self) -> u64 {
            self.log.len() as u64
        }

        fn steps(&self) -> u64 {
            self.steps
        }
    }

    impl RootKernel<JumpyWalk, Vf> for Scripted {
        type Scratch = Life;
        type Outcome = Commit;
        type Shard = LogShard;

        fn new_scratch(&self) -> Life {
            Life::default()
        }

        fn begin_root(
            &self,
            _problem: &Problem<'_, JumpyWalk, Vf>,
            life: &mut Life,
        ) -> (f64, Time) {
            let n = self.begun.get();
            self.begun.set(n + 1);
            life.root = n;
            life.life = if n == 0 { self.long } else { 1 + n * 7919 % 9 };
            (0.0, 0)
        }

        fn watch(&self, _life: &Life) -> f64 {
            f64::NEG_INFINITY
        }

        fn on_step(&self, life: &mut Life, _state: &f64, v: f64, t: Time) -> SegmentStatus {
            life.last = v;
            if t >= life.life {
                SegmentStatus::SegmentDone
            } else {
                SegmentStatus::Running
            }
        }

        fn next_segment(&self, _life: &mut Life) -> Option<(f64, Time)> {
            None
        }

        fn finish_root(&self, life: &mut Life, steps: u64, out: &mut Commit) {
            if life.root == 0 {
                self.overtaken.set(Some(self.finished.get()));
            }
            self.finished.set(self.finished.get() + 1);
            *out = (life.root, steps, life.last.to_bits());
        }

        fn commit(&self, shard: &mut LogShard, out: &Commit) {
            shard.log.push(*out);
            shard.steps += out.1;
        }
    }

    #[test]
    fn the_commit_ring_absorbs_head_of_line_blocking() {
        // Root 0 runs 4,000 steps while later roots finish in 1–9; they
        // wait in the ring until root 0 commits. In the root-bounded
        // chunk all 1,999 later roots overtake root 0 at every width
        // above 1; in the step-bounded one the launch gate's reserve for
        // root 0 holds speculation back while it runs, and the budget
        // ends the chunk after it commits. Both must commit the same log
        // and leave the same cursor at every width.
        let model = JumpyWalk;
        let v = vf();
        let problem = Problem::new(&model, &v, 5_000);
        for (budget, end) in [(u64::MAX, 2_000), (6_000, u64::MAX)] {
            let mut reference: Option<(Vec<Commit>, RootCursor)> = None;
            for width in [1usize, 7, 64, 256] {
                let kernel = Scripted {
                    long: 4_000,
                    begun: Default::default(),
                    overtaken: Default::default(),
                    finished: Default::default(),
                };
                let mut roots = RootCursor::new(9);
                roots.end = end;
                let mut shard = LogShard::default();
                run_frontier(&kernel, &problem, &mut shard, budget, &mut roots, width);
                assert!(shard.log.iter().enumerate().all(|(k, r)| r.0 == k as u64));
                if width > 1 && budget == u64::MAX {
                    let overtaken = kernel.overtaken.get().expect("root 0 finished");
                    assert!(
                        overtaken >= 3 * width as u64,
                        "width {width}: only {overtaken} roots overtook root 0"
                    );
                }
                match &reference {
                    None => reference = Some((shard.log, roots)),
                    Some((log, cursor)) => {
                        assert_eq!(*log, shard.log, "budget {budget}, width {width}");
                        assert_eq!(*cursor, roots, "budget {budget}, width {width}");
                    }
                }
            }
        }
    }
}
