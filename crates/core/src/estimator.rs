//! The unified sampler abstraction — one execution spine for SRS, s-MLSS,
//! g-MLSS, and IS.
//!
//! The paper presents its four samplers as interchangeable answers to the
//! same durability prediction query `Q(q, s)`; this module makes that
//! interchangeability a compile-time fact. An [`Estimator`] advances a
//! mergeable [`Ledger`] shard in budgeted chunks of `g` invocations and
//! can turn any shard into an [`Estimate`] at any time. Everything above
//! this trait — the sequential driver [`run_sequential`] (which the
//! `*Sampler::run` conveniences call), the scheduler and its fanned-out
//! runs, the `mlss-bench` experiment runners, and `mlss-db`'s `ESTIMATE`
//! statements — is generic
//! over it, so a new sampling strategy plugs into every layer by
//! implementing one trait.
//!
//! Implementations provided by this crate:
//!
//! | estimator | config type | shard |
//! |---|---|---|
//! | SRS (§2.2) | [`crate::srs::SrsEstimator`] | [`crate::srs::SrsShard`] |
//! | s-MLSS (§3) | [`crate::smlss::SMlssConfig`] | [`crate::smlss::SMlssShard`] |
//! | g-MLSS (§4) | [`crate::gmlss::GMlssConfig`] | [`crate::gmlss::GmlssShard`] |
//! | IS (§2.2) | [`crate::is::IsEstimator`] | [`crate::is::IsShard`] |
//!
//! Chunk contract: `run_chunk(problem, shard, budget, roots, width)`
//! simulates complete root paths (never truncating one mid-flight) until
//! at least `budget` additional `g` invocations have been spent, exactly
//! mirroring the paper's "stop at the first completion at or beyond the
//! budget" semantics. This keeps every estimator unbiased under chunking:
//! a chunk boundary is indistinguishable from a run boundary. Root `k`
//! draws from stream `k` of the run key (see [`crate::frontier`]), so the
//! committed shard is bit-identical at every `width`; width changes
//! throughput, never answers.
//!
//! Run contract: a run is keyed once ([`RunCursor`]), commits roots in
//! index order, and evaluates its stopping rule at the chunk ends of
//! [`RunControl::next_chunk`], quality check `i` on check stream `i`.
//! Its committed prefix, checks and answer are therefore pure functions
//! of `(key, problem, control)`: the sequential driver, the scheduler's
//! slices and its fanned-out runs all produce the same bits, paused or
//! not.

use crate::estimate::Estimate;
use crate::model::SimulationModel;
use crate::quality::RunControl;
use crate::query::{Problem, ValueFunction};
use crate::rng::{RootCursor, SimRng, StreamFactory};
use rand::RngExt;
use std::time::{Duration, Instant};

/// What one [`Estimator::run_chunk`] call accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkOutcome {
    /// `g` invocations spent in this chunk.
    pub steps: u64,
    /// Root paths completed in this chunk.
    pub roots: u64,
}

/// Mergeable sufficient statistics of a (partial) run.
///
/// A `Ledger` is everything an estimator needs to produce an estimate:
/// workers accumulate independent shards and reductions combine them with
/// [`Ledger::merge`], which must be exact (merging shards of two runs is
/// statistically identical to one run having done all the work).
pub trait Ledger: Send {
    /// Absorb another shard's roots.
    fn merge(&mut self, other: Self);

    /// Number of independent root paths accumulated.
    fn n_roots(&self) -> u64;

    /// Total `g` invocations accumulated.
    fn steps(&self) -> u64;
}

/// Estimator-specific run diagnostics (the paper's per-method health
/// indicators: skip counts for g-MLSS, effective sample size for IS, …).
#[derive(Debug, Clone)]
pub struct Diagnostics {
    /// Name of the estimator that produced the shard.
    pub estimator: &'static str,
    /// Level-skip events observed (0 for samplers without levels).
    pub skip_events: u64,
    /// Free-form named indicator values.
    pub details: Vec<(String, f64)>,
}

impl Diagnostics {
    /// Diagnostics with no indicators.
    pub fn none(estimator: &'static str) -> Self {
        Self {
            estimator,
            skip_events: 0,
            details: Vec::new(),
        }
    }
}

/// A durability-query sampling strategy, runnable in budgeted chunks.
///
/// The trait is deliberately not sealed: downstream crates can add
/// estimators (say, a quasi-Monte-Carlo or stratified sampler) and every
/// driver in this workspace — sequential, scheduler, bench harness, SQL
/// statement — accepts them unchanged.
pub trait Estimator<M, V>: Sync
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
{
    /// The shard type this estimator accumulates.
    type Shard: Ledger;

    /// Short stable name (used in diagnostics and reports).
    fn name(&self) -> &'static str;

    /// A fresh, empty shard.
    fn shard(&self) -> Self::Shard;

    /// Simulate complete root paths into `shard` until at least `budget`
    /// additional `g` invocations have been spent (or `roots.end` is
    /// reached), advancing a frontier of up to `width` root paths per
    /// `g` call over the model's batch kernel (`step_batch`). Root `k`
    /// runs on stream `k` of the cursor's key and the cursor advances
    /// past the committed roots, so the committed shard and the cursor
    /// are bit-identical at every width (see `docs/kernel.md`).
    fn run_chunk(
        &self,
        problem: Problem<'_, M, V>,
        shard: &mut Self::Shard,
        budget: u64,
        roots: &mut RootCursor,
        width: usize,
    ) -> ChunkOutcome;

    /// The estimate implied by `shard`. `rng` powers resampling-based
    /// variance estimation (bootstrap); closed-form estimators ignore it.
    fn estimate(&self, shard: &Self::Shard, rng: &mut SimRng) -> Estimate;

    /// The estimate used for *in-flight stopping checks*. Estimators with
    /// expensive variance evaluations may amortize here (g-MLSS honors
    /// its `bootstrap_every` cadence by caching the variance in the
    /// shard); the default is the full [`Estimator::estimate`]. The final
    /// reported estimate always comes from `estimate`.
    fn check_estimate(&self, shard: &mut Self::Shard, rng: &mut SimRng) -> Estimate {
        self.estimate(shard, rng)
    }

    /// Estimator-specific health indicators for `shard`.
    fn diagnostics(&self, shard: &Self::Shard) -> Diagnostics {
        let _ = shard;
        Diagnostics::none(self.name())
    }
}

/// A fresh shard for the estimator driving `problem`.
///
/// Equivalent to [`Estimator::shard`]; the `problem` argument exists to
/// pin the `M`/`V` type parameters when calling trait methods directly.
pub fn shard_for<M, V, E>(estimator: &E, _problem: &Problem<'_, M, V>) -> E::Shard
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
    E: Estimator<M, V>,
{
    estimator.shard()
}

/// The estimate implied by `shard` under `estimator`.
///
/// Equivalent to [`Estimator::estimate`]; the `problem` argument pins the
/// `M`/`V` type parameters when calling trait methods directly.
pub fn estimate_for<M, V, E>(
    estimator: &E,
    _problem: &Problem<'_, M, V>,
    shard: &E::Shard,
    rng: &mut SimRng,
) -> Estimate
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
    E: Estimator<M, V>,
{
    estimator.estimate(shard, rng)
}

/// A run's position in its trajectory: the root cursor plus the cadence
/// cursor. Together with the shard it is everything a paused run needs
/// to continue bit-identically — on any driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunCursor {
    /// The run key and the next root to commit.
    pub roots: RootCursor,
    /// Quality checks evaluated so far (check `i` draws from
    /// [`RootCursor::check_stream`]`(i)`).
    pub checks: u64,
    /// The committed step count at which the open chunk ends and the
    /// stopping rule is next evaluated (`None` between chunks).
    pub chunk_end: Option<u64>,
}

impl RunCursor {
    /// A fresh run under `key`.
    pub fn new(key: u64) -> Self {
        Self {
            roots: RootCursor::new(key),
            checks: 0,
            chunk_end: None,
        }
    }

    /// A fresh run keyed by one draw from `rng`.
    pub fn from_rng(rng: &mut SimRng) -> Self {
        Self::new(rng.random::<u64>())
    }

    /// The run a pinned `seed` names: keyed by the first draw of
    /// `StreamFactory::new(seed).stream(0)`, exactly what handing that
    /// stream to [`run_sequential`] keys.
    pub fn from_seed(seed: u64) -> Self {
        Self::from_rng(&mut StreamFactory::new(seed).stream(0))
    }

    /// The step count the open chunk ends at, opening the next chunk
    /// from the committed prefix ([`RunControl::next_chunk`]) when none
    /// is open. `None` once the control's step bound is spent.
    pub fn open_chunk<L: Ledger>(
        &mut self,
        control: &RunControl,
        shard: &L,
        horizon: u64,
    ) -> Option<u64> {
        if self.chunk_end.is_none() {
            let budget = control.next_chunk(shard.steps(), shard.n_roots(), horizon)?;
            self.chunk_end = Some(shard.steps().saturating_add(budget));
        }
        self.chunk_end
    }

    /// Close the open chunk — its roots are committed — and evaluate the
    /// stopping rule on check stream `checks`. Returns whether the
    /// quality target holds (always `false` in budget mode, which ends
    /// when [`RunCursor::open_chunk`] finds the budget spent).
    pub fn close_chunk<M, V, E>(
        &mut self,
        estimator: &E,
        control: &RunControl,
        shard: &mut E::Shard,
    ) -> bool
    where
        M: SimulationModel,
        V: ValueFunction<M::State>,
        E: Estimator<M, V>,
    {
        self.chunk_end = None;
        let RunControl::Target { target, .. } = control else {
            return false;
        };
        let mut rng = self.roots.check_stream(self.checks);
        self.checks += 1;
        target.satisfied(&estimator.check_estimate(shard, &mut rng))
    }

    /// The closing estimate of `shard`, on the run's closing stream: the
    /// same bits whenever and wherever it is evaluated.
    pub fn estimate<M, V, E>(&self, estimator: &E, shard: &E::Shard) -> Estimate
    where
        M: SimulationModel,
        V: ValueFunction<M::State>,
        E: Estimator<M, V>,
    {
        estimator.estimate(shard, &mut self.roots.closing_stream())
    }
}

/// Result of a trait-level run (sequential or fanned out).
#[derive(Debug, Clone)]
pub struct EstimatorRun<L> {
    /// Final estimate.
    pub estimate: Estimate,
    /// The accumulated shard (for diagnostics or further merging).
    pub shard: L,
    /// Where the run stopped: `(shard, cursor)` is the exact state a
    /// longer run of the same key continues from, which is what makes a
    /// stored shard warm-startable bit-exactly (see
    /// `mlss_core::shard_store`).
    pub cursor: RunCursor,
    /// Wall-clock time spent simulating.
    pub sim_elapsed: Duration,
    /// Wall-clock time spent in estimate/variance evaluations.
    pub estimate_elapsed: Duration,
}

/// Run any estimator sequentially until `control` is satisfied, one
/// root at a time (width 1), keyed by one draw from `rng`.
pub fn run_sequential<M, V, E>(
    estimator: &E,
    problem: Problem<'_, M, V>,
    control: RunControl,
    rng: &mut SimRng,
) -> EstimatorRun<E::Shard>
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
    E: Estimator<M, V>,
{
    let run = RunCursor::from_rng(rng);
    run_sequential_from(estimator, problem, control, run, estimator.shard(), 1)
}

/// [`run_sequential`] at frontier width `width`, so the model's native
/// batch kernel carries the hot loop. Results are bit-identical across
/// widths; width only changes throughput.
pub fn run_sequential_batched<M, V, E>(
    estimator: &E,
    problem: Problem<'_, M, V>,
    control: RunControl,
    rng: &mut SimRng,
    width: usize,
) -> EstimatorRun<E::Shard>
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
    E: Estimator<M, V>,
{
    let run = RunCursor::from_rng(rng);
    run_sequential_from(estimator, problem, control, run, estimator.shard(), width)
}

/// Continue a run from a checkpoint `(shard, run)` until `control` is
/// satisfied over the *combined* state — a shard checkpointed at 10k
/// steps resumed under a 50k budget runs 40k more. The run continues at
/// the cursor's next root and chunk, so a paused-and-resumed run is
/// bit-identical to an uninterrupted one, at any `width` and whichever
/// driver produced the checkpoint. This is the primitive behind the
/// scheduler's pause/checkpoint/resume support and shard-store warm
/// starts.
pub fn run_sequential_from<M, V, E>(
    estimator: &E,
    problem: Problem<'_, M, V>,
    control: RunControl,
    run: RunCursor,
    shard: E::Shard,
    width: usize,
) -> EstimatorRun<E::Shard>
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
    E: Estimator<M, V>,
{
    // Defense in depth: an unresolved `batch_width=auto` sentinel runs
    // at the static fallback width instead of a usize::MAX cohort.
    let width = crate::width::effective(width);
    drive(
        estimator,
        problem,
        control,
        run,
        shard,
        |shard, roots, end| {
            estimator.run_chunk(problem, shard, end - shard.steps(), roots, width);
        },
    )
}

/// The run loop every whole-run driver shares: open a chunk, `commit`
/// its roots (until the shard's steps reach the chunk end), close it
/// with a quality check; finish with the closing estimate. Drivers
/// differ only in how `commit` spreads the roots over threads (see
/// [`crate::scheduler::Scheduler::run`]).
pub(crate) fn drive<M, V, E>(
    estimator: &E,
    problem: Problem<'_, M, V>,
    control: RunControl,
    mut run: RunCursor,
    mut shard: E::Shard,
    mut commit: impl FnMut(&mut E::Shard, &mut RootCursor, u64),
) -> EstimatorRun<E::Shard>
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
    E: Estimator<M, V>,
{
    let start = Instant::now();
    let mut estimate_elapsed = Duration::ZERO;
    while let Some(end) = run.open_chunk(&control, &shard, problem.horizon) {
        commit(&mut shard, &mut run.roots, end);
        let t0 = Instant::now();
        let done = run.close_chunk(estimator, &control, &mut shard);
        estimate_elapsed += t0.elapsed();
        if done {
            break;
        }
    }
    let t0 = Instant::now();
    let estimate = run.estimate(estimator, &shard);
    estimate_elapsed += t0.elapsed();
    EstimatorRun {
        estimate,
        shard,
        cursor: run,
        sim_elapsed: start.elapsed().saturating_sub(estimate_elapsed),
        estimate_elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmlss::GMlssConfig;
    use crate::levels::PartitionPlan;
    use crate::model::Time;
    use crate::quality::QualityTarget;
    use crate::query::RatioValue;
    use crate::rng::rng_from_seed;
    use crate::smlss::SMlssConfig;
    use crate::srs::SrsEstimator;
    use rand::RngExt;

    pub(crate) struct ClampWalk {
        pub up: f64,
    }

    impl SimulationModel for ClampWalk {
        type State = f64;

        fn initial_state(&self) -> f64 {
            0.0
        }

        fn step(&self, s: &f64, _t: Time, rng: &mut SimRng) -> f64 {
            (s + if rng.random::<f64>() < self.up {
                0.05
            } else {
                -0.05
            })
            .clamp(0.0, 1.0)
        }
    }

    fn vf() -> RatioValue<fn(&f64) -> f64> {
        fn score(s: &f64) -> f64 {
            *s
        }
        RatioValue::new(score as fn(&f64) -> f64, 1.0)
    }

    #[test]
    fn budget_semantics_match_the_samplers() {
        let model = ClampWalk { up: 0.48 };
        let v = vf();
        let problem = Problem::new(&model, &v, 100);
        let run = run_sequential(
            &SrsEstimator,
            problem,
            RunControl::budget(50_000),
            &mut rng_from_seed(1),
        );
        assert!(run.estimate.steps >= 50_000);
        assert!(run.estimate.steps < 50_000 + 100, "one-root overshoot only");
        assert_eq!(run.shard.n_roots(), run.estimate.n_roots);
    }

    #[test]
    fn target_mode_reaches_quality_through_the_trait() {
        let model = ClampWalk { up: 0.49 };
        let v = vf();
        let problem = Problem::new(&model, &v, 60);
        let control = RunControl::Target {
            target: QualityTarget::RelativeError {
                target: 0.2,
                reference: None,
            },
            check_every: 128,
            max_steps: 50_000_000,
        };
        let run = run_sequential(&SrsEstimator, problem, control, &mut rng_from_seed(2));
        assert!(run.estimate.self_relative_error() <= 0.2);
    }

    #[test]
    fn chunked_and_monolithic_runs_agree_exactly() {
        // Chunking must not change the sampled path sequence: two chunks
        // of 25k steps equal one 50k chunk, cursor included.
        let model = ClampWalk { up: 0.48 };
        let v = vf();
        let problem = Problem::new(&model, &v, 80);
        let plan = PartitionPlan::new(vec![0.4, 0.7]).unwrap();
        let cfg = GMlssConfig::new(plan, RunControl::budget(1));

        let mut roots_a = RootCursor::new(9);
        let mut one = shard_for(&cfg, &problem);
        cfg.run_chunk(problem, &mut one, 50_000, &mut roots_a, 1);

        let mut roots_b = RootCursor::new(9);
        let mut two = shard_for(&cfg, &problem);
        cfg.run_chunk(problem, &mut two, 25_000, &mut roots_b, 1);
        let already = two.steps();
        cfg.run_chunk(problem, &mut two, 50_000 - already, &mut roots_b, 1);

        assert_eq!(roots_a, roots_b);
        assert_eq!(one.steps(), two.steps());
        assert_eq!(one.n_roots(), two.n_roots());
        let ea = estimate_for(&cfg, &problem, &one, &mut rng_from_seed(0));
        let eb = estimate_for(&cfg, &problem, &two, &mut rng_from_seed(0));
        assert_eq!(ea.tau, eb.tau);
        assert_eq!(ea.hits, eb.hits);
    }

    #[test]
    fn merged_shards_equal_one_big_shard() {
        let model = ClampWalk { up: 0.48 };
        let v = vf();
        let problem = Problem::new(&model, &v, 80);
        let plan = PartitionPlan::new(vec![0.5]).unwrap();
        let cfg = SMlssConfig::new(plan, RunControl::budget(1));

        // Two independent shards from different streams, merged.
        let mut a = shard_for(&cfg, &problem);
        cfg.run_chunk(problem, &mut a, 20_000, &mut RootCursor::new(5), 1);
        let mut b = shard_for(&cfg, &problem);
        cfg.run_chunk(problem, &mut b, 20_000, &mut RootCursor::new(6), 1);
        let (sa, sb) = (a.steps(), b.steps());
        let (na, nb) = (a.n_roots(), b.n_roots());
        a.merge(b);
        assert_eq!(a.steps(), sa + sb);
        assert_eq!(a.n_roots(), na + nb);
        let est = estimate_for(&cfg, &problem, &a, &mut rng_from_seed(0));
        assert!((0.0..=1.0).contains(&est.tau));
        assert!(est.variance.is_finite());
    }

    #[test]
    fn diagnostics_report_names() {
        let model = ClampWalk { up: 0.48 };
        let v = vf();
        let problem = Problem::new(&model, &v, 40);
        let shard = {
            let mut s = shard_for(&SrsEstimator, &problem);
            SrsEstimator.run_chunk(problem, &mut s, 1000, &mut RootCursor::new(3), 1);
            s
        };
        type Vf = RatioValue<fn(&f64) -> f64>;
        let d = <SrsEstimator as Estimator<ClampWalk, Vf>>::diagnostics(&SrsEstimator, &shard);
        assert_eq!(d.estimator, "srs");
    }
}
