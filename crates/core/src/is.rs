//! Importance sampling baseline (§2.2).
//!
//! The paper reviews IS as the classical variance-reduction alternative
//! to splitting and notes its key drawback: it needs *a-priori knowledge
//! of the model* to tilt the sampling distribution, which is impossible
//! for black boxes. We implement it for the class of models that can
//! expose a tilted step (e.g. Gaussian-noise processes with a mean shift,
//! discrete walks with reweighted step probabilities), together with a
//! cross-entropy-style pilot search for the tilt parameter — enough to
//! reproduce the paper's qualitative point: where IS applies it is
//! excellent, but it simply does not apply to general simulation models,
//! while MLSS does.

use crate::estimate::Estimate;
use crate::estimator::{ChunkOutcome, Diagnostics, Estimator, Ledger};
use crate::frontier::{run_frontier, RootKernel, SegmentStatus};
use crate::model::{ScalarAdapter, SimulationModel, StepCounter, Time};
use crate::query::{Problem, ValueFunction};
use crate::rng::{RootCursor, SimRng};
use crate::stats::ExactSum;

/// A model that can simulate under an exponentially tilted proposal.
pub trait TiltableModel: SimulationModel {
    /// Simulate one step under the proposal with tilt parameter `theta`,
    /// returning the new state and the *log likelihood-ratio increment*
    /// `log dP/dQ` of the drawn transition (so that the product of
    /// `exp(increments)` is the IS weight).
    fn step_tilted(
        &self,
        state: &Self::State,
        t: Time,
        theta: f64,
        rng: &mut SimRng,
    ) -> (Self::State, f64);

    /// Batched tilted stepping: for each lane `i` in `alive`, advance
    /// `lanes[i]` one tilted step and *add* the log likelihood-ratio
    /// increment into `log_ws[i]`. Same per-lane draw-identity contract
    /// as [`SimulationModel::step_batch`]; the default loops the scalar
    /// [`TiltableModel::step_tilted`].
    fn step_tilted_batch(
        &self,
        lanes: &mut [Self::State],
        log_ws: &mut [f64],
        ts: &[Time],
        theta: f64,
        rngs: &mut [SimRng],
        alive: &[usize],
    ) {
        for &i in alive {
            let (next, dlw) = self.step_tilted(&lanes[i], ts[i], theta, &mut rngs[i]);
            lanes[i] = next;
            log_ws[i] += dlw;
        }
    }
}

/// A borrowed tiltable model is itself tiltable (mirrors the
/// [`SimulationModel`] blanket impl for `&M`).
impl<M: TiltableModel> TiltableModel for &M {
    fn step_tilted(
        &self,
        state: &Self::State,
        t: Time,
        theta: f64,
        rng: &mut SimRng,
    ) -> (Self::State, f64) {
        (**self).step_tilted(state, t, theta, rng)
    }

    fn step_tilted_batch(
        &self,
        lanes: &mut [Self::State],
        log_ws: &mut [f64],
        ts: &[Time],
        theta: f64,
        rngs: &mut [SimRng],
        alive: &[usize],
    ) {
        (**self).step_tilted_batch(lanes, log_ws, ts, theta, rngs, alive)
    }
}

/// [`ScalarAdapter`] hides native tilted kernels too: `step_tilted`
/// forwards, but `step_tilted_batch` keeps the provided scalar loop —
/// the reference the draw-identity suite holds native tilted kernels
/// against.
impl<M: TiltableModel> TiltableModel for ScalarAdapter<M> {
    fn step_tilted(
        &self,
        state: &Self::State,
        t: Time,
        theta: f64,
        rng: &mut SimRng,
    ) -> (Self::State, f64) {
        self.0.step_tilted(state, t, theta, rng)
    }

    // No step_tilted_batch override: the provided scalar loop is the point.
}

/// Metered tilted stepping: batched tilted steps cost one atomic
/// `add(k)` for `k` alive lanes, exactly like plain batched stepping.
impl<M: TiltableModel> TiltableModel for StepCounter<M> {
    fn step_tilted(
        &self,
        state: &Self::State,
        t: Time,
        theta: f64,
        rng: &mut SimRng,
    ) -> (Self::State, f64) {
        self.count_one();
        self.inner().step_tilted(state, t, theta, rng)
    }

    fn step_tilted_batch(
        &self,
        lanes: &mut [Self::State],
        log_ws: &mut [f64],
        ts: &[Time],
        theta: f64,
        rngs: &mut [SimRng],
        alive: &[usize],
    ) {
        self.count_many(alive.len() as u64);
        self.inner()
            .step_tilted_batch(lanes, log_ws, ts, theta, rngs, alive)
    }
}

/// Accumulated IS statistics — the sampler's [`Ledger`].
///
/// Weight sums are held in [`ExactSum`] accumulators, so shard merges are
/// order-insensitive: merging shards in any permutation yields the same
/// exact sums, hence bit-identical estimates (non-hitting paths contribute
/// weight 0, so Σw over all paths equals Σw over hits).
#[derive(Debug, Clone, Default)]
pub struct IsShard {
    /// Paths simulated.
    n: u64,
    /// Exact Σw over hitting paths (all others contribute 0).
    w: ExactSum,
    /// Exact Σw² over hitting paths.
    w2: ExactSum,
    /// `g` invocations spent.
    pub steps: u64,
    /// Paths that satisfied the query.
    pub hits: u64,
}

impl IsShard {
    /// Sum of weights over hitting paths.
    pub fn weight_sum(&self) -> f64 {
        self.w.value()
    }

    /// Sum of squared weights over hitting paths.
    pub fn weight_sq_sum(&self) -> f64 {
        self.w2.value()
    }

    /// Effective sample size `(Σw)²/Σw²` over hitting paths — a health
    /// indicator; tiny ESS means the tilt is mismatched.
    pub fn effective_sample_size(&self) -> f64 {
        let (ws, ws2) = (self.weight_sum(), self.weight_sq_sum());
        if ws2 > 0.0 {
            ws * ws / ws2
        } else {
            0.0
        }
    }

    /// Unbiased sample variance of the per-path contributions
    /// `w_i · l(SP_i)` (0 when `n < 2`), from the exact weight sums.
    pub fn contribution_variance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let n = self.n as f64;
        let (ws, ws2) = (self.weight_sum(), self.weight_sq_sum());
        ((ws2 - ws * ws / n) / (n - 1.0)).max(0.0)
    }

    /// The weighted estimate over the accumulated paths.
    pub fn estimate(&self) -> Estimate {
        let (tau, variance) = if self.n == 0 {
            (0.0, f64::INFINITY)
        } else if self.n < 2 {
            (self.weight_sum() / self.n as f64, f64::INFINITY)
        } else {
            let n = self.n as f64;
            (self.weight_sum() / n, self.contribution_variance() / n)
        };
        Estimate {
            tau,
            variance,
            n_roots: self.n,
            steps: self.steps,
            hits: self.hits,
        }
    }
}

// Durability codec. The exact weight sums serialize their Shewchuk
// partials verbatim, so a restored shard's `value()` — and every later
// `add`/`merge` — is bit-identical to the original's.
impl crate::persist::Persist for IsShard {
    fn persist(&self, out: &mut Vec<u8>) {
        crate::persist::put_u64(out, self.n);
        self.w.persist(out);
        self.w2.persist(out);
        crate::persist::put_u64(out, self.steps);
        crate::persist::put_u64(out, self.hits);
    }

    fn restore(r: &mut crate::persist::Reader<'_>) -> Result<Self, crate::persist::PersistError> {
        Ok(Self {
            n: r.u64()?,
            w: ExactSum::restore(r)?,
            w2: ExactSum::restore(r)?,
            steps: r.u64()?,
            hits: r.u64()?,
        })
    }
}

impl Ledger for IsShard {
    fn merge(&mut self, other: Self) {
        self.n += other.n;
        self.w.merge(&other.w);
        self.w2.merge(&other.w2);
        self.steps += other.steps;
        self.hits += other.hits;
    }

    fn n_roots(&self) -> u64 {
        self.n
    }

    fn steps(&self) -> u64 {
        self.steps
    }
}

/// Frontier kernel for IS: one tilted segment per root; stepping goes
/// through the model's tilted proposal rather than `step_batch`, with the
/// log-weight accumulated per lane.
pub(crate) struct IsKernel {
    pub(crate) theta: f64,
}

/// Per-root scratch: running log-weight and the weight at the hit.
#[derive(Default)]
pub(crate) struct IsScratch {
    log_w: f64,
    hit_w: Option<f64>,
}

impl<M, V> RootKernel<M, V> for IsKernel
where
    M: TiltableModel,
    V: ValueFunction<M::State>,
{
    type Scratch = IsScratch;
    type Outcome = (Option<f64>, u64);
    type Shard = IsShard;

    fn new_scratch(&self) -> IsScratch {
        IsScratch::default()
    }

    fn begin_root(&self, problem: &Problem<'_, M, V>, scratch: &mut IsScratch) -> (M::State, Time) {
        scratch.log_w = 0.0;
        scratch.hit_w = None;
        (problem.model.initial_state(), 0)
    }

    fn step_lanes(
        &self,
        problem: &Problem<'_, M, V>,
        lanes: &mut [M::State],
        ts: &[Time],
        rngs: &mut [SimRng],
        alive: &[usize],
        scratches: &mut [IsScratch],
    ) {
        // Tilted proposal instead of the plain batch kernel, routed
        // through the model's (overridable) batched tilted step. The
        // log-weights live in per-lane scratch; bridge them through a
        // contiguous buffer so a native override sees the documented
        // `&mut [f64]` shape.
        let mut log_ws: Vec<f64> = scratches.iter().map(|s| s.log_w).collect();
        problem
            .model
            .step_tilted_batch(lanes, &mut log_ws, ts, self.theta, rngs, alive);
        for &i in alive {
            scratches[i].log_w = log_ws[i];
        }
    }

    /// A root ends on its first query-satisfying state, `f = 1`.
    fn watch(&self, _scratch: &IsScratch) -> f64 {
        1.0
    }

    fn on_step(
        &self,
        scratch: &mut IsScratch,
        _state: &M::State,
        v: f64,
        _t: Time,
    ) -> SegmentStatus {
        if v >= 1.0 {
            scratch.hit_w = Some(scratch.log_w.exp());
            SegmentStatus::SegmentDone
        } else {
            SegmentStatus::Running
        }
    }

    fn next_segment(&self, _scratch: &mut IsScratch) -> Option<(M::State, Time)> {
        None
    }

    fn finish_root(&self, scratch: &mut IsScratch, steps: u64, out: &mut (Option<f64>, u64)) {
        *out = (scratch.hit_w, steps);
    }

    fn commit(&self, shard: &mut IsShard, &(hit_w, steps): &(Option<f64>, u64)) {
        shard.steps += steps;
        if let Some(w) = hit_w {
            shard.hits += 1;
            shard.w.add(w);
            shard.w2.add(w * w);
        }
        shard.n += 1;
    }
}

/// The IS strategy as a pluggable [`Estimator`]: independent
/// exponentially tilted paths with likelihood-ratio reweighting. Only
/// applicable to [`TiltableModel`]s — the paper's point about IS needing
/// a-priori model knowledge, expressed as a trait bound.
#[derive(Debug, Clone, Copy)]
pub struct IsEstimator {
    /// The tilt parameter `θ` (see [`select_tilt`]).
    pub theta: f64,
}

impl IsEstimator {
    /// Estimator with the given tilt.
    pub fn new(theta: f64) -> Self {
        Self { theta }
    }
}

impl<M, V> Estimator<M, V> for IsEstimator
where
    M: TiltableModel,
    V: ValueFunction<M::State>,
{
    type Shard = IsShard;

    fn name(&self) -> &'static str {
        "is"
    }

    fn shard(&self) -> IsShard {
        IsShard::default()
    }

    fn run_chunk(
        &self,
        problem: Problem<'_, M, V>,
        shard: &mut IsShard,
        budget: u64,
        roots: &mut RootCursor,
        width: usize,
    ) -> ChunkOutcome {
        let kernel = IsKernel { theta: self.theta };
        run_frontier(&kernel, &problem, shard, budget, roots, width)
    }

    fn estimate(&self, shard: &IsShard, _rng: &mut SimRng) -> Estimate {
        shard.estimate()
    }

    fn diagnostics(&self, shard: &IsShard) -> Diagnostics {
        Diagnostics {
            estimator: "is",
            skip_events: 0,
            details: vec![
                ("theta".to_string(), self.theta),
                ("ess".to_string(), shard.effective_sample_size()),
            ],
        }
    }
}

/// Cross-entropy-style tilt selection (§2.2's CE reference, simplified):
/// evaluate a grid of tilts with small pilots and pick the one minimizing
/// the empirical second moment of the weighted estimator — equivalently,
/// its variance proxy.
pub fn select_tilt<M, V>(
    problem: Problem<'_, M, V>,
    candidates: &[f64],
    pilot_paths: u64,
    rng: &mut SimRng,
) -> f64
where
    M: TiltableModel,
    V: ValueFunction<M::State>,
{
    assert!(!candidates.is_empty());
    let mut best = candidates[0];
    let mut best_score = f64::INFINITY;
    for &theta in candidates {
        let mut second_moment = 0.0;
        let mut any_hit = false;
        for _ in 0..pilot_paths {
            let mut state = problem.model.initial_state();
            let mut log_w = 0.0;
            for t in 1..=problem.horizon {
                let (next, dlw) = problem.model.step_tilted(&state, t, theta, rng);
                log_w += dlw;
                state = next;
                if problem.satisfied(&state) {
                    second_moment += (2.0 * log_w).exp();
                    any_hit = true;
                    break;
                }
            }
        }
        // No hits at all → uninformative; rank by "found nothing" last.
        let score = if any_hit {
            second_moment / pilot_paths as f64
        } else {
            f64::INFINITY
        };
        if score < best_score {
            best_score = score;
            best = theta;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::run_sequential;
    use crate::quality::RunControl;
    use crate::query::RatioValue;
    use crate::rng::{rng_from_seed, RootCursor};
    use crate::srs::SrsSampler;
    use rand_distr::{Distribution, Normal};

    /// Simulate one tilted path into the shard — the scalar reference
    /// program `IsKernel` is pinned against.
    fn simulate_path<M, V>(
        problem: &Problem<'_, M, V>,
        theta: f64,
        shard: &mut IsShard,
        rng: &mut SimRng,
    ) where
        M: TiltableModel,
        V: ValueFunction<M::State>,
    {
        let mut state = problem.model.initial_state();
        let mut log_w = 0.0;
        for t in 1..=problem.horizon {
            let (next, dlw) = problem.model.step_tilted(&state, t, theta, rng);
            shard.steps += 1;
            log_w += dlw;
            state = next;
            if problem.satisfied(&state) {
                let w = log_w.exp();
                shard.hits += 1;
                shard.w.add(w);
                shard.w2.add(w * w);
                break;
            }
        }
        shard.n += 1;
    }

    /// Gaussian random walk `x_{t+1} = x_t + N(μ, σ)`; tilting shifts the
    /// increment mean by θ with the standard exponential-tilt weight.
    struct GaussWalk {
        mu: f64,
        sigma: f64,
    }

    impl SimulationModel for GaussWalk {
        type State = f64;

        fn initial_state(&self) -> f64 {
            0.0
        }

        fn step(&self, s: &f64, _t: Time, rng: &mut SimRng) -> f64 {
            let n = Normal::new(self.mu, self.sigma).unwrap();
            s + n.sample(rng)
        }
    }

    impl TiltableModel for GaussWalk {
        fn step_tilted(&self, s: &f64, _t: Time, theta: f64, rng: &mut SimRng) -> (f64, f64) {
            let n = Normal::new(self.mu + theta, self.sigma).unwrap();
            let eps = n.sample(rng); // the realized increment
                                     // log dP/dQ = (θ² − 2θ(ε − μ)) / (2σ²) … derive:
                                     // P ∝ exp(−(ε−μ)²/2σ²), Q ∝ exp(−(ε−μ−θ)²/2σ²)
                                     // log P/Q = [ (ε−μ−θ)² − (ε−μ)² ] / 2σ²
                                     //         = [ θ² − 2θ(ε−μ) ] / 2σ².
            let d = eps - self.mu;
            let log_w = (theta * theta - 2.0 * theta * d) / (2.0 * self.sigma * self.sigma);
            (s + eps, log_w)
        }

        // `rng.random::<f64>()` unused here but kept in scope for parity
        // with other models' tilts.
    }

    #[allow(clippy::type_complexity)]
    fn rare_problem(_model: &GaussWalk) -> (RatioValue<fn(&f64) -> f64>, Time) {
        fn score(s: &f64) -> f64 {
            *s
        }
        (RatioValue::new(score as fn(&f64) -> f64, 25.0), 100)
    }

    /// Run IS at tilt `theta` for `budget` `g` invocations.
    fn importance_run<M, V>(
        problem: Problem<'_, M, V>,
        theta: f64,
        budget: u64,
        seed: u64,
    ) -> crate::estimator::EstimatorRun<IsShard>
    where
        M: TiltableModel,
        V: ValueFunction<M::State>,
    {
        run_sequential(
            &IsEstimator::new(theta),
            problem,
            RunControl::budget(budget),
            &mut rng_from_seed(seed),
        )
    }

    #[test]
    fn zero_tilt_is_plain_monte_carlo() {
        let model = GaussWalk {
            mu: 0.0,
            sigma: 1.0,
        };
        let (vf, horizon) = rare_problem(&model);
        let problem = Problem::new(&model, &vf, horizon);
        let run = importance_run(problem, 0.0, 2_000_000, 1);
        // All weights are exactly 1 ⇒ estimate equals the hit fraction.
        let est = run.estimate;
        assert!((est.tau - est.hits as f64 / est.n_roots as f64).abs() < 1e-12);
    }

    #[test]
    fn tilted_is_matches_srs_on_rare_event() {
        let model = GaussWalk {
            mu: 0.0,
            sigma: 1.0,
        };
        let (vf, horizon) = rare_problem(&model);
        let problem = Problem::new(&model, &vf, horizon);

        // SRS reference with a big budget (τ ≈ P(max ≥ 25) ≈ 6e-3).
        let srs =
            SrsSampler::new(RunControl::budget(3_000_000)).run(problem, &mut rng_from_seed(2));

        let is = importance_run(problem, 0.25, 2_000_000, 3).estimate;
        let diff = (srs.estimate.tau - is.tau).abs();
        let tol = 4.0 * (srs.estimate.variance + is.variance).sqrt();
        assert!(
            diff <= tol.max(1e-3),
            "SRS {} vs IS {} (tol {tol})",
            srs.estimate.tau,
            is.tau
        );
        // And IS achieves much lower variance per path on this rare event.
        let srs_var_per_path = srs.estimate.variance * srs.estimate.n_roots as f64;
        let is_var_per_path = is.variance * is.n_roots as f64;
        assert!(
            is_var_per_path < srs_var_per_path,
            "IS per-path variance {is_var_per_path} should beat SRS {srs_var_per_path}"
        );
    }

    #[test]
    fn select_tilt_prefers_positive_drift_for_upcrossing() {
        let model = GaussWalk {
            mu: 0.0,
            sigma: 1.0,
        };
        let (vf, horizon) = rare_problem(&model);
        let problem = Problem::new(&model, &vf, horizon);
        let theta = select_tilt(
            problem,
            &[-0.2, 0.0, 0.1, 0.25, 0.5],
            400,
            &mut rng_from_seed(4),
        );
        assert!(
            theta > 0.0,
            "upcrossing query needs positive tilt, got {theta}"
        );
    }

    #[test]
    fn sampler_and_estimator_trait_agree_exactly() {
        // The scalar `simulate_path` loop and the frontier's `IsKernel`
        // are two implementations of the same root program: pin the two
        // bit-exactly so they cannot drift. Each reference path runs on
        // stream `k` of the run key, as the frontier's roots do. The estimator runs the kernel through
        // `run_sequential`.
        let model = GaussWalk {
            mu: 0.0,
            sigma: 1.0,
        };
        let (vf, horizon) = rare_problem(&model);
        let problem = Problem::new(&model, &vf, horizon);
        let run = importance_run(problem, 0.25, 150_000, 23);

        let roots = RootCursor::from_rng(&mut rng_from_seed(23));
        let mut shard = IsShard::default();
        while shard.steps < 150_000 {
            let mut rng = roots.stream(shard.n);
            simulate_path(&problem, 0.25, &mut shard, &mut rng);
        }
        assert_eq!(shard.steps, run.shard.steps);
        assert_eq!(shard.n, run.shard.n);
        assert_eq!(shard.hits, run.shard.hits);
        assert_eq!(
            shard.estimate().tau.to_bits(),
            run.estimate.tau.to_bits(),
            "identical exact weight sums must give identical τ̂"
        );
        assert_eq!(run.cursor.roots.next, shard.n);
    }

    #[test]
    fn ess_reported() {
        let model = GaussWalk {
            mu: 0.0,
            sigma: 1.0,
        };
        let (vf, horizon) = rare_problem(&model);
        let problem = Problem::new(&model, &vf, horizon);
        let run = importance_run(problem, 0.3, 500_000, 5);
        let ess = run.shard.effective_sample_size();
        assert!(ess > 0.0);
        assert!(ess <= run.estimate.hits as f64 + 1e-9);
    }
}
