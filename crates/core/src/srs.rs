//! Simple Random Sampling — the standard Monte Carlo baseline (§2.2).
//!
//! SRS simulates `n` independent sample paths, labels each with whether it
//! satisfied the query condition by the horizon, and estimates
//! `τ̂ = Σ l(SP_i) / n` with variance `τ̂(1 − τ̂)/n`. It is also the
//! degenerate case of MLSS with splitting ratio `r = 1` (§3.1), which our
//! test suite checks.

use crate::estimate::Estimate;
use crate::estimator::{run_sequential, ChunkOutcome, Estimator, Ledger};
use crate::frontier::{run_frontier, RootKernel, SegmentStatus};
use crate::model::{SimulationModel, Time};
use crate::quality::RunControl;
use crate::query::{Problem, ValueFunction};
use crate::rng::{RootCursor, SimRng};

/// Accumulated SRS counts — the sampler's [`Ledger`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SrsShard {
    /// Root paths simulated (`N_0`).
    pub n: u64,
    /// Query-satisfying paths.
    pub hits: u64,
    /// `g` invocations spent.
    pub steps: u64,
}

impl Ledger for SrsShard {
    fn merge(&mut self, other: Self) {
        self.n += other.n;
        self.hits += other.hits;
        self.steps += other.steps;
    }

    fn n_roots(&self) -> u64 {
        self.n
    }

    fn steps(&self) -> u64 {
        self.steps
    }
}

// Durability codec: three counters.
impl crate::persist::Persist for SrsShard {
    fn persist(&self, out: &mut Vec<u8>) {
        crate::persist::put_u64(out, self.n);
        crate::persist::put_u64(out, self.hits);
        crate::persist::put_u64(out, self.steps);
    }

    fn restore(r: &mut crate::persist::Reader<'_>) -> Result<Self, crate::persist::PersistError> {
        Ok(Self {
            n: r.u64()?,
            hits: r.u64()?,
            steps: r.u64()?,
        })
    }
}

/// Frontier kernel for SRS: one segment per root, retired on the first
/// query-satisfying state or at the horizon.
pub(crate) struct SrsKernel;

/// Per-root scratch: did this root hit?
#[derive(Default)]
pub(crate) struct SrsScratch {
    hit: bool,
}

impl<M, V> RootKernel<M, V> for SrsKernel
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
{
    type Scratch = SrsScratch;
    type Outcome = (bool, u64);
    type Shard = SrsShard;

    fn new_scratch(&self) -> SrsScratch {
        SrsScratch::default()
    }

    fn begin_root(
        &self,
        problem: &Problem<'_, M, V>,
        scratch: &mut SrsScratch,
    ) -> (M::State, Time) {
        scratch.hit = false;
        (problem.model.initial_state(), 0)
    }

    /// A root ends on its first query-satisfying state, `f = 1`.
    fn watch(&self, _scratch: &SrsScratch) -> f64 {
        1.0
    }

    fn on_step(
        &self,
        scratch: &mut SrsScratch,
        _state: &M::State,
        v: f64,
        _t: Time,
    ) -> SegmentStatus {
        if v >= 1.0 {
            scratch.hit = true;
            SegmentStatus::SegmentDone
        } else {
            SegmentStatus::Running
        }
    }

    fn next_segment(&self, _scratch: &mut SrsScratch) -> Option<(M::State, Time)> {
        None
    }

    fn finish_root(&self, scratch: &mut SrsScratch, steps: u64, out: &mut (bool, u64)) {
        *out = (scratch.hit, steps);
    }

    fn commit(&self, shard: &mut SrsShard, &(hit, steps): &(bool, u64)) {
        shard.n += 1;
        shard.steps += steps;
        shard.hits += hit as u64;
    }
}

/// The SRS strategy as a pluggable [`Estimator`] (it has no knobs).
#[derive(Debug, Clone, Copy, Default)]
pub struct SrsEstimator;

impl<M, V> Estimator<M, V> for SrsEstimator
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
{
    type Shard = SrsShard;

    fn name(&self) -> &'static str {
        "srs"
    }

    fn shard(&self) -> SrsShard {
        SrsShard::default()
    }

    fn run_chunk(
        &self,
        problem: Problem<'_, M, V>,
        shard: &mut SrsShard,
        budget: u64,
        roots: &mut RootCursor,
        width: usize,
    ) -> ChunkOutcome {
        run_frontier(&SrsKernel, &problem, shard, budget, roots, width)
    }

    fn estimate(&self, shard: &SrsShard, _rng: &mut SimRng) -> Estimate {
        estimate_from_counts(shard.n, shard.hits, shard.steps)
    }
}

/// Result of one SRS run.
#[derive(Debug, Clone)]
pub struct SrsResult {
    /// Final estimate.
    pub estimate: Estimate,
    /// Wall-clock simulation time.
    pub elapsed: std::time::Duration,
}

/// The SRS sampler.
#[derive(Debug, Clone, Copy)]
pub struct SrsSampler {
    /// Stopping criterion.
    pub control: RunControl,
}

impl SrsSampler {
    /// Sampler with the given stopping criterion.
    pub fn new(control: RunControl) -> Self {
        Self { control }
    }

    /// Run to completion on [`run_sequential`].
    pub fn run<M, V>(&self, problem: Problem<'_, M, V>, rng: &mut SimRng) -> SrsResult
    where
        M: SimulationModel,
        V: ValueFunction<M::State>,
    {
        let run = run_sequential(&SrsEstimator, problem, self.control, rng);
        SrsResult {
            estimate: run.estimate,
            elapsed: run.sim_elapsed + run.estimate_elapsed,
        }
    }
}

/// Build the SRS estimate from counts: `τ̂ = hits/n`,
/// `Var(τ̂) = τ̂(1 − τ̂)/n`.
pub fn estimate_from_counts(n: u64, hits: u64, steps: u64) -> Estimate {
    let (tau, variance) = if n == 0 {
        (0.0, f64::INFINITY)
    } else {
        let tau = hits as f64 / n as f64;
        (tau, tau * (1.0 - tau) / n as f64)
    };
    Estimate {
        tau,
        variance,
        n_roots: n,
        steps,
        hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Time;
    use crate::query::RatioValue;
    use crate::rng::{rng_from_seed, RootCursor};
    use rand::RngExt;

    /// Simulate one SRS root path; returns `(hit, steps_spent)` — the
    /// scalar reference program `SrsKernel` is pinned against.
    fn simulate_root<M, V>(problem: &Problem<'_, M, V>, rng: &mut SimRng) -> (bool, u64)
    where
        M: SimulationModel,
        V: ValueFunction<M::State>,
    {
        let mut state = problem.model.initial_state();
        let mut steps = 0;
        for t in 1..=problem.horizon {
            state = problem.model.step(&state, t, rng);
            steps += 1;
            if problem.satisfied(&state) {
                return (true, steps);
            }
        }
        (false, steps)
    }

    /// Bernoulli "process": jumps straight to the target with probability
    /// `p` on the first step, else stays at 0 forever.
    pub(crate) struct Jump {
        pub p: f64,
    }

    impl SimulationModel for Jump {
        type State = f64;

        fn initial_state(&self) -> f64 {
            0.0
        }

        fn step(&self, state: &f64, t: Time, rng: &mut SimRng) -> f64 {
            if t == 1 && rng.random::<f64>() < self.p {
                1.0
            } else {
                *state
            }
        }
    }

    #[test]
    fn srs_estimates_bernoulli() {
        let model = Jump { p: 0.3 };
        let vf = RatioValue::new(|s: &f64| *s, 1.0);
        let problem = Problem::new(&model, &vf, 5);
        let sampler = SrsSampler::new(RunControl::budget(100_000));
        let res = sampler.run(problem, &mut rng_from_seed(11));
        let est = res.estimate;
        assert!(
            (est.tau - 0.3).abs() < 0.02,
            "tau = {} should be near 0.3",
            est.tau
        );
        // Variance formula sanity: p(1-p)/n.
        let expect_var = est.tau * (1.0 - est.tau) / est.n_roots as f64;
        assert!((est.variance - expect_var).abs() < 1e-15);
    }

    #[test]
    fn srs_budget_respected() {
        let model = Jump { p: 0.0 };
        let vf = RatioValue::new(|s: &f64| *s, 1.0);
        let problem = Problem::new(&model, &vf, 10);
        let sampler = SrsSampler::new(RunControl::budget(1000));
        let res = sampler.run(problem, &mut rng_from_seed(1));
        // Never-hitting paths cost exactly `horizon` steps each; the run
        // stops at the first completion at or beyond the budget.
        assert!(res.estimate.steps >= 1000);
        assert!(res.estimate.steps < 1000 + 10);
        assert_eq!(res.estimate.hits, 0);
        assert_eq!(res.estimate.tau, 0.0);
    }

    #[test]
    fn srs_stops_early_on_hit() {
        let model = Jump { p: 1.0 };
        let vf = RatioValue::new(|s: &f64| *s, 1.0);
        let problem = Problem::new(&model, &vf, 100);
        let sampler = SrsSampler::new(RunControl::budget(10));
        let res = sampler.run(problem, &mut rng_from_seed(1));
        // Every path hits at t=1, so each costs 1 step.
        assert_eq!(res.estimate.steps, res.estimate.n_roots);
        assert_eq!(res.estimate.tau, 1.0);
    }

    #[test]
    fn srs_quality_target_mode() {
        let model = Jump { p: 0.5 };
        let vf = RatioValue::new(|s: &f64| *s, 1.0);
        let problem = Problem::new(&model, &vf, 3);
        let sampler = SrsSampler::new(RunControl::Target {
            target: crate::quality::QualityTarget::RelativeError {
                target: 0.10,
                reference: None,
            },
            check_every: 64,
            max_steps: 10_000_000,
        });
        let res = sampler.run(problem, &mut rng_from_seed(5));
        assert!(res.estimate.self_relative_error() <= 0.10);
        // RE 10% on p=0.5 needs around (1-p)/p / 0.01 = 100 roots.
        assert!(res.estimate.n_roots >= 64);
    }

    #[test]
    fn zero_root_estimate_is_safe() {
        let e = estimate_from_counts(0, 0, 0);
        assert_eq!(e.tau, 0.0);
        assert!(e.variance.is_infinite());
    }

    #[test]
    fn sampler_and_estimator_trait_agree_exactly() {
        // The scalar `simulate_root` loop and the frontier's `SrsKernel`
        // are two implementations of the same root program: pin them
        // bit-exactly so they cannot drift apart. Each reference root
        // runs on stream `k` of the run key, as the frontier's
        // roots do. The sampler runs the kernel through
        // `run_sequential`.
        let model = Jump { p: 0.2 };
        let vf = RatioValue::new(|s: &f64| *s, 1.0);
        let problem = Problem::new(&model, &vf, 6);
        let sampler = SrsSampler::new(RunControl::budget(20_000));
        let res = sampler.run(problem, &mut rng_from_seed(13));

        let roots = RootCursor::from_rng(&mut rng_from_seed(13));
        let mut shard = SrsShard::default();
        while shard.steps < 20_000 {
            let (hit, steps) = simulate_root(&problem, &mut roots.stream(shard.n));
            shard.n += 1;
            shard.steps += steps;
            shard.hits += hit as u64;
        }
        assert_eq!(shard.steps, res.estimate.steps);
        assert_eq!(shard.n, res.estimate.n_roots);
        assert_eq!(shard.hits, res.estimate.hits);
    }
}
