//! Shared experiment drivers, generic over `mlss_core`'s `Estimator`
//! trait: run *any* sampling strategy to a target or budget and collect
//! comparable rows. The per-sampler helpers (`srs_*`, `mlss_*`) the
//! figure/table binaries call are thin wrappers over the same two generic
//! entry points, so a new estimator gains bench coverage by being passed
//! to [`run_to_target`]/[`run_budget`] — no new driver code.

use mlss_core::estimate::Estimate;
use mlss_core::estimator::{run_sequential, Estimator, EstimatorRun};
use mlss_core::gmlss::{GMlssConfig, GMlssResult};
use mlss_core::levels::PartitionPlan;
use mlss_core::model::SimulationModel;
use mlss_core::partition::balanced_plan;
use mlss_core::quality::{QualityTarget, RunControl};
use mlss_core::query::{Problem, ValueFunction};
use mlss_core::rng::rng_from_seed;
use mlss_core::srs::SrsEstimator;

/// Hard step valve for target-mode runs.
pub const MAX_STEPS: u64 = 20_000_000_000;

/// One comparable measurement row.
#[derive(Debug, Clone, Copy)]
pub struct RunRow {
    /// Point estimate.
    pub tau: f64,
    /// Estimated variance.
    pub variance: f64,
    /// `g` invocations.
    pub steps: u64,
    /// Root paths.
    pub n_roots: u64,
    /// Simulation seconds.
    pub sim_secs: f64,
    /// Variance-evaluation seconds (bootstrap etc.; 0 for closed-form
    /// estimators).
    pub bootstrap_secs: f64,
}

impl RunRow {
    fn from_estimate(e: Estimate, sim: std::time::Duration, boot: std::time::Duration) -> Self {
        Self {
            tau: e.tau,
            variance: e.variance,
            steps: e.steps,
            n_roots: e.n_roots,
            sim_secs: sim.as_secs_f64(),
            bootstrap_secs: boot.as_secs_f64(),
        }
    }

    /// Total wall seconds.
    pub fn total_secs(&self) -> f64 {
        self.sim_secs + self.bootstrap_secs
    }
}

impl<L> From<&EstimatorRun<L>> for RunRow {
    fn from(run: &EstimatorRun<L>) -> Self {
        RunRow::from_estimate(run.estimate, run.sim_elapsed, run.estimate_elapsed)
    }
}

/// Run any estimator until the quality target holds.
pub fn run_to_target<M, V, E>(
    problem: Problem<'_, M, V>,
    estimator: &E,
    target: QualityTarget,
    check_every: u64,
    seed: u64,
) -> EstimatorRun<E::Shard>
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
    E: Estimator<M, V>,
{
    let control = RunControl::Target {
        target,
        check_every,
        max_steps: MAX_STEPS,
    };
    run_sequential(estimator, problem, control, &mut rng_from_seed(seed))
}

/// Run any estimator for a fixed budget of `g` invocations.
pub fn run_budget<M, V, E>(
    problem: Problem<'_, M, V>,
    estimator: &E,
    budget: u64,
    seed: u64,
) -> EstimatorRun<E::Shard>
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
    E: Estimator<M, V>,
{
    run_sequential(
        estimator,
        problem,
        RunControl::budget(budget),
        &mut rng_from_seed(seed),
    )
}

/// Run SRS until the quality target holds.
pub fn srs_to_target<M, V>(problem: Problem<'_, M, V>, target: QualityTarget, seed: u64) -> RunRow
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
{
    RunRow::from(&run_to_target(problem, &SrsEstimator, target, 1024, seed))
}

/// Run SRS for a fixed budget of `g` invocations.
pub fn srs_budget<M, V>(problem: Problem<'_, M, V>, budget: u64, seed: u64) -> RunRow
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
{
    RunRow::from(&run_budget(problem, &SrsEstimator, budget, seed))
}

/// Build a balanced-growth plan for the problem with `m` levels (the
/// automated MLSS-BAL of §5.1/§6.3).
pub fn balanced_for<M, V>(problem: Problem<'_, M, V>, m: usize, seed: u64) -> PartitionPlan
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
{
    let (plan, _) = balanced_plan(problem, m, 4000, &mut rng_from_seed(seed ^ 0xBA1A_BA1A));
    plan
}

/// Run g-MLSS until the quality target holds.
pub fn mlss_to_target<M, V>(
    problem: Problem<'_, M, V>,
    plan: PartitionPlan,
    ratio: u32,
    target: QualityTarget,
    seed: u64,
) -> (RunRow, GMlssResult)
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
{
    let control = RunControl::Target {
        target,
        check_every: 256,
        max_steps: MAX_STEPS,
    };
    let cfg = GMlssConfig::new(plan, control).with_ratio(ratio);
    let run = run_to_target(problem, &cfg, target, 256, seed);
    (RunRow::from(&run), GMlssResult::from(run))
}

/// Run g-MLSS for a fixed budget.
pub fn mlss_budget<M, V>(
    problem: Problem<'_, M, V>,
    plan: PartitionPlan,
    ratio: u32,
    budget: u64,
    seed: u64,
) -> (RunRow, GMlssResult)
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
{
    let cfg = GMlssConfig::new(plan, RunControl::budget(budget)).with_ratio(ratio);
    let run = run_budget(problem, &cfg, budget, seed);
    (RunRow::from(&run), GMlssResult::from(run))
}

/// Mean ± sample std of a slice (for the "averaged over N runs" tables).
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    (mlss_core::stats::mean(xs), mlss_core::stats::sample_std(xs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlss_core::model::Time;
    use mlss_core::query::RatioValue;
    use mlss_core::rng::SimRng;
    use mlss_core::smlss::SMlssConfig;
    use rand::RngExt;

    struct Walk;

    impl SimulationModel for Walk {
        type State = f64;

        fn initial_state(&self) -> f64 {
            0.0
        }

        fn step(&self, s: &f64, _t: Time, rng: &mut SimRng) -> f64 {
            (s + if rng.random::<f64>() < 0.49 {
                0.05
            } else {
                -0.05
            })
            .clamp(0.0, 1.0)
        }
    }

    #[test]
    fn srs_and_mlss_rows_agree() {
        let model = Walk;
        let vf = RatioValue::new(|s: &f64| *s, 1.0);
        let problem = Problem::new(&model, &vf, 150);
        let srs = srs_budget(problem, 500_000, 1);
        let plan = balanced_for(problem, 3, 2);
        let (mlss, meta) = mlss_budget(problem, plan, 3, 500_000, 3);
        assert!(srs.tau > 0.0 && mlss.tau > 0.0);
        let diff = (srs.tau - mlss.tau).abs();
        let tol = 4.0 * (srs.variance + mlss.variance.max(0.0)).sqrt();
        assert!(diff <= tol.max(5e-3), "{} vs {}", srs.tau, mlss.tau);
        assert_eq!(meta.estimate.steps, mlss.steps);
    }

    #[test]
    fn target_mode_reaches_quality() {
        let model = Walk;
        let vf = RatioValue::new(|s: &f64| *s, 1.0);
        let problem = Problem::new(&model, &vf, 100);
        let row = srs_to_target(
            problem,
            QualityTarget::RelativeError {
                target: 0.25,
                reference: None,
            },
            7,
        );
        let re = row.variance.sqrt() / row.tau;
        assert!(re <= 0.25, "re = {re}");
    }

    #[test]
    fn generic_driver_accepts_any_estimator() {
        // The same entry point drives s-MLSS — the property the figure
        // binaries rely on after the trait rewrite.
        let model = Walk;
        let vf = RatioValue::new(|s: &f64| *s, 1.0);
        let problem = Problem::new(&model, &vf, 100);
        let cfg = SMlssConfig::new(
            PartitionPlan::new(vec![0.4, 0.7]).unwrap(),
            RunControl::budget(1),
        );
        let run = run_budget(problem, &cfg, 200_000, 5);
        assert!(run.estimate.steps >= 200_000);
        let row = RunRow::from(&run);
        assert_eq!(row.steps, run.estimate.steps);
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[1.0, 3.0]);
        assert_eq!(m, 2.0);
        assert!((s - std::f64::consts::SQRT_2).abs() < 1e-12);
    }
}
