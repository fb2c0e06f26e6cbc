//! Cross-driver determinism: the same seed and plan must produce the
//! same samples — and therefore identical estimates — no matter which
//! execution path runs them, at which frontier width.
//!
//! Four paths share one RNG stream convention (worker 0 of
//! `StreamFactory::new(seed)`):
//!
//! 1. the sequential driver `run_sequential` (width 1), handed that
//!    stream directly;
//! 2. `run_sequential_batched` at width 7 over the same stream;
//! 3. the parallel driver `run_parallel` at 1 thread and width 64, whose
//!    single worker draws the same stream;
//! 4. the scheduler with 1 worker at width 16, whose
//!    `EstimatorQuery::from_seed` seeds the job identically.
//!
//! Chunk boundaries differ wildly between them (one monolithic chunk vs
//! `sync_every` chunks vs scheduler slices), but the chunk contract —
//! complete every root path you start; shards merge exactly — makes the
//! boundaries invisible, and every root runs on its own stream split
//! from the driver's, so width is invisible too: in budget mode all
//! counters, the point estimate and the variance agree **bit-for-bit**.
//!
//! Intentional divergences (documented, not bugs):
//! * **Target mode** consumes RNG in quality checks (bootstrap variance
//!   draws), and the paths check at different cadences, so their streams
//!   separate; estimates then agree statistically, not exactly.
//! * **Multi-worker runs** split work across streams; totals depend on
//!   scheduling and agree statistically.

use mlss_core::estimator::run_sequential_batched;
use mlss_core::is::{IsEstimator, TiltableModel};
use mlss_core::prelude::*;
use mlss_core::smlss::SMlssConfig;
use rand::RngExt;

#[derive(Clone)]
struct Walk {
    up: f64,
}

impl SimulationModel for Walk {
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

/// Exponential tilt of the ±0.05 Bernoulli step: the up-probability
/// moves from `p` to `q ∝ p·e^θ`, with one uniform draw per step like
/// [`Walk::step`].
impl TiltableModel for Walk {
    fn step_tilted(&self, s: &f64, _t: Time, theta: f64, rng: &mut SimRng) -> (f64, f64) {
        let p = self.up;
        let q = p * theta.exp() / (p * theta.exp() + (1.0 - p) * (-theta).exp());
        if rng.random::<f64>() < q {
            ((s + 0.05).clamp(0.0, 1.0), (p / q).ln())
        } else {
            ((s - 0.05).clamp(0.0, 1.0), ((1.0 - p) / (1.0 - q)).ln())
        }
    }
}

type Vf = RatioValue<fn(&f64) -> f64>;

fn vf() -> Vf {
    fn score(s: &f64) -> f64 {
        *s
    }
    RatioValue::new(score as fn(&f64) -> f64, 1.0)
}

/// Run one estimator through all four drivers, each at its own width,
/// and demand bit-identical counters, point estimate and variance.
fn check_cross_driver<E>(name: &str, estimator: E, seed: u64, budget: u64)
where
    E: Estimator<Walk, Vf> + Clone + Send + Sync + 'static,
    E::Shard: Send + Clone + 'static,
{
    let model = Walk { up: 0.48 };
    let v = vf();
    let problem = Problem::new(&model, &v, 70);
    let control = RunControl::budget(budget);

    // 1. Sequential driver (width 1) over the canonical worker-0 stream.
    let seq = run_sequential(
        &estimator,
        problem,
        control,
        &mut StreamFactory::new(seed).stream(0),
    )
    .estimate;

    // 2. The same driver at width 7.
    let batched = run_sequential_batched(
        &estimator,
        problem,
        control,
        &mut StreamFactory::new(seed).stream(0),
        7,
    )
    .estimate;

    // 3. Parallel driver at 1 thread and width 64 (multiple
    //    sync_every-sized chunks).
    let par = run_parallel(
        problem,
        &estimator,
        control,
        &ParallelConfig {
            threads: 1,
            sync_every: 7_000,
            seed,
            bootstrap_resamples: 50,
            batch_width: 64,
        },
    )
    .estimate;

    // 4. Scheduler with 1 worker at width 16 (yet another slicing).
    let sched = Scheduler::new(SchedulerConfig {
        workers: 1,
        slice_budget: 9_000,
        max_retries: 0,
        batch_width: 16,
        tenant_weights: Vec::new(),
    });
    let id = sched.submit(model.clone(), v, 70, estimator.clone(), control, seed, 0);
    let via_sched = *sched
        .wait(id)
        .unwrap()
        .estimate()
        .expect("scheduler completes the query");

    for (path, est) in [
        ("sequential@7", batched),
        ("parallel@1x64", par),
        ("scheduler@1x16", via_sched),
    ] {
        assert_eq!(est.steps, seq.steps, "{name}/{path}: steps");
        assert_eq!(est.n_roots, seq.n_roots, "{name}/{path}: roots");
        assert_eq!(est.hits, seq.hits, "{name}/{path}: hits");
        assert_eq!(
            est.tau.to_bits(),
            seq.tau.to_bits(),
            "{name}/{path}: τ̂ {} vs sequential {}",
            est.tau,
            seq.tau
        );
        assert_eq!(
            est.variance.to_bits(),
            seq.variance.to_bits(),
            "{name}/{path}: variance {} vs sequential {}",
            est.variance,
            seq.variance
        );
    }
}

#[test]
fn srs_is_deterministic_across_drivers() {
    check_cross_driver("srs", SrsEstimator, 17, 60_000);
}

#[test]
fn smlss_is_deterministic_across_drivers() {
    let cfg = SMlssConfig::new(
        PartitionPlan::new(vec![0.4, 0.7]).unwrap(),
        RunControl::budget(1), // superseded by the driver's control
    );
    check_cross_driver("smlss", cfg, 23, 60_000);
}

#[test]
fn gmlss_is_deterministic_across_drivers() {
    // No-skip model ⇒ the per-root-hit variance applies and even the
    // variance is bit-identical. (Under skips only τ̂ would be; the
    // bootstrap consumes driver-specific RNG.)
    let cfg = GMlssConfig::new(
        PartitionPlan::new(vec![0.4, 0.7]).unwrap(),
        RunControl::budget(1),
    );
    check_cross_driver("gmlss", cfg, 29, 60_000);
}

#[test]
fn is_is_deterministic_across_drivers() {
    check_cross_driver("is", IsEstimator::new(0.1), 37, 60_000);
}

/// Target mode is the documented divergence: quality checks consume RNG
/// at driver-specific cadences, so the paths agree statistically (same
/// quality target) but not bit-for-bit.
#[test]
fn target_mode_diverges_statistically_only() {
    let model = Walk { up: 0.48 };
    let v = vf();
    let problem = Problem::new(&model, &v, 70);
    let control = RunControl::Target {
        target: QualityTarget::RelativeError {
            target: 0.15,
            reference: None,
        },
        check_every: 256,
        max_steps: 50_000_000,
    };
    let seed = 31u64;

    let seq = run_sequential(
        &SrsEstimator,
        problem,
        control,
        &mut StreamFactory::new(seed).stream(0),
    )
    .estimate;

    let sched = Scheduler::new(SchedulerConfig {
        workers: 1,
        slice_budget: 9_000,
        max_retries: 0,
        batch_width: 1,
        tenant_weights: Vec::new(),
    });
    let id = sched.submit(model.clone(), v, 70, SrsEstimator, control, seed, 0);
    let via_sched = *sched.wait(id).unwrap().estimate().unwrap();

    // Both reach the target…
    assert!(seq.self_relative_error() <= 0.15);
    assert!(via_sched.self_relative_error() <= 0.15);
    // …and agree within the combined statistical tolerance.
    let diff = (seq.tau - via_sched.tau).abs();
    let tol = 5.0 * (seq.variance.max(0.0) + via_sched.variance.max(0.0)).sqrt();
    assert!(
        diff <= tol.max(1e-3),
        "target mode: sequential {} vs scheduler {}",
        seq.tau,
        via_sched.tau
    );
}
