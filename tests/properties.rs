//! Cross-crate property tests on estimator and plan invariants.
//!
//! Earlier revisions used `proptest`; the offline build environment
//! vendors no third-party crates (see `crates/shims/`), so the properties
//! are exercised over deterministic seed/parameter grids instead — same
//! invariants, reproducible counterexamples by construction.

use mlss_core::estimator::run_sequential;
use mlss_core::prelude::*;
use mlss_core::smlss::{SMlssConfig, SMlssSampler};
use mlss_models::{position_score, RandomWalk};
use rand::RngExt;

/// The toy clamp-walk of the paper's running examples: ±0.05 steps on
/// `[0, 1]`, absorbing clamp at the edges, up-probability `up`.
struct ClampWalk {
    up: f64,
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

/// Exponential-family tilt for the clamp walk: shift the up-probability
/// by `theta` and weight each step with the likelihood ratio of the move
/// actually taken.
impl TiltableModel for ClampWalk {
    fn step_tilted(&self, s: &f64, _t: Time, theta: f64, rng: &mut SimRng) -> (f64, f64) {
        let q = (self.up + theta).clamp(1e-6, 1.0 - 1e-6);
        let went_up = rng.random::<f64>() < q;
        let log_w = if went_up {
            (self.up / q).ln()
        } else {
            ((1.0 - self.up) / (1.0 - q)).ln()
        };
        let next = (s + if went_up { 0.05 } else { -0.05 }).clamp(0.0, 1.0);
        (next, log_w)
    }
}

type ClampVf = RatioValue<fn(&f64) -> f64>;

fn clamp_vf() -> ClampVf {
    fn score(s: &f64) -> f64 {
        *s
    }
    RatioValue::new(score as fn(&f64) -> f64, 1.0)
}

/// Shard merging is associative and order-insensitive: merging N shards
/// in any permutation (and any grouping) yields **bit-identical**
/// estimates. This is the contract a fanned-out run's block merges and
/// the scheduler's slice merging rely on — without it,
/// thread scheduling would leak into reported variances. It holds
/// exactly because shard statistics are integer counters, integer-exact
/// `HitMoments`, or full-precision `ExactSum` accumulators (see
/// `mlss_core::stats`).
fn check_merge_permutation_invariance<E>(name: &str, estimator: &E)
where
    E: Estimator<ClampWalk, RatioValue<fn(&f64) -> f64>>,
    E::Shard: Clone,
{
    let model = ClampWalk { up: 0.48 };
    let vf = clamp_vf();
    let problem = Problem::new(&model, &vf, 60);

    // Four shards from four independent streams.
    let shards: Vec<E::Shard> = (0..4u64)
        .map(|k| {
            let mut s = estimator.shard();
            estimator.run_chunk(problem, &mut s, 20_000, &mut RootCursor::new(1_000 + k), 1);
            s
        })
        .collect();

    let estimate_of = |shard: &E::Shard| estimator.estimate(shard, &mut rng_from_seed(0));
    let fold = |order: &[usize]| {
        let mut acc = estimator.shard();
        for &i in order {
            acc.merge(shards[i].clone());
        }
        estimate_of(&acc)
    };

    let reference = fold(&[0, 1, 2, 3]);
    assert!(reference.n_roots > 0, "{name}: shards must be non-trivial");
    let check = |est: Estimate, what: &str| {
        assert_eq!(est.steps, reference.steps, "{name}: steps ({what})");
        assert_eq!(est.n_roots, reference.n_roots, "{name}: roots ({what})");
        assert_eq!(est.hits, reference.hits, "{name}: hits ({what})");
        assert_eq!(
            est.tau.to_bits(),
            reference.tau.to_bits(),
            "{name}: τ̂ not bit-identical ({what}): {} vs {}",
            est.tau,
            reference.tau
        );
        assert_eq!(
            est.variance.to_bits(),
            reference.variance.to_bits(),
            "{name}: variance not bit-identical ({what}): {} vs {}",
            est.variance,
            reference.variance
        );
    };

    // Every permutation of the four shards.
    for a in 0..4usize {
        for b in 0..4 {
            for c in 0..4 {
                for d in 0..4 {
                    let order = [a, b, c, d];
                    let mut seen = [false; 4];
                    order.iter().for_each(|&i| seen[i] = true);
                    if seen != [true; 4] {
                        continue;
                    }
                    check(fold(&order), &format!("permutation {order:?}"));
                }
            }
        }
    }

    // Different groupings: ((0+1)+(2+3)) and (0+(1+(2+3))).
    let balanced = {
        let mut left = shards[0].clone();
        left.merge(shards[1].clone());
        let mut right = shards[2].clone();
        right.merge(shards[3].clone());
        left.merge(right);
        estimate_of(&left)
    };
    check(balanced, "balanced grouping");
    let right_deep = {
        let mut inner = shards[2].clone();
        inner.merge(shards[3].clone());
        let mut mid = shards[1].clone();
        mid.merge(inner);
        let mut out = shards[0].clone();
        out.merge(mid);
        estimate_of(&out)
    };
    check(right_deep, "right-deep grouping");
}

/// Merge permutation/associativity bit-identity for all four estimators.
#[test]
fn shard_merge_is_associative_and_order_insensitive() {
    check_merge_permutation_invariance("srs", &SrsEstimator);
    check_merge_permutation_invariance(
        "smlss",
        &SMlssConfig::new(
            PartitionPlan::new(vec![0.4, 0.7]).unwrap(),
            RunControl::budget(1),
        ),
    );
    // No-skip regime: the deterministic per-root-hit variance applies.
    // (With skips, g-MLSS τ̂ stays bit-identical but the *bootstrap*
    // variance resamples roots by index, which is intentionally
    // order-sensitive — see docs/serving.md.)
    check_merge_permutation_invariance(
        "gmlss",
        &GMlssConfig::new(
            PartitionPlan::new(vec![0.4, 0.7]).unwrap(),
            RunControl::budget(1),
        ),
    );
    check_merge_permutation_invariance("is", &IsEstimator::new(0.02));
}

/// The trait-level unbiasedness property the paper's Propositions 1–2
/// imply: every `Estimator` implementation must agree with the SRS
/// reference within statistical error. Checked at three seeds, with a
/// 5-relative-standard-error tolerance per comparison.
#[test]
fn all_four_estimators_agree_with_srs_within_5_rse() {
    let model = ClampWalk { up: 0.48 };
    let vf = clamp_vf();
    let problem = Problem::new(&model, &vf, 120);
    let budget = RunControl::budget(250_000);

    let smlss = SMlssConfig::new(
        PartitionPlan::new(vec![0.4, 0.7]).unwrap(),
        RunControl::budget(1), // superseded by the driver's control
    );
    let gmlss = GMlssConfig::new(
        PartitionPlan::new(vec![0.4, 0.7]).unwrap(),
        RunControl::budget(1),
    );
    let is = IsEstimator::new(0.02);

    for seed in [11u64, 12, 13] {
        // Independent SRS reference stream per seed.
        let reference = run_sequential(
            &SrsEstimator,
            problem,
            RunControl::budget(500_000),
            &mut rng_from_seed(seed ^ 0xA5A5_0000),
        )
        .estimate;
        assert!(reference.tau > 0.0, "reference run must observe hits");

        let check = |name: &str, est: Estimate| {
            let diff = (est.tau - reference.tau).abs();
            let tol = 5.0 * (est.variance.max(0.0) + reference.variance.max(0.0)).sqrt();
            assert!(
                diff <= tol.max(1e-3),
                "seed {seed}: {name} τ̂={} disagrees with SRS τ̂={} (diff {diff}, tol {tol})",
                est.tau,
                reference.tau
            );
            assert!((0.0..=1.0).contains(&est.tau), "{name}: τ̂ out of [0,1]");
        };

        check(
            "srs",
            run_sequential(&SrsEstimator, problem, budget, &mut rng_from_seed(seed)).estimate,
        );
        check(
            "smlss",
            run_sequential(&smlss, problem, budget, &mut rng_from_seed(seed + 100)).estimate,
        );
        check(
            "gmlss",
            run_sequential(&gmlss, problem, budget, &mut rng_from_seed(seed + 200)).estimate,
        );
        check(
            "is",
            run_sequential(&is, problem, budget, &mut rng_from_seed(seed + 300)).estimate,
        );
    }
}

/// All four estimators also run fanned out over a worker pool and still
/// agree with the sequential SRS reference.
#[test]
fn all_four_estimators_run_fanned_out_over_the_pool() {
    let pool = Scheduler::with_workers(2);
    let control = RunControl::budget(200_000);
    fn fanned<E>(pool: &Scheduler, estimator: E, control: RunControl) -> Estimate
    where
        E: Estimator<ClampWalk, ClampVf> + Send + 'static,
        E::Shard: Clone,
    {
        let model = ClampWalk { up: 0.48 };
        let job = EstimatorQuery::from_seed(model, clamp_vf(), 120, estimator, control, 77);
        pool.run(job.with_threads(2), 0, None).estimate
    }

    let model = ClampWalk { up: 0.48 };
    let vf = clamp_vf();
    let problem = Problem::new(&model, &vf, 120);
    let reference = run_sequential(
        &SrsEstimator,
        problem,
        RunControl::budget(500_000),
        &mut rng_from_seed(2024),
    )
    .estimate;

    let check = |name: &str, est: Estimate| {
        assert!(est.steps >= 200_000, "{name}: budget underrun");
        let diff = (est.tau - reference.tau).abs();
        let tol = 5.0 * (est.variance.max(0.0) + reference.variance.max(0.0)).sqrt();
        assert!(
            diff <= tol.max(5e-3),
            "{name} fanned out: τ̂={} vs SRS {}",
            est.tau,
            reference.tau
        );
    };

    check("srs", fanned(&pool, SrsEstimator, control));
    let smlss = SMlssConfig::new(
        PartitionPlan::new(vec![0.4, 0.7]).unwrap(),
        RunControl::budget(1),
    );
    check("smlss", fanned(&pool, smlss, control));
    let gmlss = GMlssConfig::new(
        PartitionPlan::new(vec![0.4, 0.7]).unwrap(),
        RunControl::budget(1),
    );
    check("gmlss", fanned(&pool, gmlss, control));
    check("is", fanned(&pool, IsEstimator::new(0.02), control));
}

/// Any valid plan yields a probability estimate and consistent counters
/// on a random walk (over a grid of plans × seeds × drifts).
#[test]
fn gmlss_estimate_is_probability() {
    let boundary_sets: [&[f64]; 4] = [
        &[0.5],
        &[0.25, 0.55],
        &[0.2, 0.4, 0.6, 0.8],
        &[0.1, 0.65, 0.9],
    ];
    for (i, bs) in boundary_sets.iter().enumerate() {
        for seed in [1u64, 77, 991] {
            let up = 0.25 + 0.05 * i as f64;
            let plan = PartitionPlan::new(bs.to_vec()).unwrap();
            let walk = RandomWalk::new(up, 0.45, 0).reflected();
            let vf = RatioValue::new(position_score, 8.0);
            let problem = Problem::new(&walk, &vf, 50);
            let cfg = GMlssConfig::new(plan, RunControl::budget(20_000));
            let res = GMlssSampler::new(cfg).run(problem, &mut rng_from_seed(seed));
            assert!((0.0..=1.0).contains(&res.estimate.tau));
            assert!(res.estimate.steps >= 20_000);
            for pi in &res.pi_hats {
                assert!((0.0..=1.0).contains(pi));
            }
            // Crossings bounded by r × landings at each level.
            for (c, l) in res.crossings.iter().zip(&res.landings) {
                assert!(*c <= 3 * *l);
            }
        }
    }
}

/// s-MLSS with r = 1 reduces exactly to the SRS estimator form.
#[test]
fn ratio_one_reduces_to_srs() {
    for seed in 0u64..20 {
        let walk = RandomWalk::new(0.35, 0.35, 0).reflected();
        let vf = RatioValue::new(position_score, 6.0);
        let problem = Problem::new(&walk, &vf, 40);
        let plan = PartitionPlan::new(vec![0.5]).unwrap();
        let cfg = SMlssConfig::new(plan, RunControl::budget(10_000)).with_ratio(1);
        let res = SMlssSampler::new(cfg).run(problem, &mut rng_from_seed(seed));
        let est = res.estimate;
        assert!(
            (est.tau - est.hits as f64 / est.n_roots as f64).abs() < 1e-15,
            "seed {seed}: r=1 estimator must be N_m/N_0"
        );
    }
}

/// Same seed ⇒ identical runs (full determinism across the stack).
#[test]
fn runs_are_deterministic() {
    for seed in [0u64, 3, 59, 140, 199] {
        let walk = RandomWalk::new(0.4, 0.42, 0).reflected();
        let vf = RatioValue::new(position_score, 7.0);
        let problem = Problem::new(&walk, &vf, 60);
        let plan = PartitionPlan::new(vec![0.3, 0.6]).unwrap();
        let run = |s| {
            let cfg = GMlssConfig::new(plan.clone(), RunControl::budget(15_000));
            GMlssSampler::new(cfg).run(problem, &mut rng_from_seed(s))
        };
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a.estimate.tau, b.estimate.tau);
        assert_eq!(a.estimate.steps, b.estimate.steps);
        assert_eq!(a.estimate.hits, b.estimate.hits);
    }
}

/// Hitting probability is monotone in the threshold (estimated with
/// enough budget that orderings hold with margin).
#[test]
fn estimates_monotone_in_threshold() {
    for seed in [7u64, 23, 41] {
        let walk = RandomWalk::new(0.40, 0.42, 0).reflected();
        let run_beta = |beta: f64| {
            let vf = RatioValue::new(position_score, beta);
            let problem = Problem::new(&walk, &vf, 80);
            let cfg = GMlssConfig::new(PartitionPlan::uniform(3), RunControl::budget(150_000));
            GMlssSampler::new(cfg)
                .run(problem, &mut rng_from_seed(seed))
                .estimate
                .tau
        };
        let lo = run_beta(4.0);
        let hi = run_beta(12.0);
        assert!(
            lo >= hi,
            "seed {seed}: τ(β=4)={lo} should be ≥ τ(β=12)={hi}"
        );
    }
}

/// The estimator trait's chunking is invisible: a chunked run and the
/// sequential sampler consume the same RNG stream and produce the same
/// counters.
#[test]
fn chunked_trait_run_matches_sampler_exactly() {
    let model = ClampWalk { up: 0.48 };
    let vf = clamp_vf();
    let problem = Problem::new(&model, &vf, 60);
    let plan = PartitionPlan::new(vec![0.5]).unwrap();
    let cfg = GMlssConfig::new(plan, RunControl::budget(30_000));

    let sampler = GMlssSampler::new(cfg.clone()).run(problem, &mut rng_from_seed(4));
    let trait_run = run_sequential(
        &cfg,
        problem,
        RunControl::budget(30_000),
        &mut rng_from_seed(4),
    );
    assert_eq!(sampler.estimate.steps, trait_run.estimate.steps);
    assert_eq!(sampler.estimate.hits, trait_run.estimate.hits);
    assert_eq!(sampler.estimate.tau, trait_run.estimate.tau);
}
