//! Bit-identity across frontier widths: the frontier's defining property.
//!
//! Every chunk (`Estimator::run_chunk` and everything built on it) runs
//! root `k` on stream `k` of the run key and commits roots in index
//! order, so the committed shard is a pure function of the run key, the
//! root cursor and the budget — **independent of the frontier width** and
//! of whether the model runs its native batch kernel or the scalar→batch
//! adapter. These tests pin that property end to end:
//!
//! * every estimator (SRS, s-MLSS, g-MLSS, IS) produces bit-identical
//!   shards at widths {1, 7, 64};
//! * a native batch kernel (compound-Poisson) and the
//!   [`ScalarAdapter`]-forced scalar loop produce bit-identical shards;
//! * a checkpoint cut mid-run (between frontier chunks — chunks always
//!   drain their frontier, so shard + cursor is the complete state) resumes
//!   to the same estimate, both through the sequential driver and
//!   through a scheduler pause/detach/resubmit cycle;
//! * `StepCounter` meters a batch of `k` alive lanes as exactly `k`
//!   invocations of `g`.

use durability_mlss::models::{
    ar_value_score, surplus_score, ArModel, CompoundPoisson, GeometricBrownian, RandomWalk,
};
use mlss_core::estimator::{run_sequential_batched, run_sequential_from};
use mlss_core::is::IsEstimator;
use mlss_core::prelude::*;
use mlss_core::smlss::SMlssConfig;

const WIDTHS: [usize; 3] = [1, 7, 64];

type CppVf = RatioValue<fn(&f64) -> f64>;

fn cpp_vf(beta: f64) -> CppVf {
    RatioValue::new(surplus_score as fn(&f64) -> f64, beta)
}

type ArVf = RatioValue<fn(&durability_mlss::models::ArState) -> f64>;

fn ar_vf(beta: f64) -> ArVf {
    RatioValue::new(
        ar_value_score as fn(&durability_mlss::models::ArState) -> f64,
        beta,
    )
}

/// Signature of a finished run: counters, point estimate bits, variance
/// bits (final estimate evaluated on a fixed fresh RNG), and the master
/// RNG's post-chunk position.
fn signature<M, V, E>(
    estimator: &E,
    problem: Problem<'_, M, V>,
    budget: u64,
    seed: u64,
    width: usize,
) -> (u64, u64, u64, u64, u64, u64)
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
    E: Estimator<M, V>,
{
    let mut roots = RootCursor::new(seed);
    let mut shard = estimator.shard();
    estimator.run_chunk(problem, &mut shard, budget, &mut roots, width);
    let est = estimator.estimate(&shard, &mut rng_from_seed(0));
    (
        shard.steps(),
        shard.n_roots(),
        est.hits,
        est.tau.to_bits(),
        est.variance.to_bits(),
        roots.next,
    )
}

fn check_widths<M, V, E>(name: &str, estimator: &E, problem: Problem<'_, M, V>, budget: u64)
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
    E: Estimator<M, V>,
{
    let reference = signature(estimator, problem, budget, 9, WIDTHS[0]);
    for &w in &WIDTHS[1..] {
        let sig = signature(estimator, problem, budget, 9, w);
        assert_eq!(reference, sig, "{name}: width {w} diverged from width 1");
    }
}

#[test]
fn srs_is_bit_identical_across_widths() {
    let model = CompoundPoisson::zero_drift_default();
    let v = cpp_vf(40.0);
    check_widths("srs", &SrsEstimator, Problem::new(&model, &v, 80), 60_000);
}

#[test]
fn smlss_is_bit_identical_across_widths() {
    let model = CompoundPoisson::zero_drift_default();
    let v = cpp_vf(40.0);
    let cfg = SMlssConfig::new(
        PartitionPlan::new(vec![0.4, 0.7]).unwrap(),
        RunControl::budget(1),
    );
    check_widths("smlss", &cfg, Problem::new(&model, &v, 80), 60_000);
}

#[test]
fn gmlss_is_bit_identical_across_widths() {
    // CPP jumps skip levels, so this exercises skip events, the ledger,
    // and the bootstrap-bearing shard under reordering.
    let model = CompoundPoisson::zero_drift_default();
    let v = cpp_vf(40.0);
    // Boundaries 4 surplus units apart: the +6/step premium can cross
    // two at once, so level skips genuinely occur.
    let mut cfg = GMlssConfig::new(
        PartitionPlan::new(vec![0.4, 0.5]).unwrap(),
        RunControl::budget(1),
    );
    cfg.keep_ledger = true;
    let problem = Problem::new(&model, &v, 80);
    check_widths("gmlss", &cfg, problem, 60_000);

    // The per-root ledger must match record-for-record, not just in
    // aggregate — bootstrap resampling replays it by index.
    let run_ledger = |width: usize| {
        let mut shard = mlss_core::estimator::shard_for(&cfg, &problem);
        cfg.run_chunk(problem, &mut shard, 40_000, &mut RootCursor::new(5), width);
        assert!(shard.skip_events > 0, "test requires observed skipping");
        let n = shard.ledger.n_roots();
        let hits: Vec<u32> = (0..n).map(|i| shard.ledger.root_hits(i)).collect();
        (n, hits, shard.ledger.aggregate())
    };
    let (n1, hits1, agg1) = run_ledger(1);
    let (n64, hits64, agg64) = run_ledger(64);
    assert_eq!(n1, n64);
    assert_eq!(hits1, hits64, "per-root ledger order must match");
    assert_eq!(agg1, agg64);
}

#[test]
fn is_estimator_is_bit_identical_across_widths() {
    // ar's tilted stepping now runs a native batched kernel too.
    let model = ArModel::ar1(0.6, 1.0, 0.0);
    let v = ar_vf(6.0);
    check_widths(
        "is",
        &IsEstimator::new(0.4),
        Problem::new(&model, &v, 60),
        50_000,
    );
}

#[test]
fn is_estimator_is_bit_identical_across_widths_on_native_tilted_kernels() {
    // The PR-5 native `step_tilted_batch` kernels (cpp, walk, gbm on the
    // vectorized draw pipeline): the IS estimator must stay a pure
    // function of (run key, budget) at every width.
    let cpp = CompoundPoisson::zero_drift_default();
    let v = cpp_vf(40.0);
    check_widths(
        "is/cpp",
        &IsEstimator::new(0.3),
        Problem::new(&cpp, &v, 80),
        50_000,
    );

    let walk = RandomWalk::new(0.3, 0.3, 0);
    type WalkVf = RatioValue<fn(&i64) -> f64>;
    fn walk_score(s: &i64) -> f64 {
        *s as f64
    }
    let wv: WalkVf = RatioValue::new(walk_score as fn(&i64) -> f64, 10.0);
    check_widths(
        "is/walk",
        &IsEstimator::new(0.4),
        Problem::new(&walk, &wv, 60),
        50_000,
    );

    let gbm = GeometricBrownian::goog_like();
    let gv = cpp_vf(600.0);
    check_widths(
        "is/gbm",
        &IsEstimator::new(0.6),
        Problem::new(&gbm, &gv, 50),
        50_000,
    );
}

#[test]
fn is_mid_run_checkpoint_resumes_to_the_same_estimate() {
    // Satellite: the one estimator the resume tests used to exercise
    // only through the adapter — cut a checkpoint between batched IS
    // chunks on a native tilted kernel and resume through the batched
    // sequential driver.
    let model = CompoundPoisson::zero_drift_default();
    let v = cpp_vf(40.0);
    let problem = Problem::new(&model, &v, 80);
    let control = RunControl::budget(90_000);
    let est = IsEstimator::new(0.3);

    let whole = run_sequential_batched(&est, problem, control, &mut rng_from_seed(21), 32);

    let mut run = RunCursor::from_rng(&mut rng_from_seed(21));
    let mut checkpoint = <IsEstimator as Estimator<CompoundPoisson, CppVf>>::shard(&est);
    est.run_chunk(problem, &mut checkpoint, 30_000, &mut run.roots, 32);
    assert!(checkpoint.steps() > 0 && checkpoint.steps() < 90_000);
    let resumed = run_sequential_from(&est, problem, control, run, checkpoint, 32);

    assert_eq!(whole.estimate.steps, resumed.estimate.steps);
    assert_eq!(whole.estimate.n_roots, resumed.estimate.n_roots);
    assert_eq!(whole.estimate.hits, resumed.estimate.hits);
    assert_eq!(whole.estimate.tau.to_bits(), resumed.estimate.tau.to_bits());
}

#[test]
fn is_scheduler_batched_slices_match_sequential_and_survive_detach() {
    // IS through the scheduler on a native tilted kernel, with a
    // pause/detach/resubmit cycle mid-run — bit-identical to one
    // uninterrupted batched sequential run.
    let model = CompoundPoisson::zero_drift_default();
    let v = cpp_vf(40.0);
    let problem = Problem::new(&model, &v, 80);
    let control = RunControl::budget(120_000);
    let seed = 33u64;
    let width = 16usize;
    let est = IsEstimator::new(0.3);

    let seq = run_sequential_batched(
        &est,
        problem,
        control,
        &mut StreamFactory::new(seed).stream(0),
        width,
    )
    .estimate;

    let sched = Scheduler::new(SchedulerConfig {
        workers: 1,
        slice_budget: 10_000,
        max_retries: 0,
        batch_width: width,
        tenant_weights: Vec::new(),
    });
    let id = sched.submit(
        CompoundPoisson::zero_drift_default(),
        cpp_vf(40.0),
        80,
        est,
        control,
        seed,
        0,
    );
    loop {
        let p = sched.progress(id).unwrap();
        if p.steps > 0 {
            break;
        }
        std::thread::yield_now();
    }
    sched.pause(id);
    loop {
        if matches!(sched.progress(id).unwrap().status, QueryStatus::Paused) {
            break;
        }
        std::thread::yield_now();
    }
    let job = sched.detach(id).expect("paused job detaches");
    let mid_steps = job.steps();
    assert!(mid_steps > 0 && mid_steps < 120_000, "checkpoint mid-run");
    let id2 = sched.submit_query(job, 0);
    let est_out = *sched.wait(id2).unwrap().estimate().unwrap();

    assert_eq!(est_out.steps, seq.steps);
    assert_eq!(est_out.n_roots, seq.n_roots);
    assert_eq!(est_out.hits, seq.hits);
    assert_eq!(est_out.tau.to_bits(), seq.tau.to_bits());
}

#[test]
fn native_kernel_and_scalar_adapter_agree() {
    // Same estimator, same seed: the model's native batch kernel vs the
    // adapter-forced scalar loop must produce bit-identical shards.
    let native_model = CompoundPoisson::zero_drift_default();
    let adapter_model = ScalarAdapter(CompoundPoisson::zero_drift_default());
    let v = cpp_vf(40.0);
    let cfg = GMlssConfig::new(
        PartitionPlan::new(vec![0.4, 0.7]).unwrap(),
        RunControl::budget(1),
    );
    let native = signature(&cfg, Problem::new(&native_model, &v, 80), 50_000, 3, 64);
    let adapted = signature(&cfg, Problem::new(&adapter_model, &v, 80), 50_000, 3, 64);
    assert_eq!(native, adapted, "native kernel diverged from adapter");
}

#[test]
fn mid_run_checkpoint_resumes_to_the_same_estimate() {
    // Cut a checkpoint between wide chunks and resume through the
    // sequential driver: identical to the uninterrupted run.
    let model = CompoundPoisson::zero_drift_default();
    let v = cpp_vf(40.0);
    let problem = Problem::new(&model, &v, 80);
    let control = RunControl::budget(90_000);

    let whole = run_sequential_batched(&SrsEstimator, problem, control, &mut rng_from_seed(11), 32);

    let mut run = RunCursor::from_rng(&mut rng_from_seed(11));
    let mut checkpoint = <SrsEstimator as Estimator<CompoundPoisson, CppVf>>::shard(&SrsEstimator);
    SrsEstimator.run_chunk(problem, &mut checkpoint, 30_000, &mut run.roots, 32);
    assert!(checkpoint.steps() > 0 && checkpoint.steps() < 90_000);
    let resumed = run_sequential_from(&SrsEstimator, problem, control, run, checkpoint, 32);

    assert_eq!(whole.estimate.steps, resumed.estimate.steps);
    assert_eq!(whole.estimate.n_roots, resumed.estimate.n_roots);
    assert_eq!(whole.estimate.hits, resumed.estimate.hits);
    assert_eq!(whole.estimate.tau.to_bits(), resumed.estimate.tau.to_bits());
}

#[test]
fn scheduler_batched_slices_match_sequential_and_survive_detach() {
    // A batched query sliced by the scheduler — including a pause /
    // detach (the checkpoint) / resubmit cycle in the middle — must be
    // bit-identical to one uninterrupted batched sequential run.
    let model = CompoundPoisson::zero_drift_default();
    let v = cpp_vf(40.0);
    let problem = Problem::new(&model, &v, 80);
    let control = RunControl::budget(120_000);
    let seed = 17u64;
    let width = 16usize;

    let seq = run_sequential_batched(
        &SrsEstimator,
        problem,
        control,
        &mut StreamFactory::new(seed).stream(0),
        width,
    )
    .estimate;

    let sched = Scheduler::new(SchedulerConfig {
        workers: 1,
        slice_budget: 10_000,
        max_retries: 0,
        batch_width: width,
        tenant_weights: Vec::new(),
    });
    let id = sched.submit(
        CompoundPoisson::zero_drift_default(),
        cpp_vf(40.0),
        80,
        SrsEstimator,
        control,
        seed,
        0,
    );
    // Let it progress, then checkpoint mid-flight.
    loop {
        let p = sched.progress(id).unwrap();
        if p.steps > 0 {
            break;
        }
        std::thread::yield_now();
    }
    sched.pause(id);
    loop {
        if matches!(sched.progress(id).unwrap().status, QueryStatus::Paused) {
            break;
        }
        std::thread::yield_now();
    }
    let job = sched.detach(id).expect("paused job detaches");
    let mid_steps = job.steps();
    assert!(mid_steps > 0 && mid_steps < 120_000, "checkpoint mid-run");
    let id2 = sched.submit_query(job, 0);
    let est = *sched.wait(id2).unwrap().estimate().unwrap();

    assert_eq!(est.steps, seq.steps);
    assert_eq!(est.n_roots, seq.n_roots);
    assert_eq!(est.hits, seq.hits);
    assert_eq!(est.tau.to_bits(), seq.tau.to_bits());
}

#[test]
fn budget_boundary_clamps_the_final_cohort_width() {
    // Satellite: when the remaining budget pays for fewer roots than the
    // configured width, the batched sequential driver narrows the cohort
    // instead of launching a full frontier of doomed speculation. The
    // StepCounter meters all launched work (committed + discarded); the
    // clamp must cut the discarded share without perturbing the
    // committed shard — results stay bit-identical across widths.
    let budget = 2_000u64;
    let width = 64usize;
    let counted = StepCounter::new(CompoundPoisson::zero_drift_default());
    let v = cpp_vf(40.0);
    let problem = Problem::new(&counted, &v, 80);

    // Unclamped baseline: a raw chunk at width 64 launches the full
    // cohort even though the budget pays for ~25 roots of horizon 80.
    let mut raw =
        <SrsEstimator as Estimator<StepCounter<CompoundPoisson>, CppVf>>::shard(&SrsEstimator);
    SrsEstimator.run_chunk(
        problem,
        &mut raw,
        budget,
        &mut RootCursor::from_rng(&mut rng_from_seed(7)),
        width,
    );
    let raw_speculation = counted.steps() - raw.steps();

    // The driver clamps the launch width to ⌈budget / per_root⌉.
    counted.reset();
    let driven = run_sequential_batched(
        &SrsEstimator,
        problem,
        RunControl::budget(budget),
        &mut rng_from_seed(7),
        width,
    );
    let driven_speculation = counted.steps() - driven.shard.steps();

    assert_eq!(
        driven.shard.steps(),
        raw.steps(),
        "clamp must not change committed work"
    );
    assert!(
        driven_speculation < raw_speculation,
        "clamped cohort must speculate less: {driven_speculation} vs {raw_speculation}"
    );

    // And the clamped run stays bit-identical to the width-1 run.
    let model = CompoundPoisson::zero_drift_default();
    let plain = Problem::new(&model, &v, 80);
    let narrow = run_sequential_batched(
        &SrsEstimator,
        plain,
        RunControl::budget(budget),
        &mut rng_from_seed(7),
        1,
    );
    let wide = run_sequential_batched(
        &SrsEstimator,
        plain,
        RunControl::budget(budget),
        &mut rng_from_seed(7),
        width,
    );
    assert_eq!(narrow.estimate.steps, wide.estimate.steps);
    assert_eq!(narrow.estimate.n_roots, wide.estimate.n_roots);
    assert_eq!(narrow.estimate.hits, wide.estimate.hits);
    assert_eq!(narrow.estimate.tau.to_bits(), wide.estimate.tau.to_bits());
}

#[test]
fn step_counter_meters_batches_exactly() {
    let counted = StepCounter::new(CompoundPoisson::zero_drift_default());
    let mut lanes: Vec<f64> = (0..8).map(|_| counted.initial_state()).collect();
    let ts: Vec<Time> = vec![1; 8];
    let mut rngs: Vec<SimRng> = (0..8).map(rng_from_seed).collect();

    // A batch of 5 alive lanes counts exactly 5 invocations of g.
    counted.step_batch(&mut lanes, &ts, &mut rngs, &[0, 2, 3, 5, 7]);
    assert_eq!(counted.steps(), 5);
    counted.step_batch(&mut lanes, &ts, &mut rngs, &[1, 4]);
    assert_eq!(counted.steps(), 7);
    counted.step_batch(&mut lanes, &ts, &mut rngs, &[]);
    assert_eq!(counted.steps(), 7);

    // Through a whole width-1 chunk the meter equals the shard's
    // committed step count exactly (no speculation at width 1).
    counted.reset();
    let v = cpp_vf(40.0);
    let problem = Problem::new(&counted, &v, 80);
    let mut shard =
        <SrsEstimator as Estimator<StepCounter<CompoundPoisson>, CppVf>>::shard(&SrsEstimator);
    SrsEstimator.run_chunk(problem, &mut shard, 20_000, &mut RootCursor::new(2), 1);
    assert_eq!(counted.steps(), shard.steps());

    // At width 64 the meter may additionally count discarded speculative
    // work at the chunk boundary, but never less than what committed.
    counted.reset();
    let mut shard64 =
        <SrsEstimator as Estimator<StepCounter<CompoundPoisson>, CppVf>>::shard(&SrsEstimator);
    SrsEstimator.run_chunk(problem, &mut shard64, 20_000, &mut RootCursor::new(2), 64);
    assert!(counted.steps() >= shard64.steps());
    assert_eq!(shard64.steps(), shard.steps(), "widths agree on the shard");
}
