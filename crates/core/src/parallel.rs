//! Parallel sampling driver (§3.1 "Parallel Computations"), generic over
//! any [`Estimator`].
//!
//! Root paths are independent, so every sampler in this crate
//! parallelizes the same way: shard roots over worker threads,
//! periodically reduce the shards, and stop once the merged estimate
//! reaches the requested quality (or the merged budget is spent).
//!
//! ### Sharded reduction (vs. the old single-mutex merge)
//!
//! Earlier versions funneled every worker through one global mutex after
//! every chunk, serializing all workers on the merge (and, in target
//! mode, on bootstrap variance evaluations performed *inside* the lock).
//! The driver now keeps one deposit slot per worker: after each chunk a
//! worker folds its freshly sampled shard into its own slot — contended
//! only with the occasional reducer, never with other workers — and the
//! stopping check is performed by whichever worker first crosses the next
//! check boundary *and* wins a `try_lock` on the master accumulator; it
//! drains all slots, merges, and evaluates the stopping rule. Losers
//! don't wait: they grow their chunk (adaptive `sync_every`) and keep
//! simulating, so merge contention translates into coarser sync instead
//! of idle workers.
//!
//! Each worker owns an independent ChaCha stream, so the random numbers
//! are reproducible per worker; the *amount* of work each worker
//! contributes depends on OS scheduling, so totals vary slightly across
//! runs (the estimates agree statistically).

use crate::bootstrap::RootLedger;
use crate::estimate::Estimate;
use crate::estimator::{Estimator, Ledger};
use crate::gmlss::GMlssConfig;
use crate::model::SimulationModel;
use crate::quality::{QualityTarget, RunControl};
use crate::query::{Problem, ValueFunction};
use crate::rng::{rng_from_seed, StreamFactory};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Configuration of a parallel run.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Worker thread count (≥ 1).
    pub threads: usize,
    /// Baseline `g` invocations per worker chunk between merge attempts.
    /// The first chunk is clamped to `budget / threads` so short runs
    /// still get mid-run stopping checks, and chunks grow adaptively when
    /// merges are contended.
    pub sync_every: u64,
    /// Master seed; worker `k` draws stream `k`.
    pub seed: u64,
    /// Bootstrap resamples used by the g-MLSS compatibility wrappers'
    /// final variance ([`run_parallel_gmlss`]).
    pub bootstrap_resamples: usize,
    /// Frontier width for each worker's chunks (default 1; bit-identical
    /// across widths, so this knob only changes speed).
    /// [`crate::width::AUTO_WIDTH`] is accepted and runs at the static
    /// fallback width — resolve it upstream (per-model) for the real
    /// adaptive pick.
    pub batch_width: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            sync_every: 65_536,
            seed: 0,
            bootstrap_resamples: 200,
            batch_width: 1,
        }
    }
}

/// Result of a generic parallel run.
#[derive(Debug)]
pub struct ParallelRun<L> {
    /// Merged estimate.
    pub estimate: Estimate,
    /// The fully merged shard (estimator-specific diagnostics live here).
    pub shard: L,
    /// Wall-clock time of the whole parallel region.
    pub elapsed: std::time::Duration,
    /// Number of worker threads used.
    pub threads: usize,
    /// Successful master merges (stopping checks performed).
    pub merges: u64,
    /// Merge attempts that lost the `try_lock` race and grew their chunk.
    pub contended_merges: u64,
}

/// Result of a parallel g-MLSS run (compatibility shape: the merged
/// ledger and skip counter are hoisted out of the shard).
#[derive(Debug)]
pub struct ParallelResult {
    /// Merged estimate.
    pub estimate: Estimate,
    /// Total level-skip events across workers.
    pub skip_events: u64,
    /// The merged per-root ledger.
    pub ledger: RootLedger,
    /// Wall-clock time of the whole parallel region.
    pub elapsed: std::time::Duration,
    /// Number of worker threads used.
    pub threads: usize,
}

/// First-chunk size: `sync_every`, clamped so all `threads` workers
/// together stay within the run's step bound. Without the clamp a budget
/// below `sync_every` would receive zero mid-run stopping checks and
/// overshoot by up to `threads × sync_every` steps.
fn first_chunk(control: &RunControl, cfg: &ParallelConfig) -> u64 {
    let bound = match control {
        RunControl::Budget(b) => *b,
        RunControl::Target { max_steps, .. } => *max_steps,
    };
    let per_thread = (bound / cfg.threads.max(1) as u64).max(1);
    cfg.sync_every.max(1).min(per_thread)
}

/// Run any [`Estimator`] across threads until `control` is satisfied on
/// the *merged* state.
pub fn run_parallel<M, V, E>(
    problem: Problem<'_, M, V>,
    estimator: &E,
    control: RunControl,
    cfg: &ParallelConfig,
) -> ParallelRun<E::Shard>
where
    M: SimulationModel + Sync,
    M::State: Send,
    V: ValueFunction<M::State> + Sync,
    E: Estimator<M, V> + Sync,
    E::Shard: Send,
{
    run_parallel_from(problem, estimator, control, cfg, estimator.shard())
}

/// Resume a parallel run from a previously accumulated shard (a
/// checkpoint produced by an earlier parallel, sequential, or scheduler
/// run — all three produce the same mergeable shard type). The resumed
/// shard's steps count toward `control`: a run checkpointed at 10M steps
/// and resumed under a 30M budget simulates 20M more, and target mode
/// evaluates quality over the combined pool.
///
/// Worker streams are derived from `(cfg.seed, resumed steps)` rather
/// than `cfg.seed` alone: resuming a checkpoint with the *same* seed
/// that produced it must not replay the sample paths already committed
/// in the shard (that would double-count them and bias the estimate).
/// An empty initial shard leaves the streams identical to
/// [`run_parallel`].
pub fn run_parallel_from<M, V, E>(
    problem: Problem<'_, M, V>,
    estimator: &E,
    control: RunControl,
    cfg: &ParallelConfig,
    initial: E::Shard,
) -> ParallelRun<E::Shard>
where
    M: SimulationModel + Sync,
    M::State: Send,
    V: ValueFunction<M::State> + Sync,
    E: Estimator<M, V> + Sync,
    E::Shard: Send,
{
    assert!(cfg.threads >= 1);
    let start = std::time::Instant::now();
    let base_chunk = first_chunk(&control, cfg);
    let check_stride = base_chunk.saturating_mul(cfg.threads as u64).max(1);

    let resumed_steps = initial.steps();
    // Fresh streams on resume (see doc comment); bit-compatible with the
    // original seeding when nothing was resumed.
    let stream_seed = if resumed_steps == 0 {
        cfg.seed
    } else {
        cfg.seed ^ resumed_steps.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    };
    let streams = StreamFactory::new(stream_seed);
    let bound = match control {
        RunControl::Budget(b) => b,
        RunControl::Target { max_steps, .. } => max_steps,
    };
    if resumed_steps >= bound {
        // The checkpoint already satisfies the step bound: don't spin up
        // workers that would each overshoot by one minimum-size chunk.
        let mut final_rng = rng_from_seed(cfg.seed ^ 0xD1B5_4A32_D192_ED03);
        let estimate = estimator.estimate(&initial, &mut final_rng);
        return ParallelRun {
            estimate,
            shard: initial,
            elapsed: start.elapsed(),
            threads: cfg.threads,
            merges: 0,
            contended_merges: 0,
        };
    }
    let slots: Vec<Mutex<Option<E::Shard>>> = (0..cfg.threads).map(|_| Mutex::new(None)).collect();
    let master: Mutex<E::Shard> = Mutex::new(initial);
    let done = AtomicBool::new(false);
    let total_steps = AtomicU64::new(resumed_steps);
    let next_check = AtomicU64::new(check_stride);
    let merges = AtomicU64::new(0);
    let contended = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for worker in 0..cfg.threads {
            let slots = &slots;
            let master = &master;
            let done = &done;
            let total_steps = &total_steps;
            let next_check = &next_check;
            let merges = &merges;
            let contended = &contended;
            scope.spawn(move || {
                let mut rng = streams.stream(worker as u64);
                let mut chunk = base_chunk;
                loop {
                    if done.load(Ordering::Acquire) {
                        return;
                    }
                    // In budget mode, never start a chunk larger than a
                    // fair share of what is left.
                    if let RunControl::Budget(b) = control {
                        let total = total_steps.load(Ordering::Relaxed);
                        let fair = (b.saturating_sub(total) / cfg.threads as u64).max(1);
                        chunk = chunk.min(fair);
                    }

                    let mut pending = estimator.shard();
                    // Defense in depth: an unresolved `batch_width=auto`
                    // sentinel runs at the static fallback width.
                    let width = crate::width::effective(cfg.batch_width);
                    let outcome =
                        estimator.run_chunk(problem, &mut pending, chunk, &mut rng, width);

                    // Deposit into this worker's slot — contended only
                    // with a reducer draining it, never with peers.
                    {
                        let mut slot = slots[worker].lock();
                        match slot.take() {
                            Some(mut held) => {
                                held.merge(pending);
                                *slot = Some(held);
                            }
                            None => *slot = Some(pending),
                        }
                    }
                    let total =
                        total_steps.fetch_add(outcome.steps, Ordering::AcqRel) + outcome.steps;

                    match control {
                        RunControl::Budget(budget) => {
                            if total < budget {
                                continue;
                            }
                            // Budget exhausted: stop — become the finisher
                            // or wait for one (no further chunks).
                            loop {
                                if done.load(Ordering::Acquire) {
                                    return;
                                }
                                if let Some(mut m) = master.try_lock() {
                                    drain_slots(slots, &mut m);
                                    merges.fetch_add(1, Ordering::Relaxed);
                                    done.store(true, Ordering::Release);
                                    return;
                                }
                                std::thread::yield_now();
                            }
                        }
                        RunControl::Target {
                            target, max_steps, ..
                        } => {
                            if total >= max_steps {
                                // Hard valve reached: stop now — become
                                // the finisher or wait for one. Never
                                // simulate past the valve (a lost
                                // try_lock must not grow the chunk and
                                // keep going).
                                loop {
                                    if done.load(Ordering::Acquire) {
                                        return;
                                    }
                                    if let Some(mut m) = master.try_lock() {
                                        drain_slots(slots, &mut m);
                                        merges.fetch_add(1, Ordering::Relaxed);
                                        done.store(true, Ordering::Release);
                                        return;
                                    }
                                    std::thread::yield_now();
                                }
                            }
                            if total < next_check.load(Ordering::Acquire) {
                                continue;
                            }
                            match master.try_lock() {
                                Some(mut m) => {
                                    drain_slots(slots, &mut m);
                                    merges.fetch_add(1, Ordering::Relaxed);
                                    let est = estimator.check_estimate(&mut m, &mut rng);
                                    if target.satisfied(&est) {
                                        done.store(true, Ordering::Release);
                                        return;
                                    }
                                    next_check.store(
                                        total.saturating_add(check_stride),
                                        Ordering::Release,
                                    );
                                }
                                None => {
                                    // Another worker is reducing; grow our
                                    // chunk so merge pressure drops.
                                    contended.fetch_add(1, Ordering::Relaxed);
                                    chunk = chunk.saturating_mul(2).min(base_chunk * 16).max(1);
                                }
                            }
                        }
                    }
                }
            });
        }
    });

    let mut shard = master.into_inner();
    drain_slots(&slots, &mut shard);
    let mut final_rng = rng_from_seed(cfg.seed ^ 0xD1B5_4A32_D192_ED03);
    let estimate = estimator.estimate(&shard, &mut final_rng);
    ParallelRun {
        estimate,
        shard,
        elapsed: start.elapsed(),
        threads: cfg.threads,
        merges: merges.into_inner(),
        contended_merges: contended.into_inner(),
    }
}

/// Merge every deposited slot shard into `into`.
fn drain_slots<L: Ledger>(slots: &[Mutex<Option<L>>], into: &mut L) {
    for slot in slots {
        if let Some(shard) = slot.lock().take() {
            into.merge(shard);
        }
    }
}

/// Run g-MLSS in parallel until `control` is satisfied on the *merged*
/// state. `base` supplies the plan/ratio/variance policy; its own
/// `control` is ignored. Compatibility wrapper over the generic
/// [`run_parallel`].
pub fn run_parallel_gmlss<M, V>(
    problem: Problem<'_, M, V>,
    base: &GMlssConfig,
    control: RunControl,
    cfg: &ParallelConfig,
) -> ParallelResult
where
    M: SimulationModel + Sync,
    M::State: Send,
    V: ValueFunction<M::State> + Sync,
{
    let mut estimator = base.clone();
    estimator.keep_ledger = true; // the merged ledger is part of the result
    estimator.bootstrap_resamples = cfg.bootstrap_resamples.max(2);
    let run = run_parallel(problem, &estimator, control, cfg);
    ParallelResult {
        estimate: run.estimate,
        skip_events: run.shard.skip_events,
        ledger: run.shard.ledger,
        elapsed: run.elapsed,
        threads: run.threads,
    }
}

/// Convenience: parallel g-MLSS run to a quality target with default
/// knobs.
pub fn run_parallel_to_target<M, V>(
    problem: Problem<'_, M, V>,
    base: &GMlssConfig,
    target: QualityTarget,
    threads: usize,
    seed: u64,
) -> ParallelResult
where
    M: SimulationModel + Sync,
    M::State: Send,
    V: ValueFunction<M::State> + Sync,
{
    let cfg = ParallelConfig {
        threads,
        seed,
        ..Default::default()
    };
    run_parallel_gmlss(problem, base, RunControl::until(target), &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmlss::GMlssSampler;
    use crate::levels::PartitionPlan;
    use crate::model::Time;
    use crate::query::RatioValue;
    use crate::rng::SimRng;
    use crate::smlss::SMlssConfig;
    use crate::srs::SrsEstimator;
    use rand::RngExt;

    struct Walk;

    impl SimulationModel for Walk {
        type State = f64;

        fn initial_state(&self) -> f64 {
            0.0
        }

        fn step(&self, s: &f64, _t: Time, rng: &mut SimRng) -> f64 {
            (s + if rng.random::<f64>() < 0.48 {
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
    fn parallel_budget_run_merges_workers() {
        let model = Walk;
        let v = vf();
        let problem = Problem::new(&model, &v, 100);
        let base = GMlssConfig::new(
            PartitionPlan::new(vec![0.4, 0.7]).unwrap(),
            RunControl::budget(1), // ignored
        );
        let cfg = ParallelConfig {
            threads: 4,
            sync_every: 20_000,
            seed: 7,
            bootstrap_resamples: 50,
            batch_width: 1,
        };
        let res = run_parallel_gmlss(problem, &base, RunControl::budget(400_000), &cfg);
        assert!(res.estimate.steps >= 400_000);
        assert_eq!(res.ledger.n_roots() as u64, res.estimate.n_roots);
        assert!(res.estimate.tau > 0.0, "walk does hit sometimes");
        assert!(res.estimate.variance.is_finite());
    }

    #[test]
    fn parallel_matches_sequential_estimate() {
        let model = Walk;
        let v = vf();
        let problem = Problem::new(&model, &v, 100);
        let plan = PartitionPlan::new(vec![0.4, 0.7]).unwrap();

        let seq_cfg = GMlssConfig::new(plan.clone(), RunControl::budget(600_000));
        let seq = GMlssSampler::new(seq_cfg).run(problem, &mut crate::rng::rng_from_seed(3));

        let base = GMlssConfig::new(plan, RunControl::budget(1));
        let cfg = ParallelConfig {
            threads: 3,
            sync_every: 50_000,
            seed: 11,
            bootstrap_resamples: 50,
            batch_width: 1,
        };
        let par = run_parallel_gmlss(problem, &base, RunControl::budget(600_000), &cfg);

        let diff = (seq.estimate.tau - par.estimate.tau).abs();
        let tol = 4.0 * (seq.estimate.variance.max(0.0) + par.estimate.variance.max(0.0)).sqrt();
        assert!(
            diff <= tol.max(1e-3),
            "sequential {} vs parallel {}",
            seq.estimate.tau,
            par.estimate.tau
        );
    }

    #[test]
    fn parallel_runs_agree_statistically() {
        let model = Walk;
        let v = vf();
        let problem = Problem::new(&model, &v, 60);
        let base = GMlssConfig::new(
            PartitionPlan::new(vec![0.5]).unwrap(),
            RunControl::budget(1),
        );
        let cfg = ParallelConfig {
            threads: 2,
            sync_every: 10_000,
            seed: 42,
            bootstrap_resamples: 50,
            batch_width: 1,
        };
        // Worker *streams* are seed-deterministic, but chunk scheduling is
        // not, so repeated runs agree statistically rather than exactly.
        let a = run_parallel_gmlss(problem, &base, RunControl::budget(100_000), &cfg);
        let b = run_parallel_gmlss(problem, &base, RunControl::budget(100_000), &cfg);
        let diff = (a.estimate.tau - b.estimate.tau).abs();
        let tol = 5.0 * (a.estimate.variance.max(0.0) + b.estimate.variance.max(0.0)).sqrt();
        assert!(
            diff <= tol.max(5e-3),
            "runs disagree: {} vs {}",
            a.estimate.tau,
            b.estimate.tau
        );
        assert!(a.estimate.steps >= 100_000 && b.estimate.steps >= 100_000);
    }

    #[test]
    fn single_thread_parallel_works() {
        let model = Walk;
        let v = vf();
        let problem = Problem::new(&model, &v, 40);
        let base = GMlssConfig::new(PartitionPlan::trivial(), RunControl::budget(1));
        let cfg = ParallelConfig {
            threads: 1,
            sync_every: 5_000,
            seed: 1,
            bootstrap_resamples: 20,
            batch_width: 1,
        };
        let res = run_parallel_gmlss(problem, &base, RunControl::budget(20_000), &cfg);
        assert!(res.estimate.steps >= 20_000);
    }

    #[test]
    fn short_budget_first_chunk_is_clamped() {
        // Regression test: budget far below sync_every must not overshoot
        // by threads × sync_every. With the clamp, the first chunk is
        // budget/threads and the run stops within one chunk of the budget.
        let model = Walk;
        let v = vf();
        let problem = Problem::new(&model, &v, 50);
        let budget = 10_000;
        let cfg = ParallelConfig {
            threads: 4,
            sync_every: 65_536, // silent foot-gun before the clamp
            seed: 5,
            bootstrap_resamples: 20,
            batch_width: 1,
        };
        let run = run_parallel(problem, &SrsEstimator, RunControl::budget(budget), &cfg).estimate;
        assert!(run.steps >= budget, "budget must still be spent");
        // Worst case: each of 4 workers overshoots its 2.5k chunk by one
        // root (≤ horizon), plus one straggler chunk racing the stop flag.
        assert!(
            run.steps < 2 * budget,
            "steps {} overshot a {} budget — first chunk not clamped?",
            run.steps,
            budget
        );
    }

    #[test]
    fn srs_and_smlss_run_through_the_generic_driver() {
        let model = Walk;
        let v = vf();
        let problem = Problem::new(&model, &v, 80);
        let cfg = ParallelConfig {
            threads: 3,
            sync_every: 10_000,
            seed: 9,
            bootstrap_resamples: 20,
            batch_width: 1,
        };

        let srs = run_parallel(problem, &SrsEstimator, RunControl::budget(150_000), &cfg);
        assert!(srs.estimate.steps >= 150_000);
        assert!(srs.estimate.tau > 0.0);

        let smlss_cfg = SMlssConfig::new(
            PartitionPlan::new(vec![0.4, 0.7]).unwrap(),
            RunControl::budget(1),
        );
        let smlss = run_parallel(problem, &smlss_cfg, RunControl::budget(150_000), &cfg);
        assert!(smlss.estimate.steps >= 150_000);

        let diff = (srs.estimate.tau - smlss.estimate.tau).abs();
        let tol = 5.0 * (srs.estimate.variance.max(0.0) + smlss.estimate.variance.max(0.0)).sqrt();
        assert!(
            diff <= tol.max(5e-3),
            "srs {} vs smlss {} through run_parallel",
            srs.estimate.tau,
            smlss.estimate.tau
        );
    }

    #[test]
    fn batched_parallel_at_one_thread_matches_batched_sequential() {
        // Frontier chunks keep the chunk-boundary-invisibility property,
        // so worker 0 of a batched parallel run retraces a batched
        // sequential run over the same stream bit for bit.
        let model = Walk;
        let v = vf();
        let problem = Problem::new(&model, &v, 60);
        let control = RunControl::budget(80_000);
        let seed = 23u64;
        let width = 16usize;

        let seq = crate::estimator::run_sequential_batched(
            &SrsEstimator,
            problem,
            control,
            &mut StreamFactory::new(seed).stream(0),
            width,
        )
        .estimate;

        let par = run_parallel(
            problem,
            &SrsEstimator,
            control,
            &ParallelConfig {
                threads: 1,
                sync_every: 9_000,
                seed,
                bootstrap_resamples: 20,
                batch_width: width,
            },
        )
        .estimate;

        assert_eq!(par.steps, seq.steps);
        assert_eq!(par.n_roots, seq.n_roots);
        assert_eq!(par.hits, seq.hits);
        assert_eq!(par.tau.to_bits(), seq.tau.to_bits());
    }

    #[test]
    fn batched_multiworker_parallel_agrees_statistically() {
        let model = Walk;
        let v = vf();
        let problem = Problem::new(&model, &v, 80);
        let cfg = ParallelConfig {
            threads: 3,
            sync_every: 10_000,
            seed: 14,
            bootstrap_resamples: 20,
            batch_width: 32,
        };
        let batched = run_parallel(problem, &SrsEstimator, RunControl::budget(150_000), &cfg);
        assert!(batched.estimate.steps >= 150_000);
        let narrow_cfg = ParallelConfig {
            batch_width: 1,
            ..cfg
        };
        let narrow = run_parallel(
            problem,
            &SrsEstimator,
            RunControl::budget(150_000),
            &narrow_cfg,
        );
        let diff = (batched.estimate.tau - narrow.estimate.tau).abs();
        let tol =
            5.0 * (batched.estimate.variance.max(0.0) + narrow.estimate.variance.max(0.0)).sqrt();
        assert!(
            diff <= tol.max(5e-3),
            "width 32 {} vs width 1 {}",
            batched.estimate.tau,
            narrow.estimate.tau
        );
    }

    #[test]
    fn parallel_target_mode_stops_on_quality() {
        let model = Walk;
        let v = vf();
        let problem = Problem::new(&model, &v, 60);
        let base = GMlssConfig::new(
            PartitionPlan::new(vec![0.5]).unwrap(),
            RunControl::budget(1),
        );
        let res = run_parallel_to_target(
            problem,
            &base,
            QualityTarget::RelativeError {
                target: 0.25,
                reference: None,
            },
            2,
            13,
        );
        assert!(res.estimate.self_relative_error() <= 0.25);
    }
}
