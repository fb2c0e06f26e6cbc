//! Parallel sampling driver (§3.1 "Parallel Computations"), generic over
//! any [`Estimator`].
//!
//! Root paths are independent, so every sampler in this crate
//! parallelizes the same way: shard roots over worker threads and
//! reduce the shards. Because root `k` always draws stream `k` of the
//! run key ([`crate::rng::RootCursor`]), *which* worker runs a root
//! cannot change its outcome; the driver only has to commit roots in
//! index order and evaluate the stopping rule where the sequential
//! driver does. It runs the same loop ([`crate::estimator::drive`]) and
//! differs only in how a chunk's roots are committed:
//!
//! * one pool of workers lives for the whole run; they claim
//!   **root-index blocks** from a shared counter and run each block into
//!   its own shard;
//! * the calling thread folds finished blocks into the run's shard
//!   strictly in index order;
//! * the block holding the chunk's crossing root (the first root at or
//!   past the chunk end) is re-run on the calling thread up to that
//!   root, and the rest of that block right after it.
//!
//! A run is therefore bit-identical to [`crate::estimator::run_sequential`]
//! over the same key, at every thread count and width, in budget and
//! target mode alike. While the calling thread evaluates a quality check,
//! the workers run on into the next chunk (up to `check_every` roots
//! past the predicted chunk end); those roots are the next chunk's own,
//! so only the last chunk's look-ahead is ever thrown away. Blocks shrink
//! as a predicted chunk end approaches, so the crossing re-run costs a
//! few roots.

use crate::estimator::{drive, Estimator, EstimatorRun, Ledger, RunCursor};
use crate::model::SimulationModel;
use crate::quality::{steps_per_root, RunControl};
use crate::query::{Problem, ValueFunction};
use crate::rng::RootCursor;
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Configuration of a parallel run.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Worker thread count (≥ 1).
    pub threads: usize,
    /// Run seed: [`run_parallel`] keys the run like a pinned statement
    /// ([`RunCursor::from_seed`]).
    pub seed: u64,
    /// Frontier width for each worker's blocks (default 1; bit-identical
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
            seed: 0,
            batch_width: 1,
        }
    }
}

/// Largest root block a worker claims at once.
const MAX_BLOCK_ROOTS: u64 = 1024;

/// Run any [`Estimator`] across threads until `control` is satisfied,
/// keyed by `cfg.seed`.
pub fn run_parallel<M, V, E>(
    problem: Problem<'_, M, V>,
    estimator: &E,
    control: RunControl,
    cfg: &ParallelConfig,
) -> EstimatorRun<E::Shard>
where
    M: SimulationModel + Sync,
    M::State: Send,
    V: ValueFunction<M::State> + Sync,
    E: Estimator<M, V> + Sync,
    E::Shard: Send,
{
    let run = RunCursor::from_seed(cfg.seed);
    run_parallel_from(problem, estimator, control, cfg, estimator.shard(), run)
}

/// Continue a run from a checkpoint `(initial, run)` — produced by any
/// driver — across threads until `control` is satisfied over the
/// combined state. The cursor carries the run key, so `cfg.seed` is not
/// consulted; the result is bit-identical to
/// [`crate::estimator::run_sequential_from`] over the same checkpoint.
pub fn run_parallel_from<M, V, E>(
    problem: Problem<'_, M, V>,
    estimator: &E,
    control: RunControl,
    cfg: &ParallelConfig,
    initial: E::Shard,
    run: RunCursor,
) -> EstimatorRun<E::Shard>
where
    M: SimulationModel + Sync,
    M::State: Send,
    V: ValueFunction<M::State> + Sync,
    E: Estimator<M, V> + Sync,
    E::Shard: Send,
{
    assert!(cfg.threads >= 1);
    // Defense in depth: an unresolved `batch_width=auto` sentinel runs
    // at the static fallback width.
    let width = crate::width::effective(cfg.batch_width);
    if cfg.threads == 1 {
        return drive(
            estimator,
            problem,
            control,
            run,
            initial,
            |shard, roots, end| {
                estimator.run_chunk(problem, shard, end - shard.steps(), roots, width);
            },
        );
    }
    // Roots the workers may run past a predicted chunk end: the next
    // chunk's worth in target mode, none past a budget.
    let look_ahead = match control {
        RunControl::Target { check_every, .. } => check_every.max(1),
        RunControl::Budget(_) => 0,
    };
    let pool = Pool {
        problem,
        estimator,
        width,
        key: run.roots.key,
        threads: cfg.threads as u64,
        look_ahead,
        state: Mutex::new(PoolState {
            claimed: run.roots.next,
            aim: run.roots.next,
            limit: run.roots.next,
            finished: BTreeMap::new(),
            stop: false,
            failed: false,
        }),
        claims: Condvar::new(),
        arrivals: Condvar::new(),
    };
    std::thread::scope(|scope| {
        for _ in 0..cfg.threads {
            scope.spawn(|| pool.work());
        }
        // Ends the workers when the run returns or unwinds.
        let _stop = StopPool(&pool);
        let mut rest = 0;
        drive(
            estimator,
            problem,
            control,
            run,
            initial,
            |shard, roots, end| pool.commit(shard, roots, end, &mut rest),
        )
    })
}

/// The run-long worker pool: the run it serves, the root-index claims,
/// finished blocks, and the aim the committing thread publishes.
struct Pool<'p, M, V, E: Estimator<M, V>>
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
{
    problem: Problem<'p, M, V>,
    estimator: &'p E,
    width: usize,
    key: u64,
    threads: u64,
    look_ahead: u64,
    state: Mutex<PoolState<E::Shard>>,
    /// Workers wait here for room to claim.
    claims: Condvar,
    /// The committing thread waits here for its next block.
    arrivals: Condvar,
}

struct PoolState<L> {
    /// First root index not yet handed out.
    claimed: u64,
    /// Predicted crossing root of the open chunk.
    aim: u64,
    /// No claims at or past this index (`aim` plus the look-ahead).
    limit: u64,
    /// Finished blocks by first root: `(roots, shard)`.
    finished: BTreeMap<u64, (u64, L)>,
    stop: bool,
    /// A worker unwound: its block will never arrive.
    failed: bool,
}

/// Stops the pool on drop — the run returned, or its thread unwinds.
struct StopPool<'a, 'p, M, V, E: Estimator<M, V>>(&'a Pool<'p, M, V, E>)
where
    M: SimulationModel,
    V: ValueFunction<M::State>;

impl<M, V, E: Estimator<M, V>> Drop for StopPool<'_, '_, M, V, E>
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
{
    fn drop(&mut self) {
        self.0.lock().stop = true;
        self.0.claims.notify_all();
    }
}

impl<M, V, E: Estimator<M, V>> Pool<'_, M, V, E>
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
{
    fn lock(&self) -> MutexGuard<'_, PoolState<E::Shard>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A worker: claim a block, run it into a fresh shard, hand it in;
    /// until the pool stops. A worker that unwinds marks the pool failed.
    fn work(&self) {
        struct FailOnPanic<'a>(&'a dyn Fn());
        impl Drop for FailOnPanic<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    (self.0)();
                }
            }
        }
        let _fail = FailOnPanic(&|| {
            self.lock().failed = true;
            self.arrivals.notify_all();
        });
        loop {
            let (start, len) = {
                let mut st = self.lock();
                while !st.stop && st.claimed >= st.limit {
                    st = self.claims.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                if st.stop {
                    return;
                }
                // A share of the roots left before the next predicted
                // crossing (at least one).
                let aim = if st.claimed < st.aim {
                    st.aim
                } else {
                    st.limit
                };
                let len = ((aim - st.claimed) / (2 * self.threads)).clamp(1, MAX_BLOCK_ROOTS);
                st.claimed += len;
                (st.claimed - len, len)
            };
            let mut block = self.estimator.shard();
            let mut cursor = RootCursor {
                key: self.key,
                next: start,
                end: start + len,
            };
            let lanes = self.width.min(len as usize);
            (self.estimator).run_chunk(self.problem, &mut block, u64::MAX, &mut cursor, lanes);
            self.lock().finished.insert(start, (len, block));
            self.arrivals.notify_one();
        }
    }

    /// Commit roots from `roots.next` in index order until `shard` holds
    /// at least `end` steps. `rest` ends the last crossing block: the
    /// roots up to it run here, in place, not from a worker's shard.
    fn commit(&self, shard: &mut E::Shard, roots: &mut RootCursor, end: u64, rest: &mut u64) {
        loop {
            self.publish(shard, roots.next, end);
            if roots.next >= *rest {
                let (len, block) = self.take(roots.next);
                if shard.steps() + block.steps() < end {
                    shard.merge(block);
                    roots.next += len;
                    continue;
                }
                // The crossing block: re-run it here up to the crossing.
                *rest = roots.next + len;
            }
            let mut cursor = RootCursor {
                end: *rest,
                ..*roots
            };
            let budget = end - shard.steps();
            (self.estimator).run_chunk(self.problem, shard, budget, &mut cursor, self.width);
            roots.next = cursor.next;
            if shard.steps() >= end {
                return;
            }
        }
    }

    /// Re-aim the claims from the committed prefix: the predicted
    /// crossing of the chunk ending at `end`, plus the look-ahead.
    fn publish(&self, shard: &E::Shard, next: u64, end: u64) {
        let per_root = steps_per_root(shard.steps(), shard.n_roots(), self.problem.horizon);
        let aim = next.saturating_add(end.saturating_sub(shard.steps()).div_ceil(per_root));
        let mut st = self.lock();
        st.aim = aim;
        st.limit = aim.saturating_add(self.look_ahead).max(next + 1);
        drop(st);
        self.claims.notify_all();
    }

    /// Wait for the finished block starting at root `start`.
    fn take(&self, start: u64) -> (u64, E::Shard) {
        let mut st = self.lock();
        loop {
            if let Some(block) = st.finished.remove(&start) {
                return block;
            }
            assert!(!st.failed, "a parallel worker panicked");
            st = self.arrivals.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::run_sequential_batched;
    use crate::gmlss::GMlssConfig;
    use crate::levels::PartitionPlan;
    use crate::model::Time;
    use crate::quality::QualityTarget;
    use crate::query::RatioValue;
    use crate::rng::{SimRng, StreamFactory};
    use crate::srs::{SrsEstimator, SrsShard};
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

    type Vf = RatioValue<fn(&f64) -> f64>;

    fn vf() -> Vf {
        fn score(s: &f64) -> f64 {
            *s
        }
        RatioValue::new(score as fn(&f64) -> f64, 1.0)
    }

    fn re_target(target: f64) -> RunControl {
        RunControl::Target {
            target: QualityTarget::RelativeError {
                target,
                reference: None,
            },
            check_every: 64,
            max_steps: 50_000_000,
        }
    }

    fn cfg(threads: usize, seed: u64, batch_width: usize) -> ParallelConfig {
        ParallelConfig {
            threads,
            seed,
            batch_width,
        }
    }

    fn assert_same<L: Ledger>(what: &str, a: &EstimatorRun<L>, b: &EstimatorRun<L>) {
        assert_eq!(a.estimate.steps, b.estimate.steps, "{what}: steps");
        assert_eq!(a.estimate.n_roots, b.estimate.n_roots, "{what}: roots");
        assert_eq!(a.estimate.hits, b.estimate.hits, "{what}: hits");
        assert_eq!(
            a.estimate.tau.to_bits(),
            b.estimate.tau.to_bits(),
            "{what}: tau"
        );
        assert_eq!(
            a.estimate.variance.to_bits(),
            b.estimate.variance.to_bits(),
            "{what}: variance"
        );
        assert_eq!(a.cursor, b.cursor, "{what}: cursor");
    }

    fn check_threads<E>(estimator: &E, control: RunControl, seed: u64)
    where
        E: Estimator<Walk, Vf> + Sync,
        E::Shard: Send,
    {
        let model = Walk;
        let v = vf();
        let problem = Problem::new(&model, &v, 60);
        let seq = run_sequential_batched(
            estimator,
            problem,
            control,
            &mut StreamFactory::new(seed).stream(0),
            1,
        );
        for (threads, width) in [(1, 1), (2, 1), (3, 16), (4, 5)] {
            let par = run_parallel(problem, estimator, control, &cfg(threads, seed, width));
            assert_same(&format!("{threads} threads x {width}"), &seq, &par);
        }
    }

    #[test]
    fn every_thread_count_is_bit_identical_to_sequential() {
        let plan = PartitionPlan::new(vec![0.4, 0.7]).unwrap();
        let gmlss = GMlssConfig::new(plan, RunControl::budget(1));
        check_threads(&SrsEstimator, RunControl::budget(150_000), 9);
        check_threads(&SrsEstimator, re_target(0.2), 10);
        check_threads(&gmlss, RunControl::budget(150_000), 11);
        check_threads(&gmlss, re_target(0.2), 12);
    }

    #[test]
    fn parallel_budget_run_keeps_the_merged_ledger() {
        let model = Walk;
        let v = vf();
        let problem = Problem::new(&model, &v, 100);
        let mut base = GMlssConfig::new(
            PartitionPlan::new(vec![0.4, 0.7]).unwrap(),
            RunControl::budget(1), // superseded by the driver's control
        );
        base.keep_ledger = true;
        let res = run_parallel(problem, &base, RunControl::budget(400_000), &cfg(4, 7, 1));
        assert!(res.estimate.steps >= 400_000);
        assert!(
            res.estimate.steps < 400_000 + 100,
            "one-root overshoot only"
        );
        assert_eq!(res.shard.ledger.n_roots() as u64, res.estimate.n_roots);
        assert!(res.estimate.tau > 0.0, "walk does hit sometimes");
        assert!(res.estimate.variance.is_finite());
    }

    #[test]
    fn a_resumed_run_continues_the_same_trajectory() {
        // A checkpoint cut mid-chunk (as a scheduler slice cuts one) and
        // finished on three threads equals the uninterrupted run.
        let model = Walk;
        let v = vf();
        let problem = Problem::new(&model, &v, 60);
        let control = re_target(0.15);
        let whole = run_parallel(problem, &SrsEstimator, control, &cfg(2, 21, 8));
        let mut cursor = RunCursor::from_seed(21);
        let mut shard = SrsShard::default();
        let end = cursor.open_chunk(&control, &shard, 60).unwrap();
        SrsEstimator.run_chunk(problem, &mut shard, end / 2, &mut cursor.roots, 1);
        assert!(shard.steps < end);
        let resumed = run_parallel_from(
            problem,
            &SrsEstimator,
            control,
            &cfg(3, 0, 4),
            shard,
            cursor,
        );
        assert_same("resumed", &whole, &resumed);
    }

    #[test]
    fn a_panicking_worker_ends_the_run_instead_of_hanging_it() {
        struct Bomb;
        impl SimulationModel for Bomb {
            type State = f64;
            fn initial_state(&self) -> f64 {
                0.0
            }
            fn step(&self, s: &f64, _t: Time, rng: &mut SimRng) -> f64 {
                assert!(rng.random::<f64>() > 1e-4, "model failure");
                *s
            }
        }
        let model = Bomb;
        let v = vf();
        let problem = Problem::new(&model, &v, 50);
        let run = std::panic::catch_unwind(|| {
            run_parallel(
                problem,
                &SrsEstimator,
                RunControl::budget(10_000_000),
                &cfg(3, 1, 4),
            )
        });
        assert!(run.is_err(), "the model failure propagates");
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
        let res = run_parallel(problem, &base, re_target(0.25), &cfg(2, 13, 1));
        assert!(res.estimate.self_relative_error() <= 0.25);
    }
}
