//! Cross-driver determinism: one trajectory per seed. The same seed and
//! plan must produce the same samples — and therefore identical
//! estimates — no matter which execution path runs them, at which
//! frontier width, on how many threads, sliced or paused how.
//!
//! A run is keyed once from its seed (`RunCursor::from_seed`, the key
//! `run_sequential` draws from `StreamFactory::new(seed).stream(0)`).
//! Root `k` draws stream `k` of that key, quality check `i` draws check
//! stream `i`, and the closing estimate its own stream, so a root's
//! outcome never depends on who runs it. Every driver commits roots in
//! index order and evaluates the stopping rule at the same chunk ends
//! (`RunControl::next_chunk`), so the committed prefix and the answer
//! are pure functions of `(seed, query)`. The paths compared here:
//!
//! 1. the sequential driver `run_sequential` (width 1);
//! 2. `run_sequential_batched` at width 7;
//! 3. synchronous runs fanned out over a pool of 1 and 2 workers
//!    (`Scheduler::run`) at 1, 2 and 4 threads;
//! 4. the scheduler with 1 and 2 workers (slices of a few thousand
//!    steps), its `ASYNC` queries at 1 and 2 threads;
//! 5. a scheduler run paused mid-query, detached, and resubmitted.
//!
//! In budget and target mode alike, every path must agree with the
//! sequential run **bit-for-bit**: steps, roots, hits, τ̂ and variance —
//! g-MLSS with its bootstrap variance included.

use mlss_core::estimator::run_sequential_batched;
use mlss_core::gmlss::VarianceMode;
use mlss_core::is::{IsEstimator, TiltableModel};
use mlss_core::prelude::*;
use mlss_core::scheduler::DurabilityHook;
use mlss_core::smlss::SMlssConfig;
use rand::RngExt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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

const HORIZON: u64 = 70;

fn controls() -> [(&'static str, RunControl); 2] {
    [
        ("budget", RunControl::budget(40_000)),
        (
            "target",
            RunControl::Target {
                target: QualityTarget::RelativeError {
                    target: 0.3,
                    reference: None,
                },
                check_every: 64,
                max_steps: 5_000_000,
            },
        ),
    ]
}

fn scheduler(workers: usize, batch_width: usize) -> Scheduler {
    Scheduler::new(SchedulerConfig {
        workers,
        slice_budget: 1_500,
        max_retries: 0,
        batch_width,
        tenant_weights: Vec::new(),
    })
}

/// Parks the first query to commit two slices: reports in, then holds
/// the worker until the test has requested the pause.
struct PauseAfterTwoSlices {
    parked: Mutex<Sender<QueryId>>,
    release: Mutex<Receiver<()>>,
    fired: AtomicBool,
}

impl DurabilityHook for PauseAfterTwoSlices {
    fn slice_committed(&self, id: QueryId, slices: u64, _job: &mut dyn SliceableQuery) {
        if slices == 2 && !self.fired.swap(true, Ordering::SeqCst) {
            self.parked.lock().unwrap().send(id).unwrap();
            self.release.lock().unwrap().recv().unwrap();
        }
    }
}

/// Run on a scheduler that pauses the query mid-run, detaches it (the
/// checkpoint), and resubmits it.
fn paused_detached_resumed<E>(
    model: &Walk,
    estimator: &E,
    control: RunControl,
    seed: u64,
) -> Estimate
where
    E: Estimator<Walk, Vf> + Clone + Send + Sync + 'static,
    E::Shard: Send + Clone + 'static,
{
    let sched = scheduler(1, 3);
    let (parked_tx, parked_rx) = channel();
    let (release_tx, release_rx) = channel();
    sched.attach_durability_hook(Arc::new(PauseAfterTwoSlices {
        parked: Mutex::new(parked_tx),
        release: Mutex::new(release_rx),
        fired: AtomicBool::new(false),
    }));
    let id = sched.submit(
        model.clone(),
        vf(),
        HORIZON,
        estimator.clone(),
        control,
        seed,
        0,
    );
    let parked = parked_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the query is still running after two slices");
    assert_eq!(parked, id);
    assert!(sched.pause(id));
    release_tx.send(()).unwrap();
    while !matches!(sched.poll(id), Some(QueryStatus::Paused)) {
        std::thread::yield_now();
    }
    let job = sched.detach(id).expect("a paused query detaches");
    assert!(job.steps() > 0, "paused mid-query");
    let resumed = sched.submit_query(job, 0);
    *sched
        .wait(resumed)
        .unwrap()
        .estimate()
        .expect("the resumed query completes")
}

/// Run one estimator through every driver, in budget and target mode,
/// and demand bit-identical counters, point estimate and variance.
fn check_cross_driver<E>(name: &str, estimator: E, seed: u64)
where
    E: Estimator<Walk, Vf> + Clone + Send + Sync + 'static,
    E::Shard: Send + Clone + 'static,
{
    let model = Walk { up: 0.48 };
    let v = vf();
    let problem = Problem::new(&model, &v, HORIZON);
    for (mode, control) in controls() {
        let stream = || StreamFactory::new(seed).stream(0);
        let seq = run_sequential(&estimator, problem, control, &mut stream()).estimate;

        let mut paths = vec![(
            "sequential@7".to_string(),
            run_sequential_batched(&estimator, problem, control, &mut stream(), 7).estimate,
        )];
        for workers in [1, 2] {
            let sched = scheduler(workers, 16);
            let job = |threads| {
                EstimatorQuery::from_seed(
                    model.clone(),
                    v,
                    HORIZON,
                    estimator.clone(),
                    control,
                    seed,
                )
                .with_batch_width(16)
                .with_threads(threads)
            };
            for threads in [1, 2, 4] {
                let est = sched.run(job(threads), 0, None).estimate;
                paths.push((format!("sync@{threads} on {workers} workers"), est));
            }
            let id = sched.submit(
                model.clone(),
                v,
                HORIZON,
                estimator.clone(),
                control,
                seed,
                0,
            );
            let est = *sched.wait(id).unwrap().estimate().unwrap();
            paths.push((format!("scheduler@{workers}"), est));
            let id = sched.submit_query(Box::new(job(2)), 0);
            let est = *sched.wait(id).unwrap().estimate().unwrap();
            paths.push((format!("async@2 on {workers} workers"), est));
        }
        paths.push((
            "scheduler paused+detached".to_string(),
            paused_detached_resumed(&model, &estimator, control, seed),
        ));

        for (path, est) in paths {
            let what = format!("{name}/{mode}/{path}");
            assert_eq!(est.steps, seq.steps, "{what}: steps");
            assert_eq!(est.n_roots, seq.n_roots, "{what}: roots");
            assert_eq!(est.hits, seq.hits, "{what}: hits");
            assert_eq!(
                est.tau.to_bits(),
                seq.tau.to_bits(),
                "{what}: τ̂ {} vs sequential {}",
                est.tau,
                seq.tau
            );
            assert_eq!(
                est.variance.to_bits(),
                seq.variance.to_bits(),
                "{what}: variance {} vs sequential {}",
                est.variance,
                seq.variance
            );
        }
    }
}

#[test]
fn srs_is_deterministic_across_drivers() {
    check_cross_driver("srs", SrsEstimator, 17);
}

#[test]
fn smlss_is_deterministic_across_drivers() {
    let cfg = SMlssConfig::new(
        PartitionPlan::new(vec![0.4, 0.7]).unwrap(),
        RunControl::budget(1), // superseded by the driver's control
    );
    check_cross_driver("smlss", cfg, 23);
}

#[test]
fn gmlss_is_deterministic_across_drivers() {
    // The bootstrap variance draws from the check and closing streams,
    // which every driver evaluates at the same points.
    let mut cfg = GMlssConfig::new(
        PartitionPlan::new(vec![0.4, 0.7]).unwrap(),
        RunControl::budget(1),
    )
    .with_variance(VarianceMode::Bootstrap);
    cfg.bootstrap_resamples = 50;
    check_cross_driver("gmlss", cfg, 29);
}

#[test]
fn is_is_deterministic_across_drivers() {
    check_cross_driver("is", IsEstimator::new(0.1), 37);
}
