//! Parallel-driver merge-strategy comparison: the pre-refactor
//! single-global-mutex merge vs. the sharded merge now implemented in
//! `mlss_core::parallel::run_parallel`.
//!
//! The legacy driver (reproduced here verbatim in behavior) made every
//! worker, after every chunk, (1) take one global mutex, (2) splice its
//! per-root ledger into the master ledger, and (3) recompute the merged
//! estimate *inside the lock* — an `O(n_roots)` fold over every root
//! simulated so far. Workers therefore serialized on the lock and the
//! per-merge cost grew linearly with run length. The sharded driver
//! deposits into per-worker slots and lets a single try-lock winner
//! reduce + evaluate the stopping rule at a coarse stride.
//!
//! Usage: `cargo run --release -p mlss-bench --bin parallel_speedup
//! [threads] [target_re]` (defaults: 8 threads, 1% RE, compound-Poisson
//! surplus model — the CHANGES.md benchmark configuration).

use mlss_bench::balanced_for;
use mlss_core::bootstrap::{bootstrap_variance, RootLedger};
use mlss_core::estimate::Estimate;
use mlss_core::estimator::{shard_for, Estimator};
use mlss_core::parallel::{run_parallel, ParallelConfig};
use mlss_core::prelude::*;
use mlss_core::stats::RunningMoments;
use mlss_models::{surplus_score, CompoundPoisson};
use std::sync::Mutex;

/// The pre-refactor merged estimate: recomputed from the master ledger on
/// every merge (O(n_roots · m) under the lock).
#[allow(clippy::too_many_arguments)]
fn legacy_merged_estimate(
    ledger: &RootLedger,
    m: usize,
    ratio: u32,
    steps: u64,
    skip_events: u64,
    resamples: usize,
    allow_bootstrap: bool,
    rng: &mut SimRng,
) -> Estimate {
    let n = ledger.n_roots();
    let agg = ledger.aggregate();
    let tau = agg.tau(n as u64, ratio);
    let variance = if n < 2 {
        f64::INFINITY
    } else if skip_events == 0 {
        let mut moments = RunningMoments::new();
        for i in 0..n {
            moments.push(ledger.root_hits(i) as f64);
        }
        let scale = (ratio as f64).powi(m as i32 - 1);
        moments.sample_variance() / (n as f64 * scale * scale)
    } else if allow_bootstrap {
        bootstrap_variance(ledger, resamples, ratio, rng)
    } else {
        f64::INFINITY
    };
    Estimate {
        tau,
        variance,
        n_roots: n as u64,
        steps,
        hits: agg.hits,
    }
}

struct LegacyShared {
    ledger: RootLedger,
    steps: u64,
    skip_events: u64,
    done: bool,
}

/// Behavior-faithful reproduction of the old `run_parallel`: one global
/// mutex, merge + full estimate under the lock after every chunk.
fn legacy_mutex_run<M, V>(
    problem: Problem<'_, M, V>,
    base: &GMlssConfig,
    control: RunControl,
    threads: usize,
    sync_every: u64,
    seed: u64,
) -> (Estimate, std::time::Duration)
where
    M: SimulationModel + Sync,
    M::State: Send,
    V: ValueFunction<M::State> + Sync,
{
    let start = std::time::Instant::now();
    let m = base.plan.num_levels();
    let ratio = base.ratio;
    let shared = Mutex::new(LegacyShared {
        ledger: RootLedger::new(m),
        steps: 0,
        skip_events: 0,
        done: false,
    });
    let streams = StreamFactory::new(seed);

    std::thread::scope(|scope| {
        for worker in 0..threads {
            let shared = &shared;
            scope.spawn(move || {
                let mut rng = streams.stream(worker as u64);
                loop {
                    if shared.lock().unwrap().done {
                        return;
                    }
                    // One chunk with the shared root simulation.
                    let mut chunk = shard_for(base, &problem);
                    base.run_chunk(problem, &mut chunk, sync_every, &mut rng);

                    // Merge and evaluate inside the single global lock —
                    // the legacy bottleneck.
                    let mut g = shared.lock().unwrap();
                    g.ledger.merge(&chunk.ledger);
                    g.steps += chunk.steps;
                    g.skip_events += chunk.skip_events;
                    let est = legacy_merged_estimate(
                        &g.ledger,
                        m,
                        ratio,
                        g.steps,
                        g.skip_events,
                        base.bootstrap_resamples,
                        matches!(control, RunControl::Target { .. }),
                        &mut rng,
                    );
                    let stop = match control {
                        RunControl::Budget(b) => g.steps >= b,
                        RunControl::Target {
                            target, max_steps, ..
                        } => g.steps >= max_steps || target.satisfied(&est),
                    };
                    if stop {
                        g.done = true;
                        return;
                    }
                }
            });
        }
    });

    let g = shared.into_inner().unwrap();
    let mut rng = rng_from_seed(seed ^ 0xD1B5_4A32_D192_ED03);
    let est = legacy_merged_estimate(
        &g.ledger,
        m,
        ratio,
        g.steps,
        g.skip_events,
        base.bootstrap_resamples,
        true,
        &mut rng,
    );
    (est, start.elapsed())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let threads: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(8);
    let target_re: f64 = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(0.01);

    // The CHANGES.md configuration: compound-Poisson surplus model,
    // moderate-probability query, run to a 1% relative-error target.
    let model = CompoundPoisson::paper_default();
    let vf = RatioValue::new(surplus_score, 50.0);
    let problem = Problem::new(&model, &vf, 500);
    let plan = balanced_for(problem, 5, 4242);
    let base = GMlssConfig::new(plan, RunControl::budget(1));
    let control = RunControl::Target {
        target: QualityTarget::RelativeError {
            target: target_re,
            reference: None,
        },
        check_every: 256,
        max_steps: 20_000_000_000,
    };
    let sync_every = 65_536;

    println!(
        "parallel_speedup: CPP surplus β=50 s=500, {threads} threads, RE target {:.2}%",
        target_re * 100.0
    );

    let (old_est, old_wall) = legacy_mutex_run(problem, &base, control, threads, sync_every, 7);
    let old_rate = old_est.steps as f64 / old_wall.as_secs_f64();
    println!(
        "legacy mutex merge : τ̂={:.5}  steps={:>12}  wall={:>7.2}s  throughput={:>6.1} Msteps/s",
        old_est.tau,
        old_est.steps,
        old_wall.as_secs_f64(),
        old_rate / 1e6
    );

    let cfg = ParallelConfig {
        threads,
        sync_every,
        seed: 7,
        bootstrap_resamples: 200,
        batch_width: 0,
    };
    let new_run = run_parallel(problem, &base, control, &cfg);
    let new_rate = new_run.estimate.steps as f64 / new_run.elapsed.as_secs_f64();
    println!(
        "sharded merge      : τ̂={:.5}  steps={:>12}  wall={:>7.2}s  throughput={:>6.1} Msteps/s  (merges={}, contended={})",
        new_run.estimate.tau,
        new_run.estimate.steps,
        new_run.elapsed.as_secs_f64(),
        new_rate / 1e6,
        new_run.merges,
        new_run.contended_merges
    );

    println!(
        "throughput speedup : {:.2}x  (wall-clock {:.2}x)",
        new_rate / old_rate,
        old_wall.as_secs_f64() / new_run.elapsed.as_secs_f64()
    );
}
