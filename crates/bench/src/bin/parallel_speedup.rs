//! Thread scaling of the parallel driver `mlss_core::parallel::run_parallel`.
//!
//! Runs one g-MLSS query to a relative-error target at 1, 2, 4, …
//! threads and prints wall time and throughput per thread count. Every
//! root draws its stream from the run key by index, so each thread count
//! answers with the same bits: the table also checks that τ̂ and the step
//! count agree across rows.
//!
//! Usage: `cargo run --release -p mlss-bench --bin parallel_speedup
//! [threads] [target_re]` (defaults: 8 threads, 1% RE, compound-Poisson
//! surplus model).

use mlss_bench::balanced_for;
use mlss_core::parallel::{run_parallel, ParallelConfig};
use mlss_core::prelude::*;
use mlss_models::{surplus_score, CompoundPoisson};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let threads: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(8);
    let target_re: f64 = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(0.01);

    // Compound-Poisson surplus model, moderate-probability query, run to
    // the relative-error target.
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

    println!(
        "parallel_speedup: CPP surplus β=50 s=500, up to {threads} threads, RE target {:.2}%",
        target_re * 100.0
    );
    let mut first: Option<(Estimate, f64)> = None;
    let mut n = 1;
    while n <= threads.max(1) {
        let cfg = ParallelConfig {
            threads: n,
            seed: 7,
            batch_width: 1,
        };
        let t0 = Instant::now();
        let est = run_parallel(problem, &base, control, &cfg).estimate;
        let wall = t0.elapsed().as_secs_f64();
        let (reference, wall_1) = *first.get_or_insert((est, wall));
        let same = est.tau.to_bits() == reference.tau.to_bits() && est.steps == reference.steps;
        println!(
            "{n:>3} threads: τ̂={:.5}  steps={:>12}  wall={wall:>7.2}s  throughput={:>6.1} Msteps/s  speedup={:.2}x  {}",
            est.tau,
            est.steps,
            est.steps as f64 / wall / 1e6,
            wall_1 / wall,
            if same { "identical" } else { "DIVERGED" }
        );
        assert!(same, "thread count changed the answer");
        n *= 2;
    }
}
