//! Quickstart: answer one durability prediction query three ways.
//!
//! The query: *"what is the probability that the insurance product's
//! surplus reaches 90 within the next 500 periods?"* on the paper's
//! compound-Poisson risk model — a Tiny-class query (τ ≈ 0.24%).
//!
//! Run: `cargo run --release --example quickstart`

use durability_mlss::prelude::*;
use mlss_models::{surplus_score, CompoundPoisson};

fn main() {
    // 1. The simulation model `g` (§2.1): the paper's CPP risk process.
    let model = CompoundPoisson::paper_default();

    // 2. The durability query Q(q, s): q(x) ⇔ surplus ≥ 90, s = 500,
    //    with the canonical value function f(x) = min{z(x)/β, 1}.
    let value_fn = RatioValue::new(surplus_score, 90.0);
    let problem = Problem::new(&model, &value_fn, 500);

    // Quality target: 10% relative error (the paper's Tiny/Rare metric).
    let target = QualityTarget::RelativeError {
        target: 0.10,
        reference: None,
    };

    // 3a. Baseline: Simple Random Sampling.
    let srs = SrsSampler::new(RunControl::until(target)).run(problem, &mut rng_from_seed(1));
    println!(
        "SRS   : tau = {:.4e}  ({} g-invocations, {:.2}s)",
        srs.estimate.tau,
        srs.estimate.steps,
        srs.elapsed.as_secs_f64()
    );

    // 3b. MLSS with an automatically tuned balanced partition plan.
    let mut rng = rng_from_seed(2);
    let (plan, _) = balanced_plan(problem, 5, 4000, &mut rng);
    println!("MLSS plan: {plan}");
    let cfg = GMlssConfig::new(plan, RunControl::until(target));
    let mlss = GMlssSampler::new(cfg).run(problem, &mut rng);
    println!(
        "MLSS  : tau = {:.4e}  ({} g-invocations, {:.2}s sim)",
        mlss.estimate.tau,
        mlss.estimate.steps,
        mlss.sim_elapsed.as_secs_f64()
    );
    println!(
        "       speedup: {:.1}x fewer simulation steps",
        srs.estimate.steps as f64 / mlss.estimate.steps as f64
    );

    // 3c. Same, parallel across 4 threads (§3.1), keeping the merged
    //     per-root ledger.
    let mut base = GMlssConfig::new(
        PartitionPlan::uniform(5),
        RunControl::budget(1), // replaced by the parallel control
    );
    base.keep_ledger = true;
    let cfg = ParallelConfig {
        threads: 4,
        seed: 3,
        batch_width: 1,
    };
    let par = run_parallel(problem, &base, RunControl::until(target), &cfg);
    println!(
        "MLSS∥ : tau = {:.4e}  ({} g-invocations, {} ledger roots on {} threads, {:.2}s)",
        par.estimate.tau,
        par.estimate.steps,
        par.shard.ledger.n_roots(),
        cfg.threads,
        par.sim_elapsed.as_secs_f64()
    );

    // 95% confidence intervals for all three.
    for (name, est) in [
        ("SRS", srs.estimate),
        ("MLSS", mlss.estimate),
        ("MLSS∥", par.estimate),
    ] {
        let (lo, hi) = est.ci(0.95);
        println!("{name:6} 95% CI: [{lo:.4e}, {hi:.4e}]");
    }
}
