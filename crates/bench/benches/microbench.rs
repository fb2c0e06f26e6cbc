//! Criterion micro-benchmarks: per-step simulation costs of every
//! substrate (the paper's cost unit is one `g` invocation), sampler
//! throughput at a fixed budget, and the bootstrap evaluation cost that
//! dominates g-MLSS overhead (§4.2, Figure 9's green bars).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mlss_core::prelude::*;
use mlss_models::{
    position_score, queue2_score, surplus_score, CompoundPoisson, GeometricBrownian, MarkovChain,
    RandomWalk, TandemQueue,
};
use mlss_nn::{NetConfig, RnnStockModel};
use std::hint::black_box;

fn bench_model_steps(c: &mut Criterion) {
    let mut g = c.benchmark_group("model_step");
    let mut rng = rng_from_seed(1);

    let queue = TandemQueue::paper_default();
    let qs = queue.initial_state();
    g.bench_function("tandem_queue", |b| {
        b.iter(|| black_box(queue.step(black_box(&qs), 1, &mut rng)))
    });

    let cpp = CompoundPoisson::paper_default();
    g.bench_function("compound_poisson", |b| {
        b.iter(|| black_box(cpp.step(black_box(&15.0), 1, &mut rng)))
    });

    let walk = RandomWalk::new(0.4, 0.4, 0);
    g.bench_function("random_walk", |b| {
        b.iter(|| black_box(walk.step(black_box(&0), 1, &mut rng)))
    });

    let gbm = GeometricBrownian::goog_like();
    g.bench_function("gbm", |b| {
        b.iter(|| black_box(gbm.step(black_box(&525.0), 1, &mut rng)))
    });

    let chain = MarkovChain::birth_death(32, 0.3, 0.3, 0);
    g.bench_function("markov_chain", |b| {
        b.iter(|| black_box(chain.step(black_box(&5), 1, &mut rng)))
    });

    // The black-box LSTM-MDN step (one forward pass + mixture sample).
    let prices: Vec<f64> = (0..200).map(|i| 100.0 + (i as f64 * 0.7).sin()).collect();
    let cfg = NetConfig {
        hidden: 32,
        mixtures: 3,
        seq_len: 20,
        epochs: 1,
        lr: 3e-3,
        grad_clip: 5.0,
    };
    let (rnn, _) = RnnStockModel::train_on_prices(&prices, &cfg, &mut rng_from_seed(2));
    let rnn_state = rnn.initial_state();
    g.bench_function("lstm_mdn", |b| {
        b.iter(|| black_box(rnn.step(black_box(&rnn_state), 1, &mut rng)))
    });

    g.finish();
}

fn bench_samplers(c: &mut Criterion) {
    let mut g = c.benchmark_group("sampler_100k_steps");
    g.sample_size(10);
    let model = TandemQueue::paper_default();
    let vf = RatioValue::new(queue2_score, 40.0);
    let problem = Problem::new(&model, &vf, 500);

    g.bench_function("srs", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            SrsSampler::new(RunControl::budget(100_000)).run(problem, &mut rng_from_seed(seed))
        })
    });
    g.bench_function("gmlss_r3_m5", |b| {
        let plan = PartitionPlan::uniform(5);
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let cfg = GMlssConfig::new(plan.clone(), RunControl::budget(100_000));
            GMlssSampler::new(cfg).run(problem, &mut rng_from_seed(seed))
        })
    });
    g.finish();
}

/// `g`-call budget that runs the skipping walk ledger to ~900 roots.
const WALK_SKIP_BUDGET: u64 = 90_000;

fn bench_bootstrap(c: &mut Criterion) {
    let mut g = c.benchmark_group("bootstrap");
    // Build a realistic ledger from an actual volatile-ish run.
    let model = CompoundPoisson::zero_drift_default();
    let vf = RatioValue::new(surplus_score, 400.0);
    let problem = Problem::new(&model, &vf, 300);
    let mut cfg = GMlssConfig::new(PartitionPlan::uniform(5), RunControl::budget(400_000));
    cfg.keep_ledger = true;
    let res = GMlssSampler::new(cfg).run(problem, &mut rng_from_seed(3));
    let ledger = res.ledger.expect("ledger kept");

    for &resamples in &[50usize, 200] {
        g.bench_function(format!("variance_{resamples}_resamples"), |b| {
            b.iter_batched(
                || rng_from_seed(9),
                |mut rng| bootstrap_variance(black_box(&ledger), resamples, 3, &mut rng),
                BatchSize::SmallInput,
            )
        });
    }

    // The shape the coarse-score workload bootstraps twice per answer: a
    // reflected walk(beta=6) over a 50-step horizon on the engine's
    // 4-level balanced plan, where ±1 steps skip levels, run to ~900
    // roots (a few dozen distinct ledger records).
    let walk = RandomWalk::new(0.3, 0.3, 0).reflected();
    let vf = RatioValue::new(position_score, 6.0);
    let problem = Problem::new(&walk, &vf, 50);
    let plan = balanced_plan(problem, 4, 2000, &mut rng_from_seed(5)).0;
    let mut cfg = GMlssConfig::new(plan, RunControl::budget(WALK_SKIP_BUDGET));
    cfg.keep_ledger = true;
    let res = GMlssSampler::new(cfg).run(problem, &mut rng_from_seed(6));
    assert!(res.skip_events > 0, "the walk ledger must skip levels");
    let ledger = res.ledger.expect("ledger kept");
    eprintln!("walk skip ledger: {} roots", ledger.n_roots());
    g.bench_function("variance_200_resamples_walk_skip", |b| {
        b.iter_batched(
            || rng_from_seed(9),
            |mut rng| bootstrap_variance(black_box(&ledger), 200, 3, &mut rng),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_levels(c: &mut Criterion) {
    let plan = PartitionPlan::new(vec![0.1, 0.25, 0.45, 0.7, 0.9]).unwrap();
    c.bench_function("level_of", |b| {
        let mut x = 0.0f64;
        b.iter(|| {
            x = (x + 0.0137) % 1.1;
            black_box(plan.level_of(black_box(x)))
        })
    });
}

criterion_group!(
    benches,
    bench_model_steps,
    bench_samplers,
    bench_bootstrap,
    bench_levels
);
criterion_main!(benches);
