//! End-to-end pipeline tests spanning crates: DB-hosted estimation, the
//! RNN black box under MLSS, and parallel-vs-sequential consistency.

use mlss_core::prelude::*;
use mlss_db::{Session, SessionConfig};
use mlss_models::synthetic_price_series;
use mlss_nn::{rnn_price_score, NetConfig, RnnStockModel};

#[test]
fn db_hosted_estimates_agree_between_methods() {
    let session = Session::new(SessionConfig {
        seed: 71,
        ..SessionConfig::default()
    })
    .unwrap();
    let run = |method: &str| -> f64 {
        let sql =
            format!("ESTIMATE DURABILITY OF cpp(beta=50) WITHIN 500 USING {method} TARGET RE 0.2");
        session.execute(&sql).unwrap().rows()[0][2]
            .as_f64()
            .unwrap()
    };
    let srs = run("srs");
    let mlss = run("mlss");
    // Both target 20% RE on a ~5% query; they must agree within ~3σ.
    assert!(
        (srs - mlss).abs() / srs < 0.8,
        "srs {srs} vs mlss {mlss} disagree"
    );
    // Both runs recorded.
    let n = session.db().with_table("results", |t| t.len()).unwrap();
    assert_eq!(n, 2);
}

#[test]
fn rnn_black_box_works_under_mlss() {
    let prices = synthetic_price_series(400, &mut rng_from_seed(2015));
    let cfg = NetConfig {
        hidden: 12,
        mixtures: 2,
        seq_len: 25,
        epochs: 8,
        lr: 5e-3,
        grad_clip: 5.0,
    };
    let (model, _) = RnnStockModel::train_on_prices(&prices, &cfg, &mut rng_from_seed(7));

    let beta = model.initial_price * 1.2;
    let vf = RatioValue::new(rnn_price_score, beta);
    let problem = Problem::new(&model, &vf, 120);

    let srs = SrsSampler::new(RunControl::budget(400_000)).run(problem, &mut rng_from_seed(8));
    let plan = PartitionPlan::new(vec![0.9, 0.95]).unwrap();
    let cfg = GMlssConfig::new(plan, RunControl::budget(400_000));
    let mlss = GMlssSampler::new(cfg).run(problem, &mut rng_from_seed(9));

    assert!(srs.estimate.tau > 0.0, "rally should be reachable");
    let diff = (srs.estimate.tau - mlss.estimate.tau).abs();
    let tol = 5.0 * (srs.estimate.variance + mlss.estimate.variance.max(0.0)).sqrt();
    assert!(
        diff <= tol.max(5e-3),
        "SRS {} vs MLSS {} on the RNN model",
        srs.estimate.tau,
        mlss.estimate.tau
    );
}

#[test]
fn parallel_driver_matches_sequential_on_queue() {
    use mlss_models::{queue2_score, TandemQueue};
    let model = TandemQueue::paper_default();
    let vf = RatioValue::new(queue2_score, 30.0);
    let problem = Problem::new(&model, &vf, 200);
    let plan = PartitionPlan::new(vec![0.4, 0.7]).unwrap();

    let seq_cfg = GMlssConfig::new(plan.clone(), RunControl::budget(600_000));
    let seq = GMlssSampler::new(seq_cfg).run(problem, &mut StreamFactory::new(22).stream(0));

    let base = GMlssConfig::new(plan, RunControl::budget(1));
    let par = run_parallel(
        problem,
        &base,
        RunControl::budget(600_000),
        &ParallelConfig {
            threads: 4,
            seed: 22,
            batch_width: 1,
        },
    );

    // One trajectory per seed: four threads answer with the sequential
    // run's bits.
    assert_eq!(seq.estimate.steps, par.estimate.steps);
    assert_eq!(seq.estimate.n_roots, par.estimate.n_roots);
    assert_eq!(seq.estimate.tau.to_bits(), par.estimate.tau.to_bits());
    assert_eq!(
        seq.estimate.variance.to_bits(),
        par.estimate.variance.to_bits()
    );
}

#[test]
fn step_counter_meters_black_box_invocations() {
    use mlss_core::model::StepCounter;
    use mlss_models::{queue2_score, TandemQueue};
    let metered = StepCounter::new(TandemQueue::paper_default());
    let vf = RatioValue::new(queue2_score, 25.0);
    let problem = Problem::new(&metered, &vf, 100);
    let res = SrsSampler::new(RunControl::budget(50_000)).run(problem, &mut rng_from_seed(31));
    assert_eq!(metered.steps(), res.estimate.steps);
}
