//! Seeded no-panic property for the WAL record decoder and the `persist`
//! codecs under it: whatever bytes a log holds, `Record::decode` returns
//! `Ok` or `Err` and never panics.
//!
//! The corpus is real records: shard deposits and ASYNC checkpoints
//! carrying SRS, s-MLSS and g-MLSS shards (the g-MLSS one with its
//! per-root ledger), plus a plan entry, an ASYNC submission and a
//! journaled SQL statement. Each record is fed truncated at every length
//! and with 1–3 bytes overwritten under a pinned seed, so a failure names
//! a reproducible input.

use mlss_core::estimator::run_sequential;
use mlss_core::prelude::*;
use mlss_models::{position_score, RandomWalk};
use mlss_store::{Record, SubmitSpec};
use rand::RngExt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Random overwrites per corpus record.
const MUTATIONS: usize = 16_000;

/// The walk's position score, as a function pointer type.
type Vf = RatioValue<fn(&i64) -> f64>;

/// A stored checkpoint of a short real run of `estimator`.
fn stored<E: Estimator<RandomWalk, Vf>>(estimator: &E, seed: u64) -> StoredShard
where
    E::Shard: Clone + 'static,
{
    let (model, vf): (_, Vf) = (
        RandomWalk::new(0.4, 0.3, 0),
        RatioValue::new(position_score, 6.0),
    );
    let problem = Problem::new(&model, &vf, 40);
    let control = RunControl::budget(4_000);
    let run = run_sequential(estimator, problem, control, &mut rng_from_seed(seed));
    StoredShard::new(&run.shard, run.cursor, run.estimate, Some(seed), 0.1)
}

fn corpus() -> Vec<(String, Vec<u8>)> {
    let plan = PartitionPlan::new(vec![0.4, 0.7]).unwrap();
    let mut gmlss = GMlssConfig::new(plan.clone(), RunControl::budget(1));
    gmlss.keep_ledger = true;
    let smlss = SMlssConfig::new(plan.clone(), RunControl::budget(1));
    let shards = [
        ("srs", stored(&SrsEstimator, 1)),
        ("smlss", stored(&smlss, 2)),
        ("gmlss", stored(&gmlss, 3)),
    ];
    let mut records = Vec::new();
    for (method, entry) in shards {
        records.push(Record::ShardDeposit {
            key: ShardKey {
                fingerprint: 0xfeed,
                method: method.into(),
                plan_digest: 7,
            },
            entry: entry.clone(),
        });
        records.push(Record::AsyncCheckpoint {
            qid: 9,
            method: method.into(),
            slices: 4,
            entry,
        });
    }
    records.push(Record::PlanEntry {
        fingerprint: 0xfeed,
        method: "balanced".into(),
        levels: 3,
        tau_hint: 1.5e-4,
        plan,
    });
    records.push(Record::AsyncSubmit {
        qid: 9,
        spec: SubmitSpec {
            model: "walk".into(),
            params: vec![("up".into(), 0.4), ("down".into(), 0.3)],
            method: "gmlss".into(),
            levels: 4,
            beta: 6.0,
            horizon: 50,
            target_re: 0.05,
            priority: 2,
            batch_width: Some(16),
            pinned_seed: Some(7),
            seed: 7,
            tenant: Some("café".into()),
        },
        plan_source: "miss".into(),
        shard_reuse: "cold".into(),
    });
    records.push(Record::SqlStatement {
        sql: "INSERT INTO notes VALUES (1, 'it''s 日本')".into(),
    });
    records
        .into_iter()
        .map(|record| {
            let mut bytes = Vec::new();
            record.encode(&mut bytes).expect("in-tree shards encode");
            assert!(Record::decode(&bytes).is_ok(), "{record:?} round-trips");
            (format!("{record:?}").chars().take(40).collect(), bytes)
        })
        .collect()
}

/// Decode `bytes`, turning a panic into a test failure naming the input.
fn must_not_panic(what: &str, bytes: &[u8]) {
    let decoded = catch_unwind(AssertUnwindSafe(|| Record::decode(bytes)));
    assert!(
        decoded.is_ok(),
        "Record::decode panicked on {what}: {bytes:?}"
    );
}

#[test]
fn truncated_records_never_panic_the_decoder() {
    for (name, bytes) in corpus() {
        for len in 0..bytes.len() {
            let cut = &bytes[..len];
            must_not_panic(&format!("{name} cut to {len} bytes"), cut);
            assert!(
                Record::decode(cut).is_err(),
                "{name} cut to {len} bytes decodes"
            );
        }
    }
}

#[test]
fn overwritten_bytes_never_panic_the_decoder() {
    let mut rng = rng_from_seed(0x5EED);
    for (name, bytes) in corpus() {
        for case in 0..MUTATIONS {
            let mut input = bytes.clone();
            for _ in 0..rng.random_range(1..4usize) {
                let at = rng.random_range(0..input.len());
                input[at] = rng.random::<u8>();
            }
            must_not_panic(&format!("{name} mutation {case}"), &input);
        }
    }
}
