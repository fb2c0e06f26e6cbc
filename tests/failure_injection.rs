//! Failure-injection and robustness tests: hostile models and degenerate
//! configurations must degrade gracefully, never panic or poison
//! estimates with NaN.

use mlss_core::prelude::*;
use mlss_core::smlss::{SMlssConfig, SMlssSampler};
use rand::RngExt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A model that emits NaN scores after a while.
struct NanModel;

impl SimulationModel for NanModel {
    type State = f64;

    fn initial_state(&self) -> f64 {
        0.0
    }

    fn step(&self, s: &f64, t: Time, _rng: &mut SimRng) -> f64 {
        if t > 5 {
            f64::NAN
        } else {
            s + 0.1
        }
    }
}

/// A model that jumps to ±∞.
struct InfModel;

impl SimulationModel for InfModel {
    type State = f64;

    fn initial_state(&self) -> f64 {
        0.0
    }

    fn step(&self, _s: &f64, t: Time, _rng: &mut SimRng) -> f64 {
        if t.is_multiple_of(2) {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    }
}

#[test]
fn nan_scores_do_not_poison_estimates() {
    let model = NanModel;
    let vf = RatioValue::new(|s: &f64| *s, 10.0);
    let problem = Problem::new(&model, &vf, 20);
    let res = SrsSampler::new(RunControl::budget(10_000)).run(problem, &mut rng_from_seed(1));
    assert!(res.estimate.tau.is_finite());
    assert_eq!(res.estimate.tau, 0.0, "NaN never satisfies the query");

    let cfg = GMlssConfig::new(PartitionPlan::uniform(3), RunControl::budget(10_000));
    let res = GMlssSampler::new(cfg).run(problem, &mut rng_from_seed(2));
    assert!(res.estimate.tau.is_finite());
}

#[test]
fn infinite_scores_clamp_into_levels() {
    let model = InfModel;
    let vf = RatioValue::new(|s: &f64| *s, 5.0);
    let problem = Problem::new(&model, &vf, 10);
    let cfg = GMlssConfig::new(PartitionPlan::uniform(4), RunControl::budget(5_000));
    let res = GMlssSampler::new(cfg).run(problem, &mut rng_from_seed(3));
    // +∞ score clamps to f = 1 (target), −∞ to ε: every root hits at t=2.
    assert!((res.estimate.tau - 1.0).abs() < 1e-12);
}

#[test]
fn zero_budget_returns_empty_estimate() {
    let model = NanModel;
    let vf = RatioValue::new(|s: &f64| *s, 10.0);
    let problem = Problem::new(&model, &vf, 20);
    let res = SrsSampler::new(RunControl::budget(0)).run(problem, &mut rng_from_seed(4));
    assert_eq!(res.estimate.n_roots, 0);
    assert_eq!(res.estimate.tau, 0.0);
    assert!(res.estimate.variance.is_infinite());
}

#[test]
fn horizon_one_is_single_step_bernoulli() {
    struct Coin;
    impl SimulationModel for Coin {
        type State = f64;
        fn initial_state(&self) -> f64 {
            0.0
        }
        fn step(&self, _s: &f64, _t: Time, rng: &mut SimRng) -> f64 {
            use rand::RngExt;
            if rng.random::<f64>() < 0.3 {
                1.0
            } else {
                0.0
            }
        }
    }
    let model = Coin;
    let vf = RatioValue::new(|s: &f64| *s, 1.0);
    let problem = Problem::new(&model, &vf, 1);
    let res = SrsSampler::new(RunControl::budget(200_000)).run(problem, &mut rng_from_seed(5));
    assert!((res.estimate.tau - 0.3).abs() < 0.01);
    assert_eq!(res.estimate.steps, res.estimate.n_roots);
}

#[test]
fn smlss_survives_all_boundaries_identical_region() {
    // Degenerate-ish plan: boundaries bunched into a sliver. Must still
    // produce a valid probability without panicking.
    struct Up;
    impl SimulationModel for Up {
        type State = f64;
        fn initial_state(&self) -> f64 {
            0.0
        }
        fn step(&self, s: &f64, _t: Time, rng: &mut SimRng) -> f64 {
            use rand::RngExt;
            (s + rng.random::<f64>() * 0.1).min(1.0)
        }
    }
    let model = Up;
    let vf = RatioValue::new(|s: &f64| *s, 1.0);
    let problem = Problem::new(&model, &vf, 50);
    let plan = PartitionPlan::new(vec![0.8999, 0.9, 0.9001]).unwrap();
    let cfg = SMlssConfig::new(plan, RunControl::budget(50_000)).with_ratio(3);
    let res = SMlssSampler::new(cfg).run(problem, &mut rng_from_seed(6));
    assert!((0.0..=1.0).contains(&res.estimate.tau));
}

// ---- scheduler failure injection ---------------------------------------

/// Silence the default "thread panicked" stderr spew from intentionally
/// injected panics (the scheduler catches them; the noise is misleading).
fn quiet_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !format!("{info}").contains("injected") {
                default(info); // real failures still report normally
            }
        }));
    });
}

/// A well-behaved walk for the victim queries.
#[derive(Clone)]
struct GoodWalk;

impl SimulationModel for GoodWalk {
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

/// A model that always panics a few steps in — a deterministic bug.
struct AlwaysPanics;

impl SimulationModel for AlwaysPanics {
    type State = f64;

    fn initial_state(&self) -> f64 {
        0.0
    }

    fn step(&self, s: &f64, t: Time, _rng: &mut SimRng) -> f64 {
        assert!(t < 5, "injected failure");
        s + 0.01
    }
}

/// A model that panics exactly once (first trigger), then behaves — a
/// transient fault the retry policy should absorb.
struct PanicsOnce {
    armed: Arc<AtomicBool>,
}

impl SimulationModel for PanicsOnce {
    type State = f64;

    fn initial_state(&self) -> f64 {
        0.0
    }

    fn step(&self, s: &f64, t: Time, rng: &mut SimRng) -> f64 {
        if t == 3 && self.armed.swap(false, Ordering::SeqCst) {
            panic!("injected transient failure");
        }
        (s + if rng.random::<f64>() < 0.48 {
            0.05
        } else {
            -0.05
        })
        .clamp(0.0, 1.0)
    }
}

type Vf = RatioValue<fn(&f64) -> f64>;

fn walk_vf() -> Vf {
    fn score(s: &f64) -> f64 {
        *s
    }
    RatioValue::new(score as fn(&f64) -> f64, 1.0)
}

#[test]
fn scheduler_survives_a_panicking_query() {
    quiet_panics();
    let sched = Scheduler::new(SchedulerConfig {
        workers: 2,
        slice_budget: 8_192,
        max_retries: 1,
        batch_width: 1,
        tenant_weights: Vec::new(),
    });

    // A doomed query between two healthy ones.
    let good_a = sched.submit(
        GoodWalk,
        walk_vf(),
        70,
        SrsEstimator,
        RunControl::budget(60_000),
        5,
        0,
    );
    let doomed = sched.submit(
        AlwaysPanics,
        walk_vf(),
        70,
        SrsEstimator,
        RunControl::budget(60_000),
        6,
        0,
    );
    let good_b = sched.submit(
        GoodWalk,
        walk_vf(),
        70,
        SrsEstimator,
        RunControl::budget(60_000),
        7,
        0,
    );

    // The doomed query fails (after exhausting its retry) without
    // poisoning the pool.
    let status = sched.wait(doomed).unwrap();
    match status {
        QueryStatus::Failed(msg) => assert!(msg.contains("injected failure"), "{msg}"),
        other => panic!("doomed query should fail, got {other:?}"),
    }

    // Both healthy queries finish with *correct* results: bit-identical
    // to an undisturbed sequential run over the same stream.
    for (id, seed) in [(good_a, 5u64), (good_b, 7u64)] {
        let est = *sched.wait(id).unwrap().estimate().expect("healthy query");
        let model = GoodWalk;
        let v = walk_vf();
        let problem = Problem::new(&model, &v, 70);
        let seq = run_sequential(
            &SrsEstimator,
            problem,
            RunControl::budget(60_000),
            &mut StreamFactory::new(seed).stream(0),
        )
        .estimate;
        assert_eq!(est.steps, seq.steps);
        assert_eq!(est.hits, seq.hits);
        assert_eq!(est.tau.to_bits(), seq.tau.to_bits());
    }

    let stats = sched.stats();
    assert!(stats.panics >= 2, "panic + retry panic are both counted");
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 2);

    // The pool still accepts and completes new work after the failure.
    let after = sched.submit(
        GoodWalk,
        walk_vf(),
        50,
        SrsEstimator,
        RunControl::budget(20_000),
        8,
        0,
    );
    assert!(sched.wait(after).unwrap().estimate().is_some());
}

#[test]
fn transient_panic_is_retried_without_losing_state() {
    quiet_panics();
    let sched = Scheduler::new(SchedulerConfig {
        workers: 1,
        slice_budget: 8_192,
        max_retries: 1,
        batch_width: 1,
        tenant_weights: Vec::new(),
    });
    let armed = Arc::new(AtomicBool::new(true));
    let id = sched.submit(
        PanicsOnce {
            armed: Arc::clone(&armed),
        },
        walk_vf(),
        70,
        SrsEstimator,
        RunControl::budget(40_000),
        11,
        0,
    );
    let est = *sched
        .wait(id)
        .unwrap()
        .estimate()
        .expect("query completes after one retry");
    assert!(est.steps >= 40_000);
    assert!(!armed.load(Ordering::SeqCst), "the fault did fire");
    let progress = sched.progress(id).unwrap();
    assert_eq!(progress.retries, 1, "exactly one retry absorbed the fault");
    assert_eq!(sched.stats().failed, 0);
}

/// A log truncated inside its last frame (a crash or disk fault during
/// the final append) reopens with every committed statement intact and
/// only the torn mutation dropped.
#[test]
fn db_recovers_from_truncated_files() {
    use mlss_db::{ExecResult, Session, SessionConfig, Value};

    let dir = std::env::temp_dir().join(format!("mlss-failure-inj-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = SessionConfig {
        workers: 1,
        ..SessionConfig::default()
    };
    let tail = dir.join("tail.wal");
    let (committed, torn) = {
        let session = Session::open(&dir, config.clone()).unwrap();
        for sql in [
            "CREATE TABLE a (x INT)",
            "CREATE TABLE b (y INT)",
            "INSERT INTO a VALUES (1), (2)",
            "INSERT INTO b VALUES (3)",
        ] {
            session.execute(sql).unwrap();
        }
        let committed = std::fs::metadata(&tail).unwrap().len();
        session.execute("INSERT INTO a VALUES (99)").unwrap();
        (committed, std::fs::metadata(&tail).unwrap().len())
    };
    assert!(torn > committed, "the last mutation was journaled");
    let file = std::fs::OpenOptions::new().write(true).open(&tail).unwrap();
    file.set_len(committed + (torn - committed) / 2).unwrap();
    drop(file);

    let session = Session::open(&dir, config).unwrap();
    let column = |sql: &str| -> Vec<Value> {
        let ExecResult::Rows { rows, .. } = session.execute(sql).unwrap() else {
            panic!("{sql} returns rows");
        };
        rows.into_iter().map(|r| r[0].clone()).collect()
    };
    assert_eq!(
        column("SELECT x FROM a ORDER BY x"),
        vec![Value::Int(1), Value::Int(2)]
    );
    assert_eq!(column("SELECT y FROM b"), vec![Value::Int(3)]);
    let repaired = session
        .diagnostics()
        .into_iter()
        .find(|d| d.estimator == "wal")
        .and_then(|d| d.details.into_iter().find(|(k, _)| k == "wal_truncated"))
        .map(|(_, v)| v);
    assert_eq!(repaired, Some(1.0), "the torn frame was cut away");
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Write-ahead ordering, observed at the instant of visibility: the
/// moment a result is *visible* to a client — a sync statement returned
/// its row, or `wait` published `Done` — the corresponding record must
/// already be on disk. The session fsyncs every append, so copying the
/// log files out from under the live session is exactly the disk state
/// a `SIGKILL` at that instant would leave; a record missing from the
/// copy would be a result that could vanish after being served.
#[test]
fn visible_results_are_already_durable() {
    use mlss_db::{Durability, ExecResult, Session, SessionConfig, WalSessionConfig};
    use mlss_store::{Record, Wal, WalOptions};

    let dir = std::env::temp_dir().join(format!("mlss-write-ahead-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let session = Session::new(SessionConfig {
        workers: 1,
        slice_budget: 4_096,
        seed: 5,
        durability: Durability::Wal(WalSessionConfig::new(&dir)),
        ..SessionConfig::default()
    })
    .unwrap();

    // Freeze the on-disk state while the session is live (no locks: the
    // log is append-only and fsynced, so a prefix copy is always valid).
    let snapshot_of = |tag: &str| {
        let copy = dir.with_file_name(format!("mlss-write-ahead-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&copy);
        std::fs::create_dir_all(&copy).unwrap();
        for f in ["snapshot.wal", "tail.wal"] {
            if dir.join(f).exists() {
                std::fs::copy(dir.join(f), copy.join(f)).unwrap();
            }
        }
        let (_, replay) = Wal::open(&copy, WalOptions::default()).unwrap();
        let _ = std::fs::remove_dir_all(&copy);
        replay.records
    };

    // Sync: the statement has returned its row — the row record must
    // already be durable (it is journaled *before* the insert).
    session
        .execute(
            "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 USING srs TARGET RE 0.3 WITH (seed=11)",
        )
        .unwrap();
    assert!(
        snapshot_of("sync")
            .iter()
            .any(|r| matches!(r, Record::ResultRow(_))),
        "a returned sync row must already have its record on disk"
    );

    // Async: `wait` observed `Done` — the done record (written before
    // the scheduler publishes the status) must already be durable.
    let res = session
        .execute("ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 USING srs TARGET RE 0.3 WITH (seed=12) ASYNC")
        .unwrap();
    let ExecResult::Rows { rows, .. } = res else {
        panic!("async statement returns a query_id row")
    };
    let id = rows[0][0].as_i64().unwrap() as u64;
    session.wait(id).unwrap().unwrap();
    let records = snapshot_of("async");
    assert!(
        records
            .iter()
            .any(|r| matches!(r, Record::AsyncSubmit { .. })),
        "a waited query's submission must be durable"
    );
    assert!(
        records
            .iter()
            .any(|r| matches!(r, Record::AsyncDone { .. })),
        "a published Done must already have its record on disk"
    );
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}
