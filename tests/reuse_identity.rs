//! Cross-query shard reuse: the correctness invariant behind the
//! planner.
//!
//! A **warm-started** query — one that resumes a stored checkpoint and
//! simulates only the marginal roots to a tighter target — must be
//! **bit-identical** to a single cold query run straight to that tighter
//! target with the same seed. The stored checkpoint is the shard plus
//! the run cursor; root streams and quality checks are index-addressed
//! by the run key, so the continuation replays the exact trajectory the
//! longer cold run takes — including the target-mode quality checks,
//! which happen at the same shard states on the same check streams.
//!
//! Pinned here:
//! * warm ≡ cold-at-tighter-target for all four estimators (SRS,
//!   s-MLSS, g-MLSS, IS): estimate bits, counters, and the final cursor;
//! * the same invariant end-to-end through the SQL layer: `results`
//!   rows of a tighten-after-loose session match a cold session
//!   bit-for-bit in every estimate-bearing column;
//! * LRU eviction under capacity pressure forces later queries cold
//!   (and shows up in `SHOW DIAGNOSTICS`);
//! * fingerprint isolation: a parameter change never reuses another
//!   model's shards;
//! * store-on ≡ store-off for every pinned statement: a looser-target
//!   pinned repeat ignores the store, and tighter pinned statements on
//!   the parallel driver and the scheduler warm-start from it — each
//!   matching a storeless session bit-for-bit — and a checkpoint a
//!   paused ASYNC query left inside a chunk is warm-started to the chunk
//!   end, never served;
//! * `EXPLAIN` previews the reuse verdict without counted lookups (no
//!   hit/miss counter or LRU perturbation);
//! * reuse pays: counted in `g` invocations, a repeated statement costs
//!   at most a fifth and a tightening ladder at most two thirds of what
//!   the same statements cost without a store.

use durability_mlss::models::{ar_value_score, surplus_score, ArModel, ArState, CompoundPoisson};
use mlss_core::estimator::{run_sequential_batched, run_sequential_from};
use mlss_core::is::IsEstimator;
use mlss_core::planner::{plan_reuse, ReusePlan, MIN_REUSE_ROOTS};
use mlss_core::prelude::*;
use mlss_core::scheduler::DurabilityHook;
use mlss_core::shard_store::{shard_key, ShardStore, StoredShard};
use mlss_core::smlss::SMlssConfig;
use mlss_core::spec::{ExecMode, Method, ModelSchema, QuerySpec};
use mlss_db::proc::{ModelRunner, Runner};
use mlss_db::{DbError, Session, SessionConfig, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, LazyLock, Mutex};
use std::time::Duration;

type CppVf = RatioValue<fn(&f64) -> f64>;

fn cpp_vf(beta: f64) -> CppVf {
    RatioValue::new(surplus_score as fn(&f64) -> f64, beta)
}

fn target(re: f64) -> RunControl {
    RunControl::Target {
        target: QualityTarget::RelativeError {
            target: re,
            reference: None,
        },
        // The serving layer's cadence (spec::TARGET_CHECK_EVERY).
        check_every: 256,
        max_steps: 50_000_000,
    }
}

/// Run loose → deposit → plan → warm-continue to a tighter target, and
/// demand the result is bit-identical to one cold run straight to that
/// target. The tighter target is set to half the loose run's *achieved*
/// RE (quality checks overshoot their target by a cadence-dependent
/// amount, so a fixed pair of targets could land on `stored`).
fn check_warm_equals_cold<M, V, E>(
    name: &str,
    estimator: &E,
    problem: Problem<'_, M, V>,
    loose: f64,
    seed: u64,
) where
    M: SimulationModel,
    V: ValueFunction<M::State>,
    E: Estimator<M, V>,
    E::Shard: Send + Clone + 'static,
{
    let width = 8;

    // The loose run, deposited as a checkpoint.
    let mut rng = StreamFactory::new(seed).stream(0);
    let first = run_sequential_batched(estimator, problem, target(loose), &mut rng, width);
    let tight = first.estimate.self_relative_error() * 0.5;
    assert!(tight.is_finite() && tight > 0.0, "{name}: costable RE");

    // The reference: one uninterrupted run to the tight target.
    let mut cold_rng = StreamFactory::new(seed).stream(0);
    let cold = run_sequential_batched(estimator, problem, target(tight), &mut cold_rng, width);
    assert!(cold.estimate.self_relative_error() <= tight, "{name}: cold");

    let store = ShardStore::new(4);
    let key = shard_key(0xfeed, name, None);
    store.deposit(
        key.clone(),
        StoredShard::new(
            &first.shard,
            first.cursor,
            first.estimate,
            Some(seed),
            loose,
        ),
    );

    // The planner must choose warm (the stored RE misses the tighter
    // target) with a positive marginal-root estimate.
    let plan = plan_reuse(&store, &key, tight, Some(seed));
    let ReusePlan::Warm {
        entry,
        stored_re,
        est_marginal_roots,
    } = plan
    else {
        panic!(
            "{name}: expected warm (stored_re {} vs target {tight})",
            first.estimate.self_relative_error()
        );
    };
    assert!(stored_re > tight, "{name}: warm only when target unmet");
    assert!(est_marginal_roots > 0, "{name}: marginal cost is positive");
    assert!(
        entry.n_roots() < cold.estimate.n_roots,
        "{name}: checkpoint must be a strict prefix of the cold run"
    );

    // Continue from the checkpoint: shard + run cursor.
    let shard = entry
        .shard_as::<E::Shard>()
        .expect("method-keyed entry downcasts")
        .clone();
    let warm = run_sequential_from(
        estimator,
        problem,
        target(tight),
        entry.cursor,
        shard,
        width,
    );

    assert_eq!(warm.estimate.steps, cold.estimate.steps, "{name}: steps");
    assert_eq!(
        warm.estimate.n_roots, cold.estimate.n_roots,
        "{name}: roots"
    );
    assert_eq!(warm.estimate.hits, cold.estimate.hits, "{name}: hits");
    assert_eq!(
        warm.estimate.tau.to_bits(),
        cold.estimate.tau.to_bits(),
        "{name}: τ̂ {} vs {}",
        warm.estimate.tau,
        cold.estimate.tau
    );
    assert_eq!(
        warm.estimate.variance.to_bits(),
        cold.estimate.variance.to_bits(),
        "{name}: variance"
    );
    assert_eq!(
        Ledger::steps(&warm.shard),
        Ledger::steps(&cold.shard),
        "{name}: shard steps"
    );
    assert_eq!(
        Ledger::n_roots(&warm.shard),
        Ledger::n_roots(&cold.shard),
        "{name}: shard roots"
    );
    // Both runs ended at the same cursor — the continuation really
    // replayed the cold run's tail, not a statistically-similar one.
    assert_eq!(warm.cursor, cold.cursor, "{name}: final cursor");
}

#[test]
fn srs_warm_start_is_bit_identical_to_cold_at_tighter_target() {
    let model = CompoundPoisson::zero_drift_default();
    let v = cpp_vf(40.0);
    check_warm_equals_cold("srs", &SrsEstimator, Problem::new(&model, &v, 80), 0.2, 41);
}

#[test]
fn smlss_warm_start_is_bit_identical_to_cold_at_tighter_target() {
    let model = CompoundPoisson::zero_drift_default();
    let v = cpp_vf(40.0);
    let cfg = SMlssConfig::new(
        PartitionPlan::new(vec![0.4, 0.7]).unwrap(),
        RunControl::budget(1),
    );
    check_warm_equals_cold("smlss", &cfg, Problem::new(&model, &v, 80), 0.2, 43);
}

#[test]
fn gmlss_warm_start_is_bit_identical_to_cold_at_tighter_target() {
    // g-MLSS draws from its check streams in its bootstrap-bearing
    // quality checks; the continuation must replay those too.
    let model = CompoundPoisson::zero_drift_default();
    let v = cpp_vf(40.0);
    let cfg = GMlssConfig::new(
        PartitionPlan::new(vec![0.4, 0.5]).unwrap(),
        RunControl::budget(1),
    );
    check_warm_equals_cold("gmlss", &cfg, Problem::new(&model, &v, 80), 0.2, 47);
}

#[test]
fn is_warm_start_is_bit_identical_to_cold_at_tighter_target() {
    let model = CompoundPoisson::zero_drift_default();
    let v = cpp_vf(40.0);
    check_warm_equals_cold(
        "is",
        &IsEstimator::new(0.3),
        Problem::new(&model, &v, 80),
        0.2,
        53,
    );
}

// ---------------------------------------------------------------------
// End-to-end through the SQL layer.
// ---------------------------------------------------------------------

fn session(capacity: usize) -> Session {
    Session::new(SessionConfig {
        workers: 1,
        seed: 7,
        shard_store_capacity: capacity,
        ..SessionConfig::default()
    })
    .unwrap()
}

fn results_rows(s: &Session) -> Vec<Vec<Value>> {
    s.db()
        .with_table("results", |t| t.scan().map(|r| r.to_vec()).collect())
        .unwrap_or_default()
}

fn estimate_sql(model: &str, method: Method, re: f64, seed: u64) -> String {
    let mut spec = QuerySpec::new(model, 3.0, 40, re);
    spec.method = method;
    if method.needs_plan() {
        spec.levels = 3;
    }
    spec.options.seed = Some(seed);
    spec.options.mode = ExecMode::Sync;
    spec.render()
}

/// Provenance column of the last `results` row.
fn last_reuse(s: &Session) -> String {
    let rows = results_rows(s);
    match rows.last().and_then(|r| r.get(10)) {
        Some(Value::Text(t)) => t.clone(),
        other => panic!("shard_reuse column: {other:?}"),
    }
}

/// Compare the estimate-bearing columns of two `results` rows
/// bit-for-bit: model, method, beta, horizon, tau, variance, steps,
/// n_roots (millis, plan_cache, shard_reuse legitimately differ).
fn assert_rows_bit_identical(x: &[Value], y: &[Value], what: &str) {
    for c in 0..8 {
        match (&x[c], &y[c]) {
            (Value::Float(a), Value::Float(b)) => {
                assert_eq!(a.to_bits(), b.to_bits(), "{what}: col {c}: {a} != {b}")
            }
            (a, b) => assert_eq!(a, b, "{what}: col {c}"),
        }
    }
}

/// One shard-store counter out of `SHOW DIAGNOSTICS`.
fn shard_store_counter(s: &Session, name: &str) -> f64 {
    let result = s.execute("SHOW DIAGNOSTICS").unwrap();
    let mlss_db::ExecResult::Rows { rows, .. } = result else {
        panic!("SHOW DIAGNOSTICS must return rows");
    };
    rows.iter()
        .find(|r| r[0] == Value::Text("shard_store".into()) && r[1] == Value::Text(name.into()))
        .and_then(|r| r[2].as_f64())
        .unwrap_or_else(|| panic!("{name} counter"))
}

#[test]
fn tightening_session_rows_match_a_cold_session_bit_for_bit() {
    // Session A: loose then tight (the tight query warm-starts the loose
    // checkpoint). Session B: tight only, cold. The tight rows must
    // agree bit-for-bit in every estimate-bearing column — the SQL-level
    // restatement of the warm ≡ cold invariant.
    let seed = 4242u64;
    for method in [Method::Srs, Method::SMlss, Method::GMlss] {
        let a = session(16);
        a.execute(&estimate_sql("ar", method, 0.5, seed)).unwrap();
        // Tighten to half the achieved RE (σ/τ̂ of the recorded row):
        // quality checks overshoot their target, so a fixed tighter
        // target could already be met and plan `stored` instead.
        let loose_row = results_rows(&a).pop().unwrap();
        let (tau, var) = match (&loose_row[4], &loose_row[5]) {
            (Value::Float(t), Value::Float(v)) => (*t, *v),
            other => panic!("tau/variance columns: {other:?}"),
        };
        let tight = var.max(0.0).sqrt() / tau * 0.5;
        a.execute(&estimate_sql("ar", method, tight, seed)).unwrap();
        assert_eq!(last_reuse(&a), "warm", "{method:?}: tighten warm-starts");

        let b = session(16);
        b.execute(&estimate_sql("ar", method, tight, seed)).unwrap();
        assert_eq!(last_reuse(&b), "cold", "{method:?}: fresh store is cold");

        let warm_row = results_rows(&a).pop().unwrap();
        let cold_row = results_rows(&b).pop().unwrap();
        assert_rows_bit_identical(&warm_row, &cold_row, &format!("{method:?}"));
    }
}

#[test]
fn pinned_looser_repeat_ignores_the_store() {
    // Session A runs tight then loose under one pinned seed. The loose
    // statement must NOT be answered from the tight run's checkpoint,
    // even though the stored RE meets its target: a storeless session's
    // loose run stops at an earlier quality check (fewer roots), and
    // pinned bits must not depend on store presence. Session B is that
    // storeless reference.
    let seed = 777u64;
    let a = session(16);
    a.execute(&estimate_sql("ar", Method::Srs, 0.2, seed))
        .unwrap();
    a.execute(&estimate_sql("ar", Method::Srs, 0.5, seed))
        .unwrap();
    assert_eq!(last_reuse(&a), "cold", "looser pinned repeat runs cold");

    let b = session(16);
    b.execute(&estimate_sql("ar", Method::Srs, 0.5, seed))
        .unwrap();

    assert_rows_bit_identical(
        &results_rows(&a).pop().unwrap(),
        &results_rows(&b).pop().unwrap(),
        "pinned looser repeat",
    );
}

/// Run `sql`, waiting for it when it is an ASYNC submission, and return
/// its `results` row.
fn answer(s: &Session, sql: &str) -> Vec<Value> {
    if let mlss_db::ExecResult::Rows { columns, rows } = s.execute(sql).unwrap() {
        if columns == ["query_id"] {
            let Value::Int(id) = rows[0][0] else {
                panic!("query_id column: {:?}", rows[0][0]);
            };
            s.wait(id as u64).unwrap();
        }
    }
    results_rows(s).pop().unwrap()
}

#[test]
fn pinned_parallel_and_async_runs_warm_start_bit_identically() {
    // Every driver replays one trajectory per seed, so a tighter pinned
    // statement on four threads, or submitted ASYNC, warm-starts from the
    // loose run's checkpoint and still answers with the bits of a cold,
    // storeless session.
    let seed = 888u64;
    let loose = estimate_sql("ar", Method::GMlss, 0.5, seed);
    let probe = session(16);
    let loose_row = answer(&probe, &loose);
    let (tau, var) = match (&loose_row[4], &loose_row[5]) {
        (Value::Float(t), Value::Float(v)) => (*t, *v),
        other => panic!("tau/variance columns: {other:?}"),
    };
    let mut tight = QuerySpec::new("ar", 3.0, 40, var.max(0.0).sqrt() / tau * 0.5);
    tight.method = Method::GMlss;
    tight.levels = 3;
    tight.options.seed = Some(seed);
    for (what, threads, mode) in [
        ("threads=4", 4, ExecMode::Sync),
        ("ASYNC", 1, ExecMode::Async),
    ] {
        tight.options.threads = threads;
        tight.options.mode = mode;
        let a = session(16);
        answer(&a, &loose);
        let warm = answer(&a, &tight.render());
        assert_eq!(last_reuse(&a), "warm", "{what}: tighten warm-starts");

        let b = session(0);
        let cold = answer(&b, &tight.render());
        assert_eq!(last_reuse(&b), "none", "{what}: storeless session");
        assert_rows_bit_identical(&warm, &cold, what);
    }
}

/// Parks the first slice whose checkpoint a store could serve as is —
/// admissible, RE at or under `target` — although it was cut inside a
/// chunk, then holds the worker until the test has requested a pause.
struct ParkInsideAMetChunk {
    target: f64,
    parked: Mutex<Sender<QueryId>>,
    release: Mutex<Receiver<()>>,
    fired: AtomicBool,
}

impl DurabilityHook for ParkInsideAMetChunk {
    fn slice_committed(&self, id: QueryId, _slices: u64, job: &mut dyn SliceableQuery) {
        if self.fired.load(Ordering::SeqCst) {
            return;
        }
        let Some((_, entry)) = job.reuse_snapshot() else {
            return;
        };
        let meta = entry.meta();
        if !meta.at_check
            && meta.n_roots >= MIN_REUSE_ROOTS
            && meta.stored_re <= self.target
            && !self.fired.swap(true, Ordering::SeqCst)
        {
            self.parked.lock().unwrap().send(id).unwrap();
            self.release.lock().unwrap().recv().unwrap();
        }
    }
}

#[test]
fn pinned_statement_after_a_paused_async_run_matches_a_storeless_session() {
    // A pinned ASYNC query is paused and detached inside a chunk whose
    // RE already meets its target; detaching deposits that checkpoint.
    // The same statement run synchronously must warm-start from it to
    // the chunk end — not serve it — and match a storeless session.
    let (seed, re) = (31u64, 0.3);
    let sync_sql = estimate_sql("ar", Method::Srs, re, seed);
    let mut spec = QuerySpec::new("ar", 3.0, 40, re);
    spec.method = Method::Srs;
    spec.options.seed = Some(seed);
    spec.options.mode = ExecMode::Async;

    let a = Session::new(SessionConfig {
        workers: 1,
        slice_budget: 200,
        seed: 7,
        shard_store_capacity: 16,
        ..SessionConfig::default()
    })
    .unwrap();
    let (parked_tx, parked_rx) = channel();
    let (release_tx, release_rx) = channel();
    a.scheduler()
        .attach_durability_hook(Arc::new(ParkInsideAMetChunk {
            target: re,
            parked: Mutex::new(parked_tx),
            release: Mutex::new(release_rx),
            fired: AtomicBool::new(false),
        }));
    let mlss_db::ExecResult::Rows { rows, .. } = a.execute(&spec.render()).unwrap() else {
        panic!("ASYNC returns its query id");
    };
    let Value::Int(id) = rows[0][0] else {
        panic!("query_id column: {:?}", rows[0][0]);
    };
    let parked = parked_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("a slice ends inside a chunk whose RE meets the target");
    assert_eq!(parked, id as QueryId);
    assert!(a.scheduler().pause(parked));
    release_tx.send(()).unwrap();
    while !matches!(a.scheduler().poll(parked), Some(QueryStatus::Paused)) {
        std::thread::yield_now();
    }
    assert!(a.scheduler().detach(parked).is_some());

    let warm = answer(&a, &sync_sql);
    assert_eq!(
        last_reuse(&a),
        "warm",
        "a mid-chunk checkpoint is not served"
    );
    let b = session(0);
    let cold = answer(&b, &sync_sql);
    assert_rows_bit_identical(&warm, &cold, "after a paused ASYNC run");
}

#[test]
fn explain_previews_reuse_without_perturbing_the_store() {
    // EXPLAIN must preview the planner's verdict without counted
    // lookups: hit/miss counters and the LRU order belong to executed
    // statements only.
    let s = session(16);
    let sql = estimate_sql("ar", Method::Srs, 0.4, 31);
    s.execute(&sql).unwrap();
    let hits = shard_store_counter(&s, "shard_store_hits");
    let misses = shard_store_counter(&s, "shard_store_misses");

    for _ in 0..2 {
        let result = s.execute(&format!("EXPLAIN {sql}")).unwrap();
        let mlss_db::ExecResult::Rows { rows, .. } = result else {
            panic!("EXPLAIN must return rows");
        };
        let reuse = rows
            .iter()
            .find(|r| r[0] == Value::Text("reuse".into()))
            .map(|r| r[1].clone())
            .expect("reuse row");
        assert_eq!(reuse, Value::Text("stored".into()), "verdict previewed");
    }
    assert_eq!(shard_store_counter(&s, "shard_store_hits"), hits);
    assert_eq!(shard_store_counter(&s, "shard_store_misses"), misses);

    // The preview matches what execution then does.
    s.execute(&sql).unwrap();
    assert_eq!(last_reuse(&s), "stored");
}

#[test]
fn repeated_statement_is_served_from_the_store() {
    let s = session(16);
    let sql = estimate_sql("ar", Method::GMlss, 0.4, 99);
    s.execute(&sql).unwrap();
    assert_eq!(last_reuse(&s), "cold");
    s.execute(&sql).unwrap();
    assert_eq!(last_reuse(&s), "stored");
    // Stored serves are free: the two rows carry the identical estimate.
    let rows = results_rows(&s);
    let (a, b) = (&rows[rows.len() - 2], &rows[rows.len() - 1]);
    for c in [4usize, 5, 6, 7] {
        match (&a[c], &b[c]) {
            (Value::Float(x), Value::Float(y)) => assert_eq!(x.to_bits(), y.to_bits(), "col {c}"),
            (x, y) => assert_eq!(x, y, "col {c}"),
        }
    }
}

/// The `ar` model at its registry defaults, metering every `g`
/// invocation a session makes through it. A `stored` row copies its
/// source's `steps` column, so only a counter sees what reuse saved.
static COUNTED_AR: LazyLock<StepCounter<ArModel>> =
    LazyLock::new(|| StepCounter::new(ArModel::ar1(0.7, 1.0, 0.0)));

/// The registry builder serving [`COUNTED_AR`].
fn counted_ar(_: &BTreeMap<String, f64>, _: u64) -> Result<Box<dyn ModelRunner>, DbError> {
    Ok(Box::new(Runner {
        model: &*COUNTED_AR,
        score: ar_value_score as fn(&ArState) -> f64,
    }))
}

/// `g` invocations a fresh session with the given store capacity spends
/// on `statements`, all over `counted_ar`: the `ar` schema, served by
/// [`COUNTED_AR`].
fn simulated_steps(capacity: usize, statements: &[String]) -> u64 {
    let mut s = session(capacity);
    let ar = s.models().schema("ar").unwrap();
    let schema = ModelSchema::new("counted_ar", ar.doc, ar.params.clone());
    s.register_model(schema, counted_ar).unwrap();
    COUNTED_AR.reset();
    for sql in statements {
        s.execute(sql).unwrap();
    }
    COUNTED_AR.steps()
}

#[test]
fn reuse_cuts_simulated_steps_of_repeated_and_tightening_queries() {
    // A dashboard re-issuing one statement: every repeat is served.
    let repeated = vec![estimate_sql("counted_ar", Method::Srs, 0.01, 99); 8];
    let (on, off) = (
        simulated_steps(64, &repeated),
        simulated_steps(0, &repeated),
    );
    assert!(
        5 * on <= off,
        "repeated: {on} steps with the store vs {off} without (must be ≤ 1/5)"
    );

    // An analyst tightening 2% → 0.5%: each rung pays only its margin.
    let ladder: Vec<String> = [0.02, 0.014, 0.01, 0.007, 0.005]
        .iter()
        .map(|&re| estimate_sql("counted_ar", Method::Srs, re, 99))
        .collect();
    let (on, off) = (simulated_steps(64, &ladder), simulated_steps(0, &ladder));
    assert!(
        3 * on <= 2 * off,
        "tightening: {on} steps with the store vs {off} without (must be ≤ 1/1.5)"
    );
}

#[test]
fn registered_models_are_add_only() {
    // Plans and stored shards are keyed by model name, so a name that
    // is already registered must not be rebound to another model.
    let mut s = session(64);
    let ar = s.models().schema("ar").unwrap().clone();
    let err = s.register_model(ar, counted_ar).unwrap_err();
    assert!(err.to_string().contains("already registered"), "{err}");
}

#[test]
fn capacity_pressure_evicts_and_forces_cold() {
    // Capacity 1: the walk deposit evicts the ar checkpoint, so
    // repeating the ar statement runs cold again — and the eviction is
    // visible through SHOW DIAGNOSTICS.
    let s = session(1);
    let ar = estimate_sql("ar", Method::Srs, 0.4, 11);
    let walk = estimate_sql("walk", Method::Srs, 0.4, 12);
    s.execute(&ar).unwrap();
    s.execute(&walk).unwrap();
    s.execute(&ar).unwrap();
    assert_eq!(last_reuse(&s), "cold", "evicted checkpoint cannot serve");

    let result = s.execute("SHOW DIAGNOSTICS").unwrap();
    let mlss_db::ExecResult::Rows { columns, rows } = result else {
        panic!("SHOW DIAGNOSTICS must return rows");
    };
    assert_eq!(columns, ["component", "counter", "value"]);
    let evictions = rows
        .iter()
        .find(|r| {
            r[0] == Value::Text("shard_store".into())
                && r[1] == Value::Text("shard_store_evictions".into())
        })
        .and_then(|r| r[2].as_f64())
        .expect("shard_store_evictions counter");
    assert!(evictions >= 1.0, "eviction shows in diagnostics");
}

#[test]
fn fingerprint_mismatch_never_reuses_another_models_shards() {
    // A β change alters the model fingerprint: the second statement must
    // run cold even though model name, method, and target all match.
    let s = session(16);
    let mut spec = QuerySpec::new("ar", 3.0, 40, 0.4);
    spec.options.seed = Some(21);
    s.execute(&spec.render()).unwrap();
    assert_eq!(last_reuse(&s), "cold");

    let mut shifted = QuerySpec::new("ar", 3.5, 40, 0.4);
    shifted.options.seed = Some(21);
    s.execute(&shifted.render()).unwrap();
    assert_eq!(last_reuse(&s), "cold", "different β never reuses");

    // Each fingerprint still serves its own repeats.
    s.execute(&shifted.render()).unwrap();
    assert_eq!(last_reuse(&s), "stored");
}
