//! Adaptive batch width: the policy must never show up in result bits.
//!
//! `batch_width=auto` picks a launch width per query — a static table
//! for cheap kernels, a one-off micro-probe (memoized in the plan
//! cache) for everything else — and the budget-boundary clamp narrows
//! the final cohort so speculation never runs past the budget. None of
//! that may perturb results: the committed shard is a pure function of
//! the run key, the root cursor and the budget, independent of width.
//!
//! Pinned here:
//! * `batch_width=auto` is bit-identical to pinning the width it
//!   resolves to, end to end through the SQL layer;
//! * `EXPLAIN` reports the resolution (`auto -> W (probe)`) and the
//!   second look is served from the plan cache's width memo
//!   (`cached-probe`) — with the same winner;
//! * a pause / detach / `with_batch_width` / resubmit cycle — a width
//!   change mid-query — stays bit-identical to one uninterrupted run;
//! * the boundary clamp launches **zero** doomed speculation when the
//!   budget is an exact multiple of the per-root cost, while a raw
//!   full-width chunk on the same budget discards a whole cohort's
//!   worth;
//! * `SHOW DIAGNOSTICS` surfaces the speculation ledger.

use durability_mlss::models::{surplus_score, CompoundPoisson, RandomWalk};
use mlss_core::estimator::run_sequential_batched;
use mlss_core::prelude::*;
use mlss_core::spec::{ExecMode, Method, QuerySpec};
use mlss_core::width::{self, AUTO_WIDTH};
use mlss_db::{Session, SessionConfig, Value};

type CppVf = RatioValue<fn(&f64) -> f64>;

fn cpp_vf(beta: f64) -> CppVf {
    RatioValue::new(surplus_score as fn(&f64) -> f64, beta)
}

fn session() -> Session {
    Session::new(SessionConfig {
        workers: 1,
        seed: 7,
        shard_store_capacity: 0,
        ..SessionConfig::default()
    })
    .unwrap()
}

fn results_rows(s: &Session) -> Vec<Vec<Value>> {
    s.db()
        .with_table("results", |t| t.scan().map(|r| r.to_vec()).collect())
        .unwrap_or_default()
}

/// Compare the estimate-bearing columns of two `results` rows
/// bit-for-bit (model, method, beta, horizon, tau, variance, steps,
/// n_roots — millis and provenance legitimately differ).
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

fn cpp_sql(seed: u64, batch_width: Option<usize>) -> String {
    let mut spec = QuerySpec::new("cpp", 40.0, 80, 0.3);
    spec.method = Method::Srs;
    spec.options.seed = Some(seed);
    spec.options.mode = ExecMode::Sync;
    spec.options.batch_width = batch_width;
    spec.render()
}

/// The `width` row of `EXPLAIN <sql>`, e.g. `"auto -> 128 (probe)"`.
fn explain_width_row(s: &Session, sql: &str) -> String {
    let result = s.execute(&format!("EXPLAIN {sql}")).unwrap();
    let mlss_db::ExecResult::Rows { rows, .. } = result else {
        panic!("EXPLAIN must return rows");
    };
    rows.iter()
        .find(|r| r[0] == Value::Text("width".into()))
        .map(|r| match &r[1] {
            Value::Text(t) => t.clone(),
            other => panic!("width row value: {other:?}"),
        })
        .expect("width row")
}

#[test]
fn auto_width_is_bit_identical_to_its_resolved_width() {
    // Resolve `auto` via EXPLAIN, then run the same pinned-seed
    // statement once at `auto` and once at the width it resolved to, in
    // separate cold sessions. The probe draws only from a throwaway RNG
    // keyed off the plan fingerprint — never from the query stream — so
    // the rows must agree in every estimate-bearing column.
    let auto = session();
    let sql_auto = cpp_sql(23, Some(AUTO_WIDTH));

    let first = explain_width_row(&auto, &sql_auto);
    let resolved: usize = first
        .strip_prefix("auto -> ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|w| w.parse().ok())
        .unwrap_or_else(|| panic!("width row {first:?} must read 'auto -> W (src)'"));
    assert!(
        first.ends_with("(probe)"),
        "first resolution must come from the micro-probe: {first:?}"
    );
    // Second look: the winner is memoized per plan fingerprint.
    let second = explain_width_row(&auto, &sql_auto);
    assert_eq!(
        second,
        format!("auto -> {resolved} (cached-probe)"),
        "repeat resolution must hit the width memo"
    );

    auto.execute(&sql_auto).unwrap();

    let pinned = session();
    let sql_pinned = cpp_sql(23, Some(resolved));
    assert!(
        explain_width_row(&pinned, &sql_pinned).ends_with("(requested)"),
        "an explicit width is its own provenance"
    );
    pinned.execute(&sql_pinned).unwrap();

    let a = results_rows(&auto);
    let b = results_rows(&pinned);
    assert_eq!(a.len(), 1);
    assert_eq!(b.len(), 1);
    assert_rows_bit_identical(&a[0], &b[0], "auto vs resolved");
}

#[test]
fn mid_run_width_change_preserves_bit_identity() {
    // A scheduler query paused mid-run, detached, rewidened from 16 to
    // 48 lanes, and resubmitted must land on the same bits as one
    // uninterrupted sequential run: chunk boundaries always drain the
    // frontier, so the width in force for any given chunk is invisible.
    let model = CompoundPoisson::zero_drift_default();
    let v = cpp_vf(40.0);
    let problem = Problem::new(&model, &v, 80);
    let control = RunControl::budget(120_000);
    let seed = 17u64;

    let seq = run_sequential_batched(
        &SrsEstimator,
        problem,
        control,
        &mut StreamFactory::new(seed).stream(0),
        16,
    )
    .estimate;

    let sched = Scheduler::new(SchedulerConfig {
        workers: 1,
        slice_budget: 10_000,
        max_retries: 0,
        batch_width: 16,
        tenant_weights: Vec::new(),
    });
    let id = sched.submit(
        CompoundPoisson::zero_drift_default(),
        cpp_vf(40.0),
        80,
        SrsEstimator,
        control,
        seed,
        0,
    );
    loop {
        let p = sched.progress(id).unwrap();
        if p.steps > 0 {
            break;
        }
        std::thread::yield_now();
    }
    sched.pause(id);
    loop {
        if matches!(sched.progress(id).unwrap().status, QueryStatus::Paused) {
            break;
        }
        std::thread::yield_now();
    }
    let job = sched.detach(id).expect("paused job detaches");
    let mid_steps = job.steps();
    assert!(mid_steps > 0 && mid_steps < 120_000, "checkpoint mid-run");

    // Rewiden the detached job: nonzero -> nonzero is safe at any slice
    // boundary, and a detached job sits exactly on one.
    let q = job
        .into_any()
        .downcast::<EstimatorQuery<CompoundPoisson, CppVf, SrsEstimator>>()
        .expect("detached job downcasts to its concrete query");
    let id2 = sched.submit_query(Box::new(q.with_batch_width(48)), 0);
    let est = *sched.wait(id2).unwrap().estimate().unwrap();

    assert_eq!(est.steps, seq.steps);
    assert_eq!(est.n_roots, seq.n_roots);
    assert_eq!(est.hits, seq.hits);
    assert_eq!(est.tau.to_bits(), seq.tau.to_bits());
}

#[test]
fn boundary_shrink_launches_zero_doomed_speculation() {
    // With an unreachable threshold, every random-walk root runs
    // exactly `horizon` steps, so a budget that is an exact multiple of
    // the horizon pays for a whole number of roots — and the driver's
    // first-chunk assumption (one horizon per root) is exact. The clamp
    // must then launch exactly the roots the budget pays for — zero
    // discarded speculation in the frontier ledger — while a raw
    // full-width chunk on the same budget launches a 64-lane cohort and
    // throws most of it away.
    let model = RandomWalk::new(0.3, 0.3, 0);
    type WalkVf = RatioValue<fn(&i64) -> f64>;
    fn walk_score(s: &i64) -> f64 {
        *s as f64
    }
    let v: WalkVf = RatioValue::new(walk_score as fn(&i64) -> f64, 1e15);
    let problem = Problem::new(&model, &v, 80);
    let budget = 25 * 80u64; // exactly 25 roots

    // Raw chunk at width 64: the unclamped baseline speculates.
    width::take_thread_stats();
    let mut raw = <SrsEstimator as Estimator<RandomWalk, WalkVf>>::shard(&SrsEstimator);
    SrsEstimator.run_chunk(
        problem,
        &mut raw,
        budget,
        &mut RootCursor::from_rng(&mut rng_from_seed(7)),
        64,
    );
    let unclamped = width::take_thread_stats();
    assert!(
        unclamped.discarded() > 0,
        "a raw width-64 chunk on a 25-root budget must discard speculation"
    );

    // The driver's clamp: same budget, zero discard.
    let driven = run_sequential_batched(
        &SrsEstimator,
        problem,
        RunControl::budget(budget),
        &mut rng_from_seed(7),
        64,
    );
    let clamped = width::take_thread_stats();
    assert_eq!(
        clamped.discarded(),
        0,
        "the clamp must launch zero past-budget speculation \
         (launched {} committed {})",
        clamped.launched,
        clamped.committed
    );
    assert_eq!(clamped.committed, 25, "budget pays for exactly 25 roots");

    // And clamping changed nothing about the committed result.
    assert_eq!(driven.shard.steps(), raw.steps());
    assert_eq!(driven.shard.n_roots(), raw.n_roots());
}

#[test]
fn regime_drift_triggers_a_reprobe_with_surfaced_provenance() {
    // A memoized probe winner is only as good as the cost regime it was
    // measured in. When a family's observed steps/root drifts >2x from
    // the probe's baseline, the next `auto` resolution must re-probe —
    // and say so, both in EXPLAIN provenance and the `reprobed` counter
    // of the width_policy diagnostics block.
    let s = session();
    let sql = cpp_sql(29, Some(AUTO_WIDTH));

    assert!(
        explain_width_row(&s, &sql).ends_with("(probe)"),
        "cold family: micro-probe"
    );
    // A completed run anchors the memo's steps/root baseline.
    s.execute(&sql).unwrap();
    assert!(
        explain_width_row(&s, &sql).ends_with("(cached-probe)"),
        "undrifted memo keeps serving"
    );

    // The family's fingerprint, exactly as dispatch computes it.
    let mut spec = QuerySpec::new("cpp", 40.0, 80, 0.3);
    spec.method = Method::Srs;
    spec.options.seed = Some(29);
    spec.options.mode = ExecMode::Sync;
    spec.options.batch_width = Some(AUTO_WIDTH);
    let (_, fp, _) = s.models().build_spec(s.db(), &spec).unwrap();
    let memo = s.plan_cache().width_memo(fp).expect("probe is memoized");
    let baseline = memo
        .probed_regime
        .expect("a completed run anchors the baseline");

    // Inject a >2x drift, as a completed run with a changed workload
    // shape would report it.
    let before = width::reprobe_count();
    s.plan_cache().observe_regime(fp, baseline * 8.0);

    let re = explain_width_row(&s, &sql);
    assert!(
        re.ends_with("(re-probe)"),
        "a drifted memo must re-calibrate: {re:?}"
    );
    assert!(width::reprobe_count() > before);
    // The re-probe re-anchors the baseline at the drifted regime: the
    // family is served from the memo again.
    assert!(
        explain_width_row(&s, &sql).ends_with("(cached-probe)"),
        "re-probe must re-anchor the memo"
    );

    let result = s.execute("SHOW DIAGNOSTICS").unwrap();
    let mlss_db::ExecResult::Rows { rows, .. } = result else {
        panic!("SHOW DIAGNOSTICS must return rows");
    };
    let reprobed = rows
        .iter()
        .find(|r| {
            r[0] == Value::Text("width_policy".into()) && r[1] == Value::Text("reprobed".into())
        })
        .and_then(|r| r[2].as_f64())
        .expect("width_policy surfaces the reprobed counter");
    assert!(reprobed >= 1.0, "the ledger counts the re-probe");
}

#[test]
fn diagnostics_expose_the_speculation_ledger() {
    // `SHOW DIAGNOSTICS` must surface the width policy's global
    // counters after a batched statement runs.
    let s = session();
    s.execute(&cpp_sql(31, Some(16))).unwrap();

    let result = s.execute("SHOW DIAGNOSTICS").unwrap();
    let mlss_db::ExecResult::Rows { rows, .. } = result else {
        panic!("SHOW DIAGNOSTICS must return rows");
    };
    let counter = |name: &str| -> f64 {
        rows.iter()
            .find(|r| {
                r[0] == Value::Text("width_policy".into()) && r[1] == Value::Text(name.into())
            })
            .and_then(|r| r[2].as_f64())
            .unwrap_or_else(|| panic!("width_policy {name} counter"))
    };
    assert!(counter("frontier_chunks") >= 1.0);
    let launched = counter("roots_launched");
    let committed = counter("roots_committed");
    assert!(launched >= committed && committed > 0.0);
    assert_eq!(counter("speculation_discarded"), launched - committed);
    assert!(counter("effective_width") > 0.0);
}
