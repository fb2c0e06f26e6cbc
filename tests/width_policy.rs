//! The batch-width policy: one fixed default per kernel class, and it
//! must never show up in result bits.
//!
//! A statement that names no `batch_width` (or says `auto`) launches at
//! its model's kernel-class width — 64 lanes on the vectorized draw
//! pipeline, 1 lane otherwise — on every route, and the frontier's
//! launch gate narrows the final cohort so speculation never runs past
//! the budget. None of that may perturb results: the committed shard is
//! a pure function of the run key, the root cursor and the budget,
//! independent of width.
//!
//! Pinned here:
//! * every builtin model's default statement — sync, ASYNC and
//!   `batch_width=auto` — resolves to its class width in `EXPLAIN`, and
//!   a sync run at that width is bit-identical to one at width 1;
//! * `batch_width=auto` is bit-identical to pinning the width it
//!   resolves to, end to end through the SQL layer, and the plan cache
//!   reads the resolved width back;
//! * a pause / detach / `with_batch_width` / resubmit cycle — a width
//!   change mid-query — stays bit-identical to one uninterrupted run;
//! * the frontier's launch gate runs **zero** doomed speculation when
//!   the budget is an exact multiple of the per-root cost, at every
//!   width;
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

/// The `width` row of `EXPLAIN <sql>`, e.g. `"64 (default)"`.
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

/// The leading number of a `width` row: `"64 (default)"` → 64.
fn width_of(row: &str) -> usize {
    row.split(' ')
        .next()
        .and_then(|w| w.parse().ok())
        .unwrap_or_else(|| panic!("width row {row:?} must read 'W (src)'"))
}

/// Every builtin model's default statement (no `batch_width`), with the
/// launch width of its kernel class: 64 on the vectorized draw pipeline
/// (walk, gbm, cpp below λ 30), 1 everywhere else.
const DEFAULT_STATEMENTS: [(&str, usize); 9] = [
    ("walk(beta=6) WITHIN 50", 64),
    ("gbm(beta=560) WITHIN 50", 64),
    ("cpp(beta=20) WITHIN 40", 64),
    ("cpp(beta=20, intensity=40, premium=302) WITHIN 40", 1),
    ("markov(beta=8) WITHIN 50", 1),
    ("network(beta=6) WITHIN 50", 1),
    ("queue(beta=6) WITHIN 50", 1),
    ("volatile(beta=20) WITHIN 40", 1),
    ("ar(beta=3) WITHIN 40", 1),
];

#[test]
fn every_route_defaults_to_the_kernel_class_width() {
    for (shape, class_width) in DEFAULT_STATEMENTS {
        let sql = |opts: &str, mode: &str| {
            format!(
                "ESTIMATE DURABILITY OF {shape} USING srs TARGET RE 30% \
                 WITH (seed=11{opts}){mode}"
            )
        };
        let s = session();
        for (form, stmt) in [
            ("sync", sql("", "")),
            ("ASYNC", sql("", " ASYNC")),
            ("auto", sql(", batch_width=auto", "")),
        ] {
            assert_eq!(
                explain_width_row(&s, &stmt),
                format!("{class_width} (default)"),
                "{shape}, {form} form"
            );
        }
        s.execute(&sql("", "")).unwrap();
        let narrow = session();
        assert_eq!(
            explain_width_row(&narrow, &sql(", batch_width=1", "")),
            "1 (requested)"
        );
        narrow.execute(&sql(", batch_width=1", "")).unwrap();
        let (a, b) = (results_rows(&s), results_rows(&narrow));
        assert_eq!((a.len(), b.len()), (1, 1), "{shape}");
        assert_rows_bit_identical(&a[0], &b[0], &format!("{shape}: default vs width 1"));
    }
}

#[test]
fn auto_width_is_bit_identical_to_its_resolved_width() {
    // Resolve `auto` via EXPLAIN, then run the same pinned-seed
    // statement once at `auto` and once at the width it resolved to, in
    // separate cold sessions: the rows must agree in every
    // estimate-bearing column.
    let auto = session();
    let sql_auto = cpp_sql(23, Some(AUTO_WIDTH));

    let first = explain_width_row(&auto, &sql_auto);
    assert_eq!(first, "64 (default)", "cpp below λ 30 is SIMD-hot");
    let resolved = width_of(&first);
    // Resolution is a pure function of the model: a second look agrees.
    assert_eq!(explain_width_row(&auto, &sql_auto), first);

    auto.execute(&sql_auto).unwrap();
    // The plan cache reads back the width the family resolved to.
    let mut spec = QuerySpec::new("cpp", 40.0, 80, 0.3);
    spec.method = Method::Srs;
    let (_, fp, _) = auto.models().build_spec(auto.db(), &spec).unwrap();
    assert_eq!(auto.plan_cache().cached_width(fp), Some(resolved));

    let pinned = session();
    let sql_pinned = cpp_sql(23, Some(resolved));
    assert_eq!(
        explain_width_row(&pinned, &sql_pinned),
        format!("{resolved} (requested)"),
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
    // the horizon pays for a whole number of roots. The launch gate
    // must launch exactly those roots — zero discarded speculation in
    // the frontier ledger — at every width, in a raw chunk and through
    // the driver alike, and commit what a width-1 chunk commits.
    let model = RandomWalk::new(0.3, 0.3, 0);
    type WalkVf = RatioValue<fn(&i64) -> f64>;
    fn walk_score(s: &i64) -> f64 {
        *s as f64
    }
    let v: WalkVf = RatioValue::new(walk_score as fn(&i64) -> f64, 1e15);
    let problem = Problem::new(&model, &v, 80);
    let budget = 25 * 80u64; // exactly 25 roots

    for width in [1usize, 16, 64, 256] {
        width::take_thread_stats();
        let mut raw = <SrsEstimator as Estimator<RandomWalk, WalkVf>>::shard(&SrsEstimator);
        let mut roots = RootCursor::from_rng(&mut rng_from_seed(7));
        SrsEstimator.run_chunk(problem, &mut raw, budget, &mut roots, width);
        let chunk = width::take_thread_stats();

        let control = RunControl::budget(budget);
        let driven = run_sequential_batched(
            &SrsEstimator,
            problem,
            control,
            &mut rng_from_seed(7),
            width,
        );
        let run = width::take_thread_stats();

        for (what, stats) in [("raw chunk", chunk), ("driver", run)] {
            assert_eq!(
                (stats.launched, stats.committed),
                (25, 25),
                "width {width}, {what}: the budget pays for exactly 25 roots \
                 and the gate must launch no more"
            );
        }
        assert_eq!(driven.shard.steps(), raw.steps());
        assert_eq!((raw.n_roots(), raw.steps()), (25, budget));
    }
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
