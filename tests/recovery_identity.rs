//! Crash-recovery identity: the WAL-backed session must make results
//! durable and ASYNC queries resumable **bit-exactly**.
//!
//! The headline suite is a crash-point sweep: for each estimator, a
//! pinned-seed ASYNC query runs to completion once without interference
//! (the reference), then again under a [`CrashPlan`] wedging the log
//! after every possible record count — plus torn-tail variants that
//! leave a partial frame on disk. Each wedged directory is reopened as
//! a fresh session and the recovered `results` row is compared against
//! the reference **bit for bit** (excluding `millis`, the one
//! legitimately non-deterministic column).
//!
//! The per-point expectation is decided by what actually reached disk,
//! not by an assumed record order: if the durable prefix contains the
//! `AsyncSubmit` record, recovery must produce exactly the reference
//! row (replayed from a durable `AsyncDone`, resumed from a checkpoint,
//! or re-run cold from the pinned seed — all three are bit-equivalent);
//! if the submit itself was lost, the reopened session must be empty.
//! Because the sweep covers *every* append boundary it necessarily
//! includes a crash between a shard-store deposit's acceptance and its
//! journaling, and a crash between checkpoint and done — the
//! crash-during-deposit and write-ahead cases fall out of the sweep.

use mlss_db::{Durability, ExecResult, Session, SessionConfig, Value, WalSessionConfig};
use mlss_store::{CrashPlan, Record, Wal, WalOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique, empty WAL directory under the system temp dir.
fn fresh_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mlss-recovery-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create wal dir");
    dir
}

/// One worker + width-1 slices + checkpoint-every-slice: the maximally
/// deterministic scheduler shape, with a checkpoint at every commit so
/// the sweep crosses every record kind.
fn wal_config(dir: &Path, crash: Option<CrashPlan>) -> SessionConfig {
    let mut wal = WalSessionConfig::new(dir).with_checkpoint_every(1);
    if let Some(plan) = crash {
        wal = wal.with_crash(plan);
    }
    SessionConfig {
        workers: 1,
        slice_budget: 512,
        batch_width: 1,
        seed: 7,
        durability: Durability::Wal(wal),
        ..SessionConfig::default()
    }
}

/// The pinned-seed ASYNC statement under test, per requested method.
fn statement(method: &str) -> String {
    let using = if method == "srs" {
        "USING srs".to_string()
    } else {
        format!("USING {method}(levels=3)")
    };
    format!(
        "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 {using} \
         TARGET RE 0.15 WITH (seed=4242) ASYNC"
    )
}

/// Submit the statement and block until the scheduler finishes it (the
/// wait also records the in-memory `results` row, like a client poll).
fn submit_and_wait(session: &Session, method: &str) {
    let res = session.execute(&statement(method)).expect("submit");
    let ExecResult::Rows { rows, .. } = res else {
        panic!("ASYNC statement must return a query_id row");
    };
    let id = rows[0][0].as_i64().expect("query_id") as u64;
    session
        .wait(id)
        .expect("wait")
        .expect("submitted id must be known");
}

/// The `results` rows as comparable fingerprints: every column except
/// `millis` (index 8), floats rendered by bit pattern.
fn result_fingerprints(session: &Session) -> Vec<Vec<String>> {
    session
        .db()
        .with_table("results", |t| {
            t.scan()
                .map(|row| {
                    row.iter()
                        .enumerate()
                        .filter(|(c, _)| *c != 8)
                        .map(|(_, v)| match v {
                            Value::Float(f) => format!("f:{:016x}", f.to_bits()),
                            Value::Int(i) => format!("i:{i}"),
                            Value::Text(s) => format!("t:{s}"),
                            other => format!("?:{other:?}"),
                        })
                        .collect()
                })
                .collect()
        })
        .unwrap_or_default()
}

/// The durable record kinds in a (closed) WAL directory, in log order.
/// Raw reopen repairs a torn tail exactly like session recovery would.
fn durable_records(dir: &Path) -> Vec<Record> {
    let (_, replay) = Wal::open(dir, WalOptions::default()).expect("raw wal reopen");
    replay.records
}

/// Short display name of a record's kind (diagnostic output only).
fn record_kind(r: &Record) -> &'static str {
    match r {
        Record::ResultRow(_) => "row",
        Record::PlanEntry { .. } => "plan",
        Record::Checkpoint { qid: None, .. } => "deposit",
        Record::Checkpoint { qid: Some(_), .. } => "checkpoint",
        Record::AsyncSubmit { .. } => "submit",
        Record::AsyncDone { .. } => "done",
        Record::AsyncEnd { .. } => "end",
        Record::SqlStatement { .. } => "sql",
    }
}

struct Reference {
    /// The single `results` row's bit fingerprint.
    row: Vec<String>,
    /// Total records the uncrashed run appended (the sweep bound).
    records: u64,
}

/// Run the statement once with journaling and no crash plan; capture
/// the row bits and the full record count, and sanity-check that the
/// log exercises every lifecycle kind the sweep is supposed to cross.
fn reference_run(method: &str) -> Reference {
    let dir = fresh_dir(&format!("ref-{method}"));
    let session = Session::new(wal_config(&dir, None)).expect("reference session");
    submit_and_wait(&session, method);
    let rows = result_fingerprints(&session);
    assert_eq!(rows.len(), 1, "{method}: reference run records one row");
    let records = session.wal().expect("journaling on").stats().records;
    drop(session);

    let kinds = durable_records(&dir);
    eprintln!(
        "{method}: {:?}",
        kinds.iter().map(record_kind).collect::<Vec<_>>()
    );
    assert_eq!(kinds.len() as u64, records, "{method}: stats vs replay");
    let has = |pred: fn(&Record) -> bool| kinds.iter().any(pred);
    assert!(
        has(|r| matches!(r, Record::AsyncSubmit { .. })),
        "{method}: reference log must journal the submission"
    );
    assert!(
        has(|r| matches!(r, Record::Checkpoint { qid: Some(_), .. })),
        "{method}: checkpoint_every=1 must journal checkpoints"
    );
    assert!(
        has(|r| matches!(r, Record::AsyncDone { .. })),
        "{method}: reference log must journal completion"
    );
    assert!(
        has(|r| matches!(r, Record::Checkpoint { qid: None, .. })),
        "{method}: completion must deposit into the shard store — \
         the sweep needs a crash-during-deposit boundary"
    );
    if method != "srs" {
        assert!(
            has(|r| matches!(r, Record::PlanEntry { .. })),
            "{method}: the derived level plan must be journaled"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    Reference {
        row: rows.into_iter().next().unwrap(),
        records,
    }
}

/// One crash point: run wedged, reopen, compare against the reference.
fn check_crash_point(method: &str, reference: &Reference, plan: CrashPlan, label: &str) {
    let dir = fresh_dir(&format!("{method}-{label}"));
    {
        let crashed = Session::new(wal_config(&dir, Some(plan))).expect("crashed session");
        submit_and_wait(&crashed, method);
        // The wedge only stops the log; the in-memory session keeps
        // serving — exactly a process whose death hasn't happened yet.
        assert_eq!(
            result_fingerprints(&crashed).len(),
            1,
            "{method} {label}: live session still answers"
        );
    }

    let submit_durable = durable_records(&dir)
        .iter()
        .any(|r| matches!(r, Record::AsyncSubmit { .. }));
    let done_durable = durable_records(&dir)
        .iter()
        .any(|r| matches!(r, Record::AsyncDone { .. }));

    let recovered_session = Session::new(wal_config(&dir, None)).expect("recovery session");
    let resumed = recovered_session.wait_recovered().expect("wait recovered");
    let rows = result_fingerprints(&recovered_session);

    if submit_durable {
        assert_eq!(rows.len(), 1, "{method} {label}: one recovered row");
        assert_eq!(
            rows[0], reference.row,
            "{method} {label}: recovered row must be bit-identical to the reference"
        );
        // Write-ahead ordering, observed from the wreckage: a durable
        // done is replayed without re-running; a lost done means the
        // query was resubmitted (and still converged to the same bits).
        assert_eq!(
            resumed.len(),
            usize::from(!done_durable),
            "{method} {label}: resubmission iff the done record was lost"
        );
    } else {
        assert!(
            rows.is_empty(),
            "{method} {label}: a lost submission must not resurrect rows"
        );
        assert!(
            resumed.is_empty(),
            "{method} {label}: nothing to resume without a submit record"
        );
    }
    drop(recovered_session);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sweep every record boundary, plus torn tails at the start, middle,
/// and end of the log (1 byte = inside the length header; 9 bytes =
/// header valid, payload cut).
fn crash_sweep(method: &str) {
    let reference = reference_run(method);
    assert!(
        reference.records >= 3,
        "{method}: the run must span submit + checkpoint + done"
    );
    for k in 0..=reference.records {
        check_crash_point(
            method,
            &reference,
            CrashPlan::after(k),
            &format!("after{k}"),
        );
    }
    for k in [0, reference.records / 2, reference.records] {
        for bytes in [1usize, 9] {
            check_crash_point(
                method,
                &reference,
                CrashPlan::torn(k, bytes),
                &format!("torn{k}x{bytes}"),
            );
        }
    }
}

#[test]
fn srs_crash_sweep_recovers_bit_identically() {
    crash_sweep("srs");
}

#[test]
fn smlss_crash_sweep_recovers_bit_identically() {
    crash_sweep("smlss");
}

#[test]
fn gmlss_crash_sweep_recovers_bit_identically() {
    crash_sweep("gmlss");
}

/// The fourth estimator. Importance sampling is not reachable from the
/// SQL surface, so its recovery contract is pinned at the layer the
/// session builds on: a running IS job's durability checkpoint, pushed
/// through the real record codec and a real on-disk WAL, must resume
/// via [`EstimatorQuery::from_parts`] to the exact bits an undisturbed
/// run produces.
#[test]
fn is_checkpoint_roundtrips_through_the_wal_bit_exactly() {
    use mlss_core::is::{IsEstimator, IsShard, TiltableModel};
    use mlss_core::prelude::*;
    use mlss_core::scheduler::{EstimatorQuery, SliceableQuery};
    use mlss_core::shard_store::shard_key;
    use rand::RngExt;

    /// ±1 walk with the classical exponential tilt.
    #[derive(Clone)]
    struct TiltWalk {
        up: f64,
    }
    impl SimulationModel for TiltWalk {
        type State = f64;
        fn initial_state(&self) -> f64 {
            0.0
        }
        fn step(&self, s: &f64, _t: Time, rng: &mut SimRng) -> f64 {
            if rng.random::<f64>() < self.up {
                s + 1.0
            } else {
                s - 1.0
            }
        }
    }
    impl TiltableModel for TiltWalk {
        fn step_tilted(&self, s: &f64, _t: Time, theta: f64, rng: &mut SimRng) -> (f64, f64) {
            let w_up = self.up * theta.exp();
            let w_down = (1.0 - self.up) * (-theta).exp();
            let z = w_up + w_down;
            if rng.random::<f64>() < w_up / z {
                (s + 1.0, z.ln() - theta)
            } else {
                (s - 1.0, z.ln() + theta)
            }
        }
    }

    fn score(s: &f64) -> f64 {
        *s
    }
    type IsJob = EstimatorQuery<TiltWalk, RatioValue<fn(&f64) -> f64>, IsEstimator>;
    let job = |entry: Option<(IsShard, RunCursor)>| -> IsJob {
        let model = TiltWalk { up: 0.35 };
        let value_fn = RatioValue::new(score as fn(&f64) -> f64, 8.0);
        let estimator = IsEstimator::new(0.5);
        let control = RunControl::budget(30_000);
        match entry {
            None => EstimatorQuery::from_seed(model, value_fn, 40, estimator, control, 99),
            Some((shard, run)) => {
                EstimatorQuery::from_parts(model, value_fn, 40, estimator, control, shard, run)
            }
        }
    };
    let finish = |mut q: IsJob| {
        for _ in 0..1_000 {
            if q.finished() {
                break;
            }
            q.run_slice(2_048);
        }
        assert!(q.finished(), "budget control must terminate");
        q.estimate()
    };

    // Reference: one undisturbed run.
    let reference = finish(job(None));
    assert!(reference.n_roots > 0);

    // "Crashed" run: advance a few slices, capture the durability
    // checkpoint, push it through the real WAL, abandon the job. Only a
    // job that knows its shard key is checkpointable.
    let mut interrupted = job(None).with_reuse_key(shard_key(0x15, "is", None));
    for _ in 0..3 {
        interrupted.run_slice(2_048);
    }
    let (key, entry) = interrupted
        .checkpoint()
        .expect("keyed estimator jobs are checkpointable");
    assert_eq!(key.method, "is");
    let dir = fresh_dir("is-roundtrip");
    {
        let (wal, _) = Wal::open(&dir, WalOptions::default()).expect("wal open");
        let appended = wal
            .append(&Record::Checkpoint {
                qid: Some(1),
                key,
                entry,
            })
            .expect("append checkpoint");
        assert!(appended);
    }
    drop(interrupted); // the process "dies" here

    // Recovery: decode the checkpoint from disk and resume from it.
    let records = durable_records(&dir);
    let Some(Record::Checkpoint { entry, .. }) = records.into_iter().next() else {
        panic!("the checkpoint record must replay");
    };
    let shard = entry
        .shard_as::<IsShard>()
        .expect("is-tagged shard decodes to IsShard")
        .clone();
    let resumed = finish(job(Some((shard, entry.cursor))));

    assert_eq!(reference.tau.to_bits(), resumed.tau.to_bits());
    assert_eq!(reference.variance.to_bits(), resumed.variance.to_bits());
    assert_eq!(reference.steps, resumed.steps);
    assert_eq!(reference.n_roots, resumed.n_roots);
    assert_eq!(reference.hits, resumed.hits);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journaled query checkpoint warm-starts only onto the plan it was
/// cut under. A g-MLSS log cut just before its done record recovers
/// twice: as journaled, and with every query checkpoint's key carrying
/// a foreign plan digest. The genuine log resumes near the end; the
/// foreign one must ignore its checkpoints and rerun cold from the
/// pinned seed — more slices — and both serve the uncrashed row's bits.
#[test]
fn a_checkpoint_under_a_foreign_plan_digest_resumes_cold() {
    let source = fresh_dir("digest-source");
    let reference_row = {
        let session = Session::new(wal_config(&source, None)).expect("session");
        submit_and_wait(&session, "gmlss");
        result_fingerprints(&session).remove(0)
    };
    let recover = |tamper: bool| -> (Vec<String>, u64) {
        let dir = fresh_dir(if tamper {
            "digest-foreign"
        } else {
            "digest-genuine"
        });
        {
            let (wal, _) = Wal::open(&dir, WalOptions::default()).expect("wal open");
            let mut checkpoints = 0;
            for mut rec in durable_records(&source) {
                match &mut rec {
                    Record::AsyncDone { .. } => break,
                    // No store deposits: recovery can only resume or rerun.
                    Record::Checkpoint { qid: None, .. } => continue,
                    Record::Checkpoint { key, .. } => {
                        checkpoints += 1;
                        if tamper {
                            key.plan_digest ^= 1;
                        }
                    }
                    _ => {}
                }
                wal.append(&rec).expect("append");
            }
            assert!(checkpoints > 0, "the cut log keeps its query checkpoints");
        }
        let session = Session::new(wal_config(&dir, None)).expect("recovery session");
        assert_eq!(session.wait_recovered().expect("recover").len(), 1);
        let slices = session.scheduler().stats().slices;
        let row = result_fingerprints(&session).remove(0);
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
        (row, slices)
    };
    let (genuine_row, genuine_slices) = recover(false);
    let (foreign_row, foreign_slices) = recover(true);
    assert_eq!(
        genuine_row, reference_row,
        "warm resume serves the reference bits"
    );
    assert_eq!(
        foreign_row, reference_row,
        "cold rerun serves the reference bits"
    );
    assert!(
        foreign_slices > genuine_slices,
        "a foreign digest must not warm-start: {foreign_slices} vs {genuine_slices} slices"
    );
    let _ = std::fs::remove_dir_all(&source);
}

/// Plain SQL DDL/DML is journaled **write-behind** (executed first,
/// appended on success), so a crash loses at most the statement whose
/// record never reached disk. The sweep wedges the log after every
/// statement boundary — plus a torn tail — and recovery must restore
/// the user table to exactly the durable prefix's state.
#[test]
fn sql_statement_crash_sweep_restores_user_tables() {
    let stmts = [
        "CREATE TABLE fleet (name TEXT, beta FLOAT)",
        "INSERT INTO fleet VALUES ('ares', 4.0), ('hermes', 6.5)",
        "INSERT INTO fleet VALUES ('zeus', 9.0)",
        "DELETE FROM fleet WHERE name = 'ares'",
    ];
    // `fleet`'s row count after each durable prefix; `None` while the
    // CREATE itself is lost (the table must not resurrect).
    let expected = [None, Some(0), Some(2), Some(3), Some(2)];
    let count = |session: &Session| -> Option<i64> {
        match session.execute("SELECT COUNT(*) FROM fleet") {
            Ok(ExecResult::Rows { rows, .. }) => rows[0][0].as_i64(),
            _ => None,
        }
    };

    let mut plans: Vec<(CrashPlan, u64, String)> = (0..=stmts.len() as u64)
        .map(|k| (CrashPlan::after(k), k, format!("after{k}")))
        .collect();
    // A torn SQL frame is repaired away like any other torn tail: the
    // durable prefix is the records before it.
    plans.push((CrashPlan::torn(2, 9), 2, "torn2x9".to_string()));

    for (plan, durable_prefix, label) in plans {
        let dir = fresh_dir(&format!("sql-{label}"));
        {
            let crashed = Session::new(wal_config(&dir, Some(plan))).expect("crashed session");
            for stmt in &stmts {
                crashed
                    .execute(stmt)
                    .expect("the wedge only stops the log, not execution");
            }
            assert_eq!(
                count(&crashed),
                Some(2),
                "sql {label}: live session sees all four statements"
            );
        }

        let sql_durable = durable_records(&dir)
            .iter()
            .filter(|r| matches!(r, Record::SqlStatement { .. }))
            .count() as u64;
        assert_eq!(
            sql_durable,
            durable_prefix.min(stmts.len() as u64),
            "sql {label}: exactly the prefix reached disk"
        );

        let recovered = Session::new(wal_config(&dir, None)).expect("recovery session");
        assert_eq!(
            count(&recovered),
            expected[durable_prefix as usize].map(|n| n as i64),
            "sql {label}: recovered table state must match the durable prefix"
        );
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// SQL statements and estimate results share one log: a session that
/// creates a user table *and* runs a pinned ASYNC estimate recovers
/// both — and a second reopen replays the compacted log identically.
#[test]
fn sql_and_results_recover_together_and_survive_compaction() {
    let dir = fresh_dir("sql-mixed");
    let reference_row;
    {
        let session = Session::new(wal_config(&dir, None)).expect("session");
        session
            .execute("CREATE TABLE notes (k INT, v TEXT)")
            .expect("create");
        session
            .execute("INSERT INTO notes VALUES (1, 'pre-estimate')")
            .expect("insert");
        submit_and_wait(&session, "srs");
        session
            .execute("INSERT INTO notes VALUES (2, 'post-estimate')")
            .expect("insert");
        reference_row = result_fingerprints(&session).remove(0);
    }
    // Two reopens: the second replays the log the first one compacted
    // at startup, so SQL records must survive compaction too.
    for pass in ["reopen", "reopen-after-compaction"] {
        let recovered = Session::new(wal_config(&dir, None)).expect(pass);
        assert!(
            recovered.wait_recovered().expect("recover").is_empty(),
            "{pass}: the query completed before the close"
        );
        let rows = result_fingerprints(&recovered);
        assert_eq!(rows.len(), 1, "{pass}: one results row");
        assert_eq!(rows[0], reference_row, "{pass}: bit-identical results");
        let ExecResult::Rows { rows, .. } = recovered
            .execute("SELECT v FROM notes ORDER BY k")
            .expect("select")
        else {
            panic!("SELECT returns rows");
        };
        let texts: Vec<_> = rows.iter().filter_map(|r| r[0].as_str()).collect();
        assert_eq!(
            texts,
            vec!["pre-estimate", "post-estimate"],
            "{pass}: user rows recovered in order"
        );
        drop(recovered);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pin the `SHOW DIAGNOSTICS` surface a journaling session serves: the
/// exact three-column layout, the per-component blocks in order, and
/// the WAL counter block's full counter set. Monitoring scrapes this
/// shape — changing it is a breaking change and must show up here.
#[test]
fn show_diagnostics_layout_is_pinned_with_a_wal_block() {
    let dir = fresh_dir("diagnostics");
    let session = Session::new(wal_config(&dir, None)).expect("session");
    submit_and_wait(&session, "gmlss");

    let ExecResult::Rows { columns, rows } =
        session.execute("SHOW DIAGNOSTICS").expect("diagnostics")
    else {
        panic!("SHOW DIAGNOSTICS returns rows");
    };
    assert_eq!(columns, vec!["component", "counter", "value"]);
    for row in &rows {
        assert_eq!(row.len(), 3, "every diagnostics row has three cells");
        assert!(matches!(row[0], Value::Text(_)), "component is text");
        assert!(matches!(row[1], Value::Text(_)), "counter is text");
        assert!(matches!(row[2], Value::Float(_)), "value is a float");
    }

    // Component blocks, in serving order.
    let components: Vec<&str> = {
        let mut seen = Vec::new();
        for row in &rows {
            let c = row[0].as_str().unwrap();
            if seen.last() != Some(&c) {
                seen.push(c);
            }
        }
        seen
    };
    assert_eq!(
        components,
        vec![
            "plan_cache",
            "shard_store",
            "scheduler",
            "wal",
            "width_policy",
            "ranking"
        ],
        "journaling sessions serve all six component blocks"
    );

    // The WAL block's counter set, pinned exactly.
    let wal_counters: Vec<&str> = rows
        .iter()
        .filter(|r| r[0].as_str() == Some("wal"))
        .map(|r| r[1].as_str().unwrap())
        .collect();
    assert_eq!(
        wal_counters,
        vec![
            "wal_records",
            "wal_bytes",
            "wal_fsyncs",
            "wal_compactions",
            "wal_replayed_records",
            "wal_replayed_rows",
            "wal_resumed",
            "wal_truncated",
        ],
        "the WAL counter block is part of the serving contract"
    );
    let lookup = |name: &str| {
        rows.iter()
            .find(|r| r[0].as_str() == Some("wal") && r[1].as_str() == Some(name))
            .and_then(|r| r[2].as_f64())
            .unwrap()
    };
    assert!(lookup("wal_records") >= 3.0, "the run journaled records");
    assert!(lookup("wal_fsyncs") >= 1.0, "FsyncPolicy::Always fsyncs");
    assert_eq!(lookup("wal_truncated"), 0.0, "clean log, no repair");
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}
