//! WAL-backed session durability: the bridge between the scheduler's
//! [`DurabilityHook`] and the [`mlss_store`] write-ahead log.
//!
//! A session opened with [`Durability::Wal`] journals every externally
//! visible event — `results` rows, plan-cache builds, shard-store
//! deposits, and the ASYNC query lifecycle (submit → periodic
//! checkpoints → done | end) — through one append-only, CRC-framed log.
//! A submission journals its statement's canonical text
//! ([`QuerySpec::render`]), which replay parses back with the one SQL
//! parser; deposits and query checkpoints are one `Checkpoint` record.
//! On reopen the log is replayed: completed queries are served from
//! durable state, and interrupted ASYNC queries are **resubmitted** —
//! warm from their last durable checkpoint when one exists, cold from
//! their recorded seed otherwise. Either way a pinned-seed query
//! recovers to the same estimate bits an uninterrupted run produces
//! (the checkpoint captures the shard and the run cursor at a slice
//! boundary; a cold rerun replays the identical run from the seed).
//!
//! ## Ordering contract
//!
//! * `AsyncDone` is journaled from [`DurabilityHook::finishing`],
//!   which the scheduler calls **before** publishing the `Done` status
//!   — write-ahead: a result a client observed can never vanish on
//!   restart (it may be *re-derived* if the crash beat the record to
//!   disk, but then no client observed it either).
//! * Synchronous `results` rows are journaled **before** the table
//!   insert, for the same reason.
//! * Worker-side events that race submission (a query can finish
//!   before the submitting thread journals `AsyncSubmit`) are buffered
//!   per scheduler id and flushed, in arrival order, once the mapping
//!   registers — so the log always reads submit → checkpoints → done.
//! * A cancellation racing a finish journals `AsyncEnd` *after*
//!   `AsyncDone`; replay is last-wins, so the query is not resurrected
//!   and its row is not synthesized — cancel-after-finish is
//!   at-least-once, never duplicated.
//!
//! What is deliberately **not** durable: `PAUSE` state (a paused query
//! recovers as running), in-flight slices past the last checkpoint
//! (recovery re-runs them bit-identically), wall-clock `millis`
//! (latency is a measurement, not a result), plain SQL
//! `INSERT INTO results` rows issued outside the estimation paths, and
//! ASYNC `RANK BY` races (nothing is journaled at their submit, so a
//! crash loses an in-flight race).

use crate::engine::DbError;
use crate::sql::Statement;
use mlss_core::estimate::Estimate;
use mlss_core::estimator::Diagnostics;
use mlss_core::plan_cache::CachedPlan;
use mlss_core::scheduler::{DurabilityHook, QueryId, SliceableQuery};
use mlss_core::shard_store::{ShardKey, StoredShard};
use mlss_core::spec::{ModelSchema, QuerySpec};
use mlss_store::{CrashPlan, FsyncPolicy, Record, ResultRow, Wal, WalOptions, WalStats};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Session durability mode.
#[derive(Debug, Clone, Default)]
pub enum Durability {
    /// No journal: the session state dies with the process (the
    /// pre-WAL behavior, byte-for-byte).
    #[default]
    Off,
    /// Journal through a write-ahead log in the given directory.
    Wal(WalSessionConfig),
}

/// Configuration for a WAL-backed session.
#[derive(Debug, Clone)]
pub struct WalSessionConfig {
    /// Log directory (created if missing; `snapshot.wal` + `tail.wal`).
    pub dir: PathBuf,
    /// Fsync cadence for appends.
    pub fsync: FsyncPolicy,
    /// Journal an ASYNC query checkpoint every this many committed
    /// slices (0 disables periodic checkpoints: recovery falls back to
    /// a cold rerun from the recorded seed).
    pub checkpoint_every: u64,
    /// Crash-point injection for tests: wedge the log after N records
    /// (optionally leaving a torn prefix of the next frame) while the
    /// in-memory session keeps running — a simulated `kill -9` whose
    /// recovery the test can then assert on.
    pub crash: Option<CrashPlan>,
}

impl WalSessionConfig {
    /// Durable defaults: fsync every record, checkpoint every 4 slices.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            checkpoint_every: 4,
            crash: None,
        }
    }

    /// Set the fsync policy (builder style).
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Set the checkpoint cadence (builder style).
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Arm a crash plan (builder style; tests only).
    pub fn with_crash(mut self, crash: CrashPlan) -> Self {
        self.crash = Some(crash);
        self
    }
}

/// An ASYNC query reconstructed from the log, awaiting resubmission.
pub(crate) struct RecoveredQuery {
    /// Durable query id (for re-registering with the new log).
    pub qid: u64,
    /// The spec parsed back from the journaled statement, its tenant
    /// restored.
    pub spec: QuerySpec,
    /// The stream seed the query runs under.
    pub seed: u64,
    /// Plan provenance at original submit time.
    pub plan_source: String,
    /// Shard-reuse provenance at original submit time.
    pub shard_reuse: String,
    /// Latest durable checkpoint: its store key and state.
    pub checkpoint: Option<(ShardKey, StoredShard)>,
}

/// Everything replay reconstructed, ready for the session to seed its
/// in-memory state from.
pub(crate) struct RecoveredState {
    /// `results` rows: journaled rows first, then rows synthesized from
    /// `AsyncDone` records whose table insert the crash beat.
    pub rows: Vec<ResultRow>,
    /// Plain SQL statements that mutated user tables, in log order —
    /// re-executed verbatim on open so `CREATE TABLE`/`INSERT` state
    /// survives restarts.
    pub sql: Vec<String>,
    /// Plan-cache entries: (fingerprint, method, levels, tau_hint, plan).
    pub plans: Vec<(u64, String, u64, f64, mlss_core::levels::PartitionPlan)>,
    /// Shard-store deposits, in log order.
    pub deposits: Vec<(ShardKey, StoredShard)>,
    /// Interrupted ASYNC queries to resubmit, in qid order.
    pub resubmit: Vec<RecoveredQuery>,
    /// First unused durable query id.
    pub next_qid: u64,
    /// Valid records replayed.
    pub replayed_records: u64,
}

/// Replay the log's records into the state a session seeds itself
/// from. Journaled statements are parsed against `catalog`, the
/// session's model schemas; one that no longer parses as an ESTIMATE
/// fails the replay.
fn parse_records(
    records: Vec<Record>,
    catalog: &[&ModelSchema],
) -> Result<RecoveredState, DbError> {
    let replayed_records = records.len() as u64;
    let mut rows = Vec::new();
    let mut sql = Vec::new();
    let mut plans = Vec::new();
    let mut deposits = Vec::new();
    // Each ASYNC query seen so far, with its `AsyncDone` once journaled.
    let mut pending: BTreeMap<u64, (RecoveredQuery, Option<(Estimate, i64)>)> = BTreeMap::new();
    let mut next_qid = 1u64;
    for rec in records {
        match rec {
            Record::ResultRow(row) => rows.push(row),
            Record::PlanEntry {
                fingerprint,
                method,
                levels,
                tau_hint,
                plan,
            } => plans.push((fingerprint, method, levels, tau_hint, plan)),
            Record::Checkpoint {
                qid: None,
                key,
                entry,
            } => deposits.push((key, entry)),
            Record::Checkpoint {
                qid: Some(qid),
                key,
                entry,
            } => {
                if let Some((q, _)) = pending.get_mut(&qid) {
                    q.checkpoint = Some((key, entry));
                }
            }
            Record::AsyncSubmit {
                qid,
                sql: text,
                seed,
                tenant,
                plan_source,
                shard_reuse,
            } => {
                next_qid = next_qid.max(qid + 1);
                let Statement::Estimate(mut spec) = crate::sql::parse(&text, Some(catalog))? else {
                    return Err(DbError::Proc(format!(
                        "wal: query {qid} journals a statement that is not an ESTIMATE: {text}"
                    )));
                };
                spec.options.tenant = tenant;
                let q = RecoveredQuery {
                    qid,
                    spec,
                    seed,
                    plan_source,
                    shard_reuse,
                    checkpoint: None,
                };
                pending.insert(qid, (q, None));
            }
            Record::AsyncDone {
                qid,
                estimate,
                millis,
            } => {
                if let Some((_, done)) = pending.get_mut(&qid) {
                    *done = Some((estimate, millis));
                }
            }
            // Last-wins: an end record suppresses the query entirely,
            // even after a done record (cancel raced the finish).
            Record::AsyncEnd { qid } => {
                pending.remove(&qid);
            }
            Record::SqlStatement { sql: stmt } => sql.push(stmt),
        }
    }
    let mut resubmit = Vec::new();
    for (q, done) in pending.into_values() {
        match done {
            Some((est, millis)) => rows.push(ResultRow {
                model: q.spec.model,
                method: q.spec.method.name().to_string(),
                beta: q.spec.beta,
                horizon: q.spec.horizon as i64,
                tau: est.tau,
                variance: est.variance,
                steps: est.steps as i64,
                n_roots: est.n_roots as i64,
                millis,
                plan_source: q.plan_source,
                shard_reuse: q.shard_reuse,
                tenant: q.spec.options.tenant.unwrap_or_else(|| "-".into()),
            }),
            None => resubmit.push(q),
        }
    }
    Ok(RecoveredState {
        rows,
        sql,
        plans,
        deposits,
        resubmit,
        next_qid,
        replayed_records,
    })
}

/// Intern a recorded provenance string back to the `&'static str` set
/// the live submit paths use; unknown spellings degrade to `"none"`.
pub(crate) fn intern_provenance(s: &str) -> &'static str {
    match s {
        "hit" => "hit",
        "miss" => "miss",
        "cold" => "cold",
        "warm" => "warm",
        "stored" => "stored",
        _ => "none",
    }
}

/// A worker-side event that arrived before its query's `AsyncSubmit`
/// was journaled; replayed in order once the mapping registers.
enum Orphan {
    Checkpoint { key: ShardKey, entry: StoredShard },
    Finished { est: Estimate },
    Discarded,
}

struct ActiveQuery {
    submitted: Instant,
}

/// Scheduler-id ↔ durable-qid bookkeeping. Lock order: `active` is
/// held **across** WAL appends (the WAL's internal lock nests inside),
/// which is what makes the journaled lifecycle order deterministic;
/// nothing takes `active` while holding the WAL lock.
struct ActiveState {
    next_qid: u64,
    by_sched: BTreeMap<QueryId, u64>,
    queries: BTreeMap<u64, ActiveQuery>,
    /// Queries whose `AsyncDone` is already journaled, kept so a
    /// late `discarded` (cancel racing the finish) can still journal
    /// the overriding `AsyncEnd`. Bounded; oldest entries age out.
    finished: BTreeMap<QueryId, u64>,
    orphans: BTreeMap<QueryId, Vec<Orphan>>,
}

/// Finished-map bound: entries only matter for the tiny
/// cancel-racing-finish window, so aging out old ones is safe.
const FINISHED_CAP: usize = 1024;
/// Orphan-buffer bound (ids). Orphans for ids that never register —
/// e.g. raw `submit_query` jobs bypassing the session — age out.
const ORPHAN_CAP: usize = 64;

/// The session's journal: owns the [`Wal`], implements
/// [`DurabilityHook`] for the scheduler, and receives the plan-cache
/// and shard-store observer callbacks.
///
/// Hook- and observer-side appends are best-effort: an I/O error
/// cannot propagate out of a worker thread, so it is swallowed (the
/// armed [`CrashPlan`] exercises exactly this path — appends silently
/// dropped while the in-memory run continues). The session-side paths
/// (`results` rows, compaction) surface errors normally.
pub struct SessionWal {
    wal: Wal,
    checkpoint_every: u64,
    replayed_records: u64,
    replayed_rows: u64,
    resumed: u64,
    truncated: bool,
    active: Mutex<ActiveState>,
}

impl std::fmt::Debug for SessionWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionWal")
            .field("dir", &self.wal.dir())
            .field("stats", &self.wal.stats())
            .finish_non_exhaustive()
    }
}

impl SessionWal {
    /// Open (or create) the log and replay it, parsing journaled
    /// statements against `catalog`. Returns the journal and the
    /// reconstructed state the session must seed itself from;
    /// `replayed_rows`/`resumed` counters are finalized by
    /// [`SessionWal::note_replayed`] once the session has done so.
    pub(crate) fn open(
        cfg: &WalSessionConfig,
        catalog: &[&ModelSchema],
    ) -> Result<(Self, RecoveredState), DbError> {
        let (wal, replay) = Wal::open(
            &cfg.dir,
            WalOptions {
                fsync: cfg.fsync,
                crash: cfg.crash,
            },
        )
        .map_err(|e| DbError::Proc(format!("wal open failed: {e}")))?;
        let truncated = replay.truncated;
        let state = parse_records(replay.records, catalog)?;
        let sw = Self {
            wal,
            checkpoint_every: cfg.checkpoint_every,
            replayed_records: state.replayed_records,
            replayed_rows: 0,
            resumed: 0,
            truncated,
            active: Mutex::new(ActiveState {
                next_qid: state.next_qid,
                by_sched: BTreeMap::new(),
                queries: BTreeMap::new(),
                finished: BTreeMap::new(),
                orphans: BTreeMap::new(),
            }),
        };
        Ok((sw, state))
    }

    /// Record how much replayed state the session actually seeded.
    pub(crate) fn note_replayed(&mut self, rows: u64, resumed: u64) {
        self.replayed_rows = rows;
        self.resumed = resumed;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ActiveState> {
        self.active.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn append(&self, rec: &Record) {
        // Best-effort by contract (see type docs); the wedged/dropped
        // counters in `stats()` account for every suppressed append.
        let _ = self.wal.append(rec);
    }

    /// Journal an ASYNC submission and register its scheduler id.
    /// Returns the durable query id. Any worker events that raced the
    /// registration are flushed here, in arrival order.
    pub(crate) fn record_async_submit(
        &self,
        sched_id: QueryId,
        spec: &QuerySpec,
        seed: u64,
        plan_source: &str,
        shard_reuse: &str,
    ) -> u64 {
        let mut st = self.lock();
        let qid = st.next_qid;
        st.next_qid += 1;
        self.append(&Record::AsyncSubmit {
            qid,
            sql: spec.render(),
            seed,
            tenant: spec.options.tenant.clone(),
            plan_source: plan_source.to_string(),
            shard_reuse: shard_reuse.to_string(),
        });
        self.register_locked(&mut st, sched_id, qid);
        qid
    }

    /// Re-register a recovered query under its original durable id (no
    /// new `AsyncSubmit` record: compaction already rewrote it).
    pub(crate) fn register_recovered(&self, sched_id: QueryId, qid: u64) {
        let mut st = self.lock();
        let next = st.next_qid.max(qid + 1);
        st.next_qid = next;
        self.register_locked(&mut st, sched_id, qid);
    }

    fn register_locked(&self, st: &mut ActiveState, sched_id: QueryId, qid: u64) {
        st.queries.insert(
            qid,
            ActiveQuery {
                submitted: Instant::now(),
            },
        );
        st.by_sched.insert(sched_id, qid);
        if let Some(orphans) = st.orphans.remove(&sched_id) {
            for o in orphans {
                match o {
                    Orphan::Checkpoint { key, entry } => self.append(&Record::Checkpoint {
                        qid: Some(qid),
                        key,
                        entry,
                    }),
                    Orphan::Finished { est } => self.finish_locked(st, sched_id, &est),
                    Orphan::Discarded => self.discard_locked(st, sched_id),
                }
            }
        }
    }

    fn finish_locked(&self, st: &mut ActiveState, sched_id: QueryId, est: &Estimate) {
        let Some(qid) = st.by_sched.remove(&sched_id) else {
            return;
        };
        let millis = st
            .queries
            .remove(&qid)
            .map(|q| q.submitted.elapsed().as_millis() as i64)
            .unwrap_or(0);
        self.append(&Record::AsyncDone {
            qid,
            estimate: *est,
            millis,
        });
        st.finished.insert(sched_id, qid);
        while st.finished.len() > FINISHED_CAP {
            st.finished.pop_first();
        }
    }

    fn discard_locked(&self, st: &mut ActiveState, sched_id: QueryId) {
        let qid = match st.by_sched.remove(&sched_id) {
            Some(qid) => {
                st.queries.remove(&qid);
                qid
            }
            None => match st.finished.remove(&sched_id) {
                Some(qid) => qid,
                None => return,
            },
        };
        self.append(&Record::AsyncEnd { qid });
    }

    fn orphan(&self, st: &mut ActiveState, sched_id: QueryId, o: Orphan) {
        st.orphans.entry(sched_id).or_default().push(o);
        while st.orphans.len() > ORPHAN_CAP {
            st.orphans.pop_first();
        }
    }

    /// Journal a synchronous `results` row (write-ahead: callers append
    /// **before** the table insert). Surfaces I/O errors — a row the
    /// log refused must not become visible.
    pub(crate) fn record_result_row(&self, row: ResultRow) -> Result<(), DbError> {
        self.wal
            .append(&Record::ResultRow(row))
            .map(|_| ())
            .map_err(|e| DbError::Proc(format!("wal append failed: {e}")))
    }

    /// Journal a plain SQL statement that mutated user-table state.
    /// Callers append **after** a successful execute (a failed statement
    /// must not be replayed); the window where a crash loses the very
    /// last user-table statement is the documented at-most-once-behind
    /// contract for plain SQL — `results` rows keep the stricter
    /// write-ahead ordering.
    pub(crate) fn record_sql(&self, sql: &str) -> Result<(), DbError> {
        self.wal
            .append(&Record::SqlStatement {
                sql: sql.to_string(),
            })
            .map(|_| ())
            .map_err(|e| DbError::Proc(format!("wal append failed: {e}")))
    }

    /// Journal a fresh plan-cache build (observer callback).
    pub(crate) fn record_plan_entry(
        &self,
        fingerprint: u64,
        method: &str,
        levels: usize,
        cached: &CachedPlan,
    ) {
        self.append(&Record::PlanEntry {
            fingerprint,
            method: method.to_string(),
            levels: levels as u64,
            tau_hint: cached.tau_hint,
            plan: cached.plan.clone(),
        });
    }

    /// Journal an accepted shard-store deposit (observer callback).
    pub(crate) fn record_deposit(&self, key: &ShardKey, entry: &StoredShard) {
        self.append(&Record::Checkpoint {
            qid: None,
            key: key.clone(),
            entry: entry.clone(),
        });
    }

    /// Rewrite the snapshot from the given records and truncate the
    /// tail — the startup compaction, run after replayed state is
    /// seeded and before any new work is admitted.
    pub(crate) fn compact(&self, records: &[Record]) -> Result<(), DbError> {
        self.wal
            .compact(records)
            .map_err(|e| DbError::Proc(format!("wal compaction failed: {e}")))
    }

    /// Live log counters.
    pub fn stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// The `SHOW DIAGNOSTICS` block: live log counters plus what the
    /// last replay reconstructed.
    pub fn diagnostics(&self) -> Diagnostics {
        let s = self.wal.stats();
        Diagnostics {
            estimator: "wal",
            skip_events: 0,
            details: vec![
                ("wal_records".into(), s.records as f64),
                ("wal_bytes".into(), s.bytes as f64),
                ("wal_fsyncs".into(), s.fsyncs as f64),
                ("wal_compactions".into(), s.compactions as f64),
                ("wal_replayed_records".into(), self.replayed_records as f64),
                ("wal_replayed_rows".into(), self.replayed_rows as f64),
                ("wal_resumed".into(), self.resumed as f64),
                ("wal_truncated".into(), self.truncated as u64 as f64),
            ],
        }
    }
}

impl DurabilityHook for SessionWal {
    fn slice_committed(&self, id: QueryId, slices: u64, job: &mut dyn SliceableQuery) {
        if self.checkpoint_every == 0 || !slices.is_multiple_of(self.checkpoint_every) {
            return;
        }
        let Some((key, entry)) = job.checkpoint() else {
            return;
        };
        let mut st = self.lock();
        match st.by_sched.get(&id).copied() {
            Some(qid) => self.append(&Record::Checkpoint {
                qid: Some(qid),
                key,
                entry,
            }),
            None => self.orphan(&mut st, id, Orphan::Checkpoint { key, entry }),
        }
    }

    fn finishing(&self, id: QueryId, est: &Estimate) {
        let mut st = self.lock();
        if st.by_sched.contains_key(&id) {
            self.finish_locked(&mut st, id, est);
        } else {
            self.orphan(&mut st, id, Orphan::Finished { est: *est });
        }
    }

    fn discarded(&self, id: QueryId) {
        let mut st = self.lock();
        if st.by_sched.contains_key(&id) || st.finished.contains_key(&id) {
            self.discard_locked(&mut st, id);
        } else {
            self.orphan(&mut st, id, Orphan::Discarded);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;

    fn submit(qid: u64, seed: u64) -> Record {
        Record::AsyncSubmit {
            qid,
            sql: format!(
                "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 USING srs TARGET RE 0.3 \
                 WITH (seed={seed}) ASYNC"
            ),
            seed,
            tenant: None,
            plan_source: "none".into(),
            shard_reuse: "cold".into(),
        }
    }

    fn replay(records: Vec<Record>) -> RecoveredState {
        let models = ModelRegistry::with_builtins();
        parse_records(records, &models.schemas()).expect("replay")
    }

    #[test]
    fn replay_synthesizes_rows_for_done_queries() {
        let est = Estimate {
            tau: 0.25,
            variance: 1e-4,
            n_roots: 100,
            steps: 5000,
            hits: 25,
        };
        let records = vec![
            submit(1, 7),
            Record::AsyncDone {
                qid: 1,
                estimate: est,
                millis: 12,
            },
        ];
        let state = replay(records);
        assert_eq!(state.rows.len(), 1);
        assert!(state.resubmit.is_empty());
        assert_eq!(state.next_qid, 2);
        let row = &state.rows[0];
        assert_eq!(row.tau.to_bits(), 0.25f64.to_bits());
        assert_eq!((row.model.as_str(), row.method.as_str()), ("walk", "srs"));
        assert_eq!((row.beta, row.horizon), (6.0, 50));
        assert_eq!(row.shard_reuse, "cold");
    }

    #[test]
    fn replay_end_suppresses_even_after_done() {
        let est = Estimate {
            tau: 0.5,
            variance: 1e-3,
            n_roots: 10,
            steps: 100,
            hits: 5,
        };
        let records = vec![
            submit(3, 1),
            Record::AsyncDone {
                qid: 3,
                estimate: est,
                millis: 1,
            },
            Record::AsyncEnd { qid: 3 },
        ];
        let state = replay(records);
        assert!(state.rows.is_empty(), "cancel overrides the finish");
        assert!(state.resubmit.is_empty());
        assert_eq!(state.next_qid, 4);
    }

    /// Whatever an ASYNC submission carries comes back out of the
    /// journal: the spec (every method, overrides, levels, priority,
    /// numeric and `auto` widths, pinned and drawn seeds, `threads`),
    /// the seed the run uses, and the tenant.
    #[test]
    fn async_submits_round_trip_through_the_journal() {
        let statements = [
            "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 USING srs TARGET RE 30%",
            "ESTIMATE DURABILITY OF walk(beta=6, up=0.45, down=0.35) WITHIN 50 \
             USING smlss(levels=3) TARGET RE 0.2 WITH (priority=3, threads=4)",
            "ESTIMATE DURABILITY OF cpp(beta=50, premium=0.7) WITHIN 500 \
             USING gmlss(levels=6) TARGET RE 5% WITH (batch_width=16, seed=4242, threads=1)",
            "ESTIMATE DURABILITY OF ar(beta=3) WITHIN 40 USING auto TARGET RE 0.5 \
             WITH (batch_width=auto, threads=4)",
            "ESTIMATE DURABILITY OF gbm(beta=1.5, drift=0.05) WITHIN 200 USING gmlss \
             TARGET RE 0.1 WITH (priority=250, seed=18446744073709551615, threads=4)",
        ];
        let dir = std::env::temp_dir().join(format!("mlss-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = WalSessionConfig::new(&dir);
        let models = ModelRegistry::with_builtins();
        let catalog = models.schemas();

        let (sw, _) = SessionWal::open(&cfg, &catalog).expect("open");
        let mut submitted = Vec::new();
        for (i, sql) in statements.iter().enumerate() {
            let Ok(Statement::Estimate(mut spec)) =
                crate::sql::parse(&format!("{sql} ASYNC"), Some(&catalog))
            else {
                panic!("{sql} parses as an ESTIMATE");
            };
            spec.options.tenant = (i % 2 == 1).then(|| format!("tenant-{i}"));
            // Unpinned statements journal the seed the session drew.
            let seed = spec.options.seed.unwrap_or(0xD1A7_0000 + i as u64);
            let qid = sw.record_async_submit(i as QueryId, &spec, seed, "miss", "cold");
            submitted.push((qid, spec, seed));
        }
        drop(sw);

        let (_, state) = SessionWal::open(&cfg, &catalog).expect("reopen");
        assert!(state.rows.is_empty());
        assert_eq!(state.resubmit.len(), submitted.len());
        for (q, (qid, spec, seed)) in state.resubmit.iter().zip(&submitted) {
            assert_eq!(q.qid, *qid);
            assert_eq!(q.spec, *spec, "query {qid}: {}", spec.render());
            assert_eq!(q.seed, *seed, "query {qid}");
            assert_eq!(q.spec.options.tenant, spec.options.tenant, "query {qid}");
            assert_eq!(
                (q.plan_source.as_str(), q.shard_reuse.as_str()),
                ("miss", "cold")
            );
            assert!(q.checkpoint.is_none());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn provenance_interning_covers_the_live_set() {
        for s in ["hit", "miss", "cold", "warm", "stored", "none"] {
            assert_eq!(intern_provenance(s), s);
        }
        assert_eq!(intern_provenance("wat"), "none");
    }
}
