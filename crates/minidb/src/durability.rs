//! WAL-backed session durability: the bridge between the scheduler's
//! [`DurabilityHook`] and the [`mlss_store`] write-ahead log.
//!
//! A session opened with [`Durability::Wal`] journals every externally
//! visible event — `results` rows, plan-cache builds, shard-store
//! deposits, and the ASYNC query lifecycle (submit → periodic
//! checkpoints → done | end) — through one append-only, CRC-framed log.
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
//! (latency is a measurement, not a result), and plain SQL
//! `INSERT INTO results` rows issued outside the estimation paths.

use crate::engine::DbError;
use crate::proc::Method;
use mlss_core::estimate::Estimate;
use mlss_core::estimator::Diagnostics;
use mlss_core::plan_cache::CachedPlan;
use mlss_core::scheduler::{DurabilityHook, QueryId, SliceableQuery};
use mlss_core::shard_store::{ShardKey, StoredShard};
use mlss_core::spec::{ExecMode, QuerySpec};
use mlss_store::{
    CrashPlan, FsyncPolicy, Record, ResultRow, SubmitSpec, Wal, WalOptions, WalStats,
};
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
    /// The recorded submission identity.
    pub spec: SubmitSpec,
    /// Plan provenance at original submit time.
    pub plan_source: String,
    /// Shard-reuse provenance at original submit time.
    pub shard_reuse: String,
    /// Latest durable checkpoint: (resolved method, slices, state).
    pub checkpoint: Option<(String, u64, StoredShard)>,
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

/// In-flight replay bookkeeping for one ASYNC query.
struct PendingQuery {
    spec: SubmitSpec,
    plan_source: String,
    shard_reuse: String,
    checkpoint: Option<(String, u64, StoredShard)>,
    done: Option<(Estimate, i64)>,
}

fn parse_records(records: Vec<Record>) -> RecoveredState {
    let replayed_records = records.len() as u64;
    let mut rows = Vec::new();
    let mut sql = Vec::new();
    let mut plans = Vec::new();
    let mut deposits = Vec::new();
    let mut pending: BTreeMap<u64, PendingQuery> = BTreeMap::new();
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
            Record::ShardDeposit { key, entry } => deposits.push((key, entry)),
            Record::AsyncSubmit {
                qid,
                spec,
                plan_source,
                shard_reuse,
            } => {
                next_qid = next_qid.max(qid + 1);
                pending.insert(
                    qid,
                    PendingQuery {
                        spec,
                        plan_source,
                        shard_reuse,
                        checkpoint: None,
                        done: None,
                    },
                );
            }
            Record::AsyncCheckpoint {
                qid,
                method,
                slices,
                entry,
            } => {
                if let Some(p) = pending.get_mut(&qid) {
                    p.checkpoint = Some((method, slices, entry));
                }
            }
            Record::AsyncDone {
                qid,
                estimate,
                millis,
            } => {
                if let Some(p) = pending.get_mut(&qid) {
                    p.done = Some((estimate, millis));
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
    for (qid, p) in pending {
        match p.done {
            Some((est, millis)) => rows.push(ResultRow {
                model: p.spec.model.clone(),
                method: p.spec.method.clone(),
                beta: p.spec.beta,
                horizon: p.spec.horizon as i64,
                tau: est.tau,
                variance: est.variance,
                steps: est.steps as i64,
                n_roots: est.n_roots as i64,
                millis,
                plan_source: p.plan_source.clone(),
                shard_reuse: p.shard_reuse.clone(),
                tenant: p.spec.tenant.clone().unwrap_or_else(|| "-".into()),
            }),
            None => resubmit.push(RecoveredQuery {
                qid,
                spec: p.spec,
                plan_source: p.plan_source,
                shard_reuse: p.shard_reuse,
                checkpoint: p.checkpoint,
            }),
        }
    }
    RecoveredState {
        rows,
        sql,
        plans,
        deposits,
        resubmit,
        next_qid,
        replayed_records,
    }
}

/// Rebuild the [`QuerySpec`] an ASYNC submission ran under from its
/// durable identity. Pinned-ness is preserved exactly — reuse routing
/// depends on it.
pub(crate) fn rebuild_spec(sub: &SubmitSpec) -> Result<QuerySpec, DbError> {
    let mut spec = QuerySpec::new(sub.model.clone(), sub.beta, sub.horizon, sub.target_re);
    spec.method = Method::parse(&sub.method).map_err(DbError::from)?;
    spec.levels = sub.levels as usize;
    spec.params = sub.params.iter().cloned().collect();
    spec.options.priority = sub.priority;
    // Width 0 (the retired scalar mode) in logs written before width 1
    // became the default replays at the default width.
    spec.options.batch_width = sub.batch_width.filter(|&w| w != 0).map(|w| w as usize);
    spec.options.seed = sub.pinned_seed;
    spec.options.mode = ExecMode::Async;
    spec.options.tenant = sub.tenant.clone();
    Ok(spec)
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
    Checkpoint {
        method: String,
        slices: u64,
        entry: StoredShard,
    },
    Finished {
        est: Estimate,
    },
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
    /// Open (or create) the log and replay it. Returns the journal and
    /// the reconstructed state the session must seed itself from;
    /// `replayed_rows`/`resumed` counters are finalized by
    /// [`SessionWal::note_replayed`] once the session has done so.
    pub(crate) fn open(cfg: &WalSessionConfig) -> std::io::Result<(Self, RecoveredState)> {
        let (wal, replay) = Wal::open(
            &cfg.dir,
            WalOptions {
                fsync: cfg.fsync,
                crash: cfg.crash,
            },
        )?;
        let truncated = replay.truncated;
        let state = parse_records(replay.records);
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
            spec: SubmitSpec {
                model: spec.model.clone(),
                params: spec.params.iter().map(|(k, v)| (k.clone(), *v)).collect(),
                method: spec.method.name().to_string(),
                levels: spec.levels as u64,
                beta: spec.beta,
                horizon: spec.horizon,
                target_re: spec.target_re,
                priority: spec.options.priority,
                batch_width: spec.options.batch_width.map(|w| w as u64),
                pinned_seed: spec.options.seed,
                seed,
                tenant: spec.options.tenant.clone(),
            },
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
                    Orphan::Checkpoint {
                        method,
                        slices,
                        entry,
                    } => self.append(&Record::AsyncCheckpoint {
                        qid,
                        method,
                        slices,
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
        self.append(&Record::ShardDeposit {
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
        let Some((method, entry)) = job.checkpoint() else {
            return;
        };
        let mut st = self.lock();
        match st.by_sched.get(&id).copied() {
            Some(qid) => self.append(&Record::AsyncCheckpoint {
                qid,
                method: method.to_string(),
                slices,
                entry,
            }),
            None => self.orphan(
                &mut st,
                id,
                Orphan::Checkpoint {
                    method: method.to_string(),
                    slices,
                    entry,
                },
            ),
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

    fn submit_spec(seed: u64) -> SubmitSpec {
        SubmitSpec {
            model: "walk".into(),
            params: vec![],
            method: "srs".into(),
            levels: 4,
            beta: 6.0,
            horizon: 50,
            target_re: 0.3,
            priority: 0,
            batch_width: None,
            pinned_seed: Some(seed),
            seed,
            tenant: None,
        }
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
            Record::AsyncSubmit {
                qid: 1,
                spec: submit_spec(7),
                plan_source: "none".into(),
                shard_reuse: "cold".into(),
            },
            Record::AsyncDone {
                qid: 1,
                estimate: est,
                millis: 12,
            },
        ];
        let state = parse_records(records);
        assert_eq!(state.rows.len(), 1);
        assert!(state.resubmit.is_empty());
        assert_eq!(state.next_qid, 2);
        let row = &state.rows[0];
        assert_eq!(row.tau.to_bits(), 0.25f64.to_bits());
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
            Record::AsyncSubmit {
                qid: 3,
                spec: submit_spec(1),
                plan_source: "none".into(),
                shard_reuse: "none".into(),
            },
            Record::AsyncDone {
                qid: 3,
                estimate: est,
                millis: 1,
            },
            Record::AsyncEnd { qid: 3 },
        ];
        let state = parse_records(records);
        assert!(state.rows.is_empty(), "cancel overrides the finish");
        assert!(state.resubmit.is_empty());
        assert_eq!(state.next_qid, 4);
    }

    #[test]
    fn replay_keeps_interrupted_queries_for_resubmission() {
        let records = vec![Record::AsyncSubmit {
            qid: 9,
            spec: submit_spec(42),
            plan_source: "miss".into(),
            shard_reuse: "cold".into(),
        }];
        let state = parse_records(records);
        assert!(state.rows.is_empty());
        assert_eq!(state.resubmit.len(), 1);
        let q = &state.resubmit[0];
        assert_eq!(q.qid, 9);
        assert!(q.checkpoint.is_none());
        let spec = rebuild_spec(&q.spec).unwrap();
        assert_eq!(spec.options.seed, Some(42));
        assert_eq!(spec.options.mode, ExecMode::Async);
    }

    #[test]
    fn replay_maps_a_journaled_scalar_width_to_the_default() {
        let mut spec = submit_spec(5);
        spec.batch_width = Some(0);
        let records = vec![Record::AsyncSubmit {
            qid: 2,
            spec,
            plan_source: "none".into(),
            shard_reuse: "cold".into(),
        }];
        let state = parse_records(records);
        assert_eq!(state.resubmit.len(), 1);
        let spec = rebuild_spec(&state.resubmit[0].spec).unwrap();
        assert_eq!(spec.options.batch_width, None);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn provenance_interning_covers_the_live_set() {
        for s in ["hit", "miss", "cold", "warm", "stored", "none"] {
            assert_eq!(intern_provenance(s), s);
        }
        assert_eq!(intern_provenance("wat"), "none");
    }
}
