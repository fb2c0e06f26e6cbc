//! The WAL's logical record set and its byte codecs.
//!
//! Every record payload is `[kind: u8][body]`; bodies use the exact
//! little-endian codecs of `mlss_core::persist`, so floats, 128-bit
//! moment sums, and run cursors all round-trip bit-for-bit. Records
//! are self-contained — replay never needs context beyond earlier
//! records — which is what lets a snapshot be "a compacted log of the
//! same format".

use mlss_core::estimate::Estimate;
use mlss_core::levels::PartitionPlan;
use mlss_core::persist::{
    decode_stored_shard, encode_stored_shard, put_f64, put_i64, put_str, put_u32, put_u64, put_u8,
    Persist, PersistError, Reader,
};
use mlss_core::shard_store::{ShardKey, StoredShard};

/// One `results`-table row, in the engine's fixed 12-column schema.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// Model name.
    pub model: String,
    /// Requested method name (`srs`/`smlss`/`gmlss`/`auto`).
    pub method: String,
    /// Durability threshold β.
    pub beta: f64,
    /// Query horizon.
    pub horizon: i64,
    /// Point estimate τ̂.
    pub tau: f64,
    /// Estimator variance.
    pub variance: f64,
    /// `g` invocations spent.
    pub steps: i64,
    /// Root paths simulated.
    pub n_roots: i64,
    /// Wall-clock milliseconds (never bit-reproducible; identity
    /// comparisons exclude it).
    pub millis: i64,
    /// Plan-cache provenance (`hit`/`miss`/`none`).
    pub plan_source: String,
    /// Shard-store provenance (`stored`/`warm`/`cold`/`none`).
    pub shard_reuse: String,
    /// Fair-share tenant the query was charged to (`"-"` when none).
    pub tenant: String,
}

/// The identity of an ASYNC submission — everything recovery needs to
/// rebuild and resubmit the query spec exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitSpec {
    /// Model name.
    pub model: String,
    /// Explicit parameter overrides, in sorted order.
    pub params: Vec<(String, f64)>,
    /// Requested method name.
    pub method: String,
    /// Requested level count.
    pub levels: u64,
    /// Durability threshold β.
    pub beta: f64,
    /// Query horizon.
    pub horizon: u64,
    /// Target relative error.
    pub target_re: f64,
    /// Scheduler priority.
    pub priority: u8,
    /// Explicit batch-width override, when the spec had one.
    pub batch_width: Option<u64>,
    /// The seed the spec *pinned*, when it pinned one. Reuse routing
    /// depends on pinned-ness, so recovery must preserve it.
    pub pinned_seed: Option<u64>,
    /// The effective stream seed the query runs under (pinned or drawn
    /// at original submit time).
    pub seed: u64,
    /// Fair-share tenant the submission was charged to.
    pub tenant: Option<String>,
}

/// A durable event. Kinds 1–3 snapshot serving state; kinds 4–7 are the
/// ASYNC query lifecycle (submit → checkpoints → done | end); kind 8
/// journals plain SQL DDL/DML so user tables survive restarts.
#[derive(Debug)]
pub enum Record {
    /// A `results` row became visible.
    ResultRow(ResultRow),
    /// A plan-cache entry was built (or re-written by compaction).
    PlanEntry {
        /// Model fingerprint.
        fingerprint: u64,
        /// Plan-cache method key (e.g. `"balanced"`).
        method: String,
        /// Level count the plan was derived for.
        levels: u64,
        /// The τ̂ pilot hint cached with the plan.
        tau_hint: f64,
        /// The derived partition plan.
        plan: PartitionPlan,
    },
    /// A shard-store deposit was accepted.
    ShardDeposit {
        /// The store key.
        key: ShardKey,
        /// The stored checkpoint (shard + run cursor + provenance).
        entry: StoredShard,
    },
    /// An ASYNC query was submitted. `qid` is the durable query id —
    /// monotonic per log, independent of in-process scheduler ids.
    AsyncSubmit {
        /// Durable query id.
        qid: u64,
        /// The full submission identity.
        spec: SubmitSpec,
        /// Plan provenance at original submit time.
        plan_source: String,
        /// Shard-reuse provenance at original submit time.
        shard_reuse: String,
    },
    /// A periodic checkpoint of a running ASYNC query: its committed
    /// shard + run cursor at a slice boundary.
    AsyncCheckpoint {
        /// Durable query id.
        qid: u64,
        /// Resolved estimator name (`srs`/`smlss`/`gmlss`/`is`).
        method: String,
        /// Committed slices at capture time (diagnostic only).
        slices: u64,
        /// The resumable state.
        entry: StoredShard,
    },
    /// An ASYNC query finished; written *before* the scheduler publishes
    /// the `Done` status (write-ahead ordering).
    AsyncDone {
        /// Durable query id.
        qid: u64,
        /// The final estimate, bit-exact.
        estimate: Estimate,
        /// Wall-clock milliseconds attributed to the run.
        millis: i64,
    },
    /// An ASYNC query ended without a result (cancelled, failed, or
    /// detached): recovery must not resurrect it.
    AsyncEnd {
        /// Durable query id.
        qid: u64,
    },
    /// A plain SQL statement that mutated user-table state (`CREATE
    /// TABLE`/`INSERT`/`DELETE`/`DROP TABLE`), journaled verbatim and
    /// re-executed in log order on replay.
    SqlStatement {
        /// The statement text, exactly as executed.
        sql: String,
    },
}

const KIND_RESULT_ROW: u8 = 1;
const KIND_PLAN_ENTRY: u8 = 2;
const KIND_SHARD_DEPOSIT: u8 = 3;
const KIND_ASYNC_SUBMIT: u8 = 4;
const KIND_ASYNC_CHECKPOINT: u8 = 5;
const KIND_ASYNC_DONE: u8 = 6;
const KIND_ASYNC_END: u8 = 7;
const KIND_SQL_STATEMENT: u8 = 8;

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            put_u8(out, 1);
            put_u64(out, v);
        }
        None => put_u8(out, 0),
    }
}

fn get_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, PersistError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        _ => Err(PersistError::Malformed("option tag")),
    }
}

fn put_opt_str(out: &mut Vec<u8>, v: Option<&str>) {
    match v {
        Some(v) => {
            put_u8(out, 1);
            put_str(out, v);
        }
        None => put_u8(out, 0),
    }
}

fn get_opt_str(r: &mut Reader<'_>) -> Result<Option<String>, PersistError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.str()?)),
        _ => Err(PersistError::Malformed("option tag")),
    }
}

impl Record {
    /// Encode the record payload (kind byte + body). Fails only for a
    /// [`StoredShard`] holding a shard type outside the four in-tree
    /// estimators.
    pub fn encode(&self, out: &mut Vec<u8>) -> Result<(), PersistError> {
        match self {
            Record::ResultRow(row) => {
                put_u8(out, KIND_RESULT_ROW);
                put_str(out, &row.model);
                put_str(out, &row.method);
                put_f64(out, row.beta);
                put_i64(out, row.horizon);
                put_f64(out, row.tau);
                put_f64(out, row.variance);
                put_i64(out, row.steps);
                put_i64(out, row.n_roots);
                put_i64(out, row.millis);
                put_str(out, &row.plan_source);
                put_str(out, &row.shard_reuse);
                put_str(out, &row.tenant);
            }
            Record::PlanEntry {
                fingerprint,
                method,
                levels,
                tau_hint,
                plan,
            } => {
                put_u8(out, KIND_PLAN_ENTRY);
                put_u64(out, *fingerprint);
                put_str(out, method);
                put_u64(out, *levels);
                put_f64(out, *tau_hint);
                plan.persist(out);
            }
            Record::ShardDeposit { key, entry } => {
                put_u8(out, KIND_SHARD_DEPOSIT);
                put_u64(out, key.fingerprint);
                put_str(out, &key.method);
                put_u64(out, key.plan_digest);
                encode_stored_shard(entry, out)?;
            }
            Record::AsyncSubmit {
                qid,
                spec,
                plan_source,
                shard_reuse,
            } => {
                put_u8(out, KIND_ASYNC_SUBMIT);
                put_u64(out, *qid);
                put_str(out, &spec.model);
                put_u32(out, spec.params.len() as u32);
                for (name, value) in &spec.params {
                    put_str(out, name);
                    put_f64(out, *value);
                }
                put_str(out, &spec.method);
                put_u64(out, spec.levels);
                put_f64(out, spec.beta);
                put_u64(out, spec.horizon);
                put_f64(out, spec.target_re);
                put_u8(out, spec.priority);
                put_opt_u64(out, spec.batch_width);
                put_opt_u64(out, spec.pinned_seed);
                put_u64(out, spec.seed);
                put_opt_str(out, spec.tenant.as_deref());
                put_str(out, plan_source);
                put_str(out, shard_reuse);
            }
            Record::AsyncCheckpoint {
                qid,
                method,
                slices,
                entry,
            } => {
                put_u8(out, KIND_ASYNC_CHECKPOINT);
                put_u64(out, *qid);
                put_str(out, method);
                put_u64(out, *slices);
                encode_stored_shard(entry, out)?;
            }
            Record::AsyncDone {
                qid,
                estimate,
                millis,
            } => {
                put_u8(out, KIND_ASYNC_DONE);
                put_u64(out, *qid);
                estimate.persist(out);
                put_i64(out, *millis);
            }
            Record::AsyncEnd { qid } => {
                put_u8(out, KIND_ASYNC_END);
                put_u64(out, *qid);
            }
            Record::SqlStatement { sql } => {
                put_u8(out, KIND_SQL_STATEMENT);
                put_str(out, sql);
            }
        }
        Ok(())
    }

    /// Decode one record from a CRC-verified payload. The whole payload
    /// must be consumed: trailing bytes mean a framing bug or version
    /// mismatch and are rejected rather than ignored.
    pub fn decode(payload: &[u8]) -> Result<Record, PersistError> {
        let mut r = Reader::new(payload);
        let rec = Self::decode_from(&mut r)?;
        if r.remaining() != 0 {
            return Err(PersistError::Malformed("trailing bytes in record"));
        }
        Ok(rec)
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Record, PersistError> {
        match r.u8()? {
            KIND_RESULT_ROW => Ok(Record::ResultRow(ResultRow {
                model: r.str()?,
                method: r.str()?,
                beta: r.f64()?,
                horizon: r.i64()?,
                tau: r.f64()?,
                variance: r.f64()?,
                steps: r.i64()?,
                n_roots: r.i64()?,
                millis: r.i64()?,
                plan_source: r.str()?,
                shard_reuse: r.str()?,
                tenant: r.str()?,
            })),
            KIND_PLAN_ENTRY => Ok(Record::PlanEntry {
                fingerprint: r.u64()?,
                method: r.str()?,
                levels: r.u64()?,
                tau_hint: r.f64()?,
                plan: PartitionPlan::restore(r)?,
            }),
            KIND_SHARD_DEPOSIT => Ok(Record::ShardDeposit {
                key: ShardKey {
                    fingerprint: r.u64()?,
                    method: r.str()?,
                    plan_digest: r.u64()?,
                },
                entry: decode_stored_shard(r)?,
            }),
            KIND_ASYNC_SUBMIT => {
                let qid = r.u64()?;
                let model = r.str()?;
                let n_params = r.u32()? as usize;
                let mut params = Vec::with_capacity(n_params.min(64));
                for _ in 0..n_params {
                    let name = r.str()?;
                    let value = r.f64()?;
                    params.push((name, value));
                }
                Ok(Record::AsyncSubmit {
                    qid,
                    spec: SubmitSpec {
                        model,
                        params,
                        method: r.str()?,
                        levels: r.u64()?,
                        beta: r.f64()?,
                        horizon: r.u64()?,
                        target_re: r.f64()?,
                        priority: r.u8()?,
                        batch_width: get_opt_u64(r)?,
                        pinned_seed: get_opt_u64(r)?,
                        seed: r.u64()?,
                        tenant: get_opt_str(r)?,
                    },
                    plan_source: r.str()?,
                    shard_reuse: r.str()?,
                })
            }
            KIND_ASYNC_CHECKPOINT => Ok(Record::AsyncCheckpoint {
                qid: r.u64()?,
                method: r.str()?,
                slices: r.u64()?,
                entry: decode_stored_shard(r)?,
            }),
            KIND_ASYNC_DONE => Ok(Record::AsyncDone {
                qid: r.u64()?,
                estimate: Estimate::restore(r)?,
                millis: r.i64()?,
            }),
            KIND_ASYNC_END => Ok(Record::AsyncEnd { qid: r.u64()? }),
            KIND_SQL_STATEMENT => Ok(Record::SqlStatement { sql: r.str()? }),
            _ => Err(PersistError::Malformed("unknown record kind")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: &Record) -> Record {
        let mut out = Vec::new();
        rec.encode(&mut out).unwrap();
        Record::decode(&out).unwrap()
    }

    #[test]
    fn result_row_roundtrip() {
        let row = ResultRow {
            model: "walk".into(),
            method: "gmlss".into(),
            beta: 6.0,
            horizon: 60,
            tau: 1.25e-7,
            variance: 3.5e-16,
            steps: 123_456,
            n_roots: 2000,
            millis: 42,
            plan_source: "hit".into(),
            shard_reuse: "cold".into(),
            tenant: "acme".into(),
        };
        match roundtrip(&Record::ResultRow(row.clone())) {
            Record::ResultRow(got) => assert_eq!(got, row),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn submit_roundtrip_preserves_pinnedness() {
        let rec = Record::AsyncSubmit {
            qid: 9,
            spec: SubmitSpec {
                model: "walk".into(),
                params: vec![("drift".into(), -0.25), ("sigma".into(), 1.0)],
                method: "auto".into(),
                levels: 4,
                beta: 6.0,
                horizon: 60,
                target_re: 0.2,
                priority: 3,
                batch_width: Some(8),
                pinned_seed: None,
                seed: 0xDEAD_BEEF,
                tenant: Some("acme".into()),
            },
            plan_source: "miss".into(),
            shard_reuse: "cold".into(),
        };
        match roundtrip(&rec) {
            Record::AsyncSubmit {
                qid,
                spec,
                plan_source,
                shard_reuse,
            } => {
                assert_eq!(qid, 9);
                assert_eq!(spec.pinned_seed, None);
                assert_eq!(spec.seed, 0xDEAD_BEEF);
                assert_eq!(spec.params.len(), 2);
                assert_eq!(plan_source, "miss");
                assert_eq!(shard_reuse, "cold");
                assert_eq!(spec.tenant.as_deref(), Some("acme"));
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn sql_statement_roundtrip() {
        let rec = Record::SqlStatement {
            sql: "CREATE TABLE t (a INT)".into(),
        };
        match roundtrip(&rec) {
            Record::SqlStatement { sql } => assert_eq!(sql, "CREATE TABLE t (a INT)"),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut out = Vec::new();
        Record::AsyncEnd { qid: 1 }.encode(&mut out).unwrap();
        out.push(0);
        assert!(Record::decode(&out).is_err());
    }
}
