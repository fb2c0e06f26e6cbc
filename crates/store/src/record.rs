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
    decode_stored_shard, encode_stored_shard, put_f64, put_i64, put_str, put_u64, put_u8, Persist,
    PersistError, Reader,
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

/// A durable event. `ResultRow`, `PlanEntry` and deposit `Checkpoint`s
/// snapshot serving state; `AsyncSubmit`, query `Checkpoint`s,
/// `AsyncDone` and `AsyncEnd` are the ASYNC query lifecycle (submit →
/// checkpoints → done | end); `SqlStatement` journals plain SQL DDL/DML
/// so user tables survive restarts.
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
    /// A run's resumable state: a shard plus its run cursor, under the
    /// shard-store key of the problem it answers. `qid: None` is a
    /// shard-store deposit; `Some(qid)` is ASYNC query `qid`'s latest
    /// resume point, cut at a slice boundary.
    Checkpoint {
        /// Durable query id of the running query, `None` for a deposit.
        qid: Option<u64>,
        /// The store key (fingerprint, resolved method, plan digest).
        key: ShardKey,
        /// The checkpoint itself (shard + run cursor + provenance).
        entry: StoredShard,
    },
    /// An ASYNC query was submitted. `qid` is the durable query id —
    /// monotonic per log, independent of in-process scheduler ids.
    AsyncSubmit {
        /// Durable query id.
        qid: u64,
        /// The canonical statement (`QuerySpec::render`); replay parses
        /// it back with the one SQL parser.
        sql: String,
        /// The stream seed the query runs under (pinned or drawn at
        /// submit time).
        seed: u64,
        /// Fair-share tenant the submission was charged to (not part of
        /// the statement language).
        tenant: Option<String>,
        /// Plan provenance at original submit time.
        plan_source: String,
        /// Shard-reuse provenance at original submit time.
        shard_reuse: String,
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
// Kinds 3 and 5 (the two checkpoint records `Checkpoint` replaced) are
// retired and decode as unknown.
const KIND_ASYNC_SUBMIT: u8 = 4;
const KIND_ASYNC_DONE: u8 = 6;
const KIND_ASYNC_END: u8 = 7;
const KIND_SQL_STATEMENT: u8 = 8;
const KIND_CHECKPOINT: u8 = 9;

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
            Record::Checkpoint { qid, key, entry } => {
                put_u8(out, KIND_CHECKPOINT);
                match qid {
                    Some(qid) => {
                        put_u8(out, 1);
                        put_u64(out, *qid);
                    }
                    None => put_u8(out, 0),
                }
                put_u64(out, key.fingerprint);
                put_str(out, &key.method);
                put_u64(out, key.plan_digest);
                encode_stored_shard(entry, out)?;
            }
            Record::AsyncSubmit {
                qid,
                sql,
                seed,
                tenant,
                plan_source,
                shard_reuse,
            } => {
                put_u8(out, KIND_ASYNC_SUBMIT);
                put_u64(out, *qid);
                put_str(out, sql);
                put_u64(out, *seed);
                match tenant {
                    Some(tenant) => {
                        put_u8(out, 1);
                        put_str(out, tenant);
                    }
                    None => put_u8(out, 0),
                }
                put_str(out, plan_source);
                put_str(out, shard_reuse);
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
            KIND_CHECKPOINT => Ok(Record::Checkpoint {
                qid: match r.u8()? {
                    0 => None,
                    1 => Some(r.u64()?),
                    _ => return Err(PersistError::Malformed("checkpoint qid tag")),
                },
                key: ShardKey {
                    fingerprint: r.u64()?,
                    method: r.str()?,
                    plan_digest: r.u64()?,
                },
                entry: decode_stored_shard(r)?,
            }),
            KIND_ASYNC_SUBMIT => Ok(Record::AsyncSubmit {
                qid: r.u64()?,
                sql: r.str()?,
                seed: r.u64()?,
                tenant: match r.u8()? {
                    0 => None,
                    1 => Some(r.str()?),
                    _ => return Err(PersistError::Malformed("submit tenant tag")),
                },
                plan_source: r.str()?,
                shard_reuse: r.str()?,
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
    fn submit_roundtrip_keeps_text_seed_and_tenant() {
        for tenant in [None, Some("acme".to_string())] {
            let rec = Record::AsyncSubmit {
                qid: 9,
                sql: "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 60 USING srs TARGET RE 0.2 ASYNC"
                    .into(),
                seed: 0xDEAD_BEEF,
                tenant: tenant.clone(),
                plan_source: "miss".into(),
                shard_reuse: "cold".into(),
            };
            let Record::AsyncSubmit {
                qid,
                sql,
                seed,
                tenant: got,
                plan_source,
                shard_reuse,
            } = roundtrip(&rec)
            else {
                panic!("wrong kind");
            };
            assert_eq!((qid, seed), (9, 0xDEAD_BEEF));
            assert!(sql.starts_with("ESTIMATE DURABILITY OF walk(beta=6)"));
            assert_eq!(got, tenant);
            assert_eq!(
                (plan_source.as_str(), shard_reuse.as_str()),
                ("miss", "cold")
            );
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
