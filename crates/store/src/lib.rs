//! `mlss-store` — the durability layer: an append-only, CRC-framed
//! write-ahead log plus snapshot/compaction.
//!
//! The engine's whole durable state — `results` rows, plan-cache
//! entries, and checkpoints (shard-store deposits and in-flight ASYNC
//! queries' resume points) — is a sequence of self-describing [`Record`]s. This crate frames
//! them on disk, replays them on open (stopping cleanly at the first
//! torn or corrupt record), and compacts the log into a snapshot that is
//! *itself* a log in the same format, so "snapshot + tail" replay is the
//! ordinary replay loop run twice.
//!
//! Mapping records to engine state (and back) is the session layer's
//! job (`mlss_db::durability`); this crate knows only bytes, frames, and
//! files. The split mirrors the pager/WAL layering of embedded SQL
//! engines: a small, separately testable durability kernel under an
//! in-memory execution engine.
//!
//! Crash testing is a first-class API: [`CrashPlan`] wedges the log at
//! the Nth record boundary — or mid-record, for torn-write coverage —
//! after which every append is silently dropped, exactly as if the
//! process had died. The recovery-identity suite sweeps a crash at every
//! record of a pinned-seed run and proves the reopened session's results
//! are bit-identical to an uninterrupted run's.

mod crc;
mod record;
mod wal;

pub use crc::crc32;
pub use record::{Record, ResultRow};
pub use wal::{CrashPlan, FormatError, FsyncPolicy, Replay, Wal, WalOptions, WalStats};
