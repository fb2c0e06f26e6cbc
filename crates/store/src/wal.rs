//! The on-disk log: framing, replay, snapshot/compaction, fsync policy,
//! and crash-point injection.
//!
//! A log directory holds two files in the same format:
//!
//! ```text
//! snapshot.wal   compacted prefix (rewritten atomically by compaction)
//! tail.wal       append-only suffix of records since the last compaction
//! ```
//!
//! Each file is an 8-byte magic (`MLSSWAL3`) followed by frames:
//!
//! ```text
//! [len: u32 LE][crc32(payload): u32 LE][payload: len bytes]
//! ```
//!
//! Replay reads the snapshot then the tail and stops each file at the
//! first invalid frame — short header, truncated payload or CRC mismatch
//! — returning every record before it. The tail is then physically
//! truncated to its last valid frame so subsequent appends never
//! interleave with a torn write.
//!
//! A log written by another version of the format is refused, never
//! repaired: a header carrying another `MLSSWAL*` magic, or a
//! checksummed record this version cannot decode, makes [`Wal::open`]
//! fail with a [`FormatError`] and leaves both files byte-for-byte as
//! they were.
//!
//! Compaction rewrites `snapshot.wal` (write temp → fsync → rename) with
//! the session's current state as ordinary records and truncates the
//! tail; a crash at any point leaves either the old pair or the new pair,
//! both replayable. A snapshot is therefore allowed to be *stale* — the
//! tail suffix replays on top of it.

use crate::crc::crc32;
use crate::record::Record;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};

const MAGIC: &[u8; 8] = b"MLSSWAL3";
/// The magic's version-independent prefix: a header starting with it
/// but not equal to [`MAGIC`] is another version's log.
const MAGIC_FAMILY: &[u8] = b"MLSSWAL";

/// Why [`Wal::open`] refused a log directory: a file was written by
/// another version of the format. Carried as the inner error of an
/// [`std::io::ErrorKind::InvalidData`] error (recover it with
/// `err.get_ref().and_then(|e| e.downcast_ref::<FormatError>())`); the
/// refused files are left untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// The file's header carries another version's magic.
    ForeignVersion {
        /// The refused file.
        path: PathBuf,
        /// The header it carries.
        magic: [u8; 8],
    },
    /// A frame's checksum holds but its record does not decode.
    UndecodableRecord {
        /// The refused file.
        path: PathBuf,
        /// Byte offset of the frame.
        offset: u64,
    },
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::ForeignVersion { path, magic } => write!(
                f,
                "{} is a {} log; this build reads {}",
                path.display(),
                String::from_utf8_lossy(magic),
                String::from_utf8_lossy(MAGIC)
            ),
            FormatError::UndecodableRecord { path, offset } => write!(
                f,
                "{}: the checksummed record at byte {offset} does not decode \
                 (written by another version)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for FormatError {}

impl From<FormatError> for std::io::Error {
    fn from(e: FormatError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}
const SNAPSHOT: &str = "snapshot.wal";
const TAIL: &str = "tail.wal";

/// When appended records reach stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` covers every record before its append returns —
    /// maximum durability. Concurrent appenders **group-commit**: one
    /// leader issues the fsync outside the log lock and every record
    /// written before it started is covered by that single syscall, so
    /// under contention fsyncs ≪ records while each append still
    /// returns only after its frame is on stable storage. A lone
    /// appender degenerates to one fsync per record.
    Always,
    /// `fdatasync` after every N records (and on compaction).
    EveryN(u64),
    /// Never fsync; durability is limited to what the OS flushes. The
    /// replay path is identical — torn tails are expected and handled.
    Never,
}

/// Crash-point injection: simulate the process dying at a chosen write.
///
/// After `after_records` successful appends the log **wedges**: with
/// `torn_bytes = Some(k)` the next record writes only the first `k`
/// bytes of its frame first (a torn write); either way every subsequent
/// append is silently dropped and fsyncs become no-ops — exactly the
/// observable disk state of a `SIGKILL` at that point. The in-memory
/// session keeps running, so a test can compare its live results against
/// what a reopened session recovers.
#[derive(Debug, Clone, Copy)]
pub struct CrashPlan {
    /// Successful appends before the wedge.
    pub after_records: u64,
    /// Bytes of the next frame to leave on disk (`None` = drop whole).
    pub torn_bytes: Option<usize>,
}

impl CrashPlan {
    /// Wedge cleanly after `n` records (crash at a record boundary).
    pub fn after(n: u64) -> Self {
        Self {
            after_records: n,
            torn_bytes: None,
        }
    }

    /// Wedge mid-record: record `n` (0-based) leaves `bytes` of its
    /// frame on disk.
    pub fn torn(n: u64, bytes: usize) -> Self {
        Self {
            after_records: n,
            torn_bytes: Some(bytes),
        }
    }
}

/// Open-time options.
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Fsync cadence for appends.
    pub fsync: FsyncPolicy,
    /// Optional crash injection (tests only).
    pub crash: Option<CrashPlan>,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            fsync: FsyncPolicy::Always,
            crash: None,
        }
    }
}

/// What replay found on open.
#[derive(Debug)]
pub struct Replay {
    /// Every valid record, snapshot first, then tail, in write order.
    pub records: Vec<Record>,
    /// How many of `records` came from the snapshot file.
    pub snapshot_records: u64,
    /// How many came from the tail file.
    pub tail_records: u64,
    /// Whether either file ended in an invalid frame (torn or corrupt)
    /// that replay dropped.
    pub truncated: bool,
    /// Bytes discarded as invalid suffix.
    pub dropped_bytes: u64,
}

/// Append/IO counters for diagnostics.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStats {
    /// Records appended (durably) by this process.
    pub records: u64,
    /// Frame bytes appended by this process.
    pub bytes: u64,
    /// `fdatasync` calls issued.
    pub fsyncs: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Appends dropped by an injected crash.
    pub dropped: u64,
    /// Whether the log is wedged by a [`CrashPlan`].
    pub wedged: bool,
}

struct Inner {
    tail: File,
    fsync: FsyncPolicy,
    crash: Option<CrashPlan>,
    since_sync: u64,
    stats: WalStats,
    /// Frames written to the tail (group-commit sequence numbers).
    written_seq: u64,
    /// Highest `written_seq` covered by a completed fsync.
    synced_seq: u64,
    /// A leader is fsyncing outside the lock right now.
    syncing: bool,
}

/// A crash-safe append-only record log (see module docs). All methods
/// take `&self`; the file handle is internally serialized.
pub struct Wal {
    dir: PathBuf,
    inner: Mutex<Inner>,
    /// Wakes group-commit followers when a leader's fsync lands.
    sync_done: Condvar,
}

fn parse_file(path: &Path) -> std::io::Result<(Vec<Record>, u64, bool, u64)> {
    let mut buf = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut buf)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok((Vec::new(), 0, false, 0));
        }
        Err(e) => return Err(e),
    }
    if buf.len() >= MAGIC.len() && buf.starts_with(MAGIC_FAMILY) && &buf[..MAGIC.len()] != MAGIC {
        let magic = buf[..MAGIC.len()].try_into().unwrap();
        let path = path.to_path_buf();
        return Err(FormatError::ForeignVersion { path, magic }.into());
    }
    if buf.len() < MAGIC.len() || &buf[..MAGIC.len()] != MAGIC {
        // Missing or unreadable header: nothing trustworthy in the file.
        return Ok((Vec::new(), 0, !buf.is_empty(), buf.len() as u64));
    }
    let mut records = Vec::new();
    let mut pos = MAGIC.len();
    loop {
        if pos + 8 > buf.len() {
            break;
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        if pos + 8 + len > buf.len() {
            break; // torn payload
        }
        let payload = &buf[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            break; // bit rot or torn header/payload overlap
        }
        match Record::decode(payload) {
            Ok(rec) => records.push(rec),
            Err(_) => {
                // Checksummed bytes this build cannot read: another
                // version wrote them. Refuse rather than truncate.
                let path = path.to_path_buf();
                let offset = pos as u64;
                return Err(FormatError::UndecodableRecord { path, offset }.into());
            }
        }
        pos += 8 + len;
    }
    let dropped = (buf.len() - pos) as u64;
    Ok((records, pos as u64, dropped > 0, dropped))
}

fn frame(rec: &Record) -> std::io::Result<Vec<u8>> {
    let mut payload = Vec::new();
    rec.encode(&mut payload)
        .map_err(|e| std::io::Error::other(format!("unencodable record: {e}")))?;
    let mut framed = Vec::with_capacity(payload.len() + 8);
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(&crc32(&payload).to_le_bytes());
    framed.extend_from_slice(&payload);
    Ok(framed)
}

impl Wal {
    /// Open (creating if needed) the log in `dir`, replay it, truncate
    /// any invalid tail suffix, and position for appending. Fails with a
    /// [`FormatError`] — touching no file — when either file was written
    /// by another version of the format.
    pub fn open(dir: impl Into<PathBuf>, opts: WalOptions) -> std::io::Result<(Wal, Replay)> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let (snap_records, _, snap_truncated, snap_dropped) = parse_file(&dir.join(SNAPSHOT))?;
        let tail_path = dir.join(TAIL);
        let (tail_records, tail_valid, tail_truncated, tail_dropped) = parse_file(&tail_path)?;

        let mut tail = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&tail_path)?;
        if tail_valid < MAGIC.len() as u64 {
            // Fresh (or unreadable-header) tail: start it over.
            tail.set_len(0)?;
            tail.write_all(MAGIC)?;
        } else {
            // Drop the invalid suffix so appends never follow torn bytes.
            tail.set_len(tail_valid)?;
        }
        tail.seek(SeekFrom::End(0))?;

        let snapshot_records = snap_records.len() as u64;
        let tail_count = tail_records.len() as u64;
        let mut records = snap_records;
        records.extend(tail_records);
        let replay = Replay {
            records,
            snapshot_records,
            tail_records: tail_count,
            truncated: snap_truncated || tail_truncated,
            dropped_bytes: snap_dropped + tail_dropped,
        };
        let wal = Wal {
            dir,
            inner: Mutex::new(Inner {
                tail,
                fsync: opts.fsync,
                crash: opts.crash,
                since_sync: 0,
                stats: WalStats::default(),
                written_seq: 0,
                synced_seq: 0,
                syncing: false,
            }),
            sync_done: Condvar::new(),
        };
        Ok((wal, replay))
    }

    /// Append one record per the fsync policy. Returns `Ok(false)` when
    /// an injected crash has wedged the log and the record was dropped —
    /// callers treat that exactly like a process death after this point.
    pub fn append(&self, rec: &Record) -> std::io::Result<bool> {
        let mut inner = self.inner.lock().unwrap();
        if inner.stats.wedged {
            inner.stats.dropped += 1;
            return Ok(false);
        }
        if let Some(plan) = inner.crash {
            if inner.stats.records >= plan.after_records {
                // Crash point reached: optionally leave a torn prefix of
                // this frame, then drop everything from here on.
                if let Some(bytes) = plan.torn_bytes {
                    let framed = frame(rec)?;
                    let torn = &framed[..bytes.min(framed.len())];
                    inner.tail.write_all(torn)?;
                    inner.tail.sync_data()?;
                }
                inner.stats.wedged = true;
                inner.stats.dropped += 1;
                return Ok(false);
            }
        }
        let framed = frame(rec)?;
        inner.tail.write_all(&framed)?;
        inner.stats.records += 1;
        inner.stats.bytes += framed.len() as u64;
        inner.since_sync += 1;
        inner.written_seq += 1;
        match inner.fsync {
            FsyncPolicy::Always => {
                // Group commit: don't return until an fsync issued
                // *after* this frame was written completes. One leader
                // syncs outside the lock; frames written while it is in
                // flight ride the *next* leader's syscall. A lone
                // appender is always its own leader (one fsync per
                // record); under contention fsyncs ≪ records.
                let my_seq = inner.written_seq;
                while inner.synced_seq < my_seq {
                    if inner.syncing {
                        inner = self.sync_done.wait(inner).unwrap();
                        continue;
                    }
                    let tail = inner.tail.try_clone()?;
                    let covers = inner.written_seq;
                    inner.syncing = true;
                    drop(inner);
                    let res = tail.sync_data();
                    inner = self.inner.lock().unwrap();
                    inner.syncing = false;
                    self.sync_done.notify_all();
                    res?;
                    inner.stats.fsyncs += 1;
                    inner.synced_seq = inner.synced_seq.max(covers);
                    inner.since_sync = inner.written_seq - inner.synced_seq;
                }
            }
            FsyncPolicy::EveryN(n) => {
                if inner.since_sync >= n.max(1) {
                    inner.tail.sync_data()?;
                    inner.since_sync = 0;
                    inner.synced_seq = inner.written_seq;
                    inner.stats.fsyncs += 1;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(true)
    }

    /// Force pending appends to stable storage (no-op when wedged).
    pub fn sync(&self) -> std::io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        if inner.stats.wedged {
            return Ok(());
        }
        inner.tail.sync_data()?;
        inner.since_sync = 0;
        inner.synced_seq = inner.written_seq;
        inner.stats.fsyncs += 1;
        Ok(())
    }

    /// Replace the snapshot with `records` (the caller's full current
    /// state) and truncate the tail: write temp → fsync → rename, so a
    /// crash leaves either the old pair or the new pair. No-op when
    /// wedged — a crashed process doesn't compact.
    pub fn compact(&self, records: &[Record]) -> std::io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        if inner.stats.wedged {
            return Ok(());
        }
        let tmp_path = self.dir.join("snapshot.tmp");
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(MAGIC)?;
            for rec in records {
                tmp.write_all(&frame(rec)?)?;
            }
            tmp.sync_data()?;
        }
        std::fs::rename(&tmp_path, self.dir.join(SNAPSHOT))?;
        inner.tail.set_len(MAGIC.len() as u64)?;
        inner.tail.seek(SeekFrom::End(0))?;
        inner.tail.sync_data()?;
        inner.stats.compactions += 1;
        Ok(())
    }

    /// Append/IO counters.
    pub fn stats(&self) -> WalStats {
        self.inner.lock().unwrap().stats
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Record, ResultRow};

    fn row(i: i64) -> ResultRow {
        ResultRow {
            model: format!("m{i}"),
            method: "srs".into(),
            beta: 6.0 + i as f64,
            horizon: 60 + i,
            tau: 1.0e-7 * (i + 1) as f64,
            variance: 2.0e-16,
            steps: 1000 + i,
            n_roots: 10 + i,
            millis: i,
            plan_source: "none".into(),
            shard_reuse: "cold".into(),
            tenant: "-".into(),
        }
    }

    fn rows(replay: &Replay) -> Vec<i64> {
        replay
            .records
            .iter()
            .map(|r| match r {
                Record::ResultRow(row) => row.horizon - 60,
                other => panic!("unexpected record {other:?}"),
            })
            .collect()
    }

    fn write_n(dir: &Path, n: i64) {
        let (wal, _) = Wal::open(dir, WalOptions::default()).unwrap();
        for i in 0..n {
            assert!(wal.append(&Record::ResultRow(row(i))).unwrap());
        }
    }

    #[test]
    fn append_then_replay() {
        let dir = tempdir("append_then_replay");
        write_n(&dir, 3);
        let (_, replay) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(rows(&replay), vec![0, 1, 2]);
        assert!(!replay.truncated);
        assert_eq!(replay.snapshot_records, 0);
        assert_eq!(replay.tail_records, 3);
    }

    #[test]
    fn truncated_tail_stops_at_last_valid_record() {
        let dir = tempdir("truncated_tail");
        write_n(&dir, 3);
        // Chop bytes off the end of the tail, simulating a torn final
        // write; every intermediate truncation must still replay the
        // prefix of complete records without panicking.
        let path = dir.join(TAIL);
        let full = std::fs::read(&path).unwrap();
        for cut in 1..40 {
            std::fs::write(&path, &full[..full.len() - cut]).unwrap();
            let (_, replay) = Wal::open(&dir, WalOptions::default()).unwrap();
            assert!(rows(&replay).len() <= 3);
            assert_eq!(
                rows(&replay),
                (0..rows(&replay).len() as i64).collect::<Vec<_>>()
            );
            // Re-opening after truncation repaired the file; restore it.
            std::fs::write(&path, &full).unwrap();
        }
    }

    #[test]
    fn bit_flip_in_payload_stops_replay() {
        let dir = tempdir("bit_flip");
        write_n(&dir, 3);
        let path = dir.join(TAIL);
        let full = std::fs::read(&path).unwrap();
        // Locate record 1's payload: magic, then frame 0, then frame 1.
        let len0 = u32::from_le_bytes(full[8..12].try_into().unwrap()) as usize;
        let rec1 = 8 + 8 + len0;
        let mut corrupt = full.clone();
        corrupt[rec1 + 8 + 3] ^= 0x40; // payload byte of record 1
        std::fs::write(&path, &corrupt).unwrap();
        let (_, replay) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(
            rows(&replay),
            vec![0],
            "replay must stop before the corrupt record"
        );
        assert!(replay.truncated);
        assert!(replay.dropped_bytes > 0);
    }

    fn format_error(err: &std::io::Error) -> &FormatError {
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        err.get_ref()
            .and_then(|e| e.downcast_ref::<FormatError>())
            .expect("a typed format error")
    }

    #[test]
    fn an_old_format_log_is_refused_and_left_untouched() {
        for old_magic in [b"MLSSWAL1", b"MLSSWAL2"] {
            let dir = tempdir(&format!("old_format_{}", old_magic[7] as char));
            // A hand-written previous-version log: its magic and one frame.
            let mut old = old_magic.to_vec();
            let payload = [0x2a_u8; 12];
            old.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            old.extend_from_slice(&crc32(&payload).to_le_bytes());
            old.extend_from_slice(&payload);
            let mut snapshot = old_magic.to_vec();
            snapshot.extend_from_slice(b" stale snapshot bytes");
            std::fs::write(dir.join(TAIL), &old).unwrap();
            std::fs::write(dir.join(SNAPSHOT), &snapshot).unwrap();

            let err = Wal::open(&dir, WalOptions::default())
                .err()
                .expect("refused");
            assert!(matches!(
                format_error(&err),
                FormatError::ForeignVersion { magic, .. } if magic == old_magic
            ));
            assert_eq!(std::fs::read(dir.join(TAIL)).unwrap(), old);
            assert_eq!(std::fs::read(dir.join(SNAPSHOT)).unwrap(), snapshot);
        }
    }

    #[test]
    fn an_undecodable_checksummed_record_is_refused_not_truncated() {
        let dir = tempdir("undecodable");
        write_n(&dir, 2);
        let path = dir.join(TAIL);
        let mut full = std::fs::read(&path).unwrap();
        // Append a well-framed record of an unknown kind.
        let payload = [0xEE_u8, 1, 2, 3];
        full.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        full.extend_from_slice(&crc32(&payload).to_le_bytes());
        full.extend_from_slice(&payload);
        std::fs::write(&path, &full).unwrap();
        let err = Wal::open(&dir, WalOptions::default())
            .err()
            .expect("refused");
        assert!(matches!(
            format_error(&err),
            FormatError::UndecodableRecord { .. }
        ));
        assert_eq!(std::fs::read(&path).unwrap(), full);
    }

    #[test]
    fn bad_crc_field_stops_replay() {
        let dir = tempdir("bad_crc");
        write_n(&dir, 2);
        let path = dir.join(TAIL);
        let mut full = std::fs::read(&path).unwrap();
        full[8 + 4] ^= 0xFF; // CRC field of record 0
        std::fs::write(&path, &full).unwrap();
        let (_, replay) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert!(rows(&replay).is_empty());
        assert!(replay.truncated);
    }

    #[test]
    fn reopen_after_torn_tail_appends_cleanly() {
        let dir = tempdir("reopen_torn");
        write_n(&dir, 2);
        let path = dir.join(TAIL);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        // Reopen truncates the torn record and appends a new one after it.
        let (wal, replay) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(rows(&replay), vec![0]);
        assert!(wal.append(&Record::ResultRow(row(7))).unwrap());
        drop(wal);
        let (_, replay) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(rows(&replay), vec![0, 7]);
        assert!(!replay.truncated);
    }

    #[test]
    fn stale_snapshot_plus_tail_suffix_replays_in_order() {
        let dir = tempdir("stale_snapshot");
        let (wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
        for i in 0..2 {
            wal.append(&Record::ResultRow(row(i))).unwrap();
        }
        // Compact rows 0-1 into the snapshot, then keep appending: the
        // snapshot is now stale relative to the tail.
        wal.compact(&[Record::ResultRow(row(0)), Record::ResultRow(row(1))])
            .unwrap();
        for i in 2..5 {
            wal.append(&Record::ResultRow(row(i))).unwrap();
        }
        drop(wal);
        let (_, replay) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(rows(&replay), vec![0, 1, 2, 3, 4]);
        assert_eq!(replay.snapshot_records, 2);
        assert_eq!(replay.tail_records, 3);
        // A torn tail on top of a snapshot still replays the snapshot
        // plus the valid tail prefix.
        let path = dir.join(TAIL);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (_, replay) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(rows(&replay), vec![0, 1, 2, 3]);
        assert!(replay.truncated);
    }

    #[test]
    fn crash_plan_wedges_at_the_boundary() {
        let dir = tempdir("crash_boundary");
        let opts = WalOptions {
            fsync: FsyncPolicy::Always,
            crash: Some(CrashPlan::after(2)),
        };
        let (wal, _) = Wal::open(&dir, opts).unwrap();
        assert!(wal.append(&Record::ResultRow(row(0))).unwrap());
        assert!(wal.append(&Record::ResultRow(row(1))).unwrap());
        assert!(!wal.append(&Record::ResultRow(row(2))).unwrap());
        assert!(!wal.append(&Record::ResultRow(row(3))).unwrap());
        assert!(wal.stats().wedged);
        assert_eq!(wal.stats().dropped, 2);
        drop(wal);
        let (_, replay) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(rows(&replay), vec![0, 1]);
        assert!(!replay.truncated);
    }

    #[test]
    fn crash_plan_torn_write_leaves_partial_frame() {
        let dir = tempdir("crash_torn");
        let opts = WalOptions {
            fsync: FsyncPolicy::Always,
            crash: Some(CrashPlan::torn(1, 6)),
        };
        let (wal, _) = Wal::open(&dir, opts).unwrap();
        assert!(wal.append(&Record::ResultRow(row(0))).unwrap());
        assert!(!wal.append(&Record::ResultRow(row(1))).unwrap());
        drop(wal);
        let (_, replay) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(rows(&replay), vec![0]);
        assert!(
            replay.truncated,
            "the torn frame must be detected and dropped"
        );
    }

    #[test]
    fn fsync_policies_count_syncs() {
        let dir = tempdir("fsync_counts");
        let (wal, _) = Wal::open(
            &dir,
            WalOptions {
                fsync: FsyncPolicy::EveryN(3),
                crash: None,
            },
        )
        .unwrap();
        for i in 0..7 {
            wal.append(&Record::ResultRow(row(i))).unwrap();
        }
        assert_eq!(wal.stats().fsyncs, 2); // after records 3 and 6
        let never_dir = tempdir("fsync_never");
        let (never, _) = Wal::open(
            &never_dir,
            WalOptions {
                fsync: FsyncPolicy::Never,
                crash: None,
            },
        )
        .unwrap();
        never.append(&Record::ResultRow(row(0))).unwrap();
        assert_eq!(never.stats().fsyncs, 0);
    }

    #[test]
    fn sequential_always_syncs_every_record() {
        // Group commit must not change the lone-appender contract: with
        // no one to share a syscall with, every append is its own
        // leader.
        let dir = tempdir("group_sequential");
        let (wal, _) = Wal::open(
            &dir,
            WalOptions {
                fsync: FsyncPolicy::Always,
                crash: None,
            },
        )
        .unwrap();
        for i in 0..5 {
            wal.append(&Record::ResultRow(row(i))).unwrap();
        }
        assert_eq!(wal.stats().fsyncs, 5);
    }

    #[test]
    fn concurrent_always_group_commits_and_loses_nothing() {
        // Hammer the log from several threads under `Always`: every
        // record must replay (each append returned only after its frame
        // was covered by an fsync), and the group must never issue more
        // syscalls than records — under contention it should issue
        // meaningfully fewer, but that is timing-dependent, so only the
        // ≤ bound and the durability of every record are pinned.
        let dir = tempdir("group_concurrent");
        let (wal, _) = Wal::open(
            &dir,
            WalOptions {
                fsync: FsyncPolicy::Always,
                crash: None,
            },
        )
        .unwrap();
        let wal = std::sync::Arc::new(wal);
        const THREADS: i64 = 4;
        const PER_THREAD: i64 = 25;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let wal = wal.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        assert!(wal
                            .append(&Record::ResultRow(row(t * PER_THREAD + i)))
                            .unwrap());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = (THREADS * PER_THREAD) as u64;
        let stats = wal.stats();
        assert_eq!(stats.records, total);
        assert!(
            stats.fsyncs >= 1 && stats.fsyncs <= total,
            "group commit: {} fsyncs for {} records",
            stats.fsyncs,
            total
        );

        // Reopen and replay: all frames intact, none torn or dropped.
        drop(wal);
        let (_, replay) = Wal::open(
            &dir,
            WalOptions {
                fsync: FsyncPolicy::Always,
                crash: None,
            },
        )
        .unwrap();
        assert_eq!(replay.records.len() as u64, total);
        assert!(!replay.truncated);
    }

    /// A fresh, empty per-process test directory, removed with
    /// everything in it when the guard drops.
    struct TempDir(PathBuf);

    impl std::ops::Deref for TempDir {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }

    /// What lets `Wal::open(&dir, …)` take the guard.
    impl AsRef<std::ffi::OsStr> for TempDir {
        fn as_ref(&self) -> &std::ffi::OsStr {
            self.0.as_os_str()
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tempdir(name: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("mlss_store_test_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}
