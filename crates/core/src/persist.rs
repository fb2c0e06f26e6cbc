//! Bit-exact binary serialization for durable state.
//!
//! The WAL layer (`mlss_store`) journals shard checkpoints, run cursors,
//! plan-cache entries, and estimates; a recovered session must resume
//! **bit-identically** to an uninterrupted run, so every codec here is
//! exact: floats round-trip through [`f64::to_bits`] and the 128-bit
//! integer moment sums are written verbatim. A run's randomness is
//! index-addressed by its key, so its position is four integers (run
//! key, next root, checks made, open chunk end) — no generator state.
//!
//! The [`Persist`] impls for shard types live next to their struct
//! definitions (they serialize private fields); this module holds the
//! trait, the byte [`Reader`], the little-endian `put_*` helpers, and the
//! type-erased [`StoredShard`] codec used by the WAL's checkpoint
//! record.
//!
//! Framing, CRCs, and record kinds are the WAL's concern, not this
//! module's: a `Persist` payload is only ever decoded after the WAL has
//! verified the enclosing record's checksum, so decode errors here
//! indicate a version mismatch (or a bug), never silent disk corruption.

use crate::estimate::Estimate;
use crate::estimator::RunCursor;
use crate::gmlss::GmlssShard;
use crate::is::IsShard;
use crate::levels::PartitionPlan;
use crate::rng::RootCursor;
use crate::shard_store::StoredShard;
use crate::smlss::SMlssShard;
use crate::srs::SrsShard;

/// Why a decode failed. Payloads are CRC-verified by the WAL before they
/// reach these codecs, so any of these means "foreign or incompatible
/// bytes", not bit rot.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// The buffer ended before the value did.
    Eof,
    /// Structurally invalid data (context in the message).
    Malformed(&'static str),
    /// A type-erased shard had an unknown or unsupported type tag.
    UnsupportedShard(u8),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Eof => write!(f, "unexpected end of persisted data"),
            PersistError::Malformed(what) => write!(f, "malformed persisted data: {what}"),
            PersistError::UnsupportedShard(tag) => {
                write!(f, "unsupported stored-shard type tag {tag}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

// ---- little-endian writers ----------------------------------------------

/// Append a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `i64`, little-endian.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u128`, little-endian (the exact integer moment sums).
pub fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its exact bit pattern (NaN payloads, signed zeros,
/// and infinities all round-trip).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, v: &str) {
    put_u32(out, v.len() as u32);
    out.extend_from_slice(v.as_bytes());
}

/// Append a length-prefixed `u32` slice.
pub fn put_u32s(out: &mut Vec<u8>, vs: &[u32]) {
    put_u32(out, vs.len() as u32);
    for &v in vs {
        put_u32(out, v);
    }
}

/// Append a length-prefixed `u64` slice.
pub fn put_u64s(out: &mut Vec<u8>, vs: &[u64]) {
    put_u32(out, vs.len() as u32);
    for &v in vs {
        put_u64(out, v);
    }
}

/// Append a length-prefixed `f64` slice (exact bit patterns).
pub fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    put_u32(out, vs.len() as u32);
    for &v in vs {
        put_f64(out, v);
    }
}

// ---- reader -------------------------------------------------------------

/// Cursor over a persisted payload. Every getter advances; all reads are
/// bounds-checked and return [`PersistError::Eof`] past the end.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Eof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Next `u8`.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Next little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, PersistError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Next little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, PersistError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Next `f64` from its exact bit pattern.
    pub fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Next length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, PersistError> {
        let len = self.len_prefix()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PersistError::Malformed("non-UTF-8 string"))
    }

    /// Next length-prefixed `u32` slice.
    pub fn u32s(&mut self) -> Result<Vec<u32>, PersistError> {
        let len = self.len_prefix()?;
        (0..len).map(|_| self.u32()).collect()
    }

    /// Next length-prefixed `u64` slice.
    pub fn u64s(&mut self) -> Result<Vec<u64>, PersistError> {
        let len = self.len_prefix()?;
        (0..len).map(|_| self.u64()).collect()
    }

    /// Next length-prefixed `f64` slice.
    pub fn f64s(&mut self) -> Result<Vec<f64>, PersistError> {
        let len = self.len_prefix()?;
        (0..len).map(|_| self.f64()).collect()
    }

    fn len_prefix(&mut self) -> Result<usize, PersistError> {
        let len = self.u32()? as usize;
        // A length prefix can never legitimately exceed what's left: each
        // element is at least one byte. Rejecting here keeps a corrupt
        // prefix from attempting a huge allocation.
        if len > self.remaining() {
            return Err(PersistError::Eof);
        }
        Ok(len)
    }
}

// ---- the trait ----------------------------------------------------------

/// Exact binary serialization. `restore(persist(x)) == x` must hold
/// bit-for-bit for every observable field; in particular a restored shard
/// and cursor must continue a run with draws and estimates identical to
/// the original's.
pub trait Persist: Sized {
    /// Append this value's encoding to `out`.
    fn persist(&self, out: &mut Vec<u8>);

    /// Decode one value from the reader, advancing it.
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError>;
}

impl Persist for Estimate {
    fn persist(&self, out: &mut Vec<u8>) {
        put_f64(out, self.tau);
        put_f64(out, self.variance);
        put_u64(out, self.n_roots);
        put_u64(out, self.steps);
        put_u64(out, self.hits);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Estimate {
            tau: r.f64()?,
            variance: r.f64()?,
            n_roots: r.u64()?,
            steps: r.u64()?,
            hits: r.u64()?,
        })
    }
}

impl Persist for PartitionPlan {
    fn persist(&self, out: &mut Vec<u8>) {
        put_f64s(out, self.interior());
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        // A valid plan's interior boundaries are already sorted and
        // strictly increasing, so `new` neither reorders nor rejects a
        // faithful round-trip.
        PartitionPlan::new(r.f64s()?).map_err(|_| PersistError::Malformed("partition plan"))
    }
}

impl Persist for RunCursor {
    fn persist(&self, out: &mut Vec<u8>) {
        put_u64(out, self.roots.key);
        put_u64(out, self.roots.next);
        put_u64(out, self.checks);
        // A chunk end is at least one step: 0 encodes "no open chunk".
        put_u64(out, self.chunk_end.unwrap_or(0));
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let mut roots = RootCursor::new(r.u64()?);
        roots.next = r.u64()?;
        Ok(RunCursor {
            roots,
            checks: r.u64()?,
            chunk_end: Some(r.u64()?).filter(|&end| end > 0),
        })
    }
}

// ---- type-erased stored-shard codec -------------------------------------

const TAG_SRS: u8 = 1;
const TAG_SMLSS: u8 = 2;
const TAG_GMLSS: u8 = 3;
const TAG_IS: u8 = 4;

/// Encode a type-erased [`StoredShard`] (shard + run cursor + estimate +
/// seed provenance). The concrete shard type is discovered by downcast
/// and recorded as a tag byte; returns `UnsupportedShard` for shard types
/// outside the four in-tree estimators.
pub fn encode_stored_shard(entry: &StoredShard, out: &mut Vec<u8>) -> Result<(), PersistError> {
    if let Some(s) = entry.shard_as::<SrsShard>() {
        put_u8(out, TAG_SRS);
        s.persist(out);
    } else if let Some(s) = entry.shard_as::<SMlssShard>() {
        put_u8(out, TAG_SMLSS);
        s.persist(out);
    } else if let Some(s) = entry.shard_as::<GmlssShard>() {
        put_u8(out, TAG_GMLSS);
        s.persist(out);
    } else if let Some(s) = entry.shard_as::<IsShard>() {
        put_u8(out, TAG_IS);
        s.persist(out);
    } else {
        return Err(PersistError::UnsupportedShard(0));
    }
    entry.cursor.persist(out);
    entry.estimate.persist(out);
    match entry.seed {
        Some(s) => {
            put_u8(out, 1);
            put_u64(out, s);
        }
        None => put_u8(out, 0),
    }
    put_f64(out, entry.target_re);
    Ok(())
}

/// Decode a [`StoredShard`] produced by [`encode_stored_shard`].
pub fn decode_stored_shard(r: &mut Reader<'_>) -> Result<StoredShard, PersistError> {
    let tag = r.u8()?;
    // Decode the concrete shard first, then the shared envelope, then
    // re-erase through `StoredShard::new` (which also restores the cached
    // meta the store's planner reads).
    macro_rules! finish {
        ($shard:expr) => {{
            let shard = $shard;
            let cursor = RunCursor::restore(r)?;
            let estimate = Estimate::restore(r)?;
            let seed = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                _ => return Err(PersistError::Malformed("seed option tag")),
            };
            let target_re = r.f64()?;
            Ok(StoredShard::new(&shard, cursor, estimate, seed, target_re))
        }};
    }
    match tag {
        TAG_SRS => finish!(SrsShard::restore(r)?),
        TAG_SMLSS => finish!(SMlssShard::restore(r)?),
        TAG_GMLSS => finish!(GmlssShard::restore(r)?),
        TAG_IS => finish!(IsShard::restore(r)?),
        other => Err(PersistError::UnsupportedShard(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 3);
        put_i64(&mut out, -42);
        put_u128(&mut out, u128::MAX / 3);
        put_f64(&mut out, -0.0);
        put_f64(&mut out, f64::INFINITY);
        put_str(&mut out, "walk β=6");
        put_f64s(&mut out, &[0.25, 0.5, 0.75]);
        let mut r = Reader::new(&out);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap(), f64::INFINITY);
        assert_eq!(r.str().unwrap(), "walk β=6");
        assert_eq!(r.f64s().unwrap(), vec![0.25, 0.5, 0.75]);
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u8(), Err(PersistError::Eof));
    }

    #[test]
    fn corrupt_length_prefix_is_rejected_not_allocated() {
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX); // absurd element count
        let mut r = Reader::new(&out);
        assert_eq!(r.f64s(), Err(PersistError::Eof));
    }

    #[test]
    fn cursor_roundtrip_is_exact() {
        let mut cursor = RunCursor::from_seed(99);
        cursor.roots.next = 1234;
        cursor.checks = 7;
        for chunk_end in [None, Some(1), Some(u64::MAX)] {
            cursor.chunk_end = chunk_end;
            let mut out = Vec::new();
            cursor.persist(&mut out);
            assert_eq!(RunCursor::restore(&mut Reader::new(&out)), Ok(cursor));
        }
    }

    #[test]
    fn plan_roundtrip_is_exact() {
        let plan = PartitionPlan::new(vec![0.1, 0.30000000000000004, 0.7]).unwrap();
        let mut out = Vec::new();
        plan.persist(&mut out);
        let restored = PartitionPlan::restore(&mut Reader::new(&out)).unwrap();
        assert_eq!(plan, restored);
        let trivial = PartitionPlan::trivial();
        let mut out = Vec::new();
        trivial.persist(&mut out);
        assert_eq!(
            PartitionPlan::restore(&mut Reader::new(&out)).unwrap(),
            trivial
        );
    }
}
