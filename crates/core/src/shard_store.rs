//! Cross-query **shard store**: completed (and paused) estimator shards,
//! kept so later queries over the same problem can reuse the simulation
//! work instead of re-running it from scratch.
//!
//! PR 2 made every estimator's [`Ledger`] shard bit-exactly mergeable,
//! and the plan cache gave every query a model **fingerprint** covering
//! everything its samples depend on (model parameters, threshold β,
//! horizon). Together those make a finished shard a *reusable
//! sub-result*: a query over the same fingerprint, method, and level
//! plan can
//!
//! * **serve** straight from the store when the stored shard already
//!   meets its relative-error target (zero simulation), or
//! * **warm-start** from the stored shard plus its run cursor through
//!   the `run_sequential_from` / scheduler resume machinery, paying only the marginal roots between the stored RE and
//!   the target.
//!
//! [`crate::planner`] makes that choice with a cost model; this module is
//! the storage: a capacity-capped LRU map from [`ShardKey`] to
//! [`StoredShard`] (type-erased shard + run cursor + achieved estimate),
//! with the hit/miss/evict counter surface shared with the plan cache
//! ([`CacheCounters`]).
//!
//! ## Keying and seed discipline
//!
//! The key is `(fingerprint, method, plan digest)` — two queries agree
//! on all three exactly when their samples are drawn from the same
//! distribution *and* the shard statistics have the same shape (an
//! s-MLSS shard over a different level plan is a different type of
//! result even for the same model). Reuse across different seeds is
//! statistically sound (independent samples merge into a valid pooled
//! estimate), so unpinned queries may reuse any entry. A query that
//! **pins** a seed is asking for reproducibility, so
//! [`ShardStore::lookup`] only answers it with an entry produced from
//! the same pinned seed. Every driver replays one trajectory per seed
//! (root streams and quality checks are index-addressed by the run key
//! the cursor carries), so any such entry — sequential, sliced or
//! fanned out, finished or paused — is a prefix of the pinned query's own
//! run. [`crate::planner`] layers two further pinned rules on top: the
//! consuming query's target must be at least as tight as the entry's
//! producing target ([`StoredShard::target_re`]), and only an entry cut
//! at a quality check ([`StoredMeta::at_check`]) may be served as is.

use crate::estimate::Estimate;
use crate::estimator::{Diagnostics, Ledger, RunCursor};
use crate::levels::PartitionPlan;
use crate::plan_cache::{CacheCounters, Fingerprint};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Callback invoked with every *accepted* deposit — the durability layer
/// journals deposits through this. Discarded deposits (shorter than the
/// resident entry, capacity 0) are not reported. The callback runs with
/// the store lock held and must not call back into the store.
pub type DepositObserver = Arc<dyn Fn(&ShardKey, &StoredShard) + Send + Sync>;

/// Identity of a reusable shard: model fingerprint × concrete estimator
/// name × level-plan digest.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardKey {
    /// The plan-cache model fingerprint (model name, sorted parameters,
    /// β, horizon — everything the sample distribution depends on).
    pub fingerprint: u64,
    /// Concrete estimator name (`"srs"`, `"smlss"`, `"gmlss"`, `"is"`) —
    /// the *resolved* method, so an `auto` query lands on the same key
    /// as the explicit spelling it resolved to.
    pub method: String,
    /// FNV-1a digest of the level plan's interior boundary bit patterns
    /// (0 for planless methods): shards over different partitions never
    /// alias.
    pub plan_digest: u64,
}

/// Build a [`ShardKey`] for a resolved method over a fingerprinted model.
pub fn shard_key(fingerprint: u64, method: &str, plan: Option<&PartitionPlan>) -> ShardKey {
    let plan_digest = match plan {
        None => 0,
        Some(p) => {
            let mut fp = Fingerprint::new();
            for &b in p.interior() {
                fp = fp.f64(b);
            }
            fp.finish()
        }
    };
    ShardKey {
        fingerprint,
        method: method.to_string(),
        plan_digest,
    }
}

/// Object-safe view of a stored [`Ledger`] shard: clonable and
/// downcastable back to its concrete type by a reader that knows it
/// (the method name in the key pins that type).
pub trait ShardSnapshot: Send {
    /// Deep-copy the snapshot (shards are plain data).
    fn clone_snapshot(&self) -> Box<dyn ShardSnapshot>;
    /// Downcasting escape hatch.
    fn as_any(&self) -> &dyn Any;
    /// Root paths accumulated. (Named to avoid shadowing
    /// [`Ledger::n_roots`] on concrete shards via the blanket impl.)
    fn snapshot_n_roots(&self) -> u64;
    /// `g` invocations accumulated.
    fn snapshot_steps(&self) -> u64;
}

impl<T> ShardSnapshot for T
where
    T: Ledger + Clone + 'static,
{
    fn clone_snapshot(&self) -> Box<dyn ShardSnapshot> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn snapshot_n_roots(&self) -> u64 {
        Ledger::n_roots(self)
    }

    fn snapshot_steps(&self) -> u64 {
        Ledger::steps(self)
    }
}

/// One reusable checkpoint: the merged shard, the run cursor that
/// continues it, and the estimate it achieved.
pub struct StoredShard {
    shard: Box<dyn ShardSnapshot>,
    /// Where the producing run stopped, so a warm start continues the
    /// exact trajectory a longer cold run of the same key takes.
    pub cursor: RunCursor,
    /// The estimate the shard achieved when deposited (its
    /// [`Estimate::self_relative_error`] is the stored RE the planner
    /// costs against).
    pub estimate: Estimate,
    /// The pinned seed the producing query ran under (`None` when the
    /// seed came from the session stream).
    pub seed: Option<u64>,
    /// The RE target the producing run stopped against (`NaN` when
    /// unknown — e.g. a budget-mode scheduler snapshot). Pinned-seed
    /// reuse requires the consuming query's target to be at least as
    /// tight as this (see [`crate::planner`]): a storeless cold run at a
    /// *looser* target stops at an earlier quality check than this
    /// checkpoint, so serving it would change pinned bits.
    pub target_re: f64,
}

impl Clone for StoredShard {
    fn clone(&self) -> Self {
        Self {
            shard: self.shard.clone_snapshot(),
            cursor: self.cursor,
            estimate: self.estimate,
            seed: self.seed,
            target_re: self.target_re,
        }
    }
}

impl std::fmt::Debug for StoredShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoredShard")
            .field("estimate", &self.estimate)
            .field("seed", &self.seed)
            .field("target_re", &self.target_re)
            .field("cursor", &self.cursor)
            .finish_non_exhaustive()
    }
}

/// Cheap, copyable summary of a [`StoredShard`] — everything the reuse
/// planner's decision depends on, none of the shard payload. Obtainable
/// without counter traffic or an LRU touch via
/// [`ShardStore::peek_meta`], which is what makes a non-mutating
/// `EXPLAIN` preview possible.
#[derive(Debug, Clone, Copy)]
pub struct StoredMeta {
    /// [`Estimate::self_relative_error`] of the stored estimate.
    pub stored_re: f64,
    /// Variance of the stored estimate.
    pub variance: f64,
    /// Root paths behind the stored estimate.
    pub n_roots: u64,
    /// The producing query's pinned seed, if any.
    pub seed: Option<u64>,
    /// The producing run's RE target (`NaN` when unknown).
    pub target_re: f64,
    /// The checkpoint was cut where its run last evaluated the stopping
    /// rule (no chunk open: a finished run, or a pause at a failed
    /// check). A mid-chunk checkpoint is only a warm-start point for a
    /// pinned query, whose own run would go on to the chunk end.
    pub at_check: bool,
}

impl StoredMeta {
    /// May this entry answer a query with the given pinned seed? Pinned
    /// lookups only match entries produced under the same seed; unpinned
    /// lookups match anything (see the module docs).
    pub fn answers(&self, pinned_seed: Option<u64>) -> bool {
        pinned_seed.is_none() || self.seed == pinned_seed
    }
}

impl StoredShard {
    /// Package a shard checkpoint for deposit. `target_re` is the RE
    /// target the producing run stopped against (`NaN` when unknown).
    pub fn new<S>(
        shard: &S,
        cursor: RunCursor,
        estimate: Estimate,
        seed: Option<u64>,
        target_re: f64,
    ) -> Self
    where
        S: Ledger + Clone + 'static,
    {
        Self {
            shard: Box::new(shard.clone()),
            cursor,
            estimate,
            seed,
            target_re,
        }
    }

    /// The planner-facing summary of this checkpoint.
    pub fn meta(&self) -> StoredMeta {
        StoredMeta {
            stored_re: self.achieved_re(),
            variance: self.estimate.variance,
            n_roots: self.estimate.n_roots,
            seed: self.seed,
            target_re: self.target_re,
            at_check: self.cursor.chunk_end.is_none(),
        }
    }

    /// The stored shard as its concrete type (`None` on a type mismatch,
    /// which a correct [`ShardKey`] makes unreachable).
    pub fn shard_as<S: 'static>(&self) -> Option<&S> {
        self.shard.as_any().downcast_ref::<S>()
    }

    /// The relative error the stored shard achieved.
    pub fn achieved_re(&self) -> f64 {
        self.estimate.self_relative_error()
    }

    /// Root paths in the stored shard.
    pub fn n_roots(&self) -> u64 {
        self.shard.snapshot_n_roots()
    }

    /// `g` invocations in the stored shard.
    pub fn steps(&self) -> u64 {
        self.shard.snapshot_steps()
    }
}

struct Slot {
    entry: StoredShard,
    last_used: u64,
}

struct Inner {
    map: BTreeMap<ShardKey, Slot>,
    /// Monotonic LRU clock: bumped on every lookup hit and deposit.
    tick: u64,
}

/// A capacity-capped, LRU-evicting map from [`ShardKey`] to the best
/// [`StoredShard`] seen for that key. Thread-safe; counters follow the
/// [`CacheCounters`] shape shared with the plan cache.
pub struct ShardStore {
    inner: Mutex<Inner>,
    capacity: usize,
    counters: CacheCounters,
    observer: Mutex<Option<DepositObserver>>,
}

impl std::fmt::Debug for ShardStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardStore")
            .field("capacity", &self.capacity)
            .field("entries", &self.len())
            .finish_non_exhaustive()
    }
}

impl ShardStore {
    /// An empty store holding at most `capacity` entries (0 stores
    /// nothing — every deposit is dropped).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: BTreeMap::new(),
                tick: 0,
            }),
            capacity,
            counters: CacheCounters::new(),
            observer: Mutex::new(None),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Install the [`DepositObserver`] (replacing any previous one).
    pub fn set_observer(&self, obs: DepositObserver) {
        *self.observer.lock().unwrap_or_else(PoisonError::into_inner) = Some(obs);
    }

    fn observer(&self) -> Option<DepositObserver> {
        self.observer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Snapshot every resident entry (deep-copied under the lock) —
    /// the compaction walk.
    pub fn entries(&self) -> Vec<(ShardKey, StoredShard)> {
        self.lock()
            .map
            .iter()
            .map(|(k, s)| (k.clone(), s.entry.clone()))
            .collect()
    }

    /// Deposit a checkpoint, keeping per key whichever entry has the
    /// most accumulated steps (a longer shard answers strictly more
    /// targets). Evicts the least-recently-used key when over capacity.
    /// Returns whether the incoming entry was stored — `false` when the
    /// store is disabled (capacity 0) or the entry was discarded for
    /// holding fewer steps than the resident one.
    pub fn deposit(&self, key: ShardKey, entry: StoredShard) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let observer = self.observer();
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(slot) = inner.map.get_mut(&key) {
            // Replace only with at least as much work; on a tie prefer
            // the newer entry.
            if entry.steps() < slot.entry.steps() {
                return false;
            }
            if let Some(obs) = &observer {
                obs(&key, &entry);
            }
            slot.entry = entry;
            slot.last_used = tick;
            return true;
        }
        if let Some(obs) = &observer {
            obs(&key, &entry);
        }
        inner.map.insert(
            key,
            Slot {
                entry,
                last_used: tick,
            },
        );
        let mut evicted = 0u64;
        while inner.map.len() > self.capacity {
            let lru = inner
                .map
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty map over capacity");
            inner.map.remove(&lru);
            evicted += 1;
        }
        drop(inner);
        self.counters.evicted(evicted);
        true
    }

    /// Look up a reusable shard for `key`. `pinned_seed` is the query's
    /// explicit seed, if any: pinned lookups only match entries
    /// deposited under the same seed (see the module docs);
    /// unpinned lookups match any entry. Counts a hit or a miss.
    pub fn lookup(&self, key: &ShardKey, pinned_seed: Option<u64>) -> Option<StoredShard> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let found = match inner.map.get_mut(key) {
            Some(slot) => {
                if slot.entry.meta().answers(pinned_seed) {
                    slot.last_used = tick;
                    Some(slot.entry.clone())
                } else {
                    None
                }
            }
            None => None,
        };
        drop(inner);
        match &found {
            Some(_) => self.counters.hit(),
            None => self.counters.miss(),
        }
        found
    }

    /// Does the store hold an entry for `key` (no counter traffic, no
    /// LRU touch)?
    pub fn contains(&self, key: &ShardKey) -> bool {
        self.lock().map.contains_key(key)
    }

    /// Non-mutating preview of the entry stored for `key`: no hit/miss
    /// counters, no LRU touch, no shard clone. This is the read the
    /// `EXPLAIN` path uses ([`crate::planner::peek_reuse`]), so
    /// previewing a statement never perturbs `SHOW DIAGNOSTICS` or the
    /// eviction order.
    pub fn peek_meta(&self, key: &ShardKey) -> Option<StoredMeta> {
        self.lock().map.get(key).map(|slot| slot.entry.meta())
    }

    /// Lookups answered from the store.
    pub fn hits(&self) -> u64 {
        self.counters.hits()
    }

    /// Lookups the store could not answer.
    pub fn misses(&self) -> u64 {
        self.counters.misses()
    }

    /// Entries dropped under capacity pressure or by a clear.
    pub fn evictions(&self) -> u64 {
        self.counters.evictions()
    }

    /// The shared counter surface.
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }

    /// Stored entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drop every entry, counting them as evictions.
    pub fn clear(&self) {
        let mut inner = self.lock();
        let dropped = inner.map.len() as u64;
        inner.map.clear();
        drop(inner);
        self.counters.evicted(dropped);
    }

    /// Store effectiveness as a [`Diagnostics`] block
    /// (`shard_store_hits`, `shard_store_misses`,
    /// `shard_store_evictions`, `shard_store_entries` — the shared
    /// [`CacheCounters`] shape).
    pub fn diagnostics(&self) -> Diagnostics {
        self.counters.diagnostics("shard_store", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::srs::SrsShard;

    fn entry(steps: u64, seed: Option<u64>) -> StoredShard {
        let shard = SrsShard {
            n: steps, // SRS: one step per root in this toy shape
            hits: steps / 2,
            steps,
        };
        StoredShard::new(
            &shard,
            RunCursor::new(9),
            Estimate {
                tau: 0.5,
                variance: 0.25 / steps.max(1) as f64,
                n_roots: steps,
                steps,
                hits: steps / 2,
            },
            seed,
            0.1,
        )
    }

    fn key(fp: u64) -> ShardKey {
        shard_key(fp, "srs", None)
    }

    #[test]
    fn deposit_then_lookup_roundtrips() {
        let store = ShardStore::new(4);
        assert!(store.deposit(key(1), entry(100, None)));
        let got = store.lookup(&key(1), None).expect("stored");
        assert_eq!(got.steps(), 100);
        assert_eq!(got.shard_as::<SrsShard>().unwrap().steps, 100);
        assert_eq!(store.hits(), 1);
        assert!(store.lookup(&key(2), None).is_none());
        assert_eq!(store.misses(), 1);
    }

    #[test]
    fn plan_digest_separates_keys() {
        let a = shard_key(
            1,
            "gmlss",
            Some(&PartitionPlan::new(vec![0.4, 0.7]).unwrap()),
        );
        let b = shard_key(
            1,
            "gmlss",
            Some(&PartitionPlan::new(vec![0.4, 0.8]).unwrap()),
        );
        let c = shard_key(
            1,
            "smlss",
            Some(&PartitionPlan::new(vec![0.4, 0.7]).unwrap()),
        );
        assert_ne!(a, b, "different boundaries differ");
        assert_ne!(a, c, "different methods differ");
        assert_eq!(
            a,
            shard_key(
                1,
                "gmlss",
                Some(&PartitionPlan::new(vec![0.4, 0.7]).unwrap())
            )
        );
        assert_eq!(shard_key(1, "srs", None).plan_digest, 0);
    }

    #[test]
    fn replace_keeps_the_longer_shard() {
        let store = ShardStore::new(4);
        assert!(store.deposit(key(1), entry(200, None)));
        // Shorter: discarded, and the discard is reported.
        assert!(!store.deposit(key(1), entry(100, None)));
        assert_eq!(store.lookup(&key(1), None).unwrap().steps(), 200);
        // Longer: replaces.
        assert!(store.deposit(key(1), entry(300, None)));
        assert_eq!(store.lookup(&key(1), None).unwrap().steps(), 300);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn peek_meta_is_non_mutating() {
        let store = ShardStore::new(2);
        store.deposit(key(1), entry(100, Some(7)));
        store.deposit(key(2), entry(100, None));
        let meta = store.peek_meta(&key(1)).expect("stored");
        assert_eq!(meta.n_roots, 100);
        assert_eq!(meta.seed, Some(7));
        assert!(meta.answers(Some(7)) && meta.answers(None));
        assert!(!meta.answers(Some(8)));
        assert!(store.peek_meta(&key(9)).is_none());
        // No counter traffic from any of the peeks…
        assert_eq!((store.hits(), store.misses()), (0, 0));
        // …and no LRU touch: key 1's peek above must not have saved it
        // from eviction when key 3 arrives (key 2 was deposited later).
        store.deposit(key(3), entry(100, None));
        assert!(!store.contains(&key(1)), "peek must not refresh LRU");
        assert!(store.contains(&key(2)));
    }

    #[test]
    fn lru_eviction_under_capacity_pressure() {
        let store = ShardStore::new(2);
        store.deposit(key(1), entry(10, None));
        store.deposit(key(2), entry(10, None));
        // Touch key 1 so key 2 becomes the LRU.
        store.lookup(&key(1), None);
        store.deposit(key(3), entry(10, None));
        assert_eq!(store.len(), 2);
        assert_eq!(store.evictions(), 1);
        assert!(store.contains(&key(1)), "recently used survives");
        assert!(!store.contains(&key(2)), "LRU evicted");
        assert!(store.contains(&key(3)));
    }

    #[test]
    fn pinned_lookups_require_the_same_seed() {
        let store = ShardStore::new(4);
        store.deposit(key(1), entry(100, Some(7)));
        store.deposit(key(2), entry(100, None)); // unpinned producer
        assert!(store.lookup(&key(1), Some(7)).is_some());
        assert!(store.lookup(&key(1), Some(8)).is_none(), "other seed");
        assert!(store.lookup(&key(2), Some(7)).is_none(), "unpinned entry");
        // Both answer unpinned queries.
        for fp in 1..=2 {
            assert!(store.lookup(&key(fp), None).is_some());
        }
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let store = ShardStore::new(0);
        assert!(!store.deposit(key(1), entry(10, None)));
        assert!(store.is_empty());
    }

    #[test]
    fn diagnostics_use_the_shared_counter_shape() {
        let store = ShardStore::new(2);
        store.deposit(key(1), entry(10, None));
        store.lookup(&key(1), None);
        store.lookup(&key(9), None);
        store.clear();
        let d = store.diagnostics();
        assert_eq!(d.estimator, "shard_store");
        let get = |k: &str| {
            d.details
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("shard_store_hits"), 1.0);
        assert_eq!(get("shard_store_misses"), 1.0);
        assert_eq!(get("shard_store_evictions"), 1.0);
        assert_eq!(get("shard_store_entries"), 0.0);
    }
}
