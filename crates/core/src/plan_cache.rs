//! Memoized partition plans for repeated durability queries.
//!
//! Deriving a level plan is the expensive prefix of every MLSS query: a
//! pilot run (thousands of `g` invocations) followed by a tail fit
//! ([`crate::partition::balanced_plan`]) or a greedy search
//! ([`crate::partition::greedy`]). A serving engine answering many
//! queries over the same model repeats that work verbatim — the paper's
//! DBMS integration (§6.4) runs one estimate per query, and before this
//! cache each one re-ran the pilot from scratch.
//!
//! [`PlanCache`] memoizes derived plans keyed by **(model fingerprint,
//! method, level count)**. The fingerprint must capture everything the
//! plan depends on: the model parameters *and* the query shape (threshold
//! β and horizon), since the value function is `f = min{z/β, 1}` and the
//! pilot simulates to the horizon. [`fingerprint`] builds such a key with
//! FNV-1a over the canonical byte encoding of its inputs.
//!
//! Hit/miss counters are exposed raw and as an
//! [`crate::estimator::Diagnostics`] block so the serving layer can
//! surface cache effectiveness next to estimator health indicators.

use crate::estimator::Diagnostics;
use crate::levels::PartitionPlan;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Callback invoked after every freshly built plan is memoized — the
/// durability layer journals plan entries through this. Seeded entries
/// ([`PlanCache::seed`], the replay path) are not reported. Runs outside
/// the cache lock; must not call back into the cache.
pub type PlanObserver = Arc<dyn Fn(u64, &str, usize, &CachedPlan) + Send + Sync>;

/// Cache key: model fingerprint × method name × requested level count.
pub type PlanKey = (u64, String, usize);

/// The shared hit/miss/evict counter surface of the serving-layer caches.
///
/// [`PlanCache`] and [`crate::shard_store::ShardStore`] both report
/// through this one type, so their [`Diagnostics`] blocks have the same
/// shape (`<name>_hits`, `<name>_misses`, `<name>_evictions`,
/// `<name>_entries`) and `SHOW DIAGNOSTICS` can render any cache the
/// same way. Counters are monotonic over the cache's lifetime; `clear()`
/// on the owning cache counts dropped entries as evictions.
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CacheCounters {
    /// All-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one lookup answered from the cache.
    pub fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one lookup the cache could not answer.
    pub fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` entries dropped to make room (or cleared).
    pub fn evicted(&self, n: u64) {
        self.evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups the cache could not answer.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped (capacity pressure or an explicit clear).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The counters plus a point-in-time entry count as a [`Diagnostics`]
    /// block named `name` (details are `<name>_hits`, `<name>_misses`,
    /// `<name>_evictions`, `<name>_entries`).
    pub fn diagnostics(&self, name: &'static str, entries: usize) -> Diagnostics {
        Diagnostics {
            estimator: name,
            skip_events: 0,
            details: vec![
                (format!("{name}_hits"), self.hits() as f64),
                (format!("{name}_misses"), self.misses() as f64),
                (format!("{name}_evictions"), self.evictions() as f64),
                (format!("{name}_entries"), entries as f64),
            ],
        }
    }
}

/// A cached plan plus the pilot's τ̂ extrapolation hint.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The memoized partition plan.
    pub plan: PartitionPlan,
    /// The pilot's (biased) τ̂ extrapolation, as returned by
    /// [`crate::partition::balanced_plan`]. NaN when not applicable.
    pub tau_hint: f64,
}

/// Result of a traced cache lookup ([`PlanCache::get_or_build_traced`]).
#[derive(Debug, Clone)]
pub struct PlanLookup {
    /// The (possibly freshly built) partition plan.
    pub plan: PartitionPlan,
    /// The pilot's τ̂ extrapolation hint.
    pub tau_hint: f64,
    /// Was this lookup answered from the cache (no pilot ran)?
    pub hit: bool,
}

/// A memo-table entry: either the finished plan or a marker that some
/// thread is currently running the pilot for this key.
#[derive(Debug)]
enum Entry {
    /// A builder is running; waiters block on the condvar.
    Building,
    /// The memoized plan.
    Ready(CachedPlan),
}

/// A concurrent memo table of derived partition plans.
///
/// Thread-safe and **single-flight**: concurrent lookups of the same key
/// run the builder exactly once — the first caller becomes the builder
/// (holding no lock while the pilot runs) and later callers block until
/// the plan is ready, then count as hits. This is what lets the
/// scheduler defer plan derivation to a query's first slice without N
/// identical cold submissions paying N pilots. If a builder panics, its
/// in-flight marker is removed and one waiter takes over as the builder.
#[derive(Default)]
pub struct PlanCache {
    plans: Mutex<BTreeMap<PlanKey, Entry>>,
    ready_cv: Condvar,
    counters: CacheCounters,
    observer: Mutex<Option<PlanObserver>>,
    /// Micro-probe results of the `batch_width=auto` policy, keyed by
    /// query fingerprint: the first auto query of a family pays the
    /// calibration burst, repeats read the winner here. A pure
    /// performance hint — never WAL-journaled, never part of plan
    /// identity (a lost entry only re-probes).
    widths: Mutex<BTreeMap<u64, WidthMemo>>,
}

/// A memoized `batch_width=auto` probe winner plus the cost regime it
/// was measured in, so the policy can notice when a family's workload
/// drifts away from what the probe saw and re-calibrate.
#[derive(Debug, Clone, Copy)]
pub struct WidthMemo {
    /// The calibrated winner.
    pub width: usize,
    /// Steps/root the family was running at when the probe was taken
    /// (`None` for the first probe, before any full run was observed).
    pub probed_regime: Option<f64>,
    /// Latest observed steps/root of a completed run of the family.
    pub observed_regime: Option<f64>,
}

impl WidthMemo {
    /// Has the observed regime drifted more than `factor`x from the
    /// probed one (either direction)? Unknown regimes never drift.
    pub fn drifted(&self, factor: f64) -> bool {
        match (self.probed_regime, self.observed_regime) {
            (Some(probed), Some(observed)) if probed > 0.0 && observed > 0.0 => {
                let ratio = observed / probed;
                ratio > factor || ratio < 1.0 / factor
            }
            _ => false,
        }
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("entries", &self.len())
            .finish_non_exhaustive()
    }
}

/// Removes a `Building` marker if the builder unwinds, so waiters can
/// take over instead of blocking forever.
struct BuildGuard<'a> {
    cache: &'a PlanCache,
    key: Option<PlanKey>,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            let mut plans = self.cache.lock();
            if matches!(plans.get(&key), Some(Entry::Building)) {
                plans.remove(&key);
            }
            drop(plans);
            self.cache.ready_cv.notify_all();
        }
    }
}

impl PlanCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<PlanKey, Entry>> {
        self.plans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Install the [`PlanObserver`] (replacing any previous one).
    pub fn set_observer(&self, obs: PlanObserver) {
        *self.observer.lock().unwrap_or_else(PoisonError::into_inner) = Some(obs);
    }

    fn observer(&self) -> Option<PlanObserver> {
        self.observer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Insert a ready plan directly — the WAL replay path. Counts
    /// neither a hit nor a miss and does not notify the observer (the
    /// entry is already durable). Overwrites any resident entry.
    pub fn seed(&self, fingerprint: u64, method: &str, levels: usize, cached: CachedPlan) {
        let key = (fingerprint, method.to_string(), levels);
        self.lock().insert(key, Entry::Ready(cached));
        self.ready_cv.notify_all();
    }

    /// The memoized `batch_width=auto` probe winner for this query
    /// fingerprint, if one has been calibrated.
    pub fn cached_width(&self, fingerprint: u64) -> Option<usize> {
        self.width_memo(fingerprint).map(|m| m.width)
    }

    /// The full memoized probe entry (winner + regimes) for this query
    /// fingerprint.
    pub fn width_memo(&self, fingerprint: u64) -> Option<WidthMemo> {
        self.widths
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&fingerprint)
            .copied()
    }

    /// Memoize a `batch_width=auto` probe winner for `fingerprint`, so
    /// repeat queries of the family skip the calibration burst.
    /// `regime` records the steps/root the family was observed at when
    /// the probe ran (the drift baseline); a previously observed regime
    /// is carried forward as the new baseline on re-probe.
    pub fn memo_width(&self, fingerprint: u64, width: usize, regime: Option<f64>) {
        let mut widths = self.widths.lock().unwrap_or_else(PoisonError::into_inner);
        let probed_regime = regime.or_else(|| {
            widths
                .get(&fingerprint)
                .and_then(|m| m.observed_regime.or(m.probed_regime))
        });
        widths.insert(
            fingerprint,
            WidthMemo {
                width,
                probed_regime,
                observed_regime: probed_regime,
            },
        );
    }

    /// Record the steps/root a completed run of this family actually
    /// exhibited. A no-op for families with no memoized probe (static
    /// and requested widths have nothing to re-calibrate).
    pub fn observe_regime(&self, fingerprint: u64, steps_per_root: f64) {
        if !steps_per_root.is_finite() || steps_per_root <= 0.0 {
            return;
        }
        let mut widths = self.widths.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(memo) = widths.get_mut(&fingerprint) {
            memo.observed_regime = Some(steps_per_root);
            if memo.probed_regime.is_none() {
                // First observation after a cold probe anchors the
                // baseline the drift check compares against.
                memo.probed_regime = Some(steps_per_root);
            }
        }
    }

    /// Snapshot every ready entry — the compaction walk.
    pub fn entries(&self) -> Vec<(PlanKey, CachedPlan)> {
        self.lock()
            .iter()
            .filter_map(|(k, e)| match e {
                Entry::Ready(cached) => Some((k.clone(), cached.clone())),
                Entry::Building => None,
            })
            .collect()
    }

    /// Look up the plan for `(fingerprint, method, levels)`, running
    /// `build` (pilot + partition search) on a miss and memoizing its
    /// result. Returns the plan and the pilot τ̂ hint.
    pub fn get_or_build(
        &self,
        fingerprint: u64,
        method: &str,
        levels: usize,
        build: impl FnOnce() -> (PartitionPlan, f64),
    ) -> (PartitionPlan, f64) {
        let lookup = self.get_or_build_traced(fingerprint, method, levels, build);
        (lookup.plan, lookup.tau_hint)
    }

    /// Like [`PlanCache::get_or_build`], but also reporting whether this
    /// particular lookup was answered from the cache — the per-query
    /// provenance the serving layer records in its `results` rows (the
    /// aggregate counters can't attribute a hit to a query). A lookup
    /// that blocked on another thread's in-flight build counts as a hit:
    /// no pilot ran on its behalf.
    pub fn get_or_build_traced(
        &self,
        fingerprint: u64,
        method: &str,
        levels: usize,
        build: impl FnOnce() -> (PartitionPlan, f64),
    ) -> PlanLookup {
        let key = (fingerprint, method.to_string(), levels);
        let mut plans = self.lock();
        loop {
            match plans.get(&key) {
                Some(Entry::Ready(cached)) => {
                    self.counters.hit();
                    return PlanLookup {
                        plan: cached.plan.clone(),
                        tau_hint: cached.tau_hint,
                        hit: true,
                    };
                }
                Some(Entry::Building) => {
                    plans = self
                        .ready_cv
                        .wait(plans)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                None => {
                    plans.insert(key.clone(), Entry::Building);
                    break;
                }
            }
        }
        drop(plans);
        // Run the pilot outside the lock; the guard clears the Building
        // marker (waking waiters to take over) if `build` panics.
        self.counters.miss();
        let mut guard = BuildGuard {
            cache: self,
            key: Some(key.clone()),
        };
        let (plan, tau_hint) = build();
        guard.key = None;
        let cached = CachedPlan {
            plan: plan.clone(),
            tau_hint,
        };
        if let Some(obs) = self.observer() {
            obs(key.0, &key.1, key.2, &cached);
        }
        self.lock().insert(key, Entry::Ready(cached));
        self.ready_cv.notify_all();
        PlanLookup {
            plan,
            tau_hint,
            hit: false,
        }
    }

    /// Non-blocking lookup: the memoized plan if (and only if) it is
    /// ready, counted as a hit. Returns `None` — without waiting, and
    /// without counting a miss — when the key is absent or another
    /// thread is still building it. The submit path uses this to decide
    /// between dispatching immediately (warm plan) and scheduling plan
    /// derivation as the query's first slice.
    pub fn lookup_traced(
        &self,
        fingerprint: u64,
        method: &str,
        levels: usize,
    ) -> Option<PlanLookup> {
        let key = (fingerprint, method.to_string(), levels);
        let plans = self.lock();
        match plans.get(&key) {
            Some(Entry::Ready(cached)) => {
                self.counters.hit();
                Some(PlanLookup {
                    plan: cached.plan.clone(),
                    tau_hint: cached.tau_hint,
                    hit: true,
                })
            }
            _ => None,
        }
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.counters.hits()
    }

    /// Lookups that ran the builder.
    pub fn misses(&self) -> u64 {
        self.counters.misses()
    }

    /// Memoized plans dropped by [`PlanCache::clear`].
    pub fn evictions(&self) -> u64 {
        self.counters.evictions()
    }

    /// The shared counter surface (for callers aggregating several
    /// caches uniformly).
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }

    /// Number of memoized (ready) plans.
    pub fn len(&self) -> usize {
        self.lock()
            .values()
            .filter(|e| matches!(e, Entry::Ready(_)))
            .count()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all memoized plans, counting them as evictions (hit/miss
    /// counters are retained; in-flight builds complete and re-memoize).
    pub fn clear(&self) {
        let mut plans = self.lock();
        let before = plans.len();
        plans.retain(|_, e| matches!(e, Entry::Building));
        let dropped = (before - plans.len()) as u64;
        drop(plans);
        self.counters.evicted(dropped);
    }

    /// Cache effectiveness as a [`Diagnostics`] block (`plan_cache_hits`,
    /// `plan_cache_misses`, `plan_cache_evictions`, `plan_cache_entries`
    /// — the shared [`CacheCounters`] shape).
    pub fn diagnostics(&self) -> Diagnostics {
        self.counters.diagnostics("plan_cache", self.len())
    }
}

/// FNV-1a accumulator for building model fingerprints.
///
/// Fold in the model name, every parameter (sorted, name + value bits),
/// the query threshold β, and the horizon; the result keys the
/// [`PlanCache`]. Two queries with the same fingerprint may share a plan;
/// unequal fingerprints never collide on purpose (hash collisions are
/// 2⁻⁶⁴-level accidents, acceptable for a heuristic plan choice — a wrong
/// plan affects efficiency, never correctness).
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// FNV-1a offset basis.
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    /// Fold in raw bytes.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Fold in a string (length-prefixed so `("ab","c")` ≠ `("a","bc")`).
    pub fn text(self, s: &str) -> Self {
        self.bytes(&(s.len() as u64).to_le_bytes())
            .bytes(s.as_bytes())
    }

    /// Fold in a float by bit pattern (`-0.0` normalized to `0.0`).
    pub fn f64(self, v: f64) -> Self {
        let v = if v == 0.0 { 0.0 } else { v };
        self.bytes(&v.to_bits().to_le_bytes())
    }

    /// Fold in an integer.
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The finished fingerprint.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint a named model with sorted `(param, value)` pairs plus the
/// query shape — the standard key for [`PlanCache::get_or_build`].
pub fn fingerprint<'a>(
    model: &str,
    params: impl IntoIterator<Item = (&'a str, f64)>,
    beta: f64,
    horizon: u64,
) -> u64 {
    let mut fp = Fingerprint::new().text(model);
    for (name, value) in params {
        fp = fp.text(name).f64(value);
    }
    fp.f64(beta).u64(horizon).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> (PartitionPlan, f64) {
        (PartitionPlan::new(vec![0.4, 0.7]).unwrap(), 0.01)
    }

    #[test]
    fn miss_then_hit() {
        let cache = PlanCache::new();
        let fp = fingerprint("queue", [("rate", 0.5)], 8.0, 100);
        let mut built = 0;
        let (p1, _) = cache.get_or_build(fp, "gmlss", 4, || {
            built += 1;
            plan()
        });
        let (p2, hint) = cache.get_or_build(fp, "gmlss", 4, || {
            built += 1;
            plan()
        });
        assert_eq!(built, 1, "second lookup must not rebuild");
        assert_eq!(p1, p2);
        assert_eq!(hint, 0.01);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn key_components_separate_entries() {
        let cache = PlanCache::new();
        let fp = fingerprint("queue", [("rate", 0.5)], 8.0, 100);
        let other = fingerprint("queue", [("rate", 0.6)], 8.0, 100);
        cache.get_or_build(fp, "gmlss", 4, plan);
        cache.get_or_build(fp, "smlss", 4, plan); // new method
        cache.get_or_build(fp, "gmlss", 5, plan); // new level count
        cache.get_or_build(other, "gmlss", 4, plan); // new fingerprint
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn fingerprint_sensitivity() {
        let base = fingerprint("cpp", [("a", 1.0), ("b", 2.0)], 25.0, 80);
        assert_eq!(base, fingerprint("cpp", [("a", 1.0), ("b", 2.0)], 25.0, 80));
        assert_ne!(base, fingerprint("cpp", [("a", 1.0), ("b", 2.5)], 25.0, 80));
        assert_ne!(base, fingerprint("cpp", [("a", 1.0), ("b", 2.0)], 26.0, 80));
        assert_ne!(base, fingerprint("cpp", [("a", 1.0), ("b", 2.0)], 25.0, 81));
        assert_ne!(base, fingerprint("ccp", [("a", 1.0), ("b", 2.0)], 25.0, 80));
        // Length-prefixed strings: shifting a byte between names differs.
        assert_ne!(
            fingerprint("m", [("ab", 1.0)], 1.0, 1),
            fingerprint("m", [("a", 1.0)], 1.0, 1)
        );
    }

    #[test]
    fn diagnostics_surface_counters() {
        let cache = PlanCache::new();
        cache.get_or_build(1, "gmlss", 4, plan);
        cache.get_or_build(1, "gmlss", 4, plan);
        let d = cache.diagnostics();
        assert_eq!(d.estimator, "plan_cache");
        let get = |k: &str| {
            d.details
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("plan_cache_hits"), 1.0);
        assert_eq!(get("plan_cache_misses"), 1.0);
        assert_eq!(get("plan_cache_entries"), 1.0);
    }

    #[test]
    fn concurrent_lookups_are_single_flight() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let cache = Arc::new(PlanCache::new());
        let builds = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cache = Arc::clone(&cache);
            let builds = Arc::clone(&builds);
            handles.push(std::thread::spawn(move || {
                cache.get_or_build_traced(9, "gmlss", 4, || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    // Hold the build long enough that the other threads
                    // arrive while it is in flight.
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    plan()
                })
            }));
        }
        let lookups: Vec<PlanLookup> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(builds.load(Ordering::SeqCst), 1, "exactly one pilot runs");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 3, "waiters count as hits");
        assert_eq!(lookups.iter().filter(|l| !l.hit).count(), 1);
        for l in &lookups {
            assert_eq!(l.plan, plan().0);
        }
    }

    #[test]
    fn lookup_traced_never_builds() {
        let cache = PlanCache::new();
        assert!(cache.lookup_traced(5, "gmlss", 4).is_none());
        assert_eq!(cache.misses(), 0, "peek must not count a miss");
        cache.get_or_build(5, "gmlss", 4, plan);
        let l = cache.lookup_traced(5, "gmlss", 4).unwrap();
        assert!(l.hit);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn panicking_builder_hands_over_to_waiters() {
        use std::sync::Arc;
        // Keep the injected panic out of the test output (the scheduler
        // tests install the same filter; hooks chain safely).
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if !format!("{info}").contains("injected") {
                    default(info);
                }
            }));
        });
        let cache = Arc::new(PlanCache::new());
        let doomed = Arc::clone(&cache);
        let builder = std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                doomed.get_or_build_traced(3, "gmlss", 4, || {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    panic!("injected pilot panic");
                })
            }));
            assert!(result.is_err());
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        // This lookup arrives while the doomed build is in flight; after
        // the panic it must take over and build successfully.
        let lookup = cache.get_or_build_traced(3, "gmlss", 4, plan);
        builder.join().unwrap();
        assert_eq!(lookup.plan, plan().0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clear_keeps_counters() {
        let cache = PlanCache::new();
        cache.get_or_build(1, "g", 4, plan);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.evictions(), 1, "clear counts dropped plans");
        cache.get_or_build(1, "g", 4, plan);
        assert_eq!(cache.misses(), 2, "cleared entries rebuild");
    }
}
