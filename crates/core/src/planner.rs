//! The cost-based **reuse planner**: given an incoming query's target
//! relative error and the [`ShardStore`]'s best entry for its key,
//! choose the cheapest of three candidate plans —
//!
//! * **cold** — simulate from scratch (the only option on a store miss);
//! * **warm** — resume from the stored shard and its run cursor
//!   through `run_sequential_from` or a scheduler job (sliced or
//!   fanned out), paying only the *marginal* roots between the stored RE and the
//!   target;
//! * **stored** — the stored shard already meets the target: answer
//!   with its estimate and simulate nothing.
//!
//! ## The cost model
//!
//! For every estimator here, RE ∝ 1/√n over the roots n (the variance of
//! a mean scales as 1/n), so reaching target r from a shard that
//! achieved rₛ over nₛ roots needs roughly
//!
//! ```text
//! n_required = nₛ · (rₛ / r)²        (cold cost, in roots)
//! n_marginal = n_required − nₛ       (warm cost)
//! ```
//!
//! — the pilot data behind these numbers is the stored shard itself,
//! which is the best available sample of both the cost per root and the
//! variance per root for this exact problem. Warm never costs more
//! roots than cold, so on any usable hit the planner picks warm (or
//! stored when `rₛ ≤ r`); the cost estimate is surfaced through
//! `EXPLAIN ESTIMATE` as `est_marginal_roots` so an operator can see
//! what the planner believed.
//!
//! ## Admission: what counts as a usable entry
//!
//! An entry is only costable — and only *trustworthy* — once it carries
//! real statistical weight. The planner requires at least
//! [`MIN_REUSE_ROOTS`] roots and a strictly positive variance before
//! admitting a stored or warm plan. Without the guard, a degenerate
//! checkpoint (e.g. an early scheduler pause whose few roots all hit,
//! so the SRS variance τ̂(1−τ̂)/n is exactly 0 and the self-RE is 0)
//! would satisfy every target forever — and since served queries never
//! simulate, nothing would ever improve it. Degenerate entries fall
//! back to cold, whose deposit then replaces them.
//!
//! ## Pinned seeds: the store-on/store-off guarantee
//!
//! A pinned-seed statement must be **bit-identical with or without a
//! store** (see `docs/planner.md`). Every driver — sequential, sliced,
//! fanned out — replays one trajectory per seed, and
//! [`ShardStore::lookup`] only hands a pinned query entries of its own
//! seed, so a stored entry is a prefix of the query's own cold run as
//! long as that run would not have stopped earlier. The **target
//! discipline** ensures it would not: the query's target must be at
//! least as tight as the entry's producing target
//! ([`StoredShard::target_re`]). Every quality check before the stored
//! checkpoint had RE above the producing target, hence above any
//! equal-or-tighter query target too. A *looser* query, by contrast, may
//! stop at an earlier check than the checkpoint — serving or resuming
//! stored state would change its bits, so it plans cold. And a pinned
//! query is served as **stored** only from an entry cut at a quality
//! check ([`StoredMeta::at_check`]): a scheduler pause or detach can
//! deposit a checkpoint inside a chunk, where the query's own run would
//! not stop even if the RE already met its target, so such an entry is
//! warm-started to the chunk end instead.
//!
//! Correctness therefore never depends on the choice: cold and warm
//! draw from the same distribution (warm with a pinned seed is
//! *bit-identical* to the longer cold run, see [`crate::shard_store`]),
//! and stored only serves estimates that already met the target.

use crate::shard_store::{ShardKey, ShardStore, StoredMeta, StoredShard};

/// Minimum root count a stored entry needs before the planner will
/// serve or warm-start from it. Entries below the floor (or with
/// non-positive variance) are degenerate: too little data to cost, and
/// possibly a zero self-RE that would satisfy every target. The floor
/// is deliberately well under the driver's check cadence
/// ([`crate::spec::TARGET_CHECK_EVERY`]): target-mode chunks are sized
/// in *steps* (≈ `check_every` roots' worth at the observed cost per
/// root), so a legitimate target-stopped MLSS run — whose roots cost
/// many steps each — can finish with far fewer roots than the cadence
/// and must still be admissible.
pub const MIN_REUSE_ROOTS: u64 = 64;

/// The reuse decision for one query (see the module docs for the cost
/// model) — the entry-free form, cheap to produce without touching the
/// store's counters or LRU order, which is what `EXPLAIN` previews via
/// [`peek_reuse`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReuseDecision {
    /// No usable stored shard: simulate from scratch.
    Cold,
    /// Resume from the stored shard and simulate the marginal roots.
    Warm {
        /// The relative error the stored shard achieved.
        stored_re: f64,
        /// Estimated additional roots to reach the target.
        est_marginal_roots: u64,
    },
    /// The stored shard already meets the target: serve its estimate.
    Stored,
}

impl ReuseDecision {
    /// Provenance tag (`"cold"`, `"warm"`, `"stored"`).
    pub fn tag(&self) -> &'static str {
        match self {
            ReuseDecision::Cold => "cold",
            ReuseDecision::Warm { .. } => "warm",
            ReuseDecision::Stored => "stored",
        }
    }

    /// Rendering for `EXPLAIN ESTIMATE`'s `reuse` row:
    /// `cold | warm(fingerprint=…, stored_re=…, est_marginal_roots=…) |
    /// stored`.
    pub fn describe(&self, fingerprint: u64) -> String {
        match self {
            ReuseDecision::Cold => "cold".to_string(),
            ReuseDecision::Warm {
                stored_re,
                est_marginal_roots,
            } => format!(
                "warm(fingerprint={fingerprint:#018x}, stored_re={stored_re:.6}, \
                 est_marginal_roots={est_marginal_roots})"
            ),
            ReuseDecision::Stored => "stored".to_string(),
        }
    }
}

/// The reuse plan for one query: the decision plus the stored entry the
/// executing driver needs to act on it.
#[derive(Debug, Clone)]
pub enum ReusePlan {
    /// No usable stored shard: simulate from scratch.
    Cold,
    /// Resume from this stored shard and simulate the marginal roots.
    Warm {
        /// The checkpoint to resume from.
        entry: StoredShard,
        /// The relative error the stored shard achieved.
        stored_re: f64,
        /// Estimated additional roots to reach the target.
        est_marginal_roots: u64,
    },
    /// The stored shard already meets the target: serve its estimate.
    Stored {
        /// The checkpoint whose estimate answers the query.
        entry: StoredShard,
    },
}

impl ReusePlan {
    /// The entry-free decision this plan embodies.
    pub fn decision(&self) -> ReuseDecision {
        match self {
            ReusePlan::Cold => ReuseDecision::Cold,
            ReusePlan::Warm {
                stored_re,
                est_marginal_roots,
                ..
            } => ReuseDecision::Warm {
                stored_re: *stored_re,
                est_marginal_roots: *est_marginal_roots,
            },
            ReusePlan::Stored { .. } => ReuseDecision::Stored,
        }
    }

    /// Provenance tag for `results` rows (`"cold"`, `"warm"`,
    /// `"stored"`).
    pub fn tag(&self) -> &'static str {
        self.decision().tag()
    }

    /// Rendering for `EXPLAIN ESTIMATE`'s `reuse` row (see
    /// [`ReuseDecision::describe`]).
    pub fn describe(&self, fingerprint: u64) -> String {
        self.decision().describe(fingerprint)
    }
}

/// Roots needed to reach `target_re` given `n_stored` roots achieved
/// `stored_re`, under the 1/√n law (rounded up; saturates at `u64::MAX`
/// rather than overflowing for absurd ratios).
pub fn required_roots(n_stored: u64, stored_re: f64, target_re: f64) -> u64 {
    if n_stored == 0 || !(stored_re.is_finite() && target_re > 0.0) {
        return u64::MAX;
    }
    let ratio = stored_re / target_re;
    let required = (n_stored as f64) * ratio * ratio;
    if required >= u64::MAX as f64 {
        u64::MAX
    } else {
        required.ceil() as u64
    }
}

/// The shared decision core: classify a seed-compatible entry against
/// the query's target. `pinned` applies the target-discipline rule (see
/// the module docs); callers are responsible for seed compatibility
/// ([`StoredMeta::answers`]).
// The negated comparisons are load-bearing: `!(x > 0.0)` and
// `!(a <= b)` must reject NaN operands (unknown producing target,
// uncostable variance), which the un-negated flips would silently admit.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn decide(meta: &StoredMeta, target_re: f64, pinned: bool) -> ReuseDecision {
    // Admission guard: degenerate entries (too few roots, or a zero
    // variance whose self-RE of 0 would satisfy every target) are not
    // costable and fall back to cold.
    if meta.n_roots < MIN_REUSE_ROOTS || !(meta.variance > 0.0) || !meta.stored_re.is_finite() {
        return ReuseDecision::Cold;
    }
    // Target discipline for pinned seeds: only an equal-or-tighter
    // query sees this checkpoint as a bit-exact prefix of its own cold
    // run. The negated form also rejects entries with an unknown (NaN)
    // producing target.
    if pinned && !(target_re <= meta.target_re) {
        return ReuseDecision::Cold;
    }
    // A pinned query's own run evaluates its target only at chunk ends,
    // so a checkpoint cut inside a chunk (a scheduler pause or detach)
    // is a warm-start point even when its RE already meets the target.
    if meta.stored_re <= target_re && (meta.at_check || !pinned) {
        return ReuseDecision::Stored;
    }
    let required = required_roots(meta.n_roots, meta.stored_re, target_re);
    ReuseDecision::Warm {
        stored_re: meta.stored_re,
        est_marginal_roots: required.saturating_sub(meta.n_roots),
    }
}

/// Consult the store and pick the cheapest plan for a query over `key`
/// targeting `target_re`. `pinned_seed` is the query's explicit seed, if
/// any — it restricts which entries may answer (see
/// [`ShardStore::lookup`] and the module docs). Counts a store hit or
/// miss.
pub fn plan_reuse(
    store: &ShardStore,
    key: &ShardKey,
    target_re: f64,
    pinned_seed: Option<u64>,
) -> ReusePlan {
    let Some(entry) = store.lookup(key, pinned_seed) else {
        return ReusePlan::Cold;
    };
    match decide(&entry.meta(), target_re, pinned_seed.is_some()) {
        ReuseDecision::Cold => ReusePlan::Cold,
        ReuseDecision::Stored => ReusePlan::Stored { entry },
        ReuseDecision::Warm {
            stored_re,
            est_marginal_roots,
        } => ReusePlan::Warm {
            entry,
            stored_re,
            est_marginal_roots,
        },
    }
}

/// The non-mutating twin of [`plan_reuse`]: the identical decision,
/// produced from [`ShardStore::peek_meta`] — no hit/miss counters, no
/// LRU touch, no shard clone. This is what `EXPLAIN ESTIMATE` previews
/// with, so explaining a statement never perturbs `SHOW DIAGNOSTICS`
/// or the store's eviction order.
pub fn peek_reuse(
    store: &ShardStore,
    key: &ShardKey,
    target_re: f64,
    pinned_seed: Option<u64>,
) -> ReuseDecision {
    match store.peek_meta(key) {
        Some(meta) if meta.answers(pinned_seed) => decide(&meta, target_re, pinned_seed.is_some()),
        _ => ReuseDecision::Cold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::Estimate;
    use crate::estimator::RunCursor;
    use crate::shard_store::shard_key;
    use crate::srs::SrsShard;

    fn deposit_full(
        store: &ShardStore,
        fp: u64,
        n: u64,
        tau: f64,
        re: f64,
        producer_target: f64,
        seed: Option<u64>,
    ) {
        let shard = SrsShard {
            n,
            hits: (tau * n as f64) as u64,
            steps: n,
        };
        // Variance chosen so self_relative_error() = σ/τ̂ comes out at
        // exactly `re`.
        let sigma = re * tau;
        store.deposit(
            shard_key(fp, "srs", None),
            StoredShard::new(
                &shard,
                RunCursor::new(1),
                Estimate {
                    tau,
                    variance: sigma * sigma,
                    n_roots: n,
                    steps: n,
                    hits: shard.hits,
                },
                seed,
                producer_target,
            ),
        );
    }

    fn deposit(store: &ShardStore, fp: u64, n: u64, tau: f64, re: f64) {
        deposit_full(store, fp, n, tau, re, re, None);
    }

    #[test]
    fn miss_plans_cold() {
        let store = ShardStore::new(4);
        let plan = plan_reuse(&store, &shard_key(1, "srs", None), 0.01, None);
        assert!(matches!(plan, ReusePlan::Cold));
        assert_eq!(plan.tag(), "cold");
        assert_eq!(plan.describe(1), "cold");
    }

    #[test]
    fn met_target_plans_stored() {
        let store = ShardStore::new(4);
        deposit(&store, 1, 10_000, 0.5, 0.01);
        let plan = plan_reuse(&store, &shard_key(1, "srs", None), 0.02, None);
        assert!(matches!(plan, ReusePlan::Stored { .. }));
        assert_eq!(plan.tag(), "stored");
    }

    #[test]
    fn tighter_target_plans_warm_with_quadratic_marginal() {
        let store = ShardStore::new(4);
        deposit(&store, 1, 10_000, 0.5, 0.02);
        let plan = plan_reuse(&store, &shard_key(1, "srs", None), 0.01, None);
        let ReusePlan::Warm {
            stored_re,
            est_marginal_roots,
            ..
        } = &plan
        else {
            panic!("expected warm, got {}", plan.tag());
        };
        // Halving the RE quadruples the required roots: marginal ≈ 3·n.
        assert!((stored_re - 0.02).abs() < 1e-9);
        let expected = required_roots(10_000, *stored_re, 0.01) - 10_000;
        assert_eq!(*est_marginal_roots, expected);
        assert!(
            (25_000..=35_000).contains(est_marginal_roots),
            "marginal {est_marginal_roots} should be ≈ 3× the stored 10k"
        );
        let rendered = plan.describe(0xabcd);
        assert!(rendered.starts_with("warm(fingerprint=0x"), "{rendered}");
        assert!(rendered.contains("est_marginal_roots="), "{rendered}");
    }

    #[test]
    fn uncostable_entries_fall_back_to_cold() {
        let store = ShardStore::new(4);
        deposit(&store, 1, 10_000, 0.0, 0.02); // τ̂ = 0 ⇒ RE not finite
        assert!(matches!(
            plan_reuse(&store, &shard_key(1, "srs", None), 0.01, None),
            ReusePlan::Cold
        ));
    }

    #[test]
    fn degenerate_entries_fall_back_to_cold() {
        // Fewer roots than the admission floor: an early scheduler
        // pause's deposit must not answer anything.
        let store = ShardStore::new(4);
        deposit(&store, 1, MIN_REUSE_ROOTS - 1, 0.5, 0.02);
        assert!(matches!(
            plan_reuse(&store, &shard_key(1, "srs", None), 0.05, None),
            ReusePlan::Cold
        ));

        // τ̂ = 1 ⇒ SRS variance τ̂(1−τ̂)/n = 0 ⇒ self-RE = 0, which would
        // satisfy every target forever; the zero-variance guard rejects
        // it instead.
        let store = ShardStore::new(4);
        deposit(&store, 1, 10_000, 1.0, 0.0);
        assert!(matches!(
            plan_reuse(&store, &shard_key(1, "srs", None), 0.05, None),
            ReusePlan::Cold
        ));
    }

    #[test]
    fn changed_fingerprint_never_hits() {
        let store = ShardStore::new(4);
        deposit(&store, 1, 10_000, 0.5, 0.02);
        assert!(matches!(
            plan_reuse(&store, &shard_key(2, "srs", None), 0.01, None),
            ReusePlan::Cold
        ));
    }

    #[test]
    fn pinned_repeat_at_same_target_serves_stored() {
        let store = ShardStore::new(4);
        deposit_full(&store, 1, 10_000, 0.5, 0.009, 0.01, Some(7));
        let key = shard_key(1, "srs", None);
        assert!(matches!(
            plan_reuse(&store, &key, 0.01, Some(7)),
            ReusePlan::Stored { .. }
        ));
        // Tighter-but-met ("lucky") pinned repeat is also a bit-exact
        // prefix: the first check meeting 0.0095 is the first check
        // meeting 0.01, i.e. exactly the stored checkpoint.
        assert!(matches!(
            plan_reuse(&store, &key, 0.0095, Some(7)),
            ReusePlan::Stored { .. }
        ));
    }

    #[test]
    fn pinned_looser_target_falls_back_to_cold() {
        // Stored entry produced at target 1%; a same-seed query at 2%
        // would — storeless — stop at an *earlier* quality check, so
        // serving the stored estimate would change its bits: cold.
        let store = ShardStore::new(4);
        deposit_full(&store, 1, 10_000, 0.5, 0.009, 0.01, Some(7));
        let key = shard_key(1, "srs", None);
        assert!(matches!(
            plan_reuse(&store, &key, 0.02, Some(7)),
            ReusePlan::Cold
        ));
        // The same looser query *unpinned* is pure statistical reuse
        // and still serves from the store.
        assert!(matches!(
            plan_reuse(&store, &key, 0.02, None),
            ReusePlan::Stored { .. }
        ));
    }

    #[test]
    fn pinned_mid_chunk_checkpoint_warm_starts_even_when_met() {
        // A pause deposited inside a chunk: its RE meets the target, but
        // the pinned query's own run would go on to the chunk end.
        let store = ShardStore::new(4);
        let shard = SrsShard {
            n: 10_000,
            hits: 5_000,
            steps: 10_000,
        };
        let mut cursor = RunCursor::new(1);
        cursor.chunk_end = Some(12_000);
        let sigma = 0.009 * 0.5;
        let estimate = Estimate {
            tau: 0.5,
            variance: sigma * sigma,
            n_roots: 10_000,
            steps: 10_000,
            hits: 5_000,
        };
        let key = shard_key(1, "srs", None);
        store.deposit(
            key.clone(),
            StoredShard::new(&shard, cursor, estimate, Some(7), 0.01),
        );
        let plan = plan_reuse(&store, &key, 0.01, Some(7));
        assert!(
            matches!(
                plan,
                ReusePlan::Warm {
                    est_marginal_roots: 0,
                    ..
                }
            ),
            "pinned: {}",
            plan.tag()
        );
        assert_eq!(peek_reuse(&store, &key, 0.01, Some(7)), plan.decision());
        // Unpinned reuse is statistical and serves the met estimate.
        assert!(matches!(
            plan_reuse(&store, &key, 0.01, None),
            ReusePlan::Stored { .. }
        ));
    }

    #[test]
    fn peek_matches_plan_without_store_traffic() {
        let store = ShardStore::new(4);
        deposit(&store, 1, 10_000, 0.5, 0.02);
        let key = shard_key(1, "srs", None);
        let peeked = peek_reuse(&store, &key, 0.01, None);
        assert_eq!((store.hits(), store.misses()), (0, 0), "peek is free");
        let planned = plan_reuse(&store, &key, 0.01, None);
        assert_eq!(peeked, planned.decision());
        assert_eq!(peeked.describe(9), planned.describe(9));
        assert_eq!((store.hits(), store.misses()), (1, 0), "plan counts");
        assert_eq!(
            peek_reuse(&store, &shard_key(2, "srs", None), 0.01, None),
            ReuseDecision::Cold
        );
        assert_eq!((store.hits(), store.misses()), (1, 0));
    }

    #[test]
    fn required_roots_edge_cases() {
        assert_eq!(required_roots(0, 0.02, 0.01), u64::MAX);
        assert_eq!(required_roots(100, f64::INFINITY, 0.01), u64::MAX);
        assert_eq!(required_roots(100, 0.02, 0.02), 100);
        assert_eq!(required_roots(100, 0.02, 0.01), 400);
    }
}
