//! Bootstrap variance estimation for g-MLSS (§4.2).
//!
//! The g-MLSS estimator has no closed-form variance in general. Following
//! the paper, we resample root paths with replacement, recompute the
//! estimator (Eq. 9-10) on each bootstrap sample, and take the empirical
//! variance of the bootstrap estimates. The [`RootLedger`] stores the
//! per-root counters that make each replay a pure fold — no re-simulation.

use crate::gmlss::estimator;
use crate::rng::SimRng;
use crate::simd::chacha::fill_below;
use std::collections::HashMap;

/// Per-root counter storage: a flat arena with one fixed-size record per
/// root path, holding level landings, offspring crossings, skip counts,
/// and target hits.
#[derive(Debug, Clone)]
pub struct RootLedger {
    m: usize,
    stride: usize,
    data: Vec<u32>,
    /// Scratch record for the root currently being simulated.
    cur: Vec<u32>,
    n_roots: usize,
}

/// Aggregate counters over a set of roots.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregates {
    /// `|H_i|` per level (index = level).
    pub landings: Vec<u64>,
    /// Offspring boundary crossings per level.
    pub crossings: Vec<u64>,
    /// `n_skip_i` per level.
    pub skips: Vec<u64>,
    /// Target hits.
    pub hits: u64,
}

impl RootLedger {
    /// New ledger for plans with `m` levels.
    pub fn new(m: usize) -> Self {
        assert!(m >= 1);
        let stride = 3 * m + 1;
        Self {
            m,
            stride,
            data: Vec::new(),
            cur: vec![0; stride],
            n_roots: 0,
        }
    }

    /// Number of levels `m` this ledger was built for.
    pub fn num_levels(&self) -> usize {
        self.m
    }

    /// Number of committed roots.
    pub fn n_roots(&self) -> usize {
        self.n_roots
    }

    /// Record a landing in level `lvl` for the in-flight root.
    pub fn bump_landing(&mut self, lvl: usize) {
        debug_assert!(lvl < self.m);
        self.cur[lvl] += 1;
    }

    /// Record offspring crossings for a split at level `lvl`.
    pub fn add_crossings(&mut self, lvl: usize, n: u32) {
        debug_assert!(lvl < self.m);
        self.cur[self.m + lvl] += n;
    }

    /// Record a level skip over level `lvl`.
    pub fn bump_skip(&mut self, lvl: usize) {
        debug_assert!(lvl < self.m);
        self.cur[2 * self.m + lvl] += 1;
    }

    /// Finalize the in-flight root with its target-hit count.
    pub fn commit_root(&mut self, hits: u32) {
        self.cur[3 * self.m] = hits;
        self.data.extend_from_slice(&self.cur);
        self.cur.fill(0);
        self.n_roots += 1;
    }

    /// Append a complete pre-built root record (the layout of this
    /// ledger: landings `0..m`, crossings `m..2m`, skips `2m..3m`, hits
    /// at `3m`). Used by the batched frontier, which buffers each root's
    /// counters externally and commits finished roots in order.
    pub fn push_record(&mut self, rec: &[u32]) {
        assert_eq!(rec.len(), self.stride, "record length must be 3m + 1");
        self.data.extend_from_slice(rec);
        self.n_roots += 1;
    }

    /// Aggregate over all committed roots.
    pub fn aggregate(&self) -> Aggregates {
        let mut agg = Aggregates::zeroed(self.m);
        for rec in self.data.chunks_exact(self.stride) {
            agg.add_record(rec, 1);
        }
        agg
    }

    /// Target hits recorded for root `i`.
    pub fn root_hits(&self, i: usize) -> u32 {
        self.data[i * self.stride + 3 * self.m]
    }

    /// Absorb another ledger's committed roots (parallel reduction).
    pub fn merge(&mut self, other: &RootLedger) {
        assert_eq!(self.m, other.m, "ledger level counts must match");
        self.data.extend_from_slice(&other.data);
        self.n_roots += other.n_roots;
    }
}

impl Aggregates {
    fn zeroed(m: usize) -> Self {
        Self {
            landings: vec![0; m],
            crossings: vec![0; m],
            skips: vec![0; m],
            hits: 0,
        }
    }

    /// Add `times` copies of one ledger record (layout of [`RootLedger`]).
    fn add_record(&mut self, rec: &[u32], times: u64) {
        let m = self.landings.len();
        for l in 0..m {
            self.landings[l] += rec[l] as u64 * times;
            self.crossings[l] += rec[m + l] as u64 * times;
            self.skips[l] += rec[2 * m + l] as u64 * times;
        }
        self.hits += rec[3 * m] as u64 * times;
    }

    /// The g-MLSS estimate τ̂ (Eq. 9-10) these counters give over a pool
    /// of `n_roots` roots (hit fraction for single-level plans).
    pub fn tau(&self, n_roots: u64, ratio: u32) -> f64 {
        let (l, c, s) = (&self.landings, &self.crossings, &self.skips);
        match l.len() {
            _ if n_roots == 0 => 0.0,
            1 => self.hits as f64 / n_roots as f64,
            m => estimator(m, ratio, n_roots, l, c, s).0,
        }
    }
}

/// The resampling kernel: `resamples` with-replacement redraws of the
/// root pool, each reduced to its g-MLSS estimate. [`fill_below`] draws
/// exactly what one `random_range(0..n)` per slot would; each redraw then
/// counts its picks per distinct record (a coarse model's roots repeat a
/// few dozen patterns) and folds `count × record` — the same integer
/// aggregates as a root-by-root fold, so the estimates are bit-identical.
fn resample_estimates(
    ledger: &RootLedger,
    resamples: usize,
    ratio: u32,
    rng: &mut SimRng,
) -> Vec<f64> {
    let n = ledger.n_roots();
    let mut class_ids: HashMap<&[u32], u32> = HashMap::new();
    let mut classes = Vec::new();
    let class_of: Vec<u32> = ledger
        .data
        .chunks_exact(ledger.stride)
        .map(|rec| {
            *class_ids.entry(rec).or_insert_with(|| {
                classes.push(rec);
                classes.len() as u32 - 1
            })
        })
        .collect();
    let mut picks = vec![0u64; n];
    let mut counts = vec![0u64; classes.len()];
    (0..resamples)
        .map(|_| {
            fill_below(rng, n as u64, &mut picks);
            counts.fill(0);
            for &i in &picks {
                counts[class_of[i as usize] as usize] += 1;
            }
            let mut agg = Aggregates::zeroed(ledger.m);
            for (rec, &count) in classes.iter().zip(&counts) {
                agg.add_record(rec, count);
            }
            agg.tau(n as u64, ratio)
        })
        .collect()
}

/// One bootstrap evaluation: `resamples` independent with-replacement
/// redraws of the root pool, returning the empirical variance of the
/// bootstrap estimates `Σ (τ̂_b − τ̄)² / N` (§4.2).
pub fn bootstrap_variance(
    ledger: &RootLedger,
    resamples: usize,
    ratio: u32,
    rng: &mut SimRng,
) -> f64 {
    if ledger.n_roots() < 2 {
        return f64::INFINITY;
    }
    let estimates = resample_estimates(ledger, resamples, ratio, rng);
    let mean = estimates.iter().sum::<f64>() / resamples as f64;
    estimates
        .iter()
        .map(|e| (e - mean) * (e - mean))
        .sum::<f64>()
        / resamples as f64
}

/// Bootstrap percentile confidence interval (an extra the paper's users
/// would want alongside the variance).
pub fn bootstrap_percentile_ci(
    ledger: &RootLedger,
    resamples: usize,
    ratio: u32,
    confidence: f64,
    rng: &mut SimRng,
) -> (f64, f64) {
    assert!(confidence > 0.0 && confidence < 1.0);
    if ledger.n_roots() < 2 {
        return (0.0, 1.0);
    }
    let mut estimates = resample_estimates(ledger, resamples, ratio, rng);
    estimates.sort_by(|a, b| a.partial_cmp(b).expect("finite estimates"));
    let alpha = 1.0 - confidence;
    let lo_idx = ((alpha / 2.0) * resamples as f64).floor() as usize;
    let hi_idx = (((1.0 - alpha / 2.0) * resamples as f64).ceil() as usize)
        .min(resamples)
        .saturating_sub(1);
    (estimates[lo_idx], estimates[hi_idx])
}

// Durability codec. Checkpoints are taken at slice boundaries, where
// every simulated root has been committed and `cur` is all zeros, but the
// scratch record is serialized anyway so a restored ledger is
// field-for-field identical to the original in all cases.
impl crate::persist::Persist for RootLedger {
    fn persist(&self, out: &mut Vec<u8>) {
        crate::persist::put_u64(out, self.m as u64);
        crate::persist::put_u64(out, self.n_roots as u64);
        crate::persist::put_u32s(out, &self.data);
        crate::persist::put_u32s(out, &self.cur);
    }

    fn restore(r: &mut crate::persist::Reader<'_>) -> Result<Self, crate::persist::PersistError> {
        use crate::persist::PersistError;
        // Sizes are untrusted: an overflow is a malformed record, never a
        // panic or a wrapped geometry.
        let m = r.u64()?;
        let n_roots = r.u64()?;
        let data = r.u32s()?;
        let cur = r.u32s()?;
        let stride = match m.checked_mul(3).and_then(|x| x.checked_add(1)) {
            Some(stride) if m >= 1 => stride,
            _ => return Err(PersistError::Malformed("root ledger levels")),
        };
        if cur.len() as u64 != stride || n_roots.checked_mul(stride) != Some(data.len() as u64) {
            return Err(PersistError::Malformed("root ledger geometry"));
        }
        // `data.len()` bounds both sizes, so they fit in `usize`.
        let (m, stride, n_roots) = (m as usize, stride as usize, n_roots as usize);
        Ok(Self {
            m,
            stride,
            data,
            cur,
            n_roots,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    /// Ledger where each root either hits (all counters on a straight-line
    /// two-level pass) or misses entirely.
    fn two_level_ledger(hits: usize, misses: usize) -> RootLedger {
        let mut ledger = RootLedger::new(2);
        for _ in 0..hits {
            ledger.bump_landing(1);
            // All 3 offsprings cross the target boundary.
            ledger.add_crossings(1, 3);
            ledger.commit_root(3);
        }
        for _ in 0..misses {
            ledger.commit_root(0);
        }
        ledger
    }

    #[test]
    fn aggregate_sums_roots() {
        let ledger = two_level_ledger(4, 6);
        let agg = ledger.aggregate();
        assert_eq!(agg.landings, vec![0, 4]);
        assert_eq!(agg.crossings, vec![0, 12]);
        assert_eq!(agg.skips, vec![0, 0]);
        assert_eq!(agg.hits, 12);
        assert_eq!(ledger.n_roots(), 10);
    }

    #[test]
    fn full_pool_tau_matches_closed_form() {
        let ledger = two_level_ledger(4, 6);
        let tau = ledger.aggregate().tau(10, 3);
        // π̂_1 = 4/10, π̂_2 = (12/3)/4 = 1 → τ̂ = 0.4.
        assert!((tau - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_pool_tau_is_zero() {
        let ledger = RootLedger::new(2);
        assert_eq!(ledger.aggregate().tau(0, 3), 0.0);
    }

    #[test]
    fn bootstrap_variance_close_to_binomial() {
        // With deterministic per-root outcomes (hit ⇔ landed, all
        // offsprings cross), the estimator over a resample is the sample
        // fraction of hit-roots — variance should be ≈ p(1-p)/n.
        let ledger = two_level_ledger(30, 70);
        let mut rng = rng_from_seed(3);
        let v = bootstrap_variance(&ledger, 4000, 3, &mut rng);
        let expect = 0.3 * 0.7 / 100.0;
        assert!(
            (v - expect).abs() / expect < 0.15,
            "bootstrap var {v} vs binomial {expect}"
        );
    }

    #[test]
    fn bootstrap_variance_degenerate_pool() {
        let ledger = two_level_ledger(1, 0);
        let mut rng = rng_from_seed(1);
        assert!(bootstrap_variance(&ledger, 10, 3, &mut rng).is_infinite());
    }

    #[test]
    fn percentile_ci_brackets_point_estimate() {
        let ledger = two_level_ledger(30, 70);
        let mut rng = rng_from_seed(9);
        let (lo, hi) = bootstrap_percentile_ci(&ledger, 1000, 3, 0.95, &mut rng);
        assert!(lo <= 0.4 && hi >= 0.3 - 0.1, "({lo}, {hi})");
        assert!(lo < hi);
        assert!(lo >= 0.0 && hi <= 1.0);
    }

    #[test]
    fn ledger_skip_accounting() {
        let mut ledger = RootLedger::new(3);
        ledger.bump_skip(1);
        ledger.bump_skip(2);
        ledger.commit_root(1);
        let agg = ledger.aggregate();
        assert_eq!(agg.skips, vec![0, 1, 1]);
        assert_eq!(agg.hits, 1);
        // τ̂ over the single skipping root: π̂_1 = (0+1)/1 = 1,
        // π̂_2 = (0/3 + 1)/(0+1) = 1, π̂_3 = (0/3 + 1)/(0+1) = 1 → τ̂ = 1.
        assert!((agg.tau(1, 3) - 1.0).abs() < 1e-12);
    }

    /// The resampling loop as it stood before the kernel: one scalar
    /// `random_range(0..n)` per slot and a root-by-root fold — the
    /// reference the kernel must reproduce bit for bit.
    fn reference_estimates(
        ledger: &RootLedger,
        resamples: usize,
        ratio: u32,
        rng: &mut SimRng,
    ) -> Vec<f64> {
        use rand::RngExt;
        let n = ledger.n_roots();
        let mut idx = vec![0usize; n];
        (0..resamples)
            .map(|_| {
                for slot in idx.iter_mut() {
                    *slot = rng.random_range(0..n);
                }
                let mut agg = Aggregates::zeroed(ledger.m);
                for &i in &idx {
                    let rec = &ledger.data[i * ledger.stride..];
                    for l in 0..ledger.m {
                        agg.landings[l] += rec[l] as u64;
                        agg.crossings[l] += rec[ledger.m + l] as u64;
                        agg.skips[l] += rec[2 * ledger.m + l] as u64;
                    }
                    agg.hits += rec[3 * ledger.m] as u64;
                }
                if ledger.m == 1 {
                    agg.hits as f64 / n as f64
                } else {
                    estimator(
                        ledger.m,
                        ratio,
                        n as u64,
                        &agg.landings,
                        &agg.crossings,
                        &agg.skips,
                    )
                    .0
                }
            })
            .collect()
    }

    fn reference_variance(
        ledger: &RootLedger,
        resamples: usize,
        ratio: u32,
        rng: &mut SimRng,
    ) -> f64 {
        let estimates = reference_estimates(ledger, resamples, ratio, rng);
        let mean = estimates.iter().sum::<f64>() / resamples as f64;
        estimates
            .iter()
            .map(|e| (e - mean) * (e - mean))
            .sum::<f64>()
            / resamples as f64
    }

    /// A ledger of `n` roots over `m` levels with a few repeated record
    /// patterns (the coarse-model shape) mixed with one-off records.
    fn mixed_ledger(m: usize, n: usize, seed: u64) -> RootLedger {
        use rand::RngExt;
        let mut rng = rng_from_seed(seed);
        let mut ledger = RootLedger::new(m);
        for _ in 0..n {
            let pattern = rng.random_range(0u32..8);
            for l in 0..m {
                let bump = if pattern < 6 {
                    (pattern as usize + l) % 3
                } else {
                    rng.random_range(0..4)
                };
                for _ in 0..bump {
                    ledger.bump_landing(l);
                }
                ledger.add_crossings(l, (bump as u32 * pattern) % 7);
                if bump == 0 && l > 0 && pattern % 2 == 1 {
                    ledger.bump_skip(l);
                }
            }
            ledger.commit_root(pattern % 4);
        }
        ledger
    }

    #[test]
    fn kernel_is_bit_identical_to_the_reference_loop() {
        use rand::RngCore;
        for (m, n) in [(1usize, 37usize), (1, 900), (2, 2), (4, 885), (5, 129)] {
            let ledger = mixed_ledger(m, n, 70 + m as u64);
            for resamples in [2usize, 200] {
                for seed in [1u64, 2] {
                    let mut kernel = rng_from_seed(seed);
                    let mut reference = rng_from_seed(seed);
                    // Start mid-block, as a run's shared stream does.
                    let _ = kernel.next_u32();
                    let _ = reference.next_u32();
                    let v = bootstrap_variance(&ledger, resamples, 3, &mut kernel);
                    let r = reference_variance(&ledger, resamples, 3, &mut reference);
                    assert_eq!(
                        v.to_bits(),
                        r.to_bits(),
                        "variance m={m} n={n} B={resamples}"
                    );
                    assert_eq!(
                        kernel.next_u64(),
                        reference.next_u64(),
                        "stream m={m} n={n}"
                    );

                    let ci = bootstrap_percentile_ci(&ledger, resamples, 3, 0.9, &mut kernel);
                    let mut sorted = reference_estimates(&ledger, resamples, 3, &mut reference);
                    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    let alpha = 1.0 - 0.9;
                    let lo = ((alpha / 2.0) * resamples as f64).floor() as usize;
                    let hi = (((1.0 - alpha / 2.0) * resamples as f64).ceil() as usize)
                        .min(resamples)
                        .saturating_sub(1);
                    assert_eq!(ci.0.to_bits(), sorted[lo].to_bits(), "ci lo m={m} n={n}");
                    assert_eq!(ci.1.to_bits(), sorted[hi].to_bits(), "ci hi m={m} n={n}");
                    assert_eq!(
                        kernel.next_u64(),
                        reference.next_u64(),
                        "stream m={m} n={n}"
                    );
                }
            }
        }
    }

    fn encoded_ledger(m: u64, n_roots: u64, data: &[u32], cur: &[u32]) -> Vec<u8> {
        let mut out = Vec::new();
        crate::persist::put_u64(&mut out, m);
        crate::persist::put_u64(&mut out, n_roots);
        crate::persist::put_u32s(&mut out, data);
        crate::persist::put_u32s(&mut out, cur);
        out
    }

    #[test]
    fn restore_rejects_overflowing_geometry_without_panicking() {
        use crate::persist::{Persist, Reader};
        for (m, n_roots) in [
            (u64::MAX / 2, 1),
            (u64::MAX, 1),
            (1, u64::MAX),
            (2, u64::MAX / 3),
        ] {
            let bytes = encoded_ledger(m, n_roots, &[0; 8], &[0; 4]);
            assert!(
                RootLedger::restore(&mut Reader::new(&bytes)).is_err(),
                "m={m} n_roots={n_roots}"
            );
        }
        // Zero levels, and a root count the data does not back.
        for (m, n_roots, data_len) in [(0u64, 0u64, 0usize), (1, 3, 4), (1, 1, 8)] {
            let bytes = encoded_ledger(m, n_roots, &vec![0; data_len], &[0; 4]);
            assert!(RootLedger::restore(&mut Reader::new(&bytes)).is_err());
        }
        // The well-formed encoding still round-trips.
        let ledger = two_level_ledger(2, 3);
        let mut bytes = Vec::new();
        ledger.persist(&mut bytes);
        let back = RootLedger::restore(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.aggregate(), ledger.aggregate());
        assert_eq!(back.n_roots(), 5);
    }
}
