//! Small statistics toolkit used by the estimators.
//!
//! We implement exactly what the paper's quality measures need — running
//! moments (Welford), normal quantiles for confidence intervals, and a few
//! helpers — rather than pulling in a statistics crate.

/// Numerically stable running mean/variance accumulator (Welford's
/// algorithm). Used for the per-root-path variance estimator of Eq. (6).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunningMoments {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningMoments {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (Bessel-corrected); 0 when `n < 2`.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population variance (divide by `n`); 0 when `n == 0`.
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningMoments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
    }
}

/// Exact moment accumulator for *integer* observations (per-root target-hit
/// counts). Sums are kept in 128-bit integers, so accumulation and
/// [`HitMoments::merge`] are associative and commutative **bit-for-bit** —
/// merging shards in any permutation yields the identical variance, which
/// the Welford accumulator above cannot guarantee (its float merge is
/// order-sensitive in the last ulp). This is what makes the parallel
/// driver's block merges and the scheduler's slice merging produce
/// estimates independent of merge order.
#[derive(Debug, Clone, Copy, Default)]
pub struct HitMoments {
    n: u64,
    sum: u128,
    sum_sq: u128,
}

impl HitMoments {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one integer observation.
    pub fn push(&mut self, x: u32) {
        self.n += 1;
        self.sum += x as u128;
        self.sum_sq += (x as u128) * (x as u128);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// Unbiased sample variance (Bessel-corrected); 0 when `n < 2`.
    /// Computed from the exact integer sums, clamped at 0 against float
    /// cancellation in the final division.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let n = self.n as f64;
        // n·Σx² − (Σx)² is exact in u128 for any realistic hit counts
        // (hits per root are u32, roots ≤ 2^63), so the only rounding is
        // the final conversion + division — identical for identical sums.
        let num = (self.n as u128 * self.sum_sq).saturating_sub(self.sum * self.sum);
        (num as f64 / n / (n - 1.0)).max(0.0)
    }

    /// Merge another accumulator (exact, order-insensitive).
    pub fn merge(&mut self, other: &HitMoments) {
        self.n += other.n;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
    }
}

/// Full-precision float summation (Shewchuk expansions, the algorithm
/// behind Python's `math.fsum`). The accumulator keeps the running sum as
/// a list of non-overlapping partials whose exact sum equals the exact
/// mathematical sum of everything added; [`ExactSum::value`] rounds that
/// exact sum to the nearest `f64` once. Addition and [`ExactSum::merge`]
/// are therefore associative and commutative up to the final rounding,
/// making float-weighted ledgers (importance sampling) merge-order
/// insensitive — verified bit-for-bit by the merge-permutation property
/// test.
#[derive(Debug, Clone, Default)]
pub struct ExactSum {
    partials: Vec<f64>,
}

impl ExactSum {
    /// Empty sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one term exactly.
    pub fn add(&mut self, mut x: f64) {
        let mut i = 0;
        for j in 0..self.partials.len() {
            let mut y = self.partials[j];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                self.partials[i] = lo;
                i += 1;
            }
            x = hi;
        }
        self.partials.truncate(i);
        self.partials.push(x);
    }

    /// Absorb another exact sum (exact — no rounding).
    pub fn merge(&mut self, other: &ExactSum) {
        for &p in &other.partials {
            self.add(p);
        }
    }

    /// The exact sum correctly rounded to the nearest `f64` (round half
    /// to even), independent of the internal partials representation.
    ///
    /// A naive fold over the partials can round the wrong way on exact
    /// half-ulp ties (and different insertion orders can produce
    /// different non-overlapping representations of the same exact sum,
    /// making the naive fold order-sensitive in exactly those cases).
    /// This is `math.fsum`'s tail correction: sum from the largest
    /// partial down until the addition becomes inexact, then resolve the
    /// tie using the sign of the next partial below the roundoff.
    pub fn value(&self) -> f64 {
        let p = &self.partials;
        let mut n = p.len();
        if n == 0 {
            return 0.0;
        }
        n -= 1;
        let mut hi = p[n];
        let mut lo = 0.0;
        while n > 0 {
            let x = hi;
            n -= 1;
            let y = p[n];
            hi = x + y;
            let yr = hi - x;
            lo = y - yr;
            if lo != 0.0 {
                break;
            }
        }
        // Half-even correction: if the remaining tail has the same sign
        // as the roundoff, the exact sum lies strictly beyond the
        // half-ulp point and the addition above rounded the wrong way.
        if n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0)) {
            let y = lo * 2.0;
            let x = hi + y;
            let yr = x - hi;
            if y == yr {
                hi = x;
            }
        }
        hi
    }
}

/// Mean of a slice (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance of a slice (0 when fewer than two elements).
pub fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation of a slice.
pub fn sample_std(xs: &[f64]) -> f64 {
    sample_variance(xs).sqrt()
}

/// Standard normal CDF, via `erf`.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Error function (Abramowitz & Stegun 7.1.26; |err| < 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal quantile (inverse CDF), Acklam's rational approximation
/// refined by one Halley step; good to ~1e-9 over (0, 1).
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");

    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step using the CDF above.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Two-sided normal critical value `z_{α/2}` for the given confidence level
/// (e.g. `0.95 → 1.959964`). This is the `z` of the paper's CI construction.
pub fn z_critical(confidence: f64) -> f64 {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0,1), got {confidence}"
    );
    normal_quantile(1.0 - (1.0 - confidence) / 2.0)
}

// ---- durability codecs --------------------------------------------------
//
// The moment accumulators are part of every checkpointable shard, so they
// must round-trip exactly: `HitMoments` is three integers; `ExactSum`
// serializes its non-overlapping partials verbatim (the partials list *is*
// the exact value, and `add`/`value` are deterministic functions of it).

impl crate::persist::Persist for HitMoments {
    fn persist(&self, out: &mut Vec<u8>) {
        crate::persist::put_u64(out, self.n);
        crate::persist::put_u128(out, self.sum);
        crate::persist::put_u128(out, self.sum_sq);
    }

    fn restore(r: &mut crate::persist::Reader<'_>) -> Result<Self, crate::persist::PersistError> {
        Ok(Self {
            n: r.u64()?,
            sum: r.u128()?,
            sum_sq: r.u128()?,
        })
    }
}

impl crate::persist::Persist for ExactSum {
    fn persist(&self, out: &mut Vec<u8>) {
        crate::persist::put_f64s(out, &self.partials);
    }

    fn restore(r: &mut crate::persist::Reader<'_>) -> Result<Self, crate::persist::PersistError> {
        Ok(Self {
            partials: r.f64s()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_batch() {
        let xs = [1.0, 4.0, 2.0, 8.0, 5.0, 7.0];
        let mut acc = RunningMoments::new();
        for &x in &xs {
            acc.push(x);
        }
        assert!((acc.mean() - mean(&xs)).abs() < 1e-12);
        assert!((acc.sample_variance() - sample_variance(&xs)).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_matches_sequential() {
        let xs = [1.0, 4.0, 2.0];
        let ys = [8.0, 5.0, 7.0, 3.0];
        let mut a = RunningMoments::new();
        let mut b = RunningMoments::new();
        xs.iter().for_each(|&x| a.push(x));
        ys.iter().for_each(|&y| b.push(y));
        a.merge(&b);

        let all: Vec<f64> = xs.iter().chain(ys.iter()).copied().collect();
        assert_eq!(a.count(), all.len() as u64);
        assert!((a.mean() - mean(&all)).abs() < 1e-12);
        assert!((a.sample_variance() - sample_variance(&all)).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningMoments::new();
        a.push(3.0);
        a.push(5.0);
        let before = (a.count(), a.mean(), a.sample_variance());
        a.merge(&RunningMoments::new());
        assert_eq!(before, (a.count(), a.mean(), a.sample_variance()));

        let mut e = RunningMoments::new();
        let mut b = RunningMoments::new();
        b.push(1.0);
        e.merge(&b);
        assert_eq!(e.count(), 1);
        assert_eq!(e.mean(), 1.0);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        let mut acc = RunningMoments::new();
        for _ in 0..10 {
            acc.push(2.5);
        }
        assert!(acc.sample_variance().abs() < 1e-15);
    }

    #[test]
    fn hit_moments_match_batch_formulas() {
        let xs: [u32; 6] = [1, 4, 2, 8, 5, 7];
        let mut acc = HitMoments::new();
        for &x in &xs {
            acc.push(x);
        }
        let fx: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
        assert_eq!(acc.count(), 6);
        assert!((acc.mean() - mean(&fx)).abs() < 1e-12);
        assert!((acc.sample_variance() - sample_variance(&fx)).abs() < 1e-12);
    }

    #[test]
    fn hit_moments_merge_is_permutation_insensitive() {
        let shards: [&[u32]; 3] = [&[0, 0, 3, 1], &[9, 0], &[2, 2, 2, 2, 2]];
        let build = |order: &[usize]| {
            let mut acc = HitMoments::new();
            for &i in order {
                let mut part = HitMoments::new();
                shards[i].iter().for_each(|&x| part.push(x));
                acc.merge(&part);
            }
            acc
        };
        let a = build(&[0, 1, 2]);
        for order in [[1, 0, 2], [2, 1, 0], [2, 0, 1]] {
            let b = build(&order);
            assert_eq!(a.count(), b.count());
            assert_eq!(a.mean().to_bits(), b.mean().to_bits());
            assert_eq!(a.sample_variance().to_bits(), b.sample_variance().to_bits());
        }
    }

    #[test]
    fn exact_sum_fixes_naive_cancellation() {
        // 1 + 1e100 + 1 - 1e100 = 2 exactly; naive f64 summation gives 0.
        let mut s = ExactSum::new();
        for x in [1.0, 1e100, 1.0, -1e100] {
            s.add(x);
        }
        assert_eq!(s.value(), 2.0);
    }

    #[test]
    fn exact_sum_rounds_half_ulp_ties_order_insensitively() {
        // Regression: these shards land the exact sum on a half-ulp tie;
        // a naive fold over the partials rounds differently depending on
        // merge order, the fsum-style correction must not.
        let shards: [&[f64]; 3] = [
            &[1.0, 1.0],
            &[1.0, 3.3306690738754696e-16],
            &[-1.1102230246251565e-16, 2.465190328815662e-32],
        ];
        let build = |order: &[usize]| {
            let mut acc = ExactSum::new();
            for &i in order {
                let mut part = ExactSum::new();
                shards[i].iter().for_each(|&x| part.add(x));
                acc.merge(&part);
            }
            acc.value()
        };
        let reference = build(&[0, 1, 2]);
        for order in [[1, 0, 2], [2, 1, 0], [0, 2, 1], [2, 0, 1], [1, 2, 0]] {
            assert_eq!(
                reference.to_bits(),
                build(&order).to_bits(),
                "order {order:?}: {reference:e} vs {:e}",
                build(&order)
            );
        }
        // And flat insertion in any order agrees too.
        let flat: Vec<f64> = shards.iter().flat_map(|s| s.iter().copied()).collect();
        let mut rev = ExactSum::new();
        flat.iter().rev().for_each(|&x| rev.add(x));
        assert_eq!(reference.to_bits(), rev.value().to_bits());
    }

    #[test]
    fn exact_sum_merge_is_permutation_insensitive() {
        let shards: [&[f64]; 3] = [
            &[0.1, 1e16, -0.3],
            &[2.5e-17, 7.25],
            &[-1e16, 0.30000000000000004],
        ];
        let build = |order: &[usize]| {
            let mut acc = ExactSum::new();
            for &i in order {
                let mut part = ExactSum::new();
                shards[i].iter().for_each(|&x| part.add(x));
                acc.merge(&part);
            }
            acc.value()
        };
        let a = build(&[0, 1, 2]);
        for order in [[1, 0, 2], [2, 1, 0], [0, 2, 1], [2, 0, 1], [1, 2, 0]] {
            assert_eq!(a.to_bits(), build(&order).to_bits());
        }
    }

    #[test]
    fn normal_cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.959964) - 0.975).abs() < 1e-5);
        assert!((normal_cdf(-1.959964) - 0.025).abs() < 1e-5);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &p in &[0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999] {
            let x = normal_quantile(p);
            assert!(
                (normal_cdf(x) - p).abs() < 1e-6,
                "p={p} x={x} cdf={}",
                normal_cdf(x)
            );
        }
    }

    #[test]
    fn z_critical_95_is_1_96() {
        assert!((z_critical(0.95) - 1.959_964).abs() < 1e-4);
        assert!((z_critical(0.99) - 2.575_829).abs() < 1e-4);
    }

    #[test]
    #[should_panic]
    fn quantile_rejects_out_of_range() {
        normal_quantile(1.0);
    }
}
