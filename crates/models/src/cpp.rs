//! Compound-Poisson process (§6, model (2)).
//!
//! `U(t) = u + c·t − S(t)` where `S(t)` is a compound Poisson process with
//! jump intensity λ and jump distribution `F` — the classical
//! Cramér–Lundberg surplus process of risk theory: `u` is the initial
//! surplus, `c` the premium income per unit time, and `S(t)` the aggregate
//! claims. One invocation of `g` advances one unit of time: add `c`,
//! subtract `Poisson(λ)`-many i.i.d. jumps.

use mlss_core::is::TiltableModel;
use mlss_core::model::{SimulationModel, Time};
use mlss_core::rng::SimRng;
use mlss_core::simd::{self, chacha, vmath};
use rand::RngCore;
use rand_distr::{Distribution, Poisson};

/// Jump (claim) size distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JumpDistribution {
    /// Uniform on `[lo, hi)` — the paper's `Uni(5, 10)`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Exponential with the given mean.
    Exponential {
        /// Mean jump size.
        mean: f64,
    },
    /// Degenerate constant jump.
    Constant {
        /// The jump size.
        value: f64,
    },
}

impl JumpDistribution {
    /// Sample one jump from a raw-word source. This single function is
    /// the jump sampler for *both* the scalar `step` (words drawn
    /// straight from the RNG) and the batched kernels (words pulled
    /// through the staged-refill pipeline), which is what keeps the two
    /// paths bit-identical — including the `vmath::ln` the exponential
    /// tail uses.
    #[inline]
    fn sample_from(&self, mut draw: impl FnMut() -> u64) -> f64 {
        match *self {
            JumpDistribution::Uniform { lo, hi } => lo + (hi - lo) * vmath::u01(draw()),
            JumpDistribution::Exponential { mean } => -mean * vmath::ln(1.0 - vmath::u01(draw())),
            JumpDistribution::Constant { value } => value,
        }
    }

    /// Sample one jump.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        self.sample_from(|| rng.next_u64())
    }

    /// Mean jump size `E[J]`.
    pub fn mean(&self) -> f64 {
        match *self {
            JumpDistribution::Uniform { lo, hi } => (lo + hi) / 2.0,
            JumpDistribution::Exponential { mean } => mean,
            JumpDistribution::Constant { value } => value,
        }
    }

    /// Second moment `E[J²]`.
    pub fn second_moment(&self) -> f64 {
        match *self {
            JumpDistribution::Uniform { lo, hi } => (hi * hi + hi * lo + lo * lo) / 3.0,
            JumpDistribution::Exponential { mean } => 2.0 * mean * mean,
            JumpDistribution::Constant { value } => value * value,
        }
    }
}

/// The compound-Poisson surplus model.
#[derive(Debug, Clone, Copy)]
pub struct CompoundPoisson {
    /// Initial surplus `u`.
    pub initial: f64,
    /// Premium income `c` per unit time.
    pub premium: f64,
    /// Jump intensity λ (expected jumps per unit time).
    pub intensity: f64,
    /// Jump size distribution `F`.
    pub jumps: JumpDistribution,
}

impl CompoundPoisson {
    /// New process; `intensity` must be positive and finite.
    pub fn new(initial: f64, premium: f64, intensity: f64, jumps: JumpDistribution) -> Self {
        assert!(
            intensity.is_finite() && intensity > 0.0,
            "jump intensity must be positive"
        );
        assert!(initial.is_finite() && premium.is_finite());
        Self {
            initial,
            premium,
            intensity,
            jumps,
        }
    }

    /// The paper's experimental setting: `u = 15`, `c = 4.5`, `λ = 0.8`,
    /// jumps `Uni(5, 10)`.
    pub fn paper_default() -> Self {
        Self::new(
            15.0,
            4.5,
            0.8,
            JumpDistribution::Uniform { lo: 5.0, hi: 10.0 },
        )
    }

    /// The zero-drift variant used by the volatile experiments (§6.2):
    /// premium exactly offsets expected claims (`c = λ·E[J] = 6`), so the
    /// surplus hovers near its start and late impulse jumps matter.
    /// (With the paper-default negative drift, paths sit ~700 below the
    /// start by `t = 0.8·s` and no late impulse could ever reach a
    /// threshold — see DESIGN.md, substitution 4.)
    pub fn zero_drift_default() -> Self {
        Self::new(
            15.0,
            6.0,
            0.8,
            JumpDistribution::Uniform { lo: 5.0, hi: 10.0 },
        )
    }

    /// Per-unit-time drift `c − λ·E[J]`.
    pub fn drift(&self) -> f64 {
        self.premium - self.intensity * self.jumps.mean()
    }

    /// Per-unit-time variance of the increment, `λ·E[J²]`.
    pub fn step_variance(&self) -> f64 {
        self.intensity * self.jumps.second_moment()
    }
}

/// The cpp pipeline needs a wider cohort than the generic
/// [`simd::MIN_SIMD_COHORT`] before the staged multi-stream refills
/// amortize: draws per lane per step are data-dependent (Knuth loop +
/// jumps), so refill sets are small and irregular at narrow widths.
/// Below this, the scalar loop wins; results are identical either way.
const CPP_MIN_SIMD_COHORT: usize = 32;

/// When the cross-lane live-mask shrinks below this, the remaining long
/// tails finish on the scalar per-lane loop — a near-empty SIMD slice
/// costs more in staging than it saves.
const CPP_SCALAR_PEEL: usize = 4;

/// One `u64` for lane `i`: a pure load from the lane's persistent view
/// while it lasts; on exhaustion the consumption is committed
/// (`cursors[i]` becomes [`chacha::VIEW_COMMITTED`]) and this and future
/// draws take the mutating scalar-refill path — bit-identical either way
/// (a rare long Knuth/jump tail).
#[inline(always)]
fn lane_u64(
    rng: &mut SimRng,
    i: usize,
    views: &mut [[u32; chacha::VIEW_STRIDE]],
    view_ctr0: &mut [u64],
    view_staged: &mut [bool],
    cursors: &mut [u32],
) -> u64 {
    if cursors[i] != chacha::VIEW_COMMITTED {
        if let Some(w) = chacha::view_row_u64(&views[i], &mut cursors[i]) {
            return w;
        }
        chacha::commit_view(rng, i, views, view_ctr0, view_staged, cursors[i]);
        cursors[i] = chacha::VIEW_COMMITTED;
    }
    let mut none = None;
    chacha::draw_u64(rng, &mut none)
}

impl CompoundPoisson {
    /// The batched surplus update shared by the plain and tilted kernels,
    /// as masked cross-lane iteration: stage vectorized block refills
    /// through the per-lane pending cache (a block computed ahead of need
    /// is kept until consumed, so every SIMD compute is used), then run
    /// the Knuth product for *all live lanes together* — each round draws
    /// one factor per surviving lane, converts the whole cohort's words
    /// with the sliced `vmath` kernels, multiplies slice-wise, and
    /// retires lanes whose product fell to `limit`. Jump draws drain the
    /// same way: pass `p` pulls one jump from every lane with more than
    /// `p` jumps, so the `u01`/`ln` transforms always run over a dense
    /// slice. Long tails (a handful of survivors) peel to the scalar
    /// per-lane loop. Word consumption per lane is draw-for-draw the
    /// serial order (Knuth factors, then jump words) and the product is
    /// the replica of the `rand_distr` shim's small-λ path (`limit` is
    /// the same libm `exp` both paths evaluate, the factor mapping is the
    /// shim's `uniform_open01`), so results are bit-identical to the
    /// scalar `step` at every width and backend.
    /// `intensity` is the proposal's jump rate (tilted or not);
    /// `on_count` folds the per-lane Poisson count into tilt bookkeeping.
    /// A lane that outruns its staged block falls back to the scalar
    /// refill — bit-identical either way.
    fn batch_surplus(
        &self,
        intensity: f64,
        lanes: &mut [f64],
        rngs: &mut [SimRng],
        alive: &[usize],
        mut on_count: impl FnMut(usize, u64),
    ) {
        let limit = (-intensity).exp();
        simd::with_scratch(|sc| {
            // Sync the persistent per-lane views: rows carried over from
            // the previous step revalidate against their stream tags and
            // are reused as-is; only lanes that crossed a block boundary
            // (or were reseeded) get new bytes, with every needed next
            // block computed in one SIMD pass. All draws below are pure
            // loads against the rows, committed to the streams once at
            // the end.
            chacha::sync_views(rngs, alive, sc);
            let m = alive.len();
            let simd::KernelScratch {
                words,
                f1,
                f2,
                idxs,
                counts,
                views,
                view_ctr0,
                view_staged,
                cursors,
                ..
            } = sc;

            counts.clear();
            counts.resize(m, 0);
            // Grow-only: every entry below is written before read.
            if words.len() < m {
                words.resize(m, 0);
            }
            if f1.len() < m {
                f1.resize(m, 0.0);
            }
            if f2.len() < m {
                f2.resize(m, 0.0);
            }
            if idxs.len() < m {
                idxs.resize(m, 0);
            }

            // Phase 1 — cross-lane Knuth under a live-mask. The live set
            // is kept *dense*: `idxs[..n]` holds the surviving cohort
            // positions and `f2[..n]` their running products, compacted
            // branchlessly each round (an unpredictable keep/retire
            // branch per lane is exactly the mispredict tax the serial
            // loop pays; a masked write-cursor bump is not). Counts are
            // written unconditionally — a survivor's entry is simply
            // overwritten next round, so only its retiring round sticks.
            //
            // Round 0: every lane draws its initial factor. At step
            // start every cursor sits at most at `BLOCK_WORDS` (the
            // staged half is always present after `sync_views`), so the
            // draw cannot overrun the row — a tight unchecked load loop,
            // no fallback branch. The `min` only pins the bound for the
            // optimizer; it never clamps in practice.
            for (k, &i) in alive.iter().enumerate() {
                let c = (cursors[i] as usize).min(chacha::VIEW_STRIDE - 2);
                let row = &views[i];
                let lo = row[c] as u64;
                let hi = row[c + 1] as u64;
                cursors[i] = (c + 2) as u32;
                words[k] = (hi << 32) | lo;
            }
            vmath::open01_slice(&words[..m], &mut f1[..m]);
            let mut n = 0usize;
            for (k, &p) in f1[..m].iter().enumerate() {
                idxs[n] = k;
                f2[n] = p;
                n += (p > limit) as usize;
            }
            // Rounds r ≥ 1: one factor per survivor.
            let mut r = 0u64;
            while n > 0 {
                r += 1;
                if n < CPP_SCALAR_PEEL {
                    // Long tails: finish the few survivors serially.
                    for k in 0..n {
                        let j = idxs[k];
                        let i = alive[j];
                        let mut p = f2[k];
                        let mut c = counts[j];
                        while p > limit {
                            let w =
                                lane_u64(&mut rngs[i], i, views, view_ctr0, view_staged, cursors);
                            p *= vmath::open01(w);
                            c += 1;
                        }
                        counts[j] = c;
                    }
                    break;
                }
                if r < 8 {
                    // A survivor of round `r-1` has drawn `r` factors, so
                    // its cursor is at most `BLOCK_WORDS + 2r` — for
                    // r < 8 the next draw provably stays inside the row
                    // and the overrun branch is dead. Same unchecked
                    // load loop as round 0: no stream access at all.
                    for k in 0..n {
                        let i = alive[idxs[k]];
                        let c = (cursors[i] as usize).min(chacha::VIEW_STRIDE - 2);
                        let row = &views[i];
                        let lo = row[c] as u64;
                        let hi = row[c + 1] as u64;
                        cursors[i] = (c + 2) as u32;
                        words[k] = (hi << 32) | lo;
                    }
                } else {
                    for k in 0..n {
                        let i = alive[idxs[k]];
                        words[k] =
                            lane_u64(&mut rngs[i], i, views, view_ctr0, view_staged, cursors);
                    }
                }
                vmath::open01_slice(&words[..n], &mut f1[..n]);
                let mut w = 0usize;
                for k in 0..n {
                    let j = idxs[k];
                    let p = f2[k] * f1[k];
                    counts[j] = r;
                    idxs[w] = j;
                    f2[w] = p;
                    w += (p > limit) as usize;
                }
                n = w;
            }

            // Phase 2 — surplus update: premium in, counted jumps out
            // (`f2` switches from dense products to cohort-indexed
            // surplus; the products are spent).
            for (j, &i) in alive.iter().enumerate() {
                f2[j] = lanes[i] + self.premium;
            }
            self.drain_jumps(
                rngs,
                alive,
                words,
                f1,
                f2,
                idxs,
                counts,
                views,
                view_ctr0,
                view_staged,
                cursors,
            );

            for (j, &i) in alive.iter().enumerate() {
                if cursors[i] != chacha::VIEW_COMMITTED {
                    chacha::commit_view(&mut rngs[i], i, views, view_ctr0, view_staged, cursors[i]);
                }
                lanes[i] = f2[j];
                on_count(i, counts[j]);
            }
        })
    }

    /// Phase 2 of [`Self::batch_surplus`]: subtract each lane's
    /// `counts[j]` jump draws from the surplus in `u[j]`, cross-lane —
    /// pass `p` draws one jump word from every lane with more than `p`
    /// jumps and applies the jump transform slice-wise over the dense
    /// live set (same branchless compaction as phase 1). Per-lane draw
    /// order equals the serial loop's.
    #[allow(clippy::too_many_arguments)]
    fn drain_jumps(
        &self,
        rngs: &mut [SimRng],
        alive: &[usize],
        words: &mut [u64],
        vals: &mut [f64],
        u: &mut [f64],
        idxs: &mut [usize],
        counts: &[u64],
        views: &mut [[u32; chacha::VIEW_STRIDE]],
        view_ctr0: &mut [u64],
        view_staged: &mut [bool],
        cursors: &mut [u32],
    ) {
        let m = alive.len();
        if let JumpDistribution::Constant { value } = self.jumps {
            // No words drawn; repeated subtraction mirrors the scalar
            // loop bit-for-bit (u − v − v ≠ u − 2v in general).
            for j in 0..m {
                for _ in 0..counts[j] {
                    u[j] -= value;
                }
            }
            return;
        }
        let mut n = 0usize;
        for (j, &c) in counts[..m].iter().enumerate() {
            idxs[n] = j;
            n += (c > 0) as usize;
        }
        let mut pass = 0u64;
        while n > 0 {
            if n < CPP_SCALAR_PEEL {
                for &j in &idxs[..n] {
                    let i = alive[j];
                    for _ in pass..counts[j] {
                        let jump = self.jumps.sample_from(|| {
                            lane_u64(&mut rngs[i], i, views, view_ctr0, view_staged, cursors)
                        });
                        u[j] -= jump;
                    }
                }
                return;
            }
            for k in 0..n {
                let j = idxs[k];
                let i = alive[j];
                words[k] = lane_u64(&mut rngs[i], i, views, view_ctr0, view_staged, cursors);
            }
            vmath::u01_slice(&words[..n], &mut vals[..n]);
            match self.jumps {
                JumpDistribution::Uniform { lo, hi } => {
                    for x in &mut vals[..n] {
                        *x = lo + (hi - lo) * *x;
                    }
                }
                JumpDistribution::Exponential { mean } => {
                    for x in &mut vals[..n] {
                        *x = 1.0 - *x;
                    }
                    vmath::ln_slice(&mut vals[..n]);
                    for x in &mut vals[..n] {
                        *x *= -mean;
                    }
                }
                JumpDistribution::Constant { .. } => unreachable!("handled above"),
            }
            pass += 1;
            let mut w = 0usize;
            for k in 0..n {
                let j = idxs[k];
                u[j] -= vals[k];
                idxs[w] = j;
                w += (counts[j] > pass) as usize;
            }
            n = w;
        }
    }
}

impl SimulationModel for CompoundPoisson {
    type State = f64;

    fn initial_state(&self) -> f64 {
        self.initial
    }

    fn step(&self, state: &f64, _t: Time, rng: &mut SimRng) -> f64 {
        let pois = Poisson::new(self.intensity).expect("validated intensity");
        let n = pois.sample(rng) as u64;
        let mut u = state + self.premium;
        for _ in 0..n {
            u -= self.jumps.sample(rng);
        }
        u
    }

    /// Native batch kernel on the vectorized draw pipeline: block
    /// refills for the cohort are staged in multi-stream SIMD passes;
    /// the Knuth count and jump draws then run per lane from the staged
    /// words, draw-for-draw identical to the scalar `step`. Rates in the
    /// shim's normal-approximation regime (λ ≥ 30) fall back to the
    /// scalar sampler so the dual-regime draw pattern stays exact.
    fn step_batch(&self, lanes: &mut [f64], _ts: &[Time], rngs: &mut [SimRng], alive: &[usize]) {
        if self.intensity >= 30.0
            || !simd::pipeline_engaged(alive.len())
            || alive.len() < CPP_MIN_SIMD_COHORT
        {
            let pois = Poisson::new(self.intensity).expect("validated intensity");
            for &i in alive {
                let rng = &mut rngs[i];
                let n = pois.sample(rng) as u64;
                let mut u = lanes[i] + self.premium;
                for _ in 0..n {
                    u -= self.jumps.sample(rng);
                }
                lanes[i] = u;
            }
            return;
        }
        self.batch_surplus(self.intensity, lanes, rngs, alive, |_, _| {});
    }

    /// SIMD-hot below the normal-approximation regime: the persistent
    /// per-lane views and multi-stream block computes want full
    /// cohorts. At λ ≥ 30 every step takes the scalar sampler anyway, so
    /// there is nothing for width to feed — class as a scalar kernel.
    fn kernel_class(&self) -> mlss_core::width::KernelClass {
        if self.intensity >= 30.0 {
            mlss_core::width::KernelClass::Scalar
        } else {
            mlss_core::width::KernelClass::SimdHot
        }
    }
}

impl TiltableModel for CompoundPoisson {
    /// Intensity tilt (the classical claim-frequency change of measure):
    /// the proposal runs the same surplus process with jump rate
    /// `λ_θ = λ·e^θ` and untilted jump sizes, so positive `θ` makes
    /// claims more frequent and ruin reachable. The per-step log
    /// likelihood-ratio for an observed count `n` is
    /// `(λ_θ − λ) − θ·n`; `θ = 0` is the plain process with weight 1.
    fn step_tilted(&self, state: &f64, _t: Time, theta: f64, rng: &mut SimRng) -> (f64, f64) {
        let tilted = self.intensity * theta.exp();
        let pois = Poisson::new(tilted).expect("tilted intensity must stay positive and finite");
        let n = pois.sample(rng) as u64;
        let mut u = state + self.premium;
        for _ in 0..n {
            u -= self.jumps.sample(rng);
        }
        (u, (tilted - self.intensity) - theta * n as f64)
    }

    /// Native tilted batch kernel: the plain staged-refill pipeline at
    /// the tilted rate, with the count folded into the lane's log-weight
    /// — bit-identical to the scalar [`TiltableModel::step_tilted`].
    fn step_tilted_batch(
        &self,
        lanes: &mut [f64],
        log_ws: &mut [f64],
        ts: &[Time],
        theta: f64,
        rngs: &mut [SimRng],
        alive: &[usize],
    ) {
        let tilted = self.intensity * theta.exp();
        if tilted >= 30.0
            || !simd::pipeline_engaged(alive.len())
            || alive.len() < CPP_MIN_SIMD_COHORT
        {
            for &i in alive {
                let (next, dlw) = self.step_tilted(&lanes[i], ts[i], theta, &mut rngs[i]);
                lanes[i] = next;
                log_ws[i] += dlw;
            }
            return;
        }
        // Validation only — keeps panic parity with the scalar
        // `step_tilted` for non-finite θ (NaN fails the ≥ 30 gate above,
        // so without this the native path would silently run on a NaN
        // Knuth limit while the adapter panics).
        let _ = Poisson::new(tilted).expect("tilted intensity must stay positive and finite");
        self.batch_surplus(tilted, lanes, rngs, alive, |i, n| {
            log_ws[i] += (tilted - self.intensity) - theta * n as f64;
        });
    }
}

/// Score for CPP durability queries: the surplus value itself.
pub fn surplus_score(state: &f64) -> f64 {
    *state
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlss_core::model::simulate_path;
    use mlss_core::rng::rng_from_seed;

    #[test]
    fn zero_drift_variant_has_zero_drift() {
        assert!(CompoundPoisson::zero_drift_default().drift().abs() < 1e-12);
    }

    #[test]
    fn paper_default_drift_is_negative() {
        let m = CompoundPoisson::paper_default();
        assert!((m.drift() - (4.5 - 0.8 * 7.5)).abs() < 1e-12);
        assert!(m.drift() < 0.0);
    }

    #[test]
    fn jump_moments() {
        let u = JumpDistribution::Uniform { lo: 5.0, hi: 10.0 };
        assert!((u.mean() - 7.5).abs() < 1e-12);
        assert!((u.second_moment() - (100.0 + 50.0 + 25.0) / 3.0).abs() < 1e-12);
        let e = JumpDistribution::Exponential { mean: 3.0 };
        assert!((e.second_moment() - 18.0).abs() < 1e-12);
        let c = JumpDistribution::Constant { value: 2.0 };
        assert_eq!(c.mean(), 2.0);
        assert_eq!(c.second_moment(), 4.0);
    }

    #[test]
    fn sample_respects_uniform_bounds() {
        let u = JumpDistribution::Uniform { lo: 5.0, hi: 10.0 };
        let mut rng = rng_from_seed(3);
        for _ in 0..1000 {
            let x = u.sample(&mut rng);
            assert!((5.0..10.0).contains(&x));
        }
    }

    #[test]
    fn empirical_drift_matches_theory() {
        let m = CompoundPoisson::paper_default();
        let horizon = 5000;
        let p = simulate_path(&m, horizon, &mut rng_from_seed(7));
        let final_u = *p.last().unwrap();
        let expected = m.initial + m.drift() * horizon as f64;
        let sd = (m.step_variance() * horizon as f64).sqrt();
        assert!(
            (final_u - expected).abs() < 4.0 * sd,
            "final {final_u} vs expected {expected} ± {sd}"
        );
    }

    #[test]
    fn paths_are_reproducible() {
        let m = CompoundPoisson::paper_default();
        let a = simulate_path(&m, 200, &mut rng_from_seed(9));
        let b = simulate_path(&m, 200, &mut rng_from_seed(9));
        assert_eq!(a.states, b.states);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_intensity() {
        CompoundPoisson::new(0.0, 1.0, 0.0, JumpDistribution::Constant { value: 1.0 });
    }
}
