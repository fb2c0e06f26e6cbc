//! Integer random walks (§2.2 "Analytical Solution").
//!
//! A lazy ±1 walk with optional absorption at 0 — the gambler's-ruin
//! process. Random walks admit exact first-hitting answers
//! (`mlss-analytic::walk`), making them the primary validation substrate
//! for estimator unbiasedness.

use mlss_core::is::TiltableModel;
use mlss_core::model::{SimulationModel, Time};
use mlss_core::rng::SimRng;
use mlss_core::simd::{self, chacha, vmath};
use rand::RngExt;

/// A lazy integer random walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomWalk {
    /// Probability of a +1 step.
    pub up: f64,
    /// Probability of a −1 step (stay put otherwise).
    pub down: f64,
    /// Starting position.
    pub start: i64,
    /// Reflect at zero (positions never go negative) when true; otherwise
    /// the walk is free.
    pub reflect_at_zero: bool,
}

impl RandomWalk {
    /// New walk; `up + down` must not exceed 1.
    pub fn new(up: f64, down: f64, start: i64) -> Self {
        assert!(up >= 0.0 && down >= 0.0 && up + down <= 1.0 + 1e-12);
        Self {
            up,
            down,
            start,
            reflect_at_zero: false,
        }
    }

    /// Enable reflection at zero.
    pub fn reflected(mut self) -> Self {
        self.reflect_at_zero = true;
        self
    }

    /// Per-step drift `up − down`.
    pub fn drift(&self) -> f64 {
        self.up - self.down
    }
}

impl SimulationModel for RandomWalk {
    type State = i64;

    fn initial_state(&self) -> i64 {
        self.start
    }

    fn step(&self, state: &i64, _t: Time, rng: &mut SimRng) -> i64 {
        let u = rng.random::<f64>();
        let mut next = if u < self.up {
            state + 1
        } else if u < self.up + self.down {
            state - 1
        } else {
            *state
        };
        if self.reflect_at_zero && next < 0 {
            next = 0;
        }
        next
    }

    /// Native batch kernel on the vectorized draw pipeline: one raw
    /// ChaCha word per lane, with all block refills for the cohort
    /// computed in one multi-stream SIMD pass; the threshold compare and
    /// integer update stay per lane. Per-lane draws are bit-identical to
    /// the scalar `step` (the walk is pure RNG cost — the draw gather
    /// *is* the kernel).
    fn step_batch(&self, lanes: &mut [i64], ts: &[Time], rngs: &mut [SimRng], alive: &[usize]) {
        if !simd::pipeline_engaged(alive.len()) {
            for &i in alive {
                lanes[i] = self.step(&lanes[i], ts[i], &mut rngs[i]);
            }
            return;
        }
        let stay = self.up + self.down;
        simd::with_scratch(|sc| {
            chacha::gather_u64(rngs, alive, 1, sc);
            sc.f1.clear();
            sc.f1.resize(alive.len(), 0.0);
            vmath::u01_slice(&sc.words, &mut sc.f1);
            for (j, &i) in alive.iter().enumerate() {
                let u = sc.f1[j];
                let s = lanes[i];
                let mut next = if u < self.up {
                    s + 1
                } else if u < stay {
                    s - 1
                } else {
                    s
                };
                if self.reflect_at_zero && next < 0 {
                    next = 0;
                }
                lanes[i] = next;
            }
        })
    }

    /// SIMD-hot: the walk is pure RNG cost, and the multi-stream draw
    /// gather scales with cohort width.
    fn kernel_class(&self) -> mlss_core::width::KernelClass {
        mlss_core::width::KernelClass::SimdHot
    }
}

/// Per-`θ` constants of the walk's exponential tilt: proposal
/// probabilities `q ∝ (up·e^θ, down·e^−θ, stay)` and the per-branch log
/// likelihood-ratios. Computed with the same expressions in the scalar
/// and batched tilted steps, so both paths share every bit.
struct WalkTilt {
    /// Threshold for a +1 step under the proposal.
    q_up: f64,
    /// Threshold for a ±1 step under the proposal.
    q_updown: f64,
    /// `ln Z(θ)` — the common part of each branch's log-weight.
    ln_z: f64,
}

impl WalkTilt {
    fn new(walk: &RandomWalk, theta: f64) -> Self {
        let et = theta.exp();
        let zu = walk.up * et;
        let zd = walk.down / et;
        let stay = 1.0 - walk.up - walk.down;
        let z = zu + zd + stay;
        Self {
            q_up: zu / z,
            q_updown: (zu + zd) / z,
            ln_z: z.ln(),
        }
    }

    /// Advance one position by the tilted proposal; returns
    /// `(next, log-weight increment)`.
    #[inline]
    fn step(&self, walk: &RandomWalk, s: i64, theta: f64, u: f64) -> (i64, f64) {
        let (mut next, log_w) = if u < self.q_up {
            (s + 1, self.ln_z - theta)
        } else if u < self.q_updown {
            (s - 1, self.ln_z + theta)
        } else {
            (s, self.ln_z)
        };
        if walk.reflect_at_zero && next < 0 {
            next = 0;
        }
        (next, log_w)
    }
}

impl TiltableModel for RandomWalk {
    /// Exponential tilt: step probabilities reweighted to
    /// `q ∝ (up·e^θ, down·e^−θ, stay)`, the classical change of measure
    /// for discrete walks. One uniform per step, exactly like the plain
    /// walk; the log-weight is `ln Z(θ) − θ·(step)`.
    fn step_tilted(&self, state: &i64, _t: Time, theta: f64, rng: &mut SimRng) -> (i64, f64) {
        let tilt = WalkTilt::new(self, theta);
        tilt.step(self, *state, theta, rng.random::<f64>())
    }

    /// Native tilted batch kernel: vectorized draw gather, per-lane
    /// threshold compare — bit-identical to the scalar tilted step.
    fn step_tilted_batch(
        &self,
        lanes: &mut [i64],
        log_ws: &mut [f64],
        _ts: &[Time],
        theta: f64,
        rngs: &mut [SimRng],
        alive: &[usize],
    ) {
        let tilt = WalkTilt::new(self, theta);
        if !simd::pipeline_engaged(alive.len()) {
            for &i in alive {
                let (next, dlw) = tilt.step(self, lanes[i], theta, rngs[i].random::<f64>());
                lanes[i] = next;
                log_ws[i] += dlw;
            }
            return;
        }
        simd::with_scratch(|sc| {
            chacha::gather_u64(rngs, alive, 1, sc);
            sc.f1.clear();
            sc.f1.resize(alive.len(), 0.0);
            vmath::u01_slice(&sc.words, &mut sc.f1);
            for (j, &i) in alive.iter().enumerate() {
                let (next, dlw) = tilt.step(self, lanes[i], theta, sc.f1[j]);
                lanes[i] = next;
                log_ws[i] += dlw;
            }
        })
    }
}

/// Score for walk durability queries: the position.
pub fn position_score(state: &i64) -> f64 {
    *state as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlss_core::model::simulate_path;
    use mlss_core::rng::rng_from_seed;

    #[test]
    fn full_cohorts_take_the_draw_pipeline_on_simd_backends() {
        // The walk kernel stages its draws in the thread's kernel scratch
        // exactly when the pipeline engages, so an empty scratch after a
        // full cohort on a SIMD backend is a silent scalar fallback. Each
        // cohort runs on a fresh thread, whose scratch starts empty.
        let n = simd::MIN_SIMD_COHORT;
        for cohort in [n - 1, n, 4 * n] {
            let staged = std::thread::spawn(move || {
                let walk = RandomWalk::new(0.3, 0.3, 0);
                let mut lanes = vec![0i64; cohort];
                let ts = vec![1; cohort];
                let mut rngs: Vec<SimRng> = (0..cohort as u64).map(rng_from_seed).collect();
                let alive: Vec<usize> = (0..cohort).collect();
                walk.step_batch(&mut lanes, &ts, &mut rngs, &alive);
                simd::with_scratch(|sc| sc.words.len())
            })
            .join()
            .unwrap();
            assert_eq!(
                staged > 0,
                simd::Backend::active() > simd::Backend::Scalar && cohort >= n,
                "cohort {cohort} on backend {}",
                simd::Backend::active()
            );
        }
    }

    #[test]
    fn symmetric_walk_has_zero_drift() {
        let w = RandomWalk::new(0.5, 0.5, 0);
        assert_eq!(w.drift(), 0.0);
        let p = simulate_path(&w, 10_000, &mut rng_from_seed(1));
        let last = *p.last().unwrap();
        // Final position within 4 standard deviations of 0.
        assert!(last.abs() < 400, "last = {last}");
    }

    #[test]
    fn reflection_keeps_walk_nonnegative() {
        let w = RandomWalk::new(0.2, 0.6, 1).reflected();
        let p = simulate_path(&w, 2000, &mut rng_from_seed(2));
        assert!(p.states.iter().all(|&s| s >= 0));
    }

    #[test]
    fn lazy_steps_occur() {
        let w = RandomWalk::new(0.2, 0.2, 0);
        let p = simulate_path(&w, 1000, &mut rng_from_seed(3));
        let stays = p.states.windows(2).filter(|ab| ab[0] == ab[1]).count();
        // 60% of steps are stays.
        assert!(stays > 400 && stays < 800, "stays = {stays}");
    }

    #[test]
    fn empirical_drift() {
        let w = RandomWalk::new(0.6, 0.2, 0);
        let p = simulate_path(&w, 5000, &mut rng_from_seed(4));
        let last = *p.last().unwrap() as f64;
        let expect = 0.4 * 5000.0;
        assert!((last - expect).abs() < 300.0, "last {last} vs {expect}");
    }

    #[test]
    #[should_panic]
    fn rejects_overfull_probabilities() {
        RandomWalk::new(0.7, 0.6, 0);
    }
}
