//! Auto-regressive AR(m) model (§2.1, example (1)).
//!
//! `v_t = Σ_{i=1..m} φ_i · v_{t-i} + ε_t` with i.i.d. Gaussian noise
//! `ε_t ~ N(0, σ)`. History-dependence is carried inside the state, which
//! stores the last `m` values (most recent first).

use mlss_core::is::TiltableModel;
use mlss_core::model::{SimulationModel, Time};
use mlss_core::rng::SimRng;
use rand_distr::{Distribution, Normal};

/// AR(m) state: the last `m` values, most recent first.
#[derive(Debug, Clone, PartialEq)]
pub struct ArState {
    /// Recent values, `history[0]` being `v_{t-1}`.
    pub history: Vec<f64>,
}

impl ArState {
    /// Current (most recent) value.
    pub fn value(&self) -> f64 {
        self.history[0]
    }
}

/// The AR(m) simulation model.
#[derive(Debug, Clone, PartialEq)]
pub struct ArModel {
    /// Coefficients `φ_1..φ_m`.
    pub coefficients: Vec<f64>,
    /// Noise standard deviation σ.
    pub sigma: f64,
    /// Initial history (length m, most recent first).
    pub initial: Vec<f64>,
}

impl ArModel {
    /// New model; coefficient and initial-history lengths must match and
    /// σ must be positive.
    pub fn new(coefficients: Vec<f64>, sigma: f64, initial: Vec<f64>) -> Self {
        assert!(!coefficients.is_empty(), "AR order must be ≥ 1");
        assert_eq!(
            coefficients.len(),
            initial.len(),
            "initial history must have length m"
        );
        assert!(sigma.is_finite() && sigma > 0.0, "σ must be positive");
        Self {
            coefficients,
            sigma,
            initial,
        }
    }

    /// An AR(1) model `v_t = φ v_{t-1} + N(0, σ)` started at `v0`.
    pub fn ar1(phi: f64, sigma: f64, v0: f64) -> Self {
        Self::new(vec![phi], sigma, vec![v0])
    }

    /// Model order m.
    pub fn order(&self) -> usize {
        self.coefficients.len()
    }
}

impl SimulationModel for ArModel {
    type State = ArState;

    fn initial_state(&self) -> ArState {
        ArState {
            history: self.initial.clone(),
        }
    }

    fn step(&self, state: &ArState, _t: Time, rng: &mut SimRng) -> ArState {
        let normal = Normal::new(0.0, self.sigma).expect("validated σ");
        let mut v = normal.sample(rng);
        for (phi, past) in self.coefficients.iter().zip(&state.history) {
            v += phi * past;
        }
        let mut history = Vec::with_capacity(state.history.len());
        history.push(v);
        history.extend_from_slice(&state.history[..state.history.len() - 1]);
        ArState { history }
    }

    /// Native batch kernel: the noise distribution is built once per
    /// cohort step and each lane's history ring is rotated **in place**
    /// (`copy_within`) instead of reallocating a fresh `Vec` per path
    /// per step. Per-lane draws and arithmetic match the scalar `step`.
    fn step_batch(
        &self,
        lanes: &mut [ArState],
        _ts: &[Time],
        rngs: &mut [SimRng],
        alive: &[usize],
    ) {
        let normal = Normal::new(0.0, self.sigma).expect("validated σ");
        for &i in alive {
            let mut v = normal.sample(&mut rngs[i]);
            let history = &mut lanes[i].history;
            for (phi, past) in self.coefficients.iter().zip(history.iter()) {
                v += phi * past;
            }
            let len = history.len();
            history.copy_within(0..len - 1, 1);
            history[0] = v;
        }
    }
}

impl TiltableModel for ArModel {
    /// Exponential tilt: the Gaussian innovation mean is shifted by
    /// `theta`; the log likelihood-ratio increment is
    /// `(θ² − 2θε) / (2σ²)` for the realized innovation `ε`.
    fn step_tilted(
        &self,
        state: &ArState,
        _t: Time,
        theta: f64,
        rng: &mut SimRng,
    ) -> (ArState, f64) {
        let normal = Normal::new(theta, self.sigma).expect("validated σ");
        let eps = normal.sample(rng);
        let mut v = eps;
        for (phi, past) in self.coefficients.iter().zip(&state.history) {
            v += phi * past;
        }
        let mut history = Vec::with_capacity(state.history.len());
        history.push(v);
        history.extend_from_slice(&state.history[..state.history.len() - 1]);
        let log_w = (theta * theta - 2.0 * theta * eps) / (2.0 * self.sigma * self.sigma);
        (ArState { history }, log_w)
    }

    /// Native tilted batch kernel: like the plain [`SimulationModel::step_batch`]
    /// override, the shifted innovation distribution is constructed once
    /// per cohort step and the history ring rotates in place instead of
    /// allocating a fresh `Vec` per path per step. Per-lane draws,
    /// arithmetic, and the log-weight expression match the scalar
    /// [`TiltableModel::step_tilted`] exactly.
    fn step_tilted_batch(
        &self,
        lanes: &mut [ArState],
        log_ws: &mut [f64],
        _ts: &[Time],
        theta: f64,
        rngs: &mut [SimRng],
        alive: &[usize],
    ) {
        let normal = Normal::new(theta, self.sigma).expect("validated σ");
        let denom = 2.0 * self.sigma * self.sigma;
        for &i in alive {
            let eps = normal.sample(&mut rngs[i]);
            let mut v = eps;
            let history = &mut lanes[i].history;
            for (phi, past) in self.coefficients.iter().zip(history.iter()) {
                v += phi * past;
            }
            let len = history.len();
            history.copy_within(0..len - 1, 1);
            history[0] = v;
            log_ws[i] += (theta * theta - 2.0 * theta * eps) / denom;
        }
    }
}

/// Score for AR durability queries: the current value.
pub fn ar_value_score(state: &ArState) -> f64 {
    state.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlss_core::model::simulate_path;
    use mlss_core::rng::rng_from_seed;

    #[test]
    fn ar1_mean_reverts() {
        let m = ArModel::ar1(0.5, 0.1, 10.0);
        let p = simulate_path(&m, 200, &mut rng_from_seed(1));
        // Stationary mean is 0; after burn-in the value should be small.
        let tail_avg: f64 = p.states[100..].iter().map(|s| s.value()).sum::<f64>() / 100.0;
        assert!(tail_avg.abs() < 0.5, "tail avg {tail_avg}");
    }

    #[test]
    fn ar2_history_rotates() {
        let m = ArModel::new(vec![0.3, 0.2], 0.01, vec![1.0, 2.0]);
        let s0 = m.initial_state();
        let s1 = m.step(&s0, 1, &mut rng_from_seed(2));
        assert_eq!(s1.history.len(), 2);
        // Previous head becomes second entry.
        assert_eq!(s1.history[1], 1.0);
    }

    #[test]
    fn stationary_variance_of_ar1() {
        // Var = σ²/(1−φ²) for |φ| < 1.
        let phi = 0.8;
        let sigma = 1.0;
        let m = ArModel::ar1(phi, sigma, 0.0);
        let p = simulate_path(&m, 20_000, &mut rng_from_seed(3));
        let vals: Vec<f64> = p.states[1000..].iter().map(|s| s.value()).collect();
        let var = mlss_core::stats::sample_variance(&vals);
        let expect = sigma * sigma / (1.0 - phi * phi);
        assert!(
            (var - expect).abs() / expect < 0.15,
            "var {var} vs {expect}"
        );
    }

    #[test]
    fn tilted_ar_matches_plain_in_distribution_at_zero_tilt() {
        use mlss_core::is::TiltableModel;
        let m = ArModel::ar1(0.5, 0.3, 0.0);
        let s0 = m.initial_state();
        let mut r1 = rng_from_seed(11);
        let mut r2 = rng_from_seed(11);
        let plain = m.step(&s0, 1, &mut r1);
        let (tilted, log_w) = m.step_tilted(&s0, 1, 0.0, &mut r2);
        assert!((plain.value() - tilted.value()).abs() < 1e-12);
        assert_eq!(log_w, 0.0);
    }

    #[test]
    fn tilted_ar_weight_sign() {
        use mlss_core::is::TiltableModel;
        // Positive tilt makes large innovations over-represented, so their
        // weights must be < 1 (log_w < 0) when ε > θ/2.
        let m = ArModel::ar1(0.0, 1.0, 0.0);
        let s0 = m.initial_state();
        let mut rng = rng_from_seed(3);
        let mut saw_downweight = false;
        for _ in 0..50 {
            let (next, log_w) = m.step_tilted(&s0, 1, 0.5, &mut rng);
            let eps = next.value();
            if eps > 0.25 {
                assert!(log_w < 0.0, "eps {eps} log_w {log_w}");
                saw_downweight = true;
            }
        }
        assert!(saw_downweight);
    }

    #[test]
    #[should_panic]
    fn rejects_mismatched_history() {
        ArModel::new(vec![0.5, 0.2], 1.0, vec![0.0]);
    }
}
