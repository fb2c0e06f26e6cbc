//! Finite discrete-time Markov chains (§2.1, example (2)).
//!
//! Time-homogeneous chains over a finite state space, with a per-state
//! real score for durability queries. Small chains double as *exactly
//! solvable* validation substrates: `mlss-analytic` computes their hitting
//! probabilities in closed form, which our unbiasedness tests compare
//! against.

use mlss_core::model::{SimulationModel, Time};
use mlss_core::rng::SimRng;
use rand::RngExt;

/// A finite Markov chain with per-state scores.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovChain {
    /// Row-stochastic transition matrix, `rows[i][j] = Pr[X_{t+1}=j | X_t=i]`.
    rows: Vec<Vec<f64>>,
    /// Real-valued score of each state (the query's `z`).
    scores: Vec<f64>,
    /// Initial state index.
    initial: usize,
}

impl MarkovChain {
    /// Build a chain; rows must be stochastic within `1e-9`.
    pub fn new(rows: Vec<Vec<f64>>, scores: Vec<f64>, initial: usize) -> Self {
        let n = rows.len();
        assert!(n > 0, "chain needs at least one state");
        assert_eq!(scores.len(), n, "one score per state");
        assert!(initial < n, "initial state out of range");
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n, "row {i} has wrong length");
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {i} sums to {sum}, not 1");
            assert!(
                row.iter().all(|&p| p >= 0.0),
                "negative probability in row {i}"
            );
        }
        Self {
            rows,
            scores,
            initial,
        }
    }

    /// A birth-death chain on `{0..n-1}`: up with probability `p`, down
    /// with probability `q`, stay otherwise; reflecting at both ends
    /// (excess mass stays). Scores are the state indices. A discrete
    /// analogue of the queue process with exact analytics.
    pub fn birth_death(n: usize, p: f64, q: f64, initial: usize) -> Self {
        assert!(n >= 2);
        assert!(p >= 0.0 && q >= 0.0 && p + q <= 1.0);
        let mut rows = vec![vec![0.0; n]; n];
        for i in 0..n {
            let up = if i + 1 < n { p } else { 0.0 };
            let down = if i > 0 { q } else { 0.0 };
            if i + 1 < n {
                rows[i][i + 1] = up;
            }
            if i > 0 {
                rows[i][i - 1] = down;
            }
            rows[i][i] = 1.0 - up - down;
        }
        let scores = (0..n).map(|i| i as f64).collect();
        Self::new(rows, scores, initial)
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.rows.len()
    }

    /// Transition matrix rows.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// Per-state scores.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Initial state index.
    pub fn initial(&self) -> usize {
        self.initial
    }

    /// Score of state `i`.
    pub fn score_of(&self, i: usize) -> f64 {
        self.scores[i]
    }
}

impl SimulationModel for MarkovChain {
    type State = usize;

    fn initial_state(&self) -> usize {
        self.initial
    }

    fn step(&self, state: &usize, _t: Time, rng: &mut SimRng) -> usize {
        let row = &self.rows[*state];
        let mut u = rng.random::<f64>();
        for (j, &p) in row.iter().enumerate() {
            if u < p {
                return j;
            }
            u -= p;
        }
        // Floating-point slack: land on the last positive-probability state.
        row.iter()
            .rposition(|&p| p > 0.0)
            .expect("stochastic row has positive mass")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlss_core::model::simulate_path;
    use mlss_core::rng::rng_from_seed;

    #[test]
    fn birth_death_structure() {
        let c = MarkovChain::birth_death(5, 0.3, 0.4, 2);
        assert_eq!(c.num_states(), 5);
        assert!((c.rows()[0][0] - 0.7).abs() < 1e-12); // no down at 0
        assert!((c.rows()[4][4] - 0.6).abs() < 1e-12); // no up at top
        assert!((c.rows()[2][3] - 0.3).abs() < 1e-12);
        assert!((c.rows()[2][1] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn transition_frequencies_match_matrix() {
        let c = MarkovChain::birth_death(3, 0.25, 0.25, 1);
        let mut rng = rng_from_seed(5);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[c.step(&1, 1, &mut rng)] += 1;
        }
        assert!((counts[0] as f64 / 30_000.0 - 0.25).abs() < 0.02);
        assert!((counts[2] as f64 / 30_000.0 - 0.25).abs() < 0.02);
        assert!((counts[1] as f64 / 30_000.0 - 0.50).abs() < 0.02);
    }

    #[test]
    fn paths_stay_in_state_space() {
        let c = MarkovChain::birth_death(4, 0.4, 0.3, 0);
        let p = simulate_path(&c, 500, &mut rng_from_seed(2));
        assert!(p.states.iter().all(|&s| s < 4));
    }

    #[test]
    #[should_panic]
    fn rejects_nonstochastic_rows() {
        MarkovChain::new(vec![vec![0.5, 0.4], vec![0.5, 0.5]], vec![0.0, 1.0], 0);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_initial() {
        MarkovChain::birth_death(3, 0.2, 0.2, 7);
    }
}
