//! Tandem queue model (§6, model (1), Figure 4).
//!
//! Two queues in series: customers arrive at Queue 1 as a Poisson process,
//! are served with exponential service times, proceed to Queue 2, are
//! served again, and leave. The durability query scores the state by the
//! number of customers in Queue 2.
//!
//! The underlying process is a continuous-time Markov chain; one
//! invocation of the simulation procedure `g` advances it by **one unit of
//! time** (running the embedded event loop with exponential clocks) and
//! returns the state observed at the next integer timestamp — the paper's
//! discrete-time view of the system.
//!
//! Parameter note: the paper writes `Exp(μ1)`, `μ1 = 2` for services. With
//! rate-2 services the system is ρ = 0.25-utilized and Queue 2 essentially
//! never reaches the paper's thresholds; with **mean-2** services (rate
//! 0.5, matching the arrival rate 0.5) the queue is critically loaded and
//! the Table 2/3 probability bands are reachable. We therefore read
//! `Exp(2)` as mean-2 service times; `TandemQueue::paper_default()`
//! encodes that reading (see DESIGN.md, substitution 4).

use mlss_core::model::{SimulationModel, Time};
use mlss_core::rng::SimRng;
use rand::RngExt;

/// State of the tandem system: queue lengths including in-service
/// customers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueState {
    /// Customers in Queue 1 (waiting + in service).
    pub q1: u32,
    /// Customers in Queue 2 (waiting + in service).
    pub q2: u32,
}

/// The tandem queue simulation model.
#[derive(Debug, Clone, Copy)]
pub struct TandemQueue {
    /// Poisson arrival rate λ into Queue 1 (events per unit time).
    pub arrival_rate: f64,
    /// Service rate of Queue 1 (1 / mean service time).
    pub service_rate1: f64,
    /// Service rate of Queue 2.
    pub service_rate2: f64,
}

impl TandemQueue {
    /// New tandem queue; all rates must be positive and finite.
    pub fn new(arrival_rate: f64, service_rate1: f64, service_rate2: f64) -> Self {
        for r in [arrival_rate, service_rate1, service_rate2] {
            assert!(r.is_finite() && r > 0.0, "rates must be positive, got {r}");
        }
        Self {
            arrival_rate,
            service_rate1,
            service_rate2,
        }
    }

    /// The paper's experimental setting: λ = 0.5 arrivals/unit, mean-2
    /// (rate 0.5) services at both queues — a critically loaded system.
    pub fn paper_default() -> Self {
        Self::new(0.5, 0.5, 0.5)
    }

    /// Advance the embedded CTMC by one unit of time.
    fn advance_unit(&self, state: &QueueState, rng: &mut SimRng) -> QueueState {
        let mut q1 = state.q1;
        let mut q2 = state.q2;
        let mut remaining = 1.0_f64;
        loop {
            let r1 = if q1 > 0 { self.service_rate1 } else { 0.0 };
            let r2 = if q2 > 0 { self.service_rate2 } else { 0.0 };
            let total = self.arrival_rate + r1 + r2;
            // Memorylessness lets us resample all clocks after every event.
            let dt = -(1.0 - rng.random::<f64>()).ln() / total;
            if dt >= remaining {
                break;
            }
            remaining -= dt;
            let u = rng.random::<f64>() * total;
            if u < self.arrival_rate {
                q1 += 1;
            } else if u < self.arrival_rate + r1 {
                q1 -= 1;
                q2 += 1;
            } else {
                q2 -= 1;
            }
        }
        QueueState { q1, q2 }
    }
}

impl SimulationModel for TandemQueue {
    type State = QueueState;

    fn initial_state(&self) -> QueueState {
        // The paper always starts with an empty system.
        QueueState { q1: 0, q2: 0 }
    }

    fn step(&self, state: &QueueState, _t: Time, rng: &mut SimRng) -> QueueState {
        self.advance_unit(state, rng)
    }

    /// Native batch kernel. The embedded CTMC event loop is inherently
    /// serial per lane (a data-dependent number of exponential clocks),
    /// so the kernel's only wins are in-place updates over the contiguous
    /// lane array and the skipped per-step dispatch; draws per lane are
    /// identical to the scalar `step`.
    fn step_batch(
        &self,
        lanes: &mut [QueueState],
        _ts: &[Time],
        rngs: &mut [SimRng],
        alive: &[usize],
    ) {
        for &i in alive {
            lanes[i] = self.advance_unit(&lanes[i], &mut rngs[i]);
        }
    }
}

/// The paper's score for queue durability queries: customers in Queue 2.
pub fn queue2_score(state: &QueueState) -> f64 {
    state.q2 as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlss_core::model::simulate_path;
    use mlss_core::rng::rng_from_seed;

    #[test]
    fn starts_empty() {
        let q = TandemQueue::paper_default();
        assert_eq!(q.initial_state(), QueueState { q1: 0, q2: 0 });
    }

    #[test]
    fn paths_are_reproducible() {
        let q = TandemQueue::paper_default();
        let a = simulate_path(&q, 100, &mut rng_from_seed(5));
        let b = simulate_path(&q, 100, &mut rng_from_seed(5));
        assert_eq!(a.states, b.states);
    }

    #[test]
    fn queue_lengths_stay_nonnegative_and_bounded() {
        let q = TandemQueue::paper_default();
        let p = simulate_path(&q, 500, &mut rng_from_seed(1));
        for s in &p.states {
            // u32 enforces non-negativity; sanity-bound explosion.
            assert!(s.q1 < 10_000 && s.q2 < 10_000);
        }
    }

    #[test]
    fn flow_conservation_under_subcritical_load() {
        // With fast services the system drains: average occupancy small.
        let q = TandemQueue::new(0.5, 2.0, 2.0);
        let p = simulate_path(&q, 2000, &mut rng_from_seed(2));
        let avg_q2: f64 = p.states.iter().map(|s| s.q2 as f64).sum::<f64>() / p.states.len() as f64;
        // M/M/1 with ρ = 0.25 has E[N] = ρ/(1−ρ) = 1/3; q2 sees the
        // departure process of q1 (also Poisson by Burke's theorem).
        assert!(avg_q2 < 1.0, "avg q2 = {avg_q2}");
    }

    #[test]
    fn critical_queue_wanders_higher() {
        let q = TandemQueue::paper_default();
        let mut max_q2 = 0;
        for seed in 0..20 {
            let p = simulate_path(&q, 500, &mut rng_from_seed(seed));
            max_q2 = max_q2.max(p.states.iter().map(|s| s.q2).max().unwrap());
        }
        // Critically loaded queue reaches double digits within 500 units
        // on at least one of 20 paths (diffusive scale √t ≈ 22).
        assert!(max_q2 >= 10, "max q2 over 20 paths = {max_q2}");
    }

    #[test]
    fn score_reads_queue2() {
        assert_eq!(queue2_score(&QueueState { q1: 3, q2: 7 }), 7.0);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_rate() {
        TandemQueue::new(0.0, 1.0, 1.0);
    }
}
