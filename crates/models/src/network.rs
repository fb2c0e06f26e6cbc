//! Generalized queueing networks: a series of `k` stations (the tandem
//! queue is the `k = 2` special case).
//!
//! The paper motivates queueing models as the foundation for birth-death
//! processes, supply chains, and computer-network analysis (§6); this
//! module provides the natural extension users would reach for — an
//! arbitrary-length series line with per-station exponential service
//! rates — while reusing the same unit-time CTMC stepping discipline as
//! [`crate::queue`].

use mlss_core::model::{SimulationModel, Time};
use mlss_core::rng::SimRng;
use rand::RngExt;

/// State: the number of customers at each station.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkState {
    /// Queue length (incl. in service) per station.
    pub queues: Vec<u32>,
}

impl NetworkState {
    /// Total customers in the system.
    pub fn total(&self) -> u32 {
        self.queues.iter().sum()
    }

    /// Customers at the last station (the bottleneck the paper's queries
    /// watch).
    pub fn last(&self) -> u32 {
        *self.queues.last().expect("non-empty network")
    }
}

/// A series line of single-server exponential stations fed by Poisson
/// arrivals.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesNetwork {
    /// Poisson arrival rate into station 0.
    pub arrival_rate: f64,
    /// Service rate per station.
    pub service_rates: Vec<f64>,
}

impl SeriesNetwork {
    /// New network; all rates must be positive and finite.
    pub fn new(arrival_rate: f64, service_rates: Vec<f64>) -> Self {
        assert!(!service_rates.is_empty(), "need at least one station");
        assert!(
            arrival_rate.is_finite() && arrival_rate > 0.0,
            "arrival rate must be positive"
        );
        for &r in &service_rates {
            assert!(r.is_finite() && r > 0.0, "service rates must be positive");
        }
        Self {
            arrival_rate,
            service_rates,
        }
    }

    /// Number of stations `k`.
    pub fn stations(&self) -> usize {
        self.service_rates.len()
    }

    /// Advance the CTMC by one unit of time.
    fn advance_unit(&self, state: &NetworkState, rng: &mut SimRng) -> NetworkState {
        let mut q = state.queues.clone();
        let k = q.len();
        let mut remaining = 1.0_f64;
        loop {
            let mut total = self.arrival_rate;
            for (i, &rate) in self.service_rates.iter().enumerate() {
                if q[i] > 0 {
                    total += rate;
                }
            }
            let dt = -(1.0 - rng.random::<f64>()).ln() / total;
            if dt >= remaining {
                break;
            }
            remaining -= dt;
            let mut u = rng.random::<f64>() * total;
            if u < self.arrival_rate {
                q[0] += 1;
                continue;
            }
            u -= self.arrival_rate;
            for i in 0..k {
                if q[i] == 0 {
                    continue;
                }
                if u < self.service_rates[i] {
                    q[i] -= 1;
                    if i + 1 < k {
                        q[i + 1] += 1;
                    }
                    break;
                }
                u -= self.service_rates[i];
            }
        }
        NetworkState { queues: q }
    }
}

impl SimulationModel for SeriesNetwork {
    type State = NetworkState;

    fn initial_state(&self) -> NetworkState {
        NetworkState {
            queues: vec![0; self.stations()],
        }
    }

    fn step(&self, state: &NetworkState, _t: Time, rng: &mut SimRng) -> NetworkState {
        self.advance_unit(state, rng)
    }
}

/// Score: customers at the final station.
pub fn last_station_score(state: &NetworkState) -> f64 {
    state.last() as f64
}

/// Score: total customers in the system.
pub fn total_customers_score(state: &NetworkState) -> f64 {
    state.total() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::TandemQueue;
    use mlss_core::model::simulate_path;
    use mlss_core::rng::rng_from_seed;

    #[test]
    fn two_station_network_statistically_matches_tandem_queue() {
        // Same rates, same stepping discipline, same RNG usage pattern ⇒
        // identical distributions; verify by comparing long-run averages.
        let net = SeriesNetwork::new(0.5, vec![0.5, 0.5]);
        let tq = TandemQueue::paper_default();

        let pn = simulate_path(&net, 3000, &mut rng_from_seed(1));
        let pt = simulate_path(&tq, 3000, &mut rng_from_seed(1));
        let avg_n: f64 = pn.states.iter().map(|s| s.last() as f64).sum::<f64>() / 3001.0;
        let avg_t: f64 = pt.states.iter().map(|s| s.q2 as f64).sum::<f64>() / 3001.0;
        // The event-selection order differs slightly, so compare
        // statistically rather than exactly.
        assert!(
            (avg_n - avg_t).abs() < 0.35 * avg_t.max(1.0),
            "network {avg_n} vs tandem {avg_t}"
        );
    }

    #[test]
    fn longer_lines_accumulate_in_later_stations() {
        let net = SeriesNetwork::new(0.8, vec![1.0, 1.0, 0.85]);
        let p = simulate_path(&net, 4000, &mut rng_from_seed(2));
        let avg = |i: usize| -> f64 {
            p.states.iter().map(|s| s.queues[i] as f64).sum::<f64>() / p.states.len() as f64
        };
        // The slowest (last) station has the longest queue on average.
        assert!(avg(2) > avg(0), "bottleneck {} vs first {}", avg(2), avg(0));
    }

    #[test]
    fn customers_conserved_within_step_events() {
        // Departures only happen at the last station; totals never jump
        // by more than arrivals allow.
        let net = SeriesNetwork::new(0.5, vec![0.7, 0.7]);
        let p = simulate_path(&net, 500, &mut rng_from_seed(3));
        for s in &p.states {
            assert!(s.total() < 1000);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_empty_network() {
        SeriesNetwork::new(0.5, vec![]);
    }
}
