//! Stopping criteria: simulation budgets and quality targets (§2.1, §6).
//!
//! The paper runs samplers either (a) until a fixed budget of `g`
//! invocations is exhausted, or (b) until the estimate reaches a target
//! quality — a confidence-interval width or a relative error. Both are
//! expressed here as a [`RunControl`] consumed by every sampler.

use crate::estimate::Estimate;
use serde::{Deserialize, Serialize};

/// A quality target for an estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum QualityTarget {
    /// Stop when the normal-approximation CI half-width at `confidence`
    /// drops to `rel_width × reference` (the paper's "1% CI with 95%
    /// confidence", interpreted relative to the answer probability as in
    /// Figure 8). `reference = None` uses the running estimate.
    ConfidenceInterval {
        /// Confidence level, e.g. 0.95.
        confidence: f64,
        /// Target half-width as a fraction of the reference probability.
        rel_width: f64,
        /// Optional known reference probability (ground truth).
        reference: Option<f64>,
    },
    /// Stop when `√Var / reference ≤ target` (the paper's "10% RE").
    /// `reference = None` uses the running estimate — the practical
    /// fallback described in §6.
    RelativeError {
        /// Target relative error, e.g. 0.10.
        target: f64,
        /// Optional known reference probability.
        reference: Option<f64>,
    },
}

impl QualityTarget {
    /// The paper's default CI target: 1% relative half-width, 95%
    /// confidence.
    pub fn paper_ci() -> Self {
        QualityTarget::ConfidenceInterval {
            confidence: 0.95,
            rel_width: 0.01,
            reference: None,
        }
    }

    /// The paper's default RE target: 10% relative error.
    pub fn paper_re() -> Self {
        QualityTarget::RelativeError {
            target: 0.10,
            reference: None,
        }
    }

    /// Is the target satisfied by `est`? A zero/unknown reference (e.g. no
    /// hits yet) never satisfies the target.
    pub fn satisfied(&self, est: &Estimate) -> bool {
        match *self {
            QualityTarget::ConfidenceInterval {
                confidence,
                rel_width,
                reference,
            } => {
                let reference = reference.unwrap_or(est.tau);
                if reference <= 0.0 || est.hits == 0 {
                    return false;
                }
                est.ci_half_width(confidence) <= rel_width * reference
            }
            QualityTarget::RelativeError { target, reference } => {
                let reference = reference.unwrap_or(est.tau);
                if reference <= 0.0 || est.hits == 0 {
                    return false;
                }
                est.relative_error(reference) <= target
            }
        }
    }
}

/// How long a sampler runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RunControl {
    /// Run until (at least) this many `g` invocations have been spent.
    /// The paper's fixed-budget mode.
    Budget(u64),
    /// Run until the quality target holds, re-checking after chunks of
    /// about `check_every` root paths (see [`RunControl::next_chunk`]).
    /// `max_steps` is a hard safety valve.
    Target {
        /// The quality target to reach.
        target: QualityTarget,
        /// Check cadence in root paths' worth of steps.
        check_every: u64,
        /// Upper bound on `g` invocations regardless of quality.
        max_steps: u64,
    },
}

impl RunControl {
    /// Target mode with sensible defaults (check every 256 roots, 10^10
    /// step valve).
    pub fn until(target: QualityTarget) -> Self {
        RunControl::Target {
            target,
            check_every: 256,
            max_steps: 10_000_000_000,
        }
    }

    /// Budget mode.
    pub fn budget(steps: u64) -> Self {
        RunControl::Budget(steps)
    }

    /// The one cadence every driver shares: the `g` invocations the
    /// next chunk must commit before the stopping rule is evaluated
    /// again, sized from the committed prefix (`steps` over `n_roots`),
    /// or `None` once the step bound is spent. A chunk ends at the first
    /// root at or past its budget.
    ///
    /// Budget mode runs one chunk to the budget. Target mode runs
    /// `check_every` roots' worth at the observed cost per root (one
    /// horizon per root before any root commits), clamped to the
    /// `max_steps` valve, then checks.
    pub fn next_chunk(&self, steps: u64, n_roots: u64, horizon: u64) -> Option<u64> {
        match *self {
            RunControl::Budget(total) => Some(total.saturating_sub(steps)).filter(|&r| r > 0),
            RunControl::Target {
                check_every,
                max_steps,
                ..
            } => {
                if steps >= max_steps {
                    return None;
                }
                let per_root = steps_per_root(steps, n_roots, horizon);
                Some(
                    check_every
                        .max(1)
                        .saturating_mul(per_root)
                        .min(max_steps - steps)
                        .max(1),
                )
            }
        }
    }
}

/// Observed `g` invocations per committed root (at least 1), or one
/// horizon per root before any root commits — the cost estimate chunk
/// sizing and cohort clamps share.
pub fn steps_per_root(steps: u64, n_roots: u64, horizon: u64) -> u64 {
    steps.checked_div(n_roots).unwrap_or(horizon).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(tau: f64, var: f64, hits: u64, steps: u64) -> Estimate {
        Estimate {
            tau,
            variance: var,
            n_roots: 100,
            steps,
            hits,
        }
    }

    #[test]
    fn ci_target_satisfaction() {
        let t = QualityTarget::ConfidenceInterval {
            confidence: 0.95,
            rel_width: 0.01,
            reference: None,
        };
        // half width 1.96e-4 ≤ 0.01*0.5? yes.
        assert!(t.satisfied(&est(0.5, 1e-8, 10, 0)));
        // Way too wide.
        assert!(!t.satisfied(&est(0.5, 1e-2, 10, 0)));
        // No hits -> never satisfied even with zero variance.
        assert!(!t.satisfied(&est(0.0, 0.0, 0, 0)));
    }

    #[test]
    fn re_target_satisfaction() {
        let t = QualityTarget::paper_re();
        assert!(t.satisfied(&est(0.01, 1e-7, 3, 0))); // RE ≈ 0.0316/... wait: sqrt(1e-7)=3.16e-4, /0.01 = 3.2% ≤ 10%
        assert!(!t.satisfied(&est(0.01, 1e-5, 3, 0))); // RE ≈ 31.6%
    }

    #[test]
    fn re_target_with_reference() {
        let t = QualityTarget::RelativeError {
            target: 0.10,
            reference: Some(0.02),
        };
        // sqrt(4e-6)=2e-3, / 0.02 = 0.1 → satisfied (boundary).
        assert!(t.satisfied(&est(0.5, 4e-6, 1, 0)));
        assert!(!t.satisfied(&est(0.5, 5e-6, 1, 0)));
    }

    #[test]
    fn budget_cadence_is_one_chunk_to_the_budget() {
        let c = RunControl::budget(1000);
        assert_eq!(c.next_chunk(0, 0, 50), Some(1000));
        assert_eq!(c.next_chunk(999, 40, 50), Some(1));
        assert_eq!(c.next_chunk(1000, 41, 50), None);
        assert_eq!(c.next_chunk(1040, 42, 50), None);
    }

    #[test]
    fn target_cadence_sizes_chunks_from_the_prefix_under_the_valve() {
        let c = RunControl::Target {
            target: QualityTarget::paper_re(),
            check_every: 10,
            max_steps: 1_000_000,
        };
        // Before any root commits, assume one horizon per root.
        assert_eq!(c.next_chunk(0, 0, 70), Some(700));
        // Then the observed cost per root.
        assert_eq!(c.next_chunk(600, 20, 70), Some(300));
        // Clamped to the valve…
        assert_eq!(c.next_chunk(999_900, 100, 70), Some(100));
        // …and over once it is reached.
        assert_eq!(c.next_chunk(1_000_000, 100, 70), None);
        // Whether the target holds is the check's business, not the
        // cadence's: a met target still gets its next chunk sized.
        assert!(c.next_chunk(100, 5, 70).is_some());
        assert!(QualityTarget::paper_re().satisfied(&est(0.01, 1e-9, 5, 100)));
    }
}
