//! Experiment settings: query classes, thresholds, and quality targets.
//!
//! The paper's Table 2 fixes `(s, β)` per model and query class so the
//! ground-truth probabilities fall into four bands: Medium (~15-17%),
//! Small (~5%), Tiny (~0.15-0.26%), and Rare (~3-4·10⁻⁴). Our simulators
//! reproduce the paper's *process forms*, but the paper's CPP β values
//! are inconsistent with its stated parameters, so thresholds here are
//! **recalibrated** to land in the same bands. The `calibrate` binary
//! re-derives them: it prints each candidate's ground-truth probability.

use mlss_core::quality::QualityTarget;
use serde::{Deserialize, Serialize};

/// The four query classes of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryClass {
    /// τ ≈ 0.15 — answered to a CI target.
    Medium,
    /// τ ≈ 0.05 — answered to a CI target.
    Small,
    /// τ ≈ 2·10⁻³ — answered to an RE target.
    Tiny,
    /// τ ≈ 3·10⁻⁴ — answered to an RE target.
    Rare,
}

impl QueryClass {
    /// All classes in Table 2 order.
    pub const ALL: [QueryClass; 4] = [
        QueryClass::Medium,
        QueryClass::Small,
        QueryClass::Tiny,
        QueryClass::Rare,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            QueryClass::Medium => "Medium",
            QueryClass::Small => "Small",
            QueryClass::Tiny => "Tiny",
            QueryClass::Rare => "Rare",
        }
    }
}

/// Effort profile: `Quick` for minutes-scale regeneration of every figure,
/// `Full` for paper-scale targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Looser targets, fewer repetitions; minutes to run everything.
    Quick,
    /// The paper's targets (1% CI, 10% RE, 100 repetitions).
    Full,
}

impl Profile {
    /// Parse from CLI args: `--full` selects [`Profile::Full`].
    pub fn from_args() -> Profile {
        if std::env::args().any(|a| a == "--full") {
            Profile::Full
        } else {
            Profile::Quick
        }
    }

    /// The quality target the paper uses for this class, scaled by the
    /// profile: CI (95%) relative half-width for Medium/Small, relative
    /// error for Tiny/Rare.
    pub fn target(self, class: QueryClass) -> QualityTarget {
        match (self, class) {
            (Profile::Full, QueryClass::Medium | QueryClass::Small) => {
                QualityTarget::ConfidenceInterval {
                    confidence: 0.95,
                    rel_width: 0.01,
                    reference: None,
                }
            }
            (Profile::Quick, QueryClass::Medium | QueryClass::Small) => {
                QualityTarget::ConfidenceInterval {
                    confidence: 0.95,
                    rel_width: 0.03,
                    reference: None,
                }
            }
            (Profile::Full, _) => QualityTarget::RelativeError {
                target: 0.10,
                reference: None,
            },
            (Profile::Quick, _) => QualityTarget::RelativeError {
                target: 0.25,
                reference: None,
            },
        }
    }

    /// Repetitions for the answer-comparison tables (Tables 3/4).
    pub fn repetitions(self) -> usize {
        match self {
            Profile::Quick => 10,
            Profile::Full => 100,
        }
    }
}

/// One durability query setting `(s, β)`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct QuerySpec {
    /// Query class.
    pub class: QueryClass,
    /// Time horizon `s`.
    pub horizon: u64,
    /// Threshold `β`.
    pub beta: f64,
}

/// Queue model settings (Table 2 row 1).
///
/// Our critically loaded queue wanders a little higher than the paper's
/// (47% vs 17% at the paper's β = 20), so thresholds are recalibrated to
/// {28, 37, 57, 63} to land the Medium/Small/Tiny/Rare probability bands —
/// validated by the `calibrate` binary.
pub fn queue_specs() -> Vec<QuerySpec> {
    vec![
        QuerySpec {
            class: QueryClass::Medium,
            horizon: 500,
            beta: 28.0,
        },
        QuerySpec {
            class: QueryClass::Small,
            horizon: 500,
            beta: 37.0,
        },
        QuerySpec {
            class: QueryClass::Tiny,
            horizon: 500,
            beta: 57.0,
        },
        QuerySpec {
            class: QueryClass::Rare,
            horizon: 500,
            beta: 63.0,
        },
    ]
}

/// CPP model settings (Table 2 row 2), recalibrated thresholds (see
/// module docs).
pub fn cpp_specs() -> Vec<QuerySpec> {
    vec![
        QuerySpec {
            class: QueryClass::Medium,
            horizon: 500,
            beta: 37.0,
        },
        QuerySpec {
            class: QueryClass::Small,
            horizon: 500,
            beta: 50.0,
        },
        QuerySpec {
            class: QueryClass::Tiny,
            horizon: 500,
            beta: 90.0,
        },
        QuerySpec {
            class: QueryClass::Rare,
            horizon: 500,
            beta: 115.0,
        },
    ]
}

/// RNN model settings (Table 2 row 3): Small and Tiny only, `s = 200`,
/// thresholds as multiples of the initial simulated price (calibrated).
pub fn rnn_specs(initial_price: f64) -> Vec<QuerySpec> {
    vec![
        QuerySpec {
            class: QueryClass::Small,
            horizon: 200,
            beta: initial_price * 1.45,
        },
        QuerySpec {
            class: QueryClass::Tiny,
            horizon: 200,
            beta: initial_price * 1.60,
        },
    ]
}

/// Volatile-model settings (Table 6): Tiny and Rare, recalibrated.
pub fn volatile_queue_specs() -> Vec<QuerySpec> {
    vec![
        QuerySpec {
            class: QueryClass::Tiny,
            horizon: 500,
            beta: 87.0,
        },
        QuerySpec {
            class: QueryClass::Rare,
            horizon: 500,
            beta: 107.0,
        },
    ]
}

/// Volatile CPP settings (Table 6), recalibrated.
pub fn volatile_cpp_specs() -> Vec<QuerySpec> {
    vec![
        QuerySpec {
            class: QueryClass::Tiny,
            horizon: 500,
            beta: 620.0,
        },
        QuerySpec {
            class: QueryClass::Rare,
            horizon: 500,
            beta: 920.0,
        },
    ]
}

/// The paper's default splitting ratio (§6 "Implementation Details").
pub const DEFAULT_RATIO: u32 = 3;

/// Default number of levels used for balanced plans per query class —
/// the paper finds fewer levels optimal for easier queries (Fig. 12).
pub fn default_levels(class: QueryClass) -> usize {
    match class {
        QueryClass::Medium => 2,
        QueryClass::Small => 3,
        QueryClass::Tiny => 5,
        QueryClass::Rare => 6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_cover_all_classes() {
        let q = queue_specs();
        assert_eq!(q.len(), 4);
        for (spec, class) in q.iter().zip(QueryClass::ALL) {
            assert_eq!(spec.class, class);
        }
        // Thresholds increase with rarity.
        assert!(q.windows(2).all(|w| w[0].beta < w[1].beta));
        let c = cpp_specs();
        assert!(c.windows(2).all(|w| w[0].beta < w[1].beta));
    }

    #[test]
    fn targets_match_paper_shape() {
        use mlss_core::quality::QualityTarget::*;
        assert!(matches!(
            Profile::Full.target(QueryClass::Medium),
            ConfidenceInterval { rel_width, .. } if (rel_width - 0.01).abs() < 1e-12
        ));
        assert!(matches!(
            Profile::Full.target(QueryClass::Rare),
            RelativeError { target, .. } if (target - 0.10).abs() < 1e-12
        ));
        assert!(matches!(
            Profile::Quick.target(QueryClass::Tiny),
            RelativeError { target, .. } if target > 0.10
        ));
    }

    #[test]
    fn levels_grow_with_rarity() {
        assert!(default_levels(QueryClass::Medium) < default_levels(QueryClass::Tiny));
        assert!(default_levels(QueryClass::Tiny) <= default_levels(QueryClass::Rare));
    }
}
