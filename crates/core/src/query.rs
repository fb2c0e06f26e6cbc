//! Durability prediction queries and value functions (§2.1, §3).
//!
//! A durability query `Q(q, s)` asks for the probability that the process
//! reaches a state with `q(x_t) = 1` at some `t ≤ s`. Following the paper,
//! the common practical form is `q(x) ⇔ z(x) ≥ β` for a real-valued state
//! score `z` and a threshold `β`, with the canonical value function
//! `f(x) = min{z(x)/β, 1}` guiding where MLSS splits.

use crate::model::{SimulationModel, Time};

/// Smallest value `f` may take: the paper requires `f : X → (0, 1]`, so we
/// clamp non-positive ratios up to this.
pub const VALUE_EPSILON: f64 = 1e-12;

/// A real-valued evaluation of a state — the paper's `z : X → R`.
pub trait StateScore<S>: Sync {
    /// Score the state.
    fn score(&self, state: &S) -> f64;
}

/// Any closure `Fn(&S) -> f64` is a score.
impl<S, F: Fn(&S) -> f64 + Sync> StateScore<S> for F {
    fn score(&self, state: &S) -> f64 {
        self(state)
    }
}

/// A heuristic value function `f : X → (0, 1]` with `f(x) = 1 ⇔ q(x) = 1`
/// (§3 "Value Functions"). Estimator unbiasedness never depends on `f`;
/// only sampling efficiency does.
pub trait ValueFunction<S>: Sync {
    /// Value of the state, guaranteed to lie in `(0, 1]`.
    fn value(&self, state: &S) -> f64;

    /// The query condition: by construction `q(x) = 1 ⇔ f(x) = 1`. The
    /// frontier tests `value(x) >= 1.0` itself, so an override must agree
    /// with it.
    fn satisfied(&self, state: &S) -> bool {
        self.value(state) >= 1.0
    }
}

/// The paper's canonical value function `f(x) = min{z(x)/β, 1}` for
/// threshold queries `z(x) ≥ β`, clamped below to keep `f` positive.
#[derive(Debug, Clone, Copy)]
pub struct RatioValue<Z> {
    score: Z,
    beta: f64,
}

impl<Z> RatioValue<Z> {
    /// Build the value function for query `z(x) ≥ beta`. `beta` must be a
    /// positive, finite threshold.
    pub fn new(score: Z, beta: f64) -> Self {
        assert!(
            beta.is_finite() && beta > 0.0,
            "threshold β must be positive and finite, got {beta}"
        );
        Self { score, beta }
    }

    /// The threshold β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The underlying score.
    pub fn score_fn(&self) -> &Z {
        &self.score
    }
}

impl<S, Z: StateScore<S>> ValueFunction<S> for RatioValue<Z> {
    fn value(&self, state: &S) -> f64 {
        let z = self.score.score(state);
        if z.is_nan() {
            // A NaN score would otherwise poison level bookkeeping; treat
            // it as "no progress" rather than crashing mid-experiment.
            return VALUE_EPSILON;
        }
        (z / self.beta).clamp(VALUE_EPSILON, 1.0)
    }
}

/// A fully specified durability prediction query over a model: the paper's
/// `Q(q, s)` bundled with `g` and the value function that guides MLSS.
pub struct Problem<'a, M: SimulationModel, V> {
    /// The simulation model `g`.
    pub model: &'a M,
    /// The value function `f` (which also defines `q`).
    pub value_fn: &'a V,
    /// The time horizon `s`.
    pub horizon: Time,
}

impl<'a, M, V> Problem<'a, M, V>
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
{
    /// Bundle a query. `horizon` must be at least 1.
    pub fn new(model: &'a M, value_fn: &'a V, horizon: Time) -> Self {
        assert!(horizon >= 1, "durability horizon must be ≥ 1");
        Self {
            model,
            value_fn,
            horizon,
        }
    }

    /// Value of a state under this query's value function.
    pub fn value(&self, state: &M::State) -> f64 {
        self.value_fn.value(state)
    }

    /// Does the state satisfy the query condition `q`?
    pub fn satisfied(&self, state: &M::State) -> bool {
        self.value_fn.satisfied(state)
    }
}

impl<'a, M: SimulationModel, V> Clone for Problem<'a, M, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'a, M: SimulationModel, V> Copy for Problem<'a, M, V> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_value_basic() {
        let v = RatioValue::new(|s: &f64| *s, 10.0);
        assert!((v.value(&5.0) - 0.5).abs() < 1e-12);
        assert_eq!(v.value(&10.0), 1.0);
        assert_eq!(v.value(&25.0), 1.0);
        assert!(v.satisfied(&10.0));
        assert!(!v.satisfied(&9.999));
    }

    #[test]
    fn ratio_value_clamps_low() {
        let v = RatioValue::new(|s: &f64| *s, 10.0);
        assert_eq!(v.value(&0.0), VALUE_EPSILON);
        assert_eq!(v.value(&-100.0), VALUE_EPSILON);
        assert!(v.value(&0.0) > 0.0, "f must stay in (0,1]");
    }

    #[test]
    fn ratio_value_handles_nan_scores() {
        let v = RatioValue::new(|_: &f64| f64::NAN, 10.0);
        assert_eq!(v.value(&0.0), VALUE_EPSILON);
        assert!(!v.satisfied(&0.0));
    }

    #[test]
    #[should_panic]
    fn ratio_value_rejects_nonpositive_beta() {
        let _ = RatioValue::new(|s: &f64| *s, 0.0);
    }

    #[test]
    fn satisfied_iff_value_one() {
        let v = RatioValue::new(|s: &f64| *s, 4.0);
        for z in [-3.0, 0.0, 1.0, 3.9, 4.0, 4.1, 400.0] {
            assert_eq!(v.satisfied(&z), v.value(&z) >= 1.0);
        }
    }
}
