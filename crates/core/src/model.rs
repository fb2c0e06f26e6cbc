//! The simulation-model abstraction — the paper's step-wise procedure `g`.
//!
//! §2.1 formalizes a discrete-time stochastic process `{X_t}` driven by a
//! procedure `g(x_{<t}, t)` that produces the next state from the history.
//! We encode history-dependence *inside* the state type: an AR(m) model
//! stores its last `m` values in its state, an RNN stores its hidden and
//! cell vectors, and so on. This keeps the sampler interface
//! Markov-in-state while supporting the full generality of the paper
//! (any `g`, including black boxes).
//!
//! ## Batched stepping
//!
//! [`SimulationModel::step_batch`] advances a whole *cohort* of
//! independent paths per call — the hot-path contract behind the batched
//! estimator frontier (see `docs/kernel.md`). The provided default is the
//! **scalar→batch adapter**: it loops the scalar `step` over the alive
//! lanes, so every existing model works unchanged. Models with profitable
//! batch structure (contiguous `f64` lanes, shared distribution setup, a
//! batched GEMM in the RNN case) override it with a native kernel.
//!
//! The contract native kernels must honor:
//!
//! * **lane isolation** — lane `i` reads and writes only `lanes[i]`,
//!   `ts[i]`, `rngs[i]`; lanes are independent root paths.
//! * **draw-identity** — lane `i` must consume exactly the random draws
//!   the scalar `step(lanes[i], ts[i], rngs[i])` would, in the same
//!   order, so batched and scalar execution are bit-identical per lane
//!   (lanes may be processed in any order: each has its own RNG).
//! * **mask semantics** — lanes not listed in `alive` must not be
//!   touched at all (their state may belong to a retired path).
//!
//! Kernels on the vectorized draw pipeline ([`crate::simd`]) satisfy
//! draw-identity *by construction*: lane RNG blocks are computed
//! multi-stream but word-for-word equal to scalar refills, and the
//! transcendental transforms are one shared `vmath` implementation whose
//! scalar and SIMD instantiations are bit-equal (the scalar `step` of
//! those models calls the same functions). `tests/draw_identity.rs` pins
//! all of this at widths {1, 3, 8, 64} under partial masks.

use crate::rng::SimRng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Discrete simulation time (the paper's `t ∈ T = {0, 1, 2, ...}`).
pub type Time = u64;

/// A step-wise simulation model: the paper's `g`.
///
/// Implementations must be `Sync` so samplers can run root paths on
/// multiple threads; models are immutable during sampling (all mutability
/// lives in the `State` values and the RNG).
pub trait SimulationModel: Sync {
    /// One state of the process. Clones must be cheap-ish: splitting
    /// duplicates entrance states `r` times.
    type State: Clone + Send;

    /// The initial state `x_0`.
    fn initial_state(&self) -> Self::State;

    /// Simulate one step: given the state at time `t - 1`, return the state
    /// at time `t`. `t` is the *target* time of the produced state, so the
    /// first invocation on a fresh path receives `t = 1`.
    fn step(&self, state: &Self::State, t: Time, rng: &mut SimRng) -> Self::State;

    /// Advance every alive lane one step in place:
    /// `lanes[i] ← g(lanes[i], ts[i])` drawing from `rngs[i]`, for each
    /// `i` in `alive`.
    ///
    /// The default is the scalar→batch adapter (a loop over `step`);
    /// override with a native kernel where batch structure pays — the
    /// override must be per-lane bit-identical to the scalar `step` (see
    /// the module docs for the full contract).
    fn step_batch(
        &self,
        lanes: &mut [Self::State],
        ts: &[Time],
        rngs: &mut [SimRng],
        alive: &[usize],
    ) {
        for &i in alive {
            lanes[i] = self.step(&lanes[i], ts[i], &mut rngs[i]);
        }
    }

    /// The model's cost shape, which fixes its default launch width
    /// (see [`crate::width::KernelClass::width`]). The default matches
    /// the default `step_batch`: the scalar adapter loop, where nothing
    /// vectorizes. Models on the vectorized draw pipeline declare
    /// [`crate::width::KernelClass::SimdHot`]. Purely advisory — widths
    /// never change results.
    fn kernel_class(&self) -> crate::width::KernelClass {
        crate::width::KernelClass::Scalar
    }
}

/// Blanket implementation so `&M` is itself a model (lets samplers borrow).
impl<M: SimulationModel> SimulationModel for &M {
    type State = M::State;

    fn initial_state(&self) -> Self::State {
        (**self).initial_state()
    }

    fn step(&self, state: &Self::State, t: Time, rng: &mut SimRng) -> Self::State {
        (**self).step(state, t, rng)
    }

    fn step_batch(
        &self,
        lanes: &mut [Self::State],
        ts: &[Time],
        rngs: &mut [SimRng],
        alive: &[usize],
    ) {
        (**self).step_batch(lanes, ts, rngs, alive)
    }

    fn kernel_class(&self) -> crate::width::KernelClass {
        (**self).kernel_class()
    }
}

/// Forces the scalar→batch adapter: wraps a model and *hides* its native
/// `step_batch` override, so `step_batch` always loops the scalar `step`.
///
/// The identity tests use it to pin that a native kernel is per-lane
/// bit-identical to scalar stepping.
#[derive(Debug, Clone, Copy)]
pub struct ScalarAdapter<M>(pub M);

impl<M: SimulationModel> SimulationModel for ScalarAdapter<M> {
    type State = M::State;

    fn initial_state(&self) -> Self::State {
        self.0.initial_state()
    }

    fn step(&self, state: &Self::State, t: Time, rng: &mut SimRng) -> Self::State {
        self.0.step(state, t, rng)
    }

    // No step_batch override: the provided scalar loop is the point.
}

/// Wraps a model and meters invocations of `g` — the paper's cost unit
/// ("we measure the cost of the algorithm by the total number of
/// invocations of g").
///
/// The counter is a relaxed atomic so metered models stay `Sync` and can
/// be shared with pool helpers; the count is exact because each
/// increment is independent. Batched stepping pays **one** atomic
/// `add(k)` per batch call — a batch of `k` alive lanes counts exactly
/// `k` invocations of `g`, with none of the per-step cache-line traffic
/// the scalar path incurs.
pub struct StepCounter<M> {
    inner: M,
    count: AtomicU64,
}

impl<M: SimulationModel> StepCounter<M> {
    /// Wrap `inner`, starting the counter at zero.
    pub fn new(inner: M) -> Self {
        Self {
            inner,
            count: AtomicU64::new(0),
        }
    }

    /// Number of `g` invocations so far.
    pub fn steps(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Reset the counter to zero.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
    }

    /// Access the wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Meter one invocation of `g` (used by trait impls in other modules,
    /// e.g. the tilted stepping of `crate::is`).
    pub(crate) fn count_one(&self) {
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Meter `k` invocations of `g` with one atomic add.
    pub(crate) fn count_many(&self, k: u64) {
        self.count.fetch_add(k, Ordering::Relaxed);
    }
}

impl<M: SimulationModel> SimulationModel for StepCounter<M> {
    type State = M::State;

    fn initial_state(&self) -> Self::State {
        self.inner.initial_state()
    }

    fn step(&self, state: &Self::State, t: Time, rng: &mut SimRng) -> Self::State {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.inner.step(state, t, rng)
    }

    fn step_batch(
        &self,
        lanes: &mut [Self::State],
        ts: &[Time],
        rngs: &mut [SimRng],
        alive: &[usize],
    ) {
        // One atomic op per batch step, counting exactly the alive lanes;
        // forwards to the inner model so native kernels stay engaged.
        self.count.fetch_add(alive.len() as u64, Ordering::Relaxed);
        self.inner.step_batch(lanes, ts, rngs, alive);
    }
}

/// A recorded sample path: the sequence `x_0, x_1, ..., x_T` of one
/// simulation, plus its score trace. Returned by diagnostic utilities and
/// materialized into tables by `mlss-db`.
#[derive(Debug, Clone)]
pub struct SamplePath<S> {
    /// States, index `i` holding `x_i`.
    pub states: Vec<S>,
}

impl<S> SamplePath<S> {
    /// Length in time steps (number of transitions).
    pub fn len(&self) -> usize {
        self.states.len().saturating_sub(1)
    }

    /// True when the path holds only the initial state.
    pub fn is_empty(&self) -> bool {
        self.states.len() <= 1
    }

    /// Final state of the path.
    pub fn last(&self) -> Option<&S> {
        self.states.last()
    }
}

/// Simulate a full path of `horizon` steps from the initial state.
pub fn simulate_path<M: SimulationModel>(
    model: &M,
    horizon: Time,
    rng: &mut SimRng,
) -> SamplePath<M::State> {
    let mut states = Vec::with_capacity(horizon as usize + 1);
    let mut cur = model.initial_state();
    states.push(cur.clone());
    for t in 1..=horizon {
        cur = model.step(&cur, t, rng);
        states.push(cur.clone());
    }
    SamplePath { states }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;
    use rand::RngExt;

    /// A deterministic counting model used across core tests.
    pub(crate) struct CountUp;

    impl SimulationModel for CountUp {
        type State = u64;

        fn initial_state(&self) -> u64 {
            0
        }

        fn step(&self, state: &u64, _t: Time, _rng: &mut SimRng) -> u64 {
            state + 1
        }
    }

    struct NoisyWalk;

    impl SimulationModel for NoisyWalk {
        type State = f64;

        fn initial_state(&self) -> f64 {
            0.0
        }

        fn step(&self, state: &f64, _t: Time, rng: &mut SimRng) -> f64 {
            state + rng.random::<f64>() - 0.5
        }
    }

    #[test]
    fn step_counter_counts() {
        let m = StepCounter::new(CountUp);
        let mut rng = rng_from_seed(0);
        let p = simulate_path(&m, 10, &mut rng);
        assert_eq!(m.steps(), 10);
        assert_eq!(p.states.len(), 11);
        assert_eq!(*p.last().unwrap(), 10);
        m.reset();
        assert_eq!(m.steps(), 0);
    }

    #[test]
    fn simulate_path_is_reproducible() {
        let m = NoisyWalk;
        let a = simulate_path(&m, 50, &mut rng_from_seed(3));
        let b = simulate_path(&m, 50, &mut rng_from_seed(3));
        assert_eq!(a.states, b.states);
        let c = simulate_path(&m, 50, &mut rng_from_seed(4));
        assert_ne!(a.states, c.states);
    }

    #[test]
    fn empty_path_properties() {
        let m = CountUp;
        let p = simulate_path(&m, 0, &mut rng_from_seed(0));
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(*p.last().unwrap(), 0);
    }

    #[test]
    fn borrowed_model_is_a_model() {
        let m = CountUp;
        let r = &m;
        let p = simulate_path(&r, 3, &mut rng_from_seed(0));
        assert_eq!(*p.last().unwrap(), 3);
    }
}
