//! s-MLSS — simple Multi-Level Splitting Sampling (§3).
//!
//! The sampler simulates *root paths*; whenever a path first **lands in**
//! the next level `L_{i+1}` (the paper's `T_{i+1}`, which requires
//! `f(x_t) ∈ [β_{i+1}, β_{i+2})`), it splits into `r` independent
//! offspring continuing from the entrance state. The estimator is
//! `τ̂ = N_m / (N_0 · r^{m-1})` (Eq. 3), unbiased under the
//! *no level-skipping* assumption (Proposition 1); its variance is
//! estimated from per-root-path target-hit counts (Eq. 5-6).
//!
//! When the underlying process *can* skip levels, this sampler is exactly
//! the paper's "blindly applied s-MLSS": a path that jumps across a level
//! never lands in it, loses its splitting credit, and the estimate biases
//! low — reproduced in Table 6 and our `volatile_bias` integration test.
//! Use [`crate::gmlss`] for the general, always-unbiased sampler.

use crate::estimate::Estimate;
use crate::estimator::{run_sequential, ChunkOutcome, Diagnostics, Estimator, Ledger};
use crate::frontier::{run_frontier, RootKernel, SegmentStatus};
use crate::levels::PartitionPlan;
use crate::model::{SimulationModel, Time};
use crate::quality::RunControl;
use crate::query::{Problem, ValueFunction};
use crate::rng::{RootCursor, SimRng};
use crate::stats::HitMoments;

/// Configuration for the s-MLSS sampler.
#[derive(Debug, Clone)]
pub struct SMlssConfig {
    /// The level partition plan `B`.
    pub plan: PartitionPlan,
    /// Splitting ratio `r ≥ 1` (the paper fixes `r = 3` by default; `r = 1`
    /// degenerates to SRS).
    pub ratio: u32,
    /// Stopping criterion.
    pub control: RunControl,
}

impl SMlssConfig {
    /// Config with the paper's default ratio `r = 3`.
    pub fn new(plan: PartitionPlan, control: RunControl) -> Self {
        Self {
            plan,
            ratio: 3,
            control,
        }
    }

    /// Override the splitting ratio.
    pub fn with_ratio(mut self, ratio: u32) -> Self {
        assert!(ratio >= 1, "splitting ratio must be ≥ 1");
        self.ratio = ratio;
        self
    }
}

/// Per-level counters and result of an s-MLSS run.
#[derive(Debug, Clone)]
pub struct SMlssResult {
    /// Final estimate (Eq. 3 with Eq. 5-6 variance).
    pub estimate: Estimate,
    /// First-entrance counters `N_1 .. N_m` (`N_0` is `estimate.n_roots`).
    pub level_entries: Vec<u64>,
    /// Wall-clock simulation time.
    pub elapsed: std::time::Duration,
}

impl SMlssResult {
    /// Estimated level advancement probabilities `p̂_1 .. p̂_m`
    /// (`p̂_1 = N_1/N_0`, `p̂_{i+1} = N_{i+1}/(r·N_i)`).
    pub fn advancement_probabilities(&self, ratio: u32) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.level_entries.len());
        let mut prev = self.estimate.n_roots as f64;
        for (i, &n) in self.level_entries.iter().enumerate() {
            let denom = if i == 0 { prev } else { prev * ratio as f64 };
            out.push(if denom > 0.0 { n as f64 / denom } else { 0.0 });
            prev = n as f64;
        }
        out
    }
}

/// One pending path segment in the splitting tree.
pub(crate) struct Segment<S> {
    state: S,
    t: Time,
    level: usize,
}

/// Accumulated s-MLSS counters — the sampler's [`Ledger`].
#[derive(Debug, Clone)]
pub struct SMlssShard {
    m: usize,
    ratio: u32,
    /// First-entrance counters `N_1 .. N_m`.
    pub level_entries: Vec<u64>,
    moments: HitMoments,
    /// Root paths simulated (`N_0`).
    pub n_roots: u64,
    /// Target-level hits (`N_m`).
    pub hits: u64,
    /// `g` invocations spent.
    pub steps: u64,
}

impl SMlssShard {
    fn new(m: usize, ratio: u32) -> Self {
        Self {
            m,
            ratio,
            level_entries: vec![0; m],
            moments: HitMoments::new(),
            n_roots: 0,
            hits: 0,
            steps: 0,
        }
    }

    /// The estimate implied by the accumulated counters: Eq. 3 with the
    /// per-root-hit variance of Eq. 5-6.
    pub fn estimate(&self) -> Estimate {
        let scale = (self.ratio as f64).powi(self.m as i32 - 1);
        let (tau, variance) = if self.n_roots == 0 {
            (0.0, f64::INFINITY)
        } else {
            let n = self.n_roots as f64;
            (
                self.hits as f64 / (n * scale),
                self.moments.sample_variance() / (n * scale * scale),
            )
        };
        Estimate {
            tau,
            variance,
            n_roots: self.n_roots,
            steps: self.steps,
            hits: self.hits,
        }
    }
}

// Durability codec: geometry (`m`, `ratio`) plus every counter, so a
// restored shard merges and estimates exactly like the original.
impl crate::persist::Persist for SMlssShard {
    fn persist(&self, out: &mut Vec<u8>) {
        crate::persist::put_u64(out, self.m as u64);
        crate::persist::put_u32(out, self.ratio);
        crate::persist::put_u64s(out, &self.level_entries);
        self.moments.persist(out);
        crate::persist::put_u64(out, self.n_roots);
        crate::persist::put_u64(out, self.hits);
        crate::persist::put_u64(out, self.steps);
    }

    fn restore(r: &mut crate::persist::Reader<'_>) -> Result<Self, crate::persist::PersistError> {
        use crate::persist::PersistError;
        let m = r.u64()? as usize;
        let ratio = r.u32()?;
        let level_entries = r.u64s()?;
        if level_entries.len() != m {
            return Err(PersistError::Malformed("smlss level entries"));
        }
        Ok(Self {
            m,
            ratio,
            level_entries,
            moments: HitMoments::restore(r)?,
            n_roots: r.u64()?,
            hits: r.u64()?,
            steps: r.u64()?,
        })
    }
}

impl Ledger for SMlssShard {
    fn merge(&mut self, other: Self) {
        assert_eq!(self.m, other.m, "shard level counts must match");
        assert_eq!(self.ratio, other.ratio, "shard ratios must match");
        for (a, b) in self.level_entries.iter_mut().zip(&other.level_entries) {
            *a += b;
        }
        self.moments.merge(&other.moments);
        self.n_roots += other.n_roots;
        self.hits += other.hits;
        self.steps += other.steps;
    }

    fn n_roots(&self) -> u64 {
        self.n_roots
    }

    fn steps(&self) -> u64 {
        self.steps
    }
}

/// Frontier kernel for s-MLSS: a root is a full splitting tree, processed
/// segment-by-segment within one lane on a LIFO stack of pending
/// segments.
pub(crate) struct SMlssKernel<'a> {
    pub(crate) plan: &'a PartitionPlan,
    pub(crate) ratio: u32,
}

/// Per-root scratch for the s-MLSS kernel.
pub(crate) struct SMlssScratch<S> {
    stack: Vec<Segment<S>>,
    /// Watch level of the lane's current segment.
    watch: usize,
    /// First-entrance deltas `N_1 .. N_m` for this root.
    entries: Vec<u64>,
    /// Target hits of this root.
    hits: u32,
}

/// Everything one finished s-MLSS root commits.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct SMlssRoot {
    entries: Vec<u64>,
    hits: u32,
    steps: u64,
}

impl<'a, M, V> RootKernel<M, V> for SMlssKernel<'a>
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
{
    type Scratch = SMlssScratch<M::State>;
    type Outcome = SMlssRoot;
    type Shard = SMlssShard;

    fn new_scratch(&self) -> Self::Scratch {
        SMlssScratch {
            stack: Vec::new(),
            watch: 1,
            entries: vec![0; self.plan.num_levels()],
            hits: 0,
        }
    }

    fn begin_root(
        &self,
        problem: &Problem<'_, M, V>,
        scratch: &mut Self::Scratch,
    ) -> (M::State, Time) {
        let m = self.plan.num_levels();
        scratch.stack.clear();
        scratch.hits = 0;
        scratch.entries.clear();
        scratch.entries.resize(m, 0);

        let init = problem.model.initial_state();
        let init_level = self.plan.level_of(problem.value(&init)).min(m - 1);
        // A root born above L_0 is treated as having entered L_1..L_k at
        // t = 0, cascading the splits those entrances imply (multiplicity
        // r^k); the estimator's r^{m-1} hit multiplier stays exact. (The
        // paper assumes starts in L_0; this is the faithful generalization.)
        let mut mult: u64 = 1;
        for i in 1..=init_level {
            scratch.entries[i - 1] += mult;
            mult *= self.ratio as u64;
            assert!(
                mult <= 1_000_000,
                "initial value crosses too many levels for s-MLSS cascading"
            );
        }
        for _ in 0..mult - 1 {
            scratch.stack.push(Segment {
                state: init.clone(),
                t: 0,
                level: init_level,
            });
        }
        scratch.watch = init_level + 1;
        (init, 0)
    }

    /// A segment ends on entering exactly its watch level, which needs a
    /// value at or above that level's lower boundary.
    fn watch(&self, scratch: &Self::Scratch) -> f64 {
        self.plan.boundary(scratch.watch)
    }

    fn on_step(
        &self,
        scratch: &mut Self::Scratch,
        state: &M::State,
        v: f64,
        t: Time,
    ) -> SegmentStatus {
        let m = self.plan.num_levels();
        if self.plan.level_of(v) != scratch.watch {
            return SegmentStatus::Running;
        }
        if scratch.watch == m {
            scratch.hits += 1;
        } else {
            scratch.entries[scratch.watch - 1] += 1;
            for _ in 0..self.ratio {
                scratch.stack.push(Segment {
                    state: state.clone(),
                    t,
                    level: scratch.watch,
                });
            }
        }
        SegmentStatus::SegmentDone
    }

    fn next_segment(&self, scratch: &mut Self::Scratch) -> Option<(M::State, Time)> {
        let seg = scratch.stack.pop()?;
        scratch.watch = seg.level + 1;
        Some((seg.state, seg.t))
    }

    fn finish_root(&self, scratch: &mut Self::Scratch, steps: u64, out: &mut SMlssRoot) {
        out.entries.clear();
        out.entries.extend_from_slice(&scratch.entries);
        out.hits = scratch.hits;
        out.steps = steps;
    }

    fn commit(&self, shard: &mut SMlssShard, out: &SMlssRoot) {
        let m = shard.m;
        for (a, b) in shard.level_entries.iter_mut().zip(&out.entries) {
            *a += b;
        }
        shard.steps += out.steps;
        shard.hits += out.hits as u64;
        shard.n_roots += 1;
        if out.hits > 0 {
            shard.level_entries[m - 1] += out.hits as u64;
        }
        shard.moments.push(out.hits);
    }
}

impl<M, V> Estimator<M, V> for SMlssConfig
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
{
    type Shard = SMlssShard;

    fn name(&self) -> &'static str {
        "smlss"
    }

    fn shard(&self) -> SMlssShard {
        SMlssShard::new(self.plan.num_levels(), self.ratio)
    }

    fn run_chunk(
        &self,
        problem: Problem<'_, M, V>,
        shard: &mut SMlssShard,
        budget: u64,
        roots: &mut RootCursor,
        width: usize,
    ) -> ChunkOutcome {
        let kernel = SMlssKernel {
            plan: &self.plan,
            ratio: self.ratio,
        };
        run_frontier(&kernel, &problem, shard, budget, roots, width)
    }

    fn estimate(&self, shard: &SMlssShard, _rng: &mut SimRng) -> Estimate {
        shard.estimate()
    }

    fn diagnostics(&self, shard: &SMlssShard) -> Diagnostics {
        let mut details = Vec::new();
        let mut prev = shard.n_roots as f64;
        for (i, &n) in shard.level_entries.iter().enumerate() {
            let denom = if i == 0 {
                prev
            } else {
                prev * self.ratio as f64
            };
            let p = if denom > 0.0 { n as f64 / denom } else { 0.0 };
            details.push((format!("p_hat_{}", i + 1), p));
            prev = n as f64;
        }
        Diagnostics {
            estimator: "smlss",
            skip_events: 0,
            details,
        }
    }
}

/// The s-MLSS sampler.
#[derive(Debug, Clone)]
pub struct SMlssSampler {
    /// Sampler configuration.
    pub config: SMlssConfig,
}

impl SMlssSampler {
    /// Create a sampler.
    pub fn new(config: SMlssConfig) -> Self {
        assert!(config.ratio >= 1, "splitting ratio must be ≥ 1");
        Self { config }
    }

    /// Run to completion on [`run_sequential`].
    pub fn run<M, V>(&self, problem: Problem<'_, M, V>, rng: &mut SimRng) -> SMlssResult
    where
        M: SimulationModel,
        V: ValueFunction<M::State>,
    {
        let run = run_sequential(&self.config, problem, self.config.control, rng);
        SMlssResult {
            estimate: run.estimate,
            level_entries: run.shard.level_entries,
            elapsed: run.sim_elapsed + run.estimate_elapsed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::QualityTarget;
    use crate::query::RatioValue;
    use crate::rng::{rng_from_seed, RootCursor};
    use rand::RngExt;

    /// Simulate one s-MLSS root path (with its full splitting tree) into the
    /// shard — the scalar reference program `SMlssKernel` is pinned against.
    fn simulate_root<M, V>(
        problem: &Problem<'_, M, V>,
        plan: &PartitionPlan,
        r: u32,
        shard: &mut SMlssShard,
        stack: &mut Vec<Segment<M::State>>,
        rng: &mut SimRng,
    ) where
        M: SimulationModel,
        V: ValueFunction<M::State>,
    {
        let m = plan.num_levels();
        let init = problem.model.initial_state();
        let init_level = plan.level_of(problem.value(&init)).min(m - 1);
        let mut this_root_hits: u32 = 0;

        stack.clear();
        // Cascade for roots born above L_0 (see `SMlssKernel::begin_root`).
        let mut mult: u64 = 1;
        for i in 1..=init_level {
            shard.level_entries[i - 1] += mult;
            mult *= r as u64;
            assert!(
                mult <= 1_000_000,
                "initial value crosses too many levels for s-MLSS cascading"
            );
        }
        for _ in 0..mult {
            stack.push(Segment {
                state: init.clone(),
                t: 0,
                level: init_level,
            });
        }

        while let Some(seg) = stack.pop() {
            let mut state = seg.state;
            let watch = seg.level + 1; // the level we wait to land in
            for t in (seg.t + 1)..=problem.horizon {
                state = problem.model.step(&state, t, rng);
                shard.steps += 1;
                let f = problem.value(&state);
                if plan.level_of(f) == watch {
                    if watch == m {
                        // Target level reached.
                        shard.hits += 1;
                        this_root_hits += 1;
                    } else {
                        shard.level_entries[watch - 1] += 1;
                        for _ in 0..r {
                            stack.push(Segment {
                                state: state.clone(),
                                t,
                                level: watch,
                            });
                        }
                    }
                    break;
                }
            }
        }

        shard.n_roots += 1;
        if this_root_hits > 0 {
            shard.level_entries[m - 1] += this_root_hits as u64;
        }
        shard.moments.push(this_root_hits);
    }

    /// Additive random walk on [0, 1]: steps of ±1/k, never skips levels
    /// that are at least 1/k apart.
    struct FineWalk {
        k: u32,
        up: f64,
    }

    impl SimulationModel for FineWalk {
        type State = f64;

        fn initial_state(&self) -> f64 {
            0.0
        }

        fn step(&self, s: &f64, _t: Time, rng: &mut SimRng) -> f64 {
            let d = 1.0 / self.k as f64;
            if rng.random::<f64>() < self.up {
                (s + d).min(1.0)
            } else {
                (s - d).max(0.0)
            }
        }
    }

    #[allow(clippy::type_complexity)]
    fn walk_problem(_model: &FineWalk, horizon: Time) -> (RatioValue<fn(&f64) -> f64>, Time) {
        fn score(s: &f64) -> f64 {
            *s
        }
        (RatioValue::new(score as fn(&f64) -> f64, 1.0), horizon)
    }

    #[test]
    fn ratio_one_equals_srs_estimator() {
        let model = FineWalk { k: 8, up: 0.45 };
        let (vf, horizon) = walk_problem(&model, 60);
        let problem = Problem::new(&model, &vf, horizon);

        let plan = PartitionPlan::new(vec![0.25, 0.5, 0.75]).unwrap();
        let cfg = SMlssConfig::new(plan, RunControl::budget(200_000)).with_ratio(1);
        let res = SMlssSampler::new(cfg).run(problem, &mut rng_from_seed(7));

        // With r = 1, τ̂ = N_m / N_0 — the SRS form.
        let est = res.estimate;
        assert!(
            (est.tau - est.hits as f64 / est.n_roots as f64).abs() < 1e-15,
            "r=1 estimator must be N_m/N_0"
        );
        // And variance ≈ SRS binomial variance (sample vs population var
        // differ by n/(n-1)).
        let srs_var = est.tau * (1.0 - est.tau) / est.n_roots as f64;
        assert!(
            (est.variance - srs_var).abs() / srs_var < 0.01,
            "variance {} vs srs {}",
            est.variance,
            srs_var
        );
    }

    #[test]
    fn mlss_matches_srs_estimate_on_walk() {
        // Ground truth via brute-force SRS with a large budget; MLSS must
        // agree within combined CI.
        let model = FineWalk { k: 10, up: 0.5 };
        let (vf, horizon) = walk_problem(&model, 100);
        let problem = Problem::new(&model, &vf, horizon);

        let srs = crate::srs::SrsSampler::new(RunControl::budget(2_000_000))
            .run(problem, &mut rng_from_seed(1));

        let plan = PartitionPlan::new(vec![0.3, 0.6]).unwrap();
        let cfg = SMlssConfig::new(plan, RunControl::budget(2_000_000)).with_ratio(3);
        let mlss = SMlssSampler::new(cfg).run(problem, &mut rng_from_seed(2));

        let diff = (srs.estimate.tau - mlss.estimate.tau).abs();
        let tol = 3.0 * (srs.estimate.variance + mlss.estimate.variance).sqrt();
        assert!(
            diff <= tol.max(1e-3),
            "SRS {} vs MLSS {} (diff {diff}, tol {tol})",
            srs.estimate.tau,
            mlss.estimate.tau
        );
    }

    #[test]
    fn level_counters_consistent() {
        let model = FineWalk { k: 10, up: 0.55 };
        let (vf, horizon) = walk_problem(&model, 80);
        let problem = Problem::new(&model, &vf, horizon);
        let plan = PartitionPlan::new(vec![0.3, 0.6]).unwrap();
        let cfg = SMlssConfig::new(plan, RunControl::budget(50_000));
        let res = SMlssSampler::new(cfg).run(problem, &mut rng_from_seed(3));

        assert_eq!(res.level_entries.len(), 3);
        // N_m in counters equals hits in the estimate.
        assert_eq!(res.level_entries[2], res.estimate.hits);
        // Each split produces at most r offsprings' worth of next-level
        // entries: N_{i+1} ≤ r · N_i.
        assert!(res.level_entries[1] <= 3 * res.level_entries[0]);
        assert!(res.level_entries[2] <= 3 * res.level_entries[1]);
        // Advancement probabilities are valid probabilities.
        for p in res.advancement_probabilities(3) {
            assert!((0.0..=1.0).contains(&p), "p = {p}");
        }
    }

    #[test]
    fn quality_target_mode_reaches_re() {
        let model = FineWalk { k: 6, up: 0.5 };
        let (vf, horizon) = walk_problem(&model, 50);
        let problem = Problem::new(&model, &vf, horizon);
        let plan = PartitionPlan::new(vec![0.5]).unwrap();
        let cfg = SMlssConfig::new(
            plan,
            RunControl::Target {
                target: QualityTarget::RelativeError {
                    target: 0.2,
                    reference: None,
                },
                check_every: 128,
                max_steps: 50_000_000,
            },
        );
        let res = SMlssSampler::new(cfg).run(problem, &mut rng_from_seed(9));
        assert!(res.estimate.self_relative_error() <= 0.2);
    }

    #[test]
    #[should_panic]
    fn zero_ratio_rejected() {
        let cfg = SMlssConfig::new(PartitionPlan::trivial(), RunControl::budget(1)).with_ratio(0);
        let _ = SMlssSampler::new(cfg);
    }

    #[test]
    fn sampler_and_estimator_trait_agree_exactly() {
        // The scalar `simulate_root` (splitting stack included) and the
        // frontier's `SMlssKernel` are two implementations of the same
        // root program: pin them bit-exactly so they cannot drift. Each
        // reference root runs on stream `k` of the run key, as the
        // frontier's roots do. The sampler runs the kernel
        // through `run_sequential`.
        let model = FineWalk { k: 8, up: 0.52 };
        let (vf, horizon) = walk_problem(&model, 60);
        let problem = Problem::new(&model, &vf, horizon);
        let plan = PartitionPlan::new(vec![0.3, 0.6]).unwrap();
        let cfg = SMlssConfig::new(plan.clone(), RunControl::budget(40_000));
        let res = SMlssSampler::new(cfg).run(problem, &mut rng_from_seed(19));

        let roots = RootCursor::from_rng(&mut rng_from_seed(19));
        let mut shard = SMlssShard::new(plan.num_levels(), 3);
        let mut stack = Vec::new();
        while shard.steps < 40_000 {
            let mut rng = roots.stream(shard.n_roots);
            simulate_root(&problem, &plan, 3, &mut shard, &mut stack, &mut rng);
        }
        assert_eq!(shard.steps, res.estimate.steps);
        assert_eq!(shard.n_roots, res.estimate.n_roots);
        assert_eq!(shard.hits, res.estimate.hits);
        assert_eq!(shard.level_entries, res.level_entries);
        assert_eq!(
            shard.estimate().variance.to_bits(),
            res.estimate.variance.to_bits()
        );
    }
}
