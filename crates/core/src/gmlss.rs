//! g-MLSS — general Multi-Level Splitting Sampling (§4).
//!
//! g-MLSS removes s-MLSS's *no level-skipping* assumption. Boundary
//! crossings `U_i` replace level entrances `T_i`; the decomposition
//! `τ = Π π_i` with `π_i = Pr[Θ_i | Θ_{i-1}]` (Eq. 8) is assumption-free,
//! and each `π_{i+1}` is estimated by Eq. (9):
//!
//! ```text
//!            Σ_{h ∈ H_i} μ(h)  +  n_skip_i
//! π̂_{i+1} = --------------------------------
//!                |H_i|  +  n_skip_i
//! ```
//!
//! where `H_i` are split states that *landed* in `L_i`, `μ(h)` is the
//! fraction of `h`'s `r` offsprings that crossed `β_{i+1}`, and
//! `n_skip_i` counts paths that crossed `β_{i+1}` without ever landing in
//! `L_i`. The product estimator (Eq. 10) is unbiased in general
//! (Proposition 2).
//!
//! ### Lineage bookkeeping
//!
//! Every path segment tracks `crossed_max`, the highest boundary index its
//! lineage has crossed. A step that raises `level_of(f)` above
//! `crossed_max` is a *crossing event*: it (1) reports a crossing to the
//! parent split (the `μ` numerator), (2) increments `n_skip_i` for every
//! level `i` strictly between the old and new landing levels, and then
//! (3) either registers a target hit (landing level `m`) or lands, joins
//! `H_j`, and splits into `r` offsprings. A segment therefore has at most
//! one crossing event; paths that meander below `crossed_max` never
//! re-split at levels already credited.
//!
//! ### Execution spine
//!
//! The per-root simulation is one frontier kernel behind the chunked
//! [`Estimator`] implementation on [`GMlssConfig`]; every driver runs it
//! through that trait — [`GMlssSampler`] is [`run_sequential`] plus the
//! [`GMlssResult`] reshape, and the scheduler's slices and fanned-out
//! runs use the same chunks.

use crate::bootstrap::{bootstrap_variance, RootLedger};
use crate::estimate::Estimate;
use crate::estimator::{
    run_sequential, ChunkOutcome, Diagnostics, Estimator, EstimatorRun, Ledger,
};
use crate::frontier::{run_frontier, RootKernel, SegmentStatus};
use crate::levels::PartitionPlan;
use crate::model::{SimulationModel, Time};
use crate::quality::RunControl;
use crate::query::{Problem, ValueFunction};
use crate::rng::{RootCursor, SimRng};
use crate::stats::HitMoments;

/// How the sampler estimates the variance of `τ̂` for stopping decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarianceMode {
    /// Use the per-root-hit variance (Eq. 5-6) while no level skip has been
    /// observed — in that regime g-MLSS coincides with s-MLSS — and switch
    /// to bootstrapping as soon as a skip occurs. The practical default.
    Auto,
    /// Always use the per-root-hit variance (only sound without skips).
    PerRootHits,
    /// Always bootstrap (§4.2 "General Level-skipping and Bootstrapping").
    Bootstrap,
}

/// Configuration for the g-MLSS sampler.
#[derive(Debug, Clone)]
pub struct GMlssConfig {
    /// The level partition plan `B`.
    pub plan: PartitionPlan,
    /// Splitting ratio `r ≥ 1` applied at every split. (g-MLSS permits
    /// variable ratios; a fixed small `r` is the paper's recommended and
    /// evaluated setting, §5.)
    pub ratio: u32,
    /// Stopping criterion.
    pub control: RunControl,
    /// Variance estimation policy.
    pub variance: VarianceMode,
    /// Number of bootstrap resamples per variance evaluation.
    pub bootstrap_resamples: usize,
    /// Evaluate the bootstrap only every this-many quality checks — the
    /// paper's "run bootstrap evaluation conservatively" rule of thumb
    /// (§4.2). 1 = every check.
    pub bootstrap_every: u32,
    /// Retain the per-root ledger in the result (needed for post-hoc
    /// bootstrap analysis; the sampler itself always keeps it internally).
    pub keep_ledger: bool,
}

impl GMlssConfig {
    /// Config with the paper's defaults: `r = 3`, auto variance, 200
    /// bootstrap resamples, conservative (every 4th check) bootstrapping.
    pub fn new(plan: PartitionPlan, control: RunControl) -> Self {
        Self {
            plan,
            ratio: 3,
            control,
            variance: VarianceMode::Auto,
            bootstrap_resamples: 200,
            bootstrap_every: 4,
            keep_ledger: false,
        }
    }

    /// Override the splitting ratio.
    pub fn with_ratio(mut self, ratio: u32) -> Self {
        assert!(ratio >= 1, "splitting ratio must be ≥ 1");
        self.ratio = ratio;
        self
    }

    /// Override the variance mode.
    pub fn with_variance(mut self, mode: VarianceMode) -> Self {
        self.variance = mode;
        self
    }

    fn track_ledger(&self) -> bool {
        // The ledger is needed whenever a bootstrap may run (Bootstrap or
        // Auto modes) or the caller asked to keep it; in pure PerRootHits
        // mode we skip it entirely — long runs would otherwise hold one
        // record per root for no benefit.
        self.keep_ledger || self.variance != VarianceMode::PerRootHits
    }
}

/// Result of a g-MLSS run.
#[derive(Debug, Clone)]
pub struct GMlssResult {
    /// Final estimate (Eq. 10; variance per the configured policy).
    pub estimate: Estimate,
    /// Estimated `π̂_1 .. π̂_m` (Eq. 9) at completion.
    pub pi_hats: Vec<f64>,
    /// Aggregate landings `|H_i|` per level (index `i-1` holds level `i`).
    pub landings: Vec<u64>,
    /// Aggregate offspring crossings per level.
    pub crossings: Vec<u64>,
    /// Aggregate skip counts `n_skip_i` per level.
    pub skips: Vec<u64>,
    /// Total number of level-skip events observed (0 ⇒ s-MLSS regime).
    pub skip_events: u64,
    /// Sample variance of per-root target-hit counts, `Var(N_m⟨1⟩)` —
    /// the quantity the partition-plan evaluation (Eq. 15) needs.
    pub root_hit_variance: f64,
    /// Per-root ledger (present when `keep_ledger`).
    pub ledger: Option<RootLedger>,
    /// Wall-clock time spent simulating.
    pub sim_elapsed: std::time::Duration,
    /// Wall-clock time spent in bootstrap variance evaluations.
    pub bootstrap_elapsed: std::time::Duration,
}

impl From<EstimatorRun<GmlssShard>> for GMlssResult {
    /// The sampler-level result shape of a trait-level run (the ledger is
    /// kept whenever the shard tracked one).
    fn from(run: EstimatorRun<GmlssShard>) -> Self {
        let shard = run.shard;
        Self {
            estimate: run.estimate,
            pi_hats: shard.pi_hats(),
            landings: shard.landings_per_level(),
            crossings: shard.crossings_per_level(),
            skips: shard.skips_per_level(),
            skip_events: shard.skip_events,
            root_hit_variance: shard.root_hit_sample_variance(),
            ledger: shard.track_ledger.then_some(shard.ledger),
            sim_elapsed: run.sim_elapsed,
            bootstrap_elapsed: run.estimate_elapsed,
        }
    }
}

/// Accumulated g-MLSS counters — the sampler's [`Ledger`] shard.
///
/// Shards merge exactly (counter sums, moment merging, ledger
/// concatenation), so the root blocks a fanned-out run's helpers park
/// yield the same estimate a single sequential run over the union of
/// roots would.
#[derive(Debug, Clone)]
pub struct GmlssShard {
    m: usize,
    ratio: u32,
    track_ledger: bool,
    /// Per-root ledger (empty when ledger tracking is off).
    pub ledger: RootLedger,
    /// Landings `|H_i|` per level; index = level, slot 0 unused.
    landings: Vec<u64>,
    /// Offspring crossings per level; index = level, slot 0 unused.
    crossings: Vec<u64>,
    /// Skip counts `n_skip_i` per level; index = level, slot 0 unused.
    skips: Vec<u64>,
    /// Total level-skip events observed.
    pub skip_events: u64,
    moments: HitMoments,
    /// Root paths simulated (`N_0`).
    pub n_roots: u64,
    /// Target hits (`N_m`).
    pub hits: u64,
    /// `g` invocations spent.
    pub steps: u64,
    /// Quality checks performed so far (drives `bootstrap_every`).
    checks: u64,
    /// Variance from the most recent bootstrap evaluation (∞ before the
    /// first one). Check-state only — not part of the merged statistics.
    cached_variance: f64,
}

impl GmlssShard {
    pub(crate) fn new(m: usize, ratio: u32, track_ledger: bool) -> Self {
        assert!(m >= 1);
        Self {
            m,
            ratio,
            track_ledger,
            ledger: RootLedger::new(m),
            landings: vec![0; m],
            crossings: vec![0; m],
            skips: vec![0; m],
            skip_events: 0,
            moments: HitMoments::new(),
            n_roots: 0,
            hits: 0,
            steps: 0,
            checks: 0,
            cached_variance: f64::INFINITY,
        }
    }

    /// The point estimate `τ̂` (Eq. 10) over the accumulated counters.
    pub fn tau(&self) -> f64 {
        if self.n_roots == 0 {
            0.0
        } else if self.m == 1 {
            // Trivial plan: no interior boundary, so g-MLSS degenerates to
            // SRS labelling of root paths.
            self.hits as f64 / self.n_roots as f64
        } else {
            estimator(
                self.m,
                self.ratio,
                self.n_roots,
                &self.landings,
                &self.crossings,
                &self.skips,
            )
            .0
        }
    }

    /// `π̂_1 .. π̂_m` (Eq. 9).
    pub fn pi_hats(&self) -> Vec<f64> {
        if self.m == 1 {
            vec![self.tau()]
        } else {
            pi_estimates(
                self.m,
                self.ratio,
                self.n_roots,
                &self.landings,
                &self.crossings,
                &self.skips,
            )
        }
    }

    /// Per-root-hit variance of `τ̂` (Eq. 5-6) — sound only in the
    /// no-skip regime. `∞` before the first root.
    pub fn per_root_hit_variance(&self) -> f64 {
        if self.n_roots == 0 {
            return f64::INFINITY;
        }
        let scale = (self.ratio as f64).powi(self.m as i32 - 1);
        self.moments.sample_variance() / (self.n_roots as f64 * scale * scale)
    }

    /// Sample variance of per-root target-hit counts (`Var(N_m⟨1⟩)`).
    pub fn root_hit_sample_variance(&self) -> f64 {
        self.moments.sample_variance()
    }

    /// Aggregate landings for levels `1..m` (the [`GMlssResult`] layout).
    pub fn landings_per_level(&self) -> Vec<u64> {
        self.landings[1..].to_vec()
    }

    /// Aggregate offspring crossings for levels `1..m`.
    pub fn crossings_per_level(&self) -> Vec<u64> {
        self.crossings[1..].to_vec()
    }

    /// Aggregate skip counts for levels `1..m`.
    pub fn skips_per_level(&self) -> Vec<u64> {
        self.skips[1..].to_vec()
    }

    /// Final-quality estimate under the given variance policy: bootstrap
    /// when skips were observed (and the policy allows), per-root-hit
    /// variance otherwise.
    pub fn estimate(&self, mode: VarianceMode, resamples: usize, rng: &mut SimRng) -> Estimate {
        let variance = if self.n_roots < 2 {
            f64::INFINITY
        } else {
            let bootstrap_needed = match mode {
                VarianceMode::PerRootHits => false,
                VarianceMode::Bootstrap => true,
                VarianceMode::Auto => self.skip_events > 0,
            };
            if bootstrap_needed && self.track_ledger {
                bootstrap_variance(&self.ledger, resamples, self.ratio, rng)
            } else {
                self.per_root_hit_variance()
            }
        };
        Estimate {
            tau: self.tau(),
            variance,
            n_roots: self.n_roots,
            steps: self.steps,
            hits: self.hits,
        }
    }
}

// Durability codec. The check-state fields (`checks`,
// `cached_variance`) are included: a resumed target-mode run must keep
// the original bootstrap cadence, or its quality checks would diverge
// from an uninterrupted run's.
impl crate::persist::Persist for GmlssShard {
    fn persist(&self, out: &mut Vec<u8>) {
        crate::persist::put_u64(out, self.m as u64);
        crate::persist::put_u32(out, self.ratio);
        crate::persist::put_u8(out, self.track_ledger as u8);
        self.ledger.persist(out);
        crate::persist::put_u64s(out, &self.landings);
        crate::persist::put_u64s(out, &self.crossings);
        crate::persist::put_u64s(out, &self.skips);
        crate::persist::put_u64(out, self.skip_events);
        self.moments.persist(out);
        crate::persist::put_u64(out, self.n_roots);
        crate::persist::put_u64(out, self.hits);
        crate::persist::put_u64(out, self.steps);
        crate::persist::put_u64(out, self.checks);
        crate::persist::put_f64(out, self.cached_variance);
    }

    fn restore(r: &mut crate::persist::Reader<'_>) -> Result<Self, crate::persist::PersistError> {
        use crate::persist::PersistError;
        let m = r.u64()? as usize;
        let ratio = r.u32()?;
        let track_ledger = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(PersistError::Malformed("gmlss ledger flag")),
        };
        let ledger = RootLedger::restore(r)?;
        let landings = r.u64s()?;
        let crossings = r.u64s()?;
        let skips = r.u64s()?;
        if m < 1
            || landings.len() != m
            || crossings.len() != m
            || skips.len() != m
            || ledger.num_levels() != m
        {
            return Err(PersistError::Malformed("gmlss shard geometry"));
        }
        let skip_events = r.u64()?;
        let moments = HitMoments::restore(r)?;
        let n_roots = r.u64()?;
        if track_ledger && ledger.n_roots() as u64 != n_roots {
            return Err(PersistError::Malformed("gmlss ledger root count"));
        }
        Ok(Self {
            m,
            ratio,
            track_ledger,
            ledger,
            landings,
            crossings,
            skips,
            skip_events,
            moments,
            n_roots,
            hits: r.u64()?,
            steps: r.u64()?,
            checks: r.u64()?,
            cached_variance: r.f64()?,
        })
    }
}

impl Ledger for GmlssShard {
    fn merge(&mut self, other: Self) {
        assert_eq!(self.m, other.m, "shard level counts must match");
        assert_eq!(self.ratio, other.ratio, "shard ratios must match");
        self.ledger.merge(&other.ledger);
        for (a, b) in self.landings.iter_mut().zip(&other.landings) {
            *a += b;
        }
        for (a, b) in self.crossings.iter_mut().zip(&other.crossings) {
            *a += b;
        }
        for (a, b) in self.skips.iter_mut().zip(&other.skips) {
            *a += b;
        }
        self.skip_events += other.skip_events;
        self.moments.merge(&other.moments);
        self.n_roots += other.n_roots;
        self.hits += other.hits;
        self.steps += other.steps;
        // The check state (`checks`, `cached_variance`) is the receiving
        // run's: a run that folds roots in by merge must check exactly
        // like one that commits them in place.
    }

    fn n_roots(&self) -> u64 {
        self.n_roots
    }

    fn steps(&self) -> u64 {
        self.steps
    }
}

struct Segment<S> {
    state: S,
    t: Time,
    /// Highest boundary index this lineage has crossed.
    crossed_max: usize,
    /// Index of the parent split event in the per-root scratch, if any.
    parent: Option<usize>,
}

/// Scratch state for one split event during a root simulation.
struct SplitEvent {
    level: usize,
    crossed: u32,
}

/// Frontier kernel for g-MLSS: one lane carries one root's whole
/// splitting tree on a LIFO stack of pending segments; per-root counter
/// deltas and the ledger record are buffered in scratch and folded into
/// the shard in root order at commit time.
pub(crate) struct GMlssKernel<'a> {
    plan: &'a PartitionPlan,
    ratio: u32,
    track_ledger: bool,
}

/// Per-root scratch for the g-MLSS kernel.
pub(crate) struct GMlssScratch<S> {
    stack: Vec<Segment<S>>,
    /// `crossed_max` of the lane's current segment.
    crossed_max: usize,
    /// Parent split-event index of the current segment.
    parent: Option<usize>,
    events: Vec<SplitEvent>,
    landings: Vec<u64>,
    skips: Vec<u64>,
    skip_events: u64,
    hits: u32,
    /// Ledger record (layout of [`RootLedger`]): landings `0..m`,
    /// crossings `m..2m`, skips `2m..3m`, hits at `3m`.
    rec: Vec<u32>,
}

/// Everything one finished g-MLSS root commits.
pub(crate) struct GMlssRoot {
    landings: Vec<u64>,
    crossings: Vec<u64>,
    skips: Vec<u64>,
    skip_events: u64,
    hits: u32,
    steps: u64,
    rec: Option<Vec<u32>>,
}

impl<'a, M, V> RootKernel<M, V> for GMlssKernel<'a>
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
{
    type Scratch = GMlssScratch<M::State>;
    type Outcome = GMlssRoot;
    type Shard = GmlssShard;

    fn new_scratch(&self) -> Self::Scratch {
        let m = self.plan.num_levels();
        GMlssScratch {
            stack: Vec::new(),
            crossed_max: 0,
            parent: None,
            events: Vec::new(),
            landings: vec![0; m],
            skips: vec![0; m],
            skip_events: 0,
            hits: 0,
            // The ledger record costs per-root work; only carry it when
            // the shard actually tracks a ledger.
            rec: if self.track_ledger {
                vec![0; 3 * m + 1]
            } else {
                Vec::new()
            },
        }
    }

    fn begin_root(
        &self,
        problem: &Problem<'_, M, V>,
        scratch: &mut Self::Scratch,
    ) -> (M::State, Time) {
        let m = self.plan.num_levels();
        let r = self.ratio;
        scratch.stack.clear();
        scratch.events.clear();
        scratch.skip_events = 0;
        scratch.hits = 0;
        scratch.landings.clear();
        scratch.landings.resize(m, 0);
        scratch.skips.clear();
        scratch.skips.resize(m, 0);
        if self.track_ledger {
            scratch.rec.clear();
            scratch.rec.resize(3 * m + 1, 0);
        }

        let init = problem.model.initial_state();
        // Clamp to m-1: the durability query counts t ≥ 1, so a start at the
        // target is *not* an instant hit — the root watches for (re-)crossing
        // β_m from its birth level.
        let init_level = self.plan.level_of(problem.value(&init)).min(m - 1);
        if init_level == 0 {
            scratch.crossed_max = 0;
            scratch.parent = None;
            return (init, 0);
        }
        // The root starts above L_0 (its value already crosses β_1..β_k at
        // t = 0). Treat t = 0 like any crossing event: the levels jumped
        // over get skip credit, and the root lands (and splits) in its
        // starting level. The telescoped estimator then yields π̂_i = 1
        // for the pre-crossed levels — exactly the conditional-probability
        // semantics of Eq. 8. The per-root-hit variance shortcut is
        // invalid in this regime (hit multiplicity is no longer r^{m-1}),
        // so the pre-crossings count as skip events, pushing Auto mode
        // onto the bootstrap.
        if init_level > 1 {
            scratch.skip_events += 1;
        }
        for i in 1..init_level.min(m) {
            if self.track_ledger {
                scratch.rec[2 * m + i] += 1;
            }
            scratch.skips[i] += 1;
        }
        if self.track_ledger {
            scratch.rec[init_level] += 1;
        }
        scratch.landings[init_level] += 1;
        scratch.events.push(SplitEvent {
            level: init_level,
            crossed: 0,
        });
        for _ in 0..r - 1 {
            scratch.stack.push(Segment {
                state: init.clone(),
                t: 0,
                crossed_max: init_level,
                parent: Some(0),
            });
        }
        scratch.crossed_max = init_level;
        scratch.parent = Some(0);
        (init, 0)
    }

    fn on_step(
        &self,
        problem: &Problem<'_, M, V>,
        scratch: &mut Self::Scratch,
        state: &M::State,
        t: Time,
    ) -> SegmentStatus {
        let m = self.plan.num_levels();
        let lvl = self.plan.level_of(problem.value(state));
        if lvl <= scratch.crossed_max {
            return SegmentStatus::Running;
        }
        // Crossing event (at most one per segment).
        if let Some(pi) = scratch.parent {
            scratch.events[pi].crossed += 1;
        }
        if lvl - scratch.crossed_max > 1 {
            scratch.skip_events += 1;
        }
        for i in (scratch.crossed_max + 1)..lvl {
            if self.track_ledger {
                scratch.rec[2 * m + i] += 1;
            }
            scratch.skips[i] += 1;
        }
        if lvl == m {
            scratch.hits += 1;
        } else {
            if self.track_ledger {
                scratch.rec[lvl] += 1;
            }
            scratch.landings[lvl] += 1;
            let ei = scratch.events.len();
            scratch.events.push(SplitEvent {
                level: lvl,
                crossed: 0,
            });
            for _ in 0..self.ratio {
                scratch.stack.push(Segment {
                    state: state.clone(),
                    t,
                    crossed_max: lvl,
                    parent: Some(ei),
                });
            }
        }
        SegmentStatus::SegmentDone
    }

    fn next_segment(&self, scratch: &mut Self::Scratch) -> Option<(M::State, Time)> {
        let seg = scratch.stack.pop()?;
        scratch.crossed_max = seg.crossed_max;
        scratch.parent = seg.parent;
        Some((seg.state, seg.t))
    }

    fn finish_root(&self, scratch: &mut Self::Scratch, steps: u64) -> GMlssRoot {
        let m = self.plan.num_levels();
        let mut crossings = vec![0u64; m];
        for ev in &scratch.events {
            if self.track_ledger {
                scratch.rec[m + ev.level] += ev.crossed;
            }
            crossings[ev.level] += ev.crossed as u64;
        }
        let rec = self.track_ledger.then(|| {
            scratch.rec[3 * m] = scratch.hits;
            std::mem::take(&mut scratch.rec)
        });
        GMlssRoot {
            landings: std::mem::take(&mut scratch.landings),
            crossings,
            skips: std::mem::take(&mut scratch.skips),
            skip_events: scratch.skip_events,
            hits: scratch.hits,
            steps,
            rec,
        }
    }

    fn commit(&self, shard: &mut GmlssShard, out: GMlssRoot) {
        for (a, b) in shard.landings.iter_mut().zip(&out.landings) {
            *a += b;
        }
        for (a, b) in shard.crossings.iter_mut().zip(&out.crossings) {
            *a += b;
        }
        for (a, b) in shard.skips.iter_mut().zip(&out.skips) {
            *a += b;
        }
        shard.skip_events += out.skip_events;
        shard.hits += out.hits as u64;
        shard.steps += out.steps;
        if let Some(rec) = out.rec {
            if shard.track_ledger {
                shard.ledger.push_record(&rec);
            }
        }
        shard.moments.push(out.hits);
        shard.n_roots += 1;
    }
}

impl<M, V> Estimator<M, V> for GMlssConfig
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
{
    type Shard = GmlssShard;

    fn name(&self) -> &'static str {
        "gmlss"
    }

    fn shard(&self) -> GmlssShard {
        GmlssShard::new(self.plan.num_levels(), self.ratio, self.track_ledger())
    }

    fn run_chunk(
        &self,
        problem: Problem<'_, M, V>,
        shard: &mut GmlssShard,
        budget: u64,
        roots: &mut RootCursor,
        width: usize,
    ) -> ChunkOutcome {
        let kernel = GMlssKernel {
            plan: &self.plan,
            ratio: self.ratio,
            track_ledger: shard.track_ledger,
        };
        run_frontier(&kernel, &problem, shard, budget, roots, width)
    }

    fn estimate(&self, shard: &GmlssShard, rng: &mut SimRng) -> Estimate {
        shard.estimate(self.variance, self.bootstrap_resamples, rng)
    }

    /// In-flight stopping checks honor `bootstrap_every` (the paper's
    /// "run bootstrap evaluation conservatively" rule, §4.2): the
    /// expensive bootstrap runs only every `bootstrap_every`-th check and
    /// its result is cached in the shard, mirroring [`GMlssSampler`]'s
    /// running-variance behavior. The final estimate (from
    /// [`Estimator::estimate`]) always re-evaluates in full.
    fn check_estimate(&self, shard: &mut GmlssShard, rng: &mut SimRng) -> Estimate {
        let bootstrap_needed = match self.variance {
            VarianceMode::PerRootHits => false,
            VarianceMode::Bootstrap => true,
            VarianceMode::Auto => shard.skip_events > 0,
        };
        let variance = if !bootstrap_needed {
            if shard.n_roots == 0 {
                f64::INFINITY
            } else {
                shard.per_root_hit_variance()
            }
        } else {
            shard.checks += 1;
            if shard
                .checks
                .is_multiple_of(self.bootstrap_every.max(1) as u64)
                && shard.n_roots >= 2
                && shard.track_ledger
            {
                shard.cached_variance =
                    bootstrap_variance(&shard.ledger, self.bootstrap_resamples, shard.ratio, rng);
            }
            shard.cached_variance
        };
        Estimate {
            tau: shard.tau(),
            variance,
            n_roots: shard.n_roots,
            steps: shard.steps,
            hits: shard.hits,
        }
    }

    fn diagnostics(&self, shard: &GmlssShard) -> Diagnostics {
        let mut details: Vec<(String, f64)> = shard
            .pi_hats()
            .into_iter()
            .enumerate()
            .map(|(i, p)| (format!("pi_hat_{}", i + 1), p))
            .collect();
        details.push((
            "root_hit_variance".to_string(),
            shard.root_hit_sample_variance(),
        ));
        Diagnostics {
            estimator: "gmlss",
            skip_events: shard.skip_events,
            details,
        }
    }
}

/// The g-MLSS sampler.
#[derive(Debug, Clone)]
pub struct GMlssSampler {
    /// Sampler configuration.
    pub config: GMlssConfig,
}

impl GMlssSampler {
    /// Create a sampler.
    pub fn new(config: GMlssConfig) -> Self {
        assert!(config.ratio >= 1, "splitting ratio must be ≥ 1");
        assert!(config.bootstrap_resamples >= 2, "need ≥ 2 resamples");
        assert!(config.bootstrap_every >= 1, "bootstrap cadence must be ≥ 1");
        Self { config }
    }

    /// Run to completion on [`run_sequential`].
    pub fn run<M, V>(&self, problem: Problem<'_, M, V>, rng: &mut SimRng) -> GMlssResult
    where
        M: SimulationModel,
        V: ValueFunction<M::State>,
    {
        let mut result = GMlssResult::from(run_sequential(
            &self.config,
            problem,
            self.config.control,
            rng,
        ));
        if !self.config.keep_ledger {
            result.ledger = None;
        }
        result
    }
}

/// Compute `π̂_1..π̂_m` from aggregate counters (Eq. 9).
///
/// Index convention: `landings[i]`, `crossings[i]`, `skips[i]` are the
/// counters for level `i` (index 0 unused — no splits happen in `L_0`).
pub(crate) fn pi_estimates(
    m: usize,
    r: u32,
    n_roots: u64,
    landings: &[u64],
    crossings: &[u64],
    skips: &[u64],
) -> Vec<f64> {
    let mut pis = Vec::with_capacity(m);
    // π̂_1: fraction of roots that crossed β_1. Roots either land in L_1
    // (→ landings[1]) or skip past it (→ skips[1]); both crossed β_1.
    let pi1 = if n_roots == 0 {
        0.0
    } else if m == 1 {
        // Single level: crossing β_1 *is* hitting the target; landings and
        // skips are both empty, so π̂_1 is computed by the caller from hits
        // directly — signalled here with the crossings of level 0 slot.
        // (Handled in `estimator`.)
        f64::NAN
    } else {
        (landings[1] + skips[1]) as f64 / n_roots as f64
    };
    pis.push(pi1);
    // π̂_{i+1} for i = 1..m-1.
    for i in 1..m {
        let denom = (landings[i] + skips[i]) as f64;
        let num = crossings[i] as f64 / r as f64 + skips[i] as f64;
        pis.push(if denom > 0.0 { num / denom } else { 0.0 });
    }
    pis
}

/// The g-MLSS estimator `τ̂ = Π π̂_i` (Eq. 10). Returns `(τ̂, π̂s)`.
pub(crate) fn estimator(
    m: usize,
    r: u32,
    n_roots: u64,
    landings: &[u64],
    crossings: &[u64],
    skips: &[u64],
) -> (f64, Vec<f64>) {
    if n_roots == 0 {
        return (0.0, vec![0.0; m]);
    }
    if m == 1 {
        // Degenerate single-level plan: every root is simply labelled by
        // whether it crossed β_1 = 1, i.e. SRS. Landing/skip slots are
        // empty; hits were accumulated by the caller, which special-cases
        // m == 1 (see `GmlssShard::tau`).
        return (f64::NAN, vec![f64::NAN]);
    }
    let pis = pi_estimates(m, r, n_roots, landings, crossings, skips);
    (pis.iter().product(), pis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::RatioValue;
    use crate::rng::{rng_from_seed, RootCursor};
    use rand::RngExt;

    /// Simulate one g-MLSS root path (with its full splitting tree) into the
    /// shard — the scalar reference program `GMlssKernel` is pinned against.
    /// `stack` and `events` are reusable scratch buffers.
    fn simulate_root<M, V>(
        problem: &Problem<'_, M, V>,
        plan: &PartitionPlan,
        shard: &mut GmlssShard,
        stack: &mut Vec<Segment<M::State>>,
        events: &mut Vec<SplitEvent>,
        rng: &mut SimRng,
    ) where
        M: SimulationModel,
        V: ValueFunction<M::State>,
    {
        let m = shard.m;
        let r = shard.ratio;
        let track_ledger = shard.track_ledger;
        events.clear();
        stack.clear();
        let mut root_hits: u32 = 0;

        let init = problem.model.initial_state();
        // Birth-level semantics as in `GMlssKernel::begin_root`.
        let init_level = plan.level_of(problem.value(&init)).min(m - 1);
        if init_level == 0 {
            stack.push(Segment {
                state: init,
                t: 0,
                crossed_max: 0,
                parent: None,
            });
        } else {
            if init_level > 1 {
                shard.skip_events += 1;
            }
            for i in 1..init_level.min(m) {
                if track_ledger {
                    shard.ledger.bump_skip(i);
                }
                shard.skips[i] += 1;
            }
            if track_ledger {
                shard.ledger.bump_landing(init_level);
            }
            shard.landings[init_level] += 1;
            let ei = events.len();
            events.push(SplitEvent {
                level: init_level,
                crossed: 0,
            });
            for _ in 0..r {
                stack.push(Segment {
                    state: init.clone(),
                    t: 0,
                    crossed_max: init_level,
                    parent: Some(ei),
                });
            }
        }

        while let Some(seg) = stack.pop() {
            let mut state = seg.state;
            for t in (seg.t + 1)..=problem.horizon {
                state = problem.model.step(&state, t, rng);
                shard.steps += 1;
                let lvl = plan.level_of(problem.value(&state));
                if lvl <= seg.crossed_max {
                    continue;
                }
                // Crossing event.
                if let Some(pi) = seg.parent {
                    events[pi].crossed += 1;
                }
                if lvl - seg.crossed_max > 1 {
                    shard.skip_events += 1;
                }
                // Levels crossed over without landing: n_skip_i for
                // i in (crossed_max, lvl).
                for i in (seg.crossed_max + 1)..lvl {
                    if track_ledger {
                        shard.ledger.bump_skip(i);
                    }
                    shard.skips[i] += 1;
                }
                if lvl == m {
                    shard.hits += 1;
                    root_hits += 1;
                } else {
                    if track_ledger {
                        shard.ledger.bump_landing(lvl);
                    }
                    shard.landings[lvl] += 1;
                    let ei = events.len();
                    events.push(SplitEvent {
                        level: lvl,
                        crossed: 0,
                    });
                    for _ in 0..r {
                        stack.push(Segment {
                            state: state.clone(),
                            t,
                            crossed_max: lvl,
                            parent: Some(ei),
                        });
                    }
                }
                break;
            }
        }

        for ev in events.iter() {
            if track_ledger {
                shard.ledger.add_crossings(ev.level, ev.crossed);
            }
            shard.crossings[ev.level] += ev.crossed as u64;
        }
        if track_ledger {
            shard.ledger.commit_root(root_hits);
        }
        shard.moments.push(root_hits);
        shard.n_roots += 1;
    }

    /// Walk with occasional large jumps — guaranteed level skipping.
    struct JumpyWalk {
        step: f64,
        jump_p: f64,
        jump: f64,
    }

    impl SimulationModel for JumpyWalk {
        type State = f64;

        fn initial_state(&self) -> f64 {
            0.0
        }

        fn step(&self, s: &f64, _t: Time, rng: &mut SimRng) -> f64 {
            let mut v = if rng.random::<f64>() < 0.5 {
                s + self.step
            } else {
                s - self.step
            };
            if rng.random::<f64>() < self.jump_p {
                v += self.jump;
            }
            v.clamp(0.0, 1.0)
        }
    }

    fn vf() -> RatioValue<fn(&f64) -> f64> {
        fn score(s: &f64) -> f64 {
            *s
        }
        RatioValue::new(score as fn(&f64) -> f64, 1.0)
    }

    #[test]
    fn pi_estimates_no_skip_match_smlss_form() {
        // Hand-built counters, no skips: the product must reduce to
        // N_m / (N_0 r^{m-1}).
        let m = 3;
        let r = 3;
        let n0 = 100;
        // 40 roots land in L_1; their 120 offsprings produce 60 crossings
        // of β_2; 60 landings in L_2; 180 offsprings produce 45 crossings
        // of β_3 = target.
        let landings = vec![0, 40, 60];
        let crossings = vec![0, 60, 45];
        let skips = vec![0, 0, 0];
        let (tau, pis) = estimator(m, r, n0, &landings, &crossings, &skips);
        assert!((pis[0] - 0.4).abs() < 1e-12);
        assert!((pis[1] - 60.0 / (3.0 * 40.0)).abs() < 1e-12);
        assert!((pis[2] - 45.0 / (3.0 * 60.0)).abs() < 1e-12);
        let smlss_form = 45.0 / (n0 as f64 * (r as f64).powi(m as i32 - 1));
        assert!((tau - smlss_form).abs() < 1e-12, "{tau} vs {smlss_form}");
    }

    #[test]
    fn pi_estimates_with_skips() {
        // Two levels (m = 2). 10 roots land in L_1, 5 skip straight over
        // it (crossing β_2 = target). Of the 10 splits × r = 3 offsprings,
        // 6 crossed the target boundary.
        let m = 2;
        let r = 3;
        let n0 = 100;
        let landings = vec![0, 10];
        let crossings = vec![0, 6];
        let skips = vec![0, 5];
        let (tau, pis) = estimator(m, r, n0, &landings, &crossings, &skips);
        assert!((pis[0] - 15.0 / 100.0).abs() < 1e-12);
        assert!((pis[1] - (2.0 + 5.0) / 15.0).abs() < 1e-12);
        assert!((tau - 0.15 * (7.0 / 15.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_run_estimates_zero() {
        let (tau, _) = estimator(3, 3, 0, &[0, 0, 0], &[0, 0, 0], &[0, 0, 0]);
        assert_eq!(tau, 0.0);
    }

    #[test]
    fn no_crossers_gives_zero() {
        let (tau, pis) = estimator(3, 3, 50, &[0, 0, 0], &[0, 0, 0], &[0, 0, 0]);
        assert_eq!(tau, 0.0);
        assert_eq!(pis[0], 0.0);
    }

    #[test]
    fn gmlss_agrees_with_srs_on_jumpy_walk() {
        let model = JumpyWalk {
            step: 0.05,
            jump_p: 0.02,
            jump: 0.5,
        };
        let v = vf();
        let problem = Problem::new(&model, &v, 40);

        let srs = crate::srs::SrsSampler::new(RunControl::budget(3_000_000))
            .run(problem, &mut rng_from_seed(21));

        let plan = PartitionPlan::new(vec![0.3, 0.6]).unwrap();
        let cfg = GMlssConfig::new(plan, RunControl::budget(3_000_000));
        let g = GMlssSampler::new(cfg).run(problem, &mut rng_from_seed(22));

        assert!(g.skip_events > 0, "test requires observed skipping");
        let diff = (srs.estimate.tau - g.estimate.tau).abs();
        let tol = 4.0 * (srs.estimate.variance.max(0.0) + g.estimate.variance.max(0.0)).sqrt();
        assert!(
            diff <= tol.max(2e-3),
            "SRS {} vs g-MLSS {} (diff {diff}, tol {tol})",
            srs.estimate.tau,
            g.estimate.tau
        );
    }

    #[test]
    fn gmlss_counters_are_consistent() {
        let model = JumpyWalk {
            step: 0.08,
            jump_p: 0.05,
            jump: 0.4,
        };
        let v = vf();
        let problem = Problem::new(&model, &v, 30);
        let plan = PartitionPlan::new(vec![0.25, 0.5, 0.75]).unwrap();
        let mut cfg = GMlssConfig::new(plan, RunControl::budget(200_000));
        cfg.keep_ledger = true;
        let res = GMlssSampler::new(cfg).run(problem, &mut rng_from_seed(5));

        // Offspring crossings can't exceed r × landings at that level.
        for (i, (&c, &l)) in res.crossings.iter().zip(res.landings.iter()).enumerate() {
            assert!(
                c <= 3 * l,
                "level {}: crossings {c} > 3·landings {l}",
                i + 1
            );
        }
        // π̂ are probabilities.
        for &p in &res.pi_hats {
            assert!((0.0..=1.0).contains(&p), "π̂ = {p}");
        }
        // Ledger aggregates match global counters.
        let ledger = res.ledger.unwrap();
        assert_eq!(ledger.n_roots() as u64, res.estimate.n_roots);
        let agg = ledger.aggregate();
        assert_eq!(&agg.landings[1..], res.landings.as_slice());
        assert_eq!(&agg.crossings[1..], res.crossings.as_slice());
        assert_eq!(&agg.skips[1..], res.skips.as_slice());
    }

    #[test]
    fn restore_rejects_a_ledger_that_disagrees_with_the_shard_root_count() {
        use crate::persist::{Persist, Reader};
        let mut shard = GmlssShard::new(2, 3, true);
        shard.ledger.commit_root(0);
        shard.n_roots = 1;
        let mut bytes = Vec::new();
        shard.persist(&mut bytes);
        assert!(GmlssShard::restore(&mut Reader::new(&bytes)).is_ok());

        shard.n_roots = 2;
        bytes.clear();
        shard.persist(&mut bytes);
        assert!(GmlssShard::restore(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn gmlss_without_jumps_sees_no_skips() {
        let model = JumpyWalk {
            step: 0.05,
            jump_p: 0.0,
            jump: 0.0,
        };
        let v = vf();
        let problem = Problem::new(&model, &v, 40);
        let plan = PartitionPlan::new(vec![0.25, 0.5, 0.75]).unwrap();
        // Every variance policy reports a finite variance in budget mode,
        // bootstrap included: no skip means no quality check ever ran,
        // and the closing estimate still evaluates the bootstrap.
        for mode in [VarianceMode::Auto, VarianceMode::Bootstrap] {
            let cfg =
                GMlssConfig::new(plan.clone(), RunControl::budget(100_000)).with_variance(mode);
            let res = GMlssSampler::new(cfg).run(problem, &mut rng_from_seed(6));
            assert_eq!(res.skip_events, 0);
            assert!(res.skips.iter().all(|&s| s == 0));
            assert!(
                res.estimate.variance.is_finite() && res.estimate.variance > 0.0,
                "{mode:?}: variance {}",
                res.estimate.variance
            );
        }
    }

    #[test]
    fn sampler_and_estimator_trait_agree_exactly() {
        // The scalar `simulate_root` and the frontier's `GMlssKernel` are
        // two implementations of the same root program: pin them
        // bit-exactly. Each reference root runs on stream `k` of the run
        // key, as the frontier's roots do; the driver's cursor must end
        // one past the last committed root.
        let model = JumpyWalk {
            step: 0.05,
            jump_p: 0.02,
            jump: 0.5,
        };
        let v = vf();
        let problem = Problem::new(&model, &v, 40);
        let plan = PartitionPlan::new(vec![0.3, 0.6]).unwrap();
        let cfg = GMlssConfig::new(plan.clone(), RunControl::budget(100_000));

        let run = run_sequential(&cfg, problem, cfg.control, &mut rng_from_seed(17));
        let driver_next = run.cursor.roots.next;
        let sampler_res = GMlssResult::from(run);

        let roots = RootCursor::from_rng(&mut rng_from_seed(17));
        let mut shard = crate::estimator::shard_for(&cfg, &problem);
        let (mut stack, mut events) = (Vec::new(), Vec::new());
        while shard.steps < 100_000 {
            let mut rng = roots.stream(shard.n_roots);
            simulate_root(
                &problem,
                &plan,
                &mut shard,
                &mut stack,
                &mut events,
                &mut rng,
            );
        }
        assert_eq!(shard.steps, sampler_res.estimate.steps);
        assert_eq!(shard.hits, sampler_res.estimate.hits);
        assert_eq!(shard.n_roots, sampler_res.estimate.n_roots);
        assert_eq!(shard.tau(), sampler_res.estimate.tau);
        assert_eq!(shard.skip_events, sampler_res.skip_events);
        assert_eq!(shard.skips_per_level(), sampler_res.skips);
        assert_eq!(driver_next, shard.n_roots);
    }
}
