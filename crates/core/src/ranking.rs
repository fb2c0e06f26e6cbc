//! Durability ranking: race *several* candidate queries on their
//! confidence intervals and find the top-`k` most durable ones.
//!
//! The paper's related work traces durability notions to durable top-k
//! queries over historical data (§7); the predictive analogue — "which of
//! these designs has the highest probability of surviving the horizon?"
//! — is the decision question the introduction's examples ultimately ask.
//! This module answers it with a *racing* scheme from the
//! best-arm-identification literature: candidates share a simulation
//! budget, rounds of sampling tighten each candidate's confidence
//! interval, and a candidate freezes as soon as its interval clears the
//! top-`k` **boundary** — either it is certainly in (at least `n-k` arms
//! sit entirely below it) or certainly out (at least `k` arms sit
//! entirely above it). Budget then concentrates on the arms whose seat is
//! still ambiguous.
//!
//! Design notes that fix the prototype's three racing bugs:
//!
//! * **Boundary elimination, not all-vs-all separation.** Two overlapping
//!   contenders that are both safely inside the top-`k` freeze anyway —
//!   their mutual order is not the question the query asks. The old rule
//!   required every pair of intervals to disjoin, so one tied pair
//!   deadlocked the entire field into `max_rounds`.
//! * **Zero variance is definitive, not discarded.** Pooling is done by
//!   accumulating every round into one persistent per-arm shard and
//!   estimating over the cumulative shard — exact pooling by
//!   construction. A pooled variance of exactly 0 (every root hit, or no
//!   root ever hit) classifies as a *point* interval `[τ̂, τ̂]`: the arm
//!   freezes immediately instead of burning budget, and its point
//!   interval is the sharpest possible comparator for everyone else. The
//!   old inverse-variance pool dropped those rounds, so a never-hitting
//!   arm reported τ̂=0 with infinite pooled variance and (because
//!   non-finite variance vetoed every separation test) blocked every
//!   other arm's freeze until `max_rounds`.
//! * **Deterministic standings.** Sorting uses `f64::total_cmp` with a
//!   label tiebreak (NaN ranks last), so a pinned seed yields a
//!   bit-stable order; the old `partial_cmp(..).expect(..)` panicked on
//!   NaN and left exact ties nondeterministic.
//!
//! Two front ends share the same freeze rule:
//!
//! * [`RaceQuery`] — the serving path. Each arm is any
//!   [`SliceableQuery`] (the same job type the scheduler runs), and the
//!   race itself is a `SliceableQuery`: one slice advances one unfrozen
//!   arm by `round_budget`, so a race time-slices under
//!   least-attained-service, composes with per-tenant fair sharing, and
//!   supports ASYNC submit/poll. The synchronous path drives the
//!   identical `run_slice` loop inline, which is what makes sequential
//!   and scheduler execution bit-identical at a pinned seed.
//! * [`rank_by_durability`] — the embedded/library path over borrowed
//!   [`Problem`]s, sampling each lane with a persistent g-MLSS shard.

use crate::estimate::Estimate;
use crate::estimator::{ChunkOutcome, Diagnostics, Estimator};
use crate::gmlss::GMlssConfig;
use crate::levels::PartitionPlan;
use crate::model::SimulationModel;
use crate::quality::{QualityTarget, RunControl};
use crate::query::{Problem, ValueFunction};
use crate::rng::{RootCursor, SimRng};
use crate::scheduler::SliceableQuery;
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Configuration of a ranking race.
#[derive(Debug, Clone, Copy)]
pub struct RaceConfig {
    /// Simulation steps granted to every *active* candidate per round.
    pub round_budget: u64,
    /// Maximum number of rounds.
    pub max_rounds: usize,
    /// Confidence level for the boundary tests (e.g. 0.95).
    pub confidence: f64,
    /// Splitting ratio for the per-candidate samplers
    /// ([`rank_by_durability`] only; [`RaceQuery`] arms carry their own
    /// samplers).
    pub ratio: u32,
    /// The `k` of the top-`k` boundary the race decides.
    pub top_k: usize,
}

impl Default for RaceConfig {
    fn default() -> Self {
        Self {
            round_budget: 50_000,
            max_rounds: 12,
            confidence: 0.95,
            ratio: 3,
            top_k: 1,
        }
    }
}

/// Why an arm stopped sampling — freeze provenance, surfaced in
/// standings rows and `EXPLAIN`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreezeReason {
    /// Certainly inside the top-`k`: at least `n-k` other arms' intervals
    /// sit entirely below this arm's interval.
    In,
    /// Certainly outside the top-`k`: at least `k` other arms' intervals
    /// sit entirely above this arm's interval.
    Out,
    /// Pooled variance is exactly zero — the interval is a point; more
    /// rounds cannot move the boundary test for this arm.
    Definitive,
    /// The arm's own stopping rule (e.g. its target relative error) was
    /// satisfied before the boundary decided it.
    Resolved,
    /// The race hit `max_rounds` with this arm still undecided.
    Budget,
}

impl FreezeReason {
    /// Stable lowercase name (used in standings rows and diagnostics).
    pub fn as_str(&self) -> &'static str {
        match self {
            FreezeReason::In => "in",
            FreezeReason::Out => "out",
            FreezeReason::Definitive => "definitive",
            FreezeReason::Resolved => "resolved",
            FreezeReason::Budget => "budget",
        }
    }
}

/// Final standing of one candidate.
#[derive(Debug, Clone)]
pub struct Standing {
    /// Caller-supplied label.
    pub label: String,
    /// Pooled estimate across all rounds (cumulative shard).
    pub estimate: Estimate,
    /// Round after which the candidate was frozen (None = raced to the
    /// round cap).
    pub frozen_at: Option<usize>,
    /// Why the candidate stopped sampling.
    pub reason: FreezeReason,
    /// Lower edge of the candidate's final confidence interval.
    pub ci_lo: f64,
    /// Upper edge of the candidate's final confidence interval.
    pub ci_hi: f64,
}

/// Outcome of a race: standings sorted by durability, most durable first.
#[derive(Debug, Clone)]
pub struct RaceOutcome {
    /// Sorted standings.
    pub standings: Vec<Standing>,
    /// Total `g` invocations spent across all arms.
    pub total_steps: u64,
    /// Rounds the race ran before every arm froze (or the cap).
    pub rounds: usize,
}

impl RaceOutcome {
    /// Labels of the top-`k` most durable candidates.
    pub fn top(&self, k: usize) -> Vec<&str> {
        self.standings
            .iter()
            .take(k)
            .map(|s| s.label.as_str())
            .collect()
    }
}

/// How an arm's current interval participates in the boundary test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalKind {
    /// Zero pooled variance: the interval is the point `[τ̂, τ̂]`.
    Definitive,
    /// No usable evidence yet (no completed roots, or a non-finite
    /// variance): the interval is the vacuous `[0, 1]`. It cannot freeze
    /// itself, and because it is never *entirely* below or above
    /// anything, it blocks IN freezes but never an OUT elimination.
    Uninformative,
    /// A finite-width normal interval from [`Estimate::ci`].
    Normal,
}

/// One arm's classified confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArmInterval {
    /// Lower edge (clamped to `[0, 1]`).
    pub lo: f64,
    /// Upper edge (clamped to `[0, 1]`).
    pub hi: f64,
    /// Classification driving the freeze rule.
    pub kind: IntervalKind,
}

/// Classify a pooled estimate into the interval the boundary test uses.
pub fn classify_interval(e: &Estimate, confidence: f64) -> ArmInterval {
    if e.n_roots == 0 || !e.variance.is_finite() || e.tau.is_nan() {
        return ArmInterval {
            lo: 0.0,
            hi: 1.0,
            kind: IntervalKind::Uninformative,
        };
    }
    if e.variance == 0.0 {
        let t = e.tau.clamp(0.0, 1.0);
        return ArmInterval {
            lo: t,
            hi: t,
            kind: IntervalKind::Definitive,
        };
    }
    let (lo, hi) = e.ci(confidence);
    ArmInterval {
        lo,
        hi,
        kind: IntervalKind::Normal,
    }
}

/// Apply the top-`k` boundary rule to the whole field.
///
/// For each not-yet-frozen arm `i` (with `n` arms total), counting over
/// **all** other arms — frozen arms keep serving as comparators at their
/// freeze-time interval:
///
/// * `Definitive` interval → freeze now (reason
///   [`FreezeReason::Definitive`]);
/// * at least `k` arms entirely above (`lo_j > hi_i`) → certainly out of
///   the top-`k` (reason [`FreezeReason::Out`]);
/// * at least `n-k` arms entirely below (`hi_j < lo_i`) → certainly in
///   (reason [`FreezeReason::In`]).
///
/// Returns one entry per arm: `Some(reason)` if the arm freezes this
/// round, `None` otherwise (already-frozen arms always get `None`).
pub fn boundary_freezes(
    intervals: &[ArmInterval],
    frozen: &[bool],
    k: usize,
) -> Vec<Option<FreezeReason>> {
    let n = intervals.len();
    let k = k.clamp(1, n.max(1));
    (0..n)
        .map(|i| {
            if frozen[i] {
                return None;
            }
            let me = intervals[i];
            if me.kind == IntervalKind::Definitive {
                return Some(FreezeReason::Definitive);
            }
            if me.kind == IntervalKind::Uninformative {
                return None;
            }
            let mut above = 0usize;
            let mut below = 0usize;
            for (j, other) in intervals.iter().enumerate() {
                if j == i {
                    continue;
                }
                if other.lo > me.hi {
                    above += 1;
                } else if other.hi < me.lo {
                    below += 1;
                }
            }
            if above >= k {
                Some(FreezeReason::Out)
            } else if below >= n - k {
                Some(FreezeReason::In)
            } else {
                None
            }
        })
        .collect()
}

/// Sort standings most-durable-first, deterministically: descending τ̂ by
/// `f64::total_cmp`, NaN estimates last, exact ties broken by label.
pub fn sort_standings(standings: &mut [Standing]) {
    standings.sort_by(|a, b| {
        let (ta, tb) = (a.estimate.tau, b.estimate.tau);
        match (ta.is_nan(), tb.is_nan()) {
            (true, true) => a.label.cmp(&b.label),
            (true, false) => std::cmp::Ordering::Greater,
            (false, true) => std::cmp::Ordering::Less,
            (false, false) => tb.total_cmp(&ta).then_with(|| a.label.cmp(&b.label)),
        }
    });
}

// ---------------------------------------------------------------------
// Process-wide race totals — the `ranking` block in SHOW DIAGNOSTICS.
// ---------------------------------------------------------------------

static G_RACES: AtomicU64 = AtomicU64::new(0);
static G_ARMS: AtomicU64 = AtomicU64::new(0);
static G_FROZEN_EARLY: AtomicU64 = AtomicU64::new(0);
static G_ROUNDS: AtomicU64 = AtomicU64::new(0);
static G_STEPS: AtomicU64 = AtomicU64::new(0);

/// Process-wide ranking-race counters (relaxed snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankStats {
    /// Races completed.
    pub races: u64,
    /// Arms raced, summed over races.
    pub arms: u64,
    /// Arms frozen before the round cap (in/out/definitive/resolved).
    pub frozen_early: u64,
    /// Rounds run, summed over races.
    pub rounds: u64,
    /// `g` invocations spent in races.
    pub steps: u64,
}

fn record_race(arms: u64, frozen_early: u64, rounds: u64, steps: u64) {
    G_RACES.fetch_add(1, Ordering::Relaxed);
    G_ARMS.fetch_add(arms, Ordering::Relaxed);
    G_FROZEN_EARLY.fetch_add(frozen_early, Ordering::Relaxed);
    G_ROUNDS.fetch_add(rounds, Ordering::Relaxed);
    G_STEPS.fetch_add(steps, Ordering::Relaxed);
}

/// Snapshot the process-wide ranking counters.
pub fn snapshot() -> RankStats {
    RankStats {
        races: G_RACES.load(Ordering::Relaxed),
        arms: G_ARMS.load(Ordering::Relaxed),
        frozen_early: G_FROZEN_EARLY.load(Ordering::Relaxed),
        rounds: G_ROUNDS.load(Ordering::Relaxed),
        steps: G_STEPS.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------
// RaceQuery: the race as a scheduler job over sliceable arms.
// ---------------------------------------------------------------------

/// One arm of a [`RaceQuery`]: a label plus any sliceable job (the same
/// job type [`crate::scheduler::Scheduler`] runs, so arms come out of the
/// exact submit construction path — plan-cache pilots included).
pub struct RaceArm {
    /// Display label (model ref with parameters, in the SQL path).
    pub label: String,
    /// The arm's sampler job; its accumulated shard is the pooled state.
    /// The race owns the arm's cadence: run the job in budget mode (its
    /// step valve), so only the race decides when the arm is checked.
    pub job: Box<dyn SliceableQuery>,
    /// The arm's own stopping rule, evaluated at the end of each of its
    /// rounds: once it holds, the arm freezes as `resolved`.
    pub target: QualityTarget,
}

struct ArmState {
    label: String,
    job: Box<dyn SliceableQuery>,
    target: QualityTarget,
    frozen_at: Option<usize>,
    reason: Option<FreezeReason>,
    last: Option<Estimate>,
}

/// A top-`k` confidence-bound race, itself a [`SliceableQuery`].
///
/// One slice advances exactly one unfrozen arm by
/// [`RaceConfig::round_budget`] `g` invocations — the race's atomic unit
/// of progress — regardless of the scheduler's slice budget (a smaller
/// slice would split a round across scheduler decisions and make the
/// round structure depend on scheduler configuration). When the last
/// unfrozen arm of a round has been advanced, the same slice evaluates
/// every active arm's pooled estimate over its cumulative shard and
/// applies [`boundary_freezes`]. Because the scheduler advances any one
/// job on one worker at a time, the arm order, evaluation points, and
/// RNG consumption are identical to the synchronous
/// [`RaceQuery::run_to_completion`] loop — pinned seeds give bit-stable
/// standings on both paths.
pub struct RaceQuery {
    arms: Vec<ArmState>,
    cfg: RaceConfig,
    round: usize,
    cursor: usize,
    total_steps: u64,
    done: bool,
    outcome: Arc<Mutex<Option<RaceOutcome>>>,
}

impl RaceQuery {
    /// Build a race over sliceable arms. `cfg.top_k` is clamped to the
    /// field size.
    pub fn new(arms: Vec<RaceArm>, cfg: RaceConfig) -> Self {
        assert!(!arms.is_empty(), "a race needs at least one arm");
        let mut cfg = cfg;
        cfg.top_k = cfg.top_k.clamp(1, arms.len());
        cfg.max_rounds = cfg.max_rounds.max(1);
        Self {
            arms: arms
                .into_iter()
                .map(|a| ArmState {
                    label: a.label,
                    job: a.job,
                    target: a.target,
                    frozen_at: None,
                    reason: None,
                    last: None,
                })
                .collect(),
            cfg,
            round: 0,
            cursor: 0,
            total_steps: 0,
            done: false,
            outcome: Arc::new(Mutex::new(None)),
        }
    }

    /// Handle the caller keeps to read the standings after an ASYNC race
    /// completes (the scheduler only hands back an [`Estimate`]).
    pub fn outcome_handle(&self) -> Arc<Mutex<Option<RaceOutcome>>> {
        Arc::clone(&self.outcome)
    }

    /// Drive the race to completion on the calling thread — the
    /// synchronous path, same slice loop the scheduler runs.
    pub fn run_to_completion(&mut self) -> RaceOutcome {
        while !self.done {
            self.run_slice(0);
        }
        self.outcome
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
            .expect("race finalized")
    }

    /// Close a round: every arm still racing was advanced (and
    /// estimated) this round, so the boundary rule reads `last`.
    fn evaluate_round(&mut self) {
        let intervals: Vec<ArmInterval> = self
            .arms
            .iter()
            .map(|a| match &a.last {
                Some(e) => classify_interval(e, self.cfg.confidence),
                None => ArmInterval {
                    lo: 0.0,
                    hi: 1.0,
                    kind: IntervalKind::Uninformative,
                },
            })
            .collect();
        let frozen: Vec<bool> = self.arms.iter().map(|a| a.frozen_at.is_some()).collect();
        let freezes = boundary_freezes(&intervals, &frozen, self.cfg.top_k);
        for (arm, freeze) in self.arms.iter_mut().zip(freezes) {
            if let Some(reason) = freeze {
                arm.frozen_at = Some(self.round);
                arm.reason = Some(reason);
            }
        }
        self.round += 1;
        self.cursor = 0;
        let all_frozen = self.arms.iter().all(|a| a.frozen_at.is_some());
        if all_frozen || self.round >= self.cfg.max_rounds {
            self.finalize();
        }
    }

    fn finalize(&mut self) {
        let confidence = self.cfg.confidence;
        let mut standings: Vec<Standing> = self
            .arms
            .iter_mut()
            .map(|arm| {
                let estimate = arm.last.unwrap_or_else(|| arm.job.estimate());
                let iv = classify_interval(&estimate, confidence);
                Standing {
                    label: arm.label.clone(),
                    estimate,
                    frozen_at: arm.frozen_at,
                    reason: arm.reason.unwrap_or(FreezeReason::Budget),
                    ci_lo: iv.lo,
                    ci_hi: iv.hi,
                }
            })
            .collect();
        sort_standings(&mut standings);
        let frozen_early = standings.iter().filter(|s| s.frozen_at.is_some()).count() as u64;
        record_race(
            self.arms.len() as u64,
            frozen_early,
            self.round as u64,
            self.total_steps,
        );
        let outcome = RaceOutcome {
            standings,
            total_steps: self.total_steps,
            rounds: self.round,
        };
        *self.outcome.lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
        self.done = true;
    }

    fn summary_estimate(&mut self) -> Estimate {
        let (steps, n_roots, hits) = self.arms.iter().fold((0u64, 0u64, 0u64), |acc, a| {
            let e = a.last.as_ref();
            (
                acc.0 + e.map_or(0, |e| e.steps),
                acc.1 + e.map_or(0, |e| e.n_roots),
                acc.2 + e.map_or(0, |e| e.hits),
            )
        });
        let leader = self
            .arms
            .iter()
            .filter_map(|a| a.last.as_ref())
            .max_by(|a, b| a.tau.total_cmp(&b.tau))
            .cloned();
        match leader {
            Some(e) => Estimate {
                steps: self.total_steps.max(steps),
                n_roots,
                hits,
                ..e
            },
            None => Estimate {
                tau: 0.0,
                variance: f64::INFINITY,
                n_roots: 0,
                steps: self.total_steps,
                hits: 0,
            },
        }
    }
}

impl SliceableQuery for RaceQuery {
    fn name(&self) -> &'static str {
        "rank-race"
    }

    fn run_slice(&mut self, _budget: u64) -> ChunkOutcome {
        if self.done {
            return ChunkOutcome::default();
        }
        // Find the next unfrozen arm this round.
        let next = (self.cursor..self.arms.len()).find(|&i| self.arms[i].frozen_at.is_none());
        let Some(idx) = next else {
            // Nothing left to advance this round (every arm at or past
            // the cursor froze): close the round out.
            self.evaluate_round();
            return ChunkOutcome::default();
        };
        // One round of this arm, then its own stopping rule on the
        // pooled estimate (a pure function of the arm's shard).
        let arm = &mut self.arms[idx];
        let out = arm.job.run_slice(self.cfg.round_budget);
        self.total_steps += out.steps;
        let estimate = arm.job.estimate();
        arm.last = Some(estimate);
        if arm.target.satisfied(&estimate) || arm.job.finished() {
            // The target holds (or the step valve is spent): the arm
            // leaves the race with its evidence as a fixed comparator.
            arm.frozen_at = Some(self.round);
            arm.reason = Some(FreezeReason::Resolved);
        }
        self.cursor = idx + 1;
        let more = (self.cursor..self.arms.len()).any(|i| self.arms[i].frozen_at.is_none());
        if !more {
            self.evaluate_round();
        }
        out
    }

    fn finished(&mut self) -> bool {
        self.done
    }

    fn estimate(&mut self) -> Estimate {
        if let Some(outcome) = &*self.outcome.lock().unwrap_or_else(|e| e.into_inner()) {
            let mut e = outcome
                .standings
                .first()
                .map(|s| s.estimate)
                .unwrap_or(Estimate {
                    tau: 0.0,
                    variance: f64::INFINITY,
                    n_roots: 0,
                    steps: 0,
                    hits: 0,
                });
            e.steps = outcome.total_steps;
            return e;
        }
        self.summary_estimate()
    }

    fn steps(&self) -> u64 {
        self.total_steps
    }

    fn n_roots(&self) -> u64 {
        self.arms.iter().map(|a| a.job.n_roots()).sum()
    }

    fn diagnostics(&self) -> Diagnostics {
        let frozen = self.arms.iter().filter(|a| a.frozen_at.is_some()).count();
        Diagnostics {
            estimator: "rank-race",
            skip_events: 0,
            details: vec![
                ("arms".to_string(), self.arms.len() as f64),
                ("frozen".to_string(), frozen as f64),
                ("rounds".to_string(), self.round as f64),
            ],
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

// ---------------------------------------------------------------------
// rank_by_durability: the embedded/library path over borrowed Problems.
// ---------------------------------------------------------------------

/// One candidate in the race: a problem plus the plan to sample it with.
pub struct Candidate<'a, M: SimulationModel, V> {
    /// Display label.
    pub label: String,
    /// The durability query.
    pub problem: Problem<'a, M, V>,
    /// Level plan for the candidate's g-MLSS sampler.
    pub plan: PartitionPlan,
}

/// Run the race and rank candidates by estimated durability.
///
/// Each lane keeps one persistent g-MLSS shard across rounds: a round is
/// a [`Estimator::run_chunk`] continuation of the same shard and root
/// cursor (each lane keyed by one draw from `rng`) — no cold restarts,
/// and pooling across rounds is exact by construction. Round `r`'s
/// evaluation draws from the lane's check stream `r`. The freeze rule is the same top-`k`
/// [`boundary_freezes`] the scheduler path uses.
pub fn rank_by_durability<M, V>(
    candidates: Vec<Candidate<'_, M, V>>,
    cfg: RaceConfig,
    rng: &mut SimRng,
) -> RaceOutcome
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
{
    assert!(!candidates.is_empty());
    let top_k = cfg.top_k.clamp(1, candidates.len());
    let max_rounds = cfg.max_rounds.max(1);

    struct Lane<'a, M: SimulationModel, V> {
        cand: Candidate<'a, M, V>,
        estimator: GMlssConfig,
        shard: crate::gmlss::GmlssShard,
        roots: RootCursor,
        frozen_at: Option<usize>,
        reason: Option<FreezeReason>,
        last: Option<Estimate>,
    }

    let mut lanes: Vec<Lane<'_, M, V>> = candidates
        .into_iter()
        .map(|cand| {
            let estimator =
                GMlssConfig::new(cand.plan.clone(), RunControl::budget(cfg.round_budget))
                    .with_ratio(cfg.ratio);
            let shard = Estimator::<M, V>::shard(&estimator);
            Lane {
                cand,
                estimator,
                shard,
                roots: RootCursor::from_rng(rng),
                frozen_at: None,
                reason: None,
                last: None,
            }
        })
        .collect();

    let mut total_steps = 0u64;
    let mut rounds = 0usize;
    for round in 0..max_rounds {
        rounds = round + 1;
        // Advance every active lane's persistent shard by one round.
        for lane in lanes.iter_mut().filter(|l| l.frozen_at.is_none()) {
            let out = lane.estimator.run_chunk(
                lane.cand.problem,
                &mut lane.shard,
                cfg.round_budget,
                &mut lane.roots,
                1,
            );
            total_steps += out.steps;
            lane.last = Some(<GMlssConfig as Estimator<M, V>>::estimate(
                &lane.estimator,
                &lane.shard,
                &mut lane.roots.check_stream(round as u64),
            ));
        }

        let intervals: Vec<ArmInterval> = lanes
            .iter()
            .map(|l| match &l.last {
                Some(e) => classify_interval(e, cfg.confidence),
                None => ArmInterval {
                    lo: 0.0,
                    hi: 1.0,
                    kind: IntervalKind::Uninformative,
                },
            })
            .collect();
        let frozen: Vec<bool> = lanes.iter().map(|l| l.frozen_at.is_some()).collect();
        for (lane, freeze) in lanes
            .iter_mut()
            .zip(boundary_freezes(&intervals, &frozen, top_k))
        {
            if let Some(reason) = freeze {
                lane.frozen_at = Some(round);
                lane.reason = Some(reason);
            }
        }

        if lanes.iter().all(|l| l.frozen_at.is_some()) {
            break;
        }
    }

    let mut standings: Vec<Standing> = lanes
        .iter()
        .map(|lane| {
            let estimate = lane.last.unwrap_or(Estimate {
                tau: 0.0,
                variance: f64::INFINITY,
                n_roots: 0,
                steps: 0,
                hits: 0,
            });
            let iv = classify_interval(&estimate, cfg.confidence);
            Standing {
                label: lane.cand.label.clone(),
                estimate,
                frozen_at: lane.frozen_at,
                reason: lane.reason.unwrap_or(FreezeReason::Budget),
                ci_lo: iv.lo,
                ci_hi: iv.hi,
            }
        })
        .collect();
    sort_standings(&mut standings);
    let frozen_early = standings.iter().filter(|s| s.frozen_at.is_some()).count() as u64;
    record_race(lanes.len() as u64, frozen_early, rounds as u64, total_steps);
    RaceOutcome {
        standings,
        total_steps,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Time;
    use crate::query::RatioValue;
    use crate::rng::rng_from_seed;
    use rand::RngExt;

    struct Walk {
        up: f64,
    }

    impl SimulationModel for Walk {
        type State = f64;

        fn initial_state(&self) -> f64 {
            0.0
        }

        fn step(&self, s: &f64, _t: Time, rng: &mut SimRng) -> f64 {
            (s + if rng.random::<f64>() < self.up {
                0.05
            } else {
                -0.05
            })
            .clamp(0.0, 1.0)
        }
    }

    fn iv(lo: f64, hi: f64) -> ArmInterval {
        ArmInterval {
            lo,
            hi,
            kind: IntervalKind::Normal,
        }
    }

    fn standing(label: &str, tau: f64) -> Standing {
        Standing {
            label: label.into(),
            estimate: Estimate {
                tau,
                variance: 0.01,
                n_roots: 10,
                steps: 100,
                hits: 5,
            },
            frozen_at: None,
            reason: FreezeReason::Budget,
            ci_lo: 0.0,
            ci_hi: 1.0,
        }
    }

    #[test]
    fn race_orders_candidates_by_durability() {
        let fast = Walk { up: 0.52 };
        let mid = Walk { up: 0.47 };
        let slow = Walk { up: 0.42 };
        let vf = RatioValue::new(|s: &f64| *s, 1.0);
        let plan = PartitionPlan::new(vec![0.4, 0.7]).unwrap();
        let candidates = vec![
            Candidate {
                label: "slow".into(),
                problem: Problem::new(&slow, &vf, 150),
                plan: plan.clone(),
            },
            Candidate {
                label: "fast".into(),
                problem: Problem::new(&fast, &vf, 150),
                plan: plan.clone(),
            },
            Candidate {
                label: "mid".into(),
                problem: Problem::new(&mid, &vf, 150),
                plan,
            },
        ];
        let outcome = rank_by_durability(
            candidates,
            RaceConfig {
                round_budget: 40_000,
                max_rounds: 8,
                ..Default::default()
            },
            &mut rng_from_seed(5),
        );
        let labels: Vec<&str> = outcome.standings.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["fast", "mid", "slow"]);
        assert_eq!(outcome.top(1), vec!["fast"]);
        assert!(outcome.total_steps > 0);
        // Durabilities are strictly ordered.
        assert!(outcome.standings[0].estimate.tau > outcome.standings[2].estimate.tau);
    }

    #[test]
    fn clearly_separated_candidates_freeze_early() {
        let huge = Walk { up: 0.60 };
        let tiny = Walk { up: 0.44 };
        let vf = RatioValue::new(|s: &f64| *s, 1.0);
        let plan = PartitionPlan::new(vec![0.5]).unwrap();
        let candidates = vec![
            Candidate {
                label: "huge".into(),
                problem: Problem::new(&huge, &vf, 120),
                plan: plan.clone(),
            },
            Candidate {
                label: "tiny".into(),
                problem: Problem::new(&tiny, &vf, 120),
                plan,
            },
        ];
        let outcome = rank_by_durability(
            candidates,
            RaceConfig {
                round_budget: 60_000,
                max_rounds: 10,
                ..Default::default()
            },
            &mut rng_from_seed(9),
        );
        // Both freeze (boundary decided) before the round cap.
        for s in &outcome.standings {
            assert!(
                s.frozen_at.is_some(),
                "{} should freeze (frozen_at {:?})",
                s.label,
                s.frozen_at
            );
        }
    }

    #[test]
    fn single_candidate_race_is_fine() {
        let m = Walk { up: 0.5 };
        let vf = RatioValue::new(|s: &f64| *s, 1.0);
        let candidates = vec![Candidate {
            label: "only".into(),
            problem: Problem::new(&m, &vf, 80),
            plan: PartitionPlan::trivial(),
        }];
        let outcome = rank_by_durability(
            candidates,
            RaceConfig {
                round_budget: 20_000,
                max_rounds: 3,
                ..Default::default()
            },
            &mut rng_from_seed(2),
        );
        assert_eq!(outcome.standings.len(), 1);
        assert!(outcome.standings[0].estimate.tau > 0.0);
    }

    // --- regression: zero-variance rounds are definitive, not dropped ---

    #[test]
    fn zero_variance_arm_is_definitive_not_discarded() {
        // `sure` climbs deterministically to 1.0 and hits every round:
        // pooled variance is exactly 0. The old inverse-variance pool
        // dropped every such round, reporting τ̂ = 0 with infinite
        // variance; it must instead report τ̂ = 1 and freeze immediately.
        let sure = Walk { up: 1.0 };
        let coin = Walk { up: 0.50 };
        let vf = RatioValue::new(|s: &f64| *s, 1.0);
        let plan = PartitionPlan::new(vec![0.5]).unwrap();
        let candidates = vec![
            Candidate {
                label: "sure".into(),
                problem: Problem::new(&sure, &vf, 120),
                plan: plan.clone(),
            },
            Candidate {
                label: "coin".into(),
                problem: Problem::new(&coin, &vf, 120),
                plan,
            },
        ];
        let outcome = rank_by_durability(
            candidates,
            RaceConfig {
                round_budget: 20_000,
                max_rounds: 6,
                ..Default::default()
            },
            &mut rng_from_seed(11),
        );
        let sure = outcome
            .standings
            .iter()
            .find(|s| s.label == "sure")
            .unwrap();
        assert_eq!(sure.estimate.tau, 1.0, "exact rounds must pool");
        assert_eq!(sure.frozen_at, Some(0));
        assert_eq!(sure.reason, FreezeReason::Definitive);
        assert_eq!(outcome.top(1), vec!["sure"]);
    }

    #[test]
    fn dead_arm_does_not_block_the_field() {
        // `dead` never hits (τ̂ = 0, zero variance). Under the old rule
        // its non-finite pooled variance vetoed every separation test and
        // the whole field burned to max_rounds; now it freezes
        // definitively at round 0 and the live arms still freeze early.
        let dead = Walk { up: 0.0 };
        let live_hi = Walk { up: 0.58 };
        let live_lo = Walk { up: 0.42 };
        let vf = RatioValue::new(|s: &f64| *s, 1.0);
        let plan = PartitionPlan::new(vec![0.5]).unwrap();
        let candidates = vec![
            Candidate {
                label: "dead".into(),
                problem: Problem::new(&dead, &vf, 120),
                plan: plan.clone(),
            },
            Candidate {
                label: "hi".into(),
                problem: Problem::new(&live_hi, &vf, 120),
                plan: plan.clone(),
            },
            Candidate {
                label: "lo".into(),
                problem: Problem::new(&live_lo, &vf, 120),
                plan,
            },
        ];
        let outcome = rank_by_durability(
            candidates,
            RaceConfig {
                round_budget: 60_000,
                max_rounds: 10,
                ..Default::default()
            },
            &mut rng_from_seed(3),
        );
        let dead = outcome
            .standings
            .iter()
            .find(|s| s.label == "dead")
            .unwrap();
        assert_eq!(dead.reason, FreezeReason::Definitive);
        assert_eq!(dead.frozen_at, Some(0));
        for s in &outcome.standings {
            assert!(
                s.frozen_at.is_some(),
                "{} must freeze before the cap (frozen_at {:?})",
                s.label,
                s.frozen_at
            );
        }
        assert!(
            outcome.rounds < 10,
            "field must decide early, ran {} rounds",
            outcome.rounds
        );
    }

    // --- boundary rule unit tests (no simulation) ---

    #[test]
    fn overlapping_contenders_inside_top_k_still_freeze() {
        // A and B overlap each other but both sit entirely above C: with
        // k = 2 all three freeze in one pass. The old all-vs-all rule
        // deadlocked A and B forever.
        let intervals = [iv(0.60, 0.80), iv(0.55, 0.75), iv(0.10, 0.30)];
        let frozen = [false, false, false];
        let freezes = boundary_freezes(&intervals, &frozen, 2);
        assert_eq!(freezes[0], Some(FreezeReason::In));
        assert_eq!(freezes[1], Some(FreezeReason::In));
        assert_eq!(freezes[2], Some(FreezeReason::Out));
    }

    #[test]
    fn uninformative_arm_blocks_in_but_not_out() {
        let unknown = ArmInterval {
            lo: 0.0,
            hi: 1.0,
            kind: IntervalKind::Uninformative,
        };
        // The unknown arm could still be best: nobody can claim the top-1
        // seat yet…
        let intervals = [iv(0.60, 0.80), iv(0.10, 0.30), unknown];
        let frozen = [false, false, false];
        let freezes = boundary_freezes(&intervals, &frozen, 1);
        assert_eq!(freezes[0], None, "IN must wait for the unknown arm");
        // …but the clearly-dominated arm is out regardless (arm 0 is
        // entirely above it), and the unknown arm itself never freezes on
        // a vacuous interval.
        assert_eq!(freezes[1], Some(FreezeReason::Out));
        assert_eq!(freezes[2], None);
    }

    #[test]
    fn frozen_arms_still_serve_as_comparators() {
        let intervals = [iv(0.60, 0.80), iv(0.10, 0.30)];
        // Arm 0 froze in an earlier round; arm 1 must still be eliminated
        // against arm 0's frozen interval.
        let frozen = [true, false];
        let freezes = boundary_freezes(&intervals, &frozen, 1);
        assert_eq!(freezes[0], None);
        assert_eq!(freezes[1], Some(FreezeReason::Out));
    }

    // --- sort determinism (regression: NaN panicked, ties were unstable) ---

    #[test]
    fn sort_is_total_nan_ranks_last_ties_break_by_label() {
        let mut standings = vec![
            standing("b-tied", 0.5),
            standing("nan", f64::NAN),
            standing("a-tied", 0.5),
            standing("top", 0.9),
        ];
        // Must not panic despite the NaN (the old partial_cmp did).
        sort_standings(&mut standings);
        let labels: Vec<&str> = standings.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["top", "a-tied", "b-tied", "nan"]);
    }

    #[test]
    fn classify_interval_kinds() {
        let normal = Estimate {
            tau: 0.5,
            variance: 0.01,
            n_roots: 100,
            steps: 1000,
            hits: 50,
        };
        assert_eq!(classify_interval(&normal, 0.95).kind, IntervalKind::Normal);
        let exact = Estimate {
            tau: 1.0,
            variance: 0.0,
            n_roots: 100,
            steps: 1000,
            hits: 100,
        };
        let iv = classify_interval(&exact, 0.95);
        assert_eq!(iv.kind, IntervalKind::Definitive);
        assert_eq!((iv.lo, iv.hi), (1.0, 1.0));
        let empty = Estimate {
            tau: 0.0,
            variance: f64::INFINITY,
            n_roots: 0,
            steps: 0,
            hits: 0,
        };
        let iv = classify_interval(&empty, 0.95);
        assert_eq!(iv.kind, IntervalKind::Uninformative);
        assert_eq!((iv.lo, iv.hi), (0.0, 1.0));
    }
}
