//! Stored procedures — the paper's "MLSS inside a DBMS" (§6.4).
//!
//! Predictive-model parameters live in an ordinary table (`models`),
//! estimates land in a `results` table, and sample paths can be
//! materialized into tables for visualization or downstream analysis —
//! the end-to-end pipeline the paper demonstrates on PostgreSQL, here on
//! the embedded engine.
//!
//! Estimation itself has one front door: the `ESTIMATE DURABILITY …`
//! statement run through [`crate::session::Session::execute`], which
//! compiles to the typed [`QuerySpec`] IR and dispatches through
//! [`crate::dispatch::execute_spec`]. This module holds what that path
//! builds on — the model registry with its per-model parameter schemas,
//! the type-erased [`ModelRunner`] bridge to the estimator spine, and the
//! table schemas — plus the one remaining stored procedure, a plain
//! function that [`crate::session::Session::call`] calls by name:
//!
//! * [`materialize_paths`]`(model, horizon, n_paths, dest [, batch_width])`
//!   — simulate and store sample paths as `(path_id, t, value)` rows on
//!   the batched frontier kernel (one RNG stream per path, so the rows
//!   are bit-identical at every width).

use crate::engine::{Database, DbError};
use crate::schema::{ColumnDef, Schema};
use crate::table::Aggregate;
use crate::value::{DataType, Value};
use mlss_core::estimator::{Estimator, RunCursor};
use mlss_core::model::SimulationModel;
use mlss_core::partition::balanced_plan;
use mlss_core::plan_cache::{fingerprint, PlanCache, PlanLookup};
use mlss_core::planner::{plan_reuse, ReusePlan};
use mlss_core::prelude::{
    GMlssConfig, Problem, RatioValue, SMlssConfig, SimRng, SrsEstimator, StateScore,
};
use mlss_core::quality::RunControl;
use mlss_core::rng::{rng_from_seed, split_rng, RootCursor};
use mlss_core::scheduler::{
    CompletedQuery, EstimatorQuery, QueryId, Scheduler, SliceableQuery, TenantId,
};
use mlss_core::shard_store::{shard_key, ShardStore, StoredShard};
use mlss_core::spec::{
    estimator_job, resolve_method, target_control, warm_estimator_job, DeferredPlanQuery,
    ModelSchema, ParamSpec, QuerySpec, ResolvedMethod, SpecError, SpecErrorKind, BALANCED_PLAN_KEY,
    PILOT_PATHS, PILOT_SEED_SALT, TARGET_CHECK_EVERY, TARGET_MAX_STEPS,
};
use mlss_models::{
    ar_value_score, last_station_score, position_score, price_score, queue2_score, surplus_score,
    ArModel, CompoundPoisson, GeometricBrownian, JumpDistribution, MarkovChain, RandomWalk,
    SeriesNetwork, TandemQueue, Volatile,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The SQL-facing method enum — re-exported from the spec IR so the
/// dialect parser and the dispatch layer agree on one type.
pub use mlss_core::spec::Method;

/// Schema of the `models` parameter table.
pub fn models_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("model", DataType::Text),
        ColumnDef::new("param", DataType::Text),
        ColumnDef::new("value", DataType::Float),
    ])
    .expect("static schema")
}

/// Schema of the `results` output table.
pub fn results_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("model", DataType::Text),
        ColumnDef::new("method", DataType::Text),
        ColumnDef::new("beta", DataType::Float),
        ColumnDef::new("horizon", DataType::Int),
        ColumnDef::new("tau", DataType::Float),
        ColumnDef::new("variance", DataType::Float),
        ColumnDef::new("steps", DataType::Int),
        ColumnDef::new("n_roots", DataType::Int),
        ColumnDef::new("millis", DataType::Int),
        ColumnDef::new("plan_cache", DataType::Text),
        ColumnDef::new("shard_reuse", DataType::Text),
        ColumnDef::new("tenant", DataType::Text),
    ])
    .expect("static schema")
}

/// Schema of the `rankings` output table: one standings row per raced
/// arm, most durable first. Standings are derived output — the per-arm
/// evidence also lands as journaled `results` rows — so this table is
/// not WAL-journaled; a recovering session re-races or re-reads
/// `results`.
pub fn rankings_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("rank", DataType::Int),
        ColumnDef::new("arm", DataType::Text),
        ColumnDef::new("tau", DataType::Float),
        ColumnDef::new("ci_lo", DataType::Float),
        ColumnDef::new("ci_hi", DataType::Float),
        ColumnDef::new("frozen_round", DataType::Int),
        ColumnDef::new("reason", DataType::Text),
        ColumnDef::new("steps", DataType::Int),
        ColumnDef::new("tenant", DataType::Text),
    ])
    .expect("static schema")
}

/// Create the `models` table and seed it with every registered model's
/// schema defaults (the paper's queue and CPP rows keep their historical
/// values — they *are* the schema defaults). A no-op when the table
/// already exists, so concurrent openers seed it exactly once.
pub fn seed_default_models(db: &Database) -> Result<(), DbError> {
    if !db.ensure_table("models", models_schema()) {
        return Ok(());
    }
    let registry = ModelRegistry::with_builtins();
    let rows: Vec<Vec<Value>> = registry
        .schemas()
        .iter()
        .flat_map(|s| {
            s.params
                .iter()
                .map(|p| vec![s.name.into(), p.name.into(), p.default.into()])
        })
        .collect();
    db.insert_many("models", rows)?;
    Ok(())
}

/// Parameter rows for one model read back from the `models` table (empty
/// when the table — or the model — is absent; schema defaults fill in).
fn load_params(db: &Database, model: &str) -> BTreeMap<String, f64> {
    db.with_table("models", |t| {
        t.scan()
            .filter(|r| r[0].as_str() == Some(model))
            .map(|r| {
                (
                    r[1].as_str().unwrap_or("").to_string(),
                    r[2].as_f64().unwrap_or(f64::NAN),
                )
            })
            .collect::<BTreeMap<_, _>>()
    })
    .unwrap_or_default()
}

fn need(params: &BTreeMap<String, f64>, key: &str) -> Result<f64, DbError> {
    params
        .get(key)
        .copied()
        .ok_or_else(|| DbError::Proc(format!("missing parameter '{key}'")))
}

fn opt(params: &BTreeMap<String, f64>, key: &str, default: f64) -> f64 {
    params.get(key).copied().unwrap_or(default)
}

fn arg_text<'a>(proc_: &str, args: &'a [Value], i: usize) -> Result<&'a str, DbError> {
    args.get(i)
        .and_then(|v| v.as_str())
        .ok_or_else(|| DbError::ProcArgType {
            proc: proc_.to_string(),
            index: i,
            expected: "text",
        })
}

fn arg_i64(proc_: &str, args: &[Value], i: usize) -> Result<i64, DbError> {
    args.get(i)
        .and_then(|v| v.as_i64())
        .ok_or_else(|| DbError::ProcArgType {
            proc: proc_.to_string(),
            index: i,
            expected: "an integer",
        })
}

// ---- the one compile-and-dispatch surface -------------------------------

/// Outcome of one in-database estimate.
pub struct ProcEstimate {
    /// Point estimate `τ̂`.
    pub tau: f64,
    /// Estimated variance of `τ̂`.
    pub variance: f64,
    /// `g` invocations spent.
    pub steps: u64,
    /// Independent root paths simulated.
    pub n_roots: u64,
    /// How this query's partition plan was obtained: `"hit"` (served
    /// from the plan cache), `"miss"` (the pilot ran), or `"none"`
    /// (the method needs no plan). Recorded in the `results` row so
    /// cache effectiveness is observable per query, not just in the
    /// aggregate counters.
    pub plan_source: &'static str,
    /// How the query used the cross-query shard store: `"cold"` (store
    /// consulted, no usable entry), `"warm"` (resumed from a stored
    /// shard, paying only the marginal roots), `"stored"` (answered from
    /// the store without simulating), or `"none"` (no store attached).
    /// Recorded in the `results` row, mirroring `plan_cache`.
    pub shard_reuse: &'static str,
}

/// Everything a runner needs to find (or derive) its partition plan: the
/// session plan cache plus the query fingerprint keying it — and, when
/// the session serves one, the cross-query shard store the reuse planner
/// consults.
pub struct PlanContext {
    /// The session's memoized plans (shared with deferred-pilot jobs).
    pub cache: Arc<PlanCache>,
    /// Fingerprint of (model name, effective parameters, β, horizon).
    pub fingerprint: u64,
    /// The session's shard store (`None` disables cross-query reuse —
    /// every query runs cold and deposits nothing).
    pub store: Option<Arc<ShardStore>>,
}

/// Outcome of an asynchronous submission: the scheduler handle plus the
/// provenance tags the eventual `results` row records.
pub struct SubmitOutcome {
    /// Scheduler query id (poll/wait/cancel handle).
    pub id: QueryId,
    /// Plan-cache provenance (`"hit"`/`"miss"`/`"none"`).
    pub plan_source: &'static str,
    /// Shard-store provenance (`"cold"`/`"warm"`/`"stored"`/`"none"`).
    pub shard_reuse: &'static str,
}

/// The resolved execution plan of a spec — what `EXPLAIN ESTIMATE`
/// reports: the concrete estimator the requested method resolved to
/// (the `auto` rule applied), the level plan, the pilot's τ̂ hint, and
/// the plan-cache provenance of the resolution.
pub struct PlanResolution {
    /// The concrete estimator (with its plan, when it has one).
    pub resolved: ResolvedMethod,
    /// The pilot's τ̂ extrapolation hint (NaN for SRS).
    pub tau_hint: f64,
    /// `"hit"`, `"miss"`, or `"none"`.
    pub plan_source: &'static str,
}

/// Type-erased handle to a concrete model + score pair: the bridge from
/// the dynamically named SQL world to the statically typed estimator
/// spine. Every entry point hands it the same [`QuerySpec`] IR.
pub trait ModelRunner: Send + Sync {
    /// Answer the spec synchronously on the calling thread, on the run
    /// `seed` names, memoizing derived partition plans through `plans`.
    /// With `WITH (threads=N)`, up to `N − 1` of `pool`'s workers help
    /// (see [`Scheduler::run`]); without a pool the run is sequential.
    fn estimate(
        self: Box<Self>,
        spec: &QuerySpec,
        plans: &PlanContext,
        seed: u64,
        pool: Option<&Scheduler>,
    ) -> Result<ProcEstimate, DbError>;

    /// Submit the spec to a [`Scheduler`] instead of running it
    /// synchronously, consuming the runner (the scheduler job takes
    /// ownership of the model). On a plan-cache miss the pilot is **not**
    /// run here — plan derivation is scheduled as the query's first
    /// slice. When the plan context carries a shard store, the reuse
    /// planner routes the submission: a stored entry meeting the target
    /// completes immediately, a looser one warm-starts the job. Returns
    /// the scheduler's query id plus the provenance tags for the
    /// eventual `results` row.
    fn submit(
        self: Box<Self>,
        scheduler: &Scheduler,
        spec: &QuerySpec,
        seed: u64,
        plans: &PlanContext,
    ) -> Result<SubmitOutcome, DbError>;

    /// Build one `RANK BY` race arm as a sliceable job — the same
    /// construction [`ModelRunner::submit`] uses, minus the scheduler
    /// and the shard store (arms never reuse or deposit: the race's
    /// pooled per-arm shard *is* its state, and standings must not
    /// depend on what earlier queries left behind). On a plan-cache miss
    /// the pilot is deferred to the arm's first slice, single-flight
    /// through the shared cache — same-shape arms share one pilot. The
    /// job runs in budget mode to the target valve: the race checks the
    /// arm's target itself, at its round ends.
    /// Returns the job plus its plan-cache provenance.
    fn rank_arm(
        self: Box<Self>,
        spec: &QuerySpec,
        seed: u64,
        plans: &PlanContext,
        default_width: usize,
    ) -> Result<(Box<dyn SliceableQuery>, &'static str), DbError>;

    /// Resubmit a recovered ASYNC query from a durable checkpoint:
    /// `method` is the resolved estimator the checkpoint was cut under
    /// and `entry` its shard + run cursor at a slice boundary. Warm-starts
    /// when the plan and shard type line up; any mismatch (plan not in
    /// the cache, foreign shard, non-SQL estimator) falls back to
    /// [`ModelRunner::submit`] — a cold rerun from `seed`, which under
    /// a pinned seed replays the identical run and is therefore
    /// still bit-exact, just slower. The default implementation is
    /// that fallback.
    fn resume(
        self: Box<Self>,
        scheduler: &Scheduler,
        spec: &QuerySpec,
        seed: u64,
        plans: &PlanContext,
        method: &str,
        entry: &StoredShard,
    ) -> Result<SubmitOutcome, DbError> {
        let _ = (method, entry);
        self.submit(scheduler, spec, seed, plans)
    }

    /// Resolve the spec's execution plan without running the estimator:
    /// the `auto` rule, the level plan (derived through the cache — the
    /// pilot runs on a cold cache, on `seed`'s pilot stream), and the
    /// cache provenance. This is the engine behind `EXPLAIN ESTIMATE`.
    fn resolve_plan(
        &self,
        spec: &QuerySpec,
        plans: &PlanContext,
        seed: u64,
    ) -> Result<PlanResolution, DbError>;

    /// Resolve the launch width this spec will execute with, plus the
    /// resolution's provenance. `default_width` is the layer fallback
    /// that applies when the spec doesn't say (1 for the sync drivers,
    /// the scheduler's configured width for async). Provenance values:
    /// `"requested"` (an explicit number in the spec), `"default"` (the
    /// inherited layer fallback), `"static"` (auto, picked from the
    /// model's kernel class without measuring), `"probe"` (auto, a
    /// micro-calibration burst ran and its winner was memoized in the
    /// plan cache), `"cached-probe"` (auto, a previous probe answered).
    ///
    /// Probes time throwaway bursts on a run keyed by the query
    /// fingerprint — never the query's run — so `batch_width=auto`
    /// stays bit-identical to running the resolved width explicitly.
    fn resolve_width(
        &self,
        spec: &QuerySpec,
        plans: &PlanContext,
        default_width: usize,
    ) -> (usize, &'static str);

    /// Simulate `n_paths` on the batched frontier kernel (cohorts of
    /// `batch_width` lanes, one RNG stream per path — rows are
    /// bit-identical at every width) and insert `(path_id, t, score)`
    /// rows into `dest`. Returns the number of rows written.
    fn materialize(
        &self,
        db: &Database,
        dest: &str,
        horizon: u64,
        n_paths: u64,
        batch_width: usize,
        rng: &mut SimRng,
    ) -> Result<i64, DbError>;
}

/// Resolve the spec's fair-share tenant to a scheduler tenant id
/// (registering the name on first sight; weights are managed by the
/// serving layer).
fn tenant_of(scheduler: &Scheduler, spec: &QuerySpec) -> Option<TenantId> {
    spec.options
        .tenant
        .as_deref()
        .map(|name| scheduler.ensure_tenant(name))
}

/// Feed a completed run's steps/root back to the width policy's drift
/// check (a no-op for families with no memoized probe).
fn observe_regime(plans: &PlanContext, steps: u64, n_roots: u64) {
    if n_roots > 0 {
        plans
            .cache
            .observe_regime(plans.fingerprint, steps as f64 / n_roots as f64);
    }
}

/// The [`ModelRunner`] over one model and its score: what a
/// [`ModelRegistry`] builder returns.
pub struct Runner<M, Z> {
    /// The simulation model (`g`).
    pub model: M,
    /// The score function the value function thresholds.
    pub score: Z,
}

impl<M, Z> Runner<M, Z>
where
    M: SimulationModel + Send + Sync,
    M::State: Send,
    Z: StateScore<M::State> + Copy + Send + Sync,
{
    /// Run `est` over the model on the calling thread (with pool helpers
    /// under `WITH (threads=N)`), consulting the shard store first: a
    /// stored entry that already meets the target is served outright, a
    /// looser one warm-starts the run, and every run deposits its final
    /// shard (plus its run cursor) back for the next query over the same
    /// key.
    fn drive_reused<E>(
        self,
        est: E,
        spec: &QuerySpec,
        plans: &PlanContext,
        resolved: &ResolvedMethod,
        seed: u64,
        pool: Option<&Scheduler>,
    ) -> ProcEstimate
    where
        M: 'static,
        Z: 'static,
        E: Estimator<M, RatioValue<Z>> + Send + 'static,
        E::Shard: Clone + 'static,
    {
        // `batch_width=auto` resolves here — per model, memoized per
        // fingerprint — before the run launches.
        let (width, _) = self.width_for(spec, plans, 1);
        let control = target_control(spec.target_re);
        let store = plans.store.as_deref();
        let key = store.map(|_| shard_key(plans.fingerprint, resolved.name(), resolved.plan()));
        let plan = match (store, &key) {
            (Some(s), Some(k)) => plan_reuse(s, k, spec.target_re, spec.options.seed),
            _ => ReusePlan::Cold,
        };

        // Serve-from-store: the stored shard already meets the target.
        if let ReusePlan::Stored { entry } = &plan {
            let e = entry.estimate;
            return ProcEstimate {
                tau: e.tau,
                variance: e.variance,
                steps: e.steps,
                n_roots: e.n_roots,
                plan_source: "none",
                shard_reuse: "stored",
            };
        }

        // Warm-start: continue the stored checkpoint's run, the exact
        // trajectory a longer cold run takes (bit-identical under a
        // pinned seed, at every thread count).
        let warm = match &plan {
            ReusePlan::Warm { entry, .. } => entry
                .shard_as::<E::Shard>()
                .map(|s| (s.clone(), entry.cursor)),
            _ => None,
        };
        let shard_reuse: &'static str = if warm.is_some() {
            "warm"
        } else if store.is_some() {
            "cold"
        } else {
            "none"
        };
        let (initial, cursor) = warm.unwrap_or_else(|| (est.shard(), RunCursor::from_seed(seed)));
        let Runner { model, score } = self;
        let vf = RatioValue::new(score, spec.beta);
        let job =
            EstimatorQuery::from_parts(model, vf, spec.horizon, est, control, initial, cursor)
                .with_batch_width(width)
                .with_threads(spec.options.threads);
        let run = match pool {
            Some(pool) if spec.options.threads > 1 => {
                pool.run(job, spec.options.priority, tenant_of(pool, spec))
            }
            _ => job.run(),
        };
        if let (Some(s), Some(k)) = (store, key) {
            s.deposit(
                k,
                StoredShard::new(
                    &run.shard,
                    run.cursor,
                    run.estimate,
                    spec.options.seed,
                    spec.target_re,
                ),
            );
        }
        let e = run.estimate;
        observe_regime(plans, e.steps, e.n_roots);
        ProcEstimate {
            tau: e.tau,
            variance: e.variance,
            steps: e.steps,
            n_roots: e.n_roots,
            plan_source: "none",
            shard_reuse,
        }
    }

    /// The traced plan lookup every plan-needing path shares: the
    /// pilot-plus-tail-fit runs only on a cache miss, on `seed`'s pilot
    /// stream (the one a deferred ASYNC pilot uses); repeated queries
    /// over the same (model, params, β, horizon) reuse the stored plan.
    fn plan_for(
        &self,
        spec: &QuerySpec,
        plans: &PlanContext,
        seed: u64,
    ) -> (PlanLookup, &'static str) {
        let vf = RatioValue::new(self.score, spec.beta);
        let problem = Problem::new(&self.model, &vf, spec.horizon);
        let lookup = plans.cache.get_or_build_traced(
            plans.fingerprint,
            BALANCED_PLAN_KEY,
            spec.levels,
            || {
                let mut pilot_rng = rng_from_seed(seed ^ PILOT_SEED_SALT);
                balanced_plan(problem, spec.levels, PILOT_PATHS, &mut pilot_rng)
            },
        );
        let src = if lookup.hit { "hit" } else { "miss" };
        (lookup, src)
    }

    /// Width resolution shared by every execution path (see
    /// [`ModelRunner::resolve_width`] for the provenance contract).
    fn width_for(
        &self,
        spec: &QuerySpec,
        plans: &PlanContext,
        default_width: usize,
    ) -> (usize, &'static str) {
        let requested = spec.options.batch_width.unwrap_or(default_width);
        if requested != mlss_core::width::AUTO_WIDTH {
            return (
                requested,
                if spec.options.batch_width.is_some() {
                    "requested"
                } else {
                    "default"
                },
            );
        }
        let mut reprobe_baseline = None;
        if let Some(memo) = plans.cache.width_memo(plans.fingerprint) {
            if !memo.drifted(WIDTH_REGIME_DRIFT) {
                return (memo.width, "cached-probe");
            }
            // The family's observed steps/root has drifted >2x from the
            // regime the memoized probe was measured in: the winner may
            // no longer be the winner. Re-calibrate, anchoring the new
            // entry's baseline at the drifted (observed) regime.
            reprobe_baseline = memo.observed_regime;
        }
        let class = self.model.kernel_class();
        if class == mlss_core::width::KernelClass::Cheap {
            // Nothing to measure: a cheap kernel's width curve is flat
            // past the narrow pick, and probing would cost more than a
            // wrong answer ever could.
            return (
                mlss_core::width::static_width(class, spec.horizon),
                "static",
            );
        }
        // Micro-calibration: time one check cadence's roots per candidate
        // width on a throwaway run keyed by the fingerprint. That fills
        // the widest cohort, which a small step budget would not: the
        // launch gate runs only the roots a budget pays for. Every
        // candidate replays the identical paths (the cursor restarts per
        // call), so the comparison isolates width. The winner is
        // memoized in the plan cache — repeats of this query family
        // resolve as "cached-probe" without ever probing again.
        let vf = RatioValue::new(self.score, spec.beta);
        let problem = Problem::new(&self.model, &vf, spec.horizon);
        let est = SrsEstimator;
        let picked = mlss_core::width::calibrate(class.probe_candidates(), |w| {
            let mut roots = RootCursor::new(plans.fingerprint ^ WIDTH_PROBE_SEED_SALT);
            roots.end = TARGET_CHECK_EVERY;
            let mut shard = <SrsEstimator as Estimator<M, RatioValue<Z>>>::shard(&est);
            est.run_chunk(problem, &mut shard, u64::MAX, &mut roots, w);
        });
        plans
            .cache
            .memo_width(plans.fingerprint, picked, reprobe_baseline);
        if reprobe_baseline.is_some() {
            mlss_core::width::record_reprobe();
            (picked, "re-probe")
        } else {
            (picked, "probe")
        }
    }
}

impl<M, Z> ModelRunner for Runner<M, Z>
where
    M: SimulationModel + Send + Sync + 'static,
    M::State: Send,
    Z: StateScore<M::State> + Copy + Send + Sync + 'static,
{
    fn estimate(
        self: Box<Self>,
        spec: &QuerySpec,
        plans: &PlanContext,
        seed: u64,
        pool: Option<&Scheduler>,
    ) -> Result<ProcEstimate, DbError> {
        let resolution = self.resolve_plan(spec, plans, seed)?;
        let control = target_control(spec.target_re);
        let resolved = &resolution.resolved;
        let runner = *self;
        let mut est = match resolved {
            ResolvedMethod::Srs => {
                runner.drive_reused(SrsEstimator, spec, plans, resolved, seed, pool)
            }
            ResolvedMethod::SMlss(plan) => {
                let cfg = SMlssConfig::new(plan.clone(), control);
                runner.drive_reused(cfg, spec, plans, resolved, seed, pool)
            }
            ResolvedMethod::GMlss(plan) => {
                let cfg = GMlssConfig::new(plan.clone(), control);
                runner.drive_reused(cfg, spec, plans, resolved, seed, pool)
            }
        };
        est.plan_source = resolution.plan_source;
        Ok(est)
    }

    fn submit(
        self: Box<Self>,
        scheduler: &Scheduler,
        spec: &QuerySpec,
        seed: u64,
        plans: &PlanContext,
    ) -> Result<SubmitOutcome, DbError> {
        /// Route one resolved method through the reuse planner: a
        /// stored entry meeting the target becomes an
        /// instantly-finished [`CompletedQuery`], a looser one
        /// warm-starts the estimator job, and a miss (or storeless
        /// session) runs cold — tagged for checkpoint deposit whenever
        /// a store is attached.
        #[allow(clippy::too_many_arguments)]
        fn route<M, Z>(
            model: M,
            score: Z,
            spec: &QuerySpec,
            resolved: &ResolvedMethod,
            control: RunControl,
            seed: u64,
            width: usize,
            store: Option<&ShardStore>,
            fp: u64,
        ) -> (Box<dyn SliceableQuery>, &'static str)
        where
            M: SimulationModel + Send + 'static,
            M::State: Send,
            Z: StateScore<M::State> + Copy + Send + Sync + 'static,
        {
            let Some(store) = store else {
                let job = estimator_job(
                    model,
                    score,
                    spec.beta,
                    spec.horizon,
                    resolved,
                    control,
                    seed,
                    width,
                    spec.options.threads,
                    None,
                );
                return (job, "none");
            };
            let key = shard_key(fp, resolved.name(), resolved.plan());
            match plan_reuse(store, &key, spec.target_re, spec.options.seed) {
                ReusePlan::Stored { entry } => (
                    Box::new(CompletedQuery::new(entry.estimate)) as Box<dyn SliceableQuery>,
                    "stored",
                ),
                ReusePlan::Warm { entry, .. } => {
                    let (job, warmed) = warm_estimator_job(
                        model,
                        score,
                        spec.beta,
                        spec.horizon,
                        resolved,
                        control,
                        &entry,
                        seed,
                        width,
                        spec.options.threads,
                        fp,
                    );
                    (job, if warmed { "warm" } else { "cold" })
                }
                ReusePlan::Cold => {
                    let job = estimator_job(
                        model,
                        score,
                        spec.beta,
                        spec.horizon,
                        resolved,
                        control,
                        seed,
                        width,
                        spec.options.threads,
                        Some(fp),
                    );
                    (job, "cold")
                }
            }
        }

        let control = target_control(spec.target_re);
        // Per-query batch width: the spec's, falling back to the pool's;
        // `auto` (from either) resolves to a concrete width here so the
        // job is built with the width it will run at.
        let (width, _) = self.width_for(spec, plans, scheduler.config().batch_width);
        let priority = spec.options.priority;
        let tenant = tenant_of(scheduler, spec);
        let store = plans.store.as_deref();
        let fp = plans.fingerprint;
        let Runner { model, score } = *self;
        if !spec.method.needs_plan() {
            let (job, shard_reuse) = route(
                model,
                score,
                spec,
                &ResolvedMethod::Srs,
                control,
                seed,
                width,
                store,
                fp,
            );
            return Ok(SubmitOutcome {
                id: scheduler.submit_query_as(job, priority, tenant),
                plan_source: "none",
                shard_reuse,
            });
        }
        // Warm plan: dispatch the concrete estimator immediately. Cold
        // plan: admit a deferred job whose *first slice* derives the
        // plan (single-flight through the shared cache), so a cold
        // submit never blocks the caller on the pilot.
        match plans
            .cache
            .lookup_traced(fp, BALANCED_PLAN_KEY, spec.levels)
        {
            Some(lookup) => {
                let resolved = resolve_method(spec.method, Some(&lookup));
                let (job, shard_reuse) = route(
                    model, score, spec, &resolved, control, seed, width, store, fp,
                );
                Ok(SubmitOutcome {
                    id: scheduler.submit_query_as(job, priority, tenant),
                    plan_source: "hit",
                    shard_reuse,
                })
            }
            None => {
                let job = Box::new(DeferredPlanQuery::new(
                    model,
                    score,
                    spec.beta,
                    spec.horizon,
                    spec.method,
                    spec.levels,
                    control,
                    seed,
                    width,
                    spec.options.threads,
                    Arc::clone(&plans.cache),
                    fp,
                ));
                Ok(SubmitOutcome {
                    id: scheduler.submit_query_as(job, priority, tenant),
                    plan_source: "miss",
                    shard_reuse: if store.is_some() { "cold" } else { "none" },
                })
            }
        }
    }

    fn rank_arm(
        self: Box<Self>,
        spec: &QuerySpec,
        seed: u64,
        plans: &PlanContext,
        default_width: usize,
    ) -> Result<(Box<dyn SliceableQuery>, &'static str), DbError> {
        // The race checks the arm's target at its round ends; the job
        // itself only carries the step valve.
        let control = RunControl::budget(TARGET_MAX_STEPS);
        let (width, _) = self.width_for(spec, plans, default_width);
        let fp = plans.fingerprint;
        let Runner { model, score } = *self;
        if !spec.method.needs_plan() {
            let job = estimator_job(
                model,
                score,
                spec.beta,
                spec.horizon,
                &ResolvedMethod::Srs,
                control,
                seed,
                width,
                1,
                None,
            );
            return Ok((job, "none"));
        }
        match plans
            .cache
            .lookup_traced(fp, BALANCED_PLAN_KEY, spec.levels)
        {
            Some(lookup) => {
                let resolved = resolve_method(spec.method, Some(&lookup));
                let job = estimator_job(
                    model,
                    score,
                    spec.beta,
                    spec.horizon,
                    &resolved,
                    control,
                    seed,
                    width,
                    1,
                    None,
                );
                Ok((job, "hit"))
            }
            None => {
                let job = Box::new(DeferredPlanQuery::new(
                    model,
                    score,
                    spec.beta,
                    spec.horizon,
                    spec.method,
                    spec.levels,
                    control,
                    seed,
                    width,
                    1,
                    Arc::clone(&plans.cache),
                    fp,
                ));
                Ok((job, "miss"))
            }
        }
    }

    fn resume(
        self: Box<Self>,
        scheduler: &Scheduler,
        spec: &QuerySpec,
        seed: u64,
        plans: &PlanContext,
        method: &str,
        entry: &StoredShard,
    ) -> Result<SubmitOutcome, DbError> {
        let control = target_control(spec.target_re);
        let (width, _) = self.width_for(spec, plans, scheduler.config().batch_width);
        // Rebuild the resolved method the checkpoint was cut under. The
        // plan must come from the (replay-seeded) cache: deriving a
        // fresh one could shift level boundaries and desync the shard.
        let resolved = match method {
            "srs" => Some(ResolvedMethod::Srs),
            "smlss" | "gmlss" => plans
                .cache
                .lookup_traced(plans.fingerprint, BALANCED_PLAN_KEY, spec.levels)
                .map(|l| {
                    if method == "smlss" {
                        ResolvedMethod::SMlss(l.plan)
                    } else {
                        ResolvedMethod::GMlss(l.plan)
                    }
                }),
            _ => None,
        };
        let Some(resolved) = resolved else {
            // Plan lost with the log tail (or a non-SQL estimator):
            // cold rerun from the recorded seed.
            return self.submit(scheduler, spec, seed, plans);
        };
        let Runner { model, score } = *self;
        let (job, _warmed) = warm_estimator_job(
            model,
            score,
            spec.beta,
            spec.horizon,
            &resolved,
            control,
            entry,
            seed,
            width,
            spec.options.threads,
            plans.fingerprint,
        );
        Ok(SubmitOutcome {
            id: scheduler.submit_query_as(job, spec.options.priority, tenant_of(scheduler, spec)),
            plan_source: "hit",
            shard_reuse: "warm",
        })
    }

    fn resolve_plan(
        &self,
        spec: &QuerySpec,
        plans: &PlanContext,
        seed: u64,
    ) -> Result<PlanResolution, DbError> {
        if !spec.method.needs_plan() {
            return Ok(PlanResolution {
                resolved: ResolvedMethod::Srs,
                tau_hint: f64::NAN,
                plan_source: "none",
            });
        }
        let (lookup, src) = self.plan_for(spec, plans, seed);
        Ok(PlanResolution {
            resolved: resolve_method(spec.method, Some(&lookup)),
            tau_hint: lookup.tau_hint,
            plan_source: src,
        })
    }

    fn resolve_width(
        &self,
        spec: &QuerySpec,
        plans: &PlanContext,
        default_width: usize,
    ) -> (usize, &'static str) {
        self.width_for(spec, plans, default_width)
    }

    fn materialize(
        &self,
        db: &Database,
        dest: &str,
        horizon: u64,
        n_paths: u64,
        batch_width: usize,
        rng: &mut SimRng,
    ) -> Result<i64, DbError> {
        let width = batch_width.max(1);
        let mut total = 0i64;
        let mut pid = 0u64;
        while pid < n_paths {
            let k = width.min((n_paths - pid) as usize);
            // One child stream per path, split in path order: the rows
            // for path i are a function of i alone, never of the cohort
            // width — `batch_width` is purely a throughput knob.
            let mut rngs: Vec<SimRng> = (0..k).map(|_| split_rng(rng)).collect();
            let mut lanes: Vec<M::State> = (0..k).map(|_| self.model.initial_state()).collect();
            let alive: Vec<usize> = (0..k).collect();
            let mut traces: Vec<Vec<f64>> = lanes
                .iter()
                .map(|s| {
                    let mut trace = Vec::with_capacity(horizon as usize + 1);
                    trace.push(self.score.score(s));
                    trace
                })
                .collect();
            let mut ts = vec![0u64; k];
            for t in 1..=horizon {
                ts.iter_mut().for_each(|x| *x = t);
                self.model.step_batch(&mut lanes, &ts, &mut rngs, &alive);
                for (trace, s) in traces.iter_mut().zip(&lanes) {
                    trace.push(self.score.score(s));
                }
            }
            for (i, trace) in traces.iter().enumerate() {
                let path_id = (pid + i as u64) as i64;
                let rows = trace.iter().enumerate().map(|(t, v)| {
                    vec![Value::Int(path_id), Value::Int(t as i64), Value::Float(*v)]
                });
                total += db.insert_many(dest, rows)? as i64;
            }
            pid += k as u64;
        }
        Ok(total)
    }
}

/// Builds a model's runner from its effective parameters and the
/// query horizon.
pub type ModelBuilder = fn(&BTreeMap<String, f64>, u64) -> Result<Box<dyn ModelRunner>, DbError>;

/// Registry mapping model names to their named-parameter [`ModelSchema`]
/// plus a builder over the effective parameter map — the SQL layer's
/// pluggable catalog of stochastic substrates. The schema drives
/// override validation, `SHOW MODELS`, and `seed_default_models`.
#[derive(Clone)]
pub struct ModelRegistry {
    entries: BTreeMap<&'static str, (ModelSchema, ModelBuilder)>,
}

fn markov_state_score(s: &usize) -> f64 {
    *s as f64
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl ModelRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self {
            entries: BTreeMap::new(),
        }
    }

    /// Registry preloaded with every `mlss_models` substrate.
    pub fn with_builtins() -> Self {
        let mut r = Self::new();
        r.register(
            ModelSchema::new(
                "queue",
                "tandem M/M/1 queues; score = second queue length",
                vec![
                    ParamSpec::float("arrival_rate", 0.5, 1e-9, 1e6, "Poisson arrival rate"),
                    ParamSpec::float("service_rate1", 0.5, 1e-9, 1e6, "station-1 service rate"),
                    ParamSpec::float("service_rate2", 0.5, 1e-9, 1e6, "station-2 service rate"),
                ],
            ),
            |p, _| {
                Ok(Box::new(Runner {
                    model: TandemQueue::new(
                        need(p, "arrival_rate")?,
                        need(p, "service_rate1")?,
                        need(p, "service_rate2")?,
                    ),
                    score: queue2_score,
                }))
            },
        );
        r.register(
            ModelSchema::new(
                "cpp",
                "compound-Poisson insurance surplus; score = deficit below 0",
                vec![
                    ParamSpec::float("initial", 15.0, 0.0, 1e12, "initial surplus"),
                    ParamSpec::float("premium", 4.5, 0.0, 1e6, "premium income per step"),
                    ParamSpec::float("intensity", 0.8, 1e-9, 1e6, "claim arrival intensity"),
                    ParamSpec::float("jump_lo", 5.0, 0.0, 1e9, "claim size lower bound"),
                    ParamSpec::float("jump_hi", 10.0, 0.0, 1e9, "claim size upper bound"),
                ],
            ),
            |p, _| {
                Ok(Box::new(Runner {
                    model: CompoundPoisson::new(
                        need(p, "initial")?,
                        need(p, "premium")?,
                        need(p, "intensity")?,
                        JumpDistribution::Uniform {
                            lo: need(p, "jump_lo")?,
                            hi: need(p, "jump_hi")?,
                        },
                    ),
                    score: surplus_score,
                }))
            },
        );
        r.register(
            ModelSchema::new(
                "walk",
                "±1 lattice random walk; score = position",
                vec![
                    ParamSpec::float("up", 0.3, 0.0, 1.0, "up-step probability"),
                    ParamSpec::float("down", 0.3, 0.0, 1.0, "down-step probability"),
                    ParamSpec::int("start", 0.0, -1e9, 1e9, "starting position"),
                    ParamSpec::flag("reflect", 1.0, "reflect at 0 instead of absorbing"),
                ],
            ),
            |p, _| {
                let mut walk = RandomWalk::new(
                    opt(p, "up", 0.3),
                    opt(p, "down", 0.3),
                    opt(p, "start", 0.0) as i64,
                );
                if opt(p, "reflect", 1.0) != 0.0 {
                    walk = walk.reflected();
                }
                Ok(Box::new(Runner {
                    model: walk,
                    score: position_score,
                }))
            },
        );
        r.register(
            ModelSchema::new(
                "gbm",
                "geometric Brownian motion; score = price",
                vec![
                    ParamSpec::float("initial", 525.0, 1e-9, 1e12, "initial price"),
                    ParamSpec::float("drift", 0.25, -100.0, 100.0, "annualized drift"),
                    ParamSpec::float("volatility", 0.28, 0.0, 100.0, "annualized volatility"),
                    ParamSpec::float("dt", 1.0 / 252.0, 1e-9, 1e3, "time increment per step"),
                ],
            ),
            |p, _| {
                Ok(Box::new(Runner {
                    model: GeometricBrownian::new(
                        opt(p, "initial", 525.0),
                        opt(p, "drift", 0.25),
                        opt(p, "volatility", 0.28),
                        opt(p, "dt", 1.0 / 252.0),
                    ),
                    score: price_score,
                }))
            },
        );
        r.register(
            ModelSchema::new(
                "ar",
                "AR(1) autoregressive process; score = value",
                vec![
                    ParamSpec::float("phi", 0.7, -1.0, 1.0, "autoregression coefficient"),
                    ParamSpec::float("sigma", 1.0, 0.0, 1e6, "innovation std deviation"),
                    ParamSpec::float("initial", 0.0, -1e9, 1e9, "starting value"),
                ],
            ),
            |p, _| {
                Ok(Box::new(Runner {
                    model: ArModel::ar1(
                        opt(p, "phi", 0.7),
                        opt(p, "sigma", 1.0),
                        opt(p, "initial", 0.0),
                    ),
                    score: ar_value_score,
                }))
            },
        );
        r.register(
            ModelSchema::new(
                "markov",
                "birth-death Markov chain; score = state index",
                vec![
                    ParamSpec::int("states", 32.0, 2.0, 1e6, "number of states"),
                    ParamSpec::float("p_up", 0.3, 0.0, 1.0, "up-transition probability"),
                    ParamSpec::float("p_down", 0.3, 0.0, 1.0, "down-transition probability"),
                    ParamSpec::int("initial", 0.0, 0.0, 1e6, "starting state"),
                ],
            ),
            |p, _| {
                let states = opt(p, "states", 32.0).max(2.0) as usize;
                Ok(Box::new(Runner {
                    model: MarkovChain::birth_death(
                        states,
                        opt(p, "p_up", 0.3),
                        opt(p, "p_down", 0.3),
                        (opt(p, "initial", 0.0).max(0.0) as usize).min(states - 1),
                    ),
                    score: markov_state_score,
                }))
            },
        );
        r.register(
            ModelSchema::new(
                "network",
                "series queueing network; score = last-station queue length",
                vec![
                    ParamSpec::float("arrival_rate", 0.4, 1e-9, 1e6, "external arrival rate"),
                    ParamSpec::int("stations", 3.0, 1.0, 1024.0, "stations in series"),
                    ParamSpec::float("service_rate", 0.5, 1e-9, 1e6, "per-station service rate"),
                ],
            ),
            |p, _| {
                let stations = opt(p, "stations", 3.0).max(1.0) as usize;
                Ok(Box::new(Runner {
                    model: SeriesNetwork::new(
                        opt(p, "arrival_rate", 0.4),
                        vec![opt(p, "service_rate", 0.5); stations],
                    ),
                    score: last_station_score,
                }))
            },
        );
        r.register(
            ModelSchema::new(
                "volatile",
                "CPP with late-horizon impulses (§6.2 level-skipping regime)",
                vec![
                    ParamSpec::float("initial", 15.0, 0.0, 1e12, "initial surplus"),
                    ParamSpec::float("premium", 4.5, 0.0, 1e6, "premium income per step"),
                    ParamSpec::float("intensity", 0.8, 1e-9, 1e6, "claim arrival intensity"),
                    ParamSpec::float("jump_lo", 5.0, 0.0, 1e9, "claim size lower bound"),
                    ParamSpec::float("jump_hi", 10.0, 0.0, 1e9, "claim size upper bound"),
                    ParamSpec::float("impulse", 200.0, 0.0, 1e9, "impulse claim size"),
                    ParamSpec::float(
                        "impulse_prob",
                        0.005,
                        0.0,
                        1.0,
                        "per-step impulse probability",
                    ),
                ],
            ),
            |p, horizon| {
                let base = CompoundPoisson::new(
                    opt(p, "initial", 15.0),
                    opt(p, "premium", 4.5),
                    opt(p, "intensity", 0.8),
                    JumpDistribution::Uniform {
                        lo: opt(p, "jump_lo", 5.0),
                        hi: opt(p, "jump_hi", 10.0),
                    },
                );
                let impulse = opt(p, "impulse", 200.0);
                let prob = opt(p, "impulse_prob", 0.005);
                // The paper's Volatile CPP: impulses only in the last 20% of
                // the horizon — exactly the §6.2 level-skipping regime.
                Ok(Box::new(Runner {
                    model: Volatile::new(base, horizon * 8 / 10, prob, move |u: &mut f64| {
                        *u += impulse
                    }),
                    score: surplus_score,
                }))
            },
        );
        r
    }

    /// Register (or replace) a model: its parameter schema plus a
    /// builder over the effective parameter map.
    pub fn register(&mut self, schema: ModelSchema, builder: ModelBuilder) {
        self.entries.insert(schema.name, (schema, builder));
    }

    /// Registered model names.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.keys().copied().collect()
    }

    /// The parameter schema of a registered model.
    pub fn schema(&self, name: &str) -> Option<&ModelSchema> {
        self.entries.get(name).map(|(s, _)| s)
    }

    /// All registered schemas (the `SHOW MODELS` catalog and the parser's
    /// validation catalog).
    pub fn schemas(&self) -> Vec<&ModelSchema> {
        self.entries.values().map(|(s, _)| s).collect()
    }

    /// The effective parameters of a model for a spec: schema defaults,
    /// overlaid with the model's `models`-table rows, overlaid with the
    /// spec's named overrides (validated against the schema).
    pub fn effective_params(
        &self,
        db: &Database,
        spec: &QuerySpec,
    ) -> Result<BTreeMap<String, f64>, DbError> {
        let (schema, _) = self.entries.get(spec.model.as_str()).ok_or_else(|| {
            SpecError::new(SpecErrorKind::UnknownModel {
                name: spec.model.clone(),
                known: self.names().iter().map(|s| s.to_string()).collect(),
            })
        })?;
        schema.validate_overrides(&spec.params)?;
        let mut params = schema.defaults();
        params.extend(load_params(db, &spec.model));
        params.extend(spec.params.iter().map(|(k, v)| (k.clone(), *v)));
        Ok(params)
    }

    /// Build a runner for a spec from its effective parameters, plus the
    /// plan-cache fingerprint of (model name, parameters, β, horizon)
    /// and the effective parameter map itself (so callers like
    /// `EXPLAIN` don't recompute the overlay).
    #[allow(clippy::type_complexity)]
    pub fn build_spec(
        &self,
        db: &Database,
        spec: &QuerySpec,
    ) -> Result<(Box<dyn ModelRunner>, u64, BTreeMap<String, f64>), DbError> {
        let params = self.effective_params(db, spec)?;
        let (_, builder) = self
            .entries
            .get(spec.model.as_str())
            .expect("checked by effective_params");
        let fp = fingerprint(
            &spec.model,
            params.iter().map(|(k, v)| (k.as_str(), *v)),
            spec.beta,
            spec.horizon,
        );
        Ok((builder(&params, spec.horizon)?, fp, params))
    }
}

/// Default cohort width for `materialize_paths` (rows are bit-identical
/// at every width; this is a throughput default).
const MATERIALIZE_BATCH_WIDTH: usize = 64;

/// Salt XORed into the query fingerprint to seed probe streams, so the
/// throwaway calibration draws can never collide with any stream a real
/// run derives from a user seed.
const WIDTH_PROBE_SEED_SALT: u64 = 0x5749_4454_4841_5554;

/// Re-probe threshold: when a family's observed steps/root moves more
/// than this factor (either direction) from the regime its memoized
/// width probe was measured in, the probe is re-run — a short query
/// tuned narrow may want a wide cohort once its runs grow 2x deeper,
/// and vice versa.
const WIDTH_REGIME_DRIFT: f64 = 2.0;

/// `materialize_paths(model, horizon, n_paths, dest [, batch_width])`:
/// simulate `n_paths` of the registered `model` and store them in `dest`
/// as `(path_id, t, value)` rows, returning the row count. A wrong
/// argument count is [`DbError::ProcArity`], a wrong argument type
/// [`DbError::ProcArgType`], and a malformed model reference
/// [`DbError::Spec`].
pub fn materialize_paths(
    db: &Database,
    models: &ModelRegistry,
    args: &[Value],
    rng: &mut SimRng,
) -> Result<Value, DbError> {
    let proc_ = "materialize_paths";
    if !(4..=5).contains(&args.len()) {
        return Err(DbError::ProcArity {
            proc: proc_.to_string(),
            expected: "4..=5".to_string(),
            got: args.len(),
        });
    }
    let model_name = arg_text(proc_, args, 0)?.to_string();
    let horizon = arg_i64(proc_, args, 1)?.max(1) as u64;
    let n_paths = arg_i64(proc_, args, 2)?.max(1) as u64;
    let dest = arg_text(proc_, args, 3)?.to_string();
    let width = match args.get(4) {
        None => MATERIALIZE_BATCH_WIDTH,
        Some(_) => {
            let w = arg_i64(proc_, args, 4)?;
            if w < 1 {
                return Err(DbError::Proc("batch_width must be ≥ 1".into()));
            }
            w as usize
        }
    };

    let schema = Schema::new(vec![
        ColumnDef::new("path_id", DataType::Int),
        ColumnDef::new("t", DataType::Int),
        ColumnDef::new("value", DataType::Float),
    ])
    .expect("static schema");
    db.create_or_replace_table(dest.clone(), schema);

    let spec = QuerySpec::new(model_name, 0.0, horizon, 1.0);
    let (runner, _, _) = models.build_spec(db, &spec)?;
    let total = runner.materialize(db, &dest, horizon, n_paths, width, rng)?;
    Ok(Value::Int(total))
}

/// Convenience: count rows in `results` (used by tests/examples).
pub fn results_count(db: &Database) -> Result<i64, DbError> {
    db.with_table("results", |t| {
        t.aggregate(&Aggregate::CountAll, None)
            .map(|v| v.as_i64().unwrap_or(0))
    })?
    .map_err(DbError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Session, SessionConfig};
    use mlss_core::rng::rng_from_seed;

    fn db() -> Database {
        let db = Database::new();
        seed_default_models(&db).unwrap();
        db
    }

    #[test]
    fn model_registry_has_all_substrates() {
        let m = ModelRegistry::with_builtins();
        for name in [
            "queue", "cpp", "walk", "gbm", "ar", "markov", "network", "volatile",
        ] {
            assert!(m.names().contains(&name), "missing model '{name}'");
            let schema = m.schema(name).unwrap();
            assert!(!schema.params.is_empty(), "{name}: empty schema");
        }
        assert!(m.names().len() >= 8);
    }

    #[test]
    fn seeded_table_matches_schema_defaults() {
        // seed_default_models writes exactly the schema defaults, so the
        // effective-parameter overlay is the identity on a fresh table
        // (and so plan-cache fingerprints are stable).
        let db = db();
        let m = ModelRegistry::with_builtins();
        for schema in m.schemas() {
            let spec = QuerySpec::new(schema.name, 1.0, 10, 0.5);
            let params = m.effective_params(&db, &spec).unwrap();
            for p in &schema.params {
                assert_eq!(params.get(p.name), Some(&p.default), "{}", p.name);
            }
        }
    }

    #[test]
    fn new_methods_and_models_estimate() {
        let s = Session::new(SessionConfig {
            seed: 6,
            ..SessionConfig::default()
        })
        .unwrap();
        // Every (model, method) pair below must produce a probability.
        // Note: s-MLSS is paired with a continuous-state model (AR). On
        // coarse discrete scores a balanced plan can create levels no
        // state value lands in; s-MLSS then never advances — the paper's
        // §6.2 "blindly applied s-MLSS" failure, reproduced in
        // tests/volatile_bias.rs. g-MLSS/auto handle those via skips.
        // The last case runs on the parallel driver.
        let cases = [
            ("walk", "srs", 5.0, 50, ""),
            ("walk", "auto", 5.0, 50, ""),
            ("markov", "srs", 5.0, 50, ""),
            ("ar", "smlss", 3.0, 40, ""),
            ("ar", "gmlss", 3.0, 40, ""),
            ("network", "auto", 5.0, 60, ""),
            ("volatile", "mlss", 25.0, 80, ""),
            ("gbm", "srs", 550.0, 30, ""),
            ("walk", "srs", 6.0, 60, " WITH (threads=2)"),
        ];
        for (model, method, beta, horizon, with) in cases {
            let sql = format!(
                "ESTIMATE DURABILITY OF {model}(beta={beta}) WITHIN {horizon} \
                 USING {method} TARGET RE 0.5{with}"
            );
            let res = s.execute(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let tau = res.rows()[0][2].as_f64().unwrap();
            assert!((0.0..=1.0).contains(&tau), "{sql}: τ̂={tau} out of range");
        }
        assert_eq!(results_count(s.db()).unwrap(), cases.len() as i64);
    }

    #[test]
    fn unknown_proc_is_a_distinct_error() {
        let s = Session::new(SessionConfig::default()).unwrap();
        match s.call("no_such_proc", &[]) {
            Err(DbError::UnknownProc(name)) => assert_eq!(name, "no_such_proc"),
            other => panic!("expected UnknownProc, got {other:?}"),
        }
    }

    #[test]
    fn bad_arity_is_a_distinct_error() {
        let db = db();
        let m = ModelRegistry::with_builtins();
        let mut rng = rng_from_seed(1);
        // Too many arguments for materialize_paths (needs 4..=5).
        let too_many: Vec<Value> = vec![
            "cpp".into(),
            Value::Int(10),
            Value::Int(2),
            "t".into(),
            Value::Int(8),
            Value::Int(99),
        ];
        match materialize_paths(&db, &m, &too_many, &mut rng) {
            Err(DbError::ProcArity {
                proc,
                expected,
                got,
            }) => {
                assert_eq!(proc, "materialize_paths");
                assert_eq!(expected, "4..=5");
                assert_eq!(got, 6);
            }
            other => panic!("expected ProcArity, got {other:?}"),
        }
    }

    #[test]
    fn bad_arg_type_is_a_distinct_error() {
        let db = db();
        let m = ModelRegistry::with_builtins();
        let mut rng = rng_from_seed(1);
        let args = |model: Value, horizon: Value| -> Vec<Value> {
            vec![model, horizon, Value::Int(2), "t".into()]
        };
        // Argument 0 must be text, not an integer.
        match materialize_paths(&db, &m, &args(Value::Int(1), Value::Int(10)), &mut rng) {
            Err(DbError::ProcArgType {
                proc,
                index,
                expected,
            }) => {
                assert_eq!(proc, "materialize_paths");
                assert_eq!(index, 0);
                assert_eq!(expected, "text");
            }
            other => panic!("expected ProcArgType, got {other:?}"),
        }
        // Argument 1 (horizon) must be an integer, not text.
        match materialize_paths(&db, &m, &args("cpp".into(), "soon".into()), &mut rng) {
            Err(DbError::ProcArgType { index: 1, .. }) => {}
            other => panic!("expected ProcArgType at index 1, got {other:?}"),
        }
        // The variants display distinct, useful messages.
        let msgs = [
            DbError::UnknownProc("p".into()).to_string(),
            DbError::ProcArity {
                proc: "p".into(),
                expected: "4".into(),
                got: 2,
            }
            .to_string(),
            DbError::ProcArgType {
                proc: "p".into(),
                index: 1,
                expected: "text",
            }
            .to_string(),
            DbError::Spec(SpecError::new(SpecErrorKind::MissingClause {
                clause: "beta",
            }))
            .to_string(),
        ];
        for (i, a) in msgs.iter().enumerate() {
            for b in msgs.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn materialize_paths_writes_rows() {
        let db = db();
        let m = ModelRegistry::with_builtins();
        let mut rng = rng_from_seed(9);
        let args: Vec<Value> = vec![
            "cpp".into(),
            Value::Int(50),
            Value::Int(3),
            "cpp_paths".into(),
        ];
        let n = materialize_paths(&db, &m, &args, &mut rng)
            .unwrap()
            .as_i64()
            .unwrap();
        assert_eq!(n, 3 * 51);
        let stored = db.with_table("cpp_paths", |t| t.len()).unwrap();
        assert_eq!(stored as i64, n);
    }

    #[test]
    fn materialize_paths_supports_registry_models() {
        let db = db();
        let m = ModelRegistry::with_builtins();
        let mut rng = rng_from_seed(10);
        for model in ["walk", "gbm", "markov"] {
            let args: Vec<Value> = vec![
                model.into(),
                Value::Int(20),
                Value::Int(2),
                format!("{model}_paths").into(),
            ];
            let n = materialize_paths(&db, &m, &args, &mut rng)
                .unwrap()
                .as_i64()
                .unwrap();
            assert_eq!(n, 2 * 21, "{model}: wrong row count");
        }
    }

    #[test]
    fn materialize_paths_is_bit_identical_across_widths() {
        // One RNG stream per path, split in path order ⇒ the materialized
        // rows are a function of the path id alone, never of the cohort
        // width. Widths 1, 3, and 64 must write identical tables.
        let m = ModelRegistry::with_builtins();
        let mut tables: Vec<Vec<Vec<Value>>> = Vec::new();
        for width in [1i64, 3, 64] {
            let db = db();
            let mut rng = rng_from_seed(40);
            let args: Vec<Value> = vec![
                "gbm".into(),
                Value::Int(30),
                Value::Int(5),
                "paths".into(),
                Value::Int(width),
            ];
            let n = materialize_paths(&db, &m, &args, &mut rng)
                .unwrap()
                .as_i64()
                .unwrap();
            assert_eq!(n, 5 * 31);
            tables.push(
                db.with_table("paths", |t| t.scan().map(|r| r.to_vec()).collect())
                    .unwrap(),
            );
        }
        assert_eq!(tables[0], tables[1], "width 1 vs 3");
        assert_eq!(tables[0], tables[2], "width 1 vs 64");
        // Bad widths are rejected.
        let db = db();
        let mut rng = rng_from_seed(41);
        let bad: Vec<Value> = vec![
            "gbm".into(),
            Value::Int(10),
            Value::Int(2),
            "p".into(),
            Value::Int(0),
        ];
        assert!(materialize_paths(&db, &m, &bad, &mut rng).is_err());
    }

    #[test]
    fn spec_overrides_reach_the_model() {
        // A named override must change the simulated process: a walk with
        // up=0.9 reaches β=5 within 50 steps far more often than the
        // default up=0.3.
        let db = db();
        let models = ModelRegistry::with_builtins();
        let plans = Arc::new(PlanCache::new());
        let mut spec = QuerySpec::new("walk", 5.0, 50, 0.3).with_method(Method::Srs);
        spec.params.insert("up".into(), 0.9);
        spec.params.insert("down".into(), 0.05);
        let mut rng = rng_from_seed(50);
        let out =
            crate::dispatch::execute_spec(&db, &models, &plans, None, None, None, &spec, &mut rng)
                .unwrap();
        let crate::dispatch::SpecOutcome::Estimated { est, .. } = out else {
            panic!("sync spec");
        };
        let hot = est.tau;
        let base = QuerySpec::new("walk", 5.0, 50, 0.3).with_method(Method::Srs);
        let out =
            crate::dispatch::execute_spec(&db, &models, &plans, None, None, None, &base, &mut rng)
                .unwrap();
        let crate::dispatch::SpecOutcome::Estimated { est, .. } = out else {
            panic!("sync spec");
        };
        let cold = est.tau;
        assert!(hot > cold, "override ignored: hot={hot} cold={cold}");
        // Unknown override names and out-of-range values are typed errors.
        let mut bad = base.clone();
        bad.params.insert("nope".into(), 1.0);
        assert!(matches!(
            models.effective_params(&db, &bad),
            Err(DbError::Spec(SpecError {
                kind: SpecErrorKind::UnknownParam { .. },
                ..
            }))
        ));
        let mut bad = base;
        bad.params.insert("up".into(), 2.0);
        assert!(matches!(
            models.effective_params(&db, &bad),
            Err(DbError::Spec(SpecError {
                kind: SpecErrorKind::ParamOutOfRange { .. },
                ..
            }))
        ));
    }
}
