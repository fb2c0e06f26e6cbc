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
//! builds on — the type-erased [`ModelRunner`] bridge to the estimator
//! spine (the models themselves are in [`crate::registry`]) and the
//! table schemas — plus the one remaining stored procedure, a plain
//! function that [`crate::session::Session::call`] calls by name:
//!
//! * [`materialize_paths`]`(model, horizon, n_paths, dest [, batch_width])`
//!   — simulate and store sample paths as `(path_id, t, value)` rows on
//!   the batched frontier kernel (one RNG stream per path, so the rows
//!   are bit-identical at every width).

use crate::engine::{Database, DbError};
use crate::registry::ModelRegistry;
use crate::schema::{ColumnDef, Schema};
use crate::table::Aggregate;
use crate::value::{DataType, Value};
use mlss_core::estimate::Estimate;
use mlss_core::estimator::Estimator;
use mlss_core::model::SimulationModel;
use mlss_core::plan_cache::{PlanCache, PlanLookup};
use mlss_core::planner::{plan_reuse, ReusePlan};
use mlss_core::prelude::{Problem, RatioValue, SimRng, SrsEstimator, StateScore};
use mlss_core::quality::RunControl;
use mlss_core::rng::{split_rng, RootCursor};
use mlss_core::scheduler::{CompletedQuery, EstimatorQuery, Scheduler, SliceableQuery, TenantId};
use mlss_core::shard_store::{shard_key, ShardKey, ShardStore, StoredShard};
use mlss_core::spec::{
    estimator_job, plan_lookup, resolve_method, Boxed, DeferredPlanQuery, JobRun, JobSink,
    QuerySpec, ResolvedMethod, BALANCED_PLAN_KEY, TARGET_CHECK_EVERY, TARGET_MAX_STEPS,
};
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

/// A spec's scheduler job plus the provenance tags its eventual
/// `results` row records.
pub struct SpecJob {
    /// The job, ready for [`Scheduler::submit_query_as`] or a race.
    pub job: Box<dyn SliceableQuery>,
    /// Plan-cache provenance (`"hit"`/`"miss"`/`"none"`).
    pub plan_source: &'static str,
    /// Shard-store provenance (`"cold"`/`"warm"`/`"stored"`/`"none"`).
    pub shard_reuse: &'static str,
}

/// Which scheduler job [`ModelRunner::job`] builds.
pub enum JobKind<'a> {
    /// An `ASYNC` statement: it stops at its own target on its own
    /// threads. A recovered one names its durable checkpoint — the
    /// problem's shard key and the shard + run cursor at a slice
    /// boundary — and resumes it when the replayed plan's shard key
    /// equals the recorded one; otherwise it takes the reuse route like
    /// any submission (under a pinned seed a cold rerun replays the
    /// identical run, so it is still bit-exact, just slower).
    Statement(Option<(&'a ShardKey, &'a StoredShard)>),
    /// A `RANK BY` arm: one thread, in budget mode to the target valve
    /// (the race checks the arm's target itself, at its round ends).
    /// Arms are built with no shard store — the race's pooled per-arm
    /// shard *is* its state, and standings must not depend on what
    /// earlier queries left behind.
    RaceArm,
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
    /// `seed` names, deriving its partition plan inline (memoized
    /// through `plans`) and taking the reuse route through the shard
    /// store. With `WITH (threads=N)`, up to `N − 1` of `pool`'s workers
    /// help (see [`Scheduler::run`], which also deposits the finished
    /// run).
    fn estimate(
        self: Box<Self>,
        spec: &QuerySpec,
        plans: &PlanContext,
        seed: u64,
        pool: &Scheduler,
    ) -> Result<ProcEstimate, DbError>;

    /// Build the spec's scheduler job, consuming the runner (the job
    /// takes ownership of the model): an `ASYNC` submission, a recovered
    /// one, or a race arm (see [`JobKind`]). On a plan-cache miss the
    /// pilot is **not** run here — plan derivation is the job's first
    /// slice. With a shard store in `plans`, the reuse planner routes
    /// the job: a stored entry meeting the target becomes an
    /// instantly-finished job, a looser one warm-starts it. The job runs
    /// at the spec's width, falling back to `default_width`.
    fn job(
        self: Box<Self>,
        spec: &QuerySpec,
        plans: &PlanContext,
        seed: u64,
        default_width: usize,
        kind: JobKind<'_>,
    ) -> SpecJob;

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
pub(crate) fn tenant_of(scheduler: &Scheduler, spec: &QuerySpec) -> Option<TenantId> {
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

/// Where the reuse route sends a statement.
enum Route {
    /// A stored estimate already meets the target: nothing runs.
    Stored(Estimate),
    /// Run, resuming this stored checkpoint — or, with `None`, from the
    /// seed.
    Run(Option<StoredShard>),
}

/// The one reuse route every executed statement takes: the reuse
/// planner's verdict on `key` for the spec's target and pinned seed,
/// plus the `shard_reuse` tag its `results` row records — `"none"`
/// without a store, `"cold"` when the store has no usable entry.
fn reuse_route(plans: &PlanContext, key: &ShardKey, spec: &QuerySpec) -> (Route, &'static str) {
    let Some(store) = plans.store.as_deref() else {
        return (Route::Run(None), "none");
    };
    match plan_reuse(store, key, spec.target_re, spec.options.seed) {
        ReusePlan::Stored { entry } => (Route::Stored(entry.estimate), "stored"),
        ReusePlan::Warm { entry, .. } => (Route::Run(Some(entry)), "warm"),
        ReusePlan::Cold => (Route::Run(None), "cold"),
    }
}

/// The [`JobSink`] of synchronous statements: run the job to completion
/// on the calling thread through [`Scheduler::run`].
struct OnCaller<'a> {
    pool: &'a Scheduler,
    priority: u8,
    tenant: Option<TenantId>,
}

impl<M, Z> JobSink<M, Z> for OnCaller<'_>
where
    M: SimulationModel + Send + Sync + 'static,
    M::State: Send,
    Z: StateScore<M::State> + Copy + Send + Sync + 'static,
{
    type Out = Estimate;

    fn take<E>(self, job: EstimatorQuery<M, RatioValue<Z>, E>) -> Estimate
    where
        E: Estimator<M, RatioValue<Z>> + Send + 'static,
        E::Shard: Send + Clone + 'static,
    {
        self.pool.run(job, self.priority, self.tenant).estimate
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
    /// The plan lookup every plan-needing path shares: the pilot (see
    /// [`plan_lookup`]) runs only on a cache miss, on `seed`'s pilot
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
        let lookup = plan_lookup(&plans.cache, plans.fingerprint, problem, spec.levels, seed);
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
        pool: &Scheduler,
    ) -> Result<ProcEstimate, DbError> {
        // The plan step, inline: the pilot runs here on a cache miss.
        let res = self.resolve_plan(spec, plans, seed)?;
        // `batch_width=auto` resolves here — per model, memoized per
        // fingerprint — before the run launches.
        let (width, _) = self.width_for(spec, plans, 1);
        let key = shard_key(plans.fingerprint, res.resolved.name(), res.resolved.plan());
        let (route, shard_reuse) = reuse_route(plans, &key, spec);
        let e = match route {
            Route::Stored(e) => e,
            Route::Run(start) => {
                let run = JobRun::of(spec, seed, plans.fingerprint, width);
                // Helpers (and so a tenant to charge) only under
                // `WITH (threads=N)`.
                let tenant = if run.threads > 1 {
                    tenant_of(pool, spec)
                } else {
                    None
                };
                let caller = OnCaller {
                    pool,
                    priority: spec.options.priority,
                    tenant,
                };
                let Runner { model, score } = *self;
                let e = estimator_job(model, score, &res.resolved, &run, start.as_ref(), caller);
                observe_regime(plans, e.steps, e.n_roots);
                e
            }
        };
        Ok(ProcEstimate {
            tau: e.tau,
            variance: e.variance,
            steps: e.steps,
            n_roots: e.n_roots,
            plan_source: res.plan_source,
            shard_reuse,
        })
    }

    fn job(
        self: Box<Self>,
        spec: &QuerySpec,
        plans: &PlanContext,
        seed: u64,
        default_width: usize,
        kind: JobKind<'_>,
    ) -> SpecJob {
        // `auto` (from the spec or the default) resolves to a concrete
        // width here, so the job is built with the width it runs at.
        let (width, _) = self.width_for(spec, plans, default_width);
        let mut run = JobRun::of(spec, seed, plans.fingerprint, width);
        let checkpoint = match kind {
            JobKind::Statement(checkpoint) => checkpoint,
            JobKind::RaceArm => {
                run.control = RunControl::budget(TARGET_MAX_STEPS);
                run.threads = 1;
                None
            }
        };
        let Runner { model, score } = *self;
        // The plan step: SRS needs no plan and a cached one resolves
        // now. A cold one is derived by the job's first slice
        // (single-flight through the shared cache), so building a job
        // never blocks its caller on the pilot.
        let fp = plans.fingerprint;
        let (resolved, plan_source) = if !spec.method.needs_plan() {
            (ResolvedMethod::Srs, "none")
        } else if let Some(lookup) = plans
            .cache
            .lookup_traced(fp, BALANCED_PLAN_KEY, spec.levels)
        {
            (resolve_method(spec.method, Some(&lookup)), "hit")
        } else {
            let cache = Arc::clone(&plans.cache);
            return SpecJob {
                job: Box::new(DeferredPlanQuery::new(
                    model,
                    score,
                    spec.method,
                    spec.levels,
                    run,
                    cache,
                )),
                plan_source: "miss",
                shard_reuse: if plans.store.is_some() {
                    "cold"
                } else {
                    "none"
                },
            };
        };
        let key = shard_key(fp, resolved.name(), resolved.plan());
        let (route, shard_reuse) = match checkpoint {
            Some((recorded, entry)) if *recorded == key => {
                (Route::Run(Some(entry.clone())), "warm")
            }
            _ => reuse_route(plans, &key, spec),
        };
        let job = match route {
            Route::Stored(e) => Box::new(CompletedQuery::new(e)),
            Route::Run(start) => {
                estimator_job(model, score, &resolved, &run, start.as_ref(), Boxed)
            }
        };
        SpecJob {
            job,
            plan_source,
            shard_reuse,
        }
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
    use mlss_core::spec::{SpecError, SpecErrorKind};

    fn db() -> Database {
        let db = Database::new();
        seed_default_models(&db).unwrap();
        db
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
        let pool = Scheduler::with_workers(1);
        let mut spec = QuerySpec::new("walk", 5.0, 50, 0.3).with_method(Method::Srs);
        spec.params.insert("up".into(), 0.9);
        spec.params.insert("down".into(), 0.05);
        let mut rng = rng_from_seed(50);
        let out =
            crate::dispatch::execute_spec(&db, &models, &plans, None, &pool, None, &spec, &mut rng)
                .unwrap();
        let crate::dispatch::SpecOutcome::Estimated { est, .. } = out else {
            panic!("sync spec");
        };
        let hot = est.tau;
        let base = QuerySpec::new("walk", 5.0, 50, 0.3).with_method(Method::Srs);
        let out =
            crate::dispatch::execute_spec(&db, &models, &plans, None, &pool, None, &base, &mut rng)
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
