//! The **one compile-and-dispatch path** every estimate flows through.
//!
//! `ESTIMATE DURABILITY …` statements run through
//! [`crate::session::Session::execute`] compile into a [`QuerySpec`] and
//! call [`execute_spec`]: the spec is validated against the model's
//! schema, the model is built from its effective parameters, and the
//! query runs where its options say — on the calling thread for `Sync`,
//! on the session scheduler for `Async` (with plan derivation deferred
//! to the query's first slice on a cold cache). Either way `WITH
//! (threads=N)` lets up to `N − 1` of that scheduler's workers help.
//! Synchronous executions append the standard `results` row here.
//! `RANK BY` races ([`execute_rank`]) build each arm as the same
//! scheduler job an `ASYNC` statement of that arm would submit.
//!
//! [`explain_spec`] resolves the same spec without running it — the
//! engine behind `EXPLAIN ESTIMATE` — and [`show_models`] renders the
//! registry's parameter schemas as rows for `SHOW MODELS`.

use crate::durability::SessionWal;
use crate::engine::{Database, DbError};
use crate::proc::{rankings_schema, results_schema, tenant_of, JobKind, PlanContext, ProcEstimate};
use crate::registry::ModelRegistry;
use crate::sql::exec::ExecResult;
use crate::value::Value;
use mlss_core::plan_cache::PlanCache;
use mlss_core::planner::peek_reuse;
use mlss_core::prelude::SimRng;
use mlss_core::quality::QualityTarget;
use mlss_core::ranking::{RaceArm, RaceOutcome, RaceQuery};
use mlss_core::scheduler::{QueryId, Scheduler};
use mlss_core::shard_store::{shard_key, ShardStore};
use mlss_core::spec::{ExecMode, QuerySpec, RankSpec};
use rand::RngExt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What executing a spec produced.
pub enum SpecOutcome {
    /// A synchronous run: the estimate, already recorded in `results`.
    Estimated {
        /// The full outcome (variance, steps, roots, plan provenance).
        est: ProcEstimate,
        /// Wall-clock milliseconds the run took.
        millis: i64,
    },
    /// An asynchronous submission: the scheduler query id.
    Submitted {
        /// Scheduler query id (poll/wait/cancel handle).
        id: QueryId,
        /// The RNG seed the query runs under (pinned or drawn).
        seed: u64,
        /// Plan provenance at submit time: `"hit"` (warm plan), `"miss"`
        /// (plan derivation scheduled as the query's first slice), or
        /// `"none"` (SRS).
        plan_source: &'static str,
        /// Shard-store provenance at submit time: `"stored"` (answered
        /// from the store, the query completed instantly), `"warm"`
        /// (the job resumes a stored checkpoint), `"cold"` (store
        /// consulted, no usable entry), or `"none"` (no store).
        shard_reuse: &'static str,
        /// Plan-cache fingerprint of the query family, so completion
        /// paths can feed the observed steps/root regime back into the
        /// width memo (the drift-triggered re-probe policy).
        fingerprint: u64,
    },
}

/// Execute a validated spec through the single dispatch path. `ASYNC`
/// specs are submitted to `scheduler`; synchronous specs run on the
/// calling thread (with `scheduler` helpers under `WITH (threads=N)`)
/// and record their `results` row before returning. `store` enables the
/// cross-query reuse planner (serve-from-store / warm-start / cold with
/// checkpoint deposit). With `wal`, synchronous rows are journaled
/// before they become visible and ASYNC submissions are journaled with
/// their full durable identity.
#[allow(clippy::too_many_arguments)]
pub fn execute_spec(
    db: &Database,
    models: &ModelRegistry,
    plans: &Arc<PlanCache>,
    store: Option<&Arc<ShardStore>>,
    scheduler: &Scheduler,
    wal: Option<&SessionWal>,
    spec: &QuerySpec,
    rng: &mut SimRng,
) -> Result<SpecOutcome, DbError> {
    spec.validate().map_err(DbError::from)?;
    // The seed names the run (and the pilot's stream), so a sync
    // `WITH (seed=…)` statement is bit-identical to the async submission
    // with the same seed, at any thread count.
    let seed = spec.options.seed.unwrap_or_else(|| rng.random::<u64>());
    match spec.options.mode {
        ExecMode::Sync => {
            let started = Instant::now();
            let (runner, fp, _) = models.build_spec(db, spec)?;
            let ctx = PlanContext {
                cache: Arc::clone(plans),
                fingerprint: fp,
                store: store.map(Arc::clone),
            };
            let est = runner.estimate(spec, &ctx, seed, scheduler)?;
            let millis = started.elapsed().as_millis() as i64;
            record_estimate_row(db, spec, &est, millis, wal)?;
            Ok(SpecOutcome::Estimated { est, millis })
        }
        ExecMode::Async => {
            let (runner, fp, _) = models.build_spec(db, spec)?;
            let ctx = PlanContext {
                cache: Arc::clone(plans),
                fingerprint: fp,
                store: store.map(Arc::clone),
            };
            let width = scheduler.config().batch_width;
            let out = runner.job(spec, &ctx, seed, width, JobKind::Statement(None));
            let tenant = tenant_of(scheduler, spec);
            let id = scheduler.submit_query_as(out.job, spec.options.priority, tenant);
            if let Some(wal) = wal {
                wal.record_async_submit(id, spec, seed, out.plan_source, out.shard_reuse);
            }
            Ok(SpecOutcome::Submitted {
                id,
                seed,
                plan_source: out.plan_source,
                shard_reuse: out.shard_reuse,
                fingerprint: fp,
            })
        }
    }
}

/// Append the standard `results` row for a synchronous estimate. With a
/// journal, the row is WAL-appended **before** the insert (write-ahead:
/// a visible row is always durable).
pub(crate) fn record_estimate_row(
    db: &Database,
    spec: &QuerySpec,
    est: &ProcEstimate,
    millis: i64,
    wal: Option<&SessionWal>,
) -> Result<(), DbError> {
    if let Some(wal) = wal {
        wal.record_result_row(mlss_store::ResultRow {
            model: spec.model.clone(),
            method: spec.method.name().to_string(),
            beta: spec.beta,
            horizon: spec.horizon as i64,
            tau: est.tau,
            variance: est.variance,
            steps: est.steps as i64,
            n_roots: est.n_roots as i64,
            millis,
            plan_source: est.plan_source.to_string(),
            shard_reuse: est.shard_reuse.to_string(),
            tenant: tenant_column(spec).to_string(),
        })?;
    }
    db.ensure_table("results", results_schema());
    db.insert(
        "results",
        vec![
            spec.model.as_str().into(),
            spec.method.name().into(),
            spec.beta.into(),
            Value::Int(spec.horizon as i64),
            est.tau.into(),
            est.variance.into(),
            Value::Int(est.steps as i64),
            Value::Int(est.n_roots as i64),
            Value::Int(millis),
            est.plan_source.into(),
            est.shard_reuse.into(),
            tenant_column(spec).into(),
        ],
    )?;
    Ok(())
}

/// The `tenant` column value for a spec (`"-"` for tenantless
/// statements, so the column is always populated).
pub(crate) fn tenant_column(spec: &QuerySpec) -> &str {
    spec.options.tenant.as_deref().unwrap_or("-")
}

/// Resolve a spec without running it: the rows `EXPLAIN ESTIMATE …`
/// returns. Derives the level plan through the shared cache (the pilot
/// runs — once — on a cold cache; re-EXPLAINing or executing afterwards
/// hits), applies the `auto` resolution rule, and reports the driver and
/// effective batch width the statement would execute with.
pub fn explain_spec(
    db: &Database,
    models: &ModelRegistry,
    plans: &Arc<PlanCache>,
    store: Option<&Arc<ShardStore>>,
    scheduler: &Scheduler,
    spec: &QuerySpec,
    rng: &mut SimRng,
) -> Result<Vec<(String, String)>, DbError> {
    spec.validate().map_err(DbError::from)?;
    let (runner, fp, params) = models.build_spec(db, spec)?;
    let ctx = PlanContext {
        cache: Arc::clone(plans),
        fingerprint: fp,
        store: store.map(Arc::clone),
    };
    let seed = spec.options.seed.unwrap_or_else(|| rng.random::<u64>());
    let res = runner.resolve_plan(spec, &ctx, seed)?;

    let asynchronous = spec.options.mode == ExecMode::Async;
    let mut rows: Vec<(String, String)> = Vec::new();
    let mut push = |k: &str, v: String| rows.push((k.to_string(), v));
    push(
        "statement",
        format!(
            "ESTIMATE DURABILITY ({})",
            if asynchronous { "async" } else { "sync" }
        ),
    );
    push("model", spec.model.clone());
    push(
        "params",
        params
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    push("beta", format!("{}", spec.beta));
    push("horizon", format!("{}", spec.horizon));
    push("target_re", format!("{}", spec.target_re));
    push("method", spec.method.name().to_string());
    push("resolved_method", res.resolved.name().to_string());
    match res.resolved.plan() {
        Some(plan) => {
            push("levels", format!("{}", plan.num_levels()));
            push(
                "level_plan",
                format!(
                    "[{}]",
                    plan.interior()
                        .iter()
                        .map(|b| format!("{b:.4}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            );
            push("tau_hint", format!("{}", res.tau_hint));
        }
        None => {
            push("levels", "-".into());
            push("level_plan", "none".into());
        }
    }
    push("plan_cache", res.plan_source.to_string());
    // The reuse planner's verdict, previewed against the live store.
    // `peek_reuse` reads without side effects — no hit/miss counters,
    // no LRU touch, no shard clone — so EXPLAIN never perturbs SHOW
    // DIAGNOSTICS or the store's eviction order.
    push(
        "reuse",
        match store {
            None => "off".into(),
            Some(s) => {
                let key = shard_key(fp, res.resolved.name(), res.resolved.plan());
                peek_reuse(s, &key, spec.target_re, spec.options.seed).describe(fp)
            }
        },
    );
    push(
        "plan_pilot",
        match (res.plan_source, asynchronous) {
            ("none", _) => "not needed".into(),
            ("hit", _) => "cached".into(),
            (_, true) => "scheduled as the query's first slice".into(),
            (_, false) => "inline before the run".into(),
        },
    );
    let workers = scheduler.config().workers;
    let default_width = if asynchronous {
        scheduler.config().batch_width
    } else {
        1
    };
    let width = spec.options.batch_width.unwrap_or(default_width);
    // The helper cap: at most `threads` threads, one of them the
    // committer — the caller (sync) or a pool worker (ASYNC).
    let threads = spec.options.threads;
    let helpers = |committers_from_pool: usize| (threads - 1).min(workers - committers_from_pool);
    let helped = |h: usize| {
        format!(
            "{h} helper{} (threads={threads})",
            if h == 1 { "" } else { "s" }
        )
    };
    push(
        "driver",
        match asynchronous {
            true if helpers(1) > 0 => {
                format!("scheduler(workers={workers}) + {}", helped(helpers(1)))
            }
            true => format!("scheduler(workers={workers})"),
            false if helpers(0) > 0 => format!("caller + {}", helped(helpers(0))),
            false => "sequential".into(),
        },
    );
    push(
        "batch_width",
        if width == mlss_core::width::AUTO_WIDTH {
            "auto".into()
        } else {
            format!("{width}")
        },
    );
    // The width policy's resolution: what the statement will actually
    // launch at, and where that number came from. For `auto` the probe
    // (or its memoized winner) runs right here, so EXPLAIN warms the
    // width memo exactly like executing would.
    let (resolved_width, width_src) = runner.resolve_width(spec, &ctx, default_width);
    push(
        "width",
        if width == mlss_core::width::AUTO_WIDTH {
            format!("auto -> {resolved_width} ({width_src})")
        } else {
            format!("{resolved_width} ({width_src})")
        },
    );
    push(
        "seed",
        match spec.options.seed {
            Some(s) => format!("{s}"),
            None => "from session stream".into(),
        },
    );
    if asynchronous {
        push("priority", format!("{}", spec.options.priority));
    }
    Ok(rows)
}

/// What executing a rank spec produced.
pub enum RankOutcome {
    /// A synchronous race: final standings, already recorded — one
    /// `rankings` row per arm plus one standard `results` row per arm.
    Ranked {
        /// The sorted standings, total steps, and rounds raced.
        outcome: RaceOutcome,
        /// Wall-clock milliseconds the race took.
        millis: i64,
    },
    /// An asynchronous submission: the whole race runs as **one**
    /// sliceable scheduler query (each slice advances one arm by one
    /// round budget), so it time-slices, pauses, and fair-shares like
    /// any other scheduled work.
    Submitted {
        /// Scheduler query id (poll/wait/cancel handle).
        id: QueryId,
        /// The race's base seed (pinned or drawn); arm `i` runs under
        /// [`arm_seed`]`(seed, i)`.
        seed: u64,
        /// Where the caller reads the standings once the race is done
        /// (the scheduler itself only hands back the leader's
        /// [`mlss_core::estimate::Estimate`]).
        handle: Arc<Mutex<Option<RaceOutcome>>>,
        /// Per-arm plan-cache provenance at submit time, parallel to
        /// [`RankSpec::labels`] (`"hit"`, `"miss"`, or `"none"`).
        plan_sources: Vec<&'static str>,
    },
}

/// Arm `idx`'s pinned RNG seed, derived from the race's base seed. The
/// salt (the 64-bit golden-ratio constant, scaled by the 1-based arm
/// index) decorrelates sibling arms while keeping the whole race a pure
/// function of one seed — same base seed, same standings, bit for bit.
pub fn arm_seed(base: u64, idx: usize) -> u64 {
    base ^ (idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Execute a `RANK BY` spec through the single dispatch path. Every arm
/// is compiled by the same model-registry construction an `ESTIMATE` of
/// that arm would use — plan cache shared (same-shape arms share one
/// pilot, single-flight), shard store deliberately **not** consulted:
/// the race's pooled per-arm shards are its state, and standings must
/// not depend on what earlier queries deposited. `Sync` drives the race
/// to completion on the calling thread and records the standings;
/// `Async` submits the race as one sliceable query under the spec's
/// priority and tenant.
#[allow(clippy::too_many_arguments)]
pub fn execute_rank(
    db: &Database,
    models: &ModelRegistry,
    plans: &Arc<PlanCache>,
    scheduler: &Scheduler,
    wal: Option<&SessionWal>,
    rank: &RankSpec,
    rng: &mut SimRng,
) -> Result<RankOutcome, DbError> {
    rank.validate().map_err(DbError::from)?;
    let asynchronous = rank.options.mode == ExecMode::Async;
    let seed = rank.options.seed.unwrap_or_else(|| rng.random::<u64>());
    let default_width = if asynchronous {
        scheduler.config().batch_width
    } else {
        1
    };
    let mut arms = Vec::with_capacity(rank.arms.len());
    let mut plan_sources = Vec::with_capacity(rank.arms.len());
    for (i, (spec, label)) in rank.arms.iter().zip(&rank.labels).enumerate() {
        let (runner, fp, _) = models.build_spec(db, spec)?;
        let ctx = PlanContext {
            cache: Arc::clone(plans),
            fingerprint: fp,
            store: None,
        };
        let arm = runner.job(
            spec,
            &ctx,
            arm_seed(seed, i),
            default_width,
            JobKind::RaceArm,
        );
        arms.push(RaceArm {
            label: label.clone(),
            job: arm.job,
            target: QualityTarget::RelativeError {
                target: spec.target_re,
                reference: None,
            },
        });
        plan_sources.push(arm.plan_source);
    }
    let mut race = RaceQuery::new(arms, rank.race_config());
    if asynchronous {
        let tenant = rank
            .options
            .tenant
            .as_deref()
            .map(|name| scheduler.ensure_tenant(name));
        let handle = race.outcome_handle();
        let id = scheduler.submit_query_as(Box::new(race), rank.options.priority, tenant);
        Ok(RankOutcome::Submitted {
            id,
            seed,
            handle,
            plan_sources,
        })
    } else {
        let started = Instant::now();
        let outcome = race.run_to_completion();
        let millis = started.elapsed().as_millis() as i64;
        record_rank_rows(db, rank, &plan_sources, &outcome, millis, wal)?;
        Ok(RankOutcome::Ranked { outcome, millis })
    }
}

/// Record a finished race: one standard `results` row per arm (journaled
/// like any estimate — the durable per-arm provenance) plus one
/// `rankings` standings row per arm, in standings order. The `rankings`
/// table itself is **not** WAL-journaled: standings are derivable from
/// the journaled per-arm rows, and re-racing after recovery would
/// re-spend the budget the journal exists to save.
pub(crate) fn record_rank_rows(
    db: &Database,
    rank: &RankSpec,
    plan_sources: &[&'static str],
    outcome: &RaceOutcome,
    millis: i64,
    wal: Option<&SessionWal>,
) -> Result<(), DbError> {
    for standing in &outcome.standings {
        let idx = rank
            .labels
            .iter()
            .position(|l| l == &standing.label)
            .ok_or_else(|| DbError::Proc(format!("unknown race arm `{}`", standing.label)))?;
        let est = ProcEstimate {
            tau: standing.estimate.tau,
            variance: standing.estimate.variance,
            steps: standing.estimate.steps,
            n_roots: standing.estimate.n_roots,
            plan_source: plan_sources.get(idx).copied().unwrap_or("none"),
            shard_reuse: "none",
        };
        record_estimate_row(db, &rank.arms[idx], &est, millis, wal)?;
    }
    db.ensure_table("rankings", rankings_schema());
    let tenant = rank.options.tenant.as_deref().unwrap_or("-");
    for (pos, s) in outcome.standings.iter().enumerate() {
        db.insert(
            "rankings",
            vec![
                Value::Int(pos as i64 + 1),
                s.label.as_str().into(),
                s.estimate.tau.into(),
                s.ci_lo.into(),
                s.ci_hi.into(),
                // 0-based round the arm froze after; -1 = raced to the cap.
                Value::Int(s.frozen_at.map(|r| r as i64).unwrap_or(-1)),
                s.reason.as_str().into(),
                Value::Int(s.estimate.steps as i64),
                tenant.into(),
            ],
        )?;
    }
    Ok(())
}

/// The standings result rows a finished race renders — shared by the
/// sync `RANK BY` response and the serving layer's poll of an ASYNC
/// race.
pub fn standings_rows(outcome: &RaceOutcome) -> ExecResult {
    ExecResult::Rows {
        columns: vec![
            "rank".into(),
            "arm".into(),
            "tau".into(),
            "ci_lo".into(),
            "ci_hi".into(),
            "frozen_round".into(),
            "reason".into(),
            "steps".into(),
        ],
        rows: outcome
            .standings
            .iter()
            .enumerate()
            .map(|(pos, s)| {
                vec![
                    Value::Int(pos as i64 + 1),
                    s.label.as_str().into(),
                    s.estimate.tau.into(),
                    s.ci_lo.into(),
                    s.ci_hi.into(),
                    Value::Int(s.frozen_at.map(|r| r as i64).unwrap_or(-1)),
                    s.reason.as_str().into(),
                    Value::Int(s.estimate.steps as i64),
                ]
            })
            .collect(),
    }
}

/// Resolve a rank spec without racing it: the rows `EXPLAIN ESTIMATE …
/// RANK BY …` returns. Each arm's plan is derived through the shared
/// cache exactly as [`explain_spec`] does (the pilot runs — once per
/// distinct query family — on a cold cache; same-shape arms hit), plus
/// the race's boundary-test parameters and its worst-case budget model.
pub fn explain_rank(
    db: &Database,
    models: &ModelRegistry,
    plans: &Arc<PlanCache>,
    scheduler: &Scheduler,
    rank: &RankSpec,
    rng: &mut SimRng,
) -> Result<Vec<(String, String)>, DbError> {
    rank.validate().map_err(DbError::from)?;
    let asynchronous = rank.options.mode == ExecMode::Async;
    let seed = rank.options.seed.unwrap_or_else(|| rng.random::<u64>());
    let mut rows: Vec<(String, String)> = Vec::new();
    let mut push = |k: &str, v: String| rows.push((k.to_string(), v));
    push(
        "statement",
        format!(
            "ESTIMATE DURABILITY … RANK BY ({})",
            if asynchronous { "async" } else { "sync" }
        ),
    );
    push("arms", format!("{}", rank.arms.len()));
    push("top_k", format!("{}", rank.top_k));
    push("confidence", format!("{}", rank.confidence));
    push("rounds", format!("{}", rank.max_rounds));
    push("round_budget", format!("{}", rank.round_budget));
    // Worst case: every arm races every round. The boundary test exists
    // to freeze arms far earlier than this.
    push(
        "budget_worst_case",
        format!(
            "{} g invocations ({} arms x {} rounds x {})",
            rank.round_budget as u128 * rank.arms.len() as u128 * rank.max_rounds as u128,
            rank.arms.len(),
            rank.max_rounds,
            rank.round_budget,
        ),
    );
    let mut fingerprints: Vec<u64> = Vec::new();
    for (i, (spec, label)) in rank.arms.iter().zip(&rank.labels).enumerate() {
        let (runner, fp, _) = models.build_spec(db, spec)?;
        let ctx = PlanContext {
            cache: Arc::clone(plans),
            fingerprint: fp,
            store: None,
        };
        let res = runner.resolve_plan(spec, &ctx, arm_seed(seed, i))?;
        if !fingerprints.contains(&fp) {
            fingerprints.push(fp);
        }
        push(
            &format!("arm.{i}"),
            format!(
                "{label} (method={}, plan_cache={})",
                res.resolved.name(),
                res.plan_source
            ),
        );
    }
    push(
        "shared_pilots",
        format!(
            "{} arms over {} distinct plan famil{}",
            rank.arms.len(),
            fingerprints.len(),
            if fingerprints.len() == 1 { "y" } else { "ies" }
        ),
    );
    push(
        "shard_reuse",
        "off (race arms pool their own shards)".into(),
    );
    push(
        "driver",
        if asynchronous {
            format!(
                "scheduler(workers={}), one sliceable race query",
                scheduler.config().workers
            )
        } else {
            "sequential race loop (same slice order as the scheduler)".into()
        },
    );
    push(
        "seed",
        match rank.options.seed {
            Some(s) => format!("{s} (arm i runs under seed ^ (i+1)*golden)"),
            None => "from session stream".into(),
        },
    );
    if asynchronous {
        push("priority", format!("{}", rank.options.priority));
    }
    Ok(rows)
}

/// The `SHOW MODELS` catalog: one row per declared parameter of every
/// registered model.
pub fn show_models(models: &ModelRegistry) -> ExecResult {
    let mut rows = Vec::new();
    for schema in models.schemas() {
        for p in &schema.params {
            rows.push(vec![
                Value::Text(schema.name.to_string()),
                Value::Text(p.name.to_string()),
                Value::Text(p.ty.name().to_string()),
                Value::Float(p.default),
                Value::Float(p.min),
                Value::Float(p.max),
                Value::Text(p.doc.to_string()),
            ]);
        }
    }
    ExecResult::Rows {
        columns: vec![
            "model".into(),
            "param".into(),
            "type".into(),
            "default".into(),
            "min".into(),
            "max".into(),
            "doc".into(),
        ],
        rows,
    }
}
