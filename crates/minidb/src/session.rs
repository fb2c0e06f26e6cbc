//! Concurrent serving sessions: the asynchronous face of the §6.4 DBMS
//! integration, and the one front door for estimation.
//!
//! A [`Session`] fronts a shared [`mlss_core::scheduler::Scheduler`]:
//! synchronous statements block until their relative-error target is
//! reached, while `ASYNC` statements are **submitted**, time-sliced
//! alongside each other, and **polled** for results, so many clients
//! share one engine without head-of-line blocking.
//!
//! [`Session::execute`] runs any statement text: the plain SQL surface
//! (`SELECT`/`INSERT`/…) plus the dialect —
//!
//! ```sql
//! ESTIMATE DURABILITY OF cpp(beta=500) WITHIN 1000
//!     USING gmlss(levels=5) TARGET RE 0.5%
//!     WITH (threads=4, batch_width=64) ASYNC;
//! EXPLAIN ESTIMATE DURABILITY OF cpp(beta=500) WITHIN 1000 TARGET RE 1%;
//! SHOW MODELS;
//! ```
//!
//! Every statement parses once, through the one parser
//! ([`crate::sql::parse`], against the session's model catalog), and the
//! session matches on the resulting [`Statement`]; nothing routes a
//! statement by its first word. An estimate compiles to a
//! [`mlss_core::spec::QuerySpec`] and dispatches through
//! [`crate::dispatch::execute_spec`]. An `ASYNC` statement returns a
//! query id, which [`Session::poll`], [`Session::wait`] (the first wait
//! on a completed query records its `results` row) and
//! [`Session::cancel`] take.
//!
//! Sessions share one [`PlanCache`] across the synchronous and scheduled
//! paths, so a submit after an estimate (or vice versa) of the same
//! (model, β, horizon, method) reuses the derived partition plan instead
//! of re-running the pilot. On a plan-cache **miss**, a submission does
//! *not* run the pilot synchronously: plan derivation is scheduled as
//! the query's first slice (single-flight across concurrent cold
//! submissions), recorded as `"miss"` in the query's `results`
//! provenance. [`Session::diagnostics`] surfaces the cache and pool
//! counters.

use crate::dispatch::{
    execute_rank, execute_spec, explain_rank, explain_spec, record_rank_rows, show_models,
    standings_rows, RankOutcome, SpecOutcome,
};
use crate::durability::{intern_provenance, Durability, SessionWal, WalSessionConfig};
use crate::engine::{Database, DbError};
use crate::proc::{
    materialize_paths, results_schema, seed_default_models, tenant_of, JobKind, PlanContext,
};
use crate::registry::{ModelBuilder, ModelRegistry};
use crate::sql::{execute_statement, ExecResult, Statement};
use crate::value::Value;
use mlss_core::estimator::Diagnostics;
use mlss_core::plan_cache::{CachedPlan, PlanCache};
use mlss_core::prelude::SimRng;
use mlss_core::ranking::RaceOutcome;
use mlss_core::rng::{rng_from_seed, split_rng};
use mlss_core::scheduler::{DurabilityHook, QueryId, QueryStatus, Scheduler, SchedulerConfig};
use mlss_core::shard_store::ShardStore;
use mlss_core::spec::{ModelSchema, QuerySpec, RankSpec, SpecError};
use mlss_store::{Record, ResultRow};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Session tuning knobs.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Scheduler worker threads.
    pub workers: usize,
    /// `g` invocations per scheduler slice.
    pub slice_budget: u64,
    /// Panic retries per query before it is reported failed.
    pub max_retries: u32,
    /// Frontier width for scheduled queries (default 1; bit-identical
    /// across widths, so this is purely a throughput knob). Set it to
    /// [`mlss_core::width::AUTO_WIDTH`] to let every query resolve a
    /// width from its model's kernel class (the `batch_width=auto`
    /// policy, probe-memoized per query family). A spec's `batch_width`
    /// option overrides it per query.
    pub batch_width: usize,
    /// Session master seed (drives per-query seeds when the caller does
    /// not pin one).
    pub seed: u64,
    /// Seed the `models` parameter table with the built-in defaults.
    pub seed_models: bool,
    /// Capacity of the cross-query shard store (entries; LRU-evicted
    /// beyond it). `0` disables cross-query reuse entirely: every query
    /// runs cold and deposits nothing.
    pub shard_store_capacity: usize,
    /// Durability mode. [`Durability::Off`] (the default) keeps the
    /// pre-WAL behavior byte-for-byte; [`Durability::Wal`] journals
    /// results, plan builds, shard deposits, and the ASYNC lifecycle
    /// through a crash-recoverable log replayed by [`Session::over`].
    pub durability: Durability,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            slice_budget: 32_768,
            max_retries: 1,
            batch_width: 1,
            seed: 0,
            seed_models: true,
            shard_store_capacity: 64,
            durability: Durability::Off,
        }
    }
}

/// Submission metadata retained for the `results` row a done query
/// produces on its first successful poll.
struct SubmitMeta {
    model: String,
    method: String,
    beta: f64,
    horizon: i64,
    /// Plan provenance (`"hit"`/`"miss"`/`"none"`) captured at submit
    /// time (`"miss"` means plan derivation was scheduled as the query's
    /// first slice), surfaced in the query's `results` row on the first
    /// successful poll.
    plan_source: &'static str,
    /// Shard-store provenance (`"cold"`/`"warm"`/`"stored"`/`"none"`)
    /// captured at submit time, surfaced alongside `plan_source`.
    shard_reuse: &'static str,
    /// Tenant the submission ran under (`None` = tenantless), surfaced
    /// as the `results` row's `tenant` column.
    tenant: Option<String>,
    /// Plan-cache fingerprint, so the completion path can feed the
    /// observed steps/root regime back into the width memo.
    fingerprint: u64,
    submitted: Instant,
    recorded: bool,
}

type MetaMap = Mutex<BTreeMap<QueryId, SubmitMeta>>;

/// Submission metadata retained for an ASYNC `RANK BY` race: the rank
/// spec (to re-derive the per-arm rows), the standings handle the race
/// publishes into when it finalizes, and the per-arm plan provenance
/// captured at submit time.
struct RankMeta {
    rank: RankSpec,
    handle: Arc<Mutex<Option<RaceOutcome>>>,
    plan_sources: Vec<&'static str>,
    submitted: Instant,
    recorded: bool,
}

type RankMap = Mutex<BTreeMap<QueryId, RankMeta>>;

/// A pluggable diagnostics block (serving layers register admission /
/// connection counters here so `SHOW DIAGNOSTICS` surfaces them).
pub type DiagnosticsSource = Arc<dyn Fn() -> Diagnostics + Send + Sync>;

/// `EXPLAIN` output: `(property, value)` rows.
fn property_rows(rows: Vec<(String, String)>) -> ExecResult {
    ExecResult::Rows {
        columns: vec!["property".into(), "value".into()],
        rows: rows
            .into_iter()
            .map(|(k, v)| vec![Value::Text(k), Value::Text(v)])
            .collect(),
    }
}

fn record_submit_meta(
    meta: &MetaMap,
    id: QueryId,
    spec: &QuerySpec,
    plan_source: &'static str,
    shard_reuse: &'static str,
    fingerprint: u64,
) {
    meta.lock().unwrap_or_else(PoisonError::into_inner).insert(
        id,
        SubmitMeta {
            model: spec.model.clone(),
            method: spec.method.name().to_string(),
            beta: spec.beta,
            horizon: spec.horizon as i64,
            plan_source,
            shard_reuse,
            tenant: spec.options.tenant.clone(),
            fingerprint,
            submitted: Instant::now(),
            recorded: false,
        },
    );
}

/// A serving session: an embedded database plus a shared scheduler, plan
/// cache, and model registry.
pub struct Session {
    db: Arc<Database>,
    scheduler: Arc<Scheduler>,
    plans: Arc<PlanCache>,
    store: Option<Arc<ShardStore>>,
    models: Arc<ModelRegistry>,
    meta: MetaMap,
    rank_meta: RankMap,
    rng: Mutex<SimRng>,
    wal: Option<Arc<SessionWal>>,
    recovered: Vec<QueryId>,
    extra_diags: Mutex<Vec<DiagnosticsSource>>,
}

impl Session {
    /// Open a session over a fresh database.
    pub fn new(cfg: SessionConfig) -> Result<Self, DbError> {
        Self::over(Arc::new(Database::new()), cfg)
    }

    /// Open a WAL-backed session journaling to `dir` (shorthand for
    /// setting [`SessionConfig::durability`] and calling
    /// [`Session::new`]). Replays any existing log: completed queries'
    /// rows are already in `results`, and interrupted ASYNC queries are
    /// resubmitted — see [`Session::recovered_ids`] /
    /// [`Session::wait_recovered`].
    pub fn open(dir: impl Into<PathBuf>, mut cfg: SessionConfig) -> Result<Self, DbError> {
        cfg.durability = Durability::Wal(WalSessionConfig::new(dir));
        Self::new(cfg)
    }

    /// Open a session over an existing database (tables are shared; the
    /// scheduler and caches are per-session).
    pub fn over(db: Arc<Database>, cfg: SessionConfig) -> Result<Self, DbError> {
        if cfg.seed_models {
            seed_default_models(&db)?;
        }
        // Open + replay the journal before anything else: the replayed
        // state seeds the caches below, and only then do observers and
        // the scheduler hook attach (replay must not re-journal itself).
        let models = Arc::new(ModelRegistry::with_builtins());
        let (mut session_wal, wal_state) = match &cfg.durability {
            Durability::Off => (None, None),
            Durability::Wal(wcfg) => {
                let (sw, state) = SessionWal::open(wcfg, &models.schemas())?;
                (Some(sw), Some(state))
            }
        };
        let plans = Arc::new(PlanCache::new());
        let scheduler = Arc::new(Scheduler::new(SchedulerConfig {
            workers: cfg.workers,
            slice_budget: cfg.slice_budget,
            max_retries: cfg.max_retries,
            batch_width: cfg.batch_width,
            tenant_weights: Vec::new(),
        }));
        let store = (cfg.shard_store_capacity > 0)
            .then(|| Arc::new(ShardStore::new(cfg.shard_store_capacity)));
        if let Some(store) = &store {
            // Completed and paused scheduler jobs deposit their shards
            // here; future submits over the same key reuse them.
            scheduler.attach_shard_store(Arc::clone(store));
        }

        // Seed replayed state: results rows (journaled + synthesized
        // from durable AsyncDone records), plan-cache entries, shard
        // deposits. Observers are not attached yet, so nothing here is
        // re-journaled.
        if let Some(state) = &wal_state {
            // Re-execute journaled plain SQL first (log order): user
            // tables must exist before anything that reads them, and the
            // statements are replayed verbatim so a recovered session
            // sees the same user-table state it crashed with.
            for stmt in &state.sql {
                crate::sql::execute(&db, stmt)?;
            }
            if !state.rows.is_empty() {
                db.ensure_table("results", results_schema());
            }
            for row in &state.rows {
                db.insert("results", result_row_values(row))?;
            }
            for (fp, method, levels, tau_hint, plan) in &state.plans {
                plans.seed(
                    *fp,
                    method,
                    *levels as usize,
                    CachedPlan {
                        plan: plan.clone(),
                        tau_hint: *tau_hint,
                    },
                );
            }
            if let Some(store) = &store {
                for (key, entry) in &state.deposits {
                    store.deposit(key.clone(), entry.clone());
                }
            }
        }
        if let (Some(sw), Some(state)) = (session_wal.as_mut(), &wal_state) {
            sw.note_replayed(state.rows.len() as u64, state.resubmit.len() as u64);
        }
        let wal = session_wal.map(Arc::new);

        // Startup compaction: rewrite the snapshot from the seeded
        // state (single-threaded here — nothing races the walk), then
        // attach the observers and the scheduler hook so everything
        // from now on journals through the fresh tail.
        if let (Some(sw), Some(state)) = (&wal, &wal_state) {
            // SQL statements lead the snapshot so a replay recreates the
            // user tables before anything else touches them.
            let mut records: Vec<Record> = state
                .sql
                .iter()
                .map(|s| Record::SqlStatement { sql: s.clone() })
                .collect();
            records.extend(state.rows.iter().cloned().map(Record::ResultRow));
            for ((fp, method, levels), cached) in plans.entries() {
                records.push(Record::PlanEntry {
                    fingerprint: fp,
                    method,
                    levels: levels as u64,
                    tau_hint: cached.tau_hint,
                    plan: cached.plan,
                });
            }
            if let Some(store) = &store {
                for (key, entry) in store.entries() {
                    records.push(Record::Checkpoint {
                        qid: None,
                        key,
                        entry,
                    });
                }
            }
            for q in &state.resubmit {
                records.push(Record::AsyncSubmit {
                    qid: q.qid,
                    sql: q.spec.render(),
                    seed: q.seed,
                    tenant: q.spec.options.tenant.clone(),
                    plan_source: q.plan_source.clone(),
                    shard_reuse: q.shard_reuse.clone(),
                });
                if let Some((key, entry)) = &q.checkpoint {
                    records.push(Record::Checkpoint {
                        qid: Some(q.qid),
                        key: key.clone(),
                        entry: entry.clone(),
                    });
                }
            }
            sw.compact(&records)?;
            let plan_wal = Arc::clone(sw);
            plans.set_observer(Arc::new(move |fp, method, levels, cached: &CachedPlan| {
                plan_wal.record_plan_entry(fp, method, levels, cached);
            }));
            if let Some(store) = &store {
                let store_wal = Arc::clone(sw);
                store.set_observer(Arc::new(move |key, entry| {
                    store_wal.record_deposit(key, entry);
                }));
            }
            scheduler.attach_durability_hook(Arc::clone(sw) as Arc<dyn DurabilityHook>);
        }

        let meta: MetaMap = Mutex::new(BTreeMap::new());

        // Resubmit interrupted ASYNC queries in durable-id order: warm
        // from their last checkpoint when one survived, cold from their
        // recorded seed otherwise. Both paths are bit-exact for pinned
        // seeds (the cold rerun replays the identical stream).
        let mut recovered = Vec::new();
        if let (Some(sw), Some(state)) = (&wal, wal_state) {
            for q in state.resubmit {
                let spec = q.spec;
                let (runner, fp, _) = models.build_spec(&db, &spec)?;
                let ctx = PlanContext {
                    cache: Arc::clone(&plans),
                    fingerprint: fp,
                    store: store.clone(),
                };
                let checkpoint = q.checkpoint.as_ref().map(|(key, entry)| (key, entry));
                let width = scheduler.config().batch_width;
                let out = runner.job(&spec, &ctx, q.seed, width, JobKind::Statement(checkpoint));
                let tenant = tenant_of(&scheduler, &spec);
                let id = scheduler.submit_query_as(out.job, spec.options.priority, tenant);
                sw.register_recovered(id, q.qid);
                meta.lock().unwrap_or_else(PoisonError::into_inner).insert(
                    id,
                    SubmitMeta {
                        model: spec.model.clone(),
                        method: spec.method.name().to_string(),
                        beta: spec.beta,
                        horizon: spec.horizon as i64,
                        // The eventual results row carries the *original*
                        // submit-time provenance, like an uninterrupted run's.
                        plan_source: intern_provenance(&q.plan_source),
                        shard_reuse: intern_provenance(&q.shard_reuse),
                        tenant: spec.options.tenant.clone(),
                        fingerprint: fp,
                        submitted: Instant::now(),
                        recorded: false,
                    },
                );
                recovered.push(id);
            }
        }
        Ok(Self {
            db,
            scheduler,
            plans,
            store,
            models,
            meta,
            rank_meta: Mutex::new(BTreeMap::new()),
            rng: Mutex::new(rng_from_seed(cfg.seed)),
            wal,
            recovered,
            extra_diags: Mutex::new(Vec::new()),
        })
    }

    /// The underlying database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The session's scheduler (for native pause/resume/progress access).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// The session's plan cache.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }

    /// The session's cross-query shard store (`None` when disabled via
    /// [`SessionConfig::shard_store_capacity`] = 0).
    pub fn shard_store(&self) -> Option<&ShardStore> {
        self.store.as_deref()
    }

    /// The session's model registry (parameter schemas, `SHOW MODELS`).
    pub fn models(&self) -> &ModelRegistry {
        &self.models
    }

    /// Register an application's own model next to the built-ins.
    /// Add-only: a name the registry already knows is refused, because
    /// cached plans and stored shards are keyed by model name. A
    /// journaled session refuses too: its journal replays at open, before
    /// any model is registered, so a query over this one could not be
    /// rebuilt there.
    pub fn register_model(
        &mut self,
        schema: ModelSchema,
        build: ModelBuilder,
    ) -> Result<(), DbError> {
        let name = schema.name;
        if self.wal.is_some() {
            return Err(DbError::Proc(format!(
                "model '{name}' cannot be registered on a journaled session"
            )));
        }
        if self.models.schema(name).is_some() {
            return Err(DbError::Proc(format!(
                "model '{name}' is already registered"
            )));
        }
        Arc::make_mut(&mut self.models).register(schema, build);
        Ok(())
    }

    /// The session's journal (`None` for [`Durability::Off`]).
    pub fn wal(&self) -> Option<&SessionWal> {
        self.wal.as_deref()
    }

    /// Scheduler ids of the ASYNC queries this session resubmitted from
    /// the log at open time, in durable-id order. Poll/wait/cancel them
    /// like any live submission.
    pub fn recovered_ids(&self) -> &[QueryId] {
        &self.recovered
    }

    /// Block until every recovered query is terminal, recording the
    /// `results` rows of completed ones (like [`Session::wait`]).
    /// Returns each query's id and terminal status.
    pub fn wait_recovered(&self) -> Result<Vec<(QueryId, QueryStatus)>, DbError> {
        let ids: Vec<QueryId> = self.recovered.clone();
        let mut out = Vec::new();
        for id in ids {
            if let Some(status) = self.wait(id)? {
                out.push((id, status));
            }
        }
        Ok(out)
    }

    /// Draw an independent child stream from the session RNG (the lock
    /// is *not* held while the caller runs), so concurrent calls from
    /// multiple clients get independent, uncorrelated randomness.
    fn child_rng(&self) -> SimRng {
        let mut parent = self.rng.lock().unwrap_or_else(PoisonError::into_inner);
        split_rng(&mut parent)
    }

    /// Call a stored procedure by name: `materialize_paths` is the one
    /// there is ([`materialize_paths`]); any other name is
    /// [`DbError::UnknownProc`].
    pub fn call(&self, proc_: &str, args: &[Value]) -> Result<Value, DbError> {
        match proc_ {
            "materialize_paths" => {
                materialize_paths(&self.db, &self.models, args, &mut self.child_rng())
            }
            _ => Err(DbError::UnknownProc(proc_.to_string())),
        }
    }

    /// Execute one statement: plain SQL or the ESTIMATE dialect.
    ///
    /// * `ESTIMATE … ` (sync) → one row with the estimate and its
    ///   counters (the standard `results` row is recorded too);
    /// * `ESTIMATE … ASYNC` → one row with the scheduler `query_id`;
    /// * `EXPLAIN ESTIMATE …` → `(property, value)` rows of the resolved
    ///   plan;
    /// * `SHOW MODELS` → the model catalog with per-parameter schemas;
    /// * plain SQL → the plain SQL executor.
    ///
    /// Malformed statements, plain SQL included, fail with
    /// [`DbError::Spec`] carrying the typed
    /// [`mlss_core::spec::SpecError`] and its byte span.
    pub fn execute(&self, sql: &str) -> Result<ExecResult, DbError> {
        self.execute_as(None, sql)
    }

    /// Parse one statement against the session's model catalog, so
    /// unknown models, unknown parameters and out-of-range values are
    /// spanned errors too.
    pub fn parse(&self, sql: &str) -> Result<Statement, SpecError> {
        crate::sql::parse(sql, Some(&self.models.schemas()))
    }

    /// [`Session::execute`] on behalf of a tenant. The tenant name is
    /// **not** part of the statement language — it is stamped into the
    /// spec's [`mlss_core::spec::ExecOptions`] here, exactly as a
    /// serving layer does after its handshake, so a socketed statement
    /// and this call run the identical dispatch path. Estimation work is
    /// charged to the tenant's fair-share account and the query's
    /// `results` row carries the tenant in its `tenant` column
    /// (tenantless calls record `"-"`).
    pub fn execute_as(&self, tenant: Option<&str>, sql: &str) -> Result<ExecResult, DbError> {
        let stmt = self.parse(sql)?;
        self.execute_parsed(tenant, sql, stmt)
    }

    /// Run a statement [`Session::parse`] already parsed from `sql` (a
    /// server parses once, to classify the statement before admitting
    /// it). Statements that change user tables are journaled to the WAL
    /// as `sql`, verbatim.
    pub fn execute_parsed(
        &self,
        tenant: Option<&str>,
        sql: &str,
        stmt: Statement,
    ) -> Result<ExecResult, DbError> {
        match stmt {
            Statement::ShowModels => Ok(show_models(&self.models)),
            Statement::ShowDiagnostics => {
                let rows = self
                    .diagnostics()
                    .into_iter()
                    .flat_map(|d| {
                        let component = d.estimator.to_string();
                        d.details.into_iter().map(move |(counter, value)| {
                            vec![
                                Value::Text(component.clone()),
                                Value::Text(counter),
                                Value::Float(value),
                            ]
                        })
                    })
                    .collect();
                Ok(ExecResult::Rows {
                    columns: vec!["component".into(), "counter".into(), "value".into()],
                    rows,
                })
            }
            Statement::ExplainEstimate(spec) => Ok(property_rows(explain_spec(
                &self.db,
                &self.models,
                &self.plans,
                self.store.as_ref(),
                &self.scheduler,
                &spec,
                &mut self.child_rng(),
            )?)),
            Statement::ExplainRank(rank) => Ok(property_rows(explain_rank(
                &self.db,
                &self.models,
                &self.plans,
                &self.scheduler,
                &rank,
                &mut self.child_rng(),
            )?)),
            Statement::Rank(mut rank) => {
                // Tenant stamping mirrors the single-estimate path: the
                // race itself is charged to the tenant's fair-share
                // account, and every per-arm results row carries it.
                rank.options.tenant = tenant.map(String::from);
                for arm in &mut rank.arms {
                    arm.options.tenant = rank.options.tenant.clone();
                }
                let mut rng = self.child_rng();
                match execute_rank(
                    &self.db,
                    &self.models,
                    &self.plans,
                    &self.scheduler,
                    self.wal.as_deref(),
                    &rank,
                    &mut rng,
                )? {
                    RankOutcome::Ranked { outcome, .. } => Ok(standings_rows(&outcome)),
                    RankOutcome::Submitted {
                        id,
                        handle,
                        plan_sources,
                        ..
                    } => {
                        self.rank_meta
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .insert(
                                id,
                                RankMeta {
                                    rank,
                                    handle,
                                    plan_sources,
                                    submitted: Instant::now(),
                                    recorded: false,
                                },
                            );
                        Ok(ExecResult::Rows {
                            columns: vec!["query_id".into()],
                            rows: vec![vec![Value::Int(id as i64)]],
                        })
                    }
                }
            }
            Statement::Estimate(mut spec) => {
                spec.options.tenant = tenant.map(String::from);
                let mut rng = self.child_rng();
                match execute_spec(
                    &self.db,
                    &self.models,
                    &self.plans,
                    self.store.as_ref(),
                    &self.scheduler,
                    self.wal.as_deref(),
                    &spec,
                    &mut rng,
                )? {
                    SpecOutcome::Estimated { est, millis, .. } => Ok(ExecResult::Rows {
                        columns: vec![
                            "model".into(),
                            "method".into(),
                            "tau".into(),
                            "variance".into(),
                            "steps".into(),
                            "n_roots".into(),
                            "millis".into(),
                            "plan_cache".into(),
                            "shard_reuse".into(),
                        ],
                        rows: vec![vec![
                            Value::Text(spec.model.clone()),
                            Value::Text(spec.method.name().to_string()),
                            Value::Float(est.tau),
                            Value::Float(est.variance),
                            Value::Int(est.steps as i64),
                            Value::Int(est.n_roots as i64),
                            Value::Int(millis),
                            Value::Text(est.plan_source.to_string()),
                            Value::Text(est.shard_reuse.to_string()),
                        ]],
                    }),
                    SpecOutcome::Submitted {
                        id,
                        plan_source,
                        shard_reuse,
                        fingerprint,
                        ..
                    } => {
                        record_submit_meta(
                            &self.meta,
                            id,
                            &spec,
                            plan_source,
                            shard_reuse,
                            fingerprint,
                        );
                        Ok(ExecResult::Rows {
                            columns: vec!["query_id".into()],
                            rows: vec![vec![Value::Int(id as i64)]],
                        })
                    }
                }
            }
            plain => {
                let journal = plain.is_mutation();
                let res = execute_statement(&self.db, plain)?;
                // Journal mutations so a recovered session restores user
                // tables. Appended *after* the successful execute — a
                // failed statement must not be replayed — which leaves an
                // at-most-once-behind window for the very last statement
                // (see `SessionWal::record_sql`).
                if journal {
                    if let Some(wal) = &self.wal {
                        wal.record_sql(sql)?;
                    }
                }
                Ok(res)
            }
        }
    }

    /// Current status of a submitted query.
    pub fn poll(&self, id: QueryId) -> Option<QueryStatus> {
        self.scheduler.poll(id)
    }

    /// Block until the query is terminal; records the `results` row for
    /// completed queries exactly once (a failed insert surfaces instead
    /// of silently dropping the row). `Ok(None)` means the id is unknown.
    pub fn wait(&self, id: QueryId) -> Result<Option<QueryStatus>, DbError> {
        let Some(status) = self.scheduler.wait(id) else {
            return Ok(None);
        };
        if let QueryStatus::Done(est) = &status {
            record_result(&self.db, &self.meta, &self.scheduler, &self.plans, id, est)?;
            self.record_rank_result(id)?;
        }
        Ok(Some(status))
    }

    /// Standings of an ASYNC `RANK BY` race, once it has finalized
    /// (`Ok(None)` while it races, or for ids that are not races).
    /// Reading the standings also records them — the `rankings` rows
    /// plus one `results` row per arm — exactly once, like a successful
    /// [`Session::wait`].
    pub fn rank_standings(&self, id: QueryId) -> Result<Option<RaceOutcome>, DbError> {
        self.record_rank_result(id)?;
        let metas = self
            .rank_meta
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Ok(metas.get(&id).and_then(|m| {
            m.handle
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone()
        }))
    }

    /// Record a finalized ASYNC race exactly once: the scheduled
    /// counterpart of the synchronous recording inside
    /// [`crate::dispatch::execute_rank`]. A no-op for non-race ids and
    /// for races still running.
    fn record_rank_result(&self, id: QueryId) -> Result<(), DbError> {
        let mut metas = self
            .rank_meta
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let Some(m) = metas.get_mut(&id) else {
            return Ok(());
        };
        if m.recorded {
            return Ok(());
        }
        let Some(outcome) = m
            .handle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
        else {
            return Ok(()); // still racing
        };
        let millis = self
            .scheduler
            .progress(id)
            .map(|p| p.elapsed)
            .unwrap_or_else(|| m.submitted.elapsed());
        record_rank_rows(
            &self.db,
            &m.rank,
            &m.plan_sources,
            &outcome,
            millis.as_millis() as i64,
            self.wal.as_deref(),
        )?;
        m.recorded = true;
        Ok(())
    }

    /// Cancel a query; true if the cancellation took effect.
    pub fn cancel(&self, id: QueryId) -> bool {
        self.scheduler.cancel(id)
    }

    /// Plan-cache, shard-store, scheduler-pool, and (when journaling)
    /// WAL health counters — one shared counter shape per component
    /// (the rows behind `SHOW DIAGNOSTICS`).
    pub fn diagnostics(&self) -> Vec<Diagnostics> {
        let mut diags = vec![self.plans.diagnostics()];
        if let Some(store) = &self.store {
            diags.push(store.diagnostics());
        }
        diags.push(self.scheduler.pool_diagnostics());
        if let Some(wal) = &self.wal {
            diags.push(wal.diagnostics());
        }
        // The width policy's speculation ledger (process-wide, like the
        // SIMD backend itself): how many roots batched frontiers
        // launched vs committed — the gap is speculative work thrown
        // away at chunk boundaries — and the average width they actually
        // ran at.
        let spec = mlss_core::width::snapshot();
        let effective_width = if spec.chunks > 0 {
            spec.width_sum as f64 / spec.chunks as f64
        } else {
            0.0
        };
        diags.push(Diagnostics {
            estimator: "width_policy",
            skip_events: 0,
            details: vec![
                ("frontier_chunks".into(), spec.chunks as f64),
                ("roots_launched".into(), spec.launched as f64),
                ("roots_committed".into(), spec.committed as f64),
                ("speculation_discarded".into(), spec.discarded() as f64),
                ("effective_width".into(), effective_width),
                ("reprobed".into(), mlss_core::width::reprobe_count() as f64),
            ],
        });
        // The ranking subsystem's race ledger (process-wide, like the
        // width policy): races decided, arms raced, how many froze
        // before the round cap (the boundary test doing its job), and
        // the rounds/steps actually spent.
        let races = mlss_core::ranking::snapshot();
        diags.push(Diagnostics {
            estimator: "ranking",
            skip_events: 0,
            details: vec![
                ("races".into(), races.races as f64),
                ("arms".into(), races.arms as f64),
                ("arms_frozen_early".into(), races.frozen_early as f64),
                ("rounds".into(), races.rounds as f64),
                ("steps".into(), races.steps as f64),
            ],
        });
        // Per-tenant fair-share accounts, when any tenant is registered.
        if let Some(tenants) = self.scheduler.tenant_diagnostics() {
            diags.push(tenants);
        }
        // Registered serving-layer blocks (admission control, connection
        // counters) ride last.
        let extra = self
            .extra_diags
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for source in extra.iter() {
            diags.push(source());
        }
        diags
    }

    /// Register an extra diagnostics block (e.g. a server's admission
    /// counters); it appears in [`Session::diagnostics`] and therefore
    /// in `SHOW DIAGNOSTICS`.
    pub fn add_diagnostics_source(&self, source: DiagnosticsSource) {
        self.extra_diags
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(source);
    }

    /// Register `tenant` (idempotent) and set its fair-share weight.
    /// Attained service is charged per tenant and the scheduler favors
    /// the lowest attained/weight, so a weight-4 tenant attains ~4x a
    /// weight-1 tenant's service under contention.
    pub fn set_tenant_weight(&self, tenant: &str, weight: f64) {
        self.scheduler.set_tenant_weight(tenant, weight);
    }

    /// Evict terminal queries from the scheduler and drop their recorded
    /// submission metadata. Completed-but-never-polled queries are
    /// **recorded first** — eviction must not lose a result a client
    /// never got to see; it lands in `results` like any other. Evicted
    /// ids become unknown to `poll`/`wait`. Returns the number of
    /// queries evicted.
    pub fn prune(&self) -> Result<usize, DbError> {
        // Flush pending Done results before their slots disappear.
        let unrecorded: Vec<QueryId> = {
            let metas = self.meta.lock().unwrap_or_else(PoisonError::into_inner);
            metas
                .iter()
                .filter(|(_, m)| !m.recorded)
                .map(|(id, _)| *id)
                .collect()
        };
        for id in unrecorded {
            if let Some(QueryStatus::Done(est)) = self.scheduler.poll(id) {
                record_result(&self.db, &self.meta, &self.scheduler, &self.plans, id, &est)?;
            }
        }
        // Likewise for finalized-but-never-read races: their standings
        // land in `rankings` (and their per-arm `results` rows) before
        // the handle's last owner disappears.
        let unrecorded_ranks: Vec<QueryId> = {
            let metas = self
                .rank_meta
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            metas
                .iter()
                .filter(|(_, m)| !m.recorded)
                .map(|(id, _)| *id)
                .collect()
        };
        for id in unrecorded_ranks {
            self.record_rank_result(id)?;
        }
        let evicted = self.scheduler.evict_terminal();
        self.meta
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|id, m| !m.recorded && self.scheduler.poll(*id).is_some());
        self.rank_meta
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|id, m| !m.recorded && self.scheduler.poll(*id).is_some());
        Ok(evicted)
    }
}

/// A replayed [`ResultRow`] as the `results` table's 12-column layout.
fn result_row_values(row: &ResultRow) -> Vec<Value> {
    vec![
        row.model.as_str().into(),
        row.method.as_str().into(),
        row.beta.into(),
        Value::Int(row.horizon),
        row.tau.into(),
        row.variance.into(),
        Value::Int(row.steps),
        Value::Int(row.n_roots),
        Value::Int(row.millis),
        row.plan_source.as_str().into(),
        row.shard_reuse.as_str().into(),
        row.tenant.as_str().into(),
    ]
}

/// Append the standard `results` row for a completed query exactly once.
/// `millis` reports the query's serving latency — submission to
/// completion, as measured by the scheduler — not how late the caller
/// happened to poll.
fn record_result(
    db: &Database,
    meta: &MetaMap,
    scheduler: &Scheduler,
    plans: &PlanCache,
    id: QueryId,
    est: &mlss_core::estimate::Estimate,
) -> Result<(), DbError> {
    let mut metas = meta.lock().unwrap_or_else(PoisonError::into_inner);
    let Some(m) = metas.get_mut(&id) else {
        return Ok(()); // submitted outside the session
    };
    if m.recorded {
        return Ok(());
    }
    db.ensure_table("results", results_schema());
    let millis = scheduler
        .progress(id)
        .map(|p| p.elapsed)
        .unwrap_or_else(|| m.submitted.elapsed());
    db.insert(
        "results",
        vec![
            m.model.as_str().into(),
            m.method.as_str().into(),
            m.beta.into(),
            Value::Int(m.horizon),
            est.tau.into(),
            est.variance.into(),
            Value::Int(est.steps as i64),
            Value::Int(est.n_roots as i64),
            Value::Int(millis.as_millis() as i64),
            m.plan_source.into(),
            m.shard_reuse.into(),
            m.tenant.as_deref().unwrap_or("-").into(),
        ],
    )?;
    m.recorded = true;
    // Feed the observed steps/root regime back into the width memo so a
    // family whose cost shape drifted >2x from its probed regime gets
    // re-probed on the next width resolution.
    if est.n_roots > 0 {
        plans.observe_regime(m.fingerprint, est.steps as f64 / est.n_roots as f64);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::results_count;

    fn session() -> Session {
        Session::new(SessionConfig {
            workers: 2,
            slice_budget: 8_192,
            seed: 42,
            ..SessionConfig::default()
        })
        .unwrap()
    }

    fn estimate(model: &str, method: &str, beta: f64, horizon: u64, re: f64) -> String {
        format!(
            "ESTIMATE DURABILITY OF {model}(beta={beta}) WITHIN {horizon} \
             USING {method} TARGET RE {re}"
        )
    }

    /// Run an `… ASYNC` statement and return its query id.
    fn submit(s: &Session, sql: &str) -> QueryId {
        let res = s.execute(&format!("{sql} ASYNC")).unwrap();
        res.scalar().unwrap().as_i64().unwrap() as QueryId
    }

    /// `(plan_cache, shard_reuse)` of every `results` row.
    fn provenance(s: &Session) -> Vec<(String, String)> {
        s.db()
            .with_table("results", |t| {
                t.scan()
                    .map(|row| {
                        (
                            row[9].as_str().unwrap().to_string(),
                            row[10].as_str().unwrap().to_string(),
                        )
                    })
                    .collect()
            })
            .unwrap()
    }

    #[test]
    fn retired_positional_procedures_are_unknown() {
        let s = session();
        for name in ["mlss_estimate", "mlss_submit", "mlss_poll", "mlss_cancel"] {
            match s.call(name, &[]) {
                Err(DbError::UnknownProc(p)) => assert_eq!(p, name),
                other => panic!("{name}: expected UnknownProc, got {other:?}"),
            }
        }
    }

    #[test]
    fn submit_wait_roundtrip_records_result() {
        let s = session();
        let id = submit(&s, &estimate("walk", "srs", 6.0, 50, 0.3));
        // Polling observes the status without recording anything.
        while !s.poll(id).unwrap().is_terminal() {
            std::thread::yield_now();
        }
        assert_eq!(results_count(s.db()).unwrap_or(0), 0);
        // The first wait on the completed query records its row.
        let tau = s.wait(id).unwrap().unwrap().estimate().unwrap().tau;
        assert!((0.0..=1.0).contains(&tau));
        assert_eq!(results_count(s.db()).unwrap(), 1);
        // Waiting again must not duplicate the results row.
        assert!(s.wait(id).unwrap().unwrap().estimate().is_some());
        assert_eq!(results_count(s.db()).unwrap(), 1);
        // Prune evicts the consumed query; the results row survives.
        assert_eq!(s.prune().unwrap(), 1);
        assert!(s.poll(id).is_none());
        assert!(s.wait(id).unwrap().is_none(), "unknown ids wait to None");
        assert_eq!(results_count(s.db()).unwrap(), 1);
    }

    #[test]
    fn polled_results_surface_plan_cache_provenance() {
        let s = session();
        // First gmlss submit schedules the pilot as its first slice
        // (miss), the second reuses the plan (hit); SRS needs no plan.
        for sql in [
            estimate("ar", "gmlss", 3.0, 40, 0.5),
            estimate("ar", "gmlss", 3.0, 40, 0.5),
            estimate("walk", "srs", 6.0, 50, 0.5),
        ] {
            let id = submit(&s, &sql);
            s.wait(id).unwrap().unwrap();
        }
        let rows = provenance(&s);
        let sources: Vec<&str> = rows.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(sources, vec!["miss", "hit", "none"]);
        // Shard-store provenance rides alongside: the first gmlss run is
        // cold, the identical repeat is served from the store, and the
        // walk query's key has no entry yet.
        let reuse: Vec<&str> = rows.iter().map(|(_, r)| r.as_str()).collect();
        assert_eq!(reuse, vec!["cold", "stored", "cold"]);
    }

    #[test]
    fn cold_submit_returns_before_the_pilot_runs() {
        // A cold ASYNC submission must not pay the pilot synchronously:
        // the miss is only counted when the query's first slice derives
        // the plan, and its results row records the deferred miss.
        let s = session();
        let id = submit(&s, &estimate("ar", "gmlss", 3.5, 40, 0.4));
        let est = s.wait(id).unwrap().unwrap();
        assert!(est.estimate().is_some());
        assert_eq!(s.plan_cache().misses(), 1, "first slice ran the pilot");
        let sources: Vec<String> = provenance(&s).into_iter().map(|(p, _)| p).collect();
        assert_eq!(sources, vec!["miss"]);
    }

    #[test]
    fn prune_records_unpolled_completions_before_evicting() {
        let s = session();
        let id = submit(&s, &estimate("walk", "srs", 6.0, 50, 0.3));
        // Let it finish without ever waiting…
        while !s
            .scheduler()
            .poll(id)
            .map(|st| st.is_terminal())
            .unwrap_or(false)
        {
            std::thread::yield_now();
        }
        assert_eq!(results_count(s.db()).unwrap_or(0), 0, "not yet recorded");
        // …then prune: the result must be flushed, not destroyed.
        assert_eq!(s.prune().unwrap(), 1);
        assert!(s.poll(id).is_none());
        assert_eq!(results_count(s.db()).unwrap(), 1);
    }

    #[test]
    fn concurrent_submissions_share_the_plan_cache() {
        let s = session();
        // Same (model, β, horizon, method) four times: one pilot (the
        // deferred builds are single-flight), the rest cache hits.
        let ids: Vec<QueryId> = (0..4)
            .map(|_| submit(&s, &estimate("ar", "gmlss", 3.0, 40, 0.5)))
            .collect();
        for id in ids {
            let status = s.wait(id).unwrap().unwrap();
            let est = status.estimate().expect("queries complete");
            assert!((0.0..=1.0).contains(&est.tau));
        }
        assert_eq!(s.plan_cache().misses(), 1, "one pilot only");
        assert!(s.plan_cache().hits() >= 3, "repeat queries hit the cache");
        assert_eq!(results_count(s.db()).unwrap(), 4);
        // Diagnostics surface the counters.
        let diags = s.diagnostics();
        let cache = diags.iter().find(|d| d.estimator == "plan_cache").unwrap();
        assert!(cache
            .details
            .iter()
            .any(|(k, v)| k == "plan_cache_hits" && *v >= 3.0));
    }

    #[test]
    fn synchronous_and_scheduled_paths_share_plans() {
        let s = session();
        // A synchronous estimate derives and caches the plan, and a
        // synchronous repeat hits it…
        for _ in 0..2 {
            let res = s.execute(&estimate("ar", "gmlss", 3.0, 40, 0.5)).unwrap();
            assert!((0.0..=1.0).contains(&res.rows()[0][2].as_f64().unwrap()));
        }
        assert_eq!(s.plan_cache().misses(), 1);
        assert_eq!(s.plan_cache().hits(), 1);
        // …and so does the scheduled path.
        let id = submit(&s, &estimate("ar", "gmlss", 3.0, 40, 0.5));
        assert!(s.wait(id).unwrap().unwrap().estimate().is_some());
        assert_eq!(s.plan_cache().misses(), 1);
        assert!(s.plan_cache().hits() >= 2);
        // A different β is a different fingerprint → a new pilot.
        s.execute(&estimate("ar", "gmlss", 4.0, 40, 0.5)).unwrap();
        assert_eq!(s.plan_cache().misses(), 2);
        let sources: Vec<String> = provenance(&s).into_iter().map(|(p, _)| p).collect();
        assert_eq!(sources, vec!["miss", "hit", "hit", "miss"]);
    }

    #[test]
    fn racing_first_statements_both_record_results() {
        // Two threads released together each run an estimate as a fresh
        // session's first statement, so both reach the creation of
        // `results` at nearly the same instant. The g-MLSS statement's
        // single-flight plan build wakes both threads at once; the cheaper
        // SRS statement gives the race many more chances per second.
        let gmlss = "ESTIMATE DURABILITY OF walk(beta=4) WITHIN 8 USING gmlss TARGET RE 50%";
        let srs = "ESTIMATE DURABILITY OF walk(beta=2) WITHIN 8 USING srs TARGET RE 50%";
        let rounds = std::iter::repeat_n(gmlss, 10).chain(std::iter::repeat_n(srs, 1000));
        for (seed, sql) in rounds.enumerate() {
            let s = Session::new(SessionConfig {
                workers: 1,
                seed: seed as u64,
                ..SessionConfig::default()
            })
            .unwrap();
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        barrier.wait();
                        s.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
                    });
                }
            });
            assert_eq!(results_count(s.db()).unwrap(), 2, "{sql}");
        }
    }

    #[test]
    fn pinned_seed_statements_are_reproducible() {
        // A pinned seed wins over the session seed: the same statement in
        // two sessions seeded differently records bit-identical rows
        // (every column but `millis`, index 8).
        let rows = |session_seed: u64| -> Vec<Value> {
            let s = Session::new(SessionConfig {
                seed: session_seed,
                ..SessionConfig::default()
            })
            .unwrap();
            s.execute(&format!(
                "{} WITH (seed=777)",
                estimate("walk", "srs", 6.0, 50, 0.3)
            ))
            .unwrap();
            let mut row = s
                .db()
                .with_table("results", |t| t.scan().next().unwrap().to_vec())
                .unwrap();
            row.remove(8);
            row
        };
        let (a, b) = (rows(1), rows(2));
        assert_eq!(
            a[4].as_f64().unwrap().to_bits(),
            b[4].as_f64().unwrap().to_bits()
        );
        assert_eq!(a, b);
    }

    #[test]
    fn cancel_stops_a_running_query() {
        let s = Session::new(SessionConfig {
            workers: 1,
            slice_budget: 4_096,
            seed: 9,
            ..SessionConfig::default()
        })
        .unwrap();
        // Tight target ⇒ long-running query we can cancel.
        let id = submit(&s, &estimate("walk", "srs", 6.0, 60, 0.01));
        assert!(s.cancel(id), "cancelling a live query takes effect");
        loop {
            match s.poll(id).unwrap() {
                QueryStatus::Cancelled => break,
                QueryStatus::Queued | QueryStatus::Running => std::thread::yield_now(),
                other => panic!("cancelled query produced {other:?}"),
            }
        }
        // Cancelling a terminal query has no effect, and nothing is
        // recorded for it.
        assert!(!s.cancel(id));
        assert!(matches!(s.wait(id).unwrap(), Some(QueryStatus::Cancelled)));
        assert_eq!(results_count(s.db()).unwrap_or(0), 0);
    }

    #[test]
    fn execute_runs_dialect_and_plain_sql() {
        let s = session();
        // Sync ESTIMATE returns an estimate row and records a result.
        let res = s
            .execute("ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 USING srs TARGET RE 30%")
            .unwrap();
        let row = &res.rows()[0];
        assert_eq!(row[0].as_str(), Some("walk"));
        assert_eq!(row[1].as_str(), Some("srs"));
        let tau = row[2].as_f64().unwrap();
        assert!((0.0..=1.0).contains(&tau));
        assert_eq!(results_count(s.db()).unwrap(), 1);
        // Plain SQL sees the recorded row.
        let res = s.execute("SELECT COUNT(*) FROM results").unwrap();
        assert_eq!(res.scalar(), Some(&Value::Int(1)));
        // SHOW MODELS lists every registered parameter.
        let res = s.execute("SHOW MODELS").unwrap();
        assert!(res.rows().len() >= 8);
        // Async ESTIMATE returns a query id that polls to completion.
        let res = s
            .execute("ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 USING srs TARGET RE 30% ASYNC")
            .unwrap();
        let id = res.scalar().unwrap().as_i64().unwrap() as QueryId;
        assert!(s.wait(id).unwrap().unwrap().estimate().is_some());
        assert_eq!(results_count(s.db()).unwrap(), 2);
    }

    #[test]
    fn execute_reports_spanned_spec_errors() {
        use mlss_core::spec::SpecErrorKind;
        let s = session();
        type KindCheck = fn(&SpecErrorKind) -> bool;
        let cases: [(&str, KindCheck, &str); 3] = [
            (
                "ESTIMATE DURABILITY OF walk(beta=6, wat=1) WITHIN 50 TARGET RE 30%",
                |k| matches!(k, SpecErrorKind::UnknownParam { .. }),
                "wat",
            ),
            (
                "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 USING nope TARGET RE 30%",
                |k| matches!(k, SpecErrorKind::UnknownMethod { .. }),
                "nope",
            ),
            (
                "ESTIMATE DURABILITY OF mystery(beta=6) WITHIN 50 TARGET RE 30% ASYNC",
                |k| matches!(k, SpecErrorKind::UnknownModel { .. }),
                "mystery",
            ),
        ];
        for (sql, kind_ok, token) in cases {
            match s.execute(sql) {
                Err(DbError::Spec(e)) => {
                    assert!(kind_ok(&e.kind), "{sql}: wrong kind {:?}", e.kind);
                    let span = e.span.unwrap();
                    assert_eq!(&sql[span.start..span.end], token, "{sql}");
                }
                other => panic!("{sql}: expected Spec error, got {other:?}"),
            }
        }
    }

    #[test]
    fn explain_reports_the_resolved_plan() {
        let s = session();
        let res = s
            .execute(
                "EXPLAIN ESTIMATE DURABILITY OF ar(beta=3) WITHIN 40 \
                 USING auto TARGET RE 50% WITH (batch_width=16)",
            )
            .unwrap();
        let props_of = |res: ExecResult| -> BTreeMap<String, String> {
            res.rows()
                .iter()
                .map(|r| {
                    (
                        r[0].as_str().unwrap().to_string(),
                        r[1].as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let props = props_of(res);
        assert_eq!(props["method"], "auto");
        assert!(
            props["resolved_method"] == "gmlss" || props["resolved_method"] == "srs",
            "auto must resolve concretely"
        );
        assert_eq!(props["plan_cache"], "miss", "cold cache: the pilot ran");
        assert_eq!(props["batch_width"], "16");
        assert_eq!(props["width"], "16 (requested)");
        assert_eq!(props["driver"], "sequential");
        assert!(props.contains_key("level_plan"));
        // The EXPLAIN warmed the cache: executing now hits.
        let res = s
            .execute(
                "EXPLAIN ESTIMATE DURABILITY OF ar(beta=3) WITHIN 40 \
                 USING auto TARGET RE 50% WITH (batch_width=16)",
            )
            .unwrap();
        let cache_row = res
            .rows()
            .iter()
            .find(|r| r[0].as_str() == Some("plan_cache"))
            .unwrap();
        assert_eq!(cache_row[1].as_str(), Some("hit"));
        // No width requested: one root at a time, the default.
        let props = props_of(
            s.execute(
                "EXPLAIN ESTIMATE DURABILITY OF ar(beta=3) WITHIN 40 \
                 USING srs TARGET RE 50%",
            )
            .unwrap(),
        );
        assert_eq!(props["batch_width"], "1");
        assert_eq!(props["width"], "1 (default)");
        // The driver row shows the helper cap on this 2-worker session:
        // a sync committer is the caller, an ASYNC one a worker, and race
        // arms never fan out.
        let driver =
            |sql: &str| props_of(s.execute(&format!("EXPLAIN {sql}")).unwrap())["driver"].clone();
        let walk = estimate("walk", "srs", 6.0, 50, 0.3);
        let race = "ESTIMATE DURABILITY OF walk(beta=6) SWEEP up FROM 0.30 TO 0.42 STEP 0.04 \
             WITHIN 50 USING srs TARGET RE 0.5 RANK BY TOP 2 (rounds=5, round_budget=4000)";
        for (sql, row) in [
            (walk.clone(), "sequential"),
            (
                format!("{walk} WITH (threads=4)"),
                "caller + 2 helpers (threads=4)",
            ),
            (
                format!("{walk} WITH (threads=4) ASYNC"),
                "scheduler(workers=2) + 1 helper (threads=4)",
            ),
            (
                format!("{race} WITH (threads=4)"),
                "sequential race loop (same slice order as the scheduler)",
            ),
        ] {
            assert_eq!(driver(&sql), row, "{sql}");
        }
    }

    /// Threads that ran a step of [`Tracked`] since the last
    /// [`Tracked::start`].
    static TRACKED: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());
    static TRACKED_GEN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

    /// The walk, recording every thread that steps it.
    struct Tracked(mlss_models::RandomWalk);

    impl Tracked {
        /// Forget the threads seen so far.
        fn start() {
            TRACKED_GEN.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            TRACKED.lock().unwrap().clear();
        }

        /// Distinct threads that stepped the model since [`Tracked::start`].
        fn threads() -> usize {
            TRACKED.lock().unwrap().len()
        }
    }

    impl mlss_core::model::SimulationModel for Tracked {
        type State = i64;

        fn initial_state(&self) -> i64 {
            self.0.initial_state()
        }

        fn step(&self, s: &i64, t: mlss_core::model::Time, rng: &mut SimRng) -> i64 {
            thread_local!(static SEEN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) });
            let generation = TRACKED_GEN.load(std::sync::atomic::Ordering::SeqCst);
            if SEEN.get() != generation {
                SEEN.set(generation);
                TRACKED.lock().unwrap().push(std::thread::current().id());
            }
            self.0.step(s, t, rng)
        }
    }

    /// A 2-worker session without a shard store (so repeats simulate) that
    /// also knows the `tracked` model.
    fn tracked_session() -> Session {
        let mut s = Session::new(SessionConfig {
            workers: 2,
            slice_budget: 8_192,
            shard_store_capacity: 0,
            ..SessionConfig::default()
        })
        .unwrap();
        s.register_model(
            mlss_core::spec::ModelSchema::new("tracked", "walk recording its threads", vec![]),
            |_, _| {
                Ok(Box::new(crate::proc::Runner {
                    model: Tracked(mlss_models::RandomWalk::new(0.4, 0.3, 0).reflected()),
                    score: mlss_models::position_score,
                }))
            },
        )
        .unwrap();
        s
    }

    #[test]
    fn threads_never_exceed_the_pool_and_never_change_the_answer() {
        let s = tracked_session();
        let sql = |with: &str| {
            format!(
                "ESTIMATE DURABILITY OF tracked(beta=8) WITHIN 50 USING srs TARGET RE 5% \
                 WITH (seed=7{with})"
            )
        };
        // τ̂, variance, steps and n_roots of the statement's results row.
        let answer = |row: Vec<Value>| row[4..8].to_vec();
        let last_row = || {
            s.db()
                .with_table("results", |t| t.scan().last().unwrap().to_vec())
                .unwrap()
        };
        Tracked::start();
        s.execute(&sql("")).unwrap();
        let sequential = answer(last_row());
        assert_eq!(Tracked::threads(), 1, "threads=1 runs on the caller alone");

        // The caller commits; at most the pool's two workers help.
        Tracked::start();
        s.execute(&sql(", threads=64")).unwrap();
        assert!(Tracked::threads() <= 3, "{} threads", Tracked::threads());
        assert_eq!(answer(last_row()), sequential, "sync threads=64");

        // A pool worker commits; at most the other one helps.
        Tracked::start();
        let id = submit(&s, &sql(", threads=4"));
        assert!(matches!(s.wait(id).unwrap(), Some(QueryStatus::Done(_))));
        assert!(Tracked::threads() <= 2, "{} threads", Tracked::threads());
        assert_eq!(answer(last_row()), sequential, "ASYNC threads=4");
    }
}
