//! The typed **query spec IR** behind the declarative `ESTIMATE` dialect.
//!
//! A durability question — the SQL statement
//! `ESTIMATE DURABILITY OF cpp(beta=500) WITHIN 1000 …`, sync or `ASYNC`
//! — compiles down to one [`QuerySpec`] value and flows through one
//! dispatch path. The IR captures:
//!
//! * the **model reference**: a registered model name plus named
//!   parameter overrides (validated against the model's
//!   [`ModelSchema`]);
//! * the **method**: one of the four samplers (or `auto`), plus its
//!   level count;
//! * the **query shape**: threshold β, horizon, and the relative-error
//!   quality target;
//! * **execution options**: threads, frontier batch width, RNG seed,
//!   scheduler priority, and sync-vs-async mode.
//!
//! [`SpecError`] is the taxonomy of everything that can be wrong with a
//! spec — syntactic (with byte [`Span`]s pointing into the statement
//! text) or semantic (unknown model/parameter/option, out-of-range
//! values, missing clauses) — replacing the stringly-typed procedure
//! errors the positional interface produced.
//!
//! The module also hosts the spec-level scheduler integration:
//! [`resolve_method`] turns a [`Method`] plus a plan-cache lookup into
//! the concrete estimator choice (the `auto` rule), [`plan_lookup`] is
//! the one pilot behind every plan, [`estimator_job`] builds any resolved
//! method's job — fresh or resuming a stored checkpoint — and
//! [`DeferredPlanQuery`] schedules the **plan-derivation pilot as the
//! query's first slice** so an `ASYNC` submission never runs the pilot
//! synchronously on a plan-cache miss.

use crate::estimator::{Estimator, RunCursor};
use crate::gmlss::GMlssConfig;
use crate::levels::PartitionPlan;
use crate::model::SimulationModel;
use crate::partition::balanced_plan;
use crate::plan_cache::{PlanCache, PlanLookup};
use crate::quality::{QualityTarget, RunControl};
use crate::query::{Problem, RatioValue, StateScore, ValueFunction};
use crate::rng::rng_from_seed;
use crate::scheduler::{EstimatorQuery, SliceableQuery};
use crate::shard_store::{shard_key, ShardKey, StoredShard};
use crate::smlss::SMlssConfig;
use crate::srs::SrsEstimator;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Spans and the error taxonomy
// ---------------------------------------------------------------------

/// A byte range into the statement text an error refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First byte of the offending region.
    pub start: usize,
    /// One past the last byte.
    pub end: usize,
}

impl Span {
    /// A span covering `start..end`.
    pub fn new(start: usize, end: usize) -> Self {
        Self { start, end }
    }

    /// An empty span at a single position (e.g. "expected X here").
    pub fn at(pos: usize) -> Self {
        Self {
            start: pos,
            end: pos,
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.start == self.end {
            write!(f, "byte {}", self.start)
        } else {
            write!(f, "bytes {}..{}", self.start, self.end)
        }
    }
}

/// What is wrong with a query spec.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecErrorKind {
    /// The statement text does not match the dialect grammar.
    Syntax {
        /// What the parser expected / found.
        message: String,
    },
    /// The model name is not registered.
    UnknownModel {
        /// The name as written.
        name: String,
        /// Registered model names (for the error message).
        known: Vec<String>,
    },
    /// The method name is not one of the samplers.
    UnknownMethod {
        /// The name as written.
        name: String,
    },
    /// A named model parameter the model's schema does not declare.
    UnknownParam {
        /// Model the parameter was given for.
        model: String,
        /// The parameter name as written.
        name: String,
    },
    /// A model parameter whose value has the wrong shape for its
    /// declared type (fractional for `int`, not 0/1 for `bool`).
    ParamWrongType {
        /// Model the parameter belongs to.
        model: String,
        /// Parameter name.
        name: String,
        /// The offending value.
        value: f64,
        /// The declared type.
        expected: ParamType,
    },
    /// A model parameter outside its schema range.
    ParamOutOfRange {
        /// Model the parameter belongs to.
        model: String,
        /// Parameter name.
        name: String,
        /// The offending value.
        value: f64,
        /// Inclusive lower bound.
        min: f64,
        /// Inclusive upper bound.
        max: f64,
    },
    /// A `WITH (…)` or method option that does not exist.
    UnknownOption {
        /// The option name as written.
        name: String,
    },
    /// An option or clause with a value of the wrong shape or range.
    InvalidValue {
        /// Which field (`"horizon"`, `"threads"`, `"levels"`, …).
        field: &'static str,
        /// Why the value is rejected.
        message: String,
    },
    /// A required clause or parameter is absent.
    MissingClause {
        /// What is missing (`"beta"`, `"WITHIN"`, `"TARGET RE"`, …).
        clause: &'static str,
    },
    /// The same parameter or option was given twice.
    Duplicate {
        /// What kind of thing was duplicated.
        what: &'static str,
        /// The duplicated name.
        name: String,
    },
}

/// A spec failure: the [`SpecErrorKind`] taxonomy plus, when the spec
/// came from statement text, the byte [`Span`] of the offending region.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError {
    /// What went wrong.
    pub kind: SpecErrorKind,
    /// Where in the statement text (None for specs built in code).
    pub span: Option<Span>,
}

impl SpecError {
    /// An error with no source location.
    pub fn new(kind: SpecErrorKind) -> Self {
        Self { kind, span: None }
    }

    /// An error pointing at `span` in the statement text.
    pub fn at(kind: SpecErrorKind, span: Span) -> Self {
        Self {
            kind,
            span: Some(span),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            SpecErrorKind::Syntax { message } => write!(f, "syntax error: {message}")?,
            SpecErrorKind::UnknownModel { name, known } => write!(
                f,
                "unknown model '{name}' (registered: {})",
                known.join(", ")
            )?,
            SpecErrorKind::UnknownMethod { name } => write!(
                f,
                "unknown method '{name}' (expected srs, smlss, mlss, gmlss, or auto)"
            )?,
            SpecErrorKind::UnknownParam { model, name } => {
                write!(f, "model '{model}' has no parameter '{name}'")?
            }
            SpecErrorKind::ParamWrongType {
                model,
                name,
                value,
                expected,
            } => {
                let shape = match expected {
                    ParamType::Float => "a number",
                    ParamType::Int => "an integer",
                    ParamType::Bool => "0 or 1",
                };
                write!(
                    f,
                    "parameter '{name}' of model '{model}' must be {shape}, got {value}"
                )?
            }
            SpecErrorKind::ParamOutOfRange {
                model,
                name,
                value,
                min,
                max,
            } => write!(
                f,
                "parameter '{name}' of model '{model}' must be in [{min}, {max}], got {value}"
            )?,
            SpecErrorKind::UnknownOption { name } => write!(f, "unknown option '{name}'")?,
            SpecErrorKind::InvalidValue { field, message } => {
                write!(f, "invalid {field}: {message}")?
            }
            SpecErrorKind::MissingClause { clause } => write!(f, "missing {clause}")?,
            SpecErrorKind::Duplicate { what, name } => write!(f, "duplicate {what} '{name}'")?,
        }
        if let Some(span) = self.span {
            write!(f, " at {span}")?;
        }
        Ok(())
    }
}

impl std::error::Error for SpecError {}

// ---------------------------------------------------------------------
// The IR
// ---------------------------------------------------------------------

/// A sampling method accepted by the dialect (`USING …`) and the
/// positional shims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Simple random sampling.
    Srs,
    /// s-MLSS over an automatically balanced plan.
    SMlss,
    /// g-MLSS over an automatically balanced plan (`"mlss"`/`"gmlss"`).
    GMlss,
    /// g-MLSS when a level plan is derivable from a pilot, SRS otherwise.
    Auto,
}

impl Method {
    /// Parse a SQL-facing method name.
    pub fn parse(name: &str) -> Result<Self, SpecError> {
        match name {
            "srs" => Ok(Method::Srs),
            "smlss" => Ok(Method::SMlss),
            "mlss" | "gmlss" => Ok(Method::GMlss),
            "auto" => Ok(Method::Auto),
            other => Err(SpecError::new(SpecErrorKind::UnknownMethod {
                name: other.to_string(),
            })),
        }
    }

    /// Canonical SQL-facing name (aliases collapse: `"mlss"` renders as
    /// `"gmlss"`).
    pub fn name(&self) -> &'static str {
        match self {
            Method::Srs => "srs",
            Method::SMlss => "smlss",
            Method::GMlss => "gmlss",
            Method::Auto => "auto",
        }
    }

    /// Does this method derive (and cache) a partition plan?
    pub fn needs_plan(&self) -> bool {
        !matches!(self, Method::Srs)
    }
}

/// Synchronous or scheduled execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Block until the quality target is reached (the default).
    #[default]
    Sync,
    /// Submit to the scheduler and return a query id immediately.
    Async,
}

/// Execution options (`WITH (…)` plus the `ASYNC` suffix).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOptions {
    /// At most this many threads work on the query, sync or `ASYNC`: its
    /// committer (the calling thread, or the worker running its slice)
    /// plus helpers from the session's worker pool (1 = no helpers).
    pub threads: usize,
    /// Frontier batch width. `None` inherits the session's width (by
    /// default the model's kernel-class width, on every route);
    /// `Some(w)` runs at width `w ≥ 1`, and
    /// `Some(`[`crate::width::AUTO_WIDTH`]`)` (`batch_width=auto`) names
    /// the kernel-class width explicitly. Widths never change results —
    /// `auto` is bit-identical to its resolved width.
    pub batch_width: Option<usize>,
    /// Pinned seed: names the run ([`crate::estimator::RunCursor::from_seed`])
    /// and the pilot's stream. `None` draws a seed from the caller's
    /// stream.
    pub seed: Option<u64>,
    /// Scheduler priority (lower runs first; async only).
    pub priority: u8,
    /// Sync or async execution.
    pub mode: ExecMode,
    /// Fair-share tenant this query is charged to. Not part of the
    /// statement language — the serving layer stamps it from the
    /// connection's handshake identity, and `None` (every statement
    /// parsed from text) keeps the tenantless behavior.
    pub tenant: Option<String>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            batch_width: None,
            seed: None,
            priority: 0,
            mode: ExecMode::Sync,
            tenant: None,
        }
    }
}

/// Levels requested from automatic plan derivation when the statement
/// does not say (the paper finds 3–6 optimal; 4 is the serving default
/// and part of the plan-cache key).
pub const DEFAULT_PLAN_LEVELS: usize = 4;

/// Root paths in the plan-derivation pilot.
pub const PILOT_PATHS: usize = 2000;

/// Method component of the plan-cache key. Every built-in MLSS method —
/// s-MLSS, g-MLSS, and auto — derives its plan with the *same* balanced
/// pilot, so they share one key: a `gmlss` query after an `auto` query
/// over the same model must not re-run an identical pilot. A future
/// method with its own derivation (e.g. greedy) would use its own key.
pub const BALANCED_PLAN_KEY: &str = "balanced";

/// Seed salt for the pilot's private stream: every execution path runs
/// the pilot on `seed ^ PILOT_SEED_SALT`, never on the query's run, so a
/// statement's plan and answer do not depend on its driver or on whether
/// the plan came from the cache.
pub const PILOT_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// The typed IR of one durability estimation query — what every entry
/// point (dialect statement, positional procedure, native API) compiles
/// to and what the single dispatch path executes.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Registered model name.
    pub model: String,
    /// Named parameter overrides, applied over the `models` table rows
    /// and the schema defaults.
    pub params: BTreeMap<String, f64>,
    /// Sampling method.
    pub method: Method,
    /// Levels requested from automatic plan derivation.
    pub levels: usize,
    /// Durability threshold β (the `beta=` entry of the model ref).
    pub beta: f64,
    /// Time horizon `s` (`WITHIN s`).
    pub horizon: u64,
    /// Relative-error quality target (`TARGET RE r` — `0.5%` is 0.005).
    pub target_re: f64,
    /// Execution options.
    pub options: ExecOptions,
}

impl QuerySpec {
    /// A spec with the given required fields and all options default
    /// (method `auto`, 4 levels, sync, sequential, scalar).
    pub fn new(model: impl Into<String>, beta: f64, horizon: u64, target_re: f64) -> Self {
        Self {
            model: model.into(),
            params: BTreeMap::new(),
            method: Method::Auto,
            levels: DEFAULT_PLAN_LEVELS,
            beta,
            horizon,
            target_re,
            options: ExecOptions::default(),
        }
    }

    /// Set the method (builder style).
    pub fn with_method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Validate the shape-level invariants every entry point must hold
    /// (model-schema validation is the registry's job). Checks the
    /// fields shared by all execution paths: β finite, horizon ≥ 1,
    /// target RE positive, threads ≥ 1, levels in range.
    pub fn validate(&self) -> Result<(), SpecError> {
        if !self.beta.is_finite() {
            return Err(SpecError::new(SpecErrorKind::InvalidValue {
                field: "beta",
                message: format!("must be finite, got {}", self.beta),
            }));
        }
        if self.horizon < 1 {
            return Err(SpecError::new(SpecErrorKind::InvalidValue {
                field: "horizon",
                message: "must be ≥ 1".into(),
            }));
        }
        if !(self.target_re.is_finite() && self.target_re > 0.0) {
            return Err(SpecError::new(SpecErrorKind::InvalidValue {
                field: "target_re",
                message: "must be positive".into(),
            }));
        }
        if self.options.threads < 1 {
            return Err(SpecError::new(SpecErrorKind::InvalidValue {
                field: "threads",
                message: "must be ≥ 1".into(),
            }));
        }
        if !(1..=64).contains(&self.levels) {
            return Err(SpecError::new(SpecErrorKind::InvalidValue {
                field: "levels",
                message: format!("must be in 1..=64, got {}", self.levels),
            }));
        }
        Ok(())
    }

    /// Render the canonical dialect statement for this spec.
    ///
    /// The rendering is a **fixed point** of the parser: parsing the
    /// rendered text yields a spec equal to `self` (with spans erased),
    /// and re-rendering that spec yields the identical string. Canonical
    /// choices: `beta` leads the model parameter list and overrides
    /// follow in sorted order, a planned method always spells its level
    /// count (a planless one only when it is not the default), the RE
    /// target is a raw fraction, and `WITH` lists only non-default
    /// options in alphabetical order.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("ESTIMATE DURABILITY OF ");
        s.push_str(&self.model);
        s.push_str(&format!("(beta={}", self.beta));
        for (k, v) in &self.params {
            s.push_str(&format!(", {k}={v}"));
        }
        s.push(')');
        s.push_str(&format!(" WITHIN {}", self.horizon));
        s.push_str(&format!(" USING {}", self.method.name()));
        if self.method.needs_plan() || self.levels != DEFAULT_PLAN_LEVELS {
            s.push_str(&format!("(levels={})", self.levels));
        }
        s.push_str(&format!(" TARGET RE {}", self.target_re));
        let mut opts: Vec<String> = Vec::new();
        if let Some(w) = self.options.batch_width {
            if w == crate::width::AUTO_WIDTH {
                opts.push("batch_width=auto".to_string());
            } else {
                opts.push(format!("batch_width={w}"));
            }
        }
        if self.options.priority != 0 {
            opts.push(format!("priority={}", self.options.priority));
        }
        if let Some(seed) = self.options.seed {
            opts.push(format!("seed={seed}"));
        }
        if self.options.threads != 1 {
            opts.push(format!("threads={}", self.options.threads));
        }
        if !opts.is_empty() {
            s.push_str(&format!(" WITH ({})", opts.join(", ")));
        }
        if self.options.mode == ExecMode::Async {
            s.push_str(" ASYNC");
        }
        s
    }

    /// Render just the model-ref component (`model(beta=…, k=v, …)`) —
    /// the canonical arm label in `RANK BY` standings.
    pub fn model_ref(&self) -> String {
        let mut s = format!("{}(beta={}", self.model, self.beta);
        for (k, v) in &self.params {
            s.push_str(&format!(", {k}={v}"));
        }
        s.push(')');
        s
    }
}

// ---------------------------------------------------------------------
// Ranking queries (`RANK BY TOP k`)
// ---------------------------------------------------------------------

/// Default racing rounds for `RANK BY` (overridable per statement).
pub const DEFAULT_RANK_ROUNDS: usize = 12;

/// Default per-arm `g`-invocation budget per racing round.
pub const DEFAULT_RANK_ROUND_BUDGET: u64 = 50_000;

/// Default confidence level for the boundary-elimination tests.
pub const DEFAULT_RANK_CONFIDENCE: f64 = 0.95;

/// Cap on the number of arms a candidate list (after sweep expansion)
/// may produce — guards against runaway `SWEEP … STEP tiny` statements.
pub const MAX_RANK_ARMS: usize = 64;

/// The typed IR of one top-`k` ranking query: a field of per-arm
/// [`QuerySpec`]s raced under confidence-bound boundary elimination
/// (see `mlss_core::ranking`). Every arm shares the statement's
/// `WITHIN`/`USING`/`TARGET RE`/`WITH` clauses; arms differ only in
/// model ref (and swept parameters).
#[derive(Debug, Clone, PartialEq)]
pub struct RankSpec {
    /// One fully-formed spec per arm, in statement order. Arm execution
    /// options mirror [`RankSpec::options`]; the dispatcher derives each
    /// arm's pinned seed from the race seed.
    pub arms: Vec<QuerySpec>,
    /// Display labels, parallel to `arms` (canonical model refs).
    pub labels: Vec<String>,
    /// The `k` of `TOP k`.
    pub top_k: usize,
    /// Confidence level for the boundary tests.
    pub confidence: f64,
    /// Round cap.
    pub max_rounds: usize,
    /// Per-arm `g` budget per round.
    pub round_budget: u64,
    /// Race-level execution options (seed, mode, priority, tenant).
    pub options: ExecOptions,
}

impl RankSpec {
    /// Build a rank spec over arms with default race controls; labels
    /// are the arms' canonical model refs.
    pub fn new(arms: Vec<QuerySpec>, top_k: usize) -> Self {
        let labels = arms.iter().map(QuerySpec::model_ref).collect();
        let options = arms.first().map(|a| a.options.clone()).unwrap_or_default();
        Self {
            arms,
            labels,
            top_k,
            confidence: DEFAULT_RANK_CONFIDENCE,
            max_rounds: DEFAULT_RANK_ROUNDS,
            round_budget: DEFAULT_RANK_ROUND_BUDGET,
            options,
        }
    }

    /// Shape-level invariants shared by every execution path.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.arms.is_empty() {
            return Err(SpecError::new(SpecErrorKind::InvalidValue {
                field: "rank arms",
                message: "need at least one candidate".into(),
            }));
        }
        if self.arms.len() > MAX_RANK_ARMS {
            return Err(SpecError::new(SpecErrorKind::InvalidValue {
                field: "rank arms",
                message: format!(
                    "candidate field expands to {} arms, cap is {MAX_RANK_ARMS}",
                    self.arms.len()
                ),
            }));
        }
        if !(1..=self.arms.len()).contains(&self.top_k) {
            return Err(SpecError::new(SpecErrorKind::InvalidValue {
                field: "top_k",
                message: format!("must be in 1..={}, got {}", self.arms.len(), self.top_k),
            }));
        }
        if !(self.confidence > 0.5 && self.confidence < 1.0) {
            return Err(SpecError::new(SpecErrorKind::InvalidValue {
                field: "confidence",
                message: format!("must be in (0.5, 1), got {}", self.confidence),
            }));
        }
        if !(1..=10_000).contains(&self.max_rounds) {
            return Err(SpecError::new(SpecErrorKind::InvalidValue {
                field: "rounds",
                message: format!("must be in 1..=10000, got {}", self.max_rounds),
            }));
        }
        if self.round_budget < 1 {
            return Err(SpecError::new(SpecErrorKind::InvalidValue {
                field: "round_budget",
                message: "must be ≥ 1".into(),
            }));
        }
        if self.labels.len() != self.arms.len() {
            return Err(SpecError::new(SpecErrorKind::InvalidValue {
                field: "rank arms",
                message: "labels and arms must be parallel".into(),
            }));
        }
        let mut seen = std::collections::BTreeSet::new();
        for label in &self.labels {
            if !seen.insert(label.as_str()) {
                return Err(SpecError::new(SpecErrorKind::Duplicate {
                    what: "rank candidate",
                    name: label.clone(),
                }));
            }
        }
        for arm in &self.arms {
            arm.validate()?;
        }
        Ok(())
    }

    /// The race configuration the ranking engine runs with.
    pub fn race_config(&self) -> crate::ranking::RaceConfig {
        crate::ranking::RaceConfig {
            round_budget: self.round_budget,
            max_rounds: self.max_rounds,
            confidence: self.confidence,
            top_k: self.top_k,
            ..Default::default()
        }
    }

    /// Render the canonical dialect statement (parser fixed point, like
    /// [`QuerySpec::render`]). Shared clauses come from the first arm.
    pub fn render(&self) -> String {
        let Some(first) = self.arms.first() else {
            return String::new();
        };
        let refs: Vec<String> = self.arms.iter().map(QuerySpec::model_ref).collect();
        let mut s = format!("ESTIMATE DURABILITY OF {}", refs.join(", "));
        s.push_str(&format!(" WITHIN {}", first.horizon));
        s.push_str(&format!(" USING {}", first.method.name()));
        if first.method.needs_plan() || first.levels != DEFAULT_PLAN_LEVELS {
            s.push_str(&format!("(levels={})", first.levels));
        }
        s.push_str(&format!(" TARGET RE {}", first.target_re));
        s.push_str(&format!(" RANK BY TOP {}", self.top_k));
        let mut ropts: Vec<String> = Vec::new();
        if self.confidence != DEFAULT_RANK_CONFIDENCE {
            ropts.push(format!("confidence={}", self.confidence));
        }
        if self.max_rounds != DEFAULT_RANK_ROUNDS {
            ropts.push(format!("rounds={}", self.max_rounds));
        }
        if self.round_budget != DEFAULT_RANK_ROUND_BUDGET {
            ropts.push(format!("round_budget={}", self.round_budget));
        }
        if !ropts.is_empty() {
            s.push_str(&format!(" ({})", ropts.join(", ")));
        }
        let mut opts: Vec<String> = Vec::new();
        if let Some(w) = self.options.batch_width {
            if w == crate::width::AUTO_WIDTH {
                opts.push("batch_width=auto".to_string());
            } else {
                opts.push(format!("batch_width={w}"));
            }
        }
        if self.options.priority != 0 {
            opts.push(format!("priority={}", self.options.priority));
        }
        if let Some(seed) = self.options.seed {
            opts.push(format!("seed={seed}"));
        }
        if self.options.threads != 1 {
            opts.push(format!("threads={}", self.options.threads));
        }
        if !opts.is_empty() {
            s.push_str(&format!(" WITH ({})", opts.join(", ")));
        }
        if self.options.mode == ExecMode::Async {
            s.push_str(" ASYNC");
        }
        s
    }
}

// ---------------------------------------------------------------------
// Model parameter schemas
// ---------------------------------------------------------------------

/// Declared type of a model parameter (informational plus validation:
/// `Int` values must be integral, `Bool` values 0 or 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamType {
    /// Any real value.
    Float,
    /// An integral value.
    Int,
    /// 0 or 1.
    Bool,
}

impl ParamType {
    /// SQL-facing type name.
    pub fn name(&self) -> &'static str {
        match self {
            ParamType::Float => "float",
            ParamType::Int => "int",
            ParamType::Bool => "bool",
        }
    }
}

/// One named parameter a model declares: name, type, default, inclusive
/// range, and a one-line description. Drives override validation and the
/// `SHOW MODELS` catalog.
#[derive(Debug, Clone)]
pub struct ParamSpec {
    /// Parameter name as it appears in the dialect and the `models` table.
    pub name: &'static str,
    /// Declared type.
    pub ty: ParamType,
    /// Default value (what `seed_default_models` writes).
    pub default: f64,
    /// Inclusive lower bound.
    pub min: f64,
    /// Inclusive upper bound.
    pub max: f64,
    /// One-line description.
    pub doc: &'static str,
}

impl ParamSpec {
    /// A float parameter.
    pub fn float(name: &'static str, default: f64, min: f64, max: f64, doc: &'static str) -> Self {
        Self {
            name,
            ty: ParamType::Float,
            default,
            min,
            max,
            doc,
        }
    }

    /// An integral parameter.
    pub fn int(name: &'static str, default: f64, min: f64, max: f64, doc: &'static str) -> Self {
        Self {
            name,
            ty: ParamType::Int,
            default,
            min,
            max,
            doc,
        }
    }

    /// A 0/1 flag parameter.
    pub fn flag(name: &'static str, default: f64, doc: &'static str) -> Self {
        Self {
            name,
            ty: ParamType::Bool,
            default,
            min: 0.0,
            max: 1.0,
            doc,
        }
    }

    /// Is `value` acceptable for this parameter? Shape violations
    /// (fractional `int`, non-0/1 `bool`, non-finite) report
    /// [`SpecErrorKind::ParamWrongType`]; in-shape values outside the
    /// inclusive range report [`SpecErrorKind::ParamOutOfRange`]. Public
    /// so the dialect parser can validate with spans without
    /// re-implementing the rules.
    pub fn check(&self, model: &str, value: f64) -> Result<(), SpecError> {
        let integral_ok = match self.ty {
            ParamType::Float => true,
            ParamType::Int | ParamType::Bool => value.fract() == 0.0,
        };
        if !(value.is_finite() && integral_ok) {
            return Err(SpecError::new(SpecErrorKind::ParamWrongType {
                model: model.to_string(),
                name: self.name.to_string(),
                value,
                expected: self.ty,
            }));
        }
        if !(value >= self.min && value <= self.max) {
            return Err(SpecError::new(SpecErrorKind::ParamOutOfRange {
                model: model.to_string(),
                name: self.name.to_string(),
                value,
                min: self.min,
                max: self.max,
            }));
        }
        Ok(())
    }
}

/// The named-parameter schema of one registered model.
#[derive(Debug, Clone)]
pub struct ModelSchema {
    /// Registered model name.
    pub name: &'static str,
    /// Declared parameters.
    pub params: Vec<ParamSpec>,
    /// One-line model description.
    pub doc: &'static str,
}

impl ModelSchema {
    /// Build a schema.
    pub fn new(name: &'static str, doc: &'static str, params: Vec<ParamSpec>) -> Self {
        Self { name, params, doc }
    }

    /// Look up a declared parameter.
    pub fn param(&self, name: &str) -> Option<&ParamSpec> {
        self.params.iter().find(|p| p.name == name)
    }

    /// Validate a set of named overrides: every name must be declared
    /// and every value inside its range.
    pub fn validate_overrides(&self, overrides: &BTreeMap<String, f64>) -> Result<(), SpecError> {
        for (name, value) in overrides {
            let Some(p) = self.param(name) else {
                return Err(SpecError::new(SpecErrorKind::UnknownParam {
                    model: self.name.to_string(),
                    name: name.clone(),
                }));
            };
            p.check(self.name, *value)?;
        }
        Ok(())
    }

    /// The schema defaults as a parameter map.
    pub fn defaults(&self) -> BTreeMap<String, f64> {
        self.params
            .iter()
            .map(|p| (p.name.to_string(), p.default))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Method resolution and scheduler integration
// ---------------------------------------------------------------------

/// The concrete estimator a [`Method`] resolves to once the plan lookup
/// has happened (the `auto` rule: g-MLSS when the pilot derives a usable
/// multi-level plan — finite τ hint and ≥ 2 levels — SRS otherwise).
#[derive(Debug, Clone)]
pub enum ResolvedMethod {
    /// Simple random sampling (no plan).
    Srs,
    /// s-MLSS over the given plan.
    SMlss(PartitionPlan),
    /// g-MLSS over the given plan.
    GMlss(PartitionPlan),
}

impl ResolvedMethod {
    /// Canonical name of the concrete estimator.
    pub fn name(&self) -> &'static str {
        match self {
            ResolvedMethod::Srs => "srs",
            ResolvedMethod::SMlss(_) => "smlss",
            ResolvedMethod::GMlss(_) => "gmlss",
        }
    }

    /// The partition plan, when the method has one.
    pub fn plan(&self) -> Option<&PartitionPlan> {
        match self {
            ResolvedMethod::Srs => None,
            ResolvedMethod::SMlss(p) | ResolvedMethod::GMlss(p) => Some(p),
        }
    }
}

/// Resolve a requested method against a plan lookup. `lookup` must be
/// `Some` exactly when [`Method::needs_plan`] holds.
pub fn resolve_method(method: Method, lookup: Option<&PlanLookup>) -> ResolvedMethod {
    match method {
        Method::Srs => ResolvedMethod::Srs,
        Method::SMlss => {
            ResolvedMethod::SMlss(lookup.expect("smlss needs a plan lookup").plan.clone())
        }
        Method::GMlss => {
            ResolvedMethod::GMlss(lookup.expect("gmlss needs a plan lookup").plan.clone())
        }
        Method::Auto => {
            let lookup = lookup.expect("auto needs a plan lookup");
            if lookup.tau_hint.is_finite() && lookup.plan.num_levels() >= 2 {
                ResolvedMethod::GMlss(lookup.plan.clone())
            } else {
                ResolvedMethod::Srs
            }
        }
    }
}

/// How a scheduler job runs, beside its model, its method and where it
/// starts: what [`estimator_job`] and [`DeferredPlanQuery`] build from.
#[derive(Debug, Clone, Copy)]
pub struct JobRun {
    /// Threshold β of the value function.
    pub beta: f64,
    /// Query horizon.
    pub horizon: u64,
    /// The stopping rule.
    pub control: RunControl,
    /// The seed naming the run (its root, check and closing streams, and
    /// the pilot's salted stream).
    pub seed: u64,
    /// The statement's pinned seed, `None` when `seed` was drawn: what
    /// the job's deposits and checkpoints record (see
    /// [`StoredShard::seed`]).
    pub pinned: Option<u64>,
    /// Frontier width of its slices.
    pub batch_width: usize,
    /// Thread cap: the committer plus up to `threads − 1` helpers.
    pub threads: usize,
    /// Plan-cache fingerprint the job's shard key is built over.
    pub fingerprint: u64,
}

impl JobRun {
    /// A statement's run on the run `seed` names: its own target,
    /// threads and pinned seed, at `batch_width`.
    pub fn of(spec: &QuerySpec, seed: u64, fingerprint: u64, batch_width: usize) -> Self {
        Self {
            beta: spec.beta,
            horizon: spec.horizon,
            control: target_control(spec.target_re),
            seed,
            pinned: spec.options.seed,
            batch_width,
            threads: spec.options.threads,
            fingerprint,
        }
    }
}

/// Where [`estimator_job`] hands the typed job it builds. The
/// estimator's type is known only inside the constructor's match, so the
/// caller passes in what happens next: [`Boxed`] makes a scheduler job,
/// and a synchronous statement runs it on its caller through
/// [`crate::scheduler::Scheduler::run`].
pub trait JobSink<M, Z>
where
    M: SimulationModel,
    Z: StateScore<M::State>,
{
    /// What the sink makes of the job.
    type Out;

    /// Take the typed job.
    fn take<E>(self, job: EstimatorQuery<M, RatioValue<Z>, E>) -> Self::Out
    where
        E: Estimator<M, RatioValue<Z>> + Send + 'static,
        E::Shard: Send + Clone + 'static;
}

/// The [`JobSink`] of scheduler jobs: the job, boxed.
pub struct Boxed;

impl<M, Z> JobSink<M, Z> for Boxed
where
    M: SimulationModel + Send + 'static,
    M::State: Send,
    Z: StateScore<M::State> + Copy + Send + Sync + 'static,
{
    type Out = Box<dyn SliceableQuery>;

    fn take<E>(self, job: EstimatorQuery<M, RatioValue<Z>, E>) -> Self::Out
    where
        E: Estimator<M, RatioValue<Z>> + Send + 'static,
        E::Shard: Send + Clone + 'static,
    {
        Box::new(job)
    }
}

/// The one job constructor: an [`EstimatorQuery`] over the resolved
/// method, tagged with its shard-store key over `run.fingerprint` (so
/// its deposits and durability checkpoints name the problem they
/// answer), handed to `sink`. With `start` the job resumes that
/// checkpoint's shard and run cursor and runs only the marginal work its
/// control still requires — the exact trajectory a longer cold run
/// takes; without, it starts on the run `run.seed` names.
pub fn estimator_job<M, Z, S>(
    model: M,
    score: Z,
    resolved: &ResolvedMethod,
    run: &JobRun,
    start: Option<&StoredShard>,
    sink: S,
) -> S::Out
where
    M: SimulationModel + Send + 'static,
    M::State: Send,
    Z: StateScore<M::State> + Copy + Send + Sync + 'static,
    S: JobSink<M, Z>,
{
    let vf = RatioValue::new(score, run.beta);
    let key = shard_key(run.fingerprint, resolved.name(), resolved.plan());
    match resolved {
        ResolvedMethod::Srs => typed_job(model, vf, SrsEstimator, run, key, start, sink),
        ResolvedMethod::SMlss(plan) => {
            let cfg = SMlssConfig::new(plan.clone(), run.control);
            typed_job(model, vf, cfg, run, key, start, sink)
        }
        ResolvedMethod::GMlss(plan) => {
            let cfg = GMlssConfig::new(plan.clone(), run.control);
            typed_job(model, vf, cfg, run, key, start, sink)
        }
    }
}

/// [`estimator_job`] once the estimator's type is known. A stored shard
/// of another type — which a correct [`ShardKey`] rules out — starts the
/// job fresh rather than failing the query.
fn typed_job<M, Z, E, S>(
    model: M,
    vf: RatioValue<Z>,
    estimator: E,
    run: &JobRun,
    key: ShardKey,
    start: Option<&StoredShard>,
    sink: S,
) -> S::Out
where
    M: SimulationModel,
    Z: StateScore<M::State>,
    E: Estimator<M, RatioValue<Z>> + Send + 'static,
    E::Shard: Send + Clone + 'static,
    S: JobSink<M, Z>,
{
    let resumed = start.and_then(|e| Some((e.shard_as::<E::Shard>()?.clone(), e.cursor)));
    let (shard, cursor) =
        resumed.unwrap_or_else(|| (estimator.shard(), RunCursor::from_seed(run.seed)));
    let job = EstimatorQuery::from_parts(
        model,
        vf,
        run.horizon,
        estimator,
        run.control,
        shard,
        cursor,
    )
    .with_batch_width(run.batch_width)
    .with_threads(run.threads)
    .with_reuse_key(key)
    .with_seed_provenance(run.pinned);
    sink.take(job)
}

/// The one pilot: the balanced plan for `problem` at `levels`, through
/// the single-flight plan cache. A miss runs [`PILOT_PATHS`] roots on
/// `seed`'s salted pilot stream, never on the query's run, so a
/// statement's plan and answer do not depend on its driver or on
/// whether the plan came from the cache.
pub fn plan_lookup<M, V>(
    cache: &PlanCache,
    fingerprint: u64,
    problem: Problem<'_, M, V>,
    levels: usize,
    seed: u64,
) -> PlanLookup
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
{
    cache.get_or_build_traced(fingerprint, BALANCED_PLAN_KEY, levels, || {
        let mut pilot_rng = rng_from_seed(seed ^ PILOT_SEED_SALT);
        balanced_plan(problem, levels, PILOT_PATHS, &mut pilot_rng)
    })
}

/// Quality-check cadence (in root paths) of [`target_control`] — the
/// stopping rule every estimation entry point shares. Also the floor the
/// reuse planner requires of a stored checkpoint
/// ([`crate::planner::MIN_REUSE_ROOTS`]): a target-stopped run always
/// holds at least one cadence's worth of roots.
pub const TARGET_CHECK_EVERY: u64 = 256;

/// Step valve of [`target_control`]: a target-mode run stops here even
/// if its target never holds. `RANK BY` arms run in budget mode to it,
/// their target checked by the race at round ends.
pub const TARGET_MAX_STEPS: u64 = 2_000_000_000;

/// The stopping rule every estimation entry point uses for a
/// relative-error target.
pub fn target_control(target_re: f64) -> RunControl {
    RunControl::Target {
        target: QualityTarget::RelativeError {
            target: target_re,
            reference: None,
        },
        check_every: TARGET_CHECK_EVERY,
        max_steps: TARGET_MAX_STEPS,
    }
}

/// A scheduler job whose **first slice derives the partition plan**.
///
/// On a plan-cache miss, the submit path used to run the pilot (2 000
/// SRS paths) synchronously before admitting the query — a bounded but
/// real head-of-line cost on every cold shape. `DeferredPlanQuery`
/// instead admits immediately: the first `run_slice` call performs the
/// (single-flight) cache lookup, running the pilot on this worker if no
/// other query built the plan first, resolves the method (`auto` picks
/// its estimator here), and hands the rest of the run to the inner
/// [`EstimatorQuery`].
///
/// The pilot draws from its own salted stream (`seed ^`
/// [`PILOT_SEED_SALT`]), exactly like the synchronous path, so the
/// query's run — and therefore its estimate — is bit-identical whether
/// the plan came from the cache, an inline pilot, or a deferred one.
pub struct DeferredPlanQuery<M, Z>
where
    M: SimulationModel + Send + 'static,
    M::State: Send,
    Z: StateScore<M::State> + Copy + Send + Sync + 'static,
{
    pending: Option<Pending<M, Z>>,
    inner: Option<Box<dyn SliceableQuery>>,
}

struct Pending<M, Z> {
    model: M,
    score: Z,
    method: Method,
    levels: usize,
    run: JobRun,
    plans: Arc<PlanCache>,
}

impl<M, Z> DeferredPlanQuery<M, Z>
where
    M: SimulationModel + Send + 'static,
    M::State: Send,
    Z: StateScore<M::State> + Copy + Send + Sync + 'static,
{
    /// Build a deferred-plan job. `method` must need a plan (SRS has
    /// nothing to defer — submit it directly).
    pub fn new(
        model: M,
        score: Z,
        method: Method,
        levels: usize,
        run: JobRun,
        plans: Arc<PlanCache>,
    ) -> Self {
        assert!(method.needs_plan(), "srs needs no deferred plan");
        Self {
            pending: Some(Pending {
                model,
                score,
                method,
                levels,
                run,
                plans,
            }),
            inner: None,
        }
    }

    /// Derive the plan (through the single-flight cache) and build the
    /// inner estimator job. Runs at most once; a panic inside the pilot
    /// leaves `pending` in place so the scheduler's retry re-derives.
    fn activate(&mut self) {
        if self.inner.is_some() {
            return;
        }
        let lookup = {
            let p = self.pending.as_ref().expect("deferred job not activated");
            let vf = RatioValue::new(p.score, p.run.beta);
            let problem = Problem::new(&p.model, &vf, p.run.horizon);
            plan_lookup(&p.plans, p.run.fingerprint, problem, p.levels, p.run.seed)
        };
        let p = self.pending.take().expect("deferred job not activated");
        let resolved = resolve_method(p.method, Some(&lookup));
        self.inner = Some(estimator_job(
            p.model, p.score, &resolved, &p.run, None, Boxed,
        ));
    }

    fn inner_mut(&mut self) -> &mut dyn SliceableQuery {
        self.inner.as_deref_mut().expect("activated")
    }
}

impl<M, Z> SliceableQuery for DeferredPlanQuery<M, Z>
where
    M: SimulationModel + Send + 'static,
    M::State: Send,
    Z: StateScore<M::State> + Copy + Send + Sync + 'static,
{
    fn name(&self) -> &'static str {
        match &self.inner {
            Some(inner) => inner.name(),
            None => "deferred-plan",
        }
    }

    fn run_slice(&mut self, budget: u64) -> crate::estimator::ChunkOutcome {
        self.activate();
        self.inner_mut().run_slice(budget)
    }

    fn finished(&mut self) -> bool {
        match self.inner.as_deref_mut() {
            Some(inner) => inner.finished(),
            None => false,
        }
    }

    fn estimate(&mut self) -> crate::estimate::Estimate {
        self.activate();
        self.inner_mut().estimate()
    }

    fn steps(&self) -> u64 {
        self.inner.as_deref().map_or(0, |i| i.steps())
    }

    fn n_roots(&self) -> u64 {
        self.inner.as_deref().map_or(0, |i| i.n_roots())
    }

    fn diagnostics(&self) -> crate::estimator::Diagnostics {
        match &self.inner {
            Some(inner) => inner.diagnostics(),
            None => crate::estimator::Diagnostics::none("deferred-plan"),
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }

    fn checkpoint(&mut self) -> Option<(ShardKey, StoredShard)> {
        // Pre-activation there is no shard yet; recovery re-derives the
        // plan from the pinned pilot seed, which is deterministic.
        self.inner.as_deref_mut().and_then(|i| i.checkpoint())
    }

    fn helpers(&self) -> Option<crate::scheduler::Helpers> {
        self.inner.as_deref().and_then(|i| i.helpers())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::RunControl;
    use crate::rng::SimRng;
    use crate::scheduler::{Scheduler, SchedulerConfig};

    #[test]
    fn method_parse_and_names() {
        assert_eq!(Method::parse("srs").unwrap(), Method::Srs);
        assert_eq!(Method::parse("mlss").unwrap(), Method::GMlss);
        assert_eq!(Method::parse("gmlss").unwrap(), Method::GMlss);
        assert_eq!(Method::parse("auto").unwrap(), Method::Auto);
        assert!(matches!(
            Method::parse("nope").unwrap_err().kind,
            SpecErrorKind::UnknownMethod { .. }
        ));
        assert_eq!(Method::GMlss.name(), "gmlss");
        assert!(!Method::Srs.needs_plan());
        assert!(Method::Auto.needs_plan());
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        let ok = QuerySpec::new("cpp", 50.0, 100, 0.1);
        assert!(ok.validate().is_ok());
        let mut bad = ok.clone();
        bad.horizon = 0;
        assert!(matches!(
            bad.validate().unwrap_err().kind,
            SpecErrorKind::InvalidValue {
                field: "horizon",
                ..
            }
        ));
        let mut bad = ok.clone();
        bad.target_re = -0.1;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.options.threads = 0;
        assert!(bad.validate().is_err());
        let mut bad = ok;
        bad.levels = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn schema_validates_overrides() {
        let schema = ModelSchema::new(
            "toy",
            "test model",
            vec![
                ParamSpec::float("rate", 0.5, 0.0, 10.0, "a rate"),
                ParamSpec::int("count", 3.0, 1.0, 100.0, "a count"),
                ParamSpec::flag("on", 1.0, "a flag"),
            ],
        );
        let ok: BTreeMap<String, f64> = [("rate".to_string(), 2.0), ("count".to_string(), 7.0)]
            .into_iter()
            .collect();
        assert!(schema.validate_overrides(&ok).is_ok());
        let unknown: BTreeMap<String, f64> = [("nope".to_string(), 1.0)].into_iter().collect();
        assert!(matches!(
            schema.validate_overrides(&unknown).unwrap_err().kind,
            SpecErrorKind::UnknownParam { .. }
        ));
        let out: BTreeMap<String, f64> = [("rate".to_string(), 11.0)].into_iter().collect();
        assert!(matches!(
            schema.validate_overrides(&out).unwrap_err().kind,
            SpecErrorKind::ParamOutOfRange { .. }
        ));
        let frac: BTreeMap<String, f64> = [("count".to_string(), 2.5)].into_iter().collect();
        assert!(matches!(
            schema.validate_overrides(&frac).unwrap_err().kind,
            SpecErrorKind::ParamWrongType {
                expected: ParamType::Int,
                ..
            }
        ));
        let flag: BTreeMap<String, f64> = [("on".to_string(), 2.0)].into_iter().collect();
        assert!(matches!(
            schema.validate_overrides(&flag).unwrap_err().kind,
            SpecErrorKind::ParamOutOfRange { .. },
        ));
        assert_eq!(schema.defaults().len(), 3);
    }

    #[test]
    fn auto_resolution_rule() {
        let plan = PartitionPlan::new(vec![0.4, 0.7]).unwrap();
        let usable = PlanLookup {
            plan: plan.clone(),
            tau_hint: 0.01,
            hit: false,
        };
        assert!(matches!(
            resolve_method(Method::Auto, Some(&usable)),
            ResolvedMethod::GMlss(_)
        ));
        let useless = PlanLookup {
            plan: PartitionPlan::trivial(),
            tau_hint: f64::NAN,
            hit: false,
        };
        assert!(matches!(
            resolve_method(Method::Auto, Some(&useless)),
            ResolvedMethod::Srs
        ));
        assert!(matches!(
            resolve_method(Method::Srs, None),
            ResolvedMethod::Srs
        ));
    }

    #[derive(Clone)]
    struct Walk;

    impl SimulationModel for Walk {
        type State = f64;

        fn initial_state(&self) -> f64 {
            0.0
        }

        fn step(&self, s: &f64, _t: crate::model::Time, rng: &mut SimRng) -> f64 {
            use rand::RngExt;
            (s + if rng.random::<f64>() < 0.48 {
                0.05
            } else {
                -0.05
            })
            .clamp(0.0, 1.0)
        }
    }

    fn score(s: &f64) -> f64 {
        *s
    }

    #[test]
    fn deferred_plan_job_matches_inline_pilot_submission() {
        // Same seed, same shape: a job whose pilot runs as its first
        // slice must produce the bit-identical estimate to a job built
        // after deriving the plan up front (the pilot stream is salted
        // off the main stream either way).
        let seed = 77u64;
        let control = RunControl::budget(60_000);
        let fp = 42u64;

        // Inline: derive the plan first, then build the estimator job.
        let plans_a = Arc::new(PlanCache::new());
        let sf = score as fn(&f64) -> f64;
        let vf = RatioValue::new(sf, 1.0);
        let lookup = plan_lookup(&plans_a, fp, Problem::new(&Walk, &vf, 80), 4, seed);
        let resolved = resolve_method(Method::GMlss, Some(&lookup));
        let run = JobRun {
            beta: 1.0,
            horizon: 80,
            control,
            seed,
            pinned: None,
            batch_width: 0,
            threads: 1,
            fingerprint: fp,
        };
        let inline = estimator_job(Walk, sf, &resolved, &run, None, Boxed);

        // Deferred: plan derivation is the first slice.
        let plans_b = Arc::new(PlanCache::new());
        let deferred = Box::new(DeferredPlanQuery::new(
            Walk,
            sf,
            Method::GMlss,
            4,
            run,
            Arc::clone(&plans_b),
        ));

        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            slice_budget: 8_192,
            max_retries: 0,
            batch_width: 1,
            tenant_weights: Vec::new(),
        });
        let a = sched.submit_query(inline, 0);
        let b = sched.submit_query(deferred, 0);
        let ea = *sched.wait(a).unwrap().estimate().unwrap();
        let eb = *sched.wait(b).unwrap().estimate().unwrap();
        assert_eq!(ea.tau.to_bits(), eb.tau.to_bits());
        assert_eq!(ea.steps, eb.steps);
        assert_eq!(ea.n_roots, eb.n_roots);
        // The deferred path really did build (and memoize) the plan.
        assert_eq!(plans_b.misses(), 1);
    }

    #[test]
    fn render_is_canonical() {
        let mut spec = QuerySpec::new("cpp", 500.0, 1000, 0.005).with_method(Method::GMlss);
        spec.levels = 5;
        spec.options.threads = 4;
        spec.options.batch_width = Some(64);
        spec.options.mode = ExecMode::Async;
        assert_eq!(
            spec.render(),
            "ESTIMATE DURABILITY OF cpp(beta=500) WITHIN 1000 USING gmlss(levels=5) \
             TARGET RE 0.005 WITH (batch_width=64, threads=4) ASYNC"
        );
        let plain = QuerySpec::new("walk", 6.0, 60, 0.25).with_method(Method::Srs);
        assert_eq!(
            plain.render(),
            "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 60 USING srs TARGET RE 0.25"
        );
    }

    #[test]
    fn render_spells_auto_width() {
        // The sentinel renders as the keyword the parser accepts, so
        // render∘parse stays a fixed point for auto-width specs too.
        let mut spec = QuerySpec::new("gbm", 560.0, 500, 0.25).with_method(Method::Srs);
        spec.options.batch_width = Some(crate::width::AUTO_WIDTH);
        assert_eq!(
            spec.render(),
            "ESTIMATE DURABILITY OF gbm(beta=560) WITHIN 500 USING srs \
             TARGET RE 0.25 WITH (batch_width=auto)"
        );
    }
}
