//! # mlss-core
//!
//! Multi-Level Splitting Sampling (MLSS) for **durability prediction
//! queries**, reproducing *"Efficiently Answering Durability Prediction
//! Queries"* (Gao, Xu, Agarwal, Yang — SIGMOD 2021).
//!
//! A durability prediction query `Q(q, s)` asks: given a stochastic
//! process simulated step-by-step by a (possibly black-box) procedure `g`,
//! what is the probability that the process reaches a state satisfying
//! `q` within the time horizon `s`? The answers are typically small, which
//! makes plain Monte Carlo (SRS) prohibitively expensive. MLSS splits
//! "promising" sample paths into multiple offsprings at value-function
//! milestones, concentrating simulation effort near the target while
//! remaining provably unbiased.
//!
//! ## Quick example
//!
//! ```
//! use mlss_core::prelude::*;
//! use rand::RngExt;
//!
//! // A toy mean-reverting walk on [0, 1].
//! struct Walk;
//! impl SimulationModel for Walk {
//!     type State = f64;
//!     fn initial_state(&self) -> f64 { 0.0 }
//!     fn step(&self, s: &f64, _t: Time, rng: &mut SimRng) -> f64 {
//!         (s + if rng.random::<f64>() < 0.48 { 0.05 } else { -0.05 }).clamp(0.0, 1.0)
//!     }
//! }
//!
//! let model = Walk;
//! let value = RatioValue::new(|s: &f64| *s, 1.0); // query: state ≥ 1.0
//! let problem = Problem::new(&model, &value, 200);
//!
//! let cfg = GMlssConfig::new(
//!     PartitionPlan::new(vec![0.4, 0.7]).unwrap(),
//!     RunControl::budget(100_000),
//! );
//! let result = GMlssSampler::new(cfg).run(problem, &mut rng_from_seed(1));
//! assert!(result.estimate.tau >= 0.0 && result.estimate.tau <= 1.0);
//! ```
//!
//! ## Module map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`model`] | §2.1 | the simulation procedure `g`, batched stepping (`step_batch`), step metering |
//! | [`query`] | §2.1, §3 | queries `Q(q,s)`, value functions `f` |
//! | [`levels`] | §3 | level partition plans |
//! | [`estimator`] | §2–§4 | the unified [`estimator::Estimator`] trait: chunked execution, mergeable [`estimator::Ledger`] shards, the shared sequential driver |
//! | [`srs`] | §2.2 | the Simple Random Sampling baseline |
//! | [`smlss`] | §3 | s-MLSS sampler and estimator (Eq. 3-6) |
//! | [`gmlss`] | §4 | g-MLSS sampler and estimator (Eq. 9-10) |
//! | [`bootstrap`] | §4.2 | bootstrap variance over root ledgers |
//! | [`is`] | §2.2 | importance-sampling baseline for tiltable models |
//! | [`variance`] | §3.1, §4.2, §5.1 | closed-form variance results |
//! | [`partition`] | §5 | `eval(B)`, greedy search, balanced plans |
//! | [`scheduler`] | §3.1, §6.4 serving | the one worker pool: query slicing, pause/checkpoint/resume, panic isolation, and intra-query fan-out over root-index blocks committed in index order |
//! | [`plan_cache`] | §5, §6.4 | memoized partition plans keyed by model fingerprint (single-flight builds) |
//! | [`shard_store`] | §6.4 serving | cross-query shard store: LRU-capped reusable checkpoints (shard + run cursor + achieved RE) |
//! | [`planner`] | §6.4 serving | cost-based reuse planner: cold vs warm-start vs serve-from-store |
//! | [`spec`] | §6.4 | the typed [`spec::QuerySpec`] IR every estimation entry point compiles to, the [`spec::SpecError`] taxonomy, model parameter schemas, and deferred plan-derivation scheduler jobs |
//! | [`quality`] | §6 | CI/RE quality targets and budgets |
//! | [`ranking`] | §7 related work | durability ranking via racing |
//! | [`diagnostics`] | Fig. 1 | split-tree tracing |
//!
//! ## One execution spine
//!
//! All four samplers (SRS, s-MLSS, g-MLSS, IS) implement
//! [`estimator::Estimator`]: they advance a mergeable shard in budgeted
//! chunks and can report an [`estimate::Estimate`] at any time. One
//! driver runs a sampler to its stopping rule: the sequential driver
//! [`estimator::run_sequential`], which `SrsSampler::run`,
//! `SMlssSampler::run` and `GMlssSampler::run` call and reshape. The
//! scheduler (whose worker pool also runs a query's root blocks in
//! parallel, §3.1), the `mlss-bench` experiment runners, and `mlss-db`'s
//! `ESTIMATE` statements are all generic over the trait, so a new
//! sampling strategy written against it plugs into every layer — SQL
//! query → planner → scheduler → sampler — unchanged.
//!
//! Underneath the trait, all four built-in estimators execute on one
//! batched *frontier* engine: chunks advance a cohort of root paths per
//! [`model::SimulationModel::step_batch`] call. Root `k` of a run draws
//! stream `k` of the run key ([`rng::RootCursor`]) and every driver
//! evaluates the stopping rule at the same chunk ends, so results are
//! bit-identical at every frontier width, thread count and driver (see
//! `docs/kernel.md`).
//! [`estimator::run_sequential_batched`],
//! [`scheduler::EstimatorQuery::with_batch_width`], and
//! `SchedulerConfig::batch_width` expose the width at each layer.

#![warn(missing_docs)]

pub mod bootstrap;
pub mod diagnostics;
pub mod estimate;
pub mod estimator;
pub(crate) mod frontier;
pub mod gmlss;
pub mod is;
pub mod levels;
pub mod model;
pub mod partition;
pub mod persist;
pub mod plan_cache;
pub mod planner;
pub mod quality;
pub mod query;
pub mod ranking;
pub mod rng;
pub mod scheduler;
pub mod shard_store;
pub mod simd;
pub mod smlss;
pub mod spec;
pub mod srs;
pub mod stats;
pub mod variance;
pub mod width;

/// One-stop imports for library users.
pub mod prelude {
    pub use crate::bootstrap::{bootstrap_percentile_ci, bootstrap_variance, RootLedger};
    pub use crate::diagnostics::{trace_root_tree, SplitTree};
    pub use crate::estimate::Estimate;
    pub use crate::estimator::{
        run_sequential, run_sequential_batched, run_sequential_from, ChunkOutcome, Diagnostics,
        Estimator, EstimatorRun, Ledger, RunCursor,
    };
    pub use crate::gmlss::{GMlssConfig, GMlssResult, GMlssSampler, GmlssShard, VarianceMode};
    pub use crate::is::{select_tilt, IsEstimator, IsShard, TiltableModel};
    pub use crate::levels::PartitionPlan;
    pub use crate::model::{
        simulate_path, SamplePath, ScalarAdapter, SimulationModel, StepCounter, Time,
    };
    pub use crate::partition::{balanced_plan, evaluate_plan, GreedyConfig, GreedyPartition};
    pub use crate::plan_cache::{fingerprint, CacheCounters, CachedPlan, Fingerprint, PlanCache};
    pub use crate::planner::{
        peek_reuse, plan_reuse, required_roots, ReuseDecision, ReusePlan, MIN_REUSE_ROOTS,
    };
    pub use crate::quality::{QualityTarget, RunControl};
    pub use crate::query::{Problem, RatioValue, StateScore, ValueFunction};
    pub use crate::ranking::{
        rank_by_durability, Candidate, FreezeReason, RaceArm, RaceConfig, RaceOutcome, RaceQuery,
        Standing,
    };
    pub use crate::rng::{rng_from_seed, split_rng, RootCursor, SimRng, StreamFactory};
    pub use crate::scheduler::{
        CompletedQuery, EstimatorQuery, QueryId, QueryProgress, QueryStatus, Scheduler,
        SchedulerConfig, SchedulerStats, SliceableQuery,
    };
    pub use crate::shard_store::{
        shard_key, ShardKey, ShardSnapshot, ShardStore, StoredMeta, StoredShard,
    };
    pub use crate::smlss::{SMlssConfig, SMlssResult, SMlssSampler, SMlssShard};
    pub use crate::spec::{
        ExecMode, ExecOptions, Method, ModelSchema, ParamSpec, ParamType, QuerySpec, RankSpec,
        ResolvedMethod, Span, SpecError, SpecErrorKind,
    };
    pub use crate::srs::{SrsEstimator, SrsResult, SrsSampler, SrsShard};
    pub use crate::width::{KernelClass, AUTO_WIDTH};
}
