//! Concurrent query scheduler: many durability queries, one worker pool.
//!
//! The sequential driver answers **one** query front to back. A serving
//! engine (the paper's DBMS integration, §6.4) instead sees a stream of
//! concurrent queries of wildly different costs: cheap SRS point lookups
//! next to 0.1%-RE g-MLSS marathons. Running them FIFO lets one marathon
//! head-of-line-block every cheap query behind it.
//!
//! [`Scheduler`] time-slices instead. Every admitted query is a
//! [`SliceableQuery`]: a self-contained job that advances its own
//! mergeable shard by one budgeted *slice* at a time (internally a
//! [`crate::estimator::Estimator::run_chunk`] call into a fresh shard,
//! merged on success). Because chunk boundaries are invisible — the chunk
//! contract completes every root path it starts, and shards merge exactly
//! — and the run evaluates its stopping rule at the same chunk ends on
//! the same check streams, a query executed as 50 interleaved slices
//! produces **bit-identical** results to the same query run uninterrupted
//! by any driver under the same run key.
//! That single invariant buys everything the serving layer needs:
//!
//! * **concurrency** — workers pick slices from different queries;
//! * **preemption** — a cheap query's slice can run between two slices of
//!   an expensive one (the pool picks the least-attained query first, so
//!   short queries finish fast);
//! * **pause / checkpoint / resume** — a paused query is just a job whose
//!   next slice hasn't been scheduled; a detached job *is* the
//!   checkpoint (shard + run cursor), resumable in place, on another
//!   scheduler, or through [`crate::estimator::run_sequential_from`];
//! * **failure isolation** — a panic inside a slice is caught by the
//!   worker; the slice ran on scratch state (fresh shard, copied cursor), so
//!   the query's committed state is untouched and the query is retried or
//!   reported failed while every other query proceeds normally.
//!
//! ## Intra-query fan-out (§3.1 "Parallel Computations")
//!
//! Root `k` always draws stream `k` of the run key, so any thread can run
//! any root. A job built [`EstimatorQuery::with_threads`]`(n)` has one
//! **committer** — the worker running its slice, or the caller of
//! [`Scheduler::run`] — and up to `n − 1` pool workers as **helpers**,
//! which run root-index blocks ahead of it and park them. A block is not
//! a query: no id, no slot, no durability record. The committer folds
//! parked blocks in index order and runs the roots it lacks in place, so
//! every thread count answers with the sequential driver's bits. Helper
//! blocks are picked under the slices' rule and charged to the tenant.
//! `docs/serving.md` has the contract.

use crate::estimate::Estimate;
use crate::estimator::{
    drive, run_sequential_from, ChunkOutcome, Diagnostics, Estimator, EstimatorRun, Ledger,
    RunCursor,
};
use crate::model::SimulationModel;
use crate::quality::{steps_per_root, QualityTarget, RunControl};
use crate::query::{Problem, ValueFunction};
use crate::rng::RootCursor;
use crate::shard_store::{ShardKey, ShardStore, StoredShard};
use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::time::{Duration, Instant};

/// Identifier of a submitted query (unique per scheduler, monotonically
/// increasing in submission order).
pub type QueryId = u64;

/// Identifier of a registered fair-share tenant (index into the
/// scheduler's tenant table; stable for the scheduler's lifetime).
pub type TenantId = u32;

/// A query the scheduler can advance one slice at a time.
///
/// Contract: `run_slice` must be **transactional** — if it panics, the
/// job's observable state (shard, cursor, counters) must be as if the
/// call never happened. [`EstimatorQuery`] achieves this by simulating
/// into a fresh shard with a copied cursor and committing both only on
/// success;
/// custom implementations must do the same, because the scheduler retries
/// panicked slices on the same job object.
pub trait SliceableQuery: Send + Any {
    /// Short name for progress reporting.
    fn name(&self) -> &'static str;

    /// Advance by (at least) `budget` `g` invocations, or less if the
    /// query's own control is nearly satisfied. Must be transactional
    /// under panics (see trait docs). The outcome's `steps` are the `g`
    /// invocations this thread ran — what the pool charges the query's
    /// tenant (helper blocks are charged as they run).
    fn run_slice(&mut self, budget: u64) -> ChunkOutcome;

    /// Has the query's stopping rule been satisfied? May evaluate a
    /// quality check (e.g. a bootstrap variance in target mode).
    fn finished(&mut self) -> bool;

    /// The estimate over everything accumulated so far.
    fn estimate(&mut self) -> Estimate;

    /// `g` invocations accumulated.
    fn steps(&self) -> u64;

    /// Root paths accumulated.
    fn n_roots(&self) -> u64;

    /// Estimator-specific health indicators.
    fn diagnostics(&self) -> Diagnostics;

    /// Type-erasure escape hatch: lets a caller who knows the concrete
    /// type recover it from a detached checkpoint (see
    /// [`Scheduler::detach`]).
    fn into_any(self: Box<Self>) -> Box<dyn Any>;

    /// Capture the job's committed `(shard, cursor)` state under its
    /// shard-store key: a durability checkpoint, and — with the closing
    /// estimate in place of its placeholder — a shard-store deposit (see
    /// [`Scheduler::attach_shard_store`]). This must be cheap — it runs
    /// at the checkpoint cadence on the worker's slice path — so
    /// implementations return a counters-only placeholder estimate rather
    /// than evaluating one. Must not disturb committed state (snapshot
    /// on clones). Jobs that neither resume from serialized state nor
    /// take part in reuse (the default) return `None`.
    fn checkpoint(&mut self) -> Option<(ShardKey, StoredShard)> {
        None
    }

    /// The root-index blocks pool workers may run for this job while one
    /// of its slices commits (`None`, the default: the job runs on one
    /// thread). See the module docs on fan-out.
    fn helpers(&self) -> Option<Helpers> {
        None
    }
}

/// The standard [`SliceableQuery`]: any [`Estimator`] over an owned model
/// and value function, advancing under a [`RunControl`].
///
/// The job *is* the checkpoint: it owns the accumulated shard and the
/// run cursor, so serialization-free pause/resume is a matter of keeping
/// or handing back this object. A slice never runs past the open chunk's
/// end, and [`SliceableQuery::finished`] closes a chunk its slices have
/// completed, so the job checks quality exactly where
/// [`crate::estimator::run_sequential`] does.
pub struct EstimatorQuery<M, V, E>
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
    E: Estimator<M, V>,
{
    /// The problem, the estimator and the root blocks its helpers run.
    fan: Arc<Fan<M, V, E>>,
    control: RunControl,
    shard: E::Shard,
    run: RunCursor,
    /// The statement's pinned seed (`None` when it was drawn, or the
    /// caller handed over a raw cursor) — recorded in shard-store
    /// deposits.
    seed: Option<u64>,
    /// Shard-store identity; `Some` opts the job into reuse deposits
    /// and durability checkpoints.
    reuse_key: Option<ShardKey>,
}

impl<M, V, E> EstimatorQuery<M, V, E>
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
    E: Estimator<M, V>,
{
    /// Build a fresh query job on the run `run` (see
    /// [`EstimatorQuery::from_seed`] for the canonical seeding).
    pub fn new(
        model: M,
        value_fn: V,
        horizon: u64,
        estimator: E,
        control: RunControl,
        run: RunCursor,
    ) -> Self {
        let shard = estimator.shard();
        Self::from_parts(model, value_fn, horizon, estimator, control, shard, run)
    }

    /// Build a query job resuming from a checkpointed `(shard, run)`
    /// pair — e.g. a [`StoredShard`] the reuse planner chose to
    /// warm-start from. The control is evaluated over the *combined*
    /// state, exactly like [`crate::estimator::run_sequential_from`].
    pub fn from_parts(
        model: M,
        value_fn: V,
        horizon: u64,
        estimator: E,
        control: RunControl,
        shard: E::Shard,
        run: RunCursor,
    ) -> Self {
        let blocks = Blocks {
            width: 1,
            threads: 1,
            claimed: 0,
            aim: 0,
            limit: 0,
            running: BTreeMap::new(),
            parked: BTreeMap::new(),
            helping: 0,
            pool: Weak::new(),
        };
        let fan = Fan {
            model,
            value_fn,
            horizon,
            estimator,
            key: run.roots.key,
            look_ahead: match control {
                RunControl::Target { check_every, .. } => check_every.max(1),
                RunControl::Budget(_) => 0,
            },
            blocks: Mutex::new(blocks),
            arrivals: Condvar::new(),
        };
        Self {
            fan: Arc::new(fan),
            control,
            shard,
            run,
            seed: None,
            reuse_key: None,
        }
    }

    /// Tag this job with its shard-store identity so the scheduler
    /// deposits its checkpoints (on completion, pause, and detach) as
    /// warm-start candidates for later queries, and its durability
    /// checkpoints name the problem they answer.
    pub fn with_reuse_key(mut self, key: ShardKey) -> Self {
        self.reuse_key = Some(key);
        self
    }

    /// Record the pinned seed this job answers for (deposit
    /// provenance; [`EstimatorQuery::from_seed`] records its seed).
    pub fn with_seed_provenance(mut self, seed: Option<u64>) -> Self {
        self.seed = seed;
        self
    }

    /// Run this job's slices at the given frontier width (default 1).
    /// Because chunks are bit-identical across widths, changing width is
    /// safe at any slice boundary — including mid-query on a detached
    /// job (pause → detach → rewiden → resubmit), which changes
    /// throughput and nothing else.
    pub fn with_batch_width(self, width: usize) -> Self {
        self.fan.lock().width = width;
        self
    }

    /// Let at most `threads` threads work on this job: its committer and
    /// up to `threads − 1` pool workers running root blocks (see the
    /// module docs). Block sizes follow the requested count; the answer
    /// is bit-identical at every count.
    pub fn with_threads(self, threads: usize) -> Self {
        self.fan.lock().threads = threads.max(1) as u64;
        self
    }

    /// Build a query job on the run a pinned `seed` names
    /// ([`RunCursor::from_seed`]) — the run a sequential driver handed
    /// `StreamFactory::new(seed).stream(0)` and a pinned statement
    /// execute.
    pub fn from_seed(
        model: M,
        value_fn: V,
        horizon: u64,
        estimator: E,
        control: RunControl,
        seed: u64,
    ) -> Self {
        Self::new(
            model,
            value_fn,
            horizon,
            estimator,
            control,
            RunCursor::from_seed(seed),
        )
        .with_seed_provenance(Some(seed))
    }

    /// The accumulated shard (the live checkpoint).
    pub fn shard(&self) -> &E::Shard {
        &self.shard
    }

    /// Consume the job, returning the accumulated shard and the run
    /// cursor — everything needed to resume elsewhere (e.g. through
    /// [`crate::estimator::run_sequential_from`]).
    pub fn into_parts(self) -> (E::Shard, RunCursor) {
        (self.shard, self.run)
    }

    /// `(shard, cursor)` as this job's keyed checkpoint, with a
    /// counters-only placeholder estimate: evaluating a real one here
    /// could run a bootstrap on every durability checkpoint (recovery
    /// resumes the run; it never reads tau/variance out of one).
    fn entry(&self, shard: &E::Shard, cursor: RunCursor) -> Option<(ShardKey, StoredShard)>
    where
        E::Shard: Clone + 'static,
    {
        let key = self.reuse_key.clone()?;
        let estimate = Estimate {
            tau: f64::NAN,
            variance: f64::INFINITY,
            n_roots: shard.n_roots(),
            steps: shard.steps(),
            hits: 0,
        };
        // The RE target this job stops against (`NaN` in budget mode).
        let target_re = match &self.control {
            RunControl::Target {
                target: QualityTarget::RelativeError { target, .. },
                ..
            } => *target,
            _ => f64::NAN,
        };
        let entry = StoredShard::new(shard, cursor, estimate, self.seed, target_re);
        Some((key, entry))
    }
}

impl<M, V, E> SliceableQuery for EstimatorQuery<M, V, E>
where
    M: SimulationModel + Send + 'static,
    M::State: Send,
    V: ValueFunction<M::State> + Send + 'static,
    E: Estimator<M, V> + Send + 'static,
    E::Shard: Send + Clone + 'static,
{
    fn name(&self) -> &'static str {
        self.fan.estimator.name()
    }

    fn run_slice(&mut self, budget: u64) -> ChunkOutcome {
        let fan = &*self.fan;
        let Some(end) = self.run.open_chunk(&self.control, &self.shard, fan.horizon) else {
            return ChunkOutcome::default();
        };
        // Never past the open chunk's end: the stopping rule is evaluated
        // there (by `finished`), as every driver does.
        let budget = budget.max(1).min(end.saturating_sub(self.shard.steps()));
        if budget == 0 {
            return ChunkOutcome::default();
        }
        // Transactional: simulate into scratch state, commit on success.
        // A panic inside the model unwinds before either commit below, so
        // the job can be retried (or inspected) with its state intact.
        let mut pending = fan.estimator.shard();
        let mut roots = self.run.roots;
        // Defense in depth: an unresolved `batch_width=auto` sentinel
        // runs at the static fallback width, never a usize::MAX cohort.
        let (width, threads) = {
            let b = fan.lock();
            (crate::width::effective(b.width), b.threads)
        };
        let outcome = if threads > 1 {
            let base = (self.shard.steps(), self.shard.n_roots());
            let steps = fan.commit(&mut pending, base, &mut roots, end, base.0 + budget);
            let roots = roots.next - self.run.roots.next;
            ChunkOutcome { steps, roots }
        } else {
            let problem = fan.problem();
            (fan.estimator).run_chunk(problem, &mut pending, budget, &mut roots, width)
        };
        self.shard.merge(pending);
        self.run.roots = roots;
        outcome
    }

    fn finished(&mut self) -> bool {
        let chunk_done = self
            .run
            .chunk_end
            .is_some_and(|end| self.shard.steps() >= end);
        if chunk_done
            && self
                .run
                .close_chunk(&self.fan.estimator, &self.control, &mut self.shard)
        {
            return true;
        }
        self.run
            .open_chunk(&self.control, &self.shard, self.fan.horizon)
            .is_none()
    }

    fn estimate(&mut self) -> Estimate {
        self.run.estimate(&self.fan.estimator, &self.shard)
    }

    fn steps(&self) -> u64 {
        self.shard.steps()
    }

    fn n_roots(&self) -> u64 {
        self.shard.n_roots()
    }

    fn diagnostics(&self) -> Diagnostics {
        self.fan.estimator.diagnostics(&self.shard)
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn checkpoint(&mut self) -> Option<(ShardKey, StoredShard)> {
        self.entry(&self.shard, self.run)
    }

    fn helpers(&self) -> Option<Helpers> {
        (self.fan.lock().threads > 1).then(|| Helpers(Arc::clone(&self.fan) as Arc<dyn BlockWork>))
    }
}

/// Largest root block a helper claims at once.
const MAX_BLOCK_ROOTS: u64 = 1024;

/// A job's root blocks as the pool sees them: what
/// [`SliceableQuery::helpers`] hands the scheduler (see the module docs).
#[derive(Clone)]
pub struct Helpers(Arc<dyn BlockWork>);

/// The type-erased face of a [`Fan`].
trait BlockWork: Send + Sync {
    /// Is there room for one more helper, and a free block?
    fn room(&self) -> bool;
    /// If there is room, claim a free block and run it. Returns its steps
    /// and the call that parks it: the pool charges the steps first, so a
    /// block is paid for before the committer can fold it.
    fn help(&self) -> Option<(u64, Box<dyn FnOnce() + '_>)>;
    /// Wake `pool`'s idle workers whenever blocks become free.
    fn attach(&self, pool: Weak<Shared>);
    /// Drop the parked blocks (the committer reruns their roots).
    fn reset(&self);
}

/// A job's problem and estimator, with the table of root blocks its
/// helpers claim past the committed prefix, run into fresh shards and
/// park for the committer to fold in index order ([`Fan::commit`]).
struct Fan<M, V, E>
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
    E: Estimator<M, V>,
{
    model: M,
    value_fn: V,
    horizon: u64,
    estimator: E,
    /// The run key: root `k` draws stream `k` of it.
    key: u64,
    /// Roots helpers may claim past a predicted chunk end: the next
    /// chunk's worth in target mode, none past a budget.
    look_ahead: u64,
    blocks: Mutex<Blocks<E::Shard>>,
    /// The committer waits here for a block a helper is running.
    arrivals: Condvar,
}

struct Blocks<L> {
    width: usize,
    /// The requested thread count (block sizes follow it).
    threads: u64,
    /// First root not yet handed out.
    claimed: u64,
    /// Predicted crossing root of the open chunk.
    aim: u64,
    /// No claims at or past this root (`aim` plus the look-ahead).
    limit: u64,
    /// Blocks helpers are running: first root → roots.
    running: BTreeMap<u64, u64>,
    /// Finished blocks: first root → (roots, shard).
    parked: BTreeMap<u64, (u64, L)>,
    helping: u64,
    pool: Weak<Shared>,
}

impl<M, V, E> Fan<M, V, E>
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
    E: Estimator<M, V>,
{
    fn lock(&self) -> MutexGuard<'_, Blocks<E::Shard>> {
        self.blocks.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn problem(&self) -> Problem<'_, M, V> {
        Problem::new(&self.model, &self.value_fn, self.horizon)
    }

    /// The next block's length: a `1/(2·threads)` share of the roots left
    /// before the predicted crossing (or of the look-ahead past it).
    fn share(&self, b: &Blocks<E::Shard>) -> u64 {
        let aim = if b.claimed < b.aim { b.aim } else { b.limit };
        (aim.saturating_sub(b.claimed) / (2 * b.threads)).clamp(1, MAX_BLOCK_ROOTS)
    }

    /// Claim a free block to run ahead of the committer: `(start, roots,
    /// lanes)`.
    fn claim(&self, b: &mut Blocks<E::Shard>) -> Option<(u64, u64, usize)> {
        (b.claimed < b.limit).then(|| {
            let (start, len) = (b.claimed, self.share(b));
            b.claimed += len;
            b.running.insert(start, len);
            (
                start,
                len,
                crate::width::effective(b.width).min(len as usize),
            )
        })
    }

    /// Run a claimed block into a fresh shard; returns its steps and a
    /// call that parks it (a `helper` leaves as it does). A panic is
    /// contained: the roots stay unparked, so the committer runs them in
    /// place, where the panic reaches the run.
    fn run_block(
        &self,
        (start, len, lanes): (u64, u64, usize),
        helper: bool,
    ) -> (u64, impl FnOnce() + '_) {
        let block = catch_unwind(AssertUnwindSafe(|| {
            let mut block = self.estimator.shard();
            let end = start + len;
            let mut cursor = RootCursor {
                key: self.key,
                next: start,
                end,
            };
            (self.estimator).run_chunk(self.problem(), &mut block, u64::MAX, &mut cursor, lanes);
            block
        }));
        let steps = block.as_ref().map_or(0, |block| block.steps());
        let park = move || {
            let mut b = self.lock();
            b.helping -= u64::from(helper);
            b.running.remove(&start);
            if let Ok(block) = block {
                b.parked.insert(start, (len, block));
            }
            drop(b);
            self.arrivals.notify_all();
        };
        (steps, park)
    }

    /// Commit roots from `roots.next`, in index order, into `shard` until
    /// the committed steps (`base.0` plus `shard`'s) reach `target`, in the
    /// chunk ending at `end` (`target ≤ end`; `base` is the committed
    /// `(steps, roots)` outside `shard`). Parked blocks that end before
    /// the chunk end fold whole; the crossing block, blocks lost to a
    /// panic or a reset, and unclaimed roots run here; while a helper runs
    /// the next block, this thread runs a free one. Returns the steps it
    /// ran.
    fn commit(
        &self,
        shard: &mut E::Shard,
        base: (u64, u64),
        roots: &mut RootCursor,
        end: u64,
        target: u64,
    ) -> u64 {
        let (mut ran, width) = (0, crate::width::effective(self.lock().width));
        loop {
            let (steps, next) = (base.0 + shard.steps(), roots.next);
            if steps >= target {
                return ran;
            }
            // Re-aim the claims at the predicted crossing of the chunk.
            let per_root = steps_per_root(steps, base.1 + shard.n_roots(), self.horizon);
            let mut b = self.lock();
            let closed = b.claimed >= b.limit;
            b.claimed = b.claimed.max(next);
            b.aim = next.saturating_add((end - steps).div_ceil(per_root));
            b.limit = b.aim.saturating_add(self.look_ahead).max(next + 1);
            if closed && b.claimed < b.limit {
                // Blocks became free: wake idle workers. Taking the pool
                // lock orders this after any pick that found none.
                if let Some(shared) = b.pool.upgrade() {
                    drop(b);
                    drop(shared.lock());
                    shared.work_cv.notify_all();
                    b = self.lock();
                }
            }
            match b.parked.remove(&next) {
                Some((len, block)) if steps + block.steps() < end => {
                    drop(b);
                    shard.merge(block);
                    roots.next += len;
                    continue;
                }
                _ if b.running.contains_key(&next) => {
                    match self.claim(&mut b) {
                        Some(claim) => {
                            drop(b);
                            let (steps, park) = self.run_block(claim, false);
                            park();
                            ran += steps;
                        }
                        None => drop(
                            self.arrivals
                                .wait(b)
                                .unwrap_or_else(PoisonError::into_inner),
                        ),
                    }
                    continue;
                }
                _ => {}
            }
            if next == b.claimed {
                b.claimed += self.share(&b);
            }
            let later = [
                b.parked.range(next..).next().map(|(&start, _)| start),
                b.running.range(next..).next().map(|(&start, _)| start),
            ];
            let gap_end = later.into_iter().flatten().fold(b.claimed, u64::min);
            drop(b);
            let mut cursor = RootCursor {
                end: gap_end,
                ..*roots
            };
            let before = shard.steps();
            (self.estimator).run_chunk(self.problem(), shard, target - steps, &mut cursor, width);
            ran += shard.steps() - before;
            roots.next = cursor.next;
        }
    }
}

impl<M, V, E> BlockWork for Fan<M, V, E>
where
    M: SimulationModel + Send,
    V: ValueFunction<M::State> + Send,
    E: Estimator<M, V> + Send,
{
    fn room(&self) -> bool {
        let b = self.lock();
        b.helping + 1 < b.threads && b.claimed < b.limit
    }

    fn help(&self) -> Option<(u64, Box<dyn FnOnce() + '_>)> {
        let claim = {
            let mut b = self.lock();
            let claim = (b.helping + 1 < b.threads)
                .then(|| self.claim(&mut b))
                .flatten();
            b.helping += u64::from(claim.is_some());
            claim
        };
        let (steps, park) = self.run_block(claim?, true);
        Some((steps, Box::new(park)))
    }

    fn attach(&self, pool: Weak<Shared>) {
        self.lock().pool = pool;
    }

    fn reset(&self) {
        self.lock().parked.clear();
    }
}

/// A job that is already answered: what the reuse planner admits when a
/// stored shard meets the query's RE target, so an `ASYNC` submission
/// served from the store flows through the standard poll/wait/results
/// machinery unchanged. Its first (empty) slice finishes immediately
/// with the stored estimate.
#[derive(Debug, Clone)]
pub struct CompletedQuery {
    estimate: Estimate,
}

impl CompletedQuery {
    /// A job that finishes on its first slice with `estimate`.
    pub fn new(estimate: Estimate) -> Self {
        Self { estimate }
    }
}

impl SliceableQuery for CompletedQuery {
    fn name(&self) -> &'static str {
        "stored"
    }

    fn run_slice(&mut self, _budget: u64) -> ChunkOutcome {
        ChunkOutcome::default()
    }

    fn finished(&mut self) -> bool {
        true
    }

    fn estimate(&mut self) -> Estimate {
        self.estimate
    }

    fn steps(&self) -> u64 {
        self.estimate.steps
    }

    fn n_roots(&self) -> u64 {
        self.estimate.n_roots
    }

    fn diagnostics(&self) -> Diagnostics {
        Diagnostics::none("stored")
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads in the pool (≥ 1).
    pub workers: usize,
    /// `g` invocations per slice. Smaller slices preempt faster but pay
    /// more scheduling overhead per step.
    pub slice_budget: u64,
    /// How many times a panicked slice is retried before the query is
    /// reported failed. Retries re-run the identical committed state, so
    /// deterministic panics fail fast; transient ones (e.g. resource
    /// exhaustion) get another chance.
    pub max_retries: u32,
    /// Frontier width applied to queries admitted via
    /// [`Scheduler::submit`] (default 1). Pre-built jobs
    /// ([`Scheduler::submit_query`]) keep whatever width they were built
    /// with.
    /// [`crate::width::AUTO_WIDTH`] is accepted and runs slices at the
    /// static fallback width — resolve it upstream (per model, through
    /// `KernelClass::width`) for the model's own default.
    pub batch_width: usize,
    /// Pre-registered fair-share tenants as `(name, weight)` pairs.
    /// Weights scale the least-attained-service comparison: a tenant
    /// with weight 4 is considered "behind" until it has attained 4x
    /// the service of a weight-1 tenant. Tenants can also be registered
    /// at runtime via [`Scheduler::ensure_tenant`]; unknown names
    /// default to weight 1.0.
    pub tenant_weights: Vec<(String, f64)>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            slice_budget: 32_768,
            max_retries: 1,
            batch_width: 1,
            tenant_weights: Vec::new(),
        }
    }
}

/// Lifecycle of a submitted query.
#[derive(Debug, Clone)]
pub enum QueryStatus {
    /// Waiting for a worker.
    Queued,
    /// A worker is running one of its slices right now.
    Running,
    /// Paused; no further slices until [`Scheduler::resume`].
    Paused,
    /// Finished with this estimate.
    Done(Estimate),
    /// Gave up after repeated slice panics.
    Failed(String),
    /// Cancelled by the caller.
    Cancelled,
}

impl QueryStatus {
    /// Done, failed, or cancelled?
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            QueryStatus::Done(_) | QueryStatus::Failed(_) | QueryStatus::Cancelled
        )
    }

    /// The final estimate, when done.
    pub fn estimate(&self) -> Option<&Estimate> {
        match self {
            QueryStatus::Done(e) => Some(e),
            _ => None,
        }
    }
}

/// Point-in-time view of a query's progress.
#[derive(Debug, Clone)]
pub struct QueryProgress {
    /// Current lifecycle state.
    pub status: QueryStatus,
    /// `g` invocations committed so far.
    pub steps: u64,
    /// Root paths committed so far.
    pub n_roots: u64,
    /// Slices completed.
    pub slices: u64,
    /// Panicked slices retried so far.
    pub retries: u32,
    /// Submission priority (lower runs first).
    pub priority: u8,
    /// Wall-clock time from submission to the terminal transition, or to
    /// now for in-flight queries — the query's *serving latency*, stable
    /// no matter how late the caller polls.
    pub elapsed: Duration,
}

/// Aggregate pool counters (monotonic over the scheduler's lifetime).
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerStats {
    /// Queries admitted.
    pub submitted: u64,
    /// Queries finished with an estimate.
    pub completed: u64,
    /// Queries that exhausted their panic retries.
    pub failed: u64,
    /// Queries cancelled.
    pub cancelled: u64,
    /// Slices executed successfully.
    pub slices: u64,
    /// Slices that panicked (caught and contained).
    pub panics: u64,
}

enum SlotState {
    Ready,
    Running,
    Paused,
    Done(Estimate),
    Failed(String),
    Cancelled,
}

struct Slot {
    state: SlotState,
    /// The job, present unless a worker has it claimed or the slot is
    /// terminal.
    job: Option<Box<dyn SliceableQuery>>,
    priority: u8,
    steps: u64,
    n_roots: u64,
    slices: u64,
    retries: u32,
    pause_requested: bool,
    cancel_requested: bool,
    submitted_at: Instant,
    finished_at: Option<Instant>,
    /// Fair-share tenant this query's attained service is charged to
    /// (`None` for tenantless submissions — the pre-tenancy behavior).
    tenant: Option<TenantId>,
    /// Key of its helper blocks in [`State::offers`], while offered.
    offer: Option<u64>,
}

/// A fanned-out run's helper blocks on offer to the pool — an `ASYNC`
/// query's, or a synchronous run's ([`Scheduler::run`]). Not a query:
/// it is picked like one, under its run's priority and tenant.
struct Offer {
    helpers: Helpers,
    priority: u8,
    tenant: Option<TenantId>,
    /// `g` invocations its helpers ran.
    steps: u64,
}

/// What a worker does next: a query's slice, or a block of an offer.
enum Pick {
    Slice(QueryId),
    Help(u64),
}

/// Per-tenant fair-share accounting.
struct TenantState {
    name: String,
    weight: f64,
    /// `g` invocations charged to this tenant (what its queries' slices
    /// and helper blocks ran; warm-start steps carried into a submission
    /// are not charged — the tenant pays for work the pool actually ran).
    attained: u64,
    submitted: u64,
    completed: u64,
}

/// Public snapshot of one tenant's fair-share accounting.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant name (the handshake identity).
    pub name: String,
    /// Fair-share weight (service is balanced toward `attained/weight`
    /// equality across tenants).
    pub weight: f64,
    /// `g` invocations charged to the tenant so far.
    pub attained_steps: u64,
    /// Queries submitted under this tenant.
    pub submitted: u64,
    /// Queries completed under this tenant.
    pub completed: u64,
}

impl Slot {
    fn status(&self) -> QueryStatus {
        match &self.state {
            SlotState::Ready => QueryStatus::Queued,
            SlotState::Running => QueryStatus::Running,
            SlotState::Paused => QueryStatus::Paused,
            SlotState::Done(e) => QueryStatus::Done(*e),
            SlotState::Failed(m) => QueryStatus::Failed(m.clone()),
            SlotState::Cancelled => QueryStatus::Cancelled,
        }
    }
}

struct State {
    jobs: BTreeMap<QueryId, Slot>,
    next_id: QueryId,
    shutdown: bool,
    stats: SchedulerStats,
    /// Registered tenants, indexed by [`TenantId`].
    tenants: Vec<TenantState>,
    tenant_ids: BTreeMap<String, TenantId>,
    /// Helper blocks on offer, by key.
    offers: BTreeMap<u64, Offer>,
    next_offer: u64,
}

impl State {
    fn ensure_tenant(&mut self, name: &str, weight: Option<f64>) -> TenantId {
        if let Some(&id) = self.tenant_ids.get(name) {
            if let Some(w) = weight {
                self.tenants[id as usize].weight = w.max(f64::MIN_POSITIVE);
            }
            return id;
        }
        let id = self.tenants.len() as TenantId;
        self.tenants.push(TenantState {
            name: name.to_string(),
            weight: weight.unwrap_or(1.0).max(f64::MIN_POSITIVE),
            attained: 0,
            submitted: 0,
            completed: 0,
        });
        self.tenant_ids.insert(name.to_string(), id);
        id
    }

    /// Offer `helpers`' blocks to the pool, returning the offer's key.
    fn offer(&mut self, helpers: Helpers, priority: u8, tenant: Option<TenantId>) -> u64 {
        let tenant = tenant.filter(|&t| (t as usize) < self.tenants.len());
        self.next_offer += 1;
        let offer = Offer {
            helpers,
            priority,
            tenant,
            steps: 0,
        };
        self.offers.insert(self.next_offer, offer);
        self.next_offer
    }

    /// Withdraw query `id`'s helper blocks and drop those parked (on
    /// pause, detach and the end of the query: no committer is running,
    /// and the blocks are recomputable bit for bit). The next slice
    /// offers them again.
    fn withdraw(&mut self, id: QueryId) {
        let key = self.jobs.get_mut(&id).and_then(|s| s.offer.take());
        if let Some(offer) = key.and_then(|key| self.offers.remove(&key)) {
            offer.helpers.0.reset();
        }
    }
}

/// Observer of query lifecycle events for a write-ahead durability
/// layer. All callbacks run on worker (or caller) threads outside the
/// scheduler lock and are panic-contained: a hook failure degrades
/// durability, never liveness or results.
///
/// The ordering contract the WAL relies on:
///
/// - [`DurabilityHook::slice_committed`] fires after a slice's state is
///   committed into the job but before the slot transition — the job's
///   `checkpoint()` at that moment is exactly the state an uninterrupted
///   run carries into its next slice.
/// - [`DurabilityHook::finishing`] fires after the final estimate is
///   computed but **before** the `Done` status becomes observable, so a
///   result a client can see is always recoverable (write-ahead
///   ordering). It is deliberately *outside* the retried slice closure:
///   a hook failure must not trigger a re-run of the finished query.
/// - [`DurabilityHook::discarded`] fires when a query ends without a
///   result (cancel, failure, detach) so recovery won't resurrect it.
pub trait DurabilityHook: Send + Sync {
    /// A slice of `id` committed without finishing the query; `slices`
    /// counts committed slices including this one. The hook may call
    /// [`SliceableQuery::checkpoint`] on `job` (at its own cadence).
    fn slice_committed(&self, id: QueryId, slices: u64, job: &mut dyn SliceableQuery) {
        let _ = (id, slices, job);
    }

    /// `id` computed its final estimate; the `Done` status is published
    /// only after this returns.
    fn finishing(&self, id: QueryId, est: &Estimate) {
        let _ = (id, est);
    }

    /// `id` ended without a result (cancelled, failed, or detached).
    fn discarded(&self, id: QueryId) {
        let _ = id;
    }
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for ready work.
    work_cv: Condvar,
    /// [`Scheduler::wait`] callers wait here for terminal transitions.
    done_cv: Condvar,
    /// Cross-query shard store; completed and paused jobs with a reuse
    /// key deposit their checkpoints here (see
    /// [`Scheduler::attach_shard_store`]).
    store: Mutex<Option<Arc<ShardStore>>>,
    /// Durability observer (see [`Scheduler::attach_durability_hook`]).
    hook: Mutex<Option<Arc<dyn DurabilityHook>>>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn store(&self) -> Option<Arc<ShardStore>> {
        self.store
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn hook(&self) -> Option<Arc<dyn DurabilityHook>> {
        self.hook
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Invoke a hook callback, containing panics (durability is
    /// best-effort from the scheduler's point of view; the WAL layer has
    /// its own error accounting).
    fn with_hook(&self, f: impl FnOnce(&dyn DurabilityHook)) {
        if let Some(hook) = self.hook() {
            let _ = catch_unwind(AssertUnwindSafe(|| f(hook.as_ref())));
        }
    }
}

/// The one deposit rule, for every finished, paused or detached job and
/// every finished [`Scheduler::run`]: the job's checkpoint — its shard,
/// its cursor and the statement's pinned seed — with the closing
/// estimate in place of the checkpoint's placeholder. `closing` is the
/// estimate the caller already holds, or evaluates it; it runs only for
/// a checkpoint with roots (one without answers nothing and is skipped).
/// Its panics (e.g. a bootstrap variance on pathological data) are
/// contained like slice panics: reuse is an optimization and must never
/// take a query down.
fn deposit(
    store: &ShardStore,
    checkpoint: Option<(ShardKey, StoredShard)>,
    closing: impl FnOnce() -> Estimate,
) {
    let Some((key, mut entry)) = checkpoint.filter(|(_, entry)| entry.n_roots() > 0) else {
        return;
    };
    if let Ok(estimate) = catch_unwind(AssertUnwindSafe(closing)) {
        entry.estimate = estimate;
        store.deposit(key, entry);
    }
}

/// A shared worker pool that admits, time-slices, and completes
/// concurrent estimation queries. See the module docs for the model.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    cfg: SchedulerConfig,
}

impl Scheduler {
    /// Start a pool with the given knobs.
    pub fn new(cfg: SchedulerConfig) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(cfg.slice_budget >= 1, "slices must have a budget");
        let mut state = State {
            jobs: BTreeMap::new(),
            next_id: 1,
            shutdown: false,
            stats: SchedulerStats::default(),
            tenants: Vec::new(),
            tenant_ids: BTreeMap::new(),
            offers: BTreeMap::new(),
            next_offer: 0,
        };
        for (name, weight) in &cfg.tenant_weights {
            state.ensure_tenant(name, Some(*weight));
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(state),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            store: Mutex::new(None),
            hook: Mutex::new(None),
        });
        let workers = (0..cfg.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let slice_budget = cfg.slice_budget;
                let max_retries = cfg.max_retries;
                std::thread::spawn(move || worker_loop(&shared, slice_budget, max_retries))
            })
            .collect();
        Self {
            shared,
            workers,
            cfg,
        }
    }

    /// Start a pool with default knobs.
    pub fn with_workers(workers: usize) -> Self {
        Self::new(SchedulerConfig {
            workers,
            ..SchedulerConfig::default()
        })
    }

    /// The pool's configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// Attach a cross-query [`ShardStore`]: from now on, jobs carrying a
    /// reuse key deposit their checkpoints on completion and on pause,
    /// and [`Scheduler::detach`] deposits the in-flight checkpoint as a
    /// warm-start candidate before handing the job out.
    pub fn attach_shard_store(&self, store: Arc<ShardStore>) {
        *self
            .shared
            .store
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(store);
    }

    /// The attached shard store, if any.
    pub fn shard_store(&self) -> Option<Arc<ShardStore>> {
        self.shared.store()
    }

    /// Attach a [`DurabilityHook`]: from now on workers report slice
    /// commits, pre-publication finishes, and discards to it. Attach
    /// *before* submitting queries that must be journaled — events from
    /// already-running slices are not replayed retroactively.
    pub fn attach_durability_hook(&self, hook: Arc<dyn DurabilityHook>) {
        *self
            .shared
            .hook
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(hook);
    }

    /// Admit any [`Estimator`] over an owned model as a query, on the
    /// run `seed` names (see [`EstimatorQuery::from_seed`]). Lower `priority` runs first.
    #[allow(clippy::too_many_arguments)]
    pub fn submit<M, V, E>(
        &self,
        model: M,
        value_fn: V,
        horizon: u64,
        estimator: E,
        control: RunControl,
        seed: u64,
        priority: u8,
    ) -> QueryId
    where
        M: SimulationModel + Send + 'static,
        M::State: Send,
        V: ValueFunction<M::State> + Send + 'static,
        E: Estimator<M, V> + Send + 'static,
        E::Shard: Send + Clone + 'static,
    {
        self.submit_query(
            Box::new(
                EstimatorQuery::from_seed(model, value_fn, horizon, estimator, control, seed)
                    .with_batch_width(self.cfg.batch_width),
            ),
            priority,
        )
    }

    /// Admit a pre-built job (including one previously detached as a
    /// checkpoint — its accumulated state carries over).
    pub fn submit_query(&self, job: Box<dyn SliceableQuery>, priority: u8) -> QueryId {
        self.submit_query_as(job, priority, None)
    }

    /// Admit a pre-built job on behalf of a fair-share tenant. The
    /// tenant's attained-service counter is charged for every slice the
    /// pool runs on this query (warm-start steps carried in by the job
    /// are not charged), and [`pick_ready`] balances `attained/weight`
    /// across tenants within each priority band. `None` preserves the
    /// tenantless per-query least-attained policy exactly.
    pub fn submit_query_as(
        &self,
        job: Box<dyn SliceableQuery>,
        priority: u8,
        tenant: Option<TenantId>,
    ) -> QueryId {
        let mut st = self.shared.lock();
        let tenant = tenant.filter(|&t| (t as usize) < st.tenants.len());
        let id = st.next_id;
        st.next_id += 1;
        let (steps, n_roots) = (job.steps(), job.n_roots());
        st.jobs.insert(
            id,
            Slot {
                state: SlotState::Ready,
                job: Some(job),
                priority,
                steps,
                n_roots,
                slices: 0,
                retries: 0,
                pause_requested: false,
                cancel_requested: false,
                submitted_at: Instant::now(),
                finished_at: None,
                tenant,
                offer: None,
            },
        );
        st.stats.submitted += 1;
        if let Some(t) = tenant {
            st.tenants[t as usize].submitted += 1;
        }
        drop(st);
        self.shared.work_cv.notify_one();
        id
    }

    /// Run `job` to completion on the calling thread, its committer, while
    /// up to `threads − 1` of the pool's workers run root-index blocks of
    /// it (see [`EstimatorQuery::with_threads`] and the module docs). The
    /// run is not a query — no id, no slot, no durability hook — but its
    /// blocks are picked under the slices' rule at `priority`, and their
    /// steps are charged to `tenant`. The answer is bit-identical to the
    /// sequential driver's ([`run_sequential_from`]), which runs a
    /// one-thread job; a model panic propagates to the caller.
    /// With a shard store attached, the finished run is deposited like a
    /// finished query.
    pub fn run<M, V, E>(
        &self,
        mut job: EstimatorQuery<M, V, E>,
        priority: u8,
        tenant: Option<TenantId>,
    ) -> EstimatorRun<E::Shard>
    where
        M: SimulationModel + Send + 'static,
        V: ValueFunction<M::State> + Send + 'static,
        E: Estimator<M, V> + Send + 'static,
        E::Shard: Clone + 'static,
    {
        let shard = std::mem::replace(&mut job.shard, job.fan.estimator.shard());
        let fan = &*job.fan;
        let (width, threads) = {
            let b = fan.lock();
            (b.width, b.threads)
        };
        let run = if threads == 1 {
            let problem = fan.problem();
            run_sequential_from(&fan.estimator, problem, job.control, job.run, shard, width)
        } else {
            let helpers = Helpers(Arc::clone(&job.fan) as Arc<dyn BlockWork>);
            helpers.0.attach(Arc::downgrade(&self.shared));
            let key = self.shared.lock().offer(helpers, priority, tenant);
            /// Withdraws the run's blocks from the pool when it returns or
            /// unwinds; blocks still running finish into the dropped table.
            struct Withdraw<'a>(&'a Shared, u64);
            impl Drop for Withdraw<'_> {
                fn drop(&mut self) {
                    self.0.lock().offers.remove(&self.1);
                }
            }
            let _withdraw = Withdraw(&self.shared, key);
            drive(
                &fan.estimator,
                fan.problem(),
                job.control,
                job.run,
                shard,
                |shard, roots, end| {
                    fan.commit(shard, (0, 0), roots, end, end);
                },
            )
        };
        if let Some(store) = self.shared.store() {
            deposit(&store, job.entry(&run.shard, run.cursor), || run.estimate);
        }
        run
    }

    /// Register (or look up) a fair-share tenant by name, returning its
    /// id for [`Scheduler::submit_query_as`]. New tenants start at
    /// weight 1.0; use [`Scheduler::set_tenant_weight`] (or
    /// [`SchedulerConfig::tenant_weights`]) to change it.
    pub fn ensure_tenant(&self, name: &str) -> TenantId {
        self.shared.lock().ensure_tenant(name, None)
    }

    /// Set a tenant's fair-share weight (registering it if unknown).
    /// Weights are clamped positive; the change applies to the very next
    /// scheduling decision.
    pub fn set_tenant_weight(&self, name: &str, weight: f64) {
        self.shared.lock().ensure_tenant(name, Some(weight));
    }

    /// Snapshot of every registered tenant's fair-share accounting, in
    /// registration order.
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        self.shared
            .lock()
            .tenants
            .iter()
            .map(|t| TenantStats {
                name: t.name.clone(),
                weight: t.weight,
                attained_steps: t.attained,
                submitted: t.submitted,
                completed: t.completed,
            })
            .collect()
    }

    /// Per-tenant counters as a [`Diagnostics`] block (`None` when no
    /// tenants are registered, so tenantless sessions stay unchanged).
    pub fn tenant_diagnostics(&self) -> Option<Diagnostics> {
        let stats = self.tenant_stats();
        if stats.is_empty() {
            return None;
        }
        let mut details = Vec::with_capacity(stats.len() * 4);
        for t in &stats {
            details.push((format!("{}.weight", t.name), t.weight));
            details.push((
                format!("{}.attained_steps", t.name),
                t.attained_steps as f64,
            ));
            details.push((format!("{}.submitted", t.name), t.submitted as f64));
            details.push((format!("{}.completed", t.name), t.completed as f64));
        }
        Some(Diagnostics {
            estimator: "tenants",
            skip_events: 0,
            details,
        })
    }

    /// Current status of a query (`None` for unknown ids).
    pub fn poll(&self, id: QueryId) -> Option<QueryStatus> {
        self.shared.lock().jobs.get(&id).map(|s| s.status())
    }

    /// Progress snapshot of a query.
    pub fn progress(&self, id: QueryId) -> Option<QueryProgress> {
        self.shared.lock().jobs.get(&id).map(|s| QueryProgress {
            status: s.status(),
            steps: s.steps,
            n_roots: s.n_roots,
            slices: s.slices,
            retries: s.retries,
            priority: s.priority,
            elapsed: s.finished_at.unwrap_or_else(Instant::now) - s.submitted_at,
        })
    }

    /// Drop every terminal (done/failed/cancelled) slot, returning how
    /// many were evicted. A long-lived serving scheduler should call
    /// this periodically once results have been consumed: terminal slots
    /// are retained so `poll`/`wait` keep answering, but they cost
    /// memory and lengthen the ready-queue scan forever otherwise.
    /// Evicted ids become unknown to `poll`/`progress`/`wait`.
    pub fn evict_terminal(&self) -> usize {
        let mut st = self.shared.lock();
        let before = st.jobs.len();
        st.jobs.retain(|_, s| !s.status().is_terminal());
        before - st.jobs.len()
    }

    /// Estimator-specific diagnostics of an in-flight query (`None` when
    /// the job is terminal, detached, or currently claimed by a worker).
    pub fn diagnostics(&self, id: QueryId) -> Option<Diagnostics> {
        let st = self.shared.lock();
        st.jobs
            .get(&id)
            .and_then(|s| s.job.as_ref())
            .map(|j| j.diagnostics())
    }

    /// Pause a query: no further slices run until [`Scheduler::resume`].
    /// Takes effect immediately for queued queries and after the current
    /// slice for running ones. Returns false for unknown/terminal ids.
    pub fn pause(&self, id: QueryId) -> bool {
        let mut st = self.shared.lock();
        match st.jobs.get_mut(&id) {
            Some(slot) => match slot.state {
                SlotState::Ready => {
                    slot.state = SlotState::Paused;
                    st.withdraw(id);
                    true
                }
                SlotState::Running => {
                    slot.pause_requested = true;
                    true
                }
                SlotState::Paused => true,
                _ => false,
            },
            None => false,
        }
    }

    /// Resume a paused query.
    pub fn resume(&self, id: QueryId) -> bool {
        let mut st = self.shared.lock();
        let resumed = match st.jobs.get_mut(&id) {
            Some(slot) => {
                slot.pause_requested = false;
                if matches!(slot.state, SlotState::Paused) {
                    slot.state = SlotState::Ready;
                    true
                } else {
                    matches!(slot.state, SlotState::Ready | SlotState::Running)
                }
            }
            None => false,
        };
        drop(st);
        if resumed {
            self.shared.work_cv.notify_one();
        }
        resumed
    }

    /// Cancel a query. Queued/paused queries cancel immediately; a
    /// running one cancels after its current slice. Returns false for
    /// unknown or already-terminal ids.
    pub fn cancel(&self, id: QueryId) -> bool {
        let mut st = self.shared.lock();
        let cancelled = match st.jobs.get_mut(&id) {
            Some(slot) => match slot.state {
                SlotState::Ready | SlotState::Paused => {
                    slot.job = None;
                    slot.state = SlotState::Cancelled;
                    slot.finished_at = Some(Instant::now());
                    st.withdraw(id);
                    true
                }
                SlotState::Running => {
                    // Idempotent: only the first cancel of a running
                    // query takes effect (and is counted).
                    !std::mem::replace(&mut slot.cancel_requested, true)
                }
                _ => false,
            },
            None => false,
        };
        let immediate = cancelled
            && st
                .jobs
                .get(&id)
                .is_some_and(|s| matches!(s.state, SlotState::Cancelled));
        if cancelled {
            st.stats.cancelled += 1;
            drop(st);
            if immediate {
                self.shared.with_hook(|h| h.discarded(id));
            }
            self.shared.done_cv.notify_all();
        }
        cancelled
    }

    /// Detach a queued or paused query, removing it from the scheduler
    /// and returning the job — the live checkpoint (shard + cursor). The
    /// caller can resume it later via [`Scheduler::submit_query`] (same
    /// or another scheduler) or downcast with
    /// [`SliceableQuery::into_any`] and continue through
    /// [`crate::estimator::run_sequential_from`]. Its parked helper
    /// blocks are dropped. Running or terminal queries return `None`
    /// (pause first, then detach).
    pub fn detach(&self, id: QueryId) -> Option<Box<dyn SliceableQuery>> {
        let job = {
            let mut st = self.shared.lock();
            let slot = st.jobs.get_mut(&id)?;
            if !matches!(slot.state, SlotState::Ready | SlotState::Paused) {
                return None;
            }
            let job = slot.job.take();
            st.withdraw(id);
            st.jobs.remove(&id);
            job
        };
        let mut job = job?;
        // The in-flight checkpoint becomes a warm-start candidate for
        // other queries even while the caller holds the job.
        if let Some(store) = self.shared.store() {
            deposit(&store, job.checkpoint(), || job.estimate());
        }
        // The query left the scheduler without finishing: its durable
        // in-flight state (submit record, checkpoints) is now stale.
        self.shared.with_hook(|h| h.discarded(id));
        // Wake any wait()-er blocked on this id: the slot is gone and
        // their next status lookup returns None instead of sleeping on.
        self.shared.done_cv.notify_all();
        Some(job)
    }

    /// Block until the query reaches a terminal state, returning it.
    /// Unknown ids return `None`; a scheduler shutdown unblocks with the
    /// then-current (possibly non-terminal) status.
    pub fn wait(&self, id: QueryId) -> Option<QueryStatus> {
        let mut st = self.shared.lock();
        loop {
            let status = st.jobs.get(&id).map(|s| s.status())?;
            if status.is_terminal() || st.shutdown {
                return Some(status);
            }
            st = self
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Aggregate pool counters.
    pub fn stats(&self) -> SchedulerStats {
        self.shared.lock().stats
    }

    /// Pool counters as a [`Diagnostics`] block for the serving layer.
    pub fn pool_diagnostics(&self) -> Diagnostics {
        let s = self.stats();
        Diagnostics {
            estimator: "scheduler",
            skip_events: 0,
            details: vec![
                ("submitted".to_string(), s.submitted as f64),
                ("completed".to_string(), s.completed as f64),
                ("failed".to_string(), s.failed as f64),
                ("cancelled".to_string(), s.cancelled as f64),
                ("slices".to_string(), s.slices as f64),
                ("panics".to_string(), s.panics as f64),
            ],
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        self.shared.done_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The fair-share comparison key within a priority band. Tenant-charged
/// work competes on the *tenant's* weighted attained service
/// (`attained/weight`): the pool advances whichever tenant is furthest
/// behind its share, and the per-query `steps` tiebreak below still
/// sprints cheap queries past marathons *within* a tenant. Tenantless
/// work keeps the pre-tenancy per-query key (`steps` as f64), so a
/// scheduler with no tenants registered behaves exactly as before.
fn fair_key(st: &State, tenant: Option<TenantId>, steps: u64) -> f64 {
    match tenant.map(|t| &st.tenants[t as usize]) {
        Some(t) => t.attained as f64 / t.weight,
        None => steps as f64,
    }
}

/// Pick the work the pool should advance next: least attained service
/// within the best (lowest) priority — cheap queries sprint past
/// marathons, which is what wins p50 latency under mixed load. With
/// tenants registered, "attained" is the submitting tenant's weighted
/// total (see [`fair_key`]), which is what makes two tenants with equal
/// weights attain equal service no matter how many queries each floods
/// the pool with. A ready query offers its next slice; a fanned-out query
/// or synchronous run offers helper blocks to up to `threads − 1` workers
/// beside its committer, keyed the same way (its "steps" are those its
/// helpers ran).
fn pick(st: &State) -> Option<Pick> {
    let slices = st
        .jobs
        .iter()
        .filter(|(_, s)| matches!(s.state, SlotState::Ready) && s.job.is_some())
        .map(|(&id, s)| ((s.priority, s.tenant, s.steps, id), Pick::Slice(id)));
    let blocks = st
        .offers
        .iter()
        .filter(|(_, o)| o.helpers.0.room())
        .map(|(&key, o)| ((o.priority, o.tenant, o.steps, key), Pick::Help(key)));
    slices
        .chain(blocks)
        .min_by(|((pa, ta, sa, ia), _), ((pb, tb, sb, ib), _)| {
            pa.cmp(pb)
                .then_with(|| fair_key(st, *ta, *sa).total_cmp(&fair_key(st, *tb, *sb)))
                .then_with(|| sa.cmp(sb))
                .then_with(|| ia.cmp(ib))
        })
        .map(|(_, pick)| pick)
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn worker_loop(shared: &Arc<Shared>, slice_budget: u64, max_retries: u32) {
    loop {
        // ---- claim the next slice, helping fan-outs meanwhile ---------
        let (id, mut job) = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return;
                }
                match pick(&st) {
                    Some(Pick::Slice(id)) => {
                        let slot = st.jobs.get_mut(&id).expect("picked id exists");
                        slot.state = SlotState::Running;
                        let job = slot.job.take().expect("ready slot has a job");
                        // Offer its blocks (a deferred job fans out once
                        // its first slice has built it).
                        let (offered, priority, tenant) = (slot.offer, slot.priority, slot.tenant);
                        if let (None, Some(helpers)) = (offered, job.helpers()) {
                            helpers.0.attach(Arc::downgrade(shared));
                            let key = st.offer(helpers, priority, tenant);
                            st.jobs.get_mut(&id).expect("picked id exists").offer = Some(key);
                        }
                        break (id, job);
                    }
                    Some(Pick::Help(key)) => {
                        let offer = &st.offers[&key];
                        let (helpers, tenant) = (offer.helpers.clone(), offer.tenant);
                        drop(st);
                        let helped = helpers.0.help();
                        st = shared.lock();
                        if let Some((steps, park)) = helped {
                            if let Some(offer) = st.offers.get_mut(&key) {
                                offer.steps += steps;
                            }
                            if let Some(t) = tenant {
                                st.tenants[t as usize].attained += steps;
                            }
                            park();
                        }
                    }
                    None => {
                        st = shared
                            .work_cv
                            .wait(st)
                            .unwrap_or_else(PoisonError::into_inner)
                    }
                }
            }
        };

        // ---- run one slice on scratch state, outside the lock --------
        // Every job call — run_slice, finished, estimate — runs under
        // catch_unwind: a panic anywhere in user code (model step,
        // bootstrap variance, a custom SliceableQuery) must never kill
        // the worker thread, or the pool would silently stop serving.
        let sliced = catch_unwind(AssertUnwindSafe(|| job.run_slice(slice_budget)));
        let ran = sliced.as_ref().map_or(0, |outcome| outcome.steps);
        // `finished`/`estimate` can be expensive (bootstrap); also keep
        // them outside the lock. They only run when the slice succeeded,
        // so the job state is committed and consistent.
        let store = shared.store();
        let outcome = match sliced {
            Ok(_) => {
                let evaluated = catch_unwind(AssertUnwindSafe(|| {
                    if !job.finished() {
                        return None;
                    }
                    let estimate = job.estimate();
                    if let Some(store) = &store {
                        deposit(store, job.checkpoint(), || estimate);
                    }
                    Some(estimate)
                }));
                match evaluated {
                    Ok(Some(est)) => SliceResult::Finished(est),
                    Ok(None) => SliceResult::Progressed(job),
                    Err(payload) => SliceResult::Panicked(job, panic_message(payload)),
                }
            }
            Err(payload) => SliceResult::Panicked(job, panic_message(payload)),
        };

        // Write-ahead finish: journal the final estimate before the Done
        // status becomes observable below. Deliberately outside the
        // retried closure above — a hook panic here must degrade to "not
        // journaled" (recovery re-runs the query), never to a re-run of
        // the finished job.
        if let SliceResult::Finished(est) = &outcome {
            shared.with_hook(|h| h.finishing(id, est));
        }

        // Pause-park deposit: when a pause is pending, the parked job's
        // checkpoint is a warm-start candidate. Peek the flag without
        // holding the lock across the (possibly expensive) snapshot;
        // the race with a just-arriving pause only skips a best-effort
        // deposit, never loses state.
        let outcome = match outcome {
            SliceResult::Progressed(mut job) => {
                let (pause_pending, slices) = {
                    let st = shared.lock();
                    match st.jobs.get(&id) {
                        Some(s) => (s.pause_requested && !s.cancel_requested, s.slices + 1),
                        None => (false, 0),
                    }
                };
                if pause_pending {
                    if let Some(store) = &store {
                        deposit(store, job.checkpoint(), || job.estimate());
                    }
                }
                // Durability checkpoint opportunity: the job's committed
                // state at this instant is exactly what an uninterrupted
                // run carries into its next slice.
                shared.with_hook(|h| h.slice_committed(id, slices, job.as_mut()));
                SliceResult::Progressed(job)
            }
            other => other,
        };

        // ---- commit the transition -----------------------------------
        let mut st = shared.lock();
        let mut terminal = false;
        let mut discarded = false;
        let mut delta = SchedulerStats::default();
        let Some(slot) = st.jobs.get_mut(&id) else {
            continue; // slot vanished (not expected; drop the job)
        };
        let tenant = slot.tenant;
        match outcome {
            SliceResult::Finished(est) => {
                slot.slices += 1;
                if slot.cancel_requested {
                    slot.state = SlotState::Cancelled;
                    discarded = true;
                } else {
                    slot.steps = est.steps;
                    slot.n_roots = est.n_roots;
                    slot.state = SlotState::Done(est);
                    delta.completed += 1;
                }
                delta.slices += 1;
                terminal = true;
            }
            SliceResult::Progressed(job) => {
                slot.slices += 1;
                slot.steps = job.steps();
                slot.n_roots = job.n_roots();
                delta.slices += 1;
                if slot.cancel_requested {
                    slot.state = SlotState::Cancelled;
                    terminal = true;
                    discarded = true;
                } else if slot.pause_requested {
                    slot.pause_requested = false;
                    slot.job = Some(job);
                    slot.state = SlotState::Paused;
                } else {
                    slot.job = Some(job);
                    slot.state = SlotState::Ready;
                }
            }
            SliceResult::Panicked(job, msg) => {
                delta.panics += 1;
                slot.retries += 1;
                if slot.cancel_requested {
                    slot.state = SlotState::Cancelled;
                    terminal = true;
                    discarded = true;
                } else if slot.retries > max_retries {
                    slot.state = SlotState::Failed(format!(
                        "slice panicked {} time(s), giving up: {msg}",
                        slot.retries
                    ));
                    delta.failed += 1;
                    terminal = true;
                    discarded = true;
                } else {
                    // The slice ran on scratch state; the committed shard
                    // and cursor are intact — requeue for another attempt.
                    slot.job = Some(job);
                    slot.state = if slot.pause_requested {
                        slot.pause_requested = false;
                        SlotState::Paused
                    } else {
                        SlotState::Ready
                    };
                }
            }
        }
        if terminal && slot.finished_at.is_none() {
            slot.finished_at = Some(Instant::now());
        }
        if terminal || matches!(slot.state, SlotState::Paused) {
            st.withdraw(id);
        }
        // Fair-share accounting: charge the steps this slice ran to the
        // submitting tenant (warm-start steps carried in by the job are
        // not pool work; helper blocks were charged as they ran).
        if let Some(t) = tenant {
            let ts = &mut st.tenants[t as usize];
            ts.attained += ran;
            ts.completed += delta.completed;
        }
        st.stats.completed += delta.completed;
        st.stats.failed += delta.failed;
        st.stats.slices += delta.slices;
        st.stats.panics += delta.panics;
        drop(st);
        if discarded {
            shared.with_hook(|h| h.discarded(id));
        }
        if terminal {
            shared.done_cv.notify_all();
        } else {
            shared.work_cv.notify_one();
        }
    }
}

enum SliceResult {
    Finished(Estimate),
    Progressed(Box<dyn SliceableQuery>),
    Panicked(Box<dyn SliceableQuery>, String),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmlss::GMlssConfig;
    use crate::levels::PartitionPlan;
    use crate::model::Time;
    use crate::query::RatioValue;
    use crate::rng::{SimRng, StreamFactory};
    use crate::smlss::SMlssConfig;
    use crate::srs::SrsEstimator;
    use rand::RngExt;

    #[derive(Clone)]
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

    type Vf = RatioValue<fn(&f64) -> f64>;

    fn vf() -> Vf {
        fn score(s: &f64) -> f64 {
            *s
        }
        RatioValue::new(score as fn(&f64) -> f64, 1.0)
    }

    fn small_sched(workers: usize) -> Scheduler {
        Scheduler::new(SchedulerConfig {
            workers,
            slice_budget: 10_000,
            max_retries: 1,
            batch_width: 1,
            tenant_weights: Vec::new(),
        })
    }

    /// SRS counting its closing-estimate evaluations.
    struct CountedSrs(Arc<std::sync::atomic::AtomicUsize>);

    impl Estimator<Walk, Vf> for CountedSrs {
        type Shard = crate::srs::SrsShard;

        fn name(&self) -> &'static str {
            "counted-srs"
        }

        fn shard(&self) -> Self::Shard {
            Self::Shard::default()
        }

        fn run_chunk(
            &self,
            problem: Problem<'_, Walk, Vf>,
            shard: &mut Self::Shard,
            budget: u64,
            roots: &mut RootCursor,
            width: usize,
        ) -> ChunkOutcome {
            SrsEstimator.run_chunk(problem, shard, budget, roots, width)
        }

        fn estimate(&self, shard: &Self::Shard, rng: &mut SimRng) -> Estimate {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Estimator::<Walk, Vf>::estimate(&SrsEstimator, shard, rng)
        }
    }

    #[test]
    fn a_finished_run_evaluates_its_closing_estimate_once() {
        // With a store attached, one closing estimate is both deposited
        // and answered — for a finished query and a finished sync run.
        let sched = small_sched(1);
        sched.attach_shard_store(Arc::new(ShardStore::new(4)));
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let job = |fp: u64| {
            let estimator = CountedSrs(Arc::clone(&calls));
            let control = RunControl::budget(20_000);
            EstimatorQuery::from_seed(Walk { up: 0.48 }, vf(), 80, estimator, control, 5)
                .with_reuse_key(crate::shard_store::shard_key(fp, "srs", None))
        };
        let id = sched.submit_query(Box::new(job(1)), 0);
        assert!(sched.wait(id).unwrap().estimate().is_some());
        let calls_now = || calls.load(std::sync::atomic::Ordering::SeqCst);
        assert_eq!(calls_now(), 1, "finished query");
        sched.run(job(2), 0, None);
        assert_eq!(calls_now(), 2, "finished sync run");
        assert_eq!(sched.shard_store().unwrap().len(), 2, "both deposited");
    }

    #[test]
    fn single_query_completes_with_budget_semantics() {
        let sched = small_sched(2);
        let id = sched.submit(
            Walk { up: 0.48 },
            vf(),
            100,
            SrsEstimator,
            RunControl::budget(50_000),
            7,
            0,
        );
        let status = sched.wait(id).unwrap();
        let est = status.estimate().expect("query completes");
        assert!(est.steps >= 50_000);
        assert!(est.steps < 50_000 + 100, "one-root overshoot only");
        assert!((0.0..=1.0).contains(&est.tau));
        let progress = sched.progress(id).unwrap();
        assert!(progress.slices >= 5, "50k budget over 10k slices");
        assert_eq!(progress.steps, est.steps);
    }

    #[test]
    fn sliced_run_is_bit_identical_to_sequential() {
        // The scheduler's slicing must be invisible: same stream, same
        // counters, same estimate as one uninterrupted sequential run.
        let model = Walk { up: 0.48 };
        let v = vf();
        let problem = Problem::new(&model, &v, 80);
        let control = RunControl::budget(60_000);
        let seed = 11u64;

        let seq = crate::estimator::run_sequential(
            &SrsEstimator,
            problem,
            control,
            &mut StreamFactory::new(seed).stream(0),
        );

        let sched = small_sched(1);
        let id = sched.submit(model.clone(), v, 80, SrsEstimator, control, seed, 0);
        let est = *sched.wait(id).unwrap().estimate().unwrap();
        assert_eq!(est.steps, seq.estimate.steps);
        assert_eq!(est.n_roots, seq.estimate.n_roots);
        assert_eq!(est.hits, seq.estimate.hits);
        assert_eq!(est.tau.to_bits(), seq.estimate.tau.to_bits());
    }

    #[test]
    fn concurrent_queries_all_complete() {
        let sched = small_sched(3);
        let mut ids = Vec::new();
        for k in 0..8u64 {
            ids.push(sched.submit(
                Walk {
                    up: 0.45 + 0.005 * k as f64,
                },
                vf(),
                60,
                SrsEstimator,
                RunControl::budget(30_000),
                k,
                0,
            ));
        }
        for id in ids {
            let est = *sched.wait(id).unwrap().estimate().unwrap();
            assert!(est.steps >= 30_000);
            assert!((0.0..=1.0).contains(&est.tau));
        }
        let stats = sched.stats();
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn smlss_runs_through_the_scheduler() {
        let sched = small_sched(2);
        let cfg = SMlssConfig::new(
            PartitionPlan::new(vec![0.4, 0.7]).unwrap(),
            RunControl::budget(1),
        );
        let id = sched.submit(
            Walk { up: 0.48 },
            vf(),
            80,
            cfg,
            RunControl::budget(100_000),
            3,
            0,
        );
        let est = *sched.wait(id).unwrap().estimate().unwrap();
        assert!(est.steps >= 100_000);
        assert!(est.variance.is_finite());
    }

    #[test]
    fn pause_checkpoint_resume_preserves_work() {
        let sched = small_sched(1);
        // A long query we pause mid-flight.
        let id = sched.submit(
            Walk { up: 0.48 },
            vf(),
            100,
            SrsEstimator,
            RunControl::budget(2_000_000),
            5,
            0,
        );
        // Wait until some progress exists, then pause.
        loop {
            let p = sched.progress(id).unwrap();
            if p.steps > 0 {
                break;
            }
            std::thread::yield_now();
        }
        assert!(sched.pause(id));
        // Drain to the paused state (the running slice must retire).
        let paused_steps = loop {
            let p = sched.progress(id).unwrap();
            if matches!(p.status, QueryStatus::Paused) {
                break p.steps;
            }
            std::thread::yield_now();
        };
        assert!(paused_steps > 0);
        // While paused, no progress accrues.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(sched.progress(id).unwrap().steps, paused_steps);

        // Checkpoint: detach the job, inspect it, and resubmit.
        let job = sched.detach(id).expect("paused job detaches");
        assert_eq!(job.steps(), paused_steps);
        let id2 = sched.submit_query(job, 0);
        let est = *sched.wait(id2).unwrap().estimate().unwrap();
        assert!(est.steps >= 2_000_000, "resumed run finishes the budget");
    }

    #[test]
    fn detached_checkpoint_resumes_on_a_fanned_run() {
        // A checkpoint taken from the scheduler continues as a
        // synchronous fanned-out run to exactly the uninterrupted run.
        let sched = small_sched(1);
        let control = RunControl::budget(1_000_000);
        let id = sched.submit(Walk { up: 0.48 }, vf(), 100, SrsEstimator, control, 9, 0);
        loop {
            let p = sched.progress(id).unwrap();
            if p.steps > 0 {
                break;
            }
            std::thread::yield_now();
        }
        sched.pause(id);
        loop {
            if matches!(sched.progress(id).unwrap().status, QueryStatus::Paused) {
                break;
            }
            std::thread::yield_now();
        }
        let job = sched.detach(id).unwrap();
        let query = job
            .into_any()
            .downcast::<EstimatorQuery<Walk, Vf, SrsEstimator>>()
            .expect("known concrete type");
        let (shard, cursor) = query.into_parts();
        assert!(shard.steps() > 0);

        let pool = small_sched(2);
        let resumed = EstimatorQuery::from_parts(
            Walk { up: 0.48 },
            vf(),
            100,
            SrsEstimator,
            control,
            shard,
            cursor,
        )
        .with_threads(2);
        let resumed = pool.run(resumed, 0, None);
        let whole = fanned(&pool, SrsEstimator, 100, control, 9, 2, 1);
        assert_eq!(resumed.estimate.steps, whole.estimate.steps);
        assert_eq!(resumed.estimate.hits, whole.estimate.hits);
        assert_eq!(resumed.cursor, whole.cursor);
    }

    fn re_target(target: f64) -> RunControl {
        RunControl::Target {
            target: QualityTarget::RelativeError {
                target,
                reference: None,
            },
            check_every: 64,
            max_steps: 50_000_000,
        }
    }

    /// A synchronous run of `estimator` on `pool`, keyed by `seed`, with
    /// at most `threads` threads at `width`.
    fn fanned<E>(
        pool: &Scheduler,
        estimator: E,
        horizon: u64,
        control: RunControl,
        seed: u64,
        threads: usize,
        width: usize,
    ) -> EstimatorRun<E::Shard>
    where
        E: Estimator<Walk, Vf> + Send + 'static,
        E::Shard: Clone,
    {
        let job =
            EstimatorQuery::from_seed(Walk { up: 0.48 }, vf(), horizon, estimator, control, seed)
                .with_batch_width(width)
                .with_threads(threads);
        pool.run(job, 0, None)
    }

    fn assert_same(what: &str, a: &Estimate, b: &Estimate) {
        assert_eq!(a.steps, b.steps, "{what}: steps");
        assert_eq!(a.n_roots, b.n_roots, "{what}: roots");
        assert_eq!(a.hits, b.hits, "{what}: hits");
        assert_eq!(a.tau.to_bits(), b.tau.to_bits(), "{what}: tau");
        assert_eq!(
            a.variance.to_bits(),
            b.variance.to_bits(),
            "{what}: variance"
        );
    }

    fn check_threads<E>(estimator: E, control: RunControl, seed: u64)
    where
        E: Estimator<Walk, Vf> + Clone + Send + 'static,
        E::Shard: Clone + 'static,
    {
        let model = Walk { up: 0.48 };
        let v = vf();
        let problem = Problem::new(&model, &v, 60);
        let mut stream = StreamFactory::new(seed).stream(0);
        let seq = crate::estimator::run_sequential(&estimator, problem, control, &mut stream);
        for workers in [1, 2] {
            let pool = small_sched(workers);
            for (threads, width) in [(1, 1), (2, 1), (3, 16), (4, 5)] {
                let what = format!("{workers} workers, {threads} threads x {width}");
                let run = fanned(&pool, estimator.clone(), 60, control, seed, threads, width);
                assert_same(&what, &seq.estimate, &run.estimate);
                assert_eq!(seq.cursor, run.cursor, "{what}: cursor");
                let job = EstimatorQuery::from_seed(
                    model.clone(),
                    v,
                    60,
                    estimator.clone(),
                    control,
                    seed,
                )
                .with_batch_width(width)
                .with_threads(threads);
                let id = pool.submit_query(Box::new(job), 0);
                let est = *pool.wait(id).unwrap().estimate().unwrap();
                assert_same(&format!("{what} ASYNC"), &seq.estimate, &est);
            }
        }
    }

    #[test]
    fn every_thread_count_is_bit_identical_to_sequential() {
        let plan = PartitionPlan::new(vec![0.4, 0.7]).unwrap();
        let gmlss = GMlssConfig::new(plan, RunControl::budget(1));
        check_threads(SrsEstimator, RunControl::budget(150_000), 9);
        check_threads(SrsEstimator, re_target(0.2), 10);
        check_threads(gmlss.clone(), RunControl::budget(150_000), 11);
        check_threads(gmlss, re_target(0.2), 12);
    }

    #[test]
    fn fanned_budget_run_keeps_the_merged_ledger() {
        let mut base = GMlssConfig::new(
            PartitionPlan::new(vec![0.4, 0.7]).unwrap(),
            RunControl::budget(1), // superseded by the run's control
        );
        base.keep_ledger = true;
        let res = fanned(
            &small_sched(2),
            base,
            100,
            RunControl::budget(400_000),
            7,
            4,
            1,
        );
        assert!(res.estimate.steps >= 400_000);
        assert!(
            res.estimate.steps < 400_000 + 100,
            "one-root overshoot only"
        );
        assert_eq!(res.shard.ledger.n_roots() as u64, res.estimate.n_roots);
        assert!(res.estimate.tau > 0.0, "walk does hit sometimes");
        assert!(res.estimate.variance.is_finite());
    }

    #[test]
    fn a_resumed_run_continues_the_same_trajectory() {
        // A checkpoint cut mid-chunk (as a scheduler slice cuts one) and
        // finished on three threads equals the uninterrupted run.
        let model = Walk { up: 0.48 };
        let v = vf();
        let problem = Problem::new(&model, &v, 60);
        let control = re_target(0.15);
        let pool = small_sched(2);
        let whole = fanned(&pool, SrsEstimator, 60, control, 21, 2, 8);
        let mut cursor = RunCursor::from_seed(21);
        let mut shard = crate::srs::SrsShard::default();
        let end = cursor.open_chunk(&control, &shard, 60).unwrap();
        SrsEstimator.run_chunk(problem, &mut shard, end / 2, &mut cursor.roots, 1);
        assert!(shard.steps < end);
        let job = EstimatorQuery::from_parts(model, v, 60, SrsEstimator, control, shard, cursor)
            .with_batch_width(4)
            .with_threads(3);
        let resumed = pool.run(job, 0, None);
        assert_same("resumed", &whole.estimate, &resumed.estimate);
        assert_eq!(whole.cursor, resumed.cursor);
    }

    /// A walk whose model fails on one step in ten thousand.
    #[derive(Clone)]
    struct Bomb;

    impl SimulationModel for Bomb {
        type State = f64;
        fn initial_state(&self) -> f64 {
            0.0
        }
        fn step(&self, s: &f64, _t: Time, rng: &mut SimRng) -> f64 {
            assert!(rng.random::<f64>() > 1e-4, "injected model failure");
            *s
        }
    }

    #[test]
    fn a_panicking_helper_ends_the_run_instead_of_hanging_it() {
        quiet_injected_panics();
        let pool = small_sched(2);
        let control = RunControl::budget(10_000_000);
        let job = || {
            EstimatorQuery::from_seed(Bomb, vf(), 50, SrsEstimator, control, 1)
                .with_batch_width(4)
                .with_threads(3)
        };
        let run = catch_unwind(AssertUnwindSafe(|| pool.run(job(), 0, None)));
        assert!(run.is_err(), "the model failure reaches the caller");
        let id = pool.submit_query(Box::new(job()), 0);
        assert!(matches!(pool.wait(id), Some(QueryStatus::Failed(_))));
    }

    #[test]
    fn fanned_target_mode_stops_on_quality() {
        let base = GMlssConfig::new(
            PartitionPlan::new(vec![0.5]).unwrap(),
            RunControl::budget(1),
        );
        let res = fanned(&small_sched(2), base, 60, re_target(0.25), 13, 2, 1);
        assert!(res.estimate.self_relative_error() <= 0.25);
    }

    #[test]
    fn cancel_stops_a_query() {
        let sched = small_sched(1);
        // Saturate the single worker with a long query…
        let long = sched.submit(
            Walk { up: 0.48 },
            vf(),
            100,
            SrsEstimator,
            RunControl::budget(100_000_000),
            1,
            0,
        );
        // …and cancel a queued one plus the running one.
        let queued = sched.submit(
            Walk { up: 0.48 },
            vf(),
            100,
            SrsEstimator,
            RunControl::budget(100_000_000),
            2,
            1,
        );
        assert!(sched.cancel(queued));
        assert!(matches!(
            sched.poll(queued).unwrap(),
            QueryStatus::Cancelled
        ));
        assert!(sched.cancel(long));
        let status = sched.wait(long).unwrap();
        assert!(matches!(status, QueryStatus::Cancelled));
        // Terminal: cancelling again reports false.
        assert!(!sched.cancel(long));
    }

    #[test]
    fn least_attained_scheduling_lets_cheap_queries_finish_first() {
        // One worker, an expensive query submitted *before* a cheap one:
        // FIFO would finish the expensive query first; least-attained
        // slicing must complete the cheap one long before.
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            slice_budget: 5_000,
            max_retries: 0,
            batch_width: 1,
            tenant_weights: Vec::new(),
        });
        let expensive = sched.submit(
            Walk { up: 0.48 },
            vf(),
            100,
            SrsEstimator,
            RunControl::budget(3_000_000),
            1,
            0,
        );
        let cheap = sched.submit(
            Walk { up: 0.48 },
            vf(),
            100,
            SrsEstimator,
            RunControl::budget(20_000),
            2,
            0,
        );
        let cheap_est = *sched.wait(cheap).unwrap().estimate().unwrap();
        // The expensive query must still be in flight when the cheap one
        // finishes (it needs 150 slices; the cheap one 4).
        let p = sched.progress(expensive).unwrap();
        assert!(
            !p.status.is_terminal(),
            "expensive query should still be running"
        );
        assert!(cheap_est.steps >= 20_000);
        let exp_est = *sched.wait(expensive).unwrap().estimate().unwrap();
        assert!(exp_est.steps >= 3_000_000);
    }

    /// A custom job whose `finished` hook panics — user code outside
    /// `run_slice` must be contained just the same.
    struct FinishedPanics {
        steps: u64,
    }

    impl SliceableQuery for FinishedPanics {
        fn name(&self) -> &'static str {
            "finished-panics"
        }

        fn run_slice(&mut self, budget: u64) -> ChunkOutcome {
            self.steps += budget;
            ChunkOutcome {
                steps: budget,
                roots: 1,
            }
        }

        fn finished(&mut self) -> bool {
            panic!("injected finished panic");
        }

        fn estimate(&mut self) -> Estimate {
            unreachable!("finished always panics first")
        }

        fn steps(&self) -> u64 {
            self.steps
        }

        fn n_roots(&self) -> u64 {
            1
        }

        fn diagnostics(&self) -> Diagnostics {
            Diagnostics::none(self.name())
        }

        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    fn quiet_injected_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if !format!("{info}").contains("injected") {
                    default(info);
                }
            }));
        });
    }

    #[test]
    fn panic_in_finished_fails_the_query_not_the_pool() {
        quiet_injected_panics();
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            slice_budget: 1_000,
            max_retries: 0,
            batch_width: 1,
            tenant_weights: Vec::new(),
        });
        let doomed = sched.submit_query(Box::new(FinishedPanics { steps: 0 }), 0);
        let status = sched.wait(doomed).unwrap();
        match status {
            QueryStatus::Failed(msg) => assert!(msg.contains("injected finished panic"), "{msg}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        // The single worker survived: a healthy query still completes.
        let ok = sched.submit(
            Walk { up: 0.48 },
            vf(),
            50,
            SrsEstimator,
            RunControl::budget(10_000),
            1,
            0,
        );
        assert!(sched.wait(ok).unwrap().estimate().is_some());
        assert_eq!(sched.stats().failed, 1);
        assert_eq!(sched.stats().completed, 1);
    }

    #[test]
    fn evict_terminal_frees_slots_and_reports_latency() {
        let sched = small_sched(2);
        let mut ids = Vec::new();
        for k in 0..3u64 {
            ids.push(sched.submit(
                Walk { up: 0.48 },
                vf(),
                50,
                SrsEstimator,
                RunControl::budget(15_000),
                k,
                0,
            ));
        }
        for &id in &ids {
            sched.wait(id).unwrap();
            // Completed queries report a frozen serving latency.
            let p = sched.progress(id).unwrap();
            assert!(p.status.is_terminal());
            let first = p.elapsed;
            std::thread::sleep(std::time::Duration::from_millis(5));
            assert_eq!(
                sched.progress(id).unwrap().elapsed,
                first,
                "terminal elapsed must not keep growing"
            );
        }
        assert_eq!(sched.evict_terminal(), 3);
        for id in ids {
            assert!(sched.poll(id).is_none(), "evicted ids become unknown");
        }
        assert_eq!(sched.evict_terminal(), 0);
    }

    /// Submit a long walk query charged to `tenant` and return its id.
    fn submit_for(sched: &Scheduler, tenant: TenantId, budget: u64) -> QueryId {
        submit_fanned_for(sched, tenant, budget, 1)
    }

    /// [`submit_for`] with at most `threads` threads on the query.
    fn submit_fanned_for(
        sched: &Scheduler,
        tenant: TenantId,
        budget: u64,
        threads: usize,
    ) -> QueryId {
        let job = EstimatorQuery::from_seed(
            Walk { up: 0.48 },
            vf(),
            100,
            SrsEstimator,
            RunControl::budget(budget),
            tenant as u64 + 1,
        )
        .with_threads(threads);
        sched.submit_query_as(Box::new(job), 0, Some(tenant))
    }

    #[test]
    fn equal_weight_tenants_attain_balanced_service_despite_query_flood() {
        // Tenant A floods four queries, tenant B submits one. Per-query
        // least-attained would give A ~4x the service; per-tenant
        // fair-share must keep the split near 1:1 while both are active.
        // Flooding with `threads=2` must not change that: a fanned-out
        // committer is charged the steps it runs, as any slice is.
        for threads in [1, 2] {
            let sched = Scheduler::new(SchedulerConfig {
                workers: 1,
                slice_budget: 5_000,
                max_retries: 0,
                batch_width: 1,
                tenant_weights: vec![("alpha".into(), 1.0), ("beta".into(), 1.0)],
            });
            let a = sched.ensure_tenant("alpha");
            let b = sched.ensure_tenant("beta");
            let b_id = submit_for(&sched, b, 300_000);
            for _ in 0..4 {
                submit_fanned_for(&sched, a, 5_000_000, threads);
            }
            sched.wait(b_id).unwrap();
            let stats = sched.tenant_stats();
            let att_a = stats[a as usize].attained_steps as f64;
            let att_b = stats[b as usize].attained_steps as f64;
            assert!(att_b >= 300_000.0);
            let ratio = att_a.max(att_b) / att_a.min(att_b).max(1.0);
            assert!(
                ratio <= 1.5,
                "threads={threads}: equal weights must attain service within 1.5x: \
                 A={att_a} B={att_b}"
            );
        }
    }

    #[test]
    fn helper_steps_are_charged_to_the_tenant() {
        // Every committed step was run — in place by the committer or in a
        // helper's block — and charged as it ran; discarded look-ahead is
        // charged too, so the tenant pays at least the committed steps.
        let sched = small_sched(2);
        let tenant = sched.ensure_tenant("alpha");
        let id = submit_fanned_for(&sched, tenant, 400_000, 2);
        let est = *sched.wait(id).unwrap().estimate().unwrap();
        assert!(sched.tenant_stats()[tenant as usize].attained_steps >= est.steps);
    }

    #[test]
    fn weighted_tenant_attains_proportionally_more_service() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            slice_budget: 5_000,
            max_retries: 0,
            batch_width: 1,
            tenant_weights: vec![("gold".into(), 4.0), ("basic".into(), 1.0)],
        });
        let gold = sched.ensure_tenant("gold");
        let basic = sched.ensure_tenant("basic");
        let basic_id = submit_for(&sched, basic, 200_000);
        let gold_id = submit_for(&sched, gold, 5_000_000);
        sched.wait(basic_id).unwrap();
        let stats = sched.tenant_stats();
        let att_gold = stats[gold as usize].attained_steps as f64;
        let att_basic = stats[basic as usize].attained_steps as f64;
        assert!(
            att_gold >= 2.0 * att_basic,
            "4:1 weights must show a clearly weighted split: gold={att_gold} basic={att_basic}"
        );
        sched.cancel(gold_id);
        let diag = sched.tenant_diagnostics().expect("tenants registered");
        assert_eq!(diag.estimator, "tenants");
        assert!(diag
            .details
            .iter()
            .any(|(k, v)| k == "gold.weight" && *v == 4.0));
    }

    #[test]
    fn tenantless_submissions_keep_legacy_ordering_and_charge_nobody() {
        let sched = small_sched(1);
        let id = sched.submit(
            Walk { up: 0.48 },
            vf(),
            100,
            SrsEstimator,
            RunControl::budget(20_000),
            1,
            0,
        );
        sched.wait(id).unwrap();
        assert!(sched.tenant_stats().is_empty());
        assert!(sched.tenant_diagnostics().is_none());
    }

    #[test]
    fn unknown_ids_are_handled() {
        let sched = small_sched(1);
        assert!(sched.poll(999).is_none());
        assert!(sched.progress(999).is_none());
        assert!(sched.wait(999).is_none());
        assert!(!sched.cancel(999));
        assert!(!sched.pause(999));
        assert!(!sched.resume(999));
        assert!(sched.detach(999).is_none());
    }
}
