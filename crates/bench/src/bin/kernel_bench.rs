//! Batched-kernel microbenchmark: steps/s of the scalar→batch adapter vs
//! each model's native `step_batch` across frontier widths.
//!
//! For every (model, width) cell the harness steps a full-occupancy
//! cohort (all lanes alive, one private RNG per lane — exactly the
//! frontier's hot loop) through the same total number of `g`
//! invocations, once through [`ScalarAdapter`] (which forces the default
//! per-lane scalar loop) and once through the native kernel.
//!
//! Run with `--full` for larger totals (the committed CHANGES.md table);
//! the default profile keeps CI fast.

use mlss_core::estimator::run_sequential_batched;
use mlss_core::model::{ScalarAdapter, SimulationModel, Time};
use mlss_core::prelude::{Estimator, Problem, RatioValue, RunControl, SrsEstimator, ValueFunction};
use mlss_core::rng::{rng_from_seed, RootCursor, SimRng};
use mlss_core::simd::Backend;
use mlss_core::width::{self, KernelClass};
use mlss_models::{
    price_score, surplus_score, CompoundPoisson, GeometricBrownian, MarkovChain, RandomWalk,
};
use mlss_nn::model::{NetConfig, RnnStockModel};
use std::time::Instant;

const WIDTHS: [usize; 4] = [1, 8, 64, 256];

/// Steps/s of `model.step_batch` at the given width over `total_steps`
/// `g` invocations (all lanes alive).
fn throughput<M: SimulationModel>(model: &M, width: usize, total_steps: u64) -> f64 {
    let mut lanes: Vec<M::State> = (0..width).map(|_| model.initial_state()).collect();
    let mut rngs: Vec<SimRng> = (0..width).map(|k| rng_from_seed(k as u64)).collect();
    let ts: Vec<Time> = vec![1; width];
    let alive: Vec<usize> = (0..width).collect();
    let batch_steps = (total_steps / width as u64).max(1);

    // Warmup: a tenth of the run, untimed.
    for _ in 0..batch_steps / 10 {
        model.step_batch(&mut lanes, &ts, &mut rngs, &alive);
    }
    let start = Instant::now();
    for _ in 0..batch_steps {
        model.step_batch(&mut lanes, &ts, &mut rngs, &alive);
    }
    let elapsed = start.elapsed().as_secs_f64();
    (batch_steps * width as u64) as f64 / elapsed
}

fn fmt_rate(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.2} Msteps/s", rate / 1e6)
    } else {
        format!("{:.1} Ksteps/s", rate / 1e3)
    }
}

/// Bench one model; returns the best native-vs-adapter speedup observed
/// at width ≥ 64.
fn bench_model<M: SimulationModel>(name: &str, model: &M, total_steps: u64) -> f64 {
    let mut best_wide_speedup: f64 = 0.0;
    for &w in &WIDTHS {
        let adapter = throughput(&ScalarAdapter(model), w, total_steps);
        let native = throughput(model, w, total_steps);
        let speedup = native / adapter;
        if w >= 64 {
            best_wide_speedup = best_wide_speedup.max(speedup);
        }
        println!(
            "| {name} | {w} | {} | {} | **{speedup:.2}x** |",
            fmt_rate(adapter),
            fmt_rate(native),
        );
    }
    best_wide_speedup
}

/// Best-of-`reps` wall time and the (deterministic, seeded) number of
/// discarded speculative roots of one driver run at `width`.
fn timed_driver_run<M, V>(
    problem: Problem<'_, M, V>,
    budget: u64,
    width: usize,
    reps: usize,
) -> (f64, u64)
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
{
    let mut best = f64::INFINITY;
    let mut discarded = 0u64;
    for _ in 0..reps {
        width::take_thread_stats();
        let t0 = Instant::now();
        let out = run_sequential_batched(
            &SrsEstimator,
            problem,
            RunControl::budget(budget),
            &mut rng_from_seed(9),
            width,
        );
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(out.estimate.steps);
        discarded = width::take_thread_stats().discarded();
        best = best.min(dt);
    }
    (best, discarded)
}

/// The width the policy resolves `auto` to for this problem: the static
/// table for cheap kernels, a micro-probe over the class's candidate
/// widths otherwise — the same resolution the session layer runs.
fn auto_width<M, V>(problem: Problem<'_, M, V>) -> usize
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
{
    let class = problem.model.kernel_class();
    if class == KernelClass::Cheap {
        return width::static_width(class, problem.horizon);
    }
    width::calibrate(class.probe_candidates(), |w| {
        let mut shard = <SrsEstimator as Estimator<M, V>>::shard(&SrsEstimator);
        SrsEstimator.run_chunk(problem, &mut shard, 4096, &mut RootCursor::new(0xBEEF), w);
    })
}

/// One width-policy table row: this query driven at static 64 vs at the
/// width `auto` resolves to; accumulates into
/// `(static_total, auto_total, static_discard, auto_discard)`.
fn policy_row<M, V>(
    name: &str,
    problem: Problem<'_, M, V>,
    budget: u64,
    totals: &mut (f64, f64, u64, u64),
) where
    M: SimulationModel,
    V: ValueFunction<M::State>,
{
    let w = auto_width(problem);
    let class = problem.model.kernel_class();
    let (t64, d64) = timed_driver_run(problem, budget, 64, 3);
    let (ta, da) = timed_driver_run(problem, budget, w, 3);
    println!(
        "| {name} | {class:?} | {w} | {:.1} ms | {:.1} ms | **{:.2}x** | {d64} | {da} |",
        t64 * 1e3,
        ta * 1e3,
        t64 / ta,
    );
    totals.0 += t64;
    totals.1 += ta;
    totals.2 += d64;
    totals.3 += da;
}

/// The width-policy rows: a mixed workload driven at a static width 64
/// vs at the width `auto` resolves to per query. Returns
/// `(static_total, auto_total, static_discard, auto_discard)`.
fn bench_width_policy(scale: u64) -> (f64, f64, u64, u64) {
    println!();
    println!("## width policy — `batch_width=auto` vs static 64 (driver wall time, best of 3)");
    println!();
    println!(
        "| query | class | auto width | static-64 | auto | speedup | discard-64 | discard-auto |"
    );
    println!("|---|---|---|---|---|---|---|---|");

    let mut totals = (0.0f64, 0.0f64, 0u64, 0u64);

    // Cheap lookup kernel, small budget: the narrow static width wins
    // by not launching a 64-lane cohort near the budget boundary.
    let markov = MarkovChain::birth_death(32, 0.3, 0.3, 0);
    fn markov_score(s: &usize) -> f64 {
        *s as f64
    }
    let mv: RatioValue<fn(&usize) -> f64> =
        RatioValue::new(markov_score as fn(&usize) -> f64, 31.0);
    policy_row(
        "markov, tight budget",
        Problem::new(&markov, &mv, 50),
        30_000 * scale,
        &mut totals,
    );

    // SIMD-hot long-horizon kernels: the probe goes wide.
    let cpp = CompoundPoisson::paper_default();
    let cv: RatioValue<fn(&f64) -> f64> = RatioValue::new(surplus_score as fn(&f64) -> f64, 40.0);
    policy_row(
        "cpp, long run",
        Problem::new(&cpp, &cv, 80),
        400_000 * scale,
        &mut totals,
    );

    let gbm = GeometricBrownian::goog_like();
    let gv: RatioValue<fn(&f64) -> f64> = RatioValue::new(price_score as fn(&f64) -> f64, 560.0);
    policy_row(
        "gbm, long run",
        Problem::new(&gbm, &gv, 200),
        400_000 * scale,
        &mut totals,
    );

    println!();
    println!(
        "mixed workload total: static-64 {:.1} ms, auto {:.1} ms (**{:.2}x**); \
         discarded speculation {} -> {} roots",
        totals.0 * 1e3,
        totals.1 * 1e3,
        totals.0 / totals.1,
        totals.2,
        totals.3,
    );
    totals
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let width_only = std::env::args().any(|a| a == "--width");
    let scale: u64 = if full { 4 } else { 1 };

    if width_only {
        let (t64, ta, d64, da) = bench_width_policy(scale);
        assert!(
            ta <= t64 * 1.10,
            "auto width regressed the mixed workload: {ta:.3}s vs static-64 {t64:.3}s"
        );
        assert!(
            da <= d64,
            "auto width must not discard more speculation: {da} vs {d64}"
        );
        return;
    }

    println!("# kernel_bench — scalar-adapter vs native-batch steps/s");
    println!();
    println!(
        "profile: {}; widths {:?}; one RNG stream per lane (the frontier's hot loop); \
         SIMD backend: {} (MLSS_SIMD overrides)",
        if full { "--full" } else { "quick" },
        WIDTHS,
        Backend::active(),
    );
    println!();
    println!("| model | width | scalar adapter | native batch | speedup |");
    println!("|---|---|---|---|---|");

    let cpp = CompoundPoisson::paper_default();
    let cpp_best = bench_model("cpp", &cpp, 1_000_000 * scale);

    let walk = RandomWalk::new(0.3, 0.3, 0).reflected();
    let walk_best = bench_model("walk", &walk, 4_000_000 * scale);

    let gbm = GeometricBrownian::goog_like();
    let gbm_best = bench_model("gbm", &gbm, 2_000_000 * scale);

    // A genuinely trained (small) LSTM-MDN so the batched forward pass
    // runs the real inference path.
    let mut rng = rng_from_seed(2015);
    let prices = mlss_models::synthetic_price_series(320, &mut rng);
    let cfg = NetConfig {
        hidden: 32,
        mixtures: 3,
        seq_len: 20,
        epochs: 4,
        lr: 3e-3,
        grad_clip: 5.0,
    };
    let (rnn, _) = RnnStockModel::train_on_prices(&prices, &cfg, &mut rng);
    let rnn_best = bench_model("rnn (H=32)", &rnn, 60_000 * scale);

    // Paper-scale forward pass (the paper stacks 256-unit LSTM layers;
    // DESIGN.md substitution 2 trains small for CI speed). Weights are
    // random — sampling cost is weight-value-independent — so this rows'
    // numbers are the serving cost of the full-size network, where the
    // 2 MB recurrent matrix no longer fits near the core and the scalar
    // path re-streams it per path per step.
    let big = RnnStockModel {
        net: mlss_nn::model::LstmMdn::new(&NetConfig { hidden: 256, ..cfg }, &mut rng),
        initial_price: 500.0,
        scale: 0.02,
        return_clamp: 4.0,
    };
    let big_best = bench_model("rnn (H=256, paper scale)", &big, 6_000 * scale);

    println!();
    let best = cpp_best
        .max(walk_best)
        .max(gbm_best)
        .max(rnn_best)
        .max(big_best);
    let closed_form_best = cpp_best.max(walk_best).max(gbm_best);
    println!(
        "best native-batch speedup at width ≥ 64: **{best:.2}x** \
         (closed-form models: **{closed_form_best:.2}x**; acceptance: \
         ≥ 2x overall, ≥ 1.5x closed-form on a SIMD backend)"
    );
    // Regression guards, deliberately loose for noisy CI runners — the
    // committed table documents the real margins. The overall guard is
    // carried by the (backend-independent) RNN kernel; the closed-form
    // guard pins the vectorized draw pipeline specifically, so a silent
    // fallback to scalar (e.g. a broken `pipeline_engaged`) fails CI on
    // the SIMD legs rather than hiding behind the RNN's margin.
    assert!(
        best >= 1.2,
        "native batch kernels regressed: best wide-width speedup {best:.2}x"
    );
    if Backend::active() > Backend::Scalar {
        assert!(
            closed_form_best >= 1.5,
            "vectorized draw pipeline regressed on backend {}: best \
             closed-form wide-width speedup {closed_form_best:.2}x (< 1.5x)",
            Backend::active(),
        );
    }

    // The cross-lane Knuth acceptance point: cpp at the frontier's
    // production width of 64, best of 3 to shave scheduler noise. The
    // committed table documents the real margin (~1.5x median on AVX2);
    // the guard is loose for noisy CI runners.
    let mut cpp64_adapter = 0.0f64;
    let mut cpp64_native = 0.0f64;
    for _ in 0..3 {
        cpp64_adapter = cpp64_adapter.max(throughput(&ScalarAdapter(&cpp), 64, 1_000_000 * scale));
        cpp64_native = cpp64_native.max(throughput(&cpp, 64, 1_000_000 * scale));
    }
    let cpp64 = cpp64_native / cpp64_adapter;
    println!();
    println!(
        "cpp cross-lane Knuth at width 64 (best of 3): adapter {}, native {} — **{cpp64:.2}x**",
        fmt_rate(cpp64_adapter),
        fmt_rate(cpp64_native),
    );
    if full && Backend::active() >= Backend::Avx2 {
        assert!(
            cpp64 >= 1.25,
            "cpp cross-lane sampler regressed at width 64: {cpp64:.2}x"
        );
    }

    if full {
        let (t64, ta, d64, da) = bench_width_policy(scale);
        assert!(
            ta <= t64 * 1.10,
            "auto width regressed the mixed workload: {ta:.3}s vs static-64 {t64:.3}s"
        );
        assert!(
            da <= d64,
            "auto width must not discard more speculation: {da} vs {d64}"
        );
    }
}
