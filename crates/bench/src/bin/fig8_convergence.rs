//! Figure 8: query answer quality over time — convergence of the running
//! estimate and its CI/RE for SRS vs MLSS on (1) Queue/Small with CI,
//! (2) CPP/Tiny with RE, (3) RNN/Tiny with RE.
//!
//! The CSV series (`results/fig8_convergence.csv`) holds one row per
//! checkpoint: `panel, sampler, steps, tau, quality` where `quality` is
//! the CI half-width relative to τ̂ (panel 1) or the relative error
//! (panels 2-3).
//!
//! Usage: `cargo run --release -p mlss-bench --bin fig8_convergence [--full]`

use mlss_bench::rnn::trained_rnn;
use mlss_bench::settings::{cpp_specs, default_levels, queue_specs, rnn_specs, QueryClass};
use mlss_bench::{balanced_for, Profile, Report, DEFAULT_RATIO};
use mlss_core::prelude::*;
use mlss_core::stats::z_critical;
use mlss_models::{queue2_score, surplus_score, CompoundPoisson, TandemQueue};
use mlss_nn::rnn_price_score;

/// Record roughly this many checkpoints per run.
const POINTS: usize = 60;

struct Series {
    rows: Vec<(String, String, u64, f64, f64)>,
}

impl Series {
    /// Run `estimator` for `budget` steps in chunks of about
    /// `budget / POINTS`, recording the running estimate after each.
    #[allow(clippy::too_many_arguments)]
    fn trace<M, V, E>(
        &mut self,
        panel: &str,
        sampler: &str,
        problem: Problem<'_, M, V>,
        estimator: &E,
        budget: u64,
        use_ci: bool,
        seed: u64,
    ) where
        M: SimulationModel,
        V: ValueFunction<M::State>,
        E: Estimator<M, V>,
    {
        let every = (budget / POINTS as u64).max(1);
        let mut next = every;
        let mut roots = RootCursor::from_rng(&mut rng_from_seed(seed));
        let mut shard = estimator.shard();
        for check in 0.. {
            if shard.steps() >= budget {
                break;
            }
            let chunk = next.min(budget).saturating_sub(shard.steps()).max(1);
            estimator.run_chunk(problem, &mut shard, chunk, &mut roots, 1);
            let est = estimator.check_estimate(&mut shard, &mut roots.check_stream(check));
            if est.steps >= next && est.hits > 0 {
                next += every;
                let quality = if use_ci {
                    z_critical(0.95) * est.std_err() / est.tau
                } else {
                    est.self_relative_error()
                };
                self.rows.push((
                    panel.to_string(),
                    sampler.to_string(),
                    est.steps,
                    est.tau,
                    quality,
                ));
            }
        }
    }

    /// Trace SRS and then g-MLSS over `plan` on one panel.
    fn panel<M, V>(
        &mut self,
        panel: &str,
        problem: Problem<'_, M, V>,
        plan: PartitionPlan,
        budget: u64,
        use_ci: bool,
        seeds: (u64, u64),
    ) where
        M: SimulationModel,
        V: ValueFunction<M::State>,
    {
        self.trace(
            panel,
            "SRS",
            problem,
            &SrsEstimator,
            budget,
            use_ci,
            seeds.0,
        );
        let cfg = GMlssConfig::new(plan, RunControl::budget(budget)).with_ratio(DEFAULT_RATIO);
        self.trace(panel, "MLSS", problem, &cfg, budget, use_ci, seeds.1);
    }
}

fn main() {
    let profile = Profile::from_args();
    let scale = match profile {
        Profile::Quick => 1,
        Profile::Full => 10,
    };
    let mut series = Series { rows: Vec::new() };

    // Panel 1: Queue model, Small query, CI measure.
    {
        let model = TandemQueue::paper_default();
        let spec = queue_specs()[1];
        assert_eq!(spec.class, QueryClass::Small);
        let vf = RatioValue::new(queue2_score, spec.beta);
        let problem = Problem::new(&model, &vf, spec.horizon);
        let budget = 4_000_000 * scale;
        let plan = balanced_for(problem, default_levels(spec.class), 13);
        series.panel("queue_small_ci", problem, plan, budget, true, (11, 12));
    }

    // Panel 2: CPP model, Tiny query, RE measure.
    {
        let model = CompoundPoisson::paper_default();
        let spec = cpp_specs()[2];
        assert_eq!(spec.class, QueryClass::Tiny);
        let vf = RatioValue::new(surplus_score, spec.beta);
        let problem = Problem::new(&model, &vf, spec.horizon);
        let budget = 8_000_000 * scale;
        let plan = balanced_for(problem, default_levels(spec.class), 23);
        series.panel("cpp_tiny_re", problem, plan, budget, false, (21, 22));
    }

    // Panel 3: RNN model, Tiny query, RE measure.
    {
        let (model, _) = trained_rnn(if scale > 1 { 100 } else { 30 });
        let spec = rnn_specs(model.initial_price)[1];
        let vf = RatioValue::new(rnn_price_score, spec.beta);
        let problem = Problem::new(&model, &vf, spec.horizon);
        let budget = 600_000 * scale;
        let plan = balanced_for(problem, default_levels(spec.class), 33);
        series.panel("rnn_tiny_re", problem, plan, budget, false, (31, 32));
    }

    let mut r = Report::new(
        "fig8_convergence",
        &["panel", "sampler", "steps", "tau", "quality"],
    );
    for (panel, sampler, steps, tau, q) in &series.rows {
        r.row(vec![
            panel.clone(),
            sampler.clone(),
            steps.to_string(),
            format!("{tau:.6e}"),
            format!("{q:.4}"),
        ]);
    }
    // Console: print only the final checkpoint per (panel, sampler) to
    // keep stdout readable; the CSV holds the full series.
    let mut summary = Report::new(
        "fig8_convergence_summary",
        &[
            "panel",
            "sampler",
            "final_steps",
            "final_tau",
            "final_quality",
        ],
    );
    let mut seen: Vec<(String, String)> = Vec::new();
    for (panel, sampler, steps, tau, q) in series.rows.iter().rev() {
        let key = (panel.clone(), sampler.clone());
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        summary.row(vec![
            panel.clone(),
            sampler.clone(),
            steps.to_string(),
            format!("{tau:.4e}"),
            format!("{q:.4}"),
        ]);
    }
    summary.emit();
    match r.write_csv() {
        Ok(p) => println!("full series written to {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
}
