//! Golden answers: fixed-seed runs whose exact results are pinned as
//! constants, so an engine change that alters any answer, step count or
//! root count fails here even when every width and driver still agree
//! with one another.
//!
//! Each row is `(tau.to_bits(), variance.to_bits(), steps, n_roots)` of
//! one run on the lattice random walk:
//!
//! * core-API runs (`run_sequential_batched`, budget mode) of SRS, s-MLSS,
//!   g-MLSS and IS at frontier widths 1 and 64, with the frontier's
//!   launch counts (`width::take_thread_stats`) pinned alongside so the
//!   launch gate must admit the same roots;
//! * SQL runs (`Session::execute`, target mode) of `srs`, `smlss` and
//!   `gmlss` at `batch_width` 1 and 64. The dialect has no IS method, so
//!   IS is pinned through the core API only.
//!
//! The constants were captured from the engine before the watch-filtered
//! frontier and the branch-free walk kernel; both must reproduce them bit
//! for bit. The suite runs in well under a second in a debug build.

use durability_mlss::models::RandomWalk;
use mlss_core::estimator::run_sequential_batched;
use mlss_core::is::IsEstimator;
use mlss_core::prelude::*;
use mlss_core::smlss::SMlssConfig;
use mlss_core::width;
use mlss_db::{ExecResult, Session, SessionConfig, Value};

/// `(tau bits, variance bits, steps, n_roots)`.
type Golden = (u64, u64, u64, u64);

type WalkVf = RatioValue<fn(&i64) -> f64>;

fn position(s: &i64) -> f64 {
    *s as f64
}

fn walk_vf(beta: f64) -> WalkVf {
    RatioValue::new(position as fn(&i64) -> f64, beta)
}

/// `(chunks, launched, committed)` of the frontier's speculation ledger.
type Launches = (u64, u64, u64);

fn core_run<E>(
    estimator: &E,
    walk: &RandomWalk,
    budget: u64,
    seed: u64,
    width: usize,
) -> (Golden, Launches)
where
    E: Estimator<RandomWalk, WalkVf>,
{
    let v = walk_vf(8.0);
    let problem = Problem::new(walk, &v, 60);
    width::take_thread_stats();
    let run = run_sequential_batched(
        estimator,
        problem,
        RunControl::budget(budget),
        &mut rng_from_seed(seed),
        width,
    );
    let stats = width::take_thread_stats();
    (
        (
            run.estimate.tau.to_bits(),
            run.estimate.variance.to_bits(),
            run.shard.steps(),
            run.shard.n_roots(),
        ),
        (stats.chunks, stats.launched, stats.committed),
    )
}

fn sql_run(using: &str, width: usize) -> Golden {
    let session = Session::new(SessionConfig {
        workers: 1,
        seed: 7,
        ..SessionConfig::default()
    })
    .unwrap();
    let sql = format!(
        "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 40 USING {using} TARGET RE 30% \
         WITH (seed=31, batch_width={width})"
    );
    let ExecResult::Rows { columns, rows } = session.execute(&sql).unwrap() else {
        panic!("{sql}: expected a results row");
    };
    let col = |name: &str| {
        let c = columns.iter().position(|c| c == name).unwrap();
        rows[0][c].clone()
    };
    let (Value::Float(tau), Value::Float(variance), Value::Int(steps), Value::Int(n_roots)) =
        (col("tau"), col("variance"), col("steps"), col("n_roots"))
    else {
        panic!("{sql}: unexpected column types {columns:?}");
    };
    (
        tau.to_bits(),
        variance.to_bits(),
        steps as u64,
        n_roots as u64,
    )
}

const CORE: [(&str, usize, Golden); 8] = [
    (
        "srs",
        1,
        (4599249031556072940, 4555651658689297321, 30034, 562),
    ),
    (
        "smlss",
        1,
        (4599319326492866104, 4554458445265616758, 30307, 71),
    ),
    (
        "gmlss",
        1,
        (4599328315102042774, 4554596112782881459, 30366, 69),
    ),
    (
        "is",
        1,
        (4599053446842251515, 4551052626473927814, 30055, 991),
    ),
    (
        "srs",
        64,
        (4599249031556072940, 4555651658689297321, 30034, 562),
    ),
    (
        "smlss",
        64,
        (4599319326492866104, 4554458445265616758, 30307, 71),
    ),
    (
        "gmlss",
        64,
        (4599328315102042774, 4554596112782881459, 30366, 69),
    ),
    (
        "is",
        64,
        (4599053446842251515, 4551052626473927814, 30055, 991),
    ),
];

/// The roots each core-API run launched and committed: at width 64 the
/// MLSS runs launch speculative roots past the budget and discard them.
const LAUNCHES: [(&str, usize, Launches); 8] = [
    ("srs", 1, (1, 562, 562)),
    ("smlss", 1, (1, 71, 71)),
    ("gmlss", 1, (1, 69, 69)),
    ("is", 1, (1, 991, 991)),
    ("srs", 64, (1, 562, 562)),
    ("smlss", 64, (1, 97, 71)),
    ("gmlss", 64, (1, 88, 69)),
    ("is", 64, (1, 991, 991)),
];

/// On the ±1 walk no path skips a level, so s-MLSS and g-MLSS split
/// alike and agree over one plan.
const SQL: [(&str, usize, Golden); 6] = [
    (
        "srs",
        1,
        (4600627674787903914, 4560354627179463372, 10277, 303),
    ),
    (
        "smlss(levels=3)",
        1,
        (4600205413663011687, 4560437249769770852, 10242, 140),
    ),
    (
        "gmlss(levels=3)",
        1,
        (4600205413663011687, 4560437249769770852, 10242, 140),
    ),
    (
        "srs",
        64,
        (4600627674787903914, 4560354627179463372, 10277, 303),
    ),
    (
        "smlss(levels=3)",
        64,
        (4600205413663011687, 4560437249769770852, 10242, 140),
    ),
    (
        "gmlss(levels=3)",
        64,
        (4600205413663011687, 4560437249769770852, 10242, 140),
    ),
];

fn plan() -> PartitionPlan {
    PartitionPlan::new(vec![0.25, 0.5, 0.75]).unwrap()
}

#[test]
fn core_api_answers_match_their_golden_values() {
    let walk = RandomWalk::new(0.3, 0.3, 0).reflected();
    let smlss = SMlssConfig::new(plan(), RunControl::budget(1)).with_ratio(3);
    let gmlss = GMlssConfig::new(plan(), RunControl::budget(1)).with_ratio(3);
    let is = IsEstimator::new(0.4);
    let (mut answers, mut launches) = (Vec::new(), Vec::new());
    for width in [1usize, 64] {
        for (name, (answer, launched)) in [
            ("srs", core_run(&SrsEstimator, &walk, 30_000, 11, width)),
            ("smlss", core_run(&smlss, &walk, 30_000, 12, width)),
            ("gmlss", core_run(&gmlss, &walk, 30_000, 21, width)),
            ("is", core_run(&is, &walk, 30_000, 14, width)),
        ] {
            answers.push((name, width, answer));
            launches.push((name, width, launched));
        }
    }
    assert_eq!(answers, CORE);
    assert_eq!(launches, LAUNCHES);
}

#[test]
fn sql_answers_match_their_golden_values() {
    let mut got = Vec::new();
    for width in [1usize, 64] {
        for using in ["srs", "smlss(levels=3)", "gmlss(levels=3)"] {
            got.push((using, width, sql_run(using, width)));
        }
    }
    assert_eq!(got, SQL);
}
