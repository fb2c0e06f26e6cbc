//! Table 7: the whole pipeline inside the DBMS — model parameters live in
//! tables, the samplers run as `ESTIMATE` statements, timings land in the
//! `results` table. Compares SRS vs MLSS running times per query class.
//!
//! Usage: `cargo run --release -p mlss-bench --bin table7_dbms [--full]`

use mlss_bench::settings::{cpp_specs, queue_specs};
use mlss_bench::{Profile, Report};
use mlss_core::quality::QualityTarget;
use mlss_db::{Session, SessionConfig, Value};

fn main() {
    let profile = Profile::from_args();
    // Table 7 uses time-to-quality; express both CI and RE classes as an
    // equivalent RE target.
    let re_for = |class: mlss_bench::QueryClass| -> f64 {
        use mlss_bench::QueryClass::*;
        match (profile, class) {
            // 1% CI at 95% ≈ 0.51% RE; quick ≈ 1.5% RE.
            (Profile::Full, Medium | Small) => 0.0051,
            (Profile::Quick, Medium | Small) => 0.02,
            (Profile::Full, _) => 0.10,
            (Profile::Quick, _) => 0.25,
        }
    };

    // No shard store: every statement simulates from scratch.
    let session = Session::new(SessionConfig {
        seed: 77_000,
        shard_store_capacity: 0,
        ..SessionConfig::default()
    })
    .expect("open session");

    let mut r = Report::new(
        "table7_dbms",
        &["model", "query", "SRS_secs", "MLSS_secs", "speedup"],
    );

    for (model, specs) in [("queue", queue_specs()), ("cpp", cpp_specs())] {
        for spec in specs {
            let mut secs = [0.0f64; 2];
            for (i, method) in ["srs", "mlss"].iter().enumerate() {
                let t0 = std::time::Instant::now();
                let sql = format!(
                    "ESTIMATE DURABILITY OF {model}(beta={}) WITHIN {} USING {method} TARGET RE {}",
                    spec.beta,
                    spec.horizon,
                    re_for(spec.class)
                );
                session.execute(&sql).expect("estimate");
                secs[i] = t0.elapsed().as_secs_f64();
            }
            r.row(vec![
                model.into(),
                spec.class.name().into(),
                format!("{:.2}", secs[0]),
                format!("{:.2}", secs[1]),
                format!("{:.1}x", secs[0] / secs[1].max(1e-9)),
            ]);
        }
    }
    r.emit();

    // Show that results landed in the `results` table and paths can be
    // materialized — the end-to-end story of §6.4.
    let rows = session
        .db()
        .with_table("results", |t| t.len())
        .expect("results table");
    let args: Vec<Value> = vec![
        "cpp".into(),
        Value::Int(100),
        Value::Int(5),
        "paths_demo".into(),
    ];
    let n = session
        .call("materialize_paths", &args)
        .expect("materialize");
    println!("results table rows: {rows}; materialized path rows: {n}");

    let _ = QualityTarget::paper_re(); // (referenced for doc purposes)
}
