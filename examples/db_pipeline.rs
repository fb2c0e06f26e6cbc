//! The end-to-end in-DBMS pipeline (§6.4): model parameters in tables,
//! durability queries asked in the declarative ESTIMATE dialect, results
//! and sample paths materialized back into tables, the journaled state
//! persisted to a write-ahead log and recovered by reopening the session.
//!
//! Run: `cargo run --release --example db_pipeline`

use mlss_db::{col, lit, Aggregate, Session, SessionConfig, Value};

fn main() {
    // A WAL-backed session: results rows and plain-SQL mutations are
    // journaled to `dir` as they happen.
    let dir = std::env::temp_dir().join("mlss-db-pipeline-demo");
    let _ = std::fs::remove_dir_all(&dir);
    let config = SessionConfig {
        seed: 1234,
        ..SessionConfig::default()
    };
    let session = Session::open(&dir, config.clone()).expect("open session");
    let db = session.db();
    println!("tables: {:?}", db.table_names());

    // 0. The model catalog: every registered substrate declares a named
    //    parameter schema (name, type, default, range).
    let catalog = session.execute("SHOW MODELS").expect("show models");
    println!("SHOW MODELS → {} parameter rows\n", catalog.rows().len());

    // 1. Answer durability queries declaratively. β and any parameter
    //    override are *named*, not positional.
    for (model, beta) in [("queue", 37.0), ("cpp", 50.0)] {
        for method in ["srs", "gmlss"] {
            let stmt = format!(
                "ESTIMATE DURABILITY OF {model}(beta={beta}) WITHIN 500 \
                 USING {method} TARGET RE 15%"
            );
            let res = session.execute(&stmt).expect("estimate");
            let row = &res.rows()[0];
            println!(
                "ESTIMATE {model}({method}, β={beta}) → τ̂ = {} [{} plan]",
                row[2],
                row.last().unwrap()
            );
        }
    }

    // 2. EXPLAIN shows the resolved plan without guessing: the method
    //    `auto` picks, the level plan, cache provenance, and the driver.
    let explain = session
        .execute(
            "EXPLAIN ESTIMATE DURABILITY OF cpp(beta=50) WITHIN 500 \
             USING auto TARGET RE 15% WITH (threads=4, batch_width=32)",
        )
        .expect("explain");
    println!("\nEXPLAIN ESTIMATE …:");
    for row in explain.rows() {
        println!("  {:<16} {}", format!("{}", row[0]), row[1]);
    }

    // 3. Inspect the results table with the query API.
    let fast = db
        .with_table("results", |t| {
            t.filter(&col("method").eq(lit("gmlss")))
                .map(|rows| rows.len())
        })
        .expect("results")
        .expect("filter");
    println!("\ngmlss rows in results table: {fast}");
    let avg_ms = db
        .with_table("results", |t| {
            t.aggregate(&Aggregate::Avg("millis".into()), None)
        })
        .expect("results")
        .expect("aggregate");
    println!("average statement time: {avg_ms} ms");

    // 4. Materialize sample paths for inspection — the "possible worlds"
    //    interpretability by-product of §2.2, now stepping a 4-wide
    //    cohort on the batched frontier kernel (bit-identical rows at
    //    any width).
    let args: Vec<Value> = vec![
        "cpp".into(),
        Value::Int(50),
        Value::Int(4),
        "worlds".into(),
        Value::Int(4),
    ];
    let n = session
        .call("materialize_paths", &args)
        .expect("materialize_paths");
    println!("\nmaterialized {n} path rows into table 'worlds'");
    let final_values = db
        .with_table("worlds", |t| {
            t.filter(&col("t").eq(lit(50i64))).map(|rows| {
                rows.iter()
                    .map(|r| format!("{:.1}", r[2].as_f64().unwrap()))
                    .collect::<Vec<_>>()
            })
        })
        .expect("worlds")
        .expect("filter");
    println!("surplus at t=50 across the 4 worlds: {final_values:?}");

    // 5. Plain SQL and the dialect share one front door.
    let res = session
        .execute(
            "SELECT model, method, millis FROM results WHERE method = 'gmlss' ORDER BY millis ASC",
        )
        .expect("sql select");
    println!("\nSQL: SELECT model, method, millis FROM results WHERE method = 'gmlss':");
    for row in res.rows() {
        println!("  {} | {} | {} ms", row[0], row[1], row[2]);
    }
    let peak = session
        .execute("SELECT MAX(value) FROM worlds")
        .expect("sql agg");
    println!(
        "SQL: MAX(value) over all worlds = {}",
        peak.scalar().unwrap()
    );

    // 6. DURABILITY over the generalized model registry: any registered
    //    model × any method, with named parameter overrides validated
    //    against the model's schema — no `models`-table edit needed to
    //    ask about a steeper walk or a calmer GBM.
    println!("\nDeclarative queries over the model registry:");
    for stmt in [
        "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 60 USING auto TARGET RE 25%",
        "ESTIMATE DURABILITY OF ar(beta=3) WITHIN 40 USING smlss TARGET RE 25%",
        "ESTIMATE DURABILITY OF gbm(beta=560, volatility=0.22) WITHIN 40 USING gmlss TARGET RE 25%",
        "ESTIMATE DURABILITY OF volatile(beta=40) WITHIN 100 USING auto TARGET RE 25%",
        // The same walk query, answered by 4 worker threads.
        "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 60 USING auto TARGET RE 25% WITH (threads=4)",
    ] {
        let res = session.execute(stmt).expect("registry estimate");
        let row = &res.rows()[0];
        println!("  {} / {} → τ̂ = {}", row[0], row[1], row[2]);
    }

    let ranked = session
        .execute("SELECT model, method, tau FROM results ORDER BY tau DESC")
        .expect("sql select");
    println!("\nSQL: all durability answers so far, most durable first:");
    for row in ranked.rows() {
        println!("  {} | {} | τ̂ = {}", row[0], row[1], row[2]);
    }

    // 7. Recover: reopen the log in a fresh session. Journaled state —
    //    every results row — comes back; the materialized `worlds`
    //    table is derived output and is not journaled.
    let answers = session.db().with_table("results", |t| t.len());
    drop(session);
    let reopened = Session::open(&dir, config).expect("reopen session");
    let recovered = reopened.db().with_table("results", |t| t.len());
    println!(
        "\nreopened {}: {:?} of {:?} results rows recovered; tables {:?}",
        dir.display(),
        recovered.expect("results"),
        answers.expect("results"),
        reopened.db().table_names()
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}
