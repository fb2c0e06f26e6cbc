//! Concurrent serving: many durability queries sharing one engine
//! through the session layer — declarative ASYNC submission, polling,
//! pause/resume, cancellation — with memoized partition plans and
//! scheduled plan pilots.
//!
//! Run: `cargo run --release --example concurrent_serving`

use durability_mlss::core::scheduler::QueryStatus;
use mlss_core::scheduler::QueryId;
use mlss_db::{Session, SessionConfig};

fn main() {
    let session = Session::new(SessionConfig {
        workers: 2,
        slice_budget: 16_384,
        // Slices advance a 32-wide frontier of root paths per model
        // batch call (bit-identical to the default width 1 — a pure
        // throughput knob; see docs/kernel.md). A statement's
        // `WITH (batch_width=…)` overrides it per query.
        batch_width: 32,
        seed: 7,
        ..SessionConfig::default()
    })
    .expect("open session");

    // 1. Submit a burst declaratively: one expensive tight-RE g-MLSS
    //    query and a handful of cheap SRS lookups. Nothing blocks — on
    //    the cold plan cache the g-MLSS pilot is *scheduled as the
    //    query's first slice*, not run here.
    let expensive = submit(
        &session,
        "ESTIMATE DURABILITY OF cpp(beta=25) WITHIN 80 USING gmlss TARGET RE 2% ASYNC",
    );
    let cheap: Vec<QueryId> = (0..4)
        .map(|k| {
            submit(
                &session,
                &format!(
                    "ESTIMATE DURABILITY OF walk(beta={}) WITHIN 50 USING srs \
                     TARGET RE 30% ASYNC",
                    5 + k
                ),
            )
        })
        .collect();
    println!("submitted 1 expensive + {} cheap queries", cheap.len());

    // 2. The cheap queries finish while the expensive one is still being
    //    time-sliced.
    for id in &cheap {
        let status = session.wait(*id).expect("record result").expect("known id");
        let est = status.estimate().expect("cheap query completes");
        println!("cheap query {id}: τ̂ = {:.4} ({} steps)", est.tau, est.steps);
    }
    if let Some(progress) = session.scheduler().progress(expensive) {
        println!(
            "expensive query after the cheap ones: {:?}, {} steps over {} slices",
            progress.status, progress.steps, progress.slices
        );
    }

    // 3. Pause the expensive query, checkpoint-style, then resume it.
    session.scheduler().pause(expensive);
    while !matches!(
        session.scheduler().poll(expensive),
        Some(QueryStatus::Paused) | Some(QueryStatus::Done(_))
    ) {
        std::thread::yield_now();
    }
    println!("expensive query paused at a slice boundary; resuming…");
    session.scheduler().resume(expensive);
    let est = *session
        .wait(expensive)
        .expect("record result")
        .expect("known id")
        .estimate()
        .expect("expensive query completes");
    println!(
        "expensive query done: τ̂ = {:.5}, RE = {:.1}%, {} steps",
        est.tau,
        100.0 * est.self_relative_error(),
        est.steps
    );

    // 4. EXPLAIN the same shape: the plan derived by that first slice is
    //    in the shared cache now, so the resolved plan comes back as a
    //    hit — and the statement shows exactly what a re-submission
    //    would do (driver, effective batch width, level plan).
    let explain = session
        .execute(
            "EXPLAIN ESTIMATE DURABILITY OF cpp(beta=25) WITHIN 80 \
             USING gmlss TARGET RE 5% ASYNC",
        )
        .expect("explain");
    println!("\nEXPLAIN of the warm query shape:");
    for row in explain.rows() {
        println!("  {:<16} {}", format!("{}", row[0]), row[1]);
    }

    // 5. The same query shape again: the partition plan is served from
    //    the cache (no second pilot). Poll it while it runs, then wait,
    //    which records its results row.
    let again = submit(
        &session,
        "ESTIMATE DURABILITY OF cpp(beta=25) WITHIN 80 USING gmlss TARGET RE 5% ASYNC",
    );
    while let Some(status) = session.poll(again).filter(|s| !s.is_terminal()) {
        println!("repeat query status: {status:?}");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let tau = session
        .wait(again)
        .expect("record result")
        .expect("known id")
        .estimate()
        .expect("repeat query completes")
        .tau;
    println!("repeat query: τ̂ = {tau:.5}");

    // 6. Serving diagnostics: plan cache effectiveness + pool counters.
    for d in session.diagnostics() {
        let details: Vec<String> = d.details.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("[{}] {}", d.estimator, details.join(", "));
    }
    let results = session
        .db()
        .with_table("results", |t| t.len())
        .expect("results table");
    println!("rows recorded in the results table: {results}");
}

/// Run an `… ASYNC` statement and return its query id.
fn submit(session: &Session, stmt: &str) -> QueryId {
    session
        .execute(stmt)
        .expect("submit")
        .scalar()
        .expect("query_id row")
        .as_i64()
        .expect("query_id int") as QueryId
}
