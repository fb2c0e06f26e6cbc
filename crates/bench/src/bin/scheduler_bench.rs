//! Scheduler throughput/latency benchmark: concurrent time-sliced
//! serving vs serial FIFO execution under a mixed workload.
//!
//! The workload models the paper's DBMS serving scenario (§6.4) under
//! load: a burst of queries arrives at once — a few expensive tight-RE
//! g-MLSS queries and many cheap loose-RE SRS queries, expensive first
//! (the worst case for FIFO, which head-of-line-blocks every cheap query
//! behind the marathons). Both engines run the identical query list:
//!
//! * **FIFO** — synchronous `ESTIMATE` statements in arrival order, one
//!   at a time; a query's latency is the time from the burst arrival to
//!   its completion.
//! * **Scheduler** — `ESTIMATE … ASYNC` for the whole burst, then
//!   per-query completion times. The pool's least-attained-service policy lets the
//!   cheap queries slice past the expensive ones.
//!
//! Reported: per-class p50/p99 latency, makespan, throughput, and the
//! session plan-cache counters (repeated same-model g-MLSS queries reuse
//! one pilot).
//!
//! Usage: `cargo run --release -p mlss-bench --bin scheduler_bench [--full]`

use mlss_bench::{Profile, Report};
use mlss_db::{Session, SessionConfig};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone)]
struct QuerySpec {
    model: &'static str,
    method: &'static str,
    beta: f64,
    horizon: i64,
    target_re: f64,
    class: &'static str, // "cheap" | "expensive"
}

fn workload(profile: Profile) -> Vec<QuerySpec> {
    let (n_cheap, expensive_re, cheap_re) = match profile {
        Profile::Full => (24, 0.008, 0.25),
        Profile::Quick => (16, 0.015, 0.25),
    };
    let mut specs = Vec::new();
    // Expensive g-MLSS queries first — the FIFO worst case.
    for _ in 0..3 {
        specs.push(QuerySpec {
            model: "cpp",
            method: "gmlss",
            beta: 25.0,
            horizon: 80,
            target_re: expensive_re,
            class: "expensive",
        });
    }
    for k in 0..n_cheap {
        specs.push(QuerySpec {
            model: "walk",
            method: "srs",
            beta: 5.0 + (k % 3) as f64, // a few distinct cheap shapes
            horizon: 50,
            target_re: cheap_re,
            class: "cheap",
        });
    }
    specs
}

/// The query as a synchronous `ESTIMATE` statement.
fn statement(spec: &QuerySpec) -> String {
    format!(
        "ESTIMATE DURABILITY OF {}(beta={}) WITHIN {} USING {} TARGET RE {}",
        spec.model, spec.beta, spec.horizon, spec.method, spec.target_re
    )
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct ClassLatencies {
    cheap: Vec<f64>,
    expensive: Vec<f64>,
}

impl ClassLatencies {
    fn collect(mut samples: Vec<(&'static str, f64)>) -> Self {
        let mut cheap = Vec::new();
        let mut expensive = Vec::new();
        for (class, lat) in samples.drain(..) {
            if class == "cheap" {
                cheap.push(lat);
            } else {
                expensive.push(lat);
            }
        }
        cheap.sort_by(|a, b| a.total_cmp(b));
        expensive.sort_by(|a, b| a.total_cmp(b));
        Self { cheap, expensive }
    }
}

/// Serial FIFO baseline: synchronous calls in arrival order.
fn run_fifo(specs: &[QuerySpec]) -> (ClassLatencies, f64) {
    let session = Session::new(SessionConfig {
        workers: 1, // unused: everything runs synchronously
        seed: 41,
        ..SessionConfig::default()
    })
    .expect("fifo session");
    let burst = Instant::now();
    let mut samples = Vec::new();
    for spec in specs {
        session.execute(&statement(spec)).expect("fifo estimate");
        samples.push((spec.class, burst.elapsed().as_secs_f64()));
    }
    let makespan = burst.elapsed().as_secs_f64();
    (ClassLatencies::collect(samples), makespan)
}

/// Concurrent scheduler: submit the burst, measure per-query completion.
fn run_scheduler(specs: &[QuerySpec]) -> (ClassLatencies, f64, u64, u64) {
    let session = Arc::new(
        Session::new(SessionConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            slice_budget: 32_768,
            seed: 42,
            ..SessionConfig::default()
        })
        .expect("scheduler session"),
    );
    let burst = Instant::now();
    let ids: Vec<(u64, &'static str)> = specs
        .iter()
        .enumerate()
        .map(|(k, spec)| {
            let id = session
                .execute(&format!(
                    "{} WITH (seed={}) ASYNC",
                    statement(spec),
                    10_000 + k
                ))
                .expect("submit")
                .scalar()
                .and_then(|v| v.as_i64())
                .expect("query_id") as u64;
            (id, spec.class)
        })
        .collect();

    // One waiter thread per query records its completion time.
    let handles: Vec<_> = ids
        .iter()
        .map(|&(id, class)| {
            let session = Arc::clone(&session);
            std::thread::spawn(move || {
                let status = session.wait(id).expect("record result").expect("known id");
                assert!(
                    status.estimate().is_some(),
                    "query {id} should complete, got {status:?}"
                );
                (class, burst.elapsed().as_secs_f64())
            })
        })
        .collect();
    let samples: Vec<(&'static str, f64)> = handles
        .into_iter()
        .map(|h| h.join().expect("waiter"))
        .collect();
    let makespan = burst.elapsed().as_secs_f64();
    let (hits, misses) = (session.plan_cache().hits(), session.plan_cache().misses());
    (ClassLatencies::collect(samples), makespan, hits, misses)
}

fn main() {
    let profile = Profile::from_args();
    let specs = workload(profile);
    let n_cheap = specs.iter().filter(|s| s.class == "cheap").count();
    let n_expensive = specs.len() - n_cheap;
    println!(
        "mixed burst: {n_expensive} expensive g-MLSS + {n_cheap} cheap SRS queries (expensive first)"
    );

    let (fifo, fifo_makespan) = run_fifo(&specs);
    let (sched, sched_makespan, hits, misses) = run_scheduler(&specs);

    let mut r = Report::new(
        "scheduler_bench",
        &[
            "engine",
            "cheap_p50_s",
            "cheap_p99_s",
            "exp_p50_s",
            "exp_p99_s",
            "makespan_s",
            "queries_per_s",
        ],
    );
    for (name, lat, makespan) in [
        ("serial FIFO", &fifo, fifo_makespan),
        ("scheduler", &sched, sched_makespan),
    ] {
        r.row(vec![
            name.into(),
            format!("{:.3}", percentile(&lat.cheap, 0.50)),
            format!("{:.3}", percentile(&lat.cheap, 0.99)),
            format!("{:.3}", percentile(&lat.expensive, 0.50)),
            format!("{:.3}", percentile(&lat.expensive, 0.99)),
            format!("{makespan:.3}"),
            format!("{:.1}", specs.len() as f64 / makespan),
        ]);
    }
    r.emit();

    let speedup = percentile(&fifo.cheap, 0.50) / percentile(&sched.cheap, 0.50).max(1e-9);
    println!("cheap-query p50 latency: FIFO / scheduler = {speedup:.1}x");
    println!("plan cache: {hits} hits, {misses} misses");
    assert!(
        speedup > 1.0,
        "scheduler must beat serial FIFO on cheap-query p50"
    );
    assert!(
        hits > 0,
        "repeated same-model queries must hit the plan cache"
    );
}
