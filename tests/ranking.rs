//! End-to-end `ESTIMATE … RANK BY`: the racing subsystem driven through
//! the SQL dialect, pinned for determinism across execution paths.
//!
//! The race is **one** sliceable query whose every slice advances exactly
//! one unfrozen arm by one round budget, so the arm order, the round
//! evaluation points, and the RNG consumption are identical whether the
//! loop runs inline (`SYNC`) or under the scheduler (`ASYNC`) — pinned
//! seeds must therefore give bit-identical standings on both paths, and
//! across fresh sessions.
//!
//! Racing also has to pay for itself: on a spread field it must pick the
//! exhaustive argmax while spending at most half the `g` invocations of
//! estimating every arm to the same target.

use mlss_db::{ExecResult, Session, SessionConfig, Value};

/// Four walk arms spread over `up`; the sweep order is ascending, the
/// standings order must be descending in durability (up=0.42 first).
const RACE: &str = "ESTIMATE DURABILITY OF walk(beta=6) SWEEP up FROM 0.30 TO 0.42 STEP 0.04 \
     WITHIN 50 USING srs TARGET RE 0.5 \
     RANK BY TOP 2 (rounds=5, round_budget=4000) WITH (seed=7)";

fn rows_of(res: ExecResult) -> (Vec<String>, Vec<Vec<Value>>) {
    match res {
        ExecResult::Rows { columns, rows } => (columns, rows),
        other => panic!("expected rows, got {other:?}"),
    }
}

/// A bit-stable fingerprint of a result row (floats by `to_bits`, so two
/// rows compare equal only if every float is identical to the last bit).
fn fingerprint(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Float(f) => format!("f{:016x}", f.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect()
}

#[test]
fn rank_by_returns_sorted_standings() {
    let session = Session::new(SessionConfig::default()).unwrap();
    let (columns, rows) = rows_of(session.execute(RACE).unwrap());
    assert_eq!(
        columns,
        [
            "rank",
            "arm",
            "tau",
            "ci_lo",
            "ci_hi",
            "frozen_round",
            "reason",
            "steps"
        ]
    );
    assert_eq!(rows.len(), 4, "one standings row per sweep arm");
    // Ranks are 1..=n and taus are non-increasing.
    let taus: Vec<f64> = rows
        .iter()
        .map(|r| match r[2] {
            Value::Float(f) => f,
            ref other => panic!("tau column should be a float, got {other:?}"),
        })
        .collect();
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row[0], Value::Int(i as i64 + 1));
        if i > 0 {
            assert!(taus[i] <= taus[i - 1], "standings must be sorted: {taus:?}");
        }
    }
    // The most durable arm is the highest up-probability.
    match &rows[0][1] {
        Value::Text(label) => assert!(label.contains("up=0.42"), "winner was {label}"),
        other => panic!("arm column should be text, got {other:?}"),
    }
    // Every freeze carries a provenance the subsystem defines.
    for row in &rows {
        match &row[6] {
            Value::Text(reason) => assert!(
                ["in", "out", "definitive", "resolved", "budget"].contains(&reason.as_str()),
                "unknown freeze reason {reason}"
            ),
            other => panic!("reason column should be text, got {other:?}"),
        }
    }
}

#[test]
fn pinned_seed_standings_are_bit_identical_across_sessions() {
    let a = rows_of(
        Session::new(SessionConfig::default())
            .unwrap()
            .execute(RACE)
            .unwrap(),
    );
    let b = rows_of(
        Session::new(SessionConfig::default())
            .unwrap()
            .execute(RACE)
            .unwrap(),
    );
    assert_eq!(fingerprint(&a.1), fingerprint(&b.1));
}

#[test]
fn sync_and_scheduled_races_agree_bit_for_bit() {
    // Sync: the inline race loop.
    let sync_rows = rows_of(
        Session::new(SessionConfig::default())
            .unwrap()
            .execute(RACE)
            .unwrap(),
    )
    .1;

    // Async: the same race as one sliceable scheduler query.
    let session = Session::new(SessionConfig::default()).unwrap();
    let (columns, rows) = rows_of(session.execute(&format!("{RACE} ASYNC")).unwrap());
    assert_eq!(columns, ["query_id"]);
    let id = match rows[0][0] {
        Value::Int(id) => id as u64,
        ref other => panic!("query_id should be an int, got {other:?}"),
    };
    session.wait(id).unwrap().expect("known id");
    let outcome = session
        .rank_standings(id)
        .unwrap()
        .expect("race finalized after wait");

    assert_eq!(outcome.standings.len(), sync_rows.len());
    for (standing, row) in outcome.standings.iter().zip(&sync_rows) {
        assert_eq!(Value::Text(standing.label.clone()), row[1]);
        let sync_tau = match row[2] {
            Value::Float(f) => f,
            ref other => panic!("tau should be a float, got {other:?}"),
        };
        assert_eq!(
            standing.estimate.tau.to_bits(),
            sync_tau.to_bits(),
            "τ̂ must be bit-identical across drivers for {}",
            standing.label
        );
        assert_eq!(
            Value::Int(standing.frozen_at.map(|r| r as i64).unwrap_or(-1)),
            row[5],
            "freeze round must match for {}",
            standing.label
        );
        assert_eq!(
            Value::Int(standing.estimate.steps as i64),
            row[7],
            "per-arm steps must match for {}",
            standing.label
        );
    }
}

#[test]
fn races_record_rankings_and_per_arm_results_rows() {
    let session = Session::new(SessionConfig::default()).unwrap();
    rows_of(session.execute(RACE).unwrap());
    let (_, rankings) = rows_of(session.execute("SELECT * FROM rankings").unwrap());
    assert_eq!(rankings.len(), 4, "one rankings row per arm");
    let (_, results) = rows_of(session.execute("SELECT * FROM results").unwrap());
    assert_eq!(results.len(), 4, "one journaling results row per arm");

    // The async path records on wait, identically.
    let (_, rows) = rows_of(session.execute(&format!("{RACE} ASYNC")).unwrap());
    let id = match rows[0][0] {
        Value::Int(id) => id as u64,
        ref other => panic!("query_id should be an int, got {other:?}"),
    };
    session.wait(id).unwrap();
    let (_, rankings) = rows_of(session.execute("SELECT * FROM rankings").unwrap());
    assert_eq!(rankings.len(), 8);
    let (_, results) = rows_of(session.execute("SELECT * FROM results").unwrap());
    assert_eq!(results.len(), 8);
}

#[test]
fn explain_rank_reports_the_racing_plan() {
    let session = Session::new(SessionConfig::default()).unwrap();
    let (columns, rows) = rows_of(session.execute(&format!("EXPLAIN {RACE}")).unwrap());
    assert_eq!(columns, ["property", "value"]);
    let get = |key: &str| -> String {
        rows.iter()
            .find(|r| r[0] == Value::Text(key.to_string()))
            .unwrap_or_else(|| panic!("missing EXPLAIN property {key}"))[1]
            .to_string()
    };
    assert_eq!(get("arms"), "4");
    assert_eq!(get("top_k"), "2");
    assert_eq!(get("rounds"), "5");
    assert_eq!(get("round_budget"), "4000");
    assert!(get("budget_worst_case").contains("4 arms x 5 rounds"));
    // Each sweep value is its own query family (the swept parameter is
    // part of the fingerprint) — four arms, four families.
    assert!(get("shared_pilots").contains("4 distinct plan families"));
    assert!(get("seed").contains('7'));
}

#[test]
fn show_diagnostics_exposes_the_ranking_ledger() {
    let session = Session::new(SessionConfig::default()).unwrap();
    rows_of(session.execute(RACE).unwrap());
    let (_, rows) = rows_of(session.execute("SHOW DIAGNOSTICS").unwrap());
    let ranking: Vec<&Vec<Value>> = rows
        .iter()
        .filter(|r| r[0] == Value::Text("ranking".to_string()))
        .collect();
    assert!(
        !ranking.is_empty(),
        "SHOW DIAGNOSTICS must carry a ranking block"
    );
    let counter = |name: &str| -> f64 {
        ranking
            .iter()
            .find(|r| r[1] == Value::Text(name.to_string()))
            .map(|r| match r[2] {
                Value::Float(f) => f,
                ref other => panic!("counter should be a float, got {other:?}"),
            })
            .unwrap_or_else(|| panic!("missing ranking counter {name}"))
    };
    // The ledger is process-wide (other tests race too): lower bounds.
    assert!(counter("races") >= 1.0);
    assert!(counter("arms") >= 4.0);
    assert!(counter("steps") > 0.0);
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        Value::Int(i) => *i as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

#[test]
fn racing_finds_the_exhaustive_winner_on_half_the_steps() {
    // Six walk arms, up = 0.36 … 0.56, all held to a 1% relative error.
    // Neither session reuses shards, so both paths pay full price.
    let (from, to, step, re, seed) = (0.36f64, 0.56, 0.04, 0.01, 7u64);
    let session = || {
        Session::new(SessionConfig {
            workers: 1,
            seed: 4242,
            shard_store_capacity: 0,
            ..SessionConfig::default()
        })
        .unwrap()
    };

    let (_, standings) = rows_of(
        session()
            .execute(&format!(
                "ESTIMATE DURABILITY OF walk(beta=6) SWEEP up FROM {from} TO {to} STEP {step} \
                 WITHIN 50 USING srs TARGET RE {re} \
                 RANK BY TOP 1 (rounds=60, round_budget=5000) WITH (seed={seed})"
            ))
            .unwrap(),
    );
    let raced_winner = standings[0][1].to_string();
    let raced_steps: f64 = standings.iter().map(|r| number(&r[7])).sum();

    // Exhaustive: one sync estimate per arm, on the seed its race arm
    // draws from, over the values the SWEEP expansion produces.
    let exhaustive = session();
    let arms = ((to - from) / step + 1e-9).floor() as usize + 1;
    let mut exhaustive_steps = 0.0;
    let mut best = (f64::NEG_INFINITY, from);
    for i in 0..arms {
        let up = from + step * i as f64;
        let (_, rows) = rows_of(
            exhaustive
                .execute(&format!(
                    "ESTIMATE DURABILITY OF walk(beta=6, up={up}) WITHIN 50 USING srs \
                     TARGET RE {re} WITH (seed={})",
                    mlss_db::arm_seed(seed, i)
                ))
                .unwrap(),
        );
        // Sync estimate row: model, method, tau, variance, steps, …
        let tau = number(&rows[0][2]);
        exhaustive_steps += number(&rows[0][4]);
        if tau > best.0 {
            best = (tau, up);
        }
    }

    // `up` is the ref's last parameter: anchoring on the closing paren
    // keeps `up=0.4` from matching an `up=0.48` label.
    let winner_tag = format!("up={})", best.1);
    assert!(
        raced_winner.contains(&winner_tag),
        "raced winner {raced_winner} is not the exhaustive argmax {winner_tag}"
    );
    assert!(
        raced_steps <= 0.5 * exhaustive_steps,
        "raced {raced_steps} steps vs exhaustive {exhaustive_steps}: racing must halve the cost"
    );
}
