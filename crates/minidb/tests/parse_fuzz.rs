//! Seeded no-panic property for the one SQL parser: whatever text
//! arrives — random strings, mutated real statements, nesting bombs —
//! `sql::parse` returns, with and without the model catalog, and every
//! error span lies inside the input on char boundaries.
//!
//! Inputs come from pinned ChaCha seeds, so a failure names a
//! reproducible case.

use mlss_core::rng::{rng_from_seed, SimRng};
use mlss_db::sql::{lexer::lex, parse};
use mlss_db::ModelRegistry;
use rand::RngExt;

/// Statements the CI smokes, the dialect tests and plain SQL use.
const CORPUS: &[&str] = &[
    "SHOW MODELS;",
    "SHOW DIAGNOSTICS;",
    "EXPLAIN ESTIMATE DURABILITY OF cpp(beta=50) WITHIN 500 USING auto TARGET RE 15% WITH (batch_width=32);",
    "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 USING srs TARGET RE 30%;",
    "ESTIMATE DURABILITY OF ar(beta=3) WITHIN 40 USING gmlss TARGET RE 50% WITH (seed=7) ASYNC;",
    "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 USING gmlss TARGET RE 30% WITH (seed=7, threads=2, batch_width=auto);",
    "ESTIMATE DURABILITY OF walk(beta=6) SWEEP up FROM 0.30 TO 0.42 STEP 0.04 WITHIN 50 USING srs TARGET RE 0.5 RANK BY TOP 2 (rounds=5, round_budget=4000) WITH (seed=7)",
    "ESTIMATE DURABILITY OF walk(beta=6) SWEEP beta FROM -1e308 TO 1e308 STEP 1e-300 WITHIN 50 TARGET RE 0.5 RANK BY TOP 1",
    "EXPLAIN ESTIMATE DURABILITY OF walk(beta=6, up=0.3), walk(beta=6, up=0.4) WITHIN 50 TARGET RE 0.5 RANK BY TOP 1 (confidence=0.9)",
    "estimate durability of gbm(beta=560, volatility=0.4, drift=0.1) within 40 using mlss target re 25 % sync;",
    "ESTIMATE DURABILITY OF walk(beta=-5) WITHIN 10 TARGET RE +0.5 WITH (seed=18446744073709551615, priority=+3)",
    "ESTIMATE DURABILITY OF walk(beta=5) WITHIN 10 USING gmlss(levels=0) TARGET RE 0.5",
    "SELECT model, method, tau, plan_cache FROM results;",
    "SELECT tau, steps, n_roots FROM results WHERE tau >= 1e-4 AND NOT (steps < -1 OR n_roots <> 2) ORDER BY tau DESC LIMIT 3",
    "SELECT COUNT(*) FROM results -- a comment\n",
    "SELECT AVG(price) FROM stocks WHERE sym = 'goog' AND price - 100 >= 1.5 / 2 * 3",
    "CREATE TABLE notes (k INT, v TEXT NULL, ok BOOL, x FLOAT)",
    "INSERT INTO notes VALUES (1, 'café', TRUE, -2.5), (2, 'it''s 日本', NULL, 1e3)",
    "DELETE FROM notes WHERE k != 1",
    "DROP TABLE notes",
];

/// Random-string fragments: multi-byte characters, quotes, comments,
/// digits, signs, exponents, `%`, parentheses, and a few keywords so
/// some strings get past the first token.
const ALPHABET: &[&str] = &[
    "a",
    "e",
    "E",
    "x",
    "_",
    "0",
    "1",
    "9",
    ".",
    "-",
    "+",
    "'",
    "''",
    "--",
    "\n",
    " ",
    " ",
    "(",
    ")",
    ",",
    "=",
    "%",
    "*",
    "/",
    "<",
    ">",
    "!",
    ";",
    "@",
    "é",
    "日",
    "🙂",
    "NOT ",
    "SELECT ",
    "* FROM t WHERE ",
    "ESTIMATE DURABILITY OF ",
    "walk(beta=",
    "WITHIN ",
    "TARGET RE ",
    "WITH (",
    "seed=",
    "ASYNC",
    "RANK BY TOP ",
    "SWEEP up FROM ",
    "INSERT INTO t VALUES (",
];

/// Parse every input with and without the built-in catalog: nothing may
/// panic, and every error span must lie inside the input on char
/// boundaries. Returns how many (input, catalog) pairs parsed cleanly.
fn check_all(inputs: impl IntoIterator<Item = String>) -> usize {
    let models = ModelRegistry::with_builtins();
    let schemas = models.schemas();
    let mut parsed = 0;
    for sql in inputs {
        for catalog in [None, Some(&schemas[..])] {
            let Ok(result) = std::panic::catch_unwind(|| parse(&sql, catalog)) else {
                panic!("parse panicked on {sql:?} (catalog: {})", catalog.is_some());
            };
            match result {
                Ok(_) => parsed += 1,
                Err(e) => {
                    if let Some(span) = e.span {
                        assert!(
                            span.start <= span.end
                                && span.end <= sql.len()
                                && sql.is_char_boundary(span.start)
                                && sql.is_char_boundary(span.end),
                            "bad span {span:?} for {sql:?}: {e}"
                        );
                    }
                }
            }
        }
    }
    parsed
}

fn random_string(rng: &mut SimRng) -> String {
    let len = rng.random_range(0usize..24);
    (0..len)
        .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len() as u64) as usize])
        .collect()
}

/// Token-level mutants of `sql`: every token dropped, duplicated and
/// swapped with its successor (each token carries the text before it),
/// plus `sql` cut at every char boundary.
fn mutants(sql: &str) -> Vec<String> {
    let mut pieces = Vec::new();
    let mut at = 0;
    for t in lex(sql).expect("corpus statements lex") {
        pieces.push(&sql[at..t.span.end]);
        at = t.span.end;
    }
    pieces.push(&sql[at..]);
    let mut out: Vec<String> = sql
        .char_indices()
        .map(|(cut, _)| sql[..cut].into())
        .collect();
    for i in 0..pieces.len() {
        let mut dropped = pieces.clone();
        dropped.remove(i);
        out.push(dropped.concat());
        let mut doubled = pieces.clone();
        doubled.insert(i, pieces[i]);
        out.push(doubled.concat());
        if i + 1 < pieces.len() {
            let mut swapped = pieces.clone();
            swapped.swap(i, i + 1);
            out.push(swapped.concat());
        }
    }
    out
}

#[test]
fn random_strings_never_panic() {
    check_all((0u64..8).flat_map(|seed| {
        let mut rng = rng_from_seed(seed);
        (0..400).map(move |_| random_string(&mut rng))
    }));
}

#[test]
fn mutated_statements_never_panic() {
    // The corpus parses under either catalog, but for its two
    // deliberately invalid statements (`levels=0`, the 1e308 sweep).
    let clean = check_all(CORPUS.iter().map(|s| s.to_string()));
    assert_eq!(clean, 2 * (CORPUS.len() - 2));
    check_all(CORPUS.iter().flat_map(|sql| mutants(sql)));
}

#[test]
fn nesting_bombs_are_refused_without_overflowing() {
    const N: usize = 10_000;
    let mut bombs = vec![format!("SELECT * FROM t WHERE 1{} = 1", " + 1".repeat(N))];
    for (open, close) in [("(", ")"), ("NOT ", ""), ("- ", "")] {
        let deep = format!("{}1{}", open.repeat(N), close.repeat(N));
        bombs.extend([
            format!("SELECT * FROM t WHERE {deep} = 1"),
            format!("DELETE FROM t WHERE {deep}"),
            format!("INSERT INTO t VALUES ({deep})"),
            format!("ESTIMATE DURABILITY OF walk(beta={deep}) WITHIN 10 TARGET RE 0.5"),
        ]);
    }
    assert_eq!(check_all(bombs), 0, "every bomb must be refused");
}
