//! Property-style round-trip tests for the SQL front end: whatever we
//! INSERT must come back from SELECT, with predicates filtering exactly.
//!
//! Earlier revisions used `proptest`; the offline build environment
//! vendors no third-party crates, so inputs are drawn from a seeded
//! ChaCha stream instead — same invariants, reproducible cases.

use mlss_core::rng::{rng_from_seed, SimRng};
use mlss_db::{execute, Database, ExecResult, Value};
use rand::RngExt;

fn fresh_db() -> Database {
    let db = Database::new();
    execute(&db, "CREATE TABLE t (id INT, score FLOAT, tag TEXT)").unwrap();
    db
}

/// Escape a string for a SQL literal.
fn quote(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

fn random_tag(rng: &mut SimRng) -> String {
    let len = rng.random_range(0usize..9);
    (0..len)
        .map(|_| (b'a' + rng.random_range(0u32..26) as u8) as char)
        .collect()
}

fn random_rows(rng: &mut SimRng, max: usize) -> Vec<(i64, f64, String)> {
    let n = rng.random_range(1usize..max);
    (0..n)
        .map(|_| {
            (
                rng.random_range(0i64..1000),
                (rng.random::<f64>() - 0.5) * 2.0e6,
                random_tag(rng),
            )
        })
        .collect()
}

#[test]
fn insert_select_roundtrip() {
    for seed in 0u64..32 {
        let mut rng = rng_from_seed(seed);
        let rows = random_rows(&mut rng, 20);
        let db = fresh_db();
        for (id, score, tag) in &rows {
            let sql = format!("INSERT INTO t VALUES ({id}, {score:?}, {})", quote(tag));
            execute(&db, &sql).unwrap();
        }
        let res = execute(&db, "SELECT id, score, tag FROM t").unwrap();
        let got = res.rows();
        assert_eq!(got.len(), rows.len());
        for ((id, score, tag), row) in rows.iter().zip(got) {
            assert_eq!(row[0].as_i64().unwrap(), *id);
            assert!((row[1].as_f64().unwrap() - score).abs() < 1e-9 * score.abs().max(1.0));
            assert_eq!(row[2].as_str().unwrap(), tag.as_str());
        }
    }
}

#[test]
fn where_partitions_rows() {
    for seed in 100u64..116 {
        let mut rng = rng_from_seed(seed);
        let n = rng.random_range(1usize..30);
        let rows: Vec<(i64, f64)> = (0..n)
            .map(|_| {
                (
                    rng.random_range(0i64..100),
                    (rng.random::<f64>() - 0.5) * 200.0,
                )
            })
            .collect();
        let pivot = (rng.random::<f64>() - 0.5) * 200.0;
        let db = fresh_db();
        for (i, (id, score)) in rows.iter().enumerate() {
            execute(
                &db,
                &format!("INSERT INTO t VALUES ({id}, {score:?}, 'r{i}')"),
            )
            .unwrap();
        }
        let above = execute(&db, &format!("SELECT * FROM t WHERE score >= {pivot:?}")).unwrap();
        let below = execute(&db, &format!("SELECT * FROM t WHERE score < {pivot:?}")).unwrap();
        assert_eq!(above.rows().len() + below.rows().len(), rows.len());
        for row in above.rows() {
            assert!(row[1].as_f64().unwrap() >= pivot);
        }
        for row in below.rows() {
            assert!(row[1].as_f64().unwrap() < pivot);
        }
    }
}

#[test]
fn count_matches_inserted() {
    for n in [1usize, 2, 7, 19, 39] {
        let db = fresh_db();
        for i in 0..n {
            execute(&db, &format!("INSERT INTO t VALUES ({i}, 0.0, 'x')")).unwrap();
        }
        let res = execute(&db, "SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(res.scalar(), Some(&Value::Int(n as i64)));
        // Deleting everything empties the table.
        let del = execute(&db, "DELETE FROM t").unwrap();
        assert_eq!(del, ExecResult::Affected(n));
        let res = execute(&db, "SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(res.scalar(), Some(&Value::Int(0)));
    }
}

#[test]
fn order_by_sorts() {
    for seed in 200u64..216 {
        let mut rng = rng_from_seed(seed);
        let n = rng.random_range(2usize..25);
        let mut ids: Vec<i64> = (0..n).map(|_| rng.random_range(0i64..1000)).collect();
        let db = fresh_db();
        for id in &ids {
            execute(&db, &format!("INSERT INTO t VALUES ({id}, 0.0, 'x')")).unwrap();
        }
        let res = execute(&db, "SELECT id FROM t ORDER BY id ASC").unwrap();
        ids.sort();
        let got: Vec<i64> = res.rows().iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(got, ids);
    }
}

#[test]
fn utf8_text_round_trips_byte_for_byte() {
    let db = fresh_db();
    for (id, tag) in [(1, "café"), (2, "日本")] {
        execute(
            &db,
            &format!("INSERT INTO t VALUES ({id}, 0.0, {})", quote(tag)),
        )
        .unwrap();
    }
    let res = execute(&db, "SELECT tag FROM t ORDER BY id ASC").unwrap();
    let got: Vec<&[u8]> = res
        .rows()
        .iter()
        .map(|r| r[0].as_str().unwrap().as_bytes())
        .collect();
    assert_eq!(got, ["café".as_bytes(), "日本".as_bytes()]);
    let hit = execute(&db, "SELECT id FROM t WHERE tag = 'café'").unwrap();
    assert_eq!(hit.rows(), &[vec![Value::Int(1)]]);
}
