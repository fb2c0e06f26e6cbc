//! End-to-end protocol tests: handshake auth, admission control,
//! per-tenant provenance, fair sharing, and socket-vs-embedded
//! bit-identity — all against an in-process server on an ephemeral port.

use mlss_db::{Session, SessionConfig};
use mlss_serve::{AdmissionConfig, Client, Response, ServeConfig, Server};
use std::sync::Arc;

fn session(workers: usize, slice_budget: u64) -> Arc<Session> {
    Arc::new(
        Session::new(SessionConfig {
            workers,
            slice_budget,
            seed: 42,
            ..SessionConfig::default()
        })
        .unwrap(),
    )
}

fn start(session: &Arc<Session>, cfg: ServeConfig) -> Server {
    Server::start(Arc::clone(session), cfg).expect("bind ephemeral port")
}

#[test]
fn handshake_gates_statements_and_strict_mode_rejects_unknown_tenants() {
    let s = session(1, 8_192);
    let server = start(
        &s,
        ServeConfig {
            tenants: vec![("alpha".into(), 1.0)],
            default_weight: None, // strict: allowlist is the auth boundary
            ..ServeConfig::default()
        },
    );
    let addr = server.addr().to_string();

    // No HELLO: statements are refused.
    {
        use std::io::{BufRead, BufReader, Write};
        let mut raw = std::net::TcpStream::connect(&addr).unwrap();
        raw.write_all(b"SELECT COUNT(*) FROM results\n").unwrap();
        let mut line = String::new();
        BufReader::new(raw.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert!(line.starts_with("ERR handshake required"), "got {line:?}");
    }
    // Unknown tenant: rejected at HELLO.
    let denied = Client::connect(&addr, "mallory");
    assert!(denied.is_err(), "strict mode must reject unknown tenants");
    // Registered tenant: full round trip.
    let mut c = Client::connect(&addr, "alpha").unwrap();
    assert!(c.ping().unwrap());
    match c.request("SHOW MODELS").unwrap() {
        Response::Rows { columns, rows } => {
            assert_eq!(columns[0], "model");
            assert!(rows.len() >= 8);
        }
        other => panic!("SHOW MODELS over the wire: {other:?}"),
    }
    c.quit().unwrap();
}

#[test]
fn socket_statement_is_bit_identical_to_embedded_execution() {
    let stmt = "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 USING srs \
                TARGET RE 30% WITH (seed=7)";
    // Embedded reference run.
    let embedded = session(2, 8_192);
    let reference = match embedded.execute(stmt).unwrap() {
        mlss_db::ExecResult::Rows { rows, .. } => rows,
        other => panic!("estimate returned {other:?}"),
    };
    // The same pinned statement over a socket, as a tenant.
    let served = session(2, 8_192);
    let server = start(&served, ServeConfig::default());
    let mut c = Client::connect(&server.addr().to_string(), "acme").unwrap();
    let wire_rows = match c.request(stmt).unwrap() {
        Response::Rows { rows, .. } => rows,
        other => panic!("socket estimate returned {other:?}"),
    };
    // The inline estimate row matches cell-for-cell except wall-clock
    // millis (index 6): tau, variance, steps, n_roots are bit-identical
    // because both paths dispatch the same spec with the same seed.
    assert_eq!(wire_rows.len(), 1);
    let embedded_cells: Vec<String> = reference[0].iter().map(|v| format!("{v}")).collect();
    for (i, (wire, emb)) in wire_rows[0].iter().zip(&embedded_cells).enumerate() {
        if i == 6 {
            continue; // millis: wall clock
        }
        assert_eq!(wire, emb, "cell {i} differs");
    }
    // And the recorded `results` rows agree everywhere except millis
    // and the tenant column (the socket run carries its tenant; the
    // embedded run is tenantless).
    let row_of = |s: &Session| {
        s.db()
            .with_table("results", |t| {
                t.scan().map(|r| r.to_vec()).collect::<Vec<_>>()
            })
            .unwrap()
    };
    let (er, sr) = (row_of(&embedded), row_of(&served));
    assert_eq!(er.len(), 1);
    assert_eq!(sr.len(), 1);
    for i in 0..er[0].len() {
        if i == 8 || i == 11 {
            continue; // millis, tenant
        }
        assert_eq!(er[0][i], sr[0][i], "results column {i} differs");
    }
    assert_eq!(er[0][11].as_str(), Some("-"));
    assert_eq!(sr[0][11].as_str(), Some("acme"));
}

#[test]
fn async_quota_sheds_with_retry_after_and_recovers() {
    let s = session(1, 2_048);
    let server = start(
        &s,
        ServeConfig {
            admission: AdmissionConfig {
                global_inflight_cap: 64,
                tenant_inflight_cap: 16,
                tenant_async_quota: 1,
            },
            ..ServeConfig::default()
        },
    );
    let mut c = Client::connect(&server.addr().to_string(), "acme").unwrap();
    // A long-running ASYNC fills the quota of 1 (the 0.1% target keeps
    // it in flight for the whole test; it is cancelled, never awaited)…
    let long = "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 60 USING srs \
                TARGET RE 0.1% WITH (seed=3) ASYNC";
    let id = match c.request(long).unwrap() {
        Response::Rows { rows, .. } => rows[0][0].parse::<u64>().unwrap(),
        other => panic!("async submit returned {other:?}"),
    };
    // …so the next ASYNC is shed, with a retry hint ≥ 1s.
    match c.request(long).unwrap() {
        Response::Shed { retry_after } => assert!((1..=30).contains(&retry_after)),
        other => panic!("over-quota async must shed, got {other:?}"),
    }
    // Sync statements are not quota-bound.
    assert!(c.request("SELECT COUNT(*) FROM models").unwrap().is_ok());
    // Once the outstanding query is terminal, the quota slot frees.
    assert!(s.cancel(id as mlss_core::scheduler::QueryId) || s.poll(id as _).is_some());
    while !s.poll(id as _).map(|st| st.is_terminal()).unwrap_or(true) {
        std::thread::yield_now();
    }
    match c.request(long).unwrap() {
        Response::Rows { rows, .. } => {
            let id2 = rows[0][0].parse::<u64>().unwrap();
            s.cancel(id2 as _);
        }
        other => panic!("quota must recover after completion, got {other:?}"),
    }
}

#[test]
fn overloaded_server_sheds_instead_of_queueing() {
    let s = session(1, 8_192);
    let server = start(
        &s,
        ServeConfig {
            admission: AdmissionConfig {
                global_inflight_cap: 0, // never admit: every statement sheds
                tenant_inflight_cap: 16,
                tenant_async_quota: 8,
            },
            ..ServeConfig::default()
        },
    );
    let mut c = Client::connect(&server.addr().to_string(), "acme").unwrap();
    match c.request("SELECT COUNT(*) FROM models").unwrap() {
        Response::Shed { retry_after } => assert!(retry_after >= 1),
        other => panic!("zero cap must shed, got {other:?}"),
    }
    assert_eq!(server.admission().shed_total(), 1);
}

#[test]
fn equal_weight_tenants_attain_service_within_bound_over_sockets() {
    // One worker, small slices: a beta query races an alpha flood. The
    // scheduler's fair-share policy must interleave the two tenants'
    // attained service rather than letting the flood starve beta.
    let s = session(1, 4_096);
    let server = start(&s, ServeConfig::default());
    let addr = server.addr().to_string();
    let mut beta = Client::connect(&addr, "beta").unwrap();
    let mut alpha = Client::connect(&addr, "alpha").unwrap();
    let submit = |c: &mut Client, re: &str, seed: u64| -> u64 {
        let stmt = format!(
            "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 60 USING srs \
             TARGET RE {re} WITH (seed={seed}) ASYNC"
        );
        match c.request(&stmt).unwrap() {
            Response::Rows { rows, .. } => rows[0][0].parse().unwrap(),
            other => panic!("submit returned {other:?}"),
        }
    };
    // Beta's single query first (bounded head start), then alpha's
    // 4-query flood of the same length. Tenant-fair sharing gives beta
    // half the service, so its query finishes when each flood query is
    // only ~1/4 done; query-fair (the legacy least-attained-per-query
    // policy) would finish all five together. The discriminating
    // observable — robust to the scheduler racing ahead while WAIT's
    // response travels back — is how much of the flood is still running
    // when beta's WAIT returns. (The exact ≤1.5x attained-service ratio
    // is pinned deterministically in the scheduler's own tests.)
    let beta_id = submit(&mut beta, "1%", 11);
    let flood: Vec<u64> = (0..4).map(|i| submit(&mut alpha, "1%", 20 + i)).collect();
    match beta.request(&format!("WAIT {beta_id}")).unwrap() {
        Response::Ok(s) => assert!(s.starts_with("done")),
        other => panic!("WAIT returned {other:?}"),
    }
    let terminal_flood = flood
        .iter()
        .filter(|&&id| s.poll(id as _).map(|st| st.is_terminal()).unwrap_or(true))
        .count();
    assert!(
        terminal_flood <= 1,
        "beta must finish while the flood is mostly in flight \
         (terminal flood queries: {terminal_flood}/4)"
    );
    let stats = s.scheduler().tenant_stats();
    let att = |name: &str| {
        stats
            .iter()
            .find(|t| t.name == name)
            .map(|t| t.attained_steps)
            .unwrap_or(0)
    };
    assert!(att("beta") > 0, "beta attained nothing");
    assert!(att("alpha") > 0, "alpha attained nothing while beta ran");
    // Clean up the flood so the session tears down fast.
    for id in flood {
        s.cancel(id as _);
    }
}

#[test]
fn show_diagnostics_surfaces_tenants_and_admission_blocks() {
    let s = session(2, 8_192);
    let server = start(&s, ServeConfig::default());
    let mut c = Client::connect(&server.addr().to_string(), "acme").unwrap();
    assert!(c
        .request("ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 USING srs TARGET RE 30%")
        .unwrap()
        .is_ok());
    let rows = match c.request("SHOW DIAGNOSTICS").unwrap() {
        Response::Rows { rows, .. } => rows,
        other => panic!("SHOW DIAGNOSTICS returned {other:?}"),
    };
    let has =
        |component: &str, counter: &str| rows.iter().any(|r| r[0] == component && r[1] == counter);
    assert!(has("tenants", "acme.weight"), "tenants block missing");
    assert!(has("tenants", "acme.attained_steps"));
    assert!(
        has("admission", "global.accepted"),
        "admission block missing"
    );
    assert!(has("admission", "acme.accepted"));
}

#[test]
fn overlong_request_line_is_refused_and_the_server_keeps_serving() {
    use std::io::{BufRead, BufReader, Read, Write};
    let s = session(1, 8_192);
    let server = start(&s, ServeConfig::default());
    let addr = server.addr().to_string();

    // One byte past the cap and no newline: the server answers with an
    // error and closes the connection instead of buffering on.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.write_all(&vec![b'a'; mlss_serve::MAX_REQUEST_BYTES + 1])
        .unwrap();
    let mut reader = BufReader::new(raw);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(
        line.trim_end(),
        format!(
            "ERR request exceeds {} bytes",
            mlss_serve::MAX_REQUEST_BYTES
        )
    );
    let mut rest = Vec::new();
    assert_eq!(
        reader.read_to_end(&mut rest).unwrap(),
        0,
        "connection closed"
    );

    // A fresh connection is served as usual.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.write_all(b"PING\n").unwrap();
    let mut line = String::new();
    BufReader::new(raw).read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "OK pong");
}
