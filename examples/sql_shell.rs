//! A line-oriented SQL shell over a serving [`Session`]: reads
//! statements from stdin (plain SQL plus the ESTIMATE dialect), prints
//! result rows to stdout. Exercised in CI as a smoke test of the whole
//! front door:
//!
//! ```text
//! echo "SHOW MODELS;
//!       ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 USING srs TARGET RE 30%;
//!       SELECT model, tau FROM results" | cargo run --release --example sql_shell
//! ```
//!
//! Statements are one per line (a trailing `;` is allowed); lines
//! starting with `--` are comments. Errors are printed (with a caret
//! under their byte span) and the shell continues — like any SQL
//! prompt — but the process exits nonzero if any statement failed, so CI
//! catches regressions.
//!
//! With `MLSS_WAL_DIR=<dir>` the shell opens a **WAL-backed** session
//! over that directory: results and ASYNC queries journal there, and a
//! restarted shell replays the log — completed queries are back in
//! `results`, interrupted ASYNC queries finish before the first prompt
//! (each reports a `recovered query …` line). CI uses this for the
//! kill-and-reopen durability smoke (see `make test-durability`).
//!
//! With `--connect host:port [--tenant NAME]` the shell runs the same
//! statements against a remote `mlss_serve` server instead of an
//! embedded session, printing rows in the identical format — CI's
//! serve smoke diffs embedded vs connected output row-for-row.

use mlss_db::{DbError, ExecResult, Session, SessionConfig};
use mlss_serve::{Client, Response};
use std::io::BufRead;

/// An embedded result in the shape a server sends it, so both modes
/// print through [`print_response`].
fn to_response(res: &ExecResult) -> Response {
    match res {
        ExecResult::Rows { columns, rows } => Response::Rows {
            columns: columns.clone(),
            rows: rows
                .iter()
                .map(|row| row.iter().map(|v| format!("{v}")).collect())
                .collect(),
        },
        ExecResult::Affected(n) => Response::Ok(format!("affected {n}")),
        ExecResult::Ok => Response::Ok("done".into()),
    }
}

/// Print a response; `false` if the statement failed.
fn print_response(res: &Response) -> bool {
    match res {
        Response::Rows { columns, rows } => {
            println!("{}", columns.join(" | "));
            for row in rows {
                println!("{}", row.join(" | "));
            }
            println!(
                "({} row{})",
                rows.len(),
                if rows.len() == 1 { "" } else { "s" }
            );
            true
        }
        Response::Ok(tail) => {
            match tail.strip_prefix("affected ") {
                Some(n) => println!("ok ({n} affected)"),
                None => println!("ok"),
            }
            true
        }
        Response::Err(e) => {
            println!("error: {e}");
            false
        }
        Response::Shed { retry_after } => {
            println!("shed: retry after {retry_after}s");
            false
        }
    }
}

/// Run each stdin statement (one per line; blank and `--` lines are
/// skipped) through `run`, echoing it first, and exit nonzero if any
/// failed.
fn drive(mut run: impl FnMut(&str) -> bool) -> u32 {
    let mut failures = 0u32;
    for line in std::io::stdin().lock().lines() {
        let line = line.expect("read stdin");
        let stmt = line.trim();
        if stmt.is_empty() || stmt.starts_with("--") {
            continue;
        }
        println!("> {stmt}");
        if !run(stmt) {
            failures += 1;
        }
        println!();
    }
    failures
}

fn exit_on_failures(failures: u32) {
    if failures > 0 {
        eprintln!("{failures} statement(s) failed");
        std::process::exit(1);
    }
}

fn main() {
    let mut connect: Option<String> = None;
    let mut tenant = "shell".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => connect = Some(args.next().expect("--connect needs host:port")),
            "--tenant" => tenant = args.next().expect("--tenant needs a name"),
            other => {
                eprintln!(
                    "unknown flag {other} (usage: sql_shell [--connect host:port [--tenant NAME]])"
                );
                std::process::exit(2);
            }
        }
    }
    if let Some(addr) = connect {
        let mut client = Client::connect(&addr, &tenant).expect("connect to server");
        let failures = drive(|stmt| match client.request(stmt) {
            Ok(res) => print_response(&res),
            Err(e) => {
                println!("error: {e}");
                false
            }
        });
        let _ = client.quit();
        return exit_on_failures(failures);
    }
    let cfg = SessionConfig {
        seed: 42,
        ..SessionConfig::default()
    };
    let session = match std::env::var_os("MLSS_WAL_DIR") {
        Some(dir) => Session::open(std::path::PathBuf::from(dir), cfg),
        None => Session::new(cfg),
    }
    .expect("open session");
    // Finish what a previous (killed) shell left running before taking
    // statements, so `SELECT … FROM results` sees the recovered rows.
    for (id, status) in session
        .wait_recovered()
        .expect("recover interrupted queries")
    {
        println!("recovered query {id}: {status:?}");
    }

    exit_on_failures(drive(|stmt| match session.execute(stmt) {
        Ok(res) => print_response(&to_response(&res)),
        Err(e) => {
            println!("error: {e}");
            // Spanned errors: point at the offending characters.
            if let DbError::Spec(mlss_core::spec::SpecError {
                span: Some(span), ..
            }) = &e
            {
                let width = |text: &str| text.chars().count();
                println!("  {stmt}");
                println!(
                    "  {}{}",
                    " ".repeat(width(&stmt[..span.start])),
                    "^".repeat(width(&stmt[span.start..span.end]).max(1))
                );
            }
            false
        }
    }));
}
