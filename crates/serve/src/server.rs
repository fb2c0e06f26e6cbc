//! The accept loop and per-connection workers.
//!
//! Plain `std::net`: a bound [`std::net::TcpListener`], one accept
//! thread, and one worker thread per connection (capped by
//! [`ServeConfig::max_connections`]; excess connections are shed at
//! accept time with a `SHED RETRY AFTER` line). Statements execute on
//! the connection's own thread through
//! [`mlss_db::Session::execute_as`], so scheduling fairness between
//! tenants is the session scheduler's fair-share policy, and admission
//! ([`crate::Admission`]) bounds how many connection threads execute at
//! once.

use crate::admission::{Admission, AdmissionConfig, Decision};
use mlss_core::scheduler::{QueryId, QueryStatus};
use mlss_db::session::Session;
use mlss_db::sql::ExecResult;
use mlss_db::DbError;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Longest request line the server reads, in bytes (the newline not
/// counted). A longer line is answered with `ERR request exceeds … bytes`
/// and the connection is closed, so a client that never sends a newline
/// cannot grow the server's buffer without limit.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Concurrent connections; excess accepts are shed and closed.
    pub max_connections: usize,
    /// In-flight statement caps and ASYNC quotas.
    pub admission: AdmissionConfig,
    /// Pre-registered tenants and their fair-share weights.
    pub tenants: Vec<(String, f64)>,
    /// Weight granted to tenants that are not pre-registered. `None`
    /// rejects them at `HELLO` — the allowlist becomes the
    /// authentication boundary.
    pub default_weight: Option<f64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 256,
            admission: AdmissionConfig::default(),
            tenants: Vec::new(),
            default_weight: Some(1.0),
        }
    }
}

/// A running server. Dropping it stops the accept loop; connection
/// threads finish with their clients.
pub struct Server {
    addr: SocketAddr,
    admission: Arc<Admission>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `cfg.addr`, register `cfg.tenants`' weights and the
    /// `admission` diagnostics block on the session, and start serving.
    pub fn start(session: Arc<Session>, cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        for (name, weight) in &cfg.tenants {
            session.set_tenant_weight(name, *weight);
        }
        let admission = Admission::new(cfg.admission.clone());
        {
            let adm = Arc::clone(&admission);
            session.add_diagnostics_source(Arc::new(move || adm.diagnostics()));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let live = Arc::new(AtomicUsize::new(0));
        let accept = {
            let stop = Arc::clone(&stop);
            let admission = Arc::clone(&admission);
            let registered: Arc<Vec<String>> =
                Arc::new(cfg.tenants.iter().map(|(n, _)| n.clone()).collect());
            let default_weight = cfg.default_weight;
            let max_connections = cfg.max_connections;
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Line-oriented request/response: Nagle + delayed
                    // ACK would add ~40ms per turn, serializing clients.
                    let _ = stream.set_nodelay(true);
                    if live.load(Ordering::SeqCst) >= max_connections {
                        let mut s = stream;
                        let _ = s.write_all(b"SHED RETRY AFTER 1\n");
                        continue;
                    }
                    live.fetch_add(1, Ordering::SeqCst);
                    let session = Arc::clone(&session);
                    let admission = Arc::clone(&admission);
                    let registered = Arc::clone(&registered);
                    let live = Arc::clone(&live);
                    std::thread::spawn(move || {
                        let _ = handle(&session, &admission, &registered, default_weight, stream);
                        live.fetch_sub(1, Ordering::SeqCst);
                    });
                }
            })
        };
        Ok(Server {
            addr,
            admission,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's admission ledger (counters for tests/monitoring).
    pub fn admission(&self) -> &Arc<Admission> {
        &self.admission
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Does this statement request ASYNC scheduling? The dialect keyword is
/// statement-final (an optional `;` aside), so a suffix check suffices —
/// the statement still parses through the one dialect parser; this only
/// decides which admission caps apply *before* doing any work.
fn wants_async(stmt: &str) -> bool {
    stmt.trim_end_matches(';')
        .trim_end()
        .to_ascii_uppercase()
        .ends_with(" ASYNC")
}

fn one_line(msg: &str) -> String {
    msg.replace('\n', "; ")
}

fn write_line(out: &mut TcpStream, line: &str) -> std::io::Result<()> {
    out.write_all(line.as_bytes())?;
    out.write_all(b"\n")
}

/// Stream an [`ExecResult`] as `COLS`/`ROW` lines plus a terminator.
fn write_result(out: &mut TcpStream, res: &ExecResult) -> std::io::Result<()> {
    match res {
        ExecResult::Rows { columns, rows } => {
            write_line(out, &format!("COLS {}", columns.join("\t")))?;
            for row in rows {
                let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
                write_line(out, &format!("ROW {}", cells.join("\t")))?;
            }
            write_line(out, &format!("OK {}", rows.len()))
        }
        ExecResult::Affected(n) => write_line(out, &format!("OK affected {n}")),
        ExecResult::Ok => write_line(out, "OK done"),
    }
}

fn handle(
    session: &Arc<Session>,
    admission: &Arc<Admission>,
    registered: &[String],
    default_weight: Option<f64>,
    stream: TcpStream,
) -> std::io::Result<()> {
    let mut out = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut tenant: Option<String> = None;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let cap = MAX_REQUEST_BYTES as u64 + 1;
        if (&mut reader).take(cap).read_until(b'\n', &mut buf)? == 0 {
            return Ok(()); // client closed the connection
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        } else if buf.len() > MAX_REQUEST_BYTES {
            write_line(
                &mut out,
                &format!("ERR request exceeds {MAX_REQUEST_BYTES} bytes"),
            )?;
            return Ok(());
        }
        let line = std::str::from_utf8(&buf)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let req = line.trim();
        if req.is_empty() {
            continue;
        }
        let upper_head = req
            .split_whitespace()
            .next()
            .unwrap_or("")
            .to_ascii_uppercase();
        match upper_head.as_str() {
            "HELLO" => {
                let name = req[5..].trim();
                if name.is_empty()
                    || !name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
                {
                    write_line(&mut out, "ERR HELLO needs a tenant name ([A-Za-z0-9_-]+)")?;
                    continue;
                }
                let known = registered.iter().any(|r| r == name);
                if !known {
                    match default_weight {
                        Some(w) => {
                            // First sight of an ad-hoc tenant: register it
                            // at the default weight (pre-registered
                            // weights are never overwritten here).
                            let already = session
                                .scheduler()
                                .tenant_stats()
                                .iter()
                                .any(|t| t.name == name);
                            if !already {
                                session.set_tenant_weight(name, w);
                            }
                        }
                        None => {
                            write_line(&mut out, &format!("ERR unknown tenant '{name}'"))?;
                            continue;
                        }
                    }
                }
                let weight = session
                    .scheduler()
                    .tenant_stats()
                    .iter()
                    .find(|t| t.name == name)
                    .map(|t| t.weight)
                    .unwrap_or(1.0);
                tenant = Some(name.to_string());
                write_line(&mut out, &format!("OK hello {name} weight={weight}"))?;
            }
            "PING" => write_line(&mut out, "OK pong")?,
            "QUIT" => {
                write_line(&mut out, "OK bye")?;
                return Ok(());
            }
            _ => {
                let Some(tenant) = tenant.as_deref() else {
                    write_line(&mut out, "ERR handshake required: HELLO <tenant>")?;
                    continue;
                };
                if upper_head == "WAIT" {
                    let id = req[4..].trim().parse::<QueryId>().ok();
                    match id.map(|id| session.wait(id)) {
                        Some(Ok(Some(QueryStatus::Done(est)))) => {
                            write_line(&mut out, &format!("OK done {}", est.tau))?
                        }
                        Some(Ok(Some(status))) => {
                            write_line(&mut out, &format!("ERR query ended {status:?}"))?
                        }
                        Some(Ok(None)) => write_line(&mut out, "ERR unknown query id")?,
                        Some(Err(e)) => {
                            write_line(&mut out, &format!("ERR {}", one_line(&e.to_string())))?
                        }
                        None => write_line(&mut out, "ERR WAIT needs a numeric query id")?,
                    }
                    continue;
                }
                let is_async = wants_async(req);
                let decision = admission.admit(tenant, is_async, |id| {
                    session.poll(id).is_none_or(|s| s.is_terminal())
                });
                match decision {
                    Decision::Shed { retry_after } => {
                        write_line(&mut out, &format!("SHED RETRY AFTER {retry_after}"))?;
                    }
                    Decision::Admit(ticket) => {
                        let res = session.execute_as(Some(tenant), req);
                        drop(ticket);
                        match res {
                            Ok(res) => {
                                // An ASYNC submission returns the single
                                // `query_id` column: charge it against
                                // the tenant's outstanding quota.
                                if let ExecResult::Rows { columns, rows } = &res {
                                    if columns.len() == 1 && columns[0] == "query_id" {
                                        if let Some(id) = rows
                                            .first()
                                            .and_then(|r| r.first())
                                            .and_then(|v| v.as_i64())
                                        {
                                            admission.note_async(tenant, id as QueryId);
                                        }
                                    }
                                }
                                write_result(&mut out, &res)?;
                            }
                            Err(DbError::Spec(e)) => {
                                write_line(&mut out, &format!("ERR {}", one_line(&e.to_string())))?
                            }
                            Err(e) => {
                                write_line(&mut out, &format!("ERR {}", one_line(&e.to_string())))?
                            }
                        }
                    }
                }
            }
        }
        out.flush()?;
    }
}
