//! `mlss-serve`: the network face of a serving [`mlss_db::Session`].
//!
//! A [`Server`] accepts TCP connections (plain `std::net`, no async
//! runtime) and speaks a newline-delimited text protocol whose statement
//! language **is** the session's statement surface: plain SQL plus the
//! ESTIMATE dialect, dispatched through the one
//! [`mlss_db::dispatch::execute_spec`] path via
//! [`mlss_db::Session::execute_as`]. There is no second query language
//! and no server-side re-parse — a statement over a socket runs the
//! identical code a `Session::execute` call runs, so pinned-seed results
//! are bit-identical between the two.
//!
//! # Protocol
//!
//! Every request is one line, every response a short run of lines ending
//! in a terminator line. Terminators start with `OK`, `ERR`, or `SHED`.
//! Blank lines are skipped; any other line, malformed or not UTF-8,
//! gets its response and the connection keeps serving.
//!
//! ```text
//! C: HELLO alpha                          # handshake: tenant identity
//! S: OK hello alpha weight=1
//! C: ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 USING srs TARGET RE 30%
//! S: COLS model\tmethod\ttau\t…
//! S: ROW walk\tsrs\t0.43…\t…
//! S: OK 1
//! C: ESTIMATE … ASYNC
//! S: COLS query_id
//! S: ROW 7
//! S: OK 1
//! C: WAIT 7
//! S: OK done 0.43…
//! C: SELECT COUNT(*) FROM results
//! S: COLS count
//! S: ROW 2
//! S: OK 1
//! C: QUIT
//! S: OK bye
//! ```
//!
//! Row cells are tab-separated and formatted exactly as the `sql_shell`
//! example formats them, so a shell pointed at a server prints
//! row-for-row what an embedded shell prints.
//!
//! # Tenancy, fairness, admission
//!
//! The `HELLO <tenant>` handshake is the authentication step: with
//! [`ServeConfig::default_weight`] unset, only tenants pre-registered in
//! [`ServeConfig::tenants`] may connect. The tenant identity is stamped
//! into every statement's [`mlss_core::spec::ExecOptions`] — it is not
//! part of the statement text — and from there:
//!
//! * the scheduler charges attained service to the **tenant** and picks
//!   the lowest `attained/weight` next (weighted fair sharing across
//!   tenants, not across queries);
//! * the query's `results` row carries the tenant in its `tenant`
//!   column;
//! * `SHOW DIAGNOSTICS` grows `tenants` (per-tenant fair-share
//!   accounts) and `admission` (accept/shed counters) blocks.
//!
//! Under overload the server sheds instead of queueing without bound:
//! a global in-flight cap, a per-tenant in-flight cap, and a per-tenant
//! quota on outstanding `ASYNC` queries each turn an excess request into
//! a one-line `SHED RETRY AFTER <seconds>` response ([`admission`]).
//! Shedding keeps accepted-request latency bounded: the
//! `overloaded_server_sheds_instead_of_queueing` test pins the shed, and
//! perfbench's `served_small` workload reports `serve.shed_frac`.

pub mod admission;
pub mod client;
pub mod server;

pub use admission::{Admission, AdmissionConfig, Decision};
pub use client::{Client, Response};
pub use server::{ServeConfig, Server, MAX_REQUEST_BYTES};
