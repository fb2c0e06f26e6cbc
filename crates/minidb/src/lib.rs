//! # mlss-db
//!
//! An embedded mini-DBMS hosting the full durability-query pipeline —
//! the reproduction of the paper's "Implementations inside DBMS" (§6.4),
//! where PostgreSQL stored model parameters in tables, ran MLSS as a
//! stored procedure, and materialized sample paths for inspection.
//!
//! * [`value`] / [`schema`] — typed cells and table schemas;
//! * [`expr`] — filter/computed-column expressions with SQL
//!   three-valued-logic semantics;
//! * [`table`] — row-store tables: scan, filter, project, order,
//!   aggregate, delete;
//! * [`engine`] — the thread-safe catalog;
//! * [`durability`] — WAL-backed session durability, the one persistence
//!   format: journaled SQL mutations, results, plan-cache entries, shard
//!   deposits, and crash-recoverable ASYNC queries ([`Session::open`]
//!   replays the log);
//! * [`proc`] — the model registry with per-model parameter schemas and
//!   the `materialize_paths` stored procedure;
//! * [`dispatch`] — the one compile-and-dispatch path every estimate
//!   flows through ([`dispatch::execute_spec`],
//!   [`dispatch::explain_spec`], [`dispatch::show_models`]);
//! * [`session`] — concurrent serving sessions and the one front door
//!   for estimation: [`Session::execute`] runs the declarative ESTIMATE
//!   dialect (sync or `ASYNC`), and `poll`/`wait`/`cancel` manage
//!   submitted queries over a shared scheduler and plan cache;
//! * [`sql`] — the SQL front end: one lexer and one parser turn plain
//!   SQL (SELECT/INSERT/CREATE/DELETE/DROP) and the ESTIMATE dialect
//!   into one [`sql::Statement`] ([`sql::parse`]).

#![warn(missing_docs)]

pub mod dispatch;
pub mod durability;
pub mod engine;
pub mod expr;
pub mod proc;
pub mod schema;
pub mod session;
pub mod sql;
pub mod table;
pub mod value;

pub use dispatch::{
    arm_seed, execute_rank, execute_spec, explain_rank, explain_spec, show_models, standings_rows,
    RankOutcome, SpecOutcome,
};
pub use durability::{Durability, SessionWal, WalSessionConfig};
pub use engine::{Database, DbError};
pub use expr::{col, lit, Expr};
pub use proc::{materialize_paths, seed_default_models, Method, ModelRegistry};
pub use schema::{ColumnDef, Schema};
pub use session::{DiagnosticsSource, Session, SessionConfig};
pub use sql::{execute, ExecResult};
/// The one parser and its statement under the names the benchmark
/// harness (`perfbench/`) builds against: [`sql::parse`] parses plain
/// SQL and the dialect alike, into one [`sql::Statement`].
pub use sql::{parse as parse_dialect, Statement as DialectStatement};
pub use table::{Aggregate, Table, TableError};
pub use value::{DataType, Value};
