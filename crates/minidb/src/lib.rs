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
//! * [`sql`] — a SQL front end (SELECT/INSERT/CREATE/DELETE/DROP) plus
//!   the ESTIMATE dialect parser ([`sql::estimate`]).

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
pub use proc::{seed_default_models, Method, ModelRegistry, ProcRegistry, StoredProcedure};
pub use schema::{ColumnDef, Schema};
pub use session::{DiagnosticsSource, Session, SessionConfig};
pub use sql::{execute, is_dialect, parse_dialect, DialectStatement, ExecResult};
pub use table::{Aggregate, Table, TableError};
pub use value::{DataType, Value};
