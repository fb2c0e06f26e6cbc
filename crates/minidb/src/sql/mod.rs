//! The SQL front end: one lexer ([`lexer`]), one recursive-descent
//! parser ([`parser`], with the ESTIMATE dialect's productions in
//! [`estimate`]) and one [`Statement`]. Plain SQL — `SELECT` (with
//! `WHERE`, `ORDER BY`, `LIMIT`, aggregates), `INSERT`, `CREATE TABLE`,
//! `DELETE`, `DROP TABLE` — and the dialect — `ESTIMATE DURABILITY …`,
//! `EXPLAIN ESTIMATE …`, `SHOW MODELS`, `SHOW DIAGNOSTICS` — parse
//! through the same entry point, [`parse`]; nothing routes a statement
//! by its first word. Every parse failure is a spanned
//! [`mlss_core::spec::SpecError`].
//!
//! Plain statements execute through [`execute`]; dialect statements need
//! an engine context (model registry, plan cache, scheduler, RNG) and run
//! through [`crate::session::Session::execute`].

pub mod estimate;
pub mod exec;
pub mod lexer;
pub mod parser;

pub use exec::{execute, execute_statement, ExecResult};
pub use parser::{parse, Statement, MAX_EXPR_DEPTH};
