//! # durability-mlss
//!
//! Umbrella crate for the *Efficiently Answering Durability Prediction
//! Queries* (SIGMOD 2021) reproduction. Re-exports the workspace crates:
//!
//! * [`core`](mlss_core) — MLSS samplers, estimators, and level-design
//!   optimization;
//! * [`models`](mlss_models) — stochastic process substrates (tandem
//!   queues, compound-Poisson, AR, Markov chains, random walks, GBM, and
//!   volatile variants);
//! * [`nn`](mlss_nn) — the from-scratch LSTM-MDN black-box simulator;
//! * [`analytic`](mlss_analytic) — exact first-hitting-time ground truth;
//! * [`db`](mlss_db) — the embedded mini-DBMS hosting the whole pipeline.
//!
//! See the `examples/` directory for runnable end-to-end scenarios, the
//! `mlss-bench` binaries (one per paper figure and table) for the
//! reproduction map, and `docs/` for the engine's design.

pub use mlss_analytic as analytic;
pub use mlss_core as core;
pub use mlss_db as db;
pub use mlss_models as models;
pub use mlss_nn as nn;

pub use mlss_core::prelude;
