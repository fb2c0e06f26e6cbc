//! # mlss-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! `src/bin/`), shared settings ([`settings`]), drivers ([`runners`]),
//! and reporting ([`report`]). Timing lives in perfbench
//! (`perfbench/README.md`), not here.
//!
//! Every binary accepts `--full` for paper-scale quality targets and
//! repetitions; the default `Quick` profile regenerates each artifact in
//! seconds-to-minutes. Output goes to stdout and `results/*.csv`.

#![warn(missing_docs)]

pub mod report;
pub mod rnn;
pub mod runners;
pub mod settings;

pub use report::{fmt_prob, fmt_steps, Report};
pub use runners::{
    balanced_for, mean_std, mlss_budget, mlss_to_target, run_budget, run_to_target, srs_budget,
    srs_to_target, RunRow,
};
pub use settings::{Profile, QueryClass, QuerySpec, DEFAULT_RATIO};
