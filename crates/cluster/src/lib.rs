//! # rmr-cluster — testbed presets and the experiment driver
//!
//! [`testbed`] encodes the paper's cluster (§IV-A) and per-system tuning;
//! [`runner`] executes experiment grids, one deterministic simulation per
//! point, in parallel across OS threads.

pub mod runner;
pub mod testbed;

pub use runner::{
    format_table, run_all, run_experiment, run_experiment_traced, Experiment, RunRecord,
};
pub use testbed::{tuned_block_size, tuned_conf, Bench, System, Testbed};
