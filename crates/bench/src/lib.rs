//! # gpssn-bench — experiment harness
//!
//! Reproduces every table and figure of the paper's evaluation (Section
//! 6). Run `cargo run --release -p gpssn-bench --bin experiments -- all`
//! or pass an experiment id (`table1`, `table2`, `fig7a`…`fig7d`, `fig8`,
//! `fig9`, `fig10`, `fig11`, `appP-theta`, `appP-r`, `appP-gamma`,
//! `appP-pivots`, `appP-vs`).
//!
//! The harness prints the same rows/series the paper reports; the shapes
//! (who wins, monotone trends, crossovers) are the reproduction target —
//! absolute numbers differ from the authors' C++/64 GB testbed.

pub mod cli;
pub mod experiments;
pub mod runner;

pub use runner::{run_query, ExperimentContext, Table};
