//! Benchmark harness reproducing every table and figure of the TreeSLS
//! paper's evaluation (§7).
//!
//! One binary, `paperfigs`, prints them all in one run and writes
//! `results/PAPERFIGS.json` (see DESIGN.md's experiment index). Absolute
//! numbers reflect the emulated substrate; the *shapes* are the
//! reproduction target (see EXPERIMENTS.md).
//!
//! The [`harness`] module assembles the paper's workloads (Table 2) on a
//! running TreeSLS instance; [`figs`] reads Tables 2–4 and Figs. 9a/9b
//! from one run per workload and holds the regression gates' pass rules;
//! [`table`] provides plain-text table output.

pub mod figs;
pub mod harness;
pub mod ringsetup;
pub mod table;

pub use harness::{BenchSystem, WorkloadKind};
