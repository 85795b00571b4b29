//! # cij-bench — experiment harness for the paper's evaluation (§VI)
//!
//! Shared machinery between the `figures` binary (one subcommand per
//! table/figure of the paper) and the Criterion micro-benchmarks:
//! dataset/engine construction from [`cij_workload::Params`], cold-cache measurement
//! helpers, and table formatting.
//!
//! Scale note: the paper sweeps dataset sizes 1K–100K. `Scale::Paper`
//! reproduces those sizes; `Scale::Small` divides them by 10 so the full
//! figure suite completes in minutes. Both produce the same *shapes*
//! (who wins, by what factor) — the claims the reproduction checks.

#![deny(unsafe_code)]

pub mod report;
pub mod runner;

pub use report::{Row, Table};
pub use runner::{build_pair_trees, fresh_pool, measure, EngineKind, MaintenanceCost, Scale};
