//! Benchmark harness regenerating the paper's tables and figures.
//!
//! Every table and figure of the evaluation section is printed by one row
//! of [`artefacts::ARTEFACTS`], run by name through the single `paper`
//! binary; figures plotted from the same runs (3–4, 7–8, 9a–9b) share a
//! row that trains each federation once:
//!
//! ```text
//! cargo run --release -p fedlps_bench --bin paper -- --list
//! cargo run --release -p fedlps_bench --bin paper -- table1 \
//!     --scale quick --datasets mnist-like,cifar10-like --methods FedAvg,Hermes,FedLPS
//! ```
//!
//! `paper --list` prints the artefact names with what each shows (it is
//! generated from the same table, so it cannot drift from what runs).
//! `--scale tiny|quick|small|full` (default `quick`) sizes the sweep, so the
//! full comparison can be reproduced when more compute time is available
//! (`tiny` is what the tier-1 claims test can afford in the debug profile);
//! `--methods` / `--datasets` narrow Table I and Figures 3–4
//! (`fig3_4_convergence`). The arguments are validated up front ([`cli`]):
//! an unknown artefact, scale, method, dataset or flag exits with status 2
//! and the valid values.
//!
//! `tests/paper_claims.rs` iterates the same table and asserts the paper's
//! qualitative orderings that hold at smoke scale.

pub mod artefacts;
pub mod cli;
pub mod harness;
pub mod scale;
pub mod table;

pub use artefacts::{Artefact, Request, ARTEFACTS};
pub use harness::{run_fedlps, run_method, ExperimentEnv};
pub use scale::Scale;
pub use table::TableBuilder;
