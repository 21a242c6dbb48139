//! Benchmark harness regenerating the paper's tables and figures.
//!
//! Every table and figure of the evaluation section has a corresponding
//! binary under `src/bin/` (run them with `cargo run --release -p fedlps_bench
//! --bin <name>`).
//!
//! | Paper artefact | Binary |
//! |---|---|
//! | Table I (accuracy & FLOPs, 20 methods × 5 datasets) | `table1` |
//! | Table II (ablation: FLST / RCR / P-UCBV, fixed & dynamic) | `table2_ablation` |
//! | Figure 3 (accuracy vs FLOPs) | `fig3_accuracy_vs_flops` |
//! | Figure 4 (accuracy vs running time) | `fig4_accuracy_vs_time` |
//! | Figure 5 (time-to-accuracy) | `fig5_tta` |
//! | Figure 6 (accuracy vs non-IID level) | `fig6_noniid_levels` |
//! | Figure 7 (accuracy vs heterogeneity level) | `fig7_heterogeneity_accuracy` |
//! | Figure 8 (time vs heterogeneity level) | `fig8_heterogeneity_time` |
//! | Figure 9a (pattern strategies vs sparse ratio) | `fig9a_pattern_sweep` |
//! | Figure 9b (time breakdown vs sparse ratio) | `fig9b_time_breakdown` |
//!
//! All binaries accept `--scale quick|small|full` (default `quick`) so the
//! full sweep can be reproduced when more compute time is available; the
//! qualitative orderings already emerge at the `quick` scale.

pub mod harness;
pub mod scale;
pub mod table;

pub use harness::{run_fedlps, run_method, ExperimentEnv};
pub use scale::Scale;
pub use table::TableBuilder;
