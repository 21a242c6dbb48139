//! The FL frameworks FedLPS is evaluated against (Table I of the paper).
//!
//! The nineteen baselines fall into five families, each a
//! [`Family`](fedlps_core::server::Family) on the round skeleton
//! [`Server`](fedlps_core::server::Server) that FedLPS runs on too. Their
//! shared mechanics (local SGD, masking, cost accounting, staging, staleness
//! discounting, sharded per-parameter coverage aggregation) are written — and
//! tested — once, in [`fedlps_core::server`]; a family states only what its
//! methods do differently:
//!
//! | Family | Module | Methods |
//! |---|---|---|
//! | Conventional dense FL | [`dense`] | FedAvg, FedProx, Oort, REFL |
//! | Globally sparse FL | [`global_sparse`] | PruneFL, CS |
//! | Heterogeneous width/depth scaling | [`width`] | Fjord, HeteroFL, FedRolex, FedMP, DepthFL |
//! | Personalized dense FL | [`personalized`] | Ditto, FedPer, FedRep, Per-FedAvg |
//! | Personalized sparse FL | [`sparse_personalized`] | LotteryFL, Hermes, FedSpa, FedP3 |
//!
//! Every sparse method trains through one masked entry,
//! [`Step::train_submodel`](fedlps_core::server::Step::train_submodel): the
//! packed submodel where the mask compiles, masked-dense training otherwise,
//! bit-identical either way. Each method runs at one published setting, so
//! its hyper-parameters are private constants of its family, not variant
//! fields.
//!
//! [`common`] holds the head/body helpers of the personalized families, and
//! [`registry`] exposes every baseline by the name used in the paper's tables
//! so the benchmark harness can sweep the full comparison.

pub mod common;
pub mod dense;
pub mod global_sparse;
pub mod personalized;
pub mod registry;
pub mod sparse_personalized;
pub mod width;

pub use registry::{baseline_by_name, baseline_names};
