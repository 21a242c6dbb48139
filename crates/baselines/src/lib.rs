//! The FL frameworks FedLPS is evaluated against (Table I of the paper).
//!
//! The nineteen baselines fall into five families. Their shared mechanics
//! (local SGD, masking, cost accounting, staging, staleness discounting,
//! aggregation) are written — and tested — once, in [`driver`]; a family
//! states only what its methods do differently:
//!
//! | Family | Module | Methods |
//! |---|---|---|
//! | Conventional dense FL | [`dense`] | FedAvg, FedProx, Oort, REFL |
//! | Globally sparse FL | [`global_sparse`] | PruneFL, CS |
//! | Heterogeneous width/depth scaling | [`width`] | Fjord, HeteroFL, FedRolex, FedMP, DepthFL |
//! | Personalized dense FL | [`personalized`] | Ditto, FedPer, FedRep, Per-FedAvg |
//! | Personalized sparse FL | [`sparse_personalized`] | LotteryFL, Hermes, FedSpa, FedP3 |
//!
//! [`registry`] exposes them all by the names used in the paper's tables so
//! the benchmark harness can sweep the full comparison.

pub mod common;
pub mod dense;
pub mod driver;
pub mod global_sparse;
pub mod personalized;
pub mod registry;
pub mod sparse_personalized;
pub mod width;

pub use registry::{baseline_by_name, baseline_names};
