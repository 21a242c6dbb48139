//! Structured sparsification: unit masks and the strategies that choose them.
//!
//! A sparse model in the paper is `ω ⊙ m` where the binary mask `m` is derived
//! from a *sparse pattern* `P` (which units survive) and a *sparse ratio* `s`
//! (how many survive) via `m = M(P | ω, s)` (Eq. 2). This crate implements:
//!
//! * [`mask::UnitMask`] — a keep/drop decision per sparsifiable unit, plus the
//!   expansion to parameter-level masks through the model's
//!   [`UnitLayout`](fedlps_nn::unit::UnitLayout);
//! * [`pattern::PatternStrategy`] — the pattern families compared in the paper
//!   (random, ordered, rolling-ordered, magnitude-based) and the
//!   importance-driven *learnable* pattern of FedLPS (Eq. 4);
//! * [`ratio`] — helpers for turning a sparse ratio into per-layer retained
//!   unit counts under the paper's layer-wise uniform-ratio convention;
//! * [`plan::SubmodelPlan`] — the kept-unit index lists that compile a mask
//!   into a physically packed submodel.

pub mod mask;
pub mod pattern;
pub mod plan;
pub mod ratio;

pub use mask::UnitMask;
pub use pattern::PatternStrategy;
pub use plan::SubmodelPlan;
