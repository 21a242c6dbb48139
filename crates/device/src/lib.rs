//! System-heterogeneity model.
//!
//! The paper's experimental fleet has five capability tiers
//! `z ∈ {1, 1/2, 1/4, 1/8, 1/16}`, anchored to an Adreno-630-class device
//! (727 GFLOPS), with local wall-clock cost modelled analytically as
//! `T = F̂/F + B̂/B` (Eq. 14) — compute FLOPs over compute capacity plus
//! communication volume over bandwidth. This crate implements:
//!
//! * [`capability`] — the capability tiers and per-device profiles;
//! * [`fleet`] — fleets sampled from a heterogeneity level (low / median /
//!   high, Figures 7-8) with optional round-to-round availability dynamics;
//! * [`cost`] — the Eq. 14 cost model and the synchronous global round cost
//!   `T^r = max_k T_k^r` (Eq. 18).

pub mod capability;
pub mod cost;
pub mod fleet;

pub use capability::{CapabilityTier, DeviceProfile};
pub use cost::LocalCost;
pub use fleet::{DeviceFleet, HeterogeneityLevel};
