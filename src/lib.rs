//! # fedlps — facade crate
//!
//! This crate re-exports every sub-crate of the FedLPS reproduction so that
//! downstream users (and this repository's examples and integration tests)
//! can depend on a single package:
//!
//! ```
//! use fedlps::prelude::*;
//! ```
//!
//! The workspace reproduces *"Learnable Sparse Customization in Heterogeneous
//! Edge Computing"* (FedLPS, ICDE 2025): a personalized-federated-learning
//! framework that learns per-client structured sparse patterns through a
//! trainable importance indicator and chooses per-client sparse ratios online
//! with the P-UCBV multi-armed bandit.
//!
//! See the individual crates for details:
//!
//! * [`tensor`] — dense math, RNG, statistics.
//! * [`nn`] — from-scratch MLP / CNN / LSTM models with unit-level
//!   structured masking and analytic FLOP counting.
//! * [`data`] — synthetic federated datasets and non-IID
//!   partitioners.
//! * [`sparse`] — masks and sparse-pattern strategies.
//! * [`device`] — system-heterogeneity and cost model, including the lazy
//!   population-scale [`DeviceFleet`](fedlps_device::DeviceFleet).
//! * [`bandit`] — P-UCBV and baseline ratio policies.
//! * [`runtime`] — the event-driven federation runtime:
//!   virtual clock, deterministic scheduling, round modes.
//! * [`faults`] — the fault-injection subsystem: correlated availability
//!   models (diurnal waves, zone-correlated bursts) and seeded transient
//!   upload faults with retry/backoff.
//! * [`select`] — pluggable client-selection policies
//!   (uniform / Oort-style utility / power-of-choice) and participation
//!   statistics.
//! * [`topo`] — aggregation topologies: the flat / two-tier
//!   (zone-aggregator) upload paths.
//! * [`sim`] — the federation simulator and metrics.
//! * [`core`] — the FedLPS algorithm itself.
//! * [`baselines`] — the 19 comparison FL frameworks.

pub use fedlps_bandit as bandit;
pub use fedlps_baselines as baselines;
pub use fedlps_core as core;
pub use fedlps_data as data;
pub use fedlps_device as device;
pub use fedlps_faults as faults;
pub use fedlps_nn as nn;
pub use fedlps_runtime as runtime;
pub use fedlps_select as select;
pub use fedlps_sim as sim;
pub use fedlps_sparse as sparse;
pub use fedlps_tensor as tensor;
pub use fedlps_topo as topo;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use fedlps_bandit::{pucbv::PUcbv, ratio_policy::RatioPolicy};
    pub use fedlps_baselines::registry::{baseline_by_name, baseline_names};
    pub use fedlps_core::{config::FedLpsConfig, FedLps};
    pub use fedlps_data::{
        dataset::{Dataset, FederatedDataset},
        scenario::{DatasetKind, ScenarioConfig},
    };
    pub use fedlps_device::fleet::{DeviceFleet, HeterogeneityLevel};
    pub use fedlps_faults::{AvailabilityModel, FaultConfig};
    pub use fedlps_nn::model::{ModelArch, ModelKind};
    pub use fedlps_select::{SelectionKind, SelectionPolicy, SelectionTracker};
    pub use fedlps_sim::{
        algorithm::FlAlgorithm,
        config::{FlConfig, RoundMode},
        env::FlEnv,
        metrics::RunResult,
        runner::Simulator,
    };
    pub use fedlps_sparse::{mask::UnitMask, pattern::PatternStrategy};
    pub use fedlps_topo::Topology;
}
