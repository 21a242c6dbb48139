//! Synthetic federated datasets for the FedLPS reproduction.
//!
//! The paper evaluates on MNIST, CIFAR-10/100, Tiny-ImageNet and the LEAF
//! Reddit corpus. Those assets are not available in this offline
//! reproduction, so this crate generates *synthetic equivalents* whose
//! statistical structure exercises the same code paths (PAPER.md, "Substitutions"):
//!
//! * [`synth_vision`] — Gaussian class-prototype image-like datasets with a
//!   configurable number of classes and feature dimensionality;
//! * [`synth_text`] — per-client Markov language sources for the next-token
//!   prediction task (the Reddit substitute);
//! * [`partition`] — IID, pathological (`p` classes per client, the paper's
//!   default) and Dirichlet label-skew partitioners;
//! * [`scenario`] — named dataset scenarios mirroring the paper's five
//!   benchmarks at laptop scale.

pub mod dataset;
pub mod partition;
pub mod scenario;
pub mod synth_text;
pub mod synth_vision;

pub use dataset::{ClientData, Dataset, FederatedDataset, InputKind};
pub use partition::PartitionStrategy;
pub use scenario::{DatasetKind, ScenarioConfig};
