//! **FedLPS** — Learnable Personalized Sparsification for heterogeneous
//! federated learning (the paper's primary contribution).
//!
//! FedLPS customises a sparse submodel per client along two learnable axes:
//!
//! 1. **Learnable sparse pattern** — each client maintains a per-unit
//!    importance indicator `Q` that is co-trained with the model through the
//!    importance-associated regularisation loss (Eq. 6-9). The sparse pattern
//!    is the `(1 − s)`-quantile threshold of `Q` (Eq. 4), so the submodel keeps
//!    the units that matter most for the client's own data.
//! 2. **Adaptive sparse ratio** — the server runs one P-UCBV bandit per client
//!    (Algorithm 2) that learns the superimposed effect of device capability
//!    and data difficulty from the reward `G(s) = (U(a^r) − U(a^{r−1})) / T^r`
//!    and proposes the next ratio.
//!
//! Clients upload only the nonzero residuals `(ω^r − ω_{k,E}) ⊙ m_{k,E}`
//! (Eq. 12); the server folds them into the dense global model with the
//! data-size-weighted rule of Eq. (13).
//!
//! Module map: [`config`] (hyper-parameters and ablation switches),
//! [`importance`] (the indicator and its straight-through gradient),
//! [`loss`] (the three-term objective), [`client`] (Algorithm 1's
//! `ClientUpdate`), [`server`] (the round skeleton [`server::Server`] that
//! FedLPS and every baseline run on, the workspace's one
//! [`fedlps_sim::FlAlgorithm`] impl, plus both aggregation rules: Eq. 13
//! and per-parameter coverage) and [`algorithm`] (FedLPS as the
//! [`algorithm::Lps`] family; [`FedLps`] = `Server<Lps>`).

pub mod algorithm;
pub mod client;
pub mod config;
pub mod importance;
pub mod loss;
mod packed_step;
pub mod server;

pub use algorithm::FedLps;
pub use config::FedLpsConfig;
