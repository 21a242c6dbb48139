//! The federated-learning simulator.
//!
//! Every FL framework in this workspace — FedLPS itself and the nineteen
//! baselines — is expressed as an implementation of [`algorithm::FlAlgorithm`]
//! and executed by [`runner::Simulator`], which owns the round loop of a
//! synchronous federation: sample clients, run their local work, aggregate,
//! and periodically evaluate every client's deployed model on its local test
//! data (the paper's personalized-accuracy metric). The runner also maintains
//! the cost accounting the paper reports: cumulative training FLOPs, uplink
//! bytes and the simulated wall-clock time of Eq. (14)/(18).
//!
//! Module map:
//!
//! * [`config`] — federation hyper-parameters (rounds, selection policy,
//!   execution backend, local iterations, batch size, …);
//! * [`env`](mod@env) — the immutable environment handed to algorithms:
//!   dataset, device fleet, model architecture, cost model;
//! * [`algorithm`] — the [`FlAlgorithm`] trait and the per-round
//!   [`ClientReport`];
//! * [`backend`] — the [`ExecutionBackend`] seam:
//!   where the pure client steps run (serial / thread pool);
//! * `driver` (private) — the single event-driven loop all three round
//!   modes share, wiring selection → execution → absorption;
//! * `absorb` (private) — mode-agnostic absorption/metrics accounting;
//! * `topology` (private) — the physical-topology overlay: the barrier
//!   absorption walk plus the two-tier zone tier's timing, traffic and
//!   deadline drops (configured via [`config::Topology`]);
//! * [`train`] — shared local-training helpers (masked/proximal SGD, FLOP and
//!   byte accounting) reused by every algorithm;
//! * [`metrics`] — per-round metrics, run results, time-to-accuracy;
//! * [`runner`] — the simulator facade.
//!
//! Client selection lives in its own crate, `fedlps_select`, re-exported
//! here through [`config::SelectionKind`].

pub mod algorithm;
pub mod backend;
pub mod config;
pub mod env;
pub mod metrics;
pub mod runner;
pub mod train;

mod absorb;
mod driver;
mod topology;

pub use algorithm::{ClientReport, FlAlgorithm};
pub use backend::{ExecutionBackend, SerialBackend, StepTask, ThreadPoolBackend};
pub use config::{FlConfig, RoundMode, SelectionKind, Topology};
pub use env::FlEnv;
pub use metrics::{RoundMetrics, RunResult};
pub use runner::Simulator;
