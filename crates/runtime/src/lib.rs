//! Event-driven federation runtime.
//!
//! The synchronous round loop of Algorithm 1 hides the very thing FedLPS is
//! about: system heterogeneity makes stragglers dominate wall-clock round
//! time. This crate supplies the scheduling substrate that lets the simulator
//! *execute* the paper's cost model instead of merely reporting it:
//!
//! * [`clock`] — a monotone virtual clock measured in simulated seconds;
//! * [`event`] — timestamped events (`upload-finish`, `upload-retry`,
//!   `zone-deadline`, `round-deadline`, `dispatch`) with a
//!   *total* and schedule-independent ordering;
//! * [`queue`] — the binary-heap [`EventQueue`] that pops them in that order;
//! * [`mode`] — the [`RoundMode`] selector stored in the
//!   simulator's `FlConfig`: synchronous rounds, deadline rounds with
//!   over-selection, or staleness-aware asynchronous absorption.
//!
//! The scheduler itself — who is dispatched, what a deadline drops, how long
//! a round lasts — is the simulator's event-driven driver
//! (`fedlps_sim::Simulator`), the only consumer of these four pieces.
//!
//! Everything here is a pure function of its inputs: no wall-clock reads, no
//! thread-schedule dependence, no hidden RNG. That is what lets the simulator
//! promise bit-identical `RunResult`s at any `parallelism` setting in every
//! round mode.

pub mod clock;
pub mod event;
pub mod mode;
pub mod queue;

pub use clock::VirtualClock;
pub use event::{Event, EventKind};
pub use mode::RoundMode;
pub use queue::EventQueue;
