//! The client-selection layer of the federation round loop.
//!
//! Which clients train in a round (and which client refills a freed slot in
//! the asynchronous pipeline) used to be hard-wired uniform sampling inside
//! the simulator. This crate makes selection a first-class, pluggable policy:
//! the driver consults a [`SelectionPolicy`] at its three selection points —
//! cohort formation, deadline over-selection and async refills — and feeds the
//! policy's decisions from a [`SelectionTracker`] that accumulates per-client
//! utility/participation statistics as updates are absorbed.
//!
//! Three policies ship with the crate, chosen through the serializable
//! [`SelectionKind`] knob (`FlConfig::selection` in `fedlps_sim`):
//!
//! * [`Uniform`] — the paper's uniform random selection. Its RNG draws are
//!   bit-identical to the simulator's historical inline sampling, so the
//!   default configuration reproduces every pre-policy trace exactly.
//! * [`UtilityBased`] — Oort-style selection: exploit clients with high
//!   statistical utility (recent training loss) scaled by a system-speed term
//!   from the Eq. (14) latency model, while an exploration fraction keeps
//!   sampling unexplored clients.
//! * [`PowerOfChoice`] — loss-biased power-of-`d`-choices: draw a random
//!   candidate set twice the requested size, keep the highest-loss members.
//!
//! Every policy is a deterministic function of `(tracker state, rng stream)`,
//! so runs remain bit-identical across `parallelism` settings: the tracker
//! is only mutated at event-ordered points of the
//! driver, never from worker threads.

pub mod policy;
pub mod pool;
pub mod stats;

pub use policy::{PowerOfChoice, SelectionKind, SelectionPolicy, Uniform, UtilityBased};
pub use pool::ClientPool;
pub use stats::{ClientSelectionStats, SelectionTracker};
