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
//!   parallelism, local iterations, batch size, …);
//! * [`env`](mod@env) — the immutable environment handed to algorithms:
//!   dataset, device fleet, model architecture, cost model;
//! * [`algorithm`] — the [`FlAlgorithm`] trait and the per-round
//!   [`ClientReport`];
//! * [`backend`] — the one parallel primitive, an ordered map over scoped
//!   threads: client steps, the evaluation sweep and the sharded
//!   aggregation walk run on it;
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
pub use config::{FlConfig, RoundMode, SelectionKind, Topology};
pub use env::FlEnv;
pub use metrics::{RoundMetrics, RunResult};
pub use runner::Simulator;

#[cfg(test)]
mod tests {
    use crate::backend::par_map;

    const THREADS: [usize; 5] = [0, 1, 2, 3, 64];

    #[test]
    fn parallel_map_preserves_order() {
        for n in [7usize, 1000] {
            for threads in THREADS {
                let out = par_map(threads, (0..n).collect(), |x| x * 2 + 1);
                let expected: Vec<usize> = (0..n).map(|x| x * 2 + 1).collect();
                assert_eq!(out, expected, "n {n}, threads {threads}");
            }
        }
    }

    #[test]
    fn works_on_vecs_and_tiny_inputs() {
        for threads in THREADS {
            assert_eq!(
                par_map(threads, vec![3, 1, 2], |x: i32| x + 1),
                vec![4, 2, 3]
            );
            assert!(par_map(threads, Vec::<i32>::new(), |x| x).is_empty());
            assert_eq!(par_map(threads, vec![7], |x: i32| x), vec![7]);
            assert_eq!(par_map(threads, vec![5, 9], |x: i32| -x), vec![-5, -9]);
        }
    }
}
