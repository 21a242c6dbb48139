//! The interface every federated-learning framework implements.

use std::any::Any;

use fedlps_device::LocalCost;
use fedlps_nn::model::EvalStats;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::env::FlEnv;

/// What one selected client reports back to the server after a round: the
/// resource accounting the paper tracks plus its local training statistics.
/// The model update itself is exchanged through the algorithm's own state
/// (each algorithm defines its own aggregation rule and update format).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientReport {
    /// Which client produced the report.
    pub client_id: usize,
    /// Training FLOPs spent by the client this round.
    pub flops: f64,
    /// Bytes uploaded to the server this round.
    pub upload_bytes: f64,
    /// Bytes downloaded from the server this round.
    pub download_bytes: f64,
    /// Eq. (14) local cost breakdown.
    pub local_cost: LocalCost,
    /// Average local training accuracy over the round (`a_k^r`).
    pub train_accuracy: f64,
    /// Average local training loss over the round.
    pub train_loss: f64,
    /// The sparse ratio the client actually used (1.0 for dense baselines).
    pub sparse_ratio: f64,
    /// The selection layer's utility estimate for this client at dispatch
    /// time (last observed training loss × the Eq. (14) speed term; 0 until
    /// the client's first absorbed report). Stamped by the driver.
    pub selection_utility: f64,
    /// How many times this client has been dispatched, including this round
    /// (1 = first participation). Stamped by the driver.
    pub participations: u64,
    /// Mask-cache lookups served from the cache during this client's step
    /// (0 for algorithms without mask caching).
    pub mask_cache_hits: u32,
    /// Mask-cache lookups that required a rebuild during this client's step.
    pub mask_cache_misses: u32,
}

impl ClientReport {
    /// A zeroed report for a client that did no work (e.g. dropped out).
    pub fn idle(client_id: usize) -> Self {
        Self {
            client_id,
            flops: 0.0,
            upload_bytes: 0.0,
            download_bytes: 0.0,
            local_cost: LocalCost::default(),
            train_accuracy: 0.0,
            train_loss: 0.0,
            sparse_ratio: 1.0,
            selection_utility: 0.0,
            participations: 0,
            mask_cache_hits: 0,
            mask_cache_misses: 0,
        }
    }
}

/// The opaque, algorithm-defined payload a pure client step hands back to the
/// server: staged model updates, new per-client state, bandit feedback, … The
/// round loop never inspects it — it only carries it from the (possibly
/// parallel) [`client_step`](FlAlgorithm::client_step) to the serial
/// [`absorb_update`](FlAlgorithm::absorb_update), in ascending client-id
/// order, so every algorithm keeps full control of its own update format.
pub type ClientUpdate = Box<dyn Any + Send>;

/// Everything a pure client step produces: the resource/statistics report the
/// simulator aggregates into [`RoundMetrics`](crate::metrics::RoundMetrics)
/// plus the algorithm's own update payload.
pub struct ClientOutcome {
    /// The paper's per-round client report.
    pub report: ClientReport,
    /// The algorithm-defined update absorbed after the parallel phase.
    pub update: ClientUpdate,
}

impl std::fmt::Debug for ClientOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientOutcome")
            .field("report", &self.report)
            .field("update", &"<dyn ClientUpdate>")
            .finish()
    }
}

impl ClientOutcome {
    /// Bundles a report with its update payload.
    pub fn new(report: ClientReport, update: impl Any + Send) -> Self {
        Self {
            report,
            update: Box::new(update),
        }
    }
}

/// A federated-learning framework: FedLPS or one of the baselines.
///
/// The [`Simulator`](crate::runner::Simulator) drives implementations through
/// the synchronous round loop of Algorithm 1: `select_clients` →
/// `begin_round` → `client_step` for each selected client (sharded across
/// threads when [`FlConfig::parallelism`](crate::config::FlConfig) > 1) →
/// `absorb_update` for each outcome in ascending client-id order →
/// `aggregate` → periodic `evaluate_client` over the whole federation.
///
/// `client_step` takes `&self`: it must be a *pure* function of the immutable
/// algorithm state, the environment and the per-client RNG stream, so the
/// simulator may execute the selected clients in any order and on any number
/// of threads while remaining bit-identical to the serial schedule. All
/// mutation belongs in `begin_round` (round-level, e.g. refreshing a shared
/// mask), `absorb_update` (per-client, deterministic order) and `aggregate`.
pub trait FlAlgorithm: Send + Sync {
    /// Human-readable name used in tables (e.g. `"FedLPS"`, `"FedAvg"`).
    fn name(&self) -> String;

    /// One-time initialisation with access to the environment (draw initial
    /// global parameters, create per-client state, …).
    fn setup(&mut self, env: &FlEnv);

    /// Chooses the clients participating in `round`, or `None` to defer to
    /// the configured [`SelectionPolicy`](fedlps_select::SelectionPolicy)
    /// (`FlConfig::selection`), which is the default. Algorithms whose
    /// selection rule is part of the method itself (Oort's utility-guided
    /// sampling, REFL's freshness ranking) override this and return `Some`;
    /// everything else inherits the run-level policy, so uniform,
    /// utility-based and power-of-choice selection compose with any
    /// algorithm.
    ///
    /// The hook chooses only the cohort a round opens with. Deadline
    /// over-selection and every async refill come from the run-level policy,
    /// and an async run opens one round, so there a method's own rule picks
    /// only the initial in-flight set.
    fn select_clients(
        &mut self,
        env: &FlEnv,
        round: usize,
        rng: &mut StdRng,
    ) -> Option<Vec<usize>> {
        let _ = (env, round, rng);
        None
    }

    /// Round-level mutable preparation executed *before* the client steps
    /// fan out (e.g. PruneFL's periodic re-pruning of the shared mask). The
    /// RNG stream is deterministic per round and independent of parallelism.
    fn begin_round(&mut self, env: &FlEnv, round: usize, selected: &[usize], rng: &mut StdRng) {
        let _ = (env, round, selected, rng);
    }

    /// Executes one selected client's local work for the round: immutable
    /// global state + per-client RNG stream in, report + update payload out.
    /// Must not mutate shared state (enforced by `&self`) so the simulator
    /// can shard clients across threads.
    fn client_step(
        &self,
        env: &FlEnv,
        round: usize,
        client: usize,
        rng: &mut StdRng,
    ) -> ClientOutcome;

    /// Applies one client's update payload to the algorithm state. The round
    /// loop calls this serially in ascending client-id order regardless of
    /// the parallelism level, which is what keeps sharded runs bit-identical
    /// to serial ones.
    fn absorb_update(&mut self, env: &FlEnv, round: usize, update: ClientUpdate);

    /// Applies an update that arrived `staleness` aggregations after the
    /// model it was computed against was dispatched (the async round mode).
    /// `weight` is the server's staleness discount `alpha^staleness` in
    /// `(0, 1]`; algorithms that aggregate with per-client weights should
    /// scale them by it. The default ignores the discount and performs the
    /// ordinary serial absorb, which keeps every existing algorithm correct
    /// (if staleness-blind) under asynchronous execution.
    fn absorb_update_stale(
        &mut self,
        env: &FlEnv,
        round: usize,
        update: ClientUpdate,
        staleness: u32,
        weight: f64,
    ) {
        let _ = (staleness, weight);
        self.absorb_update(env, round, update);
    }

    /// Server-side aggregation at the end of the round.
    fn aggregate(&mut self, env: &FlEnv, round: usize, reports: &[ClientReport]);

    /// Evaluates the model this algorithm would *deploy on client `k`* on that
    /// client's local test data. Personalized methods evaluate the client's
    /// personal (possibly sparse) model; conventional methods evaluate the
    /// shared global model.
    ///
    /// The result must be a pure function of the algorithm's state and the
    /// environment — evaluation draws no ambient randomness — so an
    /// implementation may memoise it until that state changes.
    fn evaluate_client(&self, env: &FlEnv, client: usize) -> EvalStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_report_is_zeroed() {
        let r = ClientReport::idle(3);
        assert_eq!(r.client_id, 3);
        assert_eq!(r.flops, 0.0);
        assert_eq!(r.local_cost.total(), 0.0);
    }

    #[test]
    fn report_serde_roundtrip() {
        let r = ClientReport {
            client_id: 1,
            flops: 2.0,
            upload_bytes: 3.0,
            download_bytes: 4.0,
            local_cost: LocalCost {
                compute_seconds: 0.5,
                comm_seconds: 0.25,
            },
            train_accuracy: 0.8,
            train_loss: 0.4,
            sparse_ratio: 0.5,
            selection_utility: 0.3,
            participations: 2,
            mask_cache_hits: 1,
            mask_cache_misses: 0,
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: ClientReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
