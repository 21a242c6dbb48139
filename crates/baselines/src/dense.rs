//! Conventional dense FL baselines: FedAvg, FedProx, Oort and REFL.
//!
//! All four train the full dense model on every selected client and aggregate
//! with the data-size-weighted mean; they differ in the local objective
//! (FedProx's proximal term) and in how clients are selected (Oort's
//! utility-guided selection, REFL's resource-aware staleness-conscious
//! selection). They deploy the single shared global model on every client.

use fedlps_core::server::{ContribParams, Contribution, Family, Step};
use fedlps_sim::algorithm::ClientReport;
use fedlps_sim::env::FlEnv;
use fedlps_tensor::rng::{sample_weighted, sample_without_replacement};
use rand::rngs::StdRng;

/// Which conventional baseline to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DenseVariant {
    /// Plain FedAvg (McMahan et al.).
    FedAvg,
    /// FedProx with proximal weight `mu`.
    FedProx { mu: f32 },
    /// Oort: utility-guided client selection (statistical utility × speed).
    /// The rule picks each round's opening cohort only; deadline
    /// over-selection and async refills follow the run-level policy, so an
    /// async run applies it at round 0 alone.
    Oort,
    /// REFL: resource-efficient FL — prefers fresh, capable clients and decays
    /// the contribution of clients whose last participation is stale. Its
    /// freshness ranking, like Oort's rule, picks each round's opening
    /// cohort only.
    Refl,
}

impl DenseVariant {
    fn label(&self) -> &'static str {
        match self {
            DenseVariant::FedAvg => "FedAvg",
            DenseVariant::FedProx { .. } => "FedProx",
            DenseVariant::Oort => "Oort",
            DenseVariant::Refl => "REFL",
        }
    }
}

/// The conventional dense-FL family.
#[derive(Debug)]
pub struct DenseFl {
    variant: DenseVariant,
    /// Oort utility per client (statistical utility × system speed).
    utilities: Vec<f64>,
    /// Round at which each client last participated (REFL freshness).
    last_selected: Vec<Option<usize>>,
}

impl DenseFl {
    /// Creates the family for the given variant.
    pub fn new(variant: DenseVariant) -> Self {
        Self {
            variant,
            utilities: Vec::new(),
            last_selected: Vec::new(),
        }
    }
}

impl Family for DenseFl {
    type Upload = Contribution;
    /// The Oort statistical utility observed during training.
    type Side = f64;

    fn label(&self) -> String {
        self.variant.label().to_string()
    }

    fn setup(&mut self, env: &FlEnv, _global: &[f32]) {
        // Optimistic initial utility so every client gets explored.
        self.utilities = vec![f64::MAX / 1e6; env.num_clients()];
        self.last_selected = vec![None; env.num_clients()];
    }

    /// Oort and REFL carry their own selection rule (it *is* the method);
    /// FedAvg and FedProx defer to the run-level `SelectionPolicy`, whose
    /// uniform default reproduces their historical sampling bit for bit.
    fn select_clients(
        &mut self,
        env: &FlEnv,
        round: usize,
        rng: &mut StdRng,
    ) -> Option<Vec<usize>> {
        let c = env.config.clients_per_round.min(env.num_clients()).max(1);
        match self.variant {
            DenseVariant::FedAvg | DenseVariant::FedProx { .. } => None,
            DenseVariant::Oort => {
                // Sample proportionally to utility (loss-based utility divided
                // by expected round time), which is Oort's exploit phase with
                // softened exploration through the proportional sampling.
                let mut chosen = Vec::with_capacity(c);
                let mut weights: Vec<f64> = self
                    .utilities
                    .iter()
                    .enumerate()
                    .map(|(k, u)| u / (1.0 + 1.0 / env.capability(k)))
                    .collect();
                for _ in 0..c {
                    let pick = sample_weighted(&weights, rng);
                    chosen.push(pick);
                    weights[pick] = 0.0;
                }
                chosen.sort_unstable();
                chosen.dedup();
                while chosen.len() < c {
                    let extra = sample_without_replacement(env.num_clients(), c, rng);
                    for e in extra {
                        if !chosen.contains(&e) {
                            chosen.push(e);
                            if chosen.len() == c {
                                break;
                            }
                        }
                    }
                }
                Some(chosen)
            }
            DenseVariant::Refl => {
                // Resource-aware + staleness-aware: rank by capability and how
                // long ago the client last contributed, with random
                // tie-breaking supplied by a small noise term.
                let mut scored: Vec<(usize, f64)> = (0..env.num_clients())
                    .map(|k| {
                        let staleness = match self.last_selected[k] {
                            None => round as f64 + 1.0,
                            Some(r) => (round - r) as f64,
                        };
                        let noise = fedlps_tensor::rng::sample_normal(rng) as f64 * 0.01;
                        (k, env.capability(k) + 0.1 * staleness + noise)
                    })
                    .collect();
                scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                Some(scored.into_iter().take(c).map(|(k, _)| k).collect())
            }
        }
    }

    fn train(&self, step: &Step<'_>, rng: &mut StdRng) -> (ClientReport, ContribParams, f64) {
        let mut params = (**step.global).clone();
        let prox = match self.variant {
            DenseVariant::FedProx { mu } => Some((mu, step.global.as_slice())),
            _ => None,
        };
        let (report, summary) = step.train(&mut params, None, prox, None, 1.0, rng);
        // Oort statistical utility: |D_k| * sqrt(mean loss).
        let utility = step.env.train_size(step.client) * summary.mean_loss.max(1e-6).sqrt();
        let update = ContribParams::Dense {
            params,
            param_mask: None,
        };
        (report, update, utility)
    }

    fn absorbed(&mut self, client: usize, round: usize, utility: f64) {
        self.utilities[client] = utility;
        self.last_selected[client] = Some(round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlps_core::server::Server;
    use fedlps_data::scenario::{DatasetKind, ScenarioConfig};
    use fedlps_device::HeterogeneityLevel;
    use fedlps_sim::algorithm::FlAlgorithm;
    use fedlps_sim::config::FlConfig;
    use fedlps_sim::runner::Simulator;

    fn sim() -> Simulator {
        Simulator::new(FlEnv::from_scenario(
            &ScenarioConfig::tiny(DatasetKind::MnistLike),
            HeterogeneityLevel::High,
            FlConfig::tiny(),
        ))
    }

    #[test]
    fn all_variants_run() {
        for variant in [
            DenseVariant::FedAvg,
            DenseVariant::FedProx { mu: 0.1 },
            DenseVariant::Oort,
            DenseVariant::Refl,
        ] {
            let s = sim();
            let mut algo = Server::from(DenseFl::new(variant));
            let result = s.run(&mut algo);
            assert_eq!(
                result.rounds.len(),
                FlConfig::tiny().rounds,
                "{}",
                algo.name()
            );
            assert!(result.final_accuracy >= 0.0);
            // Dense baselines always report ratio 1.
            assert!(result.mean_sparse_ratio() > 0.999);
        }
    }

    #[test]
    fn fedavg_runs_under_async_rounds_with_staleness_discounts() {
        use fedlps_sim::config::RoundMode;
        let s = Simulator::new(FlEnv::from_scenario(
            &ScenarioConfig::tiny(DatasetKind::MnistLike),
            HeterogeneityLevel::High,
            FlConfig::tiny().with_round_mode(RoundMode::asynchronous(3, 0.5)),
        ));
        let mut algo = Server::from(DenseFl::new(DenseVariant::FedAvg));
        let result = s.run(&mut algo);
        assert_eq!(result.rounds.len(), FlConfig::tiny().rounds);
        assert!(
            result.staleness_histogram().iter().sum::<u64>() > 0,
            "the async pipeline must absorb discounted dense updates"
        );
        assert!((0.0..=1.0).contains(&result.final_accuracy));
    }

    #[test]
    fn refl_prefers_capable_or_stale_clients() {
        let env = FlEnv::from_scenario(
            &ScenarioConfig::tiny(DatasetKind::MnistLike),
            HeterogeneityLevel::High,
            FlConfig::tiny(),
        );
        let mut algo = Server::from(DenseFl::new(DenseVariant::Refl));
        algo.setup(&env);
        let mut rng = fedlps_tensor::rng_from_seed(1);
        let selected = algo
            .select_clients(&env, 0, &mut rng)
            .expect("REFL carries its own selection rule");
        assert_eq!(selected.len(), env.config.clients_per_round);
        // All selected indices are valid and distinct.
        let mut sorted = selected.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), selected.len());
    }

    #[test]
    fn oort_selection_returns_requested_count() {
        let env = FlEnv::from_scenario(
            &ScenarioConfig::tiny(DatasetKind::MnistLike),
            HeterogeneityLevel::High,
            FlConfig::tiny(),
        );
        let mut algo = Server::from(DenseFl::new(DenseVariant::Oort));
        algo.setup(&env);
        let mut rng = fedlps_tensor::rng_from_seed(2);
        for round in 0..3 {
            let selected = algo
                .select_clients(&env, round, &mut rng)
                .expect("Oort carries its own selection rule");
            assert_eq!(selected.len(), env.config.clients_per_round);
        }
    }
}
