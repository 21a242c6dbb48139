//! Personalized dense-FL baselines: Ditto, FedPer, FedRep and Per-FedAvg.
//!
//! These methods keep the full dense model but personalize *what* each client
//! deploys:
//!
//! * **Ditto** — alongside the FedAvg global model, every client maintains a
//!   personal model trained with a proximal pull towards the global one.
//! * **FedPer** — the classifier head stays local; only the body is averaged.
//! * **FedRep** — like FedPer, but each round first fits the local head with
//!   the body frozen, then updates the body with the head frozen.
//! * **Per-FedAvg** — trains like FedAvg but deploys the global model after a
//!   few steps of local adaptation (the first-order MAML view).

use fedlps_core::server::{train_options, ContribParams, Contribution, Family, Step};
use fedlps_nn::model::EvalStats;
use fedlps_sim::algorithm::ClientReport;
use fedlps_sim::env::FlEnv;
use fedlps_sim::train::{local_sgd, LocalTrainOptions};
use fedlps_tensor::split_seed;
use rand::rngs::StdRng;

use crate::common::{body_indicator, copy_head, head_indicator};

/// Which personalized dense baseline to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PersonalizedVariant {
    /// Ditto with personal-model proximal weight `lambda`.
    Ditto { lambda: f32 },
    /// FedPer: personal classifier head, shared body.
    FedPer,
    /// FedRep: alternating head / body optimisation, personal head.
    FedRep,
    /// Per-FedAvg with the given number of local adaptation steps at
    /// deployment time.
    PerFedAvg { adaptation_steps: usize },
}

impl PersonalizedVariant {
    fn label(&self) -> &'static str {
        match self {
            PersonalizedVariant::Ditto { .. } => "Ditto",
            PersonalizedVariant::FedPer => "FedPer",
            PersonalizedVariant::FedRep => "FedRep",
            PersonalizedVariant::PerFedAvg { .. } => "Per-FedAvg",
        }
    }
}

/// The personalized dense family.
#[derive(Debug)]
pub struct PersonalizedFl {
    variant: PersonalizedVariant,
    /// Per-client personal state: Ditto's personal model or FedPer/FedRep's
    /// personal head (stored as a full vector whose head block is meaningful).
    personal: Vec<Option<Vec<f32>>>,
    /// 0/1 indicators of the classifier head and of its complement, the
    /// shared body (FedPer / FedRep).
    head: Vec<f32>,
    body: Vec<f32>,
}

impl PersonalizedFl {
    /// Creates the family for the given variant.
    pub fn new(variant: PersonalizedVariant) -> Self {
        Self {
            variant,
            personal: Vec::new(),
            head: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Ditto with the commonly used `λ = 1`.
    pub fn ditto() -> Self {
        Self::new(PersonalizedVariant::Ditto { lambda: 1.0 })
    }

    /// Per-FedAvg with one adaptation step, matching the first-order variant.
    pub fn per_fedavg() -> Self {
        Self::new(PersonalizedVariant::PerFedAvg {
            adaptation_steps: 1,
        })
    }
}

impl Family for PersonalizedFl {
    type Upload = Contribution;
    /// The client's new personal state (Ditto's personal model, FedPer /
    /// FedRep's personal head; `None` for Per-FedAvg, which personalizes at
    /// deployment).
    type Side = Option<Vec<f32>>;

    fn label(&self) -> String {
        self.variant.label().to_string()
    }

    fn setup(&mut self, env: &FlEnv, _global: &[f32]) {
        self.personal = vec![None; env.num_clients()];
        self.head = head_indicator(env);
        self.body = body_indicator(env);
    }

    fn train(
        &self,
        step: &Step<'_>,
        rng: &mut StdRng,
    ) -> (ClientReport, ContribParams, Option<Vec<f32>>) {
        let stored = self.personal[step.client].as_ref();
        let mut params = (**step.global).clone();
        let mut frozen = None;
        let keeps_head = matches!(
            self.variant,
            PersonalizedVariant::FedPer | PersonalizedVariant::FedRep
        );
        if let (true, Some(stored)) = (keeps_head, stored) {
            // Restore the client's personal head if it has one.
            copy_head(step.env, &mut params, stored);
        }
        if matches!(self.variant, PersonalizedVariant::FedRep) {
            // Phase 1 fits the head with the body frozen; the main phase then
            // freezes the freshly fitted head while updating the body (FedPer
            // trains everything jointly).
            step.fit(&mut params, None, Some(&self.body), rng);
            frozen = Some(self.head.as_slice());
        }
        // The shared-model update: a plain FedAvg step for Ditto / Per-FedAvg.
        let (mut report, _) = step.train(&mut params, None, None, frozen, 1.0, rng);
        let (param_mask, personal) = match self.variant {
            PersonalizedVariant::Ditto { lambda } => {
                // Personal model trained with a pull towards the global model.
                let mut personal = stored.unwrap_or(step.global).clone();
                step.fit(&mut personal, Some((lambda, step.global)), None, rng);
                // Ditto's extra personal pass doubles the local compute, which
                // is exactly why the paper reports it as the most expensive
                // personalized baseline.
                report.flops *= 2.0;
                report.local_cost.compute_seconds *= 2.0;
                (None, Some(personal))
            }
            // The head stays local; the body is shared.
            PersonalizedVariant::FedPer | PersonalizedVariant::FedRep => {
                (Some(self.body.clone()), Some(params.clone()))
            }
            PersonalizedVariant::PerFedAvg { .. } => (None, None),
        };
        (
            report,
            ContribParams::Dense { params, param_mask },
            personal,
        )
    }

    fn absorbed(&mut self, client: usize, _round: usize, personal: Option<Vec<f32>>) {
        if let Some(personal) = personal {
            self.personal[client] = Some(personal);
        }
    }

    fn deployed(&self, env: &FlEnv, global: &[f32], client: usize) -> EvalStats {
        let stored = self.personal[client].as_deref();
        match self.variant {
            PersonalizedVariant::Ditto { .. } => env
                .arch
                .evaluate(stored.unwrap_or(global), env.test_data(client)),
            PersonalizedVariant::FedPer | PersonalizedVariant::FedRep => {
                let mut deployed = global.to_vec();
                if let Some(stored) = stored {
                    copy_head(env, &mut deployed, stored);
                }
                env.arch.evaluate(&deployed, env.test_data(client))
            }
            PersonalizedVariant::PerFedAvg { adaptation_steps } => {
                // Deploy the meta-model after a brief local adaptation on the
                // client's training data (first-order Per-FedAvg).
                let mut adapted = global.to_vec();
                let mut rng = fedlps_tensor::rng_from_seed(split_seed(
                    env.config.seed,
                    0xADA7 ^ client as u64,
                ));
                let options = LocalTrainOptions {
                    iterations: adaptation_steps,
                    ..train_options(env)
                };
                local_sgd(
                    &*env.arch,
                    &mut adapted,
                    env.train_data(client),
                    &options,
                    &mut rng,
                );
                env.arch.evaluate(&adapted, env.test_data(client))
            }
        }
    }

    /// Only Ditto's personal model stands alone: FedPer / FedRep splice the
    /// global body under their head, and Per-FedAvg adapts the global model.
    fn deploys_own_record(&self, client: usize) -> bool {
        matches!(self.variant, PersonalizedVariant::Ditto { .. }) && self.personal[client].is_some()
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

    use crate::dense::{DenseFl, DenseVariant};

    fn sim() -> Simulator {
        Simulator::new(FlEnv::from_scenario(
            &ScenarioConfig::tiny(DatasetKind::MnistLike),
            HeterogeneityLevel::Low,
            FlConfig::tiny(),
        ))
    }

    #[test]
    fn all_variants_run() {
        for variant in [
            PersonalizedVariant::Ditto { lambda: 1.0 },
            PersonalizedVariant::FedPer,
            PersonalizedVariant::FedRep,
            PersonalizedVariant::PerFedAvg {
                adaptation_steps: 1,
            },
        ] {
            let s = sim();
            let mut algo = Server::from(PersonalizedFl::new(variant));
            let result = s.run(&mut algo);
            assert_eq!(
                result.rounds.len(),
                FlConfig::tiny().rounds,
                "{}",
                algo.name()
            );
            assert!(result.final_accuracy >= 0.0 && result.final_accuracy <= 1.0);
        }
    }

    #[test]
    fn ditto_costs_more_flops_than_fedavg() {
        let s = sim();
        let ditto_result = s.run(&mut Server::from(PersonalizedFl::ditto()));
        let s2 = sim();
        let fedavg_result = s2.run(&mut Server::from(DenseFl::new(DenseVariant::FedAvg)));
        assert!(ditto_result.total_flops > fedavg_result.total_flops * 1.5);
    }

    #[test]
    fn fedper_keeps_personal_heads_per_client() {
        let env = FlEnv::from_scenario(
            &ScenarioConfig::tiny(DatasetKind::MnistLike),
            HeterogeneityLevel::Low,
            FlConfig::tiny(),
        );
        let sim = Simulator::new(env);
        let mut algo = Server::from(PersonalizedFl::new(PersonalizedVariant::FedPer));
        let _ = sim.run(&mut algo);
        // At least two clients trained; their stored heads differ because
        // their local data differ (pathological non-IID).
        let stored: Vec<&Vec<f32>> = algo.family().personal.iter().flatten().collect();
        assert!(stored.len() >= 2);
        let env = sim.env();
        let head_range = env.arch.classifier_params();
        let h0 = &stored[0][head_range.clone()];
        let h1 = &stored[1][head_range];
        assert_ne!(h0, h1);
    }
}
