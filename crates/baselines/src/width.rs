//! Heterogeneous sparse-training baselines that scale the model's width (or
//! depth) to each client's capability: Fjord, HeteroFL, FedRolex, FedMP and
//! DepthFL.
//!
//! All of them (i) pick a sparse ratio from the client's resources — the rigid
//! RCR rule `s_k = z_k` for Fjord / HeteroFL / FedRolex / DepthFL, read
//! straight from the client's capability with no per-client state, and a
//! discrete UCB for FedMP — (ii) extract a submodel with a heuristic pattern
//! (ordered prefix, rolling window, magnitude, or dropping the deepest
//! layers), (iii) train the submodel locally and (iv) aggregate coverage-wise
//! into the shared global model, which is what every client deploys for
//! inference.

use fedlps_bandit::ratio_policy::{RatioController, RatioFeedback, RatioPolicy};
use fedlps_core::server::{ContribParams, Contribution, Family, Step};
use fedlps_sim::algorithm::ClientReport;
use fedlps_sim::env::FlEnv;
use fedlps_sparse::mask::UnitMask;
use fedlps_sparse::pattern::PatternStrategy;
use fedlps_sparse::ratio::retained_units;
use rand::rngs::StdRng;

/// Which width/depth-scaling baseline to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WidthVariant {
    /// Fjord: ordered dropout, ratio = capability, re-randomised each round by
    /// sampling a ratio uniformly below the capability.
    Fjord,
    /// HeteroFL: static ordered prefix submodel with ratio = capability.
    HeteroFl,
    /// FedRolex: rolling ordered window advancing every round.
    FedRolex,
    /// FedMP: magnitude-based pattern with a discrete-UCB ratio decision.
    FedMp,
    /// DepthFL: drops the deepest sparsifiable layers instead of thinning
    /// every layer.
    DepthFl,
}

impl WidthVariant {
    fn label(&self) -> &'static str {
        match self {
            WidthVariant::Fjord => "Fjord",
            WidthVariant::HeteroFl => "HeteroFL",
            WidthVariant::FedRolex => "FedRolex",
            WidthVariant::FedMp => "FedMP",
            WidthVariant::DepthFl => "DepthFL",
        }
    }

    fn pattern(&self) -> PatternStrategy {
        match self {
            WidthVariant::Fjord | WidthVariant::HeteroFl => PatternStrategy::Ordered,
            WidthVariant::FedRolex => PatternStrategy::RollingOrdered,
            WidthVariant::FedMp => PatternStrategy::Magnitude,
            // DepthFL builds its own layer-dropping mask.
            WidthVariant::DepthFl => PatternStrategy::Ordered,
        }
    }
}

/// The width/depth-scaling family.
#[derive(Debug)]
pub struct WidthScaling {
    variant: WidthVariant,
    /// FedMP's discrete-UCB agents; `None` for the RCR variants.
    controller: Option<RatioController>,
}

impl WidthScaling {
    /// Creates the family for the given variant.
    pub fn new(variant: WidthVariant) -> Self {
        Self {
            variant,
            controller: None,
        }
    }

    /// DepthFL's mask: keep the earliest layers fully dense and drop the
    /// deepest sparsifiable layers so that roughly `ratio` of the units (and
    /// hence compute) remains.
    fn depth_mask(env: &FlEnv, ratio: f64) -> UnitMask {
        let layout = env.arch.unit_layout();
        let per_layer = layout.units_per_layer();
        let total: usize = per_layer.iter().sum();
        let budget = retained_units(total, ratio);
        let mut keep = Vec::with_capacity(total);
        let mut used = 0usize;
        for &units in &per_layer {
            // Keep whole layers until the budget runs out; always keep at
            // least one unit of the first layer to stay connected.
            let keep_layer = used < budget;
            let kept_here = if keep_layer {
                units.min(budget - used)
            } else {
                0
            };
            for j in 0..units {
                keep.push(j < kept_here.max(if keep.is_empty() { 1 } else { 0 }));
            }
            used += kept_here;
        }
        UnitMask::from_keep(keep)
    }
}

impl Family for WidthScaling {
    type Upload = Contribution;
    /// What the client's ratio cost and bought, for the ratio controller.
    type Side = RatioFeedback;

    fn label(&self) -> String {
        self.variant.label().to_string()
    }

    fn setup(&mut self, env: &FlEnv, _global: &[f32]) {
        // FedMP's agents share one stream in client order: all built up front.
        self.controller = matches!(self.variant, WidthVariant::FedMp).then(|| {
            let caps = env.capabilities();
            let zeros = vec![0.0; caps.len()];
            RatioController::new(RatioPolicy::DiscreteUcb, &caps, &zeros, env.config.seed)
        });
    }

    fn train(
        &self,
        step: &Step<'_>,
        rng: &mut StdRng,
    ) -> (ClientReport, ContribParams, RatioFeedback) {
        let env = step.env;
        let mut ratio = match &self.controller {
            Some(controller) => controller.ratio_for(step.client),
            None => env.capability(step.client),
        };
        if matches!(self.variant, WidthVariant::Fjord) {
            // Fjord samples the dropout rate uniformly up to the capability.
            ratio *= 0.5 + 0.5 * rand::Rng::gen::<f64>(rng);
        }
        ratio = ratio.clamp(0.05, 1.0);

        let mask = if matches!(self.variant, WidthVariant::DepthFl) {
            Self::depth_mask(env, ratio)
        } else {
            self.variant.pattern().build_mask(
                env.arch.unit_layout(),
                step.global,
                None,
                ratio,
                step.round,
                rng,
            )
        };

        // The packed path trains the physically small submodel on values
        // gathered straight from the shared snapshot — no full-model clone,
        // no full-size mask expansion inside the parallel task.
        let (report, summary, update) = step.train_submodel(step.global, mask, ratio, rng);
        let feedback = RatioFeedback {
            ratio,
            local_cost: report.local_cost.total(),
            accuracy: summary.mean_accuracy,
        };
        (report, update, feedback)
    }

    fn absorbed(&mut self, client: usize, _round: usize, feedback: RatioFeedback) {
        if let Some(controller) = self.controller.as_mut() {
            controller.defer(client, feedback);
        }
    }

    fn aggregated(&mut self) {
        if let Some(controller) = self.controller.as_mut() {
            controller.apply_deferred();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlps_core::server::{train_options, Server, Staged};
    use fedlps_data::scenario::{DatasetKind, ScenarioConfig};
    use fedlps_device::HeterogeneityLevel;
    use std::sync::Arc;

    use fedlps_sim::algorithm::FlAlgorithm;
    use fedlps_sim::config::FlConfig;
    use fedlps_sim::runner::Simulator;
    use fedlps_sim::train::{local_sgd, LocalTrainOptions};
    use fedlps_tensor::rng_from_seed;

    const VARIANTS: [WidthVariant; 5] = [
        WidthVariant::Fjord,
        WidthVariant::HeteroFl,
        WidthVariant::FedRolex,
        WidthVariant::FedMp,
        WidthVariant::DepthFl,
    ];

    fn sim() -> Simulator {
        Simulator::new(FlEnv::from_scenario(
            &ScenarioConfig::tiny(DatasetKind::MnistLike),
            HeterogeneityLevel::High,
            FlConfig::tiny(),
        ))
    }

    #[test]
    fn all_variants_run_and_use_sparsity() {
        for variant in VARIANTS {
            let s = sim();
            let mut algo = Server::from(WidthScaling::new(variant));
            let result = s.run(&mut algo);
            assert_eq!(
                result.rounds.len(),
                FlConfig::tiny().rounds,
                "{}",
                algo.name()
            );
            assert!(
                result.mean_sparse_ratio() < 0.999,
                "{} should train submodels on a heterogeneous fleet",
                algo.name()
            );
        }
    }

    #[test]
    fn packed_upload_aggregates_like_the_masked_dense_oracle_for_every_width_variant() {
        // The family always uploads `ContribParams::Packed`; the oracle is an
        // explicitly masked `local_sgd` staged as a dense contribution. Both
        // must aggregate to the same bits and report the same round.
        let sim = sim();
        let env = sim.env();
        let layout = env.arch.unit_layout();
        let global = Arc::new(env.initial_params());
        // 0.8 leaves DepthFL units in its last layer, so its mask extracts a
        // connected submodel like the other four.
        let (client, round, ratio) = (0, 1, 0.8);
        let step = Step::new(env, round, client, &global);
        for variant in VARIANTS {
            let mask = if matches!(variant, WidthVariant::DepthFl) {
                WidthScaling::depth_mask(env, ratio)
            } else {
                let mut rng = rng_from_seed(3);
                variant
                    .pattern()
                    .build_mask(layout, &global, None, ratio, round, &mut rng)
            };

            let (report, _, update) =
                step.train_submodel(&global, mask.clone(), ratio, &mut rng_from_seed(11));
            assert!(
                matches!(update, ContribParams::Packed { .. }),
                "{variant:?}: the family's masks are packable"
            );

            let pmask = mask.param_mask(layout);
            let mut params = (*global).clone();
            let summary = local_sgd(
                &*env.arch,
                &mut params,
                env.train_data(client),
                &LocalTrainOptions {
                    param_mask: Some(&pmask),
                    ..train_options(env)
                },
                &mut rng_from_seed(11),
            );
            let oracle = ContribParams::Dense {
                params,
                param_mask: Some(pmask),
            };
            assert_eq!(
                report,
                step.report(Some(&mask), ratio, summary.mean_accuracy, summary.mean_loss),
                "{variant:?}: reports differ"
            );

            let aggregate = |update: ContribParams| {
                let mut next = (*global).clone();
                let staged = [
                    Contribution {
                        weight: 2.0,
                        update,
                    },
                    Contribution {
                        weight: 1.0,
                        update: ContribParams::Dense {
                            params: vec![0.25; next.len()],
                            param_mask: None,
                        },
                    },
                ];
                Contribution::aggregate(&mut next, &staged, layout, 1);
                next
            };
            let (via_packed, via_dense) = (aggregate(update), aggregate(oracle));
            assert!(
                via_packed
                    .iter()
                    .zip(&via_dense)
                    .all(|(p, d)| p.to_bits() == d.to_bits()),
                "{variant:?}: aggregated globals diverge"
            );
        }
    }

    #[test]
    fn sparse_ratios_never_exceed_static_capability_for_rcr_variants() {
        // Every client of the fleet: HeteroFL, FedRolex and DepthFL train at
        // `z_k` itself, Fjord at a uniform draw in `[0.5, 1) × z_k`.
        let s = sim();
        let env = s.env();
        let global = Arc::new(env.initial_params());
        for variant in [
            WidthVariant::Fjord,
            WidthVariant::HeteroFl,
            WidthVariant::FedRolex,
            WidthVariant::DepthFl,
        ] {
            let mut family = WidthScaling::new(variant);
            family.setup(env, &global);
            for client in 0..env.num_clients() {
                let z = env.capability(client);
                let step = Step::new(env, 0, client, &global);
                let (report, _, _) = family.train(&step, &mut rng_from_seed(client as u64));
                let ratio = report.sparse_ratio;
                if variant == WidthVariant::Fjord {
                    assert!(
                        (0.5 * z..z).contains(&ratio),
                        "Fjord client {client}: ratio {ratio}, capability {z}"
                    );
                } else {
                    assert_eq!(ratio, z.clamp(0.05, 1.0), "{variant:?} client {client}");
                }
            }
        }
    }

    #[test]
    fn depth_mask_keeps_early_layers_and_respects_budget() {
        let env = FlEnv::from_scenario(
            &ScenarioConfig::tiny(DatasetKind::MnistLike),
            HeterogeneityLevel::None,
            FlConfig::tiny(),
        );
        let mask = WidthScaling::depth_mask(&env, 0.5);
        let layout = env.arch.unit_layout();
        let retained = mask.retained_per_layer(layout);
        let per_layer = layout.units_per_layer();
        // The first layer keeps more (or equal) share than the last layer.
        let first_share = retained[0] as f64 / per_layer[0] as f64;
        let last_share = *retained.last().unwrap() as f64 / *per_layer.last().unwrap() as f64;
        assert!(first_share >= last_share);
        assert!(mask.retained_units() >= 1);
    }
}
