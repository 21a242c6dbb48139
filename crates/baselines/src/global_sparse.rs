//! Globally sparse FL baselines: PruneFL and Complement Sparsification (CS).
//!
//! Both keep a *single shared* sparse pattern for the whole federation (every
//! client trains the same submodel size), in contrast to the heterogeneous and
//! personalized families:
//!
//! * **PruneFL** — a powerful client prunes the initial dense model by
//!   magnitude; the resulting mask is redistributed and periodically
//!   re-selected from the aggregated global model as training progresses.
//! * **CS** — complement sparsification prunes updates at a fixed ratio. The
//!   original method is unstructured; since this reproduction's substrate is
//!   structured (unit-level), CS is modelled as a unit-level magnitude mask
//!   recomputed every round (see PAPER.md, "Substitutions").

use fedlps_core::server::{ContribParams, Contribution, Family, Step};
use fedlps_nn::model::EvalStats;
use fedlps_sim::algorithm::ClientReport;
use fedlps_sim::env::FlEnv;
use fedlps_sim::train::evaluate_masked;
use fedlps_sparse::mask::UnitMask;
use fedlps_sparse::pattern::PatternStrategy;
use rand::rngs::StdRng;

/// The shared sparse ratio both methods use in the paper's comparison.
const SHARED_RATIO: f64 = 0.5;

/// PruneFL's re-pruning period in rounds.
const PRUNEFL_REPRUNE_EVERY: usize = 5;

/// Which globally sparse baseline to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GlobalSparseVariant {
    /// PruneFL: shared ratio 0.5, re-pruned every 5 rounds.
    PruneFl,
    /// Complement sparsification at the shared ratio 0.5.
    Cs,
}

impl GlobalSparseVariant {
    fn label(&self) -> &'static str {
        match self {
            GlobalSparseVariant::PruneFl => "PruneFL",
            GlobalSparseVariant::Cs => "CS",
        }
    }
}

/// The globally sparse family.
#[derive(Debug)]
pub struct GlobalSparse {
    variant: GlobalSparseVariant,
    /// The federation's one shared pattern (`None` until `setup`).
    mask: Option<UnitMask>,
}

impl GlobalSparse {
    /// Creates the family for the given variant.
    pub fn new(variant: GlobalSparseVariant) -> Self {
        Self {
            variant,
            mask: None,
        }
    }

    fn recompute_mask(&mut self, env: &FlEnv, global: &[f32], rng: &mut StdRng) {
        let mask = PatternStrategy::Magnitude.build_mask(
            env.arch.unit_layout(),
            global,
            None,
            SHARED_RATIO,
            0,
            rng,
        );
        self.mask = Some(mask);
    }

    fn mask(&self) -> &UnitMask {
        self.mask.as_ref().expect("setup() not called")
    }
}

impl Family for GlobalSparse {
    type Upload = Contribution;
    type Side = ();

    fn label(&self) -> String {
        self.variant.label().to_string()
    }

    fn setup(&mut self, env: &FlEnv, global: &[f32]) {
        // The "powerful client" performs the initial magnitude pruning.
        let mut rng = fedlps_tensor::rng_from_seed(env.config.seed ^ 0x9121);
        self.recompute_mask(env, global, &mut rng);
    }

    fn begin_round(&mut self, env: &FlEnv, global: &[f32], round: usize, rng: &mut StdRng) {
        // CS refreshes its mask every round; PruneFL re-prunes periodically.
        // Round-level shared state belongs here, not in the (parallel,
        // immutable) client steps.
        match self.variant {
            GlobalSparseVariant::Cs => self.recompute_mask(env, global, rng),
            GlobalSparseVariant::PruneFl => {
                if round % PRUNEFL_REPRUNE_EVERY == 0 {
                    self.recompute_mask(env, global, rng);
                }
            }
        }
    }

    fn train(&self, step: &Step<'_>, rng: &mut StdRng) -> (ClientReport, ContribParams, ()) {
        let (report, _, update) =
            step.train_submodel(step.global, self.mask().clone(), SHARED_RATIO, rng);
        (report, update, ())
    }

    fn absorbed(&mut self, _client: usize, _round: usize, _side: ()) {}

    /// The shared sparse global model `global ⊙ mask`, evaluated on its
    /// packed submodel.
    fn deployed(&self, env: &FlEnv, global: &[f32], client: usize) -> EvalStats {
        evaluate_masked(&*env.arch, self.mask(), global, env.test_data(client))
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
            HeterogeneityLevel::High,
            FlConfig::tiny(),
        ))
    }

    #[test]
    fn both_variants_run_at_half_ratio() {
        for variant in [GlobalSparseVariant::PruneFl, GlobalSparseVariant::Cs] {
            let s = sim();
            let mut algo = Server::from(GlobalSparse::new(variant));
            let result = s.run(&mut algo);
            assert!(result.rounds.len() == FlConfig::tiny().rounds);
            assert!(
                (result.mean_sparse_ratio() - 0.5).abs() < 1e-9,
                "{}",
                algo.name()
            );
        }
    }

    #[test]
    fn shared_mask_is_used_for_every_client() {
        let s = sim();
        let mut algo = Server::from(GlobalSparse::new(GlobalSparseVariant::PruneFl));
        algo.setup(s.env());
        let mask = algo.family().mask().clone();
        assert!(mask.retained_units() < s.env().arch.unit_layout().total_units());
        // Evaluation applies the shared mask, so accuracy is well-defined.
        let stats = algo.evaluate_client(s.env(), 0);
        assert!(stats.samples > 0);
    }

    #[test]
    fn sparse_flops_are_cheaper_than_fedavg() {
        let s = sim();
        let mut sparse = Server::from(GlobalSparse::new(GlobalSparseVariant::Cs));
        let sparse_result = s.run(&mut sparse);
        let s2 = sim();
        let mut dense = Server::from(DenseFl::new(DenseVariant::FedAvg));
        let dense_result = s2.run(&mut dense);
        assert!(sparse_result.total_flops < dense_result.total_flops);
    }
}
