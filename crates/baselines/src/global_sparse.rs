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

/// Which globally sparse baseline to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GlobalSparseVariant {
    /// PruneFL with the given shared sparse ratio and re-pruning period.
    PruneFl { ratio: f64, reprune_every: usize },
    /// Complement sparsification with the given shared ratio.
    Cs { ratio: f64 },
}

impl GlobalSparseVariant {
    fn label(&self) -> &'static str {
        match self {
            GlobalSparseVariant::PruneFl { .. } => "PruneFL",
            GlobalSparseVariant::Cs { .. } => "CS",
        }
    }

    fn ratio(&self) -> f64 {
        match self {
            GlobalSparseVariant::PruneFl { ratio, .. } | GlobalSparseVariant::Cs { ratio } => {
                *ratio
            }
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

    /// PruneFL with the paper-style defaults (shared ratio 0.5, re-prune every
    /// 5 rounds).
    pub fn prunefl() -> Self {
        Self::new(GlobalSparseVariant::PruneFl {
            ratio: 0.5,
            reprune_every: 5,
        })
    }

    /// CS with the shared ratio 0.5 the paper uses in its comparison.
    pub fn cs() -> Self {
        Self::new(GlobalSparseVariant::Cs { ratio: 0.5 })
    }

    fn recompute_mask(&mut self, env: &FlEnv, global: &[f32], rng: &mut StdRng) {
        let mask = PatternStrategy::Magnitude.build_mask(
            env.arch.unit_layout(),
            global,
            None,
            self.variant.ratio(),
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
            GlobalSparseVariant::Cs { .. } => self.recompute_mask(env, global, rng),
            GlobalSparseVariant::PruneFl { reprune_every, .. } => {
                if reprune_every > 0 && round % reprune_every == 0 {
                    self.recompute_mask(env, global, rng);
                }
            }
        }
    }

    fn train(&self, step: &Step<'_>, rng: &mut StdRng) -> (ClientReport, ContribParams, ()) {
        let (report, _, update) =
            step.train_submodel(self.mask().clone(), self.variant.ratio(), rng);
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
        for mk in [GlobalSparse::prunefl, GlobalSparse::cs] {
            let s = sim();
            let mut algo = Server::from(mk());
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
        let mut algo = Server::from(GlobalSparse::prunefl());
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
        let mut sparse = Server::from(GlobalSparse::cs());
        let sparse_result = s.run(&mut sparse);
        let s2 = sim();
        let mut dense = Server::from(DenseFl::new(DenseVariant::FedAvg));
        let dense_result = s2.run(&mut dense);
        assert!(sparse_result.total_flops < dense_result.total_flops);
    }
}
