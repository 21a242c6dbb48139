//! Personalized *sparse* FL baselines: LotteryFL, Hermes, FedSpa and FedP3.
//!
//! These methods give every client its own sparse submodel (like FedLPS) but
//! derive the pattern heuristically and the ratio rigidly:
//!
//! * **LotteryFL** — dense-to-sparse: each client prunes its lowest-magnitude
//!   units by a fixed rate whenever its local accuracy crosses a threshold,
//!   down to a floor ratio; the personal "lottery ticket" is deployed locally.
//! * **Hermes** — the structured variant of the same idea (channel pruning),
//!   aggregating only the parameters the retained channels share. On this
//!   reproduction's unit-level substrate LotteryFL's pruning is structured
//!   too, so the two are one schedule under two labels (see PAPER.md,
//!   "Substitutions").
//! * **FedSpa** — sparse-to-sparse dynamic sparse training with a *uniform
//!   constant* ratio: every round the personal mask drops its lowest-magnitude
//!   units and regrows random ones.
//! * **FedP3** — resource-based ratios (ordered pattern capped at the client's
//!   capability) combined with a personal classifier head.

use std::collections::BTreeMap;
use std::sync::Arc;

use fedlps_core::server::{ContribParams, Contribution, Family, Step};
use fedlps_nn::model::EvalStats;
use fedlps_sim::algorithm::ClientReport;
use fedlps_sim::env::FlEnv;
use fedlps_sim::train::evaluate_masked;
use fedlps_sparse::mask::UnitMask;
use fedlps_sparse::pattern::PatternStrategy;
use rand::rngs::StdRng;
use rand::Rng;

use crate::common::{body_indicator, copy_head};

// The LotteryFL / Hermes schedule: a client whose training accuracy reaches
// `PRUNE_ACCURACY_THRESHOLD` prunes `PRUNE_STEP` more of the model, never
// below `PRUNE_FLOOR_RATIO`.
const PRUNE_STEP: f64 = 0.1;
const PRUNE_ACCURACY_THRESHOLD: f64 = 0.5;
const PRUNE_FLOOR_RATIO: f64 = 0.3;

/// FedSpa's uniform constant ratio.
const FEDSPA_RATIO: f64 = 0.5;
/// The fraction of FedSpa's retained units swapped for dropped ones each
/// round.
const FEDSPA_REGROW_FRACTION: f64 = 0.2;

/// Which personalized sparse baseline to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SparsePersonalizedVariant {
    /// LotteryFL: prune by 0.1 whenever training accuracy reaches 0.5, never
    /// below ratio 0.3.
    LotteryFl,
    /// Hermes: LotteryFL's schedule under its own label.
    Hermes,
    /// FedSpa: constant uniform ratio 0.5 with per-round prune-and-regrow.
    FedSpa,
    /// FedP3: capability-capped ordered submodels plus a personal head.
    FedP3,
}

impl SparsePersonalizedVariant {
    fn label(&self) -> &'static str {
        match self {
            SparsePersonalizedVariant::LotteryFl => "LotteryFL",
            SparsePersonalizedVariant::Hermes => "Hermes",
            SparsePersonalizedVariant::FedSpa => "FedSpa",
            SparsePersonalizedVariant::FedP3 => "FedP3",
        }
    }
}

/// Per-client personalized sparse state.
#[derive(Debug, Clone)]
pub struct PersonalState {
    params: Vec<f32>,
    mask: UnitMask,
    ratio: f64,
}

/// The personalized sparse family.
#[derive(Debug)]
pub struct SparsePersonalized {
    variant: SparsePersonalizedVariant,
    /// Each trained client's personal state, keyed by client; a client not in
    /// the map has never trained.
    states: BTreeMap<usize, PersonalState>,
    /// 0/1 indicator of the shared body (FedP3 withholds the head).
    body: Vec<f32>,
}

impl SparsePersonalized {
    /// Creates the family for the given variant.
    pub fn new(variant: SparsePersonalizedVariant) -> Self {
        Self {
            variant,
            states: BTreeMap::new(),
            body: Vec::new(),
        }
    }

    /// Decides the client's ratio and pattern for this round, based on the
    /// variant's heuristic and the client's previous state.
    fn next_mask(&self, step: &Step<'_>, rng: &mut StdRng) -> (UnitMask, f64) {
        let (env, client, round) = (step.env, step.client, step.round);
        let layout = env.arch.unit_layout();
        let prev = self.states.get(&client);
        let reference = prev
            .map(|s| s.params.as_slice())
            .unwrap_or(step.global.as_slice());
        match self.variant {
            SparsePersonalizedVariant::LotteryFl | SparsePersonalizedVariant::Hermes => {
                // The ratio itself is adjusted in `train` (it depends
                // on the achieved accuracy); here we only build the magnitude
                // mask at the client's current ratio.
                let ratio = prev.map(|s| s.ratio).unwrap_or(1.0).max(PRUNE_FLOOR_RATIO);
                let mask = PatternStrategy::Magnitude
                    .build_mask(layout, reference, None, ratio, round, rng);
                (mask, ratio)
            }
            SparsePersonalizedVariant::FedSpa => {
                // Prune-and-regrow: start from a magnitude mask and randomly
                // swap a fraction of retained units for dropped ones.
                let mut mask = PatternStrategy::Magnitude.build_mask(
                    layout,
                    reference,
                    None,
                    FEDSPA_RATIO,
                    round,
                    rng,
                );
                let total = layout.total_units();
                let mut keep: Vec<bool> = (0..total).map(|j| mask.is_kept(j)).collect();
                let kept_idx: Vec<usize> = (0..total).filter(|&j| keep[j]).collect();
                let dropped_idx: Vec<usize> = (0..total).filter(|&j| !keep[j]).collect();
                let swaps = ((kept_idx.len() as f64) * FEDSPA_REGROW_FRACTION) as usize;
                for _ in 0..swaps.min(dropped_idx.len()) {
                    let from = kept_idx[rng.gen_range(0..kept_idx.len())];
                    let to = dropped_idx[rng.gen_range(0..dropped_idx.len())];
                    keep[from] = false;
                    keep[to] = true;
                }
                mask = UnitMask::from_keep(keep);
                (mask, FEDSPA_RATIO)
            }
            SparsePersonalizedVariant::FedP3 => {
                let ratio = env.fleet.static_profile(client).capability;
                let mask =
                    PatternStrategy::Ordered.build_mask(layout, reference, None, ratio, round, rng);
                (mask, ratio)
            }
        }
    }
}

impl Family for SparsePersonalized {
    type Upload = Contribution;
    /// The client's next personal state.
    type Side = PersonalState;

    fn label(&self) -> String {
        self.variant.label().to_string()
    }

    fn setup(&mut self, env: &FlEnv, _global: &[f32]) {
        self.states.clear();
        self.body = body_indicator(env);
    }

    fn train(
        &self,
        step: &Step<'_>,
        rng: &mut StdRng,
    ) -> (ClientReport, ContribParams, PersonalState) {
        let env = step.env;
        let layout = env.arch.unit_layout();
        let (mask, mut ratio) = self.next_mask(step, rng);

        // FedP3 trains the global body under the client's personal head;
        // everyone else trains the submodel of the global model itself.
        let fedp3 = matches!(self.variant, SparsePersonalizedVariant::FedP3);
        let personal_head = match (fedp3, self.states.get(&step.client)) {
            (true, Some(state)) => {
                let mut params = (**step.global).clone();
                copy_head(env, &mut params, &state.params);
                Some(Arc::new(params))
            }
            _ => None,
        };
        let base = personal_head.as_ref().unwrap_or(step.global);
        let (report, summary, update) = step.train_submodel(base, mask.clone(), ratio, rng);
        let params = update.trained_params(layout);

        // LotteryFL / Hermes dense-to-sparse schedule: prune further once the
        // local accuracy clears the threshold.
        if matches!(
            self.variant,
            SparsePersonalizedVariant::LotteryFl | SparsePersonalizedVariant::Hermes
        ) && summary.mean_accuracy >= PRUNE_ACCURACY_THRESHOLD
        {
            ratio = (ratio - PRUNE_STEP).max(PRUNE_FLOOR_RATIO);
        }

        // The retained parameters are shared; FedP3 additionally withholds
        // the head from aggregation.
        let update = if fedp3 {
            let mut shared_mask = mask.param_mask(layout);
            for (m, b) in shared_mask.iter_mut().zip(self.body.iter()) {
                *m *= b;
            }
            ContribParams::Dense {
                params: params.clone(),
                param_mask: Some(shared_mask),
            }
        } else {
            update
        };
        (
            report,
            update,
            PersonalState {
                params,
                mask,
                ratio,
            },
        )
    }

    fn absorbed(&mut self, client: usize, _round: usize, state: PersonalState) {
        self.states.insert(client, state);
    }

    /// The client's personal sparse model `params ⊙ mask`, evaluated on its
    /// packed submodel; a client that never trained gets the dense global
    /// model.
    fn deployed(&self, env: &FlEnv, global: &[f32], client: usize) -> EvalStats {
        match self.states.get(&client) {
            Some(state) => evaluate_masked(
                &*env.arch,
                &state.mask,
                &state.params,
                env.test_data(client),
            ),
            None => env.arch.evaluate(global, env.test_data(client)),
        }
    }

    /// A client that trained deploys its own personal state alone.
    fn deploys_own_record(&self, client: usize) -> bool {
        self.states.contains_key(&client)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlps_core::server::{train_options, Server};
    use fedlps_data::scenario::{DatasetKind, ScenarioConfig};
    use fedlps_device::HeterogeneityLevel;
    use fedlps_sim::algorithm::FlAlgorithm;
    use fedlps_sim::config::FlConfig;
    use fedlps_sim::runner::Simulator;
    use fedlps_sim::train::{local_sgd, LocalTrainOptions};
    use fedlps_tensor::rng_from_seed;

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
            SparsePersonalizedVariant::LotteryFl,
            SparsePersonalizedVariant::Hermes,
            SparsePersonalizedVariant::FedSpa,
            SparsePersonalizedVariant::FedP3,
        ] {
            let s = sim();
            let mut algo = Server::from(SparsePersonalized::new(variant));
            let result = s.run(&mut algo);
            assert_eq!(
                result.rounds.len(),
                FlConfig::tiny().rounds,
                "{}",
                algo.name()
            );
            assert!(result.final_accuracy >= 0.0);
        }
    }

    #[test]
    fn personal_store_holds_only_absorbed_clients() {
        // Two rounds of three clients cannot cover the tiny federation's
        // eight: the store is keyed by who trained, not sized by the fleet.
        for variant in [
            SparsePersonalizedVariant::LotteryFl,
            SparsePersonalizedVariant::Hermes,
            SparsePersonalizedVariant::FedSpa,
            SparsePersonalizedVariant::FedP3,
        ] {
            let s = Simulator::new(FlEnv::from_scenario(
                &ScenarioConfig::tiny(DatasetKind::MnistLike),
                HeterogeneityLevel::High,
                FlConfig::tiny().with_rounds(2),
            ));
            let mut algo = Server::from(SparsePersonalized::new(variant));
            let absorbed = s.run(&mut algo).total_first_time_participants() as usize;
            assert!((1..s.env().num_clients()).contains(&absorbed));
            assert_eq!(algo.family().states.len(), absorbed, "{variant:?}");
        }
    }

    #[test]
    fn fedspa_keeps_a_constant_ratio() {
        let s = sim();
        let mut algo = Server::from(SparsePersonalized::new(SparsePersonalizedVariant::FedSpa));
        let result = s.run(&mut algo);
        for r in &result.rounds {
            assert!((r.mean_sparse_ratio - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn lotteryfl_ratio_decays_once_accuracy_clears_threshold() {
        // The published schedule: on this federation the clients' training
        // accuracy clears the threshold within the run.
        let s = sim();
        let mut algo = Server::from(SparsePersonalized::new(
            SparsePersonalizedVariant::LotteryFl,
        ));
        let result = s.run(&mut algo);
        let first = result.rounds.first().unwrap().mean_sparse_ratio;
        let last = result.rounds.last().unwrap().mean_sparse_ratio;
        assert!(last < first, "ratio should decay: {first} -> {last}");
        // And never below the floor.
        for state in algo.family().states.values() {
            assert!(state.ratio >= PRUNE_FLOOR_RATIO - 1e-9);
        }
    }

    #[test]
    fn fedp3_submodels_track_capability() {
        let s = sim();
        let mut algo = Server::from(SparsePersonalized::new(SparsePersonalizedVariant::FedP3));
        let _ = s.run(&mut algo);
        for (&k, state) in &algo.family().states {
            assert!((state.ratio - s.env().capability(k)).abs() < 1e-9);
        }
    }

    #[test]
    fn personalized_masks_differ_across_clients() {
        let s = sim();
        let mut algo = Server::from(SparsePersonalized::new(SparsePersonalizedVariant::Hermes));
        let _ = s.run(&mut algo);
        let masks: Vec<&UnitMask> = algo.family().states.values().map(|s| &s.mask).collect();
        assert!(masks.len() >= 2);
        let all_identical = masks.windows(2).all(|w| w[0] == w[1]);
        assert!(
            !all_identical,
            "personalized patterns should differ across non-IID clients"
        );
    }

    #[test]
    fn packed_personal_models_match_masked_dense_training() {
        // One round of a packed LotteryFL / FedSpa client: its personal
        // model is the masked-dense `local_sgd` run from the same global and
        // seed, bit for bit.
        let s = sim();
        let env = s.env();
        let global = Arc::new(env.initial_params());
        let (client, round) = (0, 0);
        for variant in [
            SparsePersonalizedVariant::LotteryFl,
            SparsePersonalizedVariant::FedSpa,
        ] {
            let mut family = SparsePersonalized::new(variant);
            family.setup(env, &global);
            let step = Step::new(env, round, client, &global);
            let (_, update, state) = family.train(&step, &mut rng_from_seed(17));
            assert!(
                matches!(update, ContribParams::Packed { .. }),
                "{variant:?}: the client trains packed"
            );

            let mut rng = rng_from_seed(17);
            let (mask, _) = family.next_mask(&step, &mut rng);
            assert_eq!(state.mask, mask);
            let pmask = mask.param_mask(env.arch.unit_layout());
            let mut params = (*global).clone();
            local_sgd(
                &*env.arch,
                &mut params,
                env.train_data(client),
                &LocalTrainOptions {
                    param_mask: Some(&pmask),
                    ..train_options(env)
                },
                &mut rng,
            );
            assert!(
                state
                    .params
                    .iter()
                    .zip(&params)
                    .all(|(p, d)| p.to_bits() == d.to_bits()),
                "{variant:?}: personal model diverges from masked-dense training"
            );
        }
    }
}
