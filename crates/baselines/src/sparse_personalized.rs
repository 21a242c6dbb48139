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

/// Which personalized sparse baseline to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SparsePersonalizedVariant {
    /// LotteryFL / Hermes: prune by `prune_step` whenever training accuracy
    /// exceeds `accuracy_threshold`, never below `floor_ratio`.
    PruneSchedule {
        label: &'static str,
        prune_step: f64,
        accuracy_threshold: f64,
        floor_ratio: f64,
    },
    /// FedSpa with a constant uniform ratio and per-round prune-and-regrow.
    FedSpa { ratio: f64, regrow_fraction: f64 },
    /// FedP3: capability-capped ordered submodels plus a personal head.
    FedP3,
}

impl SparsePersonalizedVariant {
    fn label(&self) -> &'static str {
        match self {
            SparsePersonalizedVariant::PruneSchedule { label, .. } => label,
            SparsePersonalizedVariant::FedSpa { .. } => "FedSpa",
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
    states: Vec<Option<PersonalState>>,
    /// 0/1 indicator of the shared body (FedP3 withholds the head).
    body: Vec<f32>,
}

impl SparsePersonalized {
    /// Creates the family for the given variant.
    pub fn new(variant: SparsePersonalizedVariant) -> Self {
        Self {
            variant,
            states: Vec::new(),
            body: Vec::new(),
        }
    }

    /// The published dense-to-sparse schedule (prune 10% past 50% accuracy,
    /// floor at 30% of the model) under the given Table-I label.
    fn published_schedule(label: &'static str) -> Self {
        Self::new(SparsePersonalizedVariant::PruneSchedule {
            label,
            prune_step: 0.1,
            accuracy_threshold: 0.5,
            floor_ratio: 0.3,
        })
    }

    /// LotteryFL with its published schedule.
    pub fn lotteryfl() -> Self {
        Self::published_schedule("LotteryFL")
    }

    /// Hermes: the same schedule as LotteryFL.
    pub fn hermes() -> Self {
        Self::published_schedule("Hermes")
    }

    /// FedSpa at the paper's uniform 0.5 ratio.
    pub fn fedspa() -> Self {
        Self::new(SparsePersonalizedVariant::FedSpa {
            ratio: 0.5,
            regrow_fraction: 0.2,
        })
    }

    /// FedP3.
    pub fn fedp3() -> Self {
        Self::new(SparsePersonalizedVariant::FedP3)
    }

    /// Decides the client's ratio and pattern for this round, based on the
    /// variant's heuristic and the client's previous state.
    fn next_mask(&self, step: &Step<'_>, rng: &mut StdRng) -> (UnitMask, f64) {
        let (env, client, round) = (step.env, step.client, step.round);
        let layout = env.arch.unit_layout();
        let prev = self.states[client].as_ref();
        let reference = prev
            .map(|s| s.params.as_slice())
            .unwrap_or(step.global.as_slice());
        match self.variant {
            SparsePersonalizedVariant::PruneSchedule { floor_ratio, .. } => {
                // The ratio itself is adjusted in `train` (it depends
                // on the achieved accuracy); here we only build the magnitude
                // mask at the client's current ratio.
                let ratio = prev.map(|s| s.ratio).unwrap_or(1.0).max(floor_ratio);
                let mask = PatternStrategy::Magnitude
                    .build_mask(layout, reference, None, ratio, round, rng);
                (mask, ratio)
            }
            SparsePersonalizedVariant::FedSpa {
                ratio,
                regrow_fraction,
            } => {
                // Prune-and-regrow: start from a magnitude mask and randomly
                // swap a fraction of retained units for dropped ones.
                let mut mask = PatternStrategy::Magnitude
                    .build_mask(layout, reference, None, ratio, round, rng);
                let total = layout.total_units();
                let mut keep: Vec<bool> = (0..total).map(|j| mask.is_kept(j)).collect();
                let kept_idx: Vec<usize> = (0..total).filter(|&j| keep[j]).collect();
                let dropped_idx: Vec<usize> = (0..total).filter(|&j| !keep[j]).collect();
                let swaps = ((kept_idx.len() as f64) * regrow_fraction) as usize;
                for _ in 0..swaps.min(dropped_idx.len()) {
                    let from = kept_idx[rng.gen_range(0..kept_idx.len())];
                    let to = dropped_idx[rng.gen_range(0..dropped_idx.len())];
                    keep[from] = false;
                    keep[to] = true;
                }
                mask = UnitMask::from_keep(keep);
                (mask, ratio)
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
        self.states = vec![None; env.num_clients()];
        self.body = body_indicator(env);
    }

    fn train(
        &self,
        step: &Step<'_>,
        rng: &mut StdRng,
    ) -> (ClientReport, ContribParams, PersonalState) {
        let env = step.env;
        let fedp3 = matches!(self.variant, SparsePersonalizedVariant::FedP3);
        let (mask, mut ratio) = self.next_mask(step, rng);

        // Local model: start from the global body, but keep personal pieces
        // where the method defines them.
        let mut params = (**step.global).clone();
        if let (true, Some(state)) = (fedp3, &self.states[step.client]) {
            copy_head(env, &mut params, &state.params);
        }

        let (report, summary) = step.train(&mut params, Some(&mask), None, None, ratio, rng);

        // LotteryFL / Hermes dense-to-sparse schedule: prune further once the
        // local accuracy clears the threshold.
        if let SparsePersonalizedVariant::PruneSchedule {
            prune_step,
            accuracy_threshold,
            floor_ratio,
            ..
        } = self.variant
        {
            if summary.mean_accuracy >= accuracy_threshold {
                ratio = (ratio - prune_step).max(floor_ratio);
            }
        }

        // The body (or the overlapping retained parameters) is shared; FedP3
        // additionally withholds the head from aggregation.
        let mut shared_mask = mask.param_mask(env.arch.unit_layout());
        if fedp3 {
            for (m, b) in shared_mask.iter_mut().zip(self.body.iter()) {
                *m *= b;
            }
        }
        let update = ContribParams::Dense {
            params: params.clone(),
            param_mask: Some(shared_mask),
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
        self.states[client] = Some(state);
    }

    /// The client's personal sparse model `params ⊙ mask`, evaluated on its
    /// packed submodel; a client that never trained gets the dense global
    /// model.
    fn deployed(&self, env: &FlEnv, global: &[f32], client: usize) -> EvalStats {
        match &self.states[client] {
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
        self.states[client].is_some()
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
        for mk in [
            SparsePersonalized::lotteryfl,
            SparsePersonalized::hermes,
            SparsePersonalized::fedspa,
            SparsePersonalized::fedp3,
        ] {
            let s = sim();
            let mut algo = Server::from(mk());
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
    fn fedspa_keeps_a_constant_ratio() {
        let s = sim();
        let mut algo = Server::from(SparsePersonalized::fedspa());
        let result = s.run(&mut algo);
        for r in &result.rounds {
            assert!((r.mean_sparse_ratio - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn lotteryfl_ratio_decays_once_accuracy_clears_threshold() {
        // Use a threshold of zero so pruning triggers immediately.
        let s = sim();
        let mut algo = Server::from(SparsePersonalized::new(
            SparsePersonalizedVariant::PruneSchedule {
                label: "LotteryFL",
                prune_step: 0.2,
                accuracy_threshold: 0.0,
                floor_ratio: 0.3,
            },
        ));
        let result = s.run(&mut algo);
        let first = result.rounds.first().unwrap().mean_sparse_ratio;
        let last = result.rounds.last().unwrap().mean_sparse_ratio;
        assert!(last < first, "ratio should decay: {first} -> {last}");
        // And never below the floor.
        for state in algo.family().states.iter().flatten() {
            assert!(state.ratio >= 0.3 - 1e-9);
        }
    }

    #[test]
    fn fedp3_submodels_track_capability() {
        let s = sim();
        let caps = s.env().capabilities();
        let mut algo = Server::from(SparsePersonalized::fedp3());
        let _ = s.run(&mut algo);
        for (k, state) in algo.family().states.iter().enumerate() {
            if let Some(state) = state {
                assert!((state.ratio - caps[k]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn personalized_masks_differ_across_clients() {
        let s = sim();
        let mut algo = Server::from(SparsePersonalized::hermes());
        let _ = s.run(&mut algo);
        let masks: Vec<&UnitMask> = algo
            .family()
            .states
            .iter()
            .flatten()
            .map(|s| &s.mask)
            .collect();
        assert!(masks.len() >= 2);
        let all_identical = masks.windows(2).all(|w| w[0] == w[1]);
        assert!(
            !all_identical,
            "personalized patterns should differ across non-IID clients"
        );
    }
}
