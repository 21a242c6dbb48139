//! Sparse-pattern strategies.
//!
//! The paper contrasts three heuristic families — random dropout (Federated
//! Dropout), ordered dropout (Fjord / HeteroFL / FedRolex) and magnitude-based
//! pruning (FedMP / Hermes / LotteryFL) — with FedLPS's *learnable* pattern,
//! in which per-unit importance scores trained on local data are thresholded
//! at the `(1 − s)`-quantile (Eq. 4). All of them are implemented here behind
//! one enum so the ablation benchmark of Figure 9a can sweep them uniformly.

use fedlps_nn::unit::UnitLayout;
use fedlps_tensor::rng::sample_without_replacement;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::mask::UnitMask;
use crate::ratio::retained_units;

/// How the retained units of each layer are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PatternStrategy {
    /// Uniformly random units per layer (Federated Dropout / eFD style).
    Random,
    /// The first `k` units of each layer (HeteroFL / Fjord ordered dropout).
    Ordered,
    /// A contiguous window of `k` units starting at an offset that advances
    /// every round (FedRolex rolling sub-model extraction).
    RollingOrdered,
    /// The `k` units with the largest parameter-magnitude sums (FedMP / Hermes
    /// / LotteryFL style pruning).
    Magnitude,
    /// The `k` units with the largest *learned importance scores* — FedLPS's
    /// importance-derived pattern (Eq. 4). Requires scores to be supplied.
    Importance,
}

impl PatternStrategy {
    /// Name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            PatternStrategy::Random => "random",
            PatternStrategy::Ordered => "ordered",
            PatternStrategy::RollingOrdered => "rolling-ordered",
            PatternStrategy::Magnitude => "magnitude",
            PatternStrategy::Importance => "learnable-importance",
        }
    }

    /// Whether a mask built by this strategy may be reused across rounds at
    /// a ratio that retains the same per-layer unit counts (see
    /// [`retained_per_layer`](crate::ratio::retained_per_layer)). `Ordered`
    /// masks are a pure function of the ratio, and `Importance` masks are a
    /// function of the ratio and the client's *persistent* indicator (FedLPS
    /// deliberately freezes the round's pattern while the indicator keeps
    /// learning, so serving the previous pattern extends that freeze across
    /// participations). The other strategies must be rebuilt every round:
    /// `Random` resamples its units, `RollingOrdered` advances its window
    /// with the round index, and `Magnitude` tracks the evolving weights —
    /// caching them would silently change their semantics.
    pub fn cacheable_across_rounds(&self) -> bool {
        matches!(self, PatternStrategy::Ordered | PatternStrategy::Importance)
    }

    /// Builds a unit mask at the given layer-wise ratio.
    ///
    /// * `params` — current model parameters (used by `Magnitude`);
    /// * `scores` — per-unit importance scores in layout order (required by
    ///   `Importance`, ignored otherwise);
    /// * `round` — current communication round (used by `RollingOrdered` to
    ///   advance the window);
    /// * `rng` — randomness source for `Random`.
    pub fn build_mask(
        &self,
        layout: &UnitLayout,
        params: &[f32],
        scores: Option<&[f32]>,
        ratio: f64,
        round: usize,
        rng: &mut impl Rng,
    ) -> UnitMask {
        let magnitude;
        let per_unit_scores: Option<&[f32]> = match self {
            PatternStrategy::Magnitude => {
                magnitude = layout.magnitude_sums(params);
                Some(&magnitude)
            }
            PatternStrategy::Importance => {
                let s = scores.expect("importance pattern requires scores");
                assert_eq!(
                    s.len(),
                    layout.total_units(),
                    "importance score length must equal the number of units"
                );
                Some(s)
            }
            _ => None,
        };

        let mut keep = vec![false; layout.total_units()];
        let mut offset = 0;
        for layer in layout.layers() {
            let j = layer.len();
            let k = retained_units(j, ratio);
            match self {
                PatternStrategy::Random => {
                    for idx in sample_without_replacement(j, k, rng) {
                        keep[offset + idx] = true;
                    }
                }
                PatternStrategy::Ordered => {
                    for idx in 0..k {
                        keep[offset + idx] = true;
                    }
                }
                PatternStrategy::RollingOrdered => {
                    // FedRolex: the window start advances by one unit per round
                    // and wraps around, so over time every unit is trained.
                    let start = if j == 0 { 0 } else { round % j };
                    for i in 0..k {
                        keep[offset + (start + i) % j] = true;
                    }
                }
                PatternStrategy::Magnitude | PatternStrategy::Importance => {
                    let s = &per_unit_scores.unwrap()[offset..offset + j];
                    for idx in fedlps_tensor::stats::top_k_indices(s, k) {
                        keep[offset + idx] = true;
                    }
                }
            }
            offset += j;
        }
        UnitMask::from_keep(keep)
    }
}

/// FedLPS Eq. (4): derives the learnable pattern by thresholding the
/// importance indicator at the `(1 − s)`-quantile *within each layer* (the
/// paper applies the same ratio layer-wise). Equivalent to the top-k selection
/// of [`PatternStrategy::Importance`]; exposed separately so callers that
/// already hold scores do not need an RNG or parameters.
pub fn learnable_pattern(layout: &UnitLayout, scores: &[f32], ratio: f64) -> UnitMask {
    assert_eq!(scores.len(), layout.total_units());
    let mut keep = vec![false; layout.total_units()];
    let mut offset = 0;
    for layer in layout.layers() {
        let j = layer.len();
        let k = retained_units(j, ratio);
        let layer_scores = &scores[offset..offset + j];
        for idx in fedlps_tensor::stats::top_k_indices(layer_scores, k) {
            keep[offset + idx] = true;
        }
        offset += j;
    }
    UnitMask::from_keep(keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlps_nn::mlp::{Mlp, MlpConfig};
    use fedlps_nn::model::ModelArch;
    use fedlps_tensor::rng_from_seed;

    fn toy() -> Mlp {
        Mlp::new(MlpConfig {
            input_dim: 5,
            hidden: vec![8, 6],
            num_classes: 4,
        })
    }

    #[test]
    fn every_strategy_hits_the_layerwise_budget() {
        let mlp = toy();
        let mut rng = rng_from_seed(1);
        let params = mlp.init_params(&mut rng);
        let scores: Vec<f32> = (0..mlp.unit_layout().total_units())
            .map(|i| i as f32 * 0.1)
            .collect();
        for strategy in [
            PatternStrategy::Random,
            PatternStrategy::Ordered,
            PatternStrategy::RollingOrdered,
            PatternStrategy::Magnitude,
            PatternStrategy::Importance,
        ] {
            let mask =
                strategy.build_mask(mlp.unit_layout(), &params, Some(&scores), 0.5, 3, &mut rng);
            assert_eq!(
                mask.retained_per_layer(mlp.unit_layout()),
                vec![4, 3],
                "{}",
                strategy.name()
            );
        }
    }

    #[test]
    fn ordered_keeps_prefix_rolling_shifts() {
        let mlp = toy();
        let mut rng = rng_from_seed(2);
        let params = mlp.init_params(&mut rng);
        let ordered = PatternStrategy::Ordered.build_mask(
            mlp.unit_layout(),
            &params,
            None,
            0.25,
            0,
            &mut rng,
        );
        assert!(ordered.is_kept(0) && ordered.is_kept(1));
        assert!(!ordered.is_kept(7));

        let roll0 = PatternStrategy::RollingOrdered.build_mask(
            mlp.unit_layout(),
            &params,
            None,
            0.25,
            0,
            &mut rng,
        );
        let roll3 = PatternStrategy::RollingOrdered.build_mask(
            mlp.unit_layout(),
            &params,
            None,
            0.25,
            3,
            &mut rng,
        );
        assert_ne!(roll0.keep_flags(), roll3.keep_flags());
        assert!(roll3.is_kept(3), "window should start at unit 3 in round 3");
    }

    #[test]
    fn magnitude_prefers_heavy_units() {
        let mlp = toy();
        let layout = mlp.unit_layout();
        let mut params = vec![0.0f32; mlp.param_count()];
        // Make unit 5 of hidden0 and unit 0 of hidden1 heavy.
        for r in &layout.unit(5).ranges {
            for p in &mut params[r.start..r.end()] {
                *p = 10.0;
            }
        }
        for r in &layout.unit(8).ranges {
            for p in &mut params[r.start..r.end()] {
                *p = 10.0;
            }
        }
        let mut rng = rng_from_seed(3);
        let mask =
            PatternStrategy::Magnitude.build_mask(layout, &params, None, 1.0 / 8.0, 0, &mut rng);
        assert!(mask.is_kept(5));
        assert!(mask.is_kept(8));
    }

    #[test]
    fn importance_pattern_matches_learnable_pattern_helper() {
        let mlp = toy();
        let mut rng = rng_from_seed(4);
        let params = mlp.init_params(&mut rng);
        let scores: Vec<f32> = (0..mlp.unit_layout().total_units())
            .map(|i| ((i * 37) % 11) as f32)
            .collect();
        let a = PatternStrategy::Importance.build_mask(
            mlp.unit_layout(),
            &params,
            Some(&scores),
            0.4,
            0,
            &mut rng,
        );
        let b = learnable_pattern(mlp.unit_layout(), &scores, 0.4);
        assert_eq!(a, b);
    }

    #[test]
    fn learnable_pattern_keeps_highest_scores_per_layer() {
        let mlp = toy();
        let mut scores = vec![0.0f32; 14];
        scores[7] = 5.0; // best unit of hidden0
        scores[13] = 5.0; // best unit of hidden1
        let mask = learnable_pattern(mlp.unit_layout(), &scores, 1.0 / 8.0);
        assert!(mask.is_kept(7));
        assert!(mask.is_kept(13));
        assert_eq!(mask.retained_units(), 2);
    }

    #[test]
    fn only_ratio_deterministic_strategies_are_cacheable() {
        assert!(PatternStrategy::Ordered.cacheable_across_rounds());
        assert!(PatternStrategy::Importance.cacheable_across_rounds());
        assert!(!PatternStrategy::Random.cacheable_across_rounds());
        assert!(!PatternStrategy::RollingOrdered.cacheable_across_rounds());
        assert!(!PatternStrategy::Magnitude.cacheable_across_rounds());
    }

    #[test]
    #[should_panic]
    fn importance_without_scores_panics() {
        let mlp = toy();
        let mut rng = rng_from_seed(5);
        let params = mlp.init_params(&mut rng);
        PatternStrategy::Importance.build_mask(mlp.unit_layout(), &params, None, 0.5, 0, &mut rng);
    }

    #[test]
    fn full_ratio_keeps_everything_for_all_strategies() {
        let mlp = toy();
        let mut rng = rng_from_seed(6);
        let params = mlp.init_params(&mut rng);
        let scores = vec![1.0f32; mlp.unit_layout().total_units()];
        for strategy in [
            PatternStrategy::Random,
            PatternStrategy::Ordered,
            PatternStrategy::RollingOrdered,
            PatternStrategy::Magnitude,
            PatternStrategy::Importance,
        ] {
            let mask =
                strategy.build_mask(mlp.unit_layout(), &params, Some(&scores), 1.0, 9, &mut rng);
            assert_eq!(mask.retained_units(), mlp.unit_layout().total_units());
        }
    }
}
