//! Unit-level masks and their parameter-level expansions.

use fedlps_nn::unit::UnitLayout;
use serde::{Deserialize, Serialize};

/// A keep/drop decision for every sparsifiable unit of a model, in the
/// layer-major order defined by the model's [`UnitLayout`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnitMask {
    keep: Vec<bool>,
}

impl UnitMask {
    /// Creates a mask from explicit keep flags.
    pub fn from_keep(keep: Vec<bool>) -> Self {
        Self { keep }
    }

    /// A mask keeping every unit (the dense model).
    pub fn dense(total_units: usize) -> Self {
        Self {
            keep: vec![true; total_units],
        }
    }

    /// Number of units covered by the mask.
    pub fn len(&self) -> usize {
        self.keep.len()
    }

    /// Whether the mask covers zero units.
    pub fn is_empty(&self) -> bool {
        self.keep.is_empty()
    }

    /// Keep flags in layer-major unit order.
    pub fn keep_flags(&self) -> &[bool] {
        &self.keep
    }

    /// Whether unit `j` is retained.
    pub fn is_kept(&self, j: usize) -> bool {
        self.keep[j]
    }

    /// Number of retained units.
    pub fn retained_units(&self) -> usize {
        self.keep.iter().filter(|&&k| k).count()
    }

    /// Expands to a multiplicative parameter mask (1.0 kept / 0.0 dropped).
    pub fn param_mask(&self, layout: &UnitLayout) -> Vec<f32> {
        layout.expand_mask(&self.keep)
    }

    /// Number of parameters retained under this mask (non-unit parameters are
    /// always retained).
    pub fn retained_params(&self, layout: &UnitLayout) -> usize {
        layout.retained_params(&self.keep)
    }

    /// Retained units per sparsifiable layer (feeds the FLOP model).
    pub fn retained_per_layer(&self, layout: &UnitLayout) -> Vec<usize> {
        layout.retained_per_layer(&self.keep)
    }

    /// Returns `params ⊙ m` as a new vector.
    pub fn apply(&self, layout: &UnitLayout, params: &[f32]) -> Vec<f32> {
        let mask = self.param_mask(layout);
        params.iter().zip(mask.iter()).map(|(p, m)| p * m).collect()
    }

    /// Element-wise logical AND of two masks (units kept by both).
    pub fn intersect(&self, other: &UnitMask) -> UnitMask {
        assert_eq!(self.len(), other.len());
        UnitMask {
            keep: self
                .keep
                .iter()
                .zip(other.keep.iter())
                .map(|(a, b)| *a && *b)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlps_nn::mlp::{Mlp, MlpConfig};
    use fedlps_nn::model::ModelArch;
    use fedlps_tensor::rng_from_seed;

    fn toy_mlp() -> Mlp {
        Mlp::new(MlpConfig {
            input_dim: 4,
            hidden: vec![6, 4],
            num_classes: 3,
        })
    }

    #[test]
    fn dense_mask_retains_everything() {
        let mlp = toy_mlp();
        let mask = UnitMask::dense(mlp.unit_layout().total_units());
        assert_eq!(mask.retained_units(), 10);
        assert_eq!(mask.retained_params(mlp.unit_layout()), mlp.param_count());
    }

    #[test]
    fn apply_zeroes_dropped_units_only() {
        let mlp = toy_mlp();
        let mut rng = rng_from_seed(1);
        let params = mlp.init_params(&mut rng);
        let mut keep = vec![true; 10];
        keep[0] = false;
        let mask = UnitMask::from_keep(keep);
        let masked = mask.apply(mlp.unit_layout(), &params);
        // Unit 0 of hidden0 owns W0 row 0 (4 params) and b0[0].
        assert!(masked[..4].iter().all(|&v| v == 0.0));
        assert_ne!(&masked[4..8], &[0.0; 4]);
        let zeroed = params.len()
            - masked
                .iter()
                .zip(params.iter())
                .filter(|(m, p)| *m == *p)
                .count();
        // Exactly the 5 owned parameters changed (assuming none were already 0).
        assert_eq!(
            zeroed, 4,
            "bias started at zero so only 4 weight values change"
        );
    }

    #[test]
    fn intersect_keeps_the_units_kept_by_both() {
        let a = UnitMask::from_keep(vec![true, true, false, false]);
        let b = UnitMask::from_keep(vec![true, false, true, false]);
        assert_eq!(
            a.intersect(&b),
            UnitMask::from_keep(vec![true, false, false, false])
        );
        assert_eq!(a.intersect(&a), a);
    }

    #[test]
    fn ratios_decrease_with_dropped_units() {
        let mlp = toy_mlp();
        let half = UnitMask::from_keep((0..10).map(|i| i < 5).collect());
        assert!(half.retained_params(mlp.unit_layout()) < mlp.param_count());
        assert_eq!(half.retained_units(), 5);
        assert_eq!(half.retained_per_layer(mlp.unit_layout()), vec![5, 0]);
    }
}
