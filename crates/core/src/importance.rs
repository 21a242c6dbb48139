//! The per-client importance indicator `Q` (Eq. 3) and its gradient.
//!
//! `Q ∈ R^J` assigns every sparsifiable unit a score measuring how much that
//! unit contributes to representing the client's local data. The paper makes
//! `Q` *learnable* by inserting it into the loss (Eq. 6-9) and updating it by
//! back-propagation alongside the model (Eq. 11).
//!
//! The task term of the loss touches `Q` only through the step function of
//! Eq. (4), which has zero gradient almost everywhere; like the paper's
//! reference implementation, we therefore use a straight-through-style
//! estimator: the sensitivity of the loss to keeping unit `j` is approximated
//! by `Σ_{w ∈ unit j} (∂L/∂w) · w` — the first-order change in the loss if the
//! unit's parameters were removed. The regularisation term `λ‖Q − σ(|ω|_J)‖²`
//! (Eq. 8) is differentiated exactly. PAPER.md ("Substitutions") documents this
//! substitution.

use fedlps_nn::activation::sigmoid;
use fedlps_nn::unit::{UnitLayout, UnitParams};
use serde::{Deserialize, Serialize};

/// The three per-unit sums one indicator update reads, from one walk over
/// the unit's ranges.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UnitSums {
    /// `|ω|_j` of the masked parameters: the argument of the Eq. (8) loss
    /// value.
    pub masked_magnitude: f32,
    /// `|ω|_j` of the local parameters: the argument of the Eq. (8)
    /// gradient.
    pub magnitude: f32,
    /// The raw straight-through sum `Σ g_w · w`, not yet normalised.
    pub straight_through: f32,
}

impl UnitSums {
    /// Walks `unit` once. Both magnitudes follow
    /// [`UnitParams::range_sums`], the order of
    /// [`UnitParams::magnitude_sum`] (which the masked-dense loss value
    /// uses), and the straight-through sum is one running sum from `+0.0`
    /// over the same coordinates in the same order. Both branches of the
    /// client step compute the indicator gradient's sums here, so they agree
    /// bit for bit whenever their inputs do.
    #[inline]
    pub(crate) fn walk(unit: &UnitParams, masked: &[f32], params: &[f32], grad: &[f32]) -> Self {
        Self::walk_terms(unit, |i| [masked[i], params[i], grad[i]])
    }

    /// [`walk`](Self::walk) over coordinate values that `terms(i)` yields as
    /// `[masked, param, grad]` instead of reading them from buffers.
    #[inline]
    fn walk_terms(unit: &UnitParams, mut terms: impl FnMut(usize) -> [f32; 3]) -> Self {
        let mut straight_through = 0.0f32;
        let [masked_magnitude, magnitude] = unit.range_sums(|i| {
            let [masked, param, grad] = terms(i);
            straight_through += grad * param;
            [masked.abs(), param.abs()]
        });
        Self {
            masked_magnitude,
            magnitude,
            straight_through,
        }
    }
}

/// Every unit's [`UnitSums`] while the local model still equals the round's
/// global `ω`, in layout order: the sums the packed client step's walk
/// yields for a dropped unit over the whole round, which depend only on `ω`,
/// the architecture and the proximal weight `μ`.
///
/// On a dropped unit's coordinates the packed step's masked copy is
/// `ω · 0.0` and its gradient the round constant `0.0 + μ·(ω·0.0 − ω)`, and
/// neither moves during the round (the `packed_step` module doc has the
/// invariant). So a unit's entry is
///
/// * `masked_magnitude = Σ|ω · 0.0|`, which is `+0.0` for a finite `ω`;
/// * `magnitude = Σ|ω|`, in [`UnitParams::range_sums`] order — the
///   `|ω|_J` whose sigmoid is a first participation's indicator
///   ([`ImportanceIndicator::from_params`]);
/// * `straight_through = Σ (0.0 + μ·(ω·0.0 − ω))·ω`, in the same walk order,
///
/// each computed by [`UnitSums::walk`]'s own summation, so an entry is bit
/// for bit what that walk returns over the packed step's buffers. FedLPS
/// builds the table once per round, in `begin_round`, and every client task
/// of the round reads it.
#[derive(Debug, Clone)]
pub(crate) struct GlobalUnitSums {
    mu: f32,
    sums: Vec<UnitSums>,
}

impl GlobalUnitSums {
    /// Walks every unit of `layout` once over `global`.
    pub(crate) fn new(layout: &UnitLayout, global: &[f32], mu: f32) -> Self {
        assert_eq!(
            global.len(),
            layout.total_params(),
            "parameter length mismatch"
        );
        let sums = layout
            .layers()
            .iter()
            .flat_map(|layer| &layer.units)
            .map(|unit| {
                UnitSums::walk_terms(unit, |i| {
                    let w = global[i];
                    let masked = w * 0.0;
                    [masked, w, 0.0 + mu * (masked - w)]
                })
            })
            .collect();
        Self { mu, sums }
    }

    /// The proximal weight `μ` the straight-through sums were built with.
    pub(crate) fn mu(&self) -> f32 {
        self.mu
    }

    /// The per-unit sums in layout order.
    pub(crate) fn sums(&self) -> &[UnitSums] {
        &self.sums
    }
}

/// A client's importance indicator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImportanceIndicator {
    scores: Vec<f32>,
}

impl ImportanceIndicator {
    /// Initialises the indicator from the model parameters as
    /// `Q = σ(|ω|_J)` — the fixed point of the Eq. (8) regulariser, so training
    /// starts unbiased.
    pub fn from_params(layout: &UnitLayout, params: &[f32]) -> Self {
        let scores = layout
            .magnitude_sums(params)
            .into_iter()
            .map(sigmoid)
            .collect();
        Self { scores }
    }

    /// [`from_params`](Self::from_params) of the global the table was built
    /// from, read off its magnitudes instead of walking the model again.
    pub(crate) fn from_global_sums(table: &GlobalUnitSums) -> Self {
        let scores = table.sums.iter().map(|s| sigmoid(s.magnitude)).collect();
        Self { scores }
    }

    /// Restores an indicator from previously stored scores.
    pub fn from_scores(scores: Vec<f32>) -> Self {
        Self { scores }
    }

    /// The per-unit scores in layout order.
    pub fn scores(&self) -> &[f32] {
        &self.scores
    }

    /// Consumes the indicator, returning its scores.
    pub(crate) fn into_scores(self) -> Vec<f32> {
        self.scores
    }

    /// Number of units covered.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Whether the indicator covers zero units.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Computes `∂L/∂Q` for the current iteration.
    ///
    /// * `param_grad` — gradient of the task (+prox) loss w.r.t. the masked
    ///   parameters, as produced by the model's backward pass;
    /// * `params` — the current (dense) local parameters;
    /// * `lambda` — weight of the Eq. (8) regulariser.
    pub fn gradient(
        &self,
        layout: &UnitLayout,
        params: &[f32],
        param_grad: &[f32],
        lambda: f32,
    ) -> Vec<f32> {
        assert_eq!(self.scores.len(), layout.total_units());
        let mut grad = Vec::with_capacity(self.scores.len());
        let mut j = 0;
        for layer in layout.layers() {
            for unit in &layer.units {
                let sums = UnitSums::walk(unit, params, params, param_grad);
                grad.push(self.unit_gradient(j, unit, &sums, lambda));
                j += 1;
            }
        }
        grad
    }

    /// `∂L/∂q_j` of unit `j` from its walked sums — the per-unit tail both
    /// branches of the client step share.
    #[inline]
    pub(crate) fn unit_gradient(
        &self,
        j: usize,
        unit: &UnitParams,
        sums: &UnitSums,
        lambda: f32,
    ) -> f32 {
        // Straight-through task sensitivity: Σ g_w · w over the unit,
        // normalised by the unit's size so large conv channels and small
        // neurons update their scores at comparable speed.
        let ste = sums.straight_through / unit.param_count().max(1) as f32;
        // Exact gradient of λ (q_j − σ(|ω|_j))².
        let reg = 2.0 * lambda * (self.scores[j] - sigmoid(sums.magnitude));
        ste + reg
    }

    /// Applies one SGD step `Q ← Q − η ∇_Q L` (Eq. 11), clamping the scores to
    /// a bounded range so the quantile thresholding stays well-conditioned.
    pub fn step(&mut self, grad: &[f32], lr: f32) {
        assert_eq!(grad.len(), self.scores.len());
        for (q, g) in self.scores.iter_mut().zip(grad.iter()) {
            *q -= lr * g;
            *q = q.clamp(-2.0, 2.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlps_nn::mlp::{Mlp, MlpConfig};
    use fedlps_nn::model::ModelArch;
    use fedlps_tensor::rng_from_seed;

    fn toy() -> Mlp {
        Mlp::new(MlpConfig {
            input_dim: 4,
            hidden: vec![6],
            num_classes: 3,
        })
    }

    #[test]
    fn initialisation_is_sigmoid_of_magnitudes() {
        let mlp = toy();
        let mut rng = rng_from_seed(1);
        let params = mlp.init_params(&mut rng);
        let q = ImportanceIndicator::from_params(mlp.unit_layout(), &params);
        assert_eq!(q.len(), 6);
        let mags = mlp.unit_layout().magnitude_sums(&params);
        for (s, m) in q.scores().iter().zip(mags.iter()) {
            assert!((s - sigmoid(*m)).abs() < 1e-6);
            assert!(*s >= 0.5 && *s < 1.0, "sigmoid of a non-negative magnitude");
        }
    }

    #[test]
    fn regulariser_gradient_vanishes_at_fixed_point() {
        let mlp = toy();
        let mut rng = rng_from_seed(2);
        let params = mlp.init_params(&mut rng);
        let q = ImportanceIndicator::from_params(mlp.unit_layout(), &params);
        let zero_task_grad = vec![0.0f32; params.len()];
        let grad = q.gradient(mlp.unit_layout(), &params, &zero_task_grad, 1.0);
        assert!(grad.iter().all(|g| g.abs() < 1e-5));
    }

    #[test]
    fn harmful_units_gain_importance_useful_units_lose_nothing() {
        // If removing a unit would *decrease* the loss (positive g·w), the STE
        // gradient is positive and the score drops; if the unit helps
        // (negative g·w), the score rises.
        let mlp = toy();
        let layout = mlp.unit_layout();
        let params = vec![1.0f32; mlp.param_count()];
        let mut task_grad = vec![0.0f32; mlp.param_count()];
        // Unit 0: gradient aligned with weights (harmful); unit 1: anti-aligned.
        for r in &layout.unit(0).ranges {
            for g in &mut task_grad[r.start..r.end()] {
                *g = 1.0;
            }
        }
        for r in &layout.unit(1).ranges {
            for g in &mut task_grad[r.start..r.end()] {
                *g = -1.0;
            }
        }
        let mut q = ImportanceIndicator::from_scores(vec![0.5; 6]);
        let grad = q.gradient(layout, &params, &task_grad, 0.0);
        assert!(grad[0] > 0.0);
        assert!(grad[1] < 0.0);
        assert_eq!(grad[2], 0.0);
        let before = q.scores().to_vec();
        q.step(&grad, 0.1);
        assert!(q.scores()[0] < before[0]);
        assert!(q.scores()[1] > before[1]);
    }

    #[test]
    fn scores_stay_clamped() {
        let mut q = ImportanceIndicator::from_scores(vec![0.0; 3]);
        q.step(&[-1000.0, 1000.0, 0.0], 1.0);
        assert_eq!(q.scores()[0], 2.0);
        assert_eq!(q.scores()[1], -2.0);
        assert_eq!(q.scores()[2], 0.0);
    }
}
