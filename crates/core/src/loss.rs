//! The importance-associated regularisation loss (Eq. 6-9).
//!
//! `L_k = L_tr + μ·L_pr + λ·L_ir` where
//!
//! * `L_tr` — task loss of the *masked* model on the minibatch (Eq. 6);
//! * `L_pr = ‖ω − ω^r‖²` — proximal term keeping local updates close to the
//!   global model (Eq. 7);
//! * `L_ir = ‖Q − σ(|ω|_J)‖²` — importance regulariser preventing the
//!   indicator from drifting or over-sharpening (Eq. 8).
//!
//! Two paths evaluate it. [`ImportanceLoss::evaluate`] is the masked-dense
//! oracle: the full model's forward/backward, then full-length proximal and
//! magnitude passes. The packed client step (`ClientTask::run_with` on a
//! packed submodel) runs the task pass on the compact model, keeps the proximal
//! gradient on the packed coordinates and walks only the kept units per
//! iteration; only its ordered proximal-loss sum still visits the dropped
//! units' coordinates. Both paths end in the same importance sum and total
//! assembly, so their breakdowns agree bit for bit.

use fedlps_data::dataset::Dataset;
use fedlps_nn::model::{ModelArch, TrainStats};

use crate::importance::ImportanceIndicator;

/// Decomposition of one evaluation of the FedLPS objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossBreakdown {
    /// Task (cross-entropy) loss of the masked model.
    pub task: f64,
    /// Proximal term `‖ω − ω^r‖²` (unweighted).
    pub proximal: f64,
    /// Importance regulariser `‖Q − σ(|ω|_J)‖²` (unweighted).
    pub importance: f64,
    /// `task + μ·proximal + λ·importance`.
    pub total: f64,
    /// Minibatch training accuracy of the masked model.
    pub accuracy: f64,
}

/// The FedLPS objective with its two regularisation weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImportanceLoss {
    /// Weight `μ` of the proximal term.
    pub mu: f32,
    /// Weight `λ` of the importance regulariser.
    pub lambda: f32,
}

impl ImportanceLoss {
    /// Creates the objective.
    pub fn new(mu: f32, lambda: f32) -> Self {
        Self { mu, lambda }
    }

    /// Evaluates the objective on a minibatch and *accumulates* the gradient
    /// with respect to the (masked) model parameters into `grad` — the task
    /// gradient from the model's backward pass plus the proximal gradient
    /// `μ·(ω − ω^r)`. The gradient with respect to `Q` is obtained separately
    /// via [`ImportanceIndicator::gradient`] using the same `grad` buffer.
    #[expect(
        clippy::too_many_arguments,
        reason = "the Eq. (6) objective reads the model, both parameter vectors, the indicator and the minibatch, each a distinct input"
    )]
    pub fn evaluate(
        &self,
        arch: &dyn ModelArch,
        masked_params: &[f32],
        global_params: &[f32],
        indicator: &ImportanceIndicator,
        data: &Dataset,
        indices: &[usize],
        grad: &mut [f32],
    ) -> LossBreakdown {
        let stats = arch.loss_and_grad(masked_params, data, indices, grad);

        // Proximal term and its gradient (evaluated at the masked/effective
        // parameters, which coincide with the dense ones on retained entries).
        let mut proximal = 0.0f64;
        for ((g, &p), &gp) in grad
            .iter_mut()
            .zip(masked_params.iter())
            .zip(global_params.iter())
        {
            let diff = p - gp;
            proximal += (diff * diff) as f64;
            *g += self.mu * diff;
        }

        let magnitudes = arch.unit_layout().magnitude_sums(masked_params);
        let importance = importance_term(indicator, magnitudes);
        self.breakdown(stats, proximal, importance)
    }

    /// Assembles the breakdown from the task statistics and the two
    /// unweighted regularisers; both evaluation paths end here.
    pub(crate) fn breakdown(
        &self,
        stats: TrainStats,
        proximal: f64,
        importance: f64,
    ) -> LossBreakdown {
        let total = stats.loss + self.mu as f64 * proximal + self.lambda as f64 * importance;
        LossBreakdown {
            task: stats.loss,
            proximal,
            importance,
            total,
            accuracy: stats.accuracy,
        }
    }
}

/// The importance-regulariser value `‖Q − σ(|ω|_J)‖²` (Eq. 8) from the
/// per-unit magnitudes of the masked parameters; its `Q`-gradient lives in
/// [`ImportanceIndicator`]. One ascending `f64` sum over the `J` units,
/// shared by both evaluation paths.
pub(crate) fn importance_term(
    indicator: &ImportanceIndicator,
    magnitudes: impl IntoIterator<Item = f32>,
) -> f64 {
    indicator
        .scores()
        .iter()
        .zip(magnitudes)
        .map(|(&q, m)| {
            let d = q - 1.0 / (1.0 + (-m).exp());
            (d * d) as f64
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlps_data::dataset::InputKind;
    use fedlps_nn::mlp::{Mlp, MlpConfig};
    use fedlps_tensor::{rng_from_seed, Matrix};

    fn setup() -> (Mlp, Dataset, Vec<f32>) {
        let mlp = Mlp::new(MlpConfig {
            input_dim: 5,
            hidden: vec![6],
            num_classes: 3,
        });
        let mut rng = rng_from_seed(11);
        let features = Matrix::random_normal(20, 5, 1.0, &mut rng);
        let labels: Vec<usize> = (0..20).map(|i| i % 3).collect();
        let data = Dataset::new(features, labels, 3, InputKind::Vector { dim: 5 });
        let params = mlp.init_params(&mut rng);
        (mlp, data, params)
    }

    #[test]
    fn breakdown_components_are_consistent() {
        let (mlp, data, params) = setup();
        let indicator = ImportanceIndicator::from_params(mlp.unit_layout(), &params);
        let loss = ImportanceLoss::new(0.5, 2.0);
        let mut grad = vec![0.0f32; params.len()];
        let indices: Vec<usize> = (0..10).collect();
        let breakdown = loss.evaluate(
            &mlp, &params, &params, &indicator, &data, &indices, &mut grad,
        );
        // At ω == ω^r the proximal term vanishes, and at Q == σ(|ω|_J) the
        // importance term vanishes, so total == task.
        assert!(breakdown.proximal.abs() < 1e-9);
        assert!(breakdown.importance < 1e-9);
        assert!((breakdown.total - breakdown.task).abs() < 1e-9);
        assert!(breakdown.accuracy >= 0.0 && breakdown.accuracy <= 1.0);
    }

    #[test]
    fn proximal_gradient_points_back_to_global() {
        let (mlp, data, params) = setup();
        let indicator = ImportanceIndicator::from_params(mlp.unit_layout(), &params);
        let mut drifted = params.clone();
        for p in &mut drifted {
            *p += 1.0;
        }
        let indices: Vec<usize> = (0..10).collect();
        // Large μ so the proximal term dominates the task gradient.
        let loss = ImportanceLoss::new(50.0, 0.0);
        let mut grad = vec![0.0f32; params.len()];
        let breakdown = loss.evaluate(
            &mlp, &drifted, &params, &indicator, &data, &indices, &mut grad,
        );
        assert!(breakdown.proximal > 0.0);
        // Moving against the gradient must shrink the distance to the global model.
        let mut stepped = drifted.clone();
        fedlps_tensor::ops::axpy(&mut stepped, -1e-3, &grad);
        assert!(
            fedlps_tensor::ops::dist_sq(&stepped, &params)
                < fedlps_tensor::ops::dist_sq(&drifted, &params)
        );
    }

    #[test]
    fn lambda_scales_total_loss() {
        let (mlp, data, params) = setup();
        // An indicator far from σ(|ω|_J) gives a positive importance term.
        let indicator = ImportanceIndicator::from_scores(vec![-1.0; 6]);
        let indices: Vec<usize> = (0..10).collect();
        let mut g1 = vec![0.0f32; params.len()];
        let mut g2 = vec![0.0f32; params.len()];
        let small = ImportanceLoss::new(0.0, 0.1)
            .evaluate(&mlp, &params, &params, &indicator, &data, &indices, &mut g1);
        let large = ImportanceLoss::new(0.0, 10.0)
            .evaluate(&mlp, &params, &params, &indicator, &data, &indices, &mut g2);
        assert!(large.total > small.total);
        assert!(
            (large.importance - small.importance).abs() < 1e-9,
            "unweighted component is identical"
        );
    }
}
