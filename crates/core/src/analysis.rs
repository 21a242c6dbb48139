//! Probes for the quantities appearing in the paper's convergence analysis
//! (Section IV-C).
//!
//! These are not needed to *run* FedLPS; they let tests and the ablation
//! harness empirically track the terms the theory bounds — the average squared
//! gap between local and global parameters (Lemma 1) and the average squared
//! norm of masked local gradients (Assumption 3 / Theorem 1's left-hand side).

use fedlps_tensor::ops::dist_sq;

/// Lemma 1's left-hand side: `(1/K) Σ_k ‖ω_k − ω‖²` for the clients that
/// participated in a round.
pub fn mean_parameter_gap(global: &[f32], locals: &[Vec<f32>]) -> f64 {
    if locals.is_empty() {
        return 0.0;
    }
    locals
        .iter()
        .map(|l| dist_sq(l, global) as f64)
        .sum::<f64>()
        / locals.len() as f64
}

/// The squared norm of an averaged masked gradient —
/// `‖(1/K) Σ_k m_k ⊙ ∇F_k‖²`, the quantity Theorem 1 drives to zero.
pub fn averaged_gradient_norm_sq(masked_grads: &[Vec<f32>]) -> f64 {
    if masked_grads.is_empty() {
        return 0.0;
    }
    let dim = masked_grads[0].len();
    let mut mean = vec![0.0f64; dim];
    for g in masked_grads {
        assert_eq!(g.len(), dim);
        for (m, &v) in mean.iter_mut().zip(g.iter()) {
            *m += v as f64 / masked_grads.len() as f64;
        }
    }
    mean.iter().map(|v| v * v).sum()
}

/// The learning-rate ceiling of Lemma 1 / Theorem 1:
/// `η ≤ sqrt(1 / (24 · E · R · V · L²))`.
pub fn learning_rate_bound(local_iterations: usize, rounds: usize, v: f64, lipschitz: f64) -> f64 {
    let denom = 24.0
        * local_iterations.max(1) as f64
        * rounds.max(1) as f64
        * v.max(1e-12)
        * lipschitz.max(1e-12).powi(2);
    (1.0 / denom).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_gap_basics() {
        let global = vec![0.0, 0.0];
        let locals = vec![vec![1.0, 0.0], vec![0.0, 2.0]];
        assert!((mean_parameter_gap(&global, &locals) - 2.5).abs() < 1e-9);
        assert_eq!(mean_parameter_gap(&global, &[]), 0.0);
    }

    #[test]
    fn gradient_norm_of_cancelling_gradients_is_zero() {
        let grads = vec![vec![1.0, -1.0], vec![-1.0, 1.0]];
        assert!(averaged_gradient_norm_sq(&grads) < 1e-12);
        let aligned = vec![vec![1.0, 0.0], vec![1.0, 0.0]];
        assert!((averaged_gradient_norm_sq(&aligned) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn learning_rate_bound_shrinks_with_horizon() {
        let short = learning_rate_bound(5, 10, 1.0, 1.0);
        let long = learning_rate_bound(5, 1000, 1.0, 1.0);
        assert!(long < short);
        assert!(short > 0.0 && short.is_finite());
    }
}
