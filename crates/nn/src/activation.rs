//! Scalar activation functions and their derivatives.

/// Rectified linear unit.
#[inline]
pub fn relu(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// Derivative of ReLU with respect to its input, expressed in terms of the
/// *pre-activation* value.
#[inline]
pub fn relu_grad(pre: f32) -> f32 {
    if pre > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Hyperbolic tangent.
#[inline]
pub fn tanh(x: f32) -> f32 {
    x.tanh()
}

/// Applies softmax followed by cross-entropy against an integer label.
///
/// Returns `(loss, probs)`; the gradient with respect to the logits is
/// `probs - one_hot(label)`, which callers compute in place.
pub fn softmax_cross_entropy(logits: &[f32], label: usize) -> (f32, Vec<f32>) {
    let mut probs = vec![0.0; logits.len()];
    fedlps_tensor::ops::softmax_into(&mut probs, logits);
    (cross_entropy(&probs, label), probs)
}

/// Cross-entropy of softmax probabilities against an integer label; the
/// probability is clamped at `1e-12`, so a vanished class costs a finite loss.
pub(crate) fn cross_entropy(probs: &[f32], label: usize) -> f32 {
    let p = probs[label].max(1e-12);
    -p.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlps_tensor::approx_eq;

    #[test]
    fn relu_and_grad() {
        assert_eq!(relu(3.0), 3.0);
        assert_eq!(relu(-1.0), 0.0);
        assert_eq!(relu_grad(3.0), 1.0);
        assert_eq!(relu_grad(-3.0), 0.0);
    }

    #[test]
    fn sigmoid_symmetry_and_grad() {
        assert!(approx_eq(sigmoid(0.0), 0.5, 1e-6));
        assert!(approx_eq(sigmoid(2.0) + sigmoid(-2.0), 1.0, 1e-6));
        let y = sigmoid(0.7);
        // Finite-difference check of the output-form derivative `y(1 − y)`
        // the LSTM backward pass inlines.
        let eps = 1e-3;
        let num = (sigmoid(0.7 + eps) - sigmoid(0.7 - eps)) / (2.0 * eps);
        assert!(approx_eq(y * (1.0 - y), num, 1e-3));
    }

    #[test]
    fn tanh_grad_matches_finite_difference() {
        let x = -0.4f32;
        let y = tanh(x);
        let eps = 1e-3;
        let num = (tanh(x + eps) - tanh(x - eps)) / (2.0 * eps);
        // The output-form derivative `1 − y²` the LSTM backward pass inlines.
        assert!(approx_eq(1.0 - y * y, num, 1e-3));
    }

    #[test]
    fn cross_entropy_of_confident_correct_prediction_is_small() {
        let (loss, probs) = softmax_cross_entropy(&[10.0, -10.0, -10.0], 0);
        assert!(loss < 1e-3);
        assert!(approx_eq(probs.iter().sum::<f32>(), 1.0, 1e-5));
        let (loss_wrong, _) = softmax_cross_entropy(&[10.0, -10.0, -10.0], 1);
        assert!(loss_wrong > 5.0);
    }
}
