//! Slice-level vector operations shared by the neural-network layers and the
//! federated-learning aggregation rules.
//!
//! Aggregation in every FL algorithm in this workspace is expressed as a few
//! calls into this module (`axpy`, `scale`, `weighted_mean_into`), which keeps
//! the algorithm crates free of hand-rolled loops and makes the arithmetic
//! easy to property-test.

/// `y += alpha * x` element-wise.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// `y *= alpha` element-wise.
pub fn scale(y: &mut [f32], alpha: f32) {
    for v in y {
        *v *= alpha;
    }
}

/// Dot product of two slices.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean norm.
pub fn norm_sq(a: &[f32]) -> f32 {
    a.iter().map(|x| x * x).sum()
}

/// Euclidean norm.
pub fn norm(a: &[f32]) -> f32 {
    norm_sq(a).sqrt()
}

/// Squared Euclidean distance between two slices.
pub fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dist_sq length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// `out = Σ_i weights[i] * inputs[i]` with the weights normalised to sum to 1.
///
/// This is exactly the FedAvg-style data-size-weighted mean of Eq. (13) in the
/// paper; callers pass the raw `|D_k|` weights and the normalisation happens
/// here.
///
/// # Panics
/// Panics if `inputs` is empty, lengths differ, or all weights are zero.
pub fn weighted_mean_into(out: &mut [f32], inputs: &[&[f32]], weights: &[f64]) {
    assert!(!inputs.is_empty(), "weighted mean of zero inputs");
    assert_eq!(
        inputs.len(),
        weights.len(),
        "weights/inputs length mismatch"
    );
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weighted mean requires positive total weight");
    out.fill(0.0);
    for (input, &w) in inputs.iter().zip(weights.iter()) {
        assert_eq!(input.len(), out.len(), "input length mismatch");
        let coeff = (w / total) as f32;
        for (o, &x) in out.iter_mut().zip(input.iter()) {
            *o += coeff * x;
        }
    }
}

/// Clips a gradient vector to a maximum Euclidean norm, in place.
///
/// The paper's Reddit/LSTM configuration uses gradient clipping (following
/// LEAF); returns the scaling factor applied (1.0 when no clipping happened).
pub fn clip_norm(grad: &mut [f32], max_norm: f32) -> f32 {
    match clip_factor(norm_sq(grad), max_norm) {
        Some(factor) => {
            scale(grad, factor);
            factor
        }
        None => 1.0,
    }
}

/// The factor [`clip_norm`] scales a gradient of squared norm `norm_sq` by,
/// or `None` when the norm is within `max_norm` (or zero) and the gradient
/// stays as it is. Shared with callers that accumulate the squared norm
/// themselves.
pub fn clip_factor(norm_sq: f32, max_norm: f32) -> Option<f32> {
    let n = norm_sq.sqrt();
    if n <= max_norm || n == 0.0 {
        None
    } else {
        Some(max_norm / n)
    }
}

/// Numerically stable softmax of `logits` written into `out`.
pub fn softmax_into(out: &mut [f32], logits: &[f32]) {
    assert_eq!(out.len(), logits.len());
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for (o, &l) in out.iter_mut().zip(logits.iter()) {
        let e = (l - max).exp();
        *o = e;
        sum += e;
    }
    if sum > 0.0 {
        for o in out.iter_mut() {
            *o /= sum;
        }
    }
}

/// Index of the maximum element (first occurrence on ties).
pub fn argmax(values: &[f32]) -> usize {
    let mut best = 0;
    let mut best_val = f32::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        if v > best_val {
            best_val = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn axpy_and_scale() {
        let mut y = vec![1.0, 2.0];
        axpy(&mut y, 2.0, &[3.0, 4.0]);
        assert_eq!(y, vec![7.0, 10.0]);
        scale(&mut y, 0.5);
        assert_eq!(y, vec![3.5, 5.0]);
    }

    #[test]
    fn dot_and_norms() {
        assert!(approx_eq(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0, 1e-6));
        assert!(approx_eq(norm(&[3.0, 4.0]), 5.0, 1e-6));
        assert!(approx_eq(dist_sq(&[1.0, 1.0], &[4.0, 5.0]), 25.0, 1e-6));
    }

    #[test]
    fn weighted_mean_matches_manual() {
        let a = vec![1.0, 0.0];
        let b = vec![0.0, 1.0];
        let mut out = vec![0.0, 0.0];
        weighted_mean_into(&mut out, &[&a, &b], &[3.0, 1.0]);
        assert!(approx_eq(out[0], 0.75, 1e-6));
        assert!(approx_eq(out[1], 0.25, 1e-6));
    }

    #[test]
    fn weighted_mean_of_identical_inputs_is_identity() {
        let a = vec![0.5, -1.5, 2.0];
        let mut out = vec![0.0; 3];
        weighted_mean_into(&mut out, &[&a, &a, &a], &[1.0, 5.0, 0.1]);
        for (o, x) in out.iter().zip(a.iter()) {
            assert!(approx_eq(*o, *x, 1e-6));
        }
    }

    #[test]
    #[should_panic]
    fn weighted_mean_zero_total_panics() {
        let a = vec![1.0];
        let mut out = vec![0.0];
        weighted_mean_into(&mut out, &[&a], &[0.0]);
    }

    #[test]
    fn clip_norm_only_when_needed() {
        let mut g = vec![3.0, 4.0];
        assert_eq!(clip_norm(&mut g, 10.0), 1.0);
        assert_eq!(g, vec![3.0, 4.0]);
        let f = clip_norm(&mut g, 1.0);
        assert!(approx_eq(f, 0.2, 1e-6));
        assert!(approx_eq(norm(&g), 1.0, 1e-6));
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let logits = vec![1000.0, 1001.0, 999.0];
        let mut out = vec![0.0; 3];
        softmax_into(&mut out, &logits);
        assert!(approx_eq(out.iter().sum::<f32>(), 1.0, 1e-5));
        assert!(out.iter().all(|p| p.is_finite() && *p >= 0.0));
        assert_eq!(argmax(&out), 1);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
    }
}
