//! Plain stochastic gradient descent with optional gradient clipping and
//! parameter-mask support. There is no weight decay: no experiment of the
//! paper uses it, and without it a coordinate whose gradient is zero does
//! not move, which is what lets a sparse round run on its physically packed
//! submodel.
//!
//! The paper trains every model with SGD (learning rate 0.1 for the vision
//! tasks, 8 with gradient clipping for the LSTM); local sparse training only
//! updates the parameters retained by the client's mask, which is expressed
//! here by passing the expanded parameter mask to [`SgdConfig::step_masked`].

use serde::{Deserialize, Serialize};

/// SGD hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Learning rate `η`.
    pub lr: f32,
    /// Optional gradient-norm clipping threshold.
    pub clip_norm: Option<f32>,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self {
            lr: 0.1,
            clip_norm: None,
        }
    }
}

impl SgdConfig {
    /// SGD configuration matching the paper's image-classification setup.
    pub fn vision() -> Self {
        Self {
            lr: 0.1,
            clip_norm: None,
        }
    }

    /// SGD configuration matching the paper's next-word-prediction setup
    /// (large learning rate plus gradient clipping, following LEAF).
    pub fn text() -> Self {
        Self {
            lr: 1.0,
            clip_norm: Some(5.0),
        }
    }

    /// Applies one dense SGD step: `params -= lr * grad`.
    pub fn step(&self, params: &mut [f32], grad: &mut [f32]) {
        assert_eq!(params.len(), grad.len());
        if let Some(max_norm) = self.clip_norm {
            fedlps_tensor::ops::clip_norm(grad, max_norm);
        }
        for (p, &g) in params.iter_mut().zip(grad.iter()) {
            self.update(p, g);
        }
    }

    /// One coordinate's step, `p -= lr * g`: the update every step variant
    /// applies (the packed FedLPS step calls it per packed coordinate).
    #[inline]
    pub fn update(&self, p: &mut f32, g: f32) {
        *p -= self.lr * g;
    }

    /// Applies a masked SGD step: only parameters with `mask[i] != 0` move,
    /// and they are kept exactly at zero if they start at zero under the mask
    /// (the sparse-training semantics of Eq. 10 in the paper).
    pub fn step_masked(&self, params: &mut [f32], grad: &mut [f32], mask: &[f32]) {
        assert_eq!(params.len(), grad.len());
        assert_eq!(params.len(), mask.len());
        if let Some(max_norm) = self.clip_norm {
            fedlps_tensor::ops::clip_norm(grad, max_norm);
        }
        for ((p, &g), m) in params.iter_mut().zip(grad.iter()).zip(mask.iter()) {
            if *m != 0.0 {
                self.update(p, g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_moves_against_gradient() {
        let cfg = SgdConfig {
            lr: 0.5,
            clip_norm: None,
        };
        let mut p = vec![1.0, -1.0];
        let mut g = vec![2.0, -2.0];
        cfg.step(&mut p, &mut g);
        assert_eq!(p, vec![0.0, 0.0]);
    }

    #[test]
    fn clipping_limits_step_size() {
        let cfg = SgdConfig {
            lr: 1.0,
            clip_norm: Some(1.0),
        };
        let mut p = vec![0.0, 0.0];
        let mut g = vec![30.0, 40.0];
        cfg.step(&mut p, &mut g);
        let moved = (p[0] * p[0] + p[1] * p[1]).sqrt();
        assert!((moved - 1.0).abs() < 1e-5);
    }

    #[test]
    fn masked_step_freezes_masked_params() {
        let cfg = SgdConfig {
            lr: 0.1,
            clip_norm: None,
        };
        let mut p = vec![1.0, 1.0];
        let mut g = vec![1.0, 1.0];
        cfg.step_masked(&mut p, &mut g, &[1.0, 0.0]);
        assert!((p[0] - 0.9).abs() < 1e-6);
        assert_eq!(p[1], 1.0);
    }

    #[test]
    fn presets_differ() {
        assert!(SgdConfig::text().clip_norm.is_some());
        assert!(SgdConfig::vision().clip_norm.is_none());
        assert!(SgdConfig::text().lr > SgdConfig::vision().lr);
    }
}
