//! Multi-layer perceptron with ReLU hidden layers.
//!
//! This is the backbone used for the MNIST-like scenario (the paper uses a
//! small CNN there; an MLP of comparable capacity keeps the unit abstraction
//! identical — hidden *neurons* are the sparsifiable units). Each hidden
//! neuron owns its incoming weight row and bias; masking a neuron therefore
//! zeroes its pre-activation, which silences it for the rest of the network.

use std::sync::OnceLock;

use fedlps_data::dataset::Dataset;
use fedlps_tensor::scratch::{with_pool, ScratchPool};
use fedlps_tensor::{Initializer, Matrix};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::activation::{relu, relu_grad};
use crate::flops::dense_layer_flops;
use crate::model::{EvalStats, ModelArch, TrainStats};
use crate::pack::{GatherMap, KeptUnits, PackedModel};
use crate::unit::{LayerUnits, ParamRange, UnitLayout, UnitParams};

/// MLP configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Input feature dimensionality.
    pub input_dim: usize,
    /// Hidden layer widths (each hidden neuron is a sparsifiable unit).
    pub hidden: Vec<usize>,
    /// Number of output classes.
    pub num_classes: usize,
}

/// Offsets of one linear layer inside the flat parameter vector.
#[derive(Debug, Clone, Copy)]
struct LayerOffsets {
    w_start: usize,
    b_start: usize,
    in_dim: usize,
    out_dim: usize,
}

impl LayerOffsets {
    /// Appends this layer's section of a packed gather map: every kept row
    /// restricted to the previous layer's kept columns (`None`: the input,
    /// all columns), then the kept rows' biases.
    fn push_packed(
        &self,
        map: &mut GatherMap,
        rows: impl Iterator<Item = usize> + Clone,
        cols: Option<&[usize]>,
    ) {
        for r in rows.clone() {
            assert!(r < self.out_dim, "kept unit {r} out of range");
            let row_start = self.w_start + r * self.in_dim;
            match cols {
                None => map.push_range(row_start, self.in_dim),
                Some(cols) => {
                    for &c in cols {
                        map.push(row_start + c);
                    }
                }
            }
        }
        for r in rows {
            map.push(self.b_start + r);
        }
    }
}

/// A multi-layer perceptron.
#[derive(Debug, Clone)]
pub struct Mlp {
    config: MlpConfig,
    layers: Vec<LayerOffsets>,
    /// Built on the first [`ModelArch::unit_layout`] call.
    layout: OnceLock<UnitLayout>,
    param_count: usize,
}

impl Mlp {
    /// Builds the architecture; its unit layout is built on first use.
    pub fn new(config: MlpConfig) -> Self {
        assert!(config.input_dim > 0 && config.num_classes > 0);
        let mut widths = vec![config.input_dim];
        widths.extend(&config.hidden);
        widths.push(config.num_classes);

        let mut layers = Vec::new();
        let mut offset = 0;
        for w in widths.windows(2) {
            let (in_dim, out_dim) = (w[0], w[1]);
            layers.push(LayerOffsets {
                w_start: offset,
                b_start: offset + in_dim * out_dim,
                in_dim,
                out_dim,
            });
            offset += in_dim * out_dim + out_dim;
        }
        Self {
            config,
            layers,
            layout: OnceLock::new(),
            param_count: offset,
        }
    }

    /// The unit layout.
    fn build_layout(&self) -> UnitLayout {
        // Hidden neurons are the sparsifiable units; the output layer is never
        // sparsified (as in the paper, the classifier stays dense).
        let layers = &self.layers;
        let mut unit_layers = Vec::new();
        for (li, layer) in layers.iter().enumerate().take(layers.len() - 1) {
            let units = (0..layer.out_dim)
                .map(|j| UnitParams {
                    ranges: vec![
                        ParamRange::new(layer.w_start + j * layer.in_dim, layer.in_dim),
                        ParamRange::new(layer.b_start + j, 1),
                    ],
                })
                .collect();
            unit_layers.push(LayerUnits {
                name: format!("hidden{li}"),
                units,
            });
        }
        UnitLayout::new(unit_layers, self.param_count)
    }

    /// Architecture configuration.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// Copies one layer's weight block into a pooled scratch matrix (recycle
    /// it when done; the per-batch hot loop must not allocate fresh buffers).
    fn weight_matrix(&self, params: &[f32], layer: usize, pool: &mut ScratchPool) -> Matrix {
        let l = self.layers[layer];
        let mut m = pool.take(l.out_dim, l.in_dim);
        m.as_mut_slice()
            .copy_from_slice(&params[l.w_start..l.w_start + l.in_dim * l.out_dim]);
        m
    }

    /// [`weight_matrix`](Self::weight_matrix) transposed (`in × out`), the
    /// right operand of the forward pass's `input · Wᵀ`.
    fn weight_matrix_t(&self, params: &[f32], layer: usize, pool: &mut ScratchPool) -> Matrix {
        let l = self.layers[layer];
        let mut m = pool.take(l.in_dim, l.out_dim);
        let w = &params[l.w_start..l.w_start + l.in_dim * l.out_dim];
        for (r, w_row) in w.chunks_exact(l.in_dim).enumerate() {
            for (c, &v) in w_row.iter().enumerate() {
                m.set(c, r, v);
            }
        }
        m
    }

    fn bias<'p>(&self, params: &'p [f32], layer: usize) -> &'p [f32] {
        let l = self.layers[layer];
        &params[l.b_start..l.b_start + l.out_dim]
    }

    /// Runs the forward pass and returns pre-activations of every layer plus
    /// the input batch, which the backward pass re-uses.
    fn forward(&self, params: &[f32], batch: &Matrix, pool: &mut ScratchPool) -> Vec<Matrix> {
        let mut pre_activations = Vec::with_capacity(self.layers.len());
        // The previous layer's pooled activation; `None` while the borrowed
        // `batch` still feeds the layer (only pool buffers are recycled).
        let mut activ: Option<Matrix> = None;
        for (li, layer) in self.layers.iter().enumerate() {
            let wt = self.weight_matrix_t(params, li, pool);
            let input = activ.as_ref().unwrap_or(batch);
            // `z` is pool-zeroed, so each output is `+0.0` plus its `k`
            // terms ascending: the `input · Wᵀ` dot product.
            let mut z = pool.take(input.rows(), layer.out_dim);
            input.matmul_into(&wt, &mut z);
            pool.recycle(wt);
            let b = self.bias(params, li);
            for r in 0..z.rows() {
                let row = z.row_mut(r);
                for (v, &bias) in row.iter_mut().zip(b.iter()) {
                    *v += bias;
                }
            }
            if li + 1 < self.layers.len() {
                let mut pre = pool.take(z.rows(), z.cols());
                pre.as_mut_slice().copy_from_slice(z.as_slice());
                pre_activations.push(pre);
                z.map_inplace(relu);
                if let Some(prev) = activ.replace(z) {
                    pool.recycle(prev);
                }
            } else {
                pre_activations.push(z);
            }
        }
        if let Some(last) = activ {
            pool.recycle(last);
        }
        pre_activations
    }

    fn batch_matrix(&self, data: &Dataset, indices: &[usize]) -> Matrix {
        let mut m = Matrix::zeros(indices.len(), data.feature_dim());
        for (row, &idx) in indices.iter().enumerate() {
            m.row_mut(row).copy_from_slice(data.features.row(idx));
        }
        m
    }
}

impl ModelArch for Mlp {
    fn name(&self) -> String {
        format!("mlp{:?}", self.config.hidden)
    }

    fn param_count(&self) -> usize {
        self.param_count
    }

    fn unit_layout(&self) -> &UnitLayout {
        self.layout.get_or_init(|| self.build_layout())
    }

    fn init_params(&self, rng: &mut StdRng) -> Vec<f32> {
        let mut params = vec![0.0f32; self.param_count];
        for layer in &self.layers {
            Initializer::He.fill(
                &mut params[layer.w_start..layer.w_start + layer.in_dim * layer.out_dim],
                layer.in_dim,
                layer.out_dim,
                rng,
            );
            // Biases start at zero.
        }
        params
    }

    fn loss_and_grad(
        &self,
        params: &[f32],
        data: &Dataset,
        indices: &[usize],
        grad: &mut [f32],
    ) -> TrainStats {
        assert_eq!(grad.len(), self.param_count);
        assert!(!indices.is_empty(), "empty minibatch");
        with_pool(|pool| {
            let batch = self.batch_matrix(data, indices);
            let n = indices.len();
            let pre = self.forward(params, &batch, pool);

            // Loss + gradient at the logits.
            let logits = &pre[pre.len() - 1];
            let mut d_logits = pool.take(n, self.config.num_classes);
            let mut loss = 0.0f64;
            let mut correct = 0usize;
            for (row, &idx) in indices.iter().enumerate() {
                let label = data.labels[idx];
                let (sample_loss, probs) =
                    crate::activation::softmax_cross_entropy(logits.row(row), label);
                loss += sample_loss as f64;
                if fedlps_tensor::ops::argmax(logits.row(row)) == label {
                    correct += 1;
                }
                let out = d_logits.row_mut(row);
                for (c, &p) in probs.iter().enumerate() {
                    out[c] = (p - if c == label { 1.0 } else { 0.0 }) / n as f32;
                }
            }

            // Backward pass through the layers.
            let mut delta = d_logits; // d loss / d pre-activation of current layer
            for li in (0..self.layers.len()).rev() {
                let layer = self.layers[li];
                // Activation feeding this layer: the borrowed batch for layer
                // 0, a pooled ReLU of the previous pre-activation otherwise.
                let act = li.checked_sub(1).map(|p| {
                    let prev = &pre[p];
                    let mut act = pool.take(prev.rows(), prev.cols());
                    for (a, &p) in act.as_mut_slice().iter_mut().zip(prev.as_slice()) {
                        *a = relu(p);
                    }
                    act
                });
                let mut dw = pool.take(layer.out_dim, layer.in_dim); // out x in
                delta.matmul_tn_into(act.as_ref().unwrap_or(&batch), &mut dw);
                for (i, v) in dw.as_slice().iter().enumerate() {
                    grad[layer.w_start + i] += v;
                }
                pool.recycle(dw);
                if let Some(act) = act {
                    pool.recycle(act);
                }
                for r in 0..delta.rows() {
                    let row = delta.row(r);
                    for (j, &v) in row.iter().enumerate() {
                        grad[layer.b_start + j] += v;
                    }
                }
                if li > 0 {
                    let w = self.weight_matrix(params, li, pool);
                    let mut d_input = pool.take(delta.rows(), layer.in_dim); // n x in
                    delta.matmul_into(&w, &mut d_input);
                    pool.recycle(w);
                    // Chain through the ReLU of the previous layer.
                    let prev_pre = &pre[li - 1];
                    for r in 0..d_input.rows() {
                        let drow = d_input.row_mut(r);
                        let prow = prev_pre.row(r);
                        for (dv, &pv) in drow.iter_mut().zip(prow.iter()) {
                            *dv *= relu_grad(pv);
                        }
                    }
                    pool.recycle(std::mem::replace(&mut delta, d_input));
                }
            }
            pool.recycle(delta);
            for m in pre {
                pool.recycle(m);
            }

            TrainStats {
                loss: loss / n as f64,
                accuracy: correct as f64 / n as f64,
            }
        })
    }

    fn evaluate(&self, params: &[f32], data: &Dataset) -> EvalStats {
        if data.is_empty() {
            return EvalStats::empty();
        }
        let indices: Vec<usize> = (0..data.len()).collect();
        let batch = self.batch_matrix(data, &indices);
        with_pool(|pool| {
            let pre = self.forward(params, &batch, pool);
            let logits = &pre[pre.len() - 1];
            let mut loss = 0.0f64;
            let mut correct = 0usize;
            for (row, &label) in data.labels.iter().enumerate() {
                let (sample_loss, _) =
                    crate::activation::softmax_cross_entropy(logits.row(row), label);
                loss += sample_loss as f64;
                if fedlps_tensor::ops::argmax(logits.row(row)) == label {
                    correct += 1;
                }
            }
            for m in pre {
                pool.recycle(m);
            }
            EvalStats {
                loss: loss / data.len() as f64,
                accuracy: correct as f64 / data.len() as f64,
                samples: data.len(),
            }
        })
    }

    fn classifier_params(&self) -> std::ops::Range<usize> {
        let last = self.layers[self.layers.len() - 1];
        last.w_start..self.param_count
    }

    fn train_flops_per_sample(&self, retained_per_layer: &[usize]) -> f64 {
        assert_eq!(retained_per_layer.len(), self.layers.len() - 1);
        let mut widths = vec![self.config.input_dim];
        widths.extend(retained_per_layer);
        widths.push(self.config.num_classes);
        let forward: f64 = widths
            .windows(2)
            .map(|w| dense_layer_flops(w[0], w[1]))
            .sum();
        forward * 3.0
    }

    fn pack(&self, kept: &KeptUnits) -> Option<PackedModel> {
        assert_eq!(
            kept.num_layers(),
            self.layers.len() - 1,
            "one kept-unit list per hidden layer"
        );
        if !kept.is_executable() {
            return None; // an empty hidden layer would disconnect the network
        }
        let packed = Mlp::new(MlpConfig {
            input_dim: self.config.input_dim,
            hidden: kept.layers().map(<[usize]>::len).collect(),
            num_classes: self.config.num_classes,
        });
        // Gather map in the packed layout's order, layer by layer. The
        // output layer keeps every row; the input keeps every column.
        // Section starts ascend with the layer offsets and rows/cols ascend
        // within, so the whole map is strictly ascending (checked by
        // `PackedModel::new`).
        let mut map = GatherMap::with_capacity(packed.param_count());
        for (li, layer) in self.layers.iter().enumerate() {
            let cols = li.checked_sub(1).map(|p| kept.layer(p));
            if li < kept.num_layers() {
                layer.push_packed(&mut map, kept.layer(li).iter().copied(), cols);
            } else {
                layer.push_packed(&mut map, 0..layer.out_dim, cols);
            }
        }
        Some(PackedModel::new(
            Box::new(packed),
            map.into_vec(),
            self.param_count,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_gradients_close;
    use fedlps_data::dataset::InputKind;
    use fedlps_tensor::rng_from_seed;

    fn toy_dataset(n: usize, dim: usize, classes: usize) -> Dataset {
        let mut rng = rng_from_seed(3);
        let features = Matrix::random_normal(n, dim, 1.0, &mut rng);
        let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
        Dataset::new(features, labels, classes, InputKind::Vector { dim })
    }

    fn toy_mlp() -> Mlp {
        Mlp::new(MlpConfig {
            input_dim: 6,
            hidden: vec![8, 5],
            num_classes: 3,
        })
    }

    #[test]
    fn param_count_matches_manual_formula() {
        let mlp = toy_mlp();
        let expected = 6 * 8 + 8 + 8 * 5 + 5 + 5 * 3 + 3;
        assert_eq!(mlp.param_count(), expected);
        assert_eq!(mlp.unit_layout().total_units(), 13);
        assert_eq!(mlp.unit_layout().units_per_layer(), vec![8, 5]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mlp = toy_mlp();
        let data = toy_dataset(12, 6, 3);
        let mut rng = rng_from_seed(1);
        let params = mlp.init_params(&mut rng);
        let indices: Vec<usize> = (0..8).collect();
        assert_gradients_close(&mlp, &params, &data, &indices, 40, 2e-2, &mut rng);
    }

    #[test]
    fn training_reduces_loss_on_small_problem() {
        let mlp = toy_mlp();
        let data = toy_dataset(30, 6, 3);
        let mut rng = rng_from_seed(2);
        let mut params = mlp.init_params(&mut rng);
        let indices: Vec<usize> = (0..data.len()).collect();
        let before = mlp.evaluate(&params, &data);
        for _ in 0..60 {
            let mut grad = vec![0.0; params.len()];
            mlp.loss_and_grad(&params, &data, &indices, &mut grad);
            fedlps_tensor::ops::axpy(&mut params, -0.5, &grad);
        }
        let after = mlp.evaluate(&params, &data);
        assert!(
            after.loss < before.loss * 0.7,
            "loss {} -> {}",
            before.loss,
            after.loss
        );
        assert!(after.accuracy > before.accuracy);
    }

    #[test]
    fn masked_neuron_has_no_effect_on_outputs() {
        let mlp = toy_mlp();
        let data = toy_dataset(10, 6, 3);
        let mut rng = rng_from_seed(4);
        let params = mlp.init_params(&mut rng);
        // Zero the first hidden neuron's parameters.
        let mut keep = vec![true; mlp.unit_layout().total_units()];
        keep[0] = false;
        let mask = mlp.unit_layout().expand_mask(&keep);
        let masked: Vec<f32> = params.iter().zip(mask.iter()).map(|(p, m)| p * m).collect();
        // The dropped neuron's pre-activation is exactly zero (weights and
        // bias are masked) and relu(0) = 0, so the *downstream* weights that
        // read its activation are multiplied by zero: perturbing them hugely
        // must not change predictions. (A previous version of this test set
        // the already-zeroed incoming weights to zero, which asserted
        // nothing.)
        let mut perturbed = masked.clone();
        let next = &mlp.layers[1];
        for j in 0..next.out_dim {
            perturbed[next.w_start + j * next.in_dim] = 1e6;
        }
        let a = mlp.evaluate(&masked, &data);
        let b = mlp.evaluate(&perturbed, &data);
        assert!((a.loss - b.loss).abs() < 1e-9);
        assert_eq!(a.accuracy, b.accuracy);
    }

    /// Packs `mlp` onto `kept` and checks the packed submodel against the
    /// masked-dense model bit for bit; returns the packed parameter count.
    fn assert_packed_matches_masked_dense(mlp: &Mlp, kept: &[Vec<usize>]) -> usize {
        let data = toy_dataset(14, mlp.config.input_dim, mlp.config.num_classes);
        let mut rng = rng_from_seed(8);
        let params = mlp.init_params(&mut rng);
        let keep: Vec<bool> = mlp
            .config
            .hidden
            .iter()
            .zip(kept)
            .flat_map(|(&width, units)| (0..width).map(|u| units.contains(&u)))
            .collect();
        let mask = mlp.unit_layout().expand_mask(&keep);
        let masked: Vec<f32> = params.iter().zip(mask.iter()).map(|(p, m)| p * m).collect();
        let packed = mlp.pack(&KeptUnits::from_nested(kept)).expect("packable");
        assert_eq!(packed.arch().param_count(), packed.packed_len());

        let indices: Vec<usize> = (0..10).collect();
        let mut dense_grad = vec![0.0f32; mlp.param_count()];
        let dense_stats = mlp.loss_and_grad(&masked, &data, &indices, &mut dense_grad);

        let mut pp = Vec::new();
        packed.gather_params(&masked, &mut pp);
        let mut pgrad = vec![0.0f32; packed.packed_len()];
        let packed_stats = packed
            .arch()
            .loss_and_grad(&pp, &data, &indices, &mut pgrad);
        let mut scattered = vec![0.0f32; mlp.param_count()];
        packed.scatter_add(&pgrad, &mut scattered);

        assert_eq!(dense_stats.loss.to_bits(), packed_stats.loss.to_bits());
        assert_eq!(dense_stats.accuracy, packed_stats.accuracy);
        for (i, (d, p)) in dense_grad.iter().zip(scattered.iter()).enumerate() {
            assert_eq!(d.to_bits(), p.to_bits(), "grad diverges at parameter {i}");
        }
        // Packed evaluation agrees with the masked-dense model too.
        let dense_eval = mlp.evaluate(&masked, &data);
        let packed_eval = packed.arch().evaluate(&pp, &data);
        assert_eq!(dense_eval.loss.to_bits(), packed_eval.loss.to_bits());
        assert_eq!(dense_eval.accuracy, packed_eval.accuracy);
        packed.packed_len()
    }

    #[test]
    fn packed_submodel_matches_masked_dense_bitwise() {
        // Drop units 1,4,6 of hidden0 and 0,3 of hidden1.
        let packed =
            assert_packed_matches_masked_dense(&toy_mlp(), &[vec![0, 2, 3, 5, 7], vec![1, 2, 4]]);
        assert_eq!(packed, 6 * 5 + 5 + 5 * 3 + 3 + 3 * 3 + 3);
        // No hidden layer: the output layer keeps every row over the full
        // input, so the packed model is the whole model.
        let linear = Mlp::new(MlpConfig {
            input_dim: 4,
            hidden: vec![],
            num_classes: 3,
        });
        assert_eq!(linear.param_count(), 15);
        assert_eq!(assert_packed_matches_masked_dense(&linear, &[]), 15);
        // One hidden layer keeping units {0, 2, 4} of 5.
        let shallow = Mlp::new(MlpConfig {
            input_dim: 4,
            hidden: vec![5],
            num_classes: 3,
        });
        assert_eq!(shallow.param_count(), 43);
        assert_eq!(
            assert_packed_matches_masked_dense(&shallow, &[vec![0, 2, 4]]),
            27
        );
    }

    #[test]
    fn pack_rejects_empty_layers() {
        let mlp = toy_mlp();
        assert!(mlp
            .pack(&KeptUnits::from_nested(&[vec![], vec![0, 1]]))
            .is_none());
        assert!(mlp
            .pack(&KeptUnits::from_nested(&[
                (0..8).collect(),
                (0..5).collect()
            ]))
            .is_some());
    }

    #[test]
    fn flops_scale_with_retained_units() {
        let mlp = toy_mlp();
        let dense = mlp.dense_train_flops_per_sample();
        let half = mlp.train_flops_per_sample(&[4, 2]);
        assert!(half < dense);
        assert!(half > 0.0);
        let none = mlp.train_flops_per_sample(&[0, 0]);
        assert!(none < half);
    }

    #[test]
    fn scratch_pool_stays_flat_across_repeated_calls() {
        // Only buffers that came from `take` may be recycled: handing the
        // pool clones of the caller's batch grew it by two buffers per
        // `loss_and_grad` and one per `evaluate`, without bound.
        let mlp = toy_mlp();
        let data = toy_dataset(16, 6, 3);
        let mut rng = rng_from_seed(6);
        let params = mlp.init_params(&mut rng);
        let indices: Vec<usize> = (0..8).collect();
        let mut grad = vec![0.0f32; params.len()];
        let idle = || with_pool(|p| p.idle());

        mlp.loss_and_grad(&params, &data, &indices, &mut grad);
        let warm = idle();
        for _ in 0..50 {
            mlp.loss_and_grad(&params, &data, &indices, &mut grad);
        }
        assert_eq!(idle(), warm, "loss_and_grad must not grow the pool");

        mlp.evaluate(&params, &data);
        let warm = idle();
        for _ in 0..50 {
            mlp.evaluate(&params, &data);
        }
        assert_eq!(idle(), warm, "evaluate must not grow the pool");
    }

    #[test]
    fn evaluate_empty_dataset() {
        let mlp = toy_mlp();
        let mut rng = rng_from_seed(5);
        let params = mlp.init_params(&mut rng);
        let empty = Dataset::empty(3, InputKind::Vector { dim: 6 });
        assert_eq!(mlp.evaluate(&params, &empty).samples, 0);
    }

    #[test]
    fn packed_submodel_builds_no_unit_layout() {
        let mlp = toy_mlp();
        let fresh = Mlp::new(MlpConfig {
            input_dim: 6,
            hidden: vec![3, 2],
            num_classes: 3,
        });
        crate::pack::assert_packing_builds_no_layout(
            &mlp,
            &KeptUnits::from_nested(&[vec![0, 4, 7], vec![1, 3]]),
            &toy_dataset(6, 6, 3),
            &fresh,
        );
    }
}
