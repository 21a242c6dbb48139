//! LSTM language model with hidden-unit-level sparsifiable units.
//!
//! This is the Reddit/LEAF analogue: token embeddings, a single LSTM cell
//! unrolled over the context window and a dense softmax classifier predicting
//! the next token. The sparsifiable units are the LSTM hidden cells; masking a
//! cell zeroes all four of its gate rows (input-to-hidden and hidden-to-hidden)
//! and biases, which makes the cell's output exactly zero for every time step.
//!
//! A masked cell also owns its *outgoing* connections — its column in every
//! other cell's recurrent rows and in the classifier. Unlike ReLU networks
//! (where `relu'(0) = 0` already severs a dropped neuron), an LSTM cell with
//! zeroed incoming rows still has half-open gates (`σ(0) = ½`), so gradients
//! would keep flowing into its candidate-gate weights through the unmasked
//! fan-out. Masking the fan-out makes the masked network a true width-scaled
//! submodel — the HeteroFL/FjORD convention — which is exactly what lets the
//! packed execution path reproduce masked-dense training bit for bit.

use std::sync::OnceLock;

use fedlps_data::dataset::Dataset;
use fedlps_tensor::Initializer;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::activation::{sigmoid, softmax_cross_entropy, tanh};
use crate::flops::{dense_layer_flops, lstm_step_flops, TRAIN_FLOPS_MULTIPLIER};
use crate::model::{EvalStats, ModelArch, TrainStats};
use crate::pack::{GatherMap, KeptUnits, PackedModel};
use crate::unit::{LayerUnits, ParamRange, UnitLayout, UnitParams};

/// Configuration of the LSTM language model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LstmLmConfig {
    /// Vocabulary size (input tokens).
    pub vocab: usize,
    /// Context window length.
    pub seq_len: usize,
    /// Embedding dimensionality.
    pub embed: usize,
    /// Number of LSTM hidden cells (the sparsifiable units).
    pub hidden: usize,
    /// Number of output classes (== vocab for next-token prediction).
    pub num_classes: usize,
}

/// LSTM language model.
#[derive(Debug, Clone)]
pub struct LstmLm {
    config: LstmLmConfig,
    embed_start: usize,
    w_ih_start: usize,
    w_hh_start: usize,
    b_start: usize,
    w_out_start: usize,
    b_out_start: usize,
    /// Built on the first [`ModelArch::unit_layout`] call.
    layout: OnceLock<UnitLayout>,
    param_count: usize,
}

impl LstmLm {
    /// Builds the architecture; its unit layout is built on first use.
    pub fn new(config: LstmLmConfig) -> Self {
        let (v, e, h, c) = (
            config.vocab,
            config.embed,
            config.hidden,
            config.num_classes,
        );
        assert!(v > 0 && e > 0 && h > 0 && c > 0 && config.seq_len > 0);
        let embed_start = 0;
        let w_ih_start = embed_start + v * e;
        let w_hh_start = w_ih_start + 4 * h * e;
        let b_start = w_hh_start + 4 * h * h;
        let w_out_start = b_start + 4 * h;
        let b_out_start = w_out_start + c * h;
        let param_count = b_out_start + c;

        Self {
            config,
            embed_start,
            w_ih_start,
            w_hh_start,
            b_start,
            w_out_start,
            b_out_start,
            layout: OnceLock::new(),
            param_count,
        }
    }

    /// The unit layout: one layer of hidden cells, each owning its gate rows
    /// and biases and its outgoing columns.
    fn build_layout(&self) -> UnitLayout {
        let Self {
            w_ih_start,
            w_hh_start,
            b_start,
            w_out_start,
            param_count,
            ..
        } = *self;
        let (e, h, c) = (
            self.config.embed,
            self.config.hidden,
            self.config.num_classes,
        );
        let units = (0..h)
            .map(|j| {
                let mut ranges = Vec::with_capacity(12 + 4 * h.saturating_sub(1) + c);
                for gate in 0..4 {
                    ranges.push(ParamRange::new(w_ih_start + (gate * h + j) * e, e));
                    ranges.push(ParamRange::new(w_hh_start + (gate * h + j) * h, h));
                    ranges.push(ParamRange::new(b_start + gate * h + j, 1));
                }
                // Outgoing recurrent connections: column j of every *other*
                // cell's gate rows (own rows already cover their full width).
                for gate in 0..4 {
                    for jj in 0..h {
                        if jj == j {
                            continue;
                        }
                        ranges.push(ParamRange::new(w_hh_start + (gate * h + jj) * h + j, 1));
                    }
                }
                // Outgoing classifier connections: column j of every output row.
                for cls in 0..c {
                    ranges.push(ParamRange::new(w_out_start + cls * h + j, 1));
                }
                UnitParams { ranges }
            })
            .collect();
        UnitLayout::new(
            vec![LayerUnits {
                name: "lstm".into(),
                units,
            }],
            param_count,
        )
    }

    /// Architecture configuration.
    pub fn config(&self) -> &LstmLmConfig {
        &self.config
    }

    fn forward_sample(&self, params: &[f32], tokens: &[f32]) -> LstmCache {
        let (e, h) = (self.config.embed, self.config.hidden);
        let steps = tokens.len();
        let mut cache = LstmCache {
            token_ids: Vec::with_capacity(steps),
            xs: Vec::with_capacity(steps),
            gates: Vec::with_capacity(steps),
            cs: Vec::with_capacity(steps),
            hs: Vec::with_capacity(steps),
            logits: Vec::new(),
        };
        let mut h_prev = vec![0.0f32; h];
        let mut c_prev = vec![0.0f32; h];
        for &tok in tokens {
            let token = (tok as usize).min(self.config.vocab - 1);
            let x =
                params[self.embed_start + token * e..self.embed_start + (token + 1) * e].to_vec();
            // Gate pre-activations z[gate * h + j].
            let mut z = vec![0.0f32; 4 * h];
            for (row, zv) in z.iter_mut().enumerate() {
                let mut acc = params[self.b_start + row];
                let w_ih = &params[self.w_ih_start + row * e..self.w_ih_start + (row + 1) * e];
                for (&wv, &xv) in w_ih.iter().zip(x.iter()) {
                    acc += wv * xv;
                }
                let w_hh = &params[self.w_hh_start + row * h..self.w_hh_start + (row + 1) * h];
                for (&wv, &hv) in w_hh.iter().zip(h_prev.iter()) {
                    acc += wv * hv;
                }
                *zv = acc;
            }
            // Gate activations: i, f, g, o.
            let mut gates = vec![0.0f32; 4 * h];
            for j in 0..h {
                gates[j] = sigmoid(z[j]);
                gates[h + j] = sigmoid(z[h + j]);
                gates[2 * h + j] = tanh(z[2 * h + j]);
                gates[3 * h + j] = sigmoid(z[3 * h + j]);
            }
            let mut c_new = vec![0.0f32; h];
            let mut h_new = vec![0.0f32; h];
            for j in 0..h {
                c_new[j] = gates[h + j] * c_prev[j] + gates[j] * gates[2 * h + j];
                h_new[j] = gates[3 * h + j] * tanh(c_new[j]);
            }
            cache.token_ids.push(token);
            cache.xs.push(x);
            cache.gates.push(gates);
            cache.cs.push(c_new.clone());
            cache.hs.push(h_new.clone());
            h_prev = h_new;
            c_prev = c_new;
        }
        // Output logits from the last hidden state.
        let last_h = cache.hs.last().unwrap();
        let mut logits = vec![0.0f32; self.config.num_classes];
        for (cls, logit) in logits.iter_mut().enumerate() {
            let row = &params[self.w_out_start + cls * h..self.w_out_start + (cls + 1) * h];
            let mut acc = params[self.b_out_start + cls];
            for (&wv, &hv) in row.iter().zip(last_h.iter()) {
                acc += wv * hv;
            }
            *logit = acc;
        }
        cache.logits = logits;
        cache
    }

    fn backward_sample(
        &self,
        params: &[f32],
        cache: &LstmCache,
        label: usize,
        scale: f32,
        grad: &mut [f32],
    ) -> (f32, bool) {
        let (e, h) = (self.config.embed, self.config.hidden);
        let steps = cache.hs.len();
        let (loss, probs) = softmax_cross_entropy(&cache.logits, label);
        let correct = fedlps_tensor::ops::argmax(&cache.logits) == label;

        // Output layer backward.
        let last_h = &cache.hs[steps - 1];
        let mut dh = vec![0.0f32; h];
        for cls in 0..self.config.num_classes {
            let mut d_logit = probs[cls];
            if cls == label {
                d_logit -= 1.0;
            }
            d_logit *= scale;
            grad[self.b_out_start + cls] += d_logit;
            let w_row = self.w_out_start + cls * h;
            for j in 0..h {
                grad[w_row + j] += d_logit * last_h[j];
                dh[j] += d_logit * params[w_row + j];
            }
        }

        // Backpropagation through time.
        let mut dc = vec![0.0f32; h];
        for t in (0..steps).rev() {
            let gates = &cache.gates[t];
            let c_t = &cache.cs[t];
            let c_prev: Vec<f32> = if t == 0 {
                vec![0.0; h]
            } else {
                cache.cs[t - 1].clone()
            };
            let h_prev: Vec<f32> = if t == 0 {
                vec![0.0; h]
            } else {
                cache.hs[t - 1].clone()
            };
            let x = &cache.xs[t];

            let mut dz = vec![0.0f32; 4 * h];
            let mut dc_prev = vec![0.0f32; h];
            for j in 0..h {
                let i_g = gates[j];
                let f_g = gates[h + j];
                let g_g = gates[2 * h + j];
                let o_g = gates[3 * h + j];
                let tanh_c = tanh(c_t[j]);
                let d_o = dh[j] * tanh_c;
                let d_c = dh[j] * o_g * (1.0 - tanh_c * tanh_c) + dc[j];
                let d_i = d_c * g_g;
                let d_f = d_c * c_prev[j];
                let d_g = d_c * i_g;
                dc_prev[j] = d_c * f_g;
                dz[j] = d_i * i_g * (1.0 - i_g);
                dz[h + j] = d_f * f_g * (1.0 - f_g);
                dz[2 * h + j] = d_g * (1.0 - g_g * g_g);
                dz[3 * h + j] = d_o * o_g * (1.0 - o_g);
            }

            // Parameter gradients and the gradients flowing to h_{t-1} / x_t.
            let mut dh_prev = vec![0.0f32; h];
            let mut dx = vec![0.0f32; e];
            for (row, &dzv) in dz.iter().enumerate() {
                if dzv == 0.0 {
                    continue;
                }
                grad[self.b_start + row] += dzv;
                let w_ih_row = self.w_ih_start + row * e;
                for i in 0..e {
                    grad[w_ih_row + i] += dzv * x[i];
                    dx[i] += dzv * params[w_ih_row + i];
                }
                let w_hh_row = self.w_hh_start + row * h;
                for j in 0..h {
                    grad[w_hh_row + j] += dzv * h_prev[j];
                    dh_prev[j] += dzv * params[w_hh_row + j];
                }
            }
            // Embedding gradient for the token used at this step.
            let token = cache.token_ids[t];
            let emb_row = self.embed_start + token * e;
            for i in 0..e {
                grad[emb_row + i] += dx[i];
            }

            dh = dh_prev;
            dc = dc_prev;
        }
        (loss, correct)
    }
}

struct LstmCache {
    token_ids: Vec<usize>,
    xs: Vec<Vec<f32>>,
    gates: Vec<Vec<f32>>,
    cs: Vec<Vec<f32>>,
    hs: Vec<Vec<f32>>,
    logits: Vec<f32>,
}

impl ModelArch for LstmLm {
    fn name(&self) -> String {
        format!("lstm(e{},h{})", self.config.embed, self.config.hidden)
    }

    fn param_count(&self) -> usize {
        self.param_count
    }

    fn unit_layout(&self) -> &UnitLayout {
        self.layout.get_or_init(|| self.build_layout())
    }

    fn init_params(&self, rng: &mut StdRng) -> Vec<f32> {
        let (v, e, h, c) = (
            self.config.vocab,
            self.config.embed,
            self.config.hidden,
            self.config.num_classes,
        );
        let mut params = vec![0.0f32; self.param_count];
        Initializer::Xavier.fill(
            &mut params[self.embed_start..self.embed_start + v * e],
            v,
            e,
            rng,
        );
        Initializer::Xavier.fill(
            &mut params[self.w_ih_start..self.w_ih_start + 4 * h * e],
            e,
            h,
            rng,
        );
        Initializer::Xavier.fill(
            &mut params[self.w_hh_start..self.w_hh_start + 4 * h * h],
            h,
            h,
            rng,
        );
        Initializer::Xavier.fill(
            &mut params[self.w_out_start..self.w_out_start + c * h],
            h,
            c,
            rng,
        );
        // Forget-gate biases start at 1.0 (standard practice for trainability).
        for j in 0..h {
            params[self.b_start + h + j] = 1.0;
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
        assert!(!indices.is_empty(), "empty minibatch");
        let scale = 1.0 / indices.len() as f32;
        let mut loss = 0.0f64;
        let mut correct = 0usize;
        for &idx in indices {
            let (tokens, label) = data.sample(idx);
            let cache = self.forward_sample(params, tokens);
            let (sample_loss, ok) = self.backward_sample(params, &cache, label, scale, grad);
            loss += sample_loss as f64;
            if ok {
                correct += 1;
            }
        }
        TrainStats {
            loss: loss / indices.len() as f64,
            accuracy: correct as f64 / indices.len() as f64,
        }
    }

    fn evaluate(&self, params: &[f32], data: &Dataset) -> EvalStats {
        if data.is_empty() {
            return EvalStats::empty();
        }
        let mut loss = 0.0f64;
        let mut correct = 0usize;
        for i in 0..data.len() {
            let (tokens, label) = data.sample(i);
            let cache = self.forward_sample(params, tokens);
            let (sample_loss, _) = softmax_cross_entropy(&cache.logits, label);
            loss += sample_loss as f64;
            if fedlps_tensor::ops::argmax(&cache.logits) == label {
                correct += 1;
            }
        }
        EvalStats {
            loss: loss / data.len() as f64,
            accuracy: correct as f64 / data.len() as f64,
            samples: data.len(),
        }
    }

    fn classifier_params(&self) -> std::ops::Range<usize> {
        self.w_out_start..self.param_count
    }

    fn train_flops_per_sample(&self, retained_per_layer: &[usize]) -> f64 {
        assert_eq!(retained_per_layer.len(), 1);
        let retained_h = retained_per_layer[0];
        let per_step = lstm_step_flops(self.config.embed, retained_h);
        let output = dense_layer_flops(retained_h, self.config.num_classes);
        (per_step * self.config.seq_len as f64 + output) * TRAIN_FLOPS_MULTIPLIER
    }

    fn pack(&self, kept_units: &KeptUnits) -> Option<PackedModel> {
        assert_eq!(
            kept_units.num_layers(),
            1,
            "the LSTM has one sparsifiable layer"
        );
        let kept = kept_units.layer(0);
        if kept.is_empty() {
            return None;
        }
        let (v, e, h, c) = (
            self.config.vocab,
            self.config.embed,
            self.config.hidden,
            self.config.num_classes,
        );
        let packed = LstmLm::new(LstmLmConfig {
            vocab: v,
            seq_len: self.config.seq_len,
            embed: e,
            hidden: kept.len(),
            num_classes: c,
        });
        let mut map = GatherMap::with_capacity(packed.param_count());
        map.push_range(self.embed_start, v * e); // embeddings are never sparsified
        for gate in 0..4 {
            for &j in kept {
                assert!(j < h, "kept cell {j} out of range");
                map.push_range(self.w_ih_start + (gate * h + j) * e, e);
            }
        }
        for gate in 0..4 {
            for &j in kept {
                let row = self.w_hh_start + (gate * h + j) * h;
                for &jj in kept {
                    map.push(row + jj);
                }
            }
        }
        for gate in 0..4 {
            for &j in kept {
                map.push(self.b_start + gate * h + j);
            }
        }
        for cls in 0..c {
            let row = self.w_out_start + cls * h;
            for &j in kept {
                map.push(row + j);
            }
        }
        map.push_range(self.b_out_start, c);
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
    use fedlps_tensor::{rng_from_seed, Matrix};
    use rand::Rng;

    fn toy_lstm() -> LstmLm {
        LstmLm::new(LstmLmConfig {
            vocab: 7,
            seq_len: 5,
            embed: 4,
            hidden: 6,
            num_classes: 7,
        })
    }

    fn toy_text_dataset(n: usize) -> Dataset {
        let mut rng = rng_from_seed(17);
        let mut features = Matrix::zeros(n, 5);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            for v in features.row_mut(i) {
                *v = rng.gen_range(0..7) as f32;
            }
            labels.push(rng.gen_range(0..7));
        }
        Dataset::new(
            features,
            labels,
            7,
            InputKind::Sequence { len: 5, vocab: 7 },
        )
    }

    #[test]
    fn param_count_formula() {
        let m = toy_lstm();
        let expected = 7 * 4 + 4 * 6 * 4 + 4 * 6 * 6 + 4 * 6 + 7 * 6 + 7;
        assert_eq!(m.param_count(), expected);
        assert_eq!(m.unit_layout().total_units(), 6);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let m = toy_lstm();
        let data = toy_text_dataset(6);
        let mut rng = rng_from_seed(23);
        let params = m.init_params(&mut rng);
        let indices: Vec<usize> = (0..4).collect();
        assert_gradients_close(&m, &params, &data, &indices, 50, 3e-2, &mut rng);
    }

    #[test]
    fn training_reduces_loss_on_repetitive_sequence() {
        // A dataset where the label always equals the last token is learnable
        // by copying; the LSTM should make quick progress.
        let m = toy_lstm();
        let mut rng = rng_from_seed(5);
        let n = 40;
        let mut features = Matrix::zeros(n, 5);
        let mut labels = Vec::new();
        for i in 0..n {
            let row = features.row_mut(i);
            for v in row.iter_mut() {
                *v = rng.gen_range(0..7) as f32;
            }
            labels.push(row[4] as usize);
        }
        let data = Dataset::new(
            features,
            labels,
            7,
            InputKind::Sequence { len: 5, vocab: 7 },
        );
        let mut params = m.init_params(&mut rng);
        let indices: Vec<usize> = (0..n).collect();
        let before = m.evaluate(&params, &data);
        for _ in 0..80 {
            let mut grad = vec![0.0; params.len()];
            m.loss_and_grad(&params, &data, &indices, &mut grad);
            fedlps_tensor::ops::axpy(&mut params, -1.0, &grad);
        }
        let after = m.evaluate(&params, &data);
        assert!(
            after.loss < before.loss * 0.8,
            "loss {} -> {}",
            before.loss,
            after.loss
        );
    }

    #[test]
    fn masked_hidden_cell_outputs_zero() {
        let m = toy_lstm();
        let data = toy_text_dataset(3);
        let mut rng = rng_from_seed(7);
        let params = m.init_params(&mut rng);
        let mut keep = vec![true; 6];
        keep[2] = false;
        let mask = m.unit_layout().expand_mask(&keep);
        let masked: Vec<f32> = params.iter().zip(mask.iter()).map(|(p, q)| p * q).collect();
        let (tokens, _) = data.sample(0);
        let cache = m.forward_sample(&masked, tokens);
        for hs in &cache.hs {
            assert!(
                hs[2].abs() < 1e-7,
                "masked cell leaked activation {}",
                hs[2]
            );
        }
    }

    #[test]
    fn masked_cell_owns_its_fan_out() {
        // Dropping a cell must zero its outgoing recurrent and classifier
        // columns too; otherwise the half-open gates (σ(0) = ½) leak task
        // gradient into the dropped candidate-gate rows, and the packed
        // submodel could not reproduce masked training exactly.
        let m = toy_lstm();
        let data = toy_text_dataset(4);
        let mut rng = rng_from_seed(13);
        let params = m.init_params(&mut rng);
        let mut keep = vec![true; 6];
        keep[2] = false;
        keep[5] = false;
        let mask = m.unit_layout().expand_mask(&keep);
        // Outgoing classifier column of cell 2 is masked.
        assert_eq!(mask[m.w_out_start + 2], 0.0);
        // Recurrent column 2 of (kept) cell 0's input-gate row is masked.
        assert_eq!(mask[m.w_hh_start + 2], 0.0);
        let masked: Vec<f32> = params.iter().zip(mask.iter()).map(|(p, q)| p * q).collect();
        let indices: Vec<usize> = (0..3).collect();
        let mut grad = vec![0.0f32; m.param_count()];
        m.loss_and_grad(&masked, &data, &indices, &mut grad);
        for (i, (&g, &mv)) in grad.iter().zip(mask.iter()).enumerate() {
            if mv == 0.0 {
                assert_eq!(g, 0.0, "masked parameter {i} received task gradient {g}");
            }
        }
    }

    #[test]
    fn packed_submodel_matches_masked_dense_bitwise() {
        let m = toy_lstm(); // 6 hidden cells
        let data = toy_text_dataset(8);
        let mut rng = rng_from_seed(29);
        let params = m.init_params(&mut rng);
        let kept = KeptUnits::from_nested(&[vec![0usize, 1, 3, 4]]);
        let mut keep = vec![false; 6];
        for &j in kept.layer(0) {
            keep[j] = true;
        }
        let mask = m.unit_layout().expand_mask(&keep);
        let masked: Vec<f32> = params.iter().zip(mask.iter()).map(|(p, q)| p * q).collect();
        let packed = m.pack(&kept).expect("packable");

        let indices: Vec<usize> = (0..5).collect();
        let mut dense_grad = vec![0.0f32; m.param_count()];
        let dense_stats = m.loss_and_grad(&masked, &data, &indices, &mut dense_grad);

        let mut pp = Vec::new();
        packed.gather_params(&masked, &mut pp);
        let mut pgrad = vec![0.0f32; packed.packed_len()];
        let packed_stats = packed
            .arch()
            .loss_and_grad(&pp, &data, &indices, &mut pgrad);
        let mut scattered = vec![0.0f32; m.param_count()];
        packed.scatter_add(&pgrad, &mut scattered);

        assert_eq!(dense_stats.loss.to_bits(), packed_stats.loss.to_bits());
        assert_eq!(dense_stats.accuracy, packed_stats.accuracy);
        for (i, (d, p)) in dense_grad.iter().zip(scattered.iter()).enumerate() {
            assert_eq!(d.to_bits(), p.to_bits(), "grad diverges at parameter {i}");
        }
        let dense_eval = m.evaluate(&masked, &data);
        let packed_eval = packed.arch().evaluate(&pp, &data);
        assert_eq!(dense_eval.loss.to_bits(), packed_eval.loss.to_bits());
    }

    #[test]
    fn flops_monotone_in_hidden_width() {
        let m = toy_lstm();
        assert!(m.train_flops_per_sample(&[6]) > m.train_flops_per_sample(&[3]));
        assert!(m.train_flops_per_sample(&[3]) > 0.0);
    }

    #[test]
    fn out_of_vocab_tokens_are_clamped() {
        let m = toy_lstm();
        let mut rng = rng_from_seed(9);
        let params = m.init_params(&mut rng);
        let features = Matrix::from_vec(1, 5, vec![100.0, 3.0, 2.0, 1.0, 0.0]);
        let data = Dataset::new(
            features,
            vec![0],
            7,
            InputKind::Sequence { len: 5, vocab: 7 },
        );
        let stats = m.evaluate(&params, &data);
        assert!(stats.loss.is_finite());
    }

    #[test]
    fn packed_submodel_builds_no_unit_layout() {
        let fresh = LstmLm::new(LstmLmConfig {
            hidden: 3,
            ..toy_lstm().config().clone()
        });
        crate::pack::assert_packing_builds_no_layout(
            &toy_lstm(),
            &KeptUnits::from_nested(&[vec![0, 2, 5]]),
            &toy_text_dataset(4),
            &fresh,
        );
    }
}
