//! Convolutional network with channel-level sparsifiable units.
//!
//! This is the VGG11/13/16 analogue of the reproduction: a configurable stack
//! of 3x3 convolution blocks (ReLU, 2x2 average pooling while the spatial
//! resolution allows it), global average pooling, one hidden dense layer and a
//! dense classifier. The sparsifiable units are the *output channels* of each
//! convolution and the neurons of the hidden dense layer — exactly the width
//! scaling granularity used by HeteroFL / Fjord / FedRolex and by FedLPS
//! itself.
//!
//! # Kernels
//!
//! The three convolution sums run on **tap lists**, built once per block by
//! [`ConvNet::new`]: for each output pixel, its in-image 3x3 taps as
//! `(offset, k)` pairs — `offset` the tapped input pixel in its `[y][x]`
//! plane, `k = ky * 3 + kx` — ascending in `k`. A pixel has at most 9, every
//! input channel shares the list, and an out-of-image tap is simply absent,
//! so it is skipped rather than added as zero. Each sum keeps the terms and
//! the order of the scalar loops that stay in the test module as oracles
//! (`conv_forward_reference`, `conv_backward_reference`): one accumulator per
//! output element, one product at a time, no reassociation, no FMA and no
//! horizontal reduction. Only the traversal puts a [`LANE`] of independent
//! sums side by side:
//!
//! * **Forward** (lanes over output channels): an output element starts at
//!   its bias and takes `(ic, ky, kx)` ascending, because the walk is pixel →
//!   input channel → tap list.
//! * **Weight gradient** (lanes over output channels): weight `(oc, ic, k)`
//!   receives one term per pixel whose output gradient is nonzero, pixels
//!   ascending within a sample and samples in minibatch order, into a
//!   lane-grouped copy of the block's gradient loaded once per
//!   `loss_and_grad` call and stored back once. A lane whose output gradient
//!   is zero keeps its accumulator through a select, never through `+ 0.0`,
//!   so a `-0.0` already in the gradient survives and no `0 · inf` term
//!   enters it.
//! * **Bias gradient** (lanes over output channels): `d_bias` sums the
//!   nonzero output gradients pixel by pixel from `+0.0`, then `grad[b] +=
//!   d_bias` once per sample.
//! * **Input gradient** (lanes over *input* channels, since its terms arrive
//!   output-channel-major): the walk is output channel → pixel (skipped when
//!   its gradient is zero) → tap list, so input element `(ic, iy, ix)` takes
//!   its terms in `(oc, y, x)` order from `+0.0`.
//!
//! Training allocates per `loss_and_grad` call, not per sample: the forward
//! caches and every backward buffer are sized once and reused.

use std::sync::OnceLock;

use fedlps_data::dataset::Dataset;
use fedlps_tensor::kernels::LANE;
use fedlps_tensor::Initializer;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::activation::{cross_entropy, relu, relu_grad};
use crate::flops::{conv_layer_flops, dense_layer_flops, TRAIN_FLOPS_MULTIPLIER};
use crate::model::{EvalStats, ModelArch, TrainStats};
use crate::pack::{GatherMap, KeptUnits, PackedModel};
use crate::unit::{LayerUnits, ParamRange, UnitLayout, UnitParams};

const KERNEL: usize = 3;
/// Weights of one output channel per input channel, `[ky][kx]`.
const TAPS: usize = KERNEL * KERNEL;

/// Configuration of the convolutional backbone.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvNetConfig {
    /// Input channels (1 for the MNIST-like scenario, 3 for CIFAR-like).
    pub in_channels: usize,
    /// Input spatial height.
    pub height: usize,
    /// Input spatial width.
    pub width: usize,
    /// Output channels of each conv block (the block count sets the depth —
    /// the VGG13/16 analogues simply use more entries).
    pub channels: Vec<usize>,
    /// Width of the hidden dense layer before the classifier.
    pub hidden: usize,
    /// Number of output classes.
    pub num_classes: usize,
}

#[derive(Debug, Clone)]
struct ConvLayerMeta {
    w_start: usize,
    b_start: usize,
    in_channels: usize,
    out_channels: usize,
    in_h: usize,
    in_w: usize,
    /// Spatial size after the (optional) pooling of this block.
    out_h: usize,
    out_w: usize,
    pooled: bool,
    /// Each output pixel's in-image taps.
    taps: TapLists,
}

impl ConvLayerMeta {
    /// Pixels of one `[y][x]` plane, before pooling.
    fn plane(&self) -> usize {
        self.in_h * self.in_w
    }

    /// Weights of one output channel, `[ic][ky][kx]`.
    fn per_channel(&self) -> usize {
        self.in_channels * TAPS
    }

    /// Length of the block's input, `[ic][y][x]`.
    fn in_len(&self) -> usize {
        self.in_channels * self.in_h * self.in_w
    }

    /// Length of the block's pre-activation, `[oc][y][x]` before pooling.
    fn pre_len(&self) -> usize {
        self.out_channels * self.in_h * self.in_w
    }

    /// Length of the block's output, `[oc][y][x]` after pooling.
    fn out_len(&self) -> usize {
        self.out_channels * self.out_h * self.out_w
    }
}

/// Each output pixel's in-image 3x3 taps under same padding, shared by every
/// input channel: `(offset, k)` pairs, `offset` the tapped pixel's index in
/// the input's `[y][x]` plane and `k = ky * 3 + kx`, ascending in `k`.
/// Every packed submodel carries its own lists, so a tap takes four bytes.
#[derive(Debug, Clone)]
struct TapLists {
    taps: Vec<(u16, u16)>,
    /// Pixel `p`'s taps are `taps[starts[p]..starts[p + 1]]`.
    starts: Vec<usize>,
}

impl TapLists {
    fn new(h: usize, w: usize) -> Self {
        let mut taps = Vec::with_capacity(h * w * TAPS);
        let mut starts = Vec::with_capacity(h * w + 1);
        starts.push(0);
        for y in 0..h {
            for x in 0..w {
                // Input row `y + ky - 1` and column `x + kx - 1`, shifted by
                // one so that the bounds stay unsigned.
                for ky in 0..KERNEL {
                    for kx in 0..KERNEL {
                        let (iy, ix) = (y + ky, x + kx);
                        if (1..=h).contains(&iy) && (1..=w).contains(&ix) {
                            let offset = u16::try_from((iy - 1) * w + ix - 1)
                                .expect("an image plane has at most 65536 pixels");
                            taps.push((offset, (ky * KERNEL + kx) as u16));
                        }
                    }
                }
                starts.push(taps.len());
            }
        }
        Self { taps, starts }
    }

    /// Every pixel's taps, pixels ascending.
    fn pixels(&self) -> impl Iterator<Item = &[(u16, u16)]> + '_ {
        self.starts.windows(2).map(|s| &self.taps[s[0]..s[1]])
    }
}

#[derive(Debug, Clone, Copy)]
struct DenseMeta {
    w_start: usize,
    b_start: usize,
    in_dim: usize,
    out_dim: usize,
}

/// Convolutional network.
#[derive(Debug, Clone)]
pub struct ConvNet {
    config: ConvNetConfig,
    convs: Vec<ConvLayerMeta>,
    dense_hidden: DenseMeta,
    dense_out: DenseMeta,
    /// Built on the first [`ModelArch::unit_layout`] call.
    layout: OnceLock<UnitLayout>,
    param_count: usize,
}

impl ConvNet {
    /// Builds the architecture, computing spatial sizes and parameter
    /// offsets; its unit layout is built on first use.
    pub fn new(config: ConvNetConfig) -> Self {
        assert!(
            !config.channels.is_empty(),
            "at least one conv block required"
        );
        assert!(
            config.height >= KERNEL && config.width >= KERNEL,
            "input too small"
        );
        let mut convs = Vec::new();
        let mut offset = 0;
        let mut in_c = config.in_channels;
        let mut h = config.height;
        let mut w = config.width;
        for &out_c in &config.channels {
            let w_len = out_c * in_c * KERNEL * KERNEL;
            // Pool while the spatial size still allows it, halving resolution.
            let pooled = h >= 4 && w >= 4;
            let (out_h, out_w) = if pooled { (h / 2, w / 2) } else { (h, w) };
            convs.push(ConvLayerMeta {
                w_start: offset,
                b_start: offset + w_len,
                in_channels: in_c,
                out_channels: out_c,
                in_h: h,
                in_w: w,
                out_h,
                out_w,
                pooled,
                taps: TapLists::new(h, w),
            });
            offset += w_len + out_c;
            in_c = out_c;
            h = out_h;
            w = out_w;
        }
        let last_c = in_c;
        let dense_hidden = DenseMeta {
            w_start: offset,
            b_start: offset + config.hidden * last_c,
            in_dim: last_c,
            out_dim: config.hidden,
        };
        offset += config.hidden * last_c + config.hidden;
        let dense_out = DenseMeta {
            w_start: offset,
            b_start: offset + config.num_classes * config.hidden,
            in_dim: config.hidden,
            out_dim: config.num_classes,
        };
        offset += config.num_classes * config.hidden + config.num_classes;
        Self {
            config,
            convs,
            dense_hidden,
            dense_out,
            layout: OnceLock::new(),
            param_count: offset,
        }
    }

    /// The unit layout: conv output channels + hidden dense neurons.
    fn build_layout(&self) -> UnitLayout {
        let dense_hidden = &self.dense_hidden;
        let mut unit_layers = Vec::new();
        for (li, conv) in self.convs.iter().enumerate() {
            let per_channel = conv.in_channels * KERNEL * KERNEL;
            let units = (0..conv.out_channels)
                .map(|oc| UnitParams {
                    ranges: vec![
                        ParamRange::new(conv.w_start + oc * per_channel, per_channel),
                        ParamRange::new(conv.b_start + oc, 1),
                    ],
                })
                .collect();
            unit_layers.push(LayerUnits {
                name: format!("conv{li}"),
                units,
            });
        }
        let units = (0..dense_hidden.out_dim)
            .map(|j| UnitParams {
                ranges: vec![
                    ParamRange::new(
                        dense_hidden.w_start + j * dense_hidden.in_dim,
                        dense_hidden.in_dim,
                    ),
                    ParamRange::new(dense_hidden.b_start + j, 1),
                ],
            })
            .collect();
        unit_layers.push(LayerUnits {
            name: "dense_hidden".into(),
            units,
        });
        UnitLayout::new(unit_layers, self.param_count)
    }

    /// Architecture configuration.
    pub fn config(&self) -> &ConvNetConfig {
        &self.config
    }

    /// Training forward pass for one sample, through the same conv kernel as
    /// [`evaluate`](ModelArch::evaluate), into `cache`: the output of each
    /// conv block (the sample itself, borrowed, is the first block's input),
    /// the pre-activation of each conv block, the GAP feature vector, the
    /// hidden pre-activation and activation, and the logits — everything the
    /// backward pass reads.
    fn forward_sample_into<'x>(
        &self,
        kernel: &ConvKernel,
        params: &[f32],
        x: &'x [f32],
        cache: &mut SampleCache<'x>,
    ) {
        cache.input = x;
        for (li, conv) in self.convs.iter().enumerate() {
            let (earlier, acts) = cache.acts.split_at_mut(li);
            let input = earlier.last().map_or(x, Vec::as_slice);
            let pre = &mut cache.pres[li];
            kernel.conv_forward(li, conv, input, pre);
            // ReLU then optional pooling.
            let act = &mut acts[0];
            if conv.pooled {
                let relu_out = &mut cache.relu[..conv.pre_len()];
                for (r, &v) in relu_out.iter_mut().zip(pre.iter()) {
                    *r = relu(v);
                }
                avg_pool_into(relu_out, conv.out_channels, conv.in_h, conv.in_w, act);
            } else {
                for (a, &v) in act.iter_mut().zip(pre.iter()) {
                    *a = relu(v);
                }
            }
        }
        self.global_avg_pool(cache.acts.last().unwrap(), &mut cache.feat);
        dense_forward_into(
            params,
            &self.dense_hidden,
            &cache.feat,
            &mut cache.hidden_pre,
        );
        for (a, &v) in cache.hidden_act.iter_mut().zip(&cache.hidden_pre) {
            *a = relu(v);
        }
        dense_forward_into(
            params,
            &self.dense_out,
            &cache.hidden_act,
            &mut cache.logits,
        );
    }

    /// The longest pre-activation of any conv block.
    fn widest_pre(&self) -> usize {
        self.convs.iter().map(ConvLayerMeta::pre_len).max().unwrap()
    }

    /// Global average pooling of the last conv block's `[c][y][x]` output
    /// into one feature per channel.
    fn global_avg_pool(&self, act: &[f32], feat: &mut [f32]) {
        let last_conv = self.convs.last().unwrap();
        let spatial = last_conv.out_h * last_conv.out_w;
        for (c, f) in feat.iter_mut().enumerate() {
            let mut acc = 0.0;
            for s in 0..spatial {
                acc += act[c * spatial + s];
            }
            *f = acc / spatial as f32;
        }
    }

    /// Backward pass for one sample from its forward `cache`: the dense
    /// gradients go straight into `grad`, the conv gradients into
    /// `backward.conv`'s lane-grouped copy. Returns the sample's loss and
    /// whether its prediction was correct.
    fn backward_sample(
        &self,
        params: &[f32],
        cache: &SampleCache,
        label: usize,
        scale: f32,
        backward: &mut Backward,
        grad: &mut [f32],
    ) -> (f32, bool) {
        let Backward {
            conv: conv_grads,
            d_logits,
            d_hidden,
            d_feat,
            d_act,
            d_pre,
        } = backward;
        fedlps_tensor::ops::softmax_into(d_logits, &cache.logits);
        let loss = cross_entropy(d_logits, label);
        let correct = fedlps_tensor::ops::argmax(&cache.logits) == label;

        // d loss / d logits.
        d_logits[label] -= 1.0;
        for v in d_logits.iter_mut() {
            *v *= scale;
        }

        // Output dense layer.
        dense_backward(
            params,
            &self.dense_out,
            &cache.hidden_act,
            d_logits,
            grad,
            d_hidden,
        );
        // Hidden dense layer (through ReLU).
        for (d, &pre) in d_hidden.iter_mut().zip(cache.hidden_pre.iter()) {
            *d *= relu_grad(pre);
        }
        dense_backward(
            params,
            &self.dense_hidden,
            &cache.feat,
            d_hidden,
            grad,
            d_feat,
        );

        // Global average pooling backward.
        let last_conv = self.convs.last().unwrap();
        let spatial = last_conv.out_h * last_conv.out_w;
        for (d_channel, &d) in d_act[..last_conv.out_len()]
            .chunks_exact_mut(spatial)
            .zip(d_feat.iter())
        {
            d_channel.fill(d / spatial as f32);
        }

        // Conv blocks in reverse.
        for (li, conv) in self.convs.iter().enumerate().rev() {
            // Un-pool if this block pooled.
            let d_out = &mut d_pre[..conv.pre_len()];
            let d_pooled = &d_act[..conv.out_len()];
            if conv.pooled {
                avg_pool_backward(d_pooled, conv.out_channels, conv.in_h, conv.in_w, d_out);
            } else {
                d_out.copy_from_slice(d_pooled);
            }
            // Through the ReLU.
            for (d, &pre) in d_out.iter_mut().zip(cache.pres[li].iter()) {
                *d *= relu_grad(pre);
            }
            let d_input = (li > 0).then(|| &mut d_act[..conv.in_len()]);
            conv_grads.backward(li, conv, cache.block_input(li), d_out, d_input);
        }
        (loss, correct)
    }
}

/// One sample's forward caches, allocated once per
/// [`loss_and_grad`](ModelArch::loss_and_grad) call and overwritten by each
/// sample.
struct SampleCache<'x> {
    input: &'x [f32],
    acts: Vec<Vec<f32>>,
    pres: Vec<Vec<f32>>,
    /// A pooled block's ReLU output before pooling.
    relu: Vec<f32>,
    feat: Vec<f32>,
    hidden_pre: Vec<f32>,
    hidden_act: Vec<f32>,
    logits: Vec<f32>,
}

impl SampleCache<'_> {
    fn new(net: &ConvNet) -> Self {
        Self {
            input: &[],
            acts: net.convs.iter().map(|c| vec![0.0; c.out_len()]).collect(),
            pres: net.convs.iter().map(|c| vec![0.0; c.pre_len()]).collect(),
            relu: vec![0.0; net.widest_pre()],
            feat: vec![0.0; net.dense_hidden.in_dim],
            hidden_pre: vec![0.0; net.dense_hidden.out_dim],
            hidden_act: vec![0.0; net.dense_hidden.out_dim],
            logits: vec![0.0; net.dense_out.out_dim],
        }
    }

    /// The input of conv block `li`: the sample, or the previous block's output.
    fn block_input(&self, li: usize) -> &[f32] {
        if li == 0 {
            self.input
        } else {
            &self.acts[li - 1]
        }
    }
}

/// The backward pass's buffers, allocated once per
/// [`loss_and_grad`](ModelArch::loss_and_grad) call and overwritten by each
/// sample.
struct Backward {
    conv: ConvGrads,
    d_logits: Vec<f32>,
    d_hidden: Vec<f32>,
    d_feat: Vec<f32>,
    /// Gradient w.r.t. a block's (pooled) output, which is the next block's
    /// input.
    d_act: Vec<f32>,
    /// Gradient w.r.t. a block's pre-activation.
    d_pre: Vec<f32>,
}

impl Backward {
    fn new(net: &ConvNet, params: &[f32], grad: &[f32]) -> Self {
        Self {
            conv: ConvGrads::new(&net.convs, params, grad),
            d_logits: vec![0.0; net.dense_out.out_dim],
            d_hidden: vec![0.0; net.dense_hidden.out_dim],
            d_feat: vec![0.0; net.dense_hidden.in_dim],
            d_act: vec![0.0; net.convs.iter().map(ConvLayerMeta::out_len).max().unwrap()],
            d_pre: vec![0.0; net.widest_pre()],
        }
    }
}

/// Block `conv`'s `[oc][ic][ky][kx]` weights and `[oc]` biases in `values`
/// (parameters or their gradients), with output channels innermost in
/// [`LANE`]-wide groups: `[oc / LANE][ic][ky][kx][oc % LANE]`, each group
/// closed by its `[oc % LANE]` biases, the last group's missing channels zero.
fn lane_grouped(conv: &ConvLayerMeta, values: &[f32]) -> Vec<f32> {
    let mut layout =
        vec![0.0f32; conv.out_channels.div_ceil(LANE) * (conv.per_channel() + 1) * LANE];
    for (at, slot) in lane_slots(conv) {
        layout[slot] = values[at];
    }
    layout
}

/// Every weight and bias of block `conv`: its index in the parameter vector
/// and its slot in the [`lane_grouped`] layout.
fn lane_slots(conv: &ConvLayerMeta) -> impl Iterator<Item = (usize, usize)> + '_ {
    let per_channel = conv.per_channel();
    (0..conv.out_channels).flat_map(move |oc| {
        let slot = oc / LANE * (per_channel + 1) * LANE + oc % LANE;
        let weights =
            (0..per_channel).map(move |t| (conv.w_start + oc * per_channel + t, slot + t * LANE));
        weights.chain(std::iter::once((
            conv.b_start + oc,
            slot + per_channel * LANE,
        )))
    })
}

/// The conv forward kernel's weights, laid out once per `evaluate` /
/// `loss_and_grad` call: each block's [`lane_grouped`] parameters.
struct ConvKernel {
    blocks: Vec<Vec<f32>>,
}

impl ConvKernel {
    fn new(convs: &[ConvLayerMeta], params: &[f32]) -> Self {
        let blocks = convs
            .iter()
            .map(|conv| lane_grouped(conv, params))
            .collect();
        Self { blocks }
    }

    /// 3x3 same-padding convolution of block `li`'s `[ic][y][x]` input into
    /// `out`'s `[oc][y][x]` pre-activations.
    ///
    /// Every output element accumulates exactly the terms of the scalar
    /// reference, in its order: the bias first, then `(ic, ky, kx)` ascending
    /// over the in-image taps only — the walk is pixel → input channel → the
    /// pixel's tap list, so an out-of-image tap is skipped, never added as
    /// zero — one product at a time. Only the traversal differs: [`LANE`]
    /// output channels are held in a register accumulator while the taps
    /// stream through it, and two such groups share each walk of a tap list.
    fn conv_forward(&self, li: usize, conv: &ConvLayerMeta, input: &[f32], out: &mut [f32]) {
        let group_len = (conv.per_channel() + 1) * LANE;
        let groups = conv.out_channels.div_ceil(LANE);
        let block = &self.blocks[li];
        for (p, taps) in conv.taps.pixels().enumerate() {
            let mut g = 0;
            while g < groups {
                let paired = g + 1 < groups;
                let span = &block[g * group_len..(g + 1 + usize::from(paired)) * group_len];
                if paired {
                    pixel_sums::<2>(conv, span, taps, input, g * LANE, p, out);
                } else {
                    pixel_sums::<1>(conv, span, taps, input, g * LANE, p, out);
                }
                g += 1 + usize::from(paired);
            }
        }
    }
}

/// Pixel `p`'s pre-activations for the `G` lane groups in `groups` (whose
/// first channel is `first`), over the pixel's `taps`, written into `out`.
fn pixel_sums<const G: usize>(
    conv: &ConvLayerMeta,
    groups: &[f32],
    taps: &[(u16, u16)],
    input: &[f32],
    first: usize,
    p: usize,
    out: &mut [f32],
) {
    let group_len = groups.len() / G;
    let group: [&[f32]; G] = std::array::from_fn(|j| &groups[j * group_len..(j + 1) * group_len]);
    let mut acc = [[0.0f32; LANE]; G];
    for (a, weights) in acc.iter_mut().zip(&group) {
        a.copy_from_slice(&weights[group_len - LANE..]);
    }
    let plane = conv.plane();
    for (ic, values) in input[..conv.in_len()].chunks_exact(plane).enumerate() {
        let rows: [&[f32]; G] =
            std::array::from_fn(|j| &group[j][ic * TAPS * LANE..(ic + 1) * TAPS * LANE]);
        for &(at, k) in taps {
            let (at, k) = (usize::from(at), usize::from(k));
            let v = values[at];
            for (a, row) in acc.iter_mut().zip(&rows) {
                for (a, &wv) in a.iter_mut().zip(&row[k * LANE..(k + 1) * LANE]) {
                    *a += wv * v;
                }
            }
        }
    }
    let live = conv.out_channels - first;
    for (oc, &a) in (first..).zip(acc.as_flattened().iter().take(live)) {
        out[oc * plane + p] = a;
    }
}

/// The conv backward kernel's state for one `loss_and_grad` call.
struct ConvGrads {
    /// Each block's weight and bias gradients, [`lane_grouped`]: loaded from
    /// `grad` by [`new`](Self::new), written back by [`store`](Self::store).
    lanes: Vec<Vec<f32>>,
    /// Each block's weights as `[oc][ky][kx][ic]`, input channels innermost
    /// and zero-padded to a [`LANE`] multiple; empty for block 0, whose
    /// input gradient nothing reads.
    transposed: Vec<Vec<f32>>,
    /// An input gradient in the same channels-innermost `[y][x][ic]` layout.
    d_input: Vec<f32>,
}

impl ConvGrads {
    fn new(convs: &[ConvLayerMeta], params: &[f32], grad: &[f32]) -> Self {
        let lanes = convs.iter().map(|conv| lane_grouped(conv, grad)).collect();
        let transposed = convs
            .iter()
            .enumerate()
            .map(|(li, conv)| {
                if li == 0 {
                    return Vec::new();
                }
                let padded = conv.in_channels.next_multiple_of(LANE);
                let mut layout = vec![0.0f32; conv.out_channels * TAPS * padded];
                for (at, &w) in params[conv.w_start..conv.b_start].iter().enumerate() {
                    let (oc, ic, k) = (
                        at / conv.per_channel(),
                        at / TAPS % conv.in_channels,
                        at % TAPS,
                    );
                    layout[(oc * TAPS + k) * padded + ic] = w;
                }
                layout
            })
            .collect();
        let widest = convs
            .iter()
            .skip(1)
            .map(|conv| conv.plane() * conv.in_channels.next_multiple_of(LANE))
            .max()
            .unwrap_or(0);
        Self {
            lanes,
            transposed,
            d_input: vec![0.0; widest],
        }
    }

    /// Writes the accumulated weight and bias gradients back into `grad`.
    fn store(&self, convs: &[ConvLayerMeta], grad: &mut [f32]) {
        for (conv, layout) in convs.iter().zip(&self.lanes) {
            for (at, slot) in lane_slots(conv) {
                grad[at] = layout[slot];
            }
        }
    }

    /// Backward of block `li`'s 3x3 same-padding convolution for one sample:
    /// accumulates the weight and bias gradients of `d_out` (`[oc][y][x]`)
    /// and, when `d_input` is given, overwrites it with the gradient w.r.t.
    /// the `[ic][y][x]` `input`.
    ///
    /// Every sum takes the terms of the scalar reference in its order (see
    /// the module doc): a pixel whose output gradient is zero contributes to
    /// none of them, and a weight or bias whose lane has a zero gradient
    /// keeps its value through a select.
    fn backward(
        &mut self,
        li: usize,
        conv: &ConvLayerMeta,
        input: &[f32],
        d_out: &[f32],
        d_input: Option<&mut [f32]>,
    ) {
        let plane = conv.plane();
        let per_channel = conv.per_channel();
        // Weight and bias gradients, LANE output channels at a time.
        let groups = self.lanes[li].chunks_exact_mut((per_channel + 1) * LANE);
        for (g, group) in groups.enumerate() {
            let (weights, bias) = group.split_at_mut(per_channel * LANE);
            let channels = g * LANE..conv.out_channels.min((g + 1) * LANE);
            let mut d_bias = [0.0f32; LANE];
            for (p, taps) in conv.taps.pixels().enumerate() {
                let mut d = [0.0f32; LANE];
                for (d, oc) in d.iter_mut().zip(channels.clone()) {
                    *d = d_out[oc * plane + p];
                }
                if d.iter().all(|&d| d == 0.0) {
                    continue;
                }
                for (b, &d) in d_bias.iter_mut().zip(&d) {
                    *b = if d != 0.0 { *b + d } else { *b };
                }
                for (ic, values) in input[..conv.in_len()].chunks_exact(plane).enumerate() {
                    let rows = &mut weights[ic * TAPS * LANE..(ic + 1) * TAPS * LANE];
                    for &(at, k) in taps {
                        let (at, k) = (usize::from(at), usize::from(k));
                        let v = values[at];
                        for (acc, &d) in rows[k * LANE..(k + 1) * LANE].iter_mut().zip(&d) {
                            *acc = if d != 0.0 { *acc + d * v } else { *acc };
                        }
                    }
                }
            }
            for (b, d) in bias.iter_mut().zip(d_bias) {
                *b += d;
            }
        }

        // Input gradient, input channels innermost.
        let Some(d_input) = d_input else {
            return;
        };
        let padded = conv.in_channels.next_multiple_of(LANE);
        let lanes = &mut self.d_input[..plane * padded];
        lanes.fill(0.0);
        let weights = self.transposed[li].chunks_exact(TAPS * padded);
        for (d_plane, w_oc) in d_out.chunks_exact(plane).zip(weights) {
            for (taps, &d) in conv.taps.pixels().zip(d_plane) {
                if d == 0.0 {
                    continue;
                }
                for &(at, k) in taps {
                    let (at, k) = (usize::from(at), usize::from(k));
                    let acc = &mut lanes[at * padded..(at + 1) * padded];
                    for (acc, &w) in acc.iter_mut().zip(&w_oc[k * padded..(k + 1) * padded]) {
                        *acc += d * w;
                    }
                }
            }
        }
        for (ic, d_plane) in d_input.chunks_exact_mut(plane).enumerate() {
            for (d, pixel) in d_plane.iter_mut().zip(lanes.chunks_exact(padded)) {
                *d = pixel[ic];
            }
        }
    }
}

/// 2x2 average pooling (stride 2, floor semantics) into `out`.
fn avg_pool_into(input: &[f32], channels: usize, h: usize, w: usize, out: &mut [f32]) {
    let oh = h / 2;
    let ow = w / 2;
    for c in 0..channels {
        for y in 0..oh {
            for x in 0..ow {
                let mut acc = 0.0;
                for dy in 0..2 {
                    for dx in 0..2 {
                        acc += input[c * h * w + (2 * y + dy) * w + (2 * x + dx)];
                    }
                }
                out[c * oh * ow + y * ow + x] = acc / 4.0;
            }
        }
    }
}

/// Backward of 2x2 average pooling into `d_in`; a row or column that floor
/// semantics left out of every window gets zero.
fn avg_pool_backward(d_out: &[f32], channels: usize, h: usize, w: usize, d_in: &mut [f32]) {
    let oh = h / 2;
    let ow = w / 2;
    d_in.fill(0.0);
    for c in 0..channels {
        for y in 0..oh {
            for x in 0..ow {
                let g = d_out[c * oh * ow + y * ow + x] / 4.0;
                for dy in 0..2 {
                    for dx in 0..2 {
                        d_in[c * h * w + (2 * y + dy) * w + (2 * x + dx)] = g;
                    }
                }
            }
        }
    }
}

/// Dense forward `y = W x + b` for one sample, into `out`.
fn dense_forward_into(params: &[f32], meta: &DenseMeta, input: &[f32], out: &mut [f32]) {
    for (j, o) in out.iter_mut().enumerate() {
        let row = &params[meta.w_start + j * meta.in_dim..meta.w_start + (j + 1) * meta.in_dim];
        let mut acc = params[meta.b_start + j];
        for (&w, &x) in row.iter().zip(input.iter()) {
            acc += w * x;
        }
        *o = acc;
    }
}

/// Dense backward: accumulates weight/bias gradients and overwrites `d_in`
/// with the gradient w.r.t. `input`.
fn dense_backward(
    params: &[f32],
    meta: &DenseMeta,
    input: &[f32],
    d_out: &[f32],
    grad: &mut [f32],
    d_in: &mut [f32],
) {
    d_in.fill(0.0);
    for (j, &g) in d_out.iter().enumerate() {
        grad[meta.b_start + j] += g;
        let w_row = meta.w_start + j * meta.in_dim;
        for i in 0..meta.in_dim {
            grad[w_row + i] += g * input[i];
            d_in[i] += g * params[w_row + i];
        }
    }
}

impl ModelArch for ConvNet {
    fn name(&self) -> String {
        format!("convnet{:?}+fc{}", self.config.channels, self.config.hidden)
    }

    fn param_count(&self) -> usize {
        self.param_count
    }

    fn unit_layout(&self) -> &UnitLayout {
        self.layout.get_or_init(|| self.build_layout())
    }

    fn init_params(&self, rng: &mut StdRng) -> Vec<f32> {
        let mut params = vec![0.0f32; self.param_count];
        for conv in &self.convs {
            let w_len = conv.out_channels * conv.in_channels * KERNEL * KERNEL;
            Initializer::He.fill(
                &mut params[conv.w_start..conv.w_start + w_len],
                conv.in_channels * KERNEL * KERNEL,
                conv.out_channels,
                rng,
            );
        }
        for dense in [self.dense_hidden, self.dense_out] {
            Initializer::He.fill(
                &mut params[dense.w_start..dense.w_start + dense.in_dim * dense.out_dim],
                dense.in_dim,
                dense.out_dim,
                rng,
            );
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
        let kernel = ConvKernel::new(&self.convs, params);
        let mut cache = SampleCache::new(self);
        let mut backward = Backward::new(self, params, grad);
        let mut loss = 0.0f64;
        let mut correct = 0usize;
        for &idx in indices {
            let (x, label) = data.sample(idx);
            self.forward_sample_into(&kernel, params, x, &mut cache);
            let (sample_loss, ok) =
                self.backward_sample(params, &cache, label, scale, &mut backward, grad);
            loss += sample_loss as f64;
            if ok {
                correct += 1;
            }
        }
        backward.conv.store(&self.convs, grad);
        TrainStats {
            loss: loss / indices.len() as f64,
            accuracy: correct as f64 / indices.len() as f64,
        }
    }

    fn evaluate(&self, params: &[f32], data: &Dataset) -> EvalStats {
        if data.is_empty() {
            return EvalStats::empty();
        }
        // Forward only, with no backward caches: every buffer is allocated
        // once per call. Each block convolves `cur` into `next`, applies the
        // ReLU in place and pools back into `cur` (or swaps the two).
        let kernel = ConvKernel::new(&self.convs, params);
        let widest = self.widest_pre();
        let mut cur = vec![0.0f32; widest];
        let mut next = vec![0.0f32; widest];
        let mut feat = vec![0.0f32; self.dense_hidden.in_dim];
        let mut hidden = vec![0.0f32; self.dense_hidden.out_dim];
        let mut logits = vec![0.0f32; self.dense_out.out_dim];
        let mut probs = vec![0.0f32; self.dense_out.out_dim];
        let mut loss = 0.0f64;
        let mut correct = 0usize;
        for i in 0..data.len() {
            let (x, label) = data.sample(i);
            for (li, conv) in self.convs.iter().enumerate() {
                let input = if li == 0 { x } else { &cur[..conv.in_len()] };
                let pre = &mut next[..conv.pre_len()];
                kernel.conv_forward(li, conv, input, pre);
                for v in pre.iter_mut() {
                    *v = relu(*v);
                }
                if conv.pooled {
                    let out = &mut cur[..conv.out_len()];
                    avg_pool_into(pre, conv.out_channels, conv.in_h, conv.in_w, out);
                } else {
                    std::mem::swap(&mut cur, &mut next);
                }
            }
            let last_conv = self.convs.last().unwrap();
            self.global_avg_pool(&cur[..last_conv.out_len()], &mut feat);
            dense_forward_into(params, &self.dense_hidden, &feat, &mut hidden);
            for v in &mut hidden {
                *v = relu(*v);
            }
            dense_forward_into(params, &self.dense_out, &hidden, &mut logits);
            fedlps_tensor::ops::softmax_into(&mut probs, &logits);
            loss += cross_entropy(&probs, label) as f64;
            if fedlps_tensor::ops::argmax(&logits) == label {
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
        self.dense_out.w_start..self.param_count
    }

    fn train_flops_per_sample(&self, retained_per_layer: &[usize]) -> f64 {
        assert_eq!(retained_per_layer.len(), self.convs.len() + 1);
        let mut forward = 0.0;
        let mut in_c = self.config.in_channels;
        for (conv, &retained) in self.convs.iter().zip(retained_per_layer.iter()) {
            forward += conv_layer_flops(in_c, retained, KERNEL, conv.in_h, conv.in_w);
            in_c = retained;
        }
        let hidden_retained = retained_per_layer[self.convs.len()];
        forward += dense_layer_flops(in_c, hidden_retained);
        forward += dense_layer_flops(hidden_retained, self.config.num_classes);
        forward * TRAIN_FLOPS_MULTIPLIER
    }

    fn pack(&self, kept: &KeptUnits) -> Option<PackedModel> {
        assert_eq!(
            kept.num_layers(),
            self.convs.len() + 1,
            "one kept list per conv block plus the hidden dense layer"
        );
        if !kept.is_executable() {
            return None; // an empty block would disconnect the network
        }
        let packed = ConvNet::new(ConvNetConfig {
            in_channels: self.config.in_channels,
            height: self.config.height,
            width: self.config.width,
            channels: kept
                .layers()
                .take(self.convs.len())
                .map(<[usize]>::len)
                .collect(),
            hidden: kept.layer(self.convs.len()).len(),
            num_classes: self.config.num_classes,
        });
        // Pooling decisions depend only on the spatial sizes, so the packed
        // network visits the same pixels with fewer channels.
        let mut map = GatherMap::with_capacity(packed.param_count());
        for (li, conv) in self.convs.iter().enumerate() {
            let per_channel = conv.in_channels * KERNEL * KERNEL;
            let in_kept = li.checked_sub(1).map(|p| kept.layer(p));
            for &oc in kept.layer(li) {
                assert!(oc < conv.out_channels, "kept channel {oc} out of range");
                let oc_start = conv.w_start + oc * per_channel;
                match in_kept {
                    None => map.push_range(oc_start, per_channel),
                    Some(cols) => {
                        for &ic in cols {
                            map.push_range(oc_start + ic * KERNEL * KERNEL, KERNEL * KERNEL);
                        }
                    }
                }
            }
            for &oc in kept.layer(li) {
                map.push(conv.b_start + oc);
            }
        }
        let hidden_kept = kept.layer(self.convs.len());
        let feat_kept = kept.layer(self.convs.len() - 1);
        for &j in hidden_kept {
            assert!(
                j < self.dense_hidden.out_dim,
                "kept neuron {j} out of range"
            );
            let row = self.dense_hidden.w_start + j * self.dense_hidden.in_dim;
            for &c in feat_kept {
                map.push(row + c);
            }
        }
        for &j in hidden_kept {
            map.push(self.dense_hidden.b_start + j);
        }
        for cls in 0..self.dense_out.out_dim {
            let row = self.dense_out.w_start + cls * self.dense_out.in_dim;
            for &j in hidden_kept {
                map.push(row + j);
            }
        }
        map.push_range(self.dense_out.b_start, self.dense_out.out_dim);
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
    use crate::activation::softmax_cross_entropy;
    use crate::gradcheck::assert_gradients_close;
    use fedlps_data::dataset::InputKind;
    use fedlps_tensor::{rng_from_seed, Matrix};
    use proptest::prelude::*;
    use rand::Rng;

    /// The scalar 3x3 same-padding convolution the kernel replaced, kept as
    /// its oracle (as `matmul*_into_reference` is for the matmul kernels):
    /// one output element at a time, straight off the `[oc][ic][ky][kx]`
    /// parameter layout.
    fn conv_forward_reference(params: &[f32], conv: &ConvLayerMeta, input: &[f32]) -> Vec<f32> {
        let (h, w) = (conv.in_h, conv.in_w);
        let mut out = vec![0.0f32; conv.out_channels * h * w];
        let per_channel = conv.in_channels * KERNEL * KERNEL;
        for oc in 0..conv.out_channels {
            let w_base = conv.w_start + oc * per_channel;
            let bias = params[conv.b_start + oc];
            for y in 0..h {
                for x in 0..w {
                    let mut acc = bias;
                    for ic in 0..conv.in_channels {
                        let in_base = ic * h * w;
                        let k_base = w_base + ic * KERNEL * KERNEL;
                        for ky in 0..KERNEL {
                            let iy = y as isize + ky as isize - 1;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..KERNEL {
                                let ix = x as isize + kx as isize - 1;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += params[k_base + ky * KERNEL + kx]
                                    * input[in_base + iy as usize * w + ix as usize];
                            }
                        }
                    }
                    out[oc * h * w + y * w + x] = acc;
                }
            }
        }
        out
    }

    /// The scalar backward of the 3x3 same-padding convolution the kernel
    /// replaced, kept as its oracle: accumulates the weight and bias
    /// gradients of `d_out` into `grad` one output channel at a time and
    /// returns the input gradient (empty unless `need_d_input`).
    fn conv_backward_reference(
        params: &[f32],
        conv: &ConvLayerMeta,
        input: &[f32],
        d_out: &[f32],
        grad: &mut [f32],
        need_d_input: bool,
    ) -> Vec<f32> {
        let (h, w) = (conv.in_h, conv.in_w);
        let per_channel = conv.in_channels * KERNEL * KERNEL;
        let mut d_input = vec![
            0.0f32;
            if need_d_input {
                conv.in_channels * h * w
            } else {
                0
            }
        ];
        for oc in 0..conv.out_channels {
            let w_base = conv.w_start + oc * per_channel;
            let mut d_bias = 0.0f32;
            for y in 0..h {
                for x in 0..w {
                    let g = d_out[oc * h * w + y * w + x];
                    if g == 0.0 {
                        continue;
                    }
                    d_bias += g;
                    for ic in 0..conv.in_channels {
                        let in_base = ic * h * w;
                        let k_base = w_base + ic * KERNEL * KERNEL;
                        for ky in 0..KERNEL {
                            let iy = y as isize + ky as isize - 1;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..KERNEL {
                                let ix = x as isize + kx as isize - 1;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let in_idx = in_base + iy as usize * w + ix as usize;
                                grad[k_base + ky * KERNEL + kx] += g * input[in_idx];
                                if need_d_input {
                                    d_input[in_idx] += g * params[k_base + ky * KERNEL + kx];
                                }
                            }
                        }
                    }
                }
            }
            grad[conv.b_start + oc] += d_bias;
        }
        d_input
    }

    impl ConvNet {
        /// One sample's training forward pass into a fresh cache.
        fn forward_sample<'x>(
            &self,
            kernel: &ConvKernel,
            params: &[f32],
            x: &'x [f32],
        ) -> SampleCache<'x> {
            let mut cache = SampleCache::new(self);
            self.forward_sample_into(kernel, params, x, &mut cache);
            cache
        }
    }

    /// `v`, or `+0.0` / `-0.0` with probability `zeros / 2` each.
    fn with_signed_zeros(v: f32, zeros: f64, rng: &mut StdRng) -> f32 {
        let u = rng.gen_range(0.0f64..1.0);
        if u < zeros / 2.0 {
            0.0
        } else if u < zeros {
            -0.0
        } else {
            v
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The vectorized kernel's pre-activations equal the scalar reference
        /// bit for bit, block by block, and `evaluate`'s forward-only loop
        /// equals the cached training forward pass plus
        /// `softmax_cross_entropy`. Shapes cover output-channel lane tails,
        /// odd and non-square images, pooled and unpooled blocks (down to
        /// 2x2 inputs); parameters and inputs carry signed zeros, and whole
        /// units are masked the way masked-dense training masks them.
        #[test]
        fn kernel_matches_scalar_reference_bitwise(
            in_channels in 1usize..=5,
            blocks in 1usize..=3,
            c0 in 1usize..=19,
            c1 in 1usize..=19,
            c2 in 1usize..=19,
            height in 3usize..=9,
            width in 3usize..=9,
            hidden in 1usize..=6,
            num_classes in 2usize..=4,
            samples in 1usize..=5,
            zeros in 0.0f64..0.5,
            seed in 0u64..1_000_000,
        ) {
            let net = ConvNet::new(ConvNetConfig {
                in_channels,
                height,
                width,
                channels: [c0, c1, c2][..blocks].to_vec(),
                hidden,
                num_classes,
            });
            let mut rng = rng_from_seed(seed);
            let mut params = net.init_params(&mut rng);
            for p in params.iter_mut() {
                *p = with_signed_zeros(*p, zeros, &mut rng);
            }
            // `p * 0.0` keeps the sign of `p`, as a masked-dense step does.
            let keep: Vec<bool> = (0..net.unit_layout().total_units())
                .map(|_| rng.gen_range(0.0f64..1.0) >= 0.25)
                .collect();
            let mask = net.unit_layout().expand_mask(&keep);
            for (p, m) in params.iter_mut().zip(mask.iter()) {
                *p *= m;
            }
            let features = Matrix::from_fn(samples, in_channels * height * width, |_, _| {
                let v = rng.gen_range(-2.0f32..2.0);
                with_signed_zeros(v, zeros, &mut rng)
            });
            let labels = (0..samples).map(|i| i % num_classes).collect();
            let input = InputKind::Image { channels: in_channels, height, width };
            let data = Dataset::new(features, labels, num_classes, input);

            let kernel = ConvKernel::new(&net.convs, &params);
            let mut loss = 0.0f64;
            let mut correct = 0usize;
            for i in 0..data.len() {
                let (x, label) = data.sample(i);
                let cache = net.forward_sample(&kernel, &params, x);
                for (li, conv) in net.convs.iter().enumerate() {
                    let reference = conv_forward_reference(&params, conv, cache.block_input(li));
                    prop_assert_eq!(
                        bits(&cache.pres[li]),
                        bits(&reference),
                        "block {} of sample {}",
                        li,
                        i
                    );
                }
                let (sample_loss, _) = softmax_cross_entropy(&cache.logits, label);
                loss += sample_loss as f64;
                if fedlps_tensor::ops::argmax(&cache.logits) == label {
                    correct += 1;
                }
            }
            let eval = net.evaluate(&params, &data);
            prop_assert_eq!(eval.loss.to_bits(), (loss / data.len() as f64).to_bits());
            prop_assert_eq!(eval.accuracy, correct as f64 / data.len() as f64);
            prop_assert_eq!(eval.samples, data.len());
        }
    }

    /// `v`, or `±inf` with probability `infs / 2` each.
    fn with_infinities(v: f32, infs: f64, rng: &mut StdRng) -> f32 {
        let u = rng.gen_range(0.0f64..1.0);
        if u < infs / 2.0 {
            f32::INFINITY
        } else if u < infs {
            f32::NEG_INFINITY
        } else {
            v
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The lane-grouped backward equals `conv_backward_reference` bit for
        /// bit: the weight and bias gradients accumulated over several
        /// samples into a pre-seeded gradient (signed zeros among nonzero
        /// values, so a `-0.0` that an untouched weight must keep is
        /// present), and each sample's input gradient. Both blocks of a
        /// two-block net run, so output- and input-channel lane tails are
        /// covered; parameters carry signed zeros and masked units; output
        /// gradients carry signed zeros, whole zero pixels and the whole
        /// zero channels of masked units; inputs carry signed zeros and the
        /// odd infinity, which a zero output gradient must not turn into a
        /// NaN.
        #[test]
        fn backward_matches_scalar_reference_bitwise(
            in_channels in 1usize..=5,
            c0 in 1usize..=19,
            c1 in 1usize..=19,
            height in 3usize..=9,
            width in 3usize..=9,
            samples in 1usize..=3,
            zeros in 0.0f64..0.6,
            seed in 0u64..1_000_000,
        ) {
            let net = ConvNet::new(ConvNetConfig {
                in_channels,
                height,
                width,
                channels: vec![c0, c1],
                hidden: 2,
                num_classes: 2,
            });
            let mut rng = rng_from_seed(seed);
            let mut params = net.init_params(&mut rng);
            for p in params.iter_mut() {
                *p = with_signed_zeros(*p, zeros, &mut rng);
            }
            let keep: Vec<bool> = (0..net.unit_layout().total_units())
                .map(|_| rng.gen_range(0.0f64..1.0) >= 0.25)
                .collect();
            let mask = net.unit_layout().expand_mask(&keep);
            for (p, m) in params.iter_mut().zip(mask.iter()) {
                *p *= m;
            }
            let seeded: Vec<f32> = (0..net.param_count())
                .map(|_| {
                    let v = rng.gen_range(-1.0f32..1.0);
                    with_signed_zeros(v, 0.5, &mut rng)
                })
                .collect();

            let mut expected = seeded.clone();
            let mut grads = ConvGrads::new(&net.convs, &params, &seeded);
            for sample in 0..samples {
                let mut first_unit = 0;
                for (li, conv) in net.convs.iter().enumerate() {
                    let input: Vec<f32> = (0..conv.in_len())
                        .map(|_| {
                            let v = rng.gen_range(-2.0f32..2.0);
                            let v = with_signed_zeros(v, zeros, &mut rng);
                            with_infinities(v, 0.02, &mut rng)
                        })
                        .collect();
                    let plane = conv.plane();
                    let dead_pixels: Vec<bool> =
                        (0..plane).map(|_| rng.gen_range(0.0f64..1.0) < 0.2).collect();
                    let mut d_out = vec![0.0f32; conv.pre_len()];
                    for (at, d) in d_out.iter_mut().enumerate() {
                        let v = rng.gen_range(-1.0f32..1.0);
                        let v = with_signed_zeros(v, zeros, &mut rng);
                        let live = keep[first_unit + at / plane] && !dead_pixels[at % plane];
                        *d = if live { v } else { with_signed_zeros(v, 1.0, &mut rng) };
                    }
                    first_unit += conv.out_channels;

                    let reference =
                        conv_backward_reference(&params, conv, &input, &d_out, &mut expected, li > 0);
                    let mut d_input = vec![f32::NAN; reference.len()];
                    let wanted = (li > 0).then_some(&mut d_input[..]);
                    grads.backward(li, conv, &input, &d_out, wanted);
                    prop_assert_eq!(
                        bits(&d_input),
                        bits(&reference),
                        "input gradient of block {} in sample {}",
                        li,
                        sample
                    );
                }
            }
            let mut got = seeded.clone();
            grads.store(&net.convs, &mut got);
            for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                prop_assert_eq!(g.to_bits(), e.to_bits(), "gradient diverges at parameter {}", i);
            }
        }

        /// Packed training and evaluation equal masked-dense bit for bit on
        /// random shapes and keep sets down to one surviving unit per layer,
        /// the regime of small sparse ratios where packed blocks hold a few
        /// channels and every lane group is a tail: packed `loss_and_grad`,
        /// scattered, equals the masked-dense gradient at every parameter,
        /// with equal loss and accuracy, and packed `evaluate` equals
        /// masked-dense `evaluate`. Parameters and inputs carry signed zeros.
        #[test]
        fn packed_submodel_matches_masked_dense_across_lane_tails(
            in_channels in 1usize..=4,
            blocks in 1usize..=3,
            c0 in 1usize..=19,
            c1 in 1usize..=19,
            c2 in 1usize..=19,
            height in 3usize..=8,
            width in 3usize..=8,
            hidden in 1usize..=9,
            num_classes in 2usize..=4,
            samples in 1usize..=5,
            keep_rate in 0.05f64..1.0,
            zeros in 0.0f64..0.3,
            seed in 0u64..1_000_000,
        ) {
            let net = ConvNet::new(ConvNetConfig {
                in_channels,
                height,
                width,
                channels: [c0, c1, c2][..blocks].to_vec(),
                hidden,
                num_classes,
            });
            let mut rng = rng_from_seed(seed);
            let mut params = net.init_params(&mut rng);
            for p in params.iter_mut() {
                *p = with_signed_zeros(*p, zeros, &mut rng);
            }
            let kept: Vec<Vec<usize>> = net
                .unit_layout()
                .units_per_layer()
                .into_iter()
                .map(|units| {
                    let mut layer: Vec<usize> = (0..units)
                        .filter(|_| rng.gen_range(0.0f64..1.0) < keep_rate)
                        .collect();
                    if layer.is_empty() {
                        layer.push(rng.gen_range(0..units));
                    }
                    layer
                })
                .collect();
            let mut keep = vec![false; net.unit_layout().total_units()];
            let mut offset = 0;
            for (units, layer) in net.unit_layout().units_per_layer().iter().zip(&kept) {
                for &j in layer {
                    keep[offset + j] = true;
                }
                offset += units;
            }
            let mask = net.unit_layout().expand_mask(&keep);
            let masked: Vec<f32> = params.iter().zip(mask.iter()).map(|(p, m)| p * m).collect();
            let packed = net.pack(&KeptUnits::from_nested(&kept)).expect("packable");
            let features = Matrix::from_fn(samples, in_channels * height * width, |_, _| {
                let v = rng.gen_range(-2.0f32..2.0);
                with_signed_zeros(v, zeros, &mut rng)
            });
            let labels = (0..samples).map(|i| i % num_classes).collect();
            let input = InputKind::Image { channels: in_channels, height, width };
            let data = Dataset::new(features, labels, num_classes, input);
            let indices: Vec<usize> = (0..samples).collect();

            let mut dense_grad = vec![0.0f32; net.param_count()];
            let dense_stats = net.loss_and_grad(&masked, &data, &indices, &mut dense_grad);
            let mut pp = Vec::new();
            packed.gather_params(&masked, &mut pp);
            let mut pgrad = vec![0.0f32; packed.packed_len()];
            let packed_stats = packed.arch().loss_and_grad(&pp, &data, &indices, &mut pgrad);
            let mut scattered = vec![0.0f32; net.param_count()];
            packed.scatter_add(&pgrad, &mut scattered);

            prop_assert_eq!(dense_stats.loss.to_bits(), packed_stats.loss.to_bits());
            prop_assert_eq!(dense_stats.accuracy, packed_stats.accuracy);
            for (i, (d, p)) in dense_grad.iter().zip(scattered.iter()).enumerate() {
                prop_assert_eq!(d.to_bits(), p.to_bits(), "grad diverges at parameter {}", i);
            }
            let dense_eval = net.evaluate(&masked, &data);
            let packed_eval = packed.arch().evaluate(&pp, &data);
            prop_assert_eq!(dense_eval.loss.to_bits(), packed_eval.loss.to_bits());
            prop_assert_eq!(dense_eval.accuracy, packed_eval.accuracy);
        }
    }

    fn toy_convnet() -> ConvNet {
        ConvNet::new(ConvNetConfig {
            in_channels: 2,
            height: 6,
            width: 6,
            channels: vec![4, 6],
            hidden: 8,
            num_classes: 3,
        })
    }

    fn toy_image_dataset(n: usize) -> Dataset {
        let mut rng = rng_from_seed(9);
        let dim = 2 * 6 * 6;
        let features = Matrix::random_normal(n, dim, 1.0, &mut rng);
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        Dataset::new(
            features,
            labels,
            3,
            InputKind::Image {
                channels: 2,
                height: 6,
                width: 6,
            },
        )
    }

    #[test]
    fn param_count_and_units() {
        let net = toy_convnet();
        // conv0: 4*2*9 + 4 = 76; conv1: 6*4*9 + 6 = 222;
        // hidden: 8*6 + 8 = 56; out: 3*8 + 3 = 27.
        assert_eq!(net.param_count(), 76 + 222 + 56 + 27);
        assert_eq!(net.unit_layout().units_per_layer(), vec![4, 6, 8]);
    }

    #[test]
    fn spatial_dims_halve_with_pooling() {
        let net = toy_convnet();
        assert!(net.convs[0].pooled);
        assert_eq!((net.convs[0].out_h, net.convs[0].out_w), (3, 3));
        // 3x3 is too small to pool again.
        assert!(!net.convs[1].pooled);
        assert_eq!((net.convs[1].out_h, net.convs[1].out_w), (3, 3));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let net = toy_convnet();
        let data = toy_image_dataset(6);
        let mut rng = rng_from_seed(21);
        let params = net.init_params(&mut rng);
        let indices: Vec<usize> = (0..4).collect();
        assert_gradients_close(&net, &params, &data, &indices, 40, 2e-2, &mut rng);
    }

    #[test]
    fn training_reduces_loss() {
        let net = toy_convnet();
        let data = toy_image_dataset(18);
        let mut rng = rng_from_seed(2);
        let mut params = net.init_params(&mut rng);
        let indices: Vec<usize> = (0..data.len()).collect();
        let before = net.evaluate(&params, &data);
        for _ in 0..40 {
            let mut grad = vec![0.0; params.len()];
            net.loss_and_grad(&params, &data, &indices, &mut grad);
            fedlps_tensor::ops::axpy(&mut params, -0.3, &grad);
        }
        let after = net.evaluate(&params, &data);
        assert!(
            after.loss < before.loss,
            "loss {} -> {}",
            before.loss,
            after.loss
        );
    }

    #[test]
    fn masked_channel_is_inert() {
        let net = toy_convnet();
        let data = toy_image_dataset(5);
        let mut rng = rng_from_seed(3);
        let params = net.init_params(&mut rng);
        let mut keep = vec![true; net.unit_layout().total_units()];
        keep[1] = false; // mask the second channel of conv0
        let mask = net.unit_layout().expand_mask(&keep);
        let masked: Vec<f32> = params.iter().zip(mask.iter()).map(|(p, m)| p * m).collect();
        let base = net.evaluate(&masked, &data);
        // Changing nothing else, the masked channel's (zeroed) kernel is what
        // makes its activation exactly zero, so the bias of downstream layers
        // fully determines the output — evaluate twice to confirm determinism.
        let again = net.evaluate(&masked, &data);
        assert_eq!(base.loss, again.loss);
    }

    #[test]
    fn packed_submodel_matches_masked_dense_bitwise() {
        let net = toy_convnet(); // channels [4, 6], hidden 8
        let data = toy_image_dataset(8);
        let mut rng = rng_from_seed(11);
        let params = net.init_params(&mut rng);
        let kept = vec![
            vec![0usize, 2, 3],
            vec![1usize, 2, 5],
            vec![0usize, 3, 4, 6],
        ];
        let mut keep = vec![false; net.unit_layout().total_units()];
        let mut offset = 0;
        for (layer, k) in net.unit_layout().units_per_layer().iter().zip(&kept) {
            for &j in k {
                keep[offset + j] = true;
            }
            offset += layer;
        }
        let mask = net.unit_layout().expand_mask(&keep);
        let masked: Vec<f32> = params.iter().zip(mask.iter()).map(|(p, m)| p * m).collect();
        let packed = net.pack(&KeptUnits::from_nested(&kept)).expect("packable");

        let indices: Vec<usize> = (0..6).collect();
        let mut dense_grad = vec![0.0f32; net.param_count()];
        let dense_stats = net.loss_and_grad(&masked, &data, &indices, &mut dense_grad);

        let mut pp = Vec::new();
        packed.gather_params(&masked, &mut pp);
        let mut pgrad = vec![0.0f32; packed.packed_len()];
        let packed_stats = packed
            .arch()
            .loss_and_grad(&pp, &data, &indices, &mut pgrad);
        let mut scattered = vec![0.0f32; net.param_count()];
        packed.scatter_add(&pgrad, &mut scattered);

        assert_eq!(dense_stats.loss.to_bits(), packed_stats.loss.to_bits());
        assert_eq!(dense_stats.accuracy, packed_stats.accuracy);
        for (i, (d, p)) in dense_grad.iter().zip(scattered.iter()).enumerate() {
            assert_eq!(d.to_bits(), p.to_bits(), "grad diverges at parameter {i}");
        }
        let dense_eval = net.evaluate(&masked, &data);
        let packed_eval = packed.arch().evaluate(&pp, &data);
        assert_eq!(dense_eval.loss.to_bits(), packed_eval.loss.to_bits());
    }

    #[test]
    fn flops_monotone_in_width() {
        let net = toy_convnet();
        let dense = net.dense_train_flops_per_sample();
        let thin = net.train_flops_per_sample(&[2, 3, 4]);
        assert!(thin < dense);
        assert!(thin > 0.0);
    }

    #[test]
    fn avg_pool_roundtrip_shapes() {
        let input: Vec<f32> = (0..16).map(|v| v as f32).collect();
        let mut pooled = vec![0.0f32; 4];
        avg_pool_into(&input, 1, 4, 4, &mut pooled);
        assert!((pooled[0] - (0.0 + 1.0 + 4.0 + 5.0) / 4.0).abs() < 1e-6);
        let mut back = vec![f32::NAN; 16];
        avg_pool_backward(&pooled, 1, 4, 4, &mut back);
        assert!(
            back.iter().all(|v| v.is_finite()),
            "every input gets a gradient"
        );
        assert!((back[0] - pooled[0] / 4.0).abs() < 1e-6);
    }

    #[test]
    fn packed_submodel_builds_no_unit_layout() {
        let fresh = ConvNet::new(ConvNetConfig {
            channels: vec![2, 3],
            hidden: 5,
            ..toy_convnet().config().clone()
        });
        crate::pack::assert_packing_builds_no_layout(
            &toy_convnet(),
            &KeptUnits::from_nested(&[vec![1, 3], vec![0, 2, 5], vec![0, 1, 4, 6, 7]]),
            &toy_image_dataset(4),
            &fresh,
        );
    }
}
