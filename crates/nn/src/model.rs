//! The [`ModelArch`] trait: an architecture is a pure function of a flat
//! parameter vector.
//!
//! Federated-learning algorithms own parameters as `Vec<f32>` and hand them to
//! the architecture for loss/gradient evaluation. Keeping parameters outside
//! the architecture makes aggregation (weighted means of vectors), masking
//! (element-wise products) and personalization (one vector per client) trivial
//! and uniform across every algorithm in the workspace.

use fedlps_data::dataset::{Dataset, InputKind};
use fedlps_data::scenario::DatasetKind;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::convnet::{ConvNet, ConvNetConfig};
use crate::lstm::{LstmLm, LstmLmConfig};
use crate::mlp::{Mlp, MlpConfig};
use crate::unit::UnitLayout;

/// Loss/accuracy statistics of a forward pass over a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalStats {
    /// Mean cross-entropy loss.
    pub loss: f64,
    /// Top-1 accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Number of samples evaluated.
    pub samples: usize,
}

impl EvalStats {
    /// Evaluation of an empty dataset.
    pub fn empty() -> Self {
        Self {
            loss: 0.0,
            accuracy: 0.0,
            samples: 0,
        }
    }

    /// Sample-weighted combination of two evaluations.
    pub fn merge(self, other: EvalStats) -> EvalStats {
        let n = self.samples + other.samples;
        if n == 0 {
            return EvalStats::empty();
        }
        let w1 = self.samples as f64;
        let w2 = other.samples as f64;
        EvalStats {
            loss: (self.loss * w1 + other.loss * w2) / (w1 + w2),
            accuracy: (self.accuracy * w1 + other.accuracy * w2) / (w1 + w2),
            samples: n,
        }
    }
}

/// Loss/accuracy statistics of one training minibatch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainStats {
    /// Mean cross-entropy loss over the minibatch.
    pub loss: f64,
    /// Top-1 training accuracy over the minibatch.
    pub accuracy: f64,
}

/// A differentiable model architecture over a flat parameter vector.
pub trait ModelArch: Send + Sync {
    /// Architecture name used in logs (e.g. `"mlp[64,64]"`).
    fn name(&self) -> String;

    /// Number of parameters in the flat vector.
    fn param_count(&self) -> usize;

    /// Which parameter ranges belong to which sparsifiable unit.
    fn unit_layout(&self) -> &UnitLayout;

    /// Draws an initial parameter vector.
    fn init_params(&self, rng: &mut StdRng) -> Vec<f32>;

    /// Computes the mean minibatch loss and *accumulates* `d loss / d params`
    /// into `grad` (averaged over the minibatch).
    ///
    /// `indices` selects the minibatch rows from `data`.
    fn loss_and_grad(
        &self,
        params: &[f32],
        data: &Dataset,
        indices: &[usize],
        grad: &mut [f32],
    ) -> TrainStats;

    /// Forward-only evaluation over a whole dataset.
    fn evaluate(&self, params: &[f32], data: &Dataset) -> EvalStats;

    /// Analytic FLOPs of one *training* sample (forward + backward) when the
    /// given number of units is retained in each sparsifiable layer.
    fn train_flops_per_sample(&self, retained_per_layer: &[usize]) -> f64;

    /// Dense-model training FLOPs per sample (all units retained).
    fn dense_train_flops_per_sample(&self) -> f64 {
        let all = self.unit_layout().units_per_layer();
        self.train_flops_per_sample(&all)
    }

    /// The parameter index range of the output/classifier layer.
    ///
    /// Personalization baselines (FedPer, FedRep, FedP3) keep this "head"
    /// local to each client while sharing the rest of the model. The default
    /// is an empty range at the end of the vector; each architecture overrides
    /// it with its real classifier block.
    fn classifier_params(&self) -> std::ops::Range<usize> {
        self.param_count()..self.param_count()
    }

    /// Compiles a physically packed submodel retaining only the listed units
    /// (one ascending index list per sparsifiable layer, matching
    /// [`unit_layout`](Self::unit_layout), in the flat
    /// [`KeptUnits`](crate::pack::KeptUnits) layout).
    ///
    /// Returns `None` when the architecture does not support packing or the
    /// kept set is not executable (e.g. an empty layer would disconnect the
    /// network); callers then fall back to masked-dense execution. Packed
    /// training is bit-identical to masked-dense training — see
    /// [`pack`](crate::pack) for why.
    fn pack(&self, kept: &crate::pack::KeptUnits) -> Option<crate::pack::PackedModel> {
        let _ = kept;
        None
    }
}

/// Selectable model families, mirroring the paper's per-dataset backbones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelKind {
    /// Multi-layer perceptron with the given hidden widths.
    Mlp { hidden: Vec<usize> },
    /// Convolutional network with the given channel widths (one conv block per
    /// entry; a 2x2 average pool follows every second block).
    ConvNet { channels: Vec<usize>, hidden: usize },
    /// LSTM language model with the given embedding and hidden sizes.
    LstmLm { embed: usize, hidden: usize },
}

impl ModelKind {
    /// The backbone the reproduction uses for each dataset scenario, mirroring
    /// the paper's choices (CNN for MNIST, VGG-style stacks of increasing depth
    /// for CIFAR-10/100 and Tiny-ImageNet, an LSTM for Reddit) at reduced width.
    pub fn for_dataset(kind: DatasetKind) -> ModelKind {
        match kind {
            DatasetKind::MnistLike => ModelKind::Mlp {
                hidden: vec![128, 64],
            },
            DatasetKind::Cifar10Like => ModelKind::ConvNet {
                channels: vec![12, 16],
                hidden: 48,
            },
            DatasetKind::Cifar100Like => ModelKind::ConvNet {
                channels: vec![12, 16, 16],
                hidden: 64,
            },
            DatasetKind::TinyImagenetLike => ModelKind::ConvNet {
                channels: vec![12, 16, 16, 24],
                hidden: 80,
            },
            DatasetKind::RedditLike => ModelKind::LstmLm {
                embed: 16,
                hidden: 32,
            },
        }
    }

    /// Builds the architecture for a dataset with the given input shape and
    /// class count.
    pub fn build(&self, input: InputKind, num_classes: usize) -> Box<dyn ModelArch> {
        match self {
            ModelKind::Mlp { hidden } => Box::new(Mlp::new(MlpConfig {
                input_dim: input.feature_dim(),
                hidden: hidden.clone(),
                num_classes,
            })),
            ModelKind::ConvNet { channels, hidden } => {
                let (c, h, w) = match input {
                    InputKind::Image {
                        channels,
                        height,
                        width,
                    } => (channels, height, width),
                    // Fall back to a 1-channel square-ish layout for vector inputs.
                    other => {
                        let dim = other.feature_dim();
                        let side = (dim as f64).sqrt().floor() as usize;
                        (1, side.max(1), dim / side.max(1))
                    }
                };
                Box::new(ConvNet::new(ConvNetConfig {
                    in_channels: c,
                    height: h,
                    width: w,
                    channels: channels.clone(),
                    hidden: *hidden,
                    num_classes,
                }))
            }
            ModelKind::LstmLm { embed, hidden } => {
                let (len, vocab) = match input {
                    InputKind::Sequence { len, vocab } => (len, vocab),
                    other => (other.feature_dim(), num_classes),
                };
                Box::new(LstmLm::new(LstmLmConfig {
                    vocab,
                    seq_len: len,
                    embed: *embed,
                    hidden: *hidden,
                    num_classes,
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_stats_merge_weights_by_samples() {
        let a = EvalStats {
            loss: 1.0,
            accuracy: 1.0,
            samples: 1,
        };
        let b = EvalStats {
            loss: 3.0,
            accuracy: 0.0,
            samples: 3,
        };
        let m = a.merge(b);
        assert!((m.loss - 2.5).abs() < 1e-9);
        assert!((m.accuracy - 0.25).abs() < 1e-9);
        assert_eq!(m.samples, 4);
        assert_eq!(EvalStats::empty().merge(EvalStats::empty()).samples, 0);
    }

    #[test]
    fn model_kind_per_dataset() {
        assert!(matches!(
            ModelKind::for_dataset(DatasetKind::MnistLike),
            ModelKind::Mlp { .. }
        ));
        assert!(matches!(
            ModelKind::for_dataset(DatasetKind::TinyImagenetLike),
            ModelKind::ConvNet { .. }
        ));
        assert!(matches!(
            ModelKind::for_dataset(DatasetKind::RedditLike),
            ModelKind::LstmLm { .. }
        ));
    }

    #[test]
    fn build_all_kinds() {
        let mlp = ModelKind::Mlp { hidden: vec![8] }.build(InputKind::Vector { dim: 12 }, 4);
        assert!(mlp.param_count() > 0);
        let cnn = ModelKind::ConvNet {
            channels: vec![4],
            hidden: 8,
        }
        .build(
            InputKind::Image {
                channels: 1,
                height: 6,
                width: 6,
            },
            4,
        );
        assert!(cnn.param_count() > 0);
        let lm = ModelKind::LstmLm {
            embed: 4,
            hidden: 6,
        }
        .build(InputKind::Sequence { len: 5, vocab: 11 }, 11);
        assert!(lm.param_count() > 0);
    }
}
