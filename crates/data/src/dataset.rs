//! Core dataset containers shared by every crate in the workspace.

use fedlps_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// How the rows of a [`Dataset`] feature matrix should be interpreted by a
/// model architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InputKind {
    /// Plain feature vectors of the given dimensionality.
    Vector { dim: usize },
    /// Channel-major images flattened to `channels * height * width` floats.
    Image {
        channels: usize,
        height: usize,
        width: usize,
    },
    /// Token-id sequences of fixed length over a vocabulary; each feature is a
    /// token id stored as `f32` (the LSTM model re-interprets it as an index).
    Sequence { len: usize, vocab: usize },
}

impl InputKind {
    /// Number of `f32` features per sample.
    pub fn feature_dim(&self) -> usize {
        match *self {
            InputKind::Vector { dim } => dim,
            InputKind::Image {
                channels,
                height,
                width,
            } => channels * height * width,
            InputKind::Sequence { len, .. } => len,
        }
    }
}

/// A supervised dataset: one feature row per sample plus an integer label.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// `n x d` feature matrix.
    pub features: Matrix,
    /// `n` class labels in `0..num_classes`.
    pub labels: Vec<usize>,
    /// Number of distinct classes for the task.
    pub num_classes: usize,
    /// Interpretation of the feature rows.
    pub input: InputKind,
}

impl Dataset {
    /// Creates a dataset, validating basic shape invariants.
    pub fn new(features: Matrix, labels: Vec<usize>, num_classes: usize, input: InputKind) -> Self {
        assert_eq!(
            features.rows(),
            labels.len(),
            "feature rows must match label count"
        );
        assert_eq!(
            features.cols(),
            input.feature_dim(),
            "feature dim must match input kind"
        );
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "labels must be < num_classes"
        );
        Self {
            features,
            labels,
            num_classes,
            input,
        }
    }

    /// Empty dataset with the given shape metadata.
    pub fn empty(num_classes: usize, input: InputKind) -> Self {
        Self {
            features: Matrix::zeros(0, input.feature_dim()),
            labels: Vec::new(),
            num_classes,
            input,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// Returns the feature row for sample `i`.
    pub fn sample(&self, i: usize) -> (&[f32], usize) {
        (self.features.row(i), self.labels[i])
    }

    /// Builds a new dataset from the given sample indices (rows are copied).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut features = Matrix::zeros(indices.len(), self.feature_dim());
        let mut labels = Vec::with_capacity(indices.len());
        for (row, &idx) in indices.iter().enumerate() {
            features
                .row_mut(row)
                .copy_from_slice(self.features.row(idx));
            labels.push(self.labels[idx]);
        }
        Dataset {
            features,
            labels,
            num_classes: self.num_classes,
            input: self.input,
        }
    }

    /// Splits the dataset into `(train, test)` with the given train fraction,
    /// preserving sample order (callers shuffle beforehand when needed).
    pub fn split(&self, train_fraction: f64) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&train_fraction));
        let n_train = ((self.len() as f64) * train_fraction).round() as usize;
        let n_train = n_train.min(self.len());
        let train_idx: Vec<usize> = (0..n_train).collect();
        let test_idx: Vec<usize> = (n_train..self.len()).collect();
        (self.subset(&train_idx), self.subset(&test_idx))
    }

    /// Per-class sample counts.
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.num_classes];
        for &l in &self.labels {
            hist[l] += 1;
        }
        hist
    }

    /// Number of classes that actually appear in the dataset.
    pub fn present_classes(&self) -> usize {
        self.class_histogram().iter().filter(|&&c| c > 0).count()
    }
}

/// One client's local data: a train split used for local updates and a test
/// split used for the personalized accuracy metric the paper reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClientData {
    pub train: Dataset,
    pub test: Dataset,
}

impl ClientData {
    /// Total number of local samples (train + test).
    pub fn len(&self) -> usize {
        self.train.len() + self.test.len()
    }

    /// Whether the client holds no data at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the training split (the `|D_k|` aggregation weight).
    pub fn train_size(&self) -> usize {
        self.train.len()
    }
}

/// The full federation: one [`ClientData`] per edge device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FederatedDataset {
    /// Human-readable scenario name (e.g. `"mnist-like"`).
    pub name: String,
    /// Per-client data shards.
    pub clients: Vec<ClientData>,
    /// Number of classes in the global task.
    pub num_classes: usize,
    /// Input interpretation shared by all clients.
    pub input: InputKind,
}

impl FederatedDataset {
    /// Number of participating clients.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let features = Matrix::from_fn(6, 3, |r, c| (r * 3 + c) as f32);
        let labels = vec![0, 1, 2, 0, 1, 2];
        Dataset::new(features, labels, 3, InputKind::Vector { dim: 3 })
    }

    #[test]
    fn subset_copies_rows() {
        let d = toy();
        let s = d.subset(&[1, 3]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.labels, vec![1, 0]);
        assert_eq!(s.features.row(0), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn split_partitions_all_samples() {
        let d = toy();
        let (train, test) = d.split(0.5);
        assert_eq!(train.len() + test.len(), d.len());
        assert_eq!(train.len(), 3);
    }

    #[test]
    fn class_histogram_counts() {
        let d = toy();
        assert_eq!(d.class_histogram(), vec![2, 2, 2]);
        assert_eq!(d.present_classes(), 3);
    }

    #[test]
    #[should_panic]
    fn label_out_of_range_panics() {
        let features = Matrix::zeros(1, 2);
        Dataset::new(features, vec![5], 3, InputKind::Vector { dim: 2 });
    }

    #[test]
    fn federated_metadata() {
        let d = toy();
        let (train, test) = d.split(0.67);
        let fed = FederatedDataset {
            name: "toy".into(),
            clients: vec![
                ClientData {
                    train: train.clone(),
                    test: test.clone(),
                },
                ClientData { train, test },
            ],
            num_classes: 3,
            input: InputKind::Vector { dim: 3 },
        };
        assert_eq!(fed.num_clients(), 2);
        assert_eq!(fed.clients[1].train_size(), 4);
    }

    #[test]
    fn input_kind_dims() {
        assert_eq!(InputKind::Vector { dim: 7 }.feature_dim(), 7);
        assert_eq!(
            InputKind::Image {
                channels: 3,
                height: 8,
                width: 8
            }
            .feature_dim(),
            192
        );
        assert_eq!(InputKind::Sequence { len: 10, vocab: 50 }.feature_dim(), 10);
    }
}
