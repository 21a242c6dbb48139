//! Physically packed submodels.
//!
//! Masked-dense training simulates a sparse client by zeroing dropped units
//! and running the **full** model, so a 25%-ratio client burns nearly the
//! wall-clock of a dense one while the FLOP model credits it with a fraction.
//! A [`PackedModel`] closes that gap: it is a *smaller instance of the same
//! architecture* retaining only the kept units, plus the index map that
//! gathers the kept parameters out of the full vector and scatters packed
//! gradients/deltas back into full coordinates.
//!
//! Because every architecture's forward/backward accumulates only nonzero
//! terms in ascending index order (the matmul variants skip `a == 0.0`
//! operands, ReLU's subgradient at 0 is 0, and dropped units own their
//! outgoing connections where the recurrence demands it), the packed model
//! reproduces the masked-dense computation **bit for bit**: it visits exactly
//! the surviving nonzero terms in exactly the same order. The property tests
//! in `fedlps-sim`/`fedlps-core` pin this equivalence per architecture.

use std::sync::Arc;

use crate::model::ModelArch;

/// Kept-unit index lists for every sparsifiable layer, stored flat: one
/// backing vector plus per-layer offsets, instead of one `Vec` per layer.
///
/// This is the currency between the mask-compilation side (`fedlps_sparse`'s
/// `SubmodelPlan`) and [`ModelArch::pack`]: plans are built per client per
/// round, so the flat layout keeps plan construction to two allocations
/// regardless of depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeptUnits {
    units: Vec<usize>,
    /// `offsets[i]..offsets[i + 1]` spans layer `i`; `len == layers + 1`.
    offsets: Vec<usize>,
}

impl Default for KeptUnits {
    fn default() -> Self {
        Self::with_capacity(0, 0)
    }
}

impl KeptUnits {
    /// An empty selection with room for `layers` layers of `units` total
    /// kept units.
    pub fn with_capacity(layers: usize, units: usize) -> Self {
        let mut offsets = Vec::with_capacity(layers + 1);
        offsets.push(0);
        Self {
            units: Vec::with_capacity(units),
            offsets,
        }
    }

    /// Appends the next layer's ascending kept-unit indices.
    pub fn push_layer(&mut self, kept: impl IntoIterator<Item = usize>) {
        self.units.extend(kept);
        self.offsets.push(self.units.len());
    }

    /// Builds from per-layer lists (test/call-site convenience).
    pub fn from_nested(layers: &[Vec<usize>]) -> Self {
        let mut kept = Self::with_capacity(layers.len(), layers.iter().map(Vec::len).sum());
        for layer in layers {
            kept.push_layer(layer.iter().copied());
        }
        kept
    }

    /// Number of layers recorded.
    pub fn num_layers(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The ascending kept-unit indices of layer `i`.
    pub fn layer(&self, i: usize) -> &[usize] {
        &self.units[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Iterates the per-layer index lists in layer order.
    pub fn layers(&self) -> impl Iterator<Item = &[usize]> + '_ {
        (0..self.num_layers()).map(move |i| self.layer(i))
    }

    /// Number of retained units per layer.
    pub fn retained_per_layer(&self) -> Vec<usize> {
        self.offsets.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Whether every layer keeps at least one unit — the structural
    /// condition for a packed submodel to be a connected network.
    pub fn is_executable(&self) -> bool {
        self.offsets.windows(2).all(|w| w[1] > w[0])
    }
}

/// A compiled packed submodel: the physically small architecture and the
/// strictly ascending map from packed parameter indices to full ones.
///
/// The gather map is `Arc`-shared so sparse uploads can reference the
/// coordinates of their delta without copying the index list per round.
pub struct PackedModel {
    arch: Box<dyn ModelArch>,
    gather: Arc<Vec<u32>>,
    full_len: usize,
}

impl std::fmt::Debug for PackedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedModel")
            .field("arch", &self.arch.name())
            .field("packed_len", &self.gather.len())
            .field("full_len", &self.full_len)
            .finish()
    }
}

impl PackedModel {
    /// Wraps a packed architecture and its gather map.
    ///
    /// # Panics
    /// Panics if the map's length disagrees with the packed architecture's
    /// parameter count, if it is not strictly ascending, or if it addresses
    /// outside the full vector. Ascending order is load-bearing: reductions
    /// over the packed vector (gradient-norm clipping, residual staging)
    /// must visit coordinates in the same order as full-vector loops do.
    pub fn new(arch: Box<dyn ModelArch>, gather: Vec<u32>, full_len: usize) -> Self {
        assert_eq!(
            gather.len(),
            arch.param_count(),
            "gather map must cover every packed parameter"
        );
        for w in gather.windows(2) {
            assert!(w[0] < w[1], "gather map must be strictly ascending");
        }
        if let Some(&last) = gather.last() {
            assert!((last as usize) < full_len, "gather map exceeds full model");
        }
        Self {
            arch,
            gather: Arc::new(gather),
            full_len,
        }
    }

    /// The physically small architecture.
    pub fn arch(&self) -> &dyn ModelArch {
        &*self.arch
    }

    /// Number of packed parameters.
    pub fn packed_len(&self) -> usize {
        self.gather.len()
    }

    /// Number of parameters of the full model this submodel was packed from.
    pub fn full_len(&self) -> usize {
        self.full_len
    }

    /// The strictly ascending packed-index → full-index map.
    pub fn gather_map(&self) -> &[u32] {
        &self.gather
    }

    /// A shared handle to the gather map — the coordinate list a sparse
    /// upload travels with.
    pub fn gather_arc(&self) -> Arc<Vec<u32>> {
        Arc::clone(&self.gather)
    }

    /// Gathers the kept parameters of `full` into `out` (overwritten).
    pub fn gather_params(&self, full: &[f32], out: &mut Vec<f32>) {
        assert_eq!(full.len(), self.full_len, "full parameter length mismatch");
        out.clear();
        out.extend(self.gather.iter().map(|&i| full[i as usize]));
    }

    /// [`gather_params`](Self::gather_params) into a caller-provided slice of
    /// exactly [`packed_len`](Self::packed_len) elements — the arena-backed
    /// variant the packed client step uses so gathering never allocates.
    pub fn gather_params_into(&self, full: &[f32], out: &mut [f32]) {
        assert_eq!(full.len(), self.full_len, "full parameter length mismatch");
        assert_eq!(out.len(), self.gather.len(), "packed slice length mismatch");
        for (o, &i) in out.iter_mut().zip(self.gather.iter()) {
            *o = full[i as usize];
        }
    }

    /// Writes packed values back into their full coordinates (assignment).
    pub fn scatter_params(&self, packed: &[f32], full: &mut [f32]) {
        assert_eq!(packed.len(), self.gather.len());
        assert_eq!(full.len(), self.full_len);
        for (&i, &v) in self.gather.iter().zip(packed.iter()) {
            full[i as usize] = v;
        }
    }

    /// Accumulates a packed gradient into the full gradient buffer.
    ///
    /// Coordinates outside the packed set are untouched — the masked-dense
    /// backward pass produces exact zeros there, so scattering into a zeroed
    /// buffer reproduces it bitwise.
    pub fn scatter_add(&self, packed: &[f32], full: &mut [f32]) {
        assert_eq!(packed.len(), self.gather.len());
        assert_eq!(full.len(), self.full_len);
        for (&i, &v) in self.gather.iter().zip(packed.iter()) {
            full[i as usize] += v;
        }
    }
}

/// Builder used by the architectures' `pack` implementations: collects full
/// parameter indices section by section and checks the ascending invariant
/// once at the end.
#[derive(Debug, Default)]
pub(crate) struct GatherMap {
    indices: Vec<u32>,
}

impl GatherMap {
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self {
            indices: Vec::with_capacity(n),
        }
    }

    /// Appends one full-model parameter index.
    #[inline]
    pub(crate) fn push(&mut self, full_index: usize) {
        self.indices.push(full_index as u32);
    }

    /// Appends a contiguous run `[start, start + len)`.
    pub(crate) fn push_range(&mut self, start: usize, len: usize) {
        for i in start..start + len {
            self.push(i);
        }
    }

    pub(crate) fn into_vec(self) -> Vec<u32> {
        self.indices
    }
}

/// Packs `full` onto `kept`, then evaluates and trains the packed submodel
/// on `data`, and checks that none of it built a unit layout; then that the
/// packed model's layout, once asked for, equals `fresh`'s (the same packed
/// shape built with `new`).
#[cfg(test)]
pub(crate) fn assert_packing_builds_no_layout(
    full: &dyn ModelArch,
    kept: &KeptUnits,
    data: &fedlps_data::dataset::Dataset,
    fresh: &dyn ModelArch,
) {
    let params = full.init_params(&mut fedlps_tensor::rng_from_seed(6));
    let before = crate::unit::layouts_built();
    let packed = full.pack(kept).expect("packable");
    let mut packed_params = Vec::new();
    packed.gather_params(&params, &mut packed_params);
    let mut grad = vec![0.0f32; packed.packed_len()];
    let indices: Vec<usize> = (0..data.len()).collect();
    packed.arch().evaluate(&packed_params, data);
    packed
        .arch()
        .loss_and_grad(&packed_params, data, &indices, &mut grad);
    assert_eq!(
        crate::unit::layouts_built(),
        before,
        "packing, evaluating or training a packed model built a unit layout"
    );
    assert_eq!(packed.arch().unit_layout(), fresh.unit_layout());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::{Mlp, MlpConfig};

    fn arch() -> Box<dyn ModelArch> {
        Box::new(Mlp::new(MlpConfig {
            input_dim: 2,
            hidden: vec![2],
            num_classes: 2,
        }))
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let arch = arch();
        let n = arch.param_count(); // 2*2 + 2 + 2*2 + 2 = 12
        let gather: Vec<u32> = (0..n as u32).collect();
        let packed = PackedModel::new(arch, gather, 20);
        let full: Vec<f32> = (0..20).map(|i| i as f32).collect();
        let mut p = Vec::new();
        packed.gather_params(&full, &mut p);
        assert_eq!(p.len(), n);
        let mut back = vec![0.0f32; 20];
        packed.scatter_params(&p, &mut back);
        assert_eq!(&back[..n], &full[..n]);
        assert!(back[n..].iter().all(|&v| v == 0.0));
        packed.scatter_add(&p, &mut back);
        assert_eq!(back[1], 2.0, "scatter_add accumulates");
    }

    #[test]
    #[should_panic]
    fn non_ascending_map_rejected() {
        let arch = arch();
        let n = arch.param_count();
        let mut gather: Vec<u32> = (0..n as u32).collect();
        gather.swap(0, 1);
        let _ = PackedModel::new(arch, gather, 40);
    }

    #[test]
    #[should_panic]
    fn out_of_range_map_rejected() {
        let arch = arch();
        let n = arch.param_count();
        let gather: Vec<u32> = (0..n as u32).collect();
        let _ = PackedModel::new(arch, gather, n - 1);
    }
}
