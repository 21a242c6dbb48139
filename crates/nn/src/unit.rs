//! The sparsifiable-unit abstraction.
//!
//! A *unit* is the paper's "network topology element at the sparse
//! granularity level": a hidden neuron, a convolution output channel or an
//! LSTM hidden cell. Each unit owns a set of parameter index ranges in the
//! flat parameter vector, and masking a unit zeroes all of them:
//!
//! * an MLP neuron or a ConvNet channel / dense neuron owns its *incoming*
//!   weight row or filter plus its bias (`Mlp::new`, `ConvNet::new`); the
//!   next layer's columns that read it belong to the next layer's units (or
//!   to the never-masked classifier), so these units own disjoint ranges;
//! * an LSTM cell owns its four gate rows and biases *and* its outgoing
//!   columns — column `j` of every other cell's recurrent rows and of the
//!   classifier (`LstmLm::new`) — so LSTM ranges overlap: a kept cell's gate
//!   row contains the recurrent weights that a dropped cell owns.
//!
//! An architecture builds its [`UnitLayout`] on the first
//! [`ModelArch::unit_layout`](crate::model::ModelArch::unit_layout) call and
//! keeps it: a full model builds it once, and a packed submodel, whose
//! layout nothing reads, never builds one. Building it also sorts every
//! non-empty unit range by its start, once per architecture, so
//! [`UnitLayout::dropped_runs`] merges a mask's dropped ranges in one walk of
//! that index, without sorting them per call. The layout is consumed by
//! `fedlps-sparse` (to expand unit masks into parameter masks or dropped
//! runs and to compute per-unit magnitude sums `|ω|_J`) and by the FLOP
//! model (retained units per layer determine the analytic cost).

use std::ops::Range;

#[cfg(test)]
thread_local! {
    /// Layouts built on this thread, so a test can check that a code path
    /// builds none.
    static BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Number of [`UnitLayout`]s built on the calling thread so far.
#[cfg(test)]
pub(crate) fn layouts_built() -> usize {
    BUILT.with(std::cell::Cell::get)
}

/// A contiguous `[start, start + len)` range of parameter indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamRange {
    pub start: usize,
    pub len: usize,
}

impl ParamRange {
    /// Creates a range covering `len` parameters starting at `start`.
    pub fn new(start: usize, len: usize) -> Self {
        Self { start, len }
    }

    /// End index (exclusive).
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// The parameter ranges owned by one sparsifiable unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitParams {
    pub ranges: Vec<ParamRange>,
}

impl UnitParams {
    /// Total number of parameters owned by the unit.
    pub fn param_count(&self) -> usize {
        self.ranges.iter().map(|r| r.len).sum()
    }

    /// Sum of `|params[i]|` over the unit's parameters, in
    /// [`range_sums`](Self::range_sums) order.
    pub fn magnitude_sum(&self, params: &[f32]) -> f32 {
        let [sum] = self.range_sums(|i| [params[i].abs()]);
        sum
    }

    /// `K` sums over the unit's coordinates in one walk, in the term order of
    /// every magnitude sum: range by range, each coordinate `i` ascending,
    /// `term(i)[k]` is added one at a time into a per-range partial that
    /// starts at `+0.0`, and each partial is then added into a total that
    /// starts at `+0.0`. `term` runs exactly once per coordinate in that
    /// order, so a caller may fold a running sum of its own alongside.
    ///
    /// The explicit `+0.0` starts keep the order independent of the neutral
    /// element of `f32: Sum` (which has changed sign across toolchains).
    #[inline]
    pub fn range_sums<const K: usize>(&self, mut term: impl FnMut(usize) -> [f32; K]) -> [f32; K] {
        let mut total = [0.0f32; K];
        for r in &self.ranges {
            let mut partial = [0.0f32; K];
            for i in r.start..r.end() {
                for (p, t) in partial.iter_mut().zip(term(i)) {
                    *p += t;
                }
            }
            for (t, p) in total.iter_mut().zip(partial) {
                *t += p;
            }
        }
        total
    }
}

/// All sparsifiable units of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerUnits {
    /// Human-readable layer name (e.g. `"hidden0"`, `"conv2"`, `"lstm"`).
    pub name: String,
    /// One entry per unit in this layer.
    pub units: Vec<UnitParams>,
}

impl LayerUnits {
    /// Number of units in the layer.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the layer has no units.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }
}

/// The full unit layout of a model: its sparsifiable layers plus the total
/// parameter count (covering also non-sparsifiable parameters such as
/// embeddings and the output layer, which are always retained).
#[derive(Debug, Clone, PartialEq)]
pub struct UnitLayout {
    layers: Vec<LayerUnits>,
    total_params: usize,
    /// Every non-empty unit range with its global unit index, sorted by
    /// start: the walk order of [`dropped_runs`](Self::dropped_runs).
    by_start: Vec<IndexedRange>,
}

/// One entry of [`UnitLayout`]'s start-sorted range index.
#[derive(Debug, Clone, PartialEq)]
struct IndexedRange {
    range: Range<usize>,
    unit: usize,
}

impl UnitLayout {
    /// Builds a layout, checking that all ranges stay inside the parameter
    /// vector.
    pub fn new(layers: Vec<LayerUnits>, total_params: usize) -> Self {
        #[cfg(test)]
        BUILT.with(|built| built.set(built.get() + 1));
        for layer in &layers {
            for unit in &layer.units {
                for r in &unit.ranges {
                    assert!(
                        r.end() <= total_params,
                        "unit range {:?} exceeds parameter count {}",
                        r,
                        total_params
                    );
                }
            }
        }
        let units = layers.iter().flat_map(|layer| &layer.units);
        let mut by_start: Vec<IndexedRange> = units
            .enumerate()
            .flat_map(|(unit, params)| {
                params.ranges.iter().map(move |r| IndexedRange {
                    range: r.start..r.end(),
                    unit,
                })
            })
            .filter(|entry| !entry.range.is_empty())
            .collect();
        by_start.sort_unstable_by_key(|entry| entry.range.start);
        Self {
            layers,
            total_params,
            by_start,
        }
    }

    /// Sparsifiable layers in network order.
    pub fn layers(&self) -> &[LayerUnits] {
        &self.layers
    }

    /// Total parameters of the model (sparsifiable or not).
    pub fn total_params(&self) -> usize {
        self.total_params
    }

    /// Total number of sparsifiable units `J` across all layers.
    pub fn total_units(&self) -> usize {
        self.layers.iter().map(|l| l.len()).sum()
    }

    /// Units per layer, in layer order.
    pub fn units_per_layer(&self) -> Vec<usize> {
        self.layers.iter().map(|l| l.len()).collect()
    }

    /// Maps a global unit index `j ∈ 0..J` to `(layer_index, unit_index)`.
    pub fn locate(&self, mut j: usize) -> (usize, usize) {
        for (li, layer) in self.layers.iter().enumerate() {
            if j < layer.len() {
                return (li, j);
            }
            j -= layer.len();
        }
        panic!("unit index out of range");
    }

    /// The parameter ranges of global unit `j`.
    pub fn unit(&self, j: usize) -> &UnitParams {
        let (li, ui) = self.locate(j);
        &self.layers[li].units[ui]
    }

    /// Per-unit magnitude sums `|ω|_J` (Eq. 8 of the paper): the j-th entry is
    /// the sum of absolute parameter values owned by unit j.
    pub fn magnitude_sums(&self, params: &[f32]) -> Vec<f32> {
        assert_eq!(params.len(), self.total_params, "parameter length mismatch");
        let mut out = Vec::with_capacity(self.total_units());
        for layer in &self.layers {
            for unit in &layer.units {
                out.push(unit.magnitude_sum(params));
            }
        }
        out
    }

    /// Expands a unit-level keep mask (length `J`, layer-major order) into a
    /// parameter-level multiplicative mask (length `total_params`).
    ///
    /// Parameters not owned by any unit (embeddings, classifier biases, …) are
    /// always kept.
    pub fn expand_mask(&self, unit_keep: &[bool]) -> Vec<f32> {
        assert_eq!(
            unit_keep.len(),
            self.total_units(),
            "unit mask length mismatch"
        );
        let mut mask = vec![1.0f32; self.total_params];
        let mut j = 0;
        for layer in &self.layers {
            for unit in &layer.units {
                if !unit_keep[j] {
                    for r in &unit.ranges {
                        for m in &mut mask[r.start..r.end()] {
                            *m = 0.0;
                        }
                    }
                }
                j += 1;
            }
        }
        mask
    }

    /// Number of retained units in every layer for a given unit-level mask.
    pub fn retained_per_layer(&self, unit_keep: &[bool]) -> Vec<usize> {
        assert_eq!(unit_keep.len(), self.total_units());
        let mut out = Vec::with_capacity(self.layers.len());
        let mut j = 0;
        for layer in &self.layers {
            let mut count = 0;
            for _ in 0..layer.len() {
                if unit_keep[j] {
                    count += 1;
                }
                j += 1;
            }
            out.push(count);
        }
        out
    }

    /// Number of *parameters* kept by a unit-level mask (counting always-kept
    /// non-unit parameters too). This is the quantity behind the paper's
    /// communication-volume accounting: the nonzeros of
    /// [`expand_mask`](Self::expand_mask), counted as the model size minus
    /// the lengths of the [`dropped_runs`](Self::dropped_runs).
    pub fn retained_params(&self, unit_keep: &[bool]) -> usize {
        let dropped: usize = self.dropped_runs(unit_keep).iter().map(Range::len).sum();
        self.total_params - dropped
    }

    /// The zero set of [`expand_mask`](Self::expand_mask) as ascending,
    /// disjoint, non-adjacent index runs: the union of the dropped units'
    /// ranges (which overlap on the LSTM), merged without expanding the mask.
    /// One walk of the layout's start-sorted range index skips the kept
    /// units' ranges and folds each dropped one into the run before it when
    /// they overlap or touch.
    pub fn dropped_runs(&self, unit_keep: &[bool]) -> Vec<Range<usize>> {
        assert_eq!(
            unit_keep.len(),
            self.total_units(),
            "unit mask length mismatch"
        );
        let mut runs: Vec<Range<usize>> = Vec::new();
        for entry in self.by_start.iter().filter(|entry| !unit_keep[entry.unit]) {
            match runs.last_mut() {
                Some(run) if entry.range.start <= run.end => {
                    run.end = run.end.max(entry.range.end);
                }
                _ => runs.push(entry.range.clone()),
            }
        }
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_layout() -> UnitLayout {
        // 2 layers, 2 + 3 units, 20 total params; unit params do not overlap.
        let l0 = LayerUnits {
            name: "hidden0".into(),
            units: vec![
                UnitParams {
                    ranges: vec![ParamRange::new(0, 2), ParamRange::new(10, 1)],
                },
                UnitParams {
                    ranges: vec![ParamRange::new(2, 2), ParamRange::new(11, 1)],
                },
            ],
        };
        let l1 = LayerUnits {
            name: "hidden1".into(),
            units: vec![
                UnitParams {
                    ranges: vec![ParamRange::new(4, 2)],
                },
                UnitParams {
                    ranges: vec![ParamRange::new(6, 2)],
                },
                UnitParams {
                    ranges: vec![ParamRange::new(8, 2)],
                },
            ],
        };
        UnitLayout::new(vec![l0, l1], 20)
    }

    #[test]
    fn totals_and_locate() {
        let layout = toy_layout();
        assert_eq!(layout.total_units(), 5);
        assert_eq!(layout.units_per_layer(), vec![2, 3]);
        assert_eq!(layout.locate(0), (0, 0));
        assert_eq!(layout.locate(1), (0, 1));
        assert_eq!(layout.locate(2), (1, 0));
        assert_eq!(layout.locate(4), (1, 2));
    }

    #[test]
    #[should_panic]
    fn locate_out_of_range_panics() {
        toy_layout().locate(5);
    }

    #[test]
    fn expand_mask_zeroes_only_masked_units() {
        let layout = toy_layout();
        let mask = layout.expand_mask(&[true, false, true, true, false]);
        // Unit 1 owns params 2,3,11; unit 4 owns params 8,9.
        for i in [2usize, 3, 11, 8, 9] {
            assert_eq!(mask[i], 0.0, "param {i}");
        }
        // Everything else (including non-unit params 12..20) stays 1.
        for i in [0usize, 1, 4, 5, 6, 7, 10, 12, 19] {
            assert_eq!(mask[i], 1.0, "param {i}");
        }
    }

    #[test]
    fn retained_counts() {
        let layout = toy_layout();
        let keep = [true, false, true, true, false];
        assert_eq!(layout.retained_per_layer(&keep), vec![1, 2]);
        // Unit 1 owns 2..4 and 11..12, unit 4 owns 8..10; adjacent dropped
        // ranges (units 1 and 2) merge into one run.
        assert_eq!(layout.dropped_runs(&keep), vec![2..4, 8..10, 11..12]);
        assert_eq!(
            layout.dropped_runs(&[true, false, false, true, true]),
            vec![2..6, 11..12]
        );
        // 20 total - 3 (unit1) - 2 (unit4) = 15.
        assert_eq!(layout.retained_params(&keep), 15);
    }

    #[test]
    fn retained_params_counts_the_expanded_mask_under_overlap() {
        // LSTM-style ownership: unit 2's range covers parts of units 0 and
        // 1, unit 3 owns a zero-length range and a range nested in unit 2's.
        let layer = |ranges: Vec<Vec<(usize, usize)>>| LayerUnits {
            name: "cells".into(),
            units: ranges
                .into_iter()
                .map(|r| UnitParams {
                    ranges: r.into_iter().map(|(s, l)| ParamRange::new(s, l)).collect(),
                })
                .collect(),
        };
        let layout = UnitLayout::new(
            vec![
                layer(vec![vec![(0, 4), (12, 1)], vec![(4, 4)]]),
                layer(vec![vec![(2, 4), (13, 2)], vec![(9, 0), (3, 2), (14, 3)]]),
            ],
            20,
        );
        for bits in 0u32..16 {
            let keep: Vec<bool> = (0..4).map(|j| bits >> j & 1 == 1).collect();
            let expanded = layout.expand_mask(&keep);
            let nonzeros = expanded.iter().filter(|&&m| m != 0.0).count();
            assert_eq!(layout.retained_params(&keep), nonzeros, "keep {keep:?}");
            let zeros: Vec<usize> = (0..20).filter(|&i| expanded[i] == 0.0).collect();
            let runs: Vec<usize> = layout.dropped_runs(&keep).into_iter().flatten().collect();
            assert_eq!(runs, zeros, "keep {keep:?}");
        }
    }

    #[test]
    fn magnitude_sums_per_unit() {
        let layout = toy_layout();
        let mut params = vec![0.0f32; 20];
        params[0] = 1.0;
        params[1] = -2.0;
        params[10] = 0.5;
        params[8] = 3.0;
        let sums = layout.magnitude_sums(&params);
        assert_eq!(sums.len(), 5);
        assert!((sums[0] - 3.5).abs() < 1e-6);
        assert!((sums[4] - 3.0).abs() < 1e-6);
        assert_eq!(sums[1], 0.0);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_range_rejected() {
        let l = LayerUnits {
            name: "bad".into(),
            units: vec![UnitParams {
                ranges: vec![ParamRange::new(18, 5)],
            }],
        };
        UnitLayout::new(vec![l], 20);
    }

    #[test]
    fn full_keep_mask_retains_everything() {
        let layout = toy_layout();
        let keep = vec![true; layout.total_units()];
        assert_eq!(layout.retained_params(&keep), 20);
        assert!(layout.expand_mask(&keep).iter().all(|&m| m == 1.0));
    }
}
