//! The packed-length FedLPS local iteration: Algorithm 1 lines 18-21 on a
//! physically packed submodel, bit-identical to the masked-dense oracle
//! (`ImportanceLoss::evaluate`, `ImportanceIndicator::gradient`,
//! `SgdConfig::step_masked` over the full model) while each iteration
//! touches only the packed coordinates, the kept units' ranges and one
//! ordered proximal pass.
//!
//! For one task on unit mask `m` and packed submodel with gather map `P`
//! ([`PackedModel::gather_map`]):
//!
//! * `D` — the coordinates of dropped units, the zeros of the oracle's
//!   parameter mask. Unit ranges may overlap (an LSTM cell owns columns
//!   inside the other cells' rows), so `D` is read off the merged runs of
//!   [`UnitLayout::dropped_runs`], never off the ranges one by one;
//! * `K` — the mask-kept coordinates, the complement of `D`. `P ⊆ K` is
//!   asserted once per task;
//! * `F = K \ P` — mask-kept coordinates the packed model omits: a kept
//!   unit's weights from dropped inputs, the classifier's columns of dropped
//!   units.
//!
//! **The invariant**, for finite parameters and gradients: the task
//! gradient is exactly `+0.0` outside `P` (the packed pass scatters into a
//! zeroed buffer, which the equivalence tests pin to the masked-dense
//! backward pass). `step_masked` never moves `D`. On `F` the parameter
//! equals the global one, so the gradient is `0.0 + μ·(+0.0) = +0.0`,
//! clipping scales it to `+0.0` and `p − lr·(+0.0)` is `p`: `F` never moves
//! either. Hence during a round `local` and `masked` never change on
//! `D ∪ F`, the gradient `0.0 + μ·(masked − global)` is constant on `D`,
//! and it is exactly `+0.0` on `F`.
//!
//! **Once per round** FedLPS's `begin_round` builds [`GlobalUnitSums`] from
//! the round's global: every unit's magnitude and straight-through sums
//! while `local == global`. A dropped unit's coordinates lie in `D`, where
//! `masked` and the gradient are the round constants above, so these are
//! its sums for the whole round, whatever the mask; their magnitudes are
//! also a first participation's indicator `σ(|ω|_J)`.
//!
//! **Once per task** ([`PackedStep::new`]) `masked` starts as a copy of
//! `local`, one pass over the dropped runs writes `masked` and that
//! constant gradient on `D` (the gradient on `F` is the arena's `+0.0`),
//! a walk of the runs against the gather map records the ascending `P`/`D`
//! run list and checks `P ⊆ K`, and the dropped units' sums are copied from
//! the round's table: no walk covers a dropped unit. No step of it visits
//! the model coordinate by coordinate under a mask.
//!
//! **Per iteration** ([`PackedStep::iterate`]) `masked`, the packed
//! parameters, the gradient, the clip scaling and the SGD update are written
//! on `P` only, the kept units' full ranges are walked for their sums, and
//! one ascending pass over `P ∪ D` accumulates the proximal loss (and the
//! clip norm). Each sum keeps the oracle's terms in the oracle's order:
//!
//! * proximal `Σ (masked − global)²` (`f64`, from `+0.0`, coordinates
//!   ascending): the `D` terms are constants but sit between `P` terms, and
//!   `f64` addition does not reassociate, so they are re-added every
//!   iteration; the `F` terms are exact `+0.0` and adding `+0.0` to a
//!   non-negative sum is the identity, so they are skipped. This pass is
//!   O(n − |F|) and it is the floor;
//! * clip norm `Σ g²` (`f32`, same walk): as above; the accumulator starts at
//!   `+0.0`, and since every term is a square (never `−0.0`) the sum equals
//!   `ops::norm_sq`'s whatever the sign of `f32: Sum`'s neutral element
//!   (with no terms at all both zeros skip clipping);
//! * `|masked|_j`, `|local|_j` and the straight-through `Σ g·w` of a unit:
//!   one [`UnitSums::walk`] over the unit's ranges in range order — the same
//!   helper the oracle's `ImportanceIndicator::gradient` calls, whose
//!   magnitudes follow `UnitParams::magnitude_sum`'s order;
//! * importance `Σ_j (q_j − σ(|masked|_j))²` and the total: the shared
//!   [`importance_term`] and [`ImportanceLoss::breakdown`].
//!
//! The per-coordinate expressions are the oracle's: the gradient is
//! `(0.0 + g_task) + μ·diff` (the scatter into a zeroed buffer, then the
//! proximal gradient), the clip scales it by `max / ‖g‖`, and the update is
//! [`SgdConfig::update`].

use std::ops::Range;

use fedlps_data::dataset::Dataset;
use fedlps_nn::pack::PackedModel;
use fedlps_nn::sgd::SgdConfig;
use fedlps_nn::unit::{UnitLayout, UnitParams};
use fedlps_sparse::mask::UnitMask;
use fedlps_tensor::ops::clip_factor;

use crate::importance::{GlobalUnitSums, ImportanceIndicator, UnitSums};
use crate::loss::{importance_term, ImportanceLoss, LossBreakdown};

/// `packed` gather coordinates, then the dropped run `dropped`: one step of
/// the ascending walk over `P ∪ D` (the `F` coordinates between are skipped).
#[derive(Debug)]
struct Segment {
    packed: usize,
    dropped: Range<usize>,
}

/// The round-constant state of one packed client task plus its borrowed
/// working buffers (carved from the task's arena).
pub(crate) struct PackedStep<'a> {
    packed: &'a PackedModel,
    global: &'a [f32],
    objective: ImportanceLoss,
    sgd: SgdConfig,
    /// Every unit in layout order, with its keep bit.
    units: Vec<(&'a UnitParams, bool)>,
    /// The ascending `P`/`D` walk.
    segments: Vec<Segment>,
    /// Per-unit sums: the round's table entries for dropped units,
    /// rewritten per iteration for kept ones.
    sums: Vec<UnitSums>,
    q_grad: Vec<f32>,
    masked: &'a mut [f32],
    grad: &'a mut [f32],
    packed_params: &'a mut [f32],
    packed_grad: &'a mut [f32],
}

impl<'a> PackedStep<'a> {
    /// The per-task prologue: a copy of `local`, one pass over the dropped
    /// runs, the run walk, then the dropped units' sums copied from
    /// `round_sums`. `dropped` is [`UnitLayout::dropped_runs`] of `mask`;
    /// `local` must still equal `global`, and `round_sums` must be
    /// [`GlobalUnitSums::new`] of `global` at the objective's `μ`.
    #[expect(
        clippy::too_many_arguments,
        reason = "the prologue borrows every buffer the step keeps for its lifetime; bundling them would move the same list into a struct"
    )]
    pub(crate) fn new(
        layout: &'a UnitLayout,
        packed: &'a PackedModel,
        mask: &UnitMask,
        dropped: &[Range<usize>],
        global: &'a [f32],
        local: &[f32],
        round_sums: &GlobalUnitSums,
        objective: ImportanceLoss,
        sgd: SgdConfig,
        [masked, grad, packed_params, packed_grad]: [&'a mut [f32]; 4],
    ) -> Self {
        let mu = objective.mu;
        assert_eq!(
            mu.to_bits(),
            round_sums.mu().to_bits(),
            "the round's unit sums were built at another proximal weight"
        );
        // The oracle's masked copy `pv · m` is `pv` on `K` (on `P` every
        // iteration overwrites it before it is read) and `pv · 0.0` on `D`.
        // Its gradient outside `P` is the zeroed buffer, the task's exact
        // zero, then `+= μ·diff`: on `F` that is the arena's `+0.0`, on `D`
        // the round constant written here.
        masked.copy_from_slice(local);
        for run in dropped.iter().cloned() {
            for ((slot, g), &gp) in masked[run.clone()]
                .iter_mut()
                .zip(&mut grad[run.clone()])
                .zip(&global[run])
            {
                *slot *= 0.0;
                *g = 0.0 + mu * (*slot - gp);
            }
        }
        let segments = segments(packed.gather_map(), dropped);
        let units: Vec<(&UnitParams, bool)> = layout
            .layers()
            .iter()
            .flat_map(|layer| layer.units.iter())
            .zip(mask.keep_flags().iter().copied())
            .collect();
        // A dropped unit's entry is its walk over `masked`, `local` and
        // `grad` as just written; every iteration overwrites the kept units'
        // entries before reading them.
        assert_eq!(round_sums.sums().len(), units.len(), "unit count mismatch");
        let sums = round_sums.sums().to_vec();
        Self {
            packed,
            global,
            objective,
            sgd,
            q_grad: Vec::with_capacity(units.len()),
            units,
            segments,
            sums,
            masked,
            grad,
            packed_params,
            packed_grad,
        }
    }

    /// One local iteration on minibatch `indices`: evaluates the objective,
    /// updates `local` on `P` by the (clipped) masked SGD step and returns
    /// the breakdown together with `∂L/∂Q`, which the caller applies.
    pub(crate) fn iterate(
        &mut self,
        local: &mut [f32],
        indicator: &ImportanceIndicator,
        data: &Dataset,
        indices: &[usize],
    ) -> (LossBreakdown, &[f32]) {
        let gather = self.packed.gather_map();
        // `masked = local · 1.0 = local` on `P` (asserted mask-kept).
        for (slot, &c) in self.packed_params.iter_mut().zip(gather.iter()) {
            let v = local[c as usize];
            self.masked[c as usize] = v;
            *slot = v;
        }
        self.packed_grad.fill(0.0);
        let stats =
            self.packed
                .arch()
                .loss_and_grad(self.packed_params, data, indices, self.packed_grad);

        let (proximal, norm_sq) = match self.sgd.clip_norm {
            Some(_) => self.ordered_pass::<true>(),
            None => self.ordered_pass::<false>(),
        };

        // The kept units' sums read the gradient before clipping and the
        // parameters before the step, as the oracle's indicator update does.
        for ((unit, kept), sums) in self.units.iter().zip(self.sums.iter_mut()) {
            if *kept {
                *sums = UnitSums::walk(unit, self.masked, local, self.grad);
            }
        }
        let importance = importance_term(indicator, self.sums.iter().map(|s| s.masked_magnitude));
        let breakdown = self.objective.breakdown(stats, proximal, importance);
        let lambda = self.objective.lambda;
        self.q_grad.clear();
        self.q_grad.extend(
            self.units
                .iter()
                .zip(self.sums.iter())
                .enumerate()
                .map(|(j, ((unit, _), sums))| indicator.unit_gradient(j, unit, sums, lambda)),
        );

        // Eq. 10 on `P`; `D` is frozen by the mask and `F` by the invariant.
        let factor = self
            .sgd
            .clip_norm
            .and_then(|max_norm| clip_factor(norm_sq, max_norm));
        for &c in gather {
            let mut g = self.grad[c as usize];
            if let Some(factor) = factor {
                g *= factor;
            }
            self.sgd.update(&mut local[c as usize], g);
        }
        (breakdown, &self.q_grad)
    }

    /// The ascending pass over `P ∪ D`: writes the gradient on `P` and
    /// returns the proximal sum and, when `CLIP`, the squared gradient norm
    /// (the order argument is in the module doc).
    fn ordered_pass<const CLIP: bool>(&mut self) -> (f64, f32) {
        let mu = self.objective.mu;
        let (gather, masked, global) = (self.packed.gather_map(), &*self.masked, self.global);
        let grad = &mut *self.grad;
        let (mut proximal, mut norm_sq) = (0.0f64, 0.0f32);
        let mut k = 0;
        for segment in &self.segments {
            let packed = k..k + segment.packed;
            for (&c, &task) in gather[packed.clone()].iter().zip(&self.packed_grad[packed]) {
                let i = c as usize;
                let diff = masked[i] - global[i];
                proximal += (diff * diff) as f64;
                let g = (0.0 + task) + mu * diff;
                grad[i] = g;
                if CLIP {
                    norm_sq += g * g;
                }
            }
            k += segment.packed;
            let run = segment.dropped.clone();
            for ((&p, &gp), &g) in masked[run.clone()]
                .iter()
                .zip(&global[run.clone()])
                .zip(&grad[run])
            {
                let diff = p - gp;
                proximal += (diff * diff) as f64;
                if CLIP {
                    norm_sq += g * g;
                }
            }
        }
        (proximal, norm_sq)
    }
}

/// The ascending `P`/`D` walk: each dropped run after the gather
/// coordinates that precede it, then the remaining gather coordinates with
/// an empty run.
///
/// # Panics
/// Panics if a gather coordinate falls in a dropped run, i.e. unless
/// `P ⊆ K`.
fn segments(gather: &[u32], dropped: &[Range<usize>]) -> Vec<Segment> {
    let mut segments = Vec::with_capacity(dropped.len() + 1);
    let mut k = 0;
    for run in dropped {
        let before = k;
        k += gather[k..].partition_point(|&c| (c as usize) < run.start);
        if let Some(&c) = gather.get(k) {
            assert!(
                c as usize >= run.end,
                "packed coordinate {c} is not mask-kept"
            );
        }
        segments.push(Segment {
            packed: k - before,
            dropped: run.clone(),
        });
    }
    segments.push(Segment {
        packed: gather.len() - k,
        dropped: 0..0,
    });
    segments
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlps_nn::convnet::{ConvNet, ConvNetConfig};
    use fedlps_nn::lstm::{LstmLm, LstmLmConfig};
    use fedlps_nn::mlp::{Mlp, MlpConfig};
    use fedlps_nn::model::ModelArch;
    use fedlps_sparse::plan::SubmodelPlan;
    use fedlps_tensor::rng_from_seed;
    use rand::Rng;

    /// An MLP, a ConvNet or an LSTM (whose unit ranges overlap).
    fn arch_of(kind: usize) -> Box<dyn ModelArch> {
        match kind {
            0 => Box::new(Mlp::new(MlpConfig {
                input_dim: 6,
                hidden: vec![8, 5],
                num_classes: 3,
            })),
            1 => Box::new(ConvNet::new(ConvNetConfig {
                in_channels: 2,
                height: 5,
                width: 5,
                channels: vec![4, 3],
                hidden: 5,
                num_classes: 3,
            })),
            _ => Box::new(LstmLm::new(LstmLmConfig {
                vocab: 5,
                seq_len: 4,
                embed: 3,
                hidden: 6,
                num_classes: 5,
            })),
        }
    }

    fn assert_sums_bits_eq(table: &UnitSums, walked: &UnitSums, what: &str) {
        assert_eq!(
            table.masked_magnitude.to_bits(),
            walked.masked_magnitude.to_bits(),
            "{what}: masked magnitude"
        );
        assert_eq!(
            table.magnitude.to_bits(),
            walked.magnitude.to_bits(),
            "{what}: magnitude"
        );
        assert_eq!(
            table.straight_through.to_bits(),
            walked.straight_through.to_bits(),
            "{what}: straight-through sum"
        );
    }

    /// The round's table against the walks it replaces: every dropped
    /// unit's entry equals [`UnitSums::walk`] over the masked and gradient
    /// buffers the task prologue writes, and its σ'd magnitudes equal
    /// [`ImportanceIndicator::from_params`], bit for bit, for globals with
    /// signed zeros, `μ` from `0` up and random masks.
    #[test]
    fn round_sums_equal_the_prologue_walks_bit_for_bit() {
        for kind in 0..3 {
            let arch = arch_of(kind);
            let layout = arch.unit_layout();
            for case in 0..24u64 {
                let mut rng = rng_from_seed(case << 2 | kind as u64);
                let mut global = arch.init_params(&mut rng);
                for v in &mut global {
                    match rng.gen_range(0..6) {
                        0 => *v = 0.0,
                        1 => *v = -0.0,
                        _ => {}
                    }
                }
                let mu = match case % 4 {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.gen_range(0.0f32..2.0),
                };
                let table = GlobalUnitSums::new(layout, &global, mu);

                let cold = ImportanceIndicator::from_global_sums(&table);
                let oracle = ImportanceIndicator::from_params(layout, &global);
                for (j, (c, o)) in cold.scores().iter().zip(oracle.scores()).enumerate() {
                    assert_eq!(c.to_bits(), o.to_bits(), "indicator of unit {j}");
                }

                // A random keep pattern with one survivor per layer, so the
                // mask packs.
                let keep_prob = rng.gen_range(0.0f64..1.0);
                let mut keep: Vec<bool> = (0..layout.total_units())
                    .map(|_| rng.gen_bool(keep_prob))
                    .collect();
                let mut first = 0;
                for layer in layout.layers() {
                    keep[first + rng.gen_range(0..layer.len())] = true;
                    first += layer.len();
                }
                let mask = UnitMask::from_keep(keep);
                let packed = SubmodelPlan::from_mask(layout, &mask)
                    .compile(&*arch)
                    .expect("a mask with a survivor per layer packs");
                let dropped = layout.dropped_runs(mask.keep_flags());
                let (n, p) = (arch.param_count(), packed.packed_len());
                let (mut masked, mut grad) = (vec![0.0; n], vec![0.0; n]);
                let (mut packed_params, mut packed_grad) = (vec![0.0; p], vec![0.0; p]);
                let step = PackedStep::new(
                    layout,
                    &packed,
                    &mask,
                    &dropped,
                    &global,
                    &global,
                    &table,
                    ImportanceLoss::new(mu, 1.0),
                    SgdConfig::vision(),
                    [&mut masked, &mut grad, &mut packed_params, &mut packed_grad],
                );
                let entries = step.units.iter().zip(&step.sums).enumerate();
                for (j, ((unit, kept), sums)) in entries {
                    if !kept {
                        let walked = UnitSums::walk(unit, step.masked, &global, step.grad);
                        let what = format!("arch {kind}, case {case}, unit {j}");
                        assert_sums_bits_eq(sums, &walked, &what);
                    }
                }
            }
        }
    }
}
