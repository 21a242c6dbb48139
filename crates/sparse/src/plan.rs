//! Compiling unit masks into executable submodel plans.
//!
//! A [`UnitMask`] says *which* units survive; a
//! [`SubmodelPlan`] turns that into the per-layer kept-unit index lists a
//! model architecture needs to build a physically packed submodel (see
//! [`fedlps_nn::pack`]). The plan itself is architecture-agnostic bookkeeping
//! in the flat [`KeptUnits`] layout — one backing vector plus layer offsets,
//! so deriving a plan costs two allocations however deep the model is.
//! [`SubmodelPlan::compile`] hands it to
//! [`ModelArch::pack`] to obtain the
//! compact executable. FedLPS keeps each client's compiled plan in that
//! client's record next to its mask, so a client whose ratio keeps
//! extracting the same submodel shape pays the compilation once.

use fedlps_nn::model::ModelArch;
use fedlps_nn::pack::{KeptUnits, PackedModel};
use fedlps_nn::unit::UnitLayout;

use crate::mask::UnitMask;

/// Kept-unit index lists, one ascending list per sparsifiable layer, stored
/// flat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmodelPlan {
    kept: KeptUnits,
}

impl SubmodelPlan {
    /// Derives the plan of a unit mask under a model's layout.
    pub fn from_mask(layout: &UnitLayout, mask: &UnitMask) -> Self {
        assert_eq!(mask.len(), layout.total_units(), "mask length mismatch");
        let mut kept = KeptUnits::with_capacity(layout.layers().len(), mask.retained_units());
        let mut j = 0;
        for layer in layout.layers() {
            kept.push_layer((0..layer.len()).filter(|&u| mask.is_kept(j + u)));
            j += layer.len();
        }
        Self { kept }
    }

    /// The kept-unit index lists in layer order.
    pub fn kept(&self) -> &KeptUnits {
        &self.kept
    }

    /// Number of retained units per layer.
    pub fn retained_per_layer(&self) -> Vec<usize> {
        self.kept.retained_per_layer()
    }

    /// Whether every layer keeps at least one unit — the structural condition
    /// for the packed submodel to be a connected network.
    pub fn is_executable(&self) -> bool {
        self.kept.is_executable()
    }

    /// Compiles the plan into a physically packed submodel of `arch`.
    ///
    /// Returns `None` when the plan is not executable or the architecture
    /// does not support packing; callers fall back to masked-dense execution.
    pub fn compile(&self, arch: &dyn ModelArch) -> Option<PackedModel> {
        if !self.is_executable() {
            return None;
        }
        arch.pack(&self.kept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlps_nn::mlp::{Mlp, MlpConfig};

    fn mlp() -> Mlp {
        Mlp::new(MlpConfig {
            input_dim: 4,
            hidden: vec![6, 3],
            num_classes: 2,
        })
    }

    fn mask_of(keep: &[bool]) -> UnitMask {
        UnitMask::from_keep(keep.to_vec())
    }

    #[test]
    fn plan_splits_kept_units_by_layer() {
        let model = mlp();
        let keep = [true, false, true, false, false, true, false, true, false];
        let plan = SubmodelPlan::from_mask(model.unit_layout(), &mask_of(&keep));
        assert_eq!(
            plan.kept(),
            &KeptUnits::from_nested(&[vec![0, 2, 5], vec![1]])
        );
        assert_eq!(plan.kept().layer(0), &[0, 2, 5]);
        assert_eq!(plan.kept().layer(1), &[1]);
        assert_eq!(plan.retained_per_layer(), vec![3, 1]);
        assert!(plan.is_executable());
    }

    #[test]
    fn empty_layer_is_not_executable() {
        let model = mlp();
        let keep = [true, true, true, true, true, true, false, false, false];
        let plan = SubmodelPlan::from_mask(model.unit_layout(), &mask_of(&keep));
        assert!(!plan.is_executable());
        assert!(plan.compile(&model).is_none());
    }

    #[test]
    fn compiled_plan_gathers_and_scatters_roundtrip() {
        let model = mlp();
        let keep = [true, false, true, true, false, true, true, false, true];
        let mask = mask_of(&keep);
        let plan = SubmodelPlan::from_mask(model.unit_layout(), &mask);
        let packed = plan.compile(&model).expect("packable");

        // The packed parameter count equals the kept parameters *minus* the
        // full model's cross-connections into dropped units that the mask
        // keeps frozen (they are not unit-owned, so the mask retains them,
        // but they carry no trainable signal and the submodel omits them).
        assert!(packed.packed_len() < model.param_count());
        assert!(packed.packed_len() <= mask.retained_params(model.unit_layout()));

        // Round-trip: gather from a distinctive full vector, scatter into a
        // fresh buffer, gather again — the packed view must be stable. The
        // slice-based gather must agree with the allocating one.
        let full: Vec<f32> = (0..model.param_count()).map(|i| i as f32 + 0.5).collect();
        let mut packed_params = Vec::new();
        packed.gather_params(&full, &mut packed_params);
        let mut packed_into = vec![0.0f32; packed.packed_len()];
        packed.gather_params_into(&full, &mut packed_into);
        assert_eq!(packed_params, packed_into);
        let mut reconstructed = vec![0.0f32; model.param_count()];
        packed.scatter_params(&packed_params, &mut reconstructed);
        let mut again = Vec::new();
        packed.gather_params(&reconstructed, &mut again);
        assert_eq!(packed_params, again);
        // Every scattered coordinate is mask-kept.
        let pmask = mask.param_mask(model.unit_layout());
        for (&i, v) in packed.gather_map().iter().zip(packed_params.iter()) {
            assert_eq!(pmask[i as usize], 1.0, "packed coordinate {i} is masked");
            assert_eq!(reconstructed[i as usize], *v);
        }
    }
}
