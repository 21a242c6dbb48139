//! Helpers shared across the baseline families.

use fedlps_sim::env::FlEnv;

/// A 0/1 vector marking the classifier ("head") parameters of the
/// architecture — used by FedPer / FedRep / FedP3 to keep heads personal.
pub fn head_indicator(env: &FlEnv) -> Vec<f32> {
    let mut head = vec![0.0f32; env.arch.param_count()];
    for i in env.arch.classifier_params() {
        head[i] = 1.0;
    }
    head
}

/// The complement of [`head_indicator`]: 1 on body parameters.
pub fn body_indicator(env: &FlEnv) -> Vec<f32> {
    head_indicator(env).iter().map(|h| 1.0 - h).collect()
}

/// Overwrites the head coordinates of `target` with those of `source`.
pub fn copy_head(env: &FlEnv, target: &mut [f32], source: &[f32]) {
    for i in env.arch.classifier_params() {
        target[i] = source[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use fedlps_core::server::{ContribParams, Contribution, Staged};
    use fedlps_data::scenario::{DatasetKind, ScenarioConfig};
    use fedlps_device::HeterogeneityLevel;
    use fedlps_nn::unit::UnitLayout;
    use fedlps_sim::config::FlConfig;
    use fedlps_sparse::mask::UnitMask;

    fn env() -> FlEnv {
        FlEnv::from_scenario(
            &ScenarioConfig::tiny(DatasetKind::MnistLike),
            HeterogeneityLevel::Low,
            FlConfig::tiny(),
        )
    }

    /// A layout with no sparsifiable layers — enough for dense-contribution
    /// aggregation tests, which never consult it.
    fn trivial_layout(total: usize) -> UnitLayout {
        UnitLayout::new(Vec::new(), total)
    }

    /// Per-parameter coverage, the aggregation rule every baseline family
    /// stages its uploads for, walked serially.
    fn coverage_aggregate(global: &mut [f32], contributions: &[Contribution], layout: &UnitLayout) {
        Contribution::aggregate(global, contributions, layout, 1);
    }

    fn dense(weight: f64, params: Vec<f32>, mask: Option<Vec<f32>>) -> Contribution {
        Contribution {
            weight,
            update: ContribParams::Dense {
                params,
                param_mask: mask,
            },
        }
    }

    #[test]
    fn coverage_aggregate_reduces_to_fedavg_for_dense_inputs() {
        let mut global = vec![0.0f32; 3];
        let contributions = vec![
            dense(1.0, vec![1.0, 1.0, 1.0], None),
            dense(3.0, vec![5.0, 5.0, 5.0], None),
        ];
        coverage_aggregate(&mut global, &contributions, &trivial_layout(3));
        for v in global {
            assert!((v - 4.0).abs() < 1e-6);
        }
    }

    #[test]
    fn coverage_aggregate_respects_masks() {
        let mut global = vec![10.0f32, 10.0, 10.0];
        let contributions = vec![
            dense(1.0, vec![2.0, 2.0, 2.0], Some(vec![1.0, 0.0, 0.0])),
            dense(1.0, vec![4.0, 4.0, 4.0], Some(vec![1.0, 1.0, 0.0])),
        ];
        coverage_aggregate(&mut global, &contributions, &trivial_layout(3));
        assert!((global[0] - 3.0).abs() < 1e-6, "covered by both");
        assert!((global[1] - 4.0).abs() < 1e-6, "covered by client 1 only");
        assert_eq!(global[2], 10.0, "uncovered keeps the old global value");
    }

    #[test]
    fn empty_contributions_are_a_noop() {
        let mut global = vec![1.0f32, 2.0];
        coverage_aggregate(&mut global, &[], &trivial_layout(2));
        assert_eq!(global, vec![1.0, 2.0]);
    }

    #[test]
    fn packed_contributions_aggregate_bit_identically_to_dense_scatter() {
        // Build a real packed submodel so the coords/mask pair is authentic,
        // then check the packed upload aggregates exactly like its dense
        // scatter-back expansion would.
        use fedlps_sparse::plan::SubmodelPlan;
        let env = env();
        let layout = env.arch.unit_layout();
        let global0 = Arc::new(env.initial_params());
        let mut keep = vec![false; layout.total_units()];
        for (i, k) in keep.iter_mut().enumerate() {
            *k = i % 3 != 1;
        }
        let mask = UnitMask::from_keep(keep);
        let packed = SubmodelPlan::from_mask(layout, &mask)
            .compile(&*env.arch)
            .expect("packable");
        let mut values = Vec::new();
        packed.gather_params(&global0, &mut values);
        for (i, v) in values.iter_mut().enumerate() {
            *v += (i as f32 * 0.37).sin() * 0.1; // pretend training moved them
        }
        // Dense expansion: scatter trained values over the base snapshot,
        // then mask-restrict — exactly what the dense path stages.
        let mut dense_params = (*global0).clone();
        packed.scatter_params(&values, &mut dense_params);
        let dense_contrib = dense(2.0, dense_params, Some(mask.param_mask(layout)));
        let packed_contrib = Contribution {
            weight: 2.0,
            update: ContribParams::Packed {
                base: Arc::clone(&global0),
                mask: mask.clone(),
                coords: packed.gather_arc(),
                values,
            },
        };
        let other = || dense(1.0, vec![0.25; layout.total_params()], None);

        let mut via_dense = (*global0).clone();
        coverage_aggregate(&mut via_dense, &[dense_contrib, other()], layout);
        let mut via_packed = (*global0).clone();
        coverage_aggregate(&mut via_packed, &[packed_contrib, other()], layout);
        for (i, (a, b)) in via_dense.iter().zip(via_packed.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "aggregate diverges at {i}");
        }
        assert_ne!(via_packed, *global0, "the update moved the model");
    }

    #[test]
    fn head_and_body_indicators_partition_the_parameters() {
        let env = env();
        let head = head_indicator(&env);
        let body = body_indicator(&env);
        let head_count = head.iter().filter(|&&v| v != 0.0).count();
        assert!(head_count > 0, "MLP classifier head must be non-empty");
        assert!(head_count < env.arch.param_count());
        for (h, b) in head.iter().zip(body.iter()) {
            assert_eq!(h + b, 1.0);
        }
    }

    #[test]
    fn copy_head_only_touches_head_coordinates() {
        let env = env();
        let n = env.arch.param_count();
        let mut target = vec![0.0f32; n];
        let source = vec![7.0f32; n];
        copy_head(&env, &mut target, &source);
        let head = head_indicator(&env);
        for i in 0..n {
            if head[i] != 0.0 {
                assert_eq!(target[i], 7.0);
            } else {
                assert_eq!(target[i], 0.0);
            }
        }
    }
}
