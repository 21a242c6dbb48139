//! Property test of the coverage-aggregation contract: per-parameter
//! coverage (the baselines' rule) sharded on the coordinate axis is
//! **bit-identical** to the one-shard walk at every shard count — including
//! counts above the parameter count — for any cohort mixing unmasked dense,
//! masked dense and packed contributions.
//!
//! The packed coordinates come from a real compiled `SubmodelPlan`, so each
//! packed upload is the gather map of its own mask, and the mask-covered
//! coordinates outside it read the shared base snapshot, as in training.

use std::sync::Arc;

use fedlps_core::server::{ContribParams, Contribution, Staged};
use fedlps_nn::mlp::{Mlp, MlpConfig};
use fedlps_nn::model::ModelArch;
use fedlps_sparse::mask::UnitMask;
use fedlps_sparse::plan::SubmodelPlan;
use fedlps_tensor::rng_from_seed;
use proptest::prelude::*;
use rand::Rng;

/// A random model, global vector and cohort from one seed: each client is
/// unmasked dense, masked dense or packed with equal probability.
fn random_case(seed: u64, hidden: usize, clients: usize) -> (Mlp, Vec<f32>, Vec<Contribution>) {
    let mut rng = rng_from_seed(seed ^ 0xC0FE);
    let mlp = Mlp::new(MlpConfig {
        input_dim: 3,
        hidden: vec![hidden, 1 + hidden / 2],
        num_classes: 2,
    });
    let layout = mlp.unit_layout();
    let global = Arc::new(mlp.init_params(&mut rng));
    let staged = (0..clients)
        .map(|_| {
            let weight = rng.gen_range(1..50) as f64;
            let params: Vec<f32> = global
                .iter()
                .map(|g| g + rng.gen_range(-1.0f32..1.0))
                .collect();
            let keep = (0..layout.total_units()).map(|_| rng.gen_bool(0.6));
            let mask = UnitMask::from_keep(keep.collect());
            let plan = SubmodelPlan::from_mask(layout, &mask).compile(&mlp);
            let update = match (rng.gen_range(0..3), plan) {
                (0, _) => ContribParams::Dense {
                    params,
                    param_mask: None,
                },
                (1, _) | (_, None) => ContribParams::Dense {
                    params,
                    param_mask: Some(mask.param_mask(layout)),
                },
                (_, Some(packed)) => {
                    let mut values = Vec::new();
                    packed.gather_params(&params, &mut values);
                    ContribParams::Packed {
                        base: Arc::clone(&global),
                        mask,
                        coords: packed.gather_arc(),
                        values,
                    }
                }
            };
            Contribution { weight, update }
        })
        .collect();
    (mlp, (*global).clone(), staged)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharded_coverage_is_bit_identical_to_one_shard(
        seed in 0u64..1_000_000,
        hidden in 1usize..12,
        clients in 1usize..7,
    ) {
        let (mlp, global, staged) = random_case(seed, hidden, clients);
        let layout = mlp.unit_layout();
        let mut serial = global.clone();
        Contribution::aggregate(&mut serial, &staged, layout, 1);

        let len = global.len();
        for shards in [0, 1, 2, len, len + 1, 64] {
            let mut sharded = global.clone();
            Contribution::aggregate(&mut sharded, &staged, layout, shards);
            for (i, (s, t)) in serial.iter().zip(sharded.iter()).enumerate() {
                prop_assert_eq!(
                    s.to_bits(),
                    t.to_bits(),
                    "coordinate {} diverges at {} shards (len {})",
                    i,
                    shards,
                    len
                );
            }
        }
    }
}
