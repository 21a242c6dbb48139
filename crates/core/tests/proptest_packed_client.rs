//! Property test of the packed-execution contract at the FedLPS client
//! level: Algorithm 1's full objective — masked task loss, proximal term,
//! importance-indicator co-training — produces **bit-identical** residuals,
//! personal models and indicator states whether the task forward/backward
//! runs masked-dense or on the physically packed submodel.
//!
//! The `local_sgd`-level property lives in `fedlps-sim`; this file pins the
//! harder case where the gradient buffer is shared between the model step
//! and the indicator's straight-through estimate, so a single stray nonzero
//! outside the packed set would diverge the indicator trajectory. Cases
//! cover one to four local iterations, ratios down to the 0.01 floor,
//! `μ, λ ∈ {0, 0.5, 1}`, the LSTM's clipped SGD and clipping tight enough to
//! fire on every architecture, a global model with an
//! all-zero unit and `-0.0` entries, and a second participation that
//! carries the first one's state and is served its mask and plan as cached.

use std::sync::Arc;

use fedlps_core::client::{ClientState, ClientTask, ClientTaskOutput, ClientUpdateOptions};
use fedlps_data::dataset::{Dataset, InputKind};
use fedlps_nn::convnet::{ConvNet, ConvNetConfig};
use fedlps_nn::lstm::{LstmLm, LstmLmConfig};
use fedlps_nn::mlp::{Mlp, MlpConfig};
use fedlps_nn::model::ModelArch;
use fedlps_nn::pack::PackedModel;
use fedlps_nn::sgd::SgdConfig;
use fedlps_sparse::mask::UnitMask;
use fedlps_sparse::pattern::PatternStrategy;
use fedlps_tensor::{rng_from_seed, Matrix};
use proptest::prelude::*;
use rand::Rng;

fn model_and_data(kind: usize, seed: u64) -> (Box<dyn ModelArch>, Dataset, SgdConfig) {
    let mut rng = rng_from_seed(seed ^ 0xC11E57);
    match kind % 3 {
        0 => {
            let arch = Box::new(Mlp::new(MlpConfig {
                input_dim: 6,
                hidden: vec![8, 5],
                num_classes: 3,
            }));
            let features = Matrix::random_normal(16, 6, 1.0, &mut rng);
            let labels = (0..16).map(|i| i % 3).collect();
            let data = Dataset::new(features, labels, 3, InputKind::Vector { dim: 6 });
            (arch, data, SgdConfig::vision())
        }
        1 => {
            let arch = Box::new(ConvNet::new(ConvNetConfig {
                in_channels: 1,
                height: 5,
                width: 5,
                channels: vec![4],
                hidden: 5,
                num_classes: 3,
            }));
            let features = Matrix::random_normal(10, 25, 1.0, &mut rng);
            let labels = (0..10).map(|i| i % 3).collect();
            let data = Dataset::new(
                features,
                labels,
                3,
                InputKind::Image {
                    channels: 1,
                    height: 5,
                    width: 5,
                },
            );
            (arch, data, SgdConfig::vision())
        }
        _ => {
            let arch = Box::new(LstmLm::new(LstmLmConfig {
                vocab: 5,
                seq_len: 4,
                embed: 3,
                hidden: 4,
                num_classes: 5,
            }));
            let mut features = Matrix::zeros(10, 4);
            for r in 0..10 {
                for v in features.row_mut(r) {
                    *v = rng.gen_range(0..5) as f32;
                }
            }
            let labels = (0..10).map(|i| i % 5).collect();
            let data = Dataset::new(
                features,
                labels,
                5,
                InputKind::Sequence { len: 4, vocab: 5 },
            );
            (arch, data, SgdConfig::text())
        }
    }
}

/// Zeroes one unit of `global` (alternating `+0.0` / `-0.0`) and flips
/// every eleventh coordinate to `-0.0`: an all-zero unit has magnitude zero
/// and signed zeros exercise the `0.0 + …` and `x · 0.0` expressions.
fn with_zero_unit_and_signed_zeros(arch: &dyn ModelArch, global: &mut [f32], unit: usize) {
    let layout = arch.unit_layout();
    for r in &layout.unit(unit % layout.total_units()).ranges {
        for (i, v) in global.iter_mut().enumerate().take(r.end()).skip(r.start) {
            *v = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
    }
    for v in global.iter_mut().skip(3).step_by(11) {
        *v = -0.0;
    }
}

fn assert_bits_eq(what: &str, dense: &[f32], packed: &[f32]) {
    prop_assert_eq!(dense.len(), packed.len());
    for (i, (d, p)) in dense.iter().zip(packed.iter()).enumerate() {
        prop_assert_eq!(d.to_bits(), p.to_bits(), "{} diverges at {}", what, i);
    }
}

/// Every output of the two runs, bit for bit.
fn assert_same_output(dense: &ClientTaskOutput, packed: &ClientTaskOutput) {
    prop_assert!(
        packed.state.plan.is_some(),
        "the packed run compiled no plan"
    );
    prop_assert_eq!(&dense.outcome.mask, &packed.outcome.mask);
    prop_assert_eq!(
        dense.outcome.mean_loss.to_bits(),
        packed.outcome.mean_loss.to_bits()
    );
    prop_assert_eq!(
        dense.outcome.mean_accuracy.to_bits(),
        packed.outcome.mean_accuracy.to_bits()
    );
    prop_assert_eq!(
        dense.outcome.uploaded_params,
        packed.outcome.uploaded_params
    );
    assert_bits_eq(
        "residual",
        &dense.outcome.residual.to_dense(),
        &packed.outcome.residual.to_dense(),
    );
    assert_bits_eq(
        "indicator",
        dense.state.indicator.as_ref().expect("trained"),
        packed.state.indicator.as_ref().expect("trained"),
    );
    assert_bits_eq(
        "personal model",
        dense.state.personal_model.as_ref().expect("trained"),
        packed.state.personal_model.as_ref().expect("trained"),
    );
}

proptest! {
    // Four full client updates per case; pinned, not nightly-cranked.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_client_update_is_bit_identical(
        kind in 0usize..3,
        ratio in 0.01f64..1.0,
        iterations in 1usize..=4,
        mu in 0usize..3,
        lambda in 0usize..3,
        // Below 64: zero that unit (modulo the unit count); else leave the
        // initialisation as it is.
        zero_unit in 0usize..128,
        // The model's own SGD, or clipping at a norm every step exceeds.
        tight_clip in 0usize..2,
        seed in 0u64..5_000,
    ) {
        let (arch, data, mut sgd) = model_and_data(kind, seed);
        if tight_clip == 1 {
            sgd.clip_norm = Some(0.05);
        }
        let mut init_rng = rng_from_seed(seed ^ 0x9E);
        let mut global = arch.init_params(&mut init_rng);
        if zero_unit < 64 {
            with_zero_unit_and_signed_zeros(&*arch, &mut global, zero_unit);
        }
        let weights = [0.0, 0.5, 1.0];
        let options = ClientUpdateOptions {
            iterations,
            batch_size: 5,
            sgd,
            importance_lr: 0.1,
            mu: weights[mu],
            lambda: weights[lambda],
            pattern: PatternStrategy::Importance,
            ratio,
            round: 0,
        };
        // One run of the task; `state.plan` is `Some` for the packed side only.
        let run = |global: &[f32],
                   state: &ClientState,
                   cached_mask: Option<&UnitMask>,
                   packed_execution: bool,
                   cached_plan: Option<Arc<PackedModel>>,
                   stream: u64| {
            ClientTask {
                arch: &*arch,
                global,
                state,
                data: &data,
                options,
                cached_mask,
                packed_execution,
                cached_plan,
            }
            .run(&mut rng_from_seed(seed ^ stream))
        };
        let blank = ClientState::default();
        let dense = run(&global, &blank, None, false, None, 0xF00D);
        let packed = run(&global, &blank, None, true, None, 0xF00D);
        assert_same_output(&dense, &packed);

        // A second participation against the aggregated model: each side
        // carries its own first state and is served its mask (and the
        // packed side its plan) from that state, as a reuse would.
        let next_global: Vec<f32> = global
            .iter()
            .zip(dense.outcome.residual.to_dense())
            .map(|(g, r)| g - 0.5 * r)
            .collect();
        let dense_again = run(
            &next_global,
            &dense.state,
            dense.state.last_mask.as_ref(),
            false,
            None,
            0xBEEF,
        );
        let packed_again = run(
            &next_global,
            &packed.state,
            packed.state.last_mask.as_ref(),
            true,
            packed.state.plan.clone(),
            0xBEEF,
        );
        assert_same_output(&dense_again, &packed_again);
    }
}
