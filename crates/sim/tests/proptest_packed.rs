//! The packed-execution equivalence contract, property-tested: for every
//! model family (MLP / CNN / LSTM), sparse ratio and seed, training the
//! physically packed submodel is **bit-identical** to masked-dense training —
//! same trained parameters, same loss/accuracy statistics — and so is
//! evaluating a deployed sparse model on it.
//!
//! This is the property that lets every client whose mask packs train
//! packed with no run-level switch: masked-dense is the automatic fallback
//! and the reference oracle, never a second result. It rests on three structural
//! facts pinned by unit tests in `fedlps-nn`: the matmul variants skip
//! `a == 0.0` operands in ascending order, `relu'(0) = 0` severs dropped
//! ReLU units, and LSTM cells own their outgoing connections.

use fedlps_data::dataset::{Dataset, InputKind};
use fedlps_nn::convnet::{ConvNet, ConvNetConfig};
use fedlps_nn::lstm::{LstmLm, LstmLmConfig};
use fedlps_nn::mlp::{Mlp, MlpConfig};
use fedlps_nn::model::ModelArch;
use fedlps_nn::sgd::SgdConfig;
use fedlps_sim::train::{
    compile_packed, evaluate_masked, local_sgd, local_sgd_packed, LocalTrainOptions,
};
use fedlps_sparse::mask::UnitMask;
use fedlps_sparse::pattern::PatternStrategy;
use fedlps_tensor::{rng_from_seed, Matrix};
use proptest::prelude::*;
use rand::Rng;

/// Builds one of the three model families plus a matching toy dataset.
fn model_and_data(kind: usize, seed: u64) -> (Box<dyn ModelArch>, Dataset, SgdConfig) {
    let mut rng = rng_from_seed(seed ^ 0xDA7A);
    match kind % 3 {
        0 => {
            let arch = Box::new(Mlp::new(MlpConfig {
                input_dim: 7,
                hidden: vec![9, 6],
                num_classes: 4,
            }));
            let features = Matrix::random_normal(20, 7, 1.0, &mut rng);
            let labels = (0..20).map(|i| i % 4).collect();
            let data = Dataset::new(features, labels, 4, InputKind::Vector { dim: 7 });
            (arch, data, SgdConfig::vision())
        }
        1 => {
            let arch = Box::new(ConvNet::new(ConvNetConfig {
                in_channels: 2,
                height: 5,
                width: 5,
                channels: vec![4, 5],
                hidden: 6,
                num_classes: 3,
            }));
            let features = Matrix::random_normal(12, 2 * 5 * 5, 1.0, &mut rng);
            let labels = (0..12).map(|i| i % 3).collect();
            let data = Dataset::new(
                features,
                labels,
                3,
                InputKind::Image {
                    channels: 2,
                    height: 5,
                    width: 5,
                },
            );
            (arch, data, SgdConfig::vision())
        }
        _ => {
            let arch = Box::new(LstmLm::new(LstmLmConfig {
                vocab: 6,
                seq_len: 4,
                embed: 3,
                hidden: 5,
                num_classes: 6,
            }));
            let mut features = Matrix::zeros(14, 4);
            for r in 0..14 {
                for v in features.row_mut(r) {
                    *v = rng.gen_range(0..6) as f32;
                }
            }
            let labels = (0..14).map(|i| i % 6).collect();
            let data = Dataset::new(
                features,
                labels,
                6,
                InputKind::Sequence { len: 4, vocab: 6 },
            );
            // The paper's text setup: big learning rate + gradient clipping —
            // the clip norm must also agree bit for bit.
            (arch, data, SgdConfig::text())
        }
    }
}

proptest! {
    // Each case trains two (tiny) models, hence the small default case
    // count; `PROPTEST_CASES` still overrides it.
    #![proptest_config(ProptestConfig::with_cases(18))]

    #[test]
    fn packed_training_is_bit_identical_to_masked_dense(
        kind in 0usize..3,
        ratio in 0.15f64..1.0,
        seed in 0u64..10_000,
        pattern_pick in 0usize..3,
    ) {
        let (arch, data, sgd) = model_and_data(kind, seed);
        let mut mask_rng = rng_from_seed(seed ^ 0x3A5);
        let init = arch.init_params(&mut mask_rng);
        let pattern = [
            PatternStrategy::Ordered,
            PatternStrategy::Magnitude,
            PatternStrategy::Random,
        ][pattern_pick];
        let mask = pattern.build_mask(arch.unit_layout(), &init, None, ratio, 0, &mut mask_rng);
        let pmask = mask.param_mask(arch.unit_layout());
        let options = LocalTrainOptions {
            iterations: 3,
            batch_size: 5,
            sgd,
            param_mask: Some(&pmask),
            prox: None,
            frozen: None,
        };
        let packed = compile_packed(&*arch, &mask)
            .expect("every layer keeps >= 1 unit at these ratios");

        let mut dense_params = init.clone();
        let mut rng_dense = rng_from_seed(seed ^ 0x7E57);
        let dense = local_sgd(&*arch, &mut dense_params, &data, &options, &mut rng_dense);

        let mut rng_packed = rng_from_seed(seed ^ 0x7E57);
        let unmasked = LocalTrainOptions { param_mask: None, ..options };
        let (values, summary) = local_sgd_packed(&packed, &init, &data, &unmasked, &mut rng_packed);
        let mut packed_params = mask.apply(arch.unit_layout(), &init);
        packed.scatter_params(&values, &mut packed_params);

        prop_assert_eq!(dense.mean_loss.to_bits(), summary.mean_loss.to_bits());
        prop_assert_eq!(dense.mean_accuracy.to_bits(), summary.mean_accuracy.to_bits());
        for (i, (d, p)) in dense_params.iter().zip(packed_params.iter()).enumerate() {
            prop_assert_eq!(d.to_bits(), p.to_bits(), "parameter {} diverges", i);
        }
    }
}

/// `mask` with every unit of one layer dropped: a submodel that does not
/// compile, so evaluation takes the masked-dense fallback.
fn empty_one_layer(arch: &dyn ModelArch, mask: &UnitMask, pick: usize) -> UnitMask {
    let layers = arch.unit_layout().layers();
    let emptied = pick % layers.len();
    let start: usize = layers[..emptied].iter().map(|l| l.len()).sum();
    let dropped = start..start + layers[emptied].len();
    UnitMask::from_keep(
        (0..mask.len())
            .map(|j| mask.is_kept(j) && !dropped.contains(&j))
            .collect(),
    )
}

proptest! {
    // Forward-only and cheap: the default case count, cranked by the
    // nightly `PROPTEST_CASES` job.

    #[test]
    fn packed_evaluation_is_bit_identical_to_masked_dense(
        kind in 0usize..3,
        ratio in 0.15f64..1.0,
        seed in 0u64..10_000,
        pattern_pick in 0usize..3,
        fallback in 0usize..3,
        layer_pick in 0usize..8,
    ) {
        let (arch, data, _) = model_and_data(kind, seed);
        let mut rng = rng_from_seed(seed ^ 0xE7A1);
        let mut params = arch.init_params(&mut rng);
        // Signed zeros among the parameters: `-0.0 · 1.0` must reach the
        // packed model as `-0.0`, and `p · 0.0` yields `-0.0` on the dropped
        // units of the masked-dense reference whenever `p` is negative.
        for p in params.iter_mut() {
            match rng.gen_range(0..8) {
                0 => *p = 0.0,
                1 => *p = -0.0,
                _ => {}
            }
        }
        let pattern = [
            PatternStrategy::Ordered,
            PatternStrategy::Magnitude,
            PatternStrategy::Random,
        ][pattern_pick];
        let mut mask = pattern.build_mask(arch.unit_layout(), &params, None, ratio, 0, &mut rng);
        let packs = fallback != 0;
        if !packs {
            mask = empty_one_layer(&*arch, &mask, layer_pick);
        }
        prop_assert_eq!(compile_packed(&*arch, &mask).is_some(), packs);

        let dense = arch.evaluate(&mask.apply(arch.unit_layout(), &params), &data);
        let packed = evaluate_masked(&*arch, &mask, &params, &data);
        prop_assert_eq!(dense.loss.to_bits(), packed.loss.to_bits());
        prop_assert_eq!(dense.accuracy.to_bits(), packed.accuracy.to_bits());
        prop_assert_eq!(dense.samples, packed.samples);
    }
}
