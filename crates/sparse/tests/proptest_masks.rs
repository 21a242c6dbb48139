//! Property-based tests of the mask / pattern / ratio invariants that the
//! whole sparsification pipeline rests on.

use fedlps_nn::convnet::{ConvNet, ConvNetConfig};
use fedlps_nn::lstm::{LstmLm, LstmLmConfig};
use fedlps_nn::mlp::{Mlp, MlpConfig};
use fedlps_nn::model::ModelArch;
use fedlps_sparse::mask::UnitMask;
use fedlps_sparse::pattern::{learnable_pattern, PatternStrategy};
use fedlps_sparse::plan::SubmodelPlan;
use fedlps_sparse::ratio::{realised_ratio, retained_per_layer, retained_units};
use fedlps_tensor::rng_from_seed;
use proptest::prelude::*;
use rand::Rng;

fn mlp(h0: usize, h1: usize) -> Mlp {
    Mlp::new(MlpConfig {
        input_dim: 5,
        hidden: vec![h0, h1],
        num_classes: 4,
    })
}

/// A small instance of architecture `kind % 3`: MLP, ConvNet or LSTM.
fn arch_of(kind: usize, width: usize) -> Box<dyn ModelArch> {
    match kind % 3 {
        0 => Box::new(mlp(width, width / 2 + 1)),
        1 => Box::new(ConvNet::new(ConvNetConfig {
            in_channels: 2,
            height: 4,
            width: 4,
            channels: vec![width, width / 2 + 1],
            hidden: width,
            num_classes: 3,
        })),
        _ => Box::new(LstmLm::new(LstmLmConfig {
            vocab: 6,
            seq_len: 3,
            embed: 3,
            hidden: width,
            num_classes: 6,
        })),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every coordinate a compiled submodel gathers is kept by the mask it
    /// was compiled from (`P ⊆ K`), on every architecture and for arbitrary
    /// masks — including the LSTM, whose unit ranges overlap. The packed
    /// FedLPS step treats the dropped units' coordinates as round constants
    /// on the strength of this property.
    #[test]
    fn packed_coordinates_are_mask_kept(kind in 0usize..3, width in 2usize..9,
                                        keep_prob in 0.0f64..1.0, seed in 0u64..500) {
        let arch = arch_of(kind, width);
        let layout = arch.unit_layout();
        let mut rng = rng_from_seed(seed);
        let mut keep: Vec<bool> = (0..layout.total_units()).map(|_| rng.gen_bool(keep_prob)).collect();
        // One random survivor per layer keeps the plan executable.
        let mut first = 0;
        for layer in layout.layers() {
            keep[first + rng.gen_range(0..layer.len())] = true;
            first += layer.len();
        }
        let mask = UnitMask::from_keep(keep);
        let packed = SubmodelPlan::from_mask(layout, &mask)
            .compile(&*arch)
            .expect("an executable plan compiles");
        let pmask = mask.param_mask(layout);
        for &c in packed.gather_map() {
            prop_assert_eq!(pmask[c as usize], 1.0, "packed coordinate {} is masked", c);
        }
    }

    /// Every pattern strategy retains exactly ⌈s·J_l⌉ units per layer (≥ 1),
    /// and its mask packs, on every architecture: the packed FedLPS paths
    /// fall back to masked-dense only for a mask that does not compile.
    #[test]
    fn strategies_hit_the_layerwise_budget(kind in 0usize..3, width in 2usize..16,
                                            ratio in 0.01f64..1.0, seed in 0u64..500) {
        let model = arch_of(kind, width);
        let layout = model.unit_layout();
        let mut rng = rng_from_seed(seed);
        let params = model.init_params(&mut rng);
        let scores: Vec<f32> = (0..layout.total_units()).map(|i| (i as f32 * 0.37).sin()).collect();
        for strategy in [
            PatternStrategy::Random,
            PatternStrategy::Ordered,
            PatternStrategy::RollingOrdered,
            PatternStrategy::Magnitude,
            PatternStrategy::Importance,
        ] {
            let mask = strategy.build_mask(layout, &params, Some(&scores), ratio, seed as usize, &mut rng);
            prop_assert_eq!(mask.retained_per_layer(layout), retained_per_layer(&layout.units_per_layer(), ratio));
            prop_assert!(
                SubmodelPlan::from_mask(layout, &mask).compile(&*model).is_some(),
                "{:?} mask does not pack on architecture {}", strategy, kind
            );
        }
    }

    /// Expanding a unit mask never zeroes parameters owned by retained units,
    /// and the retained-parameter count is monotone in the ratio.
    #[test]
    fn retained_params_monotone_in_ratio(h0 in 2usize..12, h1 in 2usize..10,
                                          r1 in 0.01f64..1.0, r2 in 0.01f64..1.0) {
        let model = mlp(h0, h1);
        let layout = model.unit_layout();
        let scores: Vec<f32> = (0..layout.total_units()).map(|i| i as f32).collect();
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let small = learnable_pattern(layout, &scores, lo);
        let large = learnable_pattern(layout, &scores, hi);
        prop_assert!(small.retained_params(layout) <= large.retained_params(layout));
        // Importance-based masks at nested ratios are nested sets.
        prop_assert_eq!(small.intersect(&large), small.clone());
    }

    /// The retained-parameter count, taken over the dropped units' ranges,
    /// is the nonzero count of the expanded mask on every architecture
    /// (the LSTM's ranges overlap), for any keep pattern.
    #[test]
    fn retained_params_counts_the_expanded_mask(kind in 0usize..3, width in 2usize..8,
                                                 seed in 0u64..500) {
        let model = arch_of(kind, width);
        let layout = model.unit_layout();
        let mut rng = rng_from_seed(seed);
        let mask = UnitMask::from_keep((0..layout.total_units()).map(|_| rng.gen()).collect());
        let nonzeros = mask.param_mask(layout).iter().filter(|&&m| m != 0.0).count();
        prop_assert_eq!(mask.retained_params(layout), nonzeros);
    }

    /// The realised ratio never falls below the requested ratio and never
    /// exceeds 1.
    #[test]
    fn realised_ratio_bounds(layers in prop::collection::vec(1usize..40, 1..5), ratio in 0.0f64..1.0) {
        let realised = realised_ratio(&layers, ratio);
        prop_assert!(realised + 1e-9 >= ratio.min(1.0));
        prop_assert!(realised <= 1.0 + 1e-9);
        for &j in &layers {
            let k = retained_units(j, ratio);
            prop_assert!(k >= 1 && k <= j);
        }
    }

    /// Applying a mask twice is the same as applying it once (idempotence).
    #[test]
    fn mask_application_is_idempotent(h0 in 2usize..12, h1 in 2usize..10,
                                       ratio in 0.05f64..1.0, seed in 0u64..500) {
        let model = mlp(h0, h1);
        let layout = model.unit_layout();
        let mut rng = rng_from_seed(seed);
        let params = model.init_params(&mut rng);
        let mask = PatternStrategy::Random.build_mask(layout, &params, None, ratio, 0, &mut rng);
        let once = mask.apply(layout, &params);
        let twice = mask.apply(layout, &once);
        prop_assert_eq!(once, twice);
    }

    /// A reused mask is identical to a freshly built one: at two ratios that
    /// retain the same per-layer unit counts (the reuse test FedLPS applies
    /// to a client's record), the learnable pattern is the same mask, so
    /// serving the previous participation's mask changes nothing.
    #[test]
    fn cached_and_fresh_masks_are_identical(h0 in 2usize..16, h1 in 2usize..12,
                                             ratio in 0.01f64..1.0, probe in 0.01f64..1.0,
                                             seed in 0u64..500) {
        let model = mlp(h0, h1);
        let layout = model.unit_layout();
        let units = layout.units_per_layer();
        let scores: Vec<f32> = (0..layout.total_units())
            .map(|i| ((i as f32) + seed as f32 * 0.13).sin())
            .collect();
        let built = learnable_pattern(layout, &scores, ratio);
        let probed = learnable_pattern(layout, &scores, probe);
        if retained_per_layer(&units, probe) == retained_per_layer(&units, ratio) {
            prop_assert_eq!(built, probed);
        } else {
            prop_assert_ne!(built.retained_per_layer(layout), probed.retained_per_layer(layout));
        }
    }
}
