//! Property-based tests of the mask / pattern / ratio invariants that the
//! whole sparsification pipeline rests on.

use fedlps_nn::convnet::{ConvNet, ConvNetConfig};
use fedlps_nn::lstm::{LstmLm, LstmLmConfig};
use fedlps_nn::mlp::{Mlp, MlpConfig};
use fedlps_nn::model::ModelArch;
use fedlps_sparse::cache::MaskCache;
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

    /// Every pattern strategy retains exactly ⌈s·J_l⌉ units per layer (≥ 1).
    #[test]
    fn strategies_hit_the_layerwise_budget(h0 in 2usize..16, h1 in 2usize..12,
                                            ratio in 0.01f64..1.0, seed in 0u64..500) {
        let model = mlp(h0, h1);
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

    /// A mask served from the [`MaskCache`] is identical to a freshly built
    /// mask for any (seed, ratio) pair, for any equivalent probe ratio: a
    /// lookup hits exactly when the probe extracts the same per-layer
    /// retained-unit counts, and then the cached mask equals the pattern the
    /// builder would derive at the probe ratio.
    #[test]
    fn cached_and_fresh_masks_are_identical(h0 in 2usize..16, h1 in 2usize..12,
                                             ratio in 0.01f64..1.0, probe in 0.01f64..1.0,
                                             client in 0usize..8, seed in 0u64..500) {
        let model = mlp(h0, h1);
        let layout = model.unit_layout();
        let scores: Vec<f32> = (0..layout.total_units())
            .map(|i| ((i as f32) + seed as f32 * 0.13).sin())
            .collect();
        let mut cache = MaskCache::new(layout.units_per_layer());

        // First participation: a compulsory miss, then the build is cached.
        prop_assert!(cache.lookup(client, ratio).is_none());
        cache.insert(client, ratio, learnable_pattern(layout, &scores, ratio), None);
        prop_assert_eq!(cache.len(), 1);

        // Probing at any ratio: equal submodel shape => hit with the exact
        // mask a fresh build would produce; different shape => miss.
        let same_shape = cache.key_for(probe) == cache.key_for(ratio);
        match cache.lookup(client, probe) {
            Some((cached, _plan)) => {
                prop_assert!(same_shape);
                prop_assert_eq!(cached, &learnable_pattern(layout, &scores, probe));
            }
            None => prop_assert!(!same_shape),
        }
        // Other clients never alias this entry.
        prop_assert!(cache.lookup((client + 1) % 8, ratio).is_none());
    }
}
