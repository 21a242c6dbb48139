//! Property tests pinning the tier stream's two fill paths to each other: for
//! every heterogeneity level, seed and population size, a profile a
//! [`DeviceFleet::lazy`] fleet replays from its checkpoints equals the one
//! [`DeviceFleet::sample`]'s streaming pass memoized — under arbitrary access
//! order — and resident memory tracks the distinct ids touched, not the
//! population.

use std::collections::BTreeSet;

use fedlps_device::{DeviceFleet, HeterogeneityLevel};
use proptest::prelude::*;

const LEVELS: [HeterogeneityLevel; 4] = [
    HeterogeneityLevel::None,
    HeterogeneityLevel::Low,
    HeterogeneityLevel::Median,
    HeterogeneityLevel::High,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lazy profile-by-id is bit-identical to the dense constructor's
    /// pre-built `Vec` at equal `(size, level, seed)`, no matter in which
    /// order (or how often) the ids are touched.
    #[test]
    fn lazy_profiles_match_dense_sample(
        level_index in 0usize..4,
        seed in 0u64..1_000_000,
        num_devices in 1usize..9000,
        probes in prop::collection::vec(0usize..9000, 1..40),
    ) {
        let level = LEVELS[level_index];
        let dense = DeviceFleet::sample(num_devices, level, seed);
        let lazy = DeviceFleet::lazy(num_devices, level, seed);
        let mut touched = BTreeSet::new();
        for p in probes {
            let k = p % num_devices;
            touched.insert(k);
            prop_assert_eq!(
                lazy.static_profile(k),
                dense.static_profile(k),
                "device {} of {} (level {}, seed {})",
                k, num_devices, level.name(), seed
            );
        }
        // Memory contract: exactly the distinct touched ids are resident.
        prop_assert_eq!(lazy.materialized_profiles(), touched.len());
    }

    /// Availability dynamics are a pure per-id function, so they too agree
    /// between the representations.
    #[test]
    fn lazy_dynamics_match_dense_sample(
        seed in 0u64..100_000,
        num_devices in 1usize..200,
        k in 0usize..200,
        round in 0usize..50,
    ) {
        let k = k % num_devices;
        let dense = DeviceFleet::sample(num_devices, HeterogeneityLevel::High, seed).with_dynamics();
        let lazy = DeviceFleet::lazy(num_devices, HeterogeneityLevel::High, seed).with_dynamics();
        prop_assert_eq!(lazy.available_profile(k, round), dense.available_profile(k, round));
    }
}
