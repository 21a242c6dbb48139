//! Device fleets and heterogeneity levels.
//!
//! The paper samples each client's capability tier uniformly from a tier set
//! that depends on the system-heterogeneity level (Figures 7-8): *low* uses
//! `{1, 1/2}`, *median* `{1, 1/2, 1/4}` and *high* the full
//! `{1, 1/2, 1/4, 1/8, 1/16}`. During training the locally *available*
//! capability can additionally fluctuate because devices run other workloads;
//! the fleet models this with a per-round availability factor.
//!
//! # Population scale: one memoized tier stream
//!
//! A fleet stores its static tiers one way: the seeded tier-draw stream,
//! evaluated on demand and memoized sparsely by device id. Its two
//! constructors differ only in when the memo fills:
//!
//! * [`DeviceFleet::lazy`] registers a population of any size in `O(1)`
//!   memory. A client's profile is materialized on first access by replaying
//!   the stream from the nearest checkpoint (see `CHECKPOINT_STRIDE`), so
//!   resident memory stays `O(clients actually touched)` even at millions of
//!   registered devices — the cross-device regime of Oort (OSDI '21) / REFL
//!   (EuroSys '23);
//! * [`DeviceFleet::sample`] fills the whole memo in one streaming pass at
//!   construction, right for federations of tens to thousands of clients.
//!
//! Both read the same stream, so they are **bit-identical** at equal `(size,
//! level, seed)` — rejection sampling included, which a proptest regression
//! pins for every heterogeneity level. Per-round availability is a pure
//! per-id function of the fleet seed.
//!
//! ```
//! use fedlps_device::fleet::DeviceFleet;
//! use fedlps_device::HeterogeneityLevel;
//!
//! let dense = DeviceFleet::sample(1000, HeterogeneityLevel::High, 7);
//! let lazy = DeviceFleet::lazy(1000, HeterogeneityLevel::High, 7);
//! assert_eq!(dense.static_profile(643), lazy.static_profile(643));
//! assert_eq!(lazy.materialized_profiles(), 1); // only client 643 is resident
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use fedlps_tensor::{rng_from_seed, split_seed};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::capability::{CapabilityTier, DeviceProfile};

/// The three system-heterogeneity levels swept in Figures 7-8, plus the
/// homogeneous control setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HeterogeneityLevel {
    /// All devices are top tier (no system heterogeneity).
    None,
    /// Tiers sampled from `{1, 1/2}`.
    Low,
    /// Tiers sampled from `{1, 1/2, 1/4}`.
    Median,
    /// Tiers sampled from `{1, 1/2, 1/4, 1/8, 1/16}` — the paper's default.
    High,
}

impl HeterogeneityLevel {
    /// The tier pool associated with the level.
    pub fn tiers(&self) -> Vec<CapabilityTier> {
        match self {
            HeterogeneityLevel::None => vec![CapabilityTier::Full],
            HeterogeneityLevel::Low => vec![CapabilityTier::Full, CapabilityTier::Half],
            HeterogeneityLevel::Median => vec![
                CapabilityTier::Full,
                CapabilityTier::Half,
                CapabilityTier::Quarter,
            ],
            HeterogeneityLevel::High => CapabilityTier::all().to_vec(),
        }
    }

    /// Level name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            HeterogeneityLevel::None => "none",
            HeterogeneityLevel::Low => "low",
            HeterogeneityLevel::Median => "median",
            HeterogeneityLevel::High => "high",
        }
    }

    /// The three levels compared in Figures 7-8.
    pub fn swept() -> [HeterogeneityLevel; 3] {
        [
            HeterogeneityLevel::Low,
            HeterogeneityLevel::Median,
            HeterogeneityLevel::High,
        ]
    }
}

/// Floor of the per-round availability factor under
/// [`DeviceFleet::with_dynamics`].
const MIN_AVAILABILITY: f64 = 0.5;

/// Distance (in device indices) between cloned RNG checkpoints of the tier
/// stream. First access to an index region replays at most this many
/// tier draws; checkpoint storage is `O(highest touched index / stride)` —
/// a few hundred cloned RNG states even at a million registered devices.
const CHECKPOINT_STRIDE: usize = 4096;

/// Draws the next tier of the stream — the one primitive behind both the
/// streaming fill and the checkpoint replay (including the
/// rejection-sampling behaviour of `gen_range` on non-power-of-two tier
/// pools).
fn draw_tier(tiers: &[CapabilityTier], rng: &mut StdRng) -> CapabilityTier {
    tiers[rng.gen_range(0..tiers.len())]
}

/// RNG stream of the client → zone-aggregator assignment of a two-tier
/// topology (disjoint from the tier and availability streams above).
const STREAM_ZONE: u64 = 0x20E5A5;

/// Seeded zone assignment of a hierarchical (two-tier) topology: which of
/// the `zones` edge aggregators client `client` uploads through. A pure
/// `O(1)` function of `(seed, client)` — like availability, it
/// never materializes a per-population vector, so registered-population
/// scale is preserved.
pub fn zone_assignment(seed: u64, client: usize, zones: usize) -> usize {
    assert!(zones >= 1, "a two-tier topology needs at least one zone");
    let mut rng = rng_from_seed(split_seed(split_seed(seed, STREAM_ZONE), client as u64));
    rng.gen_range(0..zones)
}

/// The seeded tier stream behind every [`DeviceFleet`].
///
/// Conceptually this *is* the `(0..num_devices)` tier-draw loop, evaluated
/// on demand: `profile(k)` replays the draw stream from the nearest
/// checkpoint at or below `k`, memoizes the requested profile in a sparse
/// `BTreeMap` (`clippy.toml` rule D1) and clones an RNG checkpoint every
/// [`CHECKPOINT_STRIDE`] indices so later accesses in the same region are
/// cheap; `fill` memoizes the whole stream in one pass. Shared behind an
/// `Arc` so fleet clones see one memo; the interior `Mutex` only guards
/// memoization — results are a pure function of `(seed, k)`, so the lock
/// order can never influence a value.
struct TierStream {
    num_devices: usize,
    tiers: Vec<CapabilityTier>,
    state: Mutex<TierMemo>,
}

struct TierMemo {
    /// `checkpoints[i]` is the RNG positioned to draw device `i * STRIDE`.
    checkpoints: Vec<StdRng>,
    /// Profiles materialized so far, keyed by device id.
    profiles: BTreeMap<usize, DeviceProfile>,
}

impl TierStream {
    fn new(num_devices: usize, level: HeterogeneityLevel, seed: u64) -> Self {
        Self {
            num_devices,
            tiers: level.tiers(),
            state: Mutex::new(TierMemo {
                checkpoints: vec![rng_from_seed(split_seed(seed, 0xDE71CE))],
                profiles: BTreeMap::new(),
            }),
        }
    }

    fn memo(&self) -> MutexGuard<'_, TierMemo> {
        self.state.lock().expect("tier stream lock")
    }

    fn profile(&self, k: usize) -> DeviceProfile {
        assert!(k < self.num_devices, "device {k} out of range");
        let mut state = self.memo();
        if let Some(p) = state.profiles.get(&k) {
            return *p;
        }
        let ci = k / CHECKPOINT_STRIDE;
        while state.checkpoints.len() <= ci {
            let mut rng = state.checkpoints.last().expect("seed checkpoint").clone();
            for _ in 0..CHECKPOINT_STRIDE {
                let _ = draw_tier(&self.tiers, &mut rng);
            }
            state.checkpoints.push(rng);
        }
        let mut rng = state.checkpoints[ci].clone();
        let mut tier = draw_tier(&self.tiers, &mut rng);
        for _ in (ci * CHECKPOINT_STRIDE)..k {
            tier = draw_tier(&self.tiers, &mut rng);
        }
        let profile = DeviceProfile::from_tier(tier);
        state.profiles.insert(k, profile);
        profile
    }

    /// Memoizes every profile in one pass over the stream.
    fn fill(&self) {
        let mut state = self.memo();
        let mut rng = state.checkpoints[0].clone();
        let stream = std::iter::repeat_with(|| draw_tier(&self.tiers, &mut rng));
        state.profiles = (0..self.num_devices)
            .zip(stream.map(DeviceProfile::from_tier))
            .collect();
    }
}

impl std::fmt::Debug for TierStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TierStream")
            .field("num_devices", &self.num_devices)
            .field("materialized", &self.memo().profiles.len())
            .finish_non_exhaustive()
    }
}

/// A fleet of edge devices with static tiers and optional dynamics.
///
/// See the [module docs](self) for the tier-stream contract.
#[derive(Debug, Clone)]
pub struct DeviceFleet {
    tiers: Arc<TierStream>,
    /// Built by [`DeviceFleet::lazy`]: read by the callers that pick a
    /// population-scale code path.
    lazy: bool,
    /// Set by [`DeviceFleet::with_dynamics`].
    dynamics: bool,
    seed: u64,
}

impl DeviceFleet {
    /// Samples a fleet of `num_devices` devices from the given heterogeneity
    /// level, uniformly over its tier pool (the paper's configuration).
    /// Materializes every profile up front; see [`DeviceFleet::lazy`] for the
    /// `O(touched)`-memory form of the same fleet.
    pub fn sample(num_devices: usize, level: HeterogeneityLevel, seed: u64) -> Self {
        let fleet = Self::lazy(num_devices, level, seed);
        fleet.tiers.fill();
        Self {
            lazy: false,
            ..fleet
        }
    }

    /// Registers a fleet of `num_devices` devices without materializing any
    /// profile: each profile is computed from `(seed, id)` on first access
    /// and memoized sparsely. Bit-identical to [`DeviceFleet::sample`] at
    /// equal arguments, with resident memory proportional to the number of
    /// *distinct devices touched* rather than the registered population.
    pub fn lazy(num_devices: usize, level: HeterogeneityLevel, seed: u64) -> Self {
        Self {
            tiers: Arc::new(TierStream::new(num_devices, level, seed)),
            lazy: true,
            dynamics: false,
            seed,
        }
    }

    /// Enables per-round availability dynamics (the "Dyn" configurations of
    /// the paper's Table II ablation): each round a device's capability is
    /// scaled by a seeded factor drawn uniformly from `[0.5, 1)`.
    pub fn with_dynamics(mut self) -> Self {
        self.dynamics = true;
        self
    }

    /// Number of devices in the fleet.
    pub fn len(&self) -> usize {
        self.tiers.num_devices
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this fleet was built by [`DeviceFleet::lazy`].
    pub fn is_lazy(&self) -> bool {
        self.lazy
    }

    /// Number of device profiles currently resident in memory: the full
    /// population for a sampled fleet, the distinct devices touched so far
    /// for a lazy one. The population-scale bench asserts on this to pin the
    /// `O(active participants)` memory contract.
    pub fn materialized_profiles(&self) -> usize {
        self.tiers.memo().profiles.len()
    }

    /// The *static* profile of device `k` (its nominal tier). A memo lookup
    /// once materialized; otherwise the first access to an index region
    /// replays at most `CHECKPOINT_STRIDE` (4096) tier draws and memoizes the
    /// result.
    pub fn static_profile(&self, k: usize) -> DeviceProfile {
        self.tiers.profile(k)
    }

    /// The profile of device `k` as available in round `r`: the static profile
    /// scaled by a deterministic pseudo-random availability factor when
    /// dynamics are enabled.
    pub fn available_profile(&self, k: usize, round: usize) -> DeviceProfile {
        let base = self.static_profile(k);
        if !self.dynamics {
            return base;
        }
        let mut rng = rng_from_seed(split_seed(
            self.seed,
            0xD1A1 ^ ((k as u64) << 20) ^ round as u64,
        ));
        let span = 1.0 - MIN_AVAILABILITY;
        let factor = MIN_AVAILABILITY + span * rng.gen::<f64>();
        base.with_availability(factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_pools_match_paper() {
        assert_eq!(HeterogeneityLevel::Low.tiers().len(), 2);
        assert_eq!(HeterogeneityLevel::Median.tiers().len(), 3);
        assert_eq!(HeterogeneityLevel::High.tiers().len(), 5);
        assert_eq!(HeterogeneityLevel::None.tiers().len(), 1);
    }

    /// All static profiles of a fleet, via the non-deprecated per-id API.
    fn all_profiles(fleet: &DeviceFleet) -> Vec<DeviceProfile> {
        (0..fleet.len()).map(|k| fleet.static_profile(k)).collect()
    }

    #[test]
    fn sampled_fleet_only_uses_allowed_tiers() {
        let fleet = DeviceFleet::sample(50, HeterogeneityLevel::Low, 3);
        assert_eq!(fleet.len(), 50);
        for d in all_profiles(&fleet) {
            assert!(d.capability >= 0.5 - 1e-12);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let a = DeviceFleet::sample(10, HeterogeneityLevel::High, 7);
        let b = DeviceFleet::sample(10, HeterogeneityLevel::High, 7);
        let c = DeviceFleet::sample(10, HeterogeneityLevel::High, 8);
        assert_eq!(all_profiles(&a), all_profiles(&b));
        assert_ne!(all_profiles(&a), all_profiles(&c));
    }

    #[test]
    fn lazy_fleet_is_bit_identical_to_dense_sample() {
        for level in [
            HeterogeneityLevel::None,
            HeterogeneityLevel::Low,
            HeterogeneityLevel::Median,
            HeterogeneityLevel::High,
        ] {
            for seed in [0, 7, 4242] {
                let dense = DeviceFleet::sample(300, level, seed);
                let lazy = DeviceFleet::lazy(300, level, seed);
                assert_eq!(
                    all_profiles(&dense),
                    all_profiles(&lazy),
                    "level {} seed {seed}",
                    level.name()
                );
            }
        }
    }

    #[test]
    fn lazy_fleet_replay_is_access_order_independent_across_checkpoints() {
        // Spans several CHECKPOINT_STRIDE regions, probed out of order and
        // with repeats; each probe must match the dense fleet regardless of
        // which checkpoints were built first.
        let n = 3 * CHECKPOINT_STRIDE + 17;
        let dense = DeviceFleet::sample(n, HeterogeneityLevel::High, 11);
        let lazy = DeviceFleet::lazy(n, HeterogeneityLevel::High, 11);
        let probes = [
            n - 1,
            0,
            2 * CHECKPOINT_STRIDE + 5,
            CHECKPOINT_STRIDE - 1,
            CHECKPOINT_STRIDE,
            0,
            n - 1,
            CHECKPOINT_STRIDE + 1,
        ];
        for &k in &probes {
            assert_eq!(
                lazy.static_profile(k),
                dense.static_profile(k),
                "device {k}"
            );
        }
        let distinct = probes.iter().collect::<std::collections::BTreeSet<_>>();
        assert_eq!(lazy.materialized_profiles(), distinct.len());
        assert_eq!(dense.materialized_profiles(), n);
    }

    #[test]
    fn lazy_fleet_clones_share_one_memo_cache() {
        let lazy = DeviceFleet::lazy(100, HeterogeneityLevel::High, 7);
        let clone = lazy.clone();
        let _ = clone.static_profile(42);
        assert_eq!(lazy.materialized_profiles(), 1);
    }

    #[test]
    fn is_lazy_names_the_constructor_and_clones_share_one_memo() {
        let sampled = DeviceFleet::sample(8, HeterogeneityLevel::Low, 5);
        let lazy = DeviceFleet::lazy(8, HeterogeneityLevel::Low, 5);
        assert!(!sampled.is_lazy());
        assert!(lazy.is_lazy());
        for fleet in [sampled, lazy] {
            let clone = fleet.clone();
            assert_eq!(clone.is_lazy(), fleet.is_lazy());
            assert!(Arc::ptr_eq(&clone.tiers, &fleet.tiers));
        }
    }

    #[test]
    fn static_profile_without_dynamics_is_stable() {
        let fleet = DeviceFleet::sample(5, HeterogeneityLevel::High, 1);
        for r in 0..5 {
            assert_eq!(fleet.available_profile(2, r), fleet.static_profile(2));
        }
    }

    #[test]
    fn dynamics_vary_but_respect_floor() {
        let fleet = DeviceFleet::sample(5, HeterogeneityLevel::High, 1).with_dynamics();
        let base = fleet.static_profile(0);
        let mut saw_change = false;
        for r in 0..20 {
            let p = fleet.available_profile(0, r);
            assert!(p.compute_flops_per_sec <= base.compute_flops_per_sec + 1.0);
            assert!(p.compute_flops_per_sec >= base.compute_flops_per_sec * 0.5 * 0.999);
            if (p.compute_flops_per_sec - base.compute_flops_per_sec).abs() > 1.0 {
                saw_change = true;
            }
        }
        assert!(saw_change);
    }

    #[test]
    fn dynamics_are_deterministic() {
        let mk = || DeviceFleet::sample(3, HeterogeneityLevel::High, 9).with_dynamics();
        assert_eq!(mk().available_profile(1, 4), mk().available_profile(1, 4));
    }
}
