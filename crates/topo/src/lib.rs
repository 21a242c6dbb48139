//! Aggregation topology: *where* client updates meet the server, made a
//! first-class layer alongside selection, execution and absorption.
//!
//! Two faces of one abstraction:
//!
//! * [`MergePlan`] — the **deterministic merge tree**. Eq. (13) aggregation
//!   is a serial walk over the staged updates in ascending client-id order;
//!   floating-point addition is not associative, so sharding that walk on
//!   the *client* axis would change bits with the shard count. The plan
//!   therefore shards on the **coordinate** axis instead: the parameter
//!   vector is split into contiguous disjoint ranges, each leaf replays the
//!   full ascending-client walk restricted to its range (the per-coordinate
//!   operation sequence is untouched), and parent nodes combine children
//!   pairwise in a fixed order by range concatenation — which is *exact*.
//!   The result is bit-identical to the serial walk at every shard count,
//!   so the shard count can follow the configured parallelism without
//!   entering the determinism contract.
//! * [`Topology`] — the **physical topology**. [`Topology::Flat`] is the
//!   status quo (clients upload straight to the server; bit-identical
//!   default), while [`Topology::TwoTier`] inserts a zone/edge-aggregator
//!   tier (hierarchical FedAvg): clients map to zones by a seeded
//!   assignment, each zone pre-merges its cohort's residuals and forwards
//!   one combined upload priced by the zone-level uplink bandwidth in the
//!   Eq. (14) cost model, optionally dropping intra-zone stragglers at a
//!   per-zone deadline. The two-tier fabric changes *timing, traffic and
//!   drops* — never the absorbed arithmetic, which stays the canonical
//!   ascending walk — so two-tier traces remain bit-identical across
//!   backends and parallelism levels.
//!
//! ```
//! use fedlps_topo::{MergePlan, Topology};
//!
//! // Merge tree: each leaf computes its coordinate range, the fixed-shape
//! // pairwise combine reassembles the full vector exactly.
//! let plan = MergePlan::new(10, 3);
//! let leaves: Vec<Vec<f32>> = (0..plan.shards())
//!     .map(|s| plan.range(s).map(|i| (i * i) as f32).collect())
//!     .collect();
//! let merged = plan.combine(leaves);
//! assert_eq!(merged, (0..10).map(|i| (i * i) as f32).collect::<Vec<_>>());
//!
//! // Physical topology: flat has no zones, two-tier assigns each client a
//! // seeded one.
//! assert_eq!(Topology::default(), Topology::Flat);
//! assert_eq!(Topology::Flat.zone_of(7, 0), None);
//! let two_tier = Topology::two_tier();
//! assert!(two_tier.zone_of(7, 0).unwrap() < two_tier.zones());
//! ```

use std::ops::Range;

use fedlps_device::fleet::zone_assignment;
use serde::{Deserialize, Serialize};

/// Default zone count of [`Topology::two_tier`].
pub const DEFAULT_ZONES: usize = 4;
/// Default zone-aggregator uplink factor (× the reference device uplink):
/// edge aggregators sit on provisioned links, not cellular radios.
pub const DEFAULT_ZONE_UPLINK: f64 = 4.0;

/// The fixed-shape coordinate-axis merge tree.
///
/// Built from `(len, shards)` alone, so every run with the same
/// configuration produces the same tree regardless of thread schedule. The
/// shard count is clamped to `1..=len` (an empty vector keeps one empty
/// shard so the tree always has a root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergePlan {
    len: usize,
    /// `shards + 1` ascending boundaries; leaf `s` owns
    /// `bounds[s]..bounds[s + 1]`.
    bounds: Vec<usize>,
}

impl MergePlan {
    /// Plans `shards` contiguous coordinate ranges over a `len`-vector, the
    /// first `len % shards` leaves one coordinate wider.
    pub fn new(len: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, len.max(1));
        let (base, rem) = (len / shards, len % shards);
        let mut bounds = Vec::with_capacity(shards + 1);
        let mut at = 0;
        bounds.push(at);
        for s in 0..shards {
            at += base + usize::from(s < rem);
            bounds.push(at);
        }
        debug_assert_eq!(at, len);
        Self { len, bounds }
    }

    /// Total vector length the plan covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the plan covers an empty vector.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of leaves (after clamping).
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Coordinate range owned by leaf `shard`.
    pub fn range(&self, shard: usize) -> Range<usize> {
        self.bounds[shard]..self.bounds[shard + 1]
    }

    /// Combines the per-leaf segments pairwise up the fixed-shape binary
    /// tree into the full vector. Each internal node concatenates its two
    /// children's contiguous ranges — an exact operation, so the combine
    /// order affects nothing but is fixed anyway: level by level, left to
    /// right, an odd tail promoted unchanged.
    ///
    /// Panics if the segment count or any segment length disagrees with the
    /// plan — a leaf that computed the wrong range must not merge silently.
    pub fn combine(&self, segments: Vec<Vec<f32>>) -> Vec<f32> {
        assert_eq!(
            segments.len(),
            self.shards(),
            "segment count must match the plan's leaf count"
        );
        for (s, seg) in segments.iter().enumerate() {
            assert_eq!(
                seg.len(),
                self.range(s).len(),
                "segment {s} does not cover its planned coordinate range"
            );
        }
        let mut level = segments;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut nodes = level.into_iter();
            while let Some(mut left) = nodes.next() {
                if let Some(right) = nodes.next() {
                    left.extend_from_slice(&right);
                }
                next.push(left);
            }
            level = next;
        }
        level.pop().unwrap_or_default()
    }
}

/// The physical aggregation topology of a run.
///
/// Part of the run configuration (`FlConfig::topology`), so it is `Copy`
/// and serde-round-trippable like every other knob. [`Topology::Flat`]
/// reproduces the historical traces byte for byte; [`Topology::TwoTier`]
/// overlays the zone tier's timing, traffic and drops on the same absorbed
/// arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum Topology {
    /// Clients upload straight to the server (the bit-identical default).
    #[default]
    Flat,
    /// Hierarchical FedAvg: clients → zone aggregators → server.
    TwoTier {
        /// Number of zone aggregators (≥ 1); clients map to zones by a
        /// seeded assignment.
        zones: usize,
        /// Optional round-relative deadline at each zone aggregator: a
        /// cohort-mode upload landing at its zone after this instant is
        /// dropped there (a *zone* straggler). `None` = zones wait.
        zone_deadline: Option<f64>,
        /// Zone-aggregator uplink bandwidth as a multiple of the reference
        /// device uplink; prices the combined zone→server upload in Eq. 14.
        zone_uplink: f64,
    },
}

impl Topology {
    /// A two-tier topology with the default zone count, uplink factor and
    /// no zone deadline.
    pub fn two_tier() -> Self {
        Topology::TwoTier {
            zones: DEFAULT_ZONES,
            zone_deadline: None,
            zone_uplink: DEFAULT_ZONE_UPLINK,
        }
    }

    /// Short name used in logs and tables.
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Flat => "flat",
            Topology::TwoTier { .. } => "two-tier",
        }
    }

    /// Number of zones (1 under [`Topology::Flat`]: the server is the only
    /// aggregation point).
    pub fn zones(&self) -> usize {
        match self {
            Topology::Flat => 1,
            Topology::TwoTier { zones, .. } => *zones,
        }
    }

    /// Replaces the zone count (panics on [`Topology::Flat`] — a flat
    /// topology has no zone tier to configure).
    pub fn with_zones(self, n: usize) -> Self {
        assert!(n >= 1, "a two-tier topology needs at least one zone");
        match self {
            Topology::TwoTier {
                zone_deadline,
                zone_uplink,
                ..
            } => Topology::TwoTier {
                zones: n,
                zone_deadline,
                zone_uplink,
            },
            Topology::Flat => panic!("Topology::Flat has no zones to configure"),
        }
    }

    /// Sets the per-zone deadline (panics on [`Topology::Flat`]).
    pub fn with_zone_deadline(self, deadline: f64) -> Self {
        assert!(deadline > 0.0, "a zone deadline must be positive");
        match self {
            Topology::TwoTier {
                zones, zone_uplink, ..
            } => Topology::TwoTier {
                zones,
                zone_deadline: Some(deadline),
                zone_uplink,
            },
            Topology::Flat => panic!("Topology::Flat has no zone deadline"),
        }
    }

    /// Sets the zone uplink factor (panics on [`Topology::Flat`]).
    pub fn with_zone_uplink(self, uplink: f64) -> Self {
        assert!(uplink > 0.0, "the zone uplink factor must be positive");
        match self {
            Topology::TwoTier {
                zones,
                zone_deadline,
                ..
            } => Topology::TwoTier {
                zones,
                zone_deadline,
                zone_uplink: uplink,
            },
            Topology::Flat => panic!("Topology::Flat has no zone uplink"),
        }
    }

    /// Seeded client → zone assignment (`None` under [`Topology::Flat`]).
    /// A pure O(1) function of `(seed, client)`, so population-scale fleets
    /// never materialize an assignment vector.
    pub fn zone_of(&self, seed: u64, client: usize) -> Option<usize> {
        match self {
            Topology::Flat => None,
            Topology::TwoTier { zones, .. } => Some(zone_assignment(seed, client, *zones)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn plan_covers_the_vector_with_disjoint_contiguous_ranges() {
        for (len, shards) in [(10, 3), (7, 7), (7, 20), (1, 1), (16, 4), (5, 2)] {
            let plan = MergePlan::new(len, shards);
            assert!(plan.shards() <= shards.max(1));
            let mut at = 0;
            for s in 0..plan.shards() {
                let r = plan.range(s);
                assert_eq!(r.start, at, "ranges must be contiguous");
                assert!(!r.is_empty(), "no leaf may own an empty range");
                at = r.end;
            }
            assert_eq!(at, len);
        }
    }

    #[test]
    fn zero_length_plan_has_one_empty_leaf() {
        let plan = MergePlan::new(0, 8);
        assert!(plan.is_empty());
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.range(0), 0..0);
        assert_eq!(plan.combine(vec![vec![]]), Vec::<f32>::new());
    }

    #[test]
    fn combine_reassembles_exactly() {
        let plan = MergePlan::new(11, 4);
        let truth: Vec<f32> = (0..11).map(|i| i as f32 * 0.1).collect();
        let segs = (0..plan.shards())
            .map(|s| truth[plan.range(s)].to_vec())
            .collect();
        assert_eq!(plan.combine(segs), truth);
    }

    #[test]
    #[should_panic(expected = "does not cover its planned coordinate range")]
    fn combine_rejects_misshapen_segments() {
        let plan = MergePlan::new(8, 2);
        plan.combine(vec![vec![0.0; 3], vec![0.0; 5]]);
    }

    #[test]
    fn topology_names_and_default() {
        assert_eq!(Topology::Flat.name(), "flat");
        assert_eq!(Topology::two_tier().name(), "two-tier");
        assert_eq!(Topology::default(), Topology::Flat);
    }

    #[test]
    fn two_tier_builders_compose() {
        let topo = Topology::two_tier()
            .with_zones(8)
            .with_zone_deadline(0.5)
            .with_zone_uplink(2.0);
        assert_eq!(
            topo,
            Topology::TwoTier {
                zones: 8,
                zone_deadline: Some(0.5),
                zone_uplink: 2.0,
            }
        );
        assert_eq!(topo.zones(), 8);
    }

    #[test]
    fn zone_assignment_is_seed_stable_and_in_range() {
        let topo = Topology::two_tier().with_zones(5);
        for client in 0..200 {
            let z = topo.zone_of(7, client).unwrap();
            assert!(z < 5);
            assert_eq!(topo.zone_of(7, client), Some(z), "assignment is stable");
        }
        // A different seed reshuffles at least one client.
        assert!((0..200).any(|c| topo.zone_of(7, c) != topo.zone_of(8, c)));
        assert_eq!(Topology::Flat.zone_of(7, 3), None);
    }

    proptest! {
        /// The tree is shape-stable: any shard count reassembles any vector
        /// exactly (concatenation is exact, so this is equality, not
        /// approximation).
        #[test]
        fn combine_is_exact_at_every_shard_count(
            len in 0usize..200,
            shards in 1usize..32,
            seed in 1u32..1_000_000,
        ) {
            let truth: Vec<f32> = (0..len)
                .map(|i| ((i as u32).wrapping_mul(seed) as f32).sin())
                .collect();
            let plan = MergePlan::new(len, shards);
            let segs = (0..plan.shards())
                .map(|s| truth[plan.range(s)].to_vec())
                .collect();
            prop_assert_eq!(plan.combine(segs), truth);
        }
    }
}
