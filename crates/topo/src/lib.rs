//! Aggregation topology: *where* client updates meet the server, made a
//! first-class layer alongside selection, execution and absorption.
//!
//! [`Topology::Flat`] is the status quo (clients upload straight to the
//! server; bit-identical default), while [`Topology::TwoTier`] inserts a
//! zone/edge-aggregator tier (hierarchical FedAvg): clients map to zones by
//! a seeded assignment, each zone pre-merges its cohort's residuals and
//! forwards one combined upload priced by the zone-level uplink bandwidth in
//! the Eq. (14) cost model, optionally dropping intra-zone stragglers at a
//! per-zone deadline. The two-tier fabric changes *timing, traffic and
//! drops* — never the absorbed arithmetic, which stays the canonical
//! ascending walk — so two-tier traces remain bit-identical across
//! parallelism levels. (The walk itself, and its coordinate-range
//! sharding, is `fedlps_core::server`.)
//!
//! ```
//! use fedlps_topo::Topology;
//!
//! // Flat has no zones, two-tier assigns each client a seeded one.
//! assert_eq!(Topology::default(), Topology::Flat);
//! assert_eq!(Topology::Flat.zone_of(7, 0), None);
//! let two_tier = Topology::two_tier();
//! assert!(two_tier.zone_of(7, 0).unwrap() < two_tier.zones());
//! ```

use fedlps_device::fleet::zone_assignment;
use serde::{Deserialize, Serialize};

/// Default zone count of [`Topology::two_tier`].
pub const DEFAULT_ZONES: usize = 4;
/// Default zone-aggregator uplink factor (× the reference device uplink):
/// edge aggregators sit on provisioned links, not cellular radios.
pub const DEFAULT_ZONE_UPLINK: f64 = 4.0;

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

    /// Checks a directly constructed (or deserialized) variant against the
    /// contracts the `with_*` builders assert; `fedlps_sim`'s
    /// `FlConfig::validate` reports a violation under the `topology` knob.
    pub fn validate(&self) -> Result<(), String> {
        let Topology::TwoTier {
            zones,
            zone_deadline,
            zone_uplink,
        } = *self
        else {
            return Ok(());
        };
        if zones < 1 {
            return Err("a two-tier topology needs at least one zone".to_string());
        }
        if let Some(deadline) = zone_deadline {
            if !(deadline.is_finite() && deadline > 0.0) {
                return Err(format!(
                    "zone_deadline must be finite and > 0 — every upload would \
                     drop at its zone — got {deadline}"
                ));
            }
        }
        if !(zone_uplink.is_finite() && zone_uplink > 0.0) {
            return Err(format!(
                "zone_uplink must be finite and > 0, got {zone_uplink}"
            ));
        }
        Ok(())
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

    #[test]
    fn validate_mirrors_the_builder_contracts() {
        Topology::Flat.validate().unwrap();
        Topology::two_tier().validate().unwrap();
        Topology::two_tier()
            .with_zones(1)
            .with_zone_deadline(0.5)
            .validate()
            .unwrap();
        let two_tier = |zones, zone_deadline, zone_uplink| Topology::TwoTier {
            zones,
            zone_deadline,
            zone_uplink,
        };
        for (bad, needle) in [
            (two_tier(0, None, 4.0), "at least one zone"),
            (two_tier(4, Some(-1.0), 4.0), "zone_deadline"),
            (two_tier(4, Some(0.0), 4.0), "zone_deadline"),
            (two_tier(4, Some(f64::INFINITY), 4.0), "zone_deadline"),
            (two_tier(4, None, 0.0), "zone_uplink"),
            (two_tier(4, None, -2.0), "zone_uplink"),
            (two_tier(4, None, f64::NAN), "zone_uplink"),
        ] {
            let message = bad.validate().unwrap_err();
            assert!(message.contains(needle), "{bad:?}: {message}");
        }
    }
}
