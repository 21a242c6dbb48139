//! The physical-topology overlay of the driver: where client uploads meet
//! the server, and what the journey costs.
//!
//! Under [`Topology::Flat`] this module is a transparent pass-through, so
//! flat traces stay byte-identical to the pre-topology goldens. Under
//! [`Topology::TwoTier`] the module overlays the zone tier on the same
//! absorbed arithmetic:
//!
//! * every client maps to a zone aggregator by the seeded assignment of
//!   [`Topology::zone_of`];
//! * in the cohort modes each zone buffers its clients' arrivals, optionally
//!   drops intra-zone stragglers at a per-zone deadline
//!   ([`EventKind::ZoneDeadline`](fedlps_runtime::EventKind) events the
//!   driver routes here), and at the barrier forwards **one combined
//!   upload** — the pre-merged residual is dense, so `param_count × 4`
//!   bytes — priced by the zone aggregator's uplink in the Eq. (14) cost
//!   model ([`local_cost`] with zero FLOPs against
//!   [`DeviceProfile::zone_aggregator`]);
//! * in async mode there is no barrier to pre-merge behind, so the zone
//!   tier degenerates to a store-and-forward hop: each upload is re-priced
//!   over the zone uplink on its way to the server, and zone deadlines do
//!   not apply (there is no round-relative timeline to anchor them to).
//!
//! The overlay changes *timing, traffic and drops* only; it never drives
//! absorption. `crate::absorb` still walks the surviving updates in
//! ascending client-id order whatever the topology — zone pre-merging is algebraically a partial sum of the same
//! Eq. (13) linear combination, and simulating the arithmetic in the
//! canonical order keeps every topology bit-identical across parallelism
//! settings. In the facade, `tests/virtual_time_claims.rs` pins that the
//! patient two-tier barrier keeps the flat learning trace, and
//! `tests/determinism_matrix.rs` compares two-tier traces at parallelism 1
//! vs 4 and holds every row to the zone-traffic laws.

use std::collections::BTreeMap;

use fedlps_device::cost::local_cost;
use fedlps_device::DeviceProfile;
use fedlps_topo::Topology;

use crate::env::FlEnv;
use crate::metrics::RoundMetrics;

/// Per-round state of one zone aggregator (two-tier cohort rounds only).
#[derive(Debug, Default, Clone)]
pub(crate) struct ZoneRound {
    /// Dispatched clients of this zone still unresolved (no arrival,
    /// offline, or drop yet).
    outstanding: usize,
    /// Updates buffered at this zone for the barrier.
    survivors: usize,
    /// Arrival time of the latest buffered survivor.
    last_arrival: f64,
    /// The zone deadline fired; later arrivals drop at the zone.
    closed: bool,
    /// The deadline fired while clients were outstanding: the aggregator
    /// waited out its full deadline before forwarding.
    deadline_bound: bool,
}

/// The driver's runtime view of the configured [`Topology`].
#[derive(Debug)]
pub(crate) enum TopologyState {
    /// Clients upload straight to the server.
    Flat,
    /// The zone/edge-aggregator tier.
    TwoTier {
        topology: Topology,
        /// Seed of the client → zone assignment (the run seed).
        seed: u64,
        /// Seconds one combined zone → server forward takes (Eq. 14 comm
        /// term over the zone aggregator's uplink).
        forward_seconds: f64,
        /// Bytes of one combined forward (dense parameters).
        forward_bytes: f64,
        /// Eq. 14 comm seconds per byte over the zone uplink (the async
        /// store-and-forward hop rate).
        per_byte_seconds: f64,
        /// Per-zone state of the open cohort round, keyed by zone id
        /// (sparse: only zones with dispatched clients are present).
        rounds: BTreeMap<usize, ZoneRound>,
    },
}

impl TopologyState {
    /// Resolves the configured topology against the environment.
    pub(crate) fn new(env: &FlEnv) -> Self {
        match env.config.topology {
            Topology::Flat => TopologyState::Flat,
            topology @ Topology::TwoTier { zone_uplink, .. } => {
                let aggregator = DeviceProfile::zone_aggregator(zone_uplink);
                let forward_bytes = (env.arch.param_count() * 4) as f64;
                TopologyState::TwoTier {
                    topology,
                    seed: env.config.seed,
                    forward_seconds: local_cost(0.0, forward_bytes, &aggregator).comm_seconds,
                    forward_bytes,
                    per_byte_seconds: local_cost(0.0, 1.0, &aggregator).comm_seconds,
                    rounds: BTreeMap::new(),
                }
            }
        }
    }

    /// The zone of a client (`None` under the flat topology).
    fn zone_of(&self, client: usize) -> Option<usize> {
        match self {
            TopologyState::Flat => None,
            TopologyState::TwoTier { topology, seed, .. } => topology.zone_of(*seed, client),
        }
    }

    /// Registers a cohort round's dispatched clients with their zones and
    /// returns the `(zone, deadline)` events the driver must schedule.
    /// A no-op returning no events under the flat topology (and when no
    /// zone deadline is configured).
    pub(crate) fn open_cohort_round(&mut self, dispatched: &[usize]) -> Vec<(usize, f64)> {
        let TopologyState::TwoTier {
            topology,
            seed,
            rounds,
            ..
        } = self
        else {
            return Vec::new();
        };
        rounds.clear();
        for &client in dispatched {
            let zone = topology
                .zone_of(*seed, client)
                .expect("two-tier client has a zone");
            rounds.entry(zone).or_default().outstanding += 1;
        }
        let Topology::TwoTier {
            zone_deadline: Some(deadline),
            ..
        } = *topology
        else {
            return Vec::new();
        };
        rounds.keys().map(|&zone| (zone, deadline)).collect()
    }

    /// Whether an arriving cohort upload is dropped at its zone because the
    /// zone's deadline already fired. Always `false` under flat.
    pub(crate) fn zone_dropped(&self, client: usize) -> bool {
        let Some(zone) = self.zone_of(client) else {
            return false;
        };
        let TopologyState::TwoTier { rounds, .. } = self else {
            unreachable!("a zone assignment implies the two-tier state");
        };
        rounds.get(&zone).is_some_and(|z| z.closed)
    }

    /// Books a cohort arrival the server barrier actually buffered: the
    /// update passed through its zone, which now holds it for the combined
    /// forward.
    pub(crate) fn on_survivor(&mut self, client: usize, time: f64) {
        let Some(zone) = self.zone_of(client) else {
            return;
        };
        let TopologyState::TwoTier { rounds, .. } = self else {
            unreachable!("a zone assignment implies the two-tier state");
        };
        let z = rounds.entry(zone).or_default();
        z.outstanding = z.outstanding.saturating_sub(1);
        z.survivors += 1;
        z.last_arrival = z.last_arrival.max(time);
    }

    /// Books a cohort client resolving *without* contributing (exhausted
    /// upload retries, post-round-deadline straggler, zone-deadline drop).
    pub(crate) fn on_resolved(&mut self, client: usize) {
        let Some(zone) = self.zone_of(client) else {
            return;
        };
        let TopologyState::TwoTier { rounds, .. } = self else {
            unreachable!("a zone assignment implies the two-tier state");
        };
        let z = rounds.entry(zone).or_default();
        z.outstanding = z.outstanding.saturating_sub(1);
    }

    /// A zone's deadline fired: later arrivals of that zone drop at the
    /// zone, and if anyone was still outstanding the aggregator is deemed
    /// to have waited out the full deadline before forwarding.
    pub(crate) fn zone_deadline_fired(&mut self, zone: usize) {
        let TopologyState::TwoTier { rounds, .. } = self else {
            unreachable!("flat topologies never schedule zone deadlines");
        };
        let z = rounds.entry(zone).or_default();
        z.closed = true;
        if z.outstanding > 0 {
            z.deadline_bound = true;
        }
    }

    /// Barrier close: prices each active zone's combined forward over the
    /// zone uplink, books the zone-tier traffic into the round's record and
    /// returns the round duration extended by the latest-landing forward.
    /// Under flat this is the identity on `base_duration`.
    pub(crate) fn close_cohort_round(
        &mut self,
        base_duration: f64,
        metrics: &mut RoundMetrics,
    ) -> f64 {
        let TopologyState::TwoTier {
            topology,
            forward_seconds,
            forward_bytes,
            rounds,
            ..
        } = self
        else {
            return base_duration;
        };
        let zone_deadline = match *topology {
            Topology::TwoTier { zone_deadline, .. } => zone_deadline,
            Topology::Flat => unreachable!("two-tier state holds a two-tier topology"),
        };
        let mut duration = base_duration;
        for z in rounds.values() {
            if z.survivors == 0 {
                continue;
            }
            // The zone forwards when its cohort is resolved: the last
            // buffered arrival, or the full zone deadline when it fired
            // with clients still outstanding.
            let flush = if z.deadline_bound {
                zone_deadline.expect("deadline_bound implies a configured deadline")
            } else {
                z.last_arrival
            };
            duration = duration.max(flush + *forward_seconds);
            metrics.zone_upload_bytes += *forward_bytes;
        }
        rounds.clear();
        duration
    }

    /// The async store-and-forward hop: extra seconds an upload of
    /// `upload_bytes` spends on the zone → server leg (0 under flat).
    pub(crate) fn async_zone_hop(&self, upload_bytes: f64) -> f64 {
        match self {
            TopologyState::Flat => 0.0,
            TopologyState::TwoTier {
                per_byte_seconds, ..
            } => per_byte_seconds * upload_bytes,
        }
    }

    /// Zone-tier bytes of one async upload forwarded individually
    /// (0 under flat: there is no second tier to carry traffic).
    pub(crate) fn async_forward_bytes(&self, upload_bytes: f64) -> f64 {
        match self {
            TopologyState::Flat => 0.0,
            TopologyState::TwoTier { .. } => upload_bytes,
        }
    }
}
