//! The paper's analytic cost model.
//!
//! Eq. (14): `T_k^r = F̂_k^r / F_k^r + B̂_k^r / B_k^r` where `F̂` is the
//! round's training FLOPs, `F` the device's compute capacity, `B̂` the bytes
//! uploaded and `B` the uplink bandwidth. Eq. (18): the synchronous global
//! round cost is the maximum local cost over the selected clients.

use serde::{Deserialize, Serialize};

use crate::capability::DeviceProfile;

/// Breakdown of one client's local round cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct LocalCost {
    /// Compute portion `F̂/F` in seconds.
    pub compute_seconds: f64,
    /// Communication portion `B̂/B` in seconds.
    pub comm_seconds: f64,
}

impl LocalCost {
    /// Total local cost in seconds.
    pub fn total(&self) -> f64 {
        self.compute_seconds + self.comm_seconds
    }
}

/// Eq. (14): the local cost of a round that executes `flops` floating point
/// operations and uploads `upload_bytes` on the given device.
pub fn local_cost(flops: f64, upload_bytes: f64, device: &DeviceProfile) -> LocalCost {
    assert!(flops >= 0.0 && upload_bytes >= 0.0);
    LocalCost {
        compute_seconds: flops / device.compute_flops_per_sec,
        comm_seconds: upload_bytes / device.bandwidth_bytes_per_sec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::CapabilityTier;

    #[test]
    fn cost_formula_matches_manual_computation() {
        let device = DeviceProfile::from_tier(CapabilityTier::Half);
        let cost = local_cost(727.0e9, 5.0e6, &device);
        // compute: 727e9 / (727e9 * 0.5) = 2 s; comm: 5e6 / (10e6 * 0.5) = 1 s.
        assert!((cost.compute_seconds - 2.0).abs() < 1e-9);
        assert!((cost.comm_seconds - 1.0).abs() < 1e-9);
        assert!((cost.total() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn weaker_devices_pay_more_for_the_same_work() {
        let strong = DeviceProfile::from_tier(CapabilityTier::Full);
        let weak = DeviceProfile::from_tier(CapabilityTier::Sixteenth);
        let c_strong = local_cost(1.0e12, 1.0e6, &strong).total();
        let c_weak = local_cost(1.0e12, 1.0e6, &weak).total();
        assert!((c_weak / c_strong - 16.0).abs() < 1e-6);
    }

    #[test]
    fn sparse_work_is_cheaper() {
        let device = DeviceProfile::from_tier(CapabilityTier::Quarter);
        let dense = local_cost(4.0e12, 4.0e6, &device).total();
        let sparse = local_cost(1.0e12, 1.0e6, &device).total();
        assert!(sparse < dense / 3.0);
    }
}
