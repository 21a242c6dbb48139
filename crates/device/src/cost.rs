//! The paper's analytic cost model.
//!
//! Eq. (14): `T_k^r = F̂_k^r / F_k^r + α · B̂_k^r / B_k^r` where `F̂` is the
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
    /// Communication portion `α · B̂/B` in seconds.
    pub comm_seconds: f64,
}

impl LocalCost {
    /// Total local cost in seconds.
    pub fn total(&self) -> f64 {
        self.compute_seconds + self.comm_seconds
    }
}

/// Cost-model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Weight `α` of the communication term in Eq. (14).
    pub alpha: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self { alpha: 1.0 }
    }
}

impl CostModel {
    /// Creates a cost model with the given communication weight.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha >= 0.0);
        Self { alpha }
    }

    /// Eq. (14): the local cost of a round that executes `flops` floating
    /// point operations and uploads `upload_bytes` on the given device.
    pub fn local_cost(&self, flops: f64, upload_bytes: f64, device: &DeviceProfile) -> LocalCost {
        assert!(flops >= 0.0 && upload_bytes >= 0.0);
        LocalCost {
            compute_seconds: flops / device.compute_flops_per_sec,
            comm_seconds: self.alpha * upload_bytes / device.bandwidth_bytes_per_sec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::CapabilityTier;

    #[test]
    fn cost_formula_matches_manual_computation() {
        let device = DeviceProfile::from_tier(CapabilityTier::Half);
        let model = CostModel::new(2.0);
        let cost = model.local_cost(727.0e9, 5.0e6, &device);
        // compute: 727e9 / (727e9 * 0.5) = 2 s; comm: 2 * 5e6 / (10e6 * 0.5) = 2 s.
        assert!((cost.compute_seconds - 2.0).abs() < 1e-9);
        assert!((cost.comm_seconds - 2.0).abs() < 1e-9);
        assert!((cost.total() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn weaker_devices_pay_more_for_the_same_work() {
        let model = CostModel::default();
        let strong = DeviceProfile::from_tier(CapabilityTier::Full);
        let weak = DeviceProfile::from_tier(CapabilityTier::Sixteenth);
        let c_strong = model.local_cost(1.0e12, 1.0e6, &strong).total();
        let c_weak = model.local_cost(1.0e12, 1.0e6, &weak).total();
        assert!((c_weak / c_strong - 16.0).abs() < 1e-6);
    }

    #[test]
    fn sparse_work_is_cheaper() {
        let model = CostModel::default();
        let device = DeviceProfile::from_tier(CapabilityTier::Quarter);
        let dense = model.local_cost(4.0e12, 4.0e6, &device).total();
        let sparse = model.local_cost(1.0e12, 1.0e6, &device).total();
        assert!(sparse < dense / 3.0);
    }

    #[test]
    fn zero_alpha_ignores_communication() {
        let device = DeviceProfile::from_tier(CapabilityTier::Full);
        let cost = CostModel::new(0.0).local_cost(1.0e9, 1.0e9, &device);
        assert_eq!(cost.comm_seconds, 0.0);
        assert!(cost.compute_seconds > 0.0);
    }
}
