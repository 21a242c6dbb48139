//! FedLPS hyper-parameters and ablation switches.

use fedlps_bandit::pucbv::PUcbvConfig;
use fedlps_bandit::ratio_policy::RatioPolicy;
use fedlps_sparse::pattern::PatternStrategy;
use serde::{Deserialize, Serialize};

/// Configuration of the FedLPS algorithm.
///
/// The defaults follow the paper's experimental setup: `μ = 1`, `λ = 1`,
/// the learnable importance pattern and P-UCBV ratio decisions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FedLpsConfig {
    /// Weight `μ` of the local-parameter regularisation term (Eq. 7).
    pub mu: f32,
    /// Weight `λ` of the importance regularisation term (Eq. 8).
    pub lambda: f32,
    /// Learning rate used for the importance-indicator update (Eq. 11); the
    /// paper uses the shared round learning rate, so this defaults to the
    /// model learning rate and is exposed only for sensitivity studies.
    pub importance_lr: Option<f32>,
    /// How sparse ratios are decided (Table II ablations swap this out).
    pub ratio_policy: RatioPolicy,
    /// How sparse patterns are derived. FedLPS proper uses
    /// [`PatternStrategy::Importance`]; the Figure 9a ablation sweeps the
    /// heuristics through this switch while keeping the rest of the pipeline
    /// identical.
    pub pattern: PatternStrategy,
    /// Quantize P-UCBV's arm space at the model's shape resolution: ratios
    /// extracting equal per-layer retained-unit counts are indistinguishable
    /// to the environment, so they collapse to one arm and repeat proposals
    /// from a stable partition hit the cross-round mask cache. Semantics-
    /// preserving; off only for the continuous-sampling ablation.
    pub quantize_arm_space: bool,
}

impl Default for FedLpsConfig {
    fn default() -> Self {
        Self {
            mu: 1.0,
            lambda: 1.0,
            importance_lr: None,
            ratio_policy: RatioPolicy::PUcbv(PUcbvConfig::default()),
            pattern: PatternStrategy::Importance,
            quantize_arm_space: true,
        }
    }
}

impl FedLpsConfig {
    /// FedLPS with P-UCBV configured for a given federation (`ξ = R/(K·ϵ)`
    /// depends on the round budget and the clients selected per round).
    pub fn for_federation(rounds: usize, clients_per_round: usize) -> Self {
        Self {
            ratio_policy: RatioPolicy::PUcbv(PUcbvConfig {
                total_rounds: rounds.max(1),
                expected_selections: clients_per_round.max(1) as f64,
            }),
            ..Self::default()
        }
    }

    /// The FLST ablation of Table II: the learnable pattern with a *fixed*
    /// uniform sparse ratio instead of P-UCBV.
    pub fn flst(fixed_ratio: f64) -> Self {
        Self {
            ratio_policy: RatioPolicy::Fixed(fixed_ratio),
            ..Self::default()
        }
    }

    /// The RCR ablation of Table II: learnable pattern, but ratios follow the
    /// rigid resource-controlled rule `s_k = z_k`.
    pub fn rcr() -> Self {
        Self {
            ratio_policy: RatioPolicy::ResourceControlled,
            ..Self::default()
        }
    }

    /// A pattern-ablated variant (Figure 9a): identical training pipeline but
    /// with a heuristic pattern strategy at a fixed ratio.
    pub fn with_pattern(pattern: PatternStrategy, fixed_ratio: f64) -> Self {
        Self {
            pattern,
            ratio_policy: RatioPolicy::Fixed(fixed_ratio),
            ..Self::default()
        }
    }

    /// Builder-style override of the arm-space quantization switch.
    pub fn with_quantize_arm_space(mut self, quantize: bool) -> Self {
        self.quantize_arm_space = quantize;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = FedLpsConfig::default();
        assert_eq!(cfg.mu, 1.0);
        assert_eq!(cfg.lambda, 1.0);
        assert_eq!(cfg.pattern, PatternStrategy::Importance);
        assert!(matches!(cfg.ratio_policy, RatioPolicy::PUcbv(_)));
    }

    #[test]
    fn ablation_constructors() {
        assert!(matches!(FedLpsConfig::flst(0.5).ratio_policy, RatioPolicy::Fixed(r) if r == 0.5));
        assert!(matches!(
            FedLpsConfig::rcr().ratio_policy,
            RatioPolicy::ResourceControlled
        ));
        let p = FedLpsConfig::with_pattern(PatternStrategy::Random, 0.4);
        assert_eq!(p.pattern, PatternStrategy::Random);
        // The paper harness reads Figure 9b's FLST rows off Figure 9a's
        // learnable-pattern runs.
        assert_eq!(
            FedLpsConfig::with_pattern(PatternStrategy::Importance, 0.4),
            FedLpsConfig::flst(0.4)
        );
    }

    #[test]
    fn federation_constructor_wires_bandit_horizon() {
        let cfg = FedLpsConfig::for_federation(200, 10);
        match cfg.ratio_policy {
            RatioPolicy::PUcbv(c) => {
                assert_eq!(c.total_rounds, 200);
                assert_eq!(c.expected_selections, 10.0);
            }
            _ => panic!("expected P-UCBV"),
        }
    }

    #[test]
    fn builders() {
        let cfg = FedLpsConfig::default().with_quantize_arm_space(false);
        assert!(!cfg.quantize_arm_space);
        assert!(FedLpsConfig::default().quantize_arm_space);
    }
}
