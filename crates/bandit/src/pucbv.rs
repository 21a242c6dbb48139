//! P-UCBV — Prompt Upper Confidence Bound Variance (Algorithm 2).
//!
//! One P-UCBV agent runs per client on the server. Each round the agent
//! receives the client's local cost `T_k^r` and average training accuracy
//! `a_k^r`, splits the partition that contained the ratio it last proposed,
//! eliminates the lower sub-partition if the accuracy dropped by more than the
//! threshold `Δ` (accuracy-dominated prompt arm elimination), records the Eq.
//! (15) reward, recomputes the variance-aware UCB score (Eq. 17) of every
//! partition and samples the next ratio from the best-scoring partition.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::partition::PartitionSet;
use crate::reward::reward;

/// Number of initial partitions `I_0` of the feasible ratio space.
const INITIAL_PARTITIONS: usize = 4;
/// Exploration constant `ρ` of Eq. (17).
const RHO: f64 = 1.0;
/// Differential accuracy threshold `Δ`: if `a^r − a^{r−1} < Δ` the lower
/// sub-partition is eliminated.
const ACCURACY_THRESHOLD: f64 = -0.02;
/// Smallest ratio an agent ever proposes (avoids degenerate empty submodels;
/// the paper's arm space is `[0, 1)`).
const RATIO_FLOOR: f64 = 0.05;
/// Minimum partition width below which splits stop.
const MIN_PARTITION_WIDTH: f64 = 0.02;

/// The federation-dependent hyper-parameters of a P-UCBV agent, the two
/// inputs of `ξ = R / (K·ϵ)`; `I_0 = 4`, `ρ = 1` and `Δ = −0.02` are fixed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PUcbvConfig {
    /// Total number of communication rounds `R`.
    pub total_rounds: usize,
    /// The denominator `K·ϵ` of `ξ`: `K` clients times the selection
    /// fraction `ϵ`, i.e. the clients selected per round:
    /// `FedLpsConfig::for_federation(rounds, clients_per_round)` passes its
    /// second argument.
    pub expected_selections: f64,
}

impl Default for PUcbvConfig {
    fn default() -> Self {
        Self {
            total_rounds: 100,
            expected_selections: 10.0,
        }
    }
}

/// The feedback an agent receives after its client finishes a round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PUcbvFeedback {
    /// The sparse ratio that was actually used in the round.
    pub ratio: f64,
    /// Local cost `T_k^r` in seconds.
    pub local_cost: f64,
    /// Average local training accuracy `a_k^r` in `[0, 1]`.
    pub accuracy: f64,
}

/// One client's P-UCBV agent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PUcbv {
    config: PUcbvConfig,
    partitions: PartitionSet,
    /// `ε_r`, halved every update (Algorithm 2 line 6).
    epsilon: f64,
    /// `ξ = R / (K · ϵ)`.
    xi: f64,
    /// Accuracy of the previous round (`a^{r−1}`), seeded with the initial
    /// global-model accuracy `a^{−1}`.
    prev_accuracy: f64,
    /// Number of updates performed so far.
    updates: usize,
    /// Sparsifiable units per layer of the model the ratios drive. When set,
    /// the agent's arm space is quantized at the model's shape resolution:
    /// a layer-wise ratio only acts through the retained-unit counts
    /// `clamp(⌈s·J_l⌉, 1, J_l)` (see `fedlps_sparse::ratio`), so every ratio
    /// in one count-equivalence class is the *same* arm and the agent
    /// proposes the class's canonical representative instead of a fresh
    /// continuous sample. Environment semantics are unchanged — the masks,
    /// FLOPs and costs of equivalent ratios are identical — but repeat
    /// proposals from a stable partition now hit the cross-round mask cache.
    shape_units: Option<Vec<usize>>,
}

impl PUcbv {
    /// Creates an agent whose feasible ratio space is `[0.05, max_ratio)` —
    /// `max_ratio` is the client's capability cap `z_k`.
    pub fn new(config: PUcbvConfig, max_ratio: f64, initial_accuracy: f64) -> Self {
        let ceil = max_ratio.clamp(RATIO_FLOOR + MIN_PARTITION_WIDTH, 1.0);
        let partitions =
            PartitionSet::uniform(RATIO_FLOOR, ceil, INITIAL_PARTITIONS, MIN_PARTITION_WIDTH);
        let xi = config.total_rounds as f64 / config.expected_selections.max(1e-9);
        Self {
            config,
            partitions,
            epsilon: 1.0,
            xi,
            prev_accuracy: initial_accuracy,
            updates: 0,
            shape_units: None,
        }
    }

    /// Builder-style arm-space quantization at the model's shape resolution
    /// (`units_per_layer` = sparsifiable units of each layer).
    pub fn with_shape_resolution(mut self, units_per_layer: Vec<usize>) -> Self {
        self.set_shape_resolution(units_per_layer);
        self
    }

    /// Enables arm-space quantization on an existing agent.
    pub fn set_shape_resolution(&mut self, units_per_layer: Vec<usize>) {
        self.shape_units = Some(units_per_layer);
    }

    /// The canonical representative of `ratio`'s shape-equivalence class: the
    /// midpoint of the interval of ratios retaining identical per-layer unit
    /// counts (`clamp(⌈s·J_l⌉, 1, J_l)` — the same rounding
    /// `fedlps_sparse::ratio::retained_units` applies), clamped into the
    /// agent's feasible range. Identity when quantization is disabled.
    pub fn quantize(&self, ratio: f64) -> f64 {
        let Some(units) = &self.shape_units else {
            return ratio;
        };
        let (range_lo, range_hi) = self.partitions.range();
        let r = ratio.clamp(range_lo, range_hi);
        let mut lo = 0.0f64;
        let mut hi = 1.0f64;
        for &j in units {
            if j == 0 {
                continue;
            }
            let c = ((j as f64 * r).ceil()).clamp(1.0, j as f64);
            lo = lo.max((c - 1.0) / j as f64);
            hi = hi.min(c / j as f64);
        }
        (0.5 * (lo + hi)).clamp(range_lo, (range_hi - 1e-9).max(range_lo))
    }

    /// Proposes a ratio from partition `idx`: a uniform continuous sample in
    /// the unquantized arm space, the canonical arm of the shape class
    /// containing the partition's midpoint when quantized (deterministic, so
    /// a stable best partition keeps proposing the *same* arm).
    ///
    /// Once partitions shrink below a class's width, the canonical arm can
    /// lie in a partition *adjacent* to the scoring winner. That is fine:
    /// `update` always credits (and splits at) the partition *containing*
    /// the ratio that was actually used — the same containment rule the
    /// continuous path already lives with, since capability capping also
    /// moves a proposal out of its scoring partition. The winner designates
    /// an arm; whoever contains the arm takes the pull. Crucially this
    /// leaves the sub-class partition structure untouched while proposals
    /// repeat, which is precisely what stops the shape churn that was
    /// defeating the cross-round mask cache.
    fn propose_from(&self, idx: usize, rng: &mut impl Rng) -> f64 {
        let p = &self.partitions.partitions()[idx];
        if self.shape_units.is_some() {
            self.quantize(p.lo + 0.5 * p.width())
        } else {
            p.lo + rng.gen::<f64>() * p.width()
        }
    }

    /// Agent hyper-parameters.
    pub fn config(&self) -> &PUcbvConfig {
        &self.config
    }

    /// Current number of arms (partitions).
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The partition set (exposed for tests / analysis).
    pub fn partitions(&self) -> &PartitionSet {
        &self.partitions
    }

    /// Samples the initial sparse ratio uniformly from a random partition
    /// (Algorithm 2 initialisation).
    pub fn initial_ratio(&self, rng: &mut impl Rng) -> f64 {
        let idx = rng.gen_range(0..self.partitions.len());
        self.propose_from(idx, rng)
    }

    /// UCBV score of partition `i` (Eq. 17) for the upcoming round.
    fn ucbv_score(&self, idx: usize, epsilon_next: f64) -> f64 {
        let p = &self.partitions.partitions()[idx];
        let pulls = p.pulls() as f64;
        let i_next = self.partitions.len().max(1) as f64;
        let psi = self.xi / (i_next * i_next);
        // The log argument shrinks as ε halves; clamp at e so the bonus stays
        // real and non-negative (the theoretical analysis assumes large R).
        let log_term = (self.xi * psi * epsilon_next).max(std::f64::consts::E).ln();
        let bonus = (RHO * (p.reward_variance() + 2.0) * log_term / (4.0 * (pulls + 1.0))).sqrt();
        p.mean_reward() + bonus
    }

    /// Algorithm 2: consumes the round's feedback and returns the sparse ratio
    /// to use in the next round.
    pub fn update(&mut self, feedback: PUcbvFeedback, rng: &mut impl Rng) -> f64 {
        let PUcbvFeedback {
            ratio,
            local_cost,
            accuracy,
        } = feedback;

        // Lines 1-2: split the partition where the used ratio resides.
        let split = self
            .partitions
            .split_at(ratio.clamp(self.partitions.range().0, self.partitions.range().1 - 1e-9));

        // Lines 3-5: accuracy-dominated prompt arm elimination of the lower part.
        let mut upper_idx = split.map(|(_, u)| u);
        if let Some((lower, upper)) = split {
            if lower != upper
                && accuracy - self.prev_accuracy < ACCURACY_THRESHOLD
                && self.partitions.eliminate(lower)
            {
                upper_idx = Some(upper - 1);
            }
        }

        // Lines 6-7: ε ← ε/2 (ψ is recomputed inside the score function).
        self.epsilon /= 2.0;

        // Line 8: record the reward in the surviving sub-partitions.
        let g = reward(accuracy, self.prev_accuracy, local_cost);
        if let Some((lower, upper)) = split {
            let exists_lower = lower != upper && self.partitions.len() > upper;
            // After a possible elimination the indices may have shifted; use the
            // partition that still contains (or borders) the ratio.
            if let Some(idx) = upper_idx.filter(|&i| i < self.partitions.len()) {
                self.partitions.partition_mut(idx).record(g);
            }
            if exists_lower {
                if let Some(idx) = self
                    .partitions
                    .find((ratio - 1e-6).max(self.partitions.range().0))
                {
                    if idx != upper_idx.unwrap_or(usize::MAX) {
                        self.partitions.partition_mut(idx).record(g);
                    }
                }
            }
        } else if let Some(idx) = self.partitions.find(ratio) {
            self.partitions.partition_mut(idx).record(g);
        }

        self.prev_accuracy = accuracy;
        self.updates += 1;

        // Lines 9-11: pick the partition with the best UCBV score and sample a
        // ratio from it.
        let epsilon_next = self.epsilon;
        let mut best_idx = 0;
        let mut best_score = f64::NEG_INFINITY;
        for i in 0..self.partitions.len() {
            let score = self.ucbv_score(i, epsilon_next);
            if score > best_score {
                best_score = score;
                best_idx = i;
            }
        }
        self.propose_from(best_idx, rng)
    }

    /// Number of feedback updates consumed so far.
    pub fn updates(&self) -> usize {
        self.updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlps_tensor::rng_from_seed;

    fn agent() -> PUcbv {
        PUcbv::new(PUcbvConfig::default(), 1.0, 0.1)
    }

    #[test]
    fn initial_ratio_is_in_range() {
        let a = agent();
        let mut rng = rng_from_seed(1);
        for _ in 0..50 {
            let r = a.initial_ratio(&mut rng);
            assert!((0.05..1.0).contains(&r), "{r}");
        }
    }

    #[test]
    fn update_returns_feasible_ratios_and_refines_partitions() {
        let mut a = agent();
        let mut rng = rng_from_seed(2);
        let mut ratio = a.initial_ratio(&mut rng);
        let before = a.num_partitions();
        for round in 0..30 {
            let acc = 0.1 + 0.02 * round as f64;
            ratio = a.update(
                PUcbvFeedback {
                    ratio,
                    local_cost: 1.0 + ratio,
                    accuracy: acc,
                },
                &mut rng,
            );
            assert!((0.05..1.0).contains(&ratio), "round {round}: {ratio}");
            assert!(a.partitions().is_well_formed());
        }
        assert!(a.num_partitions() >= before);
        assert_eq!(a.updates(), 30);
    }

    #[test]
    fn capability_cap_restricts_the_arm_space() {
        let a = PUcbv::new(PUcbvConfig::default(), 0.25, 0.1);
        let mut rng = rng_from_seed(3);
        for _ in 0..50 {
            assert!(a.initial_ratio(&mut rng) <= 0.25);
        }
    }

    #[test]
    fn accuracy_drop_triggers_elimination() {
        let mut a = PUcbv::new(PUcbvConfig::default(), 1.0, 0.5);
        let mut rng = rng_from_seed(4);
        let before = a.num_partitions();
        // Feedback with a big accuracy drop: the split's lower half must go.
        a.update(
            PUcbvFeedback {
                ratio: 0.5,
                local_cost: 1.0,
                accuracy: 0.2,
            },
            &mut rng,
        );
        // A split adds one partition and the elimination removes one, so the
        // count stays the same; without elimination it would have grown.
        assert_eq!(a.num_partitions(), before);
    }

    #[test]
    fn improving_accuracy_keeps_both_halves() {
        let mut a = PUcbv::new(PUcbvConfig::default(), 1.0, 0.1);
        let mut rng = rng_from_seed(5);
        let before = a.num_partitions();
        a.update(
            PUcbvFeedback {
                ratio: 0.5,
                local_cost: 1.0,
                accuracy: 0.4,
            },
            &mut rng,
        );
        assert_eq!(a.num_partitions(), before + 1);
    }

    #[test]
    fn quantized_ratios_are_canonical_and_collapse_shape_classes() {
        let units = vec![10, 8];
        let a = agent().with_shape_resolution(units.clone());
        for r in [0.08, 0.13, 0.27, 0.44, 0.5, 0.61, 0.83, 0.95] {
            let q = a.quantize(r);
            // Canonical representatives are fixed points.
            assert_eq!(a.quantize(q), q, "idempotent at {r}");
            // Quantization never changes the submodel the ratio extracts.
            assert_eq!(
                fedlps_sparse::ratio::retained_per_layer(&units, q),
                fedlps_sparse::ratio::retained_per_layer(&units, r),
                "shape preserved at {r}"
            );
        }
        // Ratios retaining identical per-layer counts are one arm.
        assert_eq!(a.quantize(0.41), a.quantize(0.48));
        assert_ne!(a.quantize(0.41), a.quantize(0.55));
    }

    #[test]
    fn quantized_agent_proposes_few_distinct_arms() {
        // The mask cache keys a client's pattern by the proposal's shape
        // class, so what lifts the warm hit rate is *consecutive* proposals
        // staying in one class. Compare that churn over a long trajectory
        // with and without quantization: the quantized agent proposes the
        // canonical arm of its (stabilising) best partition instead of a
        // fresh continuous sample, so its shape must change strictly less
        // often.
        let units = vec![10usize, 8];
        let run = |quantize: bool| {
            let mut a = agent();
            if quantize {
                a.set_shape_resolution(units.clone());
            }
            let mut rng = rng_from_seed(7);
            let mut ratio = a.initial_ratio(&mut rng);
            let mut proposals = vec![ratio];
            for round in 0..60 {
                ratio = a.update(
                    PUcbvFeedback {
                        ratio,
                        local_cost: 1.0 + ratio,
                        accuracy: 0.1 + 0.01 * round as f64,
                    },
                    &mut rng,
                );
                proposals.push(ratio);
            }
            let classes: Vec<Vec<usize>> = proposals
                .iter()
                .map(|&r| fedlps_sparse::ratio::retained_per_layer(&units, r))
                .collect();
            classes.windows(2).filter(|w| w[0] != w[1]).count()
        };
        let continuous_churn = run(false);
        let quantized_churn = run(true);
        assert!(
            quantized_churn < continuous_churn,
            "quantization must reduce consecutive shape churn \
             ({quantized_churn} vs {continuous_churn} changes over 60 rounds)"
        );
    }

    #[test]
    fn quantized_proposals_stay_feasible_under_a_capability_cap() {
        let a = PUcbv::new(PUcbvConfig::default(), 0.25, 0.1).with_shape_resolution(vec![16, 4]);
        let mut rng = rng_from_seed(9);
        for _ in 0..50 {
            let r = a.initial_ratio(&mut rng);
            assert!(r <= 0.25 + 1e-9, "cap violated by {r}");
            assert!(r >= 0.05 - 1e-9);
        }
    }

    #[test]
    fn bandit_prefers_cheap_high_reward_ratios_over_time() {
        // Synthetic environment: accuracy gain is flat in the ratio, but cost
        // grows with the ratio, so low ratios earn strictly higher rewards.
        // After enough rounds the agent should propose mostly low ratios.
        let mut a = PUcbv::new(PUcbvConfig::default(), 1.0, 0.0);
        let mut rng = rng_from_seed(6);
        let mut ratio = a.initial_ratio(&mut rng);
        let mut acc = 0.0f64;
        let mut late_ratios = Vec::new();
        for round in 0..120 {
            acc = (acc + 0.01).min(0.9);
            let cost = 0.5 + 4.0 * ratio;
            ratio = a.update(
                PUcbvFeedback {
                    ratio,
                    local_cost: cost,
                    accuracy: acc,
                },
                &mut rng,
            );
            if round >= 80 {
                late_ratios.push(ratio);
            }
        }
        let mean_late: f64 = late_ratios.iter().sum::<f64>() / late_ratios.len() as f64;
        assert!(
            mean_late < 0.55,
            "late mean ratio {mean_late} should drift low"
        );
    }
}
