//! Discrete UCB1 over a fixed grid of sparse ratios — the ratio decision used
//! by the FedMP baseline \[28\], which the paper contrasts with P-UCBV.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// UCB1's exploration weight `c` in the bonus `sqrt(c · ln t / n_i)`.
const EXPLORATION: f64 = 2.0;

/// UCB1 agent over a fixed, discrete arm set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiscreteUcb {
    arms: Vec<f64>,
    counts: Vec<usize>,
    sums: Vec<f64>,
    total_pulls: usize,
}

impl DiscreteUcb {
    /// Creates an agent with the given candidate ratios.
    pub fn new(arms: Vec<f64>) -> Self {
        assert!(!arms.is_empty(), "UCB needs at least one arm");
        let n = arms.len();
        Self {
            arms,
            counts: vec![0; n],
            sums: vec![0.0; n],
            total_pulls: 0,
        }
    }

    /// The default ratio grid used for FedMP-style decisions, capped at the
    /// client's capability. Always contains at least one feasible arm.
    pub fn default_grid(max_ratio: f64) -> Vec<f64> {
        let grid: Vec<f64> = [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0]
            .iter()
            .copied()
            .filter(|&r| r <= max_ratio + 1e-9)
            .collect();
        if grid.is_empty() {
            vec![max_ratio.max(0.01)]
        } else {
            grid
        }
    }

    /// Chooses the next arm: unexplored arms first, then the UCB1 rule.
    pub fn select(&self, rng: &mut impl Rng) -> usize {
        if let Some(idx) = self.counts.iter().position(|&c| c == 0) {
            return idx;
        }
        let total = self.total_pulls.max(1) as f64;
        let mut best = 0;
        let mut best_score = f64::NEG_INFINITY;
        for i in 0..self.arms.len() {
            let mean = self.sums[i] / self.counts[i] as f64;
            let bonus = (EXPLORATION * total.ln() / self.counts[i] as f64).sqrt();
            let score = mean + bonus;
            if score > best_score || (score == best_score && rng.gen::<bool>()) {
                best_score = score;
                best = i;
            }
        }
        best
    }

    /// The ratio value of an arm index.
    pub fn ratio_of(&self, arm: usize) -> f64 {
        self.arms[arm]
    }

    /// Index of the arm closest to a ratio value.
    pub fn nearest_arm(&self, ratio: f64) -> usize {
        let mut best = 0;
        let mut best_err = f64::INFINITY;
        for (i, &a) in self.arms.iter().enumerate() {
            let err = (a - ratio).abs();
            if err < best_err {
                best_err = err;
                best = i;
            }
        }
        best
    }

    /// Records a reward for an arm.
    pub fn record(&mut self, arm: usize, reward: f64) {
        self.counts[arm] += 1;
        self.sums[arm] += reward;
        self.total_pulls += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlps_tensor::rng_from_seed;

    #[test]
    fn explores_every_arm_first() {
        let mut ucb = DiscreteUcb::new(vec![0.25, 0.5, 1.0]);
        let mut rng = rng_from_seed(1);
        let mut seen = [false; 3];
        for _ in 0..3 {
            let arm = ucb.select(&mut rng);
            seen[arm] = true;
            ucb.record(arm, 0.0);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn converges_to_the_best_arm() {
        let mut ucb = DiscreteUcb::new(vec![0.25, 0.5, 1.0]);
        let mut rng = rng_from_seed(2);
        let true_rewards = [0.2, 1.0, 0.4];
        let mut picks = vec![0usize; 3];
        for _ in 0..300 {
            let arm = ucb.select(&mut rng);
            picks[arm] += 1;
            ucb.record(arm, true_rewards[arm]);
        }
        assert!(picks[1] > picks[0] && picks[1] > picks[2], "{picks:?}");
    }

    #[test]
    fn grid_respects_capability_cap() {
        let grid = DiscreteUcb::default_grid(0.3);
        assert!(grid.iter().all(|&r| r <= 0.3));
        assert!(!grid.is_empty());
        assert_eq!(DiscreteUcb::default_grid(1.0).len(), 8);
    }

    #[test]
    fn nearest_arm_lookup() {
        let ucb = DiscreteUcb::new(vec![0.25, 0.5, 1.0]);
        assert_eq!(ucb.nearest_arm(0.26), 0);
        assert_eq!(ucb.nearest_arm(0.8), 2);
        assert_eq!(ucb.ratio_of(1), 0.5);
    }
}
