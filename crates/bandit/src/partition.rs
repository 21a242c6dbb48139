//! The partitioned arm space used by P-UCBV.
//!
//! P-UCBV handles the continuous sparse-ratio space by maintaining a set of
//! disjoint intervals (initially a uniform grid over the feasible range).
//! Whenever a ratio is tried, its interval is split at that ratio, so the
//! partition refines itself around the ratios the bandit actually explores —
//! this is the decision-tree-based arm transformation borrowed from FedMP \[28\].

use serde::{Deserialize, Serialize};

/// One interval of the arm space together with its reward history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    /// Inclusive lower bound of the interval.
    pub lo: f64,
    /// Exclusive upper bound of the interval.
    pub hi: f64,
    /// Rewards observed for ratios sampled from this interval.
    pub rewards: Vec<f64>,
}

impl Partition {
    /// Creates an empty partition over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(hi > lo, "partition must have positive width ({lo}, {hi})");
        Self {
            lo,
            hi,
            rewards: Vec::new(),
        }
    }

    /// Whether the ratio falls inside the interval.
    pub fn contains(&self, ratio: f64) -> bool {
        ratio >= self.lo && ratio < self.hi
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Number of times this partition has been pulled (`h_i`).
    pub fn pulls(&self) -> usize {
        self.rewards.len()
    }

    /// Mean reward `ḡ_i` (0 when never pulled).
    pub fn mean_reward(&self) -> f64 {
        fedlps_tensor::stats::mean(&self.rewards)
    }

    /// Reward variance `v̄_i` (0 when never pulled).
    pub fn reward_variance(&self) -> f64 {
        fedlps_tensor::stats::variance(&self.rewards)
    }

    /// Records a reward observation.
    pub fn record(&mut self, reward: f64) {
        self.rewards.push(reward);
    }
}

/// A set of disjoint partitions covering `[floor, ceil)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionSet {
    partitions: Vec<Partition>,
    floor: f64,
    ceil: f64,
    /// Minimum width below which splits are not performed (keeps the set from
    /// degenerating into zero-width intervals).
    min_width: f64,
}

impl PartitionSet {
    /// Creates `initial_count` equal-width partitions over `[floor, ceil)`.
    pub fn uniform(floor: f64, ceil: f64, initial_count: usize, min_width: f64) -> Self {
        assert!(ceil > floor && initial_count > 0);
        let step = (ceil - floor) / initial_count as f64;
        let partitions = (0..initial_count)
            .map(|i| {
                let lo = floor + i as f64 * step;
                let hi = if i + 1 == initial_count {
                    ceil
                } else {
                    floor + (i + 1) as f64 * step
                };
                Partition::new(lo, hi)
            })
            .collect();
        Self {
            partitions,
            floor,
            ceil,
            min_width,
        }
    }

    /// All partitions.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Mutable access to a partition.
    pub fn partition_mut(&mut self, idx: usize) -> &mut Partition {
        &mut self.partitions[idx]
    }

    /// Number of partitions (`I_r`).
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// Whether the set is empty (only possible after aggressive elimination).
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// The feasible range covered at construction time.
    pub fn range(&self) -> (f64, f64) {
        (self.floor, self.ceil)
    }

    /// Index of the partition containing `ratio`, if any.
    pub fn find(&self, ratio: f64) -> Option<usize> {
        self.partitions.iter().position(|p| p.contains(ratio))
    }

    /// Splits the partition containing `ratio` at that ratio.
    ///
    /// Returns `(lower_index, upper_index)`: the indices of the partition
    /// below the split point (`S_u'`) and at-or-above it (`S_u''`). When the
    /// split would create an interval narrower than `min_width` (or the ratio
    /// is outside every partition) no split happens and both indices refer to
    /// the containing partition.
    pub fn split_at(&mut self, ratio: f64) -> Option<(usize, usize)> {
        let idx = self.find(ratio)?;
        let (lo, hi) = (self.partitions[idx].lo, self.partitions[idx].hi);
        if ratio - lo < self.min_width || hi - ratio < self.min_width {
            return Some((idx, idx));
        }
        // Existing reward history stays with the upper (containing) part; the
        // new lower part starts fresh. Rewards are re-recorded by the caller
        // per Algorithm 2 line 8.
        let lower = Partition::new(lo, ratio);
        self.partitions[idx].lo = ratio;
        self.partitions.insert(idx, lower);
        Some((idx, idx + 1))
    }

    /// Removes the partition at `idx` (arm elimination). Refuses to remove the
    /// last remaining partition, which would leave the bandit with no arms.
    pub fn eliminate(&mut self, idx: usize) -> bool {
        if self.partitions.len() <= 1 {
            return false;
        }
        self.partitions.remove(idx);
        true
    }

    /// Checks the structural invariant: partitions are sorted, disjoint and
    /// non-overlapping. Used by tests and debug assertions.
    pub fn is_well_formed(&self) -> bool {
        self.partitions
            .windows(2)
            .all(|w| w[0].hi <= w[1].lo + 1e-12 && w[0].lo < w[0].hi)
            && self.partitions.iter().all(|p| p.lo < p.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_partitions_cover_range() {
        let set = PartitionSet::uniform(0.0625, 1.0, 4, 0.01);
        assert_eq!(set.len(), 4);
        assert!(set.is_well_formed());
        assert_eq!(set.partitions()[0].lo, 0.0625);
        assert_eq!(set.partitions()[3].hi, 1.0);
        // Every ratio in range belongs to exactly one partition.
        for i in 0..100 {
            let r = 0.0625 + (1.0 - 0.0625) * (i as f64 / 100.0);
            assert!(set.find(r).is_some(), "ratio {r}");
        }
        assert!(set.find(1.0).is_none());
    }

    #[test]
    fn split_creates_adjacent_intervals() {
        let mut set = PartitionSet::uniform(0.0, 1.0, 2, 0.01);
        let (lower, upper) = set.split_at(0.3).unwrap();
        assert!(set.is_well_formed());
        assert_eq!(set.len(), 3);
        assert_eq!(set.partitions()[lower].hi, 0.3);
        assert_eq!(set.partitions()[upper].lo, 0.3);
    }

    #[test]
    fn split_too_close_to_edge_is_a_noop() {
        let mut set = PartitionSet::uniform(0.0, 1.0, 2, 0.05);
        let (a, b) = set.split_at(0.001).unwrap();
        assert_eq!(a, b);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn eliminate_keeps_at_least_one_partition() {
        let mut set = PartitionSet::uniform(0.0, 1.0, 2, 0.01);
        assert!(set.eliminate(0));
        assert!(!set.eliminate(0));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn reward_statistics() {
        let mut p = Partition::new(0.2, 0.5);
        assert_eq!(p.mean_reward(), 0.0);
        p.record(1.0);
        p.record(3.0);
        assert_eq!(p.pulls(), 2);
        assert!((p.mean_reward() - 2.0).abs() < 1e-12);
        assert!((p.reward_variance() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_width_partition_rejected() {
        Partition::new(0.5, 0.5);
    }
}
