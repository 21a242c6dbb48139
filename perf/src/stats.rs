//! Order statistics over small samples.

/// Linear-interpolated percentile of an unsorted sample (`p` in 0..=100);
/// `p = 50` is the ordinary median. 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest of the usual reporting percentiles that still has at least
/// ten of `n` samples beyond it (41 → 75, 128 → 90); the median when even
/// that is unresolved.
pub fn tail_percentile(n: usize) -> u32 {
    [99u32, 95, 90, 75]
        .into_iter()
        .find(|&p| n * (100 - p as usize) / 100 >= 10)
        .unwrap_or(50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[0.0, 10.0], 75.0), 7.5);
        assert_eq!(percentile(&[5.0], 90.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(41), 75);
        assert_eq!(tail_percentile(40), 75);
        assert_eq!(tail_percentile(39), 50);
        assert_eq!(tail_percentile(128), 90);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(960), 95);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(2), 50);
    }
}
