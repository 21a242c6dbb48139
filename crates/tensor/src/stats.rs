//! Descriptive statistics used by the sparse-pattern thresholding (quantiles
//! over importance scores) and by the P-UCBV bandit (running means/variances
//! of partition rewards).

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population variance; 0.0 for slices with fewer than one element.
pub fn variance(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64
}

/// The `q`-quantile (0 ≤ q ≤ 1) of the values using linear interpolation
/// between order statistics, matching `numpy.quantile`'s default behaviour.
///
/// The learnable sparse pattern of Eq. (4) thresholds importance scores at the
/// `(1 - s)`-quantile, so this routine sits on the hot path of every FedLPS
/// local iteration.
///
/// # Panics
/// Panics on an empty slice or a `q` outside `[0, 1]`.
pub fn quantile(values: &[f32], q: f64) -> f32 {
    assert!(!values.is_empty(), "quantile of empty slice");
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile fraction must be in [0,1]"
    );
    let mut sorted: Vec<f32> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pos = q * (sorted.len() - 1) as f64;
    let lower = pos.floor() as usize;
    let upper = pos.ceil() as usize;
    if lower == upper {
        return sorted[lower];
    }
    let frac = (pos - lower as f64) as f32;
    sorted[lower] * (1.0 - frac) + sorted[upper] * frac
}

/// Indices of the `k` largest values, ties broken by smaller index first.
pub fn top_k_indices(values: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| {
        values[b]
            .partial_cmp(&values[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx.truncate(k.min(values.len()));
    idx
}

/// Exponential moving average state used for smoothed accuracy reporting.
#[derive(Debug, Clone, Copy)]
pub struct Ema {
    alpha: f64,
    value: Option<f64>,
}

impl Ema {
    /// Creates an EMA with smoothing factor `alpha` in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "EMA alpha must be in (0,1]");
        Self { alpha, value: None }
    }

    /// Feeds an observation and returns the updated smoothed value.
    pub fn update(&mut self, x: f64) -> f64 {
        let next = match self.value {
            None => x,
            Some(prev) => self.alpha * x + (1.0 - self.alpha) * prev,
        };
        self.value = Some(next);
        next
    }

    /// Current smoothed value, if any observation has been fed.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_known_values() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        assert!((variance(&v) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }

    #[test]
    fn quantile_endpoints_and_median() {
        let v = [1.0f32, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert!((quantile(&v, 0.25) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [0.0f32, 10.0];
        assert!((quantile(&v, 0.3) - 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn quantile_empty_panics() {
        let _ = quantile(&[], 0.5);
    }

    #[test]
    fn top_k_indices_ordering() {
        let v = [0.1f32, 0.9, 0.5, 0.9];
        assert_eq!(top_k_indices(&v, 2), vec![1, 3]);
        assert_eq!(top_k_indices(&v, 10), vec![1, 3, 2, 0]);
    }

    #[test]
    fn ema_behaviour() {
        let mut ema = Ema::new(0.5);
        assert_eq!(ema.value(), None);
        assert_eq!(ema.update(2.0), 2.0);
        assert_eq!(ema.update(4.0), 3.0);
        assert_eq!(ema.value(), Some(3.0));
    }
}
