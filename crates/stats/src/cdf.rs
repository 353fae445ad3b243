//! Empirical distributions with log-scale bucketing.
//!
//! The paper's Figs. 6, 8 and 9 plot cumulative distributions on decade
//! (log₁₀) x-axes: co-simulation persistence cycles, error-propagation
//! latency, and required rollback distance. [`Cdf`] keeps the raw
//! samples for exact quantiles and evaluates them at decade boundaries.

/// An exact empirical CDF over `u64` samples.
///
/// # Examples
///
/// ```
/// use nestsim_stats::Cdf;
///
/// let mut latencies: Cdf = [12u64, 300, 4_500, 4_500, 90_000].into_iter().collect();
/// assert_eq!(latencies.quantile(0.5), 4_500);
/// assert!(latencies.fraction_at_most(1_000) >= 0.4);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cdf {
    samples: Vec<u64>,
    sorted: bool,
}

impl Cdf {
    /// Creates an empty CDF.
    pub fn new() -> Self {
        Cdf::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, v: u64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// Fraction of samples ≤ `v` (0 when empty).
    pub fn fraction_at_most(&mut self, v: u64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = self.samples.partition_point(|&s| s <= v);
        idx as f64 / self.samples.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) using the nearest-rank method.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> u64 {
        assert!(!self.samples.is_empty(), "quantile of empty CDF");
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.samples[rank - 1]
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&s| s as f64).sum::<f64>() / self.samples.len() as f64
    }

    /// Evaluates the CDF at each decade boundary `10^0 .. 10^max_decade`,
    /// returning `(boundary, fraction ≤ boundary)` pairs — the series
    /// format of the paper's Figs. 6/8/9.
    pub fn decade_series(&mut self, max_decade: u32) -> Vec<(u64, f64)> {
        (0..=max_decade)
            .map(|d| {
                let b = 10u64.pow(d);
                (b, self.fraction_at_most(b))
            })
            .collect()
    }
}

impl FromIterator<u64> for Cdf {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        Cdf {
            samples: iter.into_iter().collect(),
            sorted: false,
        }
    }
}

impl Extend<u64> for Cdf {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        self.samples.extend(iter);
        self.sorted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_fraction_and_quantiles() {
        let mut c: Cdf = (1..=100u64).collect();
        assert!((c.fraction_at_most(50) - 0.5).abs() < 1e-12);
        assert_eq!(c.quantile(0.5), 50);
        assert_eq!(c.quantile(1.0), 100);
        assert_eq!(c.quantile(0.01), 1);
        assert!((c.mean() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn cdf_decade_series_is_monotone() {
        let mut c: Cdf = [3u64, 30, 300, 3_000, 30_000].into_iter().collect();
        let s = c.decade_series(6);
        for w in s.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(s.last().unwrap().1, 1.0);
    }

    #[test]
    fn empty_cdf_behaviour() {
        let mut c = Cdf::new();
        assert!(c.is_empty());
        assert_eq!(c.fraction_at_most(10), 0.0);
        assert_eq!(c.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_of_empty_panics() {
        let mut c = Cdf::new();
        let _ = c.quantile(0.5);
    }
}
