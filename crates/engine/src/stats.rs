//! Summary statistics used by the paper's methodology.
//!
//! Section 3.3 of the paper selects input sizes by looking at the standard
//! deviation over the mean of 30 runs (Fig 5) and at run-time distributions
//! (Fig 4). [`Summary`] computes exactly those quantities, plus the geometric
//! mean the results section reports across workloads.

use crate::time::Nanos;

/// Summary statistics over a sample of observations.
///
/// # Example
///
/// ```
/// use hetsim_engine::stats::Summary;
/// let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    n: usize,
    mean: f64,
    std: f64,
    min: f64,
    max: f64,
    sorted: Vec<f64>,
}

impl Summary {
    /// Builds a summary from raw samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "summary of empty sample set");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
        Summary {
            n,
            mean,
            std: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            sorted,
        }
    }

    /// Builds a summary from durations, in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_nanos(samples: &[Nanos]) -> Self {
        let xs: Vec<f64> = samples.iter().map(|d| d.as_nanos() as f64).collect();
        Summary::from_samples(&xs)
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the sample set is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Coefficient of variation, `std / mean` — the Fig 5 stability metric.
    ///
    /// Returns zero for a zero mean (all-zero samples).
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std / self.mean
        }
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Linear-interpolated percentile, `p` in `[0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.n == 1 {
            return self.sorted[0];
        }
        let rank = p / 100.0 * (self.n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }
}

/// Geometric mean of positive values.
///
/// Values `<= 0` are skipped (they would make the product meaningless);
/// returns zero if nothing remains.
///
/// # Example
///
/// ```
/// use hetsim_engine::stats::geomean;
/// assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
/// ```
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.std(), 2.0);
        assert_eq!(s.cv(), 0.4);
        assert_eq!(s.len(), 8);
        assert!(!s.is_empty());
    }

    #[test]
    fn percentiles_interpolate() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 4.0);
        assert_eq!(s.median(), 2.5);
    }

    #[test]
    fn single_sample_summary() {
        let s = Summary::from_samples(&[3.5]);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.std(), 0.0);
        assert_eq!(s.median(), 3.5);
    }

    #[test]
    fn zero_mean_cv_is_zero() {
        let s = Summary::from_samples(&[0.0, 0.0]);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn from_nanos_matches_f64() {
        let s = Summary::from_nanos(&[Nanos::from_nanos(10), Nanos::from_nanos(20)]);
        assert_eq!(s.mean(), 15.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_samples_panic() {
        let _ = Summary::from_samples(&[]);
    }

    #[test]
    fn geomean_skips_nonpositive() {
        assert!((geomean(&[2.0, 8.0, 0.0, -3.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[0.0]), 0.0);
    }
}
