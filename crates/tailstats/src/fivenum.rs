//! Five-number (boxplot) summaries.

use crate::edf::EmpiricalDist;

/// The statistics a boxplot displays: quartiles, whiskers and outliers.
///
/// Whiskers follow the Tukey convention (most extreme samples within
/// 1.5 × IQR of the box), matching the MATLAB boxplots in the paper's
/// Figures 3(a) and 4(b).
#[derive(Debug, Clone, PartialEq)]
pub struct FiveNumber {
    /// Smallest sample.
    pub min: f64,
    /// Lower whisker end.
    pub whisker_lo: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Upper whisker end.
    pub whisker_hi: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample mean (not drawn in a classic boxplot but reported in
    /// EXPERIMENTS.md tables).
    pub mean: f64,
    /// Samples outside the whiskers.
    pub outliers: Vec<f64>,
}

impl FiveNumber {
    /// Summarise a batch of samples.
    ///
    /// # Panics
    /// Panics on an empty batch.
    pub fn from_samples(samples: &[f64]) -> Self {
        let dist = EmpiricalDist::from_samples(samples.to_vec());
        let q1 = dist.quantile(0.25);
        let median = dist.quantile(0.5);
        let q3 = dist.quantile(0.75);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let whisker_lo = dist
            .samples()
            .copied()
            .find(|&x| x >= lo_fence)
            .unwrap_or(q1);
        let whisker_hi = dist
            .samples()
            .rev()
            .copied()
            .find(|&x| x <= hi_fence)
            .unwrap_or(q3);
        let outliers = dist
            .samples()
            .copied()
            .filter(|&x| x < lo_fence || x > hi_fence)
            .collect();
        FiveNumber {
            min: dist.min(),
            whisker_lo,
            q1,
            median,
            q3,
            whisker_hi,
            max: dist.max(),
            mean: dist.mean(),
            outliers,
        }
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Render a one-line ASCII description (for experiment reports).
    pub fn describe(&self) -> String {
        format!(
            "min={:.4} q1={:.4} med={:.4} q3={:.4} max={:.4} mean={:.4} outliers={}",
            self.min,
            self.q1,
            self.median,
            self.q3,
            self.max,
            self.mean,
            self.outliers.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_simple_batch() {
        let s = FiveNumber::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!(s.outliers.is_empty());
        assert_eq!(s.whisker_lo, 1.0);
        assert_eq!(s.whisker_hi, 5.0);
    }

    #[test]
    fn outlier_detected_beyond_fence() {
        let mut data = vec![10.0; 20];
        data.push(1000.0);
        let s = FiveNumber::from_samples(&data);
        assert_eq!(s.outliers, vec![1000.0]);
        assert_eq!(s.whisker_hi, 10.0, "whisker stops at last inlier");
        assert_eq!(s.max, 1000.0);
    }

    #[test]
    fn constant_batch_degenerate() {
        let s = FiveNumber::from_samples(&[7.0, 7.0, 7.0]);
        assert_eq!(s.iqr(), 0.0);
        assert_eq!(s.median, 7.0);
        assert!(s.outliers.is_empty());
    }

    #[test]
    fn single_sample() {
        let s = FiveNumber::from_samples(&[3.5]);
        assert_eq!(s.min, 3.5);
        assert_eq!(s.max, 3.5);
        assert_eq!(s.median, 3.5);
    }

    #[test]
    fn describe_contains_fields() {
        let s = FiveNumber::from_samples(&[1.0, 2.0, 3.0]);
        let d = s.describe();
        assert!(d.contains("med=2.0000"));
        assert!(d.contains("outliers=0"));
    }
}
