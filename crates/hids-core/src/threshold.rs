//! Threshold-selection heuristics.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use tailstats::{QuantileBackend, QuantileSource};

use crate::eval::utility_of;
use crate::sweep::SweepTable;

/// Parameters of the synthetic attack-size sweep used by the optimising
/// heuristics (and by evaluation).
///
/// The paper sweeps "the entire range of possible attack sizes", capping at
/// the largest per-window value any user ever produced ("clearly any attack
/// larger than this will stand out on every user's HIDS"). The scalar FN a
/// heuristic optimises averages over [`n_points`](Self::n_points) sizes
/// uniformly spaced in `[1, b_max]` — the averaging the paper leaves
/// implicit (DESIGN.md §5).
///
/// The sizes are materialised once at construction and shared (`Arc`) by
/// clones: heuristics query `mean_fn` for every candidate threshold of
/// every user, and reallocating the size grid per query dominated profile
/// time before the batched [`SweepTable`] kernel existed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackSweep {
    b_max: f64,
    sizes: Arc<[f64]>,
}

impl AttackSweep {
    /// Build a sweep of `n_points` sizes uniformly spaced in `[1, b_max]`.
    /// A sweep has at least two points (its two ends), so `n_points < 2`
    /// builds the same two-point grid as `n_points = 2`.
    pub fn new(b_max: f64, n_points: usize) -> Self {
        let n = n_points.max(2);
        let sizes: Arc<[f64]> = (0..n)
            .map(|i| 1.0 + (b_max - 1.0) * i as f64 / (n - 1) as f64)
            .collect();
        Self { b_max, sizes }
    }

    /// Build a sweep capped at the population maximum feature value.
    pub fn up_to(b_max: f64) -> Self {
        Self::new(b_max.max(1.0), 256)
    }

    /// Largest attack size considered.
    pub fn b_max(&self) -> f64 {
        self.b_max
    }

    /// Number of sweep points (the length of [`sizes`](Self::sizes)).
    pub fn n_points(&self) -> usize {
        self.sizes.len()
    }

    /// The attack sizes, uniformly spaced in `[1, b_max]` (ascending).
    pub fn sizes(&self) -> &[f64] {
        &self.sizes
    }

    /// Mean false-negative rate of threshold `t` against this sweep, under
    /// traffic distribution `dist`: `mean_b P(g + b < t)`.
    ///
    /// Point query for a single already-chosen threshold, summed by
    /// [`QuantileBackend::below_sum`] (one walk over the exact backend's
    /// runs). To evaluate *every candidate* threshold of a distribution,
    /// use [`SweepTable`], which computes all of them in one pass.
    pub fn mean_fn<Q: QuantileBackend + ?Sized>(&self, dist: &Q, t: f64) -> f64 {
        dist.below_sum(t, &self.sizes) / self.sizes.len() as f64
    }
}

/// A rule mapping a training distribution to a threshold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ThresholdHeuristic {
    /// The q-th percentile of training traffic (operators' default: 0.99).
    /// Uses the discrete (observed-value) quantile, as an IT console reads
    /// it off a histogram.
    Percentile(f64),
    /// `mean + k·σ` of training traffic.
    MeanSigma(f64),
    /// Threshold maximising per-user utility `1 − [w·FN + (1−w)·FP]`
    /// against the attack sweep.
    UtilityMax {
        /// FN weight `w ∈ [0, 1]`.
        w: f64,
        /// Attack model for the FN term.
        sweep: AttackSweep,
    },
    /// Threshold maximising the F-measure (harmonic mean of precision and
    /// recall) against the attack sweep, assuming attack windows occur with
    /// the given prevalence.
    FMeasure {
        /// Fraction of windows assumed attacked (precision denominator).
        prevalence: f64,
        /// Attack model for the recall term.
        sweep: AttackSweep,
    },
}

/// F-measure of a threshold with false-positive rate `fpr` and mean
/// false-negative rate `fn_rate`, when a `prevalence` fraction of windows
/// is attacked; 0 where precision or recall is undefined.
fn f_measure(prevalence: f64, fpr: f64, fn_rate: f64) -> f64 {
    let recall = 1.0 - fn_rate;
    let tp = prevalence * recall;
    let fp = (1.0 - prevalence) * fpr;
    if tp + fp == 0.0 {
        return 0.0;
    }
    let precision = tp / (tp + fp);
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

impl ThresholdHeuristic {
    /// The paper's default operator heuristic.
    pub const P99: ThresholdHeuristic = ThresholdHeuristic::Percentile(0.99);

    /// Compute a threshold from a training distribution held by either
    /// quantile backend (`&EmpiricalDist` or `&KllSketch`).
    ///
    /// The optimising variants (`UtilityMax`, `FMeasure`) score every
    /// candidate threshold — each distinct observed training value plus
    /// one step above the maximum — via a single [`SweepTable`] pass and
    /// return the argmax. Ties break towards the *lower* threshold
    /// (favouring detection).
    pub fn threshold<Q: QuantileBackend + ?Sized>(&self, train: &Q) -> f64 {
        match self {
            ThresholdHeuristic::Percentile(q) => train.quantile_discrete(*q),
            ThresholdHeuristic::MeanSigma(k) => train.mean() + k * train.stddev(),
            ThresholdHeuristic::UtilityMax { w, sweep } => SweepTable::compute(train, sweep)
                .best_by(|fp, fn_rate| utility_of(*w, fp, fn_rate)),
            ThresholdHeuristic::FMeasure { prevalence, sweep } => SweepTable::compute(train, sweep)
                .best_by(|fpr, fn_rate| f_measure(*prevalence, fpr, fn_rate)),
        }
    }

    /// [`threshold`](Self::threshold) over a [`QuantileSource`]; kept for
    /// the benchmark harness, which still wraps its sketches.
    pub fn threshold_source(&self, train: &QuantileSource) -> f64 {
        self.threshold(train.as_backend())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailstats::{EmpiricalDist, KllSketch};

    fn uniform_counts(n: u64) -> EmpiricalDist {
        EmpiricalDist::from_counts(&(0..n).collect::<Vec<_>>())
    }

    #[test]
    fn percentile_heuristic_reads_discrete_quantile() {
        let d = uniform_counts(100); // values 0..=99
        let t = ThresholdHeuristic::P99.threshold(&d);
        assert_eq!(t, 98.0);
        assert!(d.exceedance(t) <= 0.011);
    }

    #[test]
    fn mean_sigma_heuristic() {
        let d = EmpiricalDist::from_samples(vec![0.0, 2.0, 4.0]);
        let t = ThresholdHeuristic::MeanSigma(3.0).threshold(&d);
        assert!((t - 8.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_sizes_cover_range() {
        let sweep = AttackSweep::new(100.0, 10);
        let sizes = sweep.sizes();
        assert_eq!(sizes.len(), 10);
        assert_eq!(sizes[0], 1.0);
        assert_eq!(*sizes.last().unwrap(), 100.0);
        assert!(sizes.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn mean_fn_monotone_in_threshold() {
        let d = uniform_counts(1000);
        let sweep = AttackSweep::up_to(2000.0);
        let lo = sweep.mean_fn(&d, 100.0);
        let hi = sweep.mean_fn(&d, 2000.0);
        assert!(hi > lo, "higher thresholds miss more: {hi} > {lo}");
        assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
    }

    #[test]
    fn utility_max_balances_fp_and_fn() {
        let d = uniform_counts(1000);
        let sweep = AttackSweep::up_to(2000.0);
        // All-FP weight: minimise false positives => threshold at the top.
        let t_fp = ThresholdHeuristic::UtilityMax {
            w: 0.0,
            sweep: sweep.clone(),
        }
        .threshold(&d);
        // All-FN weight: minimise misses => threshold at the bottom.
        let t_fn = ThresholdHeuristic::UtilityMax {
            w: 1.0,
            sweep: sweep.clone(),
        }
        .threshold(&d);
        assert!(t_fp > t_fn, "w=0 gives {t_fp}, w=1 gives {t_fn}");
        let t_mid = ThresholdHeuristic::UtilityMax { w: 0.4, sweep }.threshold(&d);
        assert!(t_mid <= t_fp && t_mid >= t_fn);
    }

    #[test]
    fn utility_max_w0_has_no_false_positives() {
        let d = uniform_counts(500);
        let sweep = AttackSweep::up_to(1000.0);
        let t = ThresholdHeuristic::UtilityMax { w: 0.0, sweep }.threshold(&d);
        assert_eq!(d.exceedance(t), 0.0);
    }

    #[test]
    fn fmeasure_prefers_low_thresholds_under_high_prevalence() {
        let d = uniform_counts(1000);
        let sweep = AttackSweep::up_to(2000.0);
        let t_rare = ThresholdHeuristic::FMeasure {
            prevalence: 0.001,
            sweep: sweep.clone(),
        }
        .threshold(&d);
        let t_common = ThresholdHeuristic::FMeasure {
            prevalence: 0.5,
            sweep,
        }
        .threshold(&d);
        assert!(
            t_common <= t_rare,
            "common attacks push thresholds down: {t_common} <= {t_rare}"
        );
    }

    #[test]
    fn n_points_is_the_grid_length() {
        for n in [0, 1, 2, 3, 10, 256] {
            let sweep = AttackSweep::new(10.0, n);
            assert_eq!(sweep.n_points(), sweep.sizes().len(), "n = {n}");
        }
        // Below two points every request builds the same [1, b_max] grid,
        // so the sweeps are equal too.
        assert_eq!(AttackSweep::new(10.0, 0), AttackSweep::new(10.0, 2));
        assert_eq!(AttackSweep::new(10.0, 1).sizes(), &[1.0, 10.0]);
    }

    #[test]
    fn sketch_thresholds_track_exact() {
        // At paper-ish scale with a 1% budget the sketch thresholds land
        // within the rank bound of the exact ones for every heuristic.
        let counts: Vec<u64> = (0..2000u64).map(|i| (i * i) % 997).collect();
        let d = EmpiricalDist::from_counts(&counts);
        let mut sk = KllSketch::new(0.01);
        sk.extend_from_counts(&counts);
        let sweep = AttackSweep::up_to(1500.0);
        for h in [
            ThresholdHeuristic::P99,
            ThresholdHeuristic::MeanSigma(3.0),
            ThresholdHeuristic::UtilityMax {
                w: 0.4,
                sweep: sweep.clone(),
            },
        ] {
            let exact = h.threshold(&d);
            let sketched = h.threshold(&sk);
            // Rank-space check: the exact CDF at the two thresholds must
            // agree within eps plus one discrete step.
            let drift = (d.cdf(exact) - d.cdf(sketched)).abs();
            assert!(
                drift <= 0.01 + 1.0 / counts.len() as f64,
                "{h:?}: exact {exact} vs sketch {sketched} (cdf drift {drift})"
            );
        }
    }

    #[test]
    fn heuristics_scale_with_user_heaviness() {
        // The core diversity observation: heavier users get higher
        // thresholds under any sensible heuristic.
        let light = uniform_counts(50);
        let heavy = uniform_counts(5000);
        for h in [
            ThresholdHeuristic::P99,
            ThresholdHeuristic::MeanSigma(3.0),
            ThresholdHeuristic::UtilityMax {
                w: 0.4,
                sweep: AttackSweep::up_to(10_000.0),
            },
        ] {
            assert!(
                h.threshold(&heavy) > h.threshold(&light),
                "{h:?} must separate heavy from light"
            );
        }
    }
}
