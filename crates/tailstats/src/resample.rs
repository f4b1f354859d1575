//! Bootstrap resampling and two-sample distances.
//!
//! Used by the experiments to put uncertainty on reported statistics
//! (bootstrap percentile intervals) and to quantify week-over-week
//! distribution drift (Kolmogorov–Smirnov distance).

use crate::edf::EmpiricalDist;

/// A percentile bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapCi {
    /// Point estimate (the statistic on the original sample).
    pub estimate: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Nominal coverage (e.g. 0.95).
    pub level: f64,
}

/// Deterministic xorshift stream for resampling (no external RNG needed;
/// resampling only requires decorrelated indices, not cryptographic
/// quality).
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn index(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Percentile bootstrap CI for an arbitrary statistic of a sample.
///
/// # Panics
/// Panics on an empty sample, non-positive repetitions, or `level`
/// outside (0, 1).
pub fn bootstrap_ci(
    samples: &[f64],
    statistic: impl Fn(&[f64]) -> f64,
    reps: usize,
    level: f64,
    seed: u64,
) -> BootstrapCi {
    assert!(!samples.is_empty(), "bootstrap needs samples");
    assert!(reps > 0, "bootstrap needs repetitions");
    assert!(level > 0.0 && level < 1.0, "level must be in (0,1)");
    let estimate = statistic(samples);
    let mut rng = SplitMix(seed);
    let mut stats = Vec::with_capacity(reps);
    let mut resample = vec![0.0; samples.len()];
    for _ in 0..reps {
        for slot in resample.iter_mut() {
            *slot = samples[rng.index(samples.len())];
        }
        stats.push(statistic(&resample));
    }
    let dist = EmpiricalDist::from_samples(stats);
    let alpha = (1.0 - level) / 2.0;
    BootstrapCi {
        estimate,
        lo: dist.quantile(alpha),
        hi: dist.quantile(1.0 - alpha),
        level,
    }
}

/// Two-sample Kolmogorov–Smirnov statistic: `sup_x |F_a(x) − F_b(x)|`.
///
/// 0 for identical distributions, 1 for disjoint supports.
pub fn ks_distance(a: &EmpiricalDist, b: &EmpiricalDist) -> f64 {
    let ((xa, ea), (xb, eb)) = (a.run_table(), b.run_table());
    let (na, nb) = (a.len() as f64, b.len() as f64);
    // Runs consumed from each side, and the samples they hold.
    let (mut i, mut j, mut ca, mut cb) = (0usize, 0usize, 0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < xa.len() && j < xb.len() {
        let x = xa[i].min(xb[j]);
        while i < xa.len() && xa[i] <= x {
            ca = ea[i];
            i += 1;
        }
        while j < xb.len() && xb[j] <= x {
            cb = eb[j];
            j += 1;
        }
        d = d.max((ca as f64 / na - cb as f64 / nb).abs());
    }
    d.max(
        (1.0 - ca as f64 / na)
            .abs()
            .max((1.0 - cb as f64 / nb).abs()),
    )
}

/// Gini coefficient of a non-negative sample (0 = perfectly equal,
/// → 1 = all mass on one member). Quantifies how concentrated the
/// population's traffic heaviness is.
///
/// # Panics
/// Panics on an empty sample or negative values.
pub fn gini(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "gini needs values");
    assert!(values.iter().all(|&v| v >= 0.0), "gini needs non-negatives");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len() as f64;
    let total: f64 = sorted.iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as f64 + 1.0) * v)
        .sum();
    (2.0 * weighted) / (n * total) - (n + 1.0) / n
}

/// Points of the Lorenz curve: `(population fraction, traffic fraction)`,
/// ascending — for "the top 15% of users account for X% of traffic" style
/// statements.
pub fn lorenz_curve(values: &[f64]) -> Vec<(f64, f64)> {
    assert!(!values.is_empty(), "lorenz needs values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len() as f64;
    let total: f64 = sorted.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    let mut acc = 0.0;
    let mut points = Vec::with_capacity(sorted.len() + 1);
    points.push((0.0, 0.0));
    for (i, &v) in sorted.iter().enumerate() {
        acc += v;
        points.push(((i as f64 + 1.0) / n, acc / total));
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_mean_ci_covers_truth() {
        let samples: Vec<f64> = (0..200).map(|i| f64::from(i % 10)).collect();
        let ci = bootstrap_ci(&samples, |s| s.iter().sum::<f64>() / s.len() as f64, 500, 0.95, 1);
        assert!((ci.estimate - 4.5).abs() < 1e-12);
        assert!(ci.lo <= 4.5 && 4.5 <= ci.hi);
        assert!(ci.hi - ci.lo < 1.5, "interval reasonably tight");
    }

    #[test]
    fn bootstrap_deterministic_per_seed() {
        let samples: Vec<f64> = (0..50).map(f64::from).collect();
        let stat = |s: &[f64]| s.iter().cloned().fold(0.0f64, f64::max);
        let a = bootstrap_ci(&samples, stat, 100, 0.9, 7);
        let b = bootstrap_ci(&samples, stat, 100, 0.9, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn ks_identical_is_zero() {
        let a = EmpiricalDist::from_counts(&[1, 2, 3, 4, 5]);
        let b = EmpiricalDist::from_counts(&[1, 2, 3, 4, 5]);
        assert_eq!(ks_distance(&a, &b), 0.0);
    }

    #[test]
    fn ks_disjoint_is_one() {
        let a = EmpiricalDist::from_counts(&[1, 2, 3]);
        let b = EmpiricalDist::from_counts(&[100, 200]);
        assert!((ks_distance(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ks_shifted_halves() {
        // a = {0..10}, b = {5..15}: overlap half — KS around 0.5.
        let a = EmpiricalDist::from_counts(&(0..10).collect::<Vec<_>>());
        let b = EmpiricalDist::from_counts(&(5..15).collect::<Vec<_>>());
        let d = ks_distance(&a, &b);
        assert!((0.4..0.6).contains(&d), "got {d}");
    }

    #[test]
    fn ks_symmetric() {
        let a = EmpiricalDist::from_counts(&[1, 5, 9, 9, 20]);
        let b = EmpiricalDist::from_counts(&[2, 2, 7, 30]);
        assert!((ks_distance(&a, &b) - ks_distance(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn gini_extremes() {
        assert!(gini(&[5.0, 5.0, 5.0, 5.0]).abs() < 1e-12, "equality -> 0");
        let concentrated = gini(&[0.0, 0.0, 0.0, 100.0]);
        assert!(concentrated > 0.7, "got {concentrated}");
        assert_eq!(gini(&[0.0, 0.0]), 0.0, "all-zero defined as 0");
    }

    #[test]
    fn gini_known_value() {
        // {1, 3}: G = 0.25.
        assert!((gini(&[1.0, 3.0]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn lorenz_endpoints_and_monotone() {
        let pts = lorenz_curve(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(pts.first(), Some(&(0.0, 0.0)));
        let last = pts.last().unwrap();
        assert!((last.0 - 1.0).abs() < 1e-12 && (last.1 - 1.0).abs() < 1e-12);
        for pair in pts.windows(2) {
            assert!(pair[1].0 >= pair[0].0);
            assert!(pair[1].1 >= pair[0].1);
        }
        // Lorenz curve lies below the diagonal for unequal data.
        assert!(pts[2].1 < pts[2].0);
    }
}
