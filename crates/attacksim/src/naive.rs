//! The naive attacker: flat additive injection, no host knowledge.

use flowtab::Windowing;
use serde::{Deserialize, Serialize};

/// A naive attack campaign: the botmaster orders every zombie to add `b`
/// units of the tracked feature during a fixed set of windows.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NaiveAttack {
    /// Indices of the attacked windows (within the test week).
    pub windows: Vec<usize>,
}

impl NaiveAttack {
    /// An attack over explicit windows.
    ///
    /// # Panics
    /// Panics if no windows are given.
    pub fn new(windows: Vec<usize>) -> Self {
        assert!(!windows.is_empty(), "an attack needs at least one window");
        Self { windows }
    }

    /// The paper-style default: a one-hour attack during business hours
    /// mid-week (when the most zombies are online).
    pub fn default_for(windowing: Windowing) -> Self {
        Self::new(business_hour_windows(windowing, 2, 14, 4))
    }
}

/// Window indices for `len` consecutive windows starting at `day`
/// (0 = Monday) and `hour` o'clock.
pub fn business_hour_windows(
    windowing: Windowing,
    day: usize,
    hour: usize,
    len: usize,
) -> Vec<usize> {
    let start_secs = day as f64 * 86_400.0 + hour as f64 * 3600.0;
    let first = windowing.window_of(start_secs);
    (first..first + len).collect()
}

/// Did this user raise at least one alarm during the attack?
///
/// `test_counts` is the user's benign per-window counts for the test week;
/// the attack adds `b` to each attacked window, and an alarm fires when
/// `g + b > T`.
pub fn user_detects(test_counts: &[u64], threshold: f64, b: f64, attack: &NaiveAttack) -> bool {
    attack.windows.iter().any(|&w| {
        let g = test_counts.get(w).copied().unwrap_or(0);
        g as f64 + b > threshold
    })
}

/// Fraction of the population raising at least one alarm for attack size
/// `b` (one y-value of Figure 4(a)).
///
/// `test_counts` holds one column per user, owned or borrowed.
///
/// # Panics
/// Panics when `test_counts` and `thresholds` differ in length.
pub fn detection_fraction(
    test_counts: &[impl AsRef<[u64]>],
    thresholds: &[f64],
    b: f64,
    attack: &NaiveAttack,
) -> f64 {
    assert_eq!(test_counts.len(), thresholds.len());
    let detected = test_counts
        .iter()
        .zip(thresholds)
        .filter(|(counts, &t)| user_detects(counts.as_ref(), t, b, attack))
        .count();
    detected as f64 / test_counts.len().max(1) as f64
}

/// The full detection curve over a sweep of attack sizes.
///
/// Each size is an independent population pass, so the sweep parallelises
/// across sizes via [`hids_core::par_map`] (output order is preserved).
pub fn detection_curve(
    test_counts: &[impl AsRef<[u64]> + Sync],
    thresholds: &[f64],
    sizes: &[f64],
    attack: &NaiveAttack,
) -> Vec<(f64, f64)> {
    hids_core::par_map(sizes, |_, &b| {
        (b, detection_fraction(test_counts, thresholds, b, attack))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(n: usize, v: u64) -> Vec<u64> {
        vec![v; n]
    }

    #[test]
    fn detection_requires_exceeding_threshold() {
        let attack = NaiveAttack::new(vec![3, 4]);
        let counts = flat(10, 10);
        assert!(!user_detects(&counts, 20.0, 10.0, &attack), "10+10 == 20, not >");
        assert!(user_detects(&counts, 20.0, 11.0, &attack));
    }

    #[test]
    fn only_attacked_windows_matter() {
        let mut counts = flat(10, 0);
        counts[7] = 1000; // huge benign spike outside the attack
        let attack = NaiveAttack::new(vec![2]);
        assert!(!user_detects(&counts, 100.0, 50.0, &attack));
    }

    #[test]
    fn attack_past_end_of_trace_sees_zero_traffic() {
        let counts = flat(5, 50);
        let attack = NaiveAttack::new(vec![100]);
        assert!(user_detects(&counts, 10.0, 11.0, &attack), "0 + 11 > 10");
        assert!(!user_detects(&counts, 10.0, 9.0, &attack));
    }

    #[test]
    fn fraction_counts_diverse_thresholds() {
        // Three users: light (T=10), medium (T=100), heavy (T=1000), all
        // with benign traffic 5 in the attacked window.
        let counts = vec![flat(8, 5), flat(8, 5), flat(8, 5)];
        let thresholds = vec![10.0, 100.0, 1000.0];
        let attack = NaiveAttack::new(vec![1]);
        assert_eq!(detection_fraction(&counts, &thresholds, 6.0, &attack), 1.0 / 3.0);
        assert_eq!(detection_fraction(&counts, &thresholds, 96.0, &attack), 2.0 / 3.0);
        assert_eq!(detection_fraction(&counts, &thresholds, 996.0, &attack), 1.0);
    }

    #[test]
    fn curve_is_monotone_nondecreasing() {
        let counts: Vec<Vec<u64>> = (0..20).map(|i| flat(16, i * 3)).collect();
        let thresholds: Vec<f64> = (0..20).map(|i| 10.0 + f64::from(i) * 17.0).collect();
        let sizes: Vec<f64> = (0..50).map(|i| f64::from(i) * 10.0).collect();
        let attack = NaiveAttack::new(vec![0, 1, 2, 3]);
        let curve = detection_curve(&counts, &thresholds, &sizes, &attack);
        for pair in curve.windows(2) {
            assert!(pair[1].1 >= pair[0].1, "{pair:?}");
        }
        assert_eq!(curve.last().unwrap().1, 1.0);
    }

    #[test]
    fn business_hours_map_to_windows() {
        let w = business_hour_windows(Windowing::FIFTEEN_MIN, 2, 14, 4);
        // Wednesday 14:00 = (2*24 + 14) * 3600 s = 223200 s / 900 = window 248.
        assert_eq!(w, vec![248, 249, 250, 251]);
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn empty_attack_rejected() {
        let _ = NaiveAttack::new(vec![]);
    }
}
