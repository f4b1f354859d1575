//! The omniscient attacker: an upper bound on undetectable exfiltration.
//!
//! The paper's resourceful attacker profiles the host's *distribution* and
//! commits to a fixed injection. The limit of that threat model is malware
//! that watches the host's live traffic and, window by window, injects
//! exactly up to the threshold: `b_t = max(0, ⌈T⌉ − 1 − g_t)` (the alarm
//! fires strictly above `T`). No behavioural detector with that threshold
//! can ever see this attacker, so the weekly sum of those budgets is the
//! detector-family-wide *capacity bound* — and the fair way to score how
//! much a policy's thresholds concede in aggregate.

use serde::{Deserialize, Serialize};

/// Per-user omniscient capacity over a test week.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OmniscientBudget {
    /// Total units the attacker can inject over the week, undetected.
    pub weekly_total: u64,
    /// Mean injectable units per window.
    pub per_window_mean: f64,
    /// Windows with zero headroom (benign traffic already at/over T).
    pub saturated_windows: u64,
}

/// Compute the bound for one user.
pub fn omniscient_budget(test_counts: &[u64], threshold: f64) -> OmniscientBudget {
    // Largest integer count that does NOT alarm: floor(T) when T is not an
    // integral count boundary, T itself when counts may equal it (alarm is
    // strict `>`).
    let ceiling = threshold.floor().max(0.0) as u64;
    let mut total = 0u64;
    let mut saturated = 0u64;
    for &g in test_counts {
        if g >= ceiling {
            saturated += 1;
        } else {
            total += ceiling - g;
        }
    }
    OmniscientBudget {
        weekly_total: total,
        per_window_mean: total as f64 / test_counts.len().max(1) as f64,
        saturated_windows: saturated,
    }
}

/// Population bound: one budget per user, from one test column per user,
/// owned or borrowed.
pub fn omniscient_population(
    test_counts: &[impl AsRef<[u64]>],
    thresholds: &[f64],
) -> Vec<OmniscientBudget> {
    assert_eq!(test_counts.len(), thresholds.len());
    test_counts
        .iter()
        .zip(thresholds)
        .map(|(counts, &t)| omniscient_budget(counts.as_ref(), t))
        .collect()
}

/// Total weekly undetectable DDoS capacity of the whole botnet.
pub fn total_capacity(budgets: &[OmniscientBudget]) -> u64 {
    budgets.iter().map(|b| b.weekly_total).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_fills_to_just_below_threshold() {
        // g = [0, 5, 10], T = 10: ceiling 10, injectable 10+5+0.
        let b = omniscient_budget(&[0, 5, 10], 10.0);
        assert_eq!(b.weekly_total, 15);
        assert_eq!(b.saturated_windows, 1);
        assert!((b.per_window_mean - 5.0).abs() < 1e-12);
    }

    #[test]
    fn fractional_threshold_floors() {
        // T = 10.7: counts of 10 don't alarm (10 < 10.7); 11 would. The
        // attacker can fill to 10.
        let b = omniscient_budget(&[0], 10.7);
        assert_eq!(b.weekly_total, 10);
    }

    #[test]
    fn zero_threshold_zero_budget() {
        let b = omniscient_budget(&[0, 0], 0.0);
        assert_eq!(b.weekly_total, 0);
        assert_eq!(b.saturated_windows, 2);
    }

    #[test]
    fn diversity_shrinks_total_capacity() {
        // Light user (counts ~2) and heavy user (counts ~900).
        let counts = vec![vec![2u64; 100], vec![900u64; 100]];
        // Homogeneous threshold at the pooled tail: 1000.
        let homog = omniscient_population(&counts, &[1000.0, 1000.0]);
        // Diverse thresholds at each user's own tail.
        let diverse = omniscient_population(&counts, &[4.0, 1000.0]);
        let (th, td) = (total_capacity(&homog), total_capacity(&diverse));
        assert!(td < th / 5, "diversity collapses capacity: {td} vs {th}");
        // The heavy user's contribution is identical under both.
        assert_eq!(homog[1], diverse[1]);
    }

    #[test]
    fn omniscient_dominates_fixed_mimicry() {
        // The fixed mimicry budget (attacksim::resourceful) commits to one
        // b for the whole week; the omniscient bound is at least b per
        // *evadable* window, hence at least the mimicry total when the
        // mimic evades in every window.
        use tailstats::EmpiricalDist;
        let counts: Vec<u64> = (0..100).collect();
        let dist = EmpiricalDist::from_counts(&counts);
        let t = 200.0;
        let fixed = crate::resourceful::evasion_budget(&dist, t, 1.0).budget;
        let omni = omniscient_budget(&counts, t);
        assert!(
            omni.weekly_total >= fixed * counts.len() as u64,
            "{} >= {}",
            omni.weekly_total,
            fixed * counts.len() as u64
        );
    }

    #[test]
    fn empty_counts() {
        let b = omniscient_budget(&[], 100.0);
        assert_eq!(b.weekly_total, 0);
        assert_eq!(b.per_window_mean, 0.0);
    }
}
