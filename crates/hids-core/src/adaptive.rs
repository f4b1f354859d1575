//! Adaptive threshold-update strategies across weeks.
//!
//! The paper retrains thresholds weekly and observes they are "not stable
//! from week to week". This module makes the update rule a first-class
//! policy axis and provides the strategies an operator would actually
//! consider: retrain from scratch (the paper's), exponential smoothing of
//! the weekly thresholds, and a sliding multi-week training window.

use serde::{Deserialize, Serialize};
use tailstats::EmpiricalDist;

use crate::threshold::ThresholdHeuristic;

/// How the per-user threshold evolves as new weeks of data arrive.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum UpdateStrategy {
    /// Retrain on the latest week only (the paper's methodology).
    RetrainWeekly,
    /// Exponentially smooth the weekly retrained thresholds:
    /// `T ← α·T_new + (1−α)·T_old`.
    Ewma {
        /// Smoothing weight on the new week, in `(0, 1]`.
        alpha: f64,
    },
    /// Train on the last `weeks` weeks pooled (sliding window).
    SlidingWindow {
        /// Number of trailing weeks pooled.
        weeks: usize,
    },
}

/// The evolving per-user threshold under a strategy.
#[derive(Debug, Clone)]
pub struct AdaptiveThreshold {
    strategy: UpdateStrategy,
    heuristic: ThresholdHeuristic,
    history: Vec<Vec<u64>>,
    current: Option<f64>,
}

impl AdaptiveThreshold {
    /// Create an updater with no data yet.
    pub fn new(strategy: UpdateStrategy, heuristic: ThresholdHeuristic) -> Self {
        Self {
            strategy,
            heuristic,
            history: Vec::new(),
            current: None,
        }
    }

    /// Feed one completed week of per-window counts; returns the threshold
    /// to deploy for the *next* week.
    pub fn observe_week(&mut self, counts: &[u64]) -> f64 {
        self.history.push(counts.to_vec());
        let fresh = match self.strategy {
            UpdateStrategy::RetrainWeekly | UpdateStrategy::Ewma { .. } => self
                .heuristic
                .threshold(&EmpiricalDist::from_counts(counts)),
            UpdateStrategy::SlidingWindow { weeks } => {
                let start = self.history.len().saturating_sub(weeks.max(1));
                let pooled: Vec<u64> = self.history[start..]
                    .iter()
                    .flat_map(|w| w.iter().copied())
                    .collect();
                self.heuristic.threshold(&EmpiricalDist::from_counts(&pooled))
            }
        };
        let next = match (self.strategy, self.current) {
            (UpdateStrategy::Ewma { alpha }, Some(old)) => alpha * fresh + (1.0 - alpha) * old,
            _ => fresh,
        };
        self.current = Some(next);
        next
    }

    /// The currently deployed threshold, if any week has been observed.
    pub fn current(&self) -> Option<f64> {
        self.current
    }
}

/// Evaluate a strategy over a user's multi-week trace: each week's
/// threshold (trained on weeks `..=n`) is scored on week `n+1`. Returns
/// the per-week realized FP rates.
pub fn realized_fp_series(
    weeks: &[impl AsRef<[u64]>],
    strategy: UpdateStrategy,
    heuristic: ThresholdHeuristic,
) -> Vec<f64> {
    let mut updater = AdaptiveThreshold::new(strategy, heuristic);
    let mut out = Vec::new();
    for pair in weeks.windows(2) {
        let t = updater.observe_week(pair[0].as_ref());
        let test = EmpiricalDist::from_counts(pair[1].as_ref());
        out.push(test.exceedance(t));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn week(base: u64, spike: u64) -> Vec<u64> {
        let mut w: Vec<u64> = (0..672).map(|i| base + (i % 7) as u64).collect();
        w[600] = spike;
        w
    }

    #[test]
    fn retrain_tracks_latest_week_only() {
        let mut a = AdaptiveThreshold::new(UpdateStrategy::RetrainWeekly, ThresholdHeuristic::P99);
        let t1 = a.observe_week(&week(10, 100));
        let t2 = a.observe_week(&week(1000, 5000));
        assert!(t2 > t1 * 10.0, "{t1} -> {t2}");
        assert_eq!(a.current(), Some(t2));
    }

    #[test]
    fn ewma_damps_jumps() {
        let quiet = week(10, 100);
        let busy = week(1000, 5000);
        let mut retrain =
            AdaptiveThreshold::new(UpdateStrategy::RetrainWeekly, ThresholdHeuristic::P99);
        let mut smoothed = AdaptiveThreshold::new(
            UpdateStrategy::Ewma { alpha: 0.3 },
            ThresholdHeuristic::P99,
        );
        retrain.observe_week(&quiet);
        smoothed.observe_week(&quiet);
        let jump_raw = retrain.observe_week(&busy);
        let jump_smooth = smoothed.observe_week(&busy);
        assert!(jump_smooth < jump_raw, "{jump_smooth} < {jump_raw}");
        // But it still moves towards the new level.
        assert!(jump_smooth > retrain.current().unwrap() * 0.05);
    }

    #[test]
    fn sliding_window_pools_history() {
        let mut sliding = AdaptiveThreshold::new(
            UpdateStrategy::SlidingWindow { weeks: 2 },
            ThresholdHeuristic::P99,
        );
        let t1 = sliding.observe_week(&week(10, 100));
        let t2 = sliding.observe_week(&week(1000, 5000));
        // Pooled threshold sits between the two weeks' own thresholds.
        let own_quiet = ThresholdHeuristic::P99.threshold(&EmpiricalDist::from_counts(&week(10, 100)));
        let own_busy = ThresholdHeuristic::P99.threshold(&EmpiricalDist::from_counts(&week(1000, 5000)));
        assert!(t1 <= own_quiet + 1e-9);
        assert!(t2 > own_quiet && t2 <= own_busy + 1e-9, "{own_quiet} < {t2} <= {own_busy}");
        // Window slides: after two more quiet weeks the busy week has
        // aged out entirely and the threshold returns to the quiet level.
        let _t3 = sliding.observe_week(&week(10, 100));
        let t4 = sliding.observe_week(&week(10, 100));
        assert!(t4 <= own_quiet + 1e-9, "{t4} back to quiet {own_quiet}");
    }

    #[test]
    fn realized_fp_series_lengths() {
        let weeks: Vec<Vec<u64>> = (0..4).map(|i| week(10 + i, 100)).collect();
        let fp = realized_fp_series(&weeks, UpdateStrategy::RetrainWeekly, ThresholdHeuristic::P99);
        assert_eq!(fp.len(), 3);
        assert!(fp.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn stationary_data_all_strategies_near_nominal() {
        // Identical weeks except the spike location/height (which only
        // moves mass above the threshold by one window).
        let weeks: Vec<Vec<u64>> = (0..5).map(|i| week(50, 300 + i)).collect();
        for strategy in [
            UpdateStrategy::RetrainWeekly,
            UpdateStrategy::Ewma { alpha: 0.5 },
            UpdateStrategy::SlidingWindow { weeks: 3 },
        ] {
            let fp = realized_fp_series(&weeks, strategy, ThresholdHeuristic::P99);
            let mean = fp.iter().sum::<f64>() / fp.len() as f64;
            assert!(mean <= 0.02, "{strategy:?}: {mean}");
        }
    }
}
