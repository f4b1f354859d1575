//! Real-malware replay: overlay a captured zombie trace on user traffic.
//!
//! The paper's Section 6.2 closing experiment: a week-long Storm zombie
//! trace is overlaid on *every* user's test trace; per user we measure the
//! false-positive rate on clean windows and the detection rate over
//! zombie-active windows, producing the ⟨FP, 1−FN⟩ scatter of Figure 5.

use serde::{Deserialize, Serialize};

/// One user's performance against a replayed attack trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplayPerf {
    /// False-positive rate: fraction of windows whose *benign* traffic
    /// alone exceeded the threshold.
    pub fp: f64,
    /// Detection rate (1 − FN): fraction of zombie-active windows where
    /// the overlaid traffic exceeded the threshold.
    pub detection: f64,
    /// Number of zombie-active windows evaluated.
    pub attack_windows: usize,
}

/// Evaluate one user against a zombie overlay.
///
/// `benign` and `zombie` are per-window counts for the same feature; the
/// zombie trace is cycled if shorter than the user trace (the paper's
/// one-week zombie capture against multi-week user traces).
pub fn replay_attack(benign: &[u64], zombie: &[u64], threshold: f64) -> ReplayPerf {
    assert!(!zombie.is_empty(), "zombie trace must be non-empty");
    let mut fp = 0usize;
    let mut attacked = 0usize;
    let mut detected = 0usize;
    for (w, &g) in benign.iter().enumerate() {
        let b = zombie[w % zombie.len()];
        if g as f64 > threshold {
            fp += 1;
        }
        if b > 0 {
            attacked += 1;
            if (g + b) as f64 > threshold {
                detected += 1;
            }
        }
    }
    ReplayPerf {
        fp: fp as f64 / benign.len().max(1) as f64,
        detection: if attacked == 0 {
            0.0
        } else {
            detected as f64 / attacked as f64
        },
        attack_windows: attacked,
    }
}

/// Replay the zombie over a whole population: one benign column per user,
/// owned or borrowed.
pub fn replay_population(
    benign: &[impl AsRef<[u64]> + Sync],
    zombie: &[u64],
    thresholds: &[f64],
) -> Vec<ReplayPerf> {
    assert_eq!(benign.len(), thresholds.len());
    hids_core::par_map_range(benign.len(), |i| {
        replay_attack(benign[i].as_ref(), zombie, thresholds[i])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp_and_detection_disentangled() {
        // Benign: mostly 5, one spike of 100. Zombie: 50 in half the
        // windows. Threshold 60.
        let benign = vec![5, 5, 100, 5, 5, 5, 5, 5];
        let zombie = vec![50, 0, 50, 0, 50, 0, 50, 0];
        let perf = replay_attack(&benign, &zombie, 60.0);
        // FP: only the benign 100 window => 1/8.
        assert!((perf.fp - 0.125).abs() < 1e-12);
        // Attacked windows: 0,2,4,6. Overlaid: 55,150,55,55 => only w2 > 60.
        assert_eq!(perf.attack_windows, 4);
        assert!((perf.detection - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zombie_shorter_than_trace_cycles() {
        let benign = vec![0u64; 6];
        let zombie = vec![10, 0];
        let perf = replay_attack(&benign, &zombie, 5.0);
        assert_eq!(perf.attack_windows, 3);
        assert_eq!(perf.detection, 1.0);
        assert_eq!(perf.fp, 0.0);
    }

    #[test]
    fn low_threshold_user_detects_stealth_better() {
        let benign = vec![2u64; 100];
        let zombie = vec![30u64; 100];
        let light = replay_attack(&benign, &zombie, 10.0);
        let heavy_threshold = replay_attack(&benign, &zombie, 1000.0);
        assert_eq!(light.detection, 1.0);
        assert_eq!(heavy_threshold.detection, 0.0);
    }

    #[test]
    fn population_replay_shapes() {
        let benign = vec![vec![1u64; 10], vec![100u64; 10]];
        let zombie = vec![50u64; 10];
        let perfs = replay_population(&benign, &zombie, &[10.0, 1000.0]);
        assert_eq!(perfs.len(), 2);
        assert_eq!(perfs[0].detection, 1.0);
        assert_eq!(perfs[1].detection, 0.0);
    }

    #[test]
    fn all_zero_zombie_windows_mean_no_attack() {
        let perf = replay_attack(&[5, 5], &[0, 0], 10.0);
        assert_eq!(perf.attack_windows, 0);
        assert_eq!(perf.detection, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_zombie_rejected() {
        let _ = replay_attack(&[1], &[], 1.0);
    }
}
