//! Concurrent multi-feature monitoring.
//!
//! The paper's problem statement has each HIDS monitoring *several*
//! features at once, each against its own threshold (and anticipates
//! hardware like Intel AMT tracking "large numbers of features
//! simultaneously"). The per-feature analyses elsewhere in this workspace
//! isolate one feature; this module composes them: a host's detector holds
//! one threshold per monitored feature, a window alarms when **any**
//! feature exceeds, and the false-positive cost of monitoring more
//! features is the union rate — the operational trade-off an IT department
//! actually faces when turning features on.

use std::borrow::Borrow;

use flowtab::{FeatureCounts, FeatureKind, FeatureSeries};
use serde::{Deserialize, Serialize};
use tailstats::EmpiricalDist;

use crate::{Detector, Policy};

/// Per-feature policies for the whole detector (commonly the same policy
/// replicated across features, but the API allows mixing — e.g. a stricter
/// percentile on scan-prone features).
#[derive(Debug, Clone)]
pub struct MultiPolicy {
    /// `(feature, policy)` pairs; features not listed are unmonitored.
    pub per_feature: Vec<(FeatureKind, Policy)>,
}

impl MultiPolicy {
    /// The same policy on every one of the six features.
    pub fn uniform(policy: Policy) -> Self {
        Self {
            per_feature: FeatureKind::ALL
                .iter()
                .map(|&f| (f, policy.clone()))
                .collect(),
        }
    }

    /// The same policy on a chosen subset of features.
    pub fn on(features: &[FeatureKind], policy: Policy) -> Self {
        Self {
            per_feature: features.iter().map(|&f| (f, policy.clone())).collect(),
        }
    }

    /// Number of monitored features.
    pub fn n_features(&self) -> usize {
        self.per_feature.len()
    }
}

/// One user's multi-feature performance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiUserPerf {
    /// Fraction of test windows where **any** monitored feature exceeded
    /// its threshold (the union false-positive rate on benign traffic).
    pub fp_any: f64,
    /// Fraction of test windows where **at least two** features exceeded
    /// (multi-feature corroboration — a natural alert-triage filter).
    pub fp_corroborated: f64,
    /// Test windows that alarmed at all.
    pub alarm_windows: u64,
}

/// Result of configuring and evaluating a multi-feature policy.
#[derive(Debug, Clone)]
pub struct MultiEvaluation {
    /// One detector per user, fully configured.
    pub detectors: Vec<Detector>,
    /// Per-user union FP statistics.
    pub users: Vec<MultiUserPerf>,
    /// Features monitored, in evaluation order.
    pub features: Vec<FeatureKind>,
}

impl MultiEvaluation {
    /// Score configured detectors — one per user, each monitoring
    /// `features` — on their test week: the union and corroborated
    /// false-positive rates.
    ///
    /// # Panics
    /// Panics when `detectors` and `test` differ in length.
    pub fn score(
        detectors: Vec<Detector>,
        features: Vec<FeatureKind>,
        test: &[impl Borrow<FeatureSeries>],
    ) -> Self {
        assert_eq!(detectors.len(), test.len(), "one test series per detector");
        let users = detectors
            .iter()
            .zip(test)
            .map(|(det, series)| {
                let series = series.borrow();
                let mut any = 0u64;
                let mut corroborated = 0u64;
                for counts in &series.windows {
                    let alarms = det.alarm_count(counts);
                    any += u64::from(alarms >= 1);
                    corroborated += u64::from(alarms >= 2);
                }
                let n = series.len().max(1) as f64;
                MultiUserPerf {
                    fp_any: any as f64 / n,
                    fp_corroborated: corroborated as f64 / n,
                    alarm_windows: any,
                }
            })
            .collect();
        Self {
            detectors,
            users,
            features,
        }
    }

    /// Population-mean union FP rate.
    pub fn mean_fp_any(&self) -> f64 {
        self.users.iter().map(|u| u.fp_any).sum::<f64>() / self.users.len().max(1) as f64
    }

    /// Population-mean corroborated (≥2 features) FP rate.
    pub fn mean_fp_corroborated(&self) -> f64 {
        self.users.iter().map(|u| u.fp_corroborated).sum::<f64>()
            / self.users.len().max(1) as f64
    }
}

/// Configure per-user detectors for every monitored feature and evaluate
/// the union false-positive rate on the test week.
///
/// `train`/`test` are the per-user full feature series (all six features),
/// owned or borrowed; each feature's thresholds are computed by its own
/// policy over the per-user training distributions of that feature.
///
/// # Panics
/// Panics when `train` and `test` differ in length or are empty.
pub fn evaluate_multi(
    train: &[impl Borrow<FeatureSeries>],
    test: &[impl Borrow<FeatureSeries>],
    policy: &MultiPolicy,
) -> MultiEvaluation {
    assert_eq!(train.len(), test.len(), "one train and one test per user");
    assert!(!train.is_empty(), "need at least one user");

    let mut detectors: Vec<Detector> = (0..train.len()).map(|u| Detector::new(u as u32)).collect();
    let mut features = Vec::with_capacity(policy.per_feature.len());
    for (feature, feature_policy) in &policy.per_feature {
        features.push(*feature);
        let dists: Vec<EmpiricalDist> = train
            .iter()
            .map(|s| EmpiricalDist::from_counts(&s.borrow().feature(*feature)))
            .collect();
        let outcome = feature_policy.configure(&dists);
        for (det, &t) in detectors.iter_mut().zip(&outcome.thresholds) {
            det.set_threshold(*feature, t);
        }
    }
    MultiEvaluation::score(detectors, features, test)
}

/// Detection rate of an additive attack when the whole detector (all
/// monitored features) is running: per user, the fraction of attacked
/// windows in which any feature alarms on benign plus attack traffic.
/// With single-feature attacks this equals the target feature's detection,
/// but correlated features (SYN rises with TCP, distinct with both)
/// corroborate.
///
/// Window alignment: window `w` of a user's test series receives `overlay`
/// window `w mod overlay.len()` — the overlay is cycled when shorter than
/// the series, as `attacksim::replay_attack` cycles its zombie trace — and
/// is attacked when that overlay window is nonzero. Only the test series'
/// own windows are scored. An empty overlay attacks no window, so every
/// user scores 0.
pub fn multi_detection(
    detectors: &[Detector],
    test: &[impl Borrow<FeatureSeries>],
    overlay: &FeatureSeries,
) -> Vec<f64> {
    // 1 where the overlay window carries attack traffic, else 0.
    let attacked: Vec<u64> = overlay
        .windows
        .iter()
        .map(|z| u64::from(*z != FeatureCounts::default()))
        .collect();
    // An empty overlay zips with nothing; `max(1)` only keeps `chunks` legal.
    let period = overlay.len().max(1);
    detectors
        .iter()
        .zip(test)
        .map(|(det, series)| {
            let mut windows = 0u64;
            let mut detected = 0u64;
            // Each chunk lines up with the overlay from its window 0.
            for chunk in series.borrow().windows.chunks(period) {
                for ((counts, zombie), &hit) in chunk.iter().zip(&overlay.windows).zip(&attacked) {
                    let alarmed = det.alarm_count(&counts.saturating_add(zombie)) > 0;
                    windows += hit;
                    detected += hit & u64::from(alarmed);
                }
            }
            if windows == 0 {
                0.0
            } else {
                detected as f64 / windows as f64
            }
        })
        .collect()
}

/// [`multi_detection`] as first written: the overlay cycled alongside each
/// series, the attacked test made per window, and each window scored by
/// [`detector::oracle`](crate::detector::oracle). The chunked walk must agree
/// with it bit for bit (`crates/hids-core/tests/detector_oracle.rs`).
pub mod oracle {
    use std::borrow::Borrow;

    use flowtab::{FeatureCounts, FeatureSeries};

    use crate::{detector, Detector};

    /// Per-user detection rate of `overlay`, by cycling it, with `f64`
    /// compares.
    pub fn multi_detection(
        detectors: &[Detector],
        test: &[impl Borrow<FeatureSeries>],
        overlay: &FeatureSeries,
    ) -> Vec<f64> {
        detectors
            .iter()
            .zip(test)
            .map(|(det, series)| {
                let mut windows = 0u64;
                let mut detected = 0u64;
                for (counts, zombie) in series
                    .borrow()
                    .windows
                    .iter()
                    .zip(overlay.windows.iter().cycle())
                {
                    if *zombie == FeatureCounts::default() {
                        continue;
                    }
                    windows += 1;
                    if detector::oracle::alarm_count(det, &counts.saturating_add(zombie)) > 0 {
                        detected += 1;
                    }
                }
                if windows == 0 {
                    0.0
                } else {
                    detected as f64 / windows as f64
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Grouping, ThresholdHeuristic};
    use flowtab::Windowing;

    fn series(tcp: &[u64], udp: &[u64]) -> FeatureSeries {
        let mut s = FeatureSeries::zeros(Windowing::FIFTEEN_MIN, tcp.len());
        for (w, (&t, &u)) in tcp.iter().zip(udp).enumerate() {
            *s.windows[w].get_mut(FeatureKind::TcpConnections) = t;
            *s.windows[w].get_mut(FeatureKind::UdpConnections) = u;
        }
        s
    }

    fn p99_full() -> Policy {
        Policy {
            grouping: Grouping::FullDiversity,
            heuristic: ThresholdHeuristic::P99,
        }
    }

    #[test]
    fn union_fp_at_least_single_feature_fp() {
        // 200 windows; user exceeds TCP in 2 of them and UDP in 2 others.
        let mut tcp = vec![10u64; 200];
        let mut udp = vec![5u64; 200];
        tcp[50] = 1000;
        tcp[51] = 1000;
        udp[100] = 800;
        udp[101] = 800;
        let train = vec![series(&tcp, &udp)];
        // Test week has the same spikes at different places.
        let mut tcp2 = vec![10u64; 200];
        let mut udp2 = vec![5u64; 200];
        tcp2[10] = 1000;
        udp2[20] = 800;
        let test = vec![series(&tcp2, &udp2)];

        let single = evaluate_multi(
            &train,
            &test,
            &MultiPolicy::on(&[FeatureKind::TcpConnections], p99_full()),
        );
        let both = evaluate_multi(
            &train,
            &test,
            &MultiPolicy::on(
                &[FeatureKind::TcpConnections, FeatureKind::UdpConnections],
                p99_full(),
            ),
        );
        assert!(both.mean_fp_any() >= single.mean_fp_any());
        assert_eq!(both.users[0].alarm_windows, 2, "tcp spike + udp spike");
        assert_eq!(single.users[0].alarm_windows, 1);
    }

    #[test]
    fn corroboration_requires_two_features() {
        let mut tcp = vec![10u64; 100];
        let mut udp = vec![5u64; 100];
        // Joint spike in one window, single-feature spike in another.
        tcp[10] = 1000;
        udp[10] = 900;
        tcp[20] = 1000;
        let train = vec![series(&vec![10; 100], &vec![5; 100])];
        let test = vec![series(&tcp, &udp)];
        let eval = evaluate_multi(
            &train,
            &test,
            &MultiPolicy::on(
                &[FeatureKind::TcpConnections, FeatureKind::UdpConnections],
                p99_full(),
            ),
        );
        let u = eval.users[0];
        assert_eq!(u.alarm_windows, 2);
        assert!((u.fp_corroborated - 0.01).abs() < 1e-9, "one joint window");
    }

    #[test]
    fn uniform_policy_monitors_all_six() {
        let train = vec![series(&[1, 2, 3, 4], &[1, 1, 2, 2])];
        let test = train.clone();
        let eval = evaluate_multi(&train, &test, &MultiPolicy::uniform(p99_full()));
        assert_eq!(eval.features.len(), 6);
        assert_eq!(eval.detectors[0].monitored_features(), 6);
    }

    #[test]
    fn multi_detection_counts_overlay_windows() {
        let train = vec![series(&[10; 50], &[5; 50])];
        let test = train.clone();
        let eval = evaluate_multi(
            &train,
            &test,
            &MultiPolicy::on(&[FeatureKind::TcpConnections], p99_full()),
        );
        // Overlay: attack in half the windows, large enough to cross.
        let mut overlay = FeatureSeries::zeros(Windowing::FIFTEEN_MIN, 50);
        for w in (0..50).step_by(2) {
            *overlay.windows[w].get_mut(FeatureKind::TcpConnections) = 500;
        }
        assert_eq!(multi_detection(&eval.detectors, &test, &overlay), vec![1.0]);
        // A zero overlay has no attacked windows.
        let silent = FeatureSeries::zeros(Windowing::FIFTEEN_MIN, 50);
        assert_eq!(multi_detection(&eval.detectors, &test, &silent), vec![0.0]);
    }

    #[test]
    fn multi_detection_empty_overlay_attacks_nothing() {
        let test = vec![series(&[10; 8], &[5; 8])];
        let eval = evaluate_multi(&test, &test, &MultiPolicy::uniform(p99_full()));
        let empty = FeatureSeries::zeros(Windowing::FIFTEEN_MIN, 0);
        assert_eq!(multi_detection(&eval.detectors, &test, &empty), vec![0.0]);
    }

    #[test]
    fn multi_detection_cycles_a_short_overlay() {
        // Six benign windows, a two-window overlay that attacks every
        // even window: windows 0, 2 and 4 all carry the attack, and all
        // three cross the threshold.
        let test = vec![series(&[10; 6], &[5; 6])];
        let eval = evaluate_multi(
            &test,
            &test,
            &MultiPolicy::on(&[FeatureKind::TcpConnections], p99_full()),
        );
        let mut overlay = FeatureSeries::zeros(Windowing::FIFTEEN_MIN, 2);
        *overlay.windows[0].get_mut(FeatureKind::TcpConnections) = 500;
        assert_eq!(multi_detection(&eval.detectors, &test, &overlay), vec![1.0]);
        // The cycled overlay scores like the full-length one it repeats.
        let mut full = FeatureSeries::zeros(Windowing::FIFTEEN_MIN, 6);
        for w in (0..6).step_by(2) {
            *full.windows[w].get_mut(FeatureKind::TcpConnections) = 500;
        }
        assert_eq!(
            multi_detection(&eval.detectors, &test, &full),
            multi_detection(&eval.detectors, &test, &overlay)
        );
    }

    #[test]
    fn score_matches_alert_counting() {
        let train = vec![series(&[10; 20], &[5; 20])];
        let mut tcp = vec![10u64; 20];
        let mut udp = vec![5u64; 20];
        tcp[3] = 99;
        udp[3] = 99;
        udp[7] = 99;
        let test = vec![series(&tcp, &udp)];
        let eval = evaluate_multi(&train, &test, &MultiPolicy::uniform(p99_full()));
        let by_alerts = |min: usize| {
            test[0]
                .windows
                .iter()
                .enumerate()
                .filter(|(w, c)| eval.detectors[0].evaluate(*w, c).len() >= min)
                .count() as u64
        };
        assert_eq!(eval.users[0].alarm_windows, by_alerts(1));
        assert_eq!(eval.users[0].fp_corroborated, by_alerts(2) as f64 / 20.0);
    }
}
