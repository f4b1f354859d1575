//! The per-host detector: configured thresholds plus alert generation.

use flowtab::{FeatureCounts, FeatureKind};
use serde::{Deserialize, Serialize};

/// An alert raised by a host's anomaly detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// The host that raised the alert.
    pub user: u32,
    /// Window index within the trace.
    pub window: usize,
    /// Feature that exceeded its threshold.
    pub feature: FeatureKind,
    /// Observed count.
    pub observed: u64,
    /// Configured threshold.
    pub threshold: f64,
}

impl Alert {
    /// How far above the threshold the observation sat (≥ 0).
    pub fn excess(&self) -> f64 {
        (self.observed as f64 - self.threshold).max(0.0)
    }
}

/// A host's behavioural anomaly detector: one optional threshold per
/// feature; an alert fires when a window's count strictly exceeds the
/// feature's threshold (`g + b > T` in the paper's notation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Detector {
    /// The host this detector runs on.
    pub user: u32,
    thresholds: [Option<f64>; 6],
}

impl Detector {
    /// A detector with no thresholds configured (monitors nothing).
    pub fn new(user: u32) -> Self {
        Self {
            user,
            thresholds: [None; 6],
        }
    }

    /// Set one feature's threshold.
    pub fn set_threshold(&mut self, feature: FeatureKind, t: f64) -> &mut Self {
        self.thresholds[feature.index()] = Some(t);
        self
    }

    /// Remove one feature's threshold.
    pub fn clear_threshold(&mut self, feature: FeatureKind) -> &mut Self {
        self.thresholds[feature.index()] = None;
        self
    }

    /// The configured threshold for a feature, if any.
    pub fn threshold(&self, feature: FeatureKind) -> Option<f64> {
        self.thresholds[feature.index()]
    }

    /// Number of features being monitored.
    pub fn monitored_features(&self) -> usize {
        self.thresholds.iter().filter(|t| t.is_some()).count()
    }

    /// Number of monitored features whose count strictly exceeds its
    /// threshold in one window: `evaluate(..).len()` without building the
    /// alerts.
    pub fn alarm_count(&self, counts: &FeatureCounts) -> usize {
        FeatureKind::ALL
            .iter()
            .filter(|&&f| self.thresholds[f.index()].is_some_and(|t| counts.get(f) as f64 > t))
            .count()
    }

    /// Evaluate one window, returning any alerts raised.
    pub fn evaluate(&self, window: usize, counts: &FeatureCounts) -> Vec<Alert> {
        let mut alerts = Vec::new();
        for feature in FeatureKind::ALL {
            if let Some(t) = self.thresholds[feature.index()] {
                let observed = counts.get(feature);
                if observed as f64 > t {
                    alerts.push(Alert {
                        user: self.user,
                        window,
                        feature,
                        observed,
                        threshold: t,
                    });
                }
            }
        }
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(tcp: u64, udp: u64) -> FeatureCounts {
        let mut c = FeatureCounts::default();
        *c.get_mut(FeatureKind::TcpConnections) = tcp;
        *c.get_mut(FeatureKind::UdpConnections) = udp;
        c
    }

    #[test]
    fn fires_only_above_threshold() {
        let mut d = Detector::new(7);
        d.set_threshold(FeatureKind::TcpConnections, 100.0);
        assert!(d.evaluate(0, &counts(100, 0)).is_empty(), "equality passes");
        let alerts = d.evaluate(1, &counts(101, 0));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].user, 7);
        assert_eq!(alerts[0].window, 1);
        assert_eq!(alerts[0].feature, FeatureKind::TcpConnections);
        assert_eq!(alerts[0].excess(), 1.0);
    }

    #[test]
    fn unmonitored_features_never_fire() {
        let mut d = Detector::new(1);
        d.set_threshold(FeatureKind::TcpConnections, 10.0);
        let alerts = d.evaluate(0, &counts(0, 1_000_000));
        assert!(alerts.is_empty());
        assert_eq!(d.monitored_features(), 1);
    }

    #[test]
    fn multiple_features_fire_together() {
        let mut d = Detector::new(1);
        d.set_threshold(FeatureKind::TcpConnections, 10.0)
            .set_threshold(FeatureKind::UdpConnections, 5.0);
        let alerts = d.evaluate(3, &counts(11, 6));
        assert_eq!(alerts.len(), 2);
        for (tcp, udp) in [(11, 6), (11, 5), (10, 6), (10, 5)] {
            let c = counts(tcp, udp);
            assert_eq!(d.alarm_count(&c), d.evaluate(0, &c).len());
        }
    }

    #[test]
    fn clear_threshold_stops_alerts() {
        let mut d = Detector::new(1);
        d.set_threshold(FeatureKind::UdpConnections, 1.0);
        assert_eq!(d.evaluate(0, &counts(0, 5)).len(), 1);
        d.clear_threshold(FeatureKind::UdpConnections);
        assert!(d.evaluate(0, &counts(0, 5)).is_empty());
        assert_eq!(d.threshold(FeatureKind::UdpConnections), None);
    }
}
