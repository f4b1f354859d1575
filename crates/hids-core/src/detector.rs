//! The per-host detector: configured thresholds plus alert generation.

use std::borrow::Borrow;

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
///
/// Counts are integers, so each threshold is turned once, in
/// [`Detector::set_threshold`], into an integer cut: the least count that
/// fires. Every window is then one `u64` comparison; [`oracle`] keeps the
/// `f64` comparison it must agree with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Detector {
    /// The host this detector runs on.
    pub user: u32,
    thresholds: [Option<f64>; 6],
    /// Per feature, the least count `c` with `(c as f64) > t`.
    cuts: [u64; 6],
    /// Per feature, whether a threshold is set and some `u64` exceeds it.
    armed: [bool; 6],
}

/// `2^64`, the first `f64` no `u64` exceeds.
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
/// `2^53`: below it every integer is an `f64`.
const TWO_POW_53: f64 = 9_007_199_254_740_992.0;

/// The least `c: u64` with `(c as f64) > t`, or `None` when no `u64`
/// exceeds `t` (NaN, or `t ≥ 2^64`). `u64 → f64` never decreases, so the
/// counts that exceed `t` are exactly those `≥` the result.
fn integer_cut(t: f64) -> Option<u64> {
    if t.is_nan() || t >= TWO_POW_64 {
        return None;
    }
    if t < 0.0 {
        return Some(0);
    }
    if t < TWO_POW_53 {
        // `⌊t⌋ + 1 ≤ 2^53` is exact, and so is every count up to it.
        return Some(t.floor() as u64 + 1);
    }
    // Every `f64` this large is an integer, so `lo` is `t` itself and does
    // not exceed it; `hi` does (`u64::MAX as f64` is `2^64`).
    let (mut lo, mut hi) = (t as u64, u64::MAX);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if mid as f64 > t {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

impl Detector {
    /// A detector with no thresholds configured (monitors nothing).
    pub fn new(user: u32) -> Self {
        Self {
            user,
            thresholds: [None; 6],
            cuts: [0; 6],
            armed: [false; 6],
        }
    }

    /// Set one feature's threshold.
    pub fn set_threshold(&mut self, feature: FeatureKind, t: f64) -> &mut Self {
        let i = feature.index();
        let cut = integer_cut(t);
        self.thresholds[i] = Some(t);
        self.cuts[i] = cut.unwrap_or(0);
        self.armed[i] = cut.is_some();
        self
    }

    /// The configured threshold for a feature, if any.
    pub fn threshold(&self, feature: FeatureKind) -> Option<f64> {
        self.thresholds[feature.index()]
    }

    /// The feature's integer cut, the least count that fires, or `None`
    /// when no count fires (unmonitored, NaN, or at least `2^64`).
    pub(crate) fn cut(&self, feature: FeatureKind) -> Option<u64> {
        let i = feature.index();
        self.armed[i].then_some(self.cuts[i])
    }

    /// Whether `count` strictly exceeds the feature's threshold (false
    /// when the feature is unmonitored).
    pub fn fires(&self, feature: FeatureKind, count: u64) -> bool {
        let i = feature.index();
        self.armed[i] & (count >= self.cuts[i])
    }

    /// Number of monitored features whose count strictly exceeds its
    /// threshold in one window: `evaluate(..).len()` without building the
    /// alerts.
    pub fn alarm_count(&self, counts: &FeatureCounts) -> usize {
        self.cuts
            .iter()
            .zip(&self.armed)
            .zip(&counts.0)
            .map(|((&cut, &armed), &g)| usize::from(armed & (g >= cut)))
            .sum()
    }

    /// Evaluate one window, returning any alerts raised. The counts may
    /// be borrowed from a window-major series or gathered by value from a
    /// feature-major week.
    pub fn evaluate(&self, window: usize, counts: impl Borrow<FeatureCounts>) -> Vec<Alert> {
        let counts = counts.borrow();
        FeatureKind::ALL
            .into_iter()
            .filter(|&f| self.fires(f, counts.get(f)))
            .map(|feature| self.alert(window, feature, counts.get(feature)))
            .collect()
    }

    /// The alerts one feature raises over a column of per-window counts
    /// (window `w` is `column[w]`), in window order: `evaluate` on each
    /// window with only that feature counted, without visiting the windows
    /// that stay quiet.
    pub fn column_alerts<'a>(
        &'a self,
        feature: FeatureKind,
        column: &'a [u64],
    ) -> impl Iterator<Item = Alert> + 'a {
        let i = feature.index();
        let (live, cut): (&[u64], u64) = if self.armed[i] {
            (column, self.cuts[i])
        } else {
            (&[], 0)
        };
        live.iter()
            .enumerate()
            .filter(move |&(_, &g)| g >= cut)
            .map(move |(window, &g)| self.alert(window, feature, g))
    }

    /// An alert on a feature that fires (so has a threshold).
    fn alert(&self, window: usize, feature: FeatureKind, observed: u64) -> Alert {
        Alert {
            user: self.user,
            window,
            feature,
            observed,
            threshold: self.thresholds[feature.index()].unwrap_or(f64::NAN),
        }
    }
}

/// The detector as first written: each count converted to `f64` and
/// compared with the threshold. The integer cuts must agree with it on
/// every threshold and count (`crates/hids-core/tests/detector_oracle.rs`).
pub mod oracle {
    use super::{Alert, Detector};
    use flowtab::{FeatureCounts, FeatureKind};

    /// Whether `count as f64` strictly exceeds the feature's threshold.
    pub fn fires(det: &Detector, feature: FeatureKind, count: u64) -> bool {
        det.threshold(feature).is_some_and(|t| count as f64 > t)
    }

    /// [`Detector::alarm_count`] by `f64` comparison.
    pub fn alarm_count(det: &Detector, counts: &FeatureCounts) -> usize {
        FeatureKind::ALL
            .iter()
            .filter(|&&f| fires(det, f, counts.get(f)))
            .count()
    }

    /// [`Detector::evaluate`] by `f64` comparison.
    pub fn evaluate(det: &Detector, window: usize, counts: &FeatureCounts) -> Vec<Alert> {
        let mut alerts = Vec::new();
        for feature in FeatureKind::ALL {
            if let Some(t) = det.threshold(feature) {
                let observed = counts.get(feature);
                if observed as f64 > t {
                    alerts.push(Alert {
                        user: det.user,
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
        assert!(d.evaluate(0, counts(100, 0)).is_empty(), "equality passes");
        let alerts = d.evaluate(1, counts(101, 0));
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
        let alerts = d.evaluate(0, counts(0, 1_000_000));
        assert!(alerts.is_empty());
        let monitored = FeatureKind::ALL
            .iter()
            .filter(|&&f| d.threshold(f).is_some());
        assert_eq!(monitored.count(), 1);
    }

    #[test]
    fn multiple_features_fire_together() {
        let mut d = Detector::new(1);
        d.set_threshold(FeatureKind::TcpConnections, 10.0)
            .set_threshold(FeatureKind::UdpConnections, 5.0);
        let alerts = d.evaluate(3, counts(11, 6));
        assert_eq!(alerts.len(), 2);
        for (tcp, udp) in [(11, 6), (11, 5), (10, 6), (10, 5)] {
            let c = counts(tcp, udp);
            assert_eq!(d.alarm_count(&c), d.evaluate(0, c).len());
        }
    }
}
