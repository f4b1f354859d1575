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

use flowtab::{CountColumns, FeatureColumns, FeatureCounts, FeatureKind};
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

impl MultiUserPerf {
    /// Mean of `stat` over `users`, summed in user order.
    pub fn mean(users: &[MultiUserPerf], stat: impl Fn(&MultiUserPerf) -> f64) -> f64 {
        users.iter().map(stat).sum::<f64>() / users.len().max(1) as f64
    }
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
    /// false-positive rates, from each user's [`FireMasks`].
    ///
    /// # Panics
    /// Panics when `detectors` and `test` differ in length.
    pub fn score(
        detectors: Vec<Detector>,
        features: Vec<FeatureKind>,
        test: &[impl CountColumns],
    ) -> Self {
        assert_eq!(detectors.len(), test.len(), "one test series per detector");
        let users = detectors
            .iter()
            .zip(test)
            .map(|(det, week)| FireMasks::new(det, week).perf(&FeatureKind::ALL))
            .collect();
        Self {
            detectors,
            users,
            features,
        }
    }

    /// Population-mean union FP rate.
    pub fn mean_fp_any(&self) -> f64 {
        MultiUserPerf::mean(&self.users, |u| u.fp_any)
    }

    /// Population-mean corroborated (≥2 features) FP rate.
    pub fn mean_fp_corroborated(&self) -> f64 {
        MultiUserPerf::mean(&self.users, |u| u.fp_corroborated)
    }
}

/// Configure per-user detectors for every monitored feature and evaluate
/// the union false-positive rate on the test week.
///
/// `train`/`test` are the per-user counts of all six features, in either
/// layout, owned or borrowed; each feature's thresholds are computed by
/// its own policy over the per-user training distributions of that
/// feature.
///
/// # Panics
/// Panics when `train` and `test` differ in length or are empty.
pub fn evaluate_multi(
    train: &[impl CountColumns],
    test: &[impl CountColumns],
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
            .map(|s| EmpiricalDist::from_counts(&s.counts(*feature)))
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
    test: &[impl CountColumns],
    overlay: &impl CountColumns,
) -> Vec<f64> {
    let overlay = Overlay::new(overlay);
    // `(n, mask)`: the attacked windows of the last week length seen.
    let mut attacked = (0, Vec::new());
    detectors
        .iter()
        .zip(test)
        .map(|(det, week)| {
            let n = week.n_windows();
            if attacked.0 != n {
                attacked = (n, overlay.attacked_windows(n));
            }
            FireMasks::new(det, &overlay.apply(week)).detection(&FeatureKind::ALL, &attacked.1)
        })
        .collect()
}

/// An attack overlay read once: its counts feature-major, and which of
/// its windows carry attack traffic.
#[derive(Debug, Clone)]
pub struct Overlay {
    counts: FeatureColumns,
    /// Per overlay window, whether any feature's count is nonzero.
    active: Vec<bool>,
}

impl Overlay {
    /// Read `overlay`'s counts.
    pub fn new(overlay: &impl CountColumns) -> Self {
        let counts = FeatureColumns::from(overlay);
        let active = counts
            .iter()
            .map(|c| c != FeatureCounts::default())
            .collect();
        Self { counts, active }
    }

    /// The mask of the windows `0..n` that receive attack traffic: bit `w`
    /// when overlay window `w mod len` is nonzero. Empty overlays attack
    /// nothing.
    pub fn attacked_windows(&self, n: usize) -> Vec<u64> {
        let mut mask = vec![0u64; n.div_ceil(64)];
        for (w, &on) in (0..n).zip(self.active.iter().cycle()) {
            mask[w / 64] |= u64::from(on) << (w % 64);
        }
        mask
    }

    /// `week`'s counts with the overlay added: window `w` adds overlay
    /// window `w mod len`, saturating. An empty overlay adds nothing.
    pub fn apply(&self, week: &impl CountColumns) -> FeatureColumns {
        let period = self.counts.len();
        let mut sums = Vec::with_capacity(FeatureKind::ALL.len() * week.n_windows());
        for f in FeatureKind::ALL {
            let counts = week.counts(f);
            if period == 0 {
                sums.extend_from_slice(&counts);
                continue;
            }
            let zombie = self.counts.column(f);
            // Each chunk lines up with the overlay from its window 0.
            for chunk in counts.chunks(period) {
                sums.extend(chunk.iter().zip(zombie).map(|(&g, &z)| g.saturating_add(z)));
            }
        }
        FeatureColumns::from_feature_major(sums)
    }
}

/// One user's fire masks over a test week: for each feature, bit `w % 64`
/// of word `w / 64` is set when the detector fires on window `w`
/// ([`Detector::fires`]). An unmonitored feature's mask is zero.
///
/// The masks are built once per configured detector; any feature subset
/// is then scored by OR-ing and counting words: the union is the OR of
/// its masks, corroboration (two or more) is carried as
/// `two |= one & m; one |= m`, and detection counts `attacked & hit`.
#[derive(Debug, Clone)]
pub struct FireMasks {
    n_windows: usize,
    /// Feature `f`'s mask is `bits[f.index() * words..][..words]`.
    bits: Vec<u64>,
}

impl FireMasks {
    /// The masks of `det` on `week`'s counts (on attacked traffic when
    /// `week` is an [`Overlay::apply`] sum).
    pub fn new(det: &Detector, week: &impl CountColumns) -> Self {
        let mut masks = Self::zeros(week.n_windows());
        for f in FeatureKind::ALL {
            if let Some(cut) = det.cut(f) {
                fire_mask(&week.counts(f), cut, masks.mask_mut(f));
            }
        }
        masks
    }

    fn zeros(n_windows: usize) -> Self {
        Self {
            n_windows,
            bits: vec![0; FeatureKind::ALL.len() * n_windows.div_ceil(64)],
        }
    }

    fn words(&self) -> usize {
        self.n_windows.div_ceil(64)
    }

    fn mask_mut(&mut self, f: FeatureKind) -> &mut [u64] {
        let words = self.words();
        &mut self.bits[f.index() * words..][..words]
    }

    /// Word `k` of each of `features`' masks.
    fn word<'a>(&'a self, features: &'a [FeatureKind], k: usize) -> impl Iterator<Item = u64> + 'a {
        let words = self.words();
        features
            .iter()
            .map(move |f| self.bits[f.index() * words + k])
    }

    /// The union and corroborated false-positive rates when only
    /// `features` are monitored.
    pub fn perf(&self, features: &[FeatureKind]) -> MultiUserPerf {
        let (mut any, mut corroborated) = (0u64, 0u64);
        for k in 0..self.words() {
            let (mut one, mut two) = (0u64, 0u64);
            for m in self.word(features, k) {
                two |= one & m;
                one |= m;
            }
            any += u64::from(one.count_ones());
            corroborated += u64::from(two.count_ones());
        }
        let n = self.n_windows.max(1) as f64;
        MultiUserPerf {
            fp_any: any as f64 / n,
            fp_corroborated: corroborated as f64 / n,
            alarm_windows: any,
        }
    }

    /// The fraction of `attacked` windows (from
    /// [`Overlay::attacked_windows`] for this week's length) in which any
    /// of `features` fires; 0 when none is attacked.
    ///
    /// # Panics
    /// Panics when `attacked` covers another number of windows.
    pub fn detection(&self, features: &[FeatureKind], attacked: &[u64]) -> f64 {
        assert_eq!(
            attacked.len(),
            self.words(),
            "one attacked mask word per mask word"
        );
        let mut windows = 0u64;
        let mut detected = 0u64;
        for (k, &a) in attacked.iter().enumerate() {
            let hit = self.word(features, k).fold(0, |hit, m| hit | m);
            windows += u64::from(a.count_ones());
            detected += u64::from((a & hit).count_ones());
        }
        if windows == 0 {
            0.0
        } else {
            detected as f64 / windows as f64
        }
    }
}

/// Set bit `w` of `out` when `counts[w] >= cut`. Each word compares a full
/// 64 lanes, eight to a byte, the last chunk zero-padded, so that the
/// compare loops have fixed lengths and unroll; the padding would fire at
/// `cut == 0`, so the last word keeps only its live windows.
fn fire_mask(counts: &[u64], cut: u64, out: &mut [u64]) {
    let at_least = |lanes: &[u64; 64]| {
        let mut word = 0u64;
        for (k, eight) in lanes.chunks_exact(8).enumerate() {
            let byte = eight
                .iter()
                .enumerate()
                .fold(0u64, |byte, (j, &c)| byte | (u64::from(c >= cut) << j));
            word |= byte << (8 * k);
        }
        word
    };
    for (word, chunk) in out.iter_mut().zip(counts.chunks(64)) {
        *word = match <&[u64; 64]>::try_from(chunk) {
            Ok(lanes) => at_least(lanes),
            Err(_) => {
                let mut lanes = [0u64; 64];
                lanes[..chunk.len()].copy_from_slice(chunk);
                at_least(&lanes) & (u64::MAX >> (64 - chunk.len()))
            }
        };
    }
}

/// [`MultiEvaluation::score`] and [`multi_detection`] as first written:
/// every window of every series visited, the overlay cycled alongside
/// each series, and each window scored by
/// [`detector::oracle`](crate::detector::oracle). The mask kernel must
/// agree with them bit for bit
/// (`crates/hids-core/tests/detector_oracle.rs`).
pub mod oracle {
    use std::borrow::Borrow;

    use flowtab::{FeatureCounts, FeatureKind, FeatureSeries};

    use super::{MultiEvaluation, MultiUserPerf};
    use crate::{detector, Detector};

    /// The union and corroborated false-positive rates, window by window.
    pub fn score(
        detectors: Vec<Detector>,
        features: Vec<FeatureKind>,
        test: &[impl Borrow<FeatureSeries>],
    ) -> MultiEvaluation {
        let users = detectors
            .iter()
            .zip(test)
            .map(|(det, series)| {
                let series = series.borrow();
                let mut any = 0u64;
                let mut corroborated = 0u64;
                for counts in &series.windows {
                    let alarms = detector::oracle::alarm_count(det, counts);
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
        MultiEvaluation {
            detectors,
            users,
            features,
        }
    }

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
    use flowtab::{FeatureSeries, Windowing};

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
        let monitored = FeatureKind::ALL
            .iter()
            .filter(|&&f| eval.detectors[0].threshold(f).is_some());
        assert_eq!(monitored.count(), 6);
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
                .filter(|(w, c)| eval.detectors[0].evaluate(*w, *c).len() >= min)
                .count() as u64
        };
        assert_eq!(eval.users[0].alarm_windows, by_alerts(1));
        assert_eq!(eval.users[0].fp_corroborated, by_alerts(2) as f64 / 20.0);
    }
}
