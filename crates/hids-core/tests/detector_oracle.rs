//! The detector compares each count with an integer cut computed once per
//! threshold. It must agree with the `f64` comparison it replaced
//! (`hids_core::detector::oracle`) on every threshold and count, including
//! NaN, infinities, signed zeros, subnormals, the integers and
//! half-integers around 2^53, and the thresholds at and just below 2^64,
//! where `u64 → f64` rounds. Multi-feature scoring from fire masks
//! (`MultiEvaluation::score`, `multi_detection`, `FireMasks` on a feature
//! subset) must equal the per-window walks it replaced
//! (`hids_core::multi::oracle`) bit for bit.

use flowtab::{FeatureCounts, FeatureKind, FeatureSeries, FeatureWeek, Windowing};
use hids_core::{
    detector::oracle, multi, multi_detection, Detector, FireMasks, MultiEvaluation, MultiUserPerf,
    Overlay,
};
use proptest::prelude::*;

const TWO_POW_52: f64 = 4_503_599_627_370_496.0;
const TWO_POW_53: f64 = 9_007_199_254_740_992.0;
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;

/// The neighbouring `f64` above (`step = 1`) or below (`step = -1`) a
/// finite, nonzero, positive value.
fn ulp_step(x: f64, step: i64) -> f64 {
    f64::from_bits(x.to_bits().wrapping_add_signed(step))
}

/// Thresholds where comparing as `f64` and as `u64` could part ways.
fn edge_thresholds() -> Vec<f64> {
    let mut ts = vec![
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        -0.5,
        -1.0,
        -1e300,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::MIN_POSITIVE,
        0.5,
        1.0,
        1.5,
        99.0,
        99.5,
        ulp_step(TWO_POW_64, -1),
        TWO_POW_64,
        ulp_step(TWO_POW_64, 1),
        f64::MAX,
    ];
    for base in [TWO_POW_52, TWO_POW_53] {
        for k in -4..=4 {
            let t = base + f64::from(k);
            ts.extend([t, t + 0.5, t - 0.5, ulp_step(t, 1), ulp_step(t, -1)]);
        }
    }
    ts
}

/// The least `c` with `(c as f64) > t` by the oracle's own comparison,
/// searched over the whole `u64` range; `None` when no count fires.
fn oracle_cut(t: f64) -> Option<u64> {
    let fires = |c: u64| c as f64 > t;
    if !fires(u64::MAX) {
        return None;
    }
    if fires(0) {
        return Some(0);
    }
    let (mut lo, mut hi) = (0u64, u64::MAX);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fires(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// Counts to try against threshold `t`: the ends of the range, the
/// values around 2^53, and the oracle's cut with its two neighbours.
fn counts_around(t: f64) -> Vec<u64> {
    let mut cs = vec![0, 1, 2, u64::MAX - 1, u64::MAX, 1 << 53, (1 << 53) + 1];
    if let Some(cut) = oracle_cut(t) {
        cs.extend([cut.saturating_sub(1), cut, cut.saturating_add(1)]);
    }
    cs
}

fn one_feature(t: f64) -> Detector {
    let mut det = Detector::new(3);
    det.set_threshold(FeatureKind::TcpConnections, t);
    det
}

fn assert_agrees(det: &Detector, window: usize, counts: &FeatureCounts) {
    for f in FeatureKind::ALL {
        assert_eq!(
            det.fires(f, counts.get(f)),
            oracle::fires(det, f, counts.get(f)),
            "fires: {f:?} count {} threshold {:?}",
            counts.get(f),
            det.threshold(f)
        );
    }
    assert_eq!(
        det.alarm_count(counts),
        oracle::alarm_count(det, counts),
        "alarm_count on {counts:?} with {det:?}"
    );
    assert_eq!(
        det.evaluate(window, counts),
        oracle::evaluate(det, window, counts),
        "evaluate on {counts:?} with {det:?}"
    );
}

#[test]
fn edge_thresholds_agree_with_the_oracle() {
    for t in edge_thresholds() {
        let det = one_feature(t);
        for c in counts_around(t) {
            let mut counts = FeatureCounts::default();
            *counts.get_mut(FeatureKind::TcpConnections) = c;
            assert_agrees(&det, 7, &counts);
        }
    }
}

#[test]
fn the_cut_is_where_the_oracle_starts_firing() {
    // Spot values worked by hand: the cut is `⌊t⌋ + 1` below 2^53, no
    // count clears NaN or 2^64, and every count clears a negative.
    let tcp = FeatureKind::TcpConnections;
    for (t, quiet, fires) in [
        (99.0, 99, 100),
        (99.5, 99, 100),
        (-0.0, 0, 1),
        (f64::from_bits(1), 0, 1),
        (TWO_POW_53 - 1.0, (1 << 53) - 1, 1 << 53),
    ] {
        let det = one_feature(t);
        assert!(!det.fires(tcp, quiet), "{t}: {quiet} is quiet");
        assert!(det.fires(tcp, fires), "{t}: {fires} fires");
    }
    for t in [f64::NAN, TWO_POW_64, f64::INFINITY] {
        assert!(!one_feature(t).fires(tcp, u64::MAX), "{t}: nothing fires");
    }
    for t in [-0.5, -1e300, f64::NEG_INFINITY] {
        assert!(one_feature(t).fires(tcp, 0), "{t}: zero fires");
    }
    // Above 2^53 the cut is not `⌊t⌋ + 1`: `2^53 + 1` rounds to 2^53.
    assert!(!one_feature(TWO_POW_53).fires(tcp, (1 << 53) + 1));
    assert!(one_feature(TWO_POW_53).fires(tcp, (1 << 53) + 2));
}

/// Any threshold: an edge value, any bit pattern, an integer or
/// half-integer near 2^53, or a count converted to `f64`, nudged by up to
/// two ulps.
fn threshold() -> impl Strategy<Value = f64> {
    let edges = edge_thresholds();
    prop_oneof![
        (0usize..edges.len()).prop_map(move |i| edges[i]),
        any::<u64>().prop_map(f64::from_bits),
        (-64i64..64, any::<bool>())
            .prop_map(|(k, half)| { TWO_POW_53 + k as f64 + if half { 0.5 } else { 0.0 } }),
        (any::<u64>(), 0u32..64, -2i64..=2).prop_map(|(c, shift, step)| {
            let t = (c >> shift) as f64;
            if t == 0.0 {
                t
            } else {
                ulp_step(t, step)
            }
        }),
    ]
}

/// A detector with each feature either unmonitored or given a drawn
/// threshold.
fn detector() -> impl Strategy<Value = Detector> {
    proptest::collection::vec((any::<bool>(), threshold()), 6).prop_map(|slots| {
        let mut det = Detector::new(11);
        for (&f, (on, t)) in FeatureKind::ALL.iter().zip(slots) {
            if on {
                det.set_threshold(f, t);
            }
        }
        det
    })
}

/// A count for a feature whose threshold is `t`: near its cut, at the
/// ends of the range, or anything.
fn count_near(t: Option<f64>, pick: u64, noise: u64) -> u64 {
    match pick % 4 {
        0 => noise,
        1 => noise >> (noise % 64),
        _ => {
            let around = t.map(counts_around).unwrap_or_else(|| vec![0, u64::MAX]);
            around[(noise % around.len() as u64) as usize]
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn drawn_detectors_agree_with_the_oracle(
        det in detector(),
        picks in any::<[u64; 6]>(),
        noise in any::<[u64; 6]>(),
        window in 0usize..10_000,
    ) {
        let mut counts = FeatureCounts::default();
        for (i, f) in FeatureKind::ALL.into_iter().enumerate() {
            *counts.get_mut(f) = count_near(det.threshold(f), picks[i], noise[i]);
        }
        assert_agrees(&det, window, &counts);
    }

    #[test]
    fn column_alerts_are_the_per_window_alerts(
        det in detector(),
        feature in 0usize..6,
        column in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..50),
    ) {
        let feature = FeatureKind::ALL[feature];
        let column: Vec<u64> = column
            .into_iter()
            .map(|(pick, noise)| count_near(det.threshold(feature), pick, noise))
            .collect();
        let scanned: Vec<_> = det.column_alerts(feature, &column).collect();
        let per_window: Vec<_> = column
            .iter()
            .enumerate()
            .flat_map(|(w, &g)| {
                let mut one = FeatureCounts::default();
                *one.get_mut(feature) = g;
                oracle::evaluate(&det, w, &one)
                    .into_iter()
                    .filter(|a| a.feature == feature)
            })
            .collect();
        prop_assert_eq!(scanned, per_window);
    }
}

/// A series of `len` windows; each count is drawn small so thresholds
/// near the counts fire some of the time.
fn series(rng: &mut TestRng, len: usize, zero_share: u64) -> FeatureSeries {
    let mut s = FeatureSeries::zeros(Windowing::FIFTEEN_MIN, len);
    for w in &mut s.windows {
        if rng.below(100) < zero_share {
            continue;
        }
        for c in &mut w.0 {
            *c = rng.below(40);
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn chunked_multi_detection_matches_the_cycled_oracle(
        seed in any::<u64>(),
        n_users in 1usize..5,
        len in 0usize..60,
        shape in 0usize..6,
        zero_share in 0u64..100,
    ) {
        let mut rng = TestRng::for_case("multi_detection", seed);
        let test: Vec<FeatureSeries> = (0..n_users).map(|_| series(&mut rng, len, 10)).collect();
        let detectors: Vec<Detector> = (0..n_users)
            .map(|u| {
                let mut det = Detector::new(u as u32);
                for f in FeatureKind::ALL {
                    if rng.below(3) > 0 {
                        det.set_threshold(f, rng.below(80) as f64 + 0.5 * rng.below(2) as f64);
                    }
                }
                det
            })
            .collect();
        // Empty, all-zero, shorter than the series, equal to it, longer,
        // and of a length that does not divide it.
        let overlay_len = match shape {
            0 => 0,
            1 => len,
            2 => (len / 3).max(1),
            3 => len,
            4 => len + 1 + rng.below(20) as usize,
            _ => (2..=len.max(2)).find(|k| len % k != 0).unwrap_or(3),
        };
        let overlay = if shape == 1 {
            FeatureSeries::zeros(Windowing::FIFTEEN_MIN, overlay_len)
        } else {
            series(&mut rng, overlay_len, zero_share)
        };
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        prop_assert_eq!(
            bits(multi_detection(&detectors, &test, &overlay)),
            bits(multi::oracle::multi_detection(&detectors, &test, &overlay)),
            "{} users, {} windows, overlay {}", n_users, len, overlay_len
        );
    }
}

/// A perf's three figures, the rates by their bits.
fn perf_bits(p: &MultiUserPerf) -> (u64, u64, u64) {
    (
        p.fp_any.to_bits(),
        p.fp_corroborated.to_bits(),
        p.alarm_windows,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fire_masks_match_both_oracles(
        seed in any::<u64>(),
        n_users in 1usize..5,
        words in 0usize..4,
        whole_words in any::<bool>(),
        shape in 0usize..6,
        zero_share in 0u64..100,
    ) {
        let mut rng = TestRng::for_case("fire_masks", seed);
        // Often a length whose last mask word is partial.
        let len = 64 * words + if whole_words { 0 } else { rng.below(64) as usize };
        let test: Vec<FeatureSeries> = (0..n_users).map(|_| series(&mut rng, len, 10)).collect();
        let weeks: Vec<FeatureWeek> = test.iter().map(FeatureWeek::from).collect();
        // Each feature is unmonitored, unarmed (NaN, at or above 2^64),
        // fired by every count (negative), or cut among the counts.
        let detectors: Vec<Detector> = (0..n_users)
            .map(|u| {
                let mut det = Detector::new(u as u32);
                for f in FeatureKind::ALL {
                    let t = match rng.below(8) {
                        0 | 1 => continue,
                        2 => f64::NAN,
                        3 => TWO_POW_64 * (1 + rng.below(2)) as f64,
                        4 => -1.0 - rng.below(3) as f64,
                        _ => rng.below(40) as f64 + 0.5 * rng.below(2) as f64,
                    };
                    det.set_threshold(f, t);
                }
                det
            })
            .collect();
        let overlay_len = match shape {
            0 => 0,
            1 => len,
            2 => (len / 3).max(1),
            3 => len,
            4 => len + 1 + rng.below(70) as usize,
            _ => (2..=len.max(2)).find(|k| len % k != 0).unwrap_or(3),
        };
        let overlay = if shape == 1 {
            FeatureSeries::zeros(Windowing::FIFTEEN_MIN, overlay_len)
        } else {
            series(&mut rng, overlay_len, zero_share)
        };
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let all_bits = |e: MultiEvaluation| e.users.iter().map(perf_bits).collect::<Vec<_>>();

        // Every monitored feature, from either layout.
        let want = all_bits(multi::oracle::score(detectors.clone(), FeatureKind::ALL.to_vec(), &test));
        let by_series = MultiEvaluation::score(detectors.clone(), FeatureKind::ALL.to_vec(), &test);
        let by_week = MultiEvaluation::score(detectors.clone(), FeatureKind::ALL.to_vec(), &weeks);
        prop_assert_eq!(all_bits(by_series), want.clone(), "{} windows", len);
        prop_assert_eq!(all_bits(by_week), want, "{} windows", len);
        let want = bits(multi::oracle::multi_detection(&detectors, &test, &overlay));
        let overlay_week = FeatureWeek::from(&overlay);
        prop_assert_eq!(
            bits(multi_detection(&detectors, &weeks, &overlay_week)),
            want,
            "{} windows, overlay {}", len, overlay_len
        );

        // A random feature subset read from the all-feature masks equals
        // detectors that monitor only that subset.
        let subset: Vec<FeatureKind> = FeatureKind::ALL
            .into_iter()
            .filter(|_| rng.below(2) == 0)
            .collect();
        let only: Vec<Detector> = detectors
            .iter()
            .map(|d| {
                let mut o = Detector::new(d.user);
                for &f in &subset {
                    if let Some(t) = d.threshold(f) {
                        o.set_threshold(f, t);
                    }
                }
                o
            })
            .collect();
        let want_fp = multi::oracle::score(only.clone(), subset.clone(), &test);
        let want_hit = multi::oracle::multi_detection(&only, &test, &overlay);
        let prepared = Overlay::new(&overlay_week);
        let attacked = prepared.attacked_windows(len);
        for (u, (det, week)) in detectors.iter().zip(&weeks).enumerate() {
            let benign = FireMasks::new(det, week);
            prop_assert_eq!(perf_bits(&benign.perf(&subset)), perf_bits(&want_fp.users[u]));
            let hit = FireMasks::new(det, &prepared.apply(week)).detection(&subset, &attacked);
            prop_assert_eq!(hit.to_bits(), want_hit[u].to_bits(), "user {} subset {:?}", u, subset);
        }
    }
}
