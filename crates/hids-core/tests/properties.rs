//! Property-based tests of policy configuration and evaluation.

use proptest::prelude::*;

use flowtab::{FeatureCounts, FeatureKind, FeatureSeries, Windowing};
use hids_core::{
    eval::evaluate_policy, EvalConfig, FeatureDataset, Grouping, PartialMethod, Policy,
    ThresholdHeuristic,
};

/// Arbitrary small population of count series (train ≈ test with noise).
fn arb_population() -> impl Strategy<Value = (Vec<FeatureSeries>, Vec<FeatureSeries>)> {
    proptest::collection::vec(
        (1u64..2000, proptest::collection::vec(0u64..100, 30..80)),
        2..10,
    )
    .prop_map(|users| {
        let mk = |scaled: &[(u64, Vec<u64>)], shift: usize| -> Vec<FeatureSeries> {
            scaled
                .iter()
                .map(|(scale, raw)| {
                    let mut s = FeatureSeries::zeros(Windowing::FIFTEEN_MIN, raw.len());
                    for (w, c) in s.windows.iter_mut().enumerate() {
                        let v = raw[(w + shift) % raw.len()] * scale / 10;
                        *c = FeatureCounts::default();
                        *c.get_mut(FeatureKind::TcpConnections) = v;
                    }
                    s
                })
                .collect()
        };
        (mk(&users, 0), mk(&users, 7))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The per-user utility is exactly `1 − w·FN − (1−w)·FP`, and all
    /// reported rates live in [0, 1], under every grouping.
    #[test]
    fn evaluation_identities((train, test) in arb_population(), w in 0.0f64..1.0) {
        let ds = FeatureDataset::from_series(&train, &test, FeatureKind::TcpConnections);
        let config = EvalConfig { w, sweep: ds.default_sweep() };
        for grouping in [
            Grouping::Homogeneous,
            Grouping::FullDiversity,
            Grouping::Partial(PartialMethod::EIGHT_PARTIAL),
        ] {
            let eval = evaluate_policy(
                &ds,
                &Policy { grouping, heuristic: ThresholdHeuristic::P99 },
                &config,
            );
            for u in &eval.users {
                prop_assert!((0.0..=1.0).contains(&u.fp));
                prop_assert!((0.0..=1.0).contains(&u.fn_rate));
                let expect = 1.0 - (w * u.fn_rate + (1.0 - w) * u.fp);
                prop_assert!((u.utility - expect).abs() < 1e-12);
            }
            // Homogeneous means one distinct threshold.
            if grouping == Grouping::Homogeneous {
                prop_assert!(eval.users.windows(2).all(|p| p[0].threshold == p[1].threshold));
            }
        }
    }

    /// Full-diversity thresholds equal the per-user local computation, and
    /// every user's training FP under their own p99 threshold is ≤ 1%.
    #[test]
    fn full_diversity_is_local((train, test) in arb_population()) {
        let ds = FeatureDataset::from_series(&train, &test, FeatureKind::TcpConnections);
        let out = Policy {
            grouping: Grouping::FullDiversity,
            heuristic: ThresholdHeuristic::P99,
        }
        .configure(&ds.train);
        for (d, &t) in ds.train.iter().zip(&out.thresholds) {
            prop_assert_eq!(t, ThresholdHeuristic::P99.threshold(d));
            prop_assert!(d.exceedance(t) <= 0.0101, "train FP {}", d.exceedance(t));
        }
    }

    /// Grouping assignments are a partition: every user gets exactly one
    /// group, group ids are dense-bounded, and heavier users never land in
    /// a *strictly lighter-only* band under QuantileBands.
    #[test]
    fn grouping_partitions((train, test) in arb_population(), k in 2usize..6) {
        let ds = FeatureDataset::from_series(&train, &test, FeatureKind::TcpConnections);
        let groups = Grouping::Partial(PartialMethod::QuantileBands { k }).assign(&ds.train);
        prop_assert_eq!(groups.len(), ds.train.len());
        prop_assert!(groups.iter().all(|&g| g < k));
        // Band 0 holds the heaviest users: its min q99 >= band k-1's max.
        let q99: Vec<f64> = ds.train.iter().map(|d| d.quantile(0.99)).collect();
        let band_min = |b: usize| {
            q99.iter()
                .zip(&groups)
                .filter(|(_, &g)| g == b)
                .map(|(q, _)| *q)
                .fold(f64::INFINITY, f64::min)
        };
        let band_max = |b: usize| {
            q99.iter()
                .zip(&groups)
                .filter(|(_, &g)| g == b)
                .map(|(q, _)| *q)
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let last = *groups.iter().max().unwrap();
        if band_min(0).is_finite() && band_max(last).is_finite() && last > 0 {
            prop_assert!(band_min(0) >= band_max(last) - 1e-9);
        }
    }
}
