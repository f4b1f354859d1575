//! Property-based tests of the statistics layer.

use proptest::prelude::*;

use tailstats::{gini, ks_distance, lorenz_curve, EmpiricalDist, FiveNumber, KllSketch, Moments};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Five-number summaries are always ordered.
    #[test]
    fn fivenum_ordered(samples in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
        let s = FiveNumber::from_samples(&samples);
        prop_assert!(s.min <= s.whisker_lo + 1e-9);
        prop_assert!(s.whisker_lo <= s.q1 + 1e-9);
        prop_assert!(s.q1 <= s.median + 1e-9);
        prop_assert!(s.median <= s.q3 + 1e-9);
        prop_assert!(s.q3 <= s.whisker_hi + 1e-9);
        prop_assert!(s.whisker_hi <= s.max + 1e-9);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
    }

    /// Welford moments equal the two-pass computation.
    #[test]
    fn moments_match_two_pass(samples in proptest::collection::vec(-1e3f64..1e3, 2..200)) {
        let mut m = Moments::new();
        for &x in &samples {
            m.observe(x);
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((m.mean() - mean).abs() < 1e-6);
        prop_assert!((m.variance() - var).abs() < 1e-6 * var.max(1.0));
    }

    /// KS distance is a pseudo-metric: symmetric, zero on identity,
    /// bounded by 1, triangle inequality.
    #[test]
    fn ks_pseudo_metric(
        a in proptest::collection::vec(0u64..1000, 1..100),
        b in proptest::collection::vec(0u64..1000, 1..100),
        c in proptest::collection::vec(0u64..1000, 1..100),
    ) {
        let (da, db, dc) = (
            EmpiricalDist::from_counts(&a),
            EmpiricalDist::from_counts(&b),
            EmpiricalDist::from_counts(&c),
        );
        prop_assert!(ks_distance(&da, &da) < 1e-12);
        let ab = ks_distance(&da, &db);
        prop_assert!((ks_distance(&db, &da) - ab).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&ab));
        let (ac, cb) = (ks_distance(&da, &dc), ks_distance(&dc, &db));
        prop_assert!(ab <= ac + cb + 1e-9);
    }

    /// Gini is scale-invariant and bounded; the Lorenz curve ends at (1,1).
    #[test]
    fn gini_lorenz_laws(values in proptest::collection::vec(0f64..1e4, 1..150), scale in 0.1f64..100.0) {
        let g = gini(&values);
        prop_assert!((0.0..=1.0).contains(&g), "gini {g}");
        let scaled: Vec<f64> = values.iter().map(|v| v * scale).collect();
        prop_assert!((gini(&scaled) - g).abs() < 1e-9, "scale invariance");
        let lorenz = lorenz_curve(&values);
        let last = lorenz.last().unwrap();
        prop_assert!((last.0 - 1.0).abs() < 1e-12);
        if values.iter().sum::<f64>() > 0.0 {
            prop_assert!((last.1 - 1.0).abs() < 1e-9);
        }
        // Lorenz never exceeds the diagonal.
        for (x, y) in &lorenz {
            prop_assert!(*y <= *x + 1e-9);
        }
    }

    /// Quantile and CDF are inverse-consistent: cdf(quantile(q)) >= q for
    /// the discrete quantile.
    #[test]
    fn quantile_cdf_consistency(samples in proptest::collection::vec(0u64..10_000, 1..300), q in 0.01f64..0.999) {
        let d = EmpiricalDist::from_counts(&samples);
        let v = d.quantile_discrete(q);
        prop_assert!(d.cdf(v) >= q - 1e-12, "cdf({v}) = {} < {q}", d.cdf(v));
        // Exceedance complement.
        prop_assert!((d.cdf(v) + d.exceedance(v) - 1.0).abs() < 1e-12);
    }
}

/// Heavy-tailed adversarial count streams: most values tiny, some huge,
/// long duplicate runs — the shapes that stress compaction decisions.
fn heavy_tailed() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![
            0u64..16,
            0u64..16,
            0u64..1_000,
            0u64..1_000_000_000,
        ],
        0..600,
    )
}

/// One of a few representative rank-error budgets (lossy through tight).
fn any_eps() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.2), Just(0.05), Just(0.01)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Sketch merge is commutative to the byte: merge(a,b) == merge(b,a)
    /// in serialized form, for any pair of streams and any budget.
    #[test]
    fn sketch_merge_commutative_byte_identical(
        xs in heavy_tailed(),
        ys in heavy_tailed(),
        eps in any_eps(),
    ) {
        let mut a = KllSketch::new(eps);
        a.extend_from_counts(&xs);
        let mut b = KllSketch::new(eps);
        b.extend_from_counts(&ys);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab.to_bytes(), ba.to_bytes());
    }

    /// Sketch merge is associative to the byte:
    /// merge(merge(a,b),c) == merge(a,merge(b,c)).
    #[test]
    fn sketch_merge_associative_byte_identical(
        xs in heavy_tailed(),
        ys in heavy_tailed(),
        zs in heavy_tailed(),
        eps in any_eps(),
    ) {
        let mut a = KllSketch::new(eps);
        a.extend_from_counts(&xs);
        let mut b = KllSketch::new(eps);
        b.extend_from_counts(&ys);
        let mut c = KllSketch::new(eps);
        c.extend_from_counts(&zs);
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left.to_bytes(), right.to_bytes());
    }

    /// Pooling is invariant to input permutation (rotation + reversal
    /// cover the orders a sharded reduction actually produces).
    #[test]
    fn sketch_pool_permutation_invariant(
        xs in heavy_tailed(),
        parts in 1usize..7,
        rot in 0usize..7,
        eps in any_eps(),
    ) {
        let chunk = (xs.len() / parts).max(1);
        let sketches: Vec<KllSketch> = xs
            .chunks(chunk)
            .map(|c| {
                let mut s = KllSketch::new(eps);
                s.extend_from_counts(c);
                s
            })
            .collect();
        if !sketches.is_empty() {
            let forward: Vec<&KllSketch> = sketches.iter().collect();
            let mut rotated: Vec<&KllSketch> = sketches.iter().collect();
            rotated.rotate_left(rot % sketches.len());
            let reversed: Vec<&KllSketch> = sketches.iter().rev().collect();
            let base = KllSketch::pool(&forward).to_bytes();
            prop_assert_eq!(&KllSketch::pool(&rotated).to_bytes(), &base);
            prop_assert_eq!(&KllSketch::pool(&reversed).to_bytes(), &base);
        }
    }

    /// The observed rank (CDF) deviation against the exact distribution
    /// never exceeds the configured budget, probed at every distinct
    /// sample value (one discretisation step of slack for the strict /
    /// non-strict rank convention at probe points).
    #[test]
    fn sketch_rank_error_within_bound(xs in heavy_tailed(), eps in any_eps()) {
        if !xs.is_empty() {
            let exact = EmpiricalDist::from_counts(&xs);
            let mut sk = KllSketch::new(eps);
            sk.extend_from_counts(&xs);
            let slack = 1.0 / xs.len() as f64 + 1e-12;
            let mut probes: Vec<u64> = xs.clone();
            probes.sort_unstable();
            probes.dedup();
            for &v in &probes {
                let dev = (sk.cdf(v as f64) - exact.cdf(v as f64)).abs();
                prop_assert!(
                    dev <= eps + slack,
                    "cdf deviation {dev} at {v} exceeds eps {eps} (n={})",
                    xs.len()
                );
            }
            // The internal ledger agrees: err <= floor(weight * eps).
            let budget = (sk.len() as f64 * eps).floor() as u64;
            prop_assert!(sk.rank_error_bound() <= budget);
        }
    }

    /// No panics and sane outputs on degenerate shapes: empty sketches,
    /// single values, duplicate floods — including queries, merge with
    /// empty, and a serialization round trip.
    #[test]
    fn sketch_no_panic_on_degenerate_inputs(
        v in 0u64..1_000_000,
        dupes in 0usize..2000,
        q in -0.5f64..1.5,
        eps in any_eps(),
    ) {
        let empty = KllSketch::new(eps);
        prop_assert_eq!(empty.quantile(q), 0.0);
        prop_assert_eq!(empty.mean(), 0.0);
        prop_assert_eq!(empty.cdf(v as f64), 0.0);

        let mut single = KllSketch::new(eps);
        single.insert(v);
        prop_assert_eq!(single.quantile(q), v as f64);

        let mut flood = KllSketch::new(eps);
        for _ in 0..dupes {
            flood.insert(v);
        }
        flood.merge(&empty);
        let mut all = empty.clone();
        all.merge(&single);
        all.merge(&flood);
        prop_assert_eq!(all.len(), 1 + dupes as u64);
        if dupes > 0 {
            prop_assert_eq!(flood.quantile(q), v as f64);
        }
        let back = KllSketch::from_bytes(&all.to_bytes()).expect("roundtrip");
        prop_assert_eq!(&back, &all);
        prop_assert_eq!(back.to_bytes(), all.to_bytes());
    }
}

/// Streams for the fast-vs-oracle sketch tests: heavy-tailed with long
/// duplicate runs, plus values at the top of the u64 range where
/// neighbouring integers round to the same f64.
fn sketch_stream() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![
            0u64..16,
            0u64..1_000,
            0u64..1_000_000_000,
            (u64::MAX - 4096)..=u64::MAX,
        ],
        0..1500,
    )
}

/// A sketch in one of the shapes the fast query paths must cover:
/// inserted-only (multi-level once compacted), pooled from chunks (with
/// compactions deferred by the ledger), or decoded from its own bytes.
fn shaped_sketch(xs: &[u64], eps: f64, shape: u8, parts: usize) -> KllSketch {
    let chunked = |xs: &[u64]| -> Vec<KllSketch> {
        xs.chunks((xs.len() / parts).max(1))
            .map(|c| {
                let mut s = KllSketch::new(eps);
                s.extend_from_counts(c);
                s
            })
            .collect()
    };
    let mut s = KllSketch::new(eps);
    match shape % 3 {
        0 => s.extend_from_counts(xs),
        1 => {
            let parts = chunked(xs);
            if !parts.is_empty() {
                s = KllSketch::pool(&parts.iter().collect::<Vec<_>>());
            }
        }
        _ => {
            for p in chunked(xs) {
                s.merge(&p);
            }
            s = KllSketch::from_bytes(&s.to_bytes()).expect("roundtrip");
        }
    }
    s
}

/// Probe points for `cdf`/`below`/`exceedance`: the pinned specials and
/// up to 16 stored values (evenly spread), each with its neighbours and
/// midpoints.
fn probes(s: &KllSketch, extra: f64) -> Vec<f64> {
    let mut xs = vec![
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -1.0,
        -0.5,
        0.0,
        u64::MAX as f64,
        extra,
    ];
    let items = s.weighted_items();
    for &(v, _) in items.iter().step_by(items.len().div_ceil(16).max(1)) {
        let v = v as f64;
        xs.extend([v, v - 1.0, v + 1.0, v - 0.5, v + 0.5]);
    }
    xs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The per-level rank queries answer bit for bit like the sort-per-call
    /// oracle, on compacted, pooled and decoded sketches, at the pinned
    /// special points and at and between stored values.
    #[test]
    fn sketch_queries_match_oracle_bitwise(
        xs in sketch_stream(),
        eps in prop_oneof![Just(0.2), Just(0.05), Just(0.01)],
        shape in 0u8..3,
        parts in 1usize..40,
        q in -0.5f64..1.5,
        extra in any::<f64>(),
    ) {
        use tailstats::sketch::oracle;
        let s = shaped_sketch(&xs, eps, shape, parts);
        for q in [q, f64::NAN, -1.0, 0.0, 1e-9, 0.5, 0.9, 0.95, 0.99, 1.0, 2.0] {
            prop_assert_eq!(s.quantile(q).to_bits(), oracle::quantile(&s, q).to_bits(), "quantile({})", q);
            prop_assert_eq!(
                s.quantile_discrete(q).to_bits(),
                oracle::quantile_discrete(&s, q).to_bits(),
                "quantile_discrete({})", q
            );
        }
        for x in probes(&s, extra) {
            prop_assert_eq!(s.cdf(x).to_bits(), oracle::cdf(&s, x).to_bits(), "cdf({})", x);
            prop_assert_eq!(s.below(x).to_bits(), oracle::below(&s, x).to_bits(), "below({})", x);
            prop_assert_eq!(
                s.exceedance(x).to_bits(),
                oracle::exceedance(&s, x).to_bits(),
                "exceedance({})", x
            );
        }
    }

    /// The lazily sorted pool is byte-identical to the oracle's fold of
    /// sorting merges, for 1..40 sketches handed over in random order.
    #[test]
    fn sketch_pool_matches_oracle_bytes(
        streams in proptest::collection::vec(sketch_stream(), 1..40),
        keys in proptest::collection::vec(any::<u64>(), 40),
        eps in prop_oneof![Just(0.2), Just(0.05), Just(0.01)],
    ) {
        let sketches: Vec<KllSketch> = streams
            .iter()
            .map(|xs| {
                let mut s = KllSketch::new(eps);
                s.extend_from_counts(xs);
                s
            })
            .collect();
        let mut refs: Vec<(u64, &KllSketch)> = keys.iter().copied().zip(&sketches).collect();
        refs.sort_by_key(|&(k, _)| k);
        let refs: Vec<&KllSketch> = refs.into_iter().map(|(_, s)| s).collect();
        let fast = KllSketch::pool(&refs);
        prop_assert_eq!(fast.to_bytes(), tailstats::sketch::oracle::pool(&refs).to_bytes());
    }
}
