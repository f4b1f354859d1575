//! The run-length `EmpiricalDist` against `edf::oracle`, the sorted-sample
//! implementation it replaced: every query, `pool`, `mean` and `stddev`
//! must return the oracle's bits, on the shapes where the two
//! representations could part — counts on both sides of the by-value
//! tally's head, pooled spans inside and one past the counting bound,
//! offsets where the `f64` lattice thins out (2^53, 2^60), `-0.0` beside
//! `+0.0`, single samples, all-equal columns and all-distinct reals.

use proptest::prelude::*;
use tailstats::edf::oracle;
use tailstats::EmpiricalDist;

fn bits(x: f64) -> u64 {
    x.to_bits()
}

/// Query points around every stored value, plus the extremes.
fn probes(values: &[f64]) -> Vec<f64> {
    let mut xs = vec![-0.0, 0.0, -1e300, 1e300, f64::NAN, f64::INFINITY];
    for &v in values {
        xs.extend([v, v - 1.0, v + 1.0, v - 0.5, v + 0.5, v * (1.0 + 1e-15)]);
    }
    xs
}

/// Every query of `d` returns `o`'s bits.
fn assert_matches(d: &EmpiricalDist, o: &oracle::EmpiricalDist) {
    let samples: Vec<u64> = d.samples().map(|&x| bits(x)).collect();
    let want: Vec<u64> = o.samples().iter().map(|&x| bits(x)).collect();
    assert_eq!(samples, want, "samples");
    assert_eq!(d.len(), o.len());
    assert_eq!(bits(d.min()), bits(o.min()), "min");
    assert_eq!(bits(d.max()), bits(o.max()), "max");
    assert_eq!(bits(d.mean()), bits(o.mean()), "mean");
    assert_eq!(bits(d.stddev()), bits(o.stddev()), "stddev");
    let qs = [
        0.0,
        1e-9,
        0.1,
        0.25,
        0.5,
        0.75,
        0.9,
        0.99,
        0.999,
        1.0,
        -1.0,
        2.0,
        f64::NAN,
    ];
    for q in qs {
        assert_eq!(bits(d.quantile(q)), bits(o.quantile(q)), "quantile({q})");
        assert_eq!(
            bits(d.quantile_discrete(q)),
            bits(o.quantile_discrete(q)),
            "quantile_discrete({q})"
        );
    }
    let mut values: Vec<f64> = d.runs().map(|(v, _)| v).collect();
    values.truncate(64);
    for x in probes(&values) {
        assert_eq!(bits(d.cdf(x)), bits(o.cdf(x)), "cdf({x})");
        assert_eq!(bits(d.below(x)), bits(o.below(x)), "below({x})");
        assert_eq!(
            bits(d.exceedance(x)),
            bits(o.exceedance(x)),
            "exceedance({x})"
        );
        for prob in [0.0, 0.3, 0.9, 0.99, 1.0, 1.5] {
            assert_eq!(
                bits(d.max_shift_below(x, prob)),
                bits(o.max_shift_below(x, prob)),
                "max_shift_below({x}, {prob})"
            );
        }
    }
}

fn both_from_counts(counts: &[u64]) -> (EmpiricalDist, oracle::EmpiricalDist) {
    (
        EmpiricalDist::from_counts(counts),
        oracle::EmpiricalDist::from_counts(counts),
    )
}

fn both_from_samples(samples: &[f64]) -> (EmpiricalDist, oracle::EmpiricalDist) {
    (
        EmpiricalDist::from_samples(samples.to_vec()),
        oracle::EmpiricalDist::from_samples(samples.to_vec()),
    )
}

/// Integer counts: small (all in the tallied head), straddling the head,
/// wide, and at the 2^53 and 2^60 offsets where conversion rounds
/// neighbouring counts together.
fn arb_counts() -> impl Strategy<Value = Vec<u64>> {
    let len = 1usize..700;
    prop_oneof![
        proptest::collection::vec(0u64..40, len.clone()),
        proptest::collection::vec(0u64..600, len.clone()),
        proptest::collection::vec(0u64..1_000_000, 1..80),
        (0u64..2, proptest::collection::vec(0u64..300, len.clone())).prop_map(|(which, v)| {
            let base = if which == 0 { 1u64 << 53 } else { 1u64 << 60 };
            v.into_iter().map(|c| base + c).collect()
        }),
        proptest::collection::vec(prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()], 1..50),
        (0u64..100_000, 1usize..700).prop_map(|(v, n)| vec![v; n]),
    ]
}

/// Real samples: `-0.0`/`+0.0` mixes among small values, quarter steps,
/// all-distinct reals of both signs, and one sample.
fn arb_samples() -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        proptest::collection::vec(
            prop_oneof![Just(-0.0), Just(0.0), (0u32..5).prop_map(f64::from)],
            1..200
        ),
        proptest::collection::vec((0u32..4000).prop_map(|q| f64::from(q) / 4.0), 1..300),
        proptest::collection::vec(-1e6f64..1e6, 1..300),
        (-1e9f64..1e9).prop_map(|x| vec![x]),
    ]
}

/// One pooling member under a shape: integer counts, a half-integer
/// lattice, `-0.0` among counts, negatives, spans wider than the counting
/// bound, offsets at 2^53 and 2^60, and fractions.
fn shaped(c: u64, shape: u8) -> f64 {
    let x = c as f64;
    match shape {
        0 => x,
        1 => x + 0.5,
        2 if c < 60 => -0.0,
        3 => x * -2.5,
        4 => x * 2.0 + 2f64.powi(53),
        5 => x * 1e4,
        6 => x + 2f64.powi(60),
        _ => x * 0.37,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn from_counts_matches_oracle(counts in arb_counts()) {
        let (d, o) = both_from_counts(&counts);
        assert_matches(&d, &o);
    }

    #[test]
    fn from_samples_matches_oracle(samples in arb_samples()) {
        let (d, o) = both_from_samples(&samples);
        assert_matches(&d, &o);
    }

    #[test]
    fn pool_matches_oracle(
        members in prop_oneof![
            proptest::collection::vec(proptest::collection::vec(0u64..300, 1..120), 1..24),
            proptest::collection::vec(proptest::collection::vec(0u64..5000, 200..700), 1..6),
            proptest::collection::vec(proptest::collection::vec(0u64..60, 1..2), 50..300),
        ],
        shape in 0u8..8,
    ) {
        let members: Vec<Vec<u64>> = members;
        let samples: Vec<Vec<f64>> = members
            .iter()
            .map(|m| m.iter().map(|&c| shaped(c, shape)).collect())
            .collect();
        let (new, old): (Vec<_>, Vec<_>) = samples.iter().map(|s| both_from_samples(s)).unzip();
        assert_matches(&EmpiricalDist::pool(&new), &oracle::EmpiricalDist::pool(&old));
    }

    /// Pooled spans right at the counting bound `4n + 4096` (counted) and
    /// one past it (merged).
    #[test]
    fn pool_at_the_counting_bound_matches_oracle(
        base in 0u64..1_000_000,
        fill in proptest::collection::vec(0u64..50, 1..40),
        past in 0u64..2,
    ) {
        let n = fill.len() as u64 + 2;
        let top = base + 4 * n + 4096 + past;
        let (a, oa) = both_from_counts(&[base, top]);
        let (b, ob) = both_from_counts(&fill.iter().map(|&c| base + c).collect::<Vec<_>>());
        assert_matches(&EmpiricalDist::pool([&a, &b]), &oracle::EmpiricalDist::pool([&oa, &ob]));
    }
}

#[test]
fn single_samples_and_equal_columns_match_oracle() {
    for counts in [
        &[0u64][..],
        &[7],
        &[u64::MAX],
        &[3, 3, 3, 3],
        &[255, 256, 256, 257],
    ] {
        let (d, o) = both_from_counts(counts);
        assert_matches(&d, &o);
    }
    for samples in [&[-0.0][..], &[0.0, -0.0], &[-2.5], &[1e300, 1e300]] {
        let (d, o) = both_from_samples(samples);
        assert_matches(&d, &o);
    }
}
