//! The run-length `EmpiricalDist` against `edf::oracle`, the sorted-sample
//! implementation it replaced: every query, `pool`, `mean` and `stddev`
//! must return the oracle's bits, on the shapes where the two
//! representations could part — counts on both sides of the by-value
//! tally's head, pooled spans inside and one past the counting bound,
//! offsets where the `f64` lattice thins out (2^53, 2^60), `-0.0` beside
//! `+0.0`, single samples, all-equal columns and all-distinct reals —
//! and the one-walk `below_sum` against the per-size `below` loop it
//! stands in for in the sweep-averaged false-negative rate.

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
    // The runs themselves, so that an empty run the queries cannot see
    // still shows.
    let mut want_runs: Vec<(u64, usize)> = Vec::new();
    for &x in &want {
        match want_runs.last_mut() {
            Some((v, c)) if *v == x => *c += 1,
            _ => want_runs.push((x, 1)),
        }
    }
    let runs: Vec<(u64, usize)> = d.runs().map(|(v, c)| (bits(v), c)).collect();
    assert_eq!(runs, want_runs, "runs");
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

/// Columns shaped like the by-value tally's edge cases: all zeros, sparse
/// non-zero counts among zeros (so whole octets are skipped and the last
/// partial octet is not), counts straddling 256 and the tally's head at
/// 4096, and counts at and past 2^53 up to `u64::MAX`.
fn arb_tally_column() -> impl Strategy<Value = Vec<u64>> {
    let len = 1usize..700;
    let edge = prop_oneof![
        250u64..262,
        4090u64..4102,
        (1u64 << 53) - 4..(1u64 << 53) + 4,
        Just(u64::MAX),
        Just(u64::MAX - 1),
    ];
    prop_oneof![
        len.clone().prop_map(|n| vec![0u64; n]),
        (proptest::collection::vec((0u64..40, 0u8..10), len.clone())).prop_map(|v| v
            .into_iter()
            .map(|(c, z)| if z < 8 { 0 } else { c })
            .collect()),
        (len.clone(), 0u64..5000).prop_map(|(n, c)| {
            let mut v = vec![0u64; n];
            v[n - 1] = c;
            v
        }),
        proptest::collection::vec(prop_oneof![Just(0u64), 0u64..300, edge], len),
    ]
}

/// Ascending attack sizes as `AttackSweep::new` spaces them.
fn sweep_sizes(b_max: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 1.0 + (b_max - 1.0) * i as f64 / (n - 1) as f64)
        .collect()
}

/// `Σ below(t − b)` one size at a time, in order: the loop the walk
/// replaces.
fn below_sum_by_size(below: impl Fn(f64) -> f64, t: f64, sizes: &[f64]) -> f64 {
    sizes.iter().map(|&b| below(t - b)).sum()
}

/// The walk's sum equals the per-size loop's, and the oracle's, bit for
/// bit at `t`.
fn assert_below_sum_matches(d: &EmpiricalDist, o: &oracle::EmpiricalDist, t: f64, sizes: &[f64]) {
    let walked = d.below_sum(t, sizes);
    let looped = below_sum_by_size(|x| d.below(x), t, sizes);
    let oracle = below_sum_by_size(|x| o.below(x), t, sizes);
    assert_eq!(
        bits(walked),
        bits(looped),
        "below_sum({t}) vs the per-size loop"
    );
    assert_eq!(bits(walked), bits(oracle), "below_sum({t}) vs the oracle");
}

/// Thresholds below the minimum, on and between runs, above the maximum,
/// fractional, and the non-finite ones.
fn thresholds_around(d: &EmpiricalDist) -> Vec<f64> {
    let mut ts = vec![
        d.min() - 1.0,
        d.max() + 1.0,
        d.max() + 1e13,
        f64::INFINITY,
        f64::NAN,
    ];
    for (v, _) in d.runs().take(40) {
        ts.extend([v, v + 0.5, v - 0.25, v + 1.0]);
    }
    ts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn from_counts_tally_edges_match_oracle(counts in arb_tally_column()) {
        let (d, o) = both_from_counts(&counts);
        assert_matches(&d, &o);
    }

    /// Pools of tally-edge columns: the shared tally, and the scratch left
    /// clean for the next build.
    #[test]
    fn pool_of_tally_edges_matches_oracle(
        members in proptest::collection::vec(arb_tally_column(), 1..12),
    ) {
        let (new, old): (Vec<_>, Vec<_>) = members.iter().map(|m| both_from_counts(m)).unzip();
        assert_matches(&EmpiricalDist::pool(&new), &oracle::EmpiricalDist::pool(&old));
    }

    #[test]
    fn below_sum_walk_matches_the_per_size_loop(
        counts in arb_counts(),
        b_max in prop_oneof![1.0f64..50.0, 1.0f64..5000.0, 1.0f64..1e12],
        n_points in 2usize..=300,
    ) {
        let (d, o) = both_from_counts(&counts);
        let sizes = sweep_sizes(b_max, n_points);
        for t in thresholds_around(&d) {
            assert_below_sum_matches(&d, &o, t, &sizes);
        }
    }

    /// Real samples with `-0.0` and `+0.0` runs, and size lists the walk
    /// must leave to the per-size loop (descending, or holding a NaN).
    #[test]
    fn below_sum_on_reals_and_unsorted_sizes(
        samples in arb_samples(),
        b_max in -10.0f64..1e6,
        n_points in 2usize..=300,
        nan_at in 0usize..600,
    ) {
        let (d, o) = both_from_samples(&samples);
        let mut sizes = sweep_sizes(b_max, n_points);
        if nan_at < 300 {
            sizes[nan_at % n_points] = f64::NAN;
        }
        for t in thresholds_around(&d).into_iter().chain([0.0, -0.0, 1.0]) {
            assert_below_sum_matches(&d, &o, t, &sizes);
        }
    }
}

#[test]
fn below_sum_at_the_extremes() {
    let (d, o) = both_from_counts(&[0, 0, 3, 3, 3, 9, 40]);
    let sizes = sweep_sizes(12.0, 12);
    // Every cut above the maximum: the walk must start past the last run.
    for t in [1e6, 41.0 + 12.0, 40.5 + 12.0] {
        assert_below_sum_matches(&d, &o, t, &sizes);
        assert_eq!(d.below_sum(t, &sizes), sizes.len() as f64);
    }
    // Every cut at or below the minimum.
    assert_eq!(d.below_sum(1.0, &sizes), 0.0);
    let (d, o) = both_from_samples(&[-0.0, -0.0, 0.0, 0.0, 0.0, 1.0]);
    for t in [-0.0, 0.0, 1.0, 2.0, 1.5, f64::MIN_POSITIVE] {
        assert_below_sum_matches(&d, &o, t, &[0.0, 1.0]);
        assert_below_sum_matches(&d, &o, t, &[-0.0, 0.0, 0.5]);
    }
}

/// Building one column after another reuses the per-thread tally: a slot
/// or bit the first left behind would show up in the second.
#[test]
fn back_to_back_builds_share_a_clean_tally() {
    let columns: [&[u64]; 5] = [
        &[5, 9, 300, 4095, 4096, 70000, 0, 0, 1],
        &[0; 17],
        &[2, 2, 2, 7],
        &[u64::MAX, 0, 4097, 255, 256],
        &[1],
    ];
    for _ in 0..2 {
        for counts in columns {
            let (d, o) = both_from_counts(counts);
            assert_matches(&d, &o);
        }
    }
}

/// Pools wider than the per-thread scratch tally (2^17 slots) count into
/// a table of their own; at and one past the counting bound `4n + 4096`,
/// they count or merge as the narrow ones do, and leave the scratch clean.
#[test]
fn wide_pools_match_oracle_around_the_scratch_cap() {
    for (n_members, past) in [(48usize, 0u64), (48, 1), (40, 0)] {
        let n = (n_members * 700) as u64;
        let top = 4 * n + 4096 + past;
        let columns: Vec<Vec<u64>> = (0..n_members as u64)
            .map(|m| {
                (0..700u64)
                    .map(|i| (i * 7919 + m * 104_729) % top)
                    .collect()
            })
            .collect();
        let mut columns = columns;
        columns[0][0] = 0;
        columns[1][0] = top;
        let (new, old): (Vec<_>, Vec<_>) = columns.iter().map(|c| both_from_counts(c)).unzip();
        assert_matches(
            &EmpiricalDist::pool(&new),
            &oracle::EmpiricalDist::pool(&old),
        );
        let (d, o) = both_from_counts(&[3, 1, 4, 1, 5, 9, 2, 6]);
        assert_matches(&d, &o);
    }
}
