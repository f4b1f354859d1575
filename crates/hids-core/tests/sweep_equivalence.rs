//! The batched sweep kernel must be *bit-identical* to the naive
//! per-candidate formulation it replaced: one `exceedance` query plus one
//! `AttackSweep::mean_fn` query per candidate threshold, and the
//! descending `>=`-argmax threshold pick. Property-tested over random
//! integer-lattice distributions (the fast path), real-valued samples (the
//! merge path), offset and wide-range lattices, and the degenerate shapes.
//!
//! The shared fit and score (`ThresholdHeuristic::threshold` and
//! `UserPerf::score`, generic over the quantile backend) are held to the
//! per-call-site expressions they replaced the same way.

use proptest::prelude::*;

use hids_core::{AttackSweep, SweepTable, ThresholdHeuristic, UserPerf};
use tailstats::{EmpiricalDist, QuantileSource};

/// The pre-kernel reference: candidates are the distinct sample values
/// plus one past the maximum; each is scored independently.
fn naive_table(dist: &EmpiricalDist, sweep: &AttackSweep) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut thresholds: Vec<f64> = Vec::new();
    for &v in dist.samples() {
        if thresholds.last() != Some(&v) {
            thresholds.push(v);
        }
    }
    thresholds.push(dist.max() + 1.0);
    let fp = thresholds.iter().map(|&t| dist.exceedance(t)).collect();
    let mean_fn = thresholds.iter().map(|&t| sweep.mean_fn(dist, t)).collect();
    (thresholds, fp, mean_fn)
}

/// The pre-kernel argmax: scan candidates from the top, keeping ties at
/// the lowest threshold via `>=`.
fn naive_best(
    thresholds: &[f64],
    fp: &[f64],
    mean_fn: &[f64],
    score: impl Fn(f64, f64) -> f64,
) -> f64 {
    let mut best_t = f64::NAN;
    let mut best_s = f64::NEG_INFINITY;
    for i in (0..thresholds.len()).rev() {
        let s = score(fp[i], mean_fn[i]);
        if s >= best_s {
            best_s = s;
            best_t = thresholds[i];
        }
    }
    best_t
}

fn assert_bitwise_equal(dist: &EmpiricalDist, sweep: &AttackSweep) {
    let table = SweepTable::compute(dist, sweep);
    let (t, fp, mean_fn) = naive_table(dist, sweep);
    prop_assert_eq!(table.thresholds(), &t[..]);
    prop_assert_eq!(table.fp(), &fp[..]);
    prop_assert_eq!(table.mean_fn(), &mean_fn[..]);
    // And the argmax rewiring: ascending strict `>` equals the historical
    // descending `>=`, for both heuristic families' score shapes.
    let w = 0.4;
    let utility = |fp: f64, fnr: f64| 1.0 - (w * fnr + (1.0 - w) * fp);
    prop_assert_eq!(
        table.best_by(utility).to_bits(),
        naive_best(&t, &fp, &mean_fn, utility).to_bits()
    );
}

fn arb_sweep() -> impl Strategy<Value = AttackSweep> {
    (1.0f64..10_000.0, 2usize..300).prop_map(|(b_max, n)| AttackSweep::new(b_max, n))
}

/// A sweep guaranteed to contain non-integral attack sizes: the size grid
/// is `1 + (b_max − 1)·i/(n − 1)`, so an irrational-ish fractional `b_max`
/// over a coarse grid puts every interior size off the integer lattice.
/// This is the shape `AttackSweep::up_to` produces in practice, and the
/// one the lattice fast path's documented invariant used to be wrong for.
fn arb_fractional_sweep() -> impl Strategy<Value = AttackSweep> {
    (1u32..160_000, 2usize..60).prop_map(|(sixteenths, n)| {
        AttackSweep::new(1.0 + f64::from(sixteenths) / 16.0 + 0.03125, n)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Integer feature counts (the paper's data shape — exercises the
    /// lattice fast path).
    #[test]
    fn kernel_matches_naive_on_integer_counts(
        counts in proptest::collection::vec(0u64..5_000, 1..700),
        sweep in arb_sweep(),
    ) {
        let dist = EmpiricalDist::from_counts(&counts);
        assert_bitwise_equal(&dist, &sweep);
    }

    /// Arbitrary real-valued samples (exercises the merge fallback).
    #[test]
    fn kernel_matches_naive_on_real_samples(
        samples in proptest::collection::vec(0.0f64..1e4, 1..300),
        sweep in arb_sweep(),
    ) {
        let dist = EmpiricalDist::from_samples(samples);
        assert_bitwise_equal(&dist, &sweep);
    }

    /// Integer lattices far from zero: the count-table offset must not
    /// perturb anything.
    #[test]
    fn kernel_matches_naive_on_offset_lattice(
        base in 0u64..1_000_000_000,
        counts in proptest::collection::vec(0u64..500, 1..200),
        sweep in arb_sweep(),
    ) {
        let shifted: Vec<u64> = counts.iter().map(|&c| base + c).collect();
        let dist = EmpiricalDist::from_counts(&shifted);
        assert_bitwise_equal(&dist, &sweep);
    }

    /// Sparse integer values spanning a huge range (forces the lattice
    /// gate to reject and take the merge path on integral data).
    #[test]
    fn kernel_matches_naive_on_wide_range_integers(
        counts in proptest::collection::vec(0u64..1_000_000_000, 1..40),
        sweep in arb_sweep(),
    ) {
        let dist = EmpiricalDist::from_counts(&counts);
        assert_bitwise_equal(&dist, &sweep);
    }

    /// Degenerate shapes: a single sample, all-equal samples, and the
    /// minimal sweep (b_max = 1 collapses the size grid to {1, 1}).
    #[test]
    fn kernel_matches_naive_on_degenerate_inputs(
        value in 0u64..10_000,
        n_copies in 1usize..50,
        n_points in 2usize..20,
    ) {
        let dist = EmpiricalDist::from_counts(&vec![value; n_copies]);
        assert_bitwise_equal(&dist, &AttackSweep::new(1.0, n_points));
        assert_bitwise_equal(&dist, &AttackSweep::up_to(value as f64 + 1.0));
    }

    /// Explicitly fractional attack sizes over integer lattices: cuts
    /// `t − b` fall strictly between lattice points, so the fast path's
    /// `#{g < c} = #{g ≤ ⌈c⌉ − 1}` identity is exercised in its
    /// `⌊c⌋ = ⌈c⌉ − 1` branch at every candidate, including cuts at or
    /// below the lattice origin (the historical cast-saturation hazard).
    #[test]
    fn kernel_matches_naive_on_lattice_with_fractional_sizes(
        counts in proptest::collection::vec(0u64..2_000, 1..400),
        sweep in arb_fractional_sweep(),
    ) {
        let dist = EmpiricalDist::from_counts(&counts);
        assert_bitwise_equal(&dist, &sweep);
    }

    /// Mixed fractional thresholds AND fractional sizes: samples on a
    /// quarter-integer grid make the candidate thresholds themselves
    /// non-integral (merge path), while the sweep keeps the cuts
    /// fractional too — nothing in the pipeline is lattice-aligned.
    #[test]
    fn kernel_matches_naive_on_fractional_thresholds_and_sizes(
        quarters in proptest::collection::vec(0u64..40_000, 1..300),
        sweep in arb_fractional_sweep(),
    ) {
        let samples: Vec<f64> = quarters.iter().map(|&q| q as f64 / 4.0).collect();
        let dist = EmpiricalDist::from_samples(samples);
        assert_bitwise_equal(&dist, &sweep);
    }

    /// The heuristics built on the kernel agree with naive scoring end to
    /// end: UtilityMax and FMeasure pick exactly the naive argmax.
    #[test]
    fn heuristics_match_naive_argmax(
        counts in proptest::collection::vec(0u64..3_000, 2..400),
        w in 0.05f64..0.95,
        prevalence in 0.001f64..0.2,
        sweep in arb_sweep(),
    ) {
        let dist = EmpiricalDist::from_counts(&counts);
        let (t, fp, mean_fn) = naive_table(&dist, &sweep);

        let utility = ThresholdHeuristic::UtilityMax { w, sweep: sweep.clone() }
            .threshold(&dist);
        let naive_u = naive_best(&t, &fp, &mean_fn, |fp, fnr| {
            1.0 - (w * fnr + (1.0 - w) * fp)
        });
        prop_assert_eq!(utility.to_bits(), naive_u.to_bits());

        let fmeasure = ThresholdHeuristic::FMeasure { prevalence, sweep: sweep.clone() }
            .threshold(&dist);
        let naive_f = naive_best(&t, &fp, &mean_fn, |fpr, fn_rate| {
            let recall = 1.0 - fn_rate;
            let tp = prevalence * recall;
            let fp = (1.0 - prevalence) * fpr;
            if tp + fp == 0.0 {
                0.0
            } else {
                let precision = tp / (tp + fp);
                if precision + recall == 0.0 {
                    0.0
                } else {
                    2.0 * precision * recall / (precision + recall)
                }
            }
        });
        prop_assert_eq!(fmeasure.to_bits(), naive_f.to_bits());
    }
}

/// The per-host scoring the evaluation closures used to inline:
/// `(fp, fn_rate, utility, false_alarms)` with alarms tallied over the
/// stored counts.
fn historical_score(
    test: &EmpiricalDist,
    counts: &[u64],
    t: f64,
    sweep: &AttackSweep,
    w: f64,
) -> (f64, f64, f64, u64) {
    let fp = test.exceedance(t);
    let fn_rate = sweep.mean_fn(test, t);
    let utility = 1.0 - (w * fn_rate + (1.0 - w) * fp);
    let false_alarms = counts.iter().filter(|&&c| c as f64 > t).count() as u64;
    (fp, fn_rate, utility, false_alarms)
}

/// A threshold near the data: an observed count, shifted by nothing, by
/// a half step, by one, or by an arbitrary real (so `t` lands on,
/// between, below and above the stored values).
fn pick_threshold(counts: &[u64], idx: proptest::sample::Index, shift: f64) -> f64 {
    counts[idx.index(counts.len())] as f64 + shift
}

fn arb_shift() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(0.5), Just(-1.0), Just(1.0), -6000.0f64..6000.0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `UserPerf::score` over an `EmpiricalDist` reproduces the inline
    /// expressions bit for bit, and its `round(fp·n)` alarm count equals
    /// the stored-count tally.
    #[test]
    fn score_matches_historical_inline_expressions(
        counts in proptest::collection::vec(0u64..5_000, 1..700),
        idx in any::<proptest::sample::Index>(),
        shift in arb_shift(),
        w in 0.0f64..=1.0,
        sweep in arb_sweep(),
    ) {
        let test = EmpiricalDist::from_counts(&counts);
        let t = pick_threshold(&counts, idx, shift);
        let perf = UserPerf::score(&test, t, &sweep, w);
        let (fp, fn_rate, utility, false_alarms) = historical_score(&test, &counts, t, &sweep, w);
        prop_assert_eq!(perf.threshold.to_bits(), t.to_bits());
        prop_assert_eq!(perf.fp.to_bits(), fp.to_bits());
        prop_assert_eq!(perf.fn_rate.to_bits(), fn_rate.to_bits());
        prop_assert_eq!(perf.utility.to_bits(), utility.to_bits());
        prop_assert_eq!(perf.false_alarms, false_alarms);
    }

    /// Every heuristic fits the same threshold, bit for bit, whether the
    /// exact backend is passed directly or wrapped in `QuantileSource`.
    #[test]
    fn threshold_over_source_matches_direct(
        counts in proptest::collection::vec(0u64..3_000, 1..400),
        q in 0.0f64..=1.0,
        k in 0.0f64..5.0,
        w in 0.0f64..=1.0,
        prevalence in 0.001f64..0.5,
        sweep in arb_sweep(),
    ) {
        let d = EmpiricalDist::from_counts(&counts);
        let src = QuantileSource::Exact(d.clone());
        for h in [
            ThresholdHeuristic::Percentile(q),
            ThresholdHeuristic::MeanSigma(k),
            ThresholdHeuristic::UtilityMax { w, sweep: sweep.clone() },
            ThresholdHeuristic::FMeasure { prevalence, sweep: sweep.clone() },
        ] {
            let direct = h.threshold(&d);
            prop_assert_eq!(direct.to_bits(), h.threshold(src.as_backend()).to_bits(), "{:?}", h);
            prop_assert_eq!(direct.to_bits(), h.threshold_source(&src).to_bits(), "{:?}", h);
        }
    }
}

// Pinned counterexample shapes for the fractional-size lattice hazard:
// before the index math was made total, the fast path's correctness for
// cuts at or below the lattice origin depended on the skip predicate
// (an optimisation) rescuing a cast that would otherwise saturate
// `⌈t − b⌉ − lo ≤ 0` to slot 0 and count the samples *equal to* `lo` as
// strictly below it. These pins hold the hazard shapes in place even if
// the proptest strategies drift.

/// Fractional sizes whose cuts land at and below the lattice origin:
/// sizes {1, 1.5, 2, 2.5} against lo = 3 put cuts 0.5..=2.0 under the
/// origin for the lowest candidate.
#[test]
fn regression_fractional_cut_at_or_below_lattice_origin() {
    let dist = EmpiricalDist::from_counts(&[3, 4, 5]);
    assert_bitwise_equal(&dist, &AttackSweep::new(2.5, 4));
}

/// Integral size landing a cut *exactly on* the origin (t − b == lo):
/// `#{g < lo}` must be 0, not the multiplicity of `lo`.
#[test]
fn regression_integral_cut_exactly_on_origin() {
    let dist = EmpiricalDist::from_counts(&[5, 5, 5, 9]);
    // size grid {1, 2, 3, 4}: candidate t = 9 with b = 4 cuts at 5 = lo.
    assert_bitwise_equal(&dist, &AttackSweep::new(4.0, 4));
}

/// All-equal lattice (range 0, one interior slot) under fractional sizes.
#[test]
fn regression_all_equal_lattice_fractional_sizes() {
    let dist = EmpiricalDist::from_counts(&[9, 9, 9]);
    assert_bitwise_equal(&dist, &AttackSweep::new(1.25, 3));
}

/// A duplicated-value lattice with a sub-1-step fractional sweep: every
/// interior cut has `⌊c⌋ = ⌈c⌉ − 1` and oversized candidates clamp to
/// the "all below" slot.
#[test]
fn regression_duplicates_with_fractional_sizes() {
    let dist = EmpiricalDist::from_counts(&[0, 2, 2, 7]);
    assert_bitwise_equal(&dist, &AttackSweep::new(3.75, 5));
}
