//! Empirical distribution over stored samples.

/// An empirical distribution built from a batch of observations.
///
/// This is the object every end host builds from its training week: the
/// sorted per-window feature counts, from which percentile thresholds and
/// exceedance probabilities are read off.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalDist {
    sorted: Vec<f64>,
    /// Cached at construction: heuristics read these once per threshold
    /// candidate, so recomputing per call would be O(n) each time.
    mean: f64,
    stddev: f64,
}

impl EmpiricalDist {
    /// Build from samples. Non-finite values are rejected.
    ///
    /// # Panics
    /// Panics if `samples` is empty or contains NaN/infinities — the callers
    /// in this workspace always have at least one bin per window.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "empirical distribution needs samples");
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "samples must be finite"
        );
        samples.sort_by(|a, b| a.total_cmp(b));
        Self::from_sorted(samples)
    }

    /// Build from samples already in `total_cmp` order, summing the mean
    /// and the squared deviations in that order.
    fn from_sorted(sorted: Vec<f64>) -> Self {
        assert!(!sorted.is_empty(), "empirical distribution needs samples");
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let stddev = if n < 2 {
            0.0
        } else {
            let ss: f64 = sorted.iter().map(|x| (x - mean).powi(2)).sum();
            (ss / (n - 1) as f64).sqrt()
        };
        Self {
            sorted,
            mean,
            stddev,
        }
    }

    /// Build from integer counts (the common case for feature bins).
    /// Sorts once, in the integer domain: `u64 → f64` never decreases and
    /// never yields a non-finite value, so the converted samples are
    /// already in `total_cmp` order and need neither a second sort nor a
    /// finiteness check.
    pub fn from_counts(counts: &[u64]) -> Self {
        let mut counts = counts.to_vec();
        counts.sort_unstable();
        Self::from_sorted(counts.iter().map(|&c| c as f64).collect())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the distribution holds no samples. Construction requires at
    /// least one sample, so this is false for any reachable value; it
    /// delegates rather than hard-coding that invariant.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }

    /// Sample mean (cached at construction).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample standard deviation, 0 for a single sample (cached
    /// at construction).
    pub fn stddev(&self) -> f64 {
        self.stddev
    }

    /// Quantile by linear interpolation (Hyndman–Fan type 7, the R/NumPy
    /// default). `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            self.sorted[lo]
        } else {
            let frac = pos - lo as f64;
            self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
        }
    }

    /// The smallest stored sample `v` such that at least `q·n` samples are
    /// `≤ v` (a value that actually occurred; used where the paper extracts
    /// "the 99th percentile value" of integer counts).
    pub fn quantile_discrete(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }

    /// Empirical CDF: fraction of samples `≤ x`.
    pub fn cdf(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Exceedance probability: fraction of samples strictly greater than
    /// `x`. For a threshold `T` this is exactly the false-positive rate
    /// `P(g > T)`.
    pub fn exceedance(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }

    /// Fraction of samples strictly below `x`: for an attack of size `b`
    /// and threshold `T`, `P(g + b < T) = below(T - b)` is the paper's
    /// false-negative rate.
    pub fn below(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v < x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Largest shift `b ≥ 0` such that `P(X + b < t) ≥ prob`, i.e. the
    /// mimicry attacker's evasion budget against threshold `t`.
    ///
    /// Returns 0 when even `b = 0` cannot achieve `prob` (the threshold
    /// already sits deep inside the distribution).
    pub fn max_shift_below(&self, t: f64, prob: f64) -> f64 {
        let n = self.sorted.len();
        let need = (prob * n as f64).ceil() as usize;
        if need == 0 {
            // Any b works; cap at t - min so the flow stays non-negative.
            return (t - self.min()).max(0.0);
        }
        if need > n {
            return 0.0;
        }
        // Need the `need` smallest samples to stay strictly below t after
        // the shift: x_(need) + b < t  =>  b < t - x_(need).
        let x = self.sorted[need - 1];
        // Largest b satisfying the strict inequality on integer-valued
        // features is t - x - 1, but features may be non-integral after
        // interpolation; use the open-interval supremum minus an epsilon-
        // free formulation: return the bound itself clamped at 0, and let
        // callers on integer lattices floor it.
        (t - x).max(0.0)
    }

    /// Borrow the sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Merge several distributions into the pooled ("ensembled") global
    /// distribution the homogeneous policy computes at the IT console.
    ///
    /// Every member is already sorted. Members on one non-negative
    /// `lo + ℤ` lattice (feature counts) are pooled by counting in one
    /// pass; anything else merges the sorted runs pairwise
    /// ([`oracle::pool`]). Either way the result — samples, mean
    /// and stddev — is exactly what [`EmpiricalDist::from_samples`] gives
    /// on the concatenation.
    ///
    /// # Panics
    /// Panics if `dists` is empty.
    pub fn pool<'a>(dists: impl IntoIterator<Item = &'a EmpiricalDist>) -> EmpiricalDist {
        let runs: Vec<&[f64]> = dists.into_iter().map(|d| d.samples()).collect();
        match pool_by_counting(&runs) {
            Some(sorted) => EmpiricalDist::from_sorted(sorted),
            None => merge_pool(&runs),
        }
    }
}

/// Pool `total_cmp`-sorted runs by counting, or `None` where that cannot
/// reproduce the merge bit for bit.
///
/// Applies when every run starts at or above `+0.0` (so no run holds
/// `-0.0` or a negative sample), the pooled span `hi − lo` is at most
/// `4n + 4096`, and every distinct sample `v` is `lo + k` exactly for
/// `k = (v − lo) as usize`, checked on its bits. Non-negative samples
/// sort under `total_cmp` in numeric order, `lo + k` never decreases in
/// `k`, and distinct slots hold distinct values, so emitting each slot's
/// value as many times as it was counted is the merged sequence.
fn pool_by_counting(runs: &[&[f64]]) -> Option<Vec<f64>> {
    let n: usize = runs.iter().map(|r| r.len()).sum();
    let mut bounds = runs.iter().filter_map(|r| Some((*r.first()?, *r.last()?)));
    let (mut lo, mut hi) = bounds.next()?;
    for (first, last) in bounds {
        lo = lo.min(first);
        hi = hi.max(last);
    }
    let starts_non_negative = runs
        .iter()
        .all(|r| r.first().is_none_or(|v| v.total_cmp(&0.0).is_ge()));
    if !starts_non_negative || hi - lo > 4.0 * n as f64 + 4096.0 {
        return None;
    }
    let mut count = vec![0usize; (hi - lo) as usize + 1];
    for run in runs {
        let mut i = 0;
        while i < run.len() {
            let v = run[i];
            let len = run[i..].partition_point(|x| x.to_bits() == v.to_bits());
            let k = (v - lo) as usize;
            if (lo + k as f64).to_bits() != v.to_bits() {
                return None;
            }
            count[k] += len;
            i += len;
        }
    }
    let mut sorted = Vec::with_capacity(n);
    for (k, &c) in count.iter().enumerate() {
        if c > 0 {
            sorted.resize(sorted.len() + c, lo + k as f64);
        }
    }
    Some(sorted)
}

/// Pool sorted runs by merging them pairwise, round by round. `total_cmp`
/// is a total order on finite values in which ties are bit-identical, so
/// this equals sorting the concatenation.
///
/// # Panics
/// Panics if `runs` holds no samples.
fn merge_pool(runs: &[&[f64]]) -> EmpiricalDist {
    let mut src: Vec<f64> = Vec::new();
    let mut ends: Vec<usize> = Vec::new();
    for run in runs {
        src.extend_from_slice(run);
        ends.push(src.len());
    }
    let mut dst = vec![0.0; src.len()];
    while ends.len() > 1 {
        let mut start = 0;
        for pair in ends.chunks(2) {
            let end = pair[pair.len() - 1];
            let out = &mut dst[start..end];
            match *pair {
                [mid, _] => merge_runs(&src[start..mid], &src[mid..end], out),
                _ => out.copy_from_slice(&src[start..end]),
            }
            start = end;
        }
        ends = ends.chunks(2).map(|pair| pair[pair.len() - 1]).collect();
        std::mem::swap(&mut src, &mut dst);
    }
    EmpiricalDist::from_sorted(src)
}

/// Merge two `total_cmp`-sorted runs into `out` (`a.len() + b.len()` long).
fn merge_runs(a: &[f64], b: &[f64], out: &mut [f64]) {
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        if b[j].total_cmp(&a[i]).is_lt() {
            out[k] = b[j];
            j += 1;
        } else {
            out[k] = a[i];
            i += 1;
        }
        k += 1;
    }
    let rest_a = a.len() - i;
    out[k..k + rest_a].copy_from_slice(&a[i..]);
    out[k + rest_a..].copy_from_slice(&b[j..]);
}

/// The pairwise merge [`EmpiricalDist::pool`] falls back to, callable on
/// its own as the differential-test and benchmark oracle of the counting
/// path.
pub mod oracle {
    use super::EmpiricalDist;

    /// [`EmpiricalDist::pool`] by merging sorted runs, whatever their values.
    ///
    /// # Panics
    /// Panics if `dists` is empty.
    pub fn pool<'a>(dists: impl IntoIterator<Item = &'a EmpiricalDist>) -> EmpiricalDist {
        let runs: Vec<&[f64]> = dists.into_iter().map(|d| d.samples()).collect();
        super::merge_pool(&runs)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn dist(v: &[f64]) -> EmpiricalDist {
        EmpiricalDist::from_samples(v.to_vec())
    }

    #[test]
    fn quantile_interpolation_matches_numpy_type7() {
        let d = dist(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.quantile(0.0), 1.0);
        assert_eq!(d.quantile(1.0), 4.0);
        assert!((d.quantile(0.5) - 2.5).abs() < 1e-12);
        assert!((d.quantile(0.25) - 1.75).abs() < 1e-12);
        assert!((d.quantile(0.99) - 3.97).abs() < 1e-12);
    }

    #[test]
    fn quantile_discrete_returns_observed_values() {
        let d = dist(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(d.quantile_discrete(0.0), 10.0);
        assert_eq!(d.quantile_discrete(0.2), 10.0);
        assert_eq!(d.quantile_discrete(0.21), 20.0);
        assert_eq!(d.quantile_discrete(0.99), 50.0);
        assert_eq!(d.quantile_discrete(1.0), 50.0);
    }

    #[test]
    fn cdf_exceedance_below_consistency() {
        let d = dist(&[1.0, 1.0, 2.0, 3.0]);
        assert!((d.cdf(1.0) - 0.5).abs() < 1e-12);
        assert!((d.cdf(0.5) - 0.0).abs() < 1e-12);
        assert!((d.exceedance(2.0) - 0.25).abs() < 1e-12);
        assert!((d.below(2.0) - 0.5).abs() < 1e-12);
        assert!((d.below(1.0) - 0.0).abs() < 1e-12);
        assert_eq!(d.cdf(100.0), 1.0);
    }

    #[test]
    fn single_sample_degenerate() {
        let d = dist(&[7.0]);
        assert_eq!(d.quantile(0.3), 7.0);
        assert_eq!(d.stddev(), 0.0);
        assert_eq!(d.mean(), 7.0);
    }

    #[test]
    fn max_shift_below_mimicry_budget() {
        // Samples 0..=99; threshold 200, want P(X + b < 200) >= 0.9.
        let d = EmpiricalDist::from_counts(&(0u64..100).collect::<Vec<_>>());
        // Need the 90 smallest (x = 89) below: b = 200 - 89 = 111.
        let b = d.max_shift_below(200.0, 0.9);
        assert!((b - 111.0).abs() < 1e-12);
        // Shifting by exactly b keeps 89 + 111 = 200 NOT below 200; the
        // budget is a supremum. One less is safe:
        assert!(d.below(200.0 - (b - 1.0)) >= 0.9);
    }

    #[test]
    fn max_shift_below_zero_when_threshold_inside_bulk() {
        let d = EmpiricalDist::from_counts(&[10, 10, 10, 10]);
        // P(X + b < 5) can never reach 0.9 even at b=0.
        assert_eq!(d.max_shift_below(5.0, 0.9), 0.0);
    }

    #[test]
    fn pooling_matches_concatenation() {
        let a = dist(&[1.0, 5.0]);
        let b = dist(&[2.0, 10.0]);
        let pooled = EmpiricalDist::pool([&a, &b]);
        assert_eq!(pooled.len(), 4);
        assert_eq!(pooled.samples(), &[1.0, 2.0, 5.0, 10.0]);
    }

    /// The pre-merge `pool` body: concatenate and sort again.
    fn pool_oracle(dists: &[EmpiricalDist]) -> EmpiricalDist {
        let mut all = Vec::new();
        for d in dists {
            all.extend_from_slice(d.samples());
        }
        EmpiricalDist::from_samples(all)
    }

    fn assert_bitwise_eq(a: &EmpiricalDist, b: &EmpiricalDist) {
        let bits = |d: &EmpiricalDist| d.samples().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b));
        assert_eq!(a.mean().to_bits(), b.mean().to_bits());
        assert_eq!(a.stddev().to_bits(), b.stddev().to_bits());
    }

    #[test]
    fn pool_merges_edge_shapes_like_the_oracle() {
        let one = vec![dist(&[3.0, 1.0, 2.0])];
        let singles: Vec<EmpiricalDist> = [4.0, 0.0, -0.0, 4.0, -2.5]
            .iter()
            .map(|&x| dist(&[x]))
            .collect();
        let skewed = vec![
            dist(&[7.0]),
            EmpiricalDist::from_counts(&(0..500u64).map(|i| i % 37).collect::<Vec<_>>()),
            dist(&[0.0, 7.0]),
        ];
        for dists in [one, singles, skewed] {
            assert_bitwise_eq(&EmpiricalDist::pool(&dists), &pool_oracle(&dists));
        }
    }

    #[test]
    #[should_panic(expected = "needs samples")]
    fn pooling_nothing_rejected() {
        let _ = EmpiricalDist::pool(std::iter::empty());
    }

    /// The sample value of count `c` under each pooling proptest shape.
    fn shaped(c: u64, shape: u8) -> f64 {
        let x = c as f64;
        match shape {
            // Integer and half-integer lattices: the counting path.
            0 => x,
            1 => x + 0.5,
            // Off the lattice, and negative: the merge.
            2 => x * 0.37,
            3 => x * -2.5,
            // `-0.0` and `+0.0` among positive counts.
            4 if c % 3 == 0 => {
                if c % 2 == 0 {
                    -0.0
                } else {
                    0.0
                }
            }
            4 => x,
            // Spans wider than the counting bound.
            5 => x * 1e4,
            // Offsets at and above 2^53, where the f64 lattice thins out.
            6 => x * 2.0 + 2f64.powi(53),
            _ => x + 2f64.powi(60),
        }
    }

    #[test]
    fn counting_pool_takes_lattices_and_leaves_the_rest() {
        let pooled = |runs: &[&[f64]]| {
            let dists: Vec<EmpiricalDist> = runs.iter().map(|r| dist(r)).collect();
            let counted = pool_by_counting(&dists.iter().map(|d| d.samples()).collect::<Vec<_>>());
            if let Some(sorted) = &counted {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(sorted), bits(oracle::pool(&dists).samples()));
            }
            counted.is_some()
        };
        let big = 2f64.powi(53);
        // Counted: integers, a half-integer lattice, +0.0, offsets at and
        // above 2^53, a span right at the bound (n = 2, 4n + 4096), and one
        // repeated huge value.
        assert!(pooled(&[&[0.0, 3.0, 3.0], &[1.0, 2.0]]));
        assert!(pooled(&[&[0.5, 3.5], &[1.5, 1.5, 9.5]]));
        assert!(pooled(&[&[big, big + 2.0], &[big + 6.0]]));
        assert!(pooled(&[&[2f64.powi(60)], &[2f64.powi(60) + 256.0]]));
        assert!(pooled(&[&[7.0], &[7.0 + 4104.0]]));
        assert!(pooled(&[&[1e300, 1e300], &[1e300]]));
        // Merged: `-0.0` (alone or beside `+0.0`), negatives, two lattices
        // at once, a span one past the bound, and fractions.
        assert!(!pooled(&[&[-0.0, 0.0, 1.0], &[2.0]]));
        assert!(!pooled(&[&[-0.0]]));
        assert!(!pooled(&[&[-1.0, 2.0], &[0.0]]));
        assert!(!pooled(&[&[0.5, 1.5], &[1.0]]));
        assert!(!pooled(&[&[7.0], &[7.0 + 4105.0]]));
        assert!(!pooled(&[&[0.0, 0.37, 0.74]]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The pool equals concatenate-and-sort and the retained merge bit
        /// for bit, over runs with duplicates, single-sample members and
        /// skewed lengths, on lattices the counting path takes and shapes
        /// it must leave to the merge.
        #[test]
        fn pool_merge_matches_concat_and_sort(
            runs in prop_oneof![
                proptest::collection::vec(
                    prop_oneof![
                        proptest::collection::vec(0u64..40, 1..4),
                        proptest::collection::vec(0u64..40, 1..30),
                        proptest::collection::vec(0u64..5000, 200..700),
                    ],
                    1..24,
                ),
                proptest::collection::vec(proptest::collection::vec(0u64..60, 1..2), 50..300),
            ],
            shape in 0u8..8,
        ) {
            let runs: Vec<Vec<u64>> = runs;
            let dists: Vec<EmpiricalDist> = runs
                .iter()
                .map(|r| {
                    EmpiricalDist::from_samples(r.iter().map(|&c| shaped(c, shape)).collect())
                })
                .collect();
            let pooled = EmpiricalDist::pool(&dists);
            let sorted = pool_oracle(&dists);
            prop_assert_eq!(pooled.len(), sorted.len());
            assert_bitwise_eq(&pooled, &sorted);
            assert_bitwise_eq(&oracle::pool(&dists), &sorted);
        }

        /// Sorting counts once, as integers, gives the distribution that
        /// converting and sorting as floats gives, up to and including
        /// `u64::MAX`, where the conversion rounds many counts together.
        #[test]
        fn from_counts_matches_from_samples(
            counts in proptest::collection::vec(
                prop_oneof![
                    0u64..50,
                    (1u64 << 53) - 8..(1u64 << 53) + 64,
                    any::<u64>(),
                    Just(u64::MAX),
                ],
                1..300,
            ),
        ) {
            let once = EmpiricalDist::from_counts(&counts);
            let twice = EmpiricalDist::from_samples(counts.iter().map(|&c| c as f64).collect());
            assert_bitwise_eq(&once, &twice);
        }
    }

    #[test]
    fn stats_basics() {
        let d = dist(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((d.mean() - 5.0).abs() < 1e-12);
        assert!((d.stddev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(d.min(), 2.0);
        assert_eq!(d.max(), 9.0);
    }

    #[test]
    #[should_panic(expected = "needs samples")]
    fn empty_rejected() {
        let _ = EmpiricalDist::from_samples(vec![]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = EmpiricalDist::from_samples(vec![1.0, f64::NAN]);
    }
}
