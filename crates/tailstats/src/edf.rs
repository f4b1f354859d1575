//! Empirical distribution over run-length-encoded samples.

pub mod oracle;

/// An empirical distribution built from a batch of observations.
///
/// This is the object every end host builds from its training week: its
/// per-window feature counts, from which percentile thresholds and
/// exceedance probabilities are read off. A week of 672 windows holds a
/// few dozen distinct counts, so the samples are stored as runs: the
/// distinct values, ascending in `total_cmp` order (no two share bits),
/// each with the number of samples at or below it. Every query returns
/// the bits the sorted-sample [`oracle::EmpiricalDist`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalDist {
    values: Vec<f64>,
    /// `ends[i]` = number of samples `≤ values[i]`: strictly ascending,
    /// the last one is `len()`.
    ends: Vec<usize>,
}

/// Counts below this are tallied by value when building from counts; the
/// rest are sorted.
const HEAD: usize = 256;

impl EmpiricalDist {
    fn with_capacity(runs: usize) -> Self {
        Self {
            values: Vec::with_capacity(runs),
            ends: Vec::with_capacity(runs),
        }
    }

    /// Append `count` samples of `v`, which must not sort below the last
    /// run; a `v` with the last run's bits extends that run.
    fn push_run(&mut self, v: f64, count: usize) {
        let end = self.len() + count;
        match self.values.last() {
            Some(last) if last.to_bits() == v.to_bits() => {
                *self.ends.last_mut().expect("one end per value") = end;
            }
            _ => {
                self.values.push(v);
                self.ends.push(end);
            }
        }
    }

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
        let mut d = Self::with_capacity(0);
        for &x in &samples {
            d.push_run(x, 1);
        }
        d
    }

    /// Build from integer counts (the common case for feature bins).
    pub fn from_counts(counts: &[u64]) -> Self {
        Self::from_count_iter(counts.iter().copied())
    }

    /// Build from integer counts without copying them, so a strided
    /// column such as one feature of a week's windows is read in place.
    ///
    /// Feature counts are small and heavy-tailed: a user-week of 672
    /// windows holds about 27 distinct counts, 79% of its windows are 0,
    /// but its span averages ~1800. So counts below [`HEAD`] are tallied
    /// by value into four tables, the i-th count into table `i mod 4`
    /// (one table would chain every increment of the 0 slot through
    /// memory), and the tail at or above it — 3.4% of the corpus's counts
    /// — is read again, copied and sorted. `u64 → f64` never decreases
    /// and is always finite, so the runs come out in `total_cmp` order;
    /// counts above 2^53 that round to one `f64` share its run.
    ///
    /// # Panics
    /// Panics if `counts` is empty or longer than `u32::MAX`.
    pub fn from_count_iter<I: ExactSizeIterator<Item = u64> + Clone>(counts: I) -> Self {
        assert!(
            u32::try_from(counts.len()).is_ok(),
            "count tables hold at most u32::MAX samples"
        );
        let mut tables = [[0u32; HEAD + 1]; 4];
        let mut it = counts.clone();
        'tally: loop {
            for table in &mut tables {
                let Some(c) = it.next() else { break 'tally };
                table[c.min(HEAD as u64) as usize] += 1;
            }
        }
        let head: [u32; HEAD] = std::array::from_fn(|k| tables.iter().map(|t| t[k]).sum());
        let mut tail: Vec<u64> = Vec::new();
        if tables.iter().any(|t| t[HEAD] > 0) {
            tail = counts.filter(|&c| c >= HEAD as u64).collect();
            tail.sort_unstable();
        }
        let runs = head.iter().filter(|&&c| c > 0).count() + tail.chunk_by(|a, b| a == b).count();
        assert!(runs > 0, "empirical distribution needs samples");
        let mut d = Self::with_capacity(runs);
        for (k, &c) in head.iter().enumerate() {
            if c > 0 {
                d.push_run(k as f64, c as usize);
            }
        }
        for run in tail.chunk_by(|a, b| a == b) {
            d.push_run(run[0] as f64, run.len());
        }
        d
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// Whether the distribution holds no samples. Construction requires at
    /// least one sample, so this is false for any reachable value; it
    /// delegates rather than hard-coding that invariant.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.values[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.values.last().expect("non-empty by construction")
    }

    /// Sample mean: the samples summed in ascending order, each run's
    /// value added once per sample, so it is the sum a sorted sample
    /// array gives. O(n); no threshold-fitting or scoring path reads it.
    pub fn mean(&self) -> f64 {
        self.samples().sum::<f64>() / self.len() as f64
    }

    /// Unbiased sample standard deviation, 0 for a single sample: the
    /// squared deviations from [`mean`](Self::mean) summed in the same
    /// order. O(n), like the mean.
    pub fn stddev(&self) -> f64 {
        let n = self.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let ss: f64 = self.samples().map(|x| (x - mean).powi(2)).sum();
        (ss / (n - 1) as f64).sqrt()
    }

    /// The sample at 0-based rank `i` (`i < len()`).
    fn sample(&self, i: usize) -> f64 {
        self.values[self.ends.partition_point(|&e| e <= i)]
    }

    /// Number of samples in the runs before run `j`.
    fn count_before(&self, j: usize) -> usize {
        j.checked_sub(1).map_or(0, |i| self.ends[i])
    }

    /// Quantile by linear interpolation (Hyndman–Fan type 7, the R/NumPy
    /// default). `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let n = self.len();
        if n == 1 {
            return self.values[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            self.sample(lo)
        } else {
            let frac = pos - lo as f64;
            self.sample(lo) * (1.0 - frac) + self.sample(hi) * frac
        }
    }

    /// The smallest stored sample `v` such that at least `q·n` samples are
    /// `≤ v` (a value that actually occurred; used where the paper extracts
    /// "the 99th percentile value" of integer counts).
    pub fn quantile_discrete(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let n = self.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.sample(rank - 1)
    }

    /// Empirical CDF: fraction of samples `≤ x`.
    pub fn cdf(&self, x: f64) -> f64 {
        let j = self.values.partition_point(|&v| v <= x);
        self.count_before(j) as f64 / self.len() as f64
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
        let j = self.values.partition_point(|&v| v < x);
        self.count_before(j) as f64 / self.len() as f64
    }

    /// Largest shift `b ≥ 0` such that `P(X + b < t) ≥ prob`, i.e. the
    /// mimicry attacker's evasion budget against threshold `t`.
    ///
    /// Returns 0 when even `b = 0` cannot achieve `prob` (the threshold
    /// already sits deep inside the distribution).
    pub fn max_shift_below(&self, t: f64, prob: f64) -> f64 {
        let n = self.len();
        let need = (prob * n as f64).ceil() as usize;
        if need == 0 {
            // Any b works; cap at t - min so the flow stays non-negative.
            return (t - self.min()).max(0.0);
        }
        if need > n {
            return 0.0;
        }
        // Need the `need` smallest samples to stay strictly below t after
        // the shift: x_(need) + b < t  =>  b < t - x_(need). The bound is
        // a supremum; callers on integer lattices floor it.
        (t - self.sample(need - 1)).max(0.0)
    }

    /// The runs, ascending: each distinct value with its sample count.
    pub fn runs(&self) -> impl DoubleEndedIterator<Item = (f64, usize)> + ExactSizeIterator + '_ {
        (0..self.values.len()).map(move |i| (self.values[i], self.ends[i] - self.count_before(i)))
    }

    /// Every sample, ascending (each run's value repeated).
    pub fn samples(&self) -> impl DoubleEndedIterator<Item = &f64> + '_ {
        (0..self.values.len()).flat_map(move |i| {
            std::iter::repeat_n(&self.values[i], self.ends[i] - self.count_before(i))
        })
    }

    /// The distinct values, ascending, and the count of samples at or
    /// below each: the view a whole-distribution kernel scans.
    pub(crate) fn run_table(&self) -> (&[f64], &[usize]) {
        (&self.values, &self.ends)
    }

    /// Merge several distributions into the pooled ("ensembled") global
    /// distribution the homogeneous policy computes at the IT console.
    ///
    /// Members on one non-negative `lo + ℤ` lattice (feature counts) whose
    /// pooled span fits the counting bound are pooled by counting their
    /// runs into one table; anything else concatenates the runs, sorts
    /// them by value and joins equal ones. Either way the result is what
    /// [`EmpiricalDist::from_samples`] gives on the concatenation.
    ///
    /// # Panics
    /// Panics if `dists` is empty.
    pub fn pool<'a>(dists: impl IntoIterator<Item = &'a EmpiricalDist>) -> EmpiricalDist {
        let dists: Vec<&EmpiricalDist> = dists.into_iter().collect();
        assert!(!dists.is_empty(), "empirical distribution needs samples");
        pool_by_counting(&dists).unwrap_or_else(|| merge_runs(&dists))
    }
}

/// Pool runs by counting, or `None` where that cannot reproduce the merge
/// bit for bit.
///
/// Applies when every member starts at or above `+0.0` (so none holds
/// `-0.0` or a negative sample), the pooled span `hi − lo` is at most
/// `4n + 4096` (a table a few times the samples it replaces), and every
/// run's value `v` is `lo + k` exactly for `k = (v − lo) as usize`,
/// checked on its bits. Non-negative values sort under `total_cmp` in
/// numeric order, `lo + k` never decreases in `k`, and distinct slots
/// hold distinct values, so the non-empty slots in order are the merged
/// runs.
fn pool_by_counting(dists: &[&EmpiricalDist]) -> Option<EmpiricalDist> {
    let n: usize = dists.iter().map(|d| d.len()).sum();
    let lo = dists.iter().map(|d| d.min()).fold(f64::INFINITY, f64::min);
    let hi = dists
        .iter()
        .map(|d| d.max())
        .fold(f64::NEG_INFINITY, f64::max);
    let starts_non_negative = dists.iter().all(|d| d.min().total_cmp(&0.0).is_ge());
    if !starts_non_negative || hi - lo > 4.0 * n as f64 + 4096.0 {
        return None;
    }
    let mut count = vec![0usize; (hi - lo) as usize + 1];
    for d in dists {
        for (v, c) in d.runs() {
            let k = (v - lo) as usize;
            if (lo + k as f64).to_bits() != v.to_bits() {
                return None;
            }
            count[k] += c;
        }
    }
    let mut pooled = EmpiricalDist::with_capacity(0);
    for (k, &c) in count.iter().enumerate() {
        if c > 0 {
            pooled.push_run(lo + k as f64, c);
        }
    }
    Some(pooled)
}

/// Pool runs of any values: concatenate them, sort by value and join runs
/// of equal bits. `total_cmp` is a total order on finite values in which
/// ties are bit-identical, so this equals sorting the concatenated
/// samples.
fn merge_runs(dists: &[&EmpiricalDist]) -> EmpiricalDist {
    let mut runs: Vec<(f64, usize)> = dists.iter().flat_map(|d| d.runs()).collect();
    runs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let mut pooled = EmpiricalDist::with_capacity(runs.len());
    for (v, c) in runs {
        pooled.push_run(v, c);
    }
    pooled
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
    fn runs_join_equal_bits_only() {
        let d = dist(&[3.0, 0.0, -0.0, 3.0, 0.0, 1.5]);
        let runs: Vec<(u64, usize)> = d.runs().map(|(v, c)| (v.to_bits(), c)).collect();
        let want = [(-0.0f64, 1), (0.0, 2), (1.5, 1), (3.0, 2)];
        assert_eq!(runs, want.map(|(v, c)| (v.to_bits(), c)));
        // Counts past 2^53 that convert to one f64 share its run.
        let big = 1u64 << 53;
        let d = EmpiricalDist::from_counts(&[big, big + 1, big + 2]);
        assert_eq!(
            d.runs().collect::<Vec<_>>(),
            [(big as f64, 2), ((big + 2) as f64, 1)]
        );
    }

    #[test]
    fn pooling_matches_concatenation() {
        let a = dist(&[1.0, 5.0]);
        let b = dist(&[2.0, 10.0]);
        let pooled = EmpiricalDist::pool([&a, &b]);
        assert_eq!(pooled.len(), 4);
        assert_eq!(
            pooled.samples().copied().collect::<Vec<_>>(),
            [1.0, 2.0, 5.0, 10.0]
        );
    }

    /// Concatenate the members' samples and sort again.
    fn pool_oracle(dists: &[EmpiricalDist]) -> EmpiricalDist {
        EmpiricalDist::from_samples(dists.iter().flat_map(|d| d.samples().copied()).collect())
    }

    fn assert_bitwise_eq(a: &EmpiricalDist, b: &EmpiricalDist) {
        let bits = |d: &EmpiricalDist| d.samples().map(|x| x.to_bits()).collect::<Vec<_>>();
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
            let sorted = pool_oracle(&dists);
            assert_bitwise_eq(&EmpiricalDist::pool(&dists), &sorted);
            assert_bitwise_eq(&merge_runs(&dists.iter().collect::<Vec<_>>()), &sorted);
        }
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
        let counted = |members: &[&[f64]]| {
            let dists: Vec<EmpiricalDist> = members.iter().map(|m| dist(m)).collect();
            let refs: Vec<&EmpiricalDist> = dists.iter().collect();
            let counted = pool_by_counting(&refs);
            if let Some(pooled) = &counted {
                assert_bitwise_eq(pooled, &merge_runs(&refs));
            }
            counted.is_some()
        };
        let big = 2f64.powi(53);
        // Counted: integers, a half-integer lattice, +0.0, offsets at and
        // above 2^53, a span right at the bound (n = 2, 4n + 4096), and one
        // repeated huge value.
        assert!(counted(&[&[0.0, 3.0, 3.0], &[1.0, 2.0]]));
        assert!(counted(&[&[0.5, 3.5], &[1.5, 1.5, 9.5]]));
        assert!(counted(&[&[big, big + 2.0], &[big + 6.0]]));
        assert!(counted(&[&[2f64.powi(60)], &[2f64.powi(60) + 256.0]]));
        assert!(counted(&[&[7.0], &[7.0 + 4104.0]]));
        assert!(counted(&[&[1e300, 1e300], &[1e300]]));
        // Merged: `-0.0` (alone or beside `+0.0`), negatives, two lattices
        // at once, a span one past the bound, and fractions.
        assert!(!counted(&[&[-0.0, 0.0, 1.0], &[2.0]]));
        assert!(!counted(&[&[-0.0]]));
        assert!(!counted(&[&[-1.0, 2.0], &[0.0]]));
        assert!(!counted(&[&[0.5, 1.5], &[1.0]]));
        assert!(!counted(&[&[7.0], &[7.0 + 4105.0]]));
        assert!(!counted(&[&[0.0, 0.37, 0.74]]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The pool equals concatenate-and-sort and the run merge bit for
        /// bit, over runs with duplicates, single-sample members and skewed
        /// lengths, on lattices the counting path takes and shapes it must
        /// leave to the merge.
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
            assert_bitwise_eq(&merge_runs(&dists.iter().collect::<Vec<_>>()), &sorted);
        }

        /// Building from counts gives the distribution that converting and
        /// sorting as floats gives, up to and including `u64::MAX`, where
        /// the conversion rounds many counts together.
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
    fn pooling_nothing_rejected() {
        let _ = EmpiricalDist::pool(std::iter::empty());
    }

    #[test]
    #[should_panic(expected = "needs samples")]
    fn empty_rejected() {
        let _ = EmpiricalDist::from_samples(vec![]);
    }

    #[test]
    #[should_panic(expected = "needs samples")]
    fn empty_counts_rejected() {
        let _ = EmpiricalDist::from_counts(&[]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = EmpiricalDist::from_samples(vec![1.0, f64::NAN]);
    }
}
