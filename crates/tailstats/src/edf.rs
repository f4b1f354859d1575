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
    /// Sorts in the integer domain first — cheaper comparisons than the
    /// `total_cmp` float sort, which then sees already-ordered input.
    pub fn from_counts(counts: &[u64]) -> Self {
        let mut counts = counts.to_vec();
        counts.sort_unstable();
        Self::from_samples(counts.iter().map(|&c| c as f64).collect())
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
    /// Every member is already sorted, so this merges the sorted runs
    /// pairwise, round by round, instead of sorting their concatenation.
    /// `total_cmp` is a total order on finite values in which ties are
    /// bit-identical, so the result — samples, mean and stddev — is
    /// exactly what [`EmpiricalDist::from_samples`] gives on the
    /// concatenation.
    ///
    /// # Panics
    /// Panics if `dists` is empty.
    pub fn pool<'a>(dists: impl IntoIterator<Item = &'a EmpiricalDist>) -> EmpiricalDist {
        let mut src: Vec<f64> = Vec::new();
        let mut ends: Vec<usize> = Vec::new();
        for d in dists {
            src.extend_from_slice(&d.sorted);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The merged pool equals concatenate-and-sort bit for bit, over
        /// runs with duplicates, single-sample members and skewed lengths.
        #[test]
        fn pool_merge_matches_concat_and_sort(
            runs in proptest::collection::vec(
                prop_oneof![
                    proptest::collection::vec(0u64..40, 1..4),
                    proptest::collection::vec(0u64..40, 1..30),
                    proptest::collection::vec(0u64..5000, 200..700),
                ],
                1..24,
            ),
            scale in prop_oneof![Just(1.0f64), Just(0.37), Just(-2.5)],
        ) {
            let dists: Vec<EmpiricalDist> = runs
                .iter()
                .map(|r: &Vec<u64>| {
                    EmpiricalDist::from_samples(r.iter().map(|&c| c as f64 * scale).collect())
                })
                .collect();
            let merged = EmpiricalDist::pool(&dists);
            let oracle = pool_oracle(&dists);
            prop_assert_eq!(merged.len(), oracle.len());
            assert_bitwise_eq(&merged, &oracle);
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
