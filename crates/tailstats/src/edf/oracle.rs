//! The sorted-sample [`EmpiricalDist`] the run-length
//! [`super::EmpiricalDist`] replaced, kept unchanged as the differential
//! test and benchmark oracle: every query, [`EmpiricalDist::pool`],
//! `mean` and `stddev` of the runs representation must return these bits.

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
    /// pass; anything else merges the sorted runs pairwise. Either way the
    /// result — samples, mean and stddev — is exactly what
    /// [`EmpiricalDist::from_samples`] gives on the concatenation.
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
