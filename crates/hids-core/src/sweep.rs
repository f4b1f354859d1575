//! Single-pass threshold-sweep kernel.
//!
//! Everything the optimising heuristics and ROC analysis need — the
//! false-positive rate and sweep-averaged false-negative rate of *every*
//! candidate threshold of a distribution — computed in one batched pass.
//!
//! The naive formulation queries each candidate independently:
//! `exceedance(t)` is a binary search and `mean_fn(dist, t)` is `S`
//! binary searches (one per attack size), so scoring all `m` candidates
//! costs `O(m · S · log n)` searches plus, historically, one size-grid
//! allocation per candidate. But both quantities are monotone counts over
//! *sorted* data: for a fixed attack size `b`, as the candidate threshold
//! `t` ascends, the count of samples below `t − b` only grows. The kernel
//! exploits this with a merge-style two-pointer sweep per attack size
//! over the distribution's runs — `O(S · m)` total for `m` distinct
//! values, however many samples they hold.
//!
//! The accumulation order matches the naive formulation exactly (outer
//! loop over ascending attack sizes, each term `count/n` added in turn,
//! one final division by `S`), so results are **bit-identical** to
//! calling [`AttackSweep::mean_fn`] and `exceedance` per candidate — a
//! property the equivalence suite in `tests/` asserts over random
//! distributions.
//!
//! [`SweepTable::compute`] is the one entry point for both quantile
//! backends, and both hand it runs: the exact backend's distinct values
//! with cumulative counts, or a sketch's `(value, weight)` summary with
//! cumulative weights. One kernel scores either; the exact backend's
//! integral runs take its lattice lookup, everything else its general
//! two-pointer merge.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use hids_metrics::Registry;
use tailstats::{QuantileBackend, RankedView};

use crate::threshold::AttackSweep;

// Process-wide kernel work counters. Plain commutative additions on
// relaxed atomics: totals depend only on the work performed, never on
// which thread performed it, so a harvested snapshot is deterministic at
// any `--threads`. Wall-clock phase timings are inherently not, so they
// harvest into the registry's quarantined volatile section instead.
static TABLES: AtomicU64 = AtomicU64::new(0);
static CANDIDATES: AtomicU64 = AtomicU64::new(0);
static SIZE_PASSES: AtomicU64 = AtomicU64::new(0);
static PATH_LATTICE: AtomicU64 = AtomicU64::new(0);
static PATH_GENERAL: AtomicU64 = AtomicU64::new(0);
static PATH_WEIGHTED: AtomicU64 = AtomicU64::new(0);
static PREPARE_NANOS: AtomicU64 = AtomicU64::new(0);
static ACCUMULATE_NANOS: AtomicU64 = AtomicU64::new(0);

/// Harvest (read **and reset**) the kernel's process-wide work counters
/// into `reg`. Harvest semantics make consecutive runs in one process
/// independent: each harvest accounts exactly the work since the last.
///
/// Deterministic families:
/// * `hids_sweep_tables_total` — [`SweepTable::compute`] calls;
/// * `hids_sweep_candidates_total` — candidate thresholds scored;
/// * `hids_sweep_size_passes_total` — per-attack-size accumulation passes;
/// * `hids_sweep_path_total{path}` — lattice fast path vs general merge
///   vs weighted (sketch) kernel.
///
/// Volatile (excluded from the deterministic render):
/// * `hids_sweep_phase_nanos{phase}` — wall-clock per kernel phase.
pub fn export_metrics(reg: &mut Registry) {
    reg.register_counter(
        "hids_sweep_tables_total",
        "Threshold-sweep tables computed by the kernel",
    );
    reg.register_counter(
        "hids_sweep_candidates_total",
        "Candidate thresholds scored across all sweep tables",
    );
    reg.register_counter(
        "hids_sweep_size_passes_total",
        "Per-attack-size accumulation passes executed",
    );
    reg.register_counter(
        "hids_sweep_path_total",
        "Sweep-table computations by accumulation path",
    );
    reg.counter_add("hids_sweep_tables_total", &[], TABLES.swap(0, Relaxed));
    reg.counter_add(
        "hids_sweep_candidates_total",
        &[],
        CANDIDATES.swap(0, Relaxed),
    );
    reg.counter_add(
        "hids_sweep_size_passes_total",
        &[],
        SIZE_PASSES.swap(0, Relaxed),
    );
    reg.counter_add(
        "hids_sweep_path_total",
        &[("path", "lattice")],
        PATH_LATTICE.swap(0, Relaxed),
    );
    reg.counter_add(
        "hids_sweep_path_total",
        &[("path", "general")],
        PATH_GENERAL.swap(0, Relaxed),
    );
    reg.counter_add(
        "hids_sweep_path_total",
        &[("path", "weighted")],
        PATH_WEIGHTED.swap(0, Relaxed),
    );
    reg.register_volatile(
        "hids_sweep_phase_nanos",
        "Wall-clock nanoseconds per kernel phase",
    );
    reg.volatile_add(
        "hids_sweep_phase_nanos",
        &[("phase", "prepare")],
        PREPARE_NANOS.swap(0, Relaxed) as f64,
    );
    reg.volatile_add(
        "hids_sweep_phase_nanos",
        &[("phase", "accumulate")],
        ACCUMULATE_NANOS.swap(0, Relaxed) as f64,
    );
}

/// The scored candidate thresholds of one distribution under one attack
/// sweep: ascending thresholds with each one's FP and mean-FN rate.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepTable {
    thresholds: Vec<f64>,
    fp: Vec<f64>,
    mean_fn: Vec<f64>,
}

impl SweepTable {
    /// Score every candidate threshold — each distinct value of `dist`
    /// plus one step above its maximum — against `sweep`, with whichever
    /// kernel fits the backend's [`RankedView`].
    pub fn compute<Q: QuantileBackend + ?Sized>(dist: &Q, sweep: &AttackSweep) -> Self {
        match dist.ranked() {
            RankedView::Runs { values, ends } => {
                Self::from_runs(values, ends, *ends.last().unwrap_or(&0), true, sweep)
            }
            RankedView::Weighted(items) => Self::from_weighted(&items, sweep),
        }
    }

    /// The sketch's `(value, weight)` summary (ascending in value, positive
    /// weights — the shape [`RankedView::Weighted`] carries) as runs with
    /// cumulative weights, scored by the general runs kernel: `O(S · k)`
    /// for `k` summary items, independent of the stream length the sketch
    /// summarises. An empty summary yields the one-candidate table
    /// `{t: 1.0, fp: 0, fn: 0}` rather than panicking, honouring the
    /// workspace no-panic bar.
    fn from_weighted(items: &[(u64, u64)], sweep: &AttackSweep) -> Self {
        let total: u64 = items.iter().map(|&(_, w)| w).sum();
        if total == 0 {
            return Self {
                thresholds: vec![1.0],
                fp: vec![0.0],
                mean_fn: vec![0.0],
            };
        }
        let values: Vec<f64> = items.iter().map(|&(v, _)| v as f64).collect();
        let mut running = 0u64;
        let ends: Vec<usize> = items
            .iter()
            .map(|&(_, w)| {
                running = running.saturating_add(w);
                running as usize
            })
            .collect();
        Self::from_runs(&values, &ends, total as usize, false, sweep)
    }

    /// The one runs kernel: `values` ascending (non-empty), `ends[i]` the
    /// count (or weight) of samples `≤ values[i]`, `total` the count (or
    /// weight) of all. `exact` marks the exact backend, whose distinct
    /// values may take the lattice path.
    fn from_runs(
        values: &[f64],
        ends: &[usize],
        total: usize,
        exact: bool,
        sweep: &AttackSweep,
    ) -> Self {
        let prepare_started = Instant::now();
        let n = total as f64;
        let r = values.len();
        let lo = values[0];
        let hi = values[r - 1];

        // The runs' values + (max + 1), each with its CDF numerator.
        let mut thresholds: Vec<f64> = Vec::with_capacity(r + 1);
        thresholds.extend_from_slice(values);
        thresholds.push(hi + 1.0);
        let m = thresholds.len();
        let fp: Vec<f64> = ends
            .iter()
            .chain(std::iter::once(&total))
            .map(|&c| 1.0 - c as f64 / n)
            .collect();

        // mean_fn[i] = mean over sizes b of P(g < t_i − b). Adding each
        // size's `count/n` term per candidate (not summing raw counts)
        // reproduces the naive float accumulation bit for bit; each
        // `k/n` is the same IEEE division wherever it is computed, so it
        // is divided once per run.
        //
        // Two exact shortcuts keep the passes cheap:
        // * candidates with t ≤ b + min(samples) have a below-count of 0,
        //   and `x + 0.0` is bitwise `x` for the non-negative accumulator,
        //   so each size's zero prefix is skipped outright;
        // * feature counts live on the integer lattice, so when every
        //   value is integral (and the value range is sane) the per-size
        //   merge collapses to a branchless cumulative-count lookup:
        //   #{g < t − b} = #{g ≤ ⌈t − b⌉ − 1}.
        let sizes = sweep.sizes();
        let mut acc = vec![0.0f64; m];
        let lattice = exact
            && hi - lo <= n * 64.0 + 4096.0
            && lo.abs() <= 1e15
            && hi.abs() <= 1e15
            && values.iter().all(|v| v.fract() == 0.0);
        TABLES.fetch_add(1, Relaxed);
        CANDIDATES.fetch_add(m as u64, Relaxed);
        SIZE_PASSES.fetch_add(sizes.len() as u64, Relaxed);
        match (exact, lattice) {
            (true, true) => PATH_LATTICE.fetch_add(1, Relaxed),
            (true, false) => PATH_GENERAL.fetch_add(1, Relaxed),
            (false, _) => PATH_WEIGHTED.fetch_add(1, Relaxed),
        };
        let accumulate_started = Instant::now();
        PREPARE_NANOS.fetch_add(
            (accumulate_started - prepare_started).as_nanos() as u64,
            Relaxed,
        );
        if lattice {
            // cumf[0] = 0/n (= +0.0) is the explicit "cut at or below
            // lo: nothing strictly below" slot; cumf[j] for j ≥ 1 =
            // #{samples ≤ lo + j − 1}/n — count-below folded straight
            // into its already-divided term. Each run fills the slots
            // from its value up to the next run's with its own term.
            let range = (hi - lo) as usize;
            let mut cumf: Vec<f64> = Vec::with_capacity(range + 2);
            cumf.push(0.0);
            let mut running = 0.0;
            for (&v, &end) in values.iter().zip(ends) {
                cumf.resize((v - lo) as usize + 1, running);
                running = end as f64 / n;
            }
            cumf.resize(range + 2, running);
            for &b in sizes {
                // The skip predicate evaluates the same `t − b` the loop
                // body does, so prefix membership is decided on the exact
                // rounded cut value. It is purely an optimisation: a
                // skipped candidate's term is cumf[0] = +0.0, which the
                // accumulator absorbs bitwise.
                let start = thresholds.partition_point(|&t| t - b <= lo);
                for (slot, &t) in acc[start..].iter_mut().zip(&thresholds[start..]) {
                    // #{g < c} on an integer lattice is #{g ≤ ⌈c⌉ − 1},
                    // exact for fractional cuts (⌊c⌋ = ⌈c⌉ − 1, the
                    // fractional-attack-size case) and integral cuts
                    // alike. The index is shifted by one so a cut at or
                    // below lo lands on the explicit zero slot rather
                    // than depending on the skip predicate: ⌈c⌉ − lo ≤ 0
                    // would otherwise cast-saturate to slot 0 and claim
                    // the samples *equal to* lo as "below". `max` keeps
                    // the cast in range, and `min` clamps oversized cuts
                    // to "all below".
                    let j = ((t - b).ceil() - lo).max(0.0) as usize;
                    *slot += cumf[j.min(range + 1)];
                }
            }
        } else {
            // General reals and sketch summaries: a merge-style
            // two-pointer pass per size over the runs — t ascends, so
            // t − b ascends, so the strictly-below pointer only moves
            // forward. below[p] is the term with the first p runs below.
            let below: Vec<f64> = std::iter::once(0.0)
                .chain(ends.iter().map(|&c| c as f64 / n))
                .collect();
            for &b in sizes {
                let start = thresholds.partition_point(|&t| t - b <= lo);
                let mut ptr = 0usize;
                for (slot, &t) in acc[start..].iter_mut().zip(&thresholds[start..]) {
                    let cut = t - b;
                    while ptr < r && values[ptr] < cut {
                        ptr += 1;
                    }
                    *slot += below[ptr];
                }
            }
        }
        let n_sizes = sizes.len() as f64;
        let mean_fn: Vec<f64> = acc.into_iter().map(|s| s / n_sizes).collect();
        ACCUMULATE_NANOS.fetch_add(accumulate_started.elapsed().as_nanos() as u64, Relaxed);

        Self {
            thresholds,
            fp,
            mean_fn,
        }
    }

    /// Number of candidate thresholds.
    pub fn len(&self) -> usize {
        self.thresholds.len()
    }

    /// Whether the table is empty (never: every table holds at least the
    /// candidate above the maximum).
    pub fn is_empty(&self) -> bool {
        self.thresholds.is_empty()
    }

    /// Candidate thresholds, ascending.
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// `fp[i]` = exceedance of `thresholds[i]` (descending in `i`).
    pub fn fp(&self) -> &[f64] {
        &self.fp
    }

    /// `mean_fn[i]` = sweep-averaged FN rate of `thresholds[i]`
    /// (ascending in `i`).
    pub fn mean_fn(&self) -> &[f64] {
        &self.mean_fn
    }

    /// The threshold maximising `score(fp, mean_fn)`. Ties break towards
    /// the lower threshold (favouring detection), matching the historical
    /// descending-scan argmax.
    pub fn best_by(&self, score: impl Fn(f64, f64) -> f64) -> f64 {
        let mut best_i = 0usize;
        let mut best_s = score(self.fp[0], self.mean_fn[0]);
        for i in 1..self.thresholds.len() {
            let s = score(self.fp[i], self.mean_fn[i]);
            if s > best_s {
                best_s = s;
                best_i = i;
            }
        }
        self.thresholds[best_i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailstats::{EmpiricalDist, KllSketch};

    fn uniform_counts(n: u64) -> EmpiricalDist {
        EmpiricalDist::from_counts(&(0..n).collect::<Vec<_>>())
    }

    /// The reference the kernel must reproduce bit for bit.
    fn naive(dist: &EmpiricalDist, sweep: &AttackSweep) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut thresholds: Vec<f64> = Vec::new();
        let mut prev = f64::NAN;
        for &v in dist.samples() {
            if v != prev {
                thresholds.push(v);
                prev = v;
            }
        }
        thresholds.push(dist.max() + 1.0);
        let fp = thresholds.iter().map(|&t| dist.exceedance(t)).collect();
        let mean_fn = thresholds
            .iter()
            .map(|&t| sweep.mean_fn(dist, t))
            .collect();
        (thresholds, fp, mean_fn)
    }

    #[test]
    fn matches_naive_bitwise_on_uniform() {
        let d = uniform_counts(300);
        let sweep = AttackSweep::up_to(600.0);
        let table = SweepTable::compute(&d, &sweep);
        let (t, fp, mean_fn) = naive(&d, &sweep);
        assert_eq!(table.thresholds(), &t[..]);
        assert_eq!(table.fp(), &fp[..]);
        assert_eq!(table.mean_fn(), &mean_fn[..]);
    }

    #[test]
    fn matches_naive_with_duplicates() {
        let d = EmpiricalDist::from_counts(&[5, 5, 5, 9, 9, 12, 12, 12, 12, 40]);
        let sweep = AttackSweep::new(30.0, 7);
        let table = SweepTable::compute(&d, &sweep);
        let (t, fp, mean_fn) = naive(&d, &sweep);
        assert_eq!(table.thresholds(), &t[..]);
        assert_eq!(table.fp(), &fp[..]);
        assert_eq!(table.mean_fn(), &mean_fn[..]);
    }

    #[test]
    fn degenerate_single_sample() {
        let d = EmpiricalDist::from_counts(&[7]);
        let sweep = AttackSweep::new(1.0, 2);
        let table = SweepTable::compute(&d, &sweep);
        assert_eq!(table.len(), 2);
        assert_eq!(table.thresholds(), &[7.0, 8.0]);
        assert_eq!(table.fp()[1], 0.0);
    }

    #[test]
    fn all_equal_samples_collapse_to_two_candidates() {
        let d = EmpiricalDist::from_counts(&[3, 3, 3, 3]);
        let sweep = AttackSweep::up_to(5.0);
        let table = SweepTable::compute(&d, &sweep);
        assert_eq!(table.len(), 2);
        let (t, fp, mean_fn) = naive(&d, &sweep);
        assert_eq!(table.thresholds(), &t[..]);
        assert_eq!(table.fp(), &fp[..]);
        assert_eq!(table.mean_fn(), &mean_fn[..]);
    }

    #[test]
    fn monotone_fp_descending_fn_ascending() {
        let d = uniform_counts(500);
        let table = SweepTable::compute(&d, &AttackSweep::up_to(1000.0));
        for w in table.fp().windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        for w in table.mean_fn().windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn weighted_kernel_matches_exact_on_unit_weights() {
        // A weighted summary with all-unit weights is the same sample; the
        // weighted kernel performs the same float operations in the same
        // order as the general exact path, so the tables are bit-identical.
        let counts: Vec<u64> = (0..200u64).map(|i| (i * 7) % 45).collect();
        let d = EmpiricalDist::from_counts(&counts);
        let sweep = AttackSweep::new(60.0, 17);
        let exact = SweepTable::compute(&d, &sweep);
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        let mut items: Vec<(u64, u64)> = Vec::new();
        for v in sorted {
            match items.last_mut() {
                Some(last) if last.0 == v => last.1 += 1,
                _ => items.push((v, 1)),
            }
        }
        let weighted = SweepTable::from_weighted(&items, &sweep);
        assert_eq!(exact.thresholds(), weighted.thresholds());
        assert_eq!(exact.fp(), weighted.fp());
        assert_eq!(exact.mean_fn(), weighted.mean_fn());
    }

    /// The separate weighted kernel the runs kernel replaced: every
    /// candidate scanned from the first, no zero-prefix skip, each term
    /// `below/n` added as the pointer advances.
    fn weighted_reference(items: &[(u64, u64)], sweep: &AttackSweep) -> SweepTable {
        let total: u64 = items.iter().map(|&(_, w)| w).sum();
        let n = total as f64;
        let mut thresholds: Vec<f64> = items.iter().map(|&(v, _)| v as f64).collect();
        let mut le_weights: Vec<u64> = items
            .iter()
            .scan(0u64, |run, &(_, w)| {
                *run = run.saturating_add(w);
                Some(*run)
            })
            .collect();
        thresholds.push(thresholds.last().copied().unwrap_or(0.0) + 1.0);
        le_weights.push(total);
        let fp = le_weights.iter().map(|&c| 1.0 - c as f64 / n).collect();
        let mut acc = vec![0.0f64; thresholds.len()];
        for &b in sweep.sizes() {
            let (mut ptr, mut below) = (0usize, 0u64);
            for (slot, &t) in acc.iter_mut().zip(&thresholds) {
                while ptr < items.len() && (items[ptr].0 as f64) < t - b {
                    below = below.saturating_add(items[ptr].1);
                    ptr += 1;
                }
                *slot += below as f64 / n;
            }
        }
        let mean_fn = acc.iter().map(|s| s / sweep.sizes().len() as f64).collect();
        SweepTable {
            thresholds,
            fp,
            mean_fn,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// A sketch's table — compacted or not, offset or not — is the one
        /// the separate weighted kernel computed, bit for bit; and an
        /// uncompacted sketch's is the exact backend's.
        #[test]
        fn runs_kernel_keeps_the_weighted_figures(
            counts in proptest::collection::vec(0u64..3_000, 1..2_000),
            base in proptest::prelude::prop_oneof![
                proptest::prelude::Just(0u64),
                proptest::prelude::Just(1u64 << 53),
            ],
            eps in 0.002f64..0.2,
            b_max in 1.0f64..5_000.0,
            n_points in 2usize..300,
        ) {
            let counts: Vec<u64> = counts.iter().map(|&c| base + c).collect();
            let sweep = AttackSweep::new(b_max, n_points);
            let mut sk = KllSketch::new(eps);
            sk.extend_from_counts(&counts);
            let table = SweepTable::compute(&sk, &sweep);
            let reference = weighted_reference(&sk.weighted_items(), &sweep);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(table.thresholds()), bits(reference.thresholds()));
            proptest::prop_assert_eq!(bits(table.fp()), bits(reference.fp()));
            proptest::prop_assert_eq!(bits(table.mean_fn()), bits(reference.mean_fn()));
            if sk.compactions() == 0 && base == 0u64 {
                let exact = SweepTable::compute(&EmpiricalDist::from_counts(&counts), &sweep);
                proptest::prop_assert_eq!(bits(table.mean_fn()), bits(exact.mean_fn()));
                proptest::prop_assert_eq!(bits(table.fp()), bits(exact.fp()));
            }
        }
    }

    #[test]
    fn weighted_kernel_empty_summary_is_safe() {
        let table = SweepTable::compute(&KllSketch::new(0.1), &AttackSweep::up_to(10.0));
        assert_eq!(table.len(), 1);
        assert_eq!(table.best_by(|fp, f| 1.0 - fp - f), 1.0);
    }

    #[test]
    fn compute_serves_both_backends() {
        let counts: Vec<u64> = (0..150u64).map(|i| i % 31).collect();
        let sweep = AttackSweep::up_to(50.0);
        let d = EmpiricalDist::from_counts(&counts);
        let reference = SweepTable::compute(&d, &sweep);
        // Uncompacted sketch holds the exact multiset: identical table.
        let mut sk = KllSketch::new(0.001);
        sk.extend_from_counts(&counts);
        let sketched = SweepTable::compute(&sk, &sweep);
        assert_eq!(sketched.thresholds(), reference.thresholds());
        assert_eq!(sketched.fp(), reference.fp());
    }

    #[test]
    fn best_by_tie_breaks_low() {
        // Constant score: every candidate ties; the lowest must win, as
        // the historical descending `>=` scan returned.
        let d = uniform_counts(50);
        let table = SweepTable::compute(&d, &AttackSweep::up_to(100.0));
        assert_eq!(table.best_by(|_, _| 1.0), table.thresholds()[0]);
    }
}
