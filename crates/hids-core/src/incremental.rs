//! Incremental per-host window state: apply, merge, and conversion into
//! the degraded-mode evaluation types.
//!
//! Batch experiments hand [`FeatureDataset`](crate::eval::FeatureDataset)
//! a complete week of windows per host. A long-running evaluation daemon
//! cannot: windows arrive in partial batches, out of phase across hosts,
//! interrupted by crashes and restarts. This module provides the state
//! object that makes streaming accumulation equivalent to the batch path:
//!
//! * [`WindowAccumulator`] — a sparse, ordered `window → count` run with
//!   idempotent [`insert`](WindowAccumulator::insert) (a window observed
//!   twice — e.g. replayed from a write-ahead log after an unacknowledged
//!   delivery — keeps its first value) and commutative-per-window
//!   [`merge`](WindowAccumulator::merge). It is one flat `Vec` sorted by
//!   window, not a tree: windows arrive in order, so an insert is a push,
//!   and a host's week is one allocation to build, encode and free. The
//!   ordered-map body it replaced is kept as [`oracle::WindowAccumulator`]
//!   and held equal to it by a property test;
//! * [`degraded_dataset`] — assembles per-host train/test accumulators
//!   into a [`DegradedDataset`], so whatever subset of windows survived
//!   crashes, shedding and quarantine is evaluated with the exact coverage
//!   accounting PR 2 introduced.
//!
//! The pinned equivalence: accumulating every window of a series and
//! calling [`degraded_dataset`] reproduces
//! [`DegradedDataset::from_masked_series`] with full masks bit-for-bit,
//! and therefore (at a zero coverage floor) the clean batch evaluation.

use flowtab::FeatureKind;
use tailstats::{EmpiricalDist, KllSketch};

use crate::degraded::{DegradedDataset, DegradedError};

/// A sparse accumulator of per-window feature counts for one host and one
/// week. Windows are kept as one flat run of `(window, count)` pairs sorted
/// by window index, so iteration order is always ascending and everything
/// derived from an accumulator is deterministic regardless of arrival
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowAccumulator {
    windows: Vec<(u32, u64)>,
}

impl WindowAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one window's count. Returns `true` when the window was new;
    /// a window already present keeps its original value (idempotent
    /// re-apply, the property crash-recovery replay relies on). O(1) when
    /// `window` is past every recorded window, otherwise a binary search
    /// plus a shift.
    pub fn insert(&mut self, window: u32, count: u64) -> bool {
        match self.windows.last() {
            Some(&(last, _)) if window <= last => {
                match self.windows.binary_search_by_key(&window, |&(w, _)| w) {
                    Ok(_) => false,
                    Err(i) => {
                        self.windows.insert(i, (window, count));
                        true
                    }
                }
            }
            _ => {
                self.windows.push((window, count));
                true
            }
        }
    }

    /// Merge another accumulator in (e.g. combining shard-local state).
    /// For windows present on both sides, `self` wins — consistent with
    /// [`insert`](WindowAccumulator::insert)'s first-write-wins rule.
    pub fn merge(&mut self, other: &Self) {
        for &(w, c) in &other.windows {
            self.insert(w, c);
        }
    }

    /// Number of windows recorded.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Fraction of an `n_windows`-wide week that has been recorded.
    /// An empty week (`n_windows == 0`) counts as fully covered, matching
    /// [`DegradedDataset`]'s convention.
    pub fn coverage(&self, n_windows: usize) -> f64 {
        if n_windows == 0 {
            1.0
        } else {
            self.windows.len().min(n_windows) as f64 / n_windows as f64
        }
    }

    /// The coverage mask over an `n_windows`-wide week.
    pub fn mask(&self, n_windows: usize) -> Vec<bool> {
        let mut m = vec![false; n_windows];
        for &(w, _) in &self.windows {
            if let Some(slot) = m.get_mut(w as usize) {
                *slot = true;
            }
        }
        m
    }

    /// Recorded counts in ascending window order (the covered-window
    /// count vector degraded evaluation consumes).
    pub fn counts(&self) -> Vec<u64> {
        self.windows.iter().map(|&(_, c)| c).collect()
    }

    /// Recorded `(window, count)` pairs in ascending window order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.windows.iter().copied()
    }

    /// Rebuild from `(window, count)` pairs (snapshot load). Duplicate
    /// windows keep the first occurrence.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u32, u64)>) -> Self {
        let mut acc = Self::new();
        for (w, c) in pairs {
            acc.insert(w, c);
        }
        acc
    }

    /// Empirical distribution over the recorded windows; `None` when no
    /// window has been recorded (a dark week).
    pub fn dist(&self) -> Option<EmpiricalDist> {
        if self.windows.is_empty() {
            None
        } else {
            Some(EmpiricalDist::from_counts(&self.counts()))
        }
    }
}

/// The ordered-map body [`WindowAccumulator`] had before it became a
/// flat sorted run, retained as a differential-test oracle. Nothing here
/// runs on the hot path.
pub mod oracle {
    use std::collections::BTreeMap;

    use tailstats::EmpiricalDist;

    /// [`super::WindowAccumulator`] over a `BTreeMap<u32, u64>`.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct WindowAccumulator {
        windows: BTreeMap<u32, u64>,
    }

    impl WindowAccumulator {
        /// An empty accumulator.
        pub fn new() -> Self {
            Self::default()
        }

        /// First-write-wins insert; `true` when the window was new.
        pub fn insert(&mut self, window: u32, count: u64) -> bool {
            use std::collections::btree_map::Entry;
            match self.windows.entry(window) {
                Entry::Vacant(v) => {
                    v.insert(count);
                    true
                }
                Entry::Occupied(_) => false,
            }
        }

        /// Merge `other` in; `self` wins on shared windows.
        pub fn merge(&mut self, other: &Self) {
            for (&w, &c) in &other.windows {
                self.insert(w, c);
            }
        }

        /// Number of windows recorded.
        pub fn len(&self) -> usize {
            self.windows.len()
        }

        /// Whether nothing has been recorded.
        pub fn is_empty(&self) -> bool {
            self.windows.is_empty()
        }

        /// Fraction of an `n_windows`-wide week that has been recorded.
        pub fn coverage(&self, n_windows: usize) -> f64 {
            if n_windows == 0 {
                1.0
            } else {
                self.windows.len().min(n_windows) as f64 / n_windows as f64
            }
        }

        /// The coverage mask over an `n_windows`-wide week.
        pub fn mask(&self, n_windows: usize) -> Vec<bool> {
            let mut m = vec![false; n_windows];
            for &w in self.windows.keys() {
                if let Some(slot) = m.get_mut(w as usize) {
                    *slot = true;
                }
            }
            m
        }

        /// Recorded counts in ascending window order.
        pub fn counts(&self) -> Vec<u64> {
            self.windows.values().copied().collect()
        }

        /// Recorded `(window, count)` pairs in ascending window order.
        pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
            self.windows.iter().map(|(&w, &c)| (w, c))
        }

        /// Rebuild from pairs; duplicate windows keep the first occurrence.
        pub fn from_pairs(pairs: impl IntoIterator<Item = (u32, u64)>) -> Self {
            let mut acc = Self::new();
            for (w, c) in pairs {
                acc.insert(w, c);
            }
            acc
        }

        /// Empirical distribution over the recorded windows.
        pub fn dist(&self) -> Option<EmpiricalDist> {
            if self.windows.is_empty() {
                None
            } else {
                Some(EmpiricalDist::from_counts(&self.counts()))
            }
        }
    }
}

/// The bounded-memory analogue of [`WindowAccumulator`] for fleet-scale
/// runs: counts stream into a deterministic [`KllSketch`] instead of a
/// per-window map, while a compact bitmap over window indices preserves
/// the accumulator contract the daemon relies on — idempotent
/// first-write-wins [`insert`](SketchAccumulator::insert) (so WAL replay
/// after a crash cannot double-count a window) and exact coverage
/// accounting. Unlike `WindowAccumulator` the original per-window counts
/// are *not* recoverable; only rank/tail queries (through
/// [`sketch`](SketchAccumulator::sketch)) are supported, which is all
/// threshold fitting needs.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchAccumulator {
    /// Window-index bitmap: bit `w` set iff window `w` was recorded.
    seen: Vec<u64>,
    /// Number of set bits in `seen` (windows recorded).
    n_seen: u64,
    sketch: KllSketch,
}

impl SketchAccumulator {
    /// An empty accumulator with rank-error budget `eps` (see
    /// [`KllSketch::new`] for the accepted range).
    pub fn new(eps: f64) -> Self {
        Self {
            seen: Vec::new(),
            n_seen: 0,
            sketch: KllSketch::new(eps),
        }
    }

    /// Wrap an already-built sketch plus its window bitmap (snapshot
    /// load). `n_seen` is recounted from the bitmap.
    pub fn from_parts(seen: Vec<u64>, sketch: KllSketch) -> Self {
        let n_seen = seen.iter().map(|w| w.count_ones() as u64).sum();
        Self {
            seen,
            n_seen,
            sketch,
        }
    }

    /// Record one window's count. Returns `true` when the window was new;
    /// a window already present is ignored entirely (idempotent re-apply —
    /// the count does not enter the sketch a second time).
    pub fn insert(&mut self, window: u32, count: u64) -> bool {
        let fresh = self.mark(window);
        if fresh {
            self.sketch.insert(count);
        }
        fresh
    }

    /// Record `counts[i]` as window `start + i`, with
    /// [`insert`](Self::insert)'s first-write-wins rule, and feed the new
    /// windows' counts to the sketch in one
    /// [`KllSketch::extend_from_counts`] call. The state equals that of
    /// an `insert` loop over the same windows.
    pub fn extend(&mut self, start: u32, counts: &[u64]) {
        let mut fresh = Vec::with_capacity(counts.len());
        for (i, &count) in counts.iter().enumerate() {
            if self.mark(start + i as u32) {
                fresh.push(count);
            }
        }
        self.sketch.extend_from_counts(&fresh);
    }

    /// Set `window`'s bit; `true` when it was not set before.
    fn mark(&mut self, window: u32) -> bool {
        let slot = (window / 64) as usize;
        let bit = 1u64 << (window % 64);
        if slot >= self.seen.len() {
            self.seen.resize(slot + 1, 0);
        }
        if self.seen[slot] & bit != 0 {
            return false;
        }
        self.seen[slot] |= bit;
        self.n_seen += 1;
        true
    }

    /// Number of windows recorded.
    pub fn len(&self) -> usize {
        self.n_seen as usize
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.n_seen == 0
    }

    /// Fraction of an `n_windows`-wide week that has been recorded, with
    /// the same empty-week convention as
    /// [`WindowAccumulator::coverage`].
    pub fn coverage(&self, n_windows: usize) -> f64 {
        if n_windows == 0 {
            1.0
        } else {
            (self.n_seen as usize).min(n_windows) as f64 / n_windows as f64
        }
    }

    /// Whether a particular window has been recorded.
    pub fn contains(&self, window: u32) -> bool {
        let slot = (window / 64) as usize;
        self.seen
            .get(slot)
            .is_some_and(|&w| w & (1u64 << (window % 64)) != 0)
    }

    /// Borrow the underlying sketch.
    pub fn sketch(&self) -> &KllSketch {
        &self.sketch
    }

    /// Borrow the window bitmap (snapshot encode).
    pub fn seen_words(&self) -> &[u64] {
        &self.seen
    }
}

impl IntoIterator for &WindowAccumulator {
    type Item = (u32, u64);
    type IntoIter = std::vec::IntoIter<(u32, u64)>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter().collect::<Vec<_>>().into_iter()
    }
}

/// Assemble per-host `(train, test)` accumulators into a
/// [`DegradedDataset`] over an `n_windows`-wide week, ready for
/// [`evaluate_policy_degraded`](crate::evaluate_policy_degraded).
///
/// Hosts with an empty week come out as dark exactly as they would from
/// [`DegradedDataset::from_masked_series`] with an all-false mask.
pub fn degraded_dataset(
    feature: FeatureKind,
    n_windows: usize,
    hosts: &[(&WindowAccumulator, &WindowAccumulator)],
) -> Result<DegradedDataset, DegradedError> {
    if hosts.is_empty() {
        return Err(DegradedError::EmptyPopulation);
    }
    let n = hosts.len();
    let mut train = Vec::with_capacity(n);
    let mut test = Vec::with_capacity(n);
    let mut test_counts = Vec::with_capacity(n);
    let mut train_coverage = Vec::with_capacity(n);
    let mut test_coverage = Vec::with_capacity(n);
    for (tr, te) in hosts {
        train.push(tr.dist());
        test.push(te.dist());
        test_counts.push(te.counts());
        train_coverage.push(tr.coverage(n_windows));
        test_coverage.push(te.coverage(n_windows));
    }
    Ok(DegradedDataset {
        feature,
        train,
        test,
        test_counts,
        train_coverage,
        test_coverage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degraded::{evaluate_policy_degraded, DegradedEvalConfig};
    use crate::eval::EvalConfig;
    use crate::{Grouping, Policy, ThresholdHeuristic};
    use flowtab::{FeatureCounts, FeatureSeries, Windowing};

    fn series(n_windows: usize, gen: impl Fn(usize) -> u64) -> FeatureSeries {
        let mut s = FeatureSeries::zeros(Windowing::FIFTEEN_MIN, n_windows);
        for (w, c) in s.windows.iter_mut().enumerate() {
            *c = FeatureCounts::default();
            *c.get_mut(FeatureKind::TcpConnections) = gen(w);
        }
        s
    }

    fn accumulate(s: &FeatureSeries, keep: impl Fn(usize) -> bool) -> WindowAccumulator {
        let mut acc = WindowAccumulator::new();
        for (w, &c) in s.feature(FeatureKind::TcpConnections).iter().enumerate() {
            if keep(w) {
                acc.insert(w as u32, c);
            }
        }
        acc
    }

    #[test]
    fn insert_is_idempotent_first_write_wins() {
        let mut acc = WindowAccumulator::new();
        assert!(acc.insert(3, 10));
        assert!(!acc.insert(3, 99), "re-apply must be a no-op");
        assert_eq!(acc.counts(), vec![10]);
        assert_eq!(acc.len(), 1);
    }

    #[test]
    fn counts_are_window_ordered_regardless_of_arrival() {
        let mut a = WindowAccumulator::new();
        for w in [5u32, 1, 9, 0, 3] {
            a.insert(w, u64::from(w) * 10);
        }
        assert_eq!(a.counts(), vec![0, 10, 30, 50, 90]);
        assert_eq!(a.mask(10), vec![
            true, true, false, true, false, true, false, false, false, true
        ]);
    }

    #[test]
    fn merge_matches_sequential_apply() {
        let s = series(64, |w| (w as u64 * 7) % 23);
        let full = accumulate(&s, |_| true);
        let even = accumulate(&s, |w| w % 2 == 0);
        let odd = accumulate(&s, |w| w % 2 == 1);
        let mut merged = even.clone();
        merged.merge(&odd);
        assert_eq!(merged, full);
        // Merge order is irrelevant.
        let mut other = odd;
        other.merge(&even);
        assert_eq!(other, full);
    }

    #[test]
    fn roundtrips_through_pairs() {
        let s = series(40, |w| w as u64 % 11);
        let acc = accumulate(&s, |w| w % 3 != 0);
        let back = WindowAccumulator::from_pairs(acc.iter());
        assert_eq!(back, acc);
    }

    #[test]
    fn full_accumulation_matches_masked_series_path() {
        let n = 6;
        let windows = 96;
        let train: Vec<FeatureSeries> = (0..n)
            .map(|i| series(windows, move |w| (w as u64 % 17) * (1 + i as u64)))
            .collect();
        let test: Vec<FeatureSeries> = (0..n)
            .map(|i| series(windows, move |w| ((w as u64 + 3) % 17) * (1 + i as u64)))
            .collect();
        // Host 2 loses every third test window; host 4 is fully dark in
        // training.
        let keep_test = |u: usize, w: usize| u != 2 || w % 3 != 0;
        let keep_train = |u: usize, _w: usize| u != 4;

        let train_masks: Vec<Vec<bool>> = (0..n)
            .map(|u| (0..windows).map(|w| keep_train(u, w)).collect())
            .collect();
        let test_masks: Vec<Vec<bool>> = (0..n)
            .map(|u| (0..windows).map(|w| keep_test(u, w)).collect())
            .collect();
        let expect = DegradedDataset::from_masked_series(
            &train,
            &test,
            &train_masks,
            &test_masks,
            FeatureKind::TcpConnections,
        )
        .unwrap();

        let train_accs: Vec<WindowAccumulator> = (0..n)
            .map(|u| accumulate(&train[u], |w| keep_train(u, w)))
            .collect();
        let test_accs: Vec<WindowAccumulator> = (0..n)
            .map(|u| accumulate(&test[u], |w| keep_test(u, w)))
            .collect();
        let pairs: Vec<_> = train_accs.iter().zip(&test_accs).collect();
        let hosts: Vec<(&WindowAccumulator, &WindowAccumulator)> =
            pairs.iter().map(|(a, b)| (*a, *b)).collect();
        let got = degraded_dataset(FeatureKind::TcpConnections, windows, &hosts).unwrap();

        assert_eq!(got.train, expect.train);
        assert_eq!(got.test, expect.test);
        assert_eq!(got.test_counts, expect.test_counts);
        assert_eq!(got.train_coverage, expect.train_coverage);
        assert_eq!(got.test_coverage, expect.test_coverage);

        // And the evaluations agree exactly.
        let policy = Policy {
            grouping: Grouping::FullDiversity,
            heuristic: ThresholdHeuristic::P99,
        };
        let cfg = DegradedEvalConfig {
            base: EvalConfig {
                w: 0.5,
                sweep: crate::threshold::AttackSweep::up_to(500.0),
            },
            min_coverage: 0.0,
        };
        let a = evaluate_policy_degraded(&expect, &policy, &cfg).unwrap();
        let b = evaluate_policy_degraded(&got, &policy, &cfg).unwrap();
        assert_eq!(a.outcome.thresholds, b.outcome.thresholds);
        assert_eq!(a.users, b.users);
    }

    #[test]
    fn empty_population_is_rejected() {
        assert_eq!(
            degraded_dataset(FeatureKind::TcpConnections, 10, &[]).unwrap_err(),
            DegradedError::EmptyPopulation
        );
    }

    #[test]
    fn sketch_accumulator_first_write_wins_and_tracks_coverage() {
        let mut acc = SketchAccumulator::new(0.01);
        assert!(acc.insert(3, 10));
        assert!(!acc.insert(3, 99), "re-apply must be a no-op");
        assert!(acc.insert(70, 20));
        assert_eq!(acc.len(), 2);
        assert!(acc.contains(3) && acc.contains(70) && !acc.contains(4));
        assert_eq!(acc.coverage(100), 0.02);
        // The replayed count never entered the sketch.
        assert_eq!(acc.sketch().len(), 2);
        assert_eq!(acc.sketch().max(), 20.0);
    }

    #[test]
    fn sketch_accumulator_matches_window_accumulator_when_uncompacted() {
        let s = series(64, |w| (w as u64 * 13) % 29);
        let exact = accumulate(&s, |w| w % 5 != 0);
        let mut sk = SketchAccumulator::new(0.001);
        for (w, &c) in s
            .feature(FeatureKind::TcpConnections)
            .iter()
            .enumerate()
        {
            if w % 5 != 0 {
                sk.insert(w as u32, c);
            }
        }
        assert_eq!(sk.len(), exact.len());
        assert_eq!(sk.coverage(64), exact.coverage(64));
        let d = exact.dist().expect("non-empty");
        for q in [0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(sk.sketch().quantile_discrete(q), d.quantile_discrete(q));
        }
    }

    #[test]
    fn sketch_accumulator_extend_matches_insert_loop() {
        // Overlapping, re-applied and out-of-order windows, long enough
        // at ε 0.01 for several compactions.
        let batches: Vec<(u32, Vec<u64>)> = vec![
            (0, (0..300).map(|w| (w * 7919) % 101).collect()),
            (200, (0..250).map(|w| w % 13).collect()),
            (0, vec![99; 40]),
            (700, (0..400).map(|w| (w * w) % 977).collect()),
            (450, (0..300).map(|w| 1000 + w).collect()),
            (450, Vec::new()),
            (1099, vec![5]),
        ];
        let mut looped = SketchAccumulator::new(0.01);
        let mut batched = SketchAccumulator::new(0.01);
        for (start, counts) in &batches {
            for (w, &c) in (*start..).zip(counts) {
                looped.insert(w, c);
            }
            batched.extend(*start, counts);
            assert_eq!(batched, looped);
        }
        assert_eq!(batched.len(), 1100);
        assert!(batched.sketch().compactions() > 0);
        assert_eq!(batched.sketch().to_bytes(), looped.sketch().to_bytes());
    }

    #[test]
    fn sketch_accumulator_roundtrips_parts() {
        let mut acc = SketchAccumulator::new(0.05);
        for w in 0..200u32 {
            acc.insert(w, u64::from(w) % 17);
        }
        let back =
            SketchAccumulator::from_parts(acc.seen_words().to_vec(), acc.sketch().clone());
        assert_eq!(back, acc);
        assert_eq!(back.len(), 200);
    }

    #[test]
    fn coverage_of_empty_week_is_total() {
        let acc = WindowAccumulator::new();
        assert_eq!(acc.coverage(0), 1.0);
        assert_eq!(acc.coverage(10), 0.0);
        assert!(acc.dist().is_none());
    }
}
