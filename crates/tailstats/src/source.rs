//! One rank-query surface over the exact and sketched backends.
//!
//! Threshold fitting, sweeping and scoring in `hids-core` only ever need
//! rank queries (`quantile`, `quantile_discrete`), tail probabilities
//! (`exceedance`, `below`), the first two moments, and — for the
//! whole-distribution sweep kernel — the sorted data itself.
//! [`QuantileBackend`] is exactly that surface. [`EmpiricalDist`] (exact,
//! run-length samples) and [`KllSketch`] (bounded memory for fleet scale)
//! both implement it, so a caller is written once, generic over the
//! backend, and the choice of backend lives here rather than in early
//! returns at every call site.
//!
//! [`QuantileBackend::ranked`] is the one place a backend's shape shows:
//! it hands a kernel either the exact backend's runs
//! ([`RankedView::Runs`]) or the sketch's aggregated `(value, weight)`
//! summary ([`RankedView::Weighted`]).
//!
//! # The boundary contract (pinned here, for both backends)
//!
//! This is the **single normative statement** of the quantile API's edge
//! behavior; the `boundary_contract_*` tests below hold both backends to
//! it, and neither backend documents a divergent rule.
//!
//! * `q` is clamped to `[0, 1]`: `quantile(0.0)` is the minimum sample,
//!   `quantile(1.0)` the maximum, `q < 0` behaves as `0`, `q > 1` as `1`.
//! * `quantile_discrete(q)` returns a value that actually occurred; its
//!   rank is `clamp(ceil(q·n), 1, n)`, so `q = 0.0` also yields the
//!   minimum.
//! * A NaN `q` is **not rejected and does not propagate**: `clamp`
//!   preserves NaN, the derived rank casts to 0, and both query forms
//!   return the minimum sample. (Historical `EmpiricalDist` behavior,
//!   now pinned for every backend.)
//! * NaN/±∞ **samples** are rejected at ingest: `EmpiricalDist`
//!   construction panics (callers validate), while the sketch's
//!   [`KllSketch::insert_f64`] returns `false` without panicking —
//!   non-finite values carry no rank information and never enter state.
//! * Queries on an *empty* sketch return `0.0` (an empty
//!   `EmpiricalDist` is unconstructible).

use crate::edf::EmpiricalDist;
use crate::sketch::KllSketch;

/// The sorted data behind a backend's rank queries, for kernels that
/// score every candidate threshold of a distribution in one pass.
#[derive(Debug, Clone, PartialEq)]
pub enum RankedView<'a> {
    /// The exact backend's runs: its distinct values, ascending, and for
    /// each the count of samples at or below it (the last is `len()`).
    Runs {
        /// Distinct sample values, ascending in `total_cmp` order.
        values: &'a [f64],
        /// Cumulative sample counts, one per value.
        ends: &'a [usize],
    },
    /// Stored values aggregated by value, ascending, with positive
    /// weights summing to `len()` (the sketch backend; see
    /// [`KllSketch::weighted_items`]).
    Weighted(Vec<(u64, u64)>),
}

/// Rank queries, tail probabilities and moments over one distribution,
/// answered by whichever backend holds it. See the
/// [module docs](self) for the boundary contract every backend honours.
pub trait QuantileBackend {
    /// Number of samples represented (total weight for the sketch).
    fn len(&self) -> u64;

    /// Whether no samples are represented.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hyndman–Fan type-7 interpolated quantile.
    fn quantile(&self, q: f64) -> f64;

    /// The smallest observed value with rank at least `ceil(q·n)`.
    fn quantile_discrete(&self, q: f64) -> f64;

    /// Sample mean (exact in both backends; the sketch keeps integer
    /// moment sums).
    fn mean(&self) -> f64;

    /// Unbiased sample standard deviation. Exact backend: two passes over
    /// the samples in order; sketch: from exact integer moment sums
    /// (equal in value up to float association, not guaranteed bitwise).
    fn stddev(&self) -> f64;

    /// Fraction of samples strictly greater than `x` (false-positive rate
    /// of threshold `x`).
    fn exceedance(&self, x: f64) -> f64;

    /// Fraction of samples strictly below `x` (the paper's
    /// false-negative rate via `below(T - b)`).
    fn below(&self, x: f64) -> f64;

    /// `Σ below(t − b)` over `sizes`, summed in order: the numerator of
    /// the sweep-averaged false-negative rate. The default asks
    /// [`below`](Self::below) once per size, which is what the sketch
    /// backend keeps (its [`ranked`](Self::ranked) view allocates); the
    /// exact backend answers from one walk over its runs, term for term
    /// the same bits.
    fn below_sum(&self, t: f64, sizes: &[f64]) -> f64 {
        sizes.iter().map(|&b| self.below(t - b)).sum()
    }

    /// The sorted data a whole-distribution kernel scans.
    fn ranked(&self) -> RankedView<'_>;
}

// Each backend forwards to its inherent method of the same name
// (`Type::name` resolves to the inherent method before the trait's).

impl QuantileBackend for EmpiricalDist {
    fn len(&self) -> u64 {
        EmpiricalDist::len(self) as u64
    }
    fn quantile(&self, q: f64) -> f64 {
        EmpiricalDist::quantile(self, q)
    }
    fn quantile_discrete(&self, q: f64) -> f64 {
        EmpiricalDist::quantile_discrete(self, q)
    }
    fn mean(&self) -> f64 {
        EmpiricalDist::mean(self)
    }
    fn stddev(&self) -> f64 {
        EmpiricalDist::stddev(self)
    }
    fn exceedance(&self, x: f64) -> f64 {
        EmpiricalDist::exceedance(self, x)
    }
    fn below(&self, x: f64) -> f64 {
        EmpiricalDist::below(self, x)
    }
    fn below_sum(&self, t: f64, sizes: &[f64]) -> f64 {
        EmpiricalDist::below_sum(self, t, sizes)
    }
    fn ranked(&self) -> RankedView<'_> {
        let (values, ends) = self.run_table();
        RankedView::Runs { values, ends }
    }
}

impl QuantileBackend for KllSketch {
    fn len(&self) -> u64 {
        KllSketch::len(self)
    }
    fn quantile(&self, q: f64) -> f64 {
        KllSketch::quantile(self, q)
    }
    fn quantile_discrete(&self, q: f64) -> f64 {
        KllSketch::quantile_discrete(self, q)
    }
    fn mean(&self) -> f64 {
        KllSketch::mean(self)
    }
    fn stddev(&self) -> f64 {
        KllSketch::stddev(self)
    }
    fn exceedance(&self, x: f64) -> f64 {
        KllSketch::exceedance(self, x)
    }
    fn below(&self, x: f64) -> f64 {
        KllSketch::below(self, x)
    }
    fn ranked(&self) -> RankedView<'_> {
        RankedView::Weighted(self.weighted_items())
    }
}

/// Either backend by value, for callers that hold one behind a single
/// type. Every workspace path is generic over [`QuantileBackend`] and
/// passes `&EmpiricalDist` or `&KllSketch` directly; this enum remains
/// only for the benchmark harness's existing calls.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantileSource {
    /// Exact run-length backend.
    Exact(EmpiricalDist),
    /// Bounded-memory deterministic sketch backend.
    Sketch(KllSketch),
}

impl QuantileSource {
    /// The held backend, for generic code (`&dyn QuantileBackend` is
    /// itself a [`QuantileBackend`]).
    pub fn as_backend(&self) -> &dyn QuantileBackend {
        match self {
            Self::Exact(d) => d,
            Self::Sketch(s) => s,
        }
    }

    /// Hyndman–Fan type-7 interpolated quantile (inherent, so callers
    /// need not import [`QuantileBackend`]).
    pub fn quantile(&self, q: f64) -> f64 {
        self.as_backend().quantile(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VALS: &[u64] = &[10, 20, 20, 30, 40, 50, 60, 70, 80, 90];

    fn both() -> (EmpiricalDist, KllSketch) {
        // Tight eps on a small stream keeps buffers roomy (capacity grows
        // as 1/eps), so the sketch never compacts and the two backends
        // must agree exactly — the contract tests below then pin
        // identical boundary behavior.
        let mut s = KllSketch::new(0.05);
        s.extend_from_counts(VALS);
        (EmpiricalDist::from_counts(VALS), s)
    }

    #[test]
    fn boundary_contract_q_zero_is_min() {
        let (e, s) = both();
        for src in [&e as &dyn QuantileBackend, &s] {
            assert_eq!(src.quantile(0.0), 10.0);
            assert_eq!(src.quantile_discrete(0.0), 10.0);
        }
    }

    #[test]
    fn boundary_contract_q_one_is_max() {
        let (e, s) = both();
        for src in [&e as &dyn QuantileBackend, &s] {
            assert_eq!(src.quantile(1.0), 90.0);
            assert_eq!(src.quantile_discrete(1.0), 90.0);
        }
    }

    #[test]
    fn boundary_contract_q_clamped_outside_unit_interval() {
        let (e, s) = both();
        for src in [&e as &dyn QuantileBackend, &s] {
            assert_eq!(src.quantile(-0.5), src.quantile(0.0));
            assert_eq!(src.quantile(1.5), src.quantile(1.0));
            assert_eq!(src.quantile_discrete(-0.5), src.quantile_discrete(0.0));
            assert_eq!(src.quantile_discrete(1.5), src.quantile_discrete(1.0));
        }
    }

    #[test]
    fn boundary_contract_nan_q_returns_min_in_both_backends() {
        let (e, s) = both();
        for src in [&e as &dyn QuantileBackend, &s] {
            assert_eq!(src.quantile(f64::NAN), 10.0);
            assert_eq!(src.quantile_discrete(f64::NAN), 10.0);
        }
        // And identically across backends, not just per-backend:
        assert_eq!(e.quantile(f64::NAN), s.quantile(f64::NAN));
        assert_eq!(
            e.quantile_discrete(f64::NAN),
            s.quantile_discrete(f64::NAN)
        );
    }

    #[test]
    fn boundary_contract_nan_samples_rejected_at_ingest() {
        // Sketch: non-panicking rejection.
        let mut sk = KllSketch::new(0.1);
        assert!(!sk.insert_f64(f64::NAN));
        assert!(!sk.insert_f64(f64::INFINITY));
        assert!(sk.is_empty());
        // Exact: construction panics (validated by edf.rs's own
        // `nan_rejected` test; here we only assert the sketch side keeps
        // state clean so both backends never hold non-finite samples).
    }

    #[test]
    fn empty_sketch_queries_return_zero() {
        let src = KllSketch::new(0.05);
        assert!(QuantileBackend::is_empty(&src));
        assert_eq!(src.quantile(0.5), 0.0);
        assert_eq!(src.quantile_discrete(0.99), 0.0);
        assert_eq!(src.mean(), 0.0);
        assert_eq!(src.exceedance(1.0), 0.0);
        assert_eq!(src.ranked(), RankedView::Weighted(Vec::new()));
    }

    #[test]
    fn ranked_views_expose_each_backends_data() {
        let (e, s) = both();
        let runs: Vec<(f64, usize)> = e.runs().collect();
        match e.ranked() {
            RankedView::Runs { values, ends } => {
                let counts = ends
                    .iter()
                    .scan(0, |prev, &end| Some(end - std::mem::replace(prev, end)));
                assert_eq!(values.iter().copied().zip(counts).collect::<Vec<_>>(), runs);
            }
            other => panic!("exact backend hands out {other:?}"),
        }
        assert_eq!(s.ranked(), RankedView::Weighted(s.weighted_items()));
    }

    #[test]
    fn source_enum_answers_as_the_backend_it_holds() {
        let (e, s) = both();
        let (se, ss) = (QuantileSource::Exact(e.clone()), QuantileSource::Sketch(s.clone()));
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(se.quantile(q).to_bits(), e.quantile(q).to_bits());
            assert_eq!(ss.quantile(q).to_bits(), s.quantile(q).to_bits());
        }
        assert_eq!(se.as_backend().ranked(), e.ranked());
        assert_eq!(ss.as_backend().ranked(), s.ranked());
    }
}
