//! Sample summaries and the regression rule the benchmark reports with.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Median, quartiles, extremes and the highest percentile that still has
/// at least ten samples beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    /// `(percentile, value)`; `None` below twenty samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Self> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (&min, &max) = (v.first()?, v.last()?);
        let [q1, median, q3] = quartiles(&v);
        Some(Self {
            n: v.len(),
            median,
            q1,
            q3,
            min,
            max,
            tail: tail_percentile(&v),
        })
    }

    /// Quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// The three cut points of Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method), so spreads read the same here as in
/// any script that checks them. `sorted` must be sorted and non-empty.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let ld = sorted.len();
    if ld == 1 {
        return [sorted[0]; 3];
    }
    let n = 4;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64;
    }
    out
}

/// Percentiles the tail report may use, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest ladder percentile with at least ten samples above it, and
/// its nearest-rank value. `sorted` must be sorted.
pub fn tail_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&p| {
        // The epsilon keeps `99.9 * 10_000 / 100` from ceiling past 9990.
        let rank = ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n);
        (n - rank >= 10).then(|| (p, sorted[rank - 1]))
    })
}

/// How a candidate set of runs reads against a baseline set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the bound allows.
    Agree,
    /// Every candidate run beats every baseline run.
    Better,
    /// Median worse by more than the bound, with both spreads inside it.
    Worse,
    /// A spread is wider than the bound, so the sets cannot be told apart.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare `candidate` runs against `baseline` runs. The median may get
/// worse by `bound` (a share of the baseline median) or by `floor` in the
/// metric's own unit, whichever is larger.
pub fn verdict(
    baseline: &[f64],
    candidate: &[f64],
    better: Better,
    bound: f64,
    floor: f64,
) -> Verdict {
    let (Some(a), Some(b)) = (Summary::of(baseline), Summary::of(candidate)) else {
        return Verdict::Unresolved;
    };
    let all_better = match better {
        Better::Lower => b.max < a.min,
        Better::Higher => b.min > a.max,
    };
    if all_better {
        return Verdict::Better;
    }
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    if worse_by > (bound * a.median.abs()).max(floor) {
        Verdict::Worse
    } else {
        Verdict::Agree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn summary_sorts_and_reports_extremes() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.n, s.min, s.max, s.median), (5, 1.0, 5.0, 3.0));
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), None, "p50 of 19 leaves 9 above");
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((50.0, 10.0)));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99.9, 9990.0)));
    }

    #[test]
    fn verdict_applies_bound_direction_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [108.0, 109.0, 107.0, 108.5, 107.5];
        let much_slower = [115.0, 116.0, 114.0, 115.5, 114.5];
        let lower = Better::Lower;
        assert_eq!(verdict(&base, &base, lower, 0.1, 0.0), Verdict::Agree);
        assert_eq!(verdict(&base, &slower, lower, 0.1, 0.0), Verdict::Agree);
        assert_eq!(
            verdict(&base, &much_slower, lower, 0.1, 0.0),
            Verdict::Worse
        );
        // Higher-is-better reads the same numbers the other way round.
        assert_eq!(
            verdict(&much_slower, &base, Better::Higher, 0.1, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&much_slower, &base, lower, 0.1, 0.0),
            Verdict::Better
        );
        // A wide baseline cannot resolve a 15% shift inside a 10% bound.
        let noisy = [70.0, 130.0, 100.0, 60.0, 140.0];
        assert_eq!(
            verdict(&noisy, &much_slower, lower, 0.1, 0.0),
            Verdict::Unresolved
        );
    }

    #[test]
    fn verdict_floor_absorbs_small_absolute_changes() {
        // setup_s: 0.02 s -> 0.04 s doubles, but stays under a 0.05 s floor.
        let a = [0.020, 0.021, 0.019, 0.020, 0.0205];
        let b = [0.040, 0.041, 0.039, 0.040, 0.0405];
        assert_eq!(verdict(&a, &b, Better::Lower, 0.1, 0.05), Verdict::Agree);
        assert_eq!(verdict(&a, &b, Better::Lower, 0.1, 0.0), Verdict::Worse);
    }
}
