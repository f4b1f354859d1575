//! The paper's evaluation methodology: train on week *n*, test on week
//! *n+1*, measure every user's `⟨FN, FP⟩` and utility.

use std::borrow::Borrow;

use flowtab::{FeatureKind, FeatureSeries};
use serde::{Deserialize, Serialize};
use tailstats::{EmpiricalDist, QuantileBackend, QuantileSource};

pub use crate::threshold::AttackSweep;
use crate::{Policy, PolicyOutcome};

/// One feature's train/test data for a whole population.
#[derive(Debug, Clone)]
pub struct FeatureDataset {
    /// Which feature this dataset captures.
    pub feature: FeatureKind,
    /// Per-user training distributions (week *n*).
    pub train: Vec<EmpiricalDist>,
    /// Per-user test distributions (week *n+1*).
    pub test: Vec<EmpiricalDist>,
    /// Raw per-user test window counts, in window order (attack-window
    /// injection and per-window alarm views; `test` holds the same
    /// values sorted).
    pub test_counts: Vec<Vec<u64>>,
}

/// Why a [`FeatureDataset`] could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetError {
    /// Train and test slices cover different user counts.
    PopulationMismatch {
        /// Users in the training slice.
        train: usize,
        /// Users in the test slice.
        test: usize,
    },
    /// No users at all.
    EmptyPopulation,
}

impl core::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DatasetError::PopulationMismatch { train, test } => {
                write!(f, "one train and one test per user (got {train} vs {test})")
            }
            DatasetError::EmptyPopulation => write!(f, "need at least one user"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl FeatureDataset {
    /// Build from per-user train/test feature series, owned or borrowed.
    ///
    /// # Panics
    /// Panics when the two slices differ in length or are empty; callers
    /// fed by unreliable telemetry should use
    /// [`FeatureDataset::try_from_series`].
    // The panic is this constructor's documented contract; fallible
    // callers use `try_from_series`.
    #[allow(clippy::panic)]
    pub fn from_series(
        train: &[impl Borrow<FeatureSeries>],
        test: &[impl Borrow<FeatureSeries>],
        feature: FeatureKind,
    ) -> Self {
        match Self::try_from_series(train, test, feature) {
            Ok(ds) => ds,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`FeatureDataset::from_series`].
    pub fn try_from_series(
        train: &[impl Borrow<FeatureSeries>],
        test: &[impl Borrow<FeatureSeries>],
        feature: FeatureKind,
    ) -> Result<Self, DatasetError> {
        if train.len() != test.len() {
            return Err(DatasetError::PopulationMismatch {
                train: train.len(),
                test: test.len(),
            });
        }
        if train.is_empty() {
            return Err(DatasetError::EmptyPopulation);
        }
        let train_d = train
            .iter()
            .map(|s| EmpiricalDist::from_count_iter(s.borrow().column(feature)))
            .collect();
        let test_counts: Vec<Vec<u64>> = test.iter().map(|s| s.borrow().feature(feature)).collect();
        let test_d = test_counts
            .iter()
            .map(|c| EmpiricalDist::from_counts(c))
            .collect();
        Ok(Self {
            feature,
            train: train_d,
            test: test_d,
            test_counts,
        })
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.train.len()
    }

    /// The largest per-window value any user produced in training — the
    /// paper's cap on meaningful attack sizes.
    pub fn max_observed(&self) -> f64 {
        self.train
            .iter()
            .map(|d| d.max())
            .fold(0.0f64, f64::max)
            .max(1.0)
    }

    /// Default attack sweep for this dataset.
    pub fn default_sweep(&self) -> AttackSweep {
        AttackSweep::up_to(self.max_observed())
    }
}

/// Evaluation parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalConfig {
    /// FN weight in the utility `U = 1 − [w·FN + (1−w)·FP]`.
    pub w: f64,
    /// Attack sweep used for the FN term.
    pub sweep: AttackSweep,
}

/// One user's realised performance under a policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UserPerf {
    /// Configured threshold.
    pub threshold: f64,
    /// Empirical test false-positive rate `P(g > T)`.
    pub fp: f64,
    /// Mean test false-negative rate over the attack sweep.
    pub fn_rate: f64,
    /// Utility at the evaluation weight.
    pub utility: f64,
    /// Number of test windows whose benign traffic alone exceeded the
    /// threshold (the alarms an IT console receives).
    pub false_alarms: u64,
}

/// The paper's per-user utility `U = 1 − [w·FN + (1−w)·FP]`, shared by
/// the optimising threshold heuristics and every evaluation path.
#[inline]
pub fn utility_of(w: f64, fp: f64, fn_rate: f64) -> f64 {
    1.0 - (w * fn_rate + (1.0 - w) * fp)
}

impl UserPerf {
    /// Score one host's already-fitted `threshold` against its test week,
    /// held by either quantile backend — the one per-host scoring body
    /// behind [`evaluate_policy`], degraded evaluation and the
    /// sketch-backed fleet paths.
    ///
    /// `false_alarms` is `round(fp · n)`: on the exact backend this is the
    /// stored-count tally `#{c > threshold}` (the rounding only undoes the
    /// float division inside `fp`); on the sketch backend it is the same
    /// quantity within the sketch's rank-error bound.
    pub fn score<Q: QuantileBackend + ?Sized>(
        test: &Q,
        threshold: f64,
        sweep: &AttackSweep,
        w: f64,
    ) -> Self {
        let fp = test.exceedance(threshold);
        let fn_rate = sweep.mean_fn(test, threshold);
        UserPerf {
            threshold,
            fp,
            fn_rate,
            utility: utility_of(w, fp, fn_rate),
            false_alarms: (fp * test.len() as f64).round() as u64,
        }
    }
}

/// [`UserPerf::score`] over a [`QuantileSource`]; kept for the benchmark
/// harness, which still wraps its sketches.
pub fn score_source(test: &QuantileSource, threshold: f64, sweep: &AttackSweep, w: f64) -> UserPerf {
    UserPerf::score(test.as_backend(), threshold, sweep, w)
}

/// A policy's evaluation over a whole population.
#[derive(Debug, Clone)]
pub struct PolicyEvaluation {
    /// The policy outcome (groups + thresholds).
    pub outcome: PolicyOutcome,
    /// Per-user performance.
    pub users: Vec<UserPerf>,
    /// Evaluation parameters used.
    pub config: EvalConfig,
}

impl PolicyEvaluation {
    /// Population-mean utility (the paper's system-wide metric).
    pub fn mean_utility(&self) -> f64 {
        self.users.iter().map(|u| u.utility).sum::<f64>() / self.users.len() as f64
    }

    /// Total false alarms across the population (per test week).
    pub fn total_false_alarms(&self) -> u64 {
        self.users.iter().map(|u| u.false_alarms).sum()
    }

    /// All per-user utilities (for boxplots).
    pub fn utilities(&self) -> Vec<f64> {
        self.users.iter().map(|u| u.utility).collect()
    }
}

/// Configure `policy` on the training week and evaluate it on the test
/// week.
pub fn evaluate_policy(
    dataset: &FeatureDataset,
    policy: &Policy,
    config: &EvalConfig,
) -> PolicyEvaluation {
    let outcome = policy.configure(&dataset.train);
    let users = crate::par::par_map(&outcome.thresholds, |i, &t| {
        UserPerf::score(&dataset.test[i], t, &config.sweep, config.w)
    });
    PolicyEvaluation {
        outcome,
        users,
        config: config.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Grouping, PartialMethod, ThresholdHeuristic};
    use flowtab::{FeatureCounts, Windowing};

    /// Build a per-user series whose TCP counts follow `gen(window)`.
    fn series(n_windows: usize, gen: impl Fn(usize) -> u64) -> FeatureSeries {
        let mut s = FeatureSeries::zeros(Windowing::FIFTEEN_MIN, n_windows);
        for (w, c) in s.windows.iter_mut().enumerate() {
            *c = FeatureCounts::default();
            *c.get_mut(FeatureKind::TcpConnections) = gen(w);
        }
        s
    }

    /// A light/heavy two-population dataset: lights cycle 0..20, heavies
    /// cycle 0..2000, with train ≈ test.
    fn dataset(n_light: usize, n_heavy: usize) -> FeatureDataset {
        let mut train = Vec::new();
        let mut test = Vec::new();
        for i in 0..(n_light + n_heavy) {
            let scale = if i < n_light { 1u64 } else { 100 };
            train.push(series(200, move |w| (w as u64 % 20) * scale));
            test.push(series(200, move |w| ((w as u64 + 7) % 20) * scale));
        }
        FeatureDataset::from_series(&train, &test, FeatureKind::TcpConnections)
    }

    fn p99_policy(grouping: Grouping) -> Policy {
        Policy {
            grouping,
            heuristic: ThresholdHeuristic::P99,
        }
    }

    #[test]
    fn diversity_beats_monoculture_for_light_users() {
        let ds = dataset(16, 4);
        let config = EvalConfig {
            w: 0.5,
            sweep: ds.default_sweep(),
        };
        let homog = evaluate_policy(&ds, &p99_policy(Grouping::Homogeneous), &config);
        let full = evaluate_policy(&ds, &p99_policy(Grouping::FullDiversity), &config);

        // The monoculture threshold is set by heavy users, so light users
        // detect almost nothing (high FN).
        for i in 0..16 {
            assert!(
                full.users[i].fn_rate < homog.users[i].fn_rate,
                "light user {i}: full FN {} < homog FN {}",
                full.users[i].fn_rate,
                homog.users[i].fn_rate
            );
        }
        assert!(full.mean_utility() > homog.mean_utility());
    }

    #[test]
    fn partial_diversity_sits_between() {
        let ds = dataset(32, 8);
        let config = EvalConfig {
            w: 0.5,
            sweep: ds.default_sweep(),
        };
        let homog = evaluate_policy(&ds, &p99_policy(Grouping::Homogeneous), &config);
        let partial = evaluate_policy(
            &ds,
            &p99_policy(Grouping::Partial(PartialMethod::EIGHT_PARTIAL)),
            &config,
        );
        let full = evaluate_policy(&ds, &p99_policy(Grouping::FullDiversity), &config);
        let (uh, up, uf) = (
            homog.mean_utility(),
            partial.mean_utility(),
            full.mean_utility(),
        );
        assert!(up >= uh, "partial ({up}) >= homogeneous ({uh})");
        assert!(uf >= up - 0.02, "full ({uf}) ~>= partial ({up})");
    }

    #[test]
    fn utility_gap_grows_with_w() {
        // The paper's Figure 3(b): the diversity advantage grows as FN
        // weight grows.
        let ds = dataset(16, 4);
        let sweep = ds.default_sweep();
        let gap = |w: f64| {
            let config = EvalConfig {
                w,
                sweep: sweep.clone(),
            };
            let homog = evaluate_policy(&ds, &p99_policy(Grouping::Homogeneous), &config);
            let full = evaluate_policy(&ds, &p99_policy(Grouping::FullDiversity), &config);
            full.mean_utility() - homog.mean_utility()
        };
        let g_low = gap(0.1);
        let g_high = gap(0.9);
        assert!(
            g_high > g_low,
            "gap at w=0.9 ({g_high}) exceeds gap at w=0.1 ({g_low})"
        );
    }

    #[test]
    fn false_alarm_counting_matches_fp() {
        let ds = dataset(4, 1);
        let config = EvalConfig {
            w: 0.4,
            sweep: ds.default_sweep(),
        };
        let eval = evaluate_policy(&ds, &p99_policy(Grouping::FullDiversity), &config);
        for (perf, counts) in eval.users.iter().zip(&ds.test_counts) {
            let manual = counts.iter().filter(|&&c| c as f64 > perf.threshold).count() as u64;
            assert_eq!(perf.false_alarms, manual);
            let rate = manual as f64 / counts.len() as f64;
            assert!((rate - perf.fp).abs() < 1e-9);
        }
    }

    #[test]
    fn sketch_scores_stay_within_rank_bound() {
        let counts: Vec<u64> = (0..2000u64).map(|i| (i * 29) % 1223).collect();
        let d = EmpiricalDist::from_counts(&counts);
        let mut sk = tailstats::KllSketch::new(0.01);
        sk.extend_from_counts(&counts);
        let sweep = AttackSweep::up_to(1500.0);
        let t = d.quantile_discrete(0.95);
        let exact = UserPerf::score(&d, t, &sweep, 0.5);
        let sketched = UserPerf::score(&sk, t, &sweep, 0.5);
        let eps = 0.01 + 1.0 / counts.len() as f64;
        assert!((exact.fp - sketched.fp).abs() <= eps);
        assert!((exact.fn_rate - sketched.fn_rate).abs() <= eps);
        assert!((exact.utility - sketched.utility).abs() <= eps);
        let alarm_slack = (eps * counts.len() as f64).ceil() as u64;
        assert!(exact.false_alarms.abs_diff(sketched.false_alarms) <= alarm_slack);
    }

    #[test]
    fn utilities_bounded() {
        let ds = dataset(10, 3);
        for w in [0.0, 0.4, 1.0] {
            let config = EvalConfig {
                w,
                sweep: ds.default_sweep(),
            };
            for grouping in [
                Grouping::Homogeneous,
                Grouping::FullDiversity,
                Grouping::Partial(PartialMethod::EIGHT_PARTIAL),
            ] {
                let eval = evaluate_policy(&ds, &p99_policy(grouping), &config);
                for u in &eval.users {
                    assert!((0.0..=1.0).contains(&u.utility), "{u:?}");
                    assert!((0.0..=1.0).contains(&u.fp));
                    assert!((0.0..=1.0).contains(&u.fn_rate));
                }
            }
        }
    }

    #[test]
    fn max_observed_caps_sweep() {
        let ds = dataset(2, 1);
        assert_eq!(ds.max_observed(), 1900.0);
        let sweep = ds.default_sweep();
        assert_eq!(sweep.b_max(), 1900.0);
    }

    #[test]
    #[should_panic(expected = "one train and one test per user")]
    fn mismatched_population_rejected() {
        let a = vec![series(10, |w| w as u64)];
        let b: Vec<FeatureSeries> = Vec::new();
        let _ = FeatureDataset::from_series(&a, &b, FeatureKind::TcpConnections);
    }
}
