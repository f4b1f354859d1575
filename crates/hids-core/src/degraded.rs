//! Degraded-mode evaluation: the paper's methodology under telemetry loss.
//!
//! The clean pipeline assumes every host reports every window of both the
//! training and the test week. When agents crash or the collector drops
//! windows that assumption fails in two escalating ways:
//!
//! * some of a host's windows are missing — its empirical distributions
//!   are built from *fewer samples*, and thresholds/FP/FN are estimates on
//!   the available data;
//! * a host is missing entirely (zero covered windows) — it cannot be
//!   configured or evaluated at all.
//!
//! This module makes both explicit instead of panicking or silently
//! mis-measuring. A [`DegradedDataset`] carries per-host *coverage masks*
//! (produced in practice by `faultsim::TelemetryFaults`) and builds
//! per-host distributions from covered windows only, with `None` marking
//! dark hosts. [`evaluate_policy_degraded`] then configures the policy on
//! the hosts above a minimum-coverage floor — mirroring the paper's own
//! practice of discarding hosts with too little data (§3: hosts absent for
//! most of the collection were dropped) — and reports every host's status
//! and coverage alongside the usual `⟨FN, FP⟩`, so loss is *visible* in
//! the results rather than folded into them.
//!
//! With full coverage and a zero floor the degraded path reproduces
//! [`evaluate_policy`](crate::eval::evaluate_policy) exactly; the chaos
//! acceptance suite pins that equivalence.

use flowtab::{FeatureKind, FeatureSeries};
use serde::{Deserialize, Serialize};
use tailstats::EmpiricalDist;

use crate::eval::{EvalConfig, UserPerf};
use crate::{Policy, PolicyOutcome};

/// Why a degraded dataset or evaluation could not be produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedError {
    /// Train and test series cover different user counts.
    PopulationMismatch {
        /// Users in the training slice.
        train: usize,
        /// Users in the test slice.
        test: usize,
    },
    /// A coverage mask's shape disagrees with its series.
    MaskShapeMismatch {
        /// User whose mask is wrong.
        user: usize,
        /// Windows in the series.
        windows: usize,
        /// Entries in the mask.
        mask: usize,
    },
    /// No users at all.
    EmptyPopulation,
    /// Every host fell below the coverage floor — there is nobody left to
    /// configure a policy on.
    NoEvaluableHosts,
}

impl core::fmt::Display for DegradedError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DegradedError::PopulationMismatch { train, test } => {
                write!(f, "one train and one test per user (got {train} vs {test})")
            }
            DegradedError::MaskShapeMismatch {
                user,
                windows,
                mask,
            } => write!(
                f,
                "user {user}: mask has {mask} entries for {windows} windows"
            ),
            DegradedError::EmptyPopulation => write!(f, "need at least one user"),
            DegradedError::NoEvaluableHosts => {
                write!(f, "every host is below the coverage floor")
            }
        }
    }
}

impl std::error::Error for DegradedError {}

/// One feature's train/test data under partial telemetry coverage.
#[derive(Debug, Clone)]
pub struct DegradedDataset {
    /// Which feature this dataset captures.
    pub feature: FeatureKind,
    /// Per-user training distributions over *covered* windows; `None` for
    /// hosts with zero covered training windows.
    pub train: Vec<Option<EmpiricalDist>>,
    /// Per-user test distributions over covered windows.
    pub test: Vec<Option<EmpiricalDist>>,
    /// Covered test window counts per user, in window order.
    pub test_counts: Vec<Vec<u64>>,
    /// Fraction of training windows covered, per user.
    pub train_coverage: Vec<f64>,
    /// Fraction of test windows covered, per user.
    pub test_coverage: Vec<f64>,
}

/// Filter one series' counts down to covered windows.
fn masked_counts(
    series: &FeatureSeries,
    mask: &[bool],
    feature: FeatureKind,
) -> (Vec<u64>, f64) {
    let counts = series.feature(feature);
    let kept: Vec<u64> = counts
        .iter()
        .zip(mask)
        .filter_map(|(&c, &cov)| cov.then_some(c))
        .collect();
    let coverage = if counts.is_empty() {
        1.0
    } else {
        kept.len() as f64 / counts.len() as f64
    };
    (kept, coverage)
}

impl DegradedDataset {
    /// Build from per-user series plus per-user coverage masks
    /// (`masks[user][window]`, `true` = window observed).
    pub fn from_masked_series(
        train: &[FeatureSeries],
        test: &[FeatureSeries],
        train_masks: &[Vec<bool>],
        test_masks: &[Vec<bool>],
        feature: FeatureKind,
    ) -> Result<Self, DegradedError> {
        if train.len() != test.len() {
            return Err(DegradedError::PopulationMismatch {
                train: train.len(),
                test: test.len(),
            });
        }
        if train.is_empty() {
            return Err(DegradedError::EmptyPopulation);
        }
        if train_masks.len() != train.len() || test_masks.len() != test.len() {
            return Err(DegradedError::PopulationMismatch {
                train: train_masks.len(),
                test: test_masks.len(),
            });
        }
        for (u, (s, m)) in train.iter().zip(train_masks).enumerate() {
            if s.windows.len() != m.len() {
                return Err(DegradedError::MaskShapeMismatch {
                    user: u,
                    windows: s.windows.len(),
                    mask: m.len(),
                });
            }
        }
        for (u, (s, m)) in test.iter().zip(test_masks).enumerate() {
            if s.windows.len() != m.len() {
                return Err(DegradedError::MaskShapeMismatch {
                    user: u,
                    windows: s.windows.len(),
                    mask: m.len(),
                });
            }
        }

        let n = train.len();
        let mut train_d = Vec::with_capacity(n);
        let mut test_d = Vec::with_capacity(n);
        let mut test_counts = Vec::with_capacity(n);
        let mut train_cov = Vec::with_capacity(n);
        let mut test_cov = Vec::with_capacity(n);
        for u in 0..n {
            let (tr, trc) = masked_counts(&train[u], &train_masks[u], feature);
            let (te, tec) = masked_counts(&test[u], &test_masks[u], feature);
            train_d.push((!tr.is_empty()).then(|| EmpiricalDist::from_counts(&tr)));
            test_d.push((!te.is_empty()).then(|| EmpiricalDist::from_counts(&te)));
            test_counts.push(te);
            train_cov.push(trc);
            test_cov.push(tec);
        }
        Ok(Self {
            feature,
            train: train_d,
            test: test_d,
            test_counts,
            train_coverage: train_cov,
            test_coverage: test_cov,
        })
    }

    /// Number of users (including dark ones).
    pub fn n_users(&self) -> usize {
        self.train.len()
    }
}

/// Parameters for degraded-mode evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedEvalConfig {
    /// The usual evaluation parameters (FN weight, attack sweep).
    pub base: EvalConfig,
    /// Minimum fraction of windows (in both weeks) a host must have
    /// reported to be configured and scored. Hosts below the floor are
    /// excluded from threshold computation but still reported. `0.0`
    /// excludes only fully dark hosts.
    pub min_coverage: f64,
}

/// A host's standing in a degraded evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HostStatus {
    /// Enough coverage: configured and scored.
    Evaluated,
    /// Reported some windows, but fewer than the floor requires.
    LowCoverage,
    /// Zero covered windows in train or test: nothing to measure.
    Dark,
}

/// One host's result under degraded evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedUserPerf {
    /// Whether (and why not) this host was scored.
    pub status: HostStatus,
    /// Fraction of training windows this host reported.
    pub train_coverage: f64,
    /// Fraction of test windows this host reported.
    pub test_coverage: f64,
    /// Performance on available data; `None` unless
    /// [`HostStatus::Evaluated`].
    pub perf: Option<UserPerf>,
}

/// A policy's evaluation over a partially-covered population.
#[derive(Debug, Clone)]
pub struct DegradedEvaluation {
    /// Per-host status, coverage and (where possible) performance, indexed
    /// like the input population.
    pub users: Vec<DegradedUserPerf>,
    /// The policy outcome over the *evaluable sub-population*, in
    /// sub-population order (see [`DegradedEvaluation::evaluated_hosts`]).
    pub outcome: PolicyOutcome,
    /// Original indices of the evaluable hosts, in the order `outcome`
    /// lists them.
    pub evaluated_hosts: Vec<usize>,
    /// Parameters used.
    pub config: DegradedEvalConfig,
}

impl DegradedEvaluation {
    /// Mean utility over the hosts that were actually scored.
    pub fn mean_utility(&self) -> f64 {
        let (sum, n) = self
            .users
            .iter()
            .filter_map(|u| u.perf)
            .fold((0.0, 0u64), |(s, c), p| (s + p.utility, c + 1));
        if n == 0 {
            f64::NAN
        } else {
            sum / n as f64
        }
    }

    /// Hosts scored / excluded for low coverage / fully dark.
    pub fn status_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for u in &self.users {
            match u.status {
                HostStatus::Evaluated => counts.0 += 1,
                HostStatus::LowCoverage => counts.1 += 1,
                HostStatus::Dark => counts.2 += 1,
            }
        }
        counts
    }

    /// Population-mean test coverage (all hosts, scored or not).
    pub fn mean_test_coverage(&self) -> f64 {
        if self.users.is_empty() {
            return 1.0;
        }
        self.users.iter().map(|u| u.test_coverage).sum::<f64>() / self.users.len() as f64
    }

    /// Total false alarms produced by the scored hosts.
    pub fn total_false_alarms(&self) -> u64 {
        self.users
            .iter()
            .filter_map(|u| u.perf)
            .map(|p| p.false_alarms)
            .sum()
    }

    /// Export this evaluation into `reg` under the `hids_degraded_*`
    /// families. Coverage (a deterministic fraction) is exposed as an
    /// integer gauge in parts per million, keeping the snapshot inside
    /// the integer-only determinism contract.
    pub fn export_metrics(&self, reg: &mut hids_metrics::Registry) {
        reg.register_gauge(
            "hids_degraded_hosts",
            "Hosts by degraded-evaluation status",
        );
        reg.register_counter(
            "hids_degraded_false_alarms_total",
            "False alarms raised by scored hosts",
        );
        reg.register_gauge(
            "hids_degraded_mean_test_coverage_ppm",
            "Population-mean test coverage, parts per million",
        );
        let (scored, low, dark) = self.status_counts();
        reg.gauge_set(
            "hids_degraded_hosts",
            &[("status", "evaluated")],
            scored as i64,
        );
        reg.gauge_set(
            "hids_degraded_hosts",
            &[("status", "low_coverage")],
            low as i64,
        );
        reg.gauge_set("hids_degraded_hosts", &[("status", "dark")], dark as i64);
        reg.counter_add(
            "hids_degraded_false_alarms_total",
            &[],
            self.total_false_alarms(),
        );
        reg.gauge_set(
            "hids_degraded_mean_test_coverage_ppm",
            &[],
            (self.mean_test_coverage() * 1e6) as i64,
        );
    }
}

/// Configure `policy` on the evaluable hosts' available training data and
/// score them on their available test windows, reporting coverage and
/// exclusion status for every host.
pub fn evaluate_policy_degraded(
    dataset: &DegradedDataset,
    policy: &Policy,
    config: &DegradedEvalConfig,
) -> Result<DegradedEvaluation, DegradedError> {
    let n = dataset.n_users();
    if n == 0 {
        return Err(DegradedError::EmptyPopulation);
    }

    // Classify hosts. A host is evaluable when both weeks have data and
    // both coverages clear the floor; its (train, test) pair is borrowed
    // as it is classified.
    let mut status = Vec::with_capacity(n);
    let mut evaluated_hosts = Vec::new();
    let mut evaluable: Vec<(&EmpiricalDist, &EmpiricalDist)> = Vec::new();
    for u in 0..n {
        let covered = dataset.train_coverage[u] >= config.min_coverage
            && dataset.test_coverage[u] >= config.min_coverage;
        let s = match (&dataset.train[u], &dataset.test[u]) {
            (Some(train), Some(test)) if covered => {
                evaluated_hosts.push(u);
                evaluable.push((train, test));
                HostStatus::Evaluated
            }
            (Some(_), Some(_)) => HostStatus::LowCoverage,
            _ => HostStatus::Dark,
        };
        status.push(s);
    }
    if evaluated_hosts.is_empty() {
        return Err(DegradedError::NoEvaluableHosts);
    }

    // Configure on the evaluable sub-population only: thresholds are
    // computed from the data that actually arrived.
    let sub_train: Vec<&EmpiricalDist> = evaluable.iter().map(|&(train, _)| train).collect();
    let outcome = policy
        .try_configure(&sub_train)
        .map_err(|_| DegradedError::NoEvaluableHosts)?;

    // Score the evaluable hosts in parallel (deterministic order).
    let perfs = crate::par::par_map(&outcome.thresholds, |i, &t| {
        UserPerf::score(evaluable[i].1, t, &config.base.sweep, config.base.w)
    });

    let mut perf_of = vec![None; n];
    for (slot, perf) in evaluated_hosts.iter().zip(perfs) {
        perf_of[*slot] = Some(perf);
    }
    let users = (0..n)
        .map(|u| DegradedUserPerf {
            status: status[u],
            train_coverage: dataset.train_coverage[u],
            test_coverage: dataset.test_coverage[u],
            perf: perf_of[u],
        })
        .collect();

    Ok(DegradedEvaluation {
        users,
        outcome,
        evaluated_hosts,
        config: config.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate_policy, FeatureDataset};
    use crate::{Grouping, ThresholdHeuristic};
    use flowtab::{FeatureCounts, Windowing};

    fn series(n_windows: usize, gen: impl Fn(usize) -> u64) -> FeatureSeries {
        let mut s = FeatureSeries::zeros(Windowing::FIFTEEN_MIN, n_windows);
        for (w, c) in s.windows.iter_mut().enumerate() {
            *c = FeatureCounts::default();
            *c.get_mut(FeatureKind::TcpConnections) = gen(w);
        }
        s
    }

    fn population(n: usize, windows: usize) -> (Vec<FeatureSeries>, Vec<FeatureSeries>) {
        let train: Vec<FeatureSeries> = (0..n)
            .map(|i| series(windows, move |w| (w as u64 % 20) * (1 + i as u64)))
            .collect();
        let test: Vec<FeatureSeries> = (0..n)
            .map(|i| series(windows, move |w| ((w as u64 + 5) % 20) * (1 + i as u64)))
            .collect();
        (train, test)
    }

    fn full_masks(n: usize, windows: usize) -> Vec<Vec<bool>> {
        vec![vec![true; windows]; n]
    }

    fn p99() -> Policy {
        Policy {
            grouping: Grouping::FullDiversity,
            heuristic: ThresholdHeuristic::P99,
        }
    }

    fn config(ds_max: f64, min_coverage: f64) -> DegradedEvalConfig {
        DegradedEvalConfig {
            base: EvalConfig {
                w: 0.5,
                sweep: crate::threshold::AttackSweep::up_to(ds_max),
            },
            min_coverage,
        }
    }

    #[test]
    fn full_coverage_matches_clean_path_exactly() {
        let (train, test) = population(12, 150);
        let masks = full_masks(12, 150);
        let clean = FeatureDataset::from_series(&train, &test, FeatureKind::TcpConnections);
        let degraded = DegradedDataset::from_masked_series(
            &train,
            &test,
            &masks,
            &masks,
            FeatureKind::TcpConnections,
        )
        .unwrap();
        let cfg = config(clean.max_observed(), 0.0);
        let a = evaluate_policy(&clean, &p99(), &cfg.base);
        let b = evaluate_policy_degraded(&degraded, &p99(), &cfg).unwrap();
        assert_eq!(b.status_counts(), (12, 0, 0));
        for (ua, ub) in a.users.iter().zip(&b.users) {
            let pb = ub.perf.expect("all hosts evaluated");
            assert_eq!(ua, &pb, "degraded path must reproduce clean results");
        }
        assert_eq!(a.outcome.thresholds, b.outcome.thresholds);
        assert!((a.mean_utility() - b.mean_utility()).abs() < 1e-15);
    }

    #[test]
    fn dark_host_is_excluded_but_reported() {
        let (train, test) = population(6, 100);
        let mut train_masks = full_masks(6, 100);
        train_masks[3] = vec![false; 100];
        let test_masks = full_masks(6, 100);
        let ds = DegradedDataset::from_masked_series(
            &train,
            &test,
            &train_masks,
            &test_masks,
            FeatureKind::TcpConnections,
        )
        .unwrap();
        assert!(ds.train[3].is_none());
        let eval = evaluate_policy_degraded(&ds, &p99(), &config(2000.0, 0.0)).unwrap();
        assert_eq!(eval.status_counts(), (5, 0, 1));
        assert_eq!(eval.users[3].status, HostStatus::Dark);
        assert!(eval.users[3].perf.is_none());
        assert_eq!(eval.users[3].train_coverage, 0.0);
        assert_eq!(eval.evaluated_hosts, vec![0, 1, 2, 4, 5]);
        assert!(eval.mean_utility().is_finite());
    }

    #[test]
    fn coverage_floor_excludes_thin_hosts() {
        let (train, test) = population(5, 100);
        let mut test_masks = full_masks(5, 100);
        // Host 2 keeps only 10% of its test windows.
        for (w, cov) in test_masks[2].iter_mut().enumerate() {
            *cov = w % 10 == 0;
        }
        let train_masks = full_masks(5, 100);
        let ds = DegradedDataset::from_masked_series(
            &train,
            &test,
            &train_masks,
            &test_masks,
            FeatureKind::TcpConnections,
        )
        .unwrap();
        let eval = evaluate_policy_degraded(&ds, &p99(), &config(2000.0, 0.5)).unwrap();
        assert_eq!(eval.users[2].status, HostStatus::LowCoverage);
        assert!(eval.users[2].perf.is_none());
        assert!((eval.users[2].test_coverage - 0.1).abs() < 1e-12);
        // Floor at zero: same host is scored on what it sent.
        let eval0 = evaluate_policy_degraded(&ds, &p99(), &config(2000.0, 0.0)).unwrap();
        assert_eq!(eval0.users[2].status, HostStatus::Evaluated);
        assert!(eval0.users[2].perf.is_some());
    }

    #[test]
    fn host_exactly_at_floor_is_evaluated() {
        // The floor is inclusive: a host whose coverage equals
        // `min_coverage` in *both* weeks is configured and scored. 100
        // windows with every other window kept gives coverage exactly 0.5
        // (no floating-point slack needed: 50/100 is exact in binary).
        let (train, test) = population(4, 100);
        let half: Vec<bool> = (0..100).map(|w| w % 2 == 0).collect();
        let mut train_masks = full_masks(4, 100);
        let mut test_masks = full_masks(4, 100);
        train_masks[1] = half.clone();
        test_masks[1] = half;
        let ds = DegradedDataset::from_masked_series(
            &train,
            &test,
            &train_masks,
            &test_masks,
            FeatureKind::TcpConnections,
        )
        .unwrap();
        assert_eq!(ds.train_coverage[1], 0.5);
        assert_eq!(ds.test_coverage[1], 0.5);
        let eval = evaluate_policy_degraded(&ds, &p99(), &config(2000.0, 0.5)).unwrap();
        assert_eq!(
            eval.users[1].status,
            HostStatus::Evaluated,
            "coverage == floor must clear an inclusive floor"
        );
        assert!(eval.users[1].perf.is_some());
        assert!(eval.evaluated_hosts.contains(&1));
        // One window fewer and the same host drops below the floor.
        let mut thin = full_masks(4, 100);
        thin[1] = (0..100).map(|w| w % 2 == 0 && w != 0).collect();
        let ds_thin = DegradedDataset::from_masked_series(
            &train,
            &test,
            &thin,
            &full_masks(4, 100),
            FeatureKind::TcpConnections,
        )
        .unwrap();
        assert_eq!(ds_thin.train_coverage[1], 0.49);
        let eval_thin =
            evaluate_policy_degraded(&ds_thin, &p99(), &config(2000.0, 0.5)).unwrap();
        assert_eq!(eval_thin.users[1].status, HostStatus::LowCoverage);
    }

    #[test]
    fn one_thin_week_is_enough_to_demote() {
        // The Evaluated -> LowCoverage transition fires when *either* week
        // is thin, even with the other at full coverage — train-week and
        // test-week loss are each independently disqualifying.
        let (train, test) = population(5, 100);
        let thin: Vec<bool> = (0..100).map(|w| w % 5 == 0).collect(); // 20%

        // Thin test week only.
        let mut test_masks = full_masks(5, 100);
        test_masks[2] = thin.clone();
        let ds = DegradedDataset::from_masked_series(
            &train,
            &test,
            &full_masks(5, 100),
            &test_masks,
            FeatureKind::TcpConnections,
        )
        .unwrap();
        let eval = evaluate_policy_degraded(&ds, &p99(), &config(2000.0, 0.5)).unwrap();
        assert_eq!(eval.users[2].status, HostStatus::LowCoverage);
        assert_eq!(eval.users[2].train_coverage, 1.0);
        assert!(eval.users[2].perf.is_none());

        // Thin train week only: same demotion.
        let mut train_masks = full_masks(5, 100);
        train_masks[2] = thin;
        let ds = DegradedDataset::from_masked_series(
            &train,
            &test,
            &train_masks,
            &full_masks(5, 100),
            FeatureKind::TcpConnections,
        )
        .unwrap();
        let eval = evaluate_policy_degraded(&ds, &p99(), &config(2000.0, 0.5)).unwrap();
        assert_eq!(eval.users[2].status, HostStatus::LowCoverage);
        assert_eq!(eval.users[2].test_coverage, 1.0);
        assert!(eval.users[2].perf.is_none());
        // The demoted host is excluded from configuration, not from the
        // report: every other host is still scored.
        assert_eq!(eval.status_counts(), (4, 1, 0));
    }

    #[test]
    fn all_dark_population_is_an_error_not_a_panic() {
        let (train, test) = population(3, 50);
        let dark = vec![vec![false; 50]; 3];
        let full = full_masks(3, 50);
        let ds = DegradedDataset::from_masked_series(
            &train,
            &test,
            &dark,
            &full,
            FeatureKind::TcpConnections,
        )
        .unwrap();
        assert_eq!(
            evaluate_policy_degraded(&ds, &p99(), &config(100.0, 0.0)).unwrap_err(),
            DegradedError::NoEvaluableHosts
        );
    }

    #[test]
    fn mask_shape_mismatch_is_detected() {
        let (train, test) = population(2, 40);
        let mut masks = full_masks(2, 40);
        masks[1] = vec![true; 39];
        let err = DegradedDataset::from_masked_series(
            &train,
            &test,
            &masks,
            &full_masks(2, 40),
            FeatureKind::TcpConnections,
        )
        .unwrap_err();
        assert_eq!(
            err,
            DegradedError::MaskShapeMismatch {
                user: 1,
                windows: 40,
                mask: 39
            }
        );
    }

    #[test]
    fn coverage_accounting_sums_consistently() {
        let (train, test) = population(4, 200);
        let mut test_masks = full_masks(4, 200);
        for (u, mask) in test_masks.iter_mut().enumerate() {
            for (w, cov) in mask.iter_mut().enumerate() {
                *cov = (w + u) % 4 != 0;
            }
        }
        let ds = DegradedDataset::from_masked_series(
            &train,
            &test,
            &full_masks(4, 200),
            &test_masks,
            FeatureKind::TcpConnections,
        )
        .unwrap();
        for u in 0..4 {
            let kept = test_masks[u].iter().filter(|&&c| c).count();
            assert_eq!(ds.test_counts[u].len(), kept);
            assert!((ds.test_coverage[u] - kept as f64 / 200.0).abs() < 1e-12);
        }
    }
}
