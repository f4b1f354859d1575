//! Grouping policies: monoculture, full diversity, partial diversity.

use std::borrow::Borrow;

use serde::{Deserialize, Serialize};
use tailstats::{kmeans_1d, EmpiricalDist};

use crate::threshold::ThresholdHeuristic;

/// How end hosts are partitioned into configuration groups.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Grouping {
    /// One group: every host gets the same threshold, computed from the
    /// pooled global distribution at the IT console (the monoculture).
    Homogeneous,
    /// Every host is its own group: thresholds computed locally.
    FullDiversity,
    /// A small number of groups; one threshold per group.
    Partial(PartialMethod),
}

/// How partial-diversity groups are formed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PartialMethod {
    /// The paper's heuristic: split users at the heavy-user knee (top
    /// `top_fraction` by training 99th percentile), then subdivide each
    /// side into quantile bands (`top_groups` and `bottom_groups`).
    /// The paper's "8-partial" is `{0.15, 4, 4}`.
    Knee {
        /// Fraction of users classed as heavy.
        top_fraction: f64,
        /// Number of bands among the heavy users.
        top_groups: usize,
        /// Number of bands among the remaining users.
        bottom_groups: usize,
    },
    /// k-means over per-user training 99th percentiles (the clustering the
    /// paper tried; kept for the ablation).
    KMeans {
        /// Number of clusters.
        k: usize,
    },
    /// Equal-population quantile bands over the training 99th percentile
    /// (the natural simple alternative).
    QuantileBands {
        /// Number of bands.
        k: usize,
    },
}

impl PartialMethod {
    /// The paper's 8-partial configuration.
    pub const EIGHT_PARTIAL: PartialMethod = PartialMethod::Knee {
        top_fraction: 0.15,
        top_groups: 4,
        bottom_groups: 4,
    };

    /// Number of groups this method produces (upper bound).
    pub fn group_count(&self) -> usize {
        match *self {
            PartialMethod::Knee {
                top_groups,
                bottom_groups,
                ..
            } => top_groups + bottom_groups,
            PartialMethod::KMeans { k } | PartialMethod::QuantileBands { k } => k,
        }
    }
}

/// A full configuration policy: grouping × threshold heuristic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Policy {
    /// How hosts are grouped.
    pub grouping: Grouping,
    /// How each group's threshold is chosen.
    pub heuristic: ThresholdHeuristic,
}

/// The result of applying a policy to a population's training data.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyOutcome {
    /// Group index per user.
    pub groups: Vec<usize>,
    /// Threshold per user (same value for all members of a group).
    pub thresholds: Vec<f64>,
    /// Threshold per group (indexed by group id).
    pub group_thresholds: Vec<f64>,
}

impl PolicyOutcome {
    /// Number of distinct groups actually populated.
    pub fn populated_groups(&self) -> usize {
        let mut seen: Vec<usize> = self.groups.clone();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }
}

/// Why a policy could not be configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigureError {
    /// The training population was empty (e.g. every host dropped out).
    EmptyPopulation,
}

impl core::fmt::Display for ConfigureError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigureError::EmptyPopulation => {
                write!(f, "cannot configure a policy over zero hosts")
            }
        }
    }
}

impl std::error::Error for ConfigureError {}

impl Policy {
    /// Configure a population: assign groups and compute per-user
    /// thresholds from the users' training distributions, owned
    /// (`&[EmpiricalDist]`) or borrowed (`&[&EmpiricalDist]`).
    ///
    /// # Panics
    /// Panics when `train` is empty; degraded-mode callers whose
    /// population may have dropped out entirely should use
    /// [`Policy::try_configure`].
    pub fn configure<D: Borrow<EmpiricalDist> + Sync>(&self, train: &[D]) -> PolicyOutcome {
        self.try_configure(train)
            .expect("need at least one user")
    }

    /// Fallible variant of [`Policy::configure`]: returns an error instead
    /// of panicking when the population is empty.
    pub fn try_configure<D: Borrow<EmpiricalDist> + Sync>(
        &self,
        train: &[D],
    ) -> Result<PolicyOutcome, ConfigureError> {
        if train.is_empty() {
            return Err(ConfigureError::EmptyPopulation);
        }
        let groups = self.grouping.assign(train);
        let n_groups = groups.iter().copied().max().unwrap_or(0) + 1;

        // One pass to collect each group's member list (this was an
        // O(users × groups) filter rescan per group).
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
        for (u, &g) in groups.iter().enumerate() {
            members[g].push(u);
        }

        // Groups are independent: pool + heuristic per group in parallel.
        // Under full diversity this is the per-user threshold fan-out.
        let group_thresholds: Vec<f64> = crate::par::par_map(&members, |_, m| match m.len() {
            0 => f64::NAN,
            1 => self.heuristic.threshold(train[m[0]].borrow()),
            _ => {
                let pooled = EmpiricalDist::pool(m.iter().map(|&u| train[u].borrow()));
                self.heuristic.threshold(&pooled)
            }
        });

        let thresholds = groups.iter().map(|&g| group_thresholds[g]).collect();
        Ok(PolicyOutcome {
            groups,
            thresholds,
            group_thresholds,
        })
    }
}

impl Grouping {
    /// Assign a group index to each user from training data, owned or
    /// borrowed.
    pub fn assign<D: Borrow<EmpiricalDist>>(&self, train: &[D]) -> Vec<usize> {
        match *self {
            Grouping::Homogeneous => vec![0; train.len()],
            Grouping::FullDiversity => (0..train.len()).collect(),
            Grouping::Partial(method) => {
                let q99: Vec<f64> = train.iter().map(|d| d.borrow().quantile(0.99)).collect();
                method.assign(&q99)
            }
        }
    }
}

impl PartialMethod {
    /// Assign groups from per-user summary statistics (training 99th
    /// percentiles).
    pub fn assign(&self, q99: &[f64]) -> Vec<usize> {
        let n = q99.len();
        if n == 0 {
            return Vec::new();
        }
        match *self {
            PartialMethod::Knee {
                top_fraction,
                top_groups,
                bottom_groups,
            } => {
                // Rank users by q99 descending; the top `top_fraction` go
                // into `top_groups` quantile bands, the rest into
                // `bottom_groups` bands.
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| q99[b].total_cmp(&q99[a]).then(a.cmp(&b)));
                let n_top = ((n as f64 * top_fraction).round() as usize).clamp(1, n);
                let mut groups = vec![0usize; n];
                band_assign(&order[..n_top], top_groups, 0, &mut groups);
                band_assign(&order[n_top..], bottom_groups, top_groups, &mut groups);
                groups
            }
            PartialMethod::KMeans { k } => {
                // Cluster in log space: the levels span decades.
                let logs: Vec<f64> = q99.iter().map(|&x| (x.max(0.5)).log10()).collect();
                kmeans_1d(&logs, k, 200).assignments
            }
            PartialMethod::QuantileBands { k } => {
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| q99[b].total_cmp(&q99[a]).then(a.cmp(&b)));
                let mut groups = vec![0usize; n];
                band_assign(&order, k, 0, &mut groups);
                groups
            }
        }
    }
}

/// Split `ranked` (descending) into `bands` roughly equal contiguous bands,
/// writing group ids starting at `base`.
fn band_assign(ranked: &[usize], bands: usize, base: usize, groups: &mut [usize]) {
    if ranked.is_empty() {
        return;
    }
    let bands = bands.clamp(1, ranked.len());
    for (pos, &user) in ranked.iter().enumerate() {
        let band = pos * bands / ranked.len();
        groups[user] = base + band;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Users with q99 roughly 10^(i/10): a smooth continuum of heaviness.
    fn continuum(n: usize) -> Vec<EmpiricalDist> {
        (0..n)
            .map(|i| {
                let level = 10f64.powf(i as f64 / (n as f64 / 3.0));
                let samples: Vec<f64> = (0..100).map(|j| level * (j as f64) / 99.0).collect();
                EmpiricalDist::from_samples(samples)
            })
            .collect()
    }

    #[test]
    fn homogeneous_gives_everyone_the_pooled_threshold() {
        let train = continuum(20);
        let policy = Policy {
            grouping: Grouping::Homogeneous,
            heuristic: ThresholdHeuristic::P99,
        };
        let out = policy.configure(&train);
        assert_eq!(out.populated_groups(), 1);
        assert!(out.thresholds.windows(2).all(|w| w[0] == w[1]));
        // Pooled 99th percentile is dominated by the heaviest users.
        let heaviest_own = ThresholdHeuristic::P99.threshold(&train[19]);
        let lightest_own = ThresholdHeuristic::P99.threshold(&train[0]);
        assert!(out.thresholds[0] > lightest_own);
        assert!(out.thresholds[0] <= heaviest_own);
    }

    #[test]
    fn full_diversity_matches_local_computation() {
        let train = continuum(10);
        let policy = Policy {
            grouping: Grouping::FullDiversity,
            heuristic: ThresholdHeuristic::P99,
        };
        let out = policy.configure(&train);
        assert_eq!(out.populated_groups(), 10);
        for (i, d) in train.iter().enumerate() {
            assert_eq!(out.thresholds[i], ThresholdHeuristic::P99.threshold(d));
        }
    }

    #[test]
    fn knee_partial_produces_eight_groups() {
        let train = continuum(100);
        let policy = Policy {
            grouping: Grouping::Partial(PartialMethod::EIGHT_PARTIAL),
            heuristic: ThresholdHeuristic::P99,
        };
        let out = policy.configure(&train);
        assert_eq!(out.populated_groups(), 8);
        // Heavier users never get a *lower* threshold than lighter ones'
        // groups by more than band granularity: check monotone trend.
        let heavy_t = out.thresholds[99];
        let light_t = out.thresholds[0];
        assert!(heavy_t > light_t);
    }

    #[test]
    fn knee_top_fraction_sizes_top_bands() {
        let q99: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let groups = PartialMethod::EIGHT_PARTIAL.assign(&q99);
        // Users 85..100 (top 15 by value) are in groups 0..4.
        for (u, &g) in groups.iter().enumerate() {
            if u >= 85 {
                assert!(g < 4, "user {u} group {g}");
            } else {
                assert!((4..8).contains(&g), "user {u} group {g}");
            }
        }
    }

    #[test]
    fn partial_thresholds_sit_between_extremes() {
        let train = continuum(100);
        let p99 = ThresholdHeuristic::P99;
        let homog = Policy {
            grouping: Grouping::Homogeneous,
            heuristic: p99.clone(),
        }
        .configure(&train);
        let full = Policy {
            grouping: Grouping::FullDiversity,
            heuristic: p99.clone(),
        }
        .configure(&train);
        let partial = Policy {
            grouping: Grouping::Partial(PartialMethod::EIGHT_PARTIAL),
            heuristic: p99,
        }
        .configure(&train);
        // For light users the partial threshold is (weakly) closer to their
        // own threshold than the homogeneous one is.
        for i in 0..50 {
            let own = full.thresholds[i];
            let via_partial = (partial.thresholds[i] - own).abs();
            let via_homog = (homog.thresholds[i] - own).abs();
            assert!(
                via_partial <= via_homog,
                "user {i}: partial {} vs homog {} (own {own})",
                partial.thresholds[i],
                homog.thresholds[i]
            );
        }
    }

    #[test]
    fn kmeans_grouping_covers_all_users() {
        let train = continuum(60);
        let groups = Grouping::Partial(PartialMethod::KMeans { k: 5 }).assign(&train);
        assert_eq!(groups.len(), 60);
        assert!(groups.iter().all(|&g| g < 5));
    }

    #[test]
    fn quantile_bands_equal_population() {
        let q99: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let groups = PartialMethod::QuantileBands { k: 4 }.assign(&q99);
        let mut counts = [0usize; 4];
        for &g in &groups {
            counts[g] += 1;
        }
        assert_eq!(counts, [10, 10, 10, 10]);
    }

    #[test]
    fn try_configure_rejects_empty_population() {
        let policy = Policy {
            grouping: Grouping::Homogeneous,
            heuristic: ThresholdHeuristic::P99,
        };
        assert_eq!(
            policy.try_configure::<EmpiricalDist>(&[]).unwrap_err(),
            ConfigureError::EmptyPopulation
        );
        // And agrees with the panicking path when the population exists.
        let train = continuum(6);
        assert_eq!(policy.try_configure(&train).unwrap(), policy.configure(&train));
        // Borrowed distributions configure identically to owned ones.
        let borrowed: Vec<&EmpiricalDist> = train.iter().collect();
        assert_eq!(policy.configure(&borrowed), policy.configure(&train));
    }

    #[test]
    fn single_user_population_works_under_every_grouping() {
        let train = continuum(1);
        for grouping in [
            Grouping::Homogeneous,
            Grouping::FullDiversity,
            Grouping::Partial(PartialMethod::EIGHT_PARTIAL),
            Grouping::Partial(PartialMethod::KMeans { k: 3 }),
        ] {
            let out = Policy {
                grouping,
                heuristic: ThresholdHeuristic::P99,
            }
            .configure(&train);
            assert_eq!(out.thresholds.len(), 1);
            assert!(out.thresholds[0].is_finite());
        }
    }

    #[test]
    fn empty_groups_leave_no_nan_user_thresholds() {
        // Knee with more bands than users forces tiny bands; every user
        // must still receive a finite threshold.
        let train = continuum(5);
        let out = Policy {
            grouping: Grouping::Partial(PartialMethod::EIGHT_PARTIAL),
            heuristic: ThresholdHeuristic::P99,
        }
        .configure(&train);
        assert!(out.thresholds.iter().all(|t| t.is_finite()));
    }
}
