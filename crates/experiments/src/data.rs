//! Corpus: the generated population traces every experiment consumes.

use flowtab::{FeatureKind, FeatureWeek, Windowing};
use hids_core::FeatureDataset;
use serde::{Deserialize, Serialize};
use synthgen::{Population, PopulationConfig, UserProfile, WeekPlan};
use tailstats::EmpiricalDist;

/// Configuration of a reproduction run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Number of users (paper: 350).
    pub n_users: usize,
    /// Number of weeks (paper: 5, of which weeks 1→2 and 3→4 are used).
    pub n_weeks: usize,
    /// Master seed.
    pub seed: u64,
    /// Window width in seconds (paper default: 900).
    pub window_secs: f64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        Self {
            n_users: 350,
            n_weeks: 5,
            seed: 0xC0FFEE,
            window_secs: 900.0,
        }
    }
}

impl CorpusConfig {
    /// A small corpus for unit tests and doc examples.
    pub fn small() -> Self {
        Self {
            n_users: 40,
            n_weeks: 2,
            ..Default::default()
        }
    }

    /// The windowing implied by `window_secs`.
    pub fn windowing(&self) -> Windowing {
        Windowing {
            width_secs: self.window_secs,
        }
    }
}

/// The generated corpus: profiles plus per-user, per-week feature counts.
///
/// Each user-week is stored feature-major ([`FeatureWeek`]): every result
/// reads one feature at a time, so each read is one contiguous column.
/// No other layout of the counts is kept.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Run configuration.
    pub config: CorpusConfig,
    /// Sampled population.
    pub population: Population,
    /// `weeks[u][w]` is user `u`'s counts for week `w`.
    pub weeks: Vec<Vec<FeatureWeek>>,
}

impl Corpus {
    /// Generate a corpus, parallelising across users via
    /// [`hids_core::par_map`] (each user's weekly counts derive from their
    /// own seeded stream, so output is identical at any thread count).
    pub fn generate(config: CorpusConfig) -> Self {
        let population = Population::sample(PopulationConfig {
            n_users: config.n_users,
            seed: config.seed,
            ..Default::default()
        });
        let windowing = config.windowing();
        let n_weeks = config.n_weeks;
        let seed = population.config.seed;
        let trend = population.config.weekly_trend;

        let weeks = hids_core::par_map(&population.users, |_, u: &UserProfile| {
            let plan = WeekPlan::new(u, windowing);
            (0..n_weeks)
                .map(|w| plan.columns(seed, w, trend))
                .collect::<Vec<_>>()
        });

        Self {
            config,
            population,
            weeks,
        }
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.weeks.len()
    }

    /// One user's counts for one week.
    pub fn series(&self, user: usize, week: usize) -> &FeatureWeek {
        &self.weeks[user][week]
    }

    /// Every user's counts of one feature in one week.
    pub fn columns(&self, feature: FeatureKind, week: usize) -> Vec<&[u64]> {
        self.weeks.iter().map(|w| w[week].column(feature)).collect()
    }

    /// Every user's distribution of one feature in one week — the
    /// training half of [`Corpus::dataset`], for callers that never read
    /// the test week.
    pub fn dists(&self, feature: FeatureKind, week: usize) -> Vec<EmpiricalDist> {
        self.weeks
            .iter()
            .map(|w| EmpiricalDist::from_counts(w[week].column(feature)))
            .collect()
    }

    /// The training distributions of week `train_week` and the borrowed
    /// test columns of the week after: the two halves of
    /// [`Corpus::dataset`] that a figure scoring raw test windows reads,
    /// without building the test week's distributions.
    ///
    /// # Panics
    /// Panics when no week follows `train_week`.
    pub fn train_and_test_columns(
        &self,
        feature: FeatureKind,
        train_week: usize,
    ) -> (Vec<EmpiricalDist>, Vec<&[u64]>) {
        assert!(
            train_week + 1 < self.config.n_weeks,
            "need a following test week"
        );
        (
            self.dists(feature, train_week),
            self.columns(feature, train_week + 1),
        )
    }

    /// Train-on-week / test-on-next dataset for one feature, built from
    /// borrowed columns. Nothing is cached: an experiment that reads one
    /// (feature, split) several times builds it once and passes it on.
    ///
    /// The paper trains on week 1 and tests on week 2, then trains on week
    /// 3 and tests on week 4 (`train_week` ∈ {0, 2} in 0-based indexing).
    pub fn dataset(&self, feature: FeatureKind, train_week: usize) -> FeatureDataset {
        assert!(
            train_week + 1 < self.config.n_weeks,
            "need a following test week"
        );
        let train = self.columns(feature, train_week);
        let test = self.columns(feature, train_week + 1);
        FeatureDataset::from_columns(&train, &test, feature).expect("need at least one user")
    }

    /// The train→test splits the paper evaluates (weeks 1→2 and 3→4 when
    /// five weeks exist; fewer with a smaller corpus).
    pub fn splits(&self) -> Vec<usize> {
        if self.config.n_weeks >= 4 {
            vec![0, 2]
        } else if self.config.n_weeks >= 2 {
            vec![0]
        } else {
            vec![]
        }
    }

    /// One dataset per split of [`Corpus::splits`], in split order.
    ///
    /// # Panics
    /// Panics when the corpus is too short for any split.
    pub fn split_datasets(&self, feature: FeatureKind) -> Vec<FeatureDataset> {
        let splits = self.splits();
        assert!(!splits.is_empty(), "corpus too short for train/test");
        splits
            .iter()
            .map(|&week| self.dataset(feature, week))
            .collect()
    }

    /// Per-user training 99th percentile for a feature (the summary the
    /// grouping policies and Figures 1–2 are built from).
    pub fn q99(&self, feature: FeatureKind, week: usize) -> Vec<f64> {
        hids_core::par_map(&self.weeks, |_, w| {
            EmpiricalDist::from_counts(w[week].column(feature)).quantile(0.99)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_corpus_generates() {
        let c = Corpus::generate(CorpusConfig::small());
        assert_eq!(c.n_users(), 40);
        assert_eq!(c.weeks[0].len(), 2);
        assert_eq!(c.series(0, 0).len(), 672);
        assert_eq!(c.splits(), vec![0]);
    }

    #[test]
    fn corpus_matches_sequential_generation() {
        let c = Corpus::generate(CorpusConfig {
            n_users: 6,
            n_weeks: 2,
            ..CorpusConfig::small()
        });
        // Parallel generation through reused plans must equal the
        // sequential per-user streams of the original generator, column
        // for column.
        let u = &c.population.users[3];
        let expect = synthgen::counts::oracle::user_week_series_trended(
            u,
            c.population.config.seed,
            1,
            c.config.windowing(),
            c.population.config.weekly_trend,
        );
        for f in FeatureKind::ALL {
            assert_eq!(c.series(3, 1).column(f), expect.feature(f), "{f}");
        }
        assert_eq!(c.series(3, 1).windowing, expect.windowing);
    }

    #[test]
    fn dataset_pairs_consecutive_weeks() {
        let c = Corpus::generate(CorpusConfig::small());
        let ds = c.dataset(FeatureKind::TcpConnections, 0);
        assert_eq!(ds.n_users(), 40);
        assert!(ds.max_observed() >= 1.0);
    }

    #[test]
    fn dists_are_the_datasets_training_half() {
        let c = Corpus::generate(CorpusConfig::small());
        let ds = c.dataset(FeatureKind::UdpConnections, 0);
        assert_eq!(c.dists(FeatureKind::UdpConnections, 0), ds.train);
    }

    #[test]
    fn five_week_corpus_has_two_splits() {
        let c = Corpus::generate(CorpusConfig {
            n_users: 3,
            n_weeks: 5,
            ..CorpusConfig::small()
        });
        assert_eq!(c.splits(), vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "following test week")]
    fn dataset_needs_test_week() {
        let c = Corpus::generate(CorpusConfig {
            n_users: 2,
            n_weeks: 2,
            ..CorpusConfig::small()
        });
        let _ = c.dataset(FeatureKind::TcpConnections, 1);
    }
}
