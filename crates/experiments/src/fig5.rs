//! Figure 5: real-attack replay (Storm zombie overlay).
//!
//! The Storm zombie's week of traffic is overlaid additively on every
//! user's test week; the feature analysed is `num-distinct-connections`
//! (distinct destination addresses), as in the paper. Each user yields one
//! ⟨FP, detection⟩ point; panel (a) contrasts Homogeneous with
//! Full-Diversity, panel (b) Full-Diversity with 8-Partial.

use attacksim::{replay_population, ReplayPerf};
use flowtab::FeatureKind;
use hids_core::{Policy, ThresholdHeuristic};

use crate::data::Corpus;
use crate::report::{fnum, Table};
use crate::POLICIES;
use synthgen::{storm_week_series, StormConfig};

/// Per-policy replay scatter.
#[derive(Debug, Clone)]
pub struct ReplayScatter {
    /// Policy label.
    pub policy: &'static str,
    /// One point per user.
    pub points: Vec<ReplayPerf>,
}

impl ReplayScatter {
    /// Median FP across users.
    pub fn median_fp(&self) -> f64 {
        sorted_median(self.points.iter().map(|p| p.fp))
    }

    /// Median detection rate across users.
    pub fn median_detection(&self) -> f64 {
        sorted_median(self.points.iter().map(|p| p.detection))
    }

    /// Spread of FP rates in decades (max/min over users, floored at the
    /// one-per-week rate to avoid log(0)).
    pub fn fp_span_decades(&self, windows_per_week: f64) -> f64 {
        let floor = 1.0 / windows_per_week;
        let lo = self
            .points
            .iter()
            .map(|p| p.fp.max(floor))
            .fold(f64::INFINITY, f64::min);
        let hi = self.points.iter().map(|p| p.fp.max(floor)).fold(0.0, f64::max);
        (hi / lo).log10()
    }
}

fn sorted_median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// The Figure-5 result: scatters for the three policies.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// Homogeneous / Full-Diversity / 8-Partial scatters.
    pub scatters: Vec<ReplayScatter>,
    /// The zombie overlay used (per-window distinct counts).
    pub zombie_distinct: Vec<u64>,
}

/// Run the Storm replay.
pub fn run(corpus: &Corpus, week: usize, storm: &StormConfig) -> Fig5Result {
    let feature = FeatureKind::DistinctConnections;
    let (train, test) = corpus.train_and_test_columns(feature, week);
    let zombie = storm_week_series(storm, corpus.config.windowing(), 0);
    let zombie_distinct = zombie.feature(feature);

    let scatters = POLICIES
        .iter()
        .map(|&(label, grouping)| {
            let thresholds = Policy {
                grouping,
                heuristic: ThresholdHeuristic::P99,
            }
            .configure(&train)
            .thresholds;
            ReplayScatter {
                policy: label,
                points: replay_population(&test, &zombie_distinct, &thresholds),
            }
        })
        .collect();

    Fig5Result {
        scatters,
        zombie_distinct,
    }
}

/// Scatter points as a CSV-ready table (policy column included).
pub fn scatter_table(r: &Fig5Result) -> Table {
    let mut t = Table::new(
        "Figure 5 — Storm replay: per-user ⟨FP, detection⟩",
        &["policy", "user", "fp", "detection"],
    );
    for s in &r.scatters {
        for (u, p) in s.points.iter().enumerate() {
            t.row(vec![
                s.policy.to_string(),
                u.to_string(),
                format!("{:.6}", p.fp),
                format!("{:.4}", p.detection),
            ]);
        }
    }
    t
}

/// Summary statistics matching the paper's qualitative reading.
pub fn summary_table(r: &Fig5Result, windows_per_week: f64) -> Table {
    let mut t = Table::new(
        "Figure 5 — summary (Storm zombie, num-distinct-connections)",
        &[
            "policy",
            "median FP",
            "FP span (decades)",
            "median detection",
            "frac detection in [0.3,0.7]",
        ],
    );
    for s in &r.scatters {
        let mid = s
            .points
            .iter()
            .filter(|p| (0.3..=0.7).contains(&p.detection))
            .count() as f64
            / s.points.len() as f64;
        t.row(vec![
            s.policy.to_string(),
            format!("{:.5}", s.median_fp()),
            format!("{:.2}", s.fp_span_decades(windows_per_week)),
            fnum(s.median_detection()),
            format!("{mid:.2}"),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::CorpusConfig;

    fn result() -> (Corpus, Fig5Result) {
        let corpus = Corpus::generate(CorpusConfig {
            n_users: 100,
            n_weeks: 2,
            ..CorpusConfig::small()
        });
        let r = run(&corpus, 0, &StormConfig::default());
        (corpus, r)
    }

    #[test]
    fn diversity_pins_fp_homogeneous_scatters_it() {
        let (corpus, r) = result();
        let wpw = corpus.config.windowing().windows_per_week() as f64;
        let homog = &r.scatters[0];
        let full = &r.scatters[1];
        // Paper: under diversity the bulk of users sit at FP ≈ 1%;
        // under homogeneity FP spans orders of magnitude.
        assert!(
            homog.fp_span_decades(wpw) > full.fp_span_decades(wpw),
            "homog span {} > full span {}",
            homog.fp_span_decades(wpw),
            full.fp_span_decades(wpw)
        );
        assert!(
            full.median_fp() <= 0.02,
            "diversity median FP near the 1% target, got {}",
            full.median_fp()
        );
    }

    #[test]
    fn detection_rates_scattered_under_diversity() {
        let (_, r) = result();
        let full = &r.scatters[1];
        let dets: Vec<f64> = full.points.iter().map(|p| p.detection).collect();
        let lo = dets.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = dets.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            hi - lo > 0.3,
            "diverse thresholds spread detection rates ({lo}..{hi})"
        );
    }

    #[test]
    fn partial_bounds_fp_better_than_homogeneous() {
        let (corpus, r) = result();
        let wpw = corpus.config.windowing().windows_per_week() as f64;
        assert!(r.scatters[2].fp_span_decades(wpw) <= r.scatters[0].fp_span_decades(wpw));
    }

    #[test]
    fn every_user_has_a_point_and_attack_windows() {
        let (corpus, r) = result();
        for s in &r.scatters {
            assert_eq!(s.points.len(), corpus.n_users());
            assert!(s.points.iter().all(|p| p.attack_windows > 0));
        }
    }

    #[test]
    fn tables_render() {
        let (corpus, r) = result();
        let wpw = corpus.config.windowing().windows_per_week() as f64;
        assert_eq!(scatter_table(&r).len(), 3 * corpus.n_users());
        assert_eq!(summary_table(&r, wpw).len(), 3);
    }
}
