//! Extension: week-over-week threshold instability.
//!
//! The paper notes (§6.1) that "selecting a threshold based on the 99th
//! percentile (for a given week) did not always reflect a 1% false
//! positive rate in the next week". This experiment quantifies that drift
//! and evaluates EWMA smoothing of weekly thresholds as a mitigation.

use flowtab::FeatureKind;
use tailstats::{ks_distance, Ewma, EmpiricalDist, FiveNumber};

use crate::data::Corpus;
use crate::report::{fnum, Table};

/// Drift statistics for one feature.
#[derive(Debug, Clone)]
pub struct DriftResult {
    /// Feature analysed.
    pub feature: FeatureKind,
    /// Per-user realized FP when the week-n p99 threshold is applied to
    /// week n+1 (all consecutive week pairs pooled).
    pub realized_fp: Vec<f64>,
    /// Per-user relative threshold change |T(n+1) − T(n)| / max(T(n), 1).
    pub relative_change: Vec<f64>,
    /// Realized FP when thresholds are EWMA-smoothed (α = 0.5) over weeks.
    pub smoothed_fp: Vec<f64>,
    /// Kolmogorov–Smirnov distance between each user's consecutive weekly
    /// distributions (how much the whole distribution moved, not just the
    /// tail).
    pub ks: Vec<f64>,
}

/// Run the drift analysis over all consecutive week pairs.
pub fn run(corpus: &Corpus, feature: FeatureKind) -> DriftResult {
    let n_weeks = corpus.config.n_weeks;
    assert!(n_weeks >= 2, "drift needs at least two weeks");
    let mut realized_fp = Vec::new();
    let mut relative_change = Vec::new();
    let mut smoothed_fp = Vec::new();
    let mut ks = Vec::new();

    for user_weeks in &corpus.weeks {
        let dists: Vec<EmpiricalDist> = user_weeks
            .iter()
            .map(|s| EmpiricalDist::from_counts(s.column(feature)))
            .collect();
        let thresholds: Vec<f64> = dists.iter().map(|d| d.quantile_discrete(0.99)).collect();
        let mut ewma = Ewma::new(0.5);
        let mut smoothed: Vec<f64> = Vec::with_capacity(thresholds.len());
        for &t in &thresholds {
            smoothed.push(ewma.observe(t));
        }
        for w in 0..n_weeks - 1 {
            realized_fp.push(dists[w + 1].exceedance(thresholds[w]));
            smoothed_fp.push(dists[w + 1].exceedance(smoothed[w]));
            relative_change
                .push((thresholds[w + 1] - thresholds[w]).abs() / thresholds[w].max(1.0));
            ks.push(ks_distance(&dists[w], &dists[w + 1]));
        }
    }

    DriftResult {
        feature,
        realized_fp,
        relative_change,
        smoothed_fp,
        ks,
    }
}

/// Render the drift summary.
pub fn table(r: &DriftResult) -> Table {
    let mut t = Table::new(
        &format!(
            "Threshold drift — p99 trained week n applied to week n+1 ({})",
            r.feature.name()
        ),
        &["statistic", "q1", "median", "q3", "max"],
    );
    for (label, data) in [
        ("realized FP (target 0.01)", &r.realized_fp),
        ("realized FP, EWMA-smoothed", &r.smoothed_fp),
        ("relative threshold change", &r.relative_change),
        ("KS distance week->week", &r.ks),
    ] {
        let s = FiveNumber::from_samples(data);
        t.row(vec![
            label.to_string(),
            format!("{:.4}", s.q1),
            format!("{:.4}", s.median),
            format!("{:.4}", s.q3),
            fnum(s.max),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::CorpusConfig;

    #[test]
    fn drift_exists_but_is_bounded() {
        let corpus = Corpus::generate(CorpusConfig {
            n_users: 60,
            n_weeks: 3,
            ..CorpusConfig::small()
        });
        let r = run(&corpus, FeatureKind::TcpConnections);
        assert_eq!(r.realized_fp.len(), 60 * 2);
        // The paper's observation: realized FP differs from the nominal 1%.
        let off_target = r
            .realized_fp
            .iter()
            .filter(|&&fp| (fp - 0.01).abs() > 0.003)
            .count();
        assert!(
            off_target > r.realized_fp.len() / 10,
            "many users drift off the 1% target ({off_target})"
        );
        // But not absurdly: median realized FP stays within [0, 5%].
        let mut fps = r.realized_fp.clone();
        fps.sort_by(|a, b| a.total_cmp(b));
        assert!(fps[fps.len() / 2] <= 0.05);
    }

    #[test]
    fn ks_distance_positive_but_bounded() {
        let corpus = Corpus::generate(CorpusConfig {
            n_users: 30,
            n_weeks: 3,
            ..CorpusConfig::small()
        });
        let r = run(&corpus, FeatureKind::TcpConnections);
        assert_eq!(r.ks.len(), 60);
        assert!(r.ks.iter().all(|&d| (0.0..=1.0).contains(&d)));
        // Weeks are similar but not identical.
        let mean = r.ks.iter().sum::<f64>() / r.ks.len() as f64;
        assert!(mean > 0.005 && mean < 0.6, "mean KS {mean}");
    }

    #[test]
    fn thresholds_change_week_to_week() {
        let corpus = Corpus::generate(CorpusConfig {
            n_users: 30,
            n_weeks: 3,
            ..CorpusConfig::small()
        });
        let r = run(&corpus, FeatureKind::UdpConnections);
        let moved = r.relative_change.iter().filter(|&&c| c > 0.0).count();
        assert!(moved > r.relative_change.len() / 2);
    }

    #[test]
    fn table_renders_three_rows() {
        let corpus = Corpus::generate(CorpusConfig {
            n_users: 10,
            n_weeks: 2,
            ..CorpusConfig::small()
        });
        assert_eq!(table(&run(&corpus, FeatureKind::DnsConnections)).len(), 4);
    }
}
