//! Figure 4: attacker effectiveness under the three policies.
//!
//! (a) naive attacker — fraction of users raising an alarm vs attack size;
//! (b) resourceful (mimicry) attacker — the per-user hidden-traffic budget
//! at 90% evasion, summarised as boxplots.

use attacksim::{detection_curve, hidden_traffic, omniscient_population, total_capacity, NaiveAttack};
use flowtab::FeatureKind;
use hids_core::{max_observed, Grouping, Policy, ThresholdHeuristic};
use tailstats::{EmpiricalDist, FiveNumber};

use crate::data::Corpus;
use crate::report::{fnum, Table};
use crate::POLICIES;

/// Figure 4(a): detection curves.
#[derive(Debug, Clone)]
pub struct Fig4aResult {
    /// The swept attack sizes.
    pub sizes: Vec<f64>,
    /// `curves[p][i]` = fraction of users alarming at `sizes[i]` under
    /// policy `p`.
    pub curves: Vec<Vec<f64>>,
}

/// Figure 4(b): hidden-traffic budgets.
#[derive(Debug, Clone)]
pub struct Fig4bResult {
    /// Per-policy per-user budgets.
    pub budgets: Vec<Vec<u64>>,
    /// Boxplot summaries per policy.
    pub summaries: Vec<FiveNumber>,
    /// Evasion probability targeted.
    pub evade_prob: f64,
}

fn thresholds_for(train: &[EmpiricalDist], grouping: Grouping) -> Vec<f64> {
    Policy {
        grouping,
        heuristic: ThresholdHeuristic::P99,
    }
    .configure(train)
    .thresholds
}

/// Run Figure 4(a): sweep attack sizes for the naive attacker.
pub fn run_a(corpus: &Corpus, feature: FeatureKind, week: usize, n_sizes: usize) -> Fig4aResult {
    let (train, test) = corpus.train_and_test_columns(feature, week);
    let b_max = max_observed(&train);
    let sizes: Vec<f64> = (0..n_sizes)
        .map(|i| 1.0 + (b_max - 1.0) * i as f64 / (n_sizes - 1).max(1) as f64)
        .collect();
    let attack = NaiveAttack::default_for(corpus.config.windowing());
    let curves = POLICIES
        .iter()
        .map(|&(_, grouping)| {
            let thresholds = thresholds_for(&train, grouping);
            detection_curve(&test, &thresholds, &sizes, &attack)
                .into_iter()
                .map(|(_, f)| f)
                .collect()
        })
        .collect();
    Fig4aResult { sizes, curves }
}

/// Run Figure 4(b): mimicry budgets at `evade_prob`.
pub fn run_b(corpus: &Corpus, feature: FeatureKind, week: usize, evade_prob: f64) -> Fig4bResult {
    let train = corpus.dists(feature, week);
    let budgets: Vec<Vec<u64>> = POLICIES
        .iter()
        .map(|&(_, grouping)| {
            let thresholds = thresholds_for(&train, grouping);
            hidden_traffic(&train, &thresholds, evade_prob)
                .into_iter()
                .map(|e| e.budget)
                .collect()
        })
        .collect();
    let summaries = budgets
        .iter()
        .map(|b| FiveNumber::from_samples(&b.iter().map(|&x| x as f64).collect::<Vec<_>>()))
        .collect();
    Fig4bResult {
        budgets,
        summaries,
        evade_prob,
    }
}

/// Extension beyond Fig. 4(b): the omniscient-attacker capacity bound —
/// malware that watches live traffic and fills every window to the
/// threshold. Reported as total undetectable weekly DDoS capacity of the
/// whole botnet under each policy.
pub fn run_c(corpus: &Corpus, feature: FeatureKind, week: usize) -> Table {
    let (train, test) = corpus.train_and_test_columns(feature, week);
    let mut t = Table::new(
        "Extension — omniscient attacker: total undetectable weekly capacity",
        &[
            "policy",
            "botnet capacity (units/week)",
            "median per-user",
            "saturated windows (mean)",
        ],
    );
    for (label, grouping) in POLICIES {
        let thresholds = thresholds_for(&train, grouping);
        let budgets = omniscient_population(&test, &thresholds);
        let mut per_user: Vec<f64> = budgets.iter().map(|b| b.weekly_total as f64).collect();
        per_user.sort_by(|a, b| a.total_cmp(b));
        let sat = budgets.iter().map(|b| b.saturated_windows).sum::<u64>() as f64
            / budgets.len() as f64;
        t.row(vec![
            label.to_string(),
            total_capacity(&budgets).to_string(),
            fnum(per_user[per_user.len() / 2]),
            fnum(sat),
        ]);
    }
    t
}

/// Render the detection curves at a subsample of sizes.
pub fn table_a(r: &Fig4aResult) -> Table {
    let mut t = Table::new(
        "Figure 4(a) — fraction of users raising alarms vs naive attack size",
        &["attack size", "Homogeneous", "Full-Diversity", "8-Partial"],
    );
    let step = (r.sizes.len() / 16).max(1);
    for i in (0..r.sizes.len()).step_by(step) {
        t.row(vec![
            fnum(r.sizes[i]),
            fnum(r.curves[0][i]),
            fnum(r.curves[1][i]),
            fnum(r.curves[2][i]),
        ]);
    }
    t
}

/// Render the hidden-traffic boxplot statistics.
pub fn table_b(r: &Fig4bResult) -> Table {
    let mut t = Table::new(
        &format!(
            "Figure 4(b) — hidden traffic of a resourceful attacker (evasion ≥ {:.0}%)",
            r.evade_prob * 100.0
        ),
        &["policy", "min", "q1", "median", "q3", "max", "mean"],
    );
    for ((label, _), s) in POLICIES.iter().zip(&r.summaries) {
        t.row(vec![
            label.to_string(),
            fnum(s.min),
            fnum(s.q1),
            fnum(s.median),
            fnum(s.q3),
            fnum(s.max),
            fnum(s.mean),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::CorpusConfig;

    fn corpus() -> Corpus {
        Corpus::generate(CorpusConfig {
            n_users: 80,
            n_weeks: 2,
            ..CorpusConfig::small()
        })
    }

    #[test]
    fn diversity_detects_stealthy_attacks_better() {
        let c = corpus();
        let r = run_a(&c, FeatureKind::TcpConnections, 0, 60);
        // Stealthy regime: the smallest decile of attack sizes.
        let stealth_end = r.sizes.len() / 10;
        let mean = |curve: &[f64]| {
            curve[1..=stealth_end].iter().sum::<f64>() / stealth_end as f64
        };
        let homog = mean(&r.curves[0]);
        let full = mean(&r.curves[1]);
        assert!(
            full > homog,
            "full diversity catches stealth: {full} > {homog}"
        );
        // Everyone detects the maximal attack.
        for curve in &r.curves {
            assert!(*curve.last().unwrap() > 0.95);
        }
    }

    #[test]
    fn curves_monotone() {
        let c = corpus();
        let r = run_a(&c, FeatureKind::UdpConnections, 0, 40);
        for curve in &r.curves {
            for w in curve.windows(2) {
                assert!(w[1] >= w[0] - 1e-12);
            }
        }
    }

    #[test]
    fn mimicry_budget_shrinks_under_diversity() {
        let c = corpus();
        let r = run_b(&c, FeatureKind::TcpConnections, 0, 0.9);
        let median = |i: usize| r.summaries[i].median;
        assert!(
            median(1) < median(0),
            "paper: median hidden traffic drops to ~1/3 under diversity ({} < {})",
            median(1),
            median(0)
        );
        assert!(
            median(2) < median(0),
            "8-partial also restricts the attacker ({} < {})",
            median(2),
            median(0)
        );
    }

    #[test]
    fn tables_render() {
        let c = corpus();
        let a = run_a(&c, FeatureKind::TcpConnections, 0, 32);
        assert!(table_a(&a).len() >= 16);
        let b = run_b(&c, FeatureKind::TcpConnections, 0, 0.9);
        assert_eq!(table_b(&b).len(), 3);
    }

    #[test]
    fn omniscient_capacity_collapses_under_diversity() {
        let c = corpus();
        let t = run_c(&c, FeatureKind::TcpConnections, 0);
        assert_eq!(t.len(), 3);
        let csv = t.to_csv();
        let capacity = |row: usize| -> f64 {
            csv.lines()
                .nth(row + 1)
                .unwrap()
                .split(',')
                .nth(1)
                .unwrap()
                .parse()
                .unwrap()
        };
        let homog = capacity(0);
        let full = capacity(1);
        let partial = capacity(2);
        assert!(
            full < homog / 2.0,
            "diversity at least halves botnet capacity ({full} vs {homog})"
        );
        assert!(partial < homog, "partial reduces capacity too");
    }
}
