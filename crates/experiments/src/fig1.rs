//! Figure 1: tail diversity across features.
//!
//! For each of the six features, the per-user 99th and 99.9th percentile
//! values of the training week, sorted ascending — the curves of
//! Fig. 1(a–f). The headline statistic is the *span in decades* between the
//! lightest and heaviest user, which the paper reports as 3–4 orders of
//! magnitude for five features and ~2 for DNS.

use flowtab::FeatureKind;
use tailstats::EmpiricalDist;

use crate::data::Corpus;
use crate::report::{fnum, Table};

/// One feature's sorted threshold curves.
#[derive(Debug, Clone)]
pub struct FeatureCurve {
    /// The feature.
    pub feature: FeatureKind,
    /// `(user_id, q99, q999)` sorted ascending by q99.
    pub points: Vec<(u32, f64, f64)>,
}

impl FeatureCurve {
    /// Span of the q99 curve in decades (max/min over users, with values
    /// floored at 1 to keep the ratio meaningful for count data).
    pub fn span_decades(&self) -> f64 {
        let lo = self
            .points
            .iter()
            .map(|p| p.1.max(1.0))
            .fold(f64::INFINITY, f64::min);
        let hi = self.points.iter().map(|p| p.1.max(1.0)).fold(0.0, f64::max);
        (hi / lo).log10()
    }

    /// Median over users of q999/q99 (how far above the 99th the 99.9th
    /// sits).
    pub fn median_tail_ratio(&self) -> f64 {
        let mut ratios: Vec<f64> = self
            .points
            .iter()
            .map(|p| p.2.max(1.0) / p.1.max(1.0))
            .collect();
        ratios.sort_by(|a, b| a.total_cmp(b));
        ratios[ratios.len() / 2]
    }
}

/// The Figure-1 result across all six features.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    /// One curve per feature.
    pub curves: Vec<FeatureCurve>,
    /// Training week used.
    pub week: usize,
}

/// Run the Figure-1 analysis on a corpus training week.
pub fn run(corpus: &Corpus, week: usize) -> Fig1Result {
    let curves = FeatureKind::ALL
        .iter()
        .map(|&feature| {
            let mut points: Vec<(u32, f64, f64)> = corpus
                .weeks
                .iter()
                .enumerate()
                .map(|(u, w)| {
                    let d = EmpiricalDist::from_count_iter(w[week].column(feature));
                    (u as u32, d.quantile(0.99), d.quantile(0.999))
                })
                .collect();
            points.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            FeatureCurve { feature, points }
        })
        .collect();
    Fig1Result { curves, week }
}

/// Render the summary table (one row per feature).
pub fn summary_table(r: &Fig1Result) -> Table {
    let mut t = Table::new(
        "Figure 1 — tail diversity (per-user 99th/99.9th percentile thresholds)",
        &[
            "feature",
            "min q99",
            "median q99",
            "max q99",
            "span (decades)",
            "median q999/q99",
        ],
    );
    for c in &r.curves {
        let q99s: Vec<f64> = c.points.iter().map(|p| p.1).collect();
        let d = EmpiricalDist::from_samples(q99s);
        t.row(vec![
            c.feature.name().to_string(),
            fnum(d.min()),
            fnum(d.quantile(0.5)),
            fnum(d.max()),
            format!("{:.2}", c.span_decades()),
            format!("{:.2}", c.median_tail_ratio()),
        ]);
    }
    t
}

/// Heaviness-concentration supplement to Figure 1: Gini coefficient of the
/// per-user q99 levels and the share of aggregate tail weight held by the
/// top 15% of users (the knee the paper's grouping heuristic splits at).
pub fn concentration_table(r: &Fig1Result) -> Table {
    let mut t = Table::new(
        "Figure 1 supplement — heaviness concentration per feature",
        &["feature", "Gini(q99)", "top-15% share", "top-15%/median ratio"],
    );
    for c in &r.curves {
        let q99s: Vec<f64> = c.points.iter().map(|p| p.1).collect();
        let gini = tailstats::gini(&q99s);
        let lorenz = tailstats::lorenz_curve(&q99s);
        // Share of total q99 mass held by the top 15% of users.
        let idx = ((lorenz.len() - 1) as f64 * 0.85).round() as usize;
        let top15_share = 1.0 - lorenz[idx].1;
        let median = EmpiricalDist::from_samples(q99s.clone()).quantile(0.5).max(1.0);
        let top15_mean = {
            let n_top = (q99s.len() * 15 / 100).max(1);
            let mut sorted = q99s;
            sorted.sort_by(|a, b| b.total_cmp(a));
            sorted[..n_top].iter().sum::<f64>() / n_top as f64
        };
        t.row(vec![
            c.feature.name().to_string(),
            format!("{gini:.3}"),
            format!("{top15_share:.3}"),
            fnum(top15_mean / median),
        ]);
    }
    t
}

/// Full per-user curve as CSV-ready table (for plotting).
pub fn curve_table(c: &FeatureCurve) -> Table {
    let mut t = Table::new(
        &format!("Figure 1 curve — {}", c.feature.name()),
        &["rank", "user", "q99", "q999"],
    );
    for (rank, (user, q99, q999)) in c.points.iter().enumerate() {
        t.row(vec![
            rank.to_string(),
            user.to_string(),
            fnum(*q99),
            fnum(*q999),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::CorpusConfig;

    #[test]
    fn curves_are_sorted_and_complete() {
        let corpus = Corpus::generate(CorpusConfig::small());
        let r = run(&corpus, 0);
        assert_eq!(r.curves.len(), 6);
        for c in &r.curves {
            assert_eq!(c.points.len(), corpus.n_users());
            assert!(c.points.windows(2).all(|p| p[0].1 <= p[1].1));
            // q999 >= q99 pointwise.
            assert!(c.points.iter().all(|p| p.2 >= p.1));
        }
    }

    #[test]
    fn tcp_span_exceeds_dns_span() {
        let corpus = Corpus::generate(CorpusConfig {
            n_users: 120,
            ..CorpusConfig::small()
        });
        let r = run(&corpus, 0);
        let span = |k: FeatureKind| {
            r.curves
                .iter()
                .find(|c| c.feature == k)
                .unwrap()
                .span_decades()
        };
        assert!(
            span(FeatureKind::TcpConnections) > span(FeatureKind::DnsConnections),
            "paper: DNS varies over fewer decades"
        );
        assert!(span(FeatureKind::TcpConnections) >= 1.5);
    }

    #[test]
    fn concentration_shows_the_knee() {
        let corpus = Corpus::generate(CorpusConfig {
            n_users: 120,
            ..CorpusConfig::small()
        });
        let r = run(&corpus, 0);
        let t = concentration_table(&r);
        assert_eq!(t.len(), 6);
        let csv = t.to_csv();
        for line in csv.lines().skip(1) {
            let mut cells = line.split(',');
            let _name = cells.next().unwrap();
            let gini: f64 = cells.next().unwrap().parse().unwrap();
            let share: f64 = cells.next().unwrap().parse().unwrap();
            assert!((0.0..=1.0).contains(&gini));
            // The top 15% hold well over 15% of aggregate tail weight.
            assert!(share > 0.3, "top-15% share {share} in {line}");
        }
    }

    #[test]
    fn tables_render() {
        let corpus = Corpus::generate(CorpusConfig {
            n_users: 10,
            ..CorpusConfig::small()
        });
        let r = run(&corpus, 0);
        let t = summary_table(&r);
        assert_eq!(t.len(), 6);
        let ct = curve_table(&r.curves[0]);
        assert_eq!(ct.len(), 10);
        assert!(ct.to_csv().lines().count() == 11);
    }
}
