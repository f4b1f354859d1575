//! Extension: operational consequences — analyst triage and threshold
//! maintenance.
//!
//! Table 3 counts alarms; this experiment prices them. A two-analyst team
//! triages each policy's weekly alarm stream (backlog, waiting time, SLA),
//! and the threshold-update strategies of `hids_core::adaptive` compete on
//! realized false-positive stability across the corpus's weeks.

use flowtab::FeatureKind;
use hids_core::{
    eval::evaluate_policy, realized_fp_series, EvalConfig, Policy, ThresholdHeuristic,
    UpdateStrategy,
};
use itconsole::{simulate_week, TriageConfig};
use tailstats::FiveNumber;

use crate::data::Corpus;
use crate::report::{fnum, Table};
use crate::POLICIES;

/// Triage simulation across the three policies.
pub fn triage_table(corpus: &Corpus, feature: FeatureKind, config: &TriageConfig) -> Table {
    let ds = corpus.dataset(feature, 0);
    let eval_config = EvalConfig {
        w: 0.4,
        sweep: ds.default_sweep(),
    };
    let n_windows = ds.test_counts.first().map_or(0, |c| c.len());

    let mut t = Table::new(
        &format!(
            "Operational cost — {} analysts, {:.0} alarms/analyst-hour, {}h shifts",
            config.analysts, config.alarms_per_analyst_hour, config.shift_hours_per_day
        ),
        &[
            "policy",
            "alarms",
            "handled",
            "backlog",
            "mean wait (h)",
            "within SLA",
        ],
    );
    for (label, grouping) in POLICIES {
        let eval = evaluate_policy(
            &ds,
            &Policy {
                grouping,
                heuristic: ThresholdHeuristic::P99,
            },
            &eval_config,
        );
        // Population alarm arrivals per window.
        let mut per_window = vec![0u64; n_windows];
        for (perf, counts) in eval.users.iter().zip(&ds.test_counts) {
            for (w, &g) in counts.iter().enumerate() {
                if g as f64 > perf.threshold {
                    per_window[w] += 1;
                }
            }
        }
        let out = simulate_week(&per_window, corpus.config.window_secs, config);
        t.row(vec![
            label.to_string(),
            out.arrived.to_string(),
            out.handled.to_string(),
            out.backlog.to_string(),
            fnum(out.mean_wait_hours),
            fnum(out.within_sla),
        ]);
    }
    t
}

/// Threshold-maintenance strategies compared on realized FP across all the
/// corpus's week transitions (full diversity, p99).
pub fn maintenance_table(corpus: &Corpus, feature: FeatureKind) -> Table {
    assert!(corpus.config.n_weeks >= 3, "need several weeks");
    let strategies = [
        ("retrain weekly (paper)", UpdateStrategy::RetrainWeekly),
        ("EWMA α=0.5", UpdateStrategy::Ewma { alpha: 0.5 }),
        ("EWMA α=0.25", UpdateStrategy::Ewma { alpha: 0.25 }),
        ("sliding 2-week window", UpdateStrategy::SlidingWindow { weeks: 2 }),
        ("sliding 4-week window", UpdateStrategy::SlidingWindow { weeks: 4 }),
    ];
    let mut t = Table::new(
        "Threshold maintenance — realized FP across weekly updates (target 0.01)",
        &["strategy", "q1", "median", "q3", "max", "|median−0.01|"],
    );
    for (label, strategy) in strategies {
        let mut all_fp = Vec::new();
        for user_weeks in &corpus.weeks {
            let weeks: Vec<&[u64]> = user_weeks.iter().map(|s| s.column(feature)).collect();
            all_fp.extend(realized_fp_series(&weeks, strategy, ThresholdHeuristic::P99));
        }
        let s = FiveNumber::from_samples(&all_fp);
        t.row(vec![
            label.to_string(),
            format!("{:.4}", s.q1),
            format!("{:.4}", s.median),
            format!("{:.4}", s.q3),
            fnum(s.max),
            format!("{:.4}", (s.median - 0.01).abs()),
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
            n_users: 60,
            n_weeks: 4,
            ..CorpusConfig::small()
        })
    }

    #[test]
    fn triage_is_harder_under_more_alarms() {
        let c = corpus();
        // A deliberately tiny team so ordering shows up in backlog/wait.
        let tight = TriageConfig {
            alarms_per_analyst_hour: 2.0,
            analysts: 1,
            shift_hours_per_day: 8.0,
            sla_hours: 8.0,
        };
        let t = triage_table(&c, FeatureKind::TcpConnections, &tight);
        assert_eq!(t.len(), 3);
        let csv = t.to_csv();
        let col = |row: usize, col: usize| -> f64 {
            csv.lines()
                .nth(row + 1)
                .unwrap()
                .split(',')
                .nth(col)
                .unwrap()
                .parse()
                .unwrap()
        };
        for row in 0..3 {
            let arrived = col(row, 1);
            let handled = col(row, 2);
            let backlog = col(row, 3);
            assert!((handled + backlog - arrived).abs() < 1e-9, "conservation");
            assert!((0.0..=1.0).contains(&col(row, 5)));
        }
    }

    #[test]
    fn maintenance_strategies_all_reasonable() {
        let c = corpus();
        let t = maintenance_table(&c, FeatureKind::TcpConnections);
        assert_eq!(t.len(), 5);
        let csv = t.to_csv();
        for line in csv.lines().skip(1) {
            let median: f64 = line.split(',').nth(2).unwrap().parse().unwrap();
            assert!(median <= 0.05, "median realized FP sane: {line}");
        }
    }
}
