//! Table 3: false alarms per week arriving at the central IT console.
//!
//! For each policy × threshold heuristic, every user's test-week alarms
//! (benign windows whose count exceeds the user's threshold) flow through
//! the per-host batcher into the central console; the table reports the
//! weekly totals. The paper's values (350 users, num-TCP-connections):
//! 99th-percentile heuristic 1594/892/482, utility(w=0.4) 3536/1194/2328.

use flowtab::{FeatureKind, Windowing};
use hids_core::{
    max_observed, AttackSweep, Detector, Grouping, PartialMethod, Policy, ThresholdHeuristic,
};
use itconsole::{AlertBatcher, CentralConsole};
use tailstats::EmpiricalDist;

use crate::data::Corpus;
use crate::report::Table;

/// Alarm totals for one heuristic across the three groupings.
#[derive(Debug, Clone)]
pub struct HeuristicRow {
    /// Heuristic label.
    pub heuristic: String,
    /// Total weekly alarms under homogeneous grouping.
    pub homogeneous: u64,
    /// ... under full diversity.
    pub full_diversity: u64,
    /// ... under 8-partial diversity.
    pub partial: u64,
}

/// The Table-3 result.
#[derive(Debug, Clone)]
pub struct Tab3Result {
    /// One row per heuristic.
    pub rows: Vec<HeuristicRow>,
    /// Users in the corpus (for per-user rates).
    pub n_users: usize,
}

fn heuristic_for(utility: bool, train: &[EmpiricalDist]) -> ThresholdHeuristic {
    if utility {
        ThresholdHeuristic::UtilityMax {
            w: 0.4,
            sweep: AttackSweep::up_to(max_observed(train)),
        }
    } else {
        ThresholdHeuristic::P99
    }
}

/// Count the alarms reaching the console for one policy, by actually
/// running detectors over the test week's columns and shipping batched
/// alerts. Only the configured thresholds are read; no per-user FN/FP
/// score is needed.
fn console_alarms(
    train: &[EmpiricalDist],
    test: &[&[u64]],
    policy: &Policy,
    feature: FeatureKind,
) -> u64 {
    let thresholds = policy.configure(train).thresholds;
    let windowing = Windowing::FIFTEEN_MIN;
    let console = CentralConsole::new(windowing.windows_per_week());

    // Each user's detector run is independent: build every user's alert
    // batches in parallel, then ingest them in user order so the console
    // sees a deterministic stream regardless of thread count.
    let per_user_batches = hids_core::par_map(&thresholds, |user, &threshold| {
        let counts = test[user];
        let mut detector = Detector::new(user as u32);
        detector.set_threshold(feature, threshold);
        let mut batcher = AlertBatcher::new(96); // ship once per day
        for alert in detector.column_alerts(feature, counts) {
            batcher.push(alert);
        }
        batcher.flush()
    });
    for batches in &per_user_batches {
        for batch in batches {
            console.ingest_batch(batch);
        }
    }
    console.stats().total_alerts
}

/// Run the Table-3 analysis (averaged over the corpus's train→test splits,
/// rounded to whole alarms).
pub fn run(corpus: &Corpus, feature: FeatureKind) -> Tab3Result {
    let splits = corpus.splits();
    assert!(!splits.is_empty(), "corpus too short for train/test");
    let datasets: Vec<_> = splits
        .iter()
        .map(|&week| corpus.train_and_test_columns(feature, week))
        .collect();
    let labels = [("99th-percentile", false), ("utility, w = 0.4", true)];
    let mut rows = Vec::new();
    for (label, utility) in labels {
        let mut totals = [0u64; 3];
        for (train, test) in &datasets {
            let heuristic = heuristic_for(utility, train);
            for (slot, grouping) in [
                Grouping::Homogeneous,
                Grouping::FullDiversity,
                Grouping::Partial(PartialMethod::EIGHT_PARTIAL),
            ]
            .into_iter()
            .enumerate()
            {
                let policy = Policy {
                    grouping,
                    heuristic: heuristic.clone(),
                };
                totals[slot] += console_alarms(train, test, &policy, feature);
            }
        }
        let div = datasets.len() as u64;
        rows.push(HeuristicRow {
            heuristic: label.to_string(),
            homogeneous: totals[0] / div,
            full_diversity: totals[1] / div,
            partial: totals[2] / div,
        });
    }
    Tab3Result {
        rows,
        n_users: corpus.n_users(),
    }
}

/// Render as the paper's Table 3.
pub fn table(r: &Tab3Result) -> Table {
    let mut t = Table::new(
        &format!(
            "Table 3 — mean false alarms per week at the central console ({} users)",
            r.n_users
        ),
        &[
            "threshold heuristic",
            "Homogeneous",
            "Full Diversity",
            "Partial Diversity",
        ],
    );
    for row in &r.rows {
        t.row(vec![
            row.heuristic.clone(),
            row.homogeneous.to_string(),
            row.full_diversity.to_string(),
            row.partial.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::CorpusConfig;

    #[test]
    fn diversity_reduces_console_load() {
        let corpus = Corpus::generate(CorpusConfig {
            n_users: 80,
            n_weeks: 2,
            ..CorpusConfig::small()
        });
        let r = run(&corpus, FeatureKind::TcpConnections);
        // Utility heuristic: the monoculture floods the console (the
        // paper's 3536 vs 1194/2328 row).
        let util = &r.rows[1];
        assert!(
            util.full_diversity * 2 < util.homogeneous,
            "utility row: full diversity cuts alarms at least in half ({} vs {})",
            util.full_diversity,
            util.homogeneous
        );
        assert!(
            util.partial < util.homogeneous,
            "utility row: partial reduces alarms ({} < {})",
            util.partial,
            util.homogeneous
        );
        // p99 heuristic: all policies target ~1% FP, so totals stay within
        // a modest factor of each other (our near-stationary population
        // lands at parity; the paper's non-stationary data favoured
        // diversity — see EXPERIMENTS.md TAB3 notes).
        let p99 = &r.rows[0];
        assert!(
            p99.full_diversity < p99.homogeneous * 3 / 2,
            "p99 row: full diversity within 1.5x of homogeneous ({} vs {})",
            p99.full_diversity,
            p99.homogeneous
        );
    }

    #[test]
    fn alarm_counts_scale_sanely() {
        // ~1% FP on 672 windows/week caps expected alarms near
        // 0.01 * 672 * users; drift keeps us within a small factor.
        let corpus = Corpus::generate(CorpusConfig {
            n_users: 40,
            n_weeks: 2,
            ..CorpusConfig::small()
        });
        let r = run(&corpus, FeatureKind::TcpConnections);
        let nominal = (0.01 * 672.0 * 40.0) as u64;
        for row in &r.rows {
            assert!(
                row.homogeneous < nominal * 6,
                "{} implausibly large vs nominal {nominal}",
                row.homogeneous
            );
        }
    }

    #[test]
    fn renders_two_rows() {
        let corpus = Corpus::generate(CorpusConfig {
            n_users: 20,
            n_weeks: 2,
            ..CorpusConfig::small()
        });
        let t = table(&run(&corpus, FeatureKind::TcpConnections));
        assert_eq!(t.len(), 2);
    }
}
