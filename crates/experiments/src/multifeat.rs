//! Extension: concurrent multi-feature monitoring.
//!
//! The paper's detectors monitor several features at once and its
//! introduction predicts hardware tracking "large numbers of features
//! simultaneously". This experiment quantifies the operational trade-off:
//! turning on more features raises the union false-positive rate (alarms
//! from any feature) but detects the Storm zombie — which perturbs several
//! features at once — in more windows; requiring two features to
//! corroborate claws most of the FP back.

use flowtab::{FeatureKind, FeatureWeek};
use hids_core::{Detector, FireMasks, MultiUserPerf, Overlay, Policy, ThresholdHeuristic};
use synthgen::{storm_week_series, StormConfig};
use tailstats::EmpiricalDist;

use crate::data::Corpus;
use crate::report::{fnum, Table};
use crate::POLICIES;

/// One row: a policy × feature-set combination.
#[derive(Debug, Clone)]
pub struct MultiRow {
    /// Grouping label.
    pub policy: &'static str,
    /// Number of monitored features.
    pub n_features: usize,
    /// Mean union FP rate across users.
    pub fp_any: f64,
    /// Mean ≥2-feature corroborated FP rate.
    pub fp_corroborated: f64,
    /// Mean Storm detection rate (any feature alarms in a zombie window).
    pub storm_detection: f64,
}

/// The multi-feature result.
#[derive(Debug, Clone)]
pub struct MultiFeatResult {
    /// All rows, grouped by policy then feature count.
    pub rows: Vec<MultiRow>,
}

const FEATURE_SETS: [&[FeatureKind]; 3] = [
    &[FeatureKind::DistinctConnections],
    &[
        FeatureKind::DistinctConnections,
        FeatureKind::UdpConnections,
        FeatureKind::TcpConnections,
    ],
    &FeatureKind::ALL,
];

/// Run the multi-feature experiment on one train→test split.
///
/// Each feature's training distributions are built once and each
/// (feature, policy) pair is configured once; [`cells`] then scores the
/// nine (policy × feature set) cells on the borrowed test week.
pub fn run(corpus: &Corpus, train_week: usize, storm: &StormConfig) -> MultiFeatResult {
    let test: Vec<&FeatureWeek> = corpus.weeks.iter().map(|w| &w[train_week + 1]).collect();
    let zombie = FeatureWeek::from(&storm_week_series(storm, corpus.config.windowing(), 0));
    let train: Vec<Vec<EmpiricalDist>> = FeatureKind::ALL
        .iter()
        .map(|&f| corpus.dists(f, train_week))
        .collect();
    let thresholds: Vec<Vec<Vec<f64>>> = POLICIES
        .iter()
        .map(|&(_, grouping)| {
            let policy = Policy {
                grouping,
                heuristic: ThresholdHeuristic::P99,
            };
            train
                .iter()
                .map(|dists| policy.configure(dists).thresholds)
                .collect()
        })
        .collect();
    MultiFeatResult {
        rows: cells(&test, &zombie, &thresholds),
    }
}

/// Score every (policy × feature set) cell: `thresholds[p][i][u]` is user
/// `u`'s threshold on `FeatureKind::ALL[i]` under `POLICIES[p]`.
///
/// Each user's `zombie`-attacked week is summed once. Per policy, the
/// user's detector monitors all six features, and its benign and attacked
/// [`FireMasks`] are built once; each feature set's cell then ORs and
/// counts the masks of its features. Cell means sum users in order.
///
/// # Panics
/// Panics when the test weeks differ in length.
pub fn cells(
    test: &[&FeatureWeek],
    zombie: &FeatureWeek,
    thresholds: &[Vec<Vec<f64>>],
) -> Vec<MultiRow> {
    let n = test.first().map_or(0, |w| w.len());
    assert!(
        test.iter().all(|w| w.len() == n),
        "test weeks share one length"
    );
    let overlay = Overlay::new(zombie);
    let attacked = overlay.attacked_windows(n);
    // Per (policy, feature set), in row order: each user's union and
    // corroborated rates and Storm detection.
    let mut cells: Vec<(Vec<MultiUserPerf>, Vec<f64>)> =
        vec![(Vec::new(), Vec::new()); thresholds.len() * FEATURE_SETS.len()];
    for (u, week) in test.iter().enumerate() {
        let attacked_week = overlay.apply(*week);
        for (thresholds, cells) in thresholds.iter().zip(cells.chunks_mut(FEATURE_SETS.len())) {
            let mut det = Detector::new(u as u32);
            for f in FeatureKind::ALL {
                det.set_threshold(f, thresholds[f.index()][u]);
            }
            let benign = FireMasks::new(&det, week);
            let hit = FireMasks::new(&det, &attacked_week);
            for ((users, detections), features) in cells.iter_mut().zip(FEATURE_SETS) {
                users.push(benign.perf(features));
                detections.push(hit.detection(features, &attacked));
            }
        }
    }
    let labels = POLICIES
        .iter()
        .flat_map(|&(label, _)| FEATURE_SETS.map(|f| (label, f.len())));
    labels
        .zip(cells)
        .map(|((policy, n_features), (users, detections))| MultiRow {
            policy,
            n_features,
            fp_any: MultiUserPerf::mean(&users, |u| u.fp_any),
            fp_corroborated: MultiUserPerf::mean(&users, |u| u.fp_corroborated),
            storm_detection: detections.iter().sum::<f64>() / detections.len() as f64,
        })
        .collect()
}

/// Render the trade-off table.
pub fn table(r: &MultiFeatResult) -> Table {
    let mut t = Table::new(
        "Multi-feature monitoring — union FP vs Storm detection",
        &[
            "policy",
            "features",
            "FP (any)",
            "FP (≥2 corroborating)",
            "storm detection",
        ],
    );
    for row in &r.rows {
        t.row(vec![
            row.policy.to_string(),
            row.n_features.to_string(),
            fnum(row.fp_any),
            fnum(row.fp_corroborated),
            fnum(row.storm_detection),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::CorpusConfig;

    fn result() -> MultiFeatResult {
        let corpus = Corpus::generate(CorpusConfig {
            n_users: 40,
            n_weeks: 2,
            ..CorpusConfig::small()
        });
        run(&corpus, 0, &StormConfig::default())
    }

    #[test]
    fn more_features_more_union_fp_and_detection() {
        let r = result();
        for policy in ["Homogeneous", "Full-Diversity", "8-Partial"] {
            let rows: Vec<&MultiRow> = r.rows.iter().filter(|x| x.policy == policy).collect();
            assert_eq!(rows.len(), 3);
            // Union FP is monotone in the feature set (supersets).
            assert!(rows[1].fp_any >= rows[0].fp_any - 1e-12, "{policy}");
            assert!(rows[2].fp_any >= rows[1].fp_any - 1e-12, "{policy}");
            // So is detection of a multi-feature attack.
            assert!(rows[2].storm_detection >= rows[0].storm_detection - 1e-12);
            // Corroboration filters below the union rate.
            for row in &rows {
                assert!(row.fp_corroborated <= row.fp_any + 1e-12);
            }
        }
    }

    #[test]
    fn diversity_keeps_union_fp_bounded() {
        let r = result();
        let full_all = r
            .rows
            .iter()
            .find(|x| x.policy == "Full-Diversity" && x.n_features == 6)
            .unwrap();
        // Six features at ~1% each: union stays below the naive 6% bound
        // (features co-fire within a busy window).
        assert!(full_all.fp_any < 0.06, "union FP {}", full_all.fp_any);
        assert!(full_all.fp_any > 0.005);
    }

    #[test]
    fn table_has_nine_rows() {
        assert_eq!(table(&result()).len(), 9);
    }
}
