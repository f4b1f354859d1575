//! sketchablate — sketch-vs-exact error ablation at paper scale.
//!
//! The megafleet path replaces exact per-host sample vectors with
//! [`tailstats::KllSketch`]es. This ablation quantifies what that
//! substitution costs on the paper's own population (350 users, train
//! week → test week): for every user it fits each threshold heuristic
//! twice — once on the exact [`tailstats::EmpiricalDist`], once on a
//! sketch fed the identical window counts — and reports the resulting
//! threshold, FP, FN and utility deviations, plus the observed rank
//! (CDF) deviation at the tail quantiles the paper reads off Fig. 1.
//!
//! The sketch's contract is a *rank* guarantee: for every value `v`,
//! `|rank_sketch(v) − rank_exact(v)| ≤ eps·n`. [`AblateResult::check`]
//! verifies the observed worst case against that bound (plus one
//! window's worth of discretisation slack), which is the acceptance
//! criterion CI enforces at reduced scale.

use flowtab::FeatureKind;
use hids_core::{par_map_range, AttackSweep, ThresholdHeuristic, UserPerf};
use tailstats::KllSketch;

use crate::data::Corpus;
use crate::report::{fnum, Table};

/// Quantiles probed for rank deviation (the paper's Fig. 1 tail levels).
pub const PROBE_QS: [f64; 3] = [0.90, 0.95, 0.99];

/// Per-heuristic aggregate deviations between exact and sketch backends.
#[derive(Debug, Clone)]
pub struct HeuristicDelta {
    /// Display name.
    pub name: &'static str,
    /// Mean relative threshold deviation `|t_s − t_e| / max(t_e, 1)`.
    pub mean_rel_threshold_dev: f64,
    /// Worst absolute FP deviation across users.
    pub max_fp_dev: f64,
    /// Worst absolute mean-FN deviation across users.
    pub max_fn_dev: f64,
    /// Worst absolute utility deviation across users.
    pub max_utility_dev: f64,
}

/// Outcome of the ablation.
#[derive(Debug, Clone)]
pub struct AblateResult {
    /// Sketch rank-error budget used.
    pub eps: f64,
    /// Users evaluated.
    pub n_users: usize,
    /// Windows per user week (discretisation granularity of ranks).
    pub n_windows: usize,
    /// Worst observed `|cdf_sketch(v) − cdf_exact(v)|` at each probe
    /// quantile's sketch value, across all users (train week).
    pub max_rank_dev: [f64; PROBE_QS.len()],
    /// Worst observed rank deviation anywhere (max over probes).
    pub worst_rank_dev: f64,
    /// Per-heuristic threshold/score deviations.
    pub heuristics: Vec<HeuristicDelta>,
}

fn heuristics(sweep: &AttackSweep) -> Vec<(&'static str, ThresholdHeuristic)> {
    vec![
        ("percentile-99", ThresholdHeuristic::Percentile(0.99)),
        ("mean+3sigma", ThresholdHeuristic::MeanSigma(3.0)),
        (
            "utility-max",
            ThresholdHeuristic::UtilityMax {
                w: 0.4,
                sweep: sweep.clone(),
            },
        ),
        (
            "f-measure",
            ThresholdHeuristic::FMeasure {
                prevalence: 0.01,
                sweep: sweep.clone(),
            },
        ),
    ]
}

struct UserDev {
    rank_dev: [f64; PROBE_QS.len()],
    // per heuristic: (rel threshold dev, fp dev, fn dev, utility dev)
    per_h: Vec<(f64, f64, f64, f64)>,
}

/// Run the ablation on `corpus` (train week 0 → test week 1) at sketch
/// accuracy `eps`.
pub fn run(corpus: &Corpus, feature: FeatureKind, eps: f64) -> AblateResult {
    let ds = corpus.dataset(feature, 0);
    let n_users = ds.train.len();
    let sweep = ds.default_sweep();
    let hs = heuristics(&sweep);
    let w = 0.4;

    let devs: Vec<UserDev> = par_map_range(n_users, |u| {
        let train_counts = corpus.series(u, 0).column(feature);
        let test_counts = corpus.series(u, 1).column(feature);
        let exact_train = &ds.train[u];
        let exact_test = &ds.test[u];
        let mut sk_train = KllSketch::new(eps);
        sk_train.extend_from_counts(train_counts);
        let mut sk_test = KllSketch::new(eps);
        sk_test.extend_from_counts(test_counts);

        // Rank deviation: at each probe quantile, compare the exact CDF
        // of the sketch's answer with the sketch's own CDF of it.
        let mut rank_dev = [0.0; PROBE_QS.len()];
        for (i, &q) in PROBE_QS.iter().enumerate() {
            let v = sk_train.quantile_discrete(q);
            rank_dev[i] = (sk_train.cdf(v) - exact_train.cdf(v)).abs();
        }

        let per_h = hs
            .iter()
            .map(|(_, h)| {
                let te = h.threshold(exact_train);
                let ts = h.threshold(&sk_train);
                let pe = UserPerf::score(exact_test, te, &sweep, w);
                let ps = UserPerf::score(&sk_test, ts, &sweep, w);
                (
                    (ts - te).abs() / te.max(1.0),
                    (ps.fp - pe.fp).abs(),
                    (ps.fn_rate - pe.fn_rate).abs(),
                    (ps.utility - pe.utility).abs(),
                )
            })
            .collect();
        UserDev { rank_dev, per_h }
    });

    let mut max_rank_dev = [0.0f64; PROBE_QS.len()];
    let mut agg: Vec<(f64, f64, f64, f64)> = vec![(0.0, 0.0, 0.0, 0.0); hs.len()];
    for d in &devs {
        for i in 0..PROBE_QS.len() {
            max_rank_dev[i] = max_rank_dev[i].max(d.rank_dev[i]);
        }
        for (a, p) in agg.iter_mut().zip(&d.per_h) {
            a.0 += p.0;
            a.1 = a.1.max(p.1);
            a.2 = a.2.max(p.2);
            a.3 = a.3.max(p.3);
        }
    }
    let heuristics = hs
        .iter()
        .zip(&agg)
        .map(|((name, _), a)| HeuristicDelta {
            name,
            mean_rel_threshold_dev: a.0 / n_users.max(1) as f64,
            max_fp_dev: a.1,
            max_fn_dev: a.2,
            max_utility_dev: a.3,
        })
        .collect();
    AblateResult {
        eps,
        n_users,
        n_windows: corpus.config.windowing().windows_per_week(),
        max_rank_dev,
        worst_rank_dev: max_rank_dev.iter().fold(0.0f64, |m, &d| m.max(d)),
        heuristics,
    }
}

impl AblateResult {
    /// Rank-deviation bound the sketch guarantees: `eps` plus one
    /// window's worth of discretisation slack (exact CDF moves in steps
    /// of `1/n_windows`).
    pub fn rank_budget(&self) -> f64 {
        self.eps + 1.0 / self.n_windows.max(1) as f64
    }

    /// Verify the observed worst-case rank deviation is within budget.
    pub fn check(&self) -> Result<(), String> {
        let budget = self.rank_budget();
        if self.worst_rank_dev > budget + 1e-12 {
            return Err(format!(
                "observed rank deviation {:.6} exceeds budget {:.6} (eps {})",
                self.worst_rank_dev, budget, self.eps
            ));
        }
        if self.heuristics.is_empty() {
            return Err("no heuristics evaluated".into());
        }
        Ok(())
    }

    /// Rank-deviation table (one row per probe quantile).
    pub fn rank_table(&self) -> Table {
        let mut t = Table::new(
            &format!(
                "sketch rank error vs exact — {} users, eps {}",
                self.n_users, self.eps
            ),
            &["quantile", "max |cdf_s - cdf_e|", "budget"],
        );
        for (i, &q) in PROBE_QS.iter().enumerate() {
            t.row(vec![
                format!("q{:02.0}", q * 100.0),
                format!("{:.6}", self.max_rank_dev[i]),
                format!("{:.6}", self.rank_budget()),
            ]);
        }
        t
    }

    /// Per-heuristic deviation table.
    pub fn heuristic_table(&self) -> Table {
        let mut t = Table::new(
            "sketch-vs-exact threshold & score deviations",
            &[
                "heuristic",
                "mean rel dT",
                "max |dFP|",
                "max |dFN|",
                "max |dU|",
            ],
        );
        for h in &self.heuristics {
            t.row(vec![
                h.name.to_string(),
                fnum(h.mean_rel_threshold_dev),
                format!("{:.6}", h.max_fp_dev),
                format!("{:.6}", h.max_fn_dev),
                format!("{:.6}", h.max_utility_dev),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::CorpusConfig;

    fn corpus() -> Corpus {
        Corpus::generate(CorpusConfig::small())
    }

    #[test]
    fn tight_eps_is_exact_on_small_population() {
        // eps small enough that nothing compacts on a 672-window week:
        // thresholds and scores must match the exact backend bitwise.
        let r = run(&corpus(), FeatureKind::TcpConnections, 0.0005);
        r.check().expect("within budget");
        assert_eq!(r.worst_rank_dev, 0.0);
        for h in &r.heuristics {
            if h.name == "mean+3sigma" {
                // Moments come from the sketch's integer sum/sum_sq
                // rather than a float-sample pass: mathematically equal,
                // so only last-ulp accumulation-order noise remains.
                assert!(h.mean_rel_threshold_dev < 1e-12, "{} drifted", h.name);
                assert!(h.max_utility_dev < 1e-9, "{} utility drifted", h.name);
            } else {
                // Rank-based heuristics read identical values out of an
                // uncompacted sketch: bitwise equality.
                assert_eq!(h.mean_rel_threshold_dev, 0.0, "{} drifted", h.name);
                assert_eq!(h.max_utility_dev, 0.0, "{} utility drifted", h.name);
            }
        }
    }

    #[test]
    fn lossy_eps_stays_within_rank_budget() {
        let r = run(&corpus(), FeatureKind::TcpConnections, 0.05);
        r.check().expect("rank deviation within eps + 1/n");
        assert!(!r.rank_table().is_empty());
        assert_eq!(r.heuristics.len(), 4);
        assert!(!r.heuristic_table().is_empty());
    }
}
