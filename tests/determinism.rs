//! Reproducibility guarantees: everything is a pure function of the seed.

use experiments::{fig1, fig4, suite, tab3, Corpus, CorpusConfig};
use flowtab::FeatureKind;

fn cfg(seed: u64) -> CorpusConfig {
    CorpusConfig {
        n_users: 30,
        n_weeks: 2,
        seed,
        ..Default::default()
    }
}

#[test]
fn identical_seeds_identical_corpora() {
    let a = Corpus::generate(cfg(42));
    let b = Corpus::generate(cfg(42));
    for (ua, ub) in a.weeks.iter().zip(&b.weeks) {
        assert_eq!(ua, ub);
    }
}

#[test]
fn different_seeds_differ() {
    let a = Corpus::generate(cfg(42));
    let b = Corpus::generate(cfg(43));
    assert_ne!(a.weeks, b.weeks);
}

#[test]
fn experiments_are_reproducible() {
    let a = Corpus::generate(cfg(7));
    let b = Corpus::generate(cfg(7));

    let f1a = fig1::run(&a, 0);
    let f1b = fig1::run(&b, 0);
    for (ca, cb) in f1a.curves.iter().zip(&f1b.curves) {
        assert_eq!(ca.points, cb.points);
    }

    let t3a = tab3::run(&a, FeatureKind::TcpConnections);
    let t3b = tab3::run(&b, FeatureKind::TcpConnections);
    for (ra, rb) in t3a.rows.iter().zip(&t3b.rows) {
        assert_eq!(ra.homogeneous, rb.homogeneous);
        assert_eq!(ra.full_diversity, rb.full_diversity);
        assert_eq!(ra.partial, rb.partial);
    }

    let f4a = fig4::run_b(&a, FeatureKind::TcpConnections, 0, 0.9);
    let f4b = fig4::run_b(&b, FeatureKind::TcpConnections, 0, 0.9);
    assert_eq!(f4a.budgets, f4b.budgets);
}

/// The parallel evaluation engine must be invisible in the output: every
/// paper-suite table's CSV (and the ROC ablation's) is byte-identical at 1
/// worker thread and at 8. (Runs the thread-count comparison in one
/// process via `hids_core::set_threads`; the engine chunks work
/// contiguously and joins in order, so scheduling can never reorder
/// results.)
#[test]
fn experiment_csvs_identical_across_thread_counts() {
    let run_all = |threads: usize| -> Vec<String> {
        hids_core::set_threads(threads);
        let corpus = Corpus::generate(cfg(99));
        let mut out: Vec<String> = suite::paper(&corpus)
            .unwrap()
            .iter()
            .map(|(_, table)| table.to_csv())
            .collect();
        let tcp = FeatureKind::TcpConnections;
        out.push(experiments::ablation::roc_headroom(&corpus, tcp).to_csv());
        out
    };
    let single = run_all(1);
    let eight = run_all(8);
    hids_core::set_threads(0); // restore auto-detection for other tests
    for (i, (a, b)) in single.iter().zip(&eight).enumerate() {
        assert_eq!(a.as_bytes(), b.as_bytes(), "artifact {i} differs across thread counts");
    }
}

#[test]
fn corpora_independent_of_thread_count() {
    // Corpus::generate parallelises across users; the result must not
    // depend on how the chunks were scheduled. Compare against the direct
    // sequential generator.
    let c = Corpus::generate(cfg(123));
    for (u, profile) in c.population.users.iter().enumerate() {
        for w in 0..2 {
            let expect = synthgen::user_week_series_trended(
                profile,
                c.population.config.seed,
                w,
                c.config.windowing(),
                c.population.config.weekly_trend,
            );
            assert_eq!(*c.series(u, w), expect, "user {u} week {w}");
        }
    }
}
