//! One benchmark per paper artifact: how long each table/figure takes to
//! regenerate on a reduced corpus (the `repro` binary runs the full-scale
//! version; these benches track the cost of the analysis itself).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use experiments::{
    ablation, data::CorpusConfig, drift, fig1, fig2, fig3, fig4, fig5, multifeat, tab2, tab3,
    Corpus,
};
use flowtab::FeatureKind;
use synthgen::StormConfig;
use tailstats::{edf, EmpiricalDist};

fn bench_corpus() -> Corpus {
    Corpus::generate(CorpusConfig {
        n_users: 60,
        n_weeks: 2,
        ..Default::default()
    })
}

fn figures(c: &mut Criterion) {
    let corpus = bench_corpus();
    let tcp = FeatureKind::TcpConnections;

    let mut group = c.benchmark_group("paper");
    group.sample_size(10);

    group.bench_function("corpus_generation_60x2", |b| {
        b.iter(|| {
            black_box(Corpus::generate(CorpusConfig {
                n_users: 60,
                n_weeks: 2,
                ..Default::default()
            }))
        })
    });

    group.bench_function("fig1_tail_curves", |b| {
        b.iter(|| black_box(fig1::run(&corpus, 0)))
    });

    group.bench_function("fig2_scatter", |b| {
        b.iter(|| black_box(fig2::run(&corpus, 0)))
    });

    group.bench_function("tab2_best_users", |b| {
        b.iter(|| black_box(tab2::run(&corpus, 0, 10)))
    });

    group.bench_function("fig3a_utility_boxes", |b| {
        b.iter(|| black_box(fig3::run_a(&corpus, tcp, 0.4)))
    });

    group.bench_function("fig3b_weight_sweep", |b| {
        b.iter(|| black_box(fig3::run_b(&corpus, tcp, &[0.1, 0.5, 0.9])))
    });

    group.bench_function("tab3_console_alarms", |b| {
        b.iter(|| black_box(tab3::run(&corpus, tcp)))
    });

    group.bench_function("fig4a_naive_curves", |b| {
        b.iter(|| black_box(fig4::run_a(&corpus, tcp, 0, 32)))
    });

    group.bench_function("fig4b_mimicry_budgets", |b| {
        b.iter(|| black_box(fig4::run_b(&corpus, tcp, 0, 0.9)))
    });

    group.bench_function("fig5_storm_replay", |b| {
        b.iter(|| black_box(fig5::run(&corpus, 0, &StormConfig::default())))
    });

    group.bench_function("fig4c_omniscient", |b| {
        b.iter(|| black_box(fig4::run_c(&corpus, tcp, 0)))
    });

    group.bench_function("multifeat_union", |b| {
        b.iter(|| black_box(multifeat::run(&corpus, 0, &StormConfig::default())))
    });

    group.bench_function("drift_analysis", |b| {
        b.iter(|| black_box(drift::run(&corpus, tcp)))
    });

    group.bench_function("ablation_group_count", |b| {
        b.iter(|| black_box(ablation::group_count(&corpus, tcp, 0.5)))
    });

    group.bench_function("ablation_kmeans_probe", |b| {
        b.iter(|| black_box(ablation::kmeans_probe(&corpus, tcp)))
    });

    group.finish();
}

fn policies(c: &mut Criterion) {
    use hids_core::{eval::evaluate_policy, EvalConfig, Grouping, PartialMethod, Policy, ThresholdHeuristic};
    let corpus = bench_corpus();
    let ds = corpus.dataset(FeatureKind::TcpConnections, 0);
    let config = EvalConfig {
        w: 0.4,
        sweep: ds.default_sweep(),
    };

    let mut group = c.benchmark_group("policy");
    group.sample_size(10);
    for (name, grouping) in [
        ("homogeneous", Grouping::Homogeneous),
        ("full_diversity", Grouping::FullDiversity),
        ("partial_8", Grouping::Partial(PartialMethod::EIGHT_PARTIAL)),
    ] {
        group.bench_function(format!("configure_eval_p99/{name}"), |b| {
            b.iter_batched(
                || Policy {
                    grouping,
                    heuristic: ThresholdHeuristic::P99,
                },
                |policy| black_box(evaluate_policy(&ds, &policy, &config)),
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("configure_eval_utility/{name}"), |b| {
            b.iter_batched(
                || Policy {
                    grouping,
                    heuristic: ThresholdHeuristic::UtilityMax {
                        w: 0.4,
                        sweep: ds.default_sweep(),
                    },
                },
                |policy| black_box(evaluate_policy(&ds, &policy, &config)),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// The exact-quantile kernels at the benchmark's scale (200 users × one
/// 672-window week). The homogeneous policy's pooled distribution:
/// `EmpiricalDist::pool`, which counts runs, against the sorted-sample
/// `edf::oracle` pool it replaced and against concatenating and sorting
/// again. Building runs from raw counts: one user's week, and all six
/// feature columns of every user (against the oracle's sort). Scoring every user's test week at its training
/// p99 (`UserPerf::score`), and one `SweepTable` per user under the
/// dataset's attack sweep.
fn pooling(c: &mut Criterion) {
    use hids_core::{SweepTable, ThresholdHeuristic, UserPerf};
    let corpus = Corpus::generate(CorpusConfig {
        n_users: 200,
        n_weeks: 2,
        ..Default::default()
    });
    let dists = corpus.dists(FeatureKind::TcpConnections, 0);
    let oracle_dists: Vec<edf::oracle::EmpiricalDist> = corpus
        .weeks
        .iter()
        .map(|w| {
            edf::oracle::EmpiricalDist::from_counts(&w[0].feature(FeatureKind::TcpConnections))
        })
        .collect();
    let counts = corpus.series(0, 0).feature(FeatureKind::TcpConnections);
    let columns: Vec<Vec<u64>> = corpus
        .weeks
        .iter()
        .flat_map(|w| FeatureKind::ALL.map(|f| w[0].feature(f)))
        .collect();
    let ds = corpus.dataset(FeatureKind::TcpConnections, 0);
    let sweep = ds.default_sweep();
    let p99: Vec<f64> = ds
        .train
        .iter()
        .map(|d| ThresholdHeuristic::P99.threshold(d))
        .collect();

    let mut group = c.benchmark_group("pool");
    group.sample_size(20);
    group.bench_function("edf_pool_200x672", |b| {
        b.iter(|| black_box(EmpiricalDist::pool(black_box(&dists))))
    });
    group.bench_function("edf_oracle_pool_200x672", |b| {
        b.iter(|| black_box(edf::oracle::EmpiricalDist::pool(black_box(&oracle_dists))))
    });
    group.bench_function("from_counts_672", |b| {
        b.iter(|| black_box(EmpiricalDist::from_counts(black_box(&counts))))
    });
    group.bench_function("runs_from_counts_1200", |b| {
        b.iter(|| {
            for col in black_box(&columns) {
                black_box(EmpiricalDist::from_counts(col));
            }
        })
    });
    group.bench_function("oracle_from_counts_1200", |b| {
        b.iter(|| {
            for col in black_box(&columns) {
                black_box(edf::oracle::EmpiricalDist::from_counts(col));
            }
        })
    });
    group.bench_function("score_200x672", |b| {
        b.iter(|| {
            for (test, &t) in black_box(&ds.test).iter().zip(&p99) {
                black_box(UserPerf::score(test, t, &sweep, 0.4));
            }
        })
    });
    group.bench_function("sweep_table_200x672", |b| {
        b.iter(|| {
            for train in black_box(&ds.train) {
                black_box(SweepTable::compute(train, &sweep));
            }
        })
    });
    group.bench_function("edf_concat_sort_200x672", |b| {
        b.iter(|| {
            let all: Vec<f64> = black_box(&dists)
                .iter()
                .flat_map(|d| d.samples().copied())
                .collect();
            black_box(EmpiricalDist::from_samples(all))
        })
    });
    group.finish();
}

/// multifeat's two per-window loops for one cell at the benchmark's scale
/// (200 users × one 672-window test week, all six features monitored at
/// the full-diversity p99): the union scoring and the Storm detection.
fn detector(c: &mut Criterion) {
    use hids_core::{
        evaluate_multi, multi_detection, Grouping, MultiEvaluation, MultiPolicy, Policy,
        ThresholdHeuristic,
    };
    let corpus = Corpus::generate(CorpusConfig {
        n_users: 200,
        n_weeks: 2,
        ..Default::default()
    });
    let train: Vec<_> = corpus.weeks.iter().map(|w| &w[0]).collect();
    let test: Vec<_> = corpus.weeks.iter().map(|w| &w[1]).collect();
    let policy = MultiPolicy::uniform(Policy {
        grouping: Grouping::FullDiversity,
        heuristic: ThresholdHeuristic::P99,
    });
    let detectors = evaluate_multi(&train, &test, &policy).detectors;
    let zombie = synthgen::storm_week_series(&StormConfig::default(), corpus.config.windowing(), 0);

    let mut group = c.benchmark_group("detector");
    group.sample_size(20);
    group.bench_function("multi_detection_200x672", |b| {
        b.iter(|| black_box(multi_detection(black_box(&detectors), &test, &zombie)))
    });
    group.bench_function("multi_score_200x672", |b| {
        b.iter_batched(
            || detectors.clone(),
            |dets| {
                black_box(MultiEvaluation::score(
                    dets,
                    FeatureKind::ALL.to_vec(),
                    &test,
                ))
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, figures, policies, pooling, detector);
criterion_main!(benches);
