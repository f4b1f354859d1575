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
/// again; and the homogeneous policy's whole utility fit, the pool plus
/// one `SweepTable` over it. Building runs from raw counts: one user's
/// week, an all-zero, the median and the 95th-percentile TCP column, and
/// all six feature columns of every user (against the oracle's sort).
/// Scoring every user's test week at its training p99
/// (`UserPerf::score`), and one `SweepTable` per user under the dataset's
/// attack sweep.
fn pooling(c: &mut Criterion) {
    use hids_core::{SweepTable, ThresholdHeuristic, UserPerf};
    let corpus = Corpus::generate(CorpusConfig {
        n_users: 200,
        n_weeks: 2,
        ..Default::default()
    });
    let dists = corpus.dists(FeatureKind::TcpConnections, 0);
    let oracle_dists: Vec<edf::oracle::EmpiricalDist> = corpus
        .columns(FeatureKind::TcpConnections, 0)
        .into_iter()
        .map(edf::oracle::EmpiricalDist::from_counts)
        .collect();
    let counts = corpus.series(0, 0).column(FeatureKind::TcpConnections);
    let columns: Vec<&[u64]> = corpus
        .weeks
        .iter()
        .flat_map(|w| FeatureKind::ALL.map(|f| w[0].column(f)))
        .collect();
    // Three TCP column shapes, ranked by how many counts reach 256: an
    // all-zero week, the median user (no tail) and the 95th-percentile
    // user (a long tail).
    let zero_column = vec![0u64; 672];
    let mut by_tail: Vec<&[u64]> = corpus.columns(FeatureKind::TcpConnections, 0);
    by_tail.sort_by_key(|c| {
        (
            c.iter().filter(|&&x| x >= 256).count(),
            c.iter().max().copied(),
        )
    });
    let median_column = by_tail[by_tail.len() / 2];
    let p95_column = by_tail[by_tail.len() * 95 / 100];
    let ds = corpus.dataset(FeatureKind::TcpConnections, 0);
    let sweep = ds.default_sweep();
    let homogeneous = hids_core::Policy {
        grouping: hids_core::Grouping::Homogeneous,
        heuristic: ThresholdHeuristic::UtilityMax {
            w: 0.4,
            sweep: sweep.clone(),
        },
    };
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
        b.iter(|| black_box(EmpiricalDist::from_counts(black_box(counts))))
    });
    for (name, column) in [
        ("from_counts/zero_672", &zero_column[..]),
        ("from_counts/median_tcp_672", median_column),
        ("from_counts/p95_tcp_672", p95_column),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(EmpiricalDist::from_counts(black_box(column))))
        });
    }
    group.bench_function("pool_homogeneous_200x672", |b| {
        b.iter(|| black_box(homogeneous.configure(black_box(&dists))))
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

/// Reading the corpus feature by feature at the benchmark's scale (200
/// users × one 672-window week): `Corpus::dists` over all six features,
/// each user's column one contiguous slice, and multifeat's nine (policy ×
/// feature set) cells scored from per-policy fire masks, with the
/// thresholds configured beforehand.
fn corpus_reads(c: &mut Criterion) {
    use hids_core::{Policy, ThresholdHeuristic};
    let corpus = Corpus::generate(CorpusConfig {
        n_users: 200,
        n_weeks: 2,
        ..Default::default()
    });
    let test: Vec<_> = corpus.weeks.iter().map(|w| &w[1]).collect();
    let zombie = flowtab::FeatureWeek::from(&synthgen::storm_week_series(
        &StormConfig::default(),
        corpus.config.windowing(),
        0,
    ));
    let train: Vec<Vec<EmpiricalDist>> = FeatureKind::ALL
        .iter()
        .map(|&f| corpus.dists(f, 0))
        .collect();
    let thresholds: Vec<Vec<Vec<f64>>> = experiments::POLICIES
        .iter()
        .map(|&(_, grouping)| {
            let policy = Policy {
                grouping,
                heuristic: ThresholdHeuristic::P99,
            };
            train
                .iter()
                .map(|d| policy.configure(d).thresholds)
                .collect()
        })
        .collect();

    let mut group = c.benchmark_group("corpus");
    group.sample_size(20);
    group.bench_function("corpus_dists_6x200", |b| {
        b.iter(|| {
            for f in FeatureKind::ALL {
                black_box(black_box(&corpus).dists(f, 0));
            }
        })
    });
    group.bench_function("multifeat_cells", |b| {
        b.iter(|| black_box(multifeat::cells(black_box(&test), &zombie, &thresholds)))
    });
    group.finish();
}

criterion_group!(benches, figures, policies, pooling, detector, corpus_reads);
criterion_main!(benches);
