//! Micro-benchmarks of the mergeable quantile sketch behind the
//! megafleet path: update throughput, shard merge/pool cost, and
//! quantile query latency, each against the exact `EmpiricalDist`
//! equivalent where one exists.
//!
//! `megafleet_host` and `megafleet_pool` are shaped like one megafleet
//! host and one fleet pool, each timed for the per-level fast path
//! against `tailstats::sketch::oracle`'s sort-per-call bodies:
//!
//! * `megafleet_host`: a 672-sample ε 0.01 train and test week, answering
//!   the host's threshold (`quantile_discrete(0.99)`), q90/q95/q99
//!   (`quantile`), and `UserPerf::score`'s 65 test-week queries (one
//!   `exceedance`, 64 sweep `below`s).
//! * `megafleet_pool`: pooling 256 shard sketches, each itself pooled
//!   from eight such host weeks.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use hids_core::AttackSweep;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tailstats::sketch::oracle;
use tailstats::{EmpiricalDist, KllSketch};

const EPS: f64 = 0.01;
const STREAM: usize = 100_000;
/// 15-minute windows in a week: one megafleet host's training stream.
const WEEK: usize = 672;

/// A heavy-tailed count stream shaped like a busy host's week.
fn stream(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let u: f64 = rng.random();
            // Pareto-ish: most windows small, a few enormous.
            ((1.0 - u).powf(-1.5) - 1.0).min(1e7) as u64
        })
        .collect()
}

fn update(c: &mut Criterion) {
    let data = stream(7, STREAM);
    let mut group = c.benchmark_group("sketch_update");
    group.throughput(Throughput::Elements(STREAM as u64));
    group.bench_function(format!("kll_insert_{STREAM}"), |b| {
        b.iter(|| {
            let mut s = KllSketch::new(EPS);
            for &v in black_box(&data) {
                s.insert(v);
            }
            black_box(s.len())
        })
    });
    group.bench_function(format!("exact_from_counts_{STREAM}"), |b| {
        b.iter(|| black_box(EmpiricalDist::from_counts(black_box(&data))).len())
    });
    group.finish();
}

fn merge(c: &mut Criterion) {
    // 64 shard sketches over distinct sub-streams, as megafleet pools
    // per-shard summaries into a fleet tail.
    let shards: Vec<KllSketch> = (0..64)
        .map(|i| {
            let mut s = KllSketch::new(EPS);
            for v in stream(100 + i, STREAM / 64) {
                s.insert(v);
            }
            s
        })
        .collect();
    let mut group = c.benchmark_group("sketch_merge");
    group.throughput(Throughput::Elements(64));
    group.bench_function("pairwise_merge_64_shards", |b| {
        b.iter(|| {
            let mut acc = shards[0].clone();
            for s in &shards[1..] {
                acc.merge(black_box(s));
            }
            black_box(acc.len())
        })
    });
    group.bench_function("canonical_pool_64_shards", |b| {
        b.iter(|| {
            let refs: Vec<&KllSketch> = shards.iter().collect();
            black_box(KllSketch::pool(black_box(&refs)).len())
        })
    });
    group.finish();
}

fn query(c: &mut Criterion) {
    let data = stream(13, STREAM);
    let mut sk = KllSketch::new(EPS);
    for &v in &data {
        sk.insert(v);
    }
    let exact = EmpiricalDist::from_counts(&data);
    let qs = [0.5, 0.9, 0.95, 0.99, 0.999];
    let mut group = c.benchmark_group("sketch_query");
    group.throughput(Throughput::Elements(qs.len() as u64));
    group.bench_function("sketch_quantiles", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &q in black_box(&qs) {
                acc += sk.quantile(q);
            }
            black_box(acc)
        })
    });
    group.bench_function("exact_quantiles", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &q in black_box(&qs) {
                acc += exact.quantile(q);
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn week_sketch(seed: u64) -> KllSketch {
    let mut s = KllSketch::new(EPS);
    s.extend_from_counts(&stream(seed, WEEK));
    s
}

/// The rank reads `megafleet::process_shard` makes for one host, over
/// the given `below`/`exceedance`/quantile functions.
fn host_queries(
    train: &KllSketch,
    test: &KllSketch,
    sweep: &AttackSweep,
    quantile: fn(&KllSketch, f64) -> f64,
    quantile_discrete: fn(&KllSketch, f64) -> f64,
    exceedance: fn(&KllSketch, f64) -> f64,
    below: fn(&KllSketch, f64) -> f64,
) -> f64 {
    let t = quantile_discrete(train, 0.99);
    let qs = quantile(train, 0.90) + quantile(train, 0.95) + quantile(train, 0.99);
    let fn_sum: f64 = sweep.sizes().iter().map(|&b| below(test, t - b)).sum();
    t + qs + exceedance(test, t) + fn_sum
}

fn megafleet_host(c: &mut Criterion) {
    let train = week_sketch(21);
    let test = week_sketch(22);
    let sweep = AttackSweep::new(train.max().max(1.0), 64);
    let mut group = c.benchmark_group("megafleet_host");
    group.throughput(Throughput::Elements(1));
    group.bench_function("per_level", |b| {
        b.iter(|| {
            black_box(host_queries(
                black_box(&train),
                black_box(&test),
                &sweep,
                KllSketch::quantile,
                KllSketch::quantile_discrete,
                KllSketch::exceedance,
                KllSketch::below,
            ))
        })
    });
    group.bench_function("oracle", |b| {
        b.iter(|| {
            black_box(host_queries(
                black_box(&train),
                black_box(&test),
                &sweep,
                oracle::quantile,
                oracle::quantile_discrete,
                oracle::exceedance,
                oracle::below,
            ))
        })
    });
    group.finish();
}

fn megafleet_pool(c: &mut Criterion) {
    let shards: Vec<KllSketch> = (0..256u64)
        .map(|shard| {
            let hosts: Vec<KllSketch> = (0..8).map(|h| week_sketch(1000 + shard * 8 + h)).collect();
            KllSketch::pool(&hosts.iter().collect::<Vec<_>>())
        })
        .collect();
    let refs: Vec<&KllSketch> = shards.iter().collect();
    let mut group = c.benchmark_group("megafleet_pool");
    group.sample_size(10);
    group.throughput(Throughput::Elements(256));
    group.bench_function("lazy_sort_256_shards", |b| {
        b.iter(|| black_box(KllSketch::pool(black_box(&refs)).len()))
    });
    group.bench_function("oracle_256_shards", |b| {
        b.iter(|| black_box(oracle::pool(black_box(&refs)).len()))
    });
    group.finish();
}

criterion_group!(
    benches,
    update,
    merge,
    query,
    megafleet_host,
    megafleet_pool
);
criterion_main!(benches);
