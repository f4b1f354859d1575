//! Micro-benchmarks of the substrate layers: wire parsing, flow
//! reconstruction, statistics, and trace generation throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use flowtab::{extract_features, FeatureKind, FlowExtractor, FlowTableConfig, Windowing};
use hids_core::{AttackSweep, RocCurve, SweepTable, ThresholdHeuristic};
use netpkt::testutil::{build_tcp_frame, FrameSpec};
use netpkt::{EthernetFrame, Ipv4Packet, TcpFlags, TcpSegment};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use synthgen::{
    render_flows_to_frames, render_window_flows, user_week_series, Population, PopulationConfig,
    WeekPlan,
};
use tailstats::EmpiricalDist;

fn packet_layer(c: &mut Criterion) {
    let frame = build_tcp_frame(
        &FrameSpec::default(),
        TcpFlags(TcpFlags::ACK | TcpFlags::PSH),
        42,
        &[0xAB; 512],
    );
    let mut group = c.benchmark_group("netpkt");
    group.throughput(Throughput::Bytes(frame.len() as u64));
    group.bench_function("parse_eth_ip_tcp_512B", |b| {
        b.iter(|| {
            let eth = EthernetFrame::parse(black_box(&frame[..])).unwrap();
            let ip = Ipv4Packet::parse(eth.payload()).unwrap();
            let tcp = TcpSegment::parse(ip.payload()).unwrap();
            black_box((ip.src(), tcp.dst_port(), tcp.payload().len()))
        })
    });
    group.bench_function("parse_and_verify_checksums_512B", |b| {
        b.iter(|| {
            let eth = EthernetFrame::parse(black_box(&frame[..])).unwrap();
            let ip = Ipv4Packet::parse(eth.payload()).unwrap();
            let tcp = TcpSegment::parse(ip.payload()).unwrap();
            black_box(ip.verify_checksum() && tcp.verify_checksum(ip.src(), ip.dst()))
        })
    });
    group.bench_function("build_tcp_frame_512B", |b| {
        b.iter(|| {
            black_box(build_tcp_frame(
                &FrameSpec::default(),
                TcpFlags::syn_only(),
                7,
                &[0xCD; 512],
            ))
        })
    });
    group.finish();
}

fn flow_layer(c: &mut Criterion) {
    // Pre-render a realistic window of frames.
    let pop = Population::sample(PopulationConfig {
        n_users: 2,
        ..Default::default()
    });
    let mut profile = pop.users[0].clone();
    profile.levels = synthgen::TailLevels {
        tcp: 300.0,
        udp: 100.0,
        dns: 60.0,
    };
    let week = user_week_series(&profile, 1, 0, Windowing::FIFTEEN_MIN);
    let mut rng = StdRng::seed_from_u64(5);
    let (w_idx, counts) = week
        .windows
        .iter()
        .enumerate()
        .max_by_key(|(_, c)| c.0.iter().sum::<u64>())
        .map(|(i, c)| (i, *c))
        .unwrap();
    let flows = render_window_flows(&profile, &counts, w_idx, Windowing::FIFTEEN_MIN, &mut rng);
    let frames = render_flows_to_frames(&flows, &mut rng);

    let mut group = c.benchmark_group("flowtab");
    group.sample_size(20);
    group.throughput(Throughput::Elements(frames.len() as u64));
    group.bench_function("extract_flows_from_frames", |b| {
        b.iter(|| {
            let mut ex = FlowExtractor::new(FlowTableConfig::default());
            for f in &frames {
                let _ = ex.push_frame(f.ts, &f.frame);
            }
            black_box(ex.finish().len())
        })
    });
    group.throughput(Throughput::Elements(flows.len() as u64));
    group.bench_function("extract_features_from_flows", |b| {
        b.iter(|| {
            black_box(extract_features(
                &flows,
                profile.addr,
                Windowing::FIFTEEN_MIN,
                w_idx + 1,
            ))
        })
    });
    group.finish();
}

fn stats_layer(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let samples: Vec<u64> = (0..672).map(|_| rng.random_range(0..5_000)).collect();

    let mut group = c.benchmark_group("tailstats");
    group.bench_function("empirical_dist_build_672", |b| {
        b.iter(|| black_box(EmpiricalDist::from_counts(&samples)))
    });
    let dist = EmpiricalDist::from_counts(&samples);
    group.bench_function("quantile_lookup", |b| {
        b.iter(|| black_box(dist.quantile(0.99)))
    });
    group.bench_function("exceedance_lookup", |b| {
        b.iter(|| black_box(dist.exceedance(2_500.0)))
    });
    group.finish();
}

fn generator_layer(c: &mut Criterion) {
    let pop = Population::sample(PopulationConfig {
        n_users: 8,
        ..Default::default()
    });
    let mut group = c.benchmark_group("synthgen");
    group.sample_size(20);
    group.throughput(Throughput::Elements(672));
    group.bench_function("user_week_672_windows", |b| {
        let mut user = 0usize;
        b.iter(|| {
            user = (user + 1) % pop.users.len();
            black_box(user_week_series(
                &pop.users[user],
                pop.config.seed,
                0,
                Windowing::FIFTEEN_MIN,
            ))
        })
    });
    // The six-feature generator the week plans replaced, for the
    // before/after of the layer in one harness.
    group.bench_function("oracle_user_week", |b| {
        let mut user = 0usize;
        b.iter(|| {
            user = (user + 1) % pop.users.len();
            black_box(synthgen::counts::oracle::user_week_series(
                &pop.users[user],
                pop.config.seed,
                0,
                Windowing::FIFTEEN_MIN,
            ))
        })
    });
    // Megafleet's shape: one plan per host (built outside the timed loop,
    // as megafleet builds it once for both weeks), one feature column
    // into a reused buffer.
    group.bench_function("week_column_tcp", |b| {
        let plans: Vec<WeekPlan> = pop
            .users
            .iter()
            .map(|u| WeekPlan::new(u, Windowing::FIFTEEN_MIN))
            .collect();
        let mut column = Vec::new();
        let mut user = 0usize;
        b.iter(|| {
            user = (user + 1) % plans.len();
            plans[user].column(
                pop.config.seed,
                0,
                pop.config.weekly_trend,
                FeatureKind::TcpConnections,
                &mut column,
            );
            black_box(column.len())
        })
    });
    group.bench_function("storm_week", |b| {
        b.iter(|| {
            black_box(synthgen::storm_week_series(
                &synthgen::StormConfig::default(),
                Windowing::FIFTEEN_MIN,
                0,
            ))
        })
    });
    group.finish();
}

/// The pre-kernel threshold selection: per candidate, one `exceedance`
/// binary search plus an `AttackSweep::mean_fn` point query (itself one
/// binary search per attack size). Kept here as the baseline the batched
/// [`SweepTable`] kernel is measured against.
fn naive_utility_threshold(dist: &EmpiricalDist, sweep: &AttackSweep, w: f64) -> f64 {
    let samples = dist.samples();
    let mut candidates: Vec<f64> = Vec::with_capacity(samples.len() + 1);
    for &v in samples {
        if candidates.last() != Some(&v) {
            candidates.push(v);
        }
    }
    candidates.push(dist.max() + 1.0);
    let mut best_t = f64::NAN;
    let mut best_s = f64::NEG_INFINITY;
    for &t in candidates.iter().rev() {
        let fp = dist.exceedance(t);
        let fn_rate = sweep.mean_fn(dist, t);
        let s = 1.0 - (w * fn_rate + (1.0 - w) * fp);
        if s >= best_s {
            best_s = s;
            best_t = t;
        }
    }
    best_t
}

fn sweep_kernel_layer(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    // A paper-sized problem: one user-week (672 windows), 256 attack sizes.
    let counts: Vec<u64> = (0..672).map(|_| rng.random_range(0..5_000)).collect();
    let dist = EmpiricalDist::from_counts(&counts);
    let sweep = AttackSweep::up_to(dist.max());

    let mut group = c.benchmark_group("sweep_kernel");
    group.bench_function("utility_threshold_naive_672w", |b| {
        b.iter(|| black_box(naive_utility_threshold(&dist, &sweep, 0.4)))
    });
    let heuristic = ThresholdHeuristic::UtilityMax {
        w: 0.4,
        sweep: sweep.clone(),
    };
    group.bench_function("utility_threshold_kernel_672w", |b| {
        b.iter(|| black_box(heuristic.threshold(&dist)))
    });
    group.bench_function("sweep_table_build_672w_x256", |b| {
        b.iter(|| black_box(SweepTable::compute(&dist, &sweep)))
    });
    group.bench_function("roc_curve_672w_x256", |b| {
        b.iter(|| black_box(RocCurve::compute(&dist, &sweep)))
    });
    group.finish();
}

criterion_group!(
    benches,
    packet_layer,
    flow_layer,
    stats_layer,
    generator_layer,
    sweep_kernel_layer
);
criterion_main!(benches);
