//! Micro-benchmarks of the substrate layers: wire parsing, flow
//! reconstruction, statistics, and trace generation throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use flowtab::{
    extract_features, Endpoint, FeatureCounts, FeatureKind, FiveTuple, FlowExtractor, FlowRecord,
    FlowTable, FlowTableConfig, Transport, Windowing,
};
use hids_core::{AttackSweep, RocCurve, SweepTable, ThresholdHeuristic};
use netpkt::testutil::{build_tcp_frame, FrameSpec};
use netpkt::{EthernetFrame, IpProtocol, Ipv4Packet, TcpFlags, TcpSegment, UdpDatagram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use synthgen::{
    render_flows_to_frames, render_window_flows, user_week_series, Population, PopulationConfig,
    TimedFrame, UserProfile, WeekPlan,
};
use synthgen::render::oracle;
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

/// A realistic busy window: the week's largest window of a profile with
/// pinned tail levels. Returns the profile, the window index and its counts.
fn busy_window() -> (UserProfile, usize, FeatureCounts) {
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
    let (w_idx, counts) = week
        .windows
        .iter()
        .enumerate()
        .max_by_key(|(_, c)| c.0.iter().sum::<u64>())
        .map(|(i, c)| (i, *c))
        .unwrap();
    (profile, w_idx, counts)
}

/// A window of about 4000 frames (400 TCP flows with 80 retransmitted
/// SYNs, 300 UDP and 250 DNS flows), rendered to flows once; returns the
/// flows and the RNG state the frame renderer starts from.
fn frames_window() -> (Vec<FlowRecord>, StdRng) {
    let (profile, w_idx, _) = busy_window();
    let mut counts = FeatureCounts::default();
    for (kind, n) in [
        (FeatureKind::TcpConnections, 400),
        (FeatureKind::TcpSyn, 480),
        (FeatureKind::HttpConnections, 150),
        (FeatureKind::UdpConnections, 300),
        (FeatureKind::DnsConnections, 250),
        (FeatureKind::DistinctConnections, 300),
    ] {
        *counts.get_mut(kind) = n;
    }
    let mut rng = StdRng::seed_from_u64(13);
    let flows = render_window_flows(&profile, &counts, w_idx, Windowing::FIFTEEN_MIN, &mut rng);
    (flows, rng)
}

/// The frame renderer, templated against its from-scratch oracle, over one
/// window from the same RNG state.
fn render_layer(c: &mut Criterion) {
    let (flows, rng) = frames_window();
    let frames = render_flows_to_frames(&flows, &mut rng.clone()).len();
    let mut group = c.benchmark_group("render");
    group.sample_size(20);
    group.throughput(Throughput::Elements(frames as u64));
    group.bench_function("frames_window", |b| {
        b.iter(|| black_box(render_flows_to_frames(&flows, &mut rng.clone()).len()))
    });
    group.bench_function("oracle_frames_window", |b| {
        b.iter(|| black_box(oracle::render_flows_to_frames(&flows, &mut rng.clone()).len()))
    });
    group.finish();
}

/// One packet as the flow table takes it.
type Observation = (f64, FiveTuple, usize, Option<TcpFlags>);

/// Parse rendered frames once, so a bench can time `FlowTable::observe`
/// without the parsers.
fn observations(frames: &[TimedFrame]) -> Vec<Observation> {
    frames
        .iter()
        .map(|f| {
            let eth = EthernetFrame::parse(&f.frame[..]).unwrap();
            let ip = Ipv4Packet::parse(eth.payload()).unwrap();
            let (src, dst) = (ip.src(), ip.dst());
            match ip.protocol() {
                IpProtocol::Tcp => {
                    let tcp = TcpSegment::parse(ip.payload()).unwrap();
                    let tuple = FiveTuple::new(
                        Endpoint::new(src, tcp.src_port()),
                        Endpoint::new(dst, tcp.dst_port()),
                        Transport::Tcp,
                    );
                    (f.ts, tuple, tcp.payload().len(), Some(tcp.flags()))
                }
                _ => {
                    let udp = UdpDatagram::parse(ip.payload()).unwrap();
                    let tuple = FiveTuple::new(
                        Endpoint::new(src, udp.src_port()),
                        Endpoint::new(dst, udp.dst_port()),
                        Transport::Udp,
                    );
                    (f.ts, tuple, udp.payload().len(), None)
                }
            }
        })
        .collect()
}

fn flow_layer(c: &mut Criterion) {
    // Pre-render a realistic window of frames.
    let (profile, w_idx, counts) = busy_window();
    let mut rng = StdRng::seed_from_u64(5);
    let flows = render_window_flows(&profile, &counts, w_idx, Windowing::FIFTEEN_MIN, &mut rng);
    let frames = render_flows_to_frames(&flows, &mut rng);

    // A UDP/DNS-heavy window: most flows are two-packet exchanges that
    // stay open, idle, for the 60 s idle timeout, so at any second about a
    // thousand flows wait to expire (the set the pre-heap sweep rescanned
    // once per trace-second).
    let mut udp_counts = FeatureCounts::default();
    for (kind, n) in [
        (FeatureKind::TcpConnections, 400),
        (FeatureKind::TcpSyn, 450),
        (FeatureKind::HttpConnections, 200),
        (FeatureKind::UdpConnections, 8_000),
        (FeatureKind::DnsConnections, 6_000),
        (FeatureKind::DistinctConnections, 2_000),
    ] {
        *udp_counts.get_mut(kind) = n;
    }
    let udp_flows = render_window_flows(
        &profile,
        &udp_counts,
        w_idx,
        Windowing::FIFTEEN_MIN,
        &mut rng,
    );
    let udp_packets = observations(&render_flows_to_frames(&udp_flows, &mut rng));

    let (window_flows, mut window_rng) = frames_window();
    let window_frames = render_flows_to_frames(&window_flows, &mut window_rng);

    let mut group = c.benchmark_group("flowtab");
    group.sample_size(20);
    // Parse and flow table together, per frame, as the packet path runs
    // them on one rendered window.
    group.throughput(Throughput::Elements(window_frames.len() as u64));
    group.bench_function("observe", |b| {
        b.iter(|| {
            let mut ex = FlowExtractor::new(FlowTableConfig::default());
            for f in &window_frames {
                let _ = ex.push_frame(f.ts, &f.frame);
            }
            black_box(ex.finish().len())
        })
    });
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
    group.throughput(Throughput::Elements(udp_packets.len() as u64));
    group.bench_function("observe_udp_heavy", |b| {
        b.iter(|| {
            let mut table = FlowTable::new(FlowTableConfig::default());
            for &(ts, tuple, len, flags) in &udp_packets {
                table.observe(ts, tuple, len, flags);
            }
            black_box(table.drain().len())
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
    // The packet path's render stage, as `synthgen::export_user_windows`
    // runs it per window: counts to flows to timestamp-sorted frames.
    let (profile, w_idx, counts) = busy_window();
    let mut rng = StdRng::seed_from_u64(9);
    let frames = render_flows_to_frames(
        &render_window_flows(&profile, &counts, w_idx, Windowing::FIFTEEN_MIN, &mut rng),
        &mut rng,
    );
    group.throughput(Throughput::Elements(frames.len() as u64));
    group.bench_function("render_window_frames", |b| {
        b.iter(|| {
            let flows =
                render_window_flows(&profile, &counts, w_idx, Windowing::FIFTEEN_MIN, &mut rng);
            black_box(render_flows_to_frames(&flows, &mut rng).len())
        })
    });
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
    let mut candidates: Vec<f64> = Vec::with_capacity(dist.len() + 1);
    for &v in dist.samples() {
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
    render_layer,
    flow_layer,
    stats_layer,
    generator_layer,
    sweep_kernel_layer
);
criterion_main!(benches);
