//! The fast paths against the code they replaced. The week plan: for any
//! profile, seed, week and windowing, `WeekPlan::series` equals
//! `counts::oracle::user_week_series_trended`, every `WeekPlan::column`
//! equals the oracle's feature column, and `WeekPlan::columns` equals both
//! column for column. The renderer:
//! `render_flows_to_frames` equals `render::oracle::render_flows_to_frames`
//! frame for frame, in timestamp bits and bytes.

use std::net::Ipv4Addr;

use proptest::prelude::*;
use rand::Rng;

use flowtab::{Endpoint, FeatureKind, FeatureSeries, FlowRecord, Transport, Windowing};
use synthgen::counts::oracle;
use synthgen::dist::poisson_quantile;
use synthgen::render::oracle as render_oracle;
use synthgen::{
    render_flows_to_frames, stream_rng, Population, Schedule, TailLevels, UserProfile, WeekPlan,
};

/// Check one (profile, seed, week, windowing, trend) point.
fn assert_plan_matches_oracle(
    profile: &UserProfile,
    seed: u64,
    week: usize,
    windowing: Windowing,
    trend: f64,
) -> FeatureSeries {
    let want = oracle::user_week_series_trended(profile, seed, week, windowing, trend);
    let plan = WeekPlan::new(profile, windowing);
    assert_eq!(plan.series(seed, week, trend), want, "series, week {week}");
    let mut column = vec![7u64; 3];
    for k in FeatureKind::ALL {
        plan.column(seed, week, trend, k, &mut column);
        assert_eq!(column, want.feature(k), "{k:?}, week {week}");
    }
    want
}

/// A probability with its edges: 0 and 1 each a sixth of the time.
fn prob() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(1.0),
        0.0..1.0f64,
        0.0..1.0f64,
        0.0..1.0f64,
        0.0..1.0f64
    ]
}

/// A tail level from 1 to 10⁵ (log-uniform), past the 10^4.3 the
/// population sampler caps at, so binomials reach `n > 64`.
fn level() -> impl Strategy<Value = f64> {
    (0.0..5.0f64).prop_map(|e| 10f64.powf(e))
}

/// Session rates up to 80 per window: Poisson draws reach `λ ≥ 30`.
fn rate() -> impl Strategy<Value = f64> {
    prop_oneof![0.05..3.0f64, 3.0..80.0f64]
}

fn profile() -> impl Strategy<Value = UserProfile> {
    let shape = (any::<u32>(), level(), level(), level(), rate(), rate());
    let mix = (
        prob(),
        // syn_mult: exactly 1 (a binomial with p = 0 draws nothing), in
        // range, or past 2 (p clamps to 1).
        prop_oneof![Just(1.0), 1.0..1.6f64, 2.0..3.0f64],
        prob(),
        prob(),
        // sess_size_sigma: zero (no odd-session draw) or positive.
        prop_oneof![Just(0.0), 0.01..0.6f64],
    );
    let sched = (
        prob(),
        prob(),
        prob(),
        // Phases past ±24 h also take `rem_euclid`'s slow path.
        prop_oneof![-3.0..3.0f64, -30.0..30.0f64],
        0.0..1.2f64,
        0.0..0.6f64,
    );
    (shape, mix, sched).prop_map(
        |(
            (id, tcp, udp, dns, sess_rate_tcp, sess_rate_udp),
            (p_http, syn_mult, dest_novelty_tcp, dest_novelty_udp, sess_size_sigma),
            (work_uptime, home_uptime, travel_propensity, phase_hours, window_sigma, week_sigma),
        )| UserProfile {
            id,
            addr: Population::addr_of(id),
            heavy: tcp > 1000.0,
            levels: TailLevels { tcp, udp, dns },
            p_http,
            syn_mult,
            dest_novelty_tcp,
            dest_novelty_udp,
            schedule: Schedule {
                work_uptime,
                home_uptime,
                travel_propensity,
                phase_hours,
            },
            window_sigma,
            week_sigma,
            sess_rate_tcp,
            sess_rate_udp,
            sess_size_sigma,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn plan_equals_oracle(
        p in profile(),
        seed in any::<u64>(),
        week in 0usize..7,
        five_min in any::<bool>(),
        trend in prop_oneof![Just(0.97), 0.5..1.5f64],
    ) {
        let windowing = if five_min { Windowing::FIVE_MIN } else { Windowing::FIFTEEN_MIN };
        assert_plan_matches_oracle(&p, seed, week, windowing, trend);
    }

    /// The feature-major week: column for column, `WeekPlan::columns`
    /// equals `WeekPlan::series` and the oracle.
    #[test]
    fn columns_equal_series_and_oracle(
        p in profile(),
        seed in any::<u64>(),
        week in 0usize..7,
        five_min in any::<bool>(),
        trend in prop_oneof![Just(0.97), 0.5..1.5f64],
    ) {
        let windowing = if five_min { Windowing::FIVE_MIN } else { Windowing::FIFTEEN_MIN };
        let plan = WeekPlan::new(&p, windowing);
        let got = plan.columns(seed, week, trend);
        let series = plan.series(seed, week, trend);
        let want = oracle::user_week_series_trended(&p, seed, week, windowing, trend);
        prop_assert_eq!(got.windowing, want.windowing);
        prop_assert_eq!(got.len(), want.len());
        for k in FeatureKind::ALL {
            prop_assert_eq!(got.column(k), &series.feature(k)[..], "series, {:?}", k);
            prop_assert_eq!(got.column(k), &want.feature(k)[..], "oracle, {:?}", k);
        }
    }

    /// Sampled populations, every week of a five-week run, through one
    /// reused plan per host.
    #[test]
    fn reused_plan_equals_oracle_on_populations(seed in any::<u64>(), five_min in any::<bool>()) {
        let pop = Population::sample(synthgen::PopulationConfig {
            n_users: 4,
            seed,
            ..Default::default()
        });
        let windowing = if five_min { Windowing::FIVE_MIN } else { Windowing::FIFTEEN_MIN };
        let trend = pop.config.weekly_trend;
        for u in &pop.users {
            let plan = WeekPlan::new(u, windowing);
            for week in 0..5 {
                let want = oracle::user_week_series_trended(u, seed, week, windowing, trend);
                prop_assert_eq!(plan.series(seed, week, trend), want);
            }
        }
    }
}

/// A heavy profile pinned so that the rare sampler branches run: TCP
/// counts far above 64 (binomials take the normal approximation) and
/// session counts whose Poisson mean is ≥ 30 (normal approximation, with
/// its clamp at zero).
#[test]
fn heavy_profile_reaches_the_normal_approximations() {
    let mut p = Population::sample(synthgen::PopulationConfig {
        n_users: 2,
        ..Default::default()
    })
    .users[1]
        .clone();
    p.levels = TailLevels {
        tcp: 50_000.0,
        udp: 20_000.0,
        dns: 3_000.0,
    };
    p.sess_rate_tcp = 60.0;
    p.sess_rate_udp = 45.0;
    p.sess_size_sigma = 0.0;
    p.schedule.work_uptime = 1.0;
    let size = (p.levels.tcp / poisson_quantile(p.sess_rate_tcp * 0.7, 0.97) as f64).round() as u64;
    let mut max_sessions = 0;
    let mut big_binomials = 0;
    for week in 0..3 {
        let s = assert_plan_matches_oracle(&p, 11, week, Windowing::FIFTEEN_MIN, 0.97);
        for tcp in s.feature(FeatureKind::TcpConnections) {
            max_sessions = max_sessions.max(tcp / size);
            big_binomials += usize::from(tcp > 64);
        }
    }
    assert!(big_binomials > 100, "{big_binomials} windows with n > 64");
    // Knuth's method below λ = 30 essentially never yields 60 sessions.
    assert!(max_sessions >= 60, "max {max_sessions} sessions per window");
}

/// Flows for one window: TCP with 1 to 40 SYNs, plain UDP, DNS and the odd
/// ICMP flow (no frames, but it takes two IP ids), whose start times fall
/// on a few shared instants so that frames of different flows tie.
fn window_flows(seed: u64, n: usize, window: usize) -> Vec<FlowRecord> {
    let mut rng = stream_rng(seed, 1, window);
    let base = window as f64 * 900.0;
    let instants: Vec<f64> = (0..4).map(|_| base + 1.0 + rng.random::<f64>() * 890.0).collect();
    let host = Ipv4Addr::new(10, 1, (seed >> 8) as u8, seed as u8);
    (0..n)
        .map(|i| {
            let first_ts = if rng.random_bool(0.5) {
                instants[rng.random_range(0..instants.len())]
            } else {
                base + 1.0 + rng.random::<f64>() * 890.0
            };
            let src = Endpoint::new(host, 1025 + i as u16);
            let peer = Ipv4Addr::from(rng.random::<u32>());
            let (transport, port) = match rng.random_range(0..10) {
                0..=4 => (Transport::Tcp, [80u16, 443, 22][rng.random_range(0..3)]),
                5..=6 => (Transport::Udp, [123u16, 500, 4500][rng.random_range(0..3)]),
                7..=8 => (Transport::Udp, 53),
                _ => (Transport::Icmp, 0),
            };
            let mut flow = FlowRecord::synthetic(
                src,
                Endpoint::new(peer, port),
                transport,
                first_ts,
                1.0,
                4,
                200,
                transport == Transport::Tcp,
            );
            if transport == Transport::Tcp {
                flow.syn_count = rng.random_range(1..=40);
            }
            flow
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both renderers from one RNG state: the same frames, in the same
    /// order, and the same RNG state after.
    #[test]
    fn templated_render_equals_oracle(
        seed in any::<u64>(),
        n in 0usize..80,
        window in prop_oneof![Just(0usize), Just(671usize), 0usize..672],
    ) {
        let flows = window_flows(seed, n, window);
        let mut rng = stream_rng(seed, 2, window);
        let mut oracle_rng = rng.clone();
        let got = render_flows_to_frames(&flows, &mut rng);
        let want = render_oracle::render_flows_to_frames(&flows, &mut oracle_rng);
        prop_assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(g.ts.to_bits(), w.ts.to_bits(), "frame {} of {}", i, want.len());
            prop_assert!(g.frame == w.frame, "frame {} of {} bytes differ", i, want.len());
        }
        prop_assert_eq!(rng, oracle_rng);
    }
}
