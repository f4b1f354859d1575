//! The week plan against the generator it replaced: for any profile,
//! seed, week and windowing, `WeekPlan::series` equals
//! `counts::oracle::user_week_series_trended`, and every
//! `WeekPlan::column` equals the oracle's feature column.

use proptest::prelude::*;

use flowtab::{FeatureKind, FeatureSeries, Windowing};
use synthgen::counts::oracle;
use synthgen::dist::poisson_quantile;
use synthgen::{Population, Schedule, TailLevels, UserProfile, WeekPlan};

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
