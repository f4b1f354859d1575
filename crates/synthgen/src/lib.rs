//! # synthgen — a calibrated synthetic enterprise
//!
//! The paper analyses proprietary packet traces from 350 enterprise
//! end hosts over five weeks. Those traces cannot be redistributed, so this
//! crate generates a population with the same *statistical anatomy* — the
//! properties every result in the paper is a function of:
//!
//! * per-user per-window feature-count distributions whose **tails start in
//!   wildly different places** (99th percentiles spanning decades, Fig. 1);
//! * a **heavy-user knee**: the top 10–15% of users sit far above the rest;
//! * **within-user heavy tails**: the 99.9th percentile a small factor
//!   above the 99th;
//! * **diurnal/weekly gating**: laptops that are off at night, at home in
//!   the evening, travelling some weeks;
//! * **feature orientation**: TCP-heavy users who are UDP-light and vice
//!   versa (Fig. 2's corners);
//! * week-over-week variability (threshold drift, Section 6.1).
//!
//! Generation is *tail-first* (profiles carry target tail levels — see
//! [`profile`]), windows are generated independently per `(user, week)` for
//! determinism and parallelism, and any window can be expanded into real
//! flow records and packets ([`render`]) whose re-extracted features match
//! the generated counts exactly — the equivalence that justifies running
//! population-scale experiments at count level.
//!
//! ```
//! use synthgen::{Population, PopulationConfig, user_week_series};
//! use flowtab::Windowing;
//!
//! let pop = Population::sample(PopulationConfig { n_users: 10, ..Default::default() });
//! let week0 = user_week_series(&pop.users[3], pop.config.seed, 0, Windowing::FIFTEEN_MIN);
//! assert_eq!(week0.len(), 672); // 15-minute bins, one week
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counts;
pub mod dist;
pub mod export;
pub mod profile;
pub mod render;
pub mod schedule;
pub mod storm;
pub mod validate;

pub use counts::{
    invariants_hold, user_week_series, user_week_series_trended, window_counts, WeekPlan,
};
pub use export::{export_user_week_to_file, export_user_windows, ExportStats};
pub use profile::{
    mix_seed, sample_user, stream_rng, Population, PopulationConfig, TailLevels, UserId,
    UserProfile,
};
pub use render::{render_flows_to_frames, render_window_flows, TimedFrame, RESOLVERS};
pub use schedule::{Regime, Schedule, DAY_SECS, WEEK_SECS};
pub use storm::{storm_week_series, StormConfig};
pub use validate::{validate, Check, ValidationReport};

use flowtab::{FeatureSeries, Windowing};

/// A user's multi-week trace at count level.
#[derive(Debug, Clone)]
pub struct UserTrace {
    /// The user this trace belongs to.
    pub user: UserId,
    /// One series per week, index 0 = first week.
    pub weeks: Vec<FeatureSeries>,
}

/// Generate `n_weeks` of traces for the whole population.
///
/// Deterministic in the population seed; weeks and users are generated
/// independently, so this is embarrassingly parallel (the experiments crate
/// parallelises it with crossbeam).
pub fn generate_traces(pop: &Population, n_weeks: usize, windowing: Windowing) -> Vec<UserTrace> {
    pop.users
        .iter()
        .map(|u| {
            let plan = WeekPlan::new(u, windowing);
            UserTrace {
                user: u.id,
                weeks: (0..n_weeks)
                    .map(|w| plan.series(pop.config.seed, w, pop.config.weekly_trend))
                    .collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_cover_population_and_weeks() {
        let pop = Population::sample(PopulationConfig {
            n_users: 5,
            ..Default::default()
        });
        let traces = generate_traces(&pop, 2, Windowing::FIFTEEN_MIN);
        assert_eq!(traces.len(), 5);
        for t in &traces {
            assert_eq!(t.weeks.len(), 2);
            assert_eq!(t.weeks[0].len(), 672);
        }
    }
}
