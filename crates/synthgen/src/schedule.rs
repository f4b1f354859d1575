//! Diurnal/weekly activity modulation and laptop usage regimes.
//!
//! The paper's population is 95% laptops captured wherever they go (work,
//! home, travel), so a user's traffic is gated by *whether the machine is
//! open at all* and by *where it is* — the office regime produces different
//! mixes than home evening use. We model this as a small Markov chain over
//! regimes whose transition pressure follows the hour-of-week, multiplied
//! by a smooth diurnal intensity.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Seconds in one day / one week.
pub const DAY_SECS: f64 = 86_400.0;
/// Seconds in one week.
pub const WEEK_SECS: f64 = 7.0 * DAY_SECS;

/// Where the laptop is (and whether it is in use).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Regime {
    /// Lid closed / machine off: no traffic at all.
    Off,
    /// In the office on the corporate network.
    Work,
    /// Evening/weekend use at home.
    Home,
    /// On the road: sparse, bursty connectivity.
    Travel,
}

impl Regime {
    /// Multiplier applied to the user's base activity in this regime.
    pub fn intensity(self) -> f64 {
        match self {
            Regime::Off => 0.0,
            Regime::Work => 1.0,
            Regime::Home => 0.55,
            Regime::Travel => 0.25,
        }
    }
}

/// Hour-of-week dependent schedule model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Schedule {
    /// Probability the machine is in use during core work hours.
    pub work_uptime: f64,
    /// Probability the machine is in use during home hours.
    pub home_uptime: f64,
    /// Fraction of weeks this user travels (swaps work for travel regime).
    pub travel_propensity: f64,
    /// Phase offset in hours (early birds vs night owls), `[-3, +3]`.
    pub phase_hours: f64,
}

impl Default for Schedule {
    fn default() -> Self {
        Self {
            work_uptime: 0.85,
            home_uptime: 0.35,
            travel_propensity: 0.1,
            phase_hours: 0.0,
        }
    }
}

impl Schedule {
    /// Smooth diurnal intensity in `[0, 1]` for a time-of-day, peaking
    /// mid-morning and mid-afternoon with a lunch dip.
    pub fn diurnal_intensity(&self, ts: f64) -> f64 {
        Self::diurnal_at_hour(((ts / 3600.0) - self.phase_hours).rem_euclid(24.0))
    }

    /// [`diurnal_intensity`](Self::diurnal_intensity) at a phase-adjusted
    /// hour of day in `[0, 24)`.
    pub(crate) fn diurnal_at_hour(hour: f64) -> f64 {
        // Piecewise curve: night trough, morning ramp, lunch dip, evening tail.
        let base: f64 = match hour {
            h if h < 6.0 => 0.02,
            h if h < 9.0 => 0.02 + (h - 6.0) / 3.0 * 0.9,
            h if h < 12.0 => 0.95,
            h if h < 13.0 => 0.7,
            h if h < 17.0 => 1.0,
            h if h < 22.0 => 0.9 - (h - 17.0) / 5.0 * 0.55,
            _ => 0.12,
        };
        base.clamp(0.0, 1.0)
    }

    /// True when `ts` (seconds from Monday 00:00) falls on a weekend.
    pub fn is_weekend(ts: f64) -> bool {
        let day = (ts / DAY_SECS).rem_euclid(7.0);
        day >= 5.0
    }

    /// Sample the regime for the window starting at `ts`.
    ///
    /// Stateless per window given the RNG stream — regimes are resampled
    /// per window with hour-of-week-dependent probabilities, which is
    /// enough temporal structure for tail statistics while keeping every
    /// window reproducible in isolation.
    pub fn sample_regime<R: Rng + ?Sized>(&self, rng: &mut R, ts: f64, travelling: bool) -> Regime {
        let hour = ((ts / 3600.0) - self.phase_hours).rem_euclid(24.0);
        let weekend = Self::is_weekend(ts);
        let u: f64 = rng.random();
        if weekend {
            // Weekend: mostly off, some home use.
            return if u < self.home_uptime * 0.7 {
                Regime::Home
            } else {
                Regime::Off
            };
        }
        match hour {
            h if (9.0..18.0).contains(&h) => {
                if travelling {
                    if u < 0.5 {
                        Regime::Travel
                    } else {
                        Regime::Off
                    }
                } else if u < self.work_uptime {
                    Regime::Work
                } else {
                    Regime::Off
                }
            }
            h if (7.0..9.0).contains(&h) || (18.0..23.0).contains(&h) => {
                if u < self.home_uptime {
                    Regime::Home
                } else {
                    Regime::Off
                }
            }
            _ => {
                // Deep night: almost always off.
                if u < 0.03 {
                    Regime::Home
                } else {
                    Regime::Off
                }
            }
        }
    }

    /// Combined activity multiplier for a window: regime intensity times
    /// the diurnal curve (0 when the machine is off).
    pub fn activity<R: Rng + ?Sized>(&self, rng: &mut R, ts: f64, travelling: bool) -> f64 {
        let regime = self.sample_regime(rng, ts, travelling);
        if regime == Regime::Off {
            return 0.0;
        }
        // A machine that is on always produces *some* traffic (background
        // updaters, IM keep-alives), hence the diurnal floor.
        regime.intensity() * self.diurnal_intensity(ts).max(0.15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn diurnal_peaks_in_afternoon_trough_at_night() {
        let s = Schedule::default();
        let afternoon = s.diurnal_intensity(15.0 * 3600.0);
        let night = s.diurnal_intensity(3.0 * 3600.0);
        assert!(afternoon > 0.9);
        assert!(night < 0.05);
        assert!(afternoon > night * 10.0);
    }

    #[test]
    fn weekend_detection() {
        assert!(!Schedule::is_weekend(0.0)); // Monday 00:00
        assert!(!Schedule::is_weekend(4.9 * DAY_SECS)); // Friday
        assert!(Schedule::is_weekend(5.1 * DAY_SECS)); // Saturday
        assert!(Schedule::is_weekend(6.5 * DAY_SECS)); // Sunday
        assert!(!Schedule::is_weekend(7.2 * DAY_SECS)); // next Monday
    }

    #[test]
    fn workday_mostly_work_regime() {
        let s = Schedule::default();
        let mut rng = StdRng::seed_from_u64(1);
        let ts = 2.0 * DAY_SECS + 11.0 * 3600.0; // Wednesday 11:00
        let mut work = 0;
        for _ in 0..1000 {
            if s.sample_regime(&mut rng, ts, false) == Regime::Work {
                work += 1;
            }
        }
        assert!(work > 700, "got {work}");
    }

    #[test]
    fn night_mostly_off() {
        let s = Schedule::default();
        let mut rng = StdRng::seed_from_u64(2);
        let ts = 2.0 * DAY_SECS + 3.0 * 3600.0;
        let off = (0..1000)
            .filter(|_| s.sample_regime(&mut rng, ts, false) == Regime::Off)
            .count();
        assert!(off > 900, "got {off}");
    }

    #[test]
    fn travelling_replaces_work() {
        let s = Schedule::default();
        let mut rng = StdRng::seed_from_u64(3);
        let ts = 1.0 * DAY_SECS + 11.0 * 3600.0;
        for _ in 0..1000 {
            let r = s.sample_regime(&mut rng, ts, true);
            assert_ne!(r, Regime::Work);
        }
    }

    #[test]
    fn off_has_zero_activity() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = Schedule {
            work_uptime: 0.0,
            home_uptime: 0.0,
            ..Default::default()
        };
        let ts = 11.0 * 3600.0;
        for _ in 0..100 {
            assert_eq!(s.activity(&mut rng, ts, false), 0.0);
        }
    }

    #[test]
    fn phase_shifts_curve() {
        let early = Schedule {
            phase_hours: -3.0,
            ..Default::default()
        };
        let late = Schedule {
            phase_hours: 3.0,
            ..Default::default()
        };
        let seven_am = 7.0 * 3600.0;
        assert!(early.diurnal_intensity(seven_am) > late.diurnal_intensity(seven_am));
    }

    #[test]
    fn regime_intensity_ordering() {
        assert!(Regime::Work.intensity() > Regime::Home.intensity());
        assert!(Regime::Home.intensity() > Regime::Travel.intensity());
        assert_eq!(Regime::Off.intensity(), 0.0);
    }
}
