//! Streaming train-vs-live drift tracking with a poisoning guard.
//!
//! The paper fits thresholds once (train week *n*, test week *n+1*) and
//! notes — without operationalising it — that per-host profiles drift
//! across weeks and that a resourceful attacker can sit below a stale
//! threshold. This module is the detection side of threshold
//! *maintenance*: a per-host [`DriftTracker`] watches the live stream of
//! window counts the daemon already ingests and compares the tail-onset
//! region of the live distribution against the training baseline.
//!
//! Design points:
//!
//! * **Tail-onset comparison.** Alarms live in the extreme tail, but the
//!   extreme tail of a short live window is pure noise. The tracker
//!   therefore compares a *tail-onset* quantile (default q90) of a
//!   sliding live window against the same quantile of the training
//!   distribution, smoothed with an EWMA — a shift there predicts a shift
//!   in the alarm quantile without needing a week of data.
//! * **Hysteresis.** One hot bin must not trigger a refit: divergence has
//!   to persist for [`DriftConfig::trigger_after`] consecutive
//!   evaluations, and a cooling streak resets the count. Once drift
//!   *has* latched, it stays latched until [`DriftTracker::reset`] (the
//!   rollout that consumed it completed).
//! * **Poisoning guard.** The "boiling frog" variant of the paper's
//!   mimicry attacker inflates a host's baseline a little at a time so a
//!   naive refit learns the attack as normal. Legitimate drift wanders;
//!   this attack is *monotone by construction*. The guard latches a host
//!   as suspect when the smoothed onset rises without a single meaningful
//!   decrease for [`DriftConfig::poison_run`] evaluations *and* the total
//!   inflation exceeds [`DriftConfig::poison_ratio`]. A suspect tracker
//!   refuses to hand out a refit window ([`DriftTracker::refit_dist`]
//!   returns `None`), and the caller falls back to the host's *group*
//!   threshold from the partial-diversity policy — the paper's own
//!   observation that group thresholds resist single-host manipulation.
//!
//! Everything here is pure per-host state driven by `observe` calls, so
//! two deliveries of the same per-host stream produce bit-identical
//! verdicts regardless of how hosts interleave.

use std::collections::VecDeque;

use tailstats::{EmpiricalDist, Ewma};

/// Tunables for a [`DriftTracker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Tail-onset quantile compared between train and live (the region
    /// just below where alarm thresholds live).
    pub onset_q: f64,
    /// Sliding live window length, in bins.
    pub window: usize,
    /// Relative divergence of the smoothed live onset from the training
    /// onset that marks one evaluation "hot".
    pub hot: f64,
    /// Consecutive hot evaluations required to latch
    /// [`DriftState::Drifted`].
    pub trigger_after: u32,
    /// Consecutive cool evaluations that clear an unlatched hot streak.
    pub cool_after: u32,
    /// EWMA smoothing factor for the live onset series.
    pub alpha: f64,
    /// Poisoning guard: live/train onset ratio above which a sustained
    /// monotone rise marks the window suspect.
    pub poison_ratio: f64,
    /// Poisoning guard: cumulative raw-onset increases, uninterrupted by
    /// any decrease, required (together with `poison_ratio`) to latch
    /// suspicion. Must exceed `window`: an abrupt benign step change
    /// produces at most `window` consecutive increases while the sliding
    /// window fills, whereas a boiling-frog ramp keeps climbing.
    pub poison_run: u32,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            onset_q: 0.90,
            window: 48,
            hot: 0.25,
            trigger_after: 8,
            cool_after: 4,
            alpha: 0.2,
            poison_ratio: 1.5,
            poison_run: 72,
        }
    }
}

/// Where a tracker currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftState {
    /// Live onset tracks the training onset.
    Stable,
    /// Divergence observed but not yet persistent enough to act on.
    Heating,
    /// Persistent divergence: a refit is warranted (latched until
    /// [`DriftTracker::reset`]).
    Drifted,
}

/// Per-host, per-feature streaming drift tracker.
#[derive(Debug, Clone)]
pub struct DriftTracker {
    cfg: DriftConfig,
    train_onset: f64,
    recent: VecDeque<u64>,
    ewma: Ewma,
    smoothed: Option<f64>,
    hot_streak: u32,
    cool_streak: u32,
    state: DriftState,
    // Poisoning guard state.
    inflate_run: u32,
    last_onset: f64,
    suspect: bool,
    // Live window frozen at the moment drift latched — the refit input.
    trigger_window: Option<Vec<u64>>,
    bins: u64,
}

impl DriftTracker {
    /// Build a tracker for one host from its training distribution.
    pub fn new(train: &EmpiricalDist, cfg: DriftConfig) -> Self {
        Self {
            train_onset: train.quantile(cfg.onset_q),
            recent: VecDeque::with_capacity(cfg.window.max(1)),
            ewma: Ewma::new(cfg.alpha),
            smoothed: None,
            hot_streak: 0,
            cool_streak: 0,
            state: DriftState::Stable,
            inflate_run: 0,
            last_onset: 0.0,
            suspect: false,
            trigger_window: None,
            bins: 0,
            cfg,
        }
    }

    /// Feed one live bin (window count). Returns the tracker state after
    /// absorbing it.
    pub fn observe(&mut self, count: u64) -> DriftState {
        self.bins += 1;
        if self.recent.len() == self.cfg.window.max(1) {
            self.recent.pop_front();
        }
        self.recent.push_back(count);
        if self.recent.len() < self.cfg.window.max(1) {
            return self.state; // window not yet full: no evaluation
        }

        let counts: Vec<u64> = self.recent.iter().copied().collect();
        let live_onset = EmpiricalDist::from_counts(&counts).quantile(self.cfg.onset_q);
        let smoothed = self.ewma.observe(live_onset);
        let prev = self.smoothed.replace(smoothed);

        // Poisoning guard: a monotone (never meaningfully decreasing)
        // rise of the *raw* live onset, sustained long enough and far
        // enough above the baseline, is the boiling-frog signature.
        // Legitimate regime changes wander — their raw quantile series
        // has real decreases that keep resetting the run — whereas a
        // ratchet attack is non-decreasing by construction. The raw
        // series is used deliberately: the EWMA would smooth any
        // sustained rise into monotonicity and flag benign drift too.
        // A plateau neither extends nor resets the run: an abrupt
        // (benign) step change yields at most `window` consecutive
        // increases while the window fills, then plateaus — which is why
        // `poison_run` must exceed `window` to separate the two.
        if prev.is_some() {
            let eps = self.last_onset.abs().max(1.0) * 1e-9;
            if live_onset > self.last_onset + eps {
                self.inflate_run += 1;
            } else if live_onset < self.last_onset - eps {
                self.inflate_run = 0;
            }
        }
        self.last_onset = live_onset;
        let denom = self.train_onset.max(1e-9);
        if self.inflate_run >= self.cfg.poison_run && smoothed / denom >= self.cfg.poison_ratio {
            self.suspect = true;
        }

        // Hysteresis over the relative divergence score.
        let score = self.score_of(smoothed);
        if score.abs() >= self.cfg.hot {
            self.hot_streak += 1;
            self.cool_streak = 0;
            if self.hot_streak >= self.cfg.trigger_after && self.state != DriftState::Drifted {
                self.state = DriftState::Drifted;
                self.trigger_window = Some(counts);
            } else if self.state == DriftState::Stable {
                self.state = DriftState::Heating;
            }
        } else {
            self.cool_streak += 1;
            if self.cool_streak >= self.cfg.cool_after {
                self.hot_streak = 0;
                if self.state == DriftState::Heating {
                    self.state = DriftState::Stable;
                }
            }
        }
        self.state
    }

    fn score_of(&self, smoothed: f64) -> f64 {
        (smoothed - self.train_onset) / self.train_onset.max(1.0)
    }

    /// Signed relative divergence of the smoothed live onset from the
    /// training onset (positive = live runs hotter than training). Zero
    /// until the first full window has been observed.
    pub fn score(&self) -> f64 {
        self.smoothed.map_or(0.0, |s| self.score_of(s))
    }

    /// Current state.
    pub fn state(&self) -> DriftState {
        self.state
    }

    /// Whether the poisoning guard has latched this host as suspect.
    pub fn suspect(&self) -> bool {
        self.suspect
    }

    /// Live bins observed so far.
    pub fn bins(&self) -> u64 {
        self.bins
    }

    /// The refit input: the live window frozen when drift latched.
    /// `None` while stable — and, deliberately, `None` for a suspect
    /// host: a window flagged by the poisoning guard must not be learned
    /// from, and the caller falls back to the host's group threshold.
    pub fn refit_dist(&self) -> Option<EmpiricalDist> {
        if self.suspect {
            return None;
        }
        self.trigger_window
            .as_ref()
            .map(|w| EmpiricalDist::from_counts(w))
    }

    /// Clear the drift latch and guard state after a rollout consumed
    /// this tracker's verdict (the live window keeps streaming).
    pub fn reset(&mut self) {
        self.state = DriftState::Stable;
        self.hot_streak = 0;
        self.cool_streak = 0;
        self.inflate_run = 0;
        self.suspect = false;
        self.trigger_window = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(level: u64) -> EmpiricalDist {
        // 100 bins of mild noise around `level`.
        let counts: Vec<u64> = (0..100).map(|i| level + (i % 7)).collect();
        EmpiricalDist::from_counts(&counts)
    }

    fn cfg() -> DriftConfig {
        DriftConfig {
            window: 16,
            trigger_after: 4,
            cool_after: 2,
            poison_run: 24,
            ..DriftConfig::default()
        }
    }

    #[test]
    fn stable_stream_never_triggers() {
        let mut t = DriftTracker::new(&train(100), cfg());
        for i in 0..200u64 {
            t.observe(100 + (i % 7));
        }
        assert_eq!(t.state(), DriftState::Stable);
        assert!(!t.suspect());
        assert!(t.score().abs() < 0.1, "score {}", t.score());
    }

    #[test]
    fn one_hot_bin_does_not_latch() {
        let mut t = DriftTracker::new(&train(100), cfg());
        for i in 0..40u64 {
            t.observe(100 + (i % 7));
        }
        // One wild window then back to normal: hysteresis must absorb it.
        t.observe(100_000);
        for i in 0..40u64 {
            t.observe(100 + (i % 7));
        }
        assert_ne!(t.state(), DriftState::Drifted);
    }

    #[test]
    fn sustained_downward_drift_latches_and_is_not_suspect() {
        let mut t = DriftTracker::new(&train(100), cfg());
        for i in 0..30u64 {
            t.observe(100 + (i % 7));
        }
        for i in 0..60u64 {
            t.observe(50 + (i % 5));
        }
        assert_eq!(t.state(), DriftState::Drifted);
        assert!(!t.suspect(), "deflation is drift, not poisoning");
        assert!(t.score() < -0.2);
        let refit = t.refit_dist().expect("benign drift hands out a refit window");
        assert!(refit.quantile(0.99) < 70.0);
    }

    #[test]
    fn monotone_inflation_latches_suspect_and_refuses_refit() {
        let mut t = DriftTracker::new(&train(100), cfg());
        for i in 0..30u64 {
            t.observe(100 + (i % 7));
        }
        // Boiling frog: ratchet up ~1% per bin to ~2.5x baseline.
        let mut level = 100f64;
        for _ in 0..120 {
            level *= 1.01;
            t.observe(level as u64);
        }
        assert_eq!(t.state(), DriftState::Drifted, "inflation is drift too");
        assert!(t.suspect(), "monotone inflation must latch the guard");
        assert!(t.refit_dist().is_none(), "suspect windows are not learned from");
    }

    #[test]
    fn wandering_drift_is_not_flagged_as_poisoning() {
        let mut t = DriftTracker::new(&train(100), cfg());
        for i in 0..30u64 {
            t.observe(100 + (i % 7));
        }
        // Legitimate regime change: the level runs hot and cool in
        // blocks longer than the tracker window (think diurnal load),
        // so the raw onset series has real decreases that keep breaking
        // any monotone run.
        for block in 0..6u64 {
            let level = if block % 2 == 0 { 180 } else { 130 };
            for i in 0..20u64 {
                t.observe(level + (i % 5));
            }
        }
        assert!(!t.suspect(), "non-monotone rise must not latch the guard");
    }

    #[test]
    fn reset_clears_latch_and_guard() {
        let mut t = DriftTracker::new(&train(100), cfg());
        for i in 0..30u64 {
            t.observe(100 + (i % 7));
        }
        let mut level = 100f64;
        for _ in 0..120 {
            level *= 1.01;
            t.observe(level as u64);
        }
        assert!(t.suspect());
        t.reset();
        assert_eq!(t.state(), DriftState::Stable);
        assert!(!t.suspect());
        assert!(t.refit_dist().is_none());
    }

    #[test]
    fn determinism_same_stream_same_verdicts() {
        let stream: Vec<u64> = (0..150u64).map(|i| 100 + (i * 37 % 53)).collect();
        let run = |s: &[u64]| {
            let mut t = DriftTracker::new(&train(100), cfg());
            for &c in s {
                t.observe(c);
            }
            (t.state(), t.suspect(), t.score().to_bits())
        };
        assert_eq!(run(&stream), run(&stream));
    }
}
