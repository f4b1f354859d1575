//! Per-host in-memory state and the batch apply path.
//!
//! Apply is the one mutation in the daemon and it is built to be safely
//! repeatable, because crash recovery *will* repeat it: the WAL replays
//! batches already in memory at snapshot time, and at-least-once delivery
//! resends batches whose completions were lost. Two mechanisms make the
//! repetition invisible:
//!
//! * per-host monotone `seq` dedupe — a batch at or below the host's
//!   high-water mark is a [`ApplyOutcome::Duplicate`], applied zero times;
//! * first-write-wins window accumulation
//!   ([`hids_core::WindowAccumulator`]) — even a batch that *does* re-run
//!   (crash between memory apply and WAL append, then redelivery into a
//!   recovered state that never saw it) lands on exactly the same windows.
//!
//! Poison batches trip a panic *before* any mutation, so a quarantined
//! batch leaves no partial state behind and — because the panic fires
//! before the WAL append too — can never enter the log and re-kill
//! recovery.

use std::collections::BTreeMap;

use hids_core::{SketchAccumulator, WindowAccumulator};

use crate::codec::{Week, WindowBatch};
use crate::epoch::GateStats;

/// Tunables the apply path needs.
#[derive(Debug, Clone, Copy)]
pub struct ApplyConfig {
    /// Windows per week; batches must fit inside `[0, n_windows)`.
    pub n_windows: u32,
    /// Quantile of the host's own training distribution used as its live
    /// alarm threshold (the paper's per-host baseline policy).
    pub threshold_q: f64,
    /// `Some(eps)` switches per-host accumulation to bounded-memory
    /// [`SketchAccumulator`]s with rank-error budget `eps` — the
    /// million-host mode. `None` (the default everywhere) keeps the
    /// original exact [`WindowAccumulator`] path bit-for-bit unchanged,
    /// including the snapshot byte format.
    pub sketch_eps: Option<f64>,
}

/// Everything the daemon tracks for one host.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostState {
    /// Highest batch sequence number applied (0 = none yet).
    pub last_seq: u64,
    /// Training-week window counts accumulated so far (exact mode).
    pub train: WindowAccumulator,
    /// Test-week window counts accumulated so far (exact mode).
    pub test: WindowAccumulator,
    /// Training-week sketch, populated only when
    /// [`ApplyConfig::sketch_eps`] is set; `None` in exact mode so the
    /// exact path's state (and its `PartialEq`/snapshot image) is
    /// untouched.
    pub train_sketch: Option<SketchAccumulator>,
    /// Test-week sketch (sketch mode only; see
    /// [`HostState::train_sketch`]).
    pub test_sketch: Option<SketchAccumulator>,
    /// Live alarm threshold, fit from the training accumulator when the
    /// first test-week batch arrives (None until then, or if the training
    /// accumulator was still empty at that point).
    pub threshold: Option<f64>,
    /// Alarms raised online: test windows whose count strictly exceeded
    /// the effective threshold at the moment they were first applied.
    pub live_alarms: u64,
    /// Promoted-epoch override as `(effective_from, threshold)`: windows
    /// at or after `effective_from` alarm against this threshold instead
    /// of the incumbent [`HostState::threshold`]. Written only by a
    /// promoted rollout; a rolled-back rollout leaves it `None`, which is
    /// what makes rollback bitwise-exact.
    pub promoted: Option<(u32, f64)>,
    /// Operator-pinned threshold override (the control plane's
    /// `pin-threshold` command). Pins outrank both the incumbent and any
    /// promoted epoch — an operator decision beats the automation — and
    /// are journaled as WAL command records, so crash recovery replays
    /// them at exactly the point in the batch stream where they landed.
    pub pinned: Option<f64>,
}

/// Shadow-evaluation context for one batch apply during a canary soak:
/// count, per fresh soak-span test window, what the incumbent did and
/// what the candidate threshold *would* have done.
#[derive(Debug)]
pub struct ShadowCtx<'a> {
    /// First soak window index (inclusive).
    pub soak_start: u32,
    /// One past the last soak window index.
    pub soak_end: u32,
    /// Candidate threshold for this batch's host.
    pub candidate: f64,
    /// Counters to accumulate into.
    pub stats: &'a mut GateStats,
}

/// Result of a successful (non-panicking) apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// State advanced; the batch must now be made durable.
    Applied,
    /// Sequence number at or below the high-water mark; nothing changed.
    Duplicate,
}

/// A structurally invalid batch (bad input, not a crash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyError {
    /// `start + counts.len()` exceeds the configured week length.
    WindowOutOfRange {
        /// First window index past the end of the week.
        end: u64,
        /// Configured windows per week.
        n_windows: u32,
    },
}

impl core::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ApplyError::WindowOutOfRange { end, n_windows } => write!(
                f,
                "batch windows end at {end} but weeks have {n_windows} windows"
            ),
        }
    }
}

impl std::error::Error for ApplyError {}

/// The deliberate crash a poison batch triggers, standing in for the
/// malformed-input bug class. Lives behind the one `panic!` the crate
/// allows; everything else returns `Result`.
#[allow(clippy::panic)]
fn poison_trip(batch: &WindowBatch) -> ! {
    panic!(
        "poison batch tripped worker (host {}, seq {})",
        batch.host, batch.seq
    );
}

impl HostState {
    /// The threshold window `w` alarms against: an operator pin if one is
    /// set, otherwise the promoted override once `w` reaches its
    /// activation boundary, otherwise the incumbent.
    pub fn effective_threshold(&self, w: u32) -> Option<f64> {
        if let Some(t) = self.pinned {
            return Some(t);
        }
        match self.promoted {
            Some((from, t)) if w >= from => Some(t),
            _ => self.threshold,
        }
    }

    /// Bytes of bounded sketch state this host holds (window bitmaps plus
    /// sketch buffers); 0 in exact mode. The per-host memory figure the
    /// million-host sizing argument is about.
    pub fn sketch_state_bytes(&self) -> usize {
        let one = |a: &Option<SketchAccumulator>| {
            a.as_ref().map_or(0, |a| {
                a.seen_words().len() * 8 + a.sketch().state_bytes() as usize
            })
        };
        one(&self.train_sketch) + one(&self.test_sketch)
    }

    /// Apply one batch. Panics only on poison batches (callers run this
    /// under `catch_unwind`); returns `Duplicate` without mutating when
    /// the sequence number is stale.
    pub fn apply(
        &mut self,
        batch: &WindowBatch,
        cfg: &ApplyConfig,
    ) -> Result<ApplyOutcome, ApplyError> {
        self.apply_shadowed(batch, cfg, None)
    }

    /// [`HostState::apply`], additionally shadow-evaluating a candidate
    /// threshold over fresh soak-span test windows when `shadow` is set.
    pub fn apply_shadowed(
        &mut self,
        batch: &WindowBatch,
        cfg: &ApplyConfig,
        mut shadow: Option<&mut ShadowCtx<'_>>,
    ) -> Result<ApplyOutcome, ApplyError> {
        if batch.seq <= self.last_seq {
            return Ok(ApplyOutcome::Duplicate);
        }
        if batch.poison {
            poison_trip(batch);
        }
        let end = u64::from(batch.start) + batch.counts.len() as u64;
        if end > u64::from(cfg.n_windows) {
            return Err(ApplyError::WindowOutOfRange {
                end,
                n_windows: cfg.n_windows,
            });
        }

        // Fit the live threshold the moment the host transitions into its
        // test week: the training accumulator as-of-now is the baseline.
        // Replay and redelivery preserve the original apply order per
        // host, so this fit sees the same data every time.
        if batch.week == Week::Test && self.threshold.is_none() {
            self.threshold = match cfg.sketch_eps {
                None => self.train.dist().map(|d| d.quantile(cfg.threshold_q)),
                Some(_) => self
                    .train_sketch
                    .as_ref()
                    .filter(|acc| !acc.is_empty())
                    .map(|acc| acc.sketch().quantile(cfg.threshold_q)),
            };
        }

        match batch.week {
            Week::Train => {
                if let Some(eps) = cfg.sketch_eps {
                    let acc = self
                        .train_sketch
                        .get_or_insert_with(|| SketchAccumulator::new(eps));
                    for (i, &c) in batch.counts.iter().enumerate() {
                        acc.insert(batch.start + i as u32, c);
                    }
                } else {
                    for (i, &c) in batch.counts.iter().enumerate() {
                        self.train.insert(batch.start + i as u32, c);
                    }
                }
            }
            Week::Test => {
                for (i, &c) in batch.counts.iter().enumerate() {
                    let w = batch.start + i as u32;
                    // Count an alarm only when the window is genuinely
                    // new: re-applied overlaps must not double-alarm.
                    // The sketch accumulator's window bitmap provides the
                    // same first-write-wins guarantee in sketch mode.
                    let fresh = match cfg.sketch_eps {
                        None => self.test.insert(w, c),
                        Some(eps) => self
                            .test_sketch
                            .get_or_insert_with(|| SketchAccumulator::new(eps))
                            .insert(w, c),
                    };
                    if fresh {
                        let incumbent_alarm = self
                            .effective_threshold(w)
                            .is_some_and(|t| c as f64 > t);
                        if incumbent_alarm {
                            self.live_alarms += 1;
                        }
                        if let Some(ctx) = shadow.as_deref_mut() {
                            if w >= ctx.soak_start && w < ctx.soak_end {
                                ctx.stats.windows += 1;
                                if incumbent_alarm {
                                    ctx.stats.incumbent_alarms += 1;
                                }
                                if c as f64 > ctx.candidate {
                                    ctx.stats.candidate_alarms += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        self.last_seq = batch.seq;
        Ok(ApplyOutcome::Applied)
    }
}

/// One shard's slice of the host table.
#[derive(Debug, Default)]
pub struct ShardState {
    /// Hosts owned by this shard, keyed by host id (ordered for
    /// deterministic iteration).
    pub hosts: BTreeMap<u32, HostState>,
}

impl ShardState {
    /// Apply a batch to its host (creating the host on first contact).
    pub fn apply(
        &mut self,
        batch: &WindowBatch,
        cfg: &ApplyConfig,
    ) -> Result<ApplyOutcome, ApplyError> {
        self.hosts.entry(batch.host).or_default().apply(batch, cfg)
    }

    /// [`ShardState::apply`] with shadow evaluation of a candidate
    /// threshold (see [`HostState::apply_shadowed`]).
    pub fn apply_shadowed(
        &mut self,
        batch: &WindowBatch,
        cfg: &ApplyConfig,
        shadow: Option<&mut ShadowCtx<'_>>,
    ) -> Result<ApplyOutcome, ApplyError> {
        self.hosts
            .entry(batch.host)
            .or_default()
            .apply_shadowed(batch, cfg, shadow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ApplyConfig {
        ApplyConfig {
            n_windows: 8,
            threshold_q: 0.99,
            sketch_eps: None,
        }
    }

    fn sketch_cfg() -> ApplyConfig {
        ApplyConfig {
            sketch_eps: Some(0.001),
            ..cfg()
        }
    }

    fn b(seq: u64, week: Week, start: u32, counts: &[u64]) -> WindowBatch {
        WindowBatch {
            host: 1,
            seq,
            week,
            start,
            counts: counts.to_vec(),
            poison: false,
        }
    }

    #[test]
    fn stale_seq_is_duplicate_and_mutates_nothing() {
        let mut h = HostState::default();
        assert_eq!(
            h.apply(&b(3, Week::Train, 0, &[1, 2]), &cfg()).unwrap(),
            ApplyOutcome::Applied
        );
        let before = h.clone();
        for seq in [1, 2, 3] {
            assert_eq!(
                h.apply(&b(seq, Week::Train, 4, &[9, 9]), &cfg()).unwrap(),
                ApplyOutcome::Duplicate
            );
        }
        assert_eq!(h, before);
    }

    #[test]
    fn threshold_fits_on_first_test_batch_then_freezes() {
        let mut h = HostState::default();
        h.apply(&b(1, Week::Train, 0, &[0, 0, 0, 0, 0, 0, 0, 10]), &cfg())
            .unwrap();
        h.apply(&b(2, Week::Test, 0, &[100]), &cfg()).unwrap();
        let t = h.threshold.expect("threshold fit at test transition");
        assert_eq!(h.live_alarms, 1, "100 > q99 of the training week");
        // More training data after the transition must not refit.
        h.apply(&b(3, Week::Train, 4, &[0, 0, 0, 0]), &cfg()).unwrap();
        let t2 = h.threshold.unwrap();
        assert_eq!(t.to_bits(), t2.to_bits());
    }

    #[test]
    fn alarms_only_count_fresh_windows() {
        let mut h = HostState::default();
        h.apply(&b(1, Week::Train, 0, &[1; 8]), &cfg()).unwrap();
        h.apply(&b(2, Week::Test, 0, &[100, 100]), &cfg()).unwrap();
        assert_eq!(h.live_alarms, 2);
        // Overlapping re-send under a *new* seq: windows already present,
        // so no new alarms even though counts exceed the threshold.
        h.apply(&b(3, Week::Test, 0, &[100, 100]), &cfg()).unwrap();
        assert_eq!(h.live_alarms, 2);
    }

    #[test]
    fn out_of_range_batch_is_rejected_without_mutation() {
        let mut h = HostState::default();
        let err = h.apply(&b(1, Week::Train, 6, &[1, 2, 3]), &cfg()).unwrap_err();
        assert_eq!(
            err,
            ApplyError::WindowOutOfRange { end: 9, n_windows: 8 }
        );
        assert_eq!(h, HostState::default());
    }

    #[test]
    fn poison_panics_before_any_mutation() {
        let mut h = HostState::default();
        h.apply(&b(1, Week::Train, 0, &[5]), &cfg()).unwrap();
        let before = h.clone();
        let poison = WindowBatch {
            poison: true,
            ..b(2, Week::Test, 0, &[9])
        };
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = h.apply(&poison, &cfg());
        }));
        assert!(r.is_err());
        assert_eq!(h, before, "poison trip must leave state untouched");
        // A duplicate-seq poison batch never trips: dedupe runs first.
        let stale_poison = WindowBatch {
            poison: true,
            ..b(1, Week::Train, 0, &[9])
        };
        assert_eq!(
            h.apply(&stale_poison, &cfg()).unwrap(),
            ApplyOutcome::Duplicate
        );
    }

    #[test]
    fn promoted_override_activates_at_its_boundary() {
        let mut h = HostState::default();
        h.apply(&b(1, Week::Train, 0, &[1; 8]), &cfg()).unwrap();
        h.apply(&b(2, Week::Test, 0, &[100, 100]), &cfg()).unwrap();
        assert_eq!(h.live_alarms, 2, "incumbent alarms before promotion");
        h.promoted = Some((4, 1000.0));
        // Windows 2,3 are before the activation boundary: incumbent rules.
        h.apply(&b(3, Week::Test, 2, &[100, 100]), &cfg()).unwrap();
        assert_eq!(h.live_alarms, 4);
        // Windows 4,5 are at/after the boundary: promoted threshold rules.
        h.apply(&b(4, Week::Test, 4, &[100, 100]), &cfg()).unwrap();
        assert_eq!(h.live_alarms, 4, "promoted threshold silences these");
        assert_eq!(h.effective_threshold(3), h.threshold);
        assert_eq!(h.effective_threshold(4), Some(1000.0));
    }

    #[test]
    fn shadow_counts_only_fresh_soak_windows() {
        let mut h = HostState::default();
        h.apply(&b(1, Week::Train, 0, &[1; 8]), &cfg()).unwrap();
        let mut stats = GateStats::default();
        let mut ctx = ShadowCtx {
            soak_start: 2,
            soak_end: 6,
            candidate: 1000.0,
            stats: &mut stats,
        };
        h.apply_shadowed(&b(2, Week::Test, 0, &[100; 6]), &cfg(), Some(&mut ctx))
            .unwrap();
        // Windows 0..6 applied; soak spans 2..6 → 4 shadow windows, all
        // incumbent alarms, none under the high candidate.
        assert_eq!(
            stats,
            GateStats {
                windows: 4,
                incumbent_alarms: 4,
                candidate_alarms: 0,
                sheds: 0,
            }
        );
        assert_eq!(h.live_alarms, 6, "shadow never changes live alarms");
        // Overlapping re-send: no fresh windows, shadow untouched.
        let mut ctx = ShadowCtx {
            soak_start: 2,
            soak_end: 6,
            candidate: 1000.0,
            stats: &mut stats,
        };
        h.apply_shadowed(&b(3, Week::Test, 0, &[100; 6]), &cfg(), Some(&mut ctx))
            .unwrap();
        assert_eq!(stats.windows, 4);
    }

    #[test]
    fn sketch_mode_matches_exact_threshold_and_alarms_when_uncompacted() {
        // At eps = 0.001 the sketch buffers hold far more than 8 samples,
        // so no compaction occurs and the fitted threshold must be
        // bit-identical to the exact path's.
        let mut exact = HostState::default();
        let mut sk = HostState::default();
        let train: Vec<u64> = vec![0, 1, 2, 3, 4, 5, 6, 100];
        exact.apply(&b(1, Week::Train, 0, &train), &cfg()).unwrap();
        sk.apply(&b(1, Week::Train, 0, &train), &sketch_cfg())
            .unwrap();
        exact.apply(&b(2, Week::Test, 0, &[50, 200]), &cfg()).unwrap();
        sk.apply(&b(2, Week::Test, 0, &[50, 200]), &sketch_cfg())
            .unwrap();
        let te = exact.threshold.expect("exact threshold");
        let ts = sk.threshold.expect("sketch threshold");
        assert_eq!(te.to_bits(), ts.to_bits());
        assert_eq!(exact.live_alarms, sk.live_alarms);
        // Exact accumulators stay untouched in sketch mode: that is the
        // bounded-memory claim.
        assert!(sk.train.is_empty() && sk.test.is_empty());
        assert!(sk.sketch_state_bytes() > 0);
        assert_eq!(exact.sketch_state_bytes(), 0);
    }

    #[test]
    fn sketch_mode_alarms_only_count_fresh_windows() {
        let mut h = HostState::default();
        h.apply(&b(1, Week::Train, 0, &[1; 8]), &sketch_cfg()).unwrap();
        h.apply(&b(2, Week::Test, 0, &[100, 100]), &sketch_cfg())
            .unwrap();
        assert_eq!(h.live_alarms, 2);
        // Overlapping re-send under a new seq: the sketch accumulator's
        // bitmap suppresses both the alarms and the duplicate samples.
        h.apply(&b(3, Week::Test, 0, &[100, 100]), &sketch_cfg())
            .unwrap();
        assert_eq!(h.live_alarms, 2);
        assert_eq!(h.test_sketch.as_ref().unwrap().len(), 2);
    }

    #[test]
    fn shard_routes_by_host_and_creates_on_first_contact() {
        let mut s = ShardState::default();
        let mut batch = b(1, Week::Train, 0, &[1]);
        batch.host = 42;
        s.apply(&batch, &cfg()).unwrap();
        assert_eq!(s.hosts.len(), 1);
        assert_eq!(s.hosts[&42].last_seq, 1);
    }
}
