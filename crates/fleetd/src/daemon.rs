//! The daemon proper: a deterministic event loop over sharded host state.
//!
//! `fleetd` is a virtual-clock state machine, not a thread pool: the
//! harness drives it by [`offer`](Daemon::offer)ing batches and calling
//! [`tick`](Daemon::tick), and every decision — shard scheduling, shed
//! deadlines, backoff expiry, snapshot cadence — is a pure function of
//! the offer/tick sequence. That is what makes the headline crash
//! property testable at all: two runs with the same input schedule are
//! bit-identical, so a run killed at an arbitrary WAL byte and restarted
//! must reconverge to the uninterrupted run's exact outputs.
//!
//! The per-batch pipeline and its crash windows:
//!
//! ```text
//! pop → stale? → apply (catch_unwind) → WAL append → completion
//!                │                      │             │
//!                │ panic: strike or     │ crash here: │ crash here: batch
//!                │ quarantine; never    │ batch lost  │ durable but unacked
//!                │ reaches the WAL      │ from memory │ → redelivered →
//!                │                      │ & WAL →     │ seq-deduped as
//!                │                      │ redelivered │ Duplicate
//! ```
//!
//! Every window is covered by at-least-once redelivery plus idempotent
//! apply, which is the whole recovery argument in one line.
//!
//! Every mutation is one [`WalRecord`]: a batch, a rollout transition or
//! an operator command. Each reaches the log through one append,
//! [`WalWriter::append`], which also runs the kill switch, and each is
//! applied by one step, `Daemon::apply`, whether it was just appended or
//! is being replayed by [`Daemon::open`] — Raft's log-then-apply
//! discipline, so replay converges to live state by construction. A batch
//! applies before its append (a poison batch never reaches the log);
//! rollout transitions and commands are appended first (write-ahead).

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use hids_metrics::{EventRing, Registry};

use crate::codec::{Week, WindowBatch};
use crate::control::{check_config, ControlCommand, ControlStats};
use crate::epoch::{
    CandidateState, EpochOutcome, EpochRecord, EpochState, GateStats, Phase, RollbackReason,
    RolloutConfig, RolloutEvent,
};
use crate::queue::{Admit, Popped, QueueConfig, ShardQueue};
use crate::snapshot::{self, SnapshotView};
use crate::state::{ApplyConfig, ApplyError, ApplyOutcome, HostState, ShadowCtx};
use crate::supervisor::{SupervisorConfig, Worker, WorkerStatus};
use crate::wal::{KillSwitch, WalRecord, WalWriter};

/// Full daemon configuration.
#[derive(Debug, Clone, Copy)]
pub struct DaemonConfig {
    /// Number of shard workers; hosts are routed by `host % n_shards`.
    pub n_shards: usize,
    /// Windows per week.
    pub n_windows: u32,
    /// Quantile for per-host live thresholds.
    pub threshold_q: f64,
    /// Floor on snapshot cadence: a tick takes an image only after at
    /// least this many applied batches, and only once the WAL is at least
    /// as long as the last installed image (see [`Daemon::tick`]).
    pub snapshot_every: u64,
    /// Per-shard queue sizing and shedding.
    pub queue: QueueConfig,
    /// Supervision tunables.
    pub supervisor: SupervisorConfig,
    /// Canary cohort sizing and promotion health gates.
    pub rollout: RolloutConfig,
    /// Bounded-memory per-host accumulation: `Some(eps)` stores each
    /// host's weeks as rank sketches with that error budget instead of
    /// exact window maps (see [`ApplyConfig::sketch_eps`]). `None` is the
    /// exact default.
    pub sketch_eps: Option<f64>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            n_shards: 4,
            n_windows: 672,
            threshold_q: 0.99,
            snapshot_every: 64,
            queue: QueueConfig::default(),
            supervisor: SupervisorConfig::default(),
            rollout: RolloutConfig::default(),
            sketch_eps: None,
        }
    }
}

/// Daemon failure modes.
#[derive(Debug)]
pub enum DaemonError {
    /// Filesystem error on the WAL or a snapshot.
    Io(std::io::Error),
    /// The [`KillSwitch`] fired: the simulated process is dead. The
    /// daemon instance must be dropped and recovered via [`Daemon::open`].
    Killed,
    /// Invalid configuration.
    Config(&'static str),
}

impl From<std::io::Error> for DaemonError {
    fn from(e: std::io::Error) -> Self {
        DaemonError::Io(e)
    }
}

impl core::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DaemonError::Io(e) => write!(f, "daemon i/o error: {e}"),
            DaemonError::Killed => write!(f, "kill switch fired"),
            DaemonError::Config(msg) => write!(f, "bad daemon config: {msg}"),
        }
    }
}

impl std::error::Error for DaemonError {}

/// How one offered batch ultimately resolved. Exactly one completion is
/// emitted per admitted batch (unless a crash intervenes, in which case
/// redelivery produces one on a later attempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Host the batch belonged to.
    pub host: u32,
    /// The batch's sequence number.
    pub seq: u64,
    /// How it resolved.
    pub disposition: Disposition,
}

/// Terminal classification of an admitted batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Applied and durable in the WAL.
    Applied,
    /// Sequence number already applied (redelivery after a lost ack).
    Duplicate,
    /// Panicked the worker `quarantine_strikes` times; parked.
    Quarantined,
    /// Shed: sat queued past the freshness deadline.
    ShedOverload,
    /// Shed: its shard's circuit breaker had tripped.
    ShedDark,
    /// Structurally invalid (e.g. windows out of range).
    Rejected,
}

/// Monotone counters over one daemon lifetime.
///
/// These are operational telemetry, not part of the determinism
/// contract — a killed-and-recovered scenario reports different counter
/// totals than an uninterrupted one (redeliveries become duplicates); it
/// is the per-host *outputs* that must match. The counters obey the
/// conservation law checked by [`DaemonStats::conservation_holds`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DaemonStats {
    /// Batches accepted into a queue (or shed on arrival at a dark
    /// shard). Excludes overflow rejections.
    pub admitted: u64,
    /// Batches refused outright at the hard capacity backstop.
    pub overflow: u64,
    /// Batches applied and made durable.
    pub applied: u64,
    /// Batches deduplicated by sequence number.
    pub duplicates: u64,
    /// Batches quarantined after repeated panics.
    pub quarantined: u64,
    /// Batches shed for staleness under overload.
    pub shed_overload: u64,
    /// Batches shed because their shard was dark.
    pub shed_dark: u64,
    /// Batches rejected as structurally invalid.
    pub rejected: u64,
    /// Circuit-breaker trips (shards lost this lifetime).
    pub breaker_trips: u64,
    /// Snapshots successfully installed.
    pub snapshots_written: u64,
    /// Bytes of the snapshot images installed (a pure function of the
    /// state each image holds).
    pub snapshot_bytes: u64,
    /// Test batches refused at the canary barrier because their windows
    /// extend past the in-flight candidate's soak end; the source retries
    /// them after the promote/rollback decision.
    pub barrier_deferred: u64,
    /// Batches refused at admission because their shard was drained by
    /// the control plane; the source retries after the undrain.
    pub drain_deferred: u64,
}

impl DaemonStats {
    /// Batches that have reached a terminal disposition.
    pub fn accounted(&self) -> u64 {
        self.applied
            + self.duplicates
            + self.quarantined
            + self.shed_overload
            + self.shed_dark
            + self.rejected
    }

    /// The conservation law: every admitted batch is either terminally
    /// accounted or still sitting in a queue. (Checked at quiescent
    /// points; a batch popped and mid-pipeline would be in neither side.)
    pub fn conservation_holds(&self, in_queues: u64) -> bool {
        self.admitted == self.accounted() + in_queues
    }
}

/// What [`Daemon::open`] reconstructed from disk.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Sequence of the snapshot loaded, if any.
    pub snapshot_seq: Option<u64>,
    /// Newer-but-damaged snapshots skipped over.
    pub snapshots_discarded: u32,
    /// Valid frames found in the WAL.
    pub wal_batches: u64,
    /// Frames that advanced state on replay.
    pub wal_replayed: u64,
    /// Frames already covered by the snapshot (seq-deduped).
    pub wal_duplicates: u64,
    /// Frames rejected as structurally invalid on replay.
    pub wal_rejected: u64,
    /// Frames that panicked replay and were skipped (defensive; the
    /// apply-before-append ordering should make this impossible).
    pub wal_quarantined: u64,
    /// Torn/corrupt tail bytes truncated from the WAL.
    pub wal_torn_bytes: u64,
    /// Rollout transition records replayed from the WAL.
    pub wal_rollout_events: u64,
    /// Operator-command records replayed from the WAL.
    pub wal_commands: u64,
}

struct Shard {
    queue: ShardQueue,
    worker: Worker,
    /// Hosts routed here (`host % n_shards`), ordered for deterministic
    /// iteration.
    hosts: BTreeMap<u32, HostState>,
    /// Panic strikes per (host, seq) batch identity.
    strikes: BTreeMap<(u32, u64), u32>,
}

/// What applying one batch did: its outcome, or the caught panic of a
/// poison batch.
type BatchOutcome = std::thread::Result<Result<ApplyOutcome, ApplyError>>;

/// The crash-safe streaming evaluation daemon.
pub struct Daemon {
    cfg: DaemonConfig,
    dir: PathBuf,
    wal: WalWriter,
    shards: Vec<Shard>,
    tick: u64,
    next_snapshot_seq: u64,
    applied_since_snapshot: u64,
    /// Byte length of the last installed image (0 before the first): a
    /// tick snapshots only once the WAL has grown at least this long.
    last_image_bytes: u64,
    stats: DaemonStats,
    completions: Vec<Completion>,
    epoch: EpochState,
    /// Shards the control plane has drained: admission refused, queued
    /// work still processed. Journaled (commands) and snapshot-durable.
    drained: BTreeSet<u32>,
    /// Live config generation: starts at 1 each process start and bumps
    /// on every accepted hot reload. Not journaled — the config file is
    /// the durable source of configuration, not the WAL.
    config_generation: u64,
    /// Control-plane counters (reloads, commands) this lifetime.
    control_stats: ControlStats,
    /// Structured transition log: recoveries, breaker trips, quarantines,
    /// snapshot rotations, epoch decisions. The daemon is a deterministic
    /// state machine, so the event sequence is a pure function of the
    /// offer/tick schedule — safe to include in the deterministic
    /// snapshot.
    events: EventRing,
}

/// Shards `0..canary` form the canary cohort: a pure function of the
/// configuration, so every run (and every recovery) canaries the same
/// hosts.
fn effective_canary(cfg: &DaemonConfig) -> usize {
    cfg.rollout.canary_shards.min(cfg.n_shards)
}

/// Soak windows the gate will wait for: candidate hosts routed to canary
/// shards × soak span. Pure function of `(thresholds, config)` so replay
/// recomputes the identical target.
fn expected_soak_windows(
    thresholds: &BTreeMap<u32, f64>,
    n_shards: usize,
    canary: usize,
    span: u64,
) -> u64 {
    let canary_hosts = thresholds
        .keys()
        .filter(|&&h| (h as usize % n_shards) < canary)
        .count() as u64;
    canary_hosts * span
}

/// Count soak-span test windows of a batch lost to shedding or
/// quarantine on a canary shard, toward the candidate's loss meter.
fn note_soak_loss(epoch: &mut EpochState, canary: usize, shard_idx: usize, batch: &WindowBatch) {
    let Some(c) = epoch.candidate.as_mut() else {
        return;
    };
    if shard_idx >= canary || batch.week != Week::Test || !c.thresholds.contains_key(&batch.host) {
        return;
    }
    let start = u64::from(batch.start.max(c.soak_start));
    let end = (u64::from(batch.start) + batch.counts.len() as u64).min(u64::from(c.soak_end));
    if end > start {
        c.stats.sheds += end - start;
    }
}

impl Daemon {
    /// Open (or recover) a daemon rooted at `dir`: load the newest valid
    /// snapshot, replay and truncate the WAL, and report what was found.
    pub fn open(dir: &Path, cfg: DaemonConfig) -> Result<(Self, RecoveryReport), DaemonError> {
        validate(&cfg)?;
        std::fs::create_dir_all(dir)?;

        let mut report = RecoveryReport::default();
        let (snap, discarded) = snapshot::load_newest::<snapshot::Snapshot>(dir)?;
        report.snapshots_discarded = discarded;
        if snap
            .as_ref()
            .is_some_and(|(img, _)| img.n_windows != cfg.n_windows)
        {
            return Err(DaemonError::Config(
                "snapshot was written with a different n_windows",
            ));
        }

        let (wal, replay) = WalWriter::open(&dir.join("wal.bin"), WalRecord::decode)?;
        report.wal_torn_bytes = replay.torn_bytes;
        let mut daemon = Self {
            dir: dir.to_path_buf(),
            wal,
            shards: (0..cfg.n_shards)
                .map(|_| Shard {
                    queue: ShardQueue::new(cfg.queue),
                    worker: Worker::new(),
                    hosts: BTreeMap::new(),
                    strikes: BTreeMap::new(),
                })
                .collect(),
            tick: 0,
            next_snapshot_seq: 1,
            applied_since_snapshot: 0,
            last_image_bytes: 0,
            stats: DaemonStats::default(),
            completions: Vec::new(),
            epoch: EpochState::default(),
            drained: BTreeSet::new(),
            config_generation: 1,
            control_stats: ControlStats::default(),
            cfg,
            events: EventRing::default(),
        };
        if let Some((snap, image_bytes)) = snap {
            report.snapshot_seq = Some(snap.seq);
            daemon.next_snapshot_seq = snap.seq + 1;
            daemon.last_image_bytes = image_bytes;
            daemon.epoch = snap.epoch;
            daemon.drained = snap.drained.into_iter().collect();
            for (host, st) in snap.hosts {
                daemon.shards[host as usize % cfg.n_shards]
                    .hosts
                    .insert(host, st);
            }
        }

        // Replay through the same apply step the live path uses.
        for record in &replay.records {
            match record {
                WalRecord::Batch(_) => report.wal_batches += 1,
                WalRecord::Rollout(_) => report.wal_rollout_events += 1,
                WalRecord::Command(_) => report.wal_commands += 1,
            }
            match daemon.apply(record) {
                None => {}
                Some(Ok(Ok(ApplyOutcome::Applied))) => report.wal_replayed += 1,
                Some(Ok(Ok(ApplyOutcome::Duplicate))) => report.wal_duplicates += 1,
                Some(Ok(Err(_))) => report.wal_rejected += 1,
                Some(Err(_)) => report.wal_quarantined += 1,
            }
        }
        // Count the replayed backlog toward the next snapshot, and keep
        // the replayed log and the loaded image's length, so the cadence
        // rule reads the same state it would have read had the process not
        // restarted: a crash loop cannot grow the WAL without bound.
        daemon.applied_since_snapshot = report.wal_replayed;

        let events = &mut daemon.events;
        if report.wal_torn_bytes > 0 {
            events.push(
                "fleetd.wal",
                "torn_tail_truncated",
                &[("bytes", &report.wal_torn_bytes.to_string())],
            );
        }
        if report.snapshots_discarded > 0 {
            events.push(
                "fleetd.snapshot",
                "damaged_discarded",
                &[("count", &report.snapshots_discarded.to_string())],
            );
        }
        if report.snapshot_seq.is_some() || report.wal_batches > 0 {
            events.push(
                "fleetd.recovery",
                "recovered",
                &[
                    (
                        "snapshot_seq",
                        &report
                            .snapshot_seq
                            .map(|s| s.to_string())
                            .unwrap_or_else(|| "none".to_string()),
                    ),
                    ("wal_replayed", &report.wal_replayed.to_string()),
                    ("wal_duplicates", &report.wal_duplicates.to_string()),
                ],
            );
        }

        Ok((daemon, report))
    }

    /// Offer one batch for processing. `Overflow` means it was NOT
    /// admitted and the source must retry later; anything else means the
    /// daemon now owns it and will emit exactly one completion for it
    /// (barring a crash, which redelivery covers).
    pub fn offer(&mut self, batch: WindowBatch) -> Admit {
        // Canary barrier: while a candidate is soaking, no test window at
        // or past the soak end may be applied on ANY shard — the
        // promote/rollback decision must land first, so that which
        // threshold governs those windows is a pure function of the
        // decision, not of delivery interleaving. Refused like overflow:
        // the source retries after the decision.
        if let Some(c) = &self.epoch.candidate {
            if batch.week == Week::Test
                && u64::from(batch.start) + batch.counts.len() as u64 > u64::from(c.soak_end)
            {
                self.stats.barrier_deferred += 1;
                return Admit::Overflow;
            }
        }
        let idx = batch.host as usize % self.cfg.n_shards;
        // A drained shard refuses admission outright (the source retries
        // after the undrain) while its already-queued work keeps
        // processing — drain bounds *new* work without losing owned work.
        if self.drained.contains(&(idx as u32)) {
            self.stats.drain_deferred += 1;
            return Admit::Overflow;
        }
        let canary = effective_canary(&self.cfg);
        let shard = &mut self.shards[idx];
        if shard.worker.is_dark() {
            // A dark shard sheds on arrival; admission still succeeds so
            // the source does not spin on redelivery.
            self.stats.admitted += 1;
            self.stats.shed_dark += 1;
            note_soak_loss(&mut self.epoch, canary, idx, &batch);
            self.completions.push(Completion {
                host: batch.host,
                seq: batch.seq,
                disposition: Disposition::ShedDark,
            });
            return Admit::Queued;
        }
        match shard.queue.offer(self.tick, batch) {
            Admit::Overflow => {
                self.stats.overflow += 1;
                Admit::Overflow
            }
            verdict => {
                self.stats.admitted += 1;
                verdict
            }
        }
    }

    /// Advance the virtual clock one tick: each running shard worker
    /// processes up to its quantum of batches.
    ///
    /// A tick that applied a batch ends with a snapshot when at least
    /// [`DaemonConfig::snapshot_every`] batches were applied since the
    /// last image *and* the WAL is at least as long as that image — Raft's
    /// log-compaction rule (Ongaro & Ousterhout, USENIX ATC 2014, §7).
    /// Each image byte is then paid for by at least one WAL byte, so
    /// checkpoint work stays linear in applied work, and a recovery
    /// replays at most the larger of one image and `snapshot_every`
    /// batches, plus one tick's batches, of log. Returns
    /// [`DaemonError::Killed`] when the kill switch fires — the caller
    /// must then drop this instance and recover via [`Daemon::open`].
    pub fn tick(&mut self, kill: &mut KillSwitch) -> Result<(), DaemonError> {
        self.tick += 1;
        let tick = self.tick;
        let quantum = self.cfg.queue.quantum;
        let sup = self.cfg.supervisor;
        let canary = effective_canary(&self.cfg);
        let mut applied_this_tick = false;

        // A soak that completed during replay (the deciding record was
        // lost to a torn write, or the daemon died right before deciding)
        // is resolved before any new work, exactly where the uninterrupted
        // run would have resolved it relative to the batch stream.
        if self.soak_ready() {
            self.decide_rollout(kill)?;
        }

        'shards: for idx in 0..self.shards.len() {
            if !self.shards[idx].worker.poll_running(tick) {
                continue;
            }
            for _ in 0..quantum {
                let (enq, batch) = match self.shards[idx].queue.pop(tick) {
                    None => break,
                    Some(Popped::Stale(b)) => {
                        self.stats.shed_overload += 1;
                        note_soak_loss(&mut self.epoch, canary, idx, &b);
                        self.completions.push(Completion {
                            host: b.host,
                            seq: b.seq,
                            disposition: Disposition::ShedOverload,
                        });
                        if self.soak_ready() {
                            break 'shards;
                        }
                        continue;
                    }
                    Some(Popped::Fresh(enq, b)) => (enq, b),
                };
                let outcome = self.apply_batch(&batch);
                let shard = &mut self.shards[idx];
                let completion = |disposition| Completion {
                    host: batch.host,
                    seq: batch.seq,
                    disposition,
                };
                match outcome {
                    Ok(Ok(ApplyOutcome::Applied)) => {
                        let done = completion(Disposition::Applied);
                        // A kill on the append suppresses the ack: the
                        // batch may be durable, but the source never
                        // hears so and must rediscover that via
                        // redelivery.
                        self.wal.append(&WalRecord::Batch(batch), kill)?;
                        shard.worker.note_success();
                        self.stats.applied += 1;
                        self.applied_since_snapshot += 1;
                        applied_this_tick = true;
                        self.completions.push(done);
                        // Decide the instant the last expected soak
                        // window is in: remaining shards wait a tick so
                        // the gate sees the same stats in every timeline.
                        if self.soak_ready() {
                            break 'shards;
                        }
                    }
                    Ok(Ok(ApplyOutcome::Duplicate)) => {
                        shard.worker.note_success();
                        self.stats.duplicates += 1;
                        self.completions.push(completion(Disposition::Duplicate));
                    }
                    Ok(Err(_)) => {
                        shard.worker.note_success();
                        self.stats.rejected += 1;
                        self.completions.push(completion(Disposition::Rejected));
                    }
                    Err(_) => {
                        let key = (batch.host, batch.seq);
                        let strikes = shard.strikes.entry(key).or_insert(0);
                        *strikes += 1;
                        if *strikes >= sup.quarantine_strikes {
                            shard.strikes.remove(&key);
                            self.stats.quarantined += 1;
                            self.events.push(
                                "fleetd.shard",
                                "quarantined",
                                &[
                                    ("shard", &idx.to_string()),
                                    ("host", &batch.host.to_string()),
                                    ("seq", &batch.seq.to_string()),
                                ],
                            );
                            note_soak_loss(&mut self.epoch, canary, idx, &batch);
                            self.completions.push(completion(Disposition::Quarantined));
                        } else {
                            shard.queue.push_front(enq, batch);
                        }
                        if shard.worker.note_panic(tick, &sup) {
                            self.stats.breaker_trips += 1;
                            let mut drained = 0u64;
                            for b in shard.queue.drain_all() {
                                self.stats.shed_dark += 1;
                                drained += 1;
                                note_soak_loss(&mut self.epoch, canary, idx, &b);
                                self.completions.push(Completion {
                                    host: b.host,
                                    seq: b.seq,
                                    disposition: Disposition::ShedDark,
                                });
                            }
                            self.events.push(
                                "fleetd.shard",
                                "breaker_tripped",
                                &[
                                    ("shard", &idx.to_string()),
                                    ("drained", &drained.to_string()),
                                ],
                            );
                        }
                        // The worker is restarting (or dark); its quantum
                        // is over either way.
                        break;
                    }
                }
            }
        }

        if self.soak_ready() {
            self.decide_rollout(kill)?;
        }
        if applied_this_tick
            && self.applied_since_snapshot >= self.cfg.snapshot_every
            && self.wal.len() >= self.last_image_bytes
        {
            self.write_snapshot()?;
        }
        Ok(())
    }

    /// Whether an in-flight candidate has accounted for every expected
    /// soak window and awaits its promote/rollback decision.
    fn soak_ready(&self) -> bool {
        self.epoch.candidate.as_ref().is_some_and(|c| c.soak_complete())
    }

    /// Journal and apply the promote/rollback decision for a completed
    /// soak. The WAL record goes first: a crash after the append replays
    /// the decision; a crash during it (torn record) leaves the completed
    /// soak in place and the next tick re-derives the identical verdict
    /// from the identical gate inputs.
    fn decide_rollout(&mut self, kill: &mut KillSwitch) -> Result<(), DaemonError> {
        let Some(c) = self.epoch.candidate.as_ref() else {
            return Ok(());
        };
        let epoch = c.epoch;
        let verdict = self.cfg.rollout.gate.decide(&c.stats, c.expected_windows);
        let ev = match verdict {
            Ok(()) => RolloutEvent::Promote { epoch },
            Err(reason) => RolloutEvent::Rollback { epoch, reason },
        };
        self.journal(&WalRecord::Rollout(ev), kill)?;
        match verdict {
            Ok(()) => self.events.push(
                "fleetd.rollout",
                "promoted",
                &[("epoch", &epoch.to_string())],
            ),
            Err(reason) => self.events.push(
                "fleetd.rollout",
                "rolled_back",
                &[
                    ("epoch", &epoch.to_string()),
                    ("reason", &reason.to_string()),
                ],
            ),
        }
        Ok(())
    }

    /// Begin a canary rollout of `thresholds` soaking over the test
    /// windows `[soak_start, soak_end)`. Returns the new epoch number.
    /// The Begin record is journaled before any in-memory effect, so a
    /// crash at any point either loses the rollout entirely (the
    /// orchestrator resubmits) or recovers it exactly.
    pub fn begin_rollout(
        &mut self,
        soak_start: u32,
        soak_end: u32,
        thresholds: BTreeMap<u32, f64>,
        kill: &mut KillSwitch,
    ) -> Result<u32, DaemonError> {
        if self.epoch.candidate.is_some() {
            return Err(DaemonError::Config("a rollout is already in progress"));
        }
        if thresholds.is_empty() {
            return Err(DaemonError::Config("candidate threshold set is empty"));
        }
        if soak_start >= soak_end || soak_end > self.cfg.n_windows {
            return Err(DaemonError::Config(
                "soak span must be nonempty and inside the week",
            ));
        }
        let canary = effective_canary(&self.cfg);
        let span = u64::from(soak_end) - u64::from(soak_start);
        if expected_soak_windows(&thresholds, self.cfg.n_shards, canary, span) == 0 {
            return Err(DaemonError::Config(
                "candidate has no hosts on canary shards",
            ));
        }
        let epoch_num = self.epoch.last_epoch + 1;
        let ev = RolloutEvent::Begin {
            epoch: epoch_num,
            soak_start,
            soak_end,
            thresholds,
        };
        self.journal(&WalRecord::Rollout(ev), kill)?;
        self.events.push(
            "fleetd.rollout",
            "begun",
            &[
                ("epoch", &epoch_num.to_string()),
                ("soak_start", &soak_start.to_string()),
                ("soak_end", &soak_end.to_string()),
            ],
        );
        Ok(epoch_num)
    }

    /// Journal and apply one operator command. The WAL record goes first
    /// (write-ahead: a crash after the append replays the command; a
    /// crash during it — a torn command record — loses it entirely and
    /// the operator re-issues), then the in-memory apply, then the
    /// `after-command` kill window that models dying before the operator
    /// hears the acknowledgement. Validation happens *before* the
    /// journal append so an invalid command is never made durable.
    pub fn command(
        &mut self,
        cmd: ControlCommand,
        kill: &mut KillSwitch,
    ) -> Result<(), DaemonError> {
        match cmd {
            ControlCommand::ForceRollback => {
                if self.epoch.candidate.is_none() {
                    return Err(DaemonError::Config("no rollout in progress to roll back"));
                }
            }
            ControlCommand::PinThreshold { t, .. } => {
                if !t.is_finite() {
                    return Err(DaemonError::Config("pinned threshold must be finite"));
                }
            }
            ControlCommand::DrainShard { shard } | ControlCommand::UndrainShard { shard } => {
                if shard as usize >= self.cfg.n_shards {
                    return Err(DaemonError::Config("shard id out of range"));
                }
            }
        }
        self.journal(&WalRecord::Command(cmd), kill)?;
        match cmd {
            ControlCommand::ForceRollback => self.control_stats.force_rollbacks += 1,
            ControlCommand::PinThreshold { .. } => self.control_stats.pins += 1,
            ControlCommand::DrainShard { .. } => self.control_stats.drains += 1,
            ControlCommand::UndrainShard { .. } => self.control_stats.undrains += 1,
        }
        self.events.push(
            "fleetd.control",
            "command_applied",
            &[("command", cmd.name())],
        );
        Ok(())
    }

    /// Journal `record`, then apply it: the write-ahead step of rollout
    /// transitions and operator commands. A kill inside the append (torn
    /// record, or right after it is durable) returns before any in-memory
    /// effect; recovery replays a durable record through the same
    /// [`apply`](Self::apply).
    fn journal(&mut self, record: &WalRecord, kill: &mut KillSwitch) -> Result<(), DaemonError> {
        self.wal.append(record, kill)?;
        self.apply(record);
        Ok(())
    }

    /// Apply one record to in-memory state: the one mutation step of both
    /// WAL replay and the live path, so the two converge by construction.
    /// Returns the batch outcome for a batch record. Total over any
    /// decodable record: out-of-range shard ids (possible only via
    /// deliberate log corruption, since the live path validates before
    /// journaling) are ignored rather than panicking.
    fn apply(&mut self, record: &WalRecord) -> Option<BatchOutcome> {
        let n_shards = self.cfg.n_shards;
        match record {
            WalRecord::Batch(batch) => return Some(self.apply_batch(batch)),
            WalRecord::Rollout(RolloutEvent::Begin {
                epoch,
                soak_start,
                soak_end,
                thresholds,
            }) => {
                let span = u64::from(*soak_end) - u64::from(*soak_start);
                let canary = effective_canary(&self.cfg);
                self.epoch.last_epoch = self.epoch.last_epoch.max(*epoch);
                self.epoch.candidate = Some(CandidateState {
                    epoch: *epoch,
                    soak_start: *soak_start,
                    soak_end: *soak_end,
                    expected_windows: expected_soak_windows(thresholds, n_shards, canary, span),
                    thresholds: thresholds.clone(),
                    stats: GateStats::default(),
                });
            }
            WalRecord::Rollout(ev) => {
                // Promote or rollback. The incumbent thresholds were never
                // touched during the canary, so discarding the candidate
                // IS the rollback.
                let c = self.epoch.candidate.take()?;
                let outcome = match ev {
                    RolloutEvent::Rollback { reason, .. } => EpochOutcome::RolledBack(*reason),
                    _ => {
                        for shard in &mut self.shards {
                            for (h, st) in &mut shard.hosts {
                                if let Some(&t) = c.thresholds.get(h) {
                                    st.promoted = Some((c.soak_end, t));
                                }
                            }
                        }
                        EpochOutcome::Promoted
                    }
                };
                self.epoch.history.push(EpochRecord {
                    epoch: c.epoch,
                    outcome,
                    stats: c.stats,
                    expected_windows: c.expected_windows,
                });
            }
            WalRecord::Command(ControlCommand::ForceRollback) => {
                let epoch = self.epoch.candidate.as_ref()?.epoch;
                let reason = RollbackReason::Operator;
                self.apply(&WalRecord::Rollout(RolloutEvent::Rollback {
                    epoch,
                    reason,
                }));
            }
            WalRecord::Command(ControlCommand::PinThreshold { host, t }) => {
                let shard = &mut self.shards[*host as usize % n_shards];
                shard.hosts.entry(*host).or_default().pinned = Some(*t);
            }
            WalRecord::Command(ControlCommand::DrainShard { shard }) => {
                if (*shard as usize) < n_shards {
                    self.drained.insert(*shard);
                }
            }
            WalRecord::Command(ControlCommand::UndrainShard { shard }) => {
                self.drained.remove(shard);
            }
        }
        None
    }

    /// Apply one batch to its host, shadow-evaluating the in-flight
    /// candidate on canary shards and catching a poison batch's panic:
    /// the one batch-apply step of replay and [`tick`](Self::tick).
    fn apply_batch(&mut self, batch: &WindowBatch) -> BatchOutcome {
        let idx = batch.host as usize % self.cfg.n_shards;
        let cfg = ApplyConfig {
            n_windows: self.cfg.n_windows,
            threshold_q: self.cfg.threshold_q,
            sketch_eps: self.cfg.sketch_eps,
        };
        let mut shadow = match self.epoch.candidate.as_mut() {
            Some(c) if idx < effective_canary(&self.cfg) => {
                c.thresholds.get(&batch.host).copied().map(|t| ShadowCtx {
                    soak_start: c.soak_start,
                    soak_end: c.soak_end,
                    candidate: t,
                    stats: &mut c.stats,
                })
            }
            _ => None,
        };
        // A host joins the table with its first applied batch, which is
        // the first batch replay sees: a rejected, duplicate or poison
        // first contact leaves no blank entry behind.
        let hosts = &mut self.shards[idx].hosts;
        let mut fresh = HostState::default();
        let known = hosts.get_mut(&batch.host);
        let is_new = known.is_none();
        let host = known.unwrap_or(&mut fresh);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            host.apply_shadowed(batch, &cfg, shadow.as_mut())
        }));
        if is_new && matches!(outcome, Ok(Ok(ApplyOutcome::Applied))) {
            hosts.insert(batch.host, fresh);
        }
        outcome
    }

    /// Why `new` cannot be hot-applied over the current config, if it
    /// cannot. Structural fields — anything baked into shard routing,
    /// the snapshot format, queue memory, threshold fitting, or the
    /// canary cohort — require a restart; the WAL replays through the
    /// *current* config, so changing them live would break the
    /// recovery-convergence contract.
    fn reload_reject_reason(&self, new: &DaemonConfig) -> Option<&'static str> {
        if let Err(reason) = check_config(new) {
            return Some(reason);
        }
        let cur = &self.cfg;
        if new.n_shards != cur.n_shards {
            return Some("n_shards cannot change without restart");
        }
        if new.n_windows != cur.n_windows {
            return Some("n_windows cannot change without restart");
        }
        if new.threshold_q.to_bits() != cur.threshold_q.to_bits() {
            return Some("threshold_q cannot change without restart");
        }
        let eps_same = match (new.sketch_eps, cur.sketch_eps) {
            (None, None) => true,
            (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        };
        if !eps_same {
            return Some("sketch_eps cannot change without restart");
        }
        if new.queue.capacity != cur.queue.capacity
            || new.queue.high != cur.queue.high
            || new.queue.low != cur.queue.low
            || new.queue.shed_after != cur.queue.shed_after
            || new.queue.quantum != cur.queue.quantum
        {
            return Some("queue sizing cannot change without restart");
        }
        if new.rollout.canary_shards != cur.rollout.canary_shards {
            return Some("rollout.canary_shards cannot change without restart");
        }
        None
    }

    /// Hot-reload the live-appliable subset of the daemon config
    /// (`snapshot_every`, the supervisor tunables, and the rollout health
    /// gates). **Reject-and-keep-old**: the candidate is validated and
    /// checked for structural changes first, and on any failure the
    /// current generation stays live untouched — the rejection is
    /// recorded as an event and a counter, never a partial apply. On
    /// success the generation bumps and the new values take effect from
    /// the next tick. Returns the new generation.
    pub fn reload(&mut self, new: &DaemonConfig) -> Result<u64, DaemonError> {
        if let Some(reason) = self.reload_reject_reason(new) {
            self.control_stats.reloads_rejected += 1;
            self.events.push(
                "fleetd.control",
                "config_rejected",
                &[("reason", reason)],
            );
            return Err(DaemonError::Config(reason));
        }
        self.cfg.snapshot_every = new.snapshot_every;
        self.cfg.supervisor = new.supervisor;
        self.cfg.rollout.gate = new.rollout.gate;
        self.config_generation += 1;
        self.control_stats.reloads_applied += 1;
        self.events.push(
            "fleetd.control",
            "config_applied",
            &[("generation", &self.config_generation.to_string())],
        );
        Ok(self.config_generation)
    }

    /// Live config generation (1 at process start, +1 per accepted
    /// reload).
    pub fn config_generation(&self) -> u64 {
        self.config_generation
    }

    /// The live daemon configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.cfg
    }

    /// Control-plane counters this lifetime.
    pub fn control_stats(&self) -> &ControlStats {
        &self.control_stats
    }

    /// Shards currently drained, ascending.
    pub fn drained_shards(&self) -> Vec<u32> {
        self.drained.iter().copied().collect()
    }

    /// Epoch/rollout/drain state as deterministic JSON (the admin
    /// endpoint's `GET /state` body). Hand-rolled — every value is an
    /// integer, bool, or a string from a fixed vocabulary, so no escaping
    /// is needed and the output is a pure function of daemon state.
    pub fn state_json(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"config_generation\":{},\"virtual_ticks\":{},\"queued\":{},\"phase\":\"{}\"",
            self.config_generation,
            self.tick,
            self.queued_total(),
            match self.epoch.phase() {
                Phase::Idle => "idle",
                Phase::Canary => "canary",
            }
        );
        let _ = write!(out, ",\"last_epoch\":{}", self.epoch.last_epoch);
        match &self.epoch.candidate {
            None => out.push_str(",\"candidate\":null"),
            Some(c) => {
                let _ = write!(
                    out,
                    ",\"candidate\":{{\"epoch\":{},\"soak_start\":{},\"soak_end\":{},\
                     \"hosts\":{},\"expected_windows\":{},\"windows\":{},\"sheds\":{}}}",
                    c.epoch,
                    c.soak_start,
                    c.soak_end,
                    c.thresholds.len(),
                    c.expected_windows,
                    c.stats.windows,
                    c.stats.sheds
                );
            }
        }
        out.push_str(",\"history\":[");
        for (i, rec) in self.epoch.history.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match rec.outcome {
                EpochOutcome::Promoted => {
                    let _ = write!(
                        out,
                        "{{\"epoch\":{},\"outcome\":\"promoted\"}}",
                        rec.epoch
                    );
                }
                EpochOutcome::RolledBack(reason) => {
                    let _ = write!(
                        out,
                        "{{\"epoch\":{},\"outcome\":\"rolled_back\",\"reason\":\"{reason}\"}}",
                        rec.epoch
                    );
                }
            }
        }
        out.push_str("],\"drained_shards\":[");
        for (i, s) in self.drained.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{s}");
        }
        out.push_str("],\"shards\":[");
        for (i, st) in self.shard_statuses().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(match st {
                WorkerStatus::Running => "running",
                WorkerStatus::Backoff { .. } => "backoff",
                WorkerStatus::Dark => "dark",
            });
            out.push('"');
        }
        out.push_str("]}");
        out
    }

    /// Full rollout lifecycle state: in-flight candidate plus history.
    pub fn epoch_state(&self) -> &EpochState {
        &self.epoch
    }

    /// Tick until every queue is empty or `max_ticks` elapse. Returns
    /// whether full quiescence was reached (`false` = stalled, which
    /// given quarantine bounds should not happen and is surfaced for
    /// tests to assert on).
    pub fn drain(&mut self, kill: &mut KillSwitch, max_ticks: u64) -> Result<bool, DaemonError> {
        for _ in 0..max_ticks {
            if self.queued_total() == 0 {
                return Ok(true);
            }
            self.tick(kill)?;
        }
        Ok(self.queued_total() == 0)
    }

    /// Checkpoint now, regardless of the cadence rule: a clean shutdown,
    /// or the operator's pre-maintenance "make recovery cheap" lever
    /// (drains make this useful — a drained fleet checkpoints small).
    pub fn checkpoint(&mut self) -> Result<(), DaemonError> {
        self.write_snapshot()
    }

    fn write_snapshot(&mut self) -> Result<(), DaemonError> {
        let seq = self.next_snapshot_seq;
        let drained = self.drained_shards();
        let view = SnapshotView {
            seq,
            n_windows: self.cfg.n_windows,
            hosts: self.hosts(),
            epoch: &self.epoch,
            drained: &drained,
        };
        let image_bytes = snapshot::write_image(&self.dir, &view)?;
        self.wal.reset()?;
        self.next_snapshot_seq += 1;
        self.applied_since_snapshot = 0;
        self.last_image_bytes = image_bytes;
        self.stats.snapshots_written += 1;
        self.stats.snapshot_bytes += image_bytes;
        self.events.push(
            "fleetd.snapshot",
            "written",
            &[("seq", &seq.to_string()), ("wal_reset", "true")],
        );
        Ok(())
    }

    /// Completions emitted since the last call (the at-least-once ack
    /// channel: a source marks work done only on seeing its completion).
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &DaemonStats {
        &self.stats
    }

    /// Batches currently queued across all shards.
    pub fn queued_total(&self) -> u64 {
        self.shards.iter().map(|s| s.queue.len() as u64).sum()
    }

    /// Deepest any shard queue has been this lifetime (the memory-bound
    /// witness: with a backpressure-honoring source this never exceeds
    /// the high watermark).
    pub fn max_queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue.max_depth).max().unwrap_or(0)
    }

    /// Whether the shard owning `host` is currently asserting
    /// backpressure (busy latch set). A dark shard is deliberately NOT
    /// busy: it accepts and sheds on arrival, so a backpressure-honoring
    /// source drains instead of retrying forever against a breaker that
    /// will never reset.
    pub fn shard_busy(&self, host: u32) -> bool {
        self.shards[host as usize % self.cfg.n_shards].queue.busy()
    }

    /// Worker status per shard.
    pub fn shard_statuses(&self) -> Vec<WorkerStatus> {
        self.shards.iter().map(|s| s.worker.status).collect()
    }

    /// Total worker restarts across shards this lifetime.
    pub fn worker_restarts(&self) -> u64 {
        self.shards.iter().map(|s| s.worker.restarts).sum()
    }

    /// The merged host table, ordered by host id.
    pub fn hosts(&self) -> BTreeMap<u32, &HostState> {
        let mut out = BTreeMap::new();
        for shard in &self.shards {
            for (&h, st) in &shard.hosts {
                out.insert(h, st);
            }
        }
        out
    }

    /// Current WAL length in bytes.
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }

    /// The structured event ring (recovery, shard, rollout, and
    /// control-plane events this lifetime).
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Export lifetime counters, live gauges, epoch history and the
    /// structured event log into `reg` under the `fleetd_*` families.
    ///
    /// Everything exported is a pure function of the offer/tick schedule
    /// (the daemon's determinism contract), so the rendered snapshot is
    /// byte-identical for identical schedules — at any thread count of
    /// the surrounding harness. The batch counters satisfy
    /// `admitted = Σ terminal dispositions + queued` at quiescent points
    /// ([`DaemonStats::conservation_holds`]).
    pub fn export_metrics(&self, reg: &mut Registry) {
        reg.register_counter(
            "fleetd_batches_total",
            "Batches by admission/terminal disposition",
        );
        let disp: [(&str, u64); 10] = [
            ("admitted", self.stats.admitted),
            ("overflow", self.stats.overflow),
            ("applied", self.stats.applied),
            ("duplicate", self.stats.duplicates),
            ("quarantined", self.stats.quarantined),
            ("shed_overload", self.stats.shed_overload),
            ("shed_dark", self.stats.shed_dark),
            ("rejected", self.stats.rejected),
            ("barrier_deferred", self.stats.barrier_deferred),
            ("drain_deferred", self.stats.drain_deferred),
        ];
        for (d, v) in disp {
            reg.counter_add("fleetd_batches_total", &[("disposition", d)], v);
        }
        reg.register_counter(
            "fleetd_breaker_trips_total",
            "Shard circuit-breaker trips this lifetime",
        );
        reg.counter_add("fleetd_breaker_trips_total", &[], self.stats.breaker_trips);
        reg.register_counter(
            "fleetd_worker_restarts_total",
            "Shard worker restarts after panics",
        );
        reg.counter_add("fleetd_worker_restarts_total", &[], self.worker_restarts());
        reg.register_counter(
            "fleetd_snapshots_written_total",
            "Snapshots installed (each also truncates the WAL)",
        );
        reg.counter_add(
            "fleetd_snapshots_written_total",
            &[],
            self.stats.snapshots_written,
        );
        reg.register_counter(
            "fleetd_snapshot_bytes_total",
            "Bytes of snapshot images installed",
        );
        reg.counter_add("fleetd_snapshot_bytes_total", &[], self.stats.snapshot_bytes);

        reg.register_gauge("fleetd_queue_depth", "Batches currently queued, fleet-wide");
        reg.gauge_set("fleetd_queue_depth", &[], self.queued_total() as i64);
        reg.register_gauge(
            "fleetd_queue_max_depth",
            "Deepest any shard queue has been this lifetime",
        );
        reg.gauge_set("fleetd_queue_max_depth", &[], self.max_queue_depth() as i64);
        reg.register_gauge("fleetd_wal_bytes", "Current WAL length");
        reg.gauge_set("fleetd_wal_bytes", &[], self.wal_len() as i64);
        reg.register_gauge("fleetd_virtual_ticks", "Virtual-clock position");
        reg.gauge_set("fleetd_virtual_ticks", &[], self.tick as i64);
        reg.register_gauge("fleetd_shards", "Shard workers by supervision state");
        let (mut running, mut backoff, mut dark) = (0i64, 0i64, 0i64);
        for st in self.shard_statuses() {
            match st {
                WorkerStatus::Running => running += 1,
                WorkerStatus::Backoff { .. } => backoff += 1,
                WorkerStatus::Dark => dark += 1,
            }
        }
        reg.gauge_set("fleetd_shards", &[("state", "running")], running);
        reg.gauge_set("fleetd_shards", &[("state", "backoff")], backoff);
        reg.gauge_set("fleetd_shards", &[("state", "dark")], dark);

        reg.register_counter(
            "fleetd_epochs_total",
            "Concluded rollout epochs by outcome",
        );
        let (mut promoted, mut rolled_back) = (0u64, 0u64);
        for rec in &self.epoch.history {
            match rec.outcome {
                EpochOutcome::Promoted => promoted += 1,
                EpochOutcome::RolledBack(_) => rolled_back += 1,
            }
        }
        reg.counter_add("fleetd_epochs_total", &[("outcome", "promoted")], promoted);
        reg.counter_add(
            "fleetd_epochs_total",
            &[("outcome", "rolled_back")],
            rolled_back,
        );

        reg.register_gauge(
            "control_config_generation",
            "Live config generation (1 at start, +1 per accepted reload)",
        );
        reg.gauge_set(
            "control_config_generation",
            &[],
            self.config_generation as i64,
        );
        reg.register_counter(
            "control_reloads_total",
            "Config reload attempts by outcome",
        );
        reg.counter_add(
            "control_reloads_total",
            &[("outcome", "applied")],
            self.control_stats.reloads_applied,
        );
        reg.counter_add(
            "control_reloads_total",
            &[("outcome", "rejected")],
            self.control_stats.reloads_rejected,
        );
        reg.register_counter(
            "control_commands_total",
            "Operator commands journaled and applied, by command",
        );
        let cmds: [(&str, u64); 4] = [
            ("force-rollback", self.control_stats.force_rollbacks),
            ("pin-threshold", self.control_stats.pins),
            ("drain-shard", self.control_stats.drains),
            ("undrain-shard", self.control_stats.undrains),
        ];
        for (c, v) in cmds {
            reg.counter_add("control_commands_total", &[("command", c)], v);
        }
        reg.register_gauge(
            "control_drained_shards",
            "Shards currently refusing new admissions",
        );
        reg.gauge_set("control_drained_shards", &[], self.drained.len() as i64);

        reg.merge_events(&self.events);
    }
}

impl RecoveryReport {
    /// Export what recovery found into `reg` under `fleetd_recovery_*`.
    pub fn export_metrics(&self, reg: &mut Registry) {
        reg.register_counter(
            "fleetd_recovery_wal_frames_total",
            "WAL frames found at recovery, by replay disposition",
        );
        let frames: [(&str, u64); 5] = [
            ("found", self.wal_batches),
            ("replayed", self.wal_replayed),
            ("duplicate", self.wal_duplicates),
            ("rejected", self.wal_rejected),
            ("quarantined", self.wal_quarantined),
        ];
        for (d, v) in frames {
            reg.counter_add("fleetd_recovery_wal_frames_total", &[("disposition", d)], v);
        }
        reg.register_counter(
            "fleetd_recovery_torn_bytes_total",
            "Torn/corrupt tail bytes truncated from the WAL at recovery",
        );
        reg.counter_add("fleetd_recovery_torn_bytes_total", &[], self.wal_torn_bytes);
        reg.register_counter(
            "fleetd_recovery_snapshots_discarded_total",
            "Newer-but-damaged snapshots skipped at recovery",
        );
        reg.counter_add(
            "fleetd_recovery_snapshots_discarded_total",
            &[],
            u64::from(self.snapshots_discarded),
        );
        reg.register_counter(
            "fleetd_recovery_rollout_events_total",
            "Rollout transition records replayed from the WAL",
        );
        reg.counter_add(
            "fleetd_recovery_rollout_events_total",
            &[],
            self.wal_rollout_events,
        );
        reg.register_counter(
            "fleetd_recovery_command_records_total",
            "Operator command records replayed from the WAL",
        );
        reg.counter_add(
            "fleetd_recovery_command_records_total",
            &[],
            self.wal_commands,
        );
    }
}

fn validate(cfg: &DaemonConfig) -> Result<(), DaemonError> {
    check_config(cfg).map_err(DaemonError::Config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Week;

    fn tmpdir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "fleetd-daemon-{}-{}-{}",
            tag,
            std::process::id(),
            n
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_cfg() -> DaemonConfig {
        DaemonConfig {
            n_shards: 2,
            n_windows: 8,
            threshold_q: 0.99,
            snapshot_every: 100,
            queue: QueueConfig {
                capacity: 32,
                high: 24,
                low: 8,
                shed_after: 1000,
                quantum: 4,
            },
            supervisor: SupervisorConfig {
                backoff_base: 1,
                backoff_cap_exp: 4,
                quarantine_strikes: 2,
                breaker_failures: 8,
            },
            rollout: RolloutConfig::default(),
            sketch_eps: None,
        }
    }

    fn b(host: u32, seq: u64, week: Week, start: u32, counts: &[u64]) -> WindowBatch {
        WindowBatch {
            host,
            seq,
            week,
            start,
            counts: counts.to_vec(),
            poison: false,
        }
    }

    fn feed(d: &mut Daemon, kill: &mut KillSwitch, batches: &[WindowBatch]) {
        for batch in batches {
            assert_ne!(d.offer(batch.clone()), Admit::Overflow);
        }
        assert!(d.drain(kill, 10_000).unwrap());
    }

    fn week_batches(host: u32) -> Vec<WindowBatch> {
        vec![
            b(host, 1, Week::Train, 0, &[1, 2, 3, 4]),
            b(host, 2, Week::Train, 4, &[5, 6, 7, 8]),
            b(host, 3, Week::Test, 0, &[1, 100, 3, 4]),
            b(host, 4, Week::Test, 4, &[5, 6, 7, 100]),
        ]
    }

    #[test]
    fn cold_start_applies_and_accounts() {
        let dir = tmpdir("cold");
        let (mut d, rec) = Daemon::open(&dir, small_cfg()).unwrap();
        assert!(rec.snapshot_seq.is_none());
        assert_eq!(rec.wal_batches, 0);
        let mut kill = KillSwitch::none();
        let batches: Vec<_> = (0..4).flat_map(week_batches).collect();
        feed(&mut d, &mut kill, &batches);
        let stats = *d.stats();
        assert_eq!(stats.applied, 16);
        assert!(stats.conservation_holds(d.queued_total()));
        let completions = d.take_completions();
        assert_eq!(completions.len(), 16);
        assert!(completions
            .iter()
            .all(|c| c.disposition == Disposition::Applied));
        let hosts = d.hosts();
        assert_eq!(hosts.len(), 4);
        for st in hosts.values() {
            assert_eq!(st.train.len(), 8);
            assert_eq!(st.test.len(), 8);
            assert!(st.threshold.is_some());
            assert_eq!(st.live_alarms, 2, "two 100-count test windows");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restart_from_wal_reproduces_state_and_dedupes_resends() {
        let dir = tmpdir("recover");
        let batches: Vec<_> = (0..4).flat_map(week_batches).collect();
        let reference;
        {
            let (mut d, _) = Daemon::open(&dir, small_cfg()).unwrap();
            let mut kill = KillSwitch::none();
            feed(&mut d, &mut kill, &batches);
            reference = d
                .hosts()
                .into_iter()
                .map(|(h, s)| (h, s.clone()))
                .collect::<Vec<_>>();
            // No checkpoint: drop without a snapshot, recovery is pure WAL.
        }
        let (mut d, rec) = Daemon::open(&dir, small_cfg()).unwrap();
        assert_eq!(rec.wal_replayed, 16);
        assert_eq!(rec.wal_torn_bytes, 0);
        let recovered: Vec<_> = d
            .hosts()
            .into_iter()
            .map(|(h, s)| (h, s.clone()))
            .collect();
        assert_eq!(recovered, reference);
        // Redeliver everything: all duplicates, nothing changes.
        let mut kill = KillSwitch::none();
        feed(&mut d, &mut kill, &batches);
        assert_eq!(d.stats().duplicates, 16);
        assert_eq!(d.stats().applied, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sketch_mode_survives_snapshot_and_wal_recovery() {
        // Same batch stream through exact and sketch daemons: at a tight
        // eps nothing compacts, so fitted thresholds and alarm counts
        // agree bitwise, while per-host state stays bounded. A snapshot +
        // reopen must reproduce the sketch-mode state exactly (sketch
        // images roundtrip through the snapshot codec).
        let sketch_cfg = DaemonConfig {
            sketch_eps: Some(0.001),
            snapshot_every: 8,
            ..small_cfg()
        };
        let batches: Vec<_> = (0..4).flat_map(week_batches).collect();

        let exact_dir = tmpdir("sketch-exact");
        let (mut exact, _) = Daemon::open(&exact_dir, small_cfg()).unwrap();
        let mut kill = KillSwitch::none();
        feed(&mut exact, &mut kill, &batches);
        let exact_hosts: Vec<_> = exact
            .hosts()
            .into_iter()
            .map(|(h, s)| (h, s.clone()))
            .collect();

        let dir = tmpdir("sketch-daemon");
        let reference;
        {
            let (mut d, _) = Daemon::open(&dir, sketch_cfg.clone()).unwrap();
            let mut kill = KillSwitch::none();
            feed(&mut d, &mut kill, &batches);
            reference = d
                .hosts()
                .into_iter()
                .map(|(h, s)| (h, s.clone()))
                .collect::<Vec<_>>();
        }
        for ((he, se), (hs, ss)) in exact_hosts.iter().zip(&reference) {
            assert_eq!(he, hs);
            assert_eq!(
                se.threshold.unwrap().to_bits(),
                ss.threshold.unwrap().to_bits(),
                "uncompacted sketch threshold must match exact bitwise"
            );
            assert_eq!(se.live_alarms, ss.live_alarms);
            assert!(ss.train.is_empty() && ss.test.is_empty());
            assert!(ss.sketch_state_bytes() > 0);
        }
        let (d, rec) = Daemon::open(&dir, sketch_cfg).unwrap();
        assert!(rec.snapshot_seq.is_some(), "snapshot_every=8 checkpointed");
        let recovered: Vec<_> = d
            .hosts()
            .into_iter()
            .map(|(h, s)| (h, s.clone()))
            .collect();
        assert_eq!(recovered, reference);
        std::fs::remove_dir_all(&exact_dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_truncates_wal_and_recovery_prefers_it() {
        let dir = tmpdir("snap");
        let mut cfg = small_cfg();
        cfg.snapshot_every = 6;
        let batches: Vec<_> = (0..4).flat_map(week_batches).collect();
        let reference;
        {
            let (mut d, _) = Daemon::open(&dir, cfg).unwrap();
            let mut kill = KillSwitch::none();
            feed(&mut d, &mut kill, &batches);
            assert!(d.stats().snapshots_written >= 2);
            assert!(
                d.wal_len() < 200,
                "snapshots must keep the WAL short, got {}",
                d.wal_len()
            );
            reference = d
                .hosts()
                .into_iter()
                .map(|(h, s)| (h, s.clone()))
                .collect::<Vec<_>>();
        }
        let (d, rec) = Daemon::open(&dir, cfg).unwrap();
        assert!(rec.snapshot_seq.is_some());
        let recovered: Vec<_> = d
            .hosts()
            .into_iter()
            .map(|(h, s)| (h, s.clone()))
            .collect();
        assert_eq!(recovered, reference);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Cadence-test config: 4 shards, one batch per shard per tick, so a
    /// tick applies at most 4 batches, half of `snapshot_every`.
    fn cadence_cfg() -> DaemonConfig {
        DaemonConfig {
            n_shards: 4,
            n_windows: 96,
            snapshot_every: 8,
            queue: QueueConfig {
                capacity: 64,
                high: 48,
                low: 16,
                shed_after: 100_000,
                quantum: 1,
            },
            ..small_cfg()
        }
    }

    /// 24 hosts × two weeks of 8-window batches, in delivery rounds:
    /// round `r` holds every host's `r`-th batch.
    fn cadence_rounds() -> Vec<Vec<WindowBatch>> {
        (0..24u32)
            .map(|r| {
                let (week, start) = if r < 12 {
                    (Week::Train, r * 8)
                } else {
                    (Week::Test, (r - 12) * 8)
                };
                (0..24u32)
                    .map(|h| {
                        let counts: Vec<u64> = (0..8u32)
                            .map(|i| u64::from((h * 31 + r * 7 + i * 13) % 50))
                            .collect();
                        b(h, u64::from(r) + 1, week, start, &counts)
                    })
                    .collect()
            })
            .collect()
    }

    /// Replay bound of the cadence rule: a snapshot is due at the end of
    /// every tick once the WAL holds `snapshot_every` batches and one
    /// image's worth of bytes, so a WAL found at recovery is at most the
    /// larger of the two plus one tick's batches.
    fn replay_bound(cfg: &DaemonConfig, image_bytes: u64) -> u64 {
        let frame = cadence_rounds()
            .iter()
            .flatten()
            .map(|b| crate::wal::frame(&WalRecord::Batch(b.clone())).len() as u64)
            .max()
            .unwrap_or(0);
        let per_tick = (cfg.n_shards * cfg.queue.quantum) as u64;
        image_bytes.max(cfg.snapshot_every * frame) + per_tick * frame
    }

    fn newest_image_bytes(dir: &Path) -> u64 {
        crate::snapshot::list_snapshots(dir)
            .unwrap()
            .first()
            .map_or(0, |(_, p)| std::fs::metadata(p).unwrap().len())
    }

    /// Offer `round` and tick until it drains or the kill switch fires.
    /// Returns the applied-batch meter after each tick that installed a
    /// snapshot.
    fn run_round(
        d: &mut Daemon,
        kill: &mut KillSwitch,
        round: &[WindowBatch],
    ) -> Result<Vec<u64>, DaemonError> {
        for batch in round {
            assert_ne!(d.offer(batch.clone()), Admit::Overflow);
        }
        let mut snapshot_ticks = Vec::new();
        while d.queued_total() > 0 {
            let before = d.stats().snapshots_written;
            d.tick(kill)?;
            if d.stats().snapshots_written > before {
                snapshot_ticks.push(kill.applied_batches());
            }
        }
        Ok(snapshot_ticks)
    }

    #[test]
    fn checkpoint_bytes_are_paid_for_by_wal_bytes_and_replay_is_bounded() {
        let cfg = cadence_cfg();
        let dir = tmpdir("cadence");
        let (mut d, _) = Daemon::open(&dir, cfg).unwrap();
        let mut kill = KillSwitch::none();
        let mut snapshot_ticks = Vec::new();
        for round in cadence_rounds() {
            snapshot_ticks.extend(run_round(&mut d, &mut kill, &round).unwrap());
        }
        let stats = *d.stats();
        assert_eq!(stats.applied, 24 * 24);
        let largest = newest_image_bytes(&dir);
        assert!(stats.snapshots_written >= 3, "{stats:?}");
        // The floor alone would have taken one image per 8 batches (72).
        assert!(stats.snapshots_written <= 10, "{stats:?}");
        assert!(
            stats.snapshot_bytes <= kill.wal_bytes() + largest,
            "images {} > WAL {} + largest image {largest}",
            stats.snapshot_bytes,
            kill.wal_bytes()
        );
        let reference: Vec<_> = d.hosts().into_iter().map(|(h, s)| (h, s.clone())).collect();
        drop(d);
        std::fs::remove_dir_all(&dir).unwrap();

        // Die at the worst point: after the last batch of a tick that was
        // about to snapshot, with the WAL at its longest.
        assert_eq!(snapshot_ticks.len() as u64, stats.snapshots_written);
        for &at in &snapshot_ticks {
            let dir = tmpdir("cadence-kill");
            let mut kill = KillSwitch::armed(faultsim::KillPoint::AfterBatches(at));
            let (mut d, _) = Daemon::open(&dir, cfg).unwrap();
            let mut rounds = cadence_rounds().into_iter();
            let died = rounds.by_ref().any(|round| {
                matches!(
                    run_round(&mut d, &mut kill, &round),
                    Err(DaemonError::Killed)
                )
            });
            assert!(died, "kill after {at} batches never fired");
            drop(d);
            let (mut d, rec) = Daemon::open(&dir, cfg).unwrap();
            assert!(rec.wal_replayed > 0);
            let bound = replay_bound(&cfg, newest_image_bytes(&dir));
            assert!(
                d.wal_len() <= bound,
                "replayed {} > bound {bound}",
                d.wal_len()
            );
            // Redeliver everything: recovery converges to the reference.
            let mut kill = KillSwitch::none();
            for round in cadence_rounds() {
                run_round(&mut d, &mut kill, &round).unwrap();
            }
            let hosts: Vec<_> = d.hosts().into_iter().map(|(h, s)| (h, s.clone())).collect();
            assert_eq!(hosts, reference);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn crash_loop_cannot_grow_the_wal_without_bound() {
        // Every lifetime dies after 6 applied batches: past its first tick
        // (at most 4), but short of `snapshot_every` (8). Only the
        // replayed backlog and the loaded image's length, carried across
        // the restart, let the cadence rule fire at all.
        let cfg = cadence_cfg();
        let dir = tmpdir("crashloop");
        let rounds = cadence_rounds();
        let mut kill = KillSwitch::none();
        let (mut next, mut lifetimes, mut image_bytes) = (0, 0u64, 0u64);
        let mut largest = 0u64;
        while next < rounds.len() {
            lifetimes += 1;
            assert!(lifetimes < 1_000, "crash loop made no progress");
            let (mut d, _) = Daemon::open(&dir, cfg).unwrap();
            let bound = replay_bound(&cfg, newest_image_bytes(&dir));
            assert!(
                d.wal_len() <= bound,
                "lifetime {lifetimes}: WAL {} > bound {bound}",
                d.wal_len()
            );
            kill.rearm(Some(faultsim::KillPoint::AfterBatches(
                kill.applied_batches() + 6,
            )));
            while next < rounds.len() {
                match run_round(&mut d, &mut kill, &rounds[next]) {
                    Ok(_) => next += 1,
                    Err(DaemonError::Killed) => break,
                    Err(e) => panic!("{e}"),
                }
            }
            image_bytes += d.stats().snapshot_bytes;
            largest = largest.max(newest_image_bytes(&dir));
        }
        assert!(lifetimes > 50, "only {lifetimes} lifetimes");
        assert!(
            image_bytes <= kill.wal_bytes() + largest,
            "images {image_bytes} > WAL {} + largest image {largest}",
            kill.wal_bytes()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poison_is_quarantined_and_daemon_survives() {
        let dir = tmpdir("poison");
        let (mut d, _) = Daemon::open(&dir, small_cfg()).unwrap();
        let mut kill = KillSwitch::none();
        let mut batches = week_batches(0);
        batches[2].poison = true; // first test batch of host 0
        batches.extend(week_batches(1));
        feed(&mut d, &mut kill, &batches);
        let stats = *d.stats();
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.applied, 7);
        assert!(stats.conservation_holds(d.queued_total()));
        assert!(d.worker_restarts() >= 2, "strike model retries once");
        // Host 1 (other shard) is untouched; host 0 lost only the
        // poisoned batch's windows.
        let hosts = d.hosts();
        assert_eq!(hosts[&1].test.len(), 8);
        assert_eq!(hosts[&0].test.len(), 4);
        let completions = d.take_completions();
        let quarantined: Vec<_> = completions
            .iter()
            .filter(|c| c.disposition == Disposition::Quarantined)
            .collect();
        assert_eq!(quarantined.len(), 1);
        assert_eq!((quarantined[0].host, quarantined[0].seq), (0, 3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn breaker_trips_shard_dark_and_sheds() {
        let dir = tmpdir("breaker");
        let mut cfg = small_cfg();
        cfg.supervisor.breaker_failures = 3;
        cfg.supervisor.quarantine_strikes = u32::MAX; // never park: pure crash loop
        let (mut d, _) = Daemon::open(&dir, cfg).unwrap();
        let mut kill = KillSwitch::none();
        let mut poison = b(0, 1, Week::Train, 0, &[1]);
        poison.poison = true;
        d.offer(poison);
        for batch in week_batches(2) {
            d.offer(batch); // same shard (2 % 2 == 0), queued behind poison
        }
        for batch in week_batches(1) {
            d.offer(batch); // other shard, must stay healthy
        }
        assert!(d.drain(&mut kill, 10_000).unwrap());
        let stats = *d.stats();
        assert_eq!(stats.breaker_trips, 1);
        // The re-queued poison batch plus host 2's four batches all shed
        // when the shard goes dark.
        assert_eq!(stats.shed_dark, 5);
        assert_eq!(stats.applied, 4, "host 1's shard unaffected");
        assert!(stats.conservation_holds(d.queued_total()));
        assert!(d.shard_statuses().contains(&WorkerStatus::Dark));
        // Post-trip offers to the dark shard shed on arrival.
        d.offer(b(0, 2, Week::Train, 0, &[1]));
        assert_eq!(d.stats().shed_dark, 6);
        assert!(d.stats().conservation_holds(d.queued_total()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_work_is_shed_deterministically() {
        let dir = tmpdir("shed");
        let mut cfg = small_cfg();
        cfg.queue.shed_after = 2;
        cfg.queue.quantum = 1;
        let (mut d, _) = Daemon::open(&dir, cfg).unwrap();
        let mut kill = KillSwitch::none();
        // 8 batches on one shard, 1 processed per tick, stale after 2
        // ticks: the tail of the queue must shed.
        for batch in (0..8).map(|i| b(0, i + 1, Week::Train, 0, &[i])) {
            d.offer(batch);
        }
        assert!(d.drain(&mut kill, 1_000).unwrap());
        let stats = *d.stats();
        assert!(stats.shed_overload > 0);
        assert_eq!(stats.applied + stats.shed_overload, 8);
        assert!(stats.conservation_holds(d.queued_total()));
        // Determinism: identical schedule, identical split.
        let dir2 = tmpdir("shed2");
        let (mut d2, _) = Daemon::open(&dir2, cfg).unwrap();
        for batch in (0..8).map(|i| b(0, i + 1, Week::Train, 0, &[i])) {
            d2.offer(batch);
        }
        assert!(d2.drain(&mut kill, 1_000).unwrap());
        assert_eq!(*d2.stats(), stats);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    /// Train both hosts on counts ≤ 8 and open their test weeks with two
    /// quiet windows, so incumbent thresholds sit near 8 and the soak
    /// span 4..6 is still unapplied.
    fn prepare_rollout_daemon(dir: &Path) -> (Daemon, KillSwitch) {
        let (mut d, _) = Daemon::open(dir, small_cfg()).unwrap();
        let mut kill = KillSwitch::none();
        let mut batches = Vec::new();
        for host in 0..2 {
            batches.push(b(host, 1, Week::Train, 0, &[1, 2, 3, 4]));
            batches.push(b(host, 2, Week::Train, 4, &[5, 6, 7, 8]));
            batches.push(b(host, 3, Week::Test, 0, &[1, 2, 3, 4]));
        }
        feed(&mut d, &mut kill, &batches);
        (d, kill)
    }

    fn candidate(t: f64) -> BTreeMap<u32, f64> {
        let mut m = BTreeMap::new();
        m.insert(0, t);
        m.insert(1, t);
        m
    }

    #[test]
    fn quiet_candidate_soaks_and_promotes() {
        let dir = tmpdir("promote");
        let (mut d, mut kill) = prepare_rollout_daemon(&dir);
        // Candidate 6.0: soak counts of 5 alarm under neither threshold.
        let epoch = d.begin_rollout(4, 6, candidate(6.0), &mut kill).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(d.epoch_state().phase(), Phase::Canary);
        // Only host 0 sits on the canary shard (0 % 2), so 2 windows.
        assert_eq!(d.epoch_state().candidate.as_ref().unwrap().expected_windows, 2);
        feed(&mut d, &mut kill, &[
            b(0, 4, Week::Test, 4, &[5, 5]),
            b(1, 4, Week::Test, 4, &[5, 5]),
        ]);
        assert_eq!(d.epoch_state().phase(), Phase::Idle);
        let hist = &d.epoch_state().history;
        assert_eq!(hist.len(), 1);
        assert_eq!(hist[0].outcome, EpochOutcome::Promoted);
        assert_eq!(hist[0].stats.windows, 2);
        // Post-promotion windows alarm against the candidate: counts of 7
        // clear the incumbent (~8) but not the promoted 6.0.
        let alarms_before: u64 = d.hosts().values().map(|h| h.live_alarms).sum();
        feed(&mut d, &mut kill, &[
            b(0, 5, Week::Test, 6, &[7, 7]),
            b(1, 5, Week::Test, 6, &[7, 7]),
        ]);
        let alarms_after: u64 = d.hosts().values().map(|h| h.live_alarms).sum();
        assert_eq!(alarms_after - alarms_before, 4);
        for st in d.hosts().values() {
            assert_eq!(st.promoted, Some((6, 6.0)));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn silencing_candidate_rolls_back_bitwise_identically() {
        // A candidate so high it silences windows the incumbent alarms on
        // (the poisoned-refit signature) must fail the AlarmDrop gate and
        // leave host state byte-identical to a run that never attempted a
        // rollout.
        let dir_a = tmpdir("rollback-a");
        let dir_b = tmpdir("rollback-b");
        let soak = [b(0, 4, Week::Test, 4, &[100, 100]), b(1, 4, Week::Test, 4, &[100, 100])];

        let (mut with_rollout, mut kill) = prepare_rollout_daemon(&dir_a);
        with_rollout.begin_rollout(4, 6, candidate(1000.0), &mut kill).unwrap();
        feed(&mut with_rollout, &mut kill, &soak);
        assert_eq!(with_rollout.epoch_state().phase(), Phase::Idle);
        let hist = &with_rollout.epoch_state().history;
        assert_eq!(
            hist[0].outcome,
            EpochOutcome::RolledBack(crate::epoch::RollbackReason::AlarmDrop)
        );

        let (mut plain, mut kill_b) = prepare_rollout_daemon(&dir_b);
        feed(&mut plain, &mut kill_b, &soak);

        let a: Vec<(u32, HostState)> = with_rollout.hosts().into_iter().map(|(h, s)| (h, s.clone())).collect();
        let b: Vec<(u32, HostState)> = plain.hosts().into_iter().map(|(h, s)| (h, s.clone())).collect();
        assert_eq!(a, b, "rollback must leave zero trace in host state");
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn barrier_defers_post_soak_windows_until_decision() {
        let dir = tmpdir("barrier");
        let (mut d, mut kill) = prepare_rollout_daemon(&dir);
        d.begin_rollout(4, 6, candidate(6.0), &mut kill).unwrap();
        // Windows 6..8 reach past soak_end=6: refused while the canary
        // runs, on the non-canary shard too.
        assert_eq!(d.offer(b(1, 4, Week::Test, 6, &[5, 5])), Admit::Overflow);
        assert_eq!(d.stats().barrier_deferred, 1);
        // Train batches pass the barrier freely.
        assert_ne!(d.offer(b(1, 4, Week::Train, 6, &[5, 5])), Admit::Overflow);
        feed(&mut d, &mut kill, &[b(0, 5, Week::Test, 4, &[5, 5])]);
        assert_eq!(d.epoch_state().phase(), Phase::Idle, "soak complete, decided");
        // After the decision the same batch is admitted.
        assert_ne!(d.offer(b(1, 5, Week::Test, 6, &[5, 5])), Admit::Overflow);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn begin_rollout_rejects_bad_requests() {
        let dir = tmpdir("beginbad");
        let (mut d, mut kill) = prepare_rollout_daemon(&dir);
        assert!(matches!(
            d.begin_rollout(4, 6, BTreeMap::new(), &mut kill),
            Err(DaemonError::Config(_))
        ));
        assert!(matches!(
            d.begin_rollout(6, 4, candidate(6.0), &mut kill),
            Err(DaemonError::Config(_))
        ));
        assert!(matches!(
            d.begin_rollout(4, 9, candidate(6.0), &mut kill),
            Err(DaemonError::Config(_))
        ));
        // Host 1 alone lives on the non-canary shard: nothing to soak.
        let mut off_canary = BTreeMap::new();
        off_canary.insert(1u32, 6.0);
        assert!(matches!(
            d.begin_rollout(4, 6, off_canary, &mut kill),
            Err(DaemonError::Config(_))
        ));
        d.begin_rollout(4, 6, candidate(6.0), &mut kill).unwrap();
        assert!(matches!(
            d.begin_rollout(4, 6, candidate(6.0), &mut kill),
            Err(DaemonError::Config(_)),
        ), "second concurrent rollout must be refused");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_after_begin_recovers_canary_from_wal() {
        let dir = tmpdir("killbegin");
        let (mut d, _) = prepare_rollout_daemon(&dir);
        let mut kill = KillSwitch::armed(faultsim::KillPoint::AfterRolloutEvents(1));
        assert!(matches!(
            d.begin_rollout(4, 6, candidate(6.0), &mut kill),
            Err(DaemonError::Killed)
        ));
        drop(d);
        let (mut d, rec) = Daemon::open(&dir, small_cfg()).unwrap();
        assert_eq!(rec.wal_rollout_events, 1);
        assert_eq!(d.epoch_state().phase(), Phase::Canary, "durable Begin must replay");
        // The recovered canary proceeds to a normal decision.
        let mut kill = KillSwitch::none();
        feed(&mut d, &mut kill, &[b(0, 4, Week::Test, 4, &[5, 5])]);
        assert_eq!(d.epoch_state().phase(), Phase::Idle);
        assert_eq!(d.epoch_state().history[0].outcome, EpochOutcome::Promoted);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_begin_record_means_no_rollout() {
        let dir = tmpdir("tornbegin");
        let (mut d, _) = prepare_rollout_daemon(&dir);
        let wal_len = d.wal_len();
        // A fresh switch's byte meter lags the real file; pre-feed it so
        // the armed offset lands inside the Begin frame.
        let mut pre = KillSwitch::none();
        pre.before_wal_append(wal_len);
        pre.rearm(Some(faultsim::KillPoint::AtWalByte {
            offset: wal_len + 3,
            torn: 5,
        }));
        assert!(matches!(
            d.begin_rollout(4, 6, candidate(6.0), &mut pre),
            Err(DaemonError::Killed)
        ));
        drop(d);
        let (d, rec) = Daemon::open(&dir, small_cfg()).unwrap();
        assert!(rec.wal_torn_bytes > 0);
        assert_eq!(rec.wal_rollout_events, 0);
        assert_eq!(d.epoch_state().phase(), Phase::Idle, "torn Begin is a lost rollout");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_config_is_rejected() {
        let dir = tmpdir("badcfg");
        for mutate in [
            (|c: &mut DaemonConfig| c.n_shards = 0) as fn(&mut DaemonConfig),
            |c| c.n_windows = 0,
            |c| c.threshold_q = 0.0,
            |c| c.threshold_q = 1.5,
            |c| c.snapshot_every = 0,
            |c| c.queue.quantum = 0,
            |c| c.queue.high = 0,
            |c| c.queue.high = c.queue.capacity + 1,
            |c| c.queue.low = c.queue.high,
            |c| c.supervisor.quarantine_strikes = 0,
            |c| c.supervisor.breaker_failures = 0,
            |c| c.rollout.canary_shards = 0,
            |c| c.rollout.gate.max_fp_increase = -0.1,
            |c| c.rollout.gate.min_coverage = 0.0,
            |c| c.rollout.gate.min_coverage = 1.5,
            |c| c.rollout.gate.max_shed_rate = -0.1,
        ] {
            let mut cfg = small_cfg();
            mutate(&mut cfg);
            assert!(matches!(
                Daemon::open(&dir, cfg),
                Err(DaemonError::Config(_))
            ));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pin_threshold_overrides_and_survives_wal_replay() {
        let dir = tmpdir("pin");
        let pinned_alarms;
        {
            let (mut d, mut kill) = prepare_rollout_daemon(&dir);
            // Incumbent threshold ≈ 8: counts of 20 alarm. Pin host 0 at
            // 1000: nothing alarms on it any more.
            d.command(
                ControlCommand::PinThreshold { host: 0, t: 1000.0 },
                &mut kill,
            )
            .unwrap();
            assert!(matches!(
                d.command(
                    ControlCommand::PinThreshold {
                        host: 0,
                        t: f64::NAN
                    },
                    &mut kill
                ),
                Err(DaemonError::Config("pinned threshold must be finite"))
            ));
            feed(&mut d, &mut kill, &[
                b(0, 4, Week::Test, 4, &[20, 20]),
                b(1, 4, Week::Test, 4, &[20, 20]),
            ]);
            let hosts = d.hosts();
            assert_eq!(hosts[&0].pinned, Some(1000.0));
            assert_eq!(hosts[&0].live_alarms, 0, "pin silences host 0");
            assert_eq!(hosts[&1].live_alarms, 2, "host 1 unpinned");
            assert_eq!(d.control_stats().pins, 1);
            pinned_alarms = (hosts[&0].live_alarms, hosts[&1].live_alarms);
            // Drop without snapshot: recovery replays the command record.
        }
        let (d, rec) = Daemon::open(&dir, small_cfg()).unwrap();
        assert_eq!(rec.wal_commands, 1);
        let hosts = d.hosts();
        assert_eq!(hosts[&0].pinned, Some(1000.0));
        assert_eq!(
            (hosts[&0].live_alarms, hosts[&1].live_alarms),
            pinned_alarms,
            "WAL replay reproduces pinned evaluation exactly"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drain_refuses_admission_until_undrain_and_survives_snapshot() {
        let dir = tmpdir("drain");
        {
            let (mut d, mut kill) = prepare_rollout_daemon(&dir);
            // Host 0 routes to shard 0; drain it.
            d.command(ControlCommand::DrainShard { shard: 0 }, &mut kill)
                .unwrap();
            assert_eq!(d.drained_shards(), vec![0]);
            assert_eq!(d.offer(b(0, 4, Week::Test, 4, &[5, 5])), Admit::Overflow);
            assert_eq!(d.stats().drain_deferred, 1);
            // Host 1 (shard 1) is unaffected.
            assert_ne!(d.offer(b(1, 4, Week::Test, 4, &[5, 5])), Admit::Overflow);
            assert!(matches!(
                d.command(ControlCommand::DrainShard { shard: 9 }, &mut kill),
                Err(DaemonError::Config("shard id out of range"))
            ));
            // Snapshot while drained: the drain must persist through it.
            d.checkpoint().unwrap();
        }
        let (mut d, rec) = Daemon::open(&dir, small_cfg()).unwrap();
        assert!(rec.snapshot_seq.is_some());
        assert_eq!(d.drained_shards(), vec![0], "drain survives snapshot");
        let mut kill = KillSwitch::none();
        assert_eq!(d.offer(b(0, 5, Week::Test, 4, &[5, 5])), Admit::Overflow);
        d.command(ControlCommand::UndrainShard { shard: 0 }, &mut kill)
            .unwrap();
        assert!(d.drained_shards().is_empty());
        assert_ne!(d.offer(b(0, 5, Week::Test, 4, &[5, 5])), Admit::Overflow);
        assert_eq!(d.control_stats().undrains, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_from_live_state_matches_owned_encode_byte_for_byte() {
        use crate::snapshot::{list_snapshots, Snapshot};
        let dir = tmpdir("liveenc");
        {
            // Exact-mode life: hosts 0 and 1 are promoted, then host 1 is
            // pinned on top.
            let (mut d, mut kill) = prepare_rollout_daemon(&dir);
            d.begin_rollout(4, 6, candidate(6.0), &mut kill).unwrap();
            feed(&mut d, &mut kill, &[
                b(0, 4, Week::Test, 4, &[5, 5]),
                b(1, 4, Week::Test, 4, &[5, 5]),
            ]);
            assert_eq!(d.epoch_state().history.len(), 1);
            d.command(ControlCommand::PinThreshold { host: 1, t: 9.5 }, &mut kill)
                .unwrap();
            d.checkpoint().unwrap();
        }
        // Restart in sketch mode: hosts 0 and 1 keep their exact-mode
        // state, hosts 2..5 accumulate sketches (host 5 never reaches its
        // test week), and shard 1 is drained.
        let sketch_cfg = DaemonConfig {
            sketch_eps: Some(0.01),
            ..small_cfg()
        };
        let (mut d, _) = Daemon::open(&dir, sketch_cfg).unwrap();
        let mut kill = KillSwitch::none();
        let mut batches: Vec<_> = (2..5).flat_map(week_batches).collect();
        batches.push(b(5, 1, Week::Train, 0, &[3, 1, 4, 1]));
        feed(&mut d, &mut kill, &batches);
        d.command(ControlCommand::DrainShard { shard: 1 }, &mut kill)
            .unwrap();
        d.checkpoint().unwrap();

        let hosts = d.hosts();
        assert!(hosts[&0].train_sketch.is_none() && hosts[&0].promoted.is_some());
        assert!(hosts[&1].pinned.is_some() && hosts[&1].promoted.is_some());
        assert!(hosts[&2].train_sketch.is_some() && hosts[&2].test_sketch.is_some());
        assert!(hosts[&5].threshold.is_none());
        let owned = Snapshot {
            seq: 2,
            n_windows: d.config().n_windows,
            hosts: hosts.iter().map(|(&h, &st)| (h, st.clone())).collect(),
            epoch: d.epoch_state().clone(),
            drained: d.drained_shards(),
        };
        assert_eq!(owned.drained, vec![1]);
        let (seq, path) = list_snapshots(&dir).unwrap().remove(0);
        assert_eq!(seq, 2);
        let installed = std::fs::read(path).unwrap();
        assert!(installed == owned.encode(), "live encode diverged from owned encode");
        assert_eq!(Snapshot::decode(&installed).unwrap(), owned);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn force_rollback_records_operator_reason_and_leaves_no_trace() {
        let dir_a = tmpdir("oproll-a");
        let dir_b = tmpdir("oproll-b");
        let (mut with_cmd, mut kill) = prepare_rollout_daemon(&dir_a);
        assert!(matches!(
            with_cmd.command(ControlCommand::ForceRollback, &mut kill),
            Err(DaemonError::Config("no rollout in progress to roll back"))
        ));
        with_cmd
            .begin_rollout(4, 6, candidate(6.0), &mut kill)
            .unwrap();
        assert_eq!(with_cmd.epoch_state().phase(), Phase::Canary);
        with_cmd
            .command(ControlCommand::ForceRollback, &mut kill)
            .unwrap();
        assert_eq!(with_cmd.epoch_state().phase(), Phase::Idle);
        let hist = &with_cmd.epoch_state().history;
        assert_eq!(
            hist[0].outcome,
            EpochOutcome::RolledBack(RollbackReason::Operator)
        );
        let after = [
            b(0, 4, Week::Test, 4, &[5, 5]),
            b(1, 4, Week::Test, 4, &[5, 5]),
        ];
        feed(&mut with_cmd, &mut kill, &after);

        let (mut plain, mut kill_b) = prepare_rollout_daemon(&dir_b);
        feed(&mut plain, &mut kill_b, &after);
        let a: Vec<(u32, HostState)> = with_cmd
            .hosts()
            .into_iter()
            .map(|(h, s)| (h, s.clone()))
            .collect();
        let b: Vec<(u32, HostState)> = plain
            .hosts()
            .into_iter()
            .map(|(h, s)| (h, s.clone()))
            .collect();
        assert_eq!(a, b, "operator rollback leaves host state untouched");
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn kill_after_command_recovers_it_from_the_wal() {
        let dir = tmpdir("cmdkill");
        {
            let (mut d, _) = Daemon::open(&dir, small_cfg()).unwrap();
            let mut kill = KillSwitch::armed(faultsim::KillPoint::AfterCommands(1));
            // The command journals, applies, then the "process dies"
            // before the operator hears the ack.
            assert!(matches!(
                d.command(ControlCommand::DrainShard { shard: 1 }, &mut kill),
                Err(DaemonError::Killed)
            ));
        }
        let (d, rec) = Daemon::open(&dir, small_cfg()).unwrap();
        assert_eq!(rec.wal_commands, 1);
        assert_eq!(
            d.drained_shards(),
            vec![1],
            "journaled command survives the crash"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reload_applies_live_fields_and_bumps_generation() {
        let dir = tmpdir("reload");
        let (mut d, _) = Daemon::open(&dir, small_cfg()).unwrap();
        assert_eq!(d.config_generation(), 1);
        let mut new = small_cfg();
        new.snapshot_every = 7;
        new.supervisor.breaker_failures = 99;
        new.rollout.gate.min_coverage = 0.5;
        assert_eq!(d.reload(&new).unwrap(), 2);
        assert_eq!(d.config_generation(), 2);
        assert_eq!(d.config().snapshot_every, 7);
        assert_eq!(d.config().supervisor.breaker_failures, 99);
        assert_eq!(d.config().rollout.gate.min_coverage, 0.5);
        assert_eq!(d.control_stats().reloads_applied, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_reload_is_rejected_with_old_config_provably_live() {
        let dir = tmpdir("reloadbad");
        let (mut d, _) = Daemon::open(&dir, small_cfg()).unwrap();
        let before = d.config().clone();

        // Structurally different configs and outright invalid ones all
        // reject; after each, every old value is still live and the
        // generation never moved.
        let cases: Vec<(fn(&mut DaemonConfig), &str)> = vec![
            (|c| c.n_shards = 8, "n_shards"),
            (|c| c.n_windows = 16, "n_windows"),
            (|c| c.threshold_q = 0.5, "threshold_q"),
            (|c| c.sketch_eps = Some(0.01), "sketch_eps"),
            (|c| c.queue.capacity = 64, "queue sizing"),
            (|c| c.queue.quantum = 2, "queue sizing"),
            (|c| c.rollout.canary_shards = 2, "rollout.canary_shards"),
            (|c| c.snapshot_every = 0, "snapshot_every must be nonzero"),
            (|c| c.supervisor.breaker_failures = 0, "breaker_failures"),
        ];
        let n_cases = cases.len() as u64;
        for (mutate, needle) in cases {
            let mut new = small_cfg();
            mutate(&mut new);
            match d.reload(&new) {
                Err(DaemonError::Config(msg)) => {
                    assert!(msg.contains(needle), "{msg} should mention {needle}")
                }
                other => panic!("expected rejection, got {other:?}"),
            }
            assert_eq!(d.config_generation(), 1, "generation unmoved");
        }
        // Old values provably live, field by field.
        let after = d.config().clone();
        assert_eq!(after.n_shards, before.n_shards);
        assert_eq!(after.n_windows, before.n_windows);
        assert_eq!(after.threshold_q.to_bits(), before.threshold_q.to_bits());
        assert_eq!(after.snapshot_every, before.snapshot_every);
        assert_eq!(after.queue.capacity, before.queue.capacity);
        assert_eq!(
            after.supervisor.breaker_failures,
            before.supervisor.breaker_failures
        );
        assert_eq!(d.control_stats().reloads_rejected, n_cases);
        // And the rejection trail is in the event ring.
        assert!(d.events().contains("fleetd.control", "config_rejected"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn control_metrics_families_render() {
        let dir = tmpdir("ctrlmetrics");
        let (mut d, mut kill) = prepare_rollout_daemon(&dir);
        d.command(ControlCommand::DrainShard { shard: 0 }, &mut kill)
            .unwrap();
        let mut new = small_cfg();
        new.snapshot_every = 5;
        d.reload(&new).unwrap();
        let mut reg = hids_metrics::Registry::default();
        d.export_metrics(&mut reg);
        let text = reg.render(hids_metrics::RenderOptions::deterministic());
        assert!(text.contains("control_config_generation 2"));
        assert!(text.contains("control_reloads_total{outcome=\"applied\"} 1"));
        assert!(text.contains("control_commands_total{command=\"drain-shard\"} 1"));
        assert!(text.contains("control_drained_shards 1"));
        assert!(text.contains("disposition=\"drain_deferred\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
