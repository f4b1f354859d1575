//! Drift-aware threshold lifecycle, end to end: synthetic drift (benign
//! or boiling-frog poisoned) → console-side refit planning → daemon
//! canary epoch → promote or automatic rollback.
//!
//! This is the shared harness behind `repro rollout` and the root
//! `tests/rollout.rs` acceptance suite. It generates per-host window
//! streams whose second (test) week drifts away from the first, drives
//! them through a [`fleetd::Daemon`] over the same unreliable
//! stop-and-wait delivery link as [`crate::daemon`], and runs the
//! [`itconsole::RolloutPlanner`] beside the daemon: live counts feed the
//! fleet drift monitor exactly once per applied batch, and once every
//! host has latched drift (and the soak span is still undelivered) the
//! planner's candidate threshold set is submitted via
//! [`fleetd::Daemon::begin_rollout`].
//!
//! Two scripted narratives, selected by [`RolloutScenario::poison`]:
//!
//! * **benign** — activity genuinely shrinks (scale ramps down), refit
//!   thresholds follow, the canary soak is quiet on both incumbent and
//!   candidate, gates pass, the epoch promotes — and injected post-soak
//!   attacks sized between the new and old thresholds show the promoted
//!   fleet catching what the stale incumbent would have missed;
//! * **poisoned** — attackers inflate live counts. "Aggressive" hosts
//!   ramp fast enough to trip the boiling-frog guard (the planner falls
//!   back to their pooled group thresholds); "stealthy" hosts ramp
//!   slowly and poison their own refit window, so their candidate
//!   thresholds would silence alarms the incumbent still raises. The
//!   daemon's alarm-drop gate sees exactly that during the soak and
//!   rolls the epoch back; the incumbent fleet state is preserved
//!   byte-for-byte (checked against a run that never attempts a
//!   rollout).
//!
//! Every stream, verdict, and decision is a pure function of the
//! scenario, so the hosts CSV is byte-identical across kill schedules
//! and thread counts.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use faultsim::{poisoned_hosts, KillPoint, RampInject};
use fleetd::{
    DaemonConfig, DaemonError, DaemonStats, EpochOutcome, EpochState, HostState, KillSwitch,
    QueueConfig, Week, WindowBatch,
};
use hids_core::{DriftConfig, Grouping, PartialMethod, Policy, ThresholdHeuristic};
use itconsole::{
    fallback_from_outcome, DeliveryConfig, DeliveryStats, EpochSummary, FleetDriftMonitor,
    RolloutPlanner, RolloutProposal,
};
use tailstats::EmpiricalDist;

use crate::daemon::{RecoveryTotals, RunError};
use crate::report::Table;
use crate::stopwait::{open_daemon, StopAndWait};

/// Everything a rollout run needs besides a scratch directory.
#[derive(Debug, Clone)]
pub struct RolloutScenario {
    /// Fleet size.
    pub n_hosts: u32,
    /// Windows per delivered batch; soak bounds are batch-aligned
    /// multiples of this.
    pub batch_windows: u32,
    /// `true` = poisoned drift (expect rollback), `false` = benign drift
    /// (expect promotion).
    pub poison: bool,
    /// `false` = never plan or submit a rollout: the reference run the
    /// rollback-identity contract is stated against.
    pub attempt_rollout: bool,
    /// Master seed for the aggressive/stealthy host split.
    pub seed: u64,
    /// Test batches that must be fully applied (fleet-wide) before the
    /// planner proposes; `soak_start = propose_after_batches *
    /// batch_windows`.
    pub propose_after_batches: u32,
    /// Soak span in batches.
    pub soak_batches: u32,
    /// Drift detector configuration for the console-side monitor.
    pub drift: DriftConfig,
    /// Daemon configuration.
    pub daemon: DaemonConfig,
    /// Host-side delivery link configuration.
    pub delivery: DeliveryConfig,
    /// Safety valve on harness rounds before declaring a stall.
    pub max_rounds: u64,
    /// Safety valve on daemon lifetimes (1 + number of recoveries).
    pub max_lifetimes: u32,
}

impl Default for RolloutScenario {
    fn default() -> Self {
        Self {
            n_hosts: 9,
            batch_windows: 112,
            poison: false,
            attempt_rollout: true,
            seed: 7,
            propose_after_batches: 2,
            soak_batches: 1,
            drift: DriftConfig::default(),
            daemon: DaemonConfig {
                n_shards: 3,
                snapshot_every: 24,
                queue: QueueConfig {
                    capacity: 64,
                    high: 48,
                    low: 16,
                    // The rollout contract assumes shed-free soaks; age-based
                    // shedding would turn delivery timing into coverage.
                    shed_after: 100_000,
                    quantum: 4,
                },
                ..DaemonConfig::default()
            },
            delivery: DeliveryConfig {
                capacity: 256,
                // The canary barrier defers post-soak batches for the whole
                // soak; with exponential(-ish) backoff the attempt count
                // stays far below this budget, and nothing may expire.
                max_attempts: 40,
                backoff_base: 1,
                jitter_seed: Some(0x5eed_d312),
            },
            max_rounds: 1_000_000,
            max_lifetimes: 64,
        }
    }
}

impl RolloutScenario {
    /// First soak window (inclusive); batch-aligned by construction.
    pub fn soak_start(&self) -> u32 {
        self.propose_after_batches * self.batch_windows
    }

    /// One past the last soak window; batch-aligned by construction.
    pub fn soak_end(&self) -> u32 {
        self.soak_start() + self.soak_batches * self.batch_windows
    }

    /// Baseline activity level for a host (windows/week vary per host so
    /// per-host thresholds genuinely differ).
    fn level(&self, host: u32) -> f64 {
        90.0 + f64::from(host % 4) * 8.0
    }

    /// Hosts on the daemon's canary shards, ascending.
    fn canary_hosts(&self) -> Vec<u32> {
        let canary = self.daemon.rollout.canary_shards.min(self.daemon.n_shards);
        (0..self.n_hosts)
            .filter(|&h| (h as usize % self.daemon.n_shards) < canary)
            .collect()
    }

    /// The aggressive (guard-tripping) poisoned cohort. Seeded, then
    /// adjusted so the narrative is well-posed at any seed: at least one
    /// *stealthy* host sits on a canary shard (the alarm-drop gate needs
    /// a silenced canary host to fire) and at least one aggressive host
    /// exists (so the group-fallback path is exercised).
    pub fn aggressive_hosts(&self) -> BTreeSet<u32> {
        let mut aggressive = poisoned_hosts(self.seed, self.n_hosts, 0.5);
        let canary = self.canary_hosts();
        if let Some(&first) = canary.first() {
            if canary.iter().all(|h| aggressive.contains(h)) {
                aggressive.remove(&first);
            }
            if aggressive.is_empty() {
                if let Some(h) = (0..self.n_hosts).rev().find(|h| Some(h) != canary.first()) {
                    aggressive.insert(h);
                }
            }
        }
        aggressive
    }
}

/// The generated input: batches plus the ground truth needed to judge
/// the outcome.
#[derive(Debug, Clone)]
pub struct RolloutInput {
    /// Batches in round-robin delivery order, per-host seqs from 1.
    pub batches: Vec<WindowBatch>,
    /// Per-host training-week counts (the planner registers trackers
    /// from these).
    pub train: BTreeMap<u32, Vec<u64>>,
    /// Injected post-soak attacks as `(host, window, count)`, sized to
    /// clear a refit threshold but hide under the stale incumbent.
    pub attacks: Vec<(u32, u32, u64)>,
    /// Hosts whose poisoned ramp is aggressive enough to trip the guard.
    pub aggressive: BTreeSet<u32>,
}

/// Generate the scenario's streams. Pure function of the scenario.
pub fn build_input(s: &RolloutScenario) -> RolloutInput {
    let n_windows = s.daemon.n_windows;
    let aggressive = if s.poison {
        s.aggressive_hosts()
    } else {
        BTreeSet::new()
    };

    // Benign drift: activity shrinks 45% over the first 48 test windows.
    let benign = RampInject {
        span: (0, 48),
        from: 1.0,
        to: 0.55,
    };
    // Stealthy poisoning: a fast, small inflation that plateaus before
    // the guard can accumulate a long monotone run — the refit window
    // learns the attacker's plateau.
    let stealthy = RampInject {
        span: (0, 40),
        from: 1.0,
        to: 1.45,
    };
    // Aggressive poisoning: a long strictly-rising ramp on a noiseless
    // baseline — exactly the boiling-frog shape the guard latches on.
    let aggressive_ramp = RampInject {
        span: (0, 160),
        from: 1.0,
        to: 3.0,
    };

    let mut train: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    let mut test: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    let mut attacks = Vec::new();
    for host in 0..s.n_hosts {
        let level = s.level(host);
        let noisy = |w: u32| level + f64::from(w % 7);
        let train_counts: Vec<u64> = (0..n_windows).map(|w| noisy(w).round() as u64).collect();
        let mut test_counts: Vec<u64> = (0..n_windows)
            .map(|w| {
                if !s.poison {
                    benign.apply(w, noisy(w).round() as u64)
                } else if aggressive.contains(&host) {
                    aggressive_ramp.apply(w, level.round() as u64)
                } else {
                    stealthy.apply(w, noisy(w).round() as u64)
                }
            })
            .collect();
        if !s.poison {
            // Post-soak attacks: above any refit of the drifted-down
            // window, below the stale incumbent (≈ level + 6).
            let count = (0.9 * level).round() as u64;
            let mut w = s.soak_end() + s.batch_windows;
            while w < n_windows {
                test_counts[w as usize] = count;
                attacks.push((host, w, count));
                w += 16;
            }
        }
        train.insert(host, train_counts);
        test.insert(host, test_counts);
    }

    // Batch both weeks per host, then interleave round-robin (as in
    // `crate::daemon::build_batches`, over synthetic streams).
    let width = s.batch_windows.max(1) as usize;
    let mut per_host: Vec<Vec<WindowBatch>> = Vec::new();
    for host in 0..s.n_hosts {
        let mut seq = 0u64;
        let mut list = Vec::new();
        for (week, counts) in [(Week::Train, &train[&host]), (Week::Test, &test[&host])] {
            for chunk_start in (0..counts.len()).step_by(width) {
                let end = (chunk_start + width).min(counts.len());
                seq += 1;
                list.push(WindowBatch {
                    host,
                    seq,
                    week,
                    start: chunk_start as u32,
                    counts: counts[chunk_start..end].to_vec(),
                    poison: false,
                });
            }
        }
        per_host.push(list);
    }
    let max_len = per_host.iter().map(Vec::len).max().unwrap_or(0);
    let mut batches = Vec::new();
    for i in 0..max_len {
        for list in &per_host {
            if let Some(b) = list.get(i) {
                batches.push(b.clone());
            }
        }
    }
    RolloutInput {
        batches,
        train,
        attacks,
        aggressive,
    }
}

/// Build the console-side planner for an input: one drift tracker per
/// host (against its training distribution), P99 refit, and pooled
/// group-threshold fallbacks from the partial-diversity policy.
pub fn build_planner(s: &RolloutScenario, input: &RolloutInput) -> RolloutPlanner {
    let mut monitor = FleetDriftMonitor::new(s.drift);
    let host_ids: Vec<u32> = input.train.keys().copied().collect();
    let dists: Vec<EmpiricalDist> = host_ids
        .iter()
        .map(|h| EmpiricalDist::from_counts(&input.train[h]))
        .collect();
    for (h, d) in host_ids.iter().zip(&dists) {
        monitor.register_host(*h, d);
    }
    let policy = Policy {
        grouping: Grouping::Partial(PartialMethod::EIGHT_PARTIAL),
        heuristic: ThresholdHeuristic::P99,
    };
    let outcome = policy.configure(&dists);
    let fallback = fallback_from_outcome(&host_ids, &outcome);
    RolloutPlanner::new(
        monitor,
        ThresholdHeuristic::P99,
        fallback,
        s.soak_batches * s.batch_windows,
    )
}

/// The result of driving one rollout scenario to quiescence.
#[derive(Debug)]
pub struct RolloutRun {
    /// Final per-host state, ordered by host id.
    pub hosts: Vec<(u32, HostState)>,
    /// Final epoch lifecycle state (candidate resolved, history filled).
    pub epoch: EpochState,
    /// The proposal that was submitted, if any.
    pub proposal: Option<RolloutProposal>,
    /// Daemon counters from the final lifetime.
    pub stats: DaemonStats,
    /// Delivery-link counters summed over lifetimes.
    pub delivery: DeliveryStats,
    /// Restart/recovery evidence.
    pub recovery: RecoveryTotals,
    /// Batches the delivery link gave up on (must be 0).
    pub lost_batches: u64,
    /// Injected attacks (benign scenario only).
    pub n_attacks: u64,
    /// Attacks missed under each host's final *effective* thresholds.
    pub fn_effective: u64,
    /// Attacks missed under the stale incumbent thresholds.
    pub fn_stale: u64,
    /// Lifetime batches applied, metered by the kill switch.
    pub total_applied: u64,
    /// Lifetime WAL bytes appended, metered by the kill switch.
    pub total_wal_bytes: u64,
    /// Lifetime rollout transition records journaled.
    pub total_rollout_events: u64,
}

/// Drive `input` through a daemon rooted at `dir`, planning and
/// submitting a rollout alongside delivery, killing and recovering at
/// each scheduled point.
pub fn run(
    dir: &Path,
    s: &RolloutScenario,
    input: &RolloutInput,
    kills: &[KillPoint],
) -> Result<RolloutRun, RunError> {
    let mut sw = StopAndWait::new(&input.batches, s.delivery);
    let soak_start = s.soak_start();

    let mut kill = KillSwitch::none();
    let mut kill_iter = kills.iter().copied();
    kill.rearm(kill_iter.next());

    // Console-side planner state, which must survive daemon restarts the
    // way a real console process outlives a daemon crash: counts feed
    // the monitor exactly once per (host, seq), in per-host seq order
    // (guaranteed by stop-and-wait delivery).
    let mut planner = build_planner(s, input);
    let mut fed: BTreeSet<(u32, u64)> = BTreeSet::new();
    let mut fed_windows: BTreeMap<u32, u64> = (0..s.n_hosts).map(|h| (h, 0)).collect();
    let mut proposal: Option<RolloutProposal> = None;
    let mut submitted = false;
    let mut decided = false;

    let mut recovery = RecoveryTotals::default();
    let mut rounds = 0u64;

    'lifetime: loop {
        let mut daemon = open_daemon(dir, s.daemon, &mut recovery, s.max_lifetimes)?;

        // Reconcile the orchestrator with what the daemon made durable:
        // a journaled decision ends the lifecycle; a journaled Begin
        // means the submission stuck; a submission this harness made
        // that is in *neither* place was a torn Begin — resubmit it.
        if s.attempt_rollout {
            let es = daemon.epoch_state();
            if !es.history.is_empty() {
                decided = true;
            } else if es.candidate.is_some() {
                submitted = true;
            } else if submitted {
                submitted = false;
            }
        }
        sw.begin_lifetime();

        loop {
            rounds += 1;
            if rounds > s.max_rounds {
                return Err(RunError::Stalled("round budget exhausted"));
            }

            // Plan: once the pre-soak prefix is fully applied fleet-wide
            // the monitor's verdicts are final, and the soak windows are
            // still undelivered (held back below) — submit the proposal.
            if s.attempt_rollout && !decided && !submitted {
                if proposal.is_none() && fed_windows.values().all(|&w| w >= u64::from(soak_start)) {
                    proposal = planner.propose(soak_start);
                }
                if let Some(p) = &proposal {
                    match daemon.begin_rollout(p.soak_start, p.soak_end, p.plan.thresholds.clone(), &mut kill) {
                        Ok(_) => {
                            submitted = true;
                            planner.mark_submitted();
                        }
                        Err(DaemonError::Killed) => {
                            submitted = true; // resolved against durable state on reopen
                            recovery.kills += 1;
                            kill.rearm(kill_iter.next());
                            continue 'lifetime;
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
            }

            // Feed: while a proposal is pending, hold back test batches
            // that would consume soak windows before the daemon knows a
            // candidate exists.
            let holdback_active = s.attempt_rollout && !decided && !submitted;
            let held =
                |b: &WindowBatch| holdback_active && b.week == Week::Test && b.start >= soak_start;
            if sw.feed(held) && daemon.queued_total() == 0 {
                let hosts: Vec<(u32, HostState)> = daemon
                    .hosts()
                    .into_iter()
                    .map(|(h, st)| (h, st.clone()))
                    .collect();
                let (fn_effective, fn_stale) = count_misses(&hosts, &input.attacks);
                return Ok(RolloutRun {
                    hosts,
                    epoch: daemon.epoch_state().clone(),
                    proposal,
                    stats: *daemon.stats(),
                    delivery: sw.delivery(),
                    recovery,
                    lost_batches: sw.lost_batches(),
                    n_attacks: input.attacks.len() as u64,
                    fn_effective,
                    fn_stale,
                    total_applied: kill.applied_batches(),
                    total_wal_bytes: kill.wal_bytes(),
                    total_rollout_events: kill.rollout_events(),
                });
            }

            // Deliver: backpressure and the canary barrier both read as
            // "not now, retry later" to the link.
            let completions = match sw.deliver_round(&mut daemon, &mut kill) {
                Ok(c) => c,
                Err(DaemonError::Killed) => {
                    recovery.kills += 1;
                    kill.rearm(kill_iter.next());
                    continue 'lifetime;
                }
                Err(e) => return Err(e.into()),
            };
            if s.attempt_rollout && !decided && !daemon.epoch_state().history.is_empty() {
                decided = true;
            }

            // Applied (or previously-applied) test batches feed the drift
            // monitor, exactly once each.
            for c in completions {
                if !matches!(
                    c.disposition,
                    fleetd::Disposition::Applied | fleetd::Disposition::Duplicate
                ) || !fed.insert((c.host, c.seq))
                {
                    continue;
                }
                if let Some(b) = sw.batch(c.host, c.seq).filter(|b| b.week == Week::Test) {
                    for &count in &b.counts {
                        planner.observe(b.host, count);
                    }
                    *fed_windows.entry(b.host).or_insert(0) += b.counts.len() as u64;
                }
            }
        }
    }
}

/// Misses over the injected attacks under (a) each host's final
/// effective thresholds and (b) the stale incumbent alone.
fn count_misses(hosts: &[(u32, HostState)], attacks: &[(u32, u32, u64)]) -> (u64, u64) {
    let by_id: BTreeMap<u32, &HostState> = hosts.iter().map(|(h, st)| (*h, st)).collect();
    let mut fn_effective = 0u64;
    let mut fn_stale = 0u64;
    for &(host, w, count) in attacks {
        let Some(st) = by_id.get(&host) else { continue };
        let c = count as f64;
        if !st.effective_threshold(w).is_some_and(|t| c > t) {
            fn_effective += 1;
        }
        if !st.threshold.is_some_and(|t| c > t) {
            fn_stale += 1;
        }
    }
    (fn_effective, fn_stale)
}

impl RolloutRun {
    /// Convert the daemon's epoch history into the console's summary
    /// form (see [`itconsole::render_history`]).
    pub fn epoch_summaries(&self) -> Vec<EpochSummary> {
        self.epoch
            .history
            .iter()
            .map(|r| EpochSummary {
                epoch: r.epoch,
                rolled_back: match r.outcome {
                    EpochOutcome::Promoted => None,
                    EpochOutcome::RolledBack(reason) => Some(reason.to_string()),
                },
                windows: r.stats.windows,
                expected_windows: r.expected_windows,
                incumbent_alarms: r.stats.incumbent_alarms,
                candidate_alarms: r.stats.candidate_alarms,
            })
            .collect()
    }

    /// Cross-check the run against the scenario's scripted narrative.
    pub fn check(&self, s: &RolloutScenario) -> Result<(), String> {
        if self.lost_batches != 0 {
            return Err(format!("{} batches lost to retry expiry", self.lost_batches));
        }
        if !self.stats.conservation_holds(0) {
            return Err("final-lifetime conservation violated".to_string());
        }
        if !s.attempt_rollout {
            if !self.epoch.history.is_empty() || self.epoch.candidate.is_some() {
                return Err("reference run must never see an epoch".to_string());
            }
            return Ok(());
        }
        if self.epoch.candidate.is_some() {
            return Err("candidate left unresolved at quiescence".to_string());
        }
        let [record] = &self.epoch.history[..] else {
            return Err(format!(
                "expected exactly one epoch, got {}",
                self.epoch.history.len()
            ));
        };
        let Some(p) = &self.proposal else {
            return Err("no proposal was submitted".to_string());
        };
        if s.poison {
            if record.outcome != EpochOutcome::RolledBack(fleetd::RollbackReason::AlarmDrop) {
                return Err(format!("expected alarm-drop rollback, got {:?}", record.outcome));
            }
            if self.hosts.iter().any(|(_, st)| st.promoted.is_some()) {
                return Err("rollback must not leave promoted overrides".to_string());
            }
            if p.plan.fallback_hosts.is_empty() {
                return Err("no host exercised the group-threshold fallback".to_string());
            }
            if !p.plan.skipped_hosts.is_empty() {
                return Err(format!(
                    "hosts dropped from the plan entirely: {:?}",
                    p.plan.skipped_hosts
                ));
            }
        } else {
            if record.outcome != EpochOutcome::Promoted {
                return Err(format!("expected promotion, got {:?}", record.outcome));
            }
            for (h, st) in &self.hosts {
                let want = p.plan.thresholds.get(h);
                let got = st.promoted;
                match (want, got) {
                    (Some(&t), Some((from, pt))) if from == p.soak_end && pt == t => {}
                    _ => {
                        return Err(format!(
                            "host {h}: promoted override {got:?} != plan {want:?} at {}",
                            p.soak_end
                        ))
                    }
                }
            }
            if !p.plan.fallback_hosts.is_empty() || !p.plan.skipped_hosts.is_empty() {
                return Err("benign plan must be all-refit".to_string());
            }
            if self.fn_effective >= self.fn_stale {
                return Err(format!(
                    "promotion must cut attack misses: effective {} vs stale {}",
                    self.fn_effective, self.fn_stale
                ));
            }
        }
        Ok(())
    }
}

/// The per-host output table — the byte-identity witness for both the
/// rollback contract and the crash-recovery contract. Floats use Rust's
/// shortest-roundtrip `Display`.
pub fn hosts_table(run: &RolloutRun) -> Table {
    let mut t = Table::new(
        "rollout — per-host threshold lifecycle",
        &[
            "host",
            "last_seq",
            "incumbent",
            "promoted_from",
            "promoted_thresh",
            "live_alarms",
            "train_windows",
            "test_windows",
        ],
    );
    for (host, st) in &run.hosts {
        let (from, pt) = match st.promoted {
            Some((from, t)) => (from.to_string(), format!("{t}")),
            None => ("-".to_string(), "-".to_string()),
        };
        t.row(vec![
            host.to_string(),
            st.last_seq.to_string(),
            st.threshold.map_or_else(|| "-".to_string(), |t| format!("{t}")),
            from,
            pt,
            st.live_alarms.to_string(),
            st.train.len().to_string(),
            st.test.len().to_string(),
        ]);
    }
    t
}

/// The hosts CSV (see [`hosts_table`]).
pub fn hosts_csv(run: &RolloutRun) -> String {
    hosts_table(run).to_csv()
}

/// Epoch history as a table (the operator-facing text form comes from
/// [`itconsole::render_history`] over [`RolloutRun::epoch_summaries`]).
pub fn epochs_table(run: &RolloutRun) -> Table {
    let mut t = Table::new(
        "rollout — epoch history",
        &[
            "epoch",
            "outcome",
            "soak_windows",
            "expected",
            "incumbent_alarms",
            "candidate_alarms",
        ],
    );
    for e in run.epoch_summaries() {
        t.row(vec![
            e.epoch.to_string(),
            e.rolled_back
                .map_or_else(|| "promoted".to_string(), |r| format!("rolled-back [{r}]")),
            e.windows.to_string(),
            e.expected_windows.to_string(),
            e.incumbent_alarms.to_string(),
            e.candidate_alarms.to_string(),
        ]);
    }
    t
}

/// Lifecycle and recovery counters for one run.
pub fn ops_table(run: &RolloutRun) -> Table {
    let mut t = Table::new("rollout — operational counters", &["counter", "value"]);
    let plan = run.proposal.as_ref().map(|p| &p.plan);
    let rows: Vec<(&str, String)> = vec![
        ("lifetimes", run.recovery.lifetimes.to_string()),
        ("kills", run.recovery.kills.to_string()),
        ("snapshots_loaded", run.recovery.snapshots_loaded.to_string()),
        (
            "snapshots_discarded",
            run.recovery.snapshots_discarded.to_string(),
        ),
        ("wal_frames_replayed", run.recovery.wal_replayed.to_string()),
        ("wal_torn_bytes", run.recovery.wal_torn_bytes.to_string()),
        ("rollout_events", run.total_rollout_events.to_string()),
        ("barrier_deferred", run.stats.barrier_deferred.to_string()),
        (
            "plan_refit_hosts",
            plan.map_or(0, |p| p.refit_hosts.len()).to_string(),
        ),
        (
            "plan_fallback_hosts",
            plan.map_or(0, |p| p.fallback_hosts.len()).to_string(),
        ),
        (
            "plan_skipped_hosts",
            plan.map_or(0, |p| p.skipped_hosts.len()).to_string(),
        ),
        ("attacks_injected", run.n_attacks.to_string()),
        ("attack_misses_effective", run.fn_effective.to_string()),
        ("attack_misses_stale", run.fn_stale.to_string()),
        ("delivery_retries", run.delivery.retries.to_string()),
        ("lost_batches", run.lost_batches.to_string()),
    ];
    for (k, v) in rows {
        t.row(vec![k.to_string(), v]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::unique_run_dir;

    fn run_scenario(s: &RolloutScenario, tag: &str, kills: &[KillPoint]) -> RolloutRun {
        let input = build_input(s);
        let dir = unique_run_dir(tag);
        let out = run(&dir, s, &input, kills).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        out
    }

    #[test]
    fn benign_drift_promotes_and_cuts_attack_misses() {
        let s = RolloutScenario::default();
        let run = run_scenario(&s, "benign", &[]);
        run.check(&s).unwrap();
        assert_eq!(run.recovery.lifetimes, 1);
        assert_eq!(run.epoch.history.len(), 1);
        assert_eq!(run.fn_effective, 0, "promoted fleet catches every attack");
        assert_eq!(run.fn_stale, run.n_attacks, "stale incumbent misses every attack");
        assert!(run.n_attacks > 0);
        let text = itconsole::render_history(&run.epoch_summaries());
        assert!(text.starts_with("epoch 1: promoted"), "got: {text}");
    }

    #[test]
    fn poisoned_drift_rolls_back_and_matches_untouched_reference() {
        let s = RolloutScenario {
            poison: true,
            ..RolloutScenario::default()
        };
        let rolled = run_scenario(&s, "poisoned", &[]);
        rolled.check(&s).unwrap();
        let text = itconsole::render_history(&rolled.epoch_summaries());
        assert!(text.contains("rolled-back [alarm-drop]"), "got: {text}");

        let reference = RolloutScenario {
            attempt_rollout: false,
            ..s.clone()
        };
        let untouched = run_scenario(&reference, "poisoned-ref", &[]);
        untouched.check(&reference).unwrap();
        assert_eq!(
            hosts_csv(&rolled),
            hosts_csv(&untouched),
            "rollback must restore the incumbent fleet byte-for-byte"
        );
    }

    #[test]
    fn plan_provenance_matches_the_poisoning_split() {
        let s = RolloutScenario {
            poison: true,
            ..RolloutScenario::default()
        };
        let input = build_input(&s);
        let run = run_scenario(&s, "provenance", &[]);
        let plan = &run.proposal.as_ref().unwrap().plan;
        let aggressive: Vec<u32> = input.aggressive.iter().copied().collect();
        assert_eq!(plan.fallback_hosts, aggressive, "guard-tripped hosts fall back");
        let stealthy: Vec<u32> = (0..s.n_hosts)
            .filter(|h| !input.aggressive.contains(h))
            .collect();
        assert_eq!(plan.refit_hosts, stealthy, "stealthy hosts poison their refit");
    }

    #[test]
    fn kill_at_every_epoch_boundary_recovers_identically() {
        let s = RolloutScenario::default();
        let input = build_input(&s);
        let dir = unique_run_dir("rollout-ref");
        let reference = run(&dir, &s, &input, &[]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let ref_csv = hosts_csv(&reference);
        assert_eq!(reference.total_rollout_events, 2);

        for n in 1..=2u32 {
            let dir = unique_run_dir("rollout-kill");
            let killed = run(&dir, &s, &input, &[KillPoint::AfterRolloutEvents(n)]).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            assert_eq!(killed.recovery.kills, 1, "kill point {n} never fired");
            killed.check(&s).unwrap();
            assert_eq!(hosts_csv(&killed), ref_csv, "kill point {n}");
        }
    }
}
