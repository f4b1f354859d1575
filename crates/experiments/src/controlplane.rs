//! Control-plane scenario: a scripted operator timeline — drain, pin,
//! undrain, canary rollout, operator force-rollback, then a valid and an
//! invalid hot config reload — driven over the same unreliable-delivery
//! crash-recovery harness as `repro daemon`.
//!
//! The scenario is staged: the input stream is split into segments with a
//! quiescent barrier between them (every batch of a segment reaches a
//! terminal outcome before the next operator action fires). Quiescent
//! points are deterministic states, so the operator actions land on
//! exactly the same host-table prefix in every timeline — which is what
//! lets the headline contract extend to the control plane: a run killed
//! at arbitrary batch boundaries, WAL byte offsets (including torn
//! mid-command-record writes), and post-command ack windows produces a
//! hosts CSV byte-identical to an uninterrupted run.
//!
//! Crash-resume discipline for the operator script: the harness keeps a
//! stage/action cursor across daemon lifetimes and, before re-issuing an
//! action after a crash, checks its *durable* effect (is the shard in the
//! snapshot's drain set? is the pin in the replayed host table? did the
//! rollback land in the epoch history?). Journaled commands are
//! idempotent, so "issued but unacknowledged" resolves safely either way
//! — exactly the operator's own retry rule.

use std::collections::BTreeMap;
use std::path::Path;

use faultsim::KillPoint;
use fleetd::{
    Admit, ControlCommand, Daemon, DaemonConfig, DaemonError, DaemonStats, EpochOutcome,
    HostState, KillSwitch, RollbackReason, Week, WindowBatch,
};
use flowtab::FeatureKind;
use hids_core::degraded::DegradedEvaluation;
use hids_metrics::Registry;
use itconsole::{DeliveryConfig, DeliveryStats};

use crate::daemon::{RecoveryTotals, RunError};
use crate::report::Table;
use crate::stopwait::{sum_delivery, Restarts, StopAndWait};

/// Everything the control-plane scenario needs besides a directory.
#[derive(Debug, Clone)]
pub struct ControlScenario {
    /// Feature streamed to the daemon.
    pub feature: FeatureKind,
    /// Windows per batch.
    pub batch_windows: usize,
    /// Coverage floor for the final degraded evaluation.
    pub min_coverage: f64,
    /// Daemon configuration.
    pub daemon: DaemonConfig,
    /// Host-side delivery link configuration.
    pub delivery: DeliveryConfig,
    /// Shard drained (and later undrained) by the operator script.
    pub drain_shard: u32,
    /// Host pinned by the operator script (must route to `drain_shard`
    /// so the refused-admission probe and the pin exercise one shard).
    pub pin_host: u32,
    /// Pinned threshold: far above any count, so the pinned host's test
    /// week provably evaluates under the pin (zero live alarms).
    pub pin_threshold: f64,
    /// Soak window range for the canary rollout that the script starts
    /// and then force-rolls-back mid-soak.
    pub soak_start: u32,
    /// End of the soak window range (exclusive, ≤ `n_windows`).
    pub soak_end: u32,
    /// Safety valve on harness rounds before declaring a stall.
    pub max_rounds: u64,
    /// Safety valve on daemon lifetimes (1 + number of recoveries).
    pub max_lifetimes: u32,
}

impl Default for ControlScenario {
    fn default() -> Self {
        let base = crate::daemon::DaemonScenario::default();
        Self {
            feature: FeatureKind::TcpConnections,
            batch_windows: 168,
            min_coverage: 0.1,
            daemon: DaemonConfig::default(),
            delivery: base.delivery,
            drain_shard: 1,
            pin_host: 1,
            pin_threshold: 1.0e12,
            soak_start: 336,
            soak_end: 672,
            max_rounds: 1_000_000,
            max_lifetimes: 64,
        }
    }
}

/// One step of the operator script, issued at a quiescent barrier.
#[derive(Debug, Clone)]
enum Action {
    /// A journaled operator command.
    Command(ControlCommand),
    /// Offer one batch of a drained-shard host out of band and record
    /// that admission was refused (the drain evidence).
    ProbeDrained(WindowBatch),
    /// Start the canary rollout (candidate thresholds derived from the
    /// fitted incumbents at this barrier — deterministic).
    BeginRollout,
    /// Hot-apply a config with changed live-appliable fields.
    ReloadValid,
    /// Attempt a structurally-changed config; must be rejected with the
    /// old generation provably live.
    ReloadInvalid,
}

/// Operator-script evidence accumulated across lifetimes.
#[derive(Debug, Default, Clone)]
pub struct ControlEvidence {
    /// The drained shard refused an out-of-band admission probe.
    pub drain_refused: bool,
    /// Generation returned by the accepted reload (2 in the lifetime it
    /// lands in: generations restart at 1 per process start).
    pub generation_after_reload: u64,
    /// Rejection reason from the invalid reload.
    pub invalid_reload_error: Option<String>,
    /// After the rejected reload, the previously-applied live value was
    /// still in force (old generation provably live).
    pub invalid_reload_kept_old: bool,
    /// A `config_rejected` event landed in the daemon's event ring.
    pub config_rejected_event: bool,
    /// The epoch history records an operator-reason rollback.
    pub rollback_operator: bool,
}

/// The result of driving the scripted timeline to quiescence.
#[derive(Debug)]
pub struct ControlRun {
    /// Final per-host state, ordered by host id.
    pub hosts: Vec<(u32, HostState)>,
    /// Degraded evaluation over the final host table.
    pub evaluation: Option<DegradedEvaluation>,
    /// Daemon counters from the final lifetime.
    pub stats: DaemonStats,
    /// Delivery-link counters summed over lifetimes.
    pub delivery: DeliveryStats,
    /// Restart/recovery evidence.
    pub recovery: RecoveryTotals,
    /// Operator-script evidence.
    pub evidence: ControlEvidence,
    /// Batches the delivery link gave up on.
    pub lost_batches: u64,
    /// Lifetime batches applied, as metered by the kill switch.
    pub total_applied: u64,
    /// Lifetime WAL bytes appended, as metered by the kill switch.
    pub total_wal_bytes: u64,
    /// Lifetime operator commands journaled, as metered by the kill
    /// switch (the `max_commands` axis for command kill schedules).
    pub total_commands: u64,
    /// Windows per week the scenario ran with.
    pub n_windows: u32,
    /// Coverage floor used for the evaluation.
    pub min_coverage: f64,
    /// Metrics snapshot from the final daemon lifetime (includes the
    /// `control_*` families).
    pub metrics: Registry,
}

/// Split the input stream into the script's four delivery segments:
/// training week; pre-soak test windows; mid-soak test windows (enough to
/// soak but not to complete it); and the post-rollback remainder.
fn segments(scenario: &ControlScenario, batches: &[WindowBatch]) -> [Vec<WindowBatch>; 4] {
    let mid = scenario.soak_start + (scenario.soak_end - scenario.soak_start) / 2;
    let mut segs: [Vec<WindowBatch>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for b in batches {
        let end = b.start + b.counts.len() as u32;
        let idx = match b.week {
            Week::Train => 0,
            Week::Test if end <= scenario.soak_start => 1,
            Week::Test if end <= mid => 2,
            Week::Test => 3,
        };
        segs[idx].push(b.clone());
    }
    segs
}

/// The per-stage operator actions (indexed in lockstep with the
/// segments: stage `k`'s actions fire once segment `k` is quiescent).
fn stage_actions(scenario: &ControlScenario, segs: &[Vec<WindowBatch>; 4]) -> [Vec<Action>; 4] {
    // The admission probe offers the drained host's *next* undelivered
    // batch: its first test batch (segment 1 carries it later, so the
    // probe refusal costs nothing).
    let probe = segs[1]
        .iter()
        .find(|b| b.host == scenario.pin_host)
        .or_else(|| segs[2].iter().find(|b| b.host == scenario.pin_host))
        .or_else(|| segs[3].iter().find(|b| b.host == scenario.pin_host))
        .cloned();
    let mut stage0 = vec![Action::Command(ControlCommand::DrainShard {
        shard: scenario.drain_shard,
    })];
    if let Some(b) = probe {
        stage0.push(Action::ProbeDrained(b));
    }
    stage0.push(Action::Command(ControlCommand::PinThreshold {
        host: scenario.pin_host,
        t: scenario.pin_threshold,
    }));
    stage0.push(Action::Command(ControlCommand::UndrainShard {
        shard: scenario.drain_shard,
    }));
    [
        stage0,
        vec![Action::BeginRollout],
        vec![Action::Command(ControlCommand::ForceRollback)],
        vec![Action::ReloadValid, Action::ReloadInvalid],
    ]
}

/// Has this action's durable effect already landed (so a crash-resume
/// must skip it instead of re-issuing)?
fn action_done(daemon: &Daemon, action: &Action) -> bool {
    match action {
        Action::Command(ControlCommand::DrainShard { shard }) => {
            daemon.drained_shards().contains(shard)
        }
        Action::Command(ControlCommand::UndrainShard { shard }) => {
            !daemon.drained_shards().contains(shard)
        }
        Action::Command(ControlCommand::PinThreshold { host, t }) => daemon
            .hosts()
            .get(host)
            .is_some_and(|st| st.pinned.map(f64::to_bits) == Some(t.to_bits())),
        Action::Command(ControlCommand::ForceRollback) => {
            !daemon.epoch_state().history.is_empty()
        }
        Action::BeginRollout => {
            daemon.epoch_state().candidate.is_some()
                || !daemon.epoch_state().history.is_empty()
        }
        // The probe is side-effect-free and reloads are not durable
        // (the config file is the durable source): always (re-)run.
        Action::ProbeDrained(_) | Action::ReloadValid | Action::ReloadInvalid => false,
    }
}

/// The accepted reload: live-appliable fields changed, everything
/// structural untouched.
fn valid_reload(base: &DaemonConfig) -> DaemonConfig {
    let mut cfg = *base;
    cfg.snapshot_every = base.snapshot_every.saturating_mul(2) | 1;
    cfg.supervisor.breaker_failures = base.supervisor.breaker_failures.saturating_add(1);
    cfg
}

/// The rejected reload: a structural field changed (shard routing).
fn invalid_reload(base: &DaemonConfig) -> DaemonConfig {
    let mut cfg = valid_reload(base);
    cfg.n_shards += 1;
    cfg
}

/// Issue one operator action against the live daemon. `Ok(true)` means
/// the action completed; `Err(Killed)` ends the lifetime.
fn issue(
    daemon: &mut Daemon,
    kill: &mut KillSwitch,
    scenario: &ControlScenario,
    action: &Action,
    evidence: &mut ControlEvidence,
) -> Result<(), DaemonError> {
    match action {
        Action::Command(cmd) => daemon.command(cmd.clone(), kill),
        Action::ProbeDrained(batch) => {
            if daemon.offer(batch.clone()) == Admit::Overflow {
                evidence.drain_refused = true;
            }
            Ok(())
        }
        Action::BeginRollout => {
            let thresholds: BTreeMap<u32, f64> = daemon
                .hosts()
                .iter()
                .filter_map(|(&h, st)| st.threshold.map(|t| (h, t * 1.01)))
                .collect();
            daemon
                .begin_rollout(scenario.soak_start, scenario.soak_end, thresholds, kill)
                .map(|_| ())
        }
        Action::ReloadValid => {
            let generation = daemon.reload(&valid_reload(&scenario.daemon))?;
            evidence.generation_after_reload = generation;
            Ok(())
        }
        Action::ReloadInvalid => {
            let live_before = daemon.config().snapshot_every;
            match daemon.reload(&invalid_reload(&scenario.daemon)) {
                Ok(_) => {
                    evidence.invalid_reload_error = None;
                }
                Err(e) => {
                    evidence.invalid_reload_error = Some(e.to_string());
                    evidence.invalid_reload_kept_old =
                        daemon.config().snapshot_every == live_before;
                    evidence.config_rejected_event =
                        daemon.events().contains("fleetd.control", "config_rejected");
                }
            }
            Ok(())
        }
    }
}

/// Drive the scripted timeline through a daemon rooted at `dir`, killing
/// and recovering at each scheduled point, until every segment is
/// delivered and every operator action has landed.
pub fn run(
    dir: &Path,
    scenario: &ControlScenario,
    batches: &[WindowBatch],
    kills: &[KillPoint],
) -> Result<ControlRun, RunError> {
    let segs = segments(scenario, batches);
    let actions = stage_actions(scenario, &segs);
    // One driver per segment; segments partition the stream, so their
    // lost and delivery counters add up to the run's.
    let mut drivers: Vec<StopAndWait> = segs
        .iter()
        .map(|seg| StopAndWait::new(seg, scenario.delivery))
        .collect();

    let mut kill = KillSwitch::scheduled(kills.iter().copied());
    let mut evidence = ControlEvidence::default();

    // The operator-script cursor: survives lifetimes; actions are only
    // re-issued when their durable effect is absent.
    let mut stage_idx = 0usize;
    let mut action_idx = 0usize;

    Restarts::new(scenario.max_rounds, scenario.max_lifetimes).run(|r| {
        let mut daemon = r.open_daemon(dir, scenario.daemon)?;

        while stage_idx < segs.len() {
            // Deliver this segment to quiescence on a fresh link.
            let sw = &mut drivers[stage_idx];
            sw.begin_lifetime();
            loop {
                r.round()?;
                if sw.feed(|_| false) && daemon.queued_total() == 0 {
                    break;
                }
                sw.deliver_round(&mut daemon, &mut kill)?;
            }

            // Quiescent barrier reached: run this stage's remaining
            // operator actions, skipping any whose durable effect a
            // previous (killed) lifetime already landed.
            while action_idx < actions[stage_idx].len() {
                let action = &actions[stage_idx][action_idx];
                if !action_done(&daemon, action) {
                    issue(&mut daemon, &mut kill, scenario, action, &mut evidence)?;
                }
                action_idx += 1;
            }
            stage_idx += 1;
            action_idx = 0;
        }

        // Every segment delivered, every action landed: collect.
        evidence.rollback_operator =
            daemon.epoch_state().history.first().is_some_and(|rec| {
                rec.outcome == EpochOutcome::RolledBack(RollbackReason::Operator)
            });
        let hosts = crate::daemon::host_states(&daemon);
        let evaluation = crate::daemon::evaluate_hosts(
            &hosts,
            scenario.feature,
            scenario.daemon.n_windows as usize,
            scenario.min_coverage,
        );
        let delivery = drivers
            .iter()
            .map(StopAndWait::delivery)
            .fold(DeliveryStats::default(), sum_delivery);
        let mut metrics = Registry::new();
        daemon.export_metrics(&mut metrics);
        delivery.export_metrics(&mut metrics, "controlplane_link");
        if let Some(eval) = &evaluation {
            eval.export_metrics(&mut metrics);
        }
        Ok(ControlRun {
            hosts,
            evaluation,
            stats: *daemon.stats(),
            delivery,
            recovery: r.totals,
            evidence: std::mem::take(&mut evidence),
            lost_batches: drivers.iter().map(StopAndWait::lost_batches).sum(),
            total_applied: kill.applied_batches(),
            total_wal_bytes: kill.wal_bytes(),
            total_commands: kill.commands(),
            n_windows: scenario.daemon.n_windows,
            min_coverage: scenario.min_coverage,
            metrics,
        })
    })
}

/// The per-host output table — the byte-identity witness shared (column
/// for column) with the daemon and cluster harnesses.
pub fn hosts_table(run: &ControlRun) -> Table {
    crate::daemon::hosts_table_titled(
        "controlplane — per-host evaluation under the operator script",
        &run.hosts,
        run.evaluation.as_ref(),
        run.n_windows,
    )
}

/// The hosts CSV — the byte-identity witness for the recovery contract.
pub fn hosts_csv(run: &ControlRun) -> String {
    hosts_table(run).to_csv()
}

/// Operator-script and recovery evidence, one row per claim.
pub fn evidence_table(run: &ControlRun) -> Table {
    let mut t = Table::new("controlplane — operator-script evidence", &["claim", "value"]);
    let e = &run.evidence;
    let rows: Vec<(&str, String)> = vec![
        ("drain_refused_admission", e.drain_refused.to_string()),
        ("rollback_reason_operator", e.rollback_operator.to_string()),
        (
            "reload_generation",
            e.generation_after_reload.to_string(),
        ),
        (
            "invalid_reload_rejected",
            e.invalid_reload_error.is_some().to_string(),
        ),
        (
            "invalid_reload_kept_old_config",
            e.invalid_reload_kept_old.to_string(),
        ),
        (
            "config_rejected_event",
            e.config_rejected_event.to_string(),
        ),
        ("commands_journaled", run.total_commands.to_string()),
        ("lifetimes", run.recovery.lifetimes.to_string()),
        ("kills", run.recovery.kills.to_string()),
        ("wal_frames_replayed", run.recovery.wal_replayed.to_string()),
        ("wal_torn_bytes", run.recovery.wal_torn_bytes.to_string()),
        ("lost_batches", run.lost_batches.to_string()),
    ];
    for (k, v) in rows {
        t.row(vec![k.to_string(), v]);
    }
    t
}

impl ControlRun {
    /// Cross-check the run's own claims: every scripted effect observed,
    /// nothing lost, the pinned host provably evaluated under its pin.
    pub fn check(&self, scenario: &ControlScenario) -> Result<(), String> {
        if !self.stats.conservation_holds(0) {
            return Err("conservation violated in final lifetime".into());
        }
        if self.lost_batches != 0 {
            return Err(format!("{} batches lost", self.lost_batches));
        }
        let e = &self.evidence;
        if !e.drain_refused {
            return Err("drained shard accepted an admission probe".into());
        }
        if !e.rollback_operator {
            return Err("epoch history lacks the operator rollback".into());
        }
        if e.generation_after_reload < 2 {
            return Err(format!(
                "accepted reload did not bump the generation (got {})",
                e.generation_after_reload
            ));
        }
        match &e.invalid_reload_error {
            None => return Err("structural reload was not rejected".into()),
            Some(msg) if !msg.contains("restart") => {
                return Err(format!("rejection reason is not structural: {msg}"))
            }
            Some(_) => {}
        }
        if !e.invalid_reload_kept_old {
            return Err("rejected reload disturbed the live config".into());
        }
        if !e.config_rejected_event {
            return Err("no config_rejected event in the ring".into());
        }
        let pinned = self
            .hosts
            .iter()
            .find(|(h, _)| *h == scenario.pin_host)
            .map(|(_, st)| st)
            .ok_or("pinned host missing from the table")?;
        if pinned.pinned.map(f64::to_bits) != Some(scenario.pin_threshold.to_bits()) {
            return Err("pin missing from final host state".into());
        }
        if pinned.live_alarms != 0 {
            return Err(format!(
                "pinned host alarmed {} times under a {}-high pin",
                pinned.live_alarms, scenario.pin_threshold
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{build_batches_for, unique_run_dir};
    use crate::data::{Corpus, CorpusConfig};

    fn tiny_corpus() -> Corpus {
        Corpus::generate(CorpusConfig {
            n_users: 8,
            n_weeks: 2,
            ..CorpusConfig::small()
        })
    }

    fn tiny_scenario() -> ControlScenario {
        ControlScenario::default()
    }

    #[test]
    fn scripted_timeline_lands_every_effect() {
        let corpus = tiny_corpus();
        let scenario = tiny_scenario();
        let batches = build_batches_for(&corpus, scenario.feature, scenario.batch_windows, &[]);
        let dir = unique_run_dir("ctrl-clean");
        let run = run(&dir, &scenario, &batches, &[]).unwrap();
        run.check(&scenario).unwrap();
        assert_eq!(run.recovery.lifetimes, 1);
        assert_eq!(run.total_commands, 4, "drain, pin, undrain, rollback");
        assert_eq!(run.hosts.len(), 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn command_kills_recover_byte_identical_csv() {
        let corpus = tiny_corpus();
        let scenario = tiny_scenario();
        let batches = build_batches_for(&corpus, scenario.feature, scenario.batch_windows, &[]);

        let ref_dir = unique_run_dir("ctrl-ref");
        let reference = run(&ref_dir, &scenario, &batches, &[]).unwrap();
        let ref_csv = hosts_csv(&reference);
        std::fs::remove_dir_all(&ref_dir).unwrap();

        let kills = faultsim::command_kill_points(
            0xC0DE,
            6,
            reference.total_applied,
            reference.total_wal_bytes,
            reference.total_commands as u32,
        );
        let kill_dir = unique_run_dir("ctrl-kill");
        let killed = run(&kill_dir, &scenario, &batches, &kills).unwrap();
        killed.check(&scenario).unwrap();
        assert!(killed.recovery.kills > 0);
        assert_eq!(hosts_csv(&killed), ref_csv);
        std::fs::remove_dir_all(&kill_dir).unwrap();
    }
}
