//! Console-side rollout planning: when to refit, what to propose, and
//! how an epoch history reads back to an operator.
//!
//! The daemon (`fleetd`) owns the *mechanics* of a threshold epoch —
//! canary shadow evaluation, health gates, WAL-journaled promote or
//! rollback. This module is the IT-console side that sits in front of
//! it and stays deliberately daemon-agnostic: it watches per-host drift
//! via [`hids_core::DriftTracker`], decides when the fleet has drifted
//! enough to justify a staged rollout, and builds the candidate
//! threshold set the daemon will soak. The split keeps the dependency
//! arrow pointing one way (the orchestration harness in `experiments`
//! glues planner to daemon) and means the planning logic is testable
//! without a WAL on disk.
//!
//! Poisoning-resistant refit: a host whose [`DriftTracker`] latched the
//! boiling-frog guard refuses to hand out a refit window, so the
//! planner falls back to that host's *group* threshold from the
//! partial-diversity policy — a single manipulated host cannot drag a
//! pooled group threshold far (the paper's own argument for grouping).
//! A suspect host with no group fallback is skipped outright: no
//! threshold beats a learned-from-the-attacker threshold.

use std::collections::BTreeMap;

use hids_core::{DriftConfig, DriftState, DriftTracker, PolicyOutcome, ThresholdHeuristic};
use tailstats::EmpiricalDist;

/// Per-host drift trackers for a whole fleet, keyed by host id.
///
/// Purely deterministic: verdicts depend only on each host's own stream,
/// never on how hosts interleave.
#[derive(Debug, Clone)]
pub struct FleetDriftMonitor {
    cfg: DriftConfig,
    trackers: BTreeMap<u32, DriftTracker>,
}

impl FleetDriftMonitor {
    /// An empty monitor; hosts are added with [`register_host`].
    ///
    /// [`register_host`]: FleetDriftMonitor::register_host
    pub fn new(cfg: DriftConfig) -> Self {
        Self {
            cfg,
            trackers: BTreeMap::new(),
        }
    }

    /// Start tracking a host against its training distribution. Re-registering
    /// an id replaces its tracker (fresh state).
    pub fn register_host(&mut self, host: u32, train: &EmpiricalDist) {
        self.trackers
            .insert(host, DriftTracker::new(train, self.cfg));
    }

    /// Feed one live window count for a host. Returns the tracker state
    /// after absorbing it, or `None` for an unregistered host (the caller
    /// decides whether that is an error).
    pub fn observe(&mut self, host: u32, count: u64) -> Option<DriftState> {
        self.trackers.get_mut(&host).map(|t| t.observe(count))
    }

    /// The host's tracker, if registered.
    pub fn tracker(&self, host: u32) -> Option<&DriftTracker> {
        self.trackers.get(&host)
    }

    /// Hosts whose drift latch has fired, ascending by id.
    pub fn drifted(&self) -> Vec<u32> {
        self.trackers
            .iter()
            .filter(|(_, t)| t.state() == DriftState::Drifted)
            .map(|(&h, _)| h)
            .collect()
    }

    /// Whether every registered host has latched drift (and at least one
    /// host is registered).
    pub fn all_drifted(&self) -> bool {
        !self.trackers.is_empty()
            && self
                .trackers
                .values()
                .all(|t| t.state() == DriftState::Drifted)
    }

    /// Number of registered hosts.
    pub fn len(&self) -> usize {
        self.trackers.len()
    }

    /// Whether no hosts are registered.
    pub fn is_empty(&self) -> bool {
        self.trackers.is_empty()
    }

    /// Clear every tracker's latch and guard after a rollout consumed the
    /// fleet's verdicts.
    pub fn reset_all(&mut self) {
        for t in self.trackers.values_mut() {
            t.reset();
        }
    }
}

/// The candidate threshold set a planner proposes for soaking, plus the
/// provenance of each host's value.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidatePlan {
    /// Proposed threshold per host.
    pub thresholds: BTreeMap<u32, f64>,
    /// Hosts whose threshold was refit from their own drifted window.
    pub refit_hosts: Vec<u32>,
    /// Suspect hosts that fell back to their group threshold.
    pub fallback_hosts: Vec<u32>,
    /// Suspect hosts with no group fallback available: excluded entirely.
    pub skipped_hosts: Vec<u32>,
}

/// Build a candidate threshold set from the monitor's current verdicts.
///
/// Every drifted host contributes: a refit from its frozen trigger
/// window when the tracker hands one out, else (poisoning suspect) the
/// host's entry in `group_fallback`, else it is skipped. Hosts that have
/// not drifted are left on their incumbent threshold (absent from the
/// plan) — the daemon's shadow evaluation only covers proposed hosts.
pub fn build_candidate(
    monitor: &FleetDriftMonitor,
    refit: &ThresholdHeuristic,
    group_fallback: &BTreeMap<u32, f64>,
) -> CandidatePlan {
    let mut plan = CandidatePlan {
        thresholds: BTreeMap::new(),
        refit_hosts: Vec::new(),
        fallback_hosts: Vec::new(),
        skipped_hosts: Vec::new(),
    };
    for &host in &monitor.drifted() {
        let Some(tracker) = monitor.tracker(host) else {
            continue;
        };
        if let Some(dist) = tracker.refit_dist() {
            plan.thresholds.insert(host, refit.threshold(&dist));
            plan.refit_hosts.push(host);
        } else if let Some(&t) = group_fallback.get(&host) {
            plan.thresholds.insert(host, t);
            plan.fallback_hosts.push(host);
        } else {
            plan.skipped_hosts.push(host);
        }
    }
    plan
}

/// Extract per-host group-fallback thresholds from a configured policy
/// outcome. `host_ids[i]` names the host that was user `i` when the
/// policy was configured.
pub fn fallback_from_outcome(host_ids: &[u32], outcome: &PolicyOutcome) -> BTreeMap<u32, f64> {
    host_ids
        .iter()
        .zip(&outcome.thresholds)
        .map(|(&h, &t)| (h, t))
        .collect()
}

/// A staged rollout proposal: the candidate set plus the soak span the
/// daemon should shadow-evaluate it over.
#[derive(Debug, Clone, PartialEq)]
pub struct RolloutProposal {
    /// First window (inclusive) of the canary soak.
    pub soak_start: u32,
    /// One past the last soak window; promotion takes effect here.
    pub soak_end: u32,
    /// The candidate thresholds and their provenance.
    pub plan: CandidatePlan,
}

/// Drives the fleet from drift verdicts to a staged rollout proposal.
#[derive(Debug, Clone)]
pub struct RolloutPlanner {
    monitor: FleetDriftMonitor,
    refit: ThresholdHeuristic,
    fallback: BTreeMap<u32, f64>,
    soak_span: u32,
}

impl RolloutPlanner {
    /// Build a planner over an already-registered monitor.
    ///
    /// `soak_span` is the number of windows a candidate soaks in canary
    /// before the health gates decide; it must be nonzero.
    pub fn new(
        monitor: FleetDriftMonitor,
        refit: ThresholdHeuristic,
        fallback: BTreeMap<u32, f64>,
        soak_span: u32,
    ) -> Self {
        Self {
            monitor,
            refit,
            fallback,
            soak_span: soak_span.max(1),
        }
    }

    /// Feed one live window count for a host.
    pub fn observe(&mut self, host: u32, count: u64) -> Option<DriftState> {
        self.monitor.observe(host, count)
    }

    /// The underlying monitor (for inspection).
    pub fn monitor(&self) -> &FleetDriftMonitor {
        &self.monitor
    }

    /// Propose a staged rollout starting at `now_window`, or `None` while
    /// the fleet has not fully drifted or no host yields a usable
    /// threshold.
    pub fn propose(&self, now_window: u32) -> Option<RolloutProposal> {
        if !self.monitor.all_drifted() {
            return None;
        }
        let plan = build_candidate(&self.monitor, &self.refit, &self.fallback);
        if plan.thresholds.is_empty() {
            return None;
        }
        Some(RolloutProposal {
            soak_start: now_window,
            soak_end: now_window.saturating_add(self.soak_span),
            plan,
        })
    }

    /// Acknowledge that a proposal was submitted to the daemon: clears
    /// every tracker's latch so the next drift episode starts fresh.
    pub fn mark_submitted(&mut self) {
        self.monitor.reset_all();
    }
}

/// One completed epoch, as reported back by whatever daemon ran it.
///
/// Deliberately plain data: the `experiments` harness converts the
/// daemon's own record type into this, keeping this crate free of a
/// `fleetd` dependency.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSummary {
    /// Epoch number.
    pub epoch: u32,
    /// `None` = promoted; `Some(reason)` = rolled back.
    pub rolled_back: Option<String>,
    /// Soak windows actually shadow-evaluated.
    pub windows: u64,
    /// Soak windows expected (shortfall = shed or dark shards).
    pub expected_windows: u64,
    /// Alarms the incumbent thresholds raised over the soak span.
    pub incumbent_alarms: u64,
    /// Alarms the candidate thresholds would have raised.
    pub candidate_alarms: u64,
}

/// Export an epoch history into `reg`: `itc_rollout_*` counters by
/// outcome plus one `itconsole.rollout` event per epoch, in epoch order
/// (rollback events carry the gate's reason so the snapshot alone
/// explains *why* a candidate died).
pub fn export_history_metrics(history: &[EpochSummary], reg: &mut hids_metrics::Registry) {
    reg.register_counter(
        "itc_rollout_epochs_total",
        "Completed rollout epochs by outcome",
    );
    reg.register_counter(
        "itc_rollout_soak_windows_total",
        "Soak windows shadow-evaluated vs expected",
    );
    reg.register_counter(
        "itc_rollout_alarms_total",
        "Alarms raised over soak spans, by threshold set",
    );
    let mut promoted = 0u64;
    let mut rolled_back = 0u64;
    let mut operator = 0u64;
    for e in history {
        match &e.rolled_back {
            None => {
                promoted += 1;
                reg.event(
                    "itconsole.rollout",
                    "promoted",
                    &[("epoch", &e.epoch.to_string())],
                );
            }
            Some(reason) => {
                rolled_back += 1;
                // Operator-initiated rollbacks (the `force-rollback`
                // command) are a distinct signal from gate failures: one
                // is a human decision, the other an automated guardrail.
                if reason == "operator" {
                    operator += 1;
                }
                reg.event(
                    "itconsole.rollout",
                    "rolled_back",
                    &[("epoch", &e.epoch.to_string()), ("reason", reason)],
                );
            }
        }
        reg.counter_add(
            "itc_rollout_soak_windows_total",
            &[("kind", "evaluated")],
            e.windows,
        );
        reg.counter_add(
            "itc_rollout_soak_windows_total",
            &[("kind", "expected")],
            e.expected_windows,
        );
        reg.counter_add(
            "itc_rollout_alarms_total",
            &[("set", "incumbent")],
            e.incumbent_alarms,
        );
        reg.counter_add(
            "itc_rollout_alarms_total",
            &[("set", "candidate")],
            e.candidate_alarms,
        );
    }
    reg.counter_add(
        "itc_rollout_epochs_total",
        &[("outcome", "promoted")],
        promoted,
    );
    reg.counter_add(
        "itc_rollout_epochs_total",
        &[("outcome", "rolled_back")],
        rolled_back,
    );
    reg.counter_add(
        "itc_rollout_epochs_total",
        &[("outcome", "rolled_back_operator")],
        operator,
    );
}

/// Render an epoch history as the operator-facing report: one line per
/// epoch, deterministic byte-for-byte for a given input.
pub fn render_history(history: &[EpochSummary]) -> String {
    let mut out = String::new();
    for e in history {
        let verdict = match &e.rolled_back {
            None => "promoted".to_string(),
            Some(reason) => format!("rolled-back [{reason}]"),
        };
        out.push_str(&format!(
            "epoch {}: {} (soak {}/{} windows, incumbent alarms {}, candidate alarms {})\n",
            e.epoch, verdict, e.windows, e.expected_windows, e.incumbent_alarms, e.candidate_alarms,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(level: u64) -> EmpiricalDist {
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

    fn feed_stable(m: &mut FleetDriftMonitor, host: u32, n: u64) {
        for i in 0..n {
            m.observe(host, 100 + (i % 7));
        }
    }

    fn feed_drift_down(m: &mut FleetDriftMonitor, host: u32, n: u64) {
        for i in 0..n {
            m.observe(host, 50 + (i % 5));
        }
    }

    fn feed_poison_ramp(m: &mut FleetDriftMonitor, host: u32, n: u64) {
        let mut level = 100f64;
        for _ in 0..n {
            level *= 1.01;
            m.observe(host, level as u64);
        }
    }

    #[test]
    fn monitor_aggregates_per_host_verdicts() {
        let mut m = FleetDriftMonitor::new(cfg());
        for h in 0..3u32 {
            m.register_host(h, &train(100));
        }
        assert_eq!(m.len(), 3);
        feed_stable(&mut m, 0, 60);
        feed_drift_down(&mut m, 1, 60);
        feed_poison_ramp(&mut m, 2, 120);
        assert_eq!(m.drifted(), vec![1, 2]);
        let suspect = |h| m.tracker(h).is_some_and(|t| t.suspect());
        assert_eq!((suspect(0), suspect(1), suspect(2)), (false, false, true));
        assert!(!m.all_drifted(), "host 0 is still stable");
        assert!(m.observe(99, 5).is_none(), "unregistered host");
    }

    #[test]
    fn candidate_refits_benign_hosts_and_falls_back_for_suspects() {
        let mut m = FleetDriftMonitor::new(cfg());
        m.register_host(1, &train(100));
        m.register_host(2, &train(100));
        m.register_host(3, &train(100));
        feed_drift_down(&mut m, 1, 60);
        feed_poison_ramp(&mut m, 2, 120);
        feed_poison_ramp(&mut m, 3, 120);
        let fallback: BTreeMap<u32, f64> = [(2u32, 77.5)].into_iter().collect();
        let plan = build_candidate(&m, &ThresholdHeuristic::P99, &fallback);
        assert_eq!(plan.refit_hosts, vec![1]);
        assert_eq!(plan.fallback_hosts, vec![2]);
        assert_eq!(plan.skipped_hosts, vec![3], "suspect without fallback is dropped");
        assert_eq!(plan.thresholds.get(&2), Some(&77.5));
        let refit = plan.thresholds[&1];
        assert!(
            refit < 70.0,
            "refit follows the drifted-down window, got {refit}"
        );
        assert!(!plan.thresholds.contains_key(&3));
    }

    #[test]
    fn fallback_from_outcome_maps_user_order_to_host_ids() {
        let outcome = PolicyOutcome {
            groups: vec![0, 0, 1],
            thresholds: vec![10.0, 10.0, 20.0],
            group_thresholds: vec![10.0, 20.0],
        };
        let map = fallback_from_outcome(&[7, 3, 9], &outcome);
        assert_eq!(map[&7], 10.0);
        assert_eq!(map[&3], 10.0);
        assert_eq!(map[&9], 20.0);
    }

    #[test]
    fn planner_proposes_only_when_all_hosts_drifted() {
        let mut m = FleetDriftMonitor::new(cfg());
        m.register_host(0, &train(100));
        m.register_host(1, &train(100));
        let mut p = RolloutPlanner::new(m, ThresholdHeuristic::P99, BTreeMap::new(), 8);
        for i in 0..60u64 {
            p.observe(0, 50 + (i % 5));
        }
        assert!(p.propose(200).is_none(), "host 1 has not drifted yet");
        for i in 0..60u64 {
            p.observe(1, 50 + (i % 5));
        }
        let prop = p.propose(200).expect("fleet fully drifted");
        assert_eq!(prop.soak_start, 200);
        assert_eq!(prop.soak_end, 208);
        assert_eq!(
            prop.plan.thresholds.keys().copied().collect::<Vec<_>>(),
            vec![0, 1]
        );
        p.mark_submitted();
        assert!(p.propose(208).is_none(), "latches cleared after submission");
    }

    #[test]
    fn all_suspect_fleet_with_no_fallback_proposes_nothing() {
        let mut m = FleetDriftMonitor::new(cfg());
        m.register_host(0, &train(100));
        feed_poison_ramp(&mut m, 0, 120);
        let p = RolloutPlanner::new(m, ThresholdHeuristic::P99, BTreeMap::new(), 8);
        assert!(p.propose(0).is_none(), "no usable thresholds, no rollout");
    }

    #[test]
    fn history_renders_deterministically() {
        let history = vec![
            EpochSummary {
                epoch: 1,
                rolled_back: None,
                windows: 24,
                expected_windows: 24,
                incumbent_alarms: 3,
                candidate_alarms: 2,
            },
            EpochSummary {
                epoch: 2,
                rolled_back: Some("alarm-drop".to_string()),
                windows: 24,
                expected_windows: 24,
                incumbent_alarms: 9,
                candidate_alarms: 0,
            },
        ];
        let text = render_history(&history);
        assert_eq!(
            text,
            "epoch 1: promoted (soak 24/24 windows, incumbent alarms 3, candidate alarms 2)\n\
             epoch 2: rolled-back [alarm-drop] (soak 24/24 windows, incumbent alarms 9, candidate alarms 0)\n"
        );
        assert_eq!(render_history(&history), text);
    }
}
