//! Clustered-daemon scenario: the `daemon` harness promoted across a wire
//! boundary — a coordinator routes corpus traffic to N `fleetd` worker
//! nodes over a simulated lossy link, survives silent node deaths and
//! whole-process kills, and merges the per-node host tables into one
//! fleet evaluation.
//!
//! The determinism contract extends the single-daemon one: for a fixed
//! corpus and scenario, the final hosts CSV (and the degraded-evaluation
//! metrics derived from it) is byte-identical across node counts *and*
//! across any seeded kill schedule — node kills, process kills, torn
//! journal writes, dropped/duplicated/reordered/corrupted frames. The
//! argument has three legs:
//!
//! 1. stop-and-wait per host: at most one batch per host is ever
//!    unacknowledged, so retries cannot reorder a host's sequence;
//! 2. seq-deduped idempotent apply on every node: redelivery at or below
//!    a host's high-water mark is a no-op;
//! 3. rewind-on-handoff: when a host moves to a surviving node, the
//!    harness withdraws its in-flight batches and restarts it from
//!    sequence 1 — the new owner replays the identical prefix, so the
//!    host's final state is a pure function of its batch list.
//!
//! Batches routed to a dead-but-undetected node simply vanish on the
//! wire; the delivery queue's decorrelated-jitter retry keeps re-offering
//! them until the heartbeat detector declares the node dead, the journal
//! records the rebalance, and the host re-emerges on a survivor.

use std::collections::BTreeSet;
use std::path::Path;

use faultsim::{ClusterKillPoint, LinkFaultLog};
use fleetd::{
    Cluster, ClusterConfig, ClusterKillSwitch, ClusterStats, DarkEpisode, HostState, WindowBatch,
    WireStats,
};
use flowtab::FeatureKind;
use hids_core::degraded::DegradedEvaluation;
use hids_metrics::{Registry, RenderOptions};
use itconsole::{DeliveryConfig, DeliveryStats};

use crate::daemon::{evaluate_hosts, hosts_table_titled, RecoveryTotals, RunError};
use crate::report::Table;
use crate::stopwait::{Restarts, StopAndWait};

/// Everything a cluster run needs besides the corpus and a directory.
#[derive(Debug, Clone)]
pub struct ClusterScenario {
    /// Feature streamed to the cluster.
    pub feature: FeatureKind,
    /// Windows per batch (shared with the single-daemon harness).
    pub batch_windows: usize,
    /// Hosts whose first test-week batch is poisoned.
    pub poison_hosts: Vec<u32>,
    /// Coverage floor for the final degraded evaluation.
    pub min_coverage: f64,
    /// Cluster topology, heartbeat discipline, and link faults.
    pub cluster: ClusterConfig,
    /// Source-side delivery link configuration (the coordinator's ARQ).
    pub delivery: DeliveryConfig,
    /// Safety valve on harness rounds before declaring a stall.
    pub max_rounds: u64,
    /// Safety valve on process lifetimes (1 + number of recoveries).
    pub max_lifetimes: u32,
}

impl Default for ClusterScenario {
    fn default() -> Self {
        Self {
            feature: FeatureKind::TcpConnections,
            batch_windows: 96,
            poison_hosts: Vec::new(),
            min_coverage: 0.1,
            cluster: ClusterConfig::default(),
            delivery: DeliveryConfig {
                capacity: 512,
                // A batch routed to a silently-dead node gets no ack until
                // the heartbeat detector (timeout + one rebalance tick)
                // catches up, and may then be caught in a second death.
                // The budget must absorb several such windows; tests
                // assert `lost_batches == 0`.
                max_attempts: 64,
                // Base comfortably above the round-trip (2 × latency + a
                // couple of processing ticks): a healthy ack always
                // arrives before the first retry fires, so retransmission
                // only kicks in when something was actually lost.
                backoff_base: 8,
                jitter_seed: Some(0x5eed_c157),
            },
            max_rounds: 2_000_000,
            max_lifetimes: 64,
        }
    }
}

/// Aggregated recovery evidence across a cluster run's process restarts.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClusterRecoveryTotals {
    /// Process lifetimes (1 for an uninterrupted run).
    pub lifetimes: u32,
    /// Kill-switch firings observed.
    pub kills: u32,
    /// Cluster snapshots successfully loaded across recoveries.
    pub cluster_snapshots_loaded: u32,
    /// Damaged cluster snapshots skipped across recoveries.
    pub cluster_snapshots_discarded: u32,
    /// Assignment events replayed from the cluster journal.
    pub journal_events: u64,
    /// Torn cluster-journal tail bytes tolerated across recoveries.
    pub journal_torn_bytes: u64,
    /// Node daemon recovery reports, summed over nodes and lifetimes (its
    /// `lifetimes` and `kills` are the process's).
    pub nodes: RecoveryTotals,
}

/// The result of driving one cluster scenario to quiescence.
#[derive(Debug)]
pub struct ClusterRun {
    /// Final merged per-host state over the full host universe, ordered
    /// by host id (hosts that never reached a live node render default).
    pub hosts: Vec<(u32, HostState)>,
    /// Degraded evaluation over the final merged host table.
    pub evaluation: Option<DegradedEvaluation>,
    /// Cluster counters from the final lifetime.
    pub stats: ClusterStats,
    /// Source-side delivery counters summed over lifetimes.
    pub delivery: DeliveryStats,
    /// Restart/recovery evidence summed over lifetimes.
    pub recovery: ClusterRecoveryTotals,
    /// Wire-decoder statistics from the final lifetime.
    pub wire: WireStats,
    /// Link-fault accounting from the final lifetime.
    pub links: LinkFaultLog,
    /// Every dark window observed, across all lifetimes.
    pub dark_episodes: Vec<DarkEpisode>,
    /// Degraded evaluation captured *during* the first dark window (at
    /// the recorded cumulative tick): the coverage-accounting witness
    /// that a dead node's hosts surface as `Dark`, not as silent gaps.
    pub dark_evaluation: Option<(u64, DegradedEvaluation)>,
    /// Heartbeat-timeout death declarations, summed over lifetimes.
    pub node_deaths_total: u64,
    /// Journaled rebalances, summed over lifetimes.
    pub rebalances_total: u64,
    /// Hosts moved by rebalances, summed over lifetimes.
    pub hosts_moved_total: u64,
    /// Batches the delivery link gave up on (retry budget exhausted).
    pub lost_batches: u64,
    /// Batches applied across every node WAL, metered by the kill switch.
    pub total_applied: u64,
    /// WAL bytes appended (node WALs + cluster journal), metered by the
    /// kill switch.
    pub total_wal_bytes: u64,
    /// Cumulative cluster ticks across every lifetime.
    pub total_ticks: u64,
    /// Windows per week the scenario ran with.
    pub n_windows: u32,
    /// Coverage floor used for the evaluation.
    pub min_coverage: f64,
    /// Metrics snapshot: `fleetd_cluster_*` operational families from the
    /// final lifetime, harness recovery totals, delivery counters, and
    /// the `hids_degraded_*` evaluation families.
    pub metrics: Registry,
}

/// Drive `batches` through a cluster rooted at `dir` until every batch
/// has a terminal outcome, surviving every scheduled kill.
///
/// `kills` mixes silent node deaths (armed once, fired by cumulative
/// cluster tick) with process kills (consumed in order, metered across
/// restarts on the shared [`ClusterKillSwitch::process`] switch — so a
/// WAL-byte kill can land inside a cluster-journal rebalance record,
/// which is exactly the torn-handoff case recovery must survive).
pub fn run(
    dir: &Path,
    scenario: &ClusterScenario,
    batches: &[WindowBatch],
    kills: &[ClusterKillPoint],
) -> Result<ClusterRun, RunError> {
    let mut sw = StopAndWait::new(batches, scenario.delivery);
    let universe: Vec<u32> = batches
        .iter()
        .map(|b| b.host)
        .collect::<BTreeSet<u32>>()
        .into_iter()
        .collect();

    let mut kill = ClusterKillSwitch::new(kills);
    // Cluster-journal recovery; the node reports fold into the restart
    // loop's totals.
    let mut journal = ClusterRecoveryTotals::default();
    let mut dark_episodes: Vec<DarkEpisode> = Vec::new();
    let mut dark_evaluation: Option<(u64, DegradedEvaluation)> = None;
    let mut node_deaths_total = 0u64;
    let mut rebalances_total = 0u64;
    let mut hosts_moved_total = 0u64;

    Restarts::new(scenario.max_rounds, scenario.max_lifetimes).run(|r| {
        // The bootstrap journal append is itself killable.
        let (mut cluster, rec) = Cluster::open(dir, scenario.cluster, &universe, &mut kill)?;
        if rec.snapshot_seq.is_some() {
            journal.cluster_snapshots_loaded += 1;
        }
        journal.cluster_snapshots_discarded += rec.snapshots_discarded;
        journal.journal_events += rec.journal_events;
        journal.journal_torn_bytes += rec.journal_torn_bytes;
        for (_, report) in &rec.node_reports {
            r.totals.fold(report);
        }

        // Unlike the single-daemon harness, completions do NOT persist
        // across lifetimes: after a process kill, every host is redriven
        // from its first batch. Recovered nodes answer the already-applied
        // prefix with `Duplicate` acks (cheap), and hosts whose rebalance
        // was torn out of the journal get the full replay their new owner
        // actually needs. Correctness never depends on harness memory.
        sw.forget_completions();
        sw.begin_lifetime();

        loop {
            r.round()?;
            let host_side_quiet = sw.feed(|_| false);
            // A silently-killed node is invisible to the coordinator until
            // its heartbeat timeout expires; quiescing inside that window
            // would drop the dead node's hosts from the merged table. The
            // harness has the god view the coordinator lacks, so it keeps
            // ticking until every fired kill has been detected (and the
            // resulting rebalance redelivered the moved hosts).
            let undetected_kill = cluster.assign().live.iter().any(|&n| kill.node_is_dead(n));
            if host_side_quiet
                && cluster.queued_total() == 0
                && cluster.settled()
                && !undetected_kill
            {
                // Quiescent: every batch acked or lost, no handoff
                // pending, every live node drained.
                let s = *cluster.stats();
                node_deaths_total += s.node_deaths;
                rebalances_total += s.rebalances;
                hosts_moved_total += s.hosts_moved;
                let recovery = ClusterRecoveryTotals {
                    lifetimes: r.totals.lifetimes,
                    kills: r.totals.kills,
                    nodes: r.totals,
                    ..journal
                };
                let hosts = merged_hosts(&cluster, &universe);
                let n_windows = scenario.cluster.node.n_windows;
                let evaluation = evaluate_hosts(
                    &hosts,
                    scenario.feature,
                    n_windows as usize,
                    scenario.min_coverage,
                );
                let delivery = sw.delivery();
                let mut metrics = Registry::new();
                cluster.export_metrics(&mut metrics);
                delivery.export_metrics(&mut metrics, "cluster_link");
                export_cluster_recovery_totals(&recovery, &mut metrics);
                if let Some(eval) = &evaluation {
                    eval.export_metrics(&mut metrics);
                }
                return Ok(ClusterRun {
                    hosts,
                    evaluation,
                    stats: s,
                    delivery,
                    recovery,
                    wire: cluster.wire_stats(),
                    links: cluster.link_log(),
                    dark_episodes: std::mem::take(&mut dark_episodes),
                    dark_evaluation: dark_evaluation.take(),
                    node_deaths_total,
                    rebalances_total,
                    hosts_moved_total,
                    lost_batches: sw.lost_batches(),
                    total_applied: kill.process.applied_batches(),
                    total_wal_bytes: kill.process.wal_bytes(),
                    total_ticks: kill.ticks(),
                    n_windows,
                    min_coverage: scenario.min_coverage,
                    metrics,
                });
            }

            // Transmit: putting a frame on the wire is not delivery — the
            // sink always reports failure and only an ack (below) retires
            // a batch, so anything the wire loses is retransmitted on the
            // decorrelated-jitter schedule.
            sw.pump(|b| {
                let _ = cluster.transmit(b);
                false
            });

            // Advance the cluster one tick; a fired kill switch ends this
            // lifetime (its counters with it) and recovery takes it from
            // the top.
            if let Err(e) = cluster.tick(&mut kill) {
                let s = cluster.stats();
                node_deaths_total += s.node_deaths;
                rebalances_total += s.rebalances;
                hosts_moved_total += s.hosts_moved;
                return Err(e.into());
            }

            // Acknowledge: coordinator-confirmed completions retire the
            // queued batch, advance cursors, and free hosts.
            for c in cluster.take_completions() {
                sw.acknowledge(c.host, c.seq);
            }

            // Rebalance: every moved host rewinds to its first batch. The
            // new owner has none of its history, and only redelivery from
            // sequence 1 reconstructs the same applied prefix a
            // never-moved host would have.
            let moved_hosts: BTreeSet<u32> = cluster
                .take_handoffs()
                .iter()
                .flat_map(|h| h.moved.iter().map(|&(host, _)| host))
                .collect();
            if !moved_hosts.is_empty() {
                sw.rewind(&moved_hosts);
            }

            // Dark windows: record every episode; on the first one,
            // evaluate the merged table mid-flight so the dead node's
            // hosts demonstrably surface as `Dark` through the degraded
            // coverage accounting rather than disappearing.
            let episodes = cluster.take_dark_episodes();
            if !episodes.is_empty() && dark_evaluation.is_none() {
                let hosts = merged_hosts(&cluster, &universe);
                let at_tick = episodes[0].at_tick;
                if let Some(eval) = evaluate_hosts(
                    &hosts,
                    scenario.feature,
                    scenario.cluster.node.n_windows as usize,
                    scenario.min_coverage,
                ) {
                    dark_evaluation = Some((at_tick, eval));
                }
            }
            dark_episodes.extend(episodes);

            sw.tick();
        }
    })
}

/// The merged host table over the full universe: live-node state where a
/// host is reachable, a default (zero-coverage ⇒ `Dark`) row where its
/// owner is dead or pending rebalance. Keeping the row set fixed is what
/// lets two runs' CSVs be compared byte-for-byte.
fn merged_hosts(cluster: &Cluster, universe: &[u32]) -> Vec<(u32, HostState)> {
    let mut merged = cluster.hosts();
    for &h in universe {
        merged.entry(h).or_default();
    }
    merged.into_iter().collect()
}

/// Harness-level recovery accounting, summed over every process lifetime.
fn export_cluster_recovery_totals(rec: &ClusterRecoveryTotals, reg: &mut Registry) {
    reg.register_counter(
        "fleetd_cluster_harness_lifetimes_total",
        "Cluster process lifetimes driven (1 = uninterrupted)",
    );
    reg.counter_add(
        "fleetd_cluster_harness_lifetimes_total",
        &[],
        u64::from(rec.lifetimes),
    );
    reg.register_counter(
        "fleetd_cluster_harness_kills_total",
        "Process kill-switch firings observed",
    );
    reg.counter_add(
        "fleetd_cluster_harness_kills_total",
        &[],
        u64::from(rec.kills),
    );
    reg.register_counter(
        "fleetd_cluster_harness_snapshots_total",
        "Snapshots at recovery, by scope and fate",
    );
    for (scope, loaded, discarded) in [
        (
            "cluster",
            rec.cluster_snapshots_loaded,
            rec.cluster_snapshots_discarded,
        ),
        (
            "node",
            rec.nodes.snapshots_loaded,
            rec.nodes.snapshots_discarded,
        ),
    ] {
        reg.counter_add(
            "fleetd_cluster_harness_snapshots_total",
            &[("scope", scope), ("fate", "loaded")],
            u64::from(loaded),
        );
        reg.counter_add(
            "fleetd_cluster_harness_snapshots_total",
            &[("scope", scope), ("fate", "discarded")],
            u64::from(discarded),
        );
    }
    reg.register_counter(
        "fleetd_cluster_harness_journal_events_total",
        "Assignment events replayed from the cluster journal",
    );
    reg.counter_add(
        "fleetd_cluster_harness_journal_events_total",
        &[],
        rec.journal_events,
    );
    reg.register_counter(
        "fleetd_cluster_harness_journal_torn_bytes_total",
        "Torn cluster-journal tail bytes tolerated across recoveries",
    );
    reg.counter_add(
        "fleetd_cluster_harness_journal_torn_bytes_total",
        &[],
        rec.journal_torn_bytes,
    );
    reg.register_counter(
        "fleetd_cluster_harness_node_wal_replayed_total",
        "Node WAL frames replayed into state across recoveries",
    );
    reg.counter_add(
        "fleetd_cluster_harness_node_wal_replayed_total",
        &[],
        rec.nodes.wal_replayed,
    );
    reg.register_counter(
        "fleetd_cluster_harness_node_wal_torn_bytes_total",
        "Torn node WAL tail bytes truncated across recoveries",
    );
    reg.counter_add(
        "fleetd_cluster_harness_node_wal_torn_bytes_total",
        &[],
        rec.nodes.wal_torn_bytes,
    );
}

/// The merged per-host output table — the artifact the cluster
/// determinism contract is stated over. Same column set as the
/// single-daemon table, rendered from the merged state.
pub fn hosts_table(run: &ClusterRun) -> Table {
    hosts_table_titled(
        "cluster — merged per-host streaming evaluation",
        &run.hosts,
        run.evaluation.as_ref(),
        run.n_windows,
    )
}

/// The hosts CSV — the byte-identity witness for the cluster contract.
pub fn hosts_csv(run: &ClusterRun) -> String {
    hosts_table(run).to_csv()
}

/// The deterministic metrics snapshot: only the evaluation families,
/// which are a pure function of the final merged host table. This is the
/// second byte-identity witness (the `fleetd_cluster_*` operational
/// counters legitimately differ between a clean and a kill-swept run).
pub fn determinism_snapshot(run: &ClusterRun) -> String {
    let mut reg = Registry::new();
    if let Some(eval) = &run.evaluation {
        eval.export_metrics(&mut reg);
    }
    reg.render(RenderOptions::deterministic())
}

/// Operational counters: routing, failure detection, handoff, recovery,
/// wire health, delivery. Deliberately separate from the hosts table —
/// only the latter carries the determinism contract.
pub fn ops_table(run: &ClusterRun) -> Table {
    let mut t = Table::new("cluster — operational counters", &["counter", "value"]);
    let s = &run.stats;
    let rows: Vec<(&str, String)> = vec![
        ("lifetimes", run.recovery.lifetimes.to_string()),
        ("kills", run.recovery.kills.to_string()),
        ("node_deaths", run.node_deaths_total.to_string()),
        ("rebalances", run.rebalances_total.to_string()),
        ("hosts_moved", run.hosts_moved_total.to_string()),
        ("dark_episodes", run.dark_episodes.len().to_string()),
        (
            "cluster_snapshots_loaded",
            run.recovery.cluster_snapshots_loaded.to_string(),
        ),
        (
            "journal_events_replayed",
            run.recovery.journal_events.to_string(),
        ),
        (
            "journal_torn_bytes",
            run.recovery.journal_torn_bytes.to_string(),
        ),
        (
            "node_wal_replayed",
            run.recovery.nodes.wal_replayed.to_string(),
        ),
        (
            "node_wal_torn_bytes",
            run.recovery.nodes.wal_torn_bytes.to_string(),
        ),
        ("final_life_batches_sent", s.batches_sent.to_string()),
        ("final_life_unroutable", s.unroutable.to_string()),
        ("final_life_acks_accepted", s.acks_accepted.to_string()),
        ("final_life_acks_stale", s.acks_stale.to_string()),
        (
            "final_life_heartbeats",
            s.heartbeats_received.to_string(),
        ),
        ("wire_frames_decoded", run.wire.frames_decoded.to_string()),
        ("wire_resyncs", run.wire.resyncs.to_string()),
        ("wire_skipped_bytes", run.wire.skipped_bytes.to_string()),
        ("link_frames", run.links.frames.to_string()),
        ("link_dropped", run.links.dropped.to_string()),
        ("link_duplicated", run.links.duplicated.to_string()),
        ("link_reordered", run.links.reordered.to_string()),
        ("link_corrupted", run.links.corrupted.to_string()),
        ("delivery_enqueued", run.delivery.enqueued.to_string()),
        ("delivery_acknowledged", run.delivery.acknowledged.to_string()),
        ("delivery_retries", run.delivery.retries.to_string()),
        ("delivery_expired", run.delivery.expired_batches.to_string()),
        ("delivery_evicted", run.delivery.evicted_batches.to_string()),
        ("lost_batches", run.lost_batches.to_string()),
        ("total_applied", run.total_applied.to_string()),
        ("total_wal_bytes", run.total_wal_bytes.to_string()),
        ("total_ticks", run.total_ticks.to_string()),
    ];
    for (k, v) in rows {
        t.row(vec![k.to_string(), v]);
    }
    t
}

impl ClusterRun {
    /// Cross-check the run's own invariants (used by `repro cluster` and
    /// tests).
    pub fn check(&self) -> Result<(), String> {
        // Every expiry is a loss and vice versa: the harness marks a
        // batch lost exactly when the queue's retry budget ran out.
        if self.lost_batches != self.delivery.expired_batches {
            return Err(format!(
                "lost/expired mismatch: {} lost vs {} expired",
                self.lost_batches, self.delivery.expired_batches
            ));
        }
        // Source-side conservation: every enqueued batch is eventually
        // acknowledged, expired, evicted (then re-enqueued), or was still
        // queued when a process kill discarded the queue — and a clean
        // single-lifetime run has no such residue.
        let retired = self.delivery.acknowledged
            + self.delivery.expired_batches
            + self.delivery.evicted_batches;
        if self.recovery.lifetimes == 1 && retired != self.delivery.enqueued {
            return Err(format!(
                "clean run must retire every enqueued batch: {} of {}",
                retired, self.delivery.enqueued
            ));
        }
        if retired > self.delivery.enqueued {
            return Err(format!(
                "retired more than enqueued: {} of {}",
                retired, self.delivery.enqueued
            ));
        }
        // A lossless run evaluates the whole fleet.
        if self.lost_batches == 0 && !self.hosts.is_empty() && self.evaluation.is_none() {
            return Err("lossless run produced no evaluation".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{build_batches_for, unique_run_dir};
    use crate::data::{Corpus, CorpusConfig};
    use faultsim::KillPoint;

    fn small_corpus() -> Corpus {
        Corpus::generate(CorpusConfig {
            n_users: 8,
            n_weeks: 2,
            ..CorpusConfig::small()
        })
    }

    fn scenario(n_nodes: u32) -> ClusterScenario {
        let mut s = ClusterScenario::default();
        s.cluster.n_nodes = n_nodes;
        s
    }

    fn drive(tag: &str, sc: &ClusterScenario, kills: &[ClusterKillPoint]) -> ClusterRun {
        let corpus = small_corpus();
        let batches = build_batches_for(&corpus, sc.feature, sc.batch_windows, &sc.poison_hosts);
        let dir = unique_run_dir(tag);
        let run = run(&dir, sc, &batches, kills).expect("cluster run");
        std::fs::remove_dir_all(&dir).ok();
        run
    }

    #[test]
    fn multi_node_csv_matches_single_node() {
        let one = drive("c1", &scenario(1), &[]);
        let two = drive("c2", &scenario(2), &[]);
        one.check().expect("one-node invariants");
        two.check().expect("two-node invariants");
        assert_eq!(one.lost_batches, 0);
        assert_eq!(two.lost_batches, 0);
        assert_eq!(hosts_csv(&one), hosts_csv(&two));
        assert_eq!(determinism_snapshot(&one), determinism_snapshot(&two));
    }

    #[test]
    fn node_kill_preserves_csv_and_surfaces_dark_window() {
        let clean = drive("ck-clean", &scenario(2), &[]);
        let killed = drive(
            "ck-kill",
            &scenario(2),
            &[ClusterKillPoint::Node {
                node: 1,
                at_tick: 6,
            }],
        );
        killed.check().expect("killed-run invariants");
        assert_eq!(killed.lost_batches, 0);
        assert!(!killed.dark_episodes.is_empty(), "dark window must be observed");
        assert!(killed.node_deaths_total >= 1);
        assert!(killed.rebalances_total >= 1);
        let (at_tick, dark_eval) = killed.dark_evaluation.as_ref().expect("dark evaluation");
        assert!(*at_tick > 0);
        let dark_hosts: Vec<u32> = killed
            .dark_episodes
            .iter()
            .flat_map(|e| e.hosts.iter().copied())
            .collect();
        assert!(!dark_hosts.is_empty());
        // During the window the moved hosts must read as Dark through the
        // degraded coverage accounting.
        use hids_core::degraded::HostStatus;
        for (i, (host, _)) in killed.hosts.iter().enumerate() {
            if dark_hosts.contains(host) {
                assert_eq!(
                    dark_eval.users[i].status,
                    HostStatus::Dark,
                    "host {host} must be dark mid-window"
                );
            }
        }
        assert_eq!(hosts_csv(&clean), hosts_csv(&killed));
        assert_eq!(determinism_snapshot(&clean), determinism_snapshot(&killed));
    }

    #[test]
    fn process_kill_preserves_csv() {
        let clean = drive("pk-clean", &scenario(2), &[]);
        let killed = drive(
            "pk-kill",
            &scenario(2),
            &[
                ClusterKillPoint::Process(KillPoint::AfterBatches(5)),
                ClusterKillPoint::Process(KillPoint::AtWalByte {
                    offset: 4_000,
                    torn: 7,
                }),
            ],
        );
        killed.check().expect("killed-run invariants");
        assert_eq!(killed.lost_batches, 0);
        assert!(killed.recovery.kills >= 1);
        assert!(killed.recovery.lifetimes >= 2);
        assert_eq!(hosts_csv(&clean), hosts_csv(&killed));
    }
}
