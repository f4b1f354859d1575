//! Streaming-daemon scenario: drive `fleetd` with corpus traffic over an
//! unreliable delivery link, optionally killing and restarting it.
//!
//! This is the shared harness behind both `repro daemon` and the root
//! `tests/daemon.rs` crash-recovery suite. It turns a generated corpus
//! into per-host [`WindowBatch`] streams, delivers them through an
//! [`itconsole::DeliveryQueue`] (retry/backoff over an unreliable link,
//! honoring the daemon's backpressure), survives any number of scheduled
//! kills by reopening the daemon and redelivering unacknowledged work,
//! and finally evaluates the accumulated host table with the degraded
//! pipeline.
//!
//! The delivery discipline is stop-and-wait per host (the shared driver in
//! `crate::stopwait`): at most one batch per host is outstanding at any
//! moment, so retries can never reorder a host's sequence numbers. That —
//! plus the daemon's seq-deduped idempotent apply — is what makes the
//! headline property hold: a run killed at arbitrary points and restarted
//! produces a host table, and therefore a hosts CSV, byte-identical to an
//! uninterrupted run.

use std::path::{Path, PathBuf};

use faultsim::KillPoint;
use fleetd::{
    Daemon, DaemonConfig, DaemonError, DaemonStats, HostState, KillSwitch, Week, WindowBatch,
};
use flowtab::FeatureKind;
use hids_core::degraded::{DegradedEvalConfig, DegradedEvaluation, HostStatus};
use hids_core::eval::EvalConfig;
use hids_core::threshold::AttackSweep;
use hids_core::{Grouping, Policy, ThresholdHeuristic, WindowAccumulator};
use hids_metrics::Registry;
use itconsole::{DeliveryConfig, DeliveryStats};

use crate::data::Corpus;
use crate::report::Table;
use crate::stopwait::{open_daemon, StopAndWait};

/// Everything a daemon run needs besides the corpus and a directory.
#[derive(Debug, Clone)]
pub struct DaemonScenario {
    /// Feature streamed to the daemon.
    pub feature: FeatureKind,
    /// Windows per batch (a week splits into `ceil(672 / batch_windows)`
    /// batches per host).
    pub batch_windows: usize,
    /// Hosts whose first test-week batch is poisoned (panics the worker).
    pub poison_hosts: Vec<u32>,
    /// Coverage floor for the final degraded evaluation.
    pub min_coverage: f64,
    /// Daemon configuration.
    pub daemon: DaemonConfig,
    /// Host-side delivery link configuration.
    pub delivery: DeliveryConfig,
    /// Safety valve on harness rounds before declaring a stall.
    pub max_rounds: u64,
    /// Safety valve on daemon lifetimes (1 + number of recoveries).
    pub max_lifetimes: u32,
}

impl Default for DaemonScenario {
    fn default() -> Self {
        Self {
            feature: FeatureKind::TcpConnections,
            batch_windows: 96,
            poison_hosts: Vec::new(),
            min_coverage: 0.1,
            daemon: DaemonConfig::default(),
            delivery: DeliveryConfig {
                capacity: 256,
                // Generous retry budget: under kill schedules a batch may
                // fail many delivery attempts across backpressure spells,
                // and an expiry would (deterministically but silently)
                // change coverage. Tests assert `lost_batches == 0`.
                max_attempts: 40,
                backoff_base: 1,
                // Decorrelated retry jitter, fixed seed: retries from many
                // hosts desynchronize without giving up determinism — the
                // hosts CSV stays byte-identical run to run.
                jitter_seed: Some(0x5eed_d311),
            },
            max_rounds: 1_000_000,
            max_lifetimes: 64,
        }
    }
}

/// Turn a two-week corpus into the daemon's input stream: per host, the
/// training week then the test week, split into `batch_windows`-wide
/// batches with per-host sequence numbers from 1, interleaved round-robin
/// across hosts (all hosts make progress concurrently, exercising every
/// shard).
pub fn build_batches(corpus: &Corpus, scenario: &DaemonScenario) -> Vec<WindowBatch> {
    build_batches_for(
        corpus,
        scenario.feature,
        scenario.batch_windows,
        &scenario.poison_hosts,
    )
}

/// [`build_batches`] without a [`DaemonScenario`]: the same stream shape
/// for any harness that drives window batches (the cluster harness shares
/// this so single-daemon and clustered runs ingest identical streams).
pub fn build_batches_for(
    corpus: &Corpus,
    feature: FeatureKind,
    batch_windows: usize,
    poison_hosts: &[u32],
) -> Vec<WindowBatch> {
    let width = batch_windows.max(1);
    let mut per_host: Vec<Vec<WindowBatch>> = Vec::with_capacity(corpus.n_users());
    for host in 0..corpus.n_users() {
        let mut seq = 0u64;
        let mut batches = Vec::new();
        for (week_idx, week) in [Week::Train, Week::Test].into_iter().enumerate() {
            let counts = corpus.series(host, week_idx).feature(feature);
            for chunk_start in (0..counts.len()).step_by(width) {
                let end = (chunk_start + width).min(counts.len());
                seq += 1;
                let poison = week == Week::Test
                    && chunk_start == 0
                    && poison_hosts.contains(&(host as u32));
                batches.push(WindowBatch {
                    host: host as u32,
                    seq,
                    week,
                    start: chunk_start as u32,
                    counts: counts[chunk_start..end].to_vec(),
                    poison,
                });
            }
        }
        per_host.push(batches);
    }
    let max_len = per_host.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::new();
    for i in 0..max_len {
        for batches in &per_host {
            if let Some(b) = batches.get(i) {
                out.push(b.clone());
            }
        }
    }
    out
}

/// Aggregated recovery evidence across a run's restarts.
#[derive(Debug, Default, Clone, Copy)]
pub struct RecoveryTotals {
    /// Daemon lifetimes (1 for an uninterrupted run).
    pub lifetimes: u32,
    /// Kill-switch firings observed.
    pub kills: u32,
    /// Snapshots successfully loaded across recoveries.
    pub snapshots_loaded: u32,
    /// Damaged snapshots skipped across recoveries.
    pub snapshots_discarded: u32,
    /// WAL frames replayed into state across recoveries.
    pub wal_replayed: u64,
    /// Torn/corrupt WAL tail bytes truncated across recoveries.
    pub wal_torn_bytes: u64,
}

/// The result of driving one scenario to quiescence.
#[derive(Debug)]
pub struct DaemonRun {
    /// Final per-host state, ordered by host id.
    pub hosts: Vec<(u32, HostState)>,
    /// Degraded evaluation over the final host table (`None` when every
    /// host fell below the coverage floor).
    pub evaluation: Option<DegradedEvaluation>,
    /// Daemon counters from the final lifetime.
    pub stats: DaemonStats,
    /// Delivery-link counters summed over lifetimes.
    pub delivery: DeliveryStats,
    /// Restart/recovery evidence.
    pub recovery: RecoveryTotals,
    /// Batches the delivery link gave up on (retry budget exhausted).
    pub lost_batches: u64,
    /// Deepest any shard queue got, across every lifetime — the memory
    /// bound witness (≤ the high watermark with a well-behaved source).
    pub max_queue_depth: usize,
    /// Lifetime batches applied, as metered by the kill switch.
    pub total_applied: u64,
    /// Lifetime WAL bytes appended, as metered by the kill switch.
    pub total_wal_bytes: u64,
    /// Windows per week the scenario ran with.
    pub n_windows: u32,
    /// Coverage floor used for the evaluation.
    pub min_coverage: f64,
    /// Metrics snapshot from the final daemon lifetime plus harness
    /// totals: `fleetd_*`, `itc_delivery_*`, `hids_degraded_*` families
    /// and the daemon's structured event log.
    pub metrics: Registry,
}

/// Why a run failed.
#[derive(Debug)]
pub enum RunError {
    /// The daemon itself failed (I/O or configuration).
    Daemon(DaemonError),
    /// The harness hit its round or lifetime safety valve.
    Stalled(&'static str),
}

impl From<DaemonError> for RunError {
    fn from(e: DaemonError) -> Self {
        RunError::Daemon(e)
    }
}

impl core::fmt::Display for RunError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RunError::Daemon(e) => write!(f, "daemon error: {e}"),
            RunError::Stalled(what) => write!(f, "harness stalled: {what}"),
        }
    }
}

impl std::error::Error for RunError {}

/// A unique scratch directory under the system temp dir.
pub fn unique_run_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("fleetd-run-{}-{}-{}", tag, std::process::id(), n))
}

/// Drive `batches` through a daemon rooted at `dir` until every batch has
/// a terminal outcome, killing and recovering at each scheduled point.
///
/// The directory must be fresh (or hold a prior run of the same scenario
/// you intend to resume). Kill points are consumed in order; offsets and
/// batch counts are metered across restarts on one [`KillSwitch`].
pub fn run(
    dir: &Path,
    scenario: &DaemonScenario,
    batches: &[WindowBatch],
    kills: &[KillPoint],
) -> Result<DaemonRun, RunError> {
    let mut sw = StopAndWait::new(batches, scenario.delivery);
    let mut kill = KillSwitch::none();
    let mut kill_iter = kills.iter().copied();
    kill.rearm(kill_iter.next());

    let mut recovery = RecoveryTotals::default();
    let mut max_queue_depth = 0usize;
    let mut rounds = 0u64;

    'lifetime: loop {
        let mut daemon = open_daemon(dir, scenario.daemon, &mut recovery, scenario.max_lifetimes)?;
        sw.begin_lifetime();
        loop {
            rounds += 1;
            if rounds > scenario.max_rounds {
                return Err(RunError::Stalled("round budget exhausted"));
            }
            if sw.feed(|_| false) && daemon.queued_total() == 0 {
                // Quiescent: every batch has a terminal outcome.
                max_queue_depth = max_queue_depth.max(daemon.max_queue_depth());
                return Ok(finish(&daemon, scenario, &sw, recovery, max_queue_depth, &kill));
            }
            // A fired kill switch ends this lifetime and recovery takes
            // it from the top.
            match sw.deliver_round(&mut daemon, &mut kill) {
                Ok(_) => {}
                Err(DaemonError::Killed) => {
                    recovery.kills += 1;
                    kill.rearm(kill_iter.next());
                    max_queue_depth = max_queue_depth.max(daemon.max_queue_depth());
                    continue 'lifetime;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Collect a quiescent run's result from its final daemon lifetime.
fn finish(
    daemon: &Daemon,
    scenario: &DaemonScenario,
    sw: &StopAndWait,
    recovery: RecoveryTotals,
    max_queue_depth: usize,
    kill: &KillSwitch,
) -> DaemonRun {
    let hosts: Vec<(u32, HostState)> = daemon
        .hosts()
        .into_iter()
        .map(|(h, s)| (h, s.clone()))
        .collect();
    let evaluation = evaluate(&hosts, scenario);
    let delivery = sw.delivery();
    let mut metrics = Registry::new();
    daemon.export_metrics(&mut metrics);
    delivery.export_metrics(&mut metrics, "daemon_link");
    export_recovery_totals(&recovery, &mut metrics);
    if let Some(eval) = &evaluation {
        eval.export_metrics(&mut metrics);
    }
    DaemonRun {
        hosts,
        evaluation,
        stats: *daemon.stats(),
        delivery,
        recovery,
        lost_batches: sw.lost_batches(),
        max_queue_depth,
        total_applied: kill.applied_batches(),
        total_wal_bytes: kill.wal_bytes(),
        n_windows: scenario.daemon.n_windows,
        min_coverage: scenario.min_coverage,
        metrics,
    }
}

/// Harness-level recovery accounting, summed over every daemon lifetime
/// (the per-lifetime view is `fleetd_recovery_*` from `RecoveryReport`).
fn export_recovery_totals(rec: &RecoveryTotals, reg: &mut Registry) {
    reg.register_counter(
        "fleetd_harness_lifetimes_total",
        "Daemon lifetimes driven (1 = uninterrupted)",
    );
    reg.counter_add(
        "fleetd_harness_lifetimes_total",
        &[],
        u64::from(rec.lifetimes),
    );
    reg.register_counter("fleetd_harness_kills_total", "Kill-switch firings observed");
    reg.counter_add("fleetd_harness_kills_total", &[], u64::from(rec.kills));
    reg.register_counter(
        "fleetd_harness_snapshots_total",
        "Snapshots at recovery, by fate",
    );
    reg.counter_add(
        "fleetd_harness_snapshots_total",
        &[("fate", "loaded")],
        u64::from(rec.snapshots_loaded),
    );
    reg.counter_add(
        "fleetd_harness_snapshots_total",
        &[("fate", "discarded")],
        u64::from(rec.snapshots_discarded),
    );
    reg.register_counter(
        "fleetd_harness_wal_replayed_total",
        "WAL frames replayed into state across recoveries",
    );
    reg.counter_add("fleetd_harness_wal_replayed_total", &[], rec.wal_replayed);
    reg.register_counter(
        "fleetd_harness_wal_torn_bytes_total",
        "Torn WAL tail bytes truncated across recoveries",
    );
    reg.counter_add(
        "fleetd_harness_wal_torn_bytes_total",
        &[],
        rec.wal_torn_bytes,
    );
}

fn evaluate(hosts: &[(u32, HostState)], scenario: &DaemonScenario) -> Option<DegradedEvaluation> {
    evaluate_hosts(
        hosts,
        scenario.feature,
        scenario.daemon.n_windows as usize,
        scenario.min_coverage,
    )
}

/// [`evaluate`] without a [`DaemonScenario`]: the shared degraded-mode
/// evaluation every streaming harness (single daemon or cluster) runs over
/// its final host table. Keeping one implementation is what makes the
/// cross-harness byte-identity claims meaningful.
pub(crate) fn evaluate_hosts(
    hosts: &[(u32, HostState)],
    feature: FeatureKind,
    n_windows: usize,
    min_coverage: f64,
) -> Option<DegradedEvaluation> {
    if hosts.is_empty() {
        return None;
    }
    let pairs: Vec<(&WindowAccumulator, &WindowAccumulator)> =
        hosts.iter().map(|(_, s)| (&s.train, &s.test)).collect();
    let dataset = hids_core::degraded_dataset(feature, n_windows, &pairs).ok()?;
    let b_max = dataset
        .train
        .iter()
        .flatten()
        .map(|d| d.max())
        .fold(1.0f64, f64::max);
    let policy = Policy {
        grouping: Grouping::FullDiversity,
        heuristic: ThresholdHeuristic::P99,
    };
    let cfg = DegradedEvalConfig {
        base: EvalConfig {
            w: 0.5,
            sweep: AttackSweep::up_to(b_max),
        },
        min_coverage,
    };
    hids_core::evaluate_policy_degraded(&dataset, &policy, &cfg).ok()
}

fn status_name(s: HostStatus) -> &'static str {
    match s {
        HostStatus::Evaluated => "evaluated",
        HostStatus::LowCoverage => "low-coverage",
        HostStatus::Dark => "dark",
    }
}

/// The per-host output table — the artifact the crash-recovery contract
/// is stated over: two runs of the same scenario must render this
/// byte-identically regardless of where one of them was killed.
///
/// Floats use Rust's shortest-roundtrip `Display`, so equal strings mean
/// equal `f64`s bit-for-bit (modulo the sign of zero).
pub fn hosts_table(run: &DaemonRun) -> Table {
    hosts_table_titled(
        "daemon — per-host streaming evaluation",
        &run.hosts,
        run.evaluation.as_ref(),
        run.n_windows,
    )
}

/// [`hosts_table`] over raw parts, shared with the cluster harness so both
/// render the identical column set — the cluster determinism contract is
/// stated as byte-equality of this table's CSV across node counts.
pub(crate) fn hosts_table_titled(
    title: &str,
    hosts: &[(u32, HostState)],
    evaluation: Option<&DegradedEvaluation>,
    n_windows: u32,
) -> Table {
    let mut t = Table::new(
        title,
        &[
            "host",
            "last_seq",
            "status",
            "train_cov",
            "test_cov",
            "live_thresh",
            "live_alarms",
            "eval_thresh",
            "fp",
            "fn",
            "utility",
            "false_alarms",
        ],
    );
    let fmt_opt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x}"));
    for (i, (host, st)) in hosts.iter().enumerate() {
        let user = evaluation.map(|e| &e.users[i]);
        let (status, train_cov, test_cov) = match user {
            Some(u) => (
                status_name(u.status).to_string(),
                format!("{}", u.train_coverage),
                format!("{}", u.test_coverage),
            ),
            None => {
                let n = n_windows as usize;
                (
                    "unevaluated".to_string(),
                    format!("{}", st.train.coverage(n)),
                    format!("{}", st.test.coverage(n)),
                )
            }
        };
        let perf = user.and_then(|u| u.perf);
        t.row(vec![
            host.to_string(),
            st.last_seq.to_string(),
            status,
            train_cov,
            test_cov,
            fmt_opt(st.threshold),
            st.live_alarms.to_string(),
            fmt_opt(perf.map(|p| p.threshold)),
            fmt_opt(perf.map(|p| p.fp)),
            fmt_opt(perf.map(|p| p.fn_rate)),
            fmt_opt(perf.map(|p| p.utility)),
            perf.map_or_else(|| "-".to_string(), |p| p.false_alarms.to_string()),
        ]);
    }
    t
}

/// The hosts CSV — the byte-identity witness for the recovery contract.
pub fn hosts_csv(run: &DaemonRun) -> String {
    hosts_table(run).to_csv()
}

/// Operational counters: durability, supervision, shedding, delivery.
/// Deliberately a separate table — these legitimately differ between an
/// uninterrupted run and a killed-and-recovered one (redeliveries become
/// duplicates); only the hosts table carries the determinism contract.
pub fn ops_table(run: &DaemonRun) -> Table {
    let mut t = Table::new("daemon — operational counters", &["counter", "value"]);
    let s = &run.stats;
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
        ("total_applied", run.total_applied.to_string()),
        ("total_wal_bytes", run.total_wal_bytes.to_string()),
        ("final_life_admitted", s.admitted.to_string()),
        ("final_life_applied", s.applied.to_string()),
        ("final_life_duplicates", s.duplicates.to_string()),
        ("final_life_quarantined", s.quarantined.to_string()),
        ("final_life_shed_overload", s.shed_overload.to_string()),
        ("final_life_shed_dark", s.shed_dark.to_string()),
        ("final_life_rejected", s.rejected.to_string()),
        ("final_life_breaker_trips", s.breaker_trips.to_string()),
        ("final_life_snapshots", s.snapshots_written.to_string()),
        ("delivery_enqueued", run.delivery.enqueued.to_string()),
        ("delivery_delivered", run.delivery.delivered.to_string()),
        ("delivery_retries", run.delivery.retries.to_string()),
        ("delivery_expired", run.delivery.expired_batches.to_string()),
        ("lost_batches", run.lost_batches.to_string()),
        ("max_queue_depth", run.max_queue_depth.to_string()),
        (
            "conservation_final_life",
            s.conservation_holds(0).to_string(),
        ),
    ];
    for (k, v) in rows {
        t.row(vec![k.to_string(), v]);
    }
    t
}

impl DaemonRun {
    /// Cross-check the run's own invariants (used by `repro daemon` and
    /// tests): final-lifetime conservation, and — when nothing was lost
    /// or shed — full application of every input window.
    pub fn check(&self) -> Result<(), String> {
        if !self.stats.conservation_holds(0) {
            return Err(format!(
                "conservation violated: admitted {} != accounted {}",
                self.stats.admitted,
                self.stats.accounted()
            ));
        }
        if self.lost_batches == 0
            && self.stats.quarantined == 0
            && self.stats.shed_overload == 0
            && self.stats.shed_dark == 0
            && self.recovery.lifetimes == 1
        {
            let expect = self.stats.admitted;
            let got = self.stats.applied + self.stats.duplicates;
            if expect != got {
                return Err(format!(
                    "clean run must resolve every admitted batch: {got} of {expect}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::CorpusConfig;
    use fleetd::QueueConfig;
    use std::collections::BTreeMap;

    fn tiny_scenario() -> DaemonScenario {
        DaemonScenario {
            batch_windows: 168,
            daemon: DaemonConfig {
                n_shards: 3,
                snapshot_every: 16,
                queue: QueueConfig {
                    capacity: 64,
                    high: 48,
                    low: 16,
                    shed_after: 100_000,
                    quantum: 4,
                },
                ..DaemonConfig::default()
            },
            ..DaemonScenario::default()
        }
    }

    fn tiny_corpus() -> Corpus {
        Corpus::generate(CorpusConfig {
            n_users: 9,
            n_weeks: 2,
            ..CorpusConfig::small()
        })
    }

    #[test]
    fn batches_cover_both_weeks_in_seq_order() {
        let corpus = tiny_corpus();
        let scenario = tiny_scenario();
        let batches = build_batches(&corpus, &scenario);
        // 672 windows / 168 per batch = 4 per week, 8 per host.
        assert_eq!(batches.len(), 9 * 8);
        let mut last_seq: BTreeMap<u32, u64> = BTreeMap::new();
        let mut windows: BTreeMap<u32, u64> = BTreeMap::new();
        for b in &batches {
            let prev = last_seq.insert(b.host, b.seq).unwrap_or(0);
            assert_eq!(b.seq, prev + 1, "per-host seqs are dense and ordered");
            *windows.entry(b.host).or_insert(0) += b.counts.len() as u64;
        }
        assert!(windows.values().all(|&w| w == 2 * 672));
    }

    #[test]
    fn clean_run_reaches_full_coverage() {
        let corpus = tiny_corpus();
        let scenario = tiny_scenario();
        let batches = build_batches(&corpus, &scenario);
        let dir = unique_run_dir("clean");
        let run = run(&dir, &scenario, &batches, &[]).unwrap();
        run.check().unwrap();
        assert_eq!(run.recovery.lifetimes, 1);
        assert_eq!(run.lost_batches, 0);
        assert_eq!(run.hosts.len(), 9);
        for (_, st) in &run.hosts {
            assert_eq!(st.train.len(), 672);
            assert_eq!(st.test.len(), 672);
            assert!(st.threshold.is_some());
        }
        let eval = run.evaluation.as_ref().unwrap();
        assert_eq!(eval.status_counts(), (9, 0, 0));
        assert_eq!(hosts_table(&run).len(), 9);
        assert!(!ops_table(&run).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exhausted_retry_budgets_lose_batches_and_hosts_move_on() {
        // One shard that is busy at a depth of one batch, and a link that
        // gives up after two refusals: most hosts lose some batches.
        let mut scenario = tiny_scenario();
        scenario.daemon.n_shards = 1;
        scenario.daemon.queue = QueueConfig {
            capacity: 2,
            high: 1,
            low: 0,
            shed_after: 100_000,
            quantum: 1,
        };
        scenario.delivery.max_attempts = 2;
        let corpus = tiny_corpus();
        let batches = build_batches(&corpus, &scenario);
        let dir = unique_run_dir("lossy");
        let run = run(&dir, &scenario, &batches, &[]).expect("a lossy run still quiesces");
        std::fs::remove_dir_all(&dir).unwrap();
        run.check().unwrap();
        assert!(run.lost_batches > 0, "the budget must run out");
        assert_eq!(run.lost_batches, run.delivery.expired_batches);
        assert_eq!(
            run.delivery.enqueued,
            run.delivery.delivered + run.delivery.expired_batches
        );
        // A host that lost a batch still had its last batch applied.
        let last_seq: BTreeMap<u32, u64> = batches.iter().map(|b| (b.host, b.seq)).collect();
        let moved_on = run.hosts.iter().filter(|(h, st)| {
            st.train.len() + st.test.len() < 2 * 672 && st.last_seq == last_seq[h]
        });
        assert!(moved_on.count() > 0, "no host got past a lost batch");
    }

    #[test]
    fn kill_and_recover_matches_uninterrupted_csv() {
        let corpus = tiny_corpus();
        let scenario = tiny_scenario();
        let batches = build_batches(&corpus, &scenario);

        let ref_dir = unique_run_dir("ref");
        let reference = run(&ref_dir, &scenario, &batches, &[]).unwrap();
        let ref_csv = hosts_csv(&reference);
        std::fs::remove_dir_all(&ref_dir).unwrap();

        let kill_dir = unique_run_dir("killed");
        let killed = run(
            &kill_dir,
            &scenario,
            &batches,
            &[KillPoint::AfterBatches(reference.total_applied / 2)],
        )
        .unwrap();
        assert_eq!(killed.recovery.kills, 1);
        assert_eq!(killed.recovery.lifetimes, 2);
        assert_eq!(killed.lost_batches, 0);
        assert_eq!(hosts_csv(&killed), ref_csv);
        std::fs::remove_dir_all(&kill_dir).unwrap();
    }
}
