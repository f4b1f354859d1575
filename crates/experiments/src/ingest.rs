//! Ingest-plane scenario: the synthetic batch stream re-encoded as real
//! syslog/CEF datagrams, faulted in flight, flood-attacked, and fed
//! through `fleetd::ingest` into the standard daemon harness.
//!
//! The pipeline under test:
//!
//! ```text
//! build_batches ─► encode_batch_datagram ─► DatagramFaults ─► Ingestor
//!                                                               │
//!        daemon::run ◄── accepted WindowBatches ◄───────────────┘
//! ```
//!
//! Two properties anchor it. First, **identity at severity zero**: with
//! no faults and no flood, every encoded datagram decodes back to its
//! original batch, so the daemon consumes the exact synthetic stream and
//! the hosts CSV is byte-identical to the synthetic-batch path — the
//! wire format and parser provably add nothing. Second, **graceful
//! degradation everywhere else**: faulted datagrams become `malformed`
//! counts, flooded sources shed with accounting
//! (`received = accepted + shed + malformed` is checked, never assumed),
//! and the victims surface as `LowCoverage`/`Dark` through the same
//! degraded evaluation the rest of the pipeline uses.
//!
//! A DNS lane rides along: every host also queries a small name pool —
//! in inconsistent letter case — through real RFC 1035 messages, and the
//! distinct-contacts counts must reflect case-folded names.

use std::fmt::Write as _;
use std::path::Path;

use faultsim::{DatagramFaultLog, DatagramFaults};
use fleetd::{
    encode_batch_datagram, encode_dns_datagram, IngestConfig, IngestOutcome, IngestStats,
    Ingestor, Lane, Week, WindowBatch,
};
use hids_core::degraded::HostStatus;

use crate::daemon::{self, DaemonRun, DaemonScenario, RunError};
use crate::data::Corpus;
use crate::report::Table;

/// Everything an ingest run needs besides the corpus and a directory.
#[derive(Debug, Clone)]
pub struct IngestScenario {
    /// Seed for the datagram fault stream.
    pub seed: u64,
    /// Datagram fault severity in `[0, 1]` (0 = clean wire).
    pub severity: f64,
    /// Token-bucket refill per source per tick.
    pub rate_per_tick: u64,
    /// Token-bucket capacity per source.
    pub burst: u64,
    /// Hosts whose agents are compromised: during the test week each
    /// floods junk datagrams ahead of its real batch, draining its own
    /// bucket so the real telemetry is shed.
    pub flood_hosts: Vec<u32>,
    /// Junk datagrams per flooded slot. Must exceed `burst` to starve
    /// the real batch behind it.
    pub flood_burst: u64,
    /// DNS queries each host issues after the batch phase.
    pub dns_queries_per_host: u32,
    /// Downstream daemon scenario (feature, batching, delivery, eval).
    pub daemon: DaemonScenario,
}

impl Default for IngestScenario {
    fn default() -> Self {
        Self {
            seed: 0x1257_0DD5,
            severity: 0.0,
            rate_per_tick: 16,
            burst: 64,
            flood_hosts: Vec::new(),
            flood_burst: 96,
            dns_queries_per_host: 12,
            daemon: DaemonScenario::default(),
        }
    }
}

/// Small name pool the DNS lane queries, deliberately re-queried under
/// inconsistent letter case: distinct-contact counts must be identical
/// to a consistently-lowercase fleet, or the feature is case-inflated.
pub const DNS_NAME_POOL: [&str; 6] = [
    "ntp.example.com",
    "mail.example.com",
    "cdn.example.net",
    "updates.example.org",
    "ldap.corp.example",
    "files.corp.example",
];

/// The result of one ingest-plane run.
#[derive(Debug)]
pub struct IngestRun {
    /// Ingest-plane counters (conservation law checked by [`check`]).
    ///
    /// [`check`]: IngestRun::check
    pub stats: IngestStats,
    /// What the faulted wire did to the datagram stream.
    pub fault_log: DatagramFaultLog,
    /// Batches that survived ingest, in arrival order.
    pub accepted_batches: u64,
    /// Hosts that were flooding (copied from the scenario).
    pub flood_hosts: Vec<u32>,
    /// Sum over hosts of case-folded distinct DNS contacts.
    pub dns_distinct_total: u64,
    /// The downstream daemon run over the accepted stream. Its metrics
    /// registry additionally carries the `ingest_*` families and the
    /// ingest plane's flood-latch events.
    pub run: DaemonRun,
}

impl IngestRun {
    /// Hosts CSV of the downstream run — the identity witness.
    pub fn hosts_csv(&self) -> String {
        daemon::hosts_csv(&self.run)
    }

    /// Status of one host in the final evaluation, if it was present.
    pub fn host_status(&self, host: u32) -> Option<HostStatus> {
        let eval = self.run.evaluation.as_ref()?;
        let idx = self.run.hosts.iter().position(|(h, _)| *h == host)?;
        eval.users.get(idx).map(|u| u.status)
    }

    /// Invariants every ingest run must satisfy, severity and flood
    /// schedule notwithstanding.
    pub fn check(&self) -> Result<(), String> {
        if !self.stats.conservation_holds() {
            return Err(format!(
                "ingest conservation violated: received {} != accepted {} + shed {} + malformed {}",
                self.stats.received, self.stats.accepted, self.stats.shed, self.stats.malformed
            ));
        }
        if self.stats.flood_latched as usize > 0 && self.flood_hosts.is_empty() {
            return Err("flood latched with no flooding host configured".into());
        }
        // Only a datagram the wire altered can decode into a batch the
        // daemon rejects as structurally invalid; an encoded batch itself
        // always fits its week.
        let altered = self.fault_log.corrupted + self.fault_log.truncated;
        if altered == 0 && self.run.stats.rejected > 0 {
            return Err(format!(
                "{} batches rejected although the wire altered no datagram",
                self.run.stats.rejected
            ));
        }
        self.run.check()
    }
}

/// Drive one ingest scenario end to end. `dir` must be fresh; the daemon
/// phase roots its WAL and snapshots there.
pub fn run(dir: &Path, corpus: &Corpus, scenario: &IngestScenario) -> Result<IngestRun, RunError> {
    let batches = daemon::build_batches(corpus, &scenario.daemon);
    let faults = DatagramFaults::with_severity(scenario.severity);
    let mut ingestor = Ingestor::new(IngestConfig {
        rate_per_tick: scenario.rate_per_tick,
        burst: scenario.burst,
        // DNS ticks continue after the batch phase; a coarse window keeps
        // each host's queries inside one or two feature windows so
        // distinct-contact counting is actually exercised.
        ticks_per_window: 64,
        ..IngestConfig::default()
    });
    let mut fault_log = DatagramFaultLog::default();
    let mut accepted: Vec<WindowBatch> = Vec::new();

    // Phase 1: the batch stream, one slot (= one virtual tick) per
    // synthetic batch, in the same round-robin order as the synthetic
    // path. A flooding host spends its slot spraying junk first, so its
    // own real batch meets an empty bucket.
    let mut hostname = String::new();
    for (slot, b) in batches.iter().enumerate() {
        let tick = slot as u64;
        if b.week == Week::Test && scenario.flood_hosts.contains(&b.host) {
            for k in 0..scenario.flood_burst {
                let junk = format!("<13>1 - flood{k} spam - - - not-telemetry");
                ingestor.ingest(tick, b.host, Lane::Syslog, junk.as_bytes());
            }
        }
        hostname.clear();
        let _ = write!(hostname, "host{:04}", b.host);
        let wire = encode_batch_datagram(b, &hostname, "hids-agent");
        for copy in faults.apply(&wire, scenario.seed, slot as u64, &mut fault_log) {
            if let IngestOutcome::Batch(decoded) =
                ingestor.ingest(tick, b.host, Lane::Syslog, &copy)
            {
                accepted.push(decoded);
            }
        }
    }

    // Phase 2: the DNS lane. Every host queries the pool with a case
    // spelling that flips per query; the faulted wire applies here too.
    let dns_base = batches.len() as u64;
    let mut dns_index = batches.len() as u64;
    for host in 0..corpus.n_users() as u32 {
        for q in 0..scenario.dns_queries_per_host {
            let base = DNS_NAME_POOL[(host as usize + q as usize) % DNS_NAME_POOL.len()];
            let name = if q % 2 == 1 {
                base.to_ascii_uppercase()
            } else {
                base.to_string()
            };
            let Ok(wire) = encode_dns_datagram(host as u16, &name) else {
                continue;
            };
            let tick = dns_base + q as u64;
            for copy in faults.apply(&wire, scenario.seed, dns_index, &mut fault_log) {
                ingestor.ingest(tick, host, Lane::Dns, &copy);
            }
            dns_index += 1;
        }
    }

    let dns_distinct_total: u64 = (0..corpus.n_users() as u32)
        .map(|h| ingestor.dns_distinct(h).iter().map(|(_, n)| n).sum::<u64>())
        .sum();

    // Phase 3: the surviving stream through the standard daemon harness.
    let mut run = daemon::run(dir, &scenario.daemon, &accepted, &[])?;
    ingestor.export_metrics(&mut run.metrics);

    Ok(IngestRun {
        stats: ingestor.stats(),
        fault_log,
        accepted_batches: accepted.len() as u64,
        flood_hosts: scenario.flood_hosts.clone(),
        dns_distinct_total,
        run,
    })
}

/// One row per severity: what the wire did and what survived it.
pub fn sweep_table(rows: &[(f64, &IngestRun)]) -> Table {
    let mut t = Table::new(
        "ingest — datagram severity sweep",
        &[
            "severity",
            "received",
            "accepted",
            "shed",
            "malformed",
            "dropped_wire",
            "evaluated",
            "low_cov",
            "dark",
            "dns_distinct",
        ],
    );
    for (severity, r) in rows {
        let (evaluated, low, dark) = r
            .run
            .evaluation
            .as_ref()
            .map(|e| e.status_counts())
            .unwrap_or((0, 0, 0));
        t.row(vec![
            format!("{severity}"),
            r.stats.received.to_string(),
            r.stats.accepted.to_string(),
            r.stats.shed.to_string(),
            r.stats.malformed.to_string(),
            r.fault_log.dropped.to_string(),
            evaluated.to_string(),
            low.to_string(),
            dark.to_string(),
            r.dns_distinct_total.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::CorpusConfig;

    fn small_corpus() -> Corpus {
        Corpus::generate(CorpusConfig {
            n_users: 6,
            n_weeks: 2,
            seed: 0xBEEF,
            ..CorpusConfig::small()
        })
    }

    fn run_in_fresh_dir(corpus: &Corpus, scenario: &IngestScenario) -> IngestRun {
        let dir = daemon::unique_run_dir("ingest-mod");
        let r = run(&dir, corpus, scenario).expect("ingest run");
        let _ = std::fs::remove_dir_all(&dir);
        r
    }

    #[test]
    fn severity_zero_matches_synthetic_path() {
        let corpus = small_corpus();
        let scenario = IngestScenario::default();
        let r = run_in_fresh_dir(&corpus, &scenario);
        r.check().expect("invariants");
        assert_eq!(r.stats.shed, 0);
        assert_eq!(r.stats.lanes[0].malformed, 0, "clean wire, clean parse");

        let batches = daemon::build_batches(&corpus, &scenario.daemon);
        let ref_dir = daemon::unique_run_dir("ingest-mod-ref");
        let reference = daemon::run(&ref_dir, &scenario.daemon, &batches, &[]).expect("ref run");
        let _ = std::fs::remove_dir_all(&ref_dir);
        assert_eq!(
            r.hosts_csv(),
            daemon::hosts_csv(&reference),
            "severity-0 ingest must be byte-identical to the synthetic path"
        );
    }

    #[test]
    fn flooded_host_degrades_not_vanishes() {
        let corpus = small_corpus();
        let scenario = IngestScenario {
            flood_hosts: vec![2],
            ..IngestScenario::default()
        };
        let r = run_in_fresh_dir(&corpus, &scenario);
        r.check().expect("invariants");
        assert!(r.stats.shed > 0, "flood must shed");
        assert!(r.stats.flood_latched >= 1, "flood must latch");
        let status = r.host_status(2).expect("flooded host still in table");
        assert_ne!(
            status,
            HostStatus::Evaluated,
            "flooded host must surface as LowCoverage/Dark"
        );
    }

    #[test]
    fn dns_distinct_counts_are_case_folded() {
        let corpus = small_corpus();
        let r = run_in_fresh_dir(&corpus, &IngestScenario::default());
        // 12 queries over a 6-name pool with alternating case: at most 6
        // distinct per host per window, strictly fewer sightings than
        // queries.
        assert!(r.stats.dns_queries > 0);
        assert!(r.stats.dns_novel < r.stats.dns_queries);
        assert!(r.dns_distinct_total >= corpus.n_users() as u64);
        assert!(r.dns_distinct_total <= (corpus.n_users() * DNS_NAME_POOL.len()) as u64 * 2);
    }

    /// A corrupted datagram can decode into a well-formed batch whose
    /// windows overrun the week (seen once in 13595 batches at 1000
    /// hosts, severity 0.2). The daemon rejects it; the run is then not
    /// clean, so the full-resolution law must not apply. Only an altered
    /// wire may cause a rejection.
    #[test]
    fn rejected_batch_is_not_an_unresolved_one() {
        let corpus = small_corpus();
        let scenario = IngestScenario::default();
        let mut batches = daemon::build_batches(&corpus, &scenario.daemon);
        let last_seq = batches.iter().filter(|b| b.host == 0).map(|b| b.seq).max();
        let n_windows = scenario.daemon.daemon.n_windows;
        batches.push(WindowBatch {
            host: 0,
            seq: last_seq.unwrap_or(0) + 1,
            week: Week::Test,
            start: n_windows - 1,
            counts: vec![1, 1],
            poison: false,
        });
        let dir = daemon::unique_run_dir("ingest-mod-reject");
        let run = daemon::run(&dir, &scenario.daemon, &batches, &[]).expect("daemon run");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(run.stats.rejected, 1);
        run.check().expect("a rejected batch is resolved, not lost");

        let mut r = IngestRun {
            stats: IngestStats::default(),
            fault_log: DatagramFaultLog::default(),
            accepted_batches: batches.len() as u64,
            flood_hosts: Vec::new(),
            dns_distinct_total: 0,
            run,
        };
        let err = r.check().expect_err("a clean wire rejects nothing");
        assert!(err.contains("altered no datagram"), "{err}");
        r.fault_log.corrupted = 1;
        r.check().expect("a corrupted datagram may be rejected");
    }
}
