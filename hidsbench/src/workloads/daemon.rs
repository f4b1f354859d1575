//! `daemon-wire`: the syslog/CEF ingest plane feeding the crash-safe
//! daemon (`experiments::ingest::run` at severity 0), then a restart.
//!
//! Every host's two weeks travel as CEF-in-syslog datagrams through
//! `fleetd`'s ingest into the daemon over `itconsole`'s delivery link:
//! a closed loop with one outstanding batch per host, stop-and-wait on a
//! virtual clock. The rep ends by reopening the daemon on what the run
//! wrote (snapshot decode plus WAL replay), which must rebuild the same
//! host table. It is the only workload on the WAL, snapshots, delivery
//! queue and ingest decoder. Set-up generates the corpus.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

use experiments::daemon::{self, DaemonRun, DaemonScenario, RecoveryTotals};
use experiments::ingest::{IngestRun, IngestScenario, DNS_NAME_POOL};
use experiments::{Corpus, CorpusConfig};
use faultsim::{DatagramFaultLog, DatagramFaults};
use fleetd::{
    encode_batch_datagram, encode_dns_datagram, Admit, Daemon, HostState, IngestConfig,
    IngestOutcome, Ingestor, KillSwitch, Lane, WindowBatch,
};
use flowtab::FeatureKind;
use hids_core::degraded::{DegradedEvalConfig, DegradedEvaluation};
use hids_core::{AttackSweep, EvalConfig, Grouping, Policy, ThresholdHeuristic, WindowAccumulator};
use hids_metrics::Registry;
use itconsole::DeliveryQueue;

use super::{fnv1a, fresh_dir, Check, RepSummary, Workload, FNV_OFFSET};
use crate::stats::Summary as Stats;
use crate::trace::Tracer;

pub struct DaemonWire {
    pub users: usize,
}

impl DaemonWire {
    pub fn full() -> Self {
        Self { users: 300 }
    }

    pub fn smoke() -> Self {
        Self { users: 12 }
    }
}

pub struct Input {
    corpus: Corpus,
    scenario: IngestScenario,
}

pub struct Output {
    /// The daemon's directory.
    dir: PathBuf,
    run: IngestRun,
    /// Host table of the daemon reopened on the run's directory.
    reopened: Vec<(u32, HostState)>,
    /// Offers the daemon refused (busy shard or overflow); traced only.
    refused: Option<u64>,
    /// Virtual ticks from each batch's first offer to its completion;
    /// traced only.
    wait_ticks: Vec<u64>,
}

/// Batches the corpus splits into: two weeks per host, `batch_windows`
/// windows each.
fn expected_batches(input: &Input) -> u64 {
    let sc = &input.scenario.daemon;
    let per_week = (sc.daemon.n_windows as usize).div_ceil(sc.batch_windows.max(1));
    (input.corpus.n_users() * 2 * per_week) as u64
}

/// `experiments::daemon`'s evaluation of the final host table.
fn evaluate_hosts(
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

#[derive(Default)]
struct Extras {
    refused: u64,
    wait_ticks: Vec<u64>,
}

/// `experiments::daemon::run` for one uninterrupted lifetime, with spans.
fn traced_daemon(
    dir: &Path,
    sc: &DaemonScenario,
    batches: &[WindowBatch],
    tr: &mut Tracer,
) -> Result<(DaemonRun, Extras), String> {
    tr.enter("experiments.harness");
    let mut by_host: BTreeMap<u32, Vec<&WindowBatch>> = BTreeMap::new();
    for b in batches {
        by_host.entry(b.host).or_default().push(b);
    }
    tr.exit();
    let mut kill = KillSwitch::none();
    let mut lost: BTreeSet<(u32, u64)> = BTreeSet::new();
    let mut recovery = RecoveryTotals {
        lifetimes: 1,
        ..RecoveryTotals::default()
    };
    let (mut daemon, rec) = tr
        .span("fleetd.daemon.open", || Daemon::open(dir, sc.daemon))
        .map_err(|e| format!("open: {e}"))?;
    if rec.snapshot_seq.is_some() {
        recovery.snapshots_loaded += 1;
    }
    recovery.snapshots_discarded += rec.snapshots_discarded;
    recovery.wal_replayed += rec.wal_replayed;
    recovery.wal_torn_bytes += rec.wal_torn_bytes;

    let mut queue: DeliveryQueue<WindowBatch> =
        tr.span("itconsole.delivery", || DeliveryQueue::new(sc.delivery));
    let mut cursor: BTreeMap<u32, usize> = by_host.keys().map(|&h| (h, 0)).collect();
    let mut in_flight: BTreeSet<u32> = BTreeSet::new();
    let mut attempts: BTreeMap<(u32, u64), u32> = BTreeMap::new();
    let mut offered_at: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    let mut extras = Extras::default();
    let mut rounds = 0u64;
    loop {
        rounds += 1;
        if rounds > sc.max_rounds {
            return Err("harness stalled: round budget exhausted".into());
        }

        tr.enter("experiments.harness");
        let mut work_left = false;
        for (&host, &idx) in &cursor {
            let list = &by_host[&host];
            if idx < list.len() {
                work_left = true;
                if !in_flight.contains(&host) {
                    let b = list[idx];
                    if tr.span("itconsole.delivery", || queue.offer(b.clone())) {
                        in_flight.insert(host);
                        offered_at.entry((b.host, b.seq)).or_insert(rounds);
                    }
                }
            }
        }
        let quiescent =
            !work_left && in_flight.is_empty() && queue.is_empty() && daemon.queued_total() == 0;
        tr.exit();
        if quiescent {
            let delivery = queue.stats();
            let (hosts, stats, max_queue_depth) = tr.span("fleetd.daemon.query", || {
                let hosts: Vec<(u32, HostState)> = daemon
                    .hosts()
                    .into_iter()
                    .map(|(h, s)| (h, s.clone()))
                    .collect();
                (hosts, *daemon.stats(), daemon.max_queue_depth())
            });
            let evaluation = tr.span("hids_core.degraded_eval", || {
                evaluate_hosts(
                    &hosts,
                    sc.feature,
                    sc.daemon.n_windows as usize,
                    sc.min_coverage,
                )
            });
            let mut metrics = Registry::new();
            tr.span("hids_metrics.export", || {
                daemon.export_metrics(&mut metrics);
                delivery.export_metrics(&mut metrics, "daemon_link");
                if let Some(eval) = &evaluation {
                    eval.export_metrics(&mut metrics);
                }
            });
            let run = DaemonRun {
                hosts,
                evaluation,
                stats,
                delivery,
                recovery,
                lost_batches: lost.len() as u64,
                max_queue_depth,
                total_applied: kill.applied_batches(),
                total_wal_bytes: kill.wal_bytes(),
                n_windows: sc.daemon.n_windows,
                min_coverage: sc.min_coverage,
                metrics,
            };
            return Ok((run, extras));
        }

        tr.enter("itconsole.delivery");
        queue.pump(|b| {
            let admitted = tr.span("fleetd.daemon.offer", || {
                !daemon.shard_busy(b.host) && daemon.offer(b.clone()) != Admit::Overflow
            });
            if !admitted {
                *attempts.entry((b.host, b.seq)).or_insert(0) += 1;
                extras.refused += 1;
            }
            admitted
        });
        tr.exit();

        tr.enter("experiments.harness");
        attempts.retain(|&(host, seq), &mut n| {
            if n >= sc.delivery.max_attempts {
                lost.insert((host, seq));
                if let Some(idx) = cursor.get_mut(&host) {
                    *idx += 1;
                }
                in_flight.remove(&host);
                false
            } else {
                true
            }
        });
        tr.exit();

        let snapshots = daemon.stats().snapshots_written;
        tr.enter("fleetd.daemon.tick_plain");
        let ticked = daemon.tick(&mut kill);
        let snapshotted = daemon.stats().snapshots_written > snapshots;
        tr.exit_as(if snapshotted {
            "fleetd.daemon.tick_snapshot"
        } else {
            "fleetd.daemon.tick_plain"
        });
        // No kill is scheduled, so any error ends the run.
        ticked.map_err(|e| format!("tick: {e}"))?;

        let completions = tr.span("fleetd.daemon.query", || daemon.take_completions());
        tr.enter("experiments.harness");
        for c in completions {
            attempts.remove(&(c.host, c.seq));
            if let Some(at) = offered_at.remove(&(c.host, c.seq)) {
                extras.wait_ticks.push(rounds - at);
            }
            if let Some(idx) = cursor.get_mut(&c.host) {
                let list = &by_host[&c.host];
                if *idx < list.len() && list[*idx].seq == c.seq {
                    *idx += 1;
                    in_flight.remove(&c.host);
                }
            }
        }
        tr.exit();
        tr.span("itconsole.delivery", || queue.tick(1));
    }
}

/// `experiments::ingest::run` for a scenario without flooding hosts, with
/// spans.
fn traced_ingest(
    input: &Input,
    dir: &Path,
    tr: &mut Tracer,
) -> Result<(IngestRun, Extras), String> {
    let (corpus, sc) = (&input.corpus, &input.scenario);
    let batches = tr.span("experiments.batches", || {
        daemon::build_batches(corpus, &sc.daemon)
    });
    let faults = DatagramFaults::with_severity(sc.severity);
    let mut ingestor = Ingestor::new(IngestConfig {
        rate_per_tick: sc.rate_per_tick,
        burst: sc.burst,
        ticks_per_window: 64,
        ..IngestConfig::default()
    });
    let mut fault_log = DatagramFaultLog::default();
    let mut accepted: Vec<WindowBatch> = Vec::new();

    for (slot, b) in batches.iter().enumerate() {
        let tick = slot as u64;
        let wire = tr.span("fleetd.encode", || {
            encode_batch_datagram(b, &format!("host{:04}", b.host), "hids-agent")
        });
        let copies = tr.span("faultsim.apply", || {
            faults.apply(&wire, sc.seed, slot as u64, &mut fault_log)
        });
        for copy in copies {
            if let IngestOutcome::Batch(decoded) = tr.span("fleetd.ingest", || {
                ingestor.ingest(tick, b.host, Lane::Syslog, &copy)
            }) {
                accepted.push(decoded);
            }
        }
    }

    let dns_base = batches.len() as u64;
    let mut dns_index = dns_base;
    for host in 0..corpus.n_users() as u32 {
        for q in 0..sc.dns_queries_per_host {
            let base = DNS_NAME_POOL[(host as usize + q as usize) % DNS_NAME_POOL.len()];
            let name = if q % 2 == 1 {
                base.to_ascii_uppercase()
            } else {
                base.to_string()
            };
            let Ok(wire) = tr.span("fleetd.encode", || encode_dns_datagram(host as u16, &name))
            else {
                continue;
            };
            let tick = dns_base + q as u64;
            let copies = tr.span("faultsim.apply", || {
                faults.apply(&wire, sc.seed, dns_index, &mut fault_log)
            });
            for copy in copies {
                tr.span("fleetd.ingest", || {
                    ingestor.ingest(tick, host, Lane::Dns, &copy)
                });
            }
            dns_index += 1;
        }
    }
    let dns_distinct_total = tr.span("fleetd.ingest", || {
        (0..corpus.n_users() as u32)
            .map(|h| ingestor.dns_distinct(h).iter().map(|(_, n)| n).sum::<u64>())
            .sum()
    });

    let (mut run, extras) = traced_daemon(dir, &sc.daemon, &accepted, tr)?;
    tr.span("hids_metrics.export", || {
        ingestor.export_metrics(&mut run.metrics)
    });
    let run = IngestRun {
        stats: ingestor.stats(),
        fault_log,
        accepted_batches: accepted.len() as u64,
        flood_hosts: sc.flood_hosts.clone(),
        dns_distinct_total,
        run,
    };
    Ok((run, extras))
}

fn nearest_rank(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

impl Workload for DaemonWire {
    type Input = Input;
    type Output = Output;

    fn name(&self) -> &'static str {
        "daemon-wire"
    }

    fn op_unit(&self) -> &'static str {
        "batches"
    }

    fn scale(&self) -> String {
        format!(
            "{} users x 2 weeks, 96-window batches, severity 0",
            self.users
        )
    }

    fn default_seed(&self) -> u64 {
        0xC0FFEE
    }

    fn pinned_fingerprint(&self) -> Option<u64> {
        (self.users == 300).then_some(PIN_FULL)
    }

    fn setup(&self, seed: u64) -> Result<Input, String> {
        let corpus = Corpus::generate(CorpusConfig {
            n_users: self.users,
            n_weeks: 2,
            seed,
            ..CorpusConfig::default()
        });
        let scenario = IngestScenario::default();
        if !scenario.flood_hosts.is_empty() || scenario.severity != 0.0 {
            return Err("the traced mirror covers the clean, flood-free wire only".into());
        }
        Ok(Input { corpus, scenario })
    }

    fn rep(&self, input: &Input, dir: &Path, tr: &mut Tracer) -> Result<Output, String> {
        let (run, extras) = if tr.is_on() {
            let (run, extras) = traced_ingest(input, dir, tr)?;
            (run, Some(extras))
        } else {
            let run = experiments::ingest::run(dir, &input.corpus, &input.scenario)
                .map_err(|e| e.to_string())?;
            (run, None)
        };
        let reopened = tr
            .span("fleetd.recovery", || {
                Daemon::open(dir, input.scenario.daemon.daemon).map(|(d, _)| {
                    d.hosts()
                        .into_iter()
                        .map(|(h, s)| (h, s.clone()))
                        .collect::<Vec<_>>()
                })
            })
            .map_err(|e| format!("reopen: {e}"))?;
        let (refused, wait_ticks) = match extras {
            Some(e) => (Some(e.refused), e.wait_ticks),
            None => (None, Vec::new()),
        };
        Ok(Output {
            dir: dir.to_path_buf(),
            run,
            reopened,
            refused,
            wait_ticks,
        })
    }

    fn summarize(&self, input: &Input, out: &Output) -> RepSummary {
        let r = &out.run;
        let d = &r.run;
        let expected = expected_batches(input);
        let check = r.check();
        let n_windows = input.scenario.daemon.daemon.n_windows as usize;
        let complete = d.hosts.len() == input.corpus.n_users()
            && d.hosts
                .iter()
                .all(|(_, s)| s.train.len() == n_windows && s.test.len() == n_windows);
        let checks = vec![
            Check::new(
                "ingest_check",
                check.is_ok(),
                check
                    .err()
                    .unwrap_or_else(|| "conservation and full application hold".into()),
            ),
            Check::new(
                "nothing_lost",
                d.lost_batches == 0 && r.stats.shed == 0 && r.stats.malformed == 0,
                format!(
                    "{} batches lost, {} datagrams shed, {} malformed",
                    d.lost_batches, r.stats.shed, r.stats.malformed
                ),
            ),
            Check::new(
                "every_batch_applied",
                d.stats.applied == expected && r.accepted_batches == expected,
                format!(
                    "{} applied, {} accepted of {expected}",
                    d.stats.applied, r.accepted_batches
                ),
            ),
            Check::new(
                "host_table_complete",
                complete,
                format!(
                    "{} hosts, both weeks of {n_windows} windows each",
                    d.hosts.len()
                ),
            ),
            Check::new(
                "recovery_identical",
                out.reopened == d.hosts,
                format!("reopened daemon holds {} hosts", out.reopened.len()),
            ),
        ];
        let snapshot_bytes = fleetd::snapshot::list_snapshots(&out.dir)
            .ok()
            .and_then(|s| s.first().and_then(|(_, p)| std::fs::metadata(p).ok()))
            .map_or(0, |m| m.len());
        let mut counts = vec![
            ("fleetd.ingest.datagrams", r.stats.received as f64),
            ("fleetd.ingest.malformed", r.stats.malformed as f64),
            ("fleetd.ingest.shed", r.stats.shed as f64),
            (
                "itconsole.delivery.attempts_per_batch",
                (d.delivery.delivered + d.delivery.retries) as f64
                    / d.delivery.enqueued.max(1) as f64,
            ),
            ("fleetd.snapshot.count", d.stats.snapshots_written as f64),
            ("fleetd.snapshot.bytes_final", snapshot_bytes as f64),
            ("fleetd.wal.bytes_appended", d.total_wal_bytes as f64),
        ];
        if let Some(refused) = out.refused {
            let mut waits = out.wait_ticks.clone();
            waits.sort_unstable();
            counts.push(("fleetd.daemon.offer.refused", refused as f64));
            counts.push(("fleetd.queue.wait_ticks_p50", nearest_rank(&waits, 0.50)));
            counts.push(("fleetd.queue.wait_ticks_p99", nearest_rank(&waits, 0.99)));
        }
        RepSummary {
            ops: d.stats.applied,
            failed: d.lost_batches
                + r.stats.shed
                + r.stats.malformed
                + expected.saturating_sub(d.stats.applied),
            fingerprint: fnv1a(FNV_OFFSET, daemon::hosts_csv(d).as_bytes()),
            counts,
            checks,
        }
    }

    /// At severity 0 the wire must add nothing: the hosts CSV equals that
    /// of the daemon fed the synthetic batches directly.
    fn verify(&self, input: &Input, out: &Output) -> Vec<Check> {
        let dir = out.dir.with_file_name("synthetic");
        let sc = &input.scenario.daemon;
        let reference = fresh_dir(&dir).and_then(|()| {
            let batches = daemon::build_batches(&input.corpus, sc);
            daemon::run(&dir, sc, &batches, &[]).map_err(|e| e.to_string())
        });
        let _ = std::fs::remove_dir_all(&dir);
        let check = match reference {
            Ok(reference) => {
                let same = daemon::hosts_csv(&reference) == daemon::hosts_csv(&out.run.run);
                Check::new(
                    "wire_matches_synthetic_path",
                    same,
                    "hosts CSV against the synthetic-batch path",
                )
            }
            Err(e) => Check::new("wire_matches_synthetic_path", false, e),
        };
        vec![check]
    }

    /// Recovery cost split: how much of a reopen is loading the newest
    /// snapshot, over 20 reopens of the last rep's directory.
    fn profile(&self, input: &Input, dir: &Path) -> Result<Vec<(&'static str, f64)>, String> {
        const REOPENS: usize = 20;
        let mut load = Vec::with_capacity(REOPENS);
        let mut open = Vec::with_capacity(REOPENS);
        for _ in 0..REOPENS {
            let t = Instant::now();
            fleetd::snapshot::load_latest(dir).map_err(|e| format!("load snapshot: {e}"))?;
            load.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            Daemon::open(dir, input.scenario.daemon.daemon).map_err(|e| format!("reopen: {e}"))?;
            open.push(t.elapsed().as_secs_f64());
        }
        let median = |v: &[f64]| Stats::of(v).map_or(0.0, |s| s.median);
        let (load, open) = (median(&load), median(&open));
        Ok(vec![
            (
                "fleetd.recovery.snapshot_load_frac",
                if open > 0.0 { load / open } else { 0.0 },
            ),
            ("fleetd.recovery.open_ms", open * 1e3),
        ])
    }
}

/// Hosts-CSV fingerprint of the full scale at the default seed.
const PIN_FULL: u64 = 0x3a2f_7687_5e33_5fe2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_mirror_reproduces_ingest_run() {
        let w = DaemonWire { users: 5 };
        let base =
            std::env::temp_dir().join(format!("hidsbench-daemon-test-{}", std::process::id()));
        let (plain_dir, traced_dir) = (base.join("plain"), base.join("traced"));
        fresh_dir(&plain_dir).unwrap();
        fresh_dir(&traced_dir).unwrap();
        let input = w.setup(42).unwrap();
        let plain = w.rep(&input, &plain_dir, &mut Tracer::off()).unwrap();
        let mut tr = Tracer::on();
        let traced = w.rep(&input, &traced_dir, &mut tr).unwrap();
        let (p, t) = (w.summarize(&input, &plain), w.summarize(&input, &traced));
        assert_eq!(p.fingerprint, t.fingerprint);
        assert!(t.checks.iter().all(|c| c.ok), "{:?}", t.checks);
        assert_eq!(traced.run.stats, plain.run.stats);
        assert_eq!(
            traced.run.run.total_wal_bytes,
            plain.run.run.total_wal_bytes
        );
        assert_eq!(traced.wait_ticks.len() as u64, expected_batches(&input));
        assert!(w.verify(&input, &plain)[0].ok);
        std::fs::remove_dir_all(&base).unwrap();
    }
}
