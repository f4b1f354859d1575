//! Chaos experiment: the full pipeline under seeded fault injection.
//!
//! Drives every hardened layer through a `faultsim::FaultPlan` at a chosen
//! severity and verifies that the system *degrades* instead of breaking:
//!
//! 1. **capture** — a synthetic pcap trace is corrupted byte-wise and
//!    ingested through `LossyPcapReader` + `FlowExtractor`; loss is
//!    counted, never panicked on;
//! 2. **evaluation** — telemetry masks (window drops, host dropouts) feed
//!    the degraded-mode evaluator, which configures thresholds on the data
//!    that arrived and reports coverage next to `⟨FN, FP⟩` for each of the
//!    paper's three groupings;
//! 3. **delivery** — the surviving hosts' alert batches are duplicated and
//!    reordered in flight, then shipped through the bounded retry queue
//!    over a deterministically flapping link into the central console.
//!
//! [`ChaosReport::check`] asserts the cross-stage conservation laws (no
//! alert or record is silently created or destroyed — everything is either
//! delivered or accounted as lost), and that severity 0 reproduces the
//! clean pipeline *exactly*. The whole run is a pure function of
//! `(corpus, ChaosConfig)`.

use faultsim::FaultPlan;
use flowtab::{FeatureKind, FlowExtractor, FlowTableConfig};
use hids_core::{
    evaluate_policy_degraded, eval::evaluate_policy, DegradedDataset, DegradedEvalConfig,
    Detector, EvalConfig, Grouping, PartialMethod, Policy, ThresholdHeuristic,
};
use itconsole::{AlertBatcher, CentralConsole, DeliveryConfig, DeliveryQueue};
use netpkt::testutil::{build_tcp_frame, build_udp_frame, FrameSpec};
use netpkt::{LinkType, LossyPcapReader, PcapPacket, PcapWriter, TcpFlags};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::data::Corpus;
use crate::report::{fnum, Table};

/// Parameters of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Fault severity in `[0, 1]` (see [`FaultPlan::with_severity`]).
    pub severity: f64,
    /// Master fault seed (independent of the corpus seed).
    pub fault_seed: u64,
    /// Degraded-evaluation coverage floor.
    pub min_coverage: f64,
    /// Frames in the synthetic capture attacked in stage 1.
    pub capture_frames: usize,
    /// Probability the console link rejects a delivery attempt.
    pub link_flap_rate: f64,
    /// Host-side delivery queue parameters.
    pub queue: DeliveryConfig,
}

impl ChaosConfig {
    /// A standard run at the given severity.
    pub fn new(fault_seed: u64, severity: f64) -> Self {
        Self {
            severity,
            fault_seed,
            min_coverage: 0.1,
            capture_frames: 400,
            link_flap_rate: 0.3 * severity.clamp(0.0, 1.0),
            queue: DeliveryConfig::default(),
        }
    }
}

/// Stage-1 results: corrupted-capture ingest.
#[derive(Debug, Clone)]
pub struct CaptureStage {
    /// Frames written into the pristine capture.
    pub frames_written: u64,
    /// Bytes of the pristine capture.
    pub bytes_written: u64,
    /// What the corruptor did.
    pub fault_log: faultsim::ByteFaultLog,
    /// Records the lossy reader recovered.
    pub records_ok: u64,
    /// Records it skipped.
    pub records_skipped: u64,
    /// Bytes it skipped.
    pub bytes_skipped: u64,
    /// Recovered frames the extractor decoded into flows.
    pub frames_decoded: u64,
    /// Recovered frames the extractor rejected (with per-layer counts in
    /// its stats).
    pub frames_rejected: u64,
    /// True when even the lossy reader found no usable header.
    pub reader_rejected: bool,
}

/// Per-grouping stage-2 results: degraded vs clean evaluation.
#[derive(Debug, Clone)]
pub struct EvalRow {
    /// Grouping label.
    pub grouping: String,
    /// Mean utility over the clean (no-fault) pipeline.
    pub clean_utility: f64,
    /// Mean utility over the hosts the degraded evaluator scored.
    pub degraded_utility: f64,
    /// Hosts scored / below the coverage floor / fully dark.
    pub evaluated: usize,
    /// Hosts excluded for low coverage.
    pub low_coverage: usize,
    /// Hosts with no data at all.
    pub dark: usize,
    /// Population-mean test-week coverage.
    pub mean_test_coverage: f64,
}

/// Stage-3 results: batched delivery to the console.
#[derive(Debug, Clone)]
pub struct DeliveryStage {
    /// Alerts raised by the scored hosts on their covered windows.
    pub alerts_emitted: u64,
    /// Batches those alerts were cut into.
    pub batches_emitted: u64,
    /// Out-of-order alerts the batchers folded/dropped.
    pub late_alerts: u64,
    /// What the network did to the batch stream.
    pub batch_log: faultsim::BatchFaultLog,
    /// Alerts in the stream as delivered by the network.
    pub alerts_after_faults: u64,
    /// Host-queue lifetime counters.
    pub queue_stats: itconsole::DeliveryStats,
    /// Alerts the console actually ingested.
    pub console_alerts: u64,
}

/// Everything one chaos run measured.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Severity the run used.
    pub severity: f64,
    /// Fault seed the run used.
    pub fault_seed: u64,
    /// Users in the population.
    pub n_users: usize,
    /// Stage 1.
    pub capture: CaptureStage,
    /// Stage 2, one row per grouping.
    pub eval: Vec<EvalRow>,
    /// Stage 3.
    pub delivery: DeliveryStage,
}

/// Build a deterministic, valid capture: `frames` alternating TCP/UDP
/// frames across a handful of synthetic hosts.
fn synthetic_capture(frames: usize) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new(), LinkType::Ethernet).expect("vec write");
    for i in 0..frames {
        let spec = FrameSpec {
            src_port: 40000 + (i % 512) as u16,
            dst_port: if i % 3 == 0 { 53 } else { 80 },
            ip_id: i as u16,
            ..FrameSpec::default()
        };
        let data = if i % 3 == 0 {
            build_udp_frame(&spec, &[0x61; 24])
        } else {
            let flags = if i % 7 == 0 {
                TcpFlags::syn_only()
            } else {
                TcpFlags(TcpFlags::ACK)
            };
            build_tcp_frame(&spec, flags, i as u32, &[0x62; 40])
        };
        w.write_packet(&PcapPacket {
            ts_sec: 1_300_000_000 + (i / 4) as u32,
            ts_usec: (i % 4) as u32 * 250_000,
            data,
        })
        .expect("vec write");
    }
    w.finish().expect("vec write")
}

fn run_capture_stage(plan: &FaultPlan, frames: usize) -> CaptureStage {
    let pristine = synthetic_capture(frames);
    let (corrupt, fault_log) = plan.bytes.apply(&pristine, plan.bytes_seed());
    let mut stage = CaptureStage {
        frames_written: frames as u64,
        bytes_written: pristine.len() as u64,
        fault_log,
        records_ok: 0,
        records_skipped: 0,
        bytes_skipped: 0,
        frames_decoded: 0,
        frames_rejected: 0,
        reader_rejected: false,
    };
    let mut reader = match LossyPcapReader::new(&corrupt) {
        Ok(r) => r,
        Err(_) => {
            stage.reader_rejected = true;
            return stage;
        }
    };
    let mut ex = FlowExtractor::new(FlowTableConfig::default());
    while let Some(rec) = reader.next_record() {
        match ex.push_frame(rec.timestamp(), rec.data) {
            Ok(()) => stage.frames_decoded += 1,
            Err(_) => stage.frames_rejected += 1,
        }
    }
    let loss = reader.stats();
    stage.records_ok = loss.records_ok;
    stage.records_skipped = loss.records_skipped;
    stage.bytes_skipped = loss.bytes_skipped;
    stage
}

const GROUPINGS: [(&str, Grouping); 3] = [
    ("Homogeneous", Grouping::Homogeneous),
    ("Full Diversity", Grouping::FullDiversity),
    (
        "8-Partial",
        Grouping::Partial(PartialMethod::EIGHT_PARTIAL),
    ),
];

/// One run. Deterministic in `(corpus, cfg)`; thread count never changes
/// the output.
pub fn run(corpus: &Corpus, feature: FeatureKind, cfg: &ChaosConfig) -> ChaosReport {
    let plan = FaultPlan::with_severity(cfg.fault_seed, cfg.severity);
    let capture = run_capture_stage(&plan, cfg.capture_frames);

    // Stage 2: telemetry masks over train and test weeks.
    let n_users = corpus.n_users();
    let n_windows = corpus.series(0, 0).len();
    let (train_masks, _) = plan
        .telemetry
        .apply(n_users, n_windows, plan.telemetry_seed());
    let (test_masks, _) = plan
        .telemetry
        .apply(n_users, n_windows, plan.telemetry_seed().wrapping_add(1));

    let train_week = corpus.splits().first().copied().unwrap_or(0);
    let ds = corpus.dataset(feature, train_week);
    let train: Vec<_> = corpus
        .weeks
        .iter()
        .map(|w| w[train_week].to_series())
        .collect();
    let test: Vec<_> = corpus
        .weeks
        .iter()
        .map(|w| w[train_week + 1].to_series())
        .collect();
    let degraded_ds =
        DegradedDataset::from_masked_series(&train, &test, &train_masks, &test_masks, feature)
            .expect("corpus shapes are consistent");

    let base = EvalConfig {
        w: 0.5,
        sweep: ds.default_sweep(),
    };
    let degraded_cfg = DegradedEvalConfig {
        base: base.clone(),
        min_coverage: cfg.min_coverage,
    };

    let mut eval_rows = Vec::new();
    let mut full_div_eval = None;
    for (label, grouping) in GROUPINGS {
        let policy = Policy {
            grouping,
            heuristic: ThresholdHeuristic::P99,
        };
        let clean = evaluate_policy(&ds, &policy, &base);
        let degraded = evaluate_policy_degraded(&degraded_ds, &policy, &degraded_cfg)
            .expect("synthetic corpus never goes fully dark at test severities");
        let (evaluated, low, dark) = degraded.status_counts();
        eval_rows.push(EvalRow {
            grouping: label.to_string(),
            clean_utility: clean.mean_utility(),
            degraded_utility: degraded.mean_utility(),
            evaluated,
            low_coverage: low,
            dark,
            mean_test_coverage: degraded.mean_test_coverage(),
        });
        if matches!(grouping, Grouping::FullDiversity) {
            full_div_eval = Some(degraded);
        }
    }
    let full_div = full_div_eval.expect("full diversity is in GROUPINGS");

    // Stage 3: the scored hosts raise alerts on their covered windows and
    // batch them daily; the network duplicates/reorders; the bounded queue
    // retries over a flapping link into the console.
    let mut all_batches: Vec<Vec<hids_core::Alert>> = Vec::new();
    let mut alerts_emitted = 0u64;
    let mut late_alerts = 0u64;
    for (&u, perf) in full_div
        .evaluated_hosts
        .iter()
        .zip(full_div.outcome.thresholds.iter())
    {
        let counts = test[u].feature(feature);
        let mut detector = Detector::new(u as u32);
        detector.set_threshold(feature, *perf);
        let mut batcher = AlertBatcher::new(96);
        for alert in detector.column_alerts(feature, &counts) {
            if test_masks[u][alert.window] {
                alerts_emitted += 1;
                batcher.push(alert);
            }
        }
        all_batches.extend(batcher.flush());
        late_alerts += batcher.late_alerts();
    }
    let batches_emitted = all_batches.len() as u64;

    let (faulted, batch_log) = plan.batches.apply(&all_batches, plan.batches_seed());
    let alerts_after_faults: u64 = faulted.iter().map(|b| b.len() as u64).sum();

    let console = CentralConsole::new(n_windows);
    let mut queue = DeliveryQueue::new(cfg.queue);
    let mut link = StdRng::seed_from_u64(plan.batches_seed() ^ 0x11_FA_CE);
    let flap = cfg.link_flap_rate;
    for batch in &faulted {
        queue.offer(batch.clone());
        // Pump as we go so the bounded queue reflects a live agent rather
        // than an offline spool.
        queue.pump(|b| {
            if flap > 0.0 && link.random_bool(flap) {
                return false;
            }
            console.ingest_batch(b);
            true
        });
        queue.tick(1);
    }
    // Drain: keep pumping until every batch is delivered or expired.
    while !queue.is_empty() {
        queue.pump(|b| {
            if flap > 0.0 && link.random_bool(flap) {
                return false;
            }
            console.ingest_batch(b);
            true
        });
        queue.tick(u64::from(cfg.queue.max_attempts) * cfg.queue.backoff_base.max(1));
    }

    ChaosReport {
        severity: cfg.severity,
        fault_seed: cfg.fault_seed,
        n_users,
        capture,
        eval: eval_rows,
        delivery: DeliveryStage {
            alerts_emitted,
            batches_emitted,
            late_alerts,
            batch_log,
            alerts_after_faults,
            queue_stats: queue.stats(),
            console_alerts: console.stats().total_alerts,
        },
    }
}

impl ChaosReport {
    /// Export the run into `reg` under the `chaos_*` families (plus the
    /// shared `itc_delivery_*` families for the stage-3 queue).
    ///
    /// Every value is a deterministic function of (corpus, severity,
    /// fault seed) — the chaos pipeline is seeded end to end — so the
    /// rendered snapshot is byte-identical at any thread count. The
    /// counters mirror the conservation laws [`ChaosReport::check`]
    /// asserts: `decoded + rejected = recovered` and per-grouping
    /// `evaluated + low_coverage + dark = users`.
    pub fn export_metrics(&self, reg: &mut hids_metrics::Registry) {
        reg.register_gauge(
            "chaos_run_info",
            "Constant 1, labelled with the run's parameters",
        );
        reg.gauge_set(
            "chaos_run_info",
            &[
                ("severity_ppm", &((self.severity * 1e6) as i64).to_string()),
                ("fault_seed", &self.fault_seed.to_string()),
                ("users", &self.n_users.to_string()),
            ],
            1,
        );

        let c = &self.capture;
        reg.register_counter(
            "chaos_capture_frames_total",
            "Capture-stage frames by pipeline disposition",
        );
        let frames: [(&str, u64); 4] = [
            ("written", c.frames_written),
            ("recovered", c.records_ok),
            ("decoded", c.frames_decoded),
            ("rejected", c.frames_rejected),
        ];
        for (d, v) in frames {
            reg.counter_add("chaos_capture_frames_total", &[("disposition", d)], v);
        }
        reg.register_counter(
            "chaos_capture_skipped_total",
            "Capture-stage losses to corruption",
        );
        reg.counter_add(
            "chaos_capture_skipped_total",
            &[("unit", "records")],
            c.records_skipped,
        );
        reg.counter_add(
            "chaos_capture_skipped_total",
            &[("unit", "bytes")],
            c.bytes_skipped,
        );
        reg.register_counter(
            "chaos_faults_injected_total",
            "Faults the corruptor actually performed",
        );
        reg.counter_add(
            "chaos_faults_injected_total",
            &[("kind", "length_forged")],
            c.fault_log.records_length_forged,
        );
        reg.counter_add(
            "chaos_faults_injected_total",
            &[("kind", "bits_flipped")],
            c.fault_log.bits_flipped,
        );

        reg.register_gauge(
            "chaos_eval_hosts",
            "Stage-2 hosts by evaluation status, per grouping",
        );
        reg.register_gauge(
            "chaos_eval_coverage_ppm",
            "Population-mean test coverage per grouping, parts per million",
        );
        for row in &self.eval {
            let g = row.grouping.as_str();
            reg.gauge_set(
                "chaos_eval_hosts",
                &[("grouping", g), ("status", "evaluated")],
                row.evaluated as i64,
            );
            reg.gauge_set(
                "chaos_eval_hosts",
                &[("grouping", g), ("status", "low_coverage")],
                row.low_coverage as i64,
            );
            reg.gauge_set(
                "chaos_eval_hosts",
                &[("grouping", g), ("status", "dark")],
                row.dark as i64,
            );
            reg.gauge_set(
                "chaos_eval_coverage_ppm",
                &[("grouping", g)],
                (row.mean_test_coverage * 1e6) as i64,
            );
        }

        let d = &self.delivery;
        reg.register_counter(
            "chaos_alerts_total",
            "Stage-3 alerts at each pipeline point",
        );
        let alerts: [(&str, u64); 3] = [
            ("emitted", d.alerts_emitted),
            ("after_faults", d.alerts_after_faults),
            ("ingested", d.console_alerts),
        ];
        for (p, v) in alerts {
            reg.counter_add("chaos_alerts_total", &[("point", p)], v);
        }
        reg.register_counter(
            "chaos_batches_emitted_total",
            "Alert batches cut by the per-host batchers",
        );
        reg.counter_add("chaos_batches_emitted_total", &[], d.batches_emitted);
        reg.register_counter(
            "chaos_late_alerts_total",
            "Out-of-order alerts folded or dropped by the batchers",
        );
        reg.counter_add("chaos_late_alerts_total", &[], d.late_alerts);
        reg.register_counter(
            "chaos_network_batch_faults_total",
            "What the unreliable network did to the batch stream",
        );
        reg.counter_add(
            "chaos_network_batch_faults_total",
            &[("kind", "duplicated")],
            d.batch_log.duplicated,
        );
        reg.counter_add(
            "chaos_network_batch_faults_total",
            &[("kind", "swapped")],
            d.batch_log.swaps,
        );
        d.queue_stats.export_metrics(reg, "chaos");
    }

    /// Verify every cross-stage conservation law; returns the first
    /// violation as text. The chaos acceptance tests call this at every
    /// severity.
    pub fn check(&self) -> Result<(), String> {
        let c = &self.capture;
        if !c.reader_rejected && c.frames_decoded + c.frames_rejected != c.records_ok {
            return Err(format!(
                "capture: decoded {} + rejected {} != recovered {}",
                c.frames_decoded, c.frames_rejected, c.records_ok
            ));
        }
        if self.severity == 0.0 {
            if !c.fault_log.is_clean() {
                return Err("severity 0 corrupted the capture".into());
            }
            if c.records_ok != c.frames_written || c.frames_rejected != 0 {
                return Err(format!(
                    "severity 0: recovered {}/{} frames, {} rejected",
                    c.records_ok, c.frames_written, c.frames_rejected
                ));
            }
        }
        for row in &self.eval {
            if row.evaluated + row.low_coverage + row.dark != self.n_users {
                return Err(format!(
                    "{}: statuses {}+{}+{} != {} users",
                    row.grouping, row.evaluated, row.low_coverage, row.dark, self.n_users
                ));
            }
            if self.severity == 0.0 {
                if row.evaluated != self.n_users {
                    return Err(format!(
                        "severity 0: {} scored only {} hosts",
                        row.grouping, row.evaluated
                    ));
                }
                if row.degraded_utility != row.clean_utility {
                    return Err(format!(
                        "severity 0: {} degraded utility {} != clean {}",
                        row.grouping, row.degraded_utility, row.clean_utility
                    ));
                }
                if row.mean_test_coverage != 1.0 {
                    return Err(format!(
                        "severity 0: coverage {} != 1",
                        row.mean_test_coverage
                    ));
                }
            }
        }
        let d = &self.delivery;
        if d.batch_log.delivered != d.batches_emitted + d.batch_log.duplicated {
            return Err(format!(
                "delivery: stream {} != emitted {} + duplicated {}",
                d.batch_log.delivered, d.batches_emitted, d.batch_log.duplicated
            ));
        }
        if d.alerts_after_faults < d.alerts_emitted {
            return Err(format!(
                "delivery: faults destroyed alerts ({} < {})",
                d.alerts_after_faults, d.alerts_emitted
            ));
        }
        let q = &d.queue_stats;
        if q.enqueued + q.rejected_batches != d.batch_log.delivered {
            return Err(format!(
                "delivery: enqueued {} + rejected {} != stream {}",
                q.enqueued, q.rejected_batches, d.batch_log.delivered
            ));
        }
        if q.delivered + q.expired_batches != q.enqueued {
            return Err(format!(
                "delivery: delivered {} + expired {} != enqueued {}",
                q.delivered, q.expired_batches, q.enqueued
            ));
        }
        if d.console_alerts + q.dropped_units() != d.alerts_after_faults {
            return Err(format!(
                "delivery: console {} + dropped {} != offered {}",
                d.console_alerts,
                q.dropped_units(),
                d.alerts_after_faults
            ));
        }
        if self.severity == 0.0
            && (d.console_alerts != d.alerts_emitted || q.dropped_batches() != 0)
        {
            return Err(format!(
                "severity 0 lost alerts: console {} of {}",
                d.console_alerts, d.alerts_emitted
            ));
        }
        Ok(())
    }
}

/// Render the report as one table.
pub fn table(r: &ChaosReport) -> Table {
    let mut t = Table::new(
        &format!(
            "Chaos — pipeline under fault injection (severity {}, seed {:#x}, {} users)",
            fnum(r.severity),
            r.fault_seed,
            r.n_users
        ),
        &["stage", "metric", "value"],
    );
    let c = &r.capture;
    t.row(vec![
        "capture".into(),
        "records recovered / written".into(),
        format!("{} / {}", c.records_ok, c.frames_written),
    ]);
    t.row(vec![
        "capture".into(),
        "records skipped (bytes)".into(),
        format!("{} ({})", c.records_skipped, c.bytes_skipped),
    ]);
    t.row(vec![
        "capture".into(),
        "frames decoded / rejected".into(),
        format!("{} / {}", c.frames_decoded, c.frames_rejected),
    ]);
    for row in &r.eval {
        t.row(vec![
            "eval".into(),
            format!("{}: utility clean -> degraded", row.grouping),
            format!(
                "{} -> {}",
                fnum(row.clean_utility),
                fnum(row.degraded_utility)
            ),
        ]);
        t.row(vec![
            "eval".into(),
            format!("{}: hosts scored/low/dark", row.grouping),
            format!("{}/{}/{}", row.evaluated, row.low_coverage, row.dark),
        ]);
    }
    let d = &r.delivery;
    t.row(vec![
        "delivery".into(),
        "alerts emitted -> console".into(),
        format!("{} -> {}", d.alerts_emitted, d.console_alerts),
    ]);
    t.row(vec![
        "delivery".into(),
        "batches dup/swap, late alerts".into(),
        format!(
            "{}/{}, {}",
            d.batch_log.duplicated, d.batch_log.swaps, d.late_alerts
        ),
    ]);
    t.row(vec![
        "delivery".into(),
        "queue retries / dropped batches".into(),
        format!(
            "{} / {}",
            d.queue_stats.retries,
            d.queue_stats.dropped_batches()
        ),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::CorpusConfig;

    fn small_corpus() -> Corpus {
        Corpus::generate(CorpusConfig {
            n_users: 24,
            n_weeks: 2,
            ..CorpusConfig::small()
        })
    }

    #[test]
    fn zero_severity_reproduces_clean_pipeline() {
        let corpus = small_corpus();
        let r = run(
            &corpus,
            FeatureKind::TcpConnections,
            &ChaosConfig::new(0xFA11, 0.0),
        );
        r.check().expect("invariants at severity 0");
        assert_eq!(r.capture.records_ok, r.capture.frames_written);
        assert_eq!(r.delivery.console_alerts, r.delivery.alerts_emitted);
    }

    #[test]
    fn faulty_run_completes_with_consistent_accounting() {
        let corpus = small_corpus();
        for severity in [0.05, 0.2] {
            let r = run(
                &corpus,
                FeatureKind::TcpConnections,
                &ChaosConfig::new(0xFA11, severity),
            );
            r.check()
                .unwrap_or_else(|e| panic!("severity {severity}: {e}"));
        }
    }

    #[test]
    fn chaos_run_is_deterministic() {
        let corpus = small_corpus();
        let cfg = ChaosConfig::new(7, 0.15);
        let a = run(&corpus, FeatureKind::TcpConnections, &cfg);
        let b = run(&corpus, FeatureKind::TcpConnections, &cfg);
        assert_eq!(a.capture.records_ok, b.capture.records_ok);
        assert_eq!(a.delivery.console_alerts, b.delivery.console_alerts);
        assert_eq!(a.delivery.queue_stats, b.delivery.queue_stats);
        for (ra, rb) in a.eval.iter().zip(&b.eval) {
            assert_eq!(ra.degraded_utility, rb.degraded_utility);
            assert_eq!(ra.evaluated, rb.evaluated);
        }
    }

    #[test]
    fn renders_table() {
        let corpus = small_corpus();
        let r = run(
            &corpus,
            FeatureKind::TcpConnections,
            &ChaosConfig::new(1, 0.1),
        );
        let t = table(&r);
        assert!(t.len() >= 9);
        assert!(t.render().contains("capture"));
    }
}
