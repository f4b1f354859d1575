//! End-to-end pipeline experiment: pcap → decode → sanitize → features
//! → threshold sweep.
//!
//! Exercises the entire measurement path the paper's deployment implies,
//! as one run with per-stage accounting:
//!
//! 1. **render** — each user's generated week is rendered into a real
//!    pcap capture ([`synthgen::export_user_windows`]);
//! 2. **capture** — the capture is read back through the fault-tolerant
//!    [`netpkt::LossyPcapReader`] and decoded into flow records by one
//!    [`flowtab::FlowExtractor`] per 15-minute window (a clean capture
//!    must be loss-free);
//! 3. **features** — per-window behavioral counts are extracted from the
//!    packet path and checked window-for-window against the generated
//!    series (the packet round trip must add nothing);
//! 4. **wire** — the measured counts ride a CEF-in-syslog batch datagram
//!    through the hardened ingest (`encode → sanitize → decode`), with
//!    hostile ANSI escapes woven into the envelope so the sanitizer's
//!    dirty path is exercised for real, and the decoded batch is checked
//!    against the measured counts;
//! 5. **sweep** — the per-user train/test series become a
//!    [`hids_core::FeatureDataset`] and the paper's three grouping
//!    policies are fitted and swept.
//!
//! [`PipelineReport::check`] asserts the cross-stage laws (loss-free
//! capture, feature identity, wire identity, finite utilities);
//! `repro pipeline` prints the table and records the first end-to-end
//! throughput figure in `BENCH_pipeline.json`.

use std::time::Instant;

use flowtab::{
    extract_features, FeatureKind, FeatureSeries, FlowExtractor, FlowRecord, FlowTableConfig,
    Windowing,
};
use hids_core::{
    eval::evaluate_policy, EvalConfig, FeatureDataset, Grouping, PartialMethod, Policy,
    ThresholdHeuristic,
};
use netpkt::{LossyPcapReader, PcapPacket};
use synthgen::{export_user_windows, user_week_series_trended, Population, PopulationConfig};

use crate::report::{fnum, Table};

/// Parameters of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineScenario {
    /// Master seed for the synthetic population and all derived streams.
    pub seed: u64,
    /// End hosts rendered through the pipeline.
    pub n_users: usize,
    /// First 15-minute window of the rendered span (32 = 08:00 Monday).
    pub first_window: usize,
    /// Windows per user per week (32 = one working day).
    pub n_windows: usize,
    /// Weekly activity trend (see [`PopulationConfig::weekly_trend`]).
    pub weekly_trend: f64,
    /// Behavioral feature carried through to the sweep.
    pub feature: FeatureKind,
}

impl Default for PipelineScenario {
    fn default() -> Self {
        Self {
            seed: 7,
            n_users: 8,
            first_window: 32,
            n_windows: 32,
            weekly_trend: 0.97,
            feature: FeatureKind::TcpConnections,
        }
    }
}

/// Wall-clock seconds spent in each stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageSecs {
    /// Stage 1: synthetic weeks → pcap bytes.
    pub render: f64,
    /// Stage 2: pcap bytes → flow records.
    pub capture: f64,
    /// Stage 3: flow records → per-window feature series.
    pub features: f64,
    /// Stage 4: feature series → datagram → sanitize → decode.
    pub wire: f64,
    /// Stage 5: dataset fit + attack sweep.
    pub sweep: f64,
}

impl StageSecs {
    /// Sum over all stages.
    pub fn total(&self) -> f64 {
        self.render + self.capture + self.features + self.wire + self.sweep
    }
}

/// One grouping policy's outcome over the packet-measured population.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Grouping label.
    pub grouping: String,
    /// Mean utility over the population.
    pub mean_utility: f64,
    /// Thresholds the policy configured.
    pub thresholds: usize,
}

/// Everything one pipeline run measured.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Users rendered.
    pub users: usize,
    /// Windows per user per week.
    pub span: usize,
    /// Stage 1: frames written across all captures.
    pub frames_written: u64,
    /// Stage 1: flows rendered.
    pub flows_rendered: u64,
    /// Stage 1: pcap bytes produced.
    pub bytes_written: u64,
    /// Stage 1: windows the renderer skipped as oversized (those windows
    /// are checked to measure zero rather than against the series).
    pub oversized_windows: u64,
    /// Stage 2: records the lossy reader recovered.
    pub records_ok: u64,
    /// Stage 2: records it skipped (must be 0 on a clean capture).
    pub records_skipped: u64,
    /// Stage 2: recovered frames the extractor rejected (must be 0).
    pub frames_rejected: u64,
    /// Stage 3: windows compared against the generated series.
    pub feature_windows: u64,
    /// Stage 3: windows whose packet-path counts diverged (must be 0).
    pub feature_mismatches: u64,
    /// Stage 4: batch datagrams decoded (one per user per week).
    pub wire_datagrams: u64,
    /// Stage 4: wire bytes decoded.
    pub wire_bytes: u64,
    /// Stage 4: decoded batches that diverged from the measured counts
    /// (must be 0 — the hostile envelope must sanitize away cleanly).
    pub wire_mismatches: u64,
    /// Stage 5: one row per grouping policy.
    pub sweep: Vec<SweepRow>,
    /// Per-stage wall-clock.
    pub secs: StageSecs,
    /// Window-events carried end to end per second of total wall-clock.
    pub events_per_sec: f64,
}

const GROUPINGS: [(&str, Grouping); 3] = [
    ("Homogeneous", Grouping::Homogeneous),
    ("Full Diversity", Grouping::FullDiversity),
    ("8-Partial", Grouping::Partial(PartialMethod::EIGHT_PARTIAL)),
];

/// A syslog envelope laced with ANSI CSI/OSC noise and control bytes:
/// the sanitizer must strip all of it before the decoder sees the line.
const DIRTY_HOSTNAME: &str = "\u{1b}[31mhost-\u{1b}]0;owned\u{7}pipeline\u{7f}";

/// Rebuild flows with one extractor per window, so no flow table outlives
/// the window its flows start in. The renderer reuses source ports and
/// destinations in every window; one table spanning the capture would
/// merge a flow late in one window with a same-5-tuple flow early in the
/// next. Returns the flow records and the count of rejected frames.
fn extract_per_window(packets: &[PcapPacket], windowing: Windowing) -> (Vec<FlowRecord>, u64) {
    let mut records = Vec::new();
    let mut rejected = 0;
    let mut current: Option<(usize, FlowExtractor)> = None;
    for pkt in packets {
        let w = windowing.window_of(pkt.timestamp());
        if current.as_ref().map(|(cw, _)| *cw) != Some(w) {
            if let Some((_, ex)) = current.take() {
                records.extend(ex.finish());
            }
            current = Some((w, FlowExtractor::new(FlowTableConfig::default())));
        }
        if let Some((_, ex)) = current.as_mut() {
            if ex.push_pcap(pkt).is_err() {
                rejected += 1;
            }
        }
    }
    if let Some((_, ex)) = current {
        records.extend(ex.finish());
    }
    (records, rejected)
}

/// One run. Deterministic in the scenario; returns the first stage
/// failure as text rather than panicking.
pub fn run(scenario: &PipelineScenario) -> Result<PipelineReport, String> {
    let windowing = Windowing::FIFTEEN_MIN;
    let population = Population::sample(PopulationConfig {
        n_users: scenario.n_users,
        seed: scenario.seed,
        weekly_trend: scenario.weekly_trend,
        ..PopulationConfig::default()
    });
    let config = fleetd::IngestConfig::default();

    let mut report = PipelineReport {
        users: scenario.n_users,
        span: scenario.n_windows,
        frames_written: 0,
        flows_rendered: 0,
        bytes_written: 0,
        oversized_windows: 0,
        records_ok: 0,
        records_skipped: 0,
        frames_rejected: 0,
        feature_windows: 0,
        feature_mismatches: 0,
        wire_datagrams: 0,
        wire_bytes: 0,
        wire_mismatches: 0,
        sweep: Vec::new(),
        secs: StageSecs::default(),
        events_per_sec: 0.0,
    };

    let mut train: Vec<FeatureSeries> = Vec::with_capacity(scenario.n_users);
    let mut test: Vec<FeatureSeries> = Vec::with_capacity(scenario.n_users);

    for (u, profile) in population.users.iter().take(scenario.n_users).enumerate() {
        for week in 0..2usize {
            // Stage 1: render this user-week span into a pcap capture.
            let t = Instant::now();
            let mut capture = Vec::new();
            let stats = export_user_windows(
                &mut capture,
                profile,
                scenario.seed,
                week,
                scenario.weekly_trend,
                windowing,
                scenario.first_window,
                scenario.n_windows,
            )
            .map_err(|e| format!("user {u} week {week}: render: {e}"))?;
            report.secs.render += t.elapsed().as_secs_f64();
            report.frames_written += stats.frames;
            report.flows_rendered += stats.flows;
            report.bytes_written += capture.len() as u64;
            report.oversized_windows += stats.oversized_windows;

            // Stage 2: read it back through the fault-tolerant reader.
            let t = Instant::now();
            let reader = LossyPcapReader::new(&capture)
                .map_err(|e| format!("user {u} week {week}: pcap header: {e}"))?;
            let (packets, loss) = reader.read_all();
            report.records_ok += loss.records_ok;
            report.records_skipped += loss.records_skipped;
            let (records, rejected) = extract_per_window(&packets, windowing);
            report.frames_rejected += rejected;
            report.secs.capture += t.elapsed().as_secs_f64();

            // Stage 3: features from the packet path, checked against the
            // generated series window-for-window.
            let t = Instant::now();
            let measured = extract_features(
                &records,
                profile.addr,
                windowing,
                scenario.first_window + scenario.n_windows,
            );
            let expected = user_week_series_trended(
                profile,
                scenario.seed,
                week,
                windowing,
                scenario.weekly_trend,
            );
            let mut span = FeatureSeries::zeros(windowing, scenario.n_windows);
            for k in 0..scenario.n_windows {
                let w = scenario.first_window + k;
                report.feature_windows += 1;
                // The renderer skips windows whose flow total exceeds its
                // source-port space (and counts them in the stats); those
                // windows must measure zero, every other window must
                // reproduce the generated counts exactly.
                let oversized = expected
                    .windows
                    .get(w)
                    .is_some_and(|c| (0..6).map(|i| c.0[i]).sum::<u64>() > 60_000);
                let want = if oversized {
                    Some(&flowtab::FeatureCounts::default())
                } else {
                    expected.windows.get(w)
                };
                if measured.windows.get(w) != want {
                    report.feature_mismatches += 1;
                }
                if let (Some(dst), Some(src)) = (span.windows.get_mut(k), measured.windows.get(w))
                {
                    *dst = *src;
                }
            }
            report.secs.features += t.elapsed().as_secs_f64();

            // Stage 4: the measured counts ride the hardened wire — a
            // hostile envelope forces the sanitizer's rebuild path — and
            // the decoded batch must reproduce them exactly.
            let t = Instant::now();
            let batch = fleetd::WindowBatch {
                host: profile.id,
                seq: u as u64 + 1,
                week: if week == 0 {
                    fleetd::Week::Train
                } else {
                    fleetd::Week::Test
                },
                start: scenario.first_window as u32,
                counts: span.feature(scenario.feature),
                poison: false,
            };
            let wire =
                fleetd::ingest::encode_batch_datagram(&batch, DIRTY_HOSTNAME, "hids-agent");
            report.wire_bytes += wire.len() as u64;
            report.wire_datagrams += 1;
            match fleetd::decode_batch_datagram(&wire, &config) {
                Ok(decoded) if decoded == batch => {}
                _ => report.wire_mismatches += 1,
            }
            report.secs.wire += t.elapsed().as_secs_f64();

            if week == 0 {
                train.push(span);
            } else {
                test.push(span);
            }
        }
    }

    // Stage 5: dataset fit + the paper's grouping sweep over the
    // packet-measured population.
    let t = Instant::now();
    let ds = FeatureDataset::try_from_series(&train, &test, scenario.feature)
        .map_err(|e| format!("dataset: {e}"))?;
    let base = EvalConfig {
        w: 0.5,
        sweep: ds.default_sweep(),
    };
    for (label, grouping) in GROUPINGS {
        let policy = Policy {
            grouping,
            heuristic: ThresholdHeuristic::P99,
        };
        let eval = evaluate_policy(&ds, &policy, &base);
        report.sweep.push(SweepRow {
            grouping: label.to_string(),
            mean_utility: eval.mean_utility(),
            thresholds: eval.outcome.thresholds.len(),
        });
    }
    report.secs.sweep += t.elapsed().as_secs_f64();

    let total = report.secs.total().max(1e-9);
    report.events_per_sec = report.feature_windows as f64 / total;
    Ok(report)
}

impl PipelineReport {
    /// Verify every cross-stage law; returns the first violation as text.
    pub fn check(&self) -> Result<(), String> {
        if self.records_skipped != 0 || self.records_ok != self.frames_written {
            return Err(format!(
                "capture: clean pcap lost data ({} recovered of {}, {} skipped)",
                self.records_ok, self.frames_written, self.records_skipped
            ));
        }
        if self.frames_rejected != 0 {
            return Err(format!(
                "capture: {} clean frames rejected by the extractor",
                self.frames_rejected
            ));
        }
        if self.feature_mismatches != 0 {
            return Err(format!(
                "features: {} of {} windows diverged from the generated series",
                self.feature_mismatches, self.feature_windows
            ));
        }
        if self.wire_mismatches != 0 {
            return Err(format!(
                "wire: {} of {} datagrams failed the sanitize→decode round trip",
                self.wire_mismatches, self.wire_datagrams
            ));
        }
        if self.sweep.len() != GROUPINGS.len() {
            return Err(format!("sweep: {} of 3 policies fitted", self.sweep.len()));
        }
        for row in &self.sweep {
            if !row.mean_utility.is_finite() || row.thresholds == 0 {
                return Err(format!(
                    "sweep: {} produced utility {} over {} thresholds",
                    row.grouping, row.mean_utility, row.thresholds
                ));
            }
        }
        if self.feature_windows > 0 && self.events_per_sec <= 0.0 {
            return Err("throughput: zero events/sec over a nonzero run".into());
        }
        Ok(())
    }
}

/// Render the report as one table.
pub fn table(r: &PipelineReport) -> Table {
    let mut t = Table::new(
        &format!(
            "Pipeline — pcap→decode→sanitize→features→sweep ({} users × {} windows × 2 weeks)",
            r.users, r.span
        ),
        &["stage", "metric", "value"],
    );
    t.row(vec![
        "render".into(),
        "frames / flows / pcap bytes".into(),
        format!("{} / {} / {}", r.frames_written, r.flows_rendered, r.bytes_written),
    ]);
    t.row(vec![
        "capture".into(),
        "records recovered / skipped / rejected".into(),
        format!("{} / {} / {}", r.records_ok, r.records_skipped, r.frames_rejected),
    ]);
    t.row(vec![
        "features".into(),
        "windows checked / mismatched".into(),
        format!("{} / {}", r.feature_windows, r.feature_mismatches),
    ]);
    t.row(vec![
        "wire".into(),
        "datagrams / bytes / mismatches".into(),
        format!("{} / {} / {}", r.wire_datagrams, r.wire_bytes, r.wire_mismatches),
    ]);
    for row in &r.sweep {
        t.row(vec![
            "sweep".into(),
            format!("{}: mean utility ({} thresholds)", row.grouping, row.thresholds),
            fnum(row.mean_utility),
        ]);
    }
    t.row(vec![
        "total".into(),
        "end-to-end window-events/sec".into(),
        format!("{:.0}", r.events_per_sec),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PipelineScenario {
        PipelineScenario {
            n_users: 3,
            n_windows: 8,
            ..PipelineScenario::default()
        }
    }

    #[test]
    fn clean_pipeline_holds_every_law() {
        let r = run(&small()).expect("pipeline runs");
        r.check().expect("invariants");
        assert!(r.frames_written > 0, "work-morning span has traffic");
        assert_eq!(r.wire_datagrams, 6);
        assert!(r.events_per_sec > 0.0);
    }

    #[test]
    fn pipeline_counters_are_deterministic() {
        let a = run(&small()).expect("pipeline runs");
        let b = run(&small()).expect("pipeline runs");
        assert_eq!(a.frames_written, b.frames_written);
        assert_eq!(a.records_ok, b.records_ok);
        assert_eq!(a.wire_bytes, b.wire_bytes);
        for (ra, rb) in a.sweep.iter().zip(&b.sweep) {
            assert_eq!(ra.mean_utility, rb.mean_utility);
        }
    }

    #[test]
    fn dirty_envelope_actually_exercises_the_rebuild() {
        // The envelope constant must be dirty under the sanitizer — if a
        // refactor made it clean, the wire leg would stop covering the
        // rebuild path.
        assert!(matches!(
            fleetd::sanitize(DIRTY_HOSTNAME, 4096),
            std::borrow::Cow::Owned(_)
        ));
        assert_eq!(fleetd::sanitize(DIRTY_HOSTNAME, 4096), "host-pipeline");
    }

    #[test]
    fn renders_table() {
        let r = run(&small()).expect("pipeline runs");
        let t = table(&r);
        assert!(t.render().contains("events/sec"));
    }
}
