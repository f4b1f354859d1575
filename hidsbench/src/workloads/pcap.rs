//! `pcap-heavy`: packets to verdicts for a fixed fleet of end hosts.
//!
//! Per user-week the rep renders the traffic into a pcap capture, reads it
//! back through the fault-tolerant reader, rebuilds flows, extracts the
//! per-window features, carries the monitored feature over the hardened
//! wire and finally fits and sweeps the paper's three grouping policies.
//! These are the stages of `experiments::pipeline::run`, with three
//! differences:
//!
//! - The traffic counts are fixed (fleet and weeks drawn at seed 7) and
//!   `--seed` drives the packet rendering: ports, destinations, timing,
//!   DNS names. Per-user volume is heavy-tailed, so drawing the counts per
//!   seed would swing the frame count and peak memory by tens of percent
//!   between seeds; with fixed counts every seed renders the same frames.
//! - The rep renders from those counts with the calls
//!   `synthgen::export_user_windows` makes per window; the counts
//!   themselves are generated once, in set-up, where they also serve as
//!   the oracle the packet path must reproduce.
//! - Flows are rebuilt per 15-minute window, one extractor each. Over a
//!   whole capture, two flows with the same 5-tuple in adjacent windows
//!   merge in the flow table and a window reads one TCP connection short,
//!   which makes `pipeline::run` fail its own feature check at many seeds.

use std::path::Path;

use flowtab::{
    extract_features, FeatureCounts, FeatureKind, FeatureSeries, FlowExtractor, FlowRecord,
    FlowTableConfig, Windowing,
};
use hids_core::{
    eval::evaluate_policy, EvalConfig, FeatureDataset, Grouping, PartialMethod, Policy,
    ThresholdHeuristic,
};
use netpkt::{LinkType, LossyPcapReader, PcapPacket, PcapWriter};
use synthgen::{
    render_flows_to_frames, render_window_flows, stream_rng, user_week_series_trended, Population,
    PopulationConfig, UserProfile,
};

use super::{fnv1a, Check, RepSummary, Workload, FNV_OFFSET};
use crate::trace::Tracer;

/// Seed of the fixed fleet and of its traffic counts.
const FLEET_SEED: u64 = 7;
const TREND: f64 = 0.97;
const WINDOWING: Windowing = Windowing::FIFTEEN_MIN;
const FEATURE: FeatureKind = FeatureKind::TcpConnections;
/// The renderer skips windows with more flows than one window's source
/// ports; those must measure zero.
const MAX_RENDERED_FLOWS: u64 = 60_000;
/// The envelope `experiments::pipeline` sends, laced with ANSI noise so
/// the sanitizer's rebuild path runs on every datagram.
const DIRTY_HOSTNAME: &str = "\u{1b}[31mhost-\u{1b}]0;owned\u{7}pipeline\u{7f}";
const GROUPINGS: [Grouping; 3] = [
    Grouping::Homogeneous,
    Grouping::FullDiversity,
    Grouping::Partial(PartialMethod::EIGHT_PARTIAL),
];

/// The rendered span starts at 09:00 on Monday, in busy hours.
const FIRST_WINDOW: usize = 36;

pub struct PcapHeavy {
    pub users: usize,
    pub windows: usize,
}

impl PcapHeavy {
    pub fn full() -> Self {
        Self {
            users: 24,
            windows: 8,
        }
    }

    pub fn smoke() -> Self {
        Self {
            users: 3,
            windows: 4,
        }
    }
}

pub struct Input {
    seed: u64,
    users: Vec<UserProfile>,
    /// `counts[u][week]`: the counts of the rendered span, with windows
    /// too large to render set to zero (the renderer skips them).
    counts: Vec<[Vec<FeatureCounts>; 2]>,
}

#[derive(Debug, Default)]
pub struct Output {
    frames: u64,
    flows: u64,
    capture_bytes: u64,
    max_capture_bytes: u64,
    records_ok: u64,
    records_skipped: u64,
    frames_rejected: u64,
    feature_windows: u64,
    feature_mismatches: u64,
    wire_datagrams: u64,
    wire_mismatches: u64,
    /// Per grouping: mean utility and thresholds configured.
    sweep: Vec<(f64, usize)>,
}

/// The window loop of `synthgen::export_user_windows` over given counts:
/// flows, then frames, then pcap records. Returns the capture and its
/// frame count.
fn render_capture(
    profile: &UserProfile,
    counts: &[FeatureCounts],
    seed: u64,
    week: usize,
) -> std::io::Result<(Vec<u8>, u64)> {
    let mut writer = PcapWriter::new(Vec::new(), LinkType::Ethernet)?;
    let mut rng = stream_rng(seed ^ 0xE1907, profile.id, week);
    let mut frames = 0;
    for (k, c) in counts.iter().enumerate() {
        if c.0.iter().sum::<u64>() == 0 {
            continue;
        }
        let window_flows = render_window_flows(profile, c, FIRST_WINDOW + k, WINDOWING, &mut rng);
        let window_frames = render_flows_to_frames(&window_flows, &mut rng);
        for f in &window_frames {
            writer.write_packet(&PcapPacket {
                ts_sec: f.ts as u32,
                ts_usec: (f.ts.fract() * 1e6) as u32,
                data: f.frame.clone(),
            })?;
        }
        frames += window_frames.len() as u64;
    }
    Ok((writer.finish()?, frames))
}

/// Rebuild flows with one extractor per window, so no flow table outlives
/// the window its flows start in.
fn extract_per_window(packets: &[netpkt::PcapPacket]) -> (Vec<FlowRecord>, u64) {
    let mut records = Vec::new();
    let mut rejected = 0;
    let mut current: Option<(usize, FlowExtractor)> = None;
    for pkt in packets {
        let w = WINDOWING.window_of(pkt.timestamp());
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

impl Workload for PcapHeavy {
    type Input = Input;
    type Output = Output;

    fn name(&self) -> &'static str {
        "pcap-heavy"
    }

    fn op_unit(&self) -> &'static str {
        "frames"
    }

    fn scale(&self) -> String {
        format!(
            "{} users x windows {}..{} x 2 weeks, counts drawn at seed {FLEET_SEED}",
            self.users,
            FIRST_WINDOW,
            FIRST_WINDOW + self.windows
        )
    }

    fn default_seed(&self) -> u64 {
        7
    }

    fn pinned_fingerprint(&self) -> Option<u64> {
        (self.users == 24 && self.windows == 8).then_some(PIN_FULL)
    }

    fn setup(&self, seed: u64) -> Result<Input, String> {
        let population = Population::sample(PopulationConfig {
            n_users: self.users,
            seed: FLEET_SEED,
            weekly_trend: TREND,
            ..PopulationConfig::default()
        });
        let span = FIRST_WINDOW..FIRST_WINDOW + self.windows;
        let counts = population
            .users
            .iter()
            .map(|p| {
                [0, 1].map(|week| {
                    let series = user_week_series_trended(p, FLEET_SEED, week, WINDOWING, TREND);
                    series.windows[span.clone()]
                        .iter()
                        .map(|c| {
                            let flows: u64 = c.0.iter().sum();
                            if flows > MAX_RENDERED_FLOWS {
                                FeatureCounts::default()
                            } else {
                                *c
                            }
                        })
                        .collect()
                })
            })
            .collect();
        Ok(Input {
            seed,
            users: population.users,
            counts,
        })
    }

    fn rep(&self, input: &Input, _dir: &Path, tr: &mut Tracer) -> Result<Output, String> {
        let mut out = Output::default();
        let wire_config = fleetd::IngestConfig::default();
        let end = FIRST_WINDOW + self.windows;
        let mut train = Vec::with_capacity(input.users.len());
        let mut test = Vec::with_capacity(input.users.len());
        for (u, (profile, counts)) in input.users.iter().zip(&input.counts).enumerate() {
            for (week, expected) in counts.iter().enumerate() {
                let (capture, frames) = tr
                    .span("synthgen.render", || {
                        render_capture(profile, expected, input.seed, week)
                    })
                    .map_err(|e| format!("user {u} week {week}: render: {e}"))?;
                out.frames += frames;
                out.capture_bytes += capture.len() as u64;
                out.max_capture_bytes = out.max_capture_bytes.max(capture.len() as u64);

                let (packets, loss) = tr.span("netpkt.pcap_read", || {
                    LossyPcapReader::new(&capture)
                        .map(|r| r.read_all())
                        .map_err(|e| format!("user {u} week {week}: pcap header: {e}"))
                })?;
                out.records_ok += loss.records_ok;
                out.records_skipped += loss.records_skipped;

                let (records, rejected) =
                    tr.span("flowtab.extract", || extract_per_window(&packets));
                // One heap block per packet: freeing them is part of the
                // reader's cost, and a large one.
                tr.span("netpkt.pcap_read", move || drop((capture, packets)));
                out.frames_rejected += rejected;
                out.flows += records.len() as u64;

                let measured = tr.span("flowtab.features", || {
                    extract_features(&records, profile.addr, WINDOWING, end)
                });
                let mut span = FeatureSeries::zeros(WINDOWING, self.windows);
                for (k, want) in expected.iter().enumerate() {
                    let got = measured.windows.get(FIRST_WINDOW + k);
                    out.feature_windows += 1;
                    if got != Some(want) {
                        out.feature_mismatches += 1;
                    }
                    if let (Some(dst), Some(src)) = (span.windows.get_mut(k), got) {
                        *dst = *src;
                    }
                }

                let batch = fleetd::WindowBatch {
                    host: profile.id,
                    seq: u as u64 + 1,
                    week: if week == 0 {
                        fleetd::Week::Train
                    } else {
                        fleetd::Week::Test
                    },
                    start: FIRST_WINDOW as u32,
                    counts: span.feature(FEATURE),
                    poison: false,
                };
                let decoded = tr.span("fleetd.wire", || {
                    let wire =
                        fleetd::ingest::encode_batch_datagram(&batch, DIRTY_HOSTNAME, "hids-agent");
                    fleetd::decode_batch_datagram(&wire, &wire_config)
                });
                out.wire_datagrams += 1;
                if decoded.as_ref() != Ok(&batch) {
                    out.wire_mismatches += 1;
                }
                if week == 0 {
                    train.push(span);
                } else {
                    test.push(span);
                }
            }
        }

        out.sweep = tr.span("hids_core.sweep", || {
            let ds = FeatureDataset::try_from_series(&train, &test, FEATURE)
                .map_err(|e| format!("dataset: {e}"))?;
            let base = EvalConfig {
                w: 0.5,
                sweep: ds.default_sweep(),
            };
            Ok::<_, String>(
                GROUPINGS
                    .iter()
                    .map(|&grouping| {
                        let policy = Policy {
                            grouping,
                            heuristic: ThresholdHeuristic::P99,
                        };
                        let eval = evaluate_policy(&ds, &policy, &base);
                        (eval.mean_utility(), eval.outcome.thresholds.len())
                    })
                    .collect(),
            )
        })?;
        Ok(out)
    }

    fn summarize(&self, _input: &Input, out: &Output) -> RepSummary {
        let checks = vec![
            Check::new(
                "capture_loss_free",
                out.records_skipped == 0 && out.records_ok == out.frames,
                format!(
                    "{} of {} frames read back, {} records skipped",
                    out.records_ok, out.frames, out.records_skipped
                ),
            ),
            Check::new(
                "frames_accepted",
                out.frames_rejected == 0,
                format!("{} frames rejected by the extractor", out.frames_rejected),
            ),
            Check::new(
                "features_identical",
                out.feature_mismatches == 0,
                format!(
                    "{} of {} windows differ from the rendered counts",
                    out.feature_mismatches, out.feature_windows
                ),
            ),
            Check::new(
                "wire_identical",
                out.wire_mismatches == 0,
                format!(
                    "{} of {} datagrams changed on the wire",
                    out.wire_mismatches, out.wire_datagrams
                ),
            ),
            Check::new(
                "sweep_fitted",
                out.sweep.len() == GROUPINGS.len()
                    && out.sweep.iter().all(|&(u, n)| u.is_finite() && n > 0),
                format!("{:?}", out.sweep),
            ),
        ];
        let mut h = FNV_OFFSET;
        for v in [
            out.frames,
            out.flows,
            out.capture_bytes,
            out.records_ok,
            out.frames_rejected,
            out.feature_mismatches,
            out.wire_mismatches,
        ] {
            h = fnv1a(h, &v.to_le_bytes());
        }
        for &(utility, n) in &out.sweep {
            h = fnv1a(h, &utility.to_bits().to_le_bytes());
            h = fnv1a(h, &(n as u64).to_le_bytes());
        }
        RepSummary {
            ops: out.frames,
            failed: out.records_skipped
                + out.frames_rejected
                + out.feature_mismatches
                + out.wire_mismatches,
            fingerprint: h,
            counts: vec![
                ("synthgen.render.frames", out.frames as f64),
                (
                    "synthgen.render.max_capture_bytes",
                    out.max_capture_bytes as f64,
                ),
                (
                    "netpkt.pcap_read.records_skipped",
                    out.records_skipped as f64,
                ),
                ("flowtab.extract.flows", out.flows as f64),
                (
                    "flowtab.extract.frames_rejected",
                    out.frames_rejected as f64,
                ),
                ("flowtab.features.mismatches", out.feature_mismatches as f64),
                ("fleetd.wire.datagrams", out.wire_datagrams as f64),
            ],
            checks,
        }
    }
}

/// Output fingerprint of the full scale at the default seed.
const PIN_FULL: u64 = 0xcb9e_bbfb_d4dc_4abf;
