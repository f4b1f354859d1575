//! Streaming pcap export of synthetic traces.
//!
//! Renders a span of a user's generated week — window by window, so memory
//! stays bounded — into a pcap capture that external tools (Wireshark,
//! Bro/Zeek, tcpdump) can open. This is the bridge between the synthetic
//! corpus and any *other* HIDS implementation someone wants to evaluate on
//! the same population.

use std::io::{self, Write};

use flowtab::Windowing;
use netpkt::{LinkType, PcapWriter};

use crate::counts::user_week_series_trended;
use crate::profile::{stream_rng, UserProfile};
use crate::render::{render_flows_to_frames, render_window_flows};

/// Summary of an export run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExportStats {
    /// Windows rendered.
    pub windows: u64,
    /// Windows skipped because they were empty.
    pub empty_windows: u64,
    /// Windows skipped because they were too large to render.
    pub oversized_windows: u64,
    /// Flows rendered.
    pub flows: u64,
    /// Frames written.
    pub frames: u64,
}

/// Render windows `[first_window, first_window + n_windows)` of `week` for
/// one user into a pcap stream.
///
/// Windows whose total flow count exceeds the renderer's source-port space
/// (60 000 flows) are skipped and counted in the stats rather than
/// aborting the export.
#[allow(clippy::too_many_arguments)] // a deliberate flat, scriptable signature
pub fn export_user_windows<W: Write>(
    sink: W,
    profile: &UserProfile,
    seed: u64,
    week: usize,
    weekly_trend: f64,
    windowing: Windowing,
    first_window: usize,
    n_windows: usize,
) -> io::Result<ExportStats> {
    let series = user_week_series_trended(profile, seed, week, windowing, weekly_trend);
    let mut writer = PcapWriter::new(sink, LinkType::Ethernet)?;
    let mut rng = stream_rng(seed ^ 0xE1907, profile.id, week);
    let mut stats = ExportStats::default();

    let end = (first_window + n_windows).min(series.len());
    for w in first_window..end {
        let counts = &series.windows[w];
        let total: u64 = (0..6).map(|i| counts.0[i]).sum();
        stats.windows += 1;
        if total == 0 {
            stats.empty_windows += 1;
            continue;
        }
        if total > 60_000 {
            stats.oversized_windows += 1;
            continue;
        }
        let flows = render_window_flows(profile, counts, w, windowing, &mut rng);
        stats.flows += flows.len() as u64;
        let frames = render_flows_to_frames(&flows, &mut rng);
        for f in &frames {
            writer.write_record(f.ts as u32, (f.ts.fract() * 1e6) as u32, &f.frame)?;
        }
        stats.frames += frames.len() as u64;
    }
    writer.finish()?;
    Ok(stats)
}

/// Render a user's whole week to a pcap file on disk.
pub fn export_user_week_to_file(
    path: &std::path::Path,
    profile: &UserProfile,
    seed: u64,
    week: usize,
    weekly_trend: f64,
    windowing: Windowing,
) -> io::Result<ExportStats> {
    let file = std::fs::File::create(path)?;
    let buffered = io::BufWriter::new(file);
    export_user_windows(
        buffered,
        profile,
        seed,
        week,
        weekly_trend,
        windowing,
        0,
        windowing.windows_per_week(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{Population, PopulationConfig};
    use flowtab::{extract_features, FlowExtractor, FlowTableConfig};
    use netpkt::PcapReader;

    fn profile() -> UserProfile {
        let mut p = Population::sample(PopulationConfig {
            n_users: 2,
            ..Default::default()
        })
        .users[0]
            .clone();
        p.levels = crate::profile::TailLevels {
            tcp: 120.0,
            udp: 40.0,
            dns: 25.0,
        };
        p
    }

    #[test]
    fn exported_capture_reparses_to_the_generated_series() {
        let p = profile();
        let windowing = Windowing::FIFTEEN_MIN;
        let mut buf = Vec::new();
        // A work-day span: windows 32..48 (08:00..12:00 Monday).
        let stats =
            export_user_windows(&mut buf, &p, 7, 0, 0.97, windowing, 32, 16).unwrap();
        assert_eq!(stats.windows, 16);
        assert!(stats.frames > 0, "work morning has traffic");
        assert_eq!(stats.oversized_windows, 0);

        // Reparse and compare against the generated counts.
        let mut reader = PcapReader::new(&buf[..]).unwrap();
        let mut ex = FlowExtractor::new(FlowTableConfig::default());
        while let Some(pkt) = reader.next_packet().unwrap() {
            ex.push_pcap(&pkt).unwrap();
        }
        let records = ex.finish();
        let measured = extract_features(&records, p.addr, windowing, 48);
        let expected = user_week_series_trended(&p, 7, 0, windowing, 0.97);
        for w in 32..48 {
            assert_eq!(measured.windows[w], expected.windows[w], "window {w}");
        }
        // Windows outside the span are untouched.
        assert_eq!(measured.windows[0], Default::default());
    }

    #[test]
    fn file_export_works() {
        let path = std::env::temp_dir().join("mh-export-test.pcap");
        let p = profile();
        let stats =
            export_user_week_to_file(&path, &p, 3, 0, 0.97, Windowing::FIFTEEN_MIN).unwrap();
        assert_eq!(stats.windows, 672);
        assert!(stats.empty_windows > 100, "nights are quiet");
        let bytes = std::fs::read(&path).unwrap();
        assert!(PcapReader::new(&bytes[..]).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_span_produces_header_only_capture() {
        let p = profile();
        let mut buf = Vec::new();
        // Deep-night windows (03:00) are usually all empty.
        let stats =
            export_user_windows(&mut buf, &p, 7, 0, 0.97, Windowing::FIFTEEN_MIN, 12, 2).unwrap();
        assert_eq!(stats.windows, 2);
        assert!(buf.len() >= 24, "global header always written");
    }
}
