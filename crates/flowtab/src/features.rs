//! Per-window anomaly-detection features (the paper's Table 1).
//!
//! Each end host aggregates its flow records into fixed-width time windows
//! (5- or 15-minute bins in the paper) and counts, per window:
//!
//! | feature | anomaly targeted | commercial example |
//! |---|---|---|
//! | `num-DNS-connections` | botnet C&C | Damballa |
//! | `num-TCP-connections` | scans, DDoS | Cisco CSA |
//! | `num-TCP-SYN` | scans, DDoS | Bro, CSA |
//! | `num-HTTP-connections` | clickfraud, DDoS | Bro, BlackICE |
//! | `num-distinct-connections` | scans | Bro |
//! | `num-UDP-connections` | scans, DDoS | Cisco CSA |
//!
//! All features are *additive*: malicious traffic overlaid on benign traffic
//! adds to the per-window counts, which is the property the paper's attack
//! model (`g + b`) relies on.

use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::net::Ipv4Addr;

use crate::record::{AppProtocol, FlowRecord};
use crate::tuple::Transport;

/// The six monitored traffic features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FeatureKind {
    /// DNS transactions initiated by the host (port 53, UDP or TCP).
    DnsConnections,
    /// TCP connections initiated by the host.
    TcpConnections,
    /// TCP SYN packets sent by the host (retransmissions included).
    TcpSyn,
    /// HTTP connections (TCP port 80/8080) initiated by the host.
    HttpConnections,
    /// Distinct destination IP addresses contacted by the host.
    DistinctConnections,
    /// Non-DNS UDP flows initiated by the host.
    UdpConnections,
}

impl FeatureKind {
    /// All features, in a stable display order that is also `index()` order.
    pub const ALL: [FeatureKind; 6] = [
        FeatureKind::DnsConnections,
        FeatureKind::TcpConnections,
        FeatureKind::TcpSyn,
        FeatureKind::HttpConnections,
        FeatureKind::DistinctConnections,
        FeatureKind::UdpConnections,
    ];

    /// Dense index into feature arrays.
    pub fn index(self) -> usize {
        match self {
            FeatureKind::DnsConnections => 0,
            FeatureKind::TcpConnections => 1,
            FeatureKind::TcpSyn => 2,
            FeatureKind::HttpConnections => 3,
            FeatureKind::DistinctConnections => 4,
            FeatureKind::UdpConnections => 5,
        }
    }

    /// Human-readable name matching the paper's Table 1.
    pub fn name(self) -> &'static str {
        match self {
            FeatureKind::DnsConnections => "num-DNS-connections",
            FeatureKind::TcpConnections => "num-TCP-connections",
            FeatureKind::TcpSyn => "num-TCP-SYN",
            FeatureKind::HttpConnections => "num-HTTP-connections",
            FeatureKind::DistinctConnections => "num-distinct-connections",
            FeatureKind::UdpConnections => "num-UDP-connections",
        }
    }
}

impl core::fmt::Display for FeatureKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// One window's counts for all six features.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureCounts(pub [u64; 6]);

impl FeatureCounts {
    /// Count for one feature.
    pub fn get(&self, k: FeatureKind) -> u64 {
        self.0[k.index()]
    }

    /// Mutable count for one feature.
    pub fn get_mut(&mut self, k: FeatureKind) -> &mut u64 {
        &mut self.0[k.index()]
    }

    /// Element-wise (saturating) addition — additive attack overlay.
    pub fn saturating_add(&self, other: &FeatureCounts) -> FeatureCounts {
        let mut out = [0u64; 6];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(&other.0)) {
            *o = a.saturating_add(*b);
        }
        FeatureCounts(out)
    }
}

/// Fixed-width time binning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowing {
    /// Window width, seconds (the paper uses 300 and 900).
    pub width_secs: f64,
}

impl Windowing {
    /// The paper's default 15-minute bins.
    pub const FIFTEEN_MIN: Windowing = Windowing { width_secs: 900.0 };
    /// The paper's alternative 5-minute bins.
    pub const FIVE_MIN: Windowing = Windowing { width_secs: 300.0 };

    /// Window index for a timestamp (seconds from trace start).
    pub fn window_of(&self, ts: f64) -> usize {
        (ts / self.width_secs).floor().max(0.0) as usize
    }

    /// Windows per 7-day week.
    pub fn windows_per_week(&self) -> usize {
        (7.0 * 86_400.0 / self.width_secs).round() as usize
    }
}

/// A host's binned feature time series.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSeries {
    /// The binning used.
    pub windowing: Windowing,
    /// Per-window counts, index 0 = first window of the trace.
    pub windows: Vec<FeatureCounts>,
}

impl FeatureSeries {
    /// All-zero series of `n` windows.
    pub fn zeros(windowing: Windowing, n: usize) -> Self {
        Self {
            windowing,
            windows: vec![FeatureCounts::default(); n],
        }
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True when the series has no windows.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// One feature's counts as a dense vector.
    pub fn feature(&self, k: FeatureKind) -> Vec<u64> {
        self.column(k).collect()
    }

    /// One feature's counts in window order, read in place.
    pub fn column(&self, k: FeatureKind) -> impl ExactSizeIterator<Item = u64> + Clone + '_ {
        self.windows.iter().map(move |w| w.get(k))
    }
}

/// Extract a host's [`FeatureSeries`] from its flow records.
///
/// Only flows *initiated by* `host` count (the paper's per-source features):
/// a flow contributes to the window containing its first packet.
/// `n_windows` fixes the series length so hosts with no late traffic still
/// produce comparable series.
pub fn extract_features(
    flows: &[FlowRecord],
    host: Ipv4Addr,
    windowing: Windowing,
    n_windows: usize,
) -> FeatureSeries {
    let mut series = FeatureSeries::zeros(windowing, n_windows);
    let mut distinct: Vec<HashSet<Ipv4Addr>> = vec![HashSet::new(); n_windows];
    for flow in flows {
        if flow.initiator.addr != host {
            continue;
        }
        let w = windowing.window_of(flow.first_ts);
        if w >= n_windows {
            continue;
        }
        let counts = &mut series.windows[w];
        match (flow.transport, flow.app) {
            (_, AppProtocol::Dns) => *counts.get_mut(FeatureKind::DnsConnections) += 1,
            (Transport::Tcp, _) => {
                *counts.get_mut(FeatureKind::TcpConnections) += 1;
                *counts.get_mut(FeatureKind::TcpSyn) += u64::from(flow.syn_count);
                if flow.app == AppProtocol::Http {
                    *counts.get_mut(FeatureKind::HttpConnections) += 1;
                }
            }
            (Transport::Udp, _) => *counts.get_mut(FeatureKind::UdpConnections) += 1,
            (Transport::Icmp, _) => {}
        }
        distinct[w].insert(flow.responder.addr);
    }
    for (w, set) in distinct.iter().enumerate() {
        *series.windows[w].get_mut(FeatureKind::DistinctConnections) = set.len() as u64;
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Endpoint;

    fn host() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 1)
    }

    fn flow(ts: f64, transport: Transport, dport: u16, dst_last: u8, syn: bool) -> FlowRecord {
        FlowRecord::synthetic(
            Endpoint::new(host(), 50_000),
            Endpoint::new(Ipv4Addr::new(93, 184, 0, dst_last), dport),
            transport,
            ts,
            1.0,
            4,
            400,
            syn,
        )
    }

    #[test]
    fn feature_indices_are_dense_and_distinct() {
        let mut seen = [false; 6];
        for (i, k) in FeatureKind::ALL.into_iter().enumerate() {
            assert!(!seen[k.index()]);
            seen[k.index()] = true;
            assert_eq!(k.index(), i, "ALL lists the features in index order");
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn extraction_counts_by_kind() {
        let flows = vec![
            flow(10.0, Transport::Tcp, 80, 1, true),   // tcp + http + syn
            flow(20.0, Transport::Tcp, 443, 2, true),  // tcp + syn
            flow(30.0, Transport::Tcp, 22, 2, false),  // tcp, midstream (no syn)
            flow(40.0, Transport::Udp, 53, 3, false),  // dns
            flow(50.0, Transport::Udp, 9999, 4, false), // udp
            flow(60.0, Transport::Icmp, 0, 5, false),  // distinct only
        ];
        let s = extract_features(&flows, host(), Windowing::FIFTEEN_MIN, 1);
        let w = &s.windows[0];
        assert_eq!(w.get(FeatureKind::TcpConnections), 3);
        assert_eq!(w.get(FeatureKind::TcpSyn), 2);
        assert_eq!(w.get(FeatureKind::HttpConnections), 1);
        assert_eq!(w.get(FeatureKind::DnsConnections), 1);
        assert_eq!(w.get(FeatureKind::UdpConnections), 1);
        assert_eq!(w.get(FeatureKind::DistinctConnections), 5);
    }

    #[test]
    fn flows_from_other_hosts_ignored() {
        let mut f = flow(10.0, Transport::Tcp, 80, 1, true);
        f.initiator.addr = Ipv4Addr::new(10, 0, 0, 99);
        let s = extract_features(&[f], host(), Windowing::FIFTEEN_MIN, 1);
        assert_eq!(s.windows[0], FeatureCounts::default());
    }

    #[test]
    fn windows_partition_time() {
        let w = Windowing::FIFTEEN_MIN;
        assert_eq!(w.window_of(0.0), 0);
        assert_eq!(w.window_of(899.999), 0);
        assert_eq!(w.window_of(900.0), 1);
        assert_eq!(w.windows_per_week(), 672);
        assert_eq!(Windowing::FIVE_MIN.windows_per_week(), 2016);
    }

    #[test]
    fn late_flows_dropped_not_panicking() {
        let flows = vec![flow(10_000.0, Transport::Tcp, 80, 1, true)];
        let s = extract_features(&flows, host(), Windowing::FIFTEEN_MIN, 2);
        assert!(s.windows.iter().all(|w| *w == FeatureCounts::default()));
    }

    #[test]
    fn syn_retransmissions_add_up() {
        let mut f = flow(10.0, Transport::Tcp, 80, 1, true);
        f.syn_count = 3;
        let s = extract_features(&[f], host(), Windowing::FIFTEEN_MIN, 1);
        assert_eq!(s.windows[0].get(FeatureKind::TcpSyn), 3);
        assert_eq!(s.windows[0].get(FeatureKind::TcpConnections), 1);
    }

    #[test]
    fn distinct_counts_unique_responders_across_protocols() {
        let flows = vec![
            flow(10.0, Transport::Tcp, 80, 1, true),
            flow(11.0, Transport::Tcp, 443, 1, true), // same dest
            flow(12.0, Transport::Udp, 9999, 1, false), // same dest again
            flow(13.0, Transport::Udp, 9999, 2, false),
        ];
        let s = extract_features(&flows, host(), Windowing::FIFTEEN_MIN, 1);
        assert_eq!(s.windows[0].get(FeatureKind::DistinctConnections), 2);
    }

    #[test]
    fn dns_over_tcp_counts_as_dns_not_tcp() {
        // The paper's num-DNS-connections feature tracks the service, not
        // the transport; our classifier labels TCP/53 as DNS.
        let flows = vec![flow(10.0, Transport::Tcp, 53, 1, true)];
        let s = extract_features(&flows, host(), Windowing::FIFTEEN_MIN, 1);
        assert_eq!(s.windows[0].get(FeatureKind::DnsConnections), 1);
        assert_eq!(s.windows[0].get(FeatureKind::TcpConnections), 0);
    }
}
