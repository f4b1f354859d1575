//! Flow records — the unit of data exchanged between the capture pipeline,
//! the synthetic generator and the feature extractor.

use crate::conn::TcpConnState;
use crate::tuple::{Endpoint, Transport};

/// Application-protocol label assigned to a flow.
///
/// Classification is by well-known responder port, which matches both the
/// paper's features (HTTP = TCP connections on port 80) and what Bro's
/// default policy scripts did in 2007 for these protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppProtocol {
    /// DNS: port 53 over UDP or TCP.
    Dns,
    /// HTTP: TCP port 80 or 8080.
    Http,
    /// HTTPS: TCP port 443 (kept distinct from HTTP; the paper's
    /// `num-HTTP-connections` feature counts port 80 only).
    Https,
    /// SMTP: TCP port 25.
    Smtp,
    /// Anything else.
    Other,
}

impl AppProtocol {
    /// Classify from transport protocol and responder port.
    pub fn classify(transport: Transport, responder_port: u16) -> Self {
        match (transport, responder_port) {
            (Transport::Tcp, 53) | (Transport::Udp, 53) => AppProtocol::Dns,
            (Transport::Tcp, 80) | (Transport::Tcp, 8080) => AppProtocol::Http,
            (Transport::Tcp, 443) => AppProtocol::Https,
            (Transport::Tcp, 25) => AppProtocol::Smtp,
            _ => AppProtocol::Other,
        }
    }
}

/// A completed (or timed-out) flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRecord {
    /// Endpoint that sent the first observed packet.
    pub initiator: Endpoint,
    /// The other endpoint.
    pub responder: Endpoint,
    /// Transport protocol.
    pub transport: Transport,
    /// Application label (derived from `transport` + responder port).
    pub app: AppProtocol,
    /// Timestamp of the first packet, seconds since trace start/epoch.
    pub first_ts: f64,
    /// Timestamp of the last packet.
    pub last_ts: f64,
    /// Packets sent by the initiator.
    pub packets_fwd: u64,
    /// Packets sent by the responder.
    pub packets_rev: u64,
    /// Payload bytes sent by the initiator.
    pub bytes_fwd: u64,
    /// Payload bytes sent by the responder.
    pub bytes_rev: u64,
    /// True when the initiator's opening SYN was observed (TCP only).
    pub initiator_syn: bool,
    /// Number of pure SYN packets from the initiator (TCP only).
    pub syn_count: u32,
    /// Final TCP state (TCP only; `None` for UDP/ICMP).
    pub tcp_state: Option<TcpConnState>,
}

impl FlowRecord {
    /// Flow duration in seconds.
    pub fn duration(&self) -> f64 {
        (self.last_ts - self.first_ts).max(0.0)
    }

    /// Total packets both directions.
    pub fn total_packets(&self) -> u64 {
        self.packets_fwd + self.packets_rev
    }

    /// Total payload bytes both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_fwd + self.bytes_rev
    }

    /// Convenience constructor for generator-produced flows where only the
    /// fields used by feature extraction matter.
    #[allow(clippy::too_many_arguments)]
    pub fn synthetic(
        initiator: Endpoint,
        responder: Endpoint,
        transport: Transport,
        first_ts: f64,
        duration: f64,
        packets: u64,
        bytes: u64,
        initiator_syn: bool,
    ) -> Self {
        FlowRecord {
            initiator,
            responder,
            transport,
            app: AppProtocol::classify(transport, responder.port),
            first_ts,
            last_ts: first_ts + duration,
            packets_fwd: packets,
            packets_rev: packets / 2,
            bytes_fwd: bytes,
            bytes_rev: bytes / 2,
            initiator_syn,
            syn_count: u32::from(initiator_syn),
            tcp_state: None,
        }
    }
}

/// The integer that [`f64::total_cmp`] compares: for any `a` and `b`,
/// `total_order_key(a).cmp(&total_order_key(b)) == a.total_cmp(&b)`.
///
/// Timestamp sorts key on it (`sort_by_cached_key`) to compare integers
/// instead of floats, in the same order.
pub fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The inverse of [`total_order_key`] (the map is an involution on bits).
pub(crate) fn from_total_order_key(key: i64) -> f64 {
    f64::from_bits(total_order_key(f64::from_bits(key as u64)) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn total_order_key_orders_like_total_cmp() {
        let mut values = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            1e-310,
            -1e-310,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff0_0000_0000_0001),
        ];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            values.push(f64::from_bits(x));
        }
        for a in &values {
            assert_eq!(
                from_total_order_key(total_order_key(*a)).to_bits(),
                a.to_bits()
            );
            for b in &values {
                assert_eq!(
                    total_order_key(*a).cmp(&total_order_key(*b)),
                    a.total_cmp(b),
                    "{a} vs {b}"
                );
            }
        }
    }

    fn ep(last: u8, port: u16) -> Endpoint {
        Endpoint::new(Ipv4Addr::new(10, 0, 0, last), port)
    }

    #[test]
    fn classification_table() {
        use AppProtocol::*;
        use Transport::*;
        for (t, port, expect) in [
            (Udp, 53, Dns),
            (Tcp, 53, Dns),
            (Tcp, 80, Http),
            (Tcp, 8080, Http),
            (Tcp, 443, Https),
            (Tcp, 25, Smtp),
            (Udp, 80, Other),
            (Tcp, 22, Other),
            (Icmp, 0, Other),
        ] {
            assert_eq!(AppProtocol::classify(t, port), expect, "{t:?}/{port}");
        }
    }

    #[test]
    fn duration_never_negative() {
        let mut r = FlowRecord::synthetic(ep(1, 1000), ep(2, 80), Transport::Tcp, 10.0, 5.0, 4, 100, true);
        assert!((r.duration() - 5.0).abs() < 1e-12);
        r.last_ts = 9.0; // clock skew in a merged capture
        assert_eq!(r.duration(), 0.0);
    }

    #[test]
    fn synthetic_flow_is_classified() {
        let r = FlowRecord::synthetic(ep(1, 5555), ep(2, 53), Transport::Udp, 0.0, 0.05, 2, 80, false);
        assert_eq!(r.app, AppProtocol::Dns);
        assert_eq!(r.total_packets(), 3);
        assert_eq!(r.total_bytes(), 120);
        assert_eq!(r.syn_count, 0);
    }
}
