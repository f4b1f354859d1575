//! Transport endpoints and canonical five-tuples.

use std::net::Ipv4Addr;

/// Transport protocol of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Transport {
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// ICMP, keyed by (identifier, 0) instead of ports.
    Icmp,
}

/// One side of a transport conversation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Endpoint {
    /// IPv4 address.
    pub addr: Ipv4Addr,
    /// Transport port (or ICMP identifier).
    pub port: u16,
}

impl Endpoint {
    /// Construct an endpoint.
    pub fn new(addr: Ipv4Addr, port: u16) -> Self {
        Self { addr, port }
    }
}

impl core::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

/// Direction of a packet relative to a flow's canonical orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowDirection {
    /// Packet travels from the flow's initiator to its responder.
    FromInitiator,
    /// Packet travels from the responder back to the initiator.
    FromResponder,
}

impl FlowDirection {
    /// The opposite direction.
    pub fn reverse(self) -> Self {
        match self {
            FlowDirection::FromInitiator => FlowDirection::FromResponder,
            FlowDirection::FromResponder => FlowDirection::FromInitiator,
        }
    }
}

/// A directed five-tuple as observed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FiveTuple {
    /// Packet source.
    pub src: Endpoint,
    /// Packet destination.
    pub dst: Endpoint,
    /// Transport protocol.
    pub transport: Transport,
}

impl FiveTuple {
    /// Construct a directed five-tuple.
    pub fn new(src: Endpoint, dst: Endpoint, transport: Transport) -> Self {
        Self {
            src,
            dst,
            transport,
        }
    }

    /// The same conversation viewed from the other side.
    pub fn reversed(&self) -> Self {
        Self {
            src: self.dst,
            dst: self.src,
            transport: self.transport,
        }
    }

    /// Canonical (direction-independent) key for flow-table lookup, plus the
    /// direction this particular tuple represents relative to that key.
    ///
    /// The canonical orientation puts the lexicographically smaller
    /// `(addr, port)` endpoint first, so both directions of a conversation
    /// map to the same key.
    pub fn canonical(&self) -> (FlowKey, FlowDirection) {
        let a = (self.src.addr, self.src.port);
        let b = (self.dst.addr, self.dst.port);
        if a <= b {
            (
                FlowKey {
                    lo: self.src,
                    hi: self.dst,
                    transport: self.transport,
                },
                FlowDirection::FromInitiator,
            )
        } else {
            (
                FlowKey {
                    lo: self.dst,
                    hi: self.src,
                    transport: self.transport,
                },
                FlowDirection::FromResponder,
            )
        }
    }
}

impl core::fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let proto = match self.transport {
            Transport::Tcp => "tcp",
            Transport::Udp => "udp",
            Transport::Icmp => "icmp",
        };
        write!(f, "{} {} -> {}", proto, self.src, self.dst)
    }
}

/// Direction-independent flow-table key.
///
/// Note: the *canonical* orientation (`lo`/`hi`) is a lookup artifact only;
/// which endpoint actually initiated the flow is recorded on the flow entry
/// from the first observed packet, not from this ordering.
///
/// Keys order by `(lo, hi, transport)`, the order the flow table emits
/// same-time records in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowKey {
    pub(crate) lo: Endpoint,
    pub(crate) hi: Endpoint,
    /// Transport protocol.
    pub transport: Transport,
}

impl FlowKey {
    /// The key as one integer, most significant field first:
    /// `lo.addr | lo.port | hi.addr | hi.port | transport` in 32, 16, 32, 16
    /// and 2 bits. Injective, and its integer order is the field order.
    pub(crate) fn packed(&self) -> u128 {
        (u128::from(u32::from(self.lo.addr)) << 66)
            | (u128::from(self.lo.port) << 50)
            | (u128::from(u32::from(self.hi.addr)) << 18)
            | (u128::from(self.hi.port) << 2)
            | self.transport as u128
    }
}

/// Hashes the packed key in one 16-byte write; a derived impl would write
/// each of the seven fields separately.
impl core::hash::Hash for FlowKey {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        state.write_u128(self.packed());
    }
}

impl Ord for FlowKey {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.packed().cmp(&other.packed())
    }
}

impl PartialOrd for FlowKey {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(last: u8, port: u16) -> Endpoint {
        Endpoint::new(Ipv4Addr::new(10, 0, 0, last), port)
    }

    #[test]
    fn both_directions_share_a_key() {
        let fwd = FiveTuple::new(ep(1, 49152), ep(2, 80), Transport::Tcp);
        let rev = fwd.reversed();
        let (k1, d1) = fwd.canonical();
        let (k2, d2) = rev.canonical();
        assert_eq!(k1, k2);
        assert_eq!(d1, d2.reverse());
    }

    #[test]
    fn same_addr_different_port_ordering() {
        let t = FiveTuple::new(ep(1, 9000), ep(1, 80), Transport::Udp);
        let (k1, d1) = t.canonical();
        let (k2, d2) = t.reversed().canonical();
        assert_eq!(k1, k2);
        assert_ne!(d1, d2);
    }

    #[test]
    fn transport_distinguishes_flows() {
        let tcp = FiveTuple::new(ep(1, 1234), ep(2, 53), Transport::Tcp);
        let udp = FiveTuple::new(ep(1, 1234), ep(2, 53), Transport::Udp);
        assert_ne!(tcp.canonical().0, udp.canonical().0);
    }

    #[test]
    fn display_formats() {
        let t = FiveTuple::new(ep(1, 1234), ep(2, 53), Transport::Udp);
        assert_eq!(t.to_string(), "udp 10.0.0.1:1234 -> 10.0.0.2:53");
    }

    #[test]
    fn key_order_is_field_order() {
        let key = |a: u8, ap: u16, b: u8, bp: u16, transport| FlowKey {
            lo: ep(a, ap),
            hi: ep(b, bp),
            transport,
        };
        let mut keys = Vec::new();
        for a in [1, 2, 255] {
            for ap in [0, 80, u16::MAX] {
                for b in [0, 3] {
                    for bp in [1, 443] {
                        for t in [Transport::Tcp, Transport::Udp, Transport::Icmp] {
                            keys.push(key(a, ap, b, bp, t));
                        }
                    }
                }
            }
        }
        for x in &keys {
            for y in &keys {
                let fields = |k: &FlowKey| (k.lo, k.hi, k.transport);
                assert_eq!(x.cmp(y), fields(x).cmp(&fields(y)), "{x:?} vs {y:?}");
                assert_eq!(x == y, x.packed() == y.packed());
            }
        }
    }

    #[test]
    fn equal_endpoints_still_canonicalise() {
        // Degenerate but must not panic: both sides identical.
        let t = FiveTuple::new(ep(1, 80), ep(1, 80), Transport::Tcp);
        let (_, d) = t.canonical();
        assert_eq!(d, FlowDirection::FromInitiator);
    }
}
