//! Helpers for building complete, valid frames in tests, doctests and the
//! packet-rendering path of the trace generator.

use std::net::Ipv4Addr;

use crate::checksum::{fold_complement, word_sum};
use crate::dns::{self, DnsRecordType};
use crate::ethernet::{EtherType, EthernetRepr, MacAddr, ETHERNET_HEADER_LEN};
use crate::ipv4::{IpProtocol, Ipv4Repr, IPV4_MIN_HEADER_LEN};
use crate::tcp::{TcpFlags, TcpRepr, TCP_MIN_HEADER_LEN};
use crate::udp::{UdpRepr, UDP_HEADER_LEN};

/// Parameters shared by all frame builders.
#[derive(Debug, Clone, Copy)]
pub struct FrameSpec {
    /// Source MAC.
    pub src_mac: MacAddr,
    /// Destination MAC.
    pub dst_mac: MacAddr,
    /// Source IP.
    pub src_ip: Ipv4Addr,
    /// Destination IP.
    pub dst_ip: Ipv4Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// IP identification (varies per packet to keep frames distinct).
    pub ip_id: u16,
}

impl Default for FrameSpec {
    fn default() -> Self {
        Self {
            src_mac: MacAddr::from_host_id(1),
            dst_mac: MacAddr::from_host_id(2),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(93, 184, 216, 34),
            src_port: 49152,
            dst_port: 80,
            ip_id: 1,
        }
    }
}

/// Build a full Ethernet/IPv4/TCP frame with the given flags and payload.
pub fn build_tcp_frame(spec: &FrameSpec, flags: TcpFlags, seq: u32, payload: &[u8]) -> Vec<u8> {
    let tcp = TcpRepr {
        src_port: spec.src_port,
        dst_port: spec.dst_port,
        seq,
        ack: 0,
        flags,
        window: 65535,
        payload_len: payload.len(),
    };
    let ip = Ipv4Repr {
        src: spec.src_ip,
        dst: spec.dst_ip,
        protocol: IpProtocol::Tcp,
        payload_len: tcp.segment_len(),
        ttl: 64,
        identification: spec.ip_id,
    };
    let total = ETHERNET_HEADER_LEN + ip.total_len();
    let mut frame = vec![0u8; total];
    EthernetRepr {
        src: spec.src_mac,
        dst: spec.dst_mac,
        ethertype: EtherType::Ipv4,
    }
    .emit(&mut frame)
    .expect("frame sized for ethernet header");
    ip.emit(&mut frame[ETHERNET_HEADER_LEN..])
        .expect("frame sized for ip header");
    let seg_start = ETHERNET_HEADER_LEN + IPV4_MIN_HEADER_LEN;
    tcp.emit(&mut frame[seg_start..]).expect("frame sized for tcp");
    frame[seg_start + TCP_MIN_HEADER_LEN..].copy_from_slice(payload);
    TcpRepr::fill_checksum(&mut frame[seg_start..], spec.src_ip, spec.dst_ip);
    frame
}

/// Build a full Ethernet/IPv4/UDP frame with the given payload.
pub fn build_udp_frame(spec: &FrameSpec, payload: &[u8]) -> Vec<u8> {
    let udp = UdpRepr {
        src_port: spec.src_port,
        dst_port: spec.dst_port,
        payload_len: payload.len(),
    };
    let ip = Ipv4Repr {
        src: spec.src_ip,
        dst: spec.dst_ip,
        protocol: IpProtocol::Udp,
        payload_len: udp.datagram_len(),
        ttl: 64,
        identification: spec.ip_id,
    };
    let total = ETHERNET_HEADER_LEN + ip.total_len();
    let mut frame = vec![0u8; total];
    EthernetRepr {
        src: spec.src_mac,
        dst: spec.dst_mac,
        ethertype: EtherType::Ipv4,
    }
    .emit(&mut frame)
    .expect("frame sized for ethernet header");
    ip.emit(&mut frame[ETHERNET_HEADER_LEN..])
        .expect("frame sized for ip header");
    let dg_start = ETHERNET_HEADER_LEN + IPV4_MIN_HEADER_LEN;
    udp.emit(&mut frame[dg_start..]).expect("frame sized for udp");
    frame[dg_start + UDP_HEADER_LEN..].copy_from_slice(payload);
    UdpRepr::fill_checksum(&mut frame[dg_start..], spec.src_ip, spec.dst_ip);
    frame
}

/// Build a DNS A-record query frame to `dst_ip:53`.
pub fn build_dns_query_frame(spec: &FrameSpec, txid: u16, name: &str) -> Vec<u8> {
    let mut msg = vec![0u8; dns::DNS_HEADER_LEN + dns::encoded_name_len(name) + 4];
    let n = dns::emit_query(&mut msg, txid, name, DnsRecordType::A).expect("valid query name");
    msg.truncate(n);
    let mut spec = *spec;
    spec.dst_port = 53;
    build_udp_frame(&spec, &msg)
}

/// Offset of the IPv4 header in a built frame.
const IP_AT: usize = ETHERNET_HEADER_LEN;
/// Offset of the transport header in a built frame.
const L4_AT: usize = IP_AT + IPV4_MIN_HEADER_LEN;
/// Bytes before the payload of a built TCP frame (the longest header here).
const TCP_HEADERS_LEN: usize = L4_AT + TCP_MIN_HEADER_LEN;

/// The headers of one flow direction, built once so that each frame is a
/// copy plus a few patched fields. A template's frames equal
/// [`build_tcp_frame`]'s or [`build_udp_frame`]'s byte for byte.
///
/// The header bytes hold zero in every field that varies per frame: the
/// IPv4 total length and checksum, the TCP seq, flags and checksum, the
/// UDP length and checksum. The two sums are plain `u64` sums of 16-bit
/// words over the fixed fields: the IPv4 header, and the transport
/// pseudo-header (addresses, protocol) plus the transport header. The
/// Internet checksum folds the plain sum of all words, so a frame's
/// checksum is the template's sum plus the words that vary, folded. The
/// payload starts at an even offset, so its words line up with the
/// segment's.
#[derive(Debug, Clone)]
pub struct FrameTemplate {
    header: [u8; TCP_HEADERS_LEN],
    /// Bytes of `header` in use: the Ethernet, IPv4 and transport headers.
    len: usize,
    ip_sum: u64,
    l4_sum: u64,
}

impl FrameTemplate {
    /// The headers of TCP frames from `spec`.
    pub fn tcp(spec: &FrameSpec) -> Self {
        let mut h = Self::headers(spec, IpProtocol::Tcp);
        // Data offset five words and window 65535; seq, ack, flags,
        // checksum and urgent pointer stay zero.
        h[L4_AT + 12] = 5 << 4;
        h[L4_AT + 14..L4_AT + 16].copy_from_slice(&65535u16.to_be_bytes());
        Self::with_sums(h, TCP_HEADERS_LEN)
    }

    /// The headers of UDP frames from `spec`; length and checksum stay zero.
    pub fn udp(spec: &FrameSpec) -> Self {
        Self::with_sums(Self::headers(spec, IpProtocol::Udp), L4_AT + UDP_HEADER_LEN)
    }

    /// The Ethernet and IPv4 headers as [`EthernetRepr::emit`] and
    /// [`Ipv4Repr::emit`] write them, less total length and checksum, then
    /// the transport ports.
    fn headers(spec: &FrameSpec, protocol: IpProtocol) -> [u8; TCP_HEADERS_LEN] {
        let mut h = [0u8; TCP_HEADERS_LEN];
        h[..6].copy_from_slice(&spec.dst_mac.0);
        h[6..12].copy_from_slice(&spec.src_mac.0);
        h[12..IP_AT].copy_from_slice(&u16::from(EtherType::Ipv4).to_be_bytes());
        h[IP_AT] = 0x45; // version 4, five words
        h[IP_AT + 4..IP_AT + 6].copy_from_slice(&spec.ip_id.to_be_bytes());
        h[IP_AT + 6] = 0x40; // don't fragment
        h[IP_AT + 8] = 64; // TTL
        h[IP_AT + 9] = protocol.into();
        h[IP_AT + 12..IP_AT + 16].copy_from_slice(&spec.src_ip.octets());
        h[IP_AT + 16..L4_AT].copy_from_slice(&spec.dst_ip.octets());
        h[L4_AT..L4_AT + 2].copy_from_slice(&spec.src_port.to_be_bytes());
        h[L4_AT + 2..L4_AT + 4].copy_from_slice(&spec.dst_port.to_be_bytes());
        h
    }

    /// The IPv4 header's sum, and the pseudo-header's (addresses and
    /// protocol) plus the transport header's.
    fn with_sums(header: [u8; TCP_HEADERS_LEN], len: usize) -> Self {
        let protocol = u64::from(header[IP_AT + 9]);
        Self {
            header,
            len,
            ip_sum: word_sum(&header[IP_AT..L4_AT]),
            l4_sum: word_sum(&header[IP_AT + 12..L4_AT])
                + protocol
                + word_sum(&header[L4_AT..len]),
        }
    }

    /// The headers then `payload`, with the IPv4 total length and checksum
    /// set for a transport segment of `l4_len` bytes.
    fn frame(&self, payload: &[u8], l4_len: usize) -> Vec<u8> {
        let total =
            u16::try_from(IPV4_MIN_HEADER_LEN + l4_len).expect("frame fits an IPv4 packet");
        let mut frame = Vec::with_capacity(self.len + payload.len());
        frame.extend_from_slice(&self.header[..self.len]);
        frame.extend_from_slice(payload);
        frame[IP_AT + 2..IP_AT + 4].copy_from_slice(&total.to_be_bytes());
        let ip_check = fold_complement(self.ip_sum + u64::from(total));
        frame[IP_AT + 10..IP_AT + 12].copy_from_slice(&ip_check.to_be_bytes());
        frame
    }

    /// A TCP frame: [`build_tcp_frame`] with this template's spec.
    pub fn tcp_frame(&self, flags: TcpFlags, seq: u32, payload: &[u8]) -> Vec<u8> {
        debug_assert_eq!(self.len, TCP_HEADERS_LEN, "a UDP template");
        let seg_len = TCP_MIN_HEADER_LEN + payload.len();
        let mut frame = self.frame(payload, seg_len);
        frame[L4_AT + 4..L4_AT + 8].copy_from_slice(&seq.to_be_bytes());
        frame[L4_AT + 13] = flags.0;
        let sum = self.l4_sum
            + seg_len as u64
            + u64::from(seq >> 16)
            + u64::from(seq & 0xffff)
            + u64::from(flags.0)
            + word_sum(payload);
        frame[L4_AT + 16..L4_AT + 18].copy_from_slice(&fold_complement(sum).to_be_bytes());
        frame
    }

    /// A UDP frame: [`build_udp_frame`] with this template's spec.
    pub fn udp_frame(&self, payload: &[u8]) -> Vec<u8> {
        debug_assert_eq!(self.len, L4_AT + UDP_HEADER_LEN, "a TCP template");
        let dg_len = UDP_HEADER_LEN + payload.len();
        let mut frame = self.frame(payload, dg_len);
        // The length appears twice: pseudo-header and UDP header.
        let len_field = dg_len as u16;
        frame[L4_AT + 4..L4_AT + 6].copy_from_slice(&len_field.to_be_bytes());
        let sum = self.l4_sum + 2 * u64::from(len_field) + word_sum(payload);
        // RFC 768: a computed zero is sent as all ones.
        let check = match fold_complement(sum) {
            0 => 0xffff,
            c => c,
        };
        frame[L4_AT + 6..L4_AT + 8].copy_from_slice(&check.to_be_bytes());
        frame
    }
}

/// A canned TCP SYN frame (used in crate-level doctests).
pub fn sample_tcp_syn() -> Vec<u8> {
    build_tcp_frame(&FrameSpec::default(), TcpFlags::syn_only(), 1000, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EthernetFrame, Ipv4Packet, TcpSegment, UdpDatagram};
    use proptest::prelude::*;

    fn spec(macs: (u32, u32), ips: (u32, u32), ports: (u16, u16), ip_id: u16) -> FrameSpec {
        FrameSpec {
            src_mac: MacAddr::from_host_id(macs.0),
            dst_mac: MacAddr::from_host_id(macs.1),
            src_ip: Ipv4Addr::from(ips.0),
            dst_ip: Ipv4Addr::from(ips.1),
            src_port: ports.0,
            dst_port: ports.1,
            ip_id,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn template_frames_equal_the_builders(
            macs in (any::<u32>(), any::<u32>()),
            ips in (any::<u32>(), any::<u32>()),
            ports in (any::<u16>(), any::<u16>()),
            ip_id in any::<u16>(),
            flags in any::<u8>(),
            seq in any::<u32>(),
            payload in proptest::collection::vec(any::<u8>(), 0..=1472),
        ) {
            let spec = spec(macs, ips, ports, ip_id);
            let tcp = FrameTemplate::tcp(&spec);
            prop_assert_eq!(
                tcp.tcp_frame(TcpFlags(flags), seq, &payload),
                build_tcp_frame(&spec, TcpFlags(flags), seq, &payload)
            );
            // One template serves every frame of its direction.
            prop_assert_eq!(
                tcp.tcp_frame(TcpFlags::syn_only(), !seq, &payload[..payload.len() / 3]),
                build_tcp_frame(&spec, TcpFlags::syn_only(), !seq, &payload[..payload.len() / 3])
            );
            let udp = FrameTemplate::udp(&spec);
            prop_assert_eq!(udp.udp_frame(&payload), build_udp_frame(&spec, &payload));
        }
    }

    #[test]
    fn template_sends_a_zero_udp_checksum_as_all_ones() {
        let spec = FrameSpec {
            dst_port: 53,
            ..FrameSpec::default()
        };
        // With the last word zero the checksum is c = !fold(S); a last word
        // of c makes the sum fold to 0xffff, whose complement is zero.
        let mut payload = b"solve its last word!".to_vec();
        payload.extend_from_slice(&[0, 0]);
        let mut datagram = build_udp_frame(&spec, &payload)[L4_AT..].to_vec();
        datagram[6..8].fill(0);
        let c = crate::checksum::pseudo_header_checksum(spec.src_ip, spec.dst_ip, 17, &datagram);
        let n = payload.len();
        payload[n - 2..].copy_from_slice(&c.to_be_bytes());
        let frame = build_udp_frame(&spec, &payload);
        assert_eq!(frame[L4_AT + 6..L4_AT + 8], [0xff, 0xff], "the 0xffff rule fired");
        assert_eq!(FrameTemplate::udp(&spec).udp_frame(&payload), frame);
    }

    #[test]
    fn tcp_frame_is_fully_valid() {
        let spec = FrameSpec::default();
        let frame = build_tcp_frame(&spec, TcpFlags::syn_ack(), 42, b"hi");
        let eth = EthernetFrame::parse(&frame[..]).unwrap();
        let ip = Ipv4Packet::parse(eth.payload()).unwrap();
        assert!(ip.verify_checksum());
        let tcp = TcpSegment::parse(ip.payload()).unwrap();
        assert!(tcp.verify_checksum(ip.src(), ip.dst()));
        assert_eq!(tcp.payload(), b"hi");
        assert!(tcp.flags().syn() && tcp.flags().ack());
        assert_eq!(tcp.seq(), 42);
    }

    #[test]
    fn udp_frame_is_fully_valid() {
        let spec = FrameSpec {
            dst_port: 5353,
            ..FrameSpec::default()
        };
        let frame = build_udp_frame(&spec, b"payload");
        let eth = EthernetFrame::parse(&frame[..]).unwrap();
        let ip = Ipv4Packet::parse(eth.payload()).unwrap();
        assert!(ip.verify_checksum());
        let udp = UdpDatagram::parse(ip.payload()).unwrap();
        assert!(udp.verify_checksum(ip.src(), ip.dst()));
        assert_eq!(udp.dst_port(), 5353);
        assert_eq!(udp.payload(), b"payload");
    }

    #[test]
    fn dns_query_frame_parses_back() {
        let frame = build_dns_query_frame(&FrameSpec::default(), 77, "intranet.corp.example");
        let eth = EthernetFrame::parse(&frame[..]).unwrap();
        let ip = Ipv4Packet::parse(eth.payload()).unwrap();
        let udp = UdpDatagram::parse(ip.payload()).unwrap();
        assert_eq!(udp.dst_port(), 53);
        let hdr = crate::dns::DnsHeader::parse(udp.payload()).unwrap();
        assert_eq!(hdr.id, 77);
        let (q, _) = crate::dns::DnsQuestion::parse(udp.payload(), 12).unwrap();
        assert_eq!(q.name, "intranet.corp.example");
    }
}
