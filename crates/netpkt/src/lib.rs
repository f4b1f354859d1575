//! # netpkt — packet wire formats and capture I/O
//!
//! Zero-copy views and builders for the protocol headers needed by the
//! measurement pipeline of the monoculture-HIDS reproduction: Ethernet II,
//! IPv4, TCP, UDP, ICMPv4 and (a useful subset of) DNS, plus a classic
//! libpcap file reader/writer.
//!
//! The design follows the smoltcp idiom: a *view* type wraps any
//! `AsRef<[u8]>` buffer and exposes typed accessors; when the buffer is also
//! `AsMut<[u8]>` the same type exposes setters. Construction of new packets
//! goes through `emit`-style builders that write into caller-provided
//! buffers, so the hot path never allocates.
//!
//! ```
//! use netpkt::{EthernetFrame, EtherType, Ipv4Packet, IpProtocol, TcpSegment};
//!
//! // Parse a captured frame down to the TCP layer.
//! let frame_bytes = netpkt::testutil::sample_tcp_syn();
//! let eth = EthernetFrame::parse(&frame_bytes[..]).unwrap();
//! assert_eq!(eth.ethertype(), EtherType::Ipv4);
//! let ip = Ipv4Packet::parse(eth.payload()).unwrap();
//! assert_eq!(ip.protocol(), IpProtocol::Tcp);
//! let tcp = TcpSegment::parse(ip.payload()).unwrap();
//! assert!(tcp.flags().syn());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod dns;
pub mod error;
pub mod ethernet;
pub mod icmp;
pub mod ipv4;
pub mod pcap;
pub mod swar;
pub mod tcp;
pub mod testutil;
pub mod udp;

pub use dns::{
    fold_name, fold_name_oracle, DnsHeader, DnsOpcode, DnsQuestion, DnsRcode, DnsRecord,
    DnsRecordType, RData,
};
pub use error::{DecodeError, Layer, LayerResultExt};
pub use ethernet::{EtherType, EthernetFrame, MacAddr, ETHERNET_HEADER_LEN};
pub use icmp::{IcmpMessage, IcmpType, ICMP_HEADER_LEN};
pub use ipv4::{IpProtocol, Ipv4Packet, IPV4_MIN_HEADER_LEN};
pub use pcap::{
    LinkType, LossStats, LossyPcapReader, PcapError, PcapPacket, PcapReader, PcapRecord,
    PcapWriter,
};
pub use tcp::{TcpFlags, TcpSegment, TCP_MIN_HEADER_LEN};
pub use udp::{UdpDatagram, UDP_HEADER_LEN};

/// Errors produced when parsing or emitting wire formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The buffer is too short to contain the fixed-size header.
    Truncated {
        /// Bytes required for the header in question.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// A length field points past the end of the buffer.
    BadLength,
    /// A version/type field holds a value this stack does not speak.
    Unsupported,
    /// A checksum failed verification.
    BadChecksum,
    /// A DNS name was malformed (bad label length, loop, or overrun).
    Malformed,
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::Truncated { needed, got } => {
                write!(f, "buffer truncated: need {needed} bytes, got {got}")
            }
            Error::BadLength => write!(f, "length field inconsistent with buffer"),
            Error::Unsupported => write!(f, "unsupported protocol version or type"),
            Error::BadChecksum => write!(f, "checksum verification failed"),
            Error::Malformed => write!(f, "malformed field"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for wire-format operations.
pub type Result<T> = core::result::Result<T, Error>;

pub(crate) fn check_len(buf: &[u8], needed: usize) -> Result<()> {
    if buf.len() < needed {
        Err(Error::Truncated {
            needed,
            got: buf.len(),
        })
    } else {
        Ok(())
    }
}

/// Read a big-endian `u16` at `offset`; caller guarantees bounds.
#[inline]
pub(crate) fn get_u16(buf: &[u8], offset: usize) -> u16 {
    u16::from_be_bytes([buf[offset], buf[offset + 1]])
}

/// Read a big-endian `u32` at `offset`; caller guarantees bounds.
#[inline]
pub(crate) fn get_u32(buf: &[u8], offset: usize) -> u32 {
    u32::from_be_bytes([buf[offset], buf[offset + 1], buf[offset + 2], buf[offset + 3]])
}

#[inline]
pub(crate) fn set_u16(buf: &mut [u8], offset: usize, value: u16) {
    buf[offset..offset + 2].copy_from_slice(&value.to_be_bytes());
}

#[inline]
pub(crate) fn set_u32(buf: &mut [u8], offset: usize, value: u32) {
    buf[offset..offset + 4].copy_from_slice(&value.to_be_bytes());
}
