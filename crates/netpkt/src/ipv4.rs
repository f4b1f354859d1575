//! IPv4 packet view and builder.

use std::net::Ipv4Addr;

use crate::checksum::{internet_checksum, Checksum};
use crate::{check_len, get_u16, set_u16, Error, Result};

/// Minimum IPv4 header length (no options), in bytes.
pub const IPV4_MIN_HEADER_LEN: usize = 20;

/// IP protocol numbers understood by the measurement pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IpProtocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Any other protocol, raw value preserved.
    Other(u8),
}

impl From<u8> for IpProtocol {
    fn from(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

impl From<IpProtocol> for u8 {
    fn from(p: IpProtocol) -> u8 {
        match p {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(v) => v,
        }
    }
}

/// A zero-copy view of an IPv4 packet.
#[derive(Debug, Clone)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wrap `buffer`, validating version, header length and total length.
    pub fn parse(buffer: T) -> Result<Self> {
        let buf = buffer.as_ref();
        check_len(buf, IPV4_MIN_HEADER_LEN)?;
        if buf[0] >> 4 != 4 {
            return Err(Error::Unsupported);
        }
        let ihl = usize::from(buf[0] & 0x0f) * 4;
        if ihl < IPV4_MIN_HEADER_LEN || buf.len() < ihl {
            return Err(Error::BadLength);
        }
        let total = usize::from(get_u16(buf, 2));
        if total < ihl || total > buf.len() {
            return Err(Error::BadLength);
        }
        Ok(Self { buffer })
    }

    /// Header length in bytes (IHL × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[0] & 0x0f) * 4
    }

    /// Total packet length from the header's total-length field.
    pub fn total_len(&self) -> usize {
        usize::from(get_u16(self.buffer.as_ref(), 2))
    }

    /// IP identification field.
    pub fn identification(&self) -> u16 {
        get_u16(self.buffer.as_ref(), 4)
    }

    /// Time-to-live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[8]
    }

    /// Encapsulated protocol.
    pub fn protocol(&self) -> IpProtocol {
        self.buffer.as_ref()[9].into()
    }

    /// Header checksum field value.
    pub fn checksum(&self) -> u16 {
        get_u16(self.buffer.as_ref(), 10)
    }

    /// Source address.
    pub fn src(&self) -> Ipv4Addr {
        let b = self.buffer.as_ref();
        Ipv4Addr::new(b[12], b[13], b[14], b[15])
    }

    /// Destination address.
    pub fn dst(&self) -> Ipv4Addr {
        let b = self.buffer.as_ref();
        Ipv4Addr::new(b[16], b[17], b[18], b[19])
    }

    /// True when the header checksum verifies.
    pub fn verify_checksum(&self) -> bool {
        let hl = self.header_len();
        internet_checksum(&self.buffer.as_ref()[..hl]) == 0
    }

    /// The transport payload, bounded by the total-length field.
    pub fn payload(&self) -> &[u8] {
        let hl = self.header_len();
        let total = self.total_len();
        &self.buffer.as_ref()[hl..total]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4Packet<T> {
    /// Wrap a writable buffer for emission; no field validation.
    pub fn new_unchecked(buffer: T) -> Result<Self> {
        check_len(buffer.as_ref(), IPV4_MIN_HEADER_LEN)?;
        Ok(Self { buffer })
    }

    /// Recompute and store the header checksum.
    pub fn fill_checksum(&mut self) {
        set_u16(self.buffer.as_mut(), 10, 0);
        let hl = usize::from(self.buffer.as_ref()[0] & 0x0f) * 4;
        let ck = internet_checksum(&self.buffer.as_ref()[..hl]);
        set_u16(self.buffer.as_mut(), 10, ck);
    }

    /// Mutable view of the payload region.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let hl = usize::from(self.buffer.as_ref()[0] & 0x0f) * 4;
        let total = usize::from(get_u16(self.buffer.as_ref(), 2));
        &mut self.buffer.as_mut()[hl..total]
    }
}

/// Plain-old-data representation used to emit an IPv4 header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Repr {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Encapsulated protocol.
    pub protocol: IpProtocol,
    /// Transport payload length in bytes.
    pub payload_len: usize,
    /// Time-to-live (64 is a sensible default).
    pub ttl: u8,
    /// IP identification field.
    pub identification: u16,
}

impl Ipv4Repr {
    /// Total emitted packet length.
    pub fn total_len(&self) -> usize {
        IPV4_MIN_HEADER_LEN + self.payload_len
    }

    /// Emit the header into `buf` and fill the checksum. `buf` must be at
    /// least [`Ipv4Repr::total_len`] bytes (payload is written by the caller
    /// afterwards via [`Ipv4Packet::payload_mut`]).
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        let total = self.total_len();
        if buf.len() < total {
            return Err(Error::Truncated {
                needed: total,
                got: buf.len(),
            });
        }
        if total > usize::from(u16::MAX) {
            return Err(Error::BadLength);
        }
        buf[0] = 0x45; // version 4, IHL 5
        buf[1] = 0;
        set_u16(buf, 2, total as u16);
        set_u16(buf, 4, self.identification);
        set_u16(buf, 6, 0x4000); // don't fragment
        buf[8] = self.ttl;
        buf[9] = self.protocol.into();
        set_u16(buf, 10, 0);
        buf[12..16].copy_from_slice(&self.src.octets());
        buf[16..20].copy_from_slice(&self.dst.octets());
        let mut c = Checksum::new();
        c.push(&buf[..IPV4_MIN_HEADER_LEN]);
        set_u16(buf, 10, c.finish());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repr() -> Ipv4Repr {
        Ipv4Repr {
            src: Ipv4Addr::new(10, 1, 2, 3),
            dst: Ipv4Addr::new(192, 168, 0, 1),
            protocol: IpProtocol::Udp,
            payload_len: 8,
            ttl: 64,
            identification: 0xbeef,
        }
    }

    #[test]
    fn emit_parse_roundtrip() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.total_len()];
        repr.emit(&mut buf).unwrap();
        let pkt = Ipv4Packet::parse(&buf[..]).unwrap();
        assert_eq!(pkt.src(), repr.src);
        assert_eq!(pkt.dst(), repr.dst);
        assert_eq!(pkt.protocol(), IpProtocol::Udp);
        assert_eq!(pkt.ttl(), 64);
        assert_eq!(pkt.identification(), 0xbeef);
        assert_eq!(pkt.total_len(), 28);
        assert_eq!(pkt.payload().len(), 8);
        assert!(pkt.verify_checksum());
    }

    #[test]
    fn corrupted_checksum_detected() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.total_len()];
        repr.emit(&mut buf).unwrap();
        buf[8] = 63; // mutate TTL without updating checksum
        let pkt = Ipv4Packet::parse(&buf[..]).unwrap();
        assert!(!pkt.verify_checksum());
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = [0u8; 20];
        buf[0] = 0x65; // version 6
        assert!(matches!(Ipv4Packet::parse(&buf[..]), Err(Error::Unsupported)));
    }

    #[test]
    fn rejects_bad_lengths() {
        // total length larger than buffer
        let mut buf = [0u8; 20];
        buf[0] = 0x45;
        set_u16(&mut buf, 2, 40);
        assert!(matches!(Ipv4Packet::parse(&buf[..]), Err(Error::BadLength)));
        // IHL smaller than minimum
        let mut buf2 = [0u8; 20];
        buf2[0] = 0x44;
        set_u16(&mut buf2, 2, 20);
        assert!(matches!(Ipv4Packet::parse(&buf2[..]), Err(Error::BadLength)));
    }

    #[test]
    fn payload_bounded_by_total_len() {
        let repr = Ipv4Repr {
            payload_len: 4,
            ..sample_repr()
        };
        // Oversized buffer: payload must not include trailing slack.
        let mut buf = vec![0u8; repr.total_len() + 16];
        repr.emit(&mut buf).unwrap();
        let pkt = Ipv4Packet::parse(&buf[..]).unwrap();
        assert_eq!(pkt.payload().len(), 4);
    }
}
