//! Ethernet II framing.

use crate::{check_len, get_u16, set_u16, Error, Result};

/// Length of an Ethernet II header (dst + src + ethertype), in bytes.
pub const ETHERNET_HEADER_LEN: usize = 14;

/// A 48-bit IEEE 802 MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// Construct a locally-administered unicast address from a 32-bit id.
    ///
    /// Useful for synthesising distinct, valid host addresses in tests and
    /// trace generation (`02:00:` prefix marks locally administered).
    pub fn from_host_id(id: u32) -> Self {
        let b = id.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }
}

impl core::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let o = &self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

/// Well-known EtherType values (only those this stack understands).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (`0x0800`).
    Ipv4,
    /// ARP (`0x0806`) — recognised but not decoded further.
    Arp,
    /// IPv6 (`0x86dd`) — recognised but not decoded further.
    Ipv6,
    /// Anything else, with the raw value preserved.
    Other(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x86dd => EtherType::Ipv6,
            other => EtherType::Other(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(t: EtherType) -> u16 {
        match t {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Ipv6 => 0x86dd,
            EtherType::Other(v) => v,
        }
    }
}

/// A zero-copy view of an Ethernet II frame.
#[derive(Debug, Clone)]
pub struct EthernetFrame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> EthernetFrame<T> {
    /// Wrap `buffer`, validating that it holds at least a full header.
    pub fn parse(buffer: T) -> Result<Self> {
        check_len(buffer.as_ref(), ETHERNET_HEADER_LEN)?;
        Ok(Self { buffer })
    }

    /// Destination MAC address.
    pub fn dst(&self) -> MacAddr {
        let b = self.buffer.as_ref();
        MacAddr([b[0], b[1], b[2], b[3], b[4], b[5]])
    }

    /// Source MAC address.
    pub fn src(&self) -> MacAddr {
        let b = self.buffer.as_ref();
        MacAddr([b[6], b[7], b[8], b[9], b[10], b[11]])
    }

    /// EtherType of the encapsulated payload.
    pub fn ethertype(&self) -> EtherType {
        get_u16(self.buffer.as_ref(), 12).into()
    }

    /// The frame payload following the header.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[ETHERNET_HEADER_LEN..]
    }

    /// Consume the view, returning the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> EthernetFrame<T> {
    /// Wrap a writable buffer without validating contents (for emission).
    pub fn new_unchecked(buffer: T) -> Result<Self> {
        check_len(buffer.as_ref(), ETHERNET_HEADER_LEN)?;
        Ok(Self { buffer })
    }

    /// Set the destination address.
    pub fn set_dst(&mut self, addr: MacAddr) {
        self.buffer.as_mut()[0..6].copy_from_slice(&addr.0);
    }

    /// Set the source address.
    pub fn set_src(&mut self, addr: MacAddr) {
        self.buffer.as_mut()[6..12].copy_from_slice(&addr.0);
    }

    /// Set the EtherType.
    pub fn set_ethertype(&mut self, t: EtherType) {
        set_u16(self.buffer.as_mut(), 12, t.into());
    }

    /// Mutable access to the payload.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[ETHERNET_HEADER_LEN..]
    }
}

/// Fields needed to emit an Ethernet header.
#[derive(Debug, Clone, Copy)]
pub struct EthernetRepr {
    /// Source address.
    pub src: MacAddr,
    /// Destination address.
    pub dst: MacAddr,
    /// Payload EtherType.
    pub ethertype: EtherType,
}

impl EthernetRepr {
    /// Emit the header into the first [`ETHERNET_HEADER_LEN`] bytes of `buf`.
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        if buf.len() < ETHERNET_HEADER_LEN {
            return Err(Error::Truncated {
                needed: ETHERNET_HEADER_LEN,
                got: buf.len(),
            });
        }
        let mut frame = EthernetFrame::new_unchecked(buf)?;
        frame.set_dst(self.dst);
        frame.set_src(self.src);
        frame.set_ethertype(self.ethertype);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = [0u8; 20];
        let repr = EthernetRepr {
            src: MacAddr::from_host_id(7),
            dst: MacAddr::BROADCAST,
            ethertype: EtherType::Ipv4,
        };
        repr.emit(&mut buf).unwrap();
        let frame = EthernetFrame::parse(&buf[..]).unwrap();
        assert_eq!(frame.src(), MacAddr::from_host_id(7));
        assert_eq!(frame.dst(), MacAddr::BROADCAST);
        assert_eq!(frame.ethertype(), EtherType::Ipv4);
        assert_eq!(frame.payload().len(), 6);
    }

    #[test]
    fn too_short_rejected() {
        assert!(matches!(
            EthernetFrame::parse(&[0u8; 13][..]),
            Err(Error::Truncated { needed: 14, got: 13 })
        ));
    }

    #[test]
    fn mac_properties() {
        let m = MacAddr::from_host_id(0xdeadbeef);
        assert_eq!(m.to_string(), "02:00:de:ad:be:ef");
    }

    #[test]
    fn ethertype_mapping() {
        for (raw, ty) in [
            (0x0800u16, EtherType::Ipv4),
            (0x0806, EtherType::Arp),
            (0x86dd, EtherType::Ipv6),
            (0x1234, EtherType::Other(0x1234)),
        ] {
            assert_eq!(EtherType::from(raw), ty);
            assert_eq!(u16::from(ty), raw);
        }
    }
}
