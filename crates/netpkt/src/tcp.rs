//! TCP segment view and builder.

use std::net::Ipv4Addr;

use crate::checksum::pseudo_header_checksum;
use crate::{check_len, get_u16, get_u32, set_u16, set_u32, Error, Result};

/// Minimum TCP header length (no options), in bytes.
pub const TCP_MIN_HEADER_LEN: usize = 20;

/// The TCP flag byte: constants for the six classic flags, accessors for
/// the four the flow table reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag bit.
    pub const FIN: u8 = 0x01;
    /// SYN flag bit.
    pub const SYN: u8 = 0x02;
    /// RST flag bit.
    pub const RST: u8 = 0x04;
    /// PSH flag bit.
    pub const PSH: u8 = 0x08;
    /// ACK flag bit.
    pub const ACK: u8 = 0x10;
    /// URG flag bit.
    pub const URG: u8 = 0x20;

    /// A pure SYN (connection request).
    pub fn syn_only() -> Self {
        TcpFlags(Self::SYN)
    }

    /// SYN+ACK (connection accept).
    pub fn syn_ack() -> Self {
        TcpFlags(Self::SYN | Self::ACK)
    }

    /// True when FIN is set.
    pub fn fin(&self) -> bool {
        self.0 & Self::FIN != 0
    }
    /// True when SYN is set.
    pub fn syn(&self) -> bool {
        self.0 & Self::SYN != 0
    }
    /// True when RST is set.
    pub fn rst(&self) -> bool {
        self.0 & Self::RST != 0
    }
    /// True when ACK is set.
    pub fn ack(&self) -> bool {
        self.0 & Self::ACK != 0
    }
}

impl core::fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut any = false;
        for (bit, name) in [
            (Self::SYN, "SYN"),
            (Self::ACK, "ACK"),
            (Self::FIN, "FIN"),
            (Self::RST, "RST"),
            (Self::PSH, "PSH"),
            (Self::URG, "URG"),
        ] {
            if self.0 & bit != 0 {
                if any {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                any = true;
            }
        }
        if !any {
            write!(f, "(none)")?;
        }
        Ok(())
    }
}

/// A zero-copy view of a TCP segment.
#[derive(Debug, Clone)]
pub struct TcpSegment<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> TcpSegment<T> {
    /// Wrap `buffer`, validating the data-offset field.
    pub fn parse(buffer: T) -> Result<Self> {
        let buf = buffer.as_ref();
        check_len(buf, TCP_MIN_HEADER_LEN)?;
        let data_off = usize::from(buf[12] >> 4) * 4;
        if data_off < TCP_MIN_HEADER_LEN || data_off > buf.len() {
            return Err(Error::BadLength);
        }
        Ok(Self { buffer })
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        get_u16(self.buffer.as_ref(), 0)
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        get_u16(self.buffer.as_ref(), 2)
    }

    /// Sequence number.
    pub fn seq(&self) -> u32 {
        get_u32(self.buffer.as_ref(), 4)
    }

    /// Header length in bytes (data offset × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[12] >> 4) * 4
    }

    /// Flag byte.
    pub fn flags(&self) -> TcpFlags {
        TcpFlags(self.buffer.as_ref()[13] & 0x3f)
    }

    /// Advertised receive window.
    pub fn window(&self) -> u16 {
        get_u16(self.buffer.as_ref(), 14)
    }

    /// Checksum field value.
    pub fn checksum(&self) -> u16 {
        get_u16(self.buffer.as_ref(), 16)
    }

    /// The segment payload after header and options.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[self.header_len()..]
    }

    /// Verify the transport checksum against the given IPv4 pseudo header.
    pub fn verify_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        pseudo_header_checksum(src, dst, 6, self.buffer.as_ref()) == 0
    }
}

/// Plain representation used to emit a TCP header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpRepr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number (meaningful when ACK is set).
    pub ack: u32,
    /// Flags to set.
    pub flags: TcpFlags,
    /// Advertised window.
    pub window: u16,
    /// Payload length that will follow the header.
    pub payload_len: usize,
}

impl TcpRepr {
    /// Total emitted segment length (header + payload).
    pub fn segment_len(&self) -> usize {
        TCP_MIN_HEADER_LEN + self.payload_len
    }

    /// Emit header into `buf` (first 20 bytes); the payload region must
    /// already contain the payload before calling [`TcpRepr::fill_checksum`].
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        let needed = self.segment_len();
        if buf.len() < needed {
            return Err(Error::Truncated {
                needed,
                got: buf.len(),
            });
        }
        set_u16(buf, 0, self.src_port);
        set_u16(buf, 2, self.dst_port);
        set_u32(buf, 4, self.seq);
        set_u32(buf, 8, self.ack);
        buf[12] = 5 << 4; // data offset = 5 words
        buf[13] = self.flags.0;
        set_u16(buf, 14, self.window);
        set_u16(buf, 16, 0); // checksum
        set_u16(buf, 18, 0); // urgent pointer
        Ok(())
    }

    /// Compute and store the checksum over `segment` (header + payload).
    pub fn fill_checksum(segment: &mut [u8], src: Ipv4Addr, dst: Ipv4Addr) {
        set_u16(segment, 16, 0);
        let ck = pseudo_header_checksum(src, dst, 6, segment);
        set_u16(segment, 16, ck);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn emit_sample(payload: &[u8]) -> Vec<u8> {
        let repr = TcpRepr {
            src_port: 49152,
            dst_port: 80,
            seq: 0x01020304,
            ack: 0x0a0b0c0d,
            flags: TcpFlags(TcpFlags::PSH | TcpFlags::ACK),
            window: 8192,
            payload_len: payload.len(),
        };
        let mut buf = vec![0u8; repr.segment_len()];
        repr.emit(&mut buf).unwrap();
        buf[TCP_MIN_HEADER_LEN..].copy_from_slice(payload);
        TcpRepr::fill_checksum(&mut buf, SRC, DST);
        buf
    }

    #[test]
    fn roundtrip_with_checksum() {
        let buf = emit_sample(b"GET / HTTP/1.1\r\n");
        let seg = TcpSegment::parse(&buf[..]).unwrap();
        assert_eq!(seg.src_port(), 49152);
        assert_eq!(seg.dst_port(), 80);
        assert_eq!(seg.seq(), 0x01020304);
        assert_eq!(get_u32(&buf, 8), 0x0a0b0c0d, "acknowledgement number");
        assert_eq!(seg.flags(), TcpFlags(TcpFlags::PSH | TcpFlags::ACK));
        assert!(seg.flags().ack());
        assert!(!seg.flags().syn());
        assert_eq!(seg.window(), 8192);
        assert_eq!(seg.payload(), b"GET / HTTP/1.1\r\n");
        assert!(seg.verify_checksum(SRC, DST));
        assert!(!seg.verify_checksum(Ipv4Addr::new(10, 0, 0, 3), DST));
    }

    #[test]
    fn bad_data_offset_rejected() {
        let mut buf = emit_sample(b"");
        buf[12] = 4 << 4; // below minimum
        assert!(matches!(TcpSegment::parse(&buf[..]), Err(Error::BadLength)));
        buf[12] = 15 << 4; // 60-byte header > 20-byte buffer
        assert!(matches!(TcpSegment::parse(&buf[..]), Err(Error::BadLength)));
    }

    #[test]
    fn flags_display() {
        assert_eq!(TcpFlags::syn_only().to_string(), "SYN");
        assert_eq!(TcpFlags::syn_ack().to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::default().to_string(), "(none)");
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let mut buf = emit_sample(b"data!");
        *buf.last_mut().unwrap() ^= 0x01;
        let seg = TcpSegment::parse(&buf[..]).unwrap();
        assert!(!seg.verify_checksum(SRC, DST));
    }
}
