//! ICMPv4 echo messages (the subset used for liveness probes in traces).

use crate::checksum::internet_checksum;
use crate::{check_len, get_u16, Result};

/// ICMP header length (type, code, checksum, rest-of-header), in bytes.
pub const ICMP_HEADER_LEN: usize = 8;

/// ICMP message types understood by this stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IcmpType {
    /// Echo reply (0).
    EchoReply,
    /// Destination unreachable (3).
    DestUnreachable,
    /// Echo request (8).
    EchoRequest,
    /// Time exceeded (11).
    TimeExceeded,
    /// Anything else.
    Other(u8),
}

impl From<u8> for IcmpType {
    fn from(v: u8) -> Self {
        match v {
            0 => IcmpType::EchoReply,
            3 => IcmpType::DestUnreachable,
            8 => IcmpType::EchoRequest,
            11 => IcmpType::TimeExceeded,
            other => IcmpType::Other(other),
        }
    }
}

impl From<IcmpType> for u8 {
    fn from(t: IcmpType) -> u8 {
        match t {
            IcmpType::EchoReply => 0,
            IcmpType::DestUnreachable => 3,
            IcmpType::EchoRequest => 8,
            IcmpType::TimeExceeded => 11,
            IcmpType::Other(v) => v,
        }
    }
}

/// A zero-copy view of an ICMPv4 message.
#[derive(Debug, Clone)]
pub struct IcmpMessage<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> IcmpMessage<T> {
    /// Wrap `buffer`, validating minimum length.
    pub fn parse(buffer: T) -> Result<Self> {
        check_len(buffer.as_ref(), ICMP_HEADER_LEN)?;
        Ok(Self { buffer })
    }

    /// Message type.
    pub fn msg_type(&self) -> IcmpType {
        self.buffer.as_ref()[0].into()
    }

    /// Message code.
    pub fn code(&self) -> u8 {
        self.buffer.as_ref()[1]
    }

    /// Echo identifier (meaningful for echo request/reply).
    pub fn identifier(&self) -> u16 {
        get_u16(self.buffer.as_ref(), 4)
    }

    /// Echo sequence number (meaningful for echo request/reply).
    pub fn sequence(&self) -> u16 {
        get_u16(self.buffer.as_ref(), 6)
    }

    /// Payload after the 8-byte header.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[ICMP_HEADER_LEN..]
    }

    /// Verify the message checksum.
    pub fn verify_checksum(&self) -> bool {
        internet_checksum(self.buffer.as_ref()) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_u16;

    /// An echo message of `msg_type` with a valid checksum.
    fn echo(msg_type: IcmpType, identifier: u16, sequence: u16, payload: &[u8]) -> Vec<u8> {
        let mut buf = vec![0u8; ICMP_HEADER_LEN + payload.len()];
        buf[0] = msg_type.into();
        set_u16(&mut buf, 4, identifier);
        set_u16(&mut buf, 6, sequence);
        buf[ICMP_HEADER_LEN..].copy_from_slice(payload);
        let ck = internet_checksum(&buf);
        set_u16(&mut buf, 2, ck);
        buf
    }

    #[test]
    fn echo_roundtrip() {
        let buf = echo(IcmpType::EchoRequest, 0x1234, 7, b"ping-payload");
        let msg = IcmpMessage::parse(&buf[..]).unwrap();
        assert_eq!(msg.msg_type(), IcmpType::EchoRequest);
        assert_eq!(msg.code(), 0);
        assert_eq!(msg.identifier(), 0x1234);
        assert_eq!(msg.sequence(), 7);
        assert_eq!(msg.payload(), b"ping-payload");
        assert!(msg.verify_checksum());
    }

    #[test]
    fn corruption_detected() {
        let mut buf = echo(IcmpType::EchoReply, 1, 1, b"abcd1234");
        *buf.last_mut().unwrap() ^= 0x80;
        let msg = IcmpMessage::parse(&buf[..]).unwrap();
        assert!(!msg.verify_checksum());
    }

    #[test]
    fn type_mapping_roundtrips() {
        for raw in 0u8..=255 {
            assert_eq!(u8::from(IcmpType::from(raw)), raw);
        }
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(IcmpMessage::parse(&[0u8; 7][..]).is_err());
    }
}
