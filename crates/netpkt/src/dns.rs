//! DNS message header and question section.
//!
//! The measurement pipeline classifies DNS activity by transport endpoint
//! (UDP/53), but parsing the query name lets examples and tests assert that
//! synthesised traffic is well-formed, and lets the flow layer label DNS
//! transactions by name. Compression pointers are accepted when parsing.

use crate::{check_len, get_u16, set_u16, Error, Result};

/// Fixed DNS header length, in bytes.
pub const DNS_HEADER_LEN: usize = 12;

/// Maximum length of a presentation-format domain name we will produce.
pub const MAX_NAME_LEN: usize = 255;

/// DNS opcode values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsOpcode {
    /// Standard query (0).
    Query,
    /// Inverse query (1), obsolete.
    IQuery,
    /// Server status request (2).
    Status,
    /// Anything else.
    Other(u8),
}

impl From<u8> for DnsOpcode {
    fn from(v: u8) -> Self {
        match v {
            0 => DnsOpcode::Query,
            1 => DnsOpcode::IQuery,
            2 => DnsOpcode::Status,
            other => DnsOpcode::Other(other),
        }
    }
}

/// DNS response codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsRcode {
    /// No error (0).
    NoError,
    /// Format error (1).
    FormErr,
    /// Server failure (2).
    ServFail,
    /// Name error / NXDOMAIN (3).
    NxDomain,
    /// Anything else.
    Other(u8),
}

impl From<u8> for DnsRcode {
    fn from(v: u8) -> Self {
        match v {
            0 => DnsRcode::NoError,
            1 => DnsRcode::FormErr,
            2 => DnsRcode::ServFail,
            3 => DnsRcode::NxDomain,
            other => DnsRcode::Other(other),
        }
    }
}

/// DNS record types used by the generator and classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DnsRecordType {
    /// IPv4 host address (1).
    A,
    /// Name server (2).
    Ns,
    /// Canonical name (5).
    Cname,
    /// Pointer (12).
    Ptr,
    /// Mail exchange (15).
    Mx,
    /// Text (16).
    Txt,
    /// IPv6 host address (28).
    Aaaa,
    /// Anything else.
    Other(u16),
}

impl From<u16> for DnsRecordType {
    fn from(v: u16) -> Self {
        match v {
            1 => DnsRecordType::A,
            2 => DnsRecordType::Ns,
            5 => DnsRecordType::Cname,
            12 => DnsRecordType::Ptr,
            15 => DnsRecordType::Mx,
            16 => DnsRecordType::Txt,
            28 => DnsRecordType::Aaaa,
            other => DnsRecordType::Other(other),
        }
    }
}

impl From<DnsRecordType> for u16 {
    fn from(t: DnsRecordType) -> u16 {
        match t {
            DnsRecordType::A => 1,
            DnsRecordType::Ns => 2,
            DnsRecordType::Cname => 5,
            DnsRecordType::Ptr => 12,
            DnsRecordType::Mx => 15,
            DnsRecordType::Txt => 16,
            DnsRecordType::Aaaa => 28,
            DnsRecordType::Other(v) => v,
        }
    }
}

/// Decoded DNS header fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnsHeader {
    /// Transaction id.
    pub id: u16,
    /// True for responses, false for queries.
    pub is_response: bool,
    /// Operation code.
    pub opcode: DnsOpcode,
    /// Recursion desired.
    pub recursion_desired: bool,
    /// Response code.
    pub rcode: DnsRcode,
    /// Question count.
    pub qdcount: u16,
    /// Answer count.
    pub ancount: u16,
}

impl DnsHeader {
    /// Parse the 12-byte header from the start of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        check_len(buf, DNS_HEADER_LEN)?;
        let flags = get_u16(buf, 2);
        Ok(DnsHeader {
            id: get_u16(buf, 0),
            is_response: flags & 0x8000 != 0,
            opcode: (((flags >> 11) & 0x0f) as u8).into(),
            recursion_desired: flags & 0x0100 != 0,
            rcode: ((flags & 0x000f) as u8).into(),
            qdcount: get_u16(buf, 4),
            ancount: get_u16(buf, 6),
        })
    }

    /// Emit a query header for a single question into `buf`.
    pub fn emit_query(buf: &mut [u8], id: u16) -> Result<()> {
        check_len(buf, DNS_HEADER_LEN)?;
        set_u16(buf, 0, id);
        set_u16(buf, 2, 0x0100); // RD set, everything else zero
        set_u16(buf, 4, 1); // one question
        set_u16(buf, 6, 0);
        set_u16(buf, 8, 0);
        set_u16(buf, 10, 0);
        Ok(())
    }
}

/// A decoded question-section entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsQuestion {
    /// Queried name in presentation format (e.g. `www.example.com`).
    pub name: String,
    /// Query type.
    pub qtype: DnsRecordType,
}

impl DnsQuestion {
    /// Parse the first question starting at `offset` within the full DNS
    /// message `msg`. Returns the question and the offset just past it.
    pub fn parse(msg: &[u8], offset: usize) -> Result<(Self, usize)> {
        let (name, after_name) = parse_name(msg, offset)?;
        check_len(msg, after_name + 4)?;
        let qtype = DnsRecordType::from(get_u16(msg, after_name));
        Ok((DnsQuestion { name, qtype }, after_name + 4))
    }

    /// Encoded length of this question (uncompressed).
    pub fn encoded_len(&self) -> usize {
        encoded_name_len(&self.name) + 4
    }

    /// Emit this question at `offset` in `buf`; returns offset past it.
    pub fn emit(&self, buf: &mut [u8], offset: usize) -> Result<usize> {
        emit_question(buf, offset, &self.name, self.qtype)
    }
}

/// Emit a question for `name` at `offset` in `buf`; returns offset past it.
fn emit_question(
    buf: &mut [u8],
    offset: usize,
    name: &str,
    qtype: DnsRecordType,
) -> Result<usize> {
    let after_name = emit_name(buf, offset, name)?;
    check_len(buf, after_name + 4)?;
    set_u16(buf, after_name, qtype.into());
    set_u16(buf, after_name + 2, 1); // class IN
    Ok(after_name + 4)
}

/// Case-fold a presentation-format domain name for comparison.
///
/// DNS names compare case-insensitively over the ASCII range only
/// (RFC 4343): `FOO.Example` and `foo.example` are the same name, but
/// non-ASCII bytes are left untouched. Distinct-contact accounting must
/// fold through this before counting, or one server queried under two
/// spellings inflates the feature.
///
/// Folds word-at-a-time via [`crate::swar::ascii_lowercase`]; the
/// per-character scalar fold is retained as [`fold_name_oracle`] and the
/// pair is held byte-identical by a differential proptest.
pub fn fold_name(name: &str) -> String {
    crate::swar::ascii_lowercase(name)
}

/// Reference scalar implementation of [`fold_name`], kept as the
/// differential-test oracle for the SWAR fold. Not used on the hot path.
pub fn fold_name_oracle(name: &str) -> String {
    name.chars().map(|c| c.to_ascii_lowercase()).collect()
}

/// Length of `name` when wire-encoded (labels + length bytes + root byte).
pub fn encoded_name_len(name: &str) -> usize {
    if name.is_empty() {
        1
    } else {
        name.len() + 2
    }
}

fn emit_name(buf: &mut [u8], mut offset: usize, name: &str) -> Result<usize> {
    let needed = offset + encoded_name_len(name);
    check_len(buf, needed)?;
    if name.len() > MAX_NAME_LEN {
        return Err(Error::Malformed);
    }
    if !name.is_empty() {
        for label in name.split('.') {
            if label.is_empty() || label.len() > 63 {
                return Err(Error::Malformed);
            }
            buf[offset] = label.len() as u8;
            offset += 1;
            buf[offset..offset + label.len()].copy_from_slice(label.as_bytes());
            offset += label.len();
        }
    }
    buf[offset] = 0;
    Ok(offset + 1)
}

/// Decode a (possibly compressed) name at `offset`; returns the name and the
/// offset just past its encoding *in the original location*.
fn parse_name(msg: &[u8], start: usize) -> Result<(String, usize)> {
    let mut name = String::new();
    let mut offset = start;
    let mut after: Option<usize> = None;
    let mut hops = 0usize;
    loop {
        check_len(msg, offset + 1)?;
        let len = msg[offset];
        match len {
            0 => {
                let end = after.unwrap_or(offset + 1);
                return Ok((name, end));
            }
            l if l & 0xc0 == 0xc0 => {
                check_len(msg, offset + 2)?;
                let ptr = usize::from(get_u16(msg, offset) & 0x3fff);
                if after.is_none() {
                    after = Some(offset + 2);
                }
                // Guard against pointer loops.
                hops += 1;
                if hops > 32 || ptr >= offset {
                    return Err(Error::Malformed);
                }
                offset = ptr;
            }
            l if l & 0xc0 != 0 => return Err(Error::Malformed),
            l => {
                let l = usize::from(l);
                check_len(msg, offset + 1 + l)?;
                if !name.is_empty() {
                    name.push('.');
                }
                let label = &msg[offset + 1..offset + 1 + l];
                name.push_str(core::str::from_utf8(label).map_err(|_| Error::Malformed)?);
                if name.len() > MAX_NAME_LEN {
                    return Err(Error::Malformed);
                }
                offset += 1 + l;
            }
        }
    }
}

/// Build a complete single-question DNS query message; returns bytes written.
pub fn emit_query(buf: &mut [u8], id: u16, name: &str, qtype: DnsRecordType) -> Result<usize> {
    DnsHeader::emit_query(buf, id)?;
    emit_question(buf, DNS_HEADER_LEN, name, qtype)
}

/// Typed resource-record data (only what the pipeline interprets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// An IPv4 host address.
    A(std::net::Ipv4Addr),
    /// Anything else, raw.
    Other(Vec<u8>),
}

/// A decoded answer-section resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsRecord {
    /// Owner name.
    pub name: String,
    /// Record type.
    pub rtype: DnsRecordType,
    /// Time-to-live, seconds.
    pub ttl: u32,
    /// Record data.
    pub rdata: RData,
}

impl DnsRecord {
    /// Parse one resource record at `offset`; returns the record and the
    /// offset just past it.
    pub fn parse(msg: &[u8], offset: usize) -> Result<(Self, usize)> {
        let (name, after_name) = parse_name(msg, offset)?;
        check_len(msg, after_name + 10)?;
        let rtype = DnsRecordType::from(get_u16(msg, after_name));
        let ttl = crate::get_u32(msg, after_name + 4);
        let rdlen = usize::from(get_u16(msg, after_name + 8));
        let rdata_start = after_name + 10;
        check_len(msg, rdata_start + rdlen)?;
        let raw = &msg[rdata_start..rdata_start + rdlen];
        let rdata = match (rtype, rdlen) {
            (DnsRecordType::A, 4) => {
                RData::A(std::net::Ipv4Addr::new(raw[0], raw[1], raw[2], raw[3]))
            }
            _ => RData::Other(raw.to_vec()),
        };
        Ok((
            DnsRecord {
                name,
                rtype,
                ttl,
                rdata,
            },
            rdata_start + rdlen,
        ))
    }
}

/// Parse a complete message's question and answer sections.
pub fn parse_answers(msg: &[u8]) -> Result<(DnsHeader, Vec<DnsQuestion>, Vec<DnsRecord>)> {
    let header = DnsHeader::parse(msg)?;
    let mut offset = DNS_HEADER_LEN;
    let mut questions = Vec::with_capacity(usize::from(header.qdcount));
    for _ in 0..header.qdcount {
        let (q, next) = DnsQuestion::parse(msg, offset)?;
        questions.push(q);
        offset = next;
    }
    let mut answers = Vec::with_capacity(usize::from(header.ancount));
    for _ in 0..header.ancount {
        let (r, next) = DnsRecord::parse(msg, offset)?;
        answers.push(r);
        offset = next;
    }
    Ok((header, questions, answers))
}

/// Build a complete response to a single-question query: echoes the
/// question and answers with the given A records (compression pointers
/// back to the question name). Returns bytes written.
pub fn emit_a_response(
    buf: &mut [u8],
    id: u16,
    name: &str,
    addrs: &[std::net::Ipv4Addr],
    ttl: u32,
) -> Result<usize> {
    check_len(buf, DNS_HEADER_LEN)?;
    set_u16(buf, 0, id);
    // QR=1, opcode 0, RD+RA set, rcode NoError (or NXDOMAIN with no answers).
    let rcode: u16 = if addrs.is_empty() { 3 } else { 0 };
    set_u16(buf, 2, 0x8180 | rcode);
    set_u16(buf, 4, 1);
    set_u16(buf, 6, addrs.len() as u16);
    set_u16(buf, 8, 0);
    set_u16(buf, 10, 0);
    let mut offset = emit_question(buf, DNS_HEADER_LEN, name, DnsRecordType::A)?;
    for addr in addrs {
        check_len(buf, offset + 16)?;
        // Compressed owner name: pointer to the question name at offset 12.
        buf[offset] = 0xc0;
        buf[offset + 1] = DNS_HEADER_LEN as u8;
        set_u16(buf, offset + 2, DnsRecordType::A.into());
        set_u16(buf, offset + 4, 1); // class IN
        crate::set_u32(buf, offset + 6, ttl);
        set_u16(buf, offset + 10, 4);
        buf[offset + 12..offset + 16].copy_from_slice(&addr.octets());
        offset += 16;
    }
    Ok(offset)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_roundtrip() {
        let mut buf = [0u8; 512];
        let n = emit_query(&mut buf, 0xabcd, "mail.example.com", DnsRecordType::A).unwrap();
        let hdr = DnsHeader::parse(&buf[..n]).unwrap();
        assert_eq!(hdr.id, 0xabcd);
        assert!(!hdr.is_response);
        assert_eq!(hdr.opcode, DnsOpcode::Query);
        assert!(hdr.recursion_desired);
        assert_eq!(hdr.qdcount, 1);
        let (q, end) = DnsQuestion::parse(&buf[..n], DNS_HEADER_LEN).unwrap();
        assert_eq!(q.name, "mail.example.com");
        assert_eq!(q.qtype, DnsRecordType::A);
        assert_eq!(end, n);
    }

    #[test]
    fn root_name() {
        let mut buf = [0u8; 32];
        let n = emit_query(&mut buf, 1, "", DnsRecordType::Ns).unwrap();
        let (q, _) = DnsQuestion::parse(&buf[..n], DNS_HEADER_LEN).unwrap();
        assert_eq!(q.name, "");
    }

    #[test]
    fn compression_pointer_followed() {
        // Hand-built message: header, then "www.example.com" at 12, then a
        // second name at some later offset that is just a pointer to 12.
        let mut buf = vec![0u8; 64];
        DnsHeader::emit_query(&mut buf, 9).unwrap();
        let after = emit_name(&mut buf, DNS_HEADER_LEN, "www.example.com").unwrap();
        // pointer at `after`: 0xc0 | high bits, low byte = 12
        buf[after] = 0xc0;
        buf[after + 1] = DNS_HEADER_LEN as u8;
        let (name, end) = parse_name(&buf, after).unwrap();
        assert_eq!(name, "www.example.com");
        assert_eq!(end, after + 2);
    }

    #[test]
    fn pointer_loop_rejected() {
        let mut buf = vec![0u8; 32];
        DnsHeader::emit_query(&mut buf, 9).unwrap();
        // Self-pointing compression pointer.
        buf[12] = 0xc0;
        buf[13] = 12;
        assert!(matches!(parse_name(&buf, 12), Err(Error::Malformed)));
    }

    #[test]
    fn bad_labels_rejected() {
        let mut buf = [0u8; 600];
        let long_label = "a".repeat(64);
        assert!(matches!(
            emit_query(&mut buf, 1, &long_label, DnsRecordType::A),
            Err(Error::Malformed)
        ));
        assert!(matches!(
            emit_query(&mut buf, 1, "bad..name", DnsRecordType::A),
            Err(Error::Malformed)
        ));
    }

    #[test]
    fn reserved_length_bits_rejected() {
        let mut buf = vec![0u8; 32];
        buf[12] = 0x80; // reserved 10xxxxxx prefix
        assert!(matches!(parse_name(&buf, 12), Err(Error::Malformed)));
    }

    #[test]
    fn fold_name_is_ascii_only_and_idempotent() {
        assert_eq!(fold_name("FOO.Example"), "foo.example");
        assert_eq!(fold_name("already.lower"), "already.lower");
        // Non-ASCII bytes pass through untouched (RFC 4343 scope); the
        // ASCII letters around them still fold.
        assert_eq!(fold_name("ÅNGSTRÖM.example"), "ÅngstrÖm.example");
        let once = fold_name("MiXeD.CaSe.Example");
        assert_eq!(fold_name(&once), once);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The SWAR fold is byte-identical to the scalar oracle on
        /// arbitrary strings (not just valid names).
        #[test]
        fn fold_name_matches_oracle(s in "\\PC{0,64}") {
            proptest::prop_assert_eq!(fold_name(&s), fold_name_oracle(&s));
        }
    }

    #[test]
    fn record_type_roundtrip() {
        for raw in [1u16, 2, 5, 12, 15, 16, 28, 257] {
            assert_eq!(u16::from(DnsRecordType::from(raw)), raw);
        }
    }

    #[test]
    fn a_response_roundtrip() {
        use std::net::Ipv4Addr;
        let addrs = [Ipv4Addr::new(93, 184, 216, 34), Ipv4Addr::new(93, 184, 216, 35)];
        let mut buf = [0u8; 512];
        let n = emit_a_response(&mut buf, 0x1234, "www.example.com", &addrs, 300).unwrap();
        let (header, questions, answers) = parse_answers(&buf[..n]).unwrap();
        assert!(header.is_response);
        assert_eq!(header.id, 0x1234);
        assert_eq!(header.rcode, DnsRcode::NoError);
        assert_eq!(questions.len(), 1);
        assert_eq!(questions[0].name, "www.example.com");
        assert_eq!(answers.len(), 2);
        for (rec, addr) in answers.iter().zip(&addrs) {
            assert_eq!(rec.name, "www.example.com", "compression pointer resolves");
            assert_eq!(rec.rtype, DnsRecordType::A);
            assert_eq!(rec.ttl, 300);
            assert_eq!(rec.rdata, RData::A(*addr));
        }
    }

    #[test]
    fn empty_answer_is_nxdomain() {
        let mut buf = [0u8; 128];
        let n = emit_a_response(&mut buf, 7, "missing.example", &[], 60).unwrap();
        let (header, _, answers) = parse_answers(&buf[..n]).unwrap();
        assert_eq!(header.rcode, DnsRcode::NxDomain);
        assert!(answers.is_empty());
    }

    #[test]
    fn non_a_rdata_preserved_raw() {
        // Hand-build a TXT record after a query.
        let mut buf = [0u8; 256];
        let n = emit_a_response(&mut buf, 9, "t.example", &[std::net::Ipv4Addr::new(1, 2, 3, 4)], 60).unwrap();
        // Rewrite the answer's type to TXT(16); rdata is now "raw".
        // Answer starts right after the question section.
        let q_end = DNS_HEADER_LEN + encoded_name_len("t.example") + 4;
        set_u16(&mut buf, q_end + 2, 16);
        let (_, _, answers) = parse_answers(&buf[..n]).unwrap();
        assert_eq!(answers[0].rtype, DnsRecordType::Txt);
        assert_eq!(answers[0].rdata, RData::Other(vec![1, 2, 3, 4]));
    }

    #[test]
    fn truncated_record_rejected() {
        let mut buf = [0u8; 128];
        let n = emit_a_response(&mut buf, 9, "x.example", &[std::net::Ipv4Addr::LOCALHOST], 60).unwrap();
        assert!(parse_answers(&buf[..n - 2]).is_err());
    }
}
