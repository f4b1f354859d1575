//! Classic libpcap capture-file reader and writer.
//!
//! Implements the original `.pcap` format (magic `0xa1b2c3d4`, microsecond
//! timestamps), the format produced by the `windump` wrapper used for the
//! paper's data collection. Both byte orders are accepted when reading;
//! files are written little-endian.
//!
//! Two readers are provided. [`PcapReader`] is strict: the first malformed
//! record aborts the stream, which is right for data you produced yourself.
//! [`LossyPcapReader`] is the ingest-path reader: real end-host captures are
//! messy (hosts power off mid-record, disks flip bits, laptops disconnect),
//! so it skips unparseable regions, resynchronises on the next plausible
//! record header, and accounts every lost byte in [`LossStats`] instead of
//! failing the host's whole week.

use std::io::{self, Read, Write};

/// Data-link types we emit/accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkType {
    /// Ethernet (DLT 1).
    Ethernet,
    /// Raw IP (DLT 101).
    RawIp,
    /// Anything else, value preserved.
    Other(u32),
}

impl From<u32> for LinkType {
    fn from(v: u32) -> Self {
        match v {
            1 => LinkType::Ethernet,
            101 => LinkType::RawIp,
            other => LinkType::Other(other),
        }
    }
}

impl From<LinkType> for u32 {
    fn from(l: LinkType) -> u32 {
        match l {
            LinkType::Ethernet => 1,
            LinkType::RawIp => 101,
            LinkType::Other(v) => v,
        }
    }
}

const MAGIC_LE: u32 = 0xa1b2c3d4;
const SNAPLEN_DEFAULT: u32 = 65535;

/// One captured packet: timestamp plus frame bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapPacket {
    /// Seconds since the Unix epoch.
    pub ts_sec: u32,
    /// Microseconds within the second.
    pub ts_usec: u32,
    /// Captured frame bytes (we always capture whole frames).
    pub data: Vec<u8>,
}

impl PcapPacket {
    /// Timestamp as fractional seconds.
    pub fn timestamp(&self) -> f64 {
        timestamp(self.ts_sec, self.ts_usec)
    }
}

/// One captured packet borrowed from the capture buffer: what
/// [`LossyPcapReader::next_record`] returns without copying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcapRecord<'a> {
    /// Seconds since the Unix epoch.
    pub ts_sec: u32,
    /// Microseconds within the second.
    pub ts_usec: u32,
    /// Captured frame bytes.
    pub data: &'a [u8],
}

impl PcapRecord<'_> {
    /// Timestamp as fractional seconds, as [`PcapPacket::timestamp`].
    pub fn timestamp(&self) -> f64 {
        timestamp(self.ts_sec, self.ts_usec)
    }
}

fn timestamp(ts_sec: u32, ts_usec: u32) -> f64 {
    f64::from(ts_sec) + f64::from(ts_usec) / 1e6
}

/// Streaming pcap writer over any [`Write`].
#[derive(Debug)]
pub struct PcapWriter<W: Write> {
    sink: W,
    packets_written: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Create a writer and emit the global header.
    pub fn new(mut sink: W, link_type: LinkType) -> io::Result<Self> {
        sink.write_all(&MAGIC_LE.to_le_bytes())?;
        sink.write_all(&2u16.to_le_bytes())?; // version major
        sink.write_all(&4u16.to_le_bytes())?; // version minor
        sink.write_all(&0i32.to_le_bytes())?; // thiszone
        sink.write_all(&0u32.to_le_bytes())?; // sigfigs
        sink.write_all(&SNAPLEN_DEFAULT.to_le_bytes())?;
        sink.write_all(&u32::from(link_type).to_le_bytes())?;
        Ok(Self {
            sink,
            packets_written: 0,
        })
    }

    /// Append one packet record.
    pub fn write_packet(&mut self, pkt: &PcapPacket) -> io::Result<()> {
        self.write_record(pkt.ts_sec, pkt.ts_usec, &pkt.data)
    }

    /// Append one packet record from borrowed frame bytes, so a caller
    /// holding the frame elsewhere need not copy it into a [`PcapPacket`].
    pub fn write_record(&mut self, ts_sec: u32, ts_usec: u32, data: &[u8]) -> io::Result<()> {
        let len = u32::try_from(data.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "packet too large"))?;
        let mut header = [0u8; 16];
        header[..4].copy_from_slice(&ts_sec.to_le_bytes());
        header[4..8].copy_from_slice(&ts_usec.to_le_bytes());
        header[8..12].copy_from_slice(&len.to_le_bytes()); // incl_len
        header[12..].copy_from_slice(&len.to_le_bytes()); // orig_len
        self.sink.write_all(&header)?;
        self.sink.write_all(data)?;
        self.packets_written += 1;
        Ok(())
    }

    /// Number of packets written so far.
    pub fn packets_written(&self) -> u64 {
        self.packets_written
    }

    /// Flush and return the underlying sink.
    pub fn finish(mut self) -> io::Result<W> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Streaming pcap reader over any [`Read`].
#[derive(Debug)]
pub struct PcapReader<R: Read> {
    source: R,
    swapped: bool,
    link_type: LinkType,
    snaplen: u32,
}

impl<R: Read> PcapReader<R> {
    /// Open a capture, parsing and validating the global header.
    pub fn new(mut source: R) -> io::Result<Self> {
        let mut hdr = [0u8; 24];
        source.read_exact(&mut hdr)?;
        let magic = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
        let swapped = match magic {
            MAGIC_LE => false,
            m if m == MAGIC_LE.swap_bytes() => true,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "not a pcap file (bad magic)",
                ))
            }
        };
        let u32_at = |b: &[u8], o: usize| {
            let raw = [b[o], b[o + 1], b[o + 2], b[o + 3]];
            if swapped {
                u32::from_be_bytes(raw)
            } else {
                u32::from_le_bytes(raw)
            }
        };
        let snaplen = u32_at(&hdr, 16);
        let link_type = LinkType::from(u32_at(&hdr, 20));
        Ok(Self {
            source,
            swapped,
            link_type,
            snaplen,
        })
    }

    /// The capture's data-link type.
    pub fn link_type(&self) -> LinkType {
        self.link_type
    }

    /// The capture's snapshot length.
    pub fn snaplen(&self) -> u32 {
        self.snaplen
    }

    /// Read the next packet; `Ok(None)` at clean end-of-file.
    pub fn next_packet(&mut self) -> io::Result<Option<PcapPacket>> {
        let mut rec = [0u8; 16];
        match self.source.read_exact(&mut rec) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        let u32_at = |b: &[u8], o: usize| {
            let raw = [b[o], b[o + 1], b[o + 2], b[o + 3]];
            if self.swapped {
                u32::from_be_bytes(raw)
            } else {
                u32::from_le_bytes(raw)
            }
        };
        let ts_sec = u32_at(&rec, 0);
        let ts_usec = u32_at(&rec, 4);
        let incl_len = u32_at(&rec, 8) as usize;
        if incl_len > 0x0400_0000 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "pcap record length implausibly large",
            ));
        }
        let mut data = vec![0u8; incl_len];
        self.source.read_exact(&mut data)?;
        Ok(Some(PcapPacket {
            ts_sec,
            ts_usec,
            data,
        }))
    }
}

impl<R: Read> Iterator for PcapReader<R> {
    type Item = io::Result<PcapPacket>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_packet().transpose()
    }
}

/// Why a region of a capture could not be decoded (the pcap-layer fault
/// taxonomy; see also [`crate::DecodeError`] for packet layers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcapError {
    /// No pcap magic found (neither byte order), even after scanning.
    BadMagic,
    /// The 24-byte global header is incomplete.
    TruncatedHeader {
        /// Bytes actually present.
        got: usize,
    },
    /// A record header's `incl_len` is implausibly large.
    ImplausibleLength {
        /// The claimed record length.
        claimed: u32,
    },
    /// A record body extends past the end of the capture.
    TruncatedRecord {
        /// Bytes the record claimed.
        needed: usize,
        /// Bytes remaining in the capture.
        got: usize,
    },
}

impl core::fmt::Display for PcapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PcapError::BadMagic => write!(f, "not a pcap capture (no magic found)"),
            PcapError::TruncatedHeader { got } => {
                write!(f, "pcap global header truncated: 24 bytes needed, {got} present")
            }
            PcapError::ImplausibleLength { claimed } => {
                write!(f, "pcap record length implausible: {claimed} bytes claimed")
            }
            PcapError::TruncatedRecord { needed, got } => {
                write!(f, "pcap record truncated: {needed} bytes claimed, {got} remain")
            }
        }
    }
}

impl std::error::Error for PcapError {}

/// Loss accounting for a lossy read of one capture.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LossStats {
    /// Records decoded successfully.
    pub records_ok: u64,
    /// Bad records skipped (counted once per resynchronisation).
    pub records_skipped: u64,
    /// Bytes discarded while scanning for the next plausible record.
    pub bytes_skipped: u64,
    /// Bytes discarded before the global header was located.
    pub preamble_skipped: u64,
    /// The capture ended mid-record (host powered off / disconnected).
    pub truncated_tail: bool,
}

impl LossStats {
    /// True when the capture decoded without any loss.
    pub fn is_clean(&self) -> bool {
        self.records_skipped == 0
            && self.bytes_skipped == 0
            && self.preamble_skipped == 0
            && !self.truncated_tail
    }
}

/// How far the lossy reader scans for the global-header magic before giving
/// up on the capture entirely.
const MAGIC_SCAN_LIMIT: usize = 4096;

/// Hard upper bound on a record's `incl_len` (64 MiB, same as the strict
/// reader): anything larger is a corrupted length field, not a packet.
const MAX_RECORD_LEN: u32 = 0x0400_0000;

/// Loss-tolerant pcap reader over an in-memory capture.
///
/// Operates on a byte slice (end-host captures are post-processed whole, as
/// in the paper's windump → Bro pipeline) so resynchronisation can look
/// ahead without consuming input. On a malformed record it scans forward
/// one byte at a time for the next *plausible* record header — sane length,
/// sub-second microseconds field, body that fits the remaining capture —
/// and resumes there, accumulating [`LossStats`].
///
/// Determinism: the output (records + stats) is a pure function of the
/// input bytes, which the fault-injection harness relies on.
#[derive(Debug)]
pub struct LossyPcapReader<'a> {
    buf: &'a [u8],
    pos: usize,
    swapped: bool,
    link_type: LinkType,
    snaplen: u32,
    stats: LossStats,
    /// Timestamp of the last good record: anchors the plausibility check so
    /// resynchronisation cannot lock onto garbage that merely looks framed.
    last_ts: Option<u32>,
}

/// Resync candidates must sit within this many seconds of the last good
/// record's timestamp (captures span weeks; corrupted fields are uniform
/// over the full u32 range, so a ±1-year window rejects almost all fakes).
const RESYNC_TS_SLACK: i64 = 31_536_000;

impl<'a> LossyPcapReader<'a> {
    /// Open a capture, scanning past any corrupted preamble for the magic.
    ///
    /// Fails only when no pcap magic (either byte order) exists in the
    /// first [`MAGIC_SCAN_LIMIT`] bytes — with no header there is no byte
    /// order or link type, so nothing can be salvaged.
    pub fn new(buf: &'a [u8]) -> Result<Self, PcapError> {
        let scan_end = buf.len().min(MAGIC_SCAN_LIMIT);
        let mut start = None;
        for off in 0..scan_end {
            if buf.len() - off < 4 {
                break;
            }
            let magic = u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]]);
            if magic == MAGIC_LE || magic == MAGIC_LE.swap_bytes() {
                start = Some((off, magic != MAGIC_LE));
                break;
            }
        }
        let Some((off, swapped)) = start else {
            return Err(PcapError::BadMagic);
        };
        if buf.len() - off < 24 {
            return Err(PcapError::TruncatedHeader {
                got: buf.len() - off,
            });
        }
        let hdr = &buf[off..off + 24];
        let u32_at = |b: &[u8], o: usize| {
            let raw = [b[o], b[o + 1], b[o + 2], b[o + 3]];
            if swapped {
                u32::from_be_bytes(raw)
            } else {
                u32::from_le_bytes(raw)
            }
        };
        Ok(Self {
            buf,
            pos: off + 24,
            swapped,
            link_type: LinkType::from(u32_at(hdr, 20)),
            snaplen: u32_at(hdr, 16),
            stats: LossStats {
                preamble_skipped: off as u64,
                ..LossStats::default()
            },
            last_ts: None,
        })
    }

    /// The capture's data-link type.
    pub fn link_type(&self) -> LinkType {
        self.link_type
    }

    /// The capture's snapshot length.
    pub fn snaplen(&self) -> u32 {
        self.snaplen
    }

    /// Loss counters accumulated so far.
    pub fn stats(&self) -> LossStats {
        self.stats
    }

    fn u32_at(&self, o: usize) -> u32 {
        let raw = [self.buf[o], self.buf[o + 1], self.buf[o + 2], self.buf[o + 3]];
        if self.swapped {
            u32::from_be_bytes(raw)
        } else {
            u32::from_le_bytes(raw)
        }
    }

    /// Is there a plausible record header at `o`? Used both for normal
    /// reads and to validate resynchronisation candidates: sane length,
    /// sub-second microseconds, body inside the capture, nonzero payload
    /// (zero-length "records" are how corrupted zero-fill masquerades as
    /// framing), and — once anchored — a timestamp near the last good one.
    fn plausible_at(&self, o: usize) -> bool {
        if self.buf.len() - o < 16 {
            return false;
        }
        let ts_sec = self.u32_at(o);
        let ts_usec = self.u32_at(o + 4);
        let incl_len = self.u32_at(o + 8);
        let ts_ok = match self.last_ts {
            Some(anchor) => (i64::from(ts_sec) - i64::from(anchor)).abs() <= RESYNC_TS_SLACK,
            None => true,
        };
        ts_ok
            && ts_usec < 1_000_000
            && incl_len > 0
            && incl_len <= MAX_RECORD_LEN
            && (incl_len as usize) <= self.buf.len() - o - 16
    }

    /// Scan forward from `from` for the next plausible record header.
    fn resync(&mut self, from: usize) -> Option<usize> {
        let mut o = from;
        while self.buf.len() - o >= 16 {
            if self.plausible_at(o) {
                return Some(o);
            }
            o += 1;
        }
        None
    }

    /// Next decodable packet; `None` at end of capture (clean or not —
    /// check [`LossyPcapReader::stats`] afterwards). The owned form of
    /// [`LossyPcapReader::next_record`].
    pub fn next_packet(&mut self) -> Option<PcapPacket> {
        self.next_record().map(|r| PcapPacket {
            ts_sec: r.ts_sec,
            ts_usec: r.ts_usec,
            data: r.data.to_vec(),
        })
    }

    /// Next decodable record, borrowed from the capture buffer; `None` at
    /// end of capture.
    pub fn next_record(&mut self) -> Option<PcapRecord<'a>> {
        loop {
            let remaining = self.buf.len() - self.pos;
            if remaining == 0 {
                return None;
            }
            if remaining < 16 {
                // Partial record header at EOF: the capture was cut short.
                self.stats.truncated_tail = true;
                self.stats.bytes_skipped += remaining as u64;
                self.pos = self.buf.len();
                return None;
            }
            if self.plausible_at(self.pos) {
                let ts_sec = self.u32_at(self.pos);
                let ts_usec = self.u32_at(self.pos + 4);
                let incl_len = self.u32_at(self.pos + 8) as usize;
                let body = self.pos + 16;
                let data = &self.buf[body..body + incl_len];
                self.pos = body + incl_len;
                self.stats.records_ok += 1;
                self.last_ts = Some(ts_sec);
                return Some(PcapRecord {
                    ts_sec,
                    ts_usec,
                    data,
                });
            }
            // Bad record header: skip it and hunt for the next plausible
            // one. Everything between counts as lost bytes.
            self.stats.records_skipped += 1;
            match self.resync(self.pos + 1) {
                Some(next) => {
                    self.stats.bytes_skipped += (next - self.pos) as u64;
                    self.pos = next;
                }
                None => {
                    // Nothing decodable remains; the claimed record ran off
                    // the end of the capture (or pure garbage follows).
                    self.stats.truncated_tail = true;
                    self.stats.bytes_skipped += remaining as u64;
                    self.pos = self.buf.len();
                    return None;
                }
            }
        }
    }

    /// Drain the capture, returning every decodable packet plus the final
    /// loss accounting.
    pub fn read_all(mut self) -> (Vec<PcapPacket>, LossStats) {
        let mut out = Vec::new();
        while let Some(p) = self.next_packet() {
            out.push(p);
        }
        (out, self.stats)
    }
}

impl Iterator for LossyPcapReader<'_> {
    type Item = PcapPacket;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_packet()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packets() -> Vec<PcapPacket> {
        (0u32..5)
            .map(|i| PcapPacket {
                ts_sec: 1_170_000_000 + i,
                ts_usec: i * 1000,
                data: vec![i as u8; 14 + i as usize],
            })
            .collect()
    }

    #[test]
    fn write_read_roundtrip() {
        let packets = sample_packets();
        let mut w = PcapWriter::new(Vec::new(), LinkType::Ethernet).unwrap();
        for p in &packets {
            w.write_packet(p).unwrap();
        }
        assert_eq!(w.packets_written(), 5);
        let bytes = w.finish().unwrap();

        let mut r = PcapReader::new(&bytes[..]).unwrap();
        assert_eq!(r.link_type(), LinkType::Ethernet);
        assert_eq!(r.snaplen(), 65535);
        let read: Vec<PcapPacket> = (&mut r).map(|p| p.unwrap()).collect();
        assert_eq!(read, packets);
    }

    #[test]
    fn write_record_matches_write_packet() {
        let packets = sample_packets();
        let mut owned = PcapWriter::new(Vec::new(), LinkType::Ethernet).unwrap();
        let mut borrowed = PcapWriter::new(Vec::new(), LinkType::Ethernet).unwrap();
        for p in &packets {
            owned.write_packet(p).unwrap();
            borrowed.write_record(p.ts_sec, p.ts_usec, &p.data).unwrap();
        }
        assert_eq!(borrowed.packets_written(), owned.packets_written());
        assert_eq!(borrowed.finish().unwrap(), owned.finish().unwrap());
    }

    #[test]
    fn big_endian_capture_accepted() {
        // Hand-build a big-endian header + one record.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_LE.to_be_bytes());
        bytes.extend_from_slice(&2u16.to_be_bytes());
        bytes.extend_from_slice(&4u16.to_be_bytes());
        bytes.extend_from_slice(&0i32.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.extend_from_slice(&1500u32.to_be_bytes());
        bytes.extend_from_slice(&101u32.to_be_bytes());
        bytes.extend_from_slice(&7u32.to_be_bytes()); // ts_sec
        bytes.extend_from_slice(&8u32.to_be_bytes()); // ts_usec
        bytes.extend_from_slice(&3u32.to_be_bytes()); // incl_len
        bytes.extend_from_slice(&3u32.to_be_bytes()); // orig_len
        bytes.extend_from_slice(&[0xaa, 0xbb, 0xcc]);

        let mut r = PcapReader::new(&bytes[..]).unwrap();
        assert_eq!(r.link_type(), LinkType::RawIp);
        assert_eq!(r.snaplen(), 1500);
        let p = r.next_packet().unwrap().unwrap();
        assert_eq!(p.ts_sec, 7);
        assert_eq!(p.ts_usec, 8);
        assert_eq!(p.data, vec![0xaa, 0xbb, 0xcc]);
        assert!(r.next_packet().unwrap().is_none());
    }

    #[test]
    fn bad_magic_rejected() {
        let bytes = [0u8; 24];
        assert!(PcapReader::new(&bytes[..]).is_err());
    }

    #[test]
    fn truncated_record_errors() {
        let mut w = PcapWriter::new(Vec::new(), LinkType::Ethernet).unwrap();
        w.write_packet(&PcapPacket {
            ts_sec: 0,
            ts_usec: 0,
            data: vec![1, 2, 3, 4],
        })
        .unwrap();
        let mut bytes = w.finish().unwrap();
        bytes.truncate(bytes.len() - 2); // cut the packet body short
        let mut r = PcapReader::new(&bytes[..]).unwrap();
        assert!(r.next_packet().is_err());
    }

    #[test]
    fn implausible_length_rejected() {
        let w = PcapWriter::new(Vec::new(), LinkType::Ethernet).unwrap();
        let mut bytes = w.finish().unwrap();
        // Record header claiming a 1 GiB packet.
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0x4000_0000u32.to_le_bytes());
        bytes.extend_from_slice(&0x4000_0000u32.to_le_bytes());
        let mut r = PcapReader::new(&bytes[..]).unwrap();
        assert!(r.next_packet().is_err());
    }

    fn sample_capture() -> (Vec<PcapPacket>, Vec<u8>) {
        let packets = sample_packets();
        let mut w = PcapWriter::new(Vec::new(), LinkType::Ethernet).unwrap();
        for p in &packets {
            w.write_packet(p).unwrap();
        }
        (packets, w.finish().unwrap())
    }

    #[test]
    fn lossy_reader_matches_strict_on_clean_capture() {
        let (packets, bytes) = sample_capture();
        let r = LossyPcapReader::new(&bytes[..]).unwrap();
        assert_eq!(r.link_type(), LinkType::Ethernet);
        assert_eq!(r.snaplen(), 65535);
        let (read, stats) = r.read_all();
        assert_eq!(read, packets);
        assert!(stats.is_clean(), "{stats:?}");
        assert_eq!(stats.records_ok, 5);
    }

    #[test]
    fn lossy_reader_skips_corrupt_length_and_resyncs() {
        let (packets, mut bytes) = sample_capture();
        // Corrupt the first record's incl_len field (offset 24 + 8).
        bytes[32..36].copy_from_slice(&0xffff_ffffu32.to_le_bytes());
        let (read, stats) = LossyPcapReader::new(&bytes[..]).unwrap().read_all();
        // The first record is lost; the rest are recovered.
        assert_eq!(read, packets[1..].to_vec());
        assert_eq!(stats.records_ok, 4);
        assert!(stats.records_skipped >= 1);
        assert!(stats.bytes_skipped > 0);
    }

    #[test]
    fn borrowed_records_equal_owned_packets() {
        let (_, mut bytes) = sample_capture();
        bytes[32..36].copy_from_slice(&0xffff_ffffu32.to_le_bytes());
        bytes.truncate(bytes.len() - 3);
        let (owned, owned_stats) = LossyPcapReader::new(&bytes[..]).unwrap().read_all();
        let mut reader = LossyPcapReader::new(&bytes[..]).unwrap();
        let mut borrowed = Vec::new();
        while let Some(r) = reader.next_record() {
            assert_eq!(r.timestamp().to_bits(), owned[borrowed.len()].timestamp().to_bits());
            borrowed.push(PcapPacket {
                ts_sec: r.ts_sec,
                ts_usec: r.ts_usec,
                data: r.data.to_vec(),
            });
        }
        assert_eq!(borrowed, owned);
        assert_eq!(reader.stats(), owned_stats);
        assert_eq!(owned.len(), 3);
    }

    #[test]
    fn lossy_reader_counts_truncated_tail() {
        let (packets, mut bytes) = sample_capture();
        bytes.truncate(bytes.len() - 3); // cut the last body short
        let (read, stats) = LossyPcapReader::new(&bytes[..]).unwrap().read_all();
        assert_eq!(read, packets[..4].to_vec());
        assert!(stats.truncated_tail);
        assert_eq!(stats.records_ok, 4);
    }

    #[test]
    fn lossy_reader_scans_past_corrupt_preamble() {
        let (packets, bytes) = sample_capture();
        let mut noisy = vec![0x5a; 7];
        noisy.extend_from_slice(&bytes);
        let (read, stats) = LossyPcapReader::new(&noisy[..]).unwrap().read_all();
        assert_eq!(read, packets);
        assert_eq!(stats.preamble_skipped, 7);
    }

    #[test]
    fn lossy_reader_rejects_pure_garbage() {
        let garbage = vec![0x11u8; 256];
        assert_eq!(
            LossyPcapReader::new(&garbage[..]).unwrap_err(),
            PcapError::BadMagic
        );
        assert!(matches!(
            LossyPcapReader::new(&MAGIC_LE.to_le_bytes()[..]).unwrap_err(),
            PcapError::TruncatedHeader { got: 4 }
        ));
    }

    #[test]
    fn lossy_reader_big_endian() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_LE.to_be_bytes());
        bytes.extend_from_slice(&2u16.to_be_bytes());
        bytes.extend_from_slice(&4u16.to_be_bytes());
        bytes.extend_from_slice(&0i32.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.extend_from_slice(&1500u32.to_be_bytes());
        bytes.extend_from_slice(&101u32.to_be_bytes());
        bytes.extend_from_slice(&7u32.to_be_bytes());
        bytes.extend_from_slice(&8u32.to_be_bytes());
        bytes.extend_from_slice(&3u32.to_be_bytes());
        bytes.extend_from_slice(&3u32.to_be_bytes());
        bytes.extend_from_slice(&[0xaa, 0xbb, 0xcc]);
        let (read, stats) = LossyPcapReader::new(&bytes[..]).unwrap().read_all();
        assert_eq!(read.len(), 1);
        assert_eq!(read[0].data, vec![0xaa, 0xbb, 0xcc]);
        assert!(stats.is_clean());
    }

    #[test]
    fn timestamp_fractional() {
        let p = PcapPacket {
            ts_sec: 10,
            ts_usec: 500_000,
            data: vec![],
        };
        assert!((p.timestamp() - 10.5).abs() < 1e-9);
    }
}
