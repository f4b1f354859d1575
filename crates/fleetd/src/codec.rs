//! Deterministic binary codec for the daemon's durable artifacts.
//!
//! Every byte fleetd persists or puts on the wire is built from the
//! primitives here: little-endian fixed-width integers, an IEEE CRC-32
//! (slice-by-8, held equal to the byte-at-a-time loop in [`oracle`] by a
//! differential test), and one frame grammar shared by all four framed
//! formats:
//!
//! ```text
//! magic (4B) | payload_len u32 LE | crc32(payload) u32 LE | payload
//! ```
//!
//! [`encode_frame`] is the only writer of that 12-byte header and
//! [`check_frame`] the only reader; each format supplies its own magic and
//! payload bound, and decides what an incomplete or damaged frame means
//! for it (see DESIGN.md §9). Everything here is hand-rolled — no
//! serializer dependency — because the framing must be byte-stable across
//! versions of anything but this file, and because recovery needs precise
//! control over how a torn or bit-rotted suffix decodes (it must fail
//! loudly at the frame layer, never panic in the middle of a field read).

use itconsole::Payload;
use serde::Serialize;

/// Which week of the train/test pair a batch belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Week {
    /// Training week (thresholds are fit on this data).
    Train,
    /// Test week (scored against the fitted thresholds).
    Test,
}

/// One host's contiguous run of per-window feature counts — the daemon's
/// unit of ingest, durability, acknowledgement and retry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct WindowBatch {
    /// Host that produced the windows.
    pub host: u32,
    /// Per-host monotone sequence number, starting at 1. The daemon
    /// applies a batch at most once: a batch whose `seq` is not greater
    /// than the host's high-water mark is acknowledged as a duplicate.
    pub seq: u64,
    /// Which week the windows belong to.
    pub week: Week,
    /// Index of the first window in `counts` within its week.
    pub start: u32,
    /// Per-window feature counts, consecutive from `start`.
    pub counts: Vec<u64>,
    /// Fault-injection marker: a poison batch panics the shard worker
    /// that applies it (standing in for the malformed input that killed a
    /// real agent). Set only by `faultsim`-driven tests and experiments.
    pub poison: bool,
}

impl Payload for WindowBatch {
    fn units(&self) -> u64 {
        self.counts.len() as u64
    }
}

/// Why a byte buffer failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer ended before the declared structure did.
    Truncated,
    /// A declared length is beyond the sanity bound.
    ImplausibleLength,
    /// An enum discriminant has no meaning.
    BadDiscriminant,
    /// Trailing bytes after a complete structure.
    TrailingBytes,
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer ends mid-structure"),
            CodecError::ImplausibleLength => write!(f, "declared length fails sanity bound"),
            CodecError::BadDiscriminant => write!(f, "unknown enum discriminant"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after structure"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Upper bound on the window count a single batch may declare. Real weeks
/// are 672 fifteen-minute windows; anything near `u32::MAX` is a forged
/// length, and rejecting it here keeps a corrupt-but-CRC-colliding record
/// from asking for a multi-GiB allocation.
pub const MAX_BATCH_WINDOWS: u32 = 1 << 20;

/// A little-endian cursor over an immutable byte buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an `f64` stored as its little-endian bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read `n` raw bytes (opaque nested payloads, e.g. sketch images).
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Fail unless every byte has been consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its little-endian bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

impl WindowBatch {
    /// Serialise into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.host);
        put_u64(out, self.seq);
        out.push(match self.week {
            Week::Train => 0,
            Week::Test => 1,
        });
        out.push(u8::from(self.poison));
        put_u32(out, self.start);
        put_u32(out, self.counts.len() as u32);
        for &c in &self.counts {
            put_u64(out, c);
        }
    }

    /// Deserialise from exactly `buf` (trailing bytes are an error).
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        let host = r.u32()?;
        let seq = r.u64()?;
        let week = match r.u8()? {
            0 => Week::Train,
            1 => Week::Test,
            _ => return Err(CodecError::BadDiscriminant),
        };
        let poison = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(CodecError::BadDiscriminant),
        };
        let start = r.u32()?;
        let n = r.u32()?;
        if n > MAX_BATCH_WINDOWS {
            return Err(CodecError::ImplausibleLength);
        }
        let mut counts = Vec::with_capacity(n as usize);
        for _ in 0..n {
            counts.push(r.u64()?);
        }
        r.finish()?;
        Ok(Self {
            host,
            seq,
            week,
            start,
            counts,
            poison,
        })
    }
}

/// Fixed bytes before every frame payload: magic, length, CRC.
pub const FRAME_HEADER_LEN: usize = 12;

/// Why a frame, or the record inside it, was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameDefect {
    /// Fewer than [`FRAME_HEADER_LEN`] bytes remained.
    ShortHeader,
    /// The magic was not the format's.
    BadMagic,
    /// The declared payload length exceeds the format's bound.
    ImplausibleLength,
    /// The payload extends past the end of the buffer.
    ShortPayload,
    /// CRC over the payload did not match the header.
    CrcMismatch,
    /// Bytes follow a frame that must fill its whole file.
    TrailingBytes,
    /// The payload passed CRC but failed structural decode (only possible
    /// with deliberate corruption that preserves the CRC).
    Undecodable(CodecError),
}

/// What [`check_frame`] found at the start of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameCheck<'a> {
    /// A whole frame whose CRC verifies.
    Complete {
        /// The verified payload.
        payload: &'a [u8],
        /// Header plus payload bytes: where the next frame starts.
        len: usize,
    },
    /// The buffer ends inside the frame, either in the header
    /// ([`FrameDefect::ShortHeader`]) or in a payload of plausible length
    /// ([`FrameDefect::ShortPayload`]).
    Incomplete(FrameDefect),
    /// The frame is damaged: bad magic, implausible length or bad CRC.
    Defect(FrameDefect),
}

/// Build one frame under `magic` whose payload is whatever `body` appends.
/// The payload is written in place behind a reserved header, so framing
/// never copies it.
pub fn encode_frame(magic: [u8; 4], body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut frame = Vec::new();
    frame.extend_from_slice(&magic);
    frame.extend_from_slice(&[0; FRAME_HEADER_LEN - 4]);
    body(&mut frame);
    let len = (frame.len() - FRAME_HEADER_LEN) as u32;
    let crc = crc32(&frame[FRAME_HEADER_LEN..]);
    frame[4..8].copy_from_slice(&len.to_le_bytes());
    frame[8..FRAME_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    frame
}

/// Check the frame at the start of `buf` against `magic` and a payload
/// bound of `max_payload` bytes. A length above the bound is a defect, never
/// an allocation or a wait; nothing here allocates.
pub fn check_frame(buf: &[u8], magic: [u8; 4], max_payload: u32) -> FrameCheck<'_> {
    let mut r = Reader::new(buf);
    let (Ok(found), Ok(len), Ok(crc)) = (r.bytes(4), r.u32(), r.u32()) else {
        return FrameCheck::Incomplete(FrameDefect::ShortHeader);
    };
    if found != magic {
        return FrameCheck::Defect(FrameDefect::BadMagic);
    }
    if len > max_payload {
        return FrameCheck::Defect(FrameDefect::ImplausibleLength);
    }
    let Ok(payload) = r.bytes(len as usize) else {
        return FrameCheck::Incomplete(FrameDefect::ShortPayload);
    };
    if crc32(payload) != crc {
        return FrameCheck::Defect(FrameDefect::CrcMismatch);
    }
    FrameCheck::Complete {
        payload,
        len: FRAME_HEADER_LEN + payload.len(),
    }
}

/// IEEE CRC-32 (the pcap/zip polynomial), slice-by-8: each step folds
/// eight input bytes through eight lookup tables, and the tail of fewer
/// than eight bytes goes a byte at a time. The tables are built at compile
/// time. [`oracle::crc32`] keeps the byte-at-a-time loop this replaced.
pub fn crc32(data: &[u8]) -> u32 {
    const T: [[u32; 256]; 8] = crc32_tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = T[7][(lo & 0xFF) as usize]
            ^ T[6][((lo >> 8) & 0xFF) as usize]
            ^ T[5][((lo >> 16) & 0xFF) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][usize::from(c[4])]
            ^ T[2][usize::from(c[5])]
            ^ T[1][usize::from(c[6])]
            ^ T[0][usize::from(c[7])];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ T[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// `T[0]` is the byte-at-a-time table; `T[k][i]` is the CRC state after
/// byte `i` is followed by `k` zero bytes, so one step can fold a byte
/// that sits `k` places before the end of an eight-byte block.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    t[0] = crc32_table();
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Reference implementations of the hot loops in this module, retained as
/// differential-test oracles. Nothing here runs on the hot path.
pub mod oracle {
    use super::crc32_table;

    /// Byte-at-a-time [`super::crc32`]: one table lookup per input byte.
    pub fn crc32(data: &[u8]) -> u32 {
        const TABLE: [u32; 256] = crc32_table();
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
            crc = (crc >> 8) ^ TABLE[idx];
        }
        !crc
    }
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WindowBatch {
        WindowBatch {
            host: 42,
            seq: 7,
            week: Week::Test,
            start: 96,
            counts: vec![0, 3, 1_000_000, u64::MAX],
            poison: false,
        }
    }

    #[test]
    fn batch_roundtrips() {
        let b = sample();
        let mut buf = Vec::new();
        b.encode(&mut buf);
        assert_eq!(WindowBatch::decode(&buf).unwrap(), b);
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let b = sample();
        let mut buf = Vec::new();
        b.encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(
                WindowBatch::decode(&buf[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Vec::new();
        sample().encode(&mut buf);
        buf.push(0);
        assert_eq!(WindowBatch::decode(&buf), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn forged_length_rejected_without_allocation() {
        let mut buf = Vec::new();
        WindowBatch {
            counts: vec![],
            ..sample()
        }
        .encode(&mut buf);
        // Forge the count field (last 4 bytes of the empty-counts layout).
        let len_off = buf.len() - 4;
        buf[len_off..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            WindowBatch::decode(&buf),
            Err(CodecError::ImplausibleLength)
        );
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    fn noise(n: usize) -> Vec<u8> {
        (0..n as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect()
    }

    #[test]
    fn crc32_matches_oracle_at_every_short_length_and_offset() {
        let buf = noise(80);
        for start in 0..8 {
            for end in start..buf.len() {
                let s = &buf[start..end];
                assert_eq!(crc32(s), oracle::crc32(s), "bytes {start}..{end}");
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Slice-by-8 equals the byte-at-a-time oracle on whole buffers of
        /// every length up to 4 KiB (so every remainder mod 8), and on
        /// sub-slices that start at an odd offset.
        #[test]
        fn crc32_matches_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..=4096),
            half_start in 0usize..32,
            cut in any::<usize>(),
        ) {
            prop_assert_eq!(crc32(&data), oracle::crc32(&data), "len {}", data.len());
            let start = 2 * half_start + 1;
            if start <= data.len() {
                let end = start + cut % (data.len() - start + 1);
                let s = &data[start..end];
                prop_assert_eq!(crc32(s), oracle::crc32(s), "bytes {}..{}", start, end);
            }
        }
    }

    #[test]
    fn frame_check_classifies_every_prefix_and_defect() {
        const MAGIC: [u8; 4] = *b"TST1";
        let frame = encode_frame(MAGIC, |out| out.extend_from_slice(b"payload"));
        assert_eq!(frame.len(), FRAME_HEADER_LEN + 7);
        let mut stream = frame.clone();
        stream.push(0xAA);
        assert_eq!(
            check_frame(&stream, MAGIC, 7),
            FrameCheck::Complete {
                payload: b"payload",
                len: frame.len()
            }
        );
        for cut in 0..frame.len() {
            let want = if cut < FRAME_HEADER_LEN {
                FrameDefect::ShortHeader
            } else {
                FrameDefect::ShortPayload
            };
            assert_eq!(
                check_frame(&frame[..cut], MAGIC, 7),
                FrameCheck::Incomplete(want)
            );
        }
        assert_eq!(
            check_frame(&frame, *b"TST2", 7),
            FrameCheck::Defect(FrameDefect::BadMagic)
        );
        assert_eq!(
            check_frame(&frame, MAGIC, 6),
            FrameCheck::Defect(FrameDefect::ImplausibleLength)
        );
        let mut bad = frame.clone();
        bad[FRAME_HEADER_LEN] ^= 1;
        assert_eq!(
            check_frame(&bad, MAGIC, 7),
            FrameCheck::Defect(FrameDefect::CrcMismatch)
        );
    }

    #[test]
    fn units_counts_windows() {
        use itconsole::Payload;
        assert_eq!(sample().units(), 4);
    }
}
