//! Cluster wire protocol: length-prefixed, CRC-framed messages between
//! the coordinator and worker nodes, with a resynchronizing streaming
//! decoder hardened against adversarial length prefixes.
//!
//! Messages are frames of [`crate::codec`]'s grammar — the WAL's — under
//! a distinct magic, `CLW1`, so a wire capture can never be mistaken for a
//! journal file. The payload is one tag byte (0 = batch, 1 = ack,
//! 2 = heartbeat) followed by the message body. Unlike the WAL — where
//! the first defect ends replay, because everything behind it is a torn
//! tail from a single writer — the wire is a *stream under active
//! corruption*: a flipped byte must cost one frame, not the connection. [`WireDecoder`] therefore
//! resynchronizes: on any framing defect it skips forward to the next
//! candidate magic and keeps decoding, counting every skipped byte.
//!
//! Hardening against adversarial length prefixes: the decoder never
//! allocates from a declared length. A length field larger than
//! [`MAX_WIRE_PAYLOAD`] is a framing defect (resync), and a plausible
//! length merely *waits* for that many bytes to actually arrive — memory
//! is bounded by bytes genuinely received, never by what a forged header
//! promises. The structural decoders below inherit the same rule (a
//! batch's window count is checked against `MAX_BATCH_WINDOWS` before any
//! allocation).

use crate::codec::{
    check_frame, encode_frame, put_u32, put_u64, CodecError, FrameCheck, FrameDefect, Reader,
    WindowBatch,
};
use crate::daemon::Disposition;

/// Wire frame magic: "CLW1" (CLuster Wire v1).
pub const WIRE_MAGIC: [u8; 4] = *b"CLW1";
/// Sanity bound on a wire payload (1 MiB). Cluster messages are small (a
/// batch is at most a week of windows); a larger declared length means the length
/// field itself is damaged or hostile, and is treated as a framing defect
/// rather than an allocation request.
pub const MAX_WIRE_PAYLOAD: u32 = 1 << 20;

/// One coordinator↔node message.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterMsg {
    /// Coordinator → node: apply this batch. `epoch` is the assignment
    /// epoch under which the destination owned the batch's host when the
    /// frame was sent; the node echoes it in the ack so the coordinator
    /// can fence acks that raced a handoff.
    Batch {
        /// Destination node id.
        node: u32,
        /// Assignment epoch of the batch's host at send time.
        epoch: u32,
        /// The window batch itself.
        batch: WindowBatch,
    },
    /// Node → coordinator: a batch resolved with this disposition.
    Ack {
        /// Source node id.
        node: u32,
        /// Assignment epoch echoed from the triggering [`ClusterMsg::Batch`].
        epoch: u32,
        /// Host the batch belonged to.
        host: u32,
        /// The batch's sequence number.
        seq: u64,
        /// Terminal disposition (see [`Disposition`]).
        disposition: Disposition,
    },
    /// Node → coordinator: liveness beacon.
    Heartbeat {
        /// Source node id.
        node: u32,
        /// Node-local tick counter at send time (monotone per lifetime;
        /// operational telemetry, not part of any determinism contract).
        ticks: u64,
    },
}

fn disposition_code(d: Disposition) -> u8 {
    match d {
        Disposition::Applied => 0,
        Disposition::Duplicate => 1,
        Disposition::Quarantined => 2,
        Disposition::ShedOverload => 3,
        Disposition::ShedDark => 4,
        Disposition::Rejected => 5,
    }
}

fn disposition_from_code(code: u8) -> Result<Disposition, CodecError> {
    Ok(match code {
        0 => Disposition::Applied,
        1 => Disposition::Duplicate,
        2 => Disposition::Quarantined,
        3 => Disposition::ShedOverload,
        4 => Disposition::ShedDark,
        5 => Disposition::Rejected,
        _ => return Err(CodecError::BadDiscriminant),
    })
}

impl ClusterMsg {
    /// Serialise into `out`: tag byte + message body.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ClusterMsg::Batch { node, epoch, batch } => {
                out.push(0);
                put_u32(out, *node);
                put_u32(out, *epoch);
                batch.encode(out);
            }
            ClusterMsg::Ack {
                node,
                epoch,
                host,
                seq,
                disposition,
            } => {
                out.push(1);
                put_u32(out, *node);
                put_u32(out, *epoch);
                put_u32(out, *host);
                put_u64(out, *seq);
                out.push(disposition_code(*disposition));
            }
            ClusterMsg::Heartbeat { node, ticks } => {
                out.push(2);
                put_u32(out, *node);
                put_u64(out, *ticks);
            }
        }
    }

    /// Deserialise from exactly `buf`.
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        match r.u8()? {
            0 => {
                let node = r.u32()?;
                let epoch = r.u32()?;
                let batch = WindowBatch::decode(r.bytes(r.remaining())?)?;
                Ok(ClusterMsg::Batch { node, epoch, batch })
            }
            1 => {
                let node = r.u32()?;
                let epoch = r.u32()?;
                let host = r.u32()?;
                let seq = r.u64()?;
                let disposition = disposition_from_code(r.u8()?)?;
                r.finish()?;
                Ok(ClusterMsg::Ack {
                    node,
                    epoch,
                    host,
                    seq,
                    disposition,
                })
            }
            2 => {
                let node = r.u32()?;
                let ticks = r.u64()?;
                r.finish()?;
                Ok(ClusterMsg::Heartbeat { node, ticks })
            }
            _ => Err(CodecError::BadDiscriminant),
        }
    }
}

/// Build the on-wire frame for one message.
pub fn frame_msg(msg: &ClusterMsg) -> Vec<u8> {
    encode_frame(WIRE_MAGIC, |out| msg.encode(out))
}

/// Decoder counters (operational telemetry; exported under
/// `fleetd_cluster_wire_*`, outside the determinism contract).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Frames decoded into messages.
    pub frames_decoded: u64,
    /// Resynchronization events (one per framing/structural defect).
    pub resyncs: u64,
    /// Bytes skipped while hunting for the next magic.
    pub skipped_bytes: u64,
}

/// Streaming frame decoder with resync-on-defect.
///
/// Feed arbitrary byte chunks with [`WireDecoder::push`] and drain
/// messages with [`WireDecoder::next`]. Corrupt frames (bad magic,
/// implausible length, CRC mismatch, undecodable payload) cost exactly
/// the bytes up to the next candidate magic. Memory is bounded by
/// unconsumed received bytes: the consumed prefix is compacted on every
/// push, and no allocation is ever sized from a declared length field.
#[derive(Debug, Default)]
pub struct WireDecoder {
    buf: Vec<u8>,
    pos: usize,
    stats: WireStats,
    stall_age: u64,
}

impl WireDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append received bytes, compacting the already-consumed prefix so
    /// the buffer never retains decoded frames.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Decode the next complete, valid message, resynchronizing past any
    /// defects. Returns `None` when the buffer holds no complete frame
    /// (more bytes must arrive).
    pub fn next(&mut self) -> Option<ClusterMsg> {
        loop {
            match check_frame(&self.buf[self.pos..], WIRE_MAGIC, MAX_WIRE_PAYLOAD) {
                // Short header, or a plausible length whose payload is not
                // fully here yet: wait for real bytes instead of trusting
                // the prefix. If the length was a lie, later traffic
                // completes the span and the CRC check rejects it.
                FrameCheck::Incomplete(_) => return None,
                // Bad magic, a forged length (a defect, not an allocation
                // request) or a bad CRC.
                FrameCheck::Defect(_) => self.resync(),
                FrameCheck::Complete { payload, len } => match ClusterMsg::decode(payload) {
                    Ok(msg) => {
                        self.pos += len;
                        self.stats.frames_decoded += 1;
                        return Some(msg);
                    }
                    Err(_) => self.resync(),
                },
            }
        }
    }

    /// Skip one byte, then scan to the next candidate magic (or to within
    /// a partial magic of the buffer end, where more bytes must arrive).
    fn resync(&mut self) {
        self.stats.resyncs += 1;
        let start = self.pos;
        self.pos += 1;
        while self.buf.len() - self.pos >= 4 {
            if self.buf[self.pos..self.pos + 4] == WIRE_MAGIC {
                break;
            }
            self.pos += 1;
        }
        self.stats.skipped_bytes += (self.pos - start) as u64;
    }

    /// True when decode is blocked mid-frame: a plausible header at the
    /// read position declares more payload than has arrived, so
    /// [`WireDecoder::next`] returns `None` while real frames behind the
    /// hungry header sit swallowed as its phantom payload.
    pub fn starved(&self) -> bool {
        matches!(
            check_frame(&self.buf[self.pos..], WIRE_MAGIC, MAX_WIRE_PAYLOAD),
            FrameCheck::Incomplete(FrameDefect::ShortPayload)
        )
    }

    /// Tick the starvation clock; call once per transport tick after
    /// draining [`WireDecoder::next`]. A frame that stays incomplete for
    /// more than `max_age` consecutive ticks is declared corrupt: its
    /// header is resynced past, releasing anything it had swallowed
    /// (drain `next` again when this returns `true`).
    ///
    /// Without this, one bit-flip in a length field head-of-line-blocks
    /// the whole stream for as long as the declared payload takes to
    /// "arrive" — on a trickle link that is thousands of ticks of
    /// heartbeat starvation, enough to declare every healthy sender dead.
    /// On a transport that delivers frames atomically, any cross-tick
    /// starvation is already proof of corruption.
    pub fn expire_stalled(&mut self, max_age: u64) -> bool {
        if !self.starved() {
            self.stall_age = 0;
            return false;
        }
        self.stall_age += 1;
        if self.stall_age <= max_age {
            return false;
        }
        self.stall_age = 0;
        self.resync();
        true
    }

    /// Unconsumed bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decoder counters so far.
    pub fn stats(&self) -> WireStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Week, FRAME_HEADER_LEN};

    fn msg_batch(host: u32, seq: u64) -> ClusterMsg {
        ClusterMsg::Batch {
            node: 2,
            epoch: 7,
            batch: WindowBatch {
                host,
                seq,
                week: Week::Train,
                start: 4,
                counts: vec![1, 2, 3],
                poison: false,
            },
        }
    }

    #[test]
    fn every_message_kind_roundtrips() {
        let msgs = [
            msg_batch(9, 3),
            ClusterMsg::Ack {
                node: 1,
                epoch: 5,
                host: 9,
                seq: 3,
                disposition: Disposition::Applied,
            },
            ClusterMsg::Heartbeat { node: 3, ticks: 41 },
        ];
        let mut dec = WireDecoder::new();
        for m in &msgs {
            dec.push(&frame_msg(m));
        }
        for m in &msgs {
            assert_eq!(dec.next().as_ref(), Some(m));
        }
        assert_eq!(dec.next(), None);
        assert_eq!(dec.stats().resyncs, 0);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn all_dispositions_roundtrip() {
        for d in [
            Disposition::Applied,
            Disposition::Duplicate,
            Disposition::Quarantined,
            Disposition::ShedOverload,
            Disposition::ShedDark,
            Disposition::Rejected,
        ] {
            let m = ClusterMsg::Ack {
                node: 0,
                epoch: 0,
                host: 1,
                seq: 1,
                disposition: d,
            };
            let mut payload = Vec::new();
            m.encode(&mut payload);
            assert_eq!(ClusterMsg::decode(&payload).unwrap(), m);
        }
        assert!(disposition_from_code(6).is_err());
    }

    #[test]
    fn corrupt_frame_costs_one_frame_not_the_stream() {
        let a = frame_msg(&msg_batch(1, 1));
        let mut b = frame_msg(&msg_batch(2, 1));
        let c = frame_msg(&msg_batch(3, 1));
        b[FRAME_HEADER_LEN + 2] ^= 0xFF; // corrupt payload of the middle frame
        let mut dec = WireDecoder::new();
        dec.push(&a);
        dec.push(&b);
        dec.push(&c);
        assert_eq!(dec.next(), Some(msg_batch(1, 1)));
        assert_eq!(dec.next(), Some(msg_batch(3, 1)), "decoder must resync past frame b");
        assert_eq!(dec.next(), None);
        assert!(dec.stats().resyncs >= 1);
        assert!(dec.stats().skipped_bytes as usize >= b.len() - 4);
    }

    #[test]
    fn forged_huge_length_does_not_allocate_or_stall() {
        // Header declares u32::MAX payload bytes; decoder must treat it
        // as a defect and resync to the real frame behind it.
        let mut evil = Vec::new();
        evil.extend_from_slice(&WIRE_MAGIC);
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        evil.extend_from_slice(&0u32.to_le_bytes());
        let good = frame_msg(&ClusterMsg::Heartbeat { node: 0, ticks: 1 });
        let mut dec = WireDecoder::new();
        dec.push(&evil);
        dec.push(&good);
        assert_eq!(dec.next(), Some(ClusterMsg::Heartbeat { node: 0, ticks: 1 }));
        assert!(dec.buffered() < FRAME_HEADER_LEN);
    }

    #[test]
    fn plausible_length_waits_for_real_bytes() {
        let frame = frame_msg(&msg_batch(5, 2));
        let mut dec = WireDecoder::new();
        // Feed the frame one byte at a time: no message until complete,
        // and the buffer never exceeds what was actually received.
        for (i, b) in frame.iter().enumerate() {
            dec.push(&[*b]);
            assert!(dec.buffered() <= i + 1);
            if i + 1 < frame.len() {
                assert_eq!(dec.next(), None, "byte {i}");
            }
        }
        assert_eq!(dec.next(), Some(msg_batch(5, 2)));
    }

    #[test]
    fn pure_garbage_is_skipped_with_accounting() {
        let garbage: Vec<u8> = (0u32..4096).map(|i| (i.wrapping_mul(31) % 251) as u8).collect();
        let good = frame_msg(&ClusterMsg::Heartbeat { node: 7, ticks: 9 });
        let mut dec = WireDecoder::new();
        dec.push(&garbage);
        dec.push(&good);
        assert_eq!(dec.next(), Some(ClusterMsg::Heartbeat { node: 7, ticks: 9 }));
        let s = dec.stats();
        assert_eq!(s.frames_decoded, 1);
        assert!(s.skipped_bytes >= garbage.len() as u64 - 4);
    }

    #[test]
    fn stall_expiry_releases_frames_swallowed_by_a_hungry_header() {
        let good = frame_msg(&ClusterMsg::Heartbeat { node: 1, ticks: 5 });
        // A frame whose length field took a bit-flip in flight: still
        // plausible (< MAX_WIRE_PAYLOAD), so the decoder legitimately
        // waits — and the good frame behind it reads as phantom payload.
        let mut hungry = frame_msg(&ClusterMsg::Heartbeat { node: 0, ticks: 4 });
        hungry[6] ^= 0x04; // len 30 -> 262_174
        let mut dec = WireDecoder::new();
        dec.push(&hungry);
        dec.push(&good);
        assert_eq!(dec.next(), None);
        assert!(dec.starved());
        // Two quiet ticks of allowance, then the header is condemned.
        assert!(!dec.expire_stalled(2));
        assert_eq!(dec.next(), None);
        assert!(!dec.expire_stalled(2));
        assert!(dec.expire_stalled(2), "third starved tick must expire");
        assert_eq!(dec.next(), Some(ClusterMsg::Heartbeat { node: 1, ticks: 5 }));
        assert!(!dec.starved());
        assert!(!dec.expire_stalled(2), "clock must reset after recovery");
        assert!(dec.stats().resyncs >= 1);
    }
}
