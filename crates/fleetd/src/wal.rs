//! Write-ahead log: length-prefixed, CRC-framed records with torn-tail
//! recovery.
//!
//! Every applied batch is framed and appended before its completion is
//! acknowledged, so a crash after the append loses nothing, and a crash
//! before (or during) it loses only work the source will redeliver.
//! Threshold-rollout transitions (canary start, promote, rollback) are
//! journaled as a second record kind in the *same* log, interleaved in
//! order with the batches, so replay reconstructs rollout state changes
//! at exactly the point in the batch stream where they happened. Records
//! are `WLR1` frames of [`crate::codec`]'s grammar whose payload is one tag
//! byte (0 = window batch, 1 = rollout event, 2 = operator command)
//! followed by the record body. The cluster coordinator's assignment
//! journal uses the same frames and writer with its own payload grammar.
//! Every record of either log is a [`LogRecord`], framed by one function,
//! [`frame`], and written by one append, [`WalWriter::append`], which also
//! runs the kill switch's byte and per-kind meters.
//!
//! Replay walks frames from the start and stops at the first defect —
//! truncated header, bad magic, implausible length, short payload, CRC
//! mismatch, or a payload the log's record decoder rejects. Everything
//! before the defect is intact (CRC-verified);
//! everything from it onward is a torn tail from a crash mid-append and is
//! truncated away with a warning count, never an error. A kill mid-frame
//! therefore costs at most one un-acked batch, which redelivery restores.
//!
//! Crash injection is cooperative: [`KillSwitch`] meters every byte the
//! writer intends to append across the *lifetime* of a scenario (surviving
//! restarts and snapshot-triggered resets, which empty the log but not
//! the meter), so a seeded schedule can name "die 3 bytes into the
//! frame that crosses lifetime offset 40 000" and hit it reproducibly.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use faultsim::KillPoint;

use crate::codec::{check_frame, encode_frame, CodecError, FrameCheck, FrameDefect, WindowBatch};
use crate::control::ControlCommand;
use crate::daemon::DaemonError;
use crate::epoch::RolloutEvent;

/// Frame magic: "WLR1".
pub const WAL_MAGIC: [u8; 4] = *b"WLR1";
/// Sanity bound on a log frame payload (16 MiB); larger declared lengths
/// mean the length field itself is damaged.
pub const MAX_WAL_PAYLOAD: u32 = 1 << 24;

/// One journaled record: an applied batch, a rollout transition, or an
/// operator command.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A durably applied window batch (payload tag 0).
    Batch(WindowBatch),
    /// A rollout state transition (payload tag 1).
    Rollout(RolloutEvent),
    /// An operator command from the control plane (payload tag 2),
    /// journaled before it takes effect so recovery replays it at
    /// exactly its point in the batch stream.
    Command(ControlCommand),
}

/// A record one of fleetd's logs journals: the payload it frames, and the
/// kill-switch meter it advances once durable.
pub trait LogRecord {
    /// Serialise the frame payload into `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// The per-kind lifetime meter this record advances once it is on
    /// disk; `None` (the default) meters its bytes only.
    fn kind(&self) -> Option<RecordKind> {
        None
    }
}

/// The per-kind meters of a [`KillSwitch`], one per [`WalRecord`] variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// An applied window batch ([`KillPoint::AfterBatches`]).
    Batch,
    /// A rollout transition ([`KillPoint::AfterRolloutEvents`]).
    Rollout,
    /// An operator command ([`KillPoint::AfterCommands`]).
    Command,
}

impl LogRecord for WalRecord {
    /// Tag byte + record body.
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Batch(b) => {
                out.push(0);
                b.encode(out);
            }
            WalRecord::Rollout(ev) => {
                out.push(1);
                ev.encode(out);
            }
            WalRecord::Command(cmd) => {
                out.push(2);
                cmd.encode(out);
            }
        }
    }

    fn kind(&self) -> Option<RecordKind> {
        Some(match self {
            WalRecord::Batch(_) => RecordKind::Batch,
            WalRecord::Rollout(_) => RecordKind::Rollout,
            WalRecord::Command(_) => RecordKind::Command,
        })
    }
}

impl WalRecord {
    /// Deserialise from exactly `buf`.
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        let (&tag, body) = buf.split_first().ok_or(CodecError::Truncated)?;
        match tag {
            0 => Ok(WalRecord::Batch(WindowBatch::decode(body)?)),
            1 => Ok(WalRecord::Rollout(RolloutEvent::decode(body)?)),
            2 => Ok(WalRecord::Command(ControlCommand::decode(body)?)),
            _ => Err(CodecError::BadDiscriminant),
        }
    }
}

/// Cooperative crash injector threaded through the daemon.
///
/// Owned by the harness, not the daemon, so its byte/batch meters span
/// restarts: re-open the daemon with the same switch and offsets keep
/// counting from where the previous incarnation died. The switch holds an
/// ordered schedule of kill points and arms them one at a time: when the
/// armed point fires, the next one is armed in its place.
#[derive(Debug)]
pub struct KillSwitch {
    /// Points not yet fired, in order; the first one is armed.
    schedule: VecDeque<KillPoint>,
    fired: bool,
    /// Lifetime bytes the WAL writer has attempted to append.
    wal_bytes: u64,
    /// Lifetime batches applied (and acked, unless suppressed by a kill).
    applied: u64,
    /// Lifetime rollout transition records made durable.
    rollout_events: u64,
    /// Lifetime operator-command records made durable.
    commands: u64,
}

/// What an append attempt should do, as decided by the [`KillSwitch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillVerdict {
    /// Write the whole frame.
    Proceed,
    /// Write only the first `torn` bytes of the frame, then die.
    Kill {
        /// Bytes of the frame to leave behind as a torn tail.
        torn: u32,
    },
}

impl KillSwitch {
    /// A switch that never fires (production behavior).
    pub fn none() -> Self {
        Self::scheduled([])
    }

    /// A switch armed with one kill point.
    pub fn armed(point: KillPoint) -> Self {
        Self::scheduled([point])
    }

    /// A switch that fires at each of `points` in turn. A point that never
    /// fires holds back every point after it.
    pub fn scheduled(points: impl IntoIterator<Item = KillPoint>) -> Self {
        Self {
            schedule: points.into_iter().collect(),
            fired: false,
            wal_bytes: 0,
            applied: 0,
            rollout_events: 0,
            commands: 0,
        }
    }

    /// Replace the schedule with `point` (or disarm, with `None`) while
    /// keeping the lifetime meters, so multi-kill scenarios keep a single
    /// coherent byte timeline.
    pub fn rearm(&mut self, point: Option<KillPoint>) {
        self.schedule = point.into_iter().collect();
        self.fired = false;
    }

    /// Whether a point has fired since the switch was built or re-armed.
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// Fire the armed point if `due` says so, arming the next one.
    fn fire_if(&mut self, due: impl FnOnce(KillPoint) -> bool) -> Option<KillPoint> {
        let point = *self.schedule.front().filter(|&&p| due(p))?;
        self.schedule.pop_front();
        self.fired = true;
        Some(point)
    }

    /// Lifetime WAL bytes metered so far.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    /// Lifetime applied batches metered so far.
    pub fn applied_batches(&self) -> u64 {
        self.applied
    }

    /// Lifetime rollout transition records metered so far.
    pub fn rollout_events(&self) -> u64 {
        self.rollout_events
    }

    /// Lifetime operator-command records metered so far.
    pub fn commands(&self) -> u64 {
        self.commands
    }

    /// Meter an intended append of `frame_len` bytes and decide whether
    /// the writer dies inside it.
    pub(crate) fn before_wal_append(&mut self, frame_len: u64) -> KillVerdict {
        let start = self.wal_bytes;
        let crossed = |p| {
            matches!(p, KillPoint::AtWalByte { offset, .. } if start <= offset && offset < start + frame_len)
        };
        let verdict = match self.fire_if(crossed) {
            // Leave strictly less than the whole frame so the tail is
            // genuinely torn (a complete frame would just be a valid
            // record).
            Some(KillPoint::AtWalByte { torn, .. }) => KillVerdict::Kill {
                torn: torn.min((frame_len - 1) as u32),
            },
            _ => KillVerdict::Proceed,
        };
        self.wal_bytes += match verdict {
            KillVerdict::Proceed => frame_len,
            KillVerdict::Kill { torn } => u64::from(torn),
        };
        verdict
    }

    /// Meter one durable record of `kind`; returns `true` when the process
    /// must die now, after the record is on disk but before its caller
    /// hears success. For a batch that suppresses the completion (durable
    /// but never acked: redelivery must resolve to a duplicate); for a
    /// rollout transition or an operator command it models dying before
    /// the state machine or the operator observes it. Either way recovery
    /// replays the durable record and converges to the same state.
    pub(crate) fn after_append(&mut self, kind: RecordKind) -> bool {
        let n = match kind {
            RecordKind::Batch => {
                self.applied += 1;
                self.applied
            }
            RecordKind::Rollout => {
                self.rollout_events += 1;
                self.rollout_events
            }
            RecordKind::Command => {
                self.commands += 1;
                self.commands
            }
        };
        self.fire_if(|p| match (kind, p) {
            (RecordKind::Batch, KillPoint::AfterBatches(k)) => n >= k,
            (RecordKind::Rollout, KillPoint::AfterRolloutEvents(k))
            | (RecordKind::Command, KillPoint::AfterCommands(k)) => n >= u64::from(k),
            _ => false,
        })
        .is_some()
    }
}

/// What replay recovered from an existing log file.
#[derive(Debug)]
pub struct WalReplay<R = WalRecord> {
    /// CRC-verified, decoded records, in append order.
    pub records: Vec<R>,
    /// File length after truncating the torn tail.
    pub valid_bytes: u64,
    /// Bytes discarded as a torn / corrupt tail (0 for a clean log).
    pub torn_bytes: u64,
    /// Why the walk stopped early, if it did.
    pub tail_defect: Option<FrameDefect>,
}

/// Append-only WAL writer over one file.
#[derive(Debug)]
pub struct WalWriter {
    path: PathBuf,
    file: File,
    len: u64,
}

/// Build the on-disk `WLR1` frame for one record.
pub fn frame(record: &impl LogRecord) -> Vec<u8> {
    encode_frame(WAL_MAGIC, |out| record.encode(out))
}

/// Walk the `WLR1` frames of `bytes`, decoding each CRC-verified payload
/// with `decode`, and return the records, the length of the valid prefix,
/// and the defect (if any) that stopped the walk. A frame that passes CRC
/// but fails `decode` ends the valid prefix at its start, like any other
/// tail defect. Pure function — file truncation is the caller's job.
pub fn scan_log<R>(
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<R, CodecError>,
) -> (Vec<R>, u64, Option<FrameDefect>) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let defect = match check_frame(&bytes[pos..], WAL_MAGIC, MAX_WAL_PAYLOAD) {
            FrameCheck::Complete { payload, len } => match decode(payload) {
                Ok(record) => {
                    records.push(record);
                    pos += len;
                    continue;
                }
                Err(e) => FrameDefect::Undecodable(e),
            },
            FrameCheck::Incomplete(d) | FrameCheck::Defect(d) => d,
        };
        return (records, pos as u64, Some(defect));
    }
    (records, pos as u64, None)
}

/// [`scan_log`] with the daemon's [`WalRecord`] grammar.
pub fn scan_frames(bytes: &[u8]) -> (Vec<WalRecord>, u64, Option<FrameDefect>) {
    scan_log(bytes, WalRecord::decode)
}

impl WalWriter {
    /// Open (creating if absent) the log at `path`, replay its valid
    /// prefix with the log's record grammar `decode` ([`WalRecord::decode`]
    /// for the daemon WAL), truncate any torn tail, and position the
    /// writer at the end of the valid prefix.
    pub fn open<R>(
        path: &Path,
        decode: impl Fn(&[u8]) -> Result<R, CodecError>,
    ) -> std::io::Result<(Self, WalReplay<R>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, valid_bytes, tail_defect) = scan_log(&bytes, decode);
        let torn_bytes = bytes.len() as u64 - valid_bytes;
        if torn_bytes > 0 {
            file.set_len(valid_bytes)?;
        }
        file.seek(SeekFrom::Start(valid_bytes))?;
        let replay = WalReplay {
            records,
            valid_bytes,
            torn_bytes,
            tail_defect,
        };
        Ok((
            Self {
                path: path.to_path_buf(),
                file,
                len: valid_bytes,
            },
            replay,
        ))
    }

    /// Current file length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no frames.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Path this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Frame `record` and append it: the one write path of both logs. The
    /// kill switch meters the frame's bytes and, once it is whole on
    /// disk, the record's kind. A kill mid-frame leaves the torn prefix
    /// on disk; a kill on either meter returns [`DaemonError::Killed`],
    /// and the caller must treat the process as dead.
    pub fn append(
        &mut self,
        record: &impl LogRecord,
        kill: &mut KillSwitch,
    ) -> Result<(), DaemonError> {
        let frame = frame(record);
        let written = match kill.before_wal_append(frame.len() as u64) {
            KillVerdict::Proceed => frame.len(),
            KillVerdict::Kill { torn } => torn as usize,
        };
        self.file.write_all(&frame[..written])?;
        self.file.flush()?;
        self.len += written as u64;
        if written < frame.len() || record.kind().is_some_and(|k| kill.after_append(k)) {
            return Err(DaemonError::Killed);
        }
        Ok(())
    }

    /// Discard all frames (called right after a snapshot makes them
    /// redundant).
    ///
    /// A fresh empty log is created beside this one (`<path>.new`, any
    /// stale copy removed first) and renamed over it, so a process death
    /// leaves either the old log or the empty one. Truncating in place
    /// would do the same job, but ext4 (`auto_da_alloc`) then flushes the
    /// file when it is closed; the replaced file is unlinked instead, and
    /// its pages are dropped unwritten.
    pub fn reset(&mut self) -> std::io::Result<()> {
        let mut fresh = self.path.clone().into_os_string();
        fresh.push(".new");
        let fresh = PathBuf::from(fresh);
        if let Err(e) = std::fs::remove_file(&fresh) {
            if e.kind() != std::io::ErrorKind::NotFound {
                return Err(e);
            }
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&fresh)?;
        std::fs::rename(&fresh, &self.path)?;
        self.file = file;
        self.len = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Week, FRAME_HEADER_LEN};

    fn batch(host: u32, seq: u64, counts: &[u64]) -> WindowBatch {
        WindowBatch {
            host,
            seq,
            week: Week::Train,
            start: 0,
            counts: counts.to_vec(),
            poison: false,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "fleetd-wal-{}-{}-{}",
            tag,
            std::process::id(),
            n
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.bin");
        let batches = vec![batch(1, 1, &[5, 6]), batch(2, 1, &[]), batch(1, 2, &[9])];
        {
            let (mut w, replay) = WalWriter::open(&path, WalRecord::decode).unwrap();
            assert!(replay.records.is_empty());
            let mut kill = KillSwitch::none();
            for b in &batches {
                w.append(&WalRecord::Batch(b.clone()), &mut kill).unwrap();
            }
        }
        let (_, replay) = WalWriter::open(&path, WalRecord::decode).unwrap();
        let expected: Vec<WalRecord> = batches.into_iter().map(WalRecord::Batch).collect();
        assert_eq!(replay.records, expected);
        assert_eq!(replay.torn_bytes, 0);
        assert!(replay.tail_defect.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_leaves_an_empty_log_that_appends_and_replays() {
        let dir = tmpdir("reset");
        let path = dir.join("wal.bin");
        // A reset that died between creating its fresh file and the
        // rename leaves this behind; it must not block the next one.
        std::fs::write(dir.join("wal.bin.new"), b"stale").unwrap();
        let mut kill = KillSwitch::none();
        let (mut w, _) = WalWriter::open(&path, WalRecord::decode).unwrap();
        w.append(&WalRecord::Batch(batch(1, 1, &[5, 6])), &mut kill).unwrap();
        w.reset().unwrap();
        assert!(w.is_empty());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        assert!(!dir.join("wal.bin.new").exists());
        let after = batch(2, 1, &[7]);
        w.append(&WalRecord::Batch(after.clone()), &mut kill).unwrap();
        drop(w);
        let (w, replay) = WalWriter::open(&path, WalRecord::decode).unwrap();
        assert_eq!(replay.records, vec![WalRecord::Batch(after)]);
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(w.len(), replay.valid_bytes);
        // Snapshot listing ignores a stray fresh log as well.
        std::fs::write(dir.join("wal.bin.new"), b"stale").unwrap();
        assert!(crate::snapshot::list_snapshots(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rollout_records_interleave_with_batches_in_order() {
        let dir = tmpdir("rollout");
        let path = dir.join("wal.bin");
        let ev = RolloutEvent::Promote { epoch: 2 };
        {
            let (mut w, _) = WalWriter::open(&path, WalRecord::decode).unwrap();
            let mut kill = KillSwitch::none();
            w.append(&WalRecord::Batch(batch(1, 1, &[3])), &mut kill).unwrap();
            w.append(&WalRecord::Rollout(ev.clone()), &mut kill).unwrap();
            w.append(&WalRecord::Batch(batch(1, 2, &[4])), &mut kill).unwrap();
        }
        let (_, replay) = WalWriter::open(&path, WalRecord::decode).unwrap();
        assert_eq!(
            replay.records,
            vec![
                WalRecord::Batch(batch(1, 1, &[3])),
                WalRecord::Rollout(ev),
                WalRecord::Batch(batch(1, 2, &[4])),
            ]
        );
        assert!(replay.tail_defect.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn command_records_interleave_and_roundtrip() {
        let dir = tmpdir("command");
        let path = dir.join("wal.bin");
        let cmd = ControlCommand::PinThreshold { host: 4, t: 7.25 };
        {
            let (mut w, _) = WalWriter::open(&path, WalRecord::decode).unwrap();
            let mut kill = KillSwitch::none();
            w.append(&WalRecord::Batch(batch(1, 1, &[3])), &mut kill).unwrap();
            w.append(&WalRecord::Command(cmd), &mut kill).unwrap();
            w.append(
                &WalRecord::Command(ControlCommand::DrainShard { shard: 1 }),
                &mut kill,
            )
            .unwrap();
        }
        let (_, replay) = WalWriter::open(&path, WalRecord::decode).unwrap();
        assert_eq!(
            replay.records,
            vec![
                WalRecord::Batch(batch(1, 1, &[3])),
                WalRecord::Command(cmd),
                WalRecord::Command(ControlCommand::DrainShard { shard: 1 }),
            ]
        );
        assert!(replay.tail_defect.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_switch_fires_after_commands() {
        let mut kill = KillSwitch::armed(KillPoint::AfterCommands(2));
        assert!(!kill.after_append(RecordKind::Command));
        assert!(kill.after_append(RecordKind::Command));
        assert!(kill.fired());
        assert_eq!(kill.commands(), 2);
        // Re-arming keeps the lifetime meter, like the other counters.
        kill.rearm(Some(KillPoint::AfterCommands(3)));
        assert!(kill.after_append(RecordKind::Command));
        assert_eq!(kill.commands(), 3);
    }

    #[test]
    fn every_torn_prefix_recovers_the_full_frames_before_it() {
        // Write 3 frames, then re-create the file truncated at every
        // possible byte length; replay must always return exactly the
        // frames wholly inside the prefix.
        let frames: Vec<Vec<u8>> = [batch(1, 1, &[1]), batch(2, 1, &[2, 3]), batch(3, 1, &[])]
            .iter()
            .map(|b| frame(&WalRecord::Batch(b.clone())))
            .collect();
        let mut all = Vec::new();
        let mut boundaries = vec![0usize];
        for f in &frames {
            all.extend_from_slice(f);
            boundaries.push(all.len());
        }
        for cut in 0..=all.len() {
            let (records, valid, defect) = scan_frames(&all[..cut]);
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(records.len(), whole, "cut {cut}");
            assert_eq!(valid as usize, boundaries[whole], "cut {cut}");
            let at_boundary = boundaries.contains(&cut);
            assert_eq!(defect.is_none(), at_boundary, "cut {cut}");
        }
    }

    #[test]
    fn corrupt_byte_in_payload_truncates_from_that_frame() {
        let frames: Vec<Vec<u8>> = [batch(1, 1, &[1, 2, 3]), batch(2, 1, &[4])]
            .iter()
            .map(|b| frame(&WalRecord::Batch(b.clone())))
            .collect();
        let mut all = frames.concat();
        // Flip a payload byte inside frame 0.
        all[FRAME_HEADER_LEN + 2] ^= 0xFF;
        let (records, valid, defect) = scan_frames(&all);
        assert!(records.is_empty());
        assert_eq!(valid, 0);
        assert_eq!(defect, Some(FrameDefect::CrcMismatch));
    }

    #[test]
    fn open_truncates_torn_tail_on_disk() {
        let dir = tmpdir("truncate");
        let path = dir.join("wal.bin");
        let good = frame(&WalRecord::Batch(batch(7, 1, &[11, 12])));
        let torn = &frame(&WalRecord::Batch(batch(7, 2, &[13])))[..5];
        let mut bytes = good.clone();
        bytes.extend_from_slice(torn);
        std::fs::write(&path, &bytes).unwrap();

        let (w, replay) = WalWriter::open(&path, WalRecord::decode).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.torn_bytes, torn.len() as u64);
        assert_eq!(replay.tail_defect, Some(FrameDefect::ShortHeader));
        assert_eq!(w.len(), good.len() as u64);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            good.len() as u64,
            "torn tail must be physically truncated"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_switch_tears_the_crossing_frame() {
        let dir = tmpdir("kill");
        let path = dir.join("wal.bin");
        let b1 = batch(1, 1, &[1]);
        let b2 = batch(1, 2, &[2]);
        let f1_len = frame(&WalRecord::Batch(b1.clone())).len() as u64;

        let (mut w, _) = WalWriter::open(&path, WalRecord::decode).unwrap();
        let mut kill = KillSwitch::armed(KillPoint::AtWalByte {
            offset: f1_len + 3,
            torn: 7,
        });
        w.append(&WalRecord::Batch(b1.clone()), &mut kill).unwrap();
        assert!(matches!(
            w.append(&WalRecord::Batch(b2), &mut kill),
            Err(DaemonError::Killed)
        ));
        assert!(kill.fired());
        drop(w);

        let (_, replay) = WalWriter::open(&path, WalRecord::decode).unwrap();
        assert_eq!(replay.records, vec![WalRecord::Batch(b1)]);
        assert_eq!(replay.torn_bytes, 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_switch_meters_survive_rearm() {
        let mut kill = KillSwitch::armed(KillPoint::AfterBatches(2));
        assert!(!kill.after_append(RecordKind::Batch));
        assert!(kill.after_append(RecordKind::Batch));
        assert!(kill.fired());
        assert_eq!(kill.applied_batches(), 2);
        kill.rearm(Some(KillPoint::AfterBatches(3)));
        assert!(!kill.fired());
        assert!(kill.after_append(RecordKind::Batch));
        assert_eq!(kill.applied_batches(), 3);
    }

    #[test]
    fn kill_switch_schedule_fires_in_order_on_continuous_meters() {
        let mut kill = KillSwitch::scheduled([
            KillPoint::AtWalByte { offset: 5, torn: 2 },
            KillPoint::AfterBatches(2),
            KillPoint::AtWalByte {
                offset: 10,
                torn: 0,
            },
            KillPoint::AfterCommands(1),
        ]);
        // Only the head is armed: neither later kind fires yet.
        assert!(!kill.after_append(RecordKind::Batch));
        assert!(!kill.after_append(RecordKind::Command));
        // Bytes [0, 8) cross offset 5: torn after 2 bytes, next armed.
        assert_eq!(kill.before_wal_append(8), KillVerdict::Kill { torn: 2 });
        assert_eq!(kill.wal_bytes(), 2);
        // The batch meter already counts 1, so the second batch fires.
        assert!(kill.after_append(RecordKind::Batch));
        assert_eq!(kill.applied_batches(), 2);
        // The byte meter resumes at 2, not 0: [2, 10) misses offset 10,
        // [10, 18) crosses it.
        assert_eq!(kill.before_wal_append(8), KillVerdict::Proceed);
        assert_eq!(kill.before_wal_append(8), KillVerdict::Kill { torn: 0 });
        assert_eq!(kill.wal_bytes(), 10);
        // One command was metered while the head was still armed.
        assert!(kill.after_append(RecordKind::Command));
        assert_eq!(kill.commands(), 2);
        // The schedule is spent.
        assert!(kill.fired());
        assert!(!kill.after_append(RecordKind::Batch));
        assert!(!kill.after_append(RecordKind::Command));
        assert_eq!(kill.before_wal_append(8), KillVerdict::Proceed);
    }

    #[test]
    fn unfireable_point_holds_back_the_rest_of_the_schedule() {
        let mut kill = KillSwitch::scheduled([
            KillPoint::AfterBatches(u64::MAX),
            KillPoint::AfterBatches(1),
            KillPoint::AtWalByte { offset: 0, torn: 0 },
            KillPoint::AfterCommands(1),
        ]);
        for _ in 0..100 {
            assert!(!kill.after_append(RecordKind::Batch));
            assert!(!kill.after_append(RecordKind::Command));
            assert_eq!(kill.before_wal_append(16), KillVerdict::Proceed);
        }
        assert!(!kill.fired());
        assert_eq!(kill.applied_batches(), 100);
        assert_eq!(kill.wal_bytes(), 1600);
    }

    #[test]
    fn torn_write_never_leaves_a_whole_frame() {
        // Even when the schedule asks for more torn bytes than the frame
        // holds, the append must leave a strictly incomplete frame.
        let dir = tmpdir("clamp");
        let path = dir.join("wal.bin");
        let b = WalRecord::Batch(batch(9, 1, &[]));
        let frame_len = frame(&b).len() as u64;
        let (mut w, _) = WalWriter::open(&path, WalRecord::decode).unwrap();
        let mut kill = KillSwitch::armed(KillPoint::AtWalByte {
            offset: 0,
            torn: u32::MAX,
        });
        assert!(matches!(w.append(&b, &mut kill), Err(DaemonError::Killed)));
        assert_eq!(w.len(), frame_len - 1);
        drop(w);
        let (_, replay) = WalWriter::open(&path, WalRecord::decode).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(replay.torn_bytes, frame_len - 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
