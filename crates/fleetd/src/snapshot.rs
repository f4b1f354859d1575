//! Snapshot checkpointing: periodic full-state images that bound WAL
//! replay time, and the one snapshot store every image kind shares.
//!
//! An image is a single file holding exactly one frame of
//! [`crate::codec`]'s grammar; a file with anything after that frame is
//! rejected. The daemon's image (`FSN1`, [`Snapshot`]) carries the
//! complete sharded host table (sequence numbers, train/test
//! accumulators, fitted thresholds, live alarm counts) plus the
//! snapshot's own monotone sequence number; the cluster coordinator's
//! (`CSN1`, [`crate::cluster::ClusterSnapshot`]) carries its assignment
//! state. An image kind's write half ([`EncodeImage`]) names its magic and
//! file prefix and encodes its payload, its read half ([`Image`]) decodes
//! it, and the store functions do the rest. The daemon writes its image
//! straight from live shard state through a borrowed [`SnapshotView`], the
//! one `FSN1` payload encoder, so a snapshot tick copies no host state.
//! Writes are atomic at the filesystem level —
//! the image goes to `<prefix>.tmp`, then a rename installs it as
//! `<prefix>-<seq>.bin` with `seq` as exactly 12 ASCII digits — so a
//! crash mid-write leaves either the old snapshots or the new one, never
//! a half-written current snapshot. The two most recent snapshots are
//! kept; recovery walks them newest-first and loads the first one whose
//! CRC and structure verify, counting the rest as discarded. A valid
//! daemon snapshot makes every WAL frame written before it redundant, so
//! the daemon truncates the log right after a successful install.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use hids_core::{SketchAccumulator, WindowAccumulator};
use tailstats::KllSketch;

use crate::codec::{
    check_frame, encode_frame, put_f64, put_u32, put_u64, CodecError, FrameCheck, FrameDefect,
    Reader,
};
use crate::epoch::{decode_epoch, encode_epoch, EpochState};
use crate::state::HostState;

/// Snapshot file magic: "FSN1".
pub const SNAP_MAGIC: [u8; 4] = *b"FSN1";
/// Sanity bound on any snapshot image's payload (1 GiB).
pub const MAX_SNAP_PAYLOAD: u32 = 1 << 30;

/// A decoded snapshot: the daemon's full durable state at a checkpoint.
#[derive(Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Monotone snapshot sequence number (also embedded in the filename).
    pub seq: u64,
    /// Windows per week the daemon was configured with when it wrote
    /// this image (recovery cross-checks it against the current config).
    pub n_windows: u32,
    /// Full host table, merged across shards.
    pub hosts: BTreeMap<u32, HostState>,
    /// Rollout lifecycle state (current candidate + epoch history) as of
    /// this checkpoint.
    pub epoch: EpochState,
    /// Shards the control plane had drained as of this checkpoint
    /// (sorted, deduplicated). Drains are journaled commands, so the set
    /// must survive restarts the same way epoch state does.
    pub drained: Vec<u32>,
}

/// The daemon's full durable state, borrowed: the one encoder of the
/// `FSN1` payload. The daemon writes its live shard state through a view
/// without copying it, and [`Snapshot`] encodes through a view of itself,
/// so both produce the same bytes for the same state.
#[derive(Debug)]
pub struct SnapshotView<'a> {
    /// Monotone snapshot sequence number (also embedded in the filename).
    pub seq: u64,
    /// Windows per week the daemon is configured with.
    pub n_windows: u32,
    /// Full host table, merged across shards.
    pub hosts: BTreeMap<u32, &'a HostState>,
    /// Rollout lifecycle state.
    pub epoch: &'a EpochState,
    /// Drained shards (sorted, deduplicated).
    pub drained: &'a [u32],
}

/// The write half of a full-state image kept by the snapshot store, one
/// frame per file: what [`write_image`] needs to frame and install it. A
/// borrowed view of live state implements this half alone.
pub trait EncodeImage {
    /// Frame magic of this image kind.
    const MAGIC: [u8; 4];
    /// File prefix: images are `<PREFIX>-<seq:012>.bin`, staged through
    /// `<PREFIX>.tmp`.
    const PREFIX: &'static str;
    /// Monotone sequence number (also in the filename).
    fn seq(&self) -> u64;
    /// Append the frame payload to `out`.
    fn encode_payload(&self, out: &mut Vec<u8>);
}

/// An image kind the store can also read back ([`load_newest`]).
pub trait Image: EncodeImage + Sized {
    /// Decode a CRC-verified payload; must consume it exactly.
    fn decode_payload(payload: &[u8]) -> Result<Self, CodecError>;
}

/// Serialise `img` to its framed file form.
pub fn encode_image<I: EncodeImage>(img: &I) -> Vec<u8> {
    encode_frame(I::MAGIC, |out| img.encode_payload(out))
}

/// Verify and decode a whole image file: the frame must check and fill
/// `bytes` exactly.
pub fn decode_image<I: Image>(bytes: &[u8]) -> Result<I, FrameDefect> {
    match check_frame(bytes, I::MAGIC, MAX_SNAP_PAYLOAD) {
        FrameCheck::Complete { payload, len } if len == bytes.len() => {
            I::decode_payload(payload).map_err(FrameDefect::Undecodable)
        }
        FrameCheck::Complete { .. } => Err(FrameDefect::TrailingBytes),
        FrameCheck::Incomplete(d) | FrameCheck::Defect(d) => Err(d),
    }
}

fn encode_accumulator(out: &mut Vec<u8>, acc: &WindowAccumulator) {
    put_u32(out, acc.len() as u32);
    for (w, c) in acc.iter() {
        put_u32(out, w);
        put_u64(out, c);
    }
}

fn decode_accumulator(r: &mut Reader<'_>) -> Result<WindowAccumulator, CodecError> {
    let n = r.u32()?;
    if n > MAX_SNAP_PAYLOAD / 12 {
        return Err(CodecError::ImplausibleLength);
    }
    let mut acc = WindowAccumulator::new();
    for _ in 0..n {
        let w = r.u32()?;
        let c = r.u64()?;
        acc.insert(w, c);
    }
    Ok(acc)
}

/// Flag byte + (bitmap words, opaque sketch image) when present. Exact-mode
/// hosts write a single 0 byte, so snapshots taken without
/// `sketch_eps` differ from the pre-sketch format only by two zero bytes
/// per host.
fn encode_sketch(out: &mut Vec<u8>, acc: &Option<SketchAccumulator>) {
    match acc {
        None => out.push(0),
        Some(a) => {
            out.push(1);
            put_u32(out, a.seen_words().len() as u32);
            for &w in a.seen_words() {
                put_u64(out, w);
            }
            let img = a.sketch().to_bytes();
            put_u32(out, img.len() as u32);
            out.extend_from_slice(&img);
        }
    }
}

fn decode_sketch(r: &mut Reader<'_>) -> Result<Option<SketchAccumulator>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let n_words = r.u32()?;
            if n_words > MAX_SNAP_PAYLOAD / 8 {
                return Err(CodecError::ImplausibleLength);
            }
            let mut seen = Vec::with_capacity(n_words as usize);
            for _ in 0..n_words {
                seen.push(r.u64()?);
            }
            let img_len = r.u32()?;
            if img_len > MAX_SNAP_PAYLOAD {
                return Err(CodecError::ImplausibleLength);
            }
            let img = r.bytes(img_len as usize)?;
            let sketch = KllSketch::from_bytes(img).map_err(|_| CodecError::BadDiscriminant)?;
            Ok(Some(SketchAccumulator::from_parts(seen, sketch)))
        }
        _ => Err(CodecError::BadDiscriminant),
    }
}

impl Snapshot {
    /// Serialise to the framed on-disk byte form.
    pub fn encode(&self) -> Vec<u8> {
        encode_image(self)
    }

    /// Parse a framed snapshot, verifying magic, length and CRC first.
    pub fn decode(bytes: &[u8]) -> Result<Self, FrameDefect> {
        decode_image(bytes)
    }
}

impl EncodeImage for Snapshot {
    const MAGIC: [u8; 4] = SNAP_MAGIC;
    const PREFIX: &'static str = "snap";

    fn seq(&self) -> u64 {
        self.seq
    }

    fn encode_payload(&self, payload: &mut Vec<u8>) {
        SnapshotView {
            seq: self.seq,
            n_windows: self.n_windows,
            hosts: self.hosts.iter().map(|(&h, st)| (h, st)).collect(),
            epoch: &self.epoch,
            drained: &self.drained,
        }
        .encode_payload(payload);
    }
}

impl EncodeImage for SnapshotView<'_> {
    const MAGIC: [u8; 4] = Snapshot::MAGIC;
    const PREFIX: &'static str = Snapshot::PREFIX;

    fn seq(&self) -> u64 {
        self.seq
    }

    fn encode_payload(&self, payload: &mut Vec<u8>) {
        put_u64(payload, self.seq);
        put_u32(payload, self.n_windows);
        put_u32(payload, self.hosts.len() as u32);
        for (&host, st) in &self.hosts {
            put_u32(payload, host);
            put_u64(payload, st.last_seq);
            put_u64(payload, st.live_alarms);
            match st.threshold {
                Some(t) => {
                    payload.push(1);
                    put_f64(payload, t);
                }
                None => payload.push(0),
            }
            match st.promoted {
                Some((from, t)) => {
                    payload.push(1);
                    put_u32(payload, from);
                    put_f64(payload, t);
                }
                None => payload.push(0),
            }
            match st.pinned {
                Some(t) => {
                    payload.push(1);
                    put_f64(payload, t);
                }
                None => payload.push(0),
            }
            encode_accumulator(payload, &st.train);
            encode_accumulator(payload, &st.test);
            encode_sketch(payload, &st.train_sketch);
            encode_sketch(payload, &st.test_sketch);
        }
        encode_epoch(payload, self.epoch);
        put_u32(payload, self.drained.len() as u32);
        for &s in self.drained {
            put_u32(payload, s);
        }
    }
}

impl Image for Snapshot {
    fn decode_payload(payload: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(payload);
        let seq = r.u64()?;
        let n_windows = r.u32()?;
        let n_hosts = r.u32()?;
        if n_hosts > MAX_SNAP_PAYLOAD / 24 {
            return Err(CodecError::ImplausibleLength);
        }
        let mut hosts = BTreeMap::new();
        for _ in 0..n_hosts {
            let host = r.u32()?;
            let last_seq = r.u64()?;
            let live_alarms = r.u64()?;
            let threshold = match r.u8()? {
                0 => None,
                1 => Some(r.f64()?),
                _ => return Err(CodecError::BadDiscriminant),
            };
            let promoted = match r.u8()? {
                0 => None,
                1 => Some((r.u32()?, r.f64()?)),
                _ => return Err(CodecError::BadDiscriminant),
            };
            let pinned = match r.u8()? {
                0 => None,
                1 => Some(r.f64()?),
                _ => return Err(CodecError::BadDiscriminant),
            };
            let train = decode_accumulator(&mut r)?;
            let test = decode_accumulator(&mut r)?;
            let train_sketch = decode_sketch(&mut r)?;
            let test_sketch = decode_sketch(&mut r)?;
            hosts.insert(
                host,
                HostState {
                    last_seq,
                    train,
                    test,
                    train_sketch,
                    test_sketch,
                    threshold,
                    live_alarms,
                    promoted,
                    pinned,
                },
            );
        }
        let epoch = decode_epoch(&mut r)?;
        let n_drained = r.u32()?;
        if n_drained > MAX_SNAP_PAYLOAD / 4 {
            return Err(CodecError::ImplausibleLength);
        }
        let mut drained = Vec::with_capacity(n_drained as usize);
        for _ in 0..n_drained {
            drained.push(r.u32()?);
        }
        r.finish()?;
        Ok(Self {
            seq,
            n_windows,
            hosts,
            epoch,
            drained,
        })
    }
}

/// Filename for image `seq` of kind `I`.
fn image_filename<I: EncodeImage>(seq: u64) -> String {
    format!("{}-{seq:012}.bin", I::PREFIX)
}

/// The seq of an image filename of kind `I`; `None` unless the name is
/// exactly `<PREFIX>-` + 12 ASCII digits + `.bin`.
fn parse_image_filename<I: EncodeImage>(name: &str) -> Option<u64> {
    let rest = name
        .strip_prefix(I::PREFIX)?
        .strip_prefix('-')?
        .strip_suffix(".bin")?;
    if rest.len() != 12 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// Image files of kind `I` present in `dir`, newest first.
pub fn list_images<I: EncodeImage>(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(seq) = name.to_str().and_then(parse_image_filename::<I>) {
            found.push((seq, entry.path()));
        }
    }
    found.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    Ok(found)
}

/// Atomically install `img` in `dir` (tmp + rename), then prune so only
/// the two newest images of its kind remain. Returns the installed path.
pub fn write_image<I: EncodeImage>(dir: &Path, img: &I) -> std::io::Result<PathBuf> {
    let tmp = dir.join(format!("{}.tmp", I::PREFIX));
    fs::write(&tmp, encode_image(img))?;
    let path = dir.join(image_filename::<I>(img.seq()));
    fs::rename(&tmp, &path)?;
    for (_, old_path) in list_images::<I>(dir)?.into_iter().skip(2) {
        fs::remove_file(old_path)?;
    }
    Ok(path)
}

/// Load the newest image of kind `I` in `dir` that verifies, counting how
/// many newer-but-damaged images were skipped. `Ok(None)` means no image
/// exists at all (cold start).
pub fn load_newest<I: Image>(dir: &Path) -> std::io::Result<(Option<I>, u32)> {
    let mut discarded = 0u32;
    for (_, path) in list_images::<I>(dir)? {
        match decode_image(&fs::read(&path)?) {
            Ok(img) => return Ok((Some(img), discarded)),
            Err(_) => discarded += 1,
        }
    }
    Ok((None, discarded))
}

/// Daemon snapshot files present in `dir`, newest first.
pub fn list_snapshots(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    list_images::<Snapshot>(dir)
}

/// Load the newest daemon snapshot in `dir` that verifies (see
/// [`load_newest`]).
pub fn load_latest(dir: &Path) -> std::io::Result<(Option<Snapshot>, u32)> {
    load_newest(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::{CandidateState, EpochOutcome, EpochRecord, GateStats};

    fn sample() -> Snapshot {
        let mut hosts = BTreeMap::new();
        let mut train = WindowAccumulator::new();
        train.insert(0, 4);
        train.insert(5, 9);
        let mut test = WindowAccumulator::new();
        test.insert(2, 100);
        hosts.insert(
            3,
            HostState {
                last_seq: 11,
                train,
                test,
                threshold: Some(8.5),
                live_alarms: 1,
                promoted: Some((300, 12.25)),
                pinned: Some(5.75),
                ..Default::default()
            },
        );
        hosts.insert(
            9,
            HostState {
                last_seq: 2,
                threshold: None,
                ..Default::default()
            },
        );
        // A sketch-mode host: its accumulators are bounded sketches.
        let mut train_sk = SketchAccumulator::new(0.01);
        train_sk.insert(0, 7);
        train_sk.insert(41, 3);
        let mut test_sk = SketchAccumulator::new(0.01);
        test_sk.insert(650, 99);
        hosts.insert(
            12,
            HostState {
                last_seq: 5,
                threshold: Some(6.0),
                live_alarms: 1,
                train_sketch: Some(train_sk),
                test_sketch: Some(test_sk),
                ..Default::default()
            },
        );
        let mut thresholds = BTreeMap::new();
        thresholds.insert(3, 12.25);
        let epoch = EpochState {
            last_epoch: 2,
            candidate: Some(CandidateState {
                epoch: 2,
                soak_start: 200,
                soak_end: 300,
                thresholds,
                expected_windows: 100,
                stats: GateStats {
                    windows: 40,
                    incumbent_alarms: 3,
                    candidate_alarms: 2,
                    sheds: 1,
                },
            }),
            history: vec![EpochRecord {
                epoch: 1,
                outcome: EpochOutcome::Promoted,
                stats: GateStats::default(),
                expected_windows: 50,
            }],
        };
        Snapshot {
            seq: 7,
            n_windows: 672,
            hosts,
            epoch,
            drained: vec![0, 2],
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "fleetd-snap-{}-{}-{}",
            tag,
            std::process::id(),
            n
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_roundtrips() {
        let s = sample();
        assert_eq!(Snapshot::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn any_single_byte_corruption_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                Snapshot::decode(&bad).is_err(),
                "flip at byte {i} must not verify"
            );
        }
    }

    #[test]
    fn keeps_only_two_newest_and_loads_latest_valid() {
        let dir = tmpdir("prune");
        for seq in 1..=4 {
            let snap = Snapshot { seq, ..sample() };
            write_image(&dir, &snap).unwrap();
        }
        let listed = list_snapshots(&dir).unwrap();
        assert_eq!(
            listed.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![4, 3]
        );
        // Damage the newest: recovery must fall back to seq 3 and report
        // one discarded image.
        let newest = &listed[0].1;
        let mut bytes = fs::read(newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(newest, &bytes).unwrap();
        let (loaded, discarded) = load_latest(&dir).unwrap();
        assert_eq!(loaded.unwrap().seq, 3);
        assert_eq!(discarded, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cold_start_is_none_not_error() {
        let dir = tmpdir("cold");
        let (loaded, discarded) = load_latest(&dir).unwrap();
        assert!(loaded.is_none());
        assert_eq!(discarded, 0);
        // Stray files that merely look snapshot-ish are ignored.
        fs::write(dir.join("snap-xyz.bin"), b"junk").unwrap();
        fs::write(dir.join("wal.bin"), b"junk").unwrap();
        let (loaded, discarded) = load_latest(&dir).unwrap();
        assert!(loaded.is_none());
        assert_eq!(discarded, 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
