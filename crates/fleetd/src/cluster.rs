//! Multi-node fleet clustering: consistent-hash sharding over a lossy
//! wire, heartbeat failure detection, and journaled handoff — with the
//! same determinism contract as a single daemon.
//!
//! This module promotes the in-process shard boundary of
//! [`crate::daemon`] to a *failure* boundary: a coordinator routes
//! per-host window batches to N worker nodes over an in-process simulated
//! transport carrying `CLW1` frames ([`crate::wire`]), each node running
//! its own [`Daemon`] with its own WAL and snapshots in its own
//! directory. Nodes die — silently (a seeded
//! [`faultsim::ClusterKillPoint::Node`]) or together with the whole
//! process (a [`faultsim::KillPoint`] shared across every WAL in the
//! simulation) — and the cluster must converge to the *same final
//! per-host table* as an uninterrupted single-node run.
//!
//! The design, piece by piece:
//!
//! * **Assignment** is consistent-hash ([`HashRing`]) over the original
//!   membership, plus an explicit override table for hosts moved off dead
//!   nodes. Every assignment change is one [`AssignEvent`] appended to a
//!   dedicated journal (`cluster.wal`, `WLR1` frames written by the
//!   daemon WAL's one append, [`WalWriter::append`]) *before* it takes
//!   effect in memory, and periodically folded into a `CSN1` snapshot
//!   ([`ClusterSnapshot`], kept by the daemon's snapshot store: atomic
//!   tmp+rename, keep-two, newest-valid-wins). Recovery replays snapshot + journal suffix;
//!   the epoch guard in [`AssignState::apply`] makes replay
//!   idempotent. The journal is never truncated, so a damaged
//!   newest snapshot falls back to an older one plus a longer replay.
//! * **Failure detection** is missed-heartbeat timeout: nodes beacon
//!   every `heartbeat_interval` ticks, and a node unheard-of for more
//!   than `heartbeat_timeout` ticks is journaled dead
//!   ([`AssignEvent::NodeDead`]). Its hosts go *dark* — reported by
//!   [`Cluster::dark_hosts`] and accounted through
//!   `hids_core::degraded` coverage by the harness — until the next tick
//!   journals the [`AssignEvent::Rebalance`] that moves them to
//!   survivors. Death is permanent; a falsely-declared node is fenced
//!   out by epoch checks and excluded from the final merge.
//! * **Delivery** is at-least-once: the coordinator's source retransmits
//!   unacknowledged batches on the decorrelated-jitter backoff of
//!   `itconsole::delivery`, nodes suppress duplicates by per-host
//!   sequence number, and acks are fenced by the assignment epoch they
//!   were sent under, so an ack that raced a handoff cannot mark work
//!   done on the wrong node. On handoff the moved host restarts from
//!   sequence 1 on its new owner: each host's final state is a pure
//!   function of its in-order applied batch prefix, which is what makes
//!   the N-node, kill-swept table byte-identical to the 1-node one.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use faultsim::{ClusterKillPoint, LinkFaults, LinkSim};
use hids_metrics::Registry;

use crate::codec::{put_u32, put_u64, CodecError, FrameDefect, Reader, WindowBatch};
use crate::daemon::{Completion, Daemon, DaemonConfig, DaemonError, RecoveryReport};
use crate::queue::Admit;
use crate::snapshot::{self, decode_image, encode_image, EncodeImage, Image};
use crate::state::HostState;
use crate::wal::{KillSwitch, LogRecord, WalWriter};
use crate::wire::{frame_msg, ClusterMsg, WireDecoder, WireStats};

/// Magic for cluster assignment snapshots.
pub const CLUSTER_SNAP_MAGIC: [u8; 4] = *b"CSN1";

/// Sanity bound on decoded membership/override list lengths.
const MAX_ASSIGN_ENTRIES: u32 = 1 << 24;

/// SplitMix64 finalizer — the ring's point/key mixer.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A consistent-hash ring: each node contributes `vnodes` points, a host
/// belongs to the first point clockwise of its own hash. Removing a node
/// removes only that node's points, so only *its* hosts move — the
/// property that bounds handoff traffic to the dead node's share.
#[derive(Debug, Clone)]
pub struct HashRing {
    points: Vec<(u64, u32)>,
}

impl HashRing {
    /// Build the ring for `nodes`, each with `vnodes` virtual points.
    pub fn new(nodes: &[u32], vnodes: u32) -> Self {
        let mut points = Vec::with_capacity(nodes.len() * vnodes as usize);
        for &n in nodes {
            for r in 0..vnodes {
                points.push((mix64((u64::from(n) << 32) | u64::from(r)), n));
            }
        }
        points.sort_unstable();
        Self { points }
    }

    /// The node owning `host`, or `None` for an empty ring.
    pub fn owner(&self, host: u32) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        let h = mix64(0x686F_7374 ^ (u64::from(host) << 16));
        let idx = self.points.partition_point(|&(p, _)| p < h);
        let (_, node) = self.points[idx % self.points.len()];
        Some(node)
    }
}

/// One durable assignment transition, journaled before it takes effect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssignEvent {
    /// The cluster was created with this membership. First record of
    /// every journal; epoch 0.
    Bootstrap {
        /// Number of nodes (ids `0..n_nodes`).
        n_nodes: u32,
        /// Virtual points per node on the ring.
        vnodes: u32,
    },
    /// A node was declared dead by heartbeat timeout. Its hosts are dark
    /// until the following [`AssignEvent::Rebalance`].
    NodeDead {
        /// The epoch this transition creates (strictly increasing).
        epoch: u32,
        /// The dead node.
        node: u32,
    },
    /// The dead node's hosts were reassigned to survivors. This is the
    /// *atomic* handoff record: either the whole move is durable or none
    /// of it is — there is no half-moved host.
    Rebalance {
        /// The epoch this transition creates (strictly increasing).
        epoch: u32,
        /// The node the hosts are moving off.
        from: u32,
        /// `(host, new_owner)` pairs, in ascending host order.
        moved: Vec<(u32, u32)>,
    },
}

impl LogRecord for AssignEvent {
    /// Tag byte + body. Assignment events meter journal bytes only.
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AssignEvent::Bootstrap { n_nodes, vnodes } => {
                out.push(0);
                put_u32(out, *n_nodes);
                put_u32(out, *vnodes);
            }
            AssignEvent::NodeDead { epoch, node } => {
                out.push(1);
                put_u32(out, *epoch);
                put_u32(out, *node);
            }
            AssignEvent::Rebalance { epoch, from, moved } => {
                out.push(2);
                put_u32(out, *epoch);
                put_u32(out, *from);
                put_u32(out, moved.len() as u32);
                for (host, to) in moved {
                    put_u32(out, *host);
                    put_u32(out, *to);
                }
            }
        }
    }
}

impl AssignEvent {
    /// Decode one event; must consume `buf` exactly.
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        let ev = match r.u8()? {
            0 => AssignEvent::Bootstrap {
                n_nodes: r.u32()?,
                vnodes: r.u32()?,
            },
            1 => AssignEvent::NodeDead {
                epoch: r.u32()?,
                node: r.u32()?,
            },
            2 => {
                let epoch = r.u32()?;
                let from = r.u32()?;
                let count = r.u32()?;
                if count > MAX_ASSIGN_ENTRIES {
                    return Err(CodecError::ImplausibleLength);
                }
                let mut moved = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    moved.push((r.u32()?, r.u32()?));
                }
                AssignEvent::Rebalance { epoch, from, moved }
            }
            _ => return Err(CodecError::BadDiscriminant),
        };
        r.finish()?;
        Ok(ev)
    }
}

/// A point-in-time copy of [`AssignState`], kept by the same snapshot
/// store as daemon snapshots (atomic rename, keep-two, newest-valid-wins)
/// under the file prefix `cluster-snap`. Unlike the daemon's WAL, the
/// cluster journal is *not* truncated when a snapshot lands: a damaged
/// newest snapshot falls back to an older one and replays a longer
/// journal suffix instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSnapshot {
    /// Monotone snapshot sequence number (also in the filename).
    pub seq: u64,
    /// Assignment epoch at capture.
    pub epoch: u32,
    /// Original membership size.
    pub n_nodes: u32,
    /// Virtual points per node.
    pub vnodes: u32,
    /// Nodes still live.
    pub live: Vec<u32>,
    /// Nodes declared dead but not yet rebalanced.
    pub pending_dead: Vec<u32>,
    /// `(host, node, epoch)` override rows for moved hosts.
    pub overrides: Vec<(u32, u32, u32)>,
}

impl ClusterSnapshot {
    /// Serialise to the framed on-disk byte form.
    pub fn encode(&self) -> Vec<u8> {
        encode_image(self)
    }

    /// Decode and verify one snapshot file image.
    pub fn decode(bytes: &[u8]) -> Result<Self, FrameDefect> {
        decode_image(bytes)
    }
}

impl EncodeImage for ClusterSnapshot {
    const MAGIC: [u8; 4] = CLUSTER_SNAP_MAGIC;
    const PREFIX: &'static str = "cluster-snap";

    fn seq(&self) -> u64 {
        self.seq
    }

    fn encode_payload(&self, p: &mut Vec<u8>) {
        put_u64(p, self.seq);
        put_u32(p, self.epoch);
        put_u32(p, self.n_nodes);
        put_u32(p, self.vnodes);
        put_u32(p, self.live.len() as u32);
        for &n in &self.live {
            put_u32(p, n);
        }
        put_u32(p, self.pending_dead.len() as u32);
        for &n in &self.pending_dead {
            put_u32(p, n);
        }
        put_u32(p, self.overrides.len() as u32);
        for &(h, n, e) in &self.overrides {
            put_u32(p, h);
            put_u32(p, n);
            put_u32(p, e);
        }
    }
}

impl Image for ClusterSnapshot {
    fn decode_payload(payload: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(payload);
        let seq = r.u64()?;
        let epoch = r.u32()?;
        let n_nodes = r.u32()?;
        let vnodes = r.u32()?;
        let read_list = |r: &mut Reader<'_>| -> Result<Vec<u32>, CodecError> {
            let count = r.u32()?;
            if count > MAX_ASSIGN_ENTRIES {
                return Err(CodecError::ImplausibleLength);
            }
            (0..count).map(|_| r.u32()).collect()
        };
        let live = read_list(&mut r)?;
        let pending_dead = read_list(&mut r)?;
        let count = r.u32()?;
        if count > MAX_ASSIGN_ENTRIES {
            return Err(CodecError::ImplausibleLength);
        }
        let mut overrides = Vec::with_capacity(count as usize);
        for _ in 0..count {
            overrides.push((r.u32()?, r.u32()?, r.u32()?));
        }
        r.finish()?;
        Ok(Self {
            seq,
            epoch,
            n_nodes,
            vnodes,
            live,
            pending_dead,
            overrides,
        })
    }
}

/// The replicated assignment state machine: who owns which host, at
/// which epoch. Pure function of the applied [`AssignEvent`] sequence.
#[derive(Debug, Clone)]
pub struct AssignState {
    /// Original membership size (node ids are `0..n_nodes`).
    pub n_nodes: u32,
    /// Virtual points per node.
    pub vnodes: u32,
    /// Epoch of the last applied transition (0 = bootstrap).
    pub epoch: u32,
    /// Nodes still live.
    pub live: BTreeSet<u32>,
    /// Nodes declared dead whose hosts have not been rebalanced yet —
    /// those hosts are dark.
    pub pending_dead: BTreeSet<u32>,
    /// `host → (owner, epoch assigned)` for hosts moved off dead nodes.
    pub overrides: BTreeMap<u32, (u32, u32)>,
    ring: HashRing,
}

impl AssignState {
    /// The bootstrap assignment: all nodes live, no overrides.
    pub fn new(n_nodes: u32, vnodes: u32) -> Self {
        let all: Vec<u32> = (0..n_nodes).collect();
        Self {
            n_nodes,
            vnodes,
            epoch: 0,
            live: all.iter().copied().collect(),
            pending_dead: BTreeSet::new(),
            overrides: BTreeMap::new(),
            ring: HashRing::new(&all, vnodes),
        }
    }

    /// Rebuild from a snapshot.
    pub fn from_snapshot(snap: &ClusterSnapshot) -> Self {
        let all: Vec<u32> = (0..snap.n_nodes).collect();
        Self {
            n_nodes: snap.n_nodes,
            vnodes: snap.vnodes,
            epoch: snap.epoch,
            live: snap.live.iter().copied().collect(),
            pending_dead: snap.pending_dead.iter().copied().collect(),
            overrides: snap
                .overrides
                .iter()
                .map(|&(h, n, e)| (h, (n, e)))
                .collect(),
            ring: HashRing::new(&all, snap.vnodes),
        }
    }

    /// Capture into a snapshot with the given sequence number.
    pub fn to_snapshot(&self, seq: u64) -> ClusterSnapshot {
        ClusterSnapshot {
            seq,
            epoch: self.epoch,
            n_nodes: self.n_nodes,
            vnodes: self.vnodes,
            live: self.live.iter().copied().collect(),
            pending_dead: self.pending_dead.iter().copied().collect(),
            overrides: self
                .overrides
                .iter()
                .map(|(&h, &(n, e))| (h, n, e))
                .collect(),
        }
    }

    /// Current owner of `host` (may be a dead or pending-dead node — the
    /// caller decides whether that makes the host routable or dark).
    pub fn owner(&self, host: u32) -> u32 {
        if let Some(&(node, _)) = self.overrides.get(&host) {
            return node;
        }
        self.ring.owner(host).unwrap_or(0)
    }

    /// The epoch under which `host` was last (re)assigned — the fence
    /// value stamped on outgoing batches and checked on incoming acks.
    pub fn host_epoch(&self, host: u32) -> u32 {
        self.overrides.get(&host).map(|&(_, e)| e).unwrap_or(0)
    }

    /// Apply one journaled transition. Transitions carry the epoch they
    /// create; anything at or below the current epoch is a replay
    /// duplicate and is ignored, which makes snapshot + full-journal
    /// replay idempotent.
    pub fn apply(&mut self, ev: &AssignEvent) {
        match ev {
            AssignEvent::Bootstrap { n_nodes, vnodes } => {
                if self.epoch == 0 {
                    *self = Self::new(*n_nodes, *vnodes);
                }
            }
            AssignEvent::NodeDead { epoch, node } => {
                if *epoch > self.epoch {
                    self.epoch = *epoch;
                    self.live.remove(node);
                    self.pending_dead.insert(*node);
                }
            }
            AssignEvent::Rebalance { epoch, from, moved } => {
                if *epoch > self.epoch {
                    self.epoch = *epoch;
                    self.pending_dead.remove(from);
                    for &(host, to) in moved {
                        self.overrides.insert(host, (to, *epoch));
                    }
                }
            }
        }
    }
}

/// Cluster tunables.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of worker nodes (ids `0..n_nodes`).
    pub n_nodes: u32,
    /// Virtual points per node on the consistent-hash ring.
    pub vnodes: u32,
    /// Nodes send a heartbeat every this many ticks.
    pub heartbeat_interval: u64,
    /// A live node unheard-of for more than this many ticks is declared
    /// dead. Must exceed `heartbeat_interval + latency` or a healthy
    /// cluster declares itself dead.
    pub heartbeat_timeout: u64,
    /// Base one-way frame latency in ticks.
    pub latency: u64,
    /// Per-node daemon configuration.
    pub node: DaemonConfig,
    /// Wire fault mix (both directions).
    pub link: LinkFaults,
    /// Master seed for the per-direction link fault streams.
    pub link_seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            n_nodes: 2,
            vnodes: 64,
            heartbeat_interval: 4,
            heartbeat_timeout: 16,
            latency: 1,
            node: DaemonConfig::default(),
            link: LinkFaults::none(),
            link_seed: 0x11A7_C0DE,
        }
    }
}

/// Validate `cfg`, mirroring the daemon's config validation.
pub fn validate_cluster(cfg: &ClusterConfig) -> Result<(), DaemonError> {
    if cfg.n_nodes < 1 {
        return Err(DaemonError::Config("n_nodes must be >= 1"));
    }
    if cfg.n_nodes > 4096 {
        return Err(DaemonError::Config("n_nodes must be <= 4096"));
    }
    if cfg.vnodes < 1 {
        return Err(DaemonError::Config("vnodes must be >= 1"));
    }
    if cfg.heartbeat_interval < 1 {
        return Err(DaemonError::Config("heartbeat_interval must be >= 1"));
    }
    if cfg.latency < 1 {
        return Err(DaemonError::Config("latency must be >= 1"));
    }
    if cfg.heartbeat_timeout <= cfg.heartbeat_interval + cfg.latency {
        return Err(DaemonError::Config(
            "heartbeat_timeout must exceed heartbeat_interval + latency",
        ));
    }
    Ok(())
}

/// Ticks a decoder may stay blocked on an incomplete frame before the
/// pending header is declared corrupt and resynced past. The transport
/// delivers frames atomically, so any cross-tick starvation is already
/// proof of a forged length; a small allowance keeps the policy safely
/// below every heartbeat-timeout margin (worst-case per-corruption gap
/// is this many ticks, vs. a default timeout of 16).
const DECODER_STALL_TICKS: u64 = 2;

/// The cluster-level kill switch: one shared process [`KillSwitch`]
/// metering every WAL byte and applied batch in the simulation (node
/// WALs *and* the cluster journal — so a byte-offset kill can land inside
/// a rebalance record), plus a schedule of silent single-node deaths
/// metered in cumulative cluster ticks (monotone across process
/// restarts, so a node kill survives an unrelated crash-recovery cycle).
#[derive(Debug)]
pub struct ClusterKillSwitch {
    /// The shared process death switch.
    pub process: KillSwitch,
    kills: Vec<(u32, u64)>,
    fired: Vec<bool>,
    ticks: u64,
}

impl ClusterKillSwitch {
    /// No deaths of either kind.
    pub fn none() -> Self {
        Self::new(&[])
    }

    /// Arm `kills`: each [`ClusterKillPoint::Node`] is a silent death due
    /// at its tick, and the [`ClusterKillPoint::Process`] points, in
    /// order, are the process switch's schedule.
    pub fn new(kills: &[ClusterKillPoint]) -> Self {
        let mut nodes = Vec::new();
        let mut process = Vec::new();
        for k in kills {
            match *k {
                ClusterKillPoint::Node { node, at_tick } => nodes.push((node, at_tick)),
                ClusterKillPoint::Process(p) => process.push(p),
            }
        }
        Self {
            process: KillSwitch::scheduled(process),
            fired: vec![false; nodes.len()],
            kills: nodes,
            ticks: 0,
        }
    }

    /// Cumulative cluster ticks across every process lifetime.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// True when the given node's silent death has already fired — such
    /// a node must not be reopened after a process restart.
    pub fn node_is_dead(&self, node: u32) -> bool {
        self.kills
            .iter()
            .zip(&self.fired)
            .any(|(&(n, _), &f)| f && n == node)
    }

    /// Advance the cumulative clock and return the nodes whose death is
    /// due this tick (marking them fired).
    fn tick_and_due(&mut self) -> Vec<u32> {
        self.ticks += 1;
        let mut due = Vec::new();
        for (i, &(node, at)) in self.kills.iter().enumerate() {
            if !self.fired[i] && at <= self.ticks {
                self.fired[i] = true;
                due.push(node);
            }
        }
        due
    }
}

/// What cluster recovery found on open.
#[derive(Debug, Default)]
pub struct ClusterRecovery {
    /// Sequence of the snapshot recovered from, if any.
    pub snapshot_seq: Option<u64>,
    /// Damaged newer snapshots skipped to reach it.
    pub snapshots_discarded: u32,
    /// Assignment events replayed from the journal.
    pub journal_events: u64,
    /// Torn/corrupt bytes truncated from the journal tail.
    pub journal_torn_bytes: u64,
    /// Per-node daemon recovery reports for reopened nodes.
    pub node_reports: Vec<(u32, RecoveryReport)>,
}

/// One completed handoff, surfaced so the source can rewind the moved
/// hosts to sequence 1 and withdraw any in-flight batches for them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandoffNotice {
    /// Epoch the rebalance created.
    pub epoch: u32,
    /// The node the hosts moved off.
    pub from: u32,
    /// `(host, new_owner)` pairs.
    pub moved: Vec<(u32, u32)>,
}

/// One observed dark window: a node was declared dead and these hosts
/// were unowned until the rebalance landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DarkEpisode {
    /// Cumulative cluster tick of the death declaration.
    pub at_tick: u64,
    /// The dead node.
    pub node: u32,
    /// The hosts that went dark.
    pub hosts: Vec<u32>,
}

/// Operational counters for one cluster lifetime (telemetry, not part of
/// the determinism contract — a kill-swept run reports different counts
/// than a clean one; it is the final host table that must match).
#[derive(Debug, Default, Clone, Copy)]
pub struct ClusterStats {
    /// Batches routed onto the wire.
    pub batches_sent: u64,
    /// Batches refused because the owner was dead or pending-dead.
    pub unroutable: u64,
    /// Acks accepted (owner and epoch both current).
    pub acks_accepted: u64,
    /// Acks fenced off (stale epoch, stale owner, or non-live sender).
    pub acks_stale: u64,
    /// Heartbeats accepted from live nodes.
    pub heartbeats_received: u64,
    /// Heartbeats from nodes already declared dead.
    pub heartbeats_stale: u64,
    /// Nodes declared dead by heartbeat timeout.
    pub node_deaths: u64,
    /// Silent node kills fired this lifetime.
    pub node_kills: u64,
    /// Rebalances journaled.
    pub rebalances: u64,
    /// Hosts moved by rebalances.
    pub hosts_moved: u64,
    /// Assignment events appended to the journal.
    pub journal_events: u64,
    /// Frames sent coordinator → nodes.
    pub frames_down: u64,
    /// Frames sent nodes → coordinator.
    pub frames_up: u64,
}

/// In-flight frames on one simulated link direction, delivered in
/// `(due_tick, send_order)` order — reordering happens only through the
/// seeded extra delays of [`LinkSim`], never through iteration order.
#[derive(Debug, Default)]
struct Pipe {
    q: Vec<(u64, u64, Vec<u8>)>,
}

impl Pipe {
    fn sched(&mut self, due: u64, order: u64, bytes: Vec<u8>) {
        self.q.push((due, order, bytes));
    }

    fn pop_due(&mut self, now: u64) -> Vec<Vec<u8>> {
        let mut due: Vec<(u64, u64, Vec<u8>)> = Vec::new();
        let mut rest: Vec<(u64, u64, Vec<u8>)> = Vec::new();
        for item in std::mem::take(&mut self.q) {
            if item.0 <= now {
                due.push(item);
            } else {
                rest.push(item);
            }
        }
        self.q = rest;
        due.sort_by_key(|&(d, o, _)| (d, o));
        due.into_iter().map(|(_, _, b)| b).collect()
    }
}

/// One worker node: a daemon in its own directory plus its wire decoder
/// and heartbeat clock.
struct NodeSim {
    id: u32,
    daemon: Daemon,
    decoder: WireDecoder,
    ticks: u64,
    /// `(host, seq) → epoch` of the last offered batch, echoed in acks.
    pending_epochs: BTreeMap<(u32, u64), u32>,
}

/// The coordinator plus its N simulated nodes and links.
pub struct Cluster {
    cfg: ClusterConfig,
    dir: PathBuf,
    assign: AssignState,
    journal: WalWriter,
    next_snap_seq: u64,
    hosts_universe: Vec<u32>,
    nodes: Vec<Option<NodeSim>>,
    node_pipes: Vec<Pipe>,
    coord_pipe: Pipe,
    coord_decoder: WireDecoder,
    links_down: Vec<LinkSim>,
    links_up: Vec<LinkSim>,
    last_seen: BTreeMap<u32, u64>,
    now: u64,
    send_order: u64,
    completions: Vec<Completion>,
    handoffs: Vec<HandoffNotice>,
    dark_episodes: Vec<DarkEpisode>,
    wire_base: WireStats,
    stats: ClusterStats,
}

impl Cluster {
    /// Open (creating or recovering) a cluster rooted at `dir`.
    ///
    /// `hosts` is the full host universe — needed to enumerate a dead
    /// node's hosts for rebalance. `kill` is consulted for the bootstrap
    /// journal append and for which nodes died silently in earlier
    /// lifetimes (those are not reopened; the heartbeat detector will
    /// re-declare them dead if the journal does not already say so).
    pub fn open(
        dir: &Path,
        cfg: ClusterConfig,
        hosts: &[u32],
        kill: &mut ClusterKillSwitch,
    ) -> Result<(Self, ClusterRecovery), DaemonError> {
        validate_cluster(&cfg)?;
        fs::create_dir_all(dir)?;

        let mut recovery = ClusterRecovery::default();
        let (snap, discarded) = snapshot::load_newest::<ClusterSnapshot>(dir)?;
        let snap = snap.map(|(img, _)| img);
        recovery.snapshots_discarded = discarded;
        let mut next_snap_seq = 1;
        let mut assign = match &snap {
            Some(s) => {
                if s.n_nodes != cfg.n_nodes {
                    return Err(DaemonError::Config(
                        "cluster directory was created with a different n_nodes",
                    ));
                }
                recovery.snapshot_seq = Some(s.seq);
                next_snap_seq = s.seq + 1;
                AssignState::from_snapshot(s)
            }
            None => AssignState::new(cfg.n_nodes, cfg.vnodes),
        };

        // A CRC-valid but undecodable event is only possible with
        // deliberate corruption; replay stops there and truncates it like
        // a torn tail.
        let (mut journal, replay) = WalWriter::open(&dir.join("cluster.wal"), AssignEvent::decode)?;
        recovery.journal_torn_bytes = replay.torn_bytes;
        let fresh = snap.is_none() && replay.records.is_empty();
        for ev in replay.records {
            if let AssignEvent::Bootstrap { n_nodes, .. } = &ev {
                if *n_nodes != cfg.n_nodes {
                    return Err(DaemonError::Config(
                        "cluster journal was created with a different n_nodes",
                    ));
                }
            }
            recovery.journal_events += 1;
            assign.apply(&ev);
        }

        if fresh {
            let ev = AssignEvent::Bootstrap {
                n_nodes: cfg.n_nodes,
                vnodes: cfg.vnodes,
            };
            journal.append(&ev, &mut kill.process)?;
            snapshot::write_image(dir, &assign.to_snapshot(next_snap_seq))?;
            next_snap_seq += 1;
        }

        let mut nodes: Vec<Option<NodeSim>> = Vec::with_capacity(cfg.n_nodes as usize);
        for i in 0..cfg.n_nodes {
            if assign.live.contains(&i) && !kill.node_is_dead(i) {
                let node_dir = dir.join(format!("node-{i:03}"));
                let (daemon, report) = Daemon::open(&node_dir, cfg.node)?;
                recovery.node_reports.push((i, report));
                nodes.push(Some(NodeSim {
                    id: i,
                    daemon,
                    decoder: WireDecoder::new(),
                    ticks: 0,
                    pending_epochs: BTreeMap::new(),
                }));
            } else {
                nodes.push(None);
            }
        }

        let links_down = (0..cfg.n_nodes)
            .map(|i| LinkSim::new(cfg.link, mix64(cfg.link_seed ^ (u64::from(i) * 2))))
            .collect();
        let links_up = (0..cfg.n_nodes)
            .map(|i| LinkSim::new(cfg.link, mix64(cfg.link_seed ^ (u64::from(i) * 2 + 1))))
            .collect();
        let node_pipes = (0..cfg.n_nodes).map(|_| Pipe::default()).collect();
        let last_seen = assign.live.iter().map(|&n| (n, 0)).collect();

        let cluster = Self {
            cfg,
            dir: dir.to_path_buf(),
            assign,
            journal,
            next_snap_seq,
            hosts_universe: hosts.to_vec(),
            nodes,
            node_pipes,
            coord_pipe: Pipe::default(),
            coord_decoder: WireDecoder::new(),
            links_down,
            links_up,
            last_seen,
            now: 0,
            send_order: 0,
            completions: Vec::new(),
            handoffs: Vec::new(),
            dark_episodes: Vec::new(),
            wire_base: WireStats::default(),
            stats: ClusterStats::default(),
        };
        Ok((cluster, recovery))
    }

    fn append_event(
        &mut self,
        ev: &AssignEvent,
        kill: &mut ClusterKillSwitch,
    ) -> Result<(), DaemonError> {
        self.journal.append(ev, &mut kill.process)?;
        self.stats.journal_events += 1;
        Ok(())
    }

    fn send_down(&mut self, node: u32, frame: &[u8]) {
        self.stats.frames_down += 1;
        let latency = self.cfg.latency;
        for (extra, bytes) in self.links_down[node as usize].transmit(frame) {
            self.send_order += 1;
            self.node_pipes[node as usize].sched(self.now + latency + extra, self.send_order, bytes);
        }
    }

    fn send_up(&mut self, node: u32, frame: &[u8]) {
        self.stats.frames_up += 1;
        let latency = self.cfg.latency;
        for (extra, bytes) in self.links_up[node as usize].transmit(frame) {
            self.send_order += 1;
            self.coord_pipe.sched(self.now + latency + extra, self.send_order, bytes);
        }
    }

    /// Route one batch to its host's current owner. Returns `false` when
    /// the owner is dead or pending-dead (the host is dark; the source
    /// must retry after rebalance) — otherwise the batch is on the wire,
    /// which is *not* delivery: only an ack completes it.
    pub fn transmit(&mut self, batch: &WindowBatch) -> bool {
        let owner = self.assign.owner(batch.host);
        if !self.assign.live.contains(&owner) {
            self.stats.unroutable += 1;
            return false;
        }
        let msg = ClusterMsg::Batch {
            node: owner,
            epoch: self.assign.host_epoch(batch.host),
            batch: batch.clone(),
        };
        let frame = frame_msg(&msg);
        self.stats.batches_sent += 1;
        self.send_down(owner, &frame);
        true
    }

    /// Advance the whole cluster one tick: fire due silent node kills,
    /// complete at most one pending rebalance, run every node (deliver
    /// frames, tick its daemon, collect acks and heartbeats), process the
    /// coordinator's inbox, and run heartbeat-timeout detection.
    /// [`DaemonError::Killed`] means the simulated process died — drop
    /// this instance and recover via [`Cluster::open`].
    pub fn tick(&mut self, kill: &mut ClusterKillSwitch) -> Result<(), DaemonError> {
        self.now += 1;
        for n in kill.tick_and_due() {
            self.kill_node_silently(n);
        }
        self.maybe_rebalance(kill)?;
        self.run_nodes(kill)?;
        self.process_coordinator_inbox();
        self.detect_timeouts(kill)?;
        Ok(())
    }

    fn kill_node_silently(&mut self, node: u32) {
        let idx = node as usize;
        if idx >= self.nodes.len() {
            return;
        }
        if let Some(n) = self.nodes[idx].take() {
            self.fold_wire_stats(n.decoder.stats());
            self.stats.node_kills += 1;
        }
    }

    fn fold_wire_stats(&mut self, s: WireStats) {
        self.wire_base.frames_decoded += s.frames_decoded;
        self.wire_base.resyncs += s.resyncs;
        self.wire_base.skipped_bytes += s.skipped_bytes;
    }

    /// Complete one pending handoff: journal the atomic rebalance record,
    /// apply it, snapshot, and surface the notice. One per tick, so a
    /// death and its rebalance never share a tick — the dark window is
    /// always observable.
    fn maybe_rebalance(&mut self, kill: &mut ClusterKillSwitch) -> Result<(), DaemonError> {
        let Some(&from) = self.assign.pending_dead.iter().next() else {
            return Ok(());
        };
        if self.assign.live.is_empty() {
            // Total loss: nothing to rebalance onto. Hosts stay dark.
            return Ok(());
        }
        let moved_hosts: Vec<u32> = self
            .hosts_universe
            .iter()
            .copied()
            .filter(|&h| self.assign.owner(h) == from)
            .collect();
        let live: Vec<u32> = self.assign.live.iter().copied().collect();
        let ring = HashRing::new(&live, self.cfg.vnodes);
        let moved: Vec<(u32, u32)> = moved_hosts
            .into_iter()
            .map(|h| (h, ring.owner(h).unwrap_or(live[0])))
            .collect();
        let ev = AssignEvent::Rebalance {
            epoch: self.assign.epoch + 1,
            from,
            moved: moved.clone(),
        };
        self.append_event(&ev, kill)?;
        self.assign.apply(&ev);
        snapshot::write_image(&self.dir, &self.assign.to_snapshot(self.next_snap_seq))?;
        self.next_snap_seq += 1;
        self.stats.rebalances += 1;
        self.stats.hosts_moved += moved.len() as u64;
        self.handoffs.push(HandoffNotice {
            epoch: self.assign.epoch,
            from,
            moved,
        });
        Ok(())
    }

    fn run_nodes(&mut self, kill: &mut ClusterKillSwitch) -> Result<(), DaemonError> {
        for i in 0..self.nodes.len() {
            let frames_in = self.node_pipes[i].pop_due(self.now);
            let hb_interval = self.cfg.heartbeat_interval;
            let out_frames = {
                let Some(node) = self.nodes[i].as_mut() else {
                    continue;
                };
                for f in &frames_in {
                    node.decoder.push(f);
                }
                loop {
                    while let Some(msg) = node.decoder.next() {
                        let ClusterMsg::Batch { node: dest, epoch, batch } = msg else {
                            continue; // acks/heartbeats never flow downstream
                        };
                        if dest != node.id {
                            continue;
                        }
                        if node.daemon.shard_busy(batch.host) {
                            continue; // dropped: the source's ARQ will retry
                        }
                        let key = (batch.host, batch.seq);
                        match node.daemon.offer(batch) {
                            Admit::Overflow => {} // dropped: ARQ will retry
                            _ => {
                                node.pending_epochs.insert(key, epoch);
                            }
                        }
                    }
                    // A corrupted length field must not block the batch
                    // stream behind a frame that will never complete.
                    if !node.decoder.expire_stalled(DECODER_STALL_TICKS) {
                        break;
                    }
                }
                node.daemon.tick(&mut kill.process)?;
                let mut out: Vec<Vec<u8>> = Vec::new();
                for c in node.daemon.take_completions() {
                    let epoch = node
                        .pending_epochs
                        .get(&(c.host, c.seq))
                        .copied()
                        .unwrap_or(0);
                    out.push(frame_msg(&ClusterMsg::Ack {
                        node: node.id,
                        epoch,
                        host: c.host,
                        seq: c.seq,
                        disposition: c.disposition,
                    }));
                }
                node.ticks += 1;
                if node.ticks % hb_interval == 0 {
                    out.push(frame_msg(&ClusterMsg::Heartbeat {
                        node: node.id,
                        ticks: node.ticks,
                    }));
                }
                out
            };
            for f in out_frames {
                self.send_up(i as u32, &f);
            }
        }
        Ok(())
    }

    fn process_coordinator_inbox(&mut self) {
        for f in self.coord_pipe.pop_due(self.now) {
            self.coord_decoder.push(&f);
        }
        loop {
            while let Some(msg) = self.coord_decoder.next() {
                self.handle_upstream(msg);
            }
            // The upstream decoder is shared by every node's acks and
            // heartbeats; a single bit-flipped length field would
            // otherwise swallow all of them for thousands of ticks and
            // let the timeout detector declare the whole fleet dead.
            if !self.coord_decoder.expire_stalled(DECODER_STALL_TICKS) {
                break;
            }
        }
    }

    fn handle_upstream(&mut self, msg: ClusterMsg) {
        {
            match msg {
                ClusterMsg::Ack {
                    node,
                    epoch,
                    host,
                    seq,
                    disposition,
                } => {
                    let live = self.assign.live.contains(&node);
                    let current =
                        self.assign.owner(host) == node && self.assign.host_epoch(host) == epoch;
                    if live && current {
                        self.stats.acks_accepted += 1;
                        self.last_seen.insert(node, self.now);
                        self.completions.push(Completion {
                            host,
                            seq,
                            disposition,
                        });
                    } else {
                        self.stats.acks_stale += 1;
                    }
                }
                ClusterMsg::Heartbeat { node, .. } => {
                    if self.assign.live.contains(&node) {
                        self.stats.heartbeats_received += 1;
                        self.last_seen.insert(node, self.now);
                    } else {
                        self.stats.heartbeats_stale += 1;
                    }
                }
                ClusterMsg::Batch { .. } => {} // never flows upstream
            }
        }
    }

    fn detect_timeouts(&mut self, kill: &mut ClusterKillSwitch) -> Result<(), DaemonError> {
        let timeout = self.cfg.heartbeat_timeout;
        let overdue: Vec<u32> = self
            .assign
            .live
            .iter()
            .copied()
            .filter(|n| {
                let seen = self.last_seen.get(n).copied().unwrap_or(0);
                self.now.saturating_sub(seen) > timeout
            })
            .collect();
        for node in overdue {
            let ev = AssignEvent::NodeDead {
                epoch: self.assign.epoch + 1,
                node,
            };
            // Journal first: if the append is torn by a kill, recovery
            // sees a live node and simply re-detects the timeout.
            self.append_event(&ev, kill)?;
            self.assign.apply(&ev);
            self.stats.node_deaths += 1;
            let dark: Vec<u32> = self
                .hosts_universe
                .iter()
                .copied()
                .filter(|&h| self.assign.owner(h) == node)
                .collect();
            self.dark_episodes.push(DarkEpisode {
                at_tick: kill.ticks(),
                node,
                hosts: dark,
            });
        }
        Ok(())
    }

    /// Completions accepted since the last call (epoch-fenced; may
    /// contain duplicates when the wire duplicated an ack — the source's
    /// cursor logic must be idempotent, as it already is for redelivery).
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Handoffs completed since the last call. The source must rewind
    /// each moved host to sequence 1 and withdraw its in-flight batches:
    /// the new owner has none of the host's history, and per-host
    /// sequence numbers only deduplicate at or below the high-water mark.
    pub fn take_handoffs(&mut self) -> Vec<HandoffNotice> {
        std::mem::take(&mut self.handoffs)
    }

    /// Dark windows observed since the last call.
    pub fn take_dark_episodes(&mut self) -> Vec<DarkEpisode> {
        std::mem::take(&mut self.dark_episodes)
    }

    /// Hosts currently dark: owned by a declared-dead node whose
    /// rebalance has not landed yet.
    pub fn dark_hosts(&self) -> Vec<u32> {
        self.hosts_universe
            .iter()
            .copied()
            .filter(|&h| self.assign.pending_dead.contains(&self.assign.owner(h)))
            .collect()
    }

    /// True when no handoff is pending and every live node's queues are
    /// drained — the cluster-side half of quiescence (the source still
    /// owns "no batch unacknowledged").
    pub fn settled(&self) -> bool {
        self.assign.pending_dead.is_empty()
            && self
                .nodes
                .iter()
                .enumerate()
                .filter(|(i, _)| self.assign.live.contains(&(*i as u32)))
                .all(|(_, n)| n.as_ref().map(|n| n.daemon.queued_total() == 0).unwrap_or(true))
    }

    /// The merged final host table over *live* nodes only. Dead and
    /// fenced-out nodes are excluded: every host's authoritative state
    /// lives on its current owner, which replayed the host from sequence
    /// 1 if it ever moved.
    pub fn hosts(&self) -> BTreeMap<u32, HostState> {
        let mut out = BTreeMap::new();
        for (i, slot) in self.nodes.iter().enumerate() {
            if !self.assign.live.contains(&(i as u32)) {
                continue;
            }
            if let Some(node) = slot {
                for (h, st) in node.daemon.hosts() {
                    out.insert(h, st.clone());
                }
            }
        }
        out
    }

    /// The current assignment state (read-only).
    pub fn assign(&self) -> &AssignState {
        &self.assign
    }

    /// Operational counters for this lifetime.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Aggregate wire-decoder statistics: coordinator + every node,
    /// including nodes that died mid-lifetime.
    pub fn wire_stats(&self) -> WireStats {
        let mut s = self.wire_base;
        let fold = |s: &mut WireStats, o: WireStats| {
            s.frames_decoded += o.frames_decoded;
            s.resyncs += o.resyncs;
            s.skipped_bytes += o.skipped_bytes;
        };
        fold(&mut s, self.coord_decoder.stats());
        for node in self.nodes.iter().flatten() {
            fold(&mut s, node.decoder.stats());
        }
        s
    }

    /// Aggregate link-fault accounting over every link direction.
    pub fn link_log(&self) -> faultsim::LinkFaultLog {
        let mut log = faultsim::LinkFaultLog::default();
        for l in self.links_down.iter().chain(&self.links_up) {
            log.frames += l.log.frames;
            log.dropped += l.log.dropped;
            log.duplicated += l.log.duplicated;
            log.reordered += l.log.reordered;
            log.corrupted += l.log.corrupted;
        }
        log
    }

    /// Virtual-clock position of this lifetime.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Sum of queued batches across live nodes.
    pub fn queued_total(&self) -> u64 {
        self.nodes
            .iter()
            .flatten()
            .map(|n| n.daemon.queued_total())
            .sum()
    }

    /// Export the `fleetd_cluster_*` operational families into `reg`.
    /// These are telemetry, not part of the determinism contract.
    pub fn export_metrics(&self, reg: &mut Registry) {
        reg.register_gauge("fleetd_cluster_nodes", "Nodes by membership state");
        let dead = self.cfg.n_nodes as i64
            - self.assign.live.len() as i64
            - self.assign.pending_dead.len() as i64;
        reg.gauge_set(
            "fleetd_cluster_nodes",
            &[("state", "live")],
            self.assign.live.len() as i64,
        );
        reg.gauge_set(
            "fleetd_cluster_nodes",
            &[("state", "pending_dead")],
            self.assign.pending_dead.len() as i64,
        );
        reg.gauge_set("fleetd_cluster_nodes", &[("state", "dead")], dead);
        reg.register_gauge("fleetd_cluster_epoch", "Current assignment epoch");
        reg.gauge_set("fleetd_cluster_epoch", &[], i64::from(self.assign.epoch));
        reg.register_gauge(
            "fleetd_cluster_dark_hosts",
            "Hosts owned by a declared-dead node awaiting rebalance",
        );
        reg.gauge_set(
            "fleetd_cluster_dark_hosts",
            &[],
            self.dark_hosts().len() as i64,
        );

        reg.register_counter(
            "fleetd_cluster_batches_total",
            "Batches offered to the wire, by routing outcome",
        );
        reg.counter_add(
            "fleetd_cluster_batches_total",
            &[("outcome", "sent")],
            self.stats.batches_sent,
        );
        reg.counter_add(
            "fleetd_cluster_batches_total",
            &[("outcome", "unroutable")],
            self.stats.unroutable,
        );
        reg.register_counter(
            "fleetd_cluster_acks_total",
            "Acks received, by fencing outcome",
        );
        reg.counter_add(
            "fleetd_cluster_acks_total",
            &[("outcome", "accepted")],
            self.stats.acks_accepted,
        );
        reg.counter_add(
            "fleetd_cluster_acks_total",
            &[("outcome", "stale")],
            self.stats.acks_stale,
        );
        reg.register_counter(
            "fleetd_cluster_heartbeats_total",
            "Heartbeats received, by sender liveness",
        );
        reg.counter_add(
            "fleetd_cluster_heartbeats_total",
            &[("outcome", "accepted")],
            self.stats.heartbeats_received,
        );
        reg.counter_add(
            "fleetd_cluster_heartbeats_total",
            &[("outcome", "stale")],
            self.stats.heartbeats_stale,
        );
        reg.register_counter(
            "fleetd_cluster_node_deaths_total",
            "Nodes declared dead, by cause",
        );
        reg.counter_add(
            "fleetd_cluster_node_deaths_total",
            &[("cause", "heartbeat_timeout")],
            self.stats.node_deaths,
        );
        reg.register_counter(
            "fleetd_cluster_handoffs_total",
            "Rebalances journaled after node deaths",
        );
        reg.counter_add("fleetd_cluster_handoffs_total", &[], self.stats.rebalances);
        reg.register_counter(
            "fleetd_cluster_hosts_moved_total",
            "Hosts reassigned to survivors by rebalances",
        );
        reg.counter_add(
            "fleetd_cluster_hosts_moved_total",
            &[],
            self.stats.hosts_moved,
        );
        reg.register_counter(
            "fleetd_cluster_journal_events_total",
            "Assignment events appended to the cluster journal",
        );
        reg.counter_add(
            "fleetd_cluster_journal_events_total",
            &[],
            self.stats.journal_events,
        );

        reg.register_counter(
            "fleetd_cluster_wire_frames_total",
            "Frames transmitted, by direction",
        );
        reg.counter_add(
            "fleetd_cluster_wire_frames_total",
            &[("direction", "down")],
            self.stats.frames_down,
        );
        reg.counter_add(
            "fleetd_cluster_wire_frames_total",
            &[("direction", "up")],
            self.stats.frames_up,
        );
        let ws = self.wire_stats();
        reg.register_counter(
            "fleetd_cluster_wire_resyncs_total",
            "Decoder resynchronisations after corrupt frames",
        );
        reg.counter_add("fleetd_cluster_wire_resyncs_total", &[], ws.resyncs);
        reg.register_counter(
            "fleetd_cluster_wire_skipped_bytes_total",
            "Bytes skipped while scanning for the next frame magic",
        );
        reg.counter_add(
            "fleetd_cluster_wire_skipped_bytes_total",
            &[],
            ws.skipped_bytes,
        );
        let ll = self.link_log();
        reg.register_counter(
            "fleetd_cluster_link_faults_total",
            "Injected link faults, by class",
        );
        for (class, v) in [
            ("dropped", ll.dropped),
            ("duplicated", ll.duplicated),
            ("reordered", ll.reordered),
            ("corrupted", ll.corrupted),
        ] {
            reg.counter_add("fleetd_cluster_link_faults_total", &[("class", class)], v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Week;
    use crate::wal::{frame, RecordKind};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "fleetd-cluster-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ring_is_deterministic_and_covers_all_nodes() {
        let nodes: Vec<u32> = (0..4).collect();
        let a = HashRing::new(&nodes, 64);
        let b = HashRing::new(&nodes, 64);
        let mut seen = BTreeSet::new();
        for h in 0..256u32 {
            let o = a.owner(h);
            assert_eq!(o, b.owner(h));
            if let Some(o) = o {
                seen.insert(o);
            }
        }
        assert_eq!(seen.len(), 4, "every node should own some hosts");
        assert_eq!(HashRing::new(&[], 64).owner(7), None);
    }

    #[test]
    fn removing_a_node_moves_only_its_hosts() {
        let all: Vec<u32> = (0..4).collect();
        let full = HashRing::new(&all, 64);
        let survivors: Vec<u32> = all.iter().copied().filter(|&n| n != 2).collect();
        let reduced = HashRing::new(&survivors, 64);
        for h in 0..512u32 {
            let before = full.owner(h);
            let after = reduced.owner(h);
            if before != Some(2) {
                assert_eq!(before, after, "host {h} moved without cause");
            } else {
                assert_ne!(after, Some(2), "host {h} still on the dead node");
            }
        }
    }

    #[test]
    fn assign_events_roundtrip() {
        let evs = [
            AssignEvent::Bootstrap { n_nodes: 4, vnodes: 64 },
            AssignEvent::NodeDead { epoch: 1, node: 2 },
            AssignEvent::Rebalance {
                epoch: 2,
                from: 2,
                moved: vec![(7, 0), (9, 3), (11, 1)],
            },
        ];
        for ev in &evs {
            let mut buf = Vec::new();
            ev.encode(&mut buf);
            assert_eq!(&AssignEvent::decode(&buf).expect("roundtrip"), ev);
        }
        assert!(AssignEvent::decode(&[9, 0, 0]).is_err());
    }

    #[test]
    fn snapshot_roundtrips_and_rejects_damage() {
        let snap = ClusterSnapshot {
            seq: 3,
            epoch: 2,
            n_nodes: 4,
            vnodes: 64,
            live: vec![0, 1, 3],
            pending_dead: vec![],
            overrides: vec![(7, 0, 2), (9, 3, 2)],
        };
        let bytes = snap.encode();
        assert_eq!(ClusterSnapshot::decode(&bytes).expect("roundtrip"), snap);
        let mut bad = bytes.clone();
        bad[20] ^= 0xFF;
        assert!(ClusterSnapshot::decode(&bad).is_err());
        assert!(ClusterSnapshot::decode(&bytes[..8]).is_err());
    }

    #[test]
    fn stray_snapshot_names_are_not_listed_loaded_or_pruned() {
        // Names whose seq is not exactly 12 ASCII digits are not
        // snapshots, even when they hold a valid image with a higher seq:
        // counting them toward keep-two would prune a real fallback.
        let dir = tmpdir("stray");
        fs::create_dir_all(&dir).expect("mkdir");
        let image = |seq| ClusterSnapshot {
            seq,
            epoch: 0,
            n_nodes: 2,
            vnodes: 8,
            live: vec![0, 1],
            pending_dead: vec![],
            overrides: vec![],
        };
        let strays = ["cluster-snap-9.bin", "cluster-snap-+9.bin"];
        for name in strays {
            fs::write(dir.join(name), image(9).encode()).expect("stray");
        }
        for seq in 1..=3 {
            snapshot::write_image(&dir, &image(seq)).expect("write");
        }
        let listed: Vec<u64> = snapshot::list_images::<ClusterSnapshot>(&dir)
            .expect("list")
            .into_iter()
            .map(|(seq, _)| seq)
            .collect();
        assert_eq!(listed, vec![3, 2], "strays listed or a real image pruned");
        let (loaded, discarded) = snapshot::load_newest::<ClusterSnapshot>(&dir).expect("load");
        assert_eq!(loaded.map(|(s, _)| s.seq), Some(3));
        assert_eq!(discarded, 0);
        for name in strays {
            assert!(dir.join(name).exists(), "{name} must not be deleted");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn apply_is_idempotent_under_replay() {
        let mut a = AssignState::new(4, 64);
        let dead = AssignEvent::NodeDead { epoch: 1, node: 1 };
        let reb = AssignEvent::Rebalance {
            epoch: 2,
            from: 1,
            moved: vec![(5, 0)],
        };
        a.apply(&dead);
        a.apply(&reb);
        let snapshot_state = a.clone();
        // Full-journal replay over recovered state must be a no-op.
        a.apply(&AssignEvent::Bootstrap { n_nodes: 4, vnodes: 64 });
        a.apply(&dead);
        a.apply(&reb);
        assert_eq!(a.epoch, snapshot_state.epoch);
        assert_eq!(a.live, snapshot_state.live);
        assert_eq!(a.overrides, snapshot_state.overrides);
        assert_eq!(a.owner(5), 0);
        assert_eq!(a.host_epoch(5), 2);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let ok = ClusterConfig::default();
        assert!(validate_cluster(&ok).is_ok());
        for bad in [
            ClusterConfig { n_nodes: 0, ..ok },
            ClusterConfig { vnodes: 0, ..ok },
            ClusterConfig { heartbeat_interval: 0, ..ok },
            ClusterConfig { latency: 0, ..ok },
            ClusterConfig {
                heartbeat_timeout: 5,
                heartbeat_interval: 4,
                latency: 1,
                ..ok
            },
        ] {
            assert!(validate_cluster(&bad).is_err(), "{bad:?} should be rejected");
        }
    }

    fn batch(host: u32, seq: u64, week: Week, start: u32) -> WindowBatch {
        WindowBatch {
            host,
            seq,
            week,
            start,
            counts: vec![1 + u64::from(host), 2, 3],
            poison: false,
        }
    }

    /// Drive `batches` (per-host, in seq order) to quiescence through a
    /// cluster with clean links and no kills, returning the final table.
    fn drive_clean(dir: &Path, cfg: ClusterConfig, hosts: &[u32]) -> BTreeMap<u32, HostState> {
        let mut kill = ClusterKillSwitch::none();
        let (mut cluster, _) = Cluster::open(dir, cfg, hosts, &mut kill).expect("open");
        let per_host: Vec<Vec<WindowBatch>> = hosts
            .iter()
            .map(|&h| {
                vec![
                    batch(h, 1, Week::Train, 0),
                    batch(h, 2, Week::Train, 3),
                    batch(h, 3, Week::Test, 0),
                ]
            })
            .collect();
        let mut cursor = vec![0usize; hosts.len()];
        let mut in_flight = vec![false; hosts.len()];
        for _round in 0..10_000 {
            for (i, list) in per_host.iter().enumerate() {
                if !in_flight[i] && cursor[i] < list.len() {
                    in_flight[i] = cluster.transmit(&list[cursor[i]]);
                }
            }
            cluster.tick(&mut kill).expect("tick");
            for c in cluster.take_completions() {
                let i = hosts.iter().position(|&h| h == c.host).expect("known host");
                if cursor[i] < per_host[i].len() && per_host[i][cursor[i]].seq == c.seq {
                    cursor[i] += 1;
                }
                in_flight[i] = false;
            }
            for h in cluster.take_handoffs() {
                for (host, _) in h.moved {
                    let i = hosts.iter().position(|&x| x == host).expect("known host");
                    cursor[i] = 0;
                    in_flight[i] = false;
                }
            }
            let done = cursor
                .iter()
                .zip(&per_host)
                .all(|(&c, l)| c == l.len());
            if done && cluster.settled() {
                break;
            }
        }
        cluster.hosts()
    }

    #[test]
    fn two_node_table_matches_single_node() {
        let hosts: Vec<u32> = (0..6).collect();
        let one = drive_clean(
            &tmpdir("n1"),
            ClusterConfig {
                n_nodes: 1,
                ..ClusterConfig::default()
            },
            &hosts,
        );
        let two = drive_clean(&tmpdir("n2"), ClusterConfig::default(), &hosts);
        assert_eq!(one.len(), hosts.len());
        assert_eq!(one, two, "final tables must be node-count invariant");
    }

    #[test]
    fn cluster_kill_switch_routes_node_and_process_points() {
        use faultsim::KillPoint;
        let mut kill = ClusterKillSwitch::new(&[
            ClusterKillPoint::Node {
                node: 2,
                at_tick: 3,
            },
            ClusterKillPoint::Process(KillPoint::AfterBatches(1)),
            ClusterKillPoint::Node {
                node: 1,
                at_tick: 1,
            },
            ClusterKillPoint::Process(KillPoint::AfterBatches(2)),
        ]);
        // Node deaths are due by tick, in any order of the list.
        assert_eq!(kill.tick_and_due(), vec![1]);
        assert!(kill.node_is_dead(1) && !kill.node_is_dead(2));
        assert!(kill.tick_and_due().is_empty());
        assert_eq!(kill.tick_and_due(), vec![2]);
        assert!(kill.node_is_dead(2));
        // Process points form the process switch's schedule, in order.
        assert!(kill.process.after_append(RecordKind::Batch));
        assert!(kill.process.after_append(RecordKind::Batch));
        assert!(!kill.process.after_append(RecordKind::Batch));
        assert_eq!(kill.ticks(), 3);
    }

    #[test]
    fn silent_node_kill_goes_dark_then_rebalances_to_same_table() {
        let hosts: Vec<u32> = (0..6).collect();
        let baseline = drive_clean(
            &tmpdir("kill-ref"),
            ClusterConfig::default(),
            &hosts,
        );

        let dir = tmpdir("kill");
        let cfg = ClusterConfig::default();
        let mut kill = ClusterKillSwitch::new(&[ClusterKillPoint::Node {
            node: 1,
            at_tick: 3,
        }]);
        let (mut cluster, _) = Cluster::open(&dir, cfg, &hosts, &mut kill).expect("open");
        let per_host: Vec<Vec<WindowBatch>> = hosts
            .iter()
            .map(|&h| {
                vec![
                    batch(h, 1, Week::Train, 0),
                    batch(h, 2, Week::Train, 3),
                    batch(h, 3, Week::Test, 0),
                ]
            })
            .collect();
        let mut cursor = vec![0usize; hosts.len()];
        let mut in_flight: Vec<Option<u64>> = vec![None; hosts.len()];
        let mut saw_dark = false;
        let mut episodes = Vec::new();
        for _round in 0..20_000 {
            for (i, list) in per_host.iter().enumerate() {
                if in_flight[i].is_none() && cursor[i] < list.len() {
                    let b = &list[cursor[i]];
                    // Unroutable (dark) or routed — either way retry until
                    // acked; the wire may eat routed copies too.
                    cluster.transmit(b);
                    in_flight[i] = Some(b.seq);
                }
            }
            cluster.tick(&mut kill).expect("tick");
            if !cluster.dark_hosts().is_empty() {
                saw_dark = true;
            }
            for c in cluster.take_completions() {
                let i = c.host as usize;
                if in_flight[i] == Some(c.seq) {
                    in_flight[i] = None;
                }
                if cursor[i] < per_host[i].len() && per_host[i][cursor[i]].seq == c.seq {
                    cursor[i] += 1;
                }
            }
            for h in cluster.take_handoffs() {
                for (host, _) in h.moved {
                    cursor[host as usize] = 0;
                    in_flight[host as usize] = None;
                }
            }
            episodes.extend(cluster.take_dark_episodes());
            // Dark-host sends never complete: clear their in-flight mark
            // so the next round retries (stop-and-wait ARQ in miniature).
            for (i, f) in in_flight.iter_mut().enumerate() {
                if f.is_some() && cluster.dark_hosts().contains(&(i as u32)) {
                    *f = None;
                }
            }
            let done = cursor.iter().zip(&per_host).all(|(&c, l)| c == l.len());
            if done && cluster.settled() {
                break;
            }
        }
        assert!(saw_dark, "the dead node's hosts must be observably dark");
        assert_eq!(episodes.len(), 1, "exactly one dark episode");
        assert_eq!(episodes[0].node, 1);
        assert!(!episodes[0].hosts.is_empty());
        assert!(cluster.assign().pending_dead.is_empty());
        assert!(!cluster.assign().live.contains(&1));
        assert_eq!(
            cluster.hosts(),
            baseline,
            "post-rebalance table must match the clean run"
        );
        assert!(cluster.stats().node_deaths >= 1);
        assert!(cluster.stats().rebalances >= 1);
    }

    #[test]
    fn torn_snapshot_and_torn_rebalance_recover_to_pre_handoff_assignment() {
        // Satellite 3, coordinator-level: the newest snapshot is damaged
        // AND the journal tail is torn inside the rebalance record. The
        // recovered assignment must be the pre-handoff one (node dead,
        // hosts dark, no overrides) — never a half-moved host.
        let dir = tmpdir("torn");
        fs::create_dir_all(&dir).expect("mkdir");
        let cfg = ClusterConfig {
            n_nodes: 4,
            ..ClusterConfig::default()
        };

        let mut pre = AssignState::new(4, cfg.vnodes);
        let dead = AssignEvent::NodeDead { epoch: 1, node: 2 };
        pre.apply(&dead);
        let moved: Vec<(u32, u32)> = (0..64u32)
            .filter(|&h| pre.owner(h) == 2)
            .map(|h| (h, 0))
            .collect();
        assert!(!moved.is_empty(), "node 2 must own some hosts");
        let reb = AssignEvent::Rebalance {
            epoch: 2,
            from: 2,
            moved,
        };

        // Journal: bootstrap + nodedead intact, rebalance torn mid-record.
        let mut journal = Vec::new();
        for ev in [
            AssignEvent::Bootstrap { n_nodes: 4, vnodes: cfg.vnodes },
            dead.clone(),
        ] {
            journal.extend_from_slice(&frame(&ev));
        }
        let reb_frame = frame(&reb);
        journal.extend_from_slice(&reb_frame[..reb_frame.len() / 2]);
        fs::write(dir.join("cluster.wal"), &journal).expect("write journal");

        // Snapshots: seq 1 (pre-handoff) valid, seq 2 (post-handoff)
        // newest but corrupt.
        snapshot::write_image(&dir, &pre.to_snapshot(1)).expect("snap 1");
        let mut post = pre.clone();
        post.apply(&reb);
        let mut snap2 = post.to_snapshot(2).encode();
        let mid = snap2.len() / 2;
        snap2[mid] ^= 0xFF;
        fs::write(dir.join("cluster-snap-000000000002.bin"), &snap2).expect("snap 2");

        let hosts: Vec<u32> = (0..64).collect();
        let mut kill = ClusterKillSwitch::none();
        let (cluster, recovery) = Cluster::open(&dir, cfg, &hosts, &mut kill).expect("open");
        assert_eq!(recovery.snapshot_seq, Some(1), "damaged newest skipped");
        assert_eq!(recovery.snapshots_discarded, 1);
        assert!(recovery.journal_torn_bytes > 0, "torn rebalance truncated");
        let a = cluster.assign();
        assert_eq!(a.epoch, 1, "pre-handoff epoch");
        assert!(a.pending_dead.contains(&2), "death survived recovery");
        assert!(a.overrides.is_empty(), "no half-moved host");
        for h in 0..64u32 {
            if pre.owner(h) == 2 {
                assert!(cluster.dark_hosts().contains(&h), "host {h} must be dark");
            }
        }
    }

    #[test]
    fn cluster_metrics_families_are_exported() {
        let dir = tmpdir("metrics");
        let hosts: Vec<u32> = (0..4).collect();
        let mut kill = ClusterKillSwitch::none();
        let (mut cluster, _) =
            Cluster::open(&dir, ClusterConfig::default(), &hosts, &mut kill).expect("open");
        cluster.transmit(&batch(0, 1, Week::Train, 0));
        for _ in 0..8 {
            cluster.tick(&mut kill).expect("tick");
        }
        let mut reg = Registry::new();
        cluster.export_metrics(&mut reg);
        let text = reg.render(hids_metrics::RenderOptions::deterministic());
        for family in [
            "fleetd_cluster_nodes",
            "fleetd_cluster_epoch",
            "fleetd_cluster_dark_hosts",
            "fleetd_cluster_batches_total",
            "fleetd_cluster_acks_total",
            "fleetd_cluster_heartbeats_total",
            "fleetd_cluster_node_deaths_total",
            "fleetd_cluster_handoffs_total",
            "fleetd_cluster_hosts_moved_total",
            "fleetd_cluster_journal_events_total",
            "fleetd_cluster_wire_frames_total",
            "fleetd_cluster_wire_resyncs_total",
            "fleetd_cluster_wire_skipped_bytes_total",
            "fleetd_cluster_link_faults_total",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "missing family {family}"
            );
        }
    }
}
