//! # fleetd — crash-safe streaming evaluation daemon
//!
//! The batch pipeline in `experiments` evaluates a finished corpus; a
//! production deployment of the paper's console model instead receives
//! per-host window batches continuously, and the machine running the
//! evaluation crashes, gets overloaded, and meets malformed input. This
//! crate is the long-running side: a sharded in-memory host table kept
//! crash-safe by a write-ahead log and periodic snapshots, supervised so
//! one bad batch cannot take the fleet evaluation down, and protected
//! from overload by watermark backpressure with accounted load shedding.
//!
//! The layering, bottom-up:
//!
//! * [`codec`] — little-endian field codec, `WindowBatch`, IEEE CRC-32,
//!   and the one CRC frame header every persisted or sent byte sits
//!   behind;
//! * [`wal`] — CRC-framed append-only log with torn-tail recovery and the
//!   cooperative [`KillSwitch`](wal::KillSwitch) used by crash-injection
//!   harnesses;
//! * [`snapshot`] — atomic (tmp+rename) full-state checkpoints, newest
//!   valid image wins, keep-two retention, shared by the daemon and the
//!   cluster coordinator;
//! * [`state`] — per-host accumulators with seq-deduped idempotent apply;
//! * [`epoch`] — versioned threshold epochs: WAL-journaled canary
//!   rollouts with shadow evaluation, health gates, and O(1) bitwise
//!   rollback;
//! * [`queue`] — bounded per-shard FIFOs with high/low watermark
//!   hysteresis and staleness shedding;
//! * [`supervisor`] — panic containment, exponential-backoff worker
//!   restart, poison-batch quarantine, circuit breaker;
//! * [`daemon`] — the virtual-clock event loop composing all of the
//!   above, with a conservation law over every admitted batch;
//! * [`control`] — the live control plane: a fully-validated hot-reload
//!   config ([`FleetConfig`](control::FleetConfig), reject-and-keep-old)
//!   and journaled operator commands (`force-rollback`, `pin-threshold`,
//!   `drain-shard`, `undrain-shard`) that ride the WAL and survive any
//!   crash fully-applied-or-not-applied;
//! * [`admin`] — a zero-dependency single-threaded HTTP/1.0 admin
//!   endpoint (off by default) serving Prometheus text, a state JSON
//!   document, config reloads, and operator commands, total against
//!   hostile input;
//! * [`ingest`] — the wire-facing front-end: panic-free syslog/CEF and
//!   DNS datagram parsing with sanitization, per-source token-bucket
//!   flood control, and a `received = accepted + shed + malformed`
//!   conservation law of its own;
//! * [`wire`] — the `CLW1` cluster wire protocol: CRC-framed
//!   batch/ack/heartbeat messages with a resynchronizing,
//!   bounded-allocation stream decoder;
//! * [`cluster`] — coordinator + N worker nodes over a simulated lossy
//!   wire: consistent-hash assignment, heartbeat failure detection,
//!   journaled rebalance, and a deterministic merged host table.
//!
//! The contract the root `tests/daemon.rs` suite enforces: kill the
//! daemon at *any* batch boundary or WAL byte offset (including torn
//! mid-frame writes), restart it, redeliver unacknowledged work, and the
//! final per-host evaluation outputs are byte-identical to a run that
//! was never interrupted. The root `tests/cluster.rs` suite extends the
//! same contract across node counts, seeded node kills, and wire faults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
pub mod cluster;
pub mod codec;
pub mod control;
pub mod daemon;
pub mod epoch;
pub mod ingest;
pub mod queue;
pub mod snapshot;
pub mod state;
pub mod supervisor;
pub mod wal;
pub mod wire;

pub use cluster::{
    AssignEvent, AssignState, Cluster, ClusterConfig, ClusterKillSwitch, ClusterRecovery,
    ClusterSnapshot, ClusterStats, DarkEpisode, HandoffNotice, HashRing,
};
pub use admin::{AdminConfig, AdminHandler, AdminServer, DaemonControl};
pub use codec::{Week, WindowBatch};
pub use control::{check_config, ControlCommand, ControlStats, FleetConfig};
pub use daemon::{
    Completion, Daemon, DaemonConfig, DaemonError, DaemonStats, Disposition, RecoveryReport,
};
pub use epoch::{
    EpochOutcome, EpochRecord, EpochState, GateStats, HealthGate, Phase, RollbackReason,
    RolloutConfig, RolloutEvent,
};
pub use ingest::{
    decode_batch_datagram, encode_batch_datagram, encode_dns_datagram, sanitize, CefEvent,
    IngestConfig, IngestOutcome, IngestStats, Ingestor, Lane, LaneStats, SyslogMsg,
};
pub use queue::{Admit, QueueConfig};
pub use snapshot::Snapshot;
pub use state::{ApplyConfig, ApplyError, ApplyOutcome, HostState};
pub use supervisor::{SupervisorConfig, WorkerStatus};
pub use wal::{KillSwitch, WalRecord, WalWriter};
pub use wire::{ClusterMsg, WireDecoder, WireStats};
