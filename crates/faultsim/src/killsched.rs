//! Seeded kill schedules for crash-recovery testing.
//!
//! The fleet daemon's headline correctness property is *kill-anywhere
//! determinism*: terminate the process at any batch or byte boundary,
//! restart it, and the final per-host results must be bit-identical to an
//! uninterrupted run. Proving that needs a way to die at *chosen, seeded*
//! points — including mid-record torn writes, the classic crash mode of an
//! append-only log on a real filesystem.
//!
//! A [`KillPoint`] names one such death:
//!
//! * [`KillPoint::AfterBatches`] — crash cleanly after the *n*-th batch is
//!   applied and logged, before its acknowledgement reaches the source
//!   (exercising at-least-once redelivery and duplicate suppression);
//! * [`KillPoint::AtWalByte`] — crash while appending the write-ahead-log
//!   record that crosses a cumulative byte offset, leaving `torn` bytes of
//!   the record on disk (exercising torn-tail truncation on recovery).
//!
//! [`kill_points`] derives an arbitrary number of points from a master
//! seed, alternating the two classes and scattering them uniformly over a
//! measured reference run — the same pattern as the other fault classes in
//! this crate: pure, replayable, uncorrelated across seeds.

use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::Serialize;

/// One scheduled process death.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum KillPoint {
    /// Crash after this many batches have been applied and logged in the
    /// current process lifetime, suppressing the final acknowledgement.
    AfterBatches(u64),
    /// Crash while appending the WAL record that would cross `offset`
    /// cumulative appended bytes (lifetime of the log, monotone across
    /// snapshot truncations), writing only the first `torn` bytes of the
    /// framed record. `torn == 0` is a clean record-boundary crash.
    AtWalByte {
        /// Cumulative appended-byte offset that triggers the crash.
        offset: u64,
        /// Bytes of the in-flight record actually written before death.
        torn: u32,
    },
    /// Crash immediately after the *n*-th rollout transition record
    /// (canary-start, promote, or rollback) has been made durable in the
    /// WAL, before the in-memory caller observes success. `1` dies right
    /// after canary start; in a single-rollout run `2` dies right after
    /// the promote/rollback decision — the epoch-boundary analogues of
    /// [`KillPoint::AfterBatches`].
    AfterRolloutEvents(u32),
    /// Crash immediately after the *n*-th operator-command record has
    /// been made durable and applied, before the operator is
    /// acknowledged. Together with [`KillPoint::AtWalByte`] offsets that
    /// land inside command frames (kills mid-command-record), this is the
    /// control-plane analogue of the rollout-event class: a recovered run
    /// must show the command either fully applied or not applied at all.
    AfterCommands(u32),
}

/// Largest torn-prefix length [`kill_points`] will schedule. Record frames
/// are headers (12 bytes) plus payload, so this covers cuts inside the
/// header, inside small payloads, and at awkward alignments.
pub const MAX_TORN_BYTES: u32 = 48;

/// Batch-boundary death uniform over `1..=max_batches`; unfireable for a
/// degenerate reference run.
fn draw_after_batches(rng: &mut StdRng, max_batches: u64) -> KillPoint {
    KillPoint::AfterBatches(if max_batches == 0 {
        u64::MAX
    } else {
        rng.random_range(1..=max_batches)
    })
}

/// Torn-write death: an offset uniform over `0..max_wal_bytes` (unfireable
/// when that is empty), then a torn length uniform over
/// `0..=MAX_TORN_BYTES`.
fn draw_at_wal_byte(rng: &mut StdRng, max_wal_bytes: u64) -> KillPoint {
    let offset = if max_wal_bytes == 0 {
        u64::MAX
    } else {
        rng.random_range(0..max_wal_bytes)
    };
    let torn = rng.random_range(0..=MAX_TORN_BYTES);
    KillPoint::AtWalByte { offset, torn }
}

/// Record-count trigger uniform over `1..=max`; `u32::MAX` (never reached)
/// when the reference run journals no such record.
fn draw_nth(rng: &mut StdRng, max: u32) -> u32 {
    if max == 0 {
        u32::MAX
    } else {
        rng.random_range(1..=max)
    }
}

/// Derive `n` kill points from `master_seed`, scattered over a run known
/// (from an uninterrupted reference execution) to apply `max_batches`
/// batches and append `max_wal_bytes` WAL bytes. Points alternate between
/// batch-boundary and torn-write deaths; the torn lengths include `0`
/// (clean boundary) and cuts inside the record header and payload.
///
/// Degenerate reference runs (zero batches or bytes) yield points that
/// can never fire, which is the correct behaviour: there is nothing to
/// kill.
pub fn kill_points(master_seed: u64, n: usize, max_batches: u64, max_wal_bytes: u64) -> Vec<KillPoint> {
    let mut rng = StdRng::seed_from_u64(crate::subseed(master_seed, 4));
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                draw_after_batches(&mut rng, max_batches)
            } else {
                draw_at_wal_byte(&mut rng, max_wal_bytes)
            }
        })
        .collect()
}

/// Derive `n` kill points for a run that performs a threshold rollout,
/// cycling through three classes: batch-boundary deaths, torn WAL writes,
/// and rollout-event-boundary deaths. `max_events` is the number of
/// rollout transition records the reference run journals (a single
/// rollout journals two: canary start and the promote/rollback decision),
/// so every epoch boundary is exercised by some seed.
pub fn rollout_kill_points(
    master_seed: u64,
    n: usize,
    max_batches: u64,
    max_wal_bytes: u64,
    max_events: u32,
) -> Vec<KillPoint> {
    let mut rng = StdRng::seed_from_u64(crate::subseed(master_seed, 7));
    (0..n)
        .map(|i| match i % 3 {
            0 => draw_after_batches(&mut rng, max_batches),
            1 => draw_at_wal_byte(&mut rng, max_wal_bytes),
            _ => KillPoint::AfterRolloutEvents(draw_nth(&mut rng, max_events)),
        })
        .collect()
}

/// Derive `n` kill points for a run driven by operator commands, cycling
/// through three classes: batch-boundary deaths, torn WAL writes (whose
/// offsets land inside command records as well as batch records, because
/// every append shares one byte meter — the "kill mid-command-record"
/// class), and command-boundary deaths ("kill between apply and ack").
/// `max_commands` is the number of command records the reference run
/// journals; zero maxima yield points that can never fire.
pub fn command_kill_points(
    master_seed: u64,
    n: usize,
    max_batches: u64,
    max_wal_bytes: u64,
    max_commands: u32,
) -> Vec<KillPoint> {
    let mut rng = StdRng::seed_from_u64(crate::subseed(master_seed, 11));
    (0..n)
        .map(|i| match i % 3 {
            0 => draw_after_batches(&mut rng, max_batches),
            1 => draw_at_wal_byte(&mut rng, max_wal_bytes),
            _ => KillPoint::AfterCommands(draw_nth(&mut rng, max_commands)),
        })
        .collect()
}

/// One scheduled death in a multi-node cluster run.
///
/// A cluster has two distinct failure granularities: the whole simulated
/// process (coordinator + every node, sharing one WAL byte meter — the
/// [`KillPoint`] classes, which exercise torn cluster-journal records and
/// mid-batch node-WAL crashes), and a *single node* dying silently while
/// the rest of the cluster keeps running (which exercises heartbeat-timeout
/// detection, `Dark` accounting, and journaled rebalance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ClusterKillPoint {
    /// The whole process dies at a [`KillPoint`]; the harness restarts it
    /// and recovery replays every WAL plus the cluster journal.
    Process(KillPoint),
    /// One worker node dies silently at the given cumulative cluster tick
    /// (lifetime of the run, monotone across process restarts) and never
    /// comes back. The coordinator must notice via missed heartbeats.
    Node {
        /// The node that dies. Never node 0 in generated schedules, so a
        /// multi-node cluster always retains a survivor to rebalance onto.
        node: u32,
        /// Cumulative cluster tick at which the node stops executing.
        at_tick: u64,
    },
}

/// Derive `n` cluster kill points from `master_seed`, cycling through
/// three classes: silent node deaths (heartbeat-expiry coverage),
/// batch-boundary process deaths (mid-batch coverage), and torn-write
/// process deaths (mid-handoff coverage — offsets land inside cluster
/// journal records as well as node WAL records, because all writers share
/// one byte meter). `max_ticks`, `max_batches`, and `max_wal_bytes` come
/// from an uninterrupted reference run; zero maxima yield points that can
/// never fire. Node deaths pick victims from `1..n_nodes` so node 0
/// always survives; single-node clusters get unfireable node kills.
pub fn cluster_kill_points(
    master_seed: u64,
    n: usize,
    n_nodes: u32,
    max_batches: u64,
    max_wal_bytes: u64,
    max_ticks: u64,
) -> Vec<ClusterKillPoint> {
    let mut rng = StdRng::seed_from_u64(crate::subseed(master_seed, 9));
    (0..n)
        .map(|i| match i % 3 {
            0 => {
                let (node, at_tick) = if n_nodes < 2 || max_ticks == 0 {
                    (u32::MAX, u64::MAX)
                } else {
                    (
                        rng.random_range(1..n_nodes),
                        rng.random_range(1..=max_ticks),
                    )
                };
                ClusterKillPoint::Node { node, at_tick }
            }
            1 => ClusterKillPoint::Process(draw_after_batches(&mut rng, max_batches)),
            _ => ClusterKillPoint::Process(draw_at_wal_byte(&mut rng, max_wal_bytes)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let a = kill_points(7, 24, 100, 10_000);
        let b = kill_points(7, 24, 100, 10_000);
        assert_eq!(a, b);
        let c = kill_points(8, 24, 100, 10_000);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn points_alternate_and_stay_in_range() {
        let pts = kill_points(42, 40, 64, 4096);
        assert_eq!(pts.len(), 40);
        for (i, p) in pts.iter().enumerate() {
            match (i % 2, p) {
                (0, KillPoint::AfterBatches(n)) => {
                    assert!((1..=64).contains(n), "point {i}: {p:?}")
                }
                (1, KillPoint::AtWalByte { offset, torn }) => {
                    assert!(*offset < 4096, "point {i}: {p:?}");
                    assert!(*torn <= MAX_TORN_BYTES, "point {i}: {p:?}");
                }
                _ => panic!("point {i} has the wrong class: {p:?}"),
            }
        }
    }

    #[test]
    fn torn_lengths_cover_boundary_and_midrecord() {
        let pts = kill_points(3, 200, 50, 100_000);
        let torns: Vec<u32> = pts
            .iter()
            .filter_map(|p| match p {
                KillPoint::AtWalByte { torn, .. } => Some(*torn),
                _ => None,
            })
            .collect();
        assert!(torns.iter().any(|&t| t == 0), "need a clean-boundary kill");
        assert!(torns.iter().any(|&t| t > 0), "need mid-record torn kills");
    }

    #[test]
    fn rollout_schedule_covers_all_three_classes() {
        let pts = rollout_kill_points(11, 12, 64, 4096, 2);
        assert_eq!(pts, rollout_kill_points(11, 12, 64, 4096, 2));
        let mut events = 0;
        for (i, p) in pts.iter().enumerate() {
            match (i % 3, p) {
                (0, KillPoint::AfterBatches(n)) => assert!((1..=64).contains(n)),
                (1, KillPoint::AtWalByte { offset, torn }) => {
                    assert!(*offset < 4096 && *torn <= MAX_TORN_BYTES)
                }
                (2, KillPoint::AfterRolloutEvents(n)) => {
                    assert!((1..=2).contains(n));
                    events += 1;
                }
                _ => panic!("point {i} has the wrong class: {p:?}"),
            }
        }
        assert_eq!(events, 4);
    }

    #[test]
    fn cluster_schedule_cycles_node_batch_and_torn_deaths() {
        let pts = cluster_kill_points(5, 12, 4, 64, 4096, 500);
        assert_eq!(pts, cluster_kill_points(5, 12, 4, 64, 4096, 500));
        for (i, p) in pts.iter().enumerate() {
            match (i % 3, p) {
                (0, ClusterKillPoint::Node { node, at_tick }) => {
                    assert!((1..4).contains(node), "point {i}: {p:?}");
                    assert!((1..=500).contains(at_tick), "point {i}: {p:?}");
                }
                (1, ClusterKillPoint::Process(KillPoint::AfterBatches(n))) => {
                    assert!((1..=64).contains(n), "point {i}: {p:?}")
                }
                (2, ClusterKillPoint::Process(KillPoint::AtWalByte { offset, torn })) => {
                    assert!(*offset < 4096 && *torn <= MAX_TORN_BYTES, "point {i}: {p:?}")
                }
                _ => panic!("point {i} has the wrong class: {p:?}"),
            }
        }
    }

    #[test]
    fn cluster_schedule_single_node_never_kills_the_only_node() {
        for p in cluster_kill_points(1, 9, 1, 10, 100, 50) {
            if let ClusterKillPoint::Node { node, at_tick } = p {
                assert_eq!(node, u32::MAX);
                assert_eq!(at_tick, u64::MAX);
            }
        }
    }

    #[test]
    fn command_schedule_covers_all_three_classes() {
        let pts = command_kill_points(13, 12, 64, 4096, 5);
        assert_eq!(pts, command_kill_points(13, 12, 64, 4096, 5));
        let mut commands = 0;
        for (i, p) in pts.iter().enumerate() {
            match (i % 3, p) {
                (0, KillPoint::AfterBatches(n)) => assert!((1..=64).contains(n)),
                (1, KillPoint::AtWalByte { offset, torn }) => {
                    assert!(*offset < 4096 && *torn <= MAX_TORN_BYTES)
                }
                (2, KillPoint::AfterCommands(n)) => {
                    assert!((1..=5).contains(n));
                    commands += 1;
                }
                _ => panic!("point {i} has the wrong class: {p:?}"),
            }
        }
        assert_eq!(commands, 4);
        // Degenerate maxima yield unfireable command kills.
        for p in command_kill_points(13, 3, 0, 0, 0) {
            if let KillPoint::AfterCommands(n) = p {
                assert_eq!(n, u32::MAX);
            }
        }
    }

    #[test]
    fn first_points_of_every_generator_are_pinned() {
        use KillPoint::{AfterBatches as B, AfterCommands as C, AfterRolloutEvents as R};
        let w = |offset, torn| KillPoint::AtWalByte { offset, torn };
        let p = ClusterKillPoint::Process;
        let n = |node, at_tick| ClusterKillPoint::Node { node, at_tick };
        // Recorded before the per-class draws were factored out of the
        // four generators; any change to a subseed tag, class cycle or
        // draw order shows up here.
        assert_eq!(
            kill_points(2024, 6, 500, 90_000),
            [B(229), w(64538, 12), B(437), w(41944, 26), B(307), w(77532, 0)]
        );
        assert_eq!(
            rollout_kill_points(2024, 6, 500, 90_000, 2),
            [B(117), w(38201, 27), R(1), B(240), w(79169, 25), R(1)]
        );
        assert_eq!(
            command_kill_points(2024, 6, 500, 90_000, 9),
            [B(441), w(83235, 32), C(2), B(248), w(60781, 48), C(3)]
        );
        assert_eq!(
            cluster_kill_points(2024, 6, 4, 500, 90_000, 700),
            [
                n(3, 330),
                p(B(454)),
                p(w(57730, 5)),
                n(2, 447),
                p(B(292)),
                p(w(70944, 0)),
            ]
        );
    }

    #[test]
    fn degenerate_reference_never_fires() {
        for p in kill_points(1, 8, 0, 0) {
            match p {
                KillPoint::AfterBatches(n) => assert_eq!(n, u64::MAX),
                KillPoint::AtWalByte { offset, .. } => assert_eq!(offset, u64::MAX),
                KillPoint::AfterRolloutEvents(_) | KillPoint::AfterCommands(_) => {
                    panic!("kill_points never schedules event or command kills")
                }
            }
        }
    }
}
