//! Golden bytes for every CRC-framed format fleetd writes.
//!
//! Each case encodes one fixed value through the public framing entry
//! points and compares the result against bytes recorded before the four
//! formats (`WLR1`, `CLW1`, `FSN1`, `CSN1`) shared one frame codec. Small
//! frames are pinned as full hex; the two snapshot images as length plus
//! FNV-1a-64. Any change to the on-disk or on-wire encoding fails here.

use std::collections::BTreeMap;

use fleetd::cluster::{AssignEvent, ClusterSnapshot};
use fleetd::control::ControlCommand;
use fleetd::epoch::{
    CandidateState, EpochOutcome, EpochRecord, EpochState, GateStats, RollbackReason, RolloutEvent,
};
use fleetd::wal::frame;
use fleetd::wire::{frame_msg, ClusterMsg};
use fleetd::{Disposition, HostState, Snapshot, WalRecord, Week, WindowBatch};
use hids_core::{SketchAccumulator, WindowAccumulator};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn batch() -> WindowBatch {
    WindowBatch {
        host: 42,
        seq: 7,
        week: Week::Test,
        start: 96,
        counts: vec![0, 3, 1_000_000],
        poison: false,
    }
}

/// The daemon snapshot image: exact-mode and sketch-mode hosts, a blank
/// host, an in-flight candidate, one concluded epoch and two drained shards.
fn daemon_snapshot() -> Snapshot {
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
            ..Default::default()
        },
    );
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
    Snapshot {
        seq: 7,
        n_windows: 672,
        hosts,
        epoch: EpochState {
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
        },
        drained: vec![0, 2],
    }
}

#[test]
fn every_frame_kind_encodes_to_its_recorded_bytes() {
    let mut thresholds = BTreeMap::new();
    thresholds.insert(3, 12.25);
    thresholds.insert(8, 0.5);
    let rebalance = AssignEvent::Rebalance {
        epoch: 2,
        from: 1,
        moved: vec![(5, 0), (9, 3)],
    };

    let hex_cases: [(&str, Vec<u8>, &str); 9] = [
        ("wal batch", frame(&WalRecord::Batch(batch())), "574c52312f00000095087c31002a0000000700000000000000010060000000030000000000000000000000030000000000000040420f0000000000"),
        (
            "wal rollout begin",
            frame(&WalRecord::Rollout(RolloutEvent::Begin {
                epoch: 2,
                soak_start: 200,
                soak_end: 300,
                thresholds,
            })),
            "574c52312a0000005c56bbfa010002000000c80000002c0100000200000003000000000000000080284008000000000000000000e03f",
        ),
        (
            "wal rollout rollback",
            frame(&WalRecord::Rollout(RolloutEvent::Rollback {
                epoch: 3,
                reason: RollbackReason::AlarmDrop,
            })),
            "574c523107000000ab5e7aa801020300000003",
        ),
        (
            "wal command",
            frame(&WalRecord::Command(ControlCommand::PinThreshold { host: 4, t: 7.25 })),
            "574c52310e0000001c72f5670201040000000000000000001d40",
        ),
        ("cluster.wal rebalance", frame(&rebalance), "574c52311d0000002cf778f20202000000010000000200000005000000000000000900000003000000"),
        (
            "wire batch",
            frame_msg(&ClusterMsg::Batch {
                node: 2,
                epoch: 7,
                batch: batch(),
            }),
            "434c5731370000009873a0ec0002000000070000002a0000000700000000000000010060000000030000000000000000000000030000000000000040420f0000000000",
        ),
        (
            "wire ack",
            frame_msg(&ClusterMsg::Ack {
                node: 1,
                epoch: 5,
                host: 9,
                seq: 3,
                disposition: Disposition::ShedDark,
            }),
            "434c5731160000000648006d01010000000500000009000000030000000000000004",
        ),
        (
            "wire heartbeat",
            frame_msg(&ClusterMsg::Heartbeat { node: 3, ticks: 41 }),
            "434c57310d00000044588ffe02030000002900000000000000",
        ),
        (
            "csn1 image",
            ClusterSnapshot {
                seq: 3,
                epoch: 2,
                n_nodes: 4,
                vnodes: 64,
                live: vec![0, 1, 3],
                pending_dead: vec![2],
                overrides: vec![(7, 0, 2), (9, 3, 2)],
            }
            .encode(),
            "43534e31480000001486116d030000000000000002000000040000004000000003000000000000000100000003000000010000000200000002000000070000000000000002000000090000000300000002000000",
        ),
    ];
    let mut mismatches = Vec::new();
    for (name, bytes, want) in &hex_cases {
        if hex(bytes) != *want {
            mismatches.push(format!("{name}: {}", hex(bytes)));
        }
    }
    let fsn1 = daemon_snapshot().encode();
    let got = (fsn1.len(), fnv1a64(&fsn1));
    if got != (647, 0x453d_01fc_76c6_362b) {
        mismatches.push(format!("fsn1 image: ({}, {:#018x})", got.0, got.1));
    }
    assert!(
        mismatches.is_empty(),
        "encodings drifted:\n{}",
        mismatches.join("\n")
    );
}
