//! Crash-recovery contract for the `fleetd` streaming evaluation daemon.
//!
//! The headline property: kill the daemon at *any* applied-batch boundary
//! or WAL byte offset — including torn mid-frame writes — restart it,
//! redeliver unacknowledged work, and the per-host output CSV is
//! byte-identical to a run that was never interrupted. This suite drives
//! that property over a seeded schedule of kill points, plus the failure
//! modes around it: poison-batch quarantine, circuit-breaker darkness,
//! overload shedding, and on-disk corruption of the WAL and snapshots.
//!
//! Property suites at the bottom pin the WAL frame scanner and snapshot
//! codec as total functions; `tests/daemon.proptest-regressions` records
//! previously-shrunk failure cases, each re-pinned here as an explicit
//! `regression_*` test.

use std::collections::BTreeMap;

use experiments::daemon::{
    build_batches, hosts_csv, run, unique_run_dir, DaemonRun, DaemonScenario,
};
use experiments::{Corpus, CorpusConfig};
use faultsim::{ByteFaults, KillPoint};
use fleetd::codec::FRAME_HEADER_LEN;
use fleetd::wal::{frame, scan_frames, WAL_MAGIC};
use fleetd::{
    Admit, Daemon, DaemonConfig, DaemonError, EpochState, HostState, KillSwitch, QueueConfig,
    Snapshot, SupervisorConfig, WalRecord, Week, WindowBatch,
};
use hids_core::degraded::HostStatus;
use hids_core::WindowAccumulator;
use proptest::prelude::*;

const WINDOWS_PER_WEEK: u32 = 672;
const BATCH_WINDOWS: usize = 112; // 6 batches per week, 12 per host
const N_USERS: usize = 8;

fn small_corpus() -> Corpus {
    Corpus::generate(CorpusConfig {
        n_users: N_USERS,
        n_weeks: 2,
        ..CorpusConfig::small()
    })
}

fn base_scenario() -> DaemonScenario {
    DaemonScenario {
        batch_windows: BATCH_WINDOWS,
        daemon: DaemonConfig {
            n_shards: 3,
            snapshot_every: 20,
            queue: QueueConfig {
                capacity: 64,
                high: 48,
                low: 16,
                shed_after: 1_000_000,
                quantum: 4,
            },
            ..DaemonConfig::default()
        },
        ..DaemonScenario::default()
    }
}

fn run_in_fresh_dir(
    tag: &str,
    scenario: &DaemonScenario,
    batches: &[WindowBatch],
    kills: &[KillPoint],
) -> DaemonRun {
    let dir = unique_run_dir(tag);
    let result = run(&dir, scenario, batches, kills).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    result
}

// ---------------------------------------------------------------------
// Headline property: byte-identical output CSV across seeded kills.
// ---------------------------------------------------------------------

#[test]
fn kill_recovery_is_byte_identical_at_twenty_seeded_points() {
    let corpus = small_corpus();
    let scenario = base_scenario();
    let batches = build_batches(&corpus, &scenario);
    assert_eq!(batches.len(), N_USERS * 12);

    let reference = run_in_fresh_dir("kill-ref", &scenario, &batches, &[]);
    reference.check().unwrap();
    let ref_csv = hosts_csv(&reference);
    assert_eq!(reference.total_applied, batches.len() as u64);

    let mut points = faultsim::kill_points(
        0xD00D_FEED,
        20,
        reference.total_applied,
        reference.total_wal_bytes,
    );
    // Two handcrafted torn writes on top of the seeded schedule: one dies
    // inside the frame header, one deep inside the payload.
    points.push(KillPoint::AtWalByte {
        offset: reference.total_wal_bytes / 3,
        torn: 7,
    });
    points.push(KillPoint::AtWalByte {
        offset: reference.total_wal_bytes / 2,
        torn: 300,
    });
    assert!(points.len() >= 20);

    let mut fired = 0u32;
    let mut torn_seen = false;
    for (i, &point) in points.iter().enumerate() {
        let killed = run_in_fresh_dir(&format!("kill-{i}"), &scenario, &batches, &[point]);
        assert_eq!(killed.lost_batches, 0, "kill point {i} ({point:?})");
        assert_eq!(
            hosts_csv(&killed),
            ref_csv,
            "hosts CSV diverged at kill point {i} ({point:?})"
        );
        assert!(killed.recovery.kills <= 1);
        fired += killed.recovery.kills;
        torn_seen |= killed.recovery.wal_torn_bytes > 0;
    }
    assert!(
        fired >= 20,
        "at least 20 of the {} scheduled kills must fire, got {fired}",
        points.len()
    );
    assert!(
        torn_seen,
        "at least one torn mid-frame write must be observed and truncated"
    );
}

#[test]
fn repeated_kills_in_one_run_converge() {
    let corpus = small_corpus();
    let scenario = base_scenario();
    let batches = build_batches(&corpus, &scenario);

    let reference = run_in_fresh_dir("multi-ref", &scenario, &batches, &[]);
    let a = reference.total_applied;
    let w = reference.total_wal_bytes;
    // Five kills in increasing order (batch and byte meters advance
    // together), two of them torn mid-frame.
    let kills = [
        KillPoint::AfterBatches(a / 6),
        KillPoint::AtWalByte {
            offset: w / 3,
            torn: 13,
        },
        KillPoint::AfterBatches(a / 2),
        KillPoint::AtWalByte {
            offset: 2 * w / 3,
            torn: 47,
        },
        KillPoint::AfterBatches(a - 1),
    ];
    let killed = run_in_fresh_dir("multi-kill", &scenario, &batches, &kills);
    assert_eq!(killed.recovery.kills, 5);
    assert_eq!(killed.recovery.lifetimes, 6);
    assert_eq!(killed.lost_batches, 0);
    assert!(killed.recovery.wal_torn_bytes > 0, "torn tails were written");
    assert!(
        killed.recovery.snapshots_loaded >= 1,
        "later recoveries start from a snapshot"
    );
    assert_eq!(hosts_csv(&killed), hosts_csv(&reference));
}

// ---------------------------------------------------------------------
// Poison batches: quarantine, survival, degraded coverage accounting.
// ---------------------------------------------------------------------

#[test]
fn poison_batch_is_quarantined_and_coverage_accounted() {
    let corpus = small_corpus();
    let mut scenario = base_scenario();
    scenario.poison_hosts = vec![3];
    let batches = build_batches(&corpus, &scenario);

    let r1 = run_in_fresh_dir("poison-a", &scenario, &batches, &[]);
    r1.check().unwrap();
    assert_eq!(r1.recovery.lifetimes, 1, "the panic must not kill the daemon");
    assert_eq!(r1.stats.quarantined, 1);
    assert_eq!(r1.lost_batches, 0);

    // Host 3 lost exactly its poisoned first test batch; the degraded
    // evaluation sees precisely that coverage hole.
    let eval = r1.evaluation.as_ref().expect("population evaluates");
    let missing = BATCH_WINDOWS as f64 / f64::from(WINDOWS_PER_WEEK);
    for (i, (host, st)) in r1.hosts.iter().enumerate() {
        let u = &eval.users[i];
        assert_eq!(u.train_coverage, 1.0);
        if *host == 3 {
            assert_eq!(u.status, HostStatus::Evaluated);
            assert_eq!(u.test_coverage, 1.0 - missing);
            assert_eq!(st.test.len(), WINDOWS_PER_WEEK as usize - BATCH_WINDOWS);
        } else {
            assert_eq!(u.test_coverage, 1.0, "host {host} must be untouched");
        }
    }

    // A kill in the middle of the poisoned scenario still converges to
    // the identical CSV: quarantine is deterministic across restarts.
    let killed = run_in_fresh_dir(
        "poison-b",
        &scenario,
        &batches,
        &[KillPoint::AfterBatches(r1.total_applied / 2)],
    );
    assert_eq!(killed.lost_batches, 0);
    assert_eq!(hosts_csv(&killed), hosts_csv(&r1));
}

// ---------------------------------------------------------------------
// Circuit breaker: a crash-looping shard goes dark and sheds, feeding
// the degraded evaluation's coverage accounting.
// ---------------------------------------------------------------------

#[test]
fn breaker_trips_shard_dark_and_sheds_deterministically() {
    let corpus = small_corpus();
    let mut scenario = base_scenario();
    scenario.poison_hosts = vec![0];
    // A huge quarantine budget turns the poison batch into a pure crash
    // loop; the breaker must cut it off after three consecutive panics.
    scenario.daemon.supervisor = SupervisorConfig {
        backoff_base: 1,
        backoff_cap_exp: 4,
        quarantine_strikes: 1000,
        breaker_failures: 3,
    };
    let batches = build_batches(&corpus, &scenario);

    let r = run_in_fresh_dir("breaker-a", &scenario, &batches, &[]);
    r.check().unwrap();
    assert_eq!(r.recovery.lifetimes, 1);
    assert_eq!(r.stats.breaker_trips, 1);
    assert_eq!(r.lost_batches, 0, "dark-shard arrivals shed, not lose");
    // Shard 0 owns hosts {0, 3, 6}. All training applied before the trip
    // (train batches precede test batches per host); every test batch of
    // the dark shard sheds: 3 at the trip (the re-queued poison plus the
    // two queued peers) and the rest on arrival.
    assert_eq!(r.stats.shed_dark, 3 * 6);
    assert_eq!(r.stats.applied, (N_USERS as u64 - 3) * 6 + N_USERS as u64 * 6);

    let eval = r.evaluation.as_ref().expect("population evaluates");
    for (i, (host, st)) in r.hosts.iter().enumerate() {
        let u = &eval.users[i];
        assert_eq!(u.train_coverage, 1.0);
        if host % 3 == 0 {
            assert_eq!(u.test_coverage, 0.0, "host {host} went dark mid-test");
            assert_ne!(u.status, HostStatus::Evaluated);
            assert!(st.test.is_empty());
        } else {
            assert_eq!(u.test_coverage, 1.0);
            assert_eq!(u.status, HostStatus::Evaluated);
        }
    }

    // Deterministic: the identical schedule reproduces counters and CSV.
    let r2 = run_in_fresh_dir("breaker-b", &scenario, &batches, &[]);
    assert_eq!(r2.stats, r.stats);
    assert_eq!(hosts_csv(&r2), hosts_csv(&r));
}

// ---------------------------------------------------------------------
// Overload: watermark backpressure bounds memory; stale work sheds
// deterministically under the conservation law.
// ---------------------------------------------------------------------

#[test]
fn sustained_overload_sheds_deterministically_within_memory_bound() {
    let corpus = small_corpus();
    let mut scenario = base_scenario();
    // One slow shard for the whole fleet: 1 batch per tick against 8
    // stop-and-wait senders, freshness deadline of 3 ticks.
    scenario.daemon.n_shards = 1;
    scenario.daemon.queue = QueueConfig {
        capacity: 16,
        high: 6,
        low: 2,
        shed_after: 3,
        quantum: 1,
    };
    let batches = build_batches(&corpus, &scenario);

    let r = run_in_fresh_dir("overload-a", &scenario, &batches, &[]);
    r.check().unwrap();
    assert_eq!(r.recovery.lifetimes, 1);
    assert!(r.stats.shed_overload > 0, "overload must shed stale work");
    assert_eq!(r.stats.overflow, 0, "backpressure-honoring source never overflows");
    assert!(
        r.max_queue_depth <= scenario.daemon.queue.high,
        "queue memory bound violated: depth {} > high watermark {}",
        r.max_queue_depth,
        scenario.daemon.queue.high
    );
    // Conservation at quiescence: every admitted batch has exactly one
    // terminal disposition.
    assert_eq!(
        r.stats.admitted,
        r.stats.applied + r.stats.duplicates + r.stats.shed_overload
    );
    assert_eq!(r.lost_batches, 0);

    let r2 = run_in_fresh_dir("overload-b", &scenario, &batches, &[]);
    assert_eq!(r2.stats, r.stats);
    assert_eq!(hosts_csv(&r2), hosts_csv(&r));
}

// ---------------------------------------------------------------------
// On-disk corruption: recovery is total, and at-least-once redelivery
// converges back to the uninterrupted state.
// ---------------------------------------------------------------------

/// Offer every batch directly and drain; per-shard FIFOs preserve each
/// host's seq order, so this is equivalent to the harness delivery path.
fn offer_all_and_drain(daemon: &mut Daemon, kill: &mut KillSwitch, batches: &[WindowBatch]) {
    for b in batches {
        assert_ne!(daemon.offer(b.clone()), Admit::Overflow);
    }
    assert!(daemon.drain(kill, 1_000_000).unwrap());
}

fn final_hosts(daemon: &Daemon) -> Vec<(u32, HostState)> {
    daemon
        .hosts()
        .into_iter()
        .map(|(h, s)| (h, s.clone()))
        .collect()
}

#[test]
fn wal_corruption_is_truncated_and_redelivery_converges() {
    let corpus = small_corpus();
    let scenario = base_scenario();
    let batches = build_batches(&corpus, &scenario);
    let reference = run_in_fresh_dir("corrupt-ref", &scenario, &batches, &[]);

    let dir = unique_run_dir("corrupt-wal");
    // Run two thirds of the way in, then die at a batch boundary.
    {
        let (mut d, _) = Daemon::open(&dir, scenario.daemon).unwrap();
        let mut kill = KillSwitch::armed(KillPoint::AfterBatches(2 * reference.total_applied / 3));
        for b in &batches {
            assert_ne!(d.offer(b.clone()), Admit::Overflow);
        }
        match d.drain(&mut kill, 1_000_000) {
            Err(DaemonError::Killed) => {}
            other => panic!("expected the kill switch to fire, got {other:?}"),
        }
    }
    // Bit-rot and truncate the WAL.
    let wal_path = dir.join("wal.bin");
    let wal = std::fs::read(&wal_path).unwrap();
    assert!(!wal.is_empty());
    let faults = ByteFaults {
        bitflip_rate: 0.002,
        truncate_prob: 1.0,
        bad_length_rate: 0.0,
        corrupt_magic: false,
    };
    let (corrupted, log) = faults.apply(&wal, 0xBAD_5EED);
    assert!(!log.is_clean());
    std::fs::write(&wal_path, &corrupted).unwrap();

    // Recovery must not panic, must truncate to a valid prefix, and full
    // redelivery (seq-deduped) must converge to the uninterrupted state.
    let (mut d, rec) = Daemon::open(&dir, scenario.daemon).unwrap();
    assert!(rec.wal_rejected == 0 && rec.wal_quarantined == 0);
    let mut kill = KillSwitch::none();
    offer_all_and_drain(&mut d, &mut kill, &batches);
    assert_eq!(final_hosts(&d), reference.hosts);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_snapshots_are_discarded_and_redelivery_rebuilds() {
    let corpus = small_corpus();
    let scenario = base_scenario();
    let batches = build_batches(&corpus, &scenario);
    let reference = run_in_fresh_dir("snapcorrupt-ref", &scenario, &batches, &[]);

    let dir = unique_run_dir("snapcorrupt");
    {
        let (mut d, _) = Daemon::open(&dir, scenario.daemon).unwrap();
        let mut kill = KillSwitch::armed(KillPoint::AfterBatches(3 * reference.total_applied / 4));
        for b in &batches {
            assert_ne!(d.offer(b.clone()), Admit::Overflow);
        }
        match d.drain(&mut kill, 1_000_000) {
            Err(DaemonError::Killed) => {}
            other => panic!("expected the kill switch to fire, got {other:?}"),
        }
    }
    // Flip one byte in every retained snapshot and drop the WAL (without
    // its snapshot base a surviving WAL tail would be a mid-stream slice,
    // which dedup correctly refuses to backfill — the disaster-recovery
    // story for losing *all* checkpoints is full redelivery).
    let snaps = fleetd::snapshot::list_snapshots(&dir).unwrap();
    assert_eq!(snaps.len(), 2, "keep-two retention");
    for (_, path) in &snaps {
        let mut bytes = std::fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(path, &bytes).unwrap();
    }
    std::fs::remove_file(dir.join("wal.bin")).unwrap();

    let (mut d, rec) = Daemon::open(&dir, scenario.daemon).unwrap();
    assert_eq!(rec.snapshots_discarded, 2, "every flipped image is rejected");
    assert!(rec.snapshot_seq.is_none());
    let mut kill = KillSwitch::none();
    offer_all_and_drain(&mut d, &mut kill, &batches);
    assert_eq!(final_hosts(&d), reference.hosts);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn both_snapshots_corrupt_with_surviving_wal_recovers_from_wal_alone() {
    // Snapshot-retention worst case: every retained checkpoint is damaged
    // but the WAL survived. Recovery must discard both images with a
    // warning-grade report — never a panic — and rebuild exactly the
    // state the WAL tail (everything since the last checkpoint) encodes.
    let corpus = small_corpus();
    let mut scenario = base_scenario();
    // Checkpoints are taken explicitly below; an automatic one mid-tail
    // would reset the WAL and shrink the tail under test.
    scenario.daemon.snapshot_every = 1_000_000;
    let batches = build_batches(&corpus, &scenario);
    // Per-host seq order within each third is what the daemon sees from
    // stop-and-wait delivery, so offering thirds in order is equivalent.
    let thirds: Vec<&[WindowBatch]> = batches.chunks(batches.len() / 3).collect();

    let dir = unique_run_dir("allsnapcorrupt");
    {
        let (mut d, _) = Daemon::open(&dir, scenario.daemon).unwrap();
        let mut kill = KillSwitch::none();
        offer_all_and_drain(&mut d, &mut kill, thirds[0]);
        d.checkpoint().unwrap();
        offer_all_and_drain(&mut d, &mut kill, thirds[1]);
        d.checkpoint().unwrap();
        // The tail after the last checkpoint lives only in the WAL.
        for third in &thirds[2..] {
            offer_all_and_drain(&mut d, &mut kill, third);
        }
        assert!(d.wal_len() > 0, "tail must be WAL-only");
    }
    let snaps = fleetd::snapshot::list_snapshots(&dir).unwrap();
    assert_eq!(snaps.len(), 2, "keep-two retention");
    for (_, path) in &snaps {
        let mut bytes = std::fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(path, &bytes).unwrap();
    }
    // Unlike `corrupt_snapshots_are_discarded_and_redelivery_rebuilds`,
    // wal.bin is deliberately KEPT.

    let (mut d, rec) = Daemon::open(&dir, scenario.daemon).unwrap();
    assert_eq!(rec.snapshots_discarded, 2, "both images rejected, no panic");
    assert!(rec.snapshot_seq.is_none(), "nothing usable to load");
    let tail_batches: u64 = thirds[2..].iter().map(|t| t.len() as u64).sum();
    assert_eq!(rec.wal_replayed, tail_batches, "full WAL-only replay");
    assert_eq!(rec.wal_torn_bytes, 0);

    // WAL-only replay must equal a fresh daemon fed exactly the tail.
    let expect_dir = unique_run_dir("allsnapcorrupt-expect");
    let (mut expect, _) = Daemon::open(&expect_dir, scenario.daemon).unwrap();
    let mut kill = KillSwitch::none();
    for third in &thirds[2..] {
        offer_all_and_drain(&mut expect, &mut kill, third);
    }
    assert_eq!(final_hosts(&d), final_hosts(&expect));

    // And the recovered daemon is still live: new work after the replayed
    // tail applies cleanly.
    let extra = WindowBatch {
        host: 0,
        seq: batches.iter().filter(|b| b.host == 0).map(|b| b.seq).max().unwrap() + 1,
        week: Week::Test,
        start: 0,
        counts: vec![1],
        poison: false,
    };
    assert_ne!(d.offer(extra), Admit::Overflow);
    assert!(d.drain(&mut kill, 1_000).unwrap());

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&expect_dir).unwrap();
}

// ---------------------------------------------------------------------
// Property suites: the WAL scanner and snapshot codec are total, and
// recovery is exact on every prefix.
// ---------------------------------------------------------------------

fn arb_batch() -> impl Strategy<Value = WindowBatch> {
    (
        0u32..32,
        1u64..64,
        any::<bool>(),
        0u32..600,
        proptest::collection::vec(0u64..10_000, 0..40),
    )
        .prop_map(|(host, seq, test_week, start, counts)| WindowBatch {
            host,
            seq,
            week: if test_week { Week::Test } else { Week::Train },
            start,
            counts,
            poison: false,
        })
}

fn concat_frames(batches: &[WindowBatch]) -> (Vec<u8>, Vec<usize>) {
    let mut log = Vec::new();
    let mut ends = Vec::new();
    for b in batches {
        log.extend(frame(&WalRecord::Batch(b.clone())));
        ends.push(log.len());
    }
    (log, ends)
}

fn arb_host_state() -> impl Strategy<Value = HostState> {
    (
        0u64..64,
        proptest::collection::vec((0u32..672, 0u64..100_000), 0..32),
        proptest::collection::vec((0u32..672, 0u64..100_000), 0..32),
        (any::<bool>(), 0u64..1_000_000),
        0u64..1000,
    )
        .prop_map(|(last_seq, train, test, (has_thresh, thresh), live_alarms)| HostState {
            last_seq,
            train: WindowAccumulator::from_pairs(train),
            test: WindowAccumulator::from_pairs(test),
            threshold: has_thresh.then(|| thresh as f64 / 7.0),
            live_alarms,
            pinned: (last_seq % 3 == 0).then(|| thresh as f64 / 11.0),
            promoted: (!has_thresh).then(|| (live_alarms as u32 % 672, thresh as f64 / 3.0)),
            train_sketch: None,
            test_sketch: None,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The frame scanner is total on arbitrary bytes, and whatever it
    /// accepts re-frames to exactly the valid prefix it reported.
    #[test]
    fn wal_scan_is_total_and_exact(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let (records, valid, defect) = scan_frames(&bytes);
        prop_assert!(valid as usize <= bytes.len());
        let mut reframed = Vec::new();
        for r in &records {
            reframed.extend(frame(r));
        }
        prop_assert_eq!(&reframed[..], &bytes[..valid as usize]);
        if (valid as usize) < bytes.len() {
            prop_assert!(defect.is_some(), "unconsumed bytes demand a defect");
        }
    }

    /// Cutting a well-formed log at any byte recovers exactly the frames
    /// that fit entirely before the cut; a mid-frame cut is flagged.
    #[test]
    fn wal_prefix_recovery_is_exact(
        batches in proptest::collection::vec(arb_batch(), 1..12),
        cut_frac in 0.0f64..1.0,
    ) {
        let (log, ends) = concat_frames(&batches);
        let cut = ((log.len() as f64) * cut_frac) as usize;
        let (recovered, valid, defect) = scan_frames(&log[..cut]);
        let whole = ends.iter().take_while(|&&e| e <= cut).count();
        prop_assert_eq!(recovered.len(), whole);
        prop_assert_eq!(valid as usize, if whole == 0 { 0 } else { ends[whole - 1] });
        for (got, want) in recovered.iter().zip(&batches) {
            prop_assert_eq!(got, &WalRecord::Batch(want.clone()));
        }
        // The cut is mid-frame exactly when bytes remain past the last
        // whole frame — and that torn tail must be flagged, never fatal.
        prop_assert_eq!(defect.is_some(), (valid as usize) < cut);
    }

    /// A single flipped byte anywhere in a log never panics the scanner
    /// and never damages frames that precede the flip.
    #[test]
    fn wal_single_byte_flip_keeps_earlier_frames(
        batches in proptest::collection::vec(arb_batch(), 1..10),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let (mut log, ends) = concat_frames(&batches);
        let pos = (((log.len() - 1) as f64) * pos_frac) as usize;
        log[pos] ^= 1 << bit;
        let (recovered, valid, _) = scan_frames(&log);
        prop_assert!(valid as usize <= log.len());
        let intact = ends.iter().take_while(|&&e| e <= pos).count();
        prop_assert!(recovered.len() >= intact, "frames before the flip survive");
        for (got, want) in recovered.iter().take(intact).zip(&batches) {
            prop_assert_eq!(got, &WalRecord::Batch(want.clone()));
        }
    }

    /// Snapshot images roundtrip exactly through encode/decode.
    #[test]
    fn snapshot_roundtrips(
        seq in 1u64..1_000_000,
        hosts in proptest::collection::vec((0u32..64, arb_host_state()), 0..8),
    ) {
        let hosts: BTreeMap<u32, HostState> = hosts.into_iter().collect();
        let snap = Snapshot { seq, n_windows: WINDOWS_PER_WEEK, hosts, epoch: EpochState::default(), drained: Vec::new() };
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        prop_assert_eq!(decoded, snap);
    }

    /// Any single-byte corruption of a snapshot image is detected.
    #[test]
    fn snapshot_flip_is_detected(
        hosts in proptest::collection::vec((0u32..64, arb_host_state()), 1..6),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let hosts: BTreeMap<u32, HostState> = hosts.into_iter().collect();
        let snap = Snapshot { seq: 7, n_windows: WINDOWS_PER_WEEK, hosts, epoch: EpochState::default(), drained: vec![1] };
        let mut bytes = snap.encode();
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        bytes[pos] ^= flip;
        prop_assert!(Snapshot::decode(&bytes).is_err());
    }
}

// ---------------------------------------------------------------------
// Pinned regressions from tests/daemon.proptest-regressions. The
// vendored proptest stub does not read that file, so each recorded
// shrink is re-run here explicitly.
// ---------------------------------------------------------------------

/// Shrink `bytes = [87, 76, 82, 49]`: a bare magic with no header must
/// scan to zero frames with a short-header defect, not a panic.
#[test]
fn regression_bare_magic_is_short_header() {
    let (batches, valid, defect) = scan_frames(&WAL_MAGIC);
    assert!(batches.is_empty());
    assert_eq!(valid, 0);
    assert!(defect.is_some());
}

/// Shrink `cut = 12`: a cut exactly at the end of the frame header (a
/// complete header, zero payload bytes) is a torn tail, not a frame.
#[test]
fn regression_cut_at_header_boundary() {
    let batch = WindowBatch {
        host: 0,
        seq: 1,
        week: Week::Train,
        start: 0,
        counts: vec![5],
        poison: false,
    };
    let frame = frame(&WalRecord::Batch(batch));
    assert!(frame.len() > FRAME_HEADER_LEN);
    let (batches, valid, defect) = scan_frames(&frame[..FRAME_HEADER_LEN]);
    assert!(batches.is_empty());
    assert_eq!(valid, 0);
    assert!(defect.is_some());
}

/// Shrink `(pos, bit) = (first byte of frame 2, 0)`: a flip landing on a
/// later frame's magic truncates there and keeps the first frame whole.
#[test]
fn regression_flip_in_second_frame_magic() {
    let b1 = WindowBatch {
        host: 1,
        seq: 1,
        week: Week::Train,
        start: 0,
        counts: vec![1, 2, 3],
        poison: false,
    };
    let b2 = WindowBatch {
        host: 1,
        seq: 2,
        week: Week::Test,
        start: 0,
        counts: vec![4, 5, 6],
        poison: false,
    };
    let (mut log, ends) = concat_frames(&[b1.clone(), b2]);
    log[ends[0]] ^= 1; // first byte of the second frame's magic
    let (records, valid, defect) = scan_frames(&log);
    assert_eq!(records, vec![WalRecord::Batch(b1)]);
    assert_eq!(valid as usize, ends[0]);
    assert!(defect.is_some());
}

/// Shrink `counts = []`: an empty batch frames and scans cleanly — the
/// scanner must not equate a zero-window payload with a torn record.
#[test]
fn regression_empty_batch_roundtrips() {
    let batch = WindowBatch {
        host: 9,
        seq: 3,
        week: Week::Test,
        start: 600,
        counts: Vec::new(),
        poison: true,
    };
    let frame = frame(&WalRecord::Batch(batch.clone()));
    let (records, valid, defect) = scan_frames(&frame);
    assert_eq!(records, vec![WalRecord::Batch(batch)]);
    assert_eq!(valid as usize, frame.len());
    assert!(defect.is_none());
}

/// Shrink `hosts = {0: empty-accumulator host}`: a host that has never
/// applied a window still snapshots and restores (threshold `None`,
/// empty accumulators).
#[test]
fn regression_snapshot_of_blank_host() {
    let mut hosts = BTreeMap::new();
    hosts.insert(0u32, HostState::default());
    let snap = Snapshot {
        seq: 1,
        n_windows: WINDOWS_PER_WEEK,
        hosts,
        epoch: EpochState::default(),
        drained: Vec::new(),
    };
    let decoded = Snapshot::decode(&snap.encode()).unwrap();
    assert_eq!(decoded, snap);
}
