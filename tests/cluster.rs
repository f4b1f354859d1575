//! Fault-tolerance contract for the sharded `fleetd` cluster.
//!
//! The headline property extends the single-daemon crash-recovery
//! contract across a wire boundary: run the same corpus stream through
//! 1, 2, or 4 worker nodes — under seeded silent node kills, process
//! kills, torn WAL/journal writes, and lossy links — and the merged
//! per-host CSV plus the evaluation metrics snapshot are byte-identical
//! to an uninterrupted single-node run. Alongside it, the satellites:
//! the `CLW1` wire decoder is a total function with bounded allocation
//! under adversarial length prefixes (property-tested), the delivery
//! retry path survives attempt counts past the shift width (the PR 5
//! saturating-shift regression, now on the wire path), and a cluster
//! whose newest snapshot *and* journal tail are both torn mid-handoff
//! recovers to the pre-handoff assignment with no half-moved host.

use experiments::cluster::{
    determinism_snapshot, hosts_csv, run, ClusterRun, ClusterScenario,
};
use experiments::daemon::{build_batches_for, unique_run_dir};
use experiments::{Corpus, CorpusConfig};
use faultsim::{cluster_kill_points, ClusterKillPoint, KillPoint, LinkFaults};
use fleetd::codec::FRAME_HEADER_LEN;
use fleetd::snapshot::list_images;
use fleetd::wal::frame;
use fleetd::wire::{frame_msg, ClusterMsg, WireDecoder, MAX_WIRE_PAYLOAD};
use fleetd::{
    AssignEvent, Cluster, ClusterKillSwitch, ClusterSnapshot, Disposition, Week, WindowBatch,
};
use hids_core::degraded::HostStatus;
use itconsole::{DeliveryConfig, DeliveryQueue};
use proptest::prelude::*;

const BATCH_WINDOWS: usize = 112; // 6 batches per week, 12 per host
const N_USERS: usize = 8;

fn small_corpus() -> Corpus {
    Corpus::generate(CorpusConfig {
        n_users: N_USERS,
        n_weeks: 2,
        ..CorpusConfig::small()
    })
}

fn scenario(n_nodes: u32) -> ClusterScenario {
    let mut s = ClusterScenario {
        batch_windows: BATCH_WINDOWS,
        ..ClusterScenario::default()
    };
    s.cluster.n_nodes = n_nodes;
    s
}

fn batches_for(corpus: &Corpus, s: &ClusterScenario) -> Vec<WindowBatch> {
    build_batches_for(corpus, s.feature, s.batch_windows, &s.poison_hosts)
}

fn run_in_fresh_dir(
    tag: &str,
    s: &ClusterScenario,
    batches: &[WindowBatch],
    kills: &[ClusterKillPoint],
) -> ClusterRun {
    let dir = unique_run_dir(tag);
    let result = run(&dir, s, batches, kills).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    result
}

// ---------------------------------------------------------------------
// Headline property 1: node-count transparency.
// ---------------------------------------------------------------------

#[test]
fn hosts_csv_is_byte_identical_across_one_two_and_four_nodes() {
    let corpus = small_corpus();
    let s1 = scenario(1);
    let batches = batches_for(&corpus, &s1);
    assert_eq!(batches.len(), N_USERS * 12);

    let one = run_in_fresh_dir("nid-1", &s1, &batches, &[]);
    one.check().unwrap();
    assert_eq!(one.lost_batches, 0);
    assert_eq!(one.total_applied, batches.len() as u64);
    let ref_csv = hosts_csv(&one);
    let ref_metrics = determinism_snapshot(&one);
    assert!(ref_metrics.contains("hids_degraded"), "evaluation families present");

    for n in [2u32, 4] {
        let multi = run_in_fresh_dir(&format!("nid-{n}"), &scenario(n), &batches, &[]);
        multi.check().unwrap();
        assert_eq!(multi.lost_batches, 0, "{n}-node run lost batches");
        assert_eq!(hosts_csv(&multi), ref_csv, "{n}-node hosts CSV diverged");
        assert_eq!(
            determinism_snapshot(&multi),
            ref_metrics,
            "{n}-node metrics snapshot diverged"
        );
    }
}

// ---------------------------------------------------------------------
// Headline property 2: byte-identical output across a seeded kill sweep
// (silent node deaths by heartbeat expiry, batch-boundary process kills,
// and torn mid-record WAL/journal writes).
// ---------------------------------------------------------------------

#[test]
fn kill_sweep_is_byte_identical_at_twelve_seeded_points() {
    let corpus = small_corpus();
    let s = scenario(2);
    let batches = batches_for(&corpus, &s);

    let reference = run_in_fresh_dir("sweep-ref", &s, &batches, &[]);
    reference.check().unwrap();
    assert_eq!(reference.lost_batches, 0);
    let ref_csv = hosts_csv(&reference);
    let ref_metrics = determinism_snapshot(&reference);

    let mut points: Vec<Vec<ClusterKillPoint>> = cluster_kill_points(
        0xD15C_0BA1,
        12,
        s.cluster.n_nodes,
        reference.total_applied,
        reference.total_wal_bytes,
        reference.total_ticks,
    )
    .into_iter()
    .map(|p| vec![p])
    .collect();
    // Handcrafted schedules on top of the seeded ones: a node death
    // followed by a process kill inside the resulting dark window /
    // handoff (mid-handoff recovery), and a torn journal write landing
    // while a host is mid-stream (mid-batch).
    points.push(vec![
        ClusterKillPoint::Node { node: 1, at_tick: 5 },
        ClusterKillPoint::Process(KillPoint::AfterBatches(reference.total_applied / 2)),
    ]);
    points.push(vec![
        ClusterKillPoint::Node { node: 1, at_tick: 8 },
        ClusterKillPoint::Process(KillPoint::AtWalByte {
            offset: reference.total_wal_bytes / 2,
            torn: 9,
        }),
    ]);
    points.push(vec![ClusterKillPoint::Process(KillPoint::AtWalByte {
        offset: reference.total_wal_bytes / 3,
        torn: 31,
    })]);
    assert!(points.len() >= 12);

    let mut node_deaths = 0u64;
    let mut process_kills = 0u32;
    let mut dark_windows = 0usize;
    for (i, schedule) in points.iter().enumerate() {
        let killed = run_in_fresh_dir(&format!("sweep-{i}"), &s, &batches, schedule);
        killed.check().unwrap();
        assert_eq!(killed.lost_batches, 0, "sweep point {i} ({schedule:?})");
        assert_eq!(
            hosts_csv(&killed),
            ref_csv,
            "hosts CSV diverged at sweep point {i} ({schedule:?})"
        );
        assert_eq!(
            determinism_snapshot(&killed),
            ref_metrics,
            "metrics snapshot diverged at sweep point {i} ({schedule:?})"
        );
        if killed.node_deaths_total > 0 {
            // A silently-killed node must be detected by heartbeat
            // expiry and its hosts surfaced as a dark window before the
            // rebalance brings them back.
            assert!(
                !killed.dark_episodes.is_empty(),
                "node death without a dark window at sweep point {i}"
            );
            dark_windows += killed.dark_episodes.len();
        }
        node_deaths += killed.node_deaths_total;
        process_kills += killed.recovery.kills;
    }
    assert!(node_deaths >= 3, "sweep never exercised heartbeat expiry");
    assert!(process_kills >= 3, "sweep never exercised process kills");
    assert!(dark_windows >= 3, "sweep never observed dark windows");
}

// ---------------------------------------------------------------------
// Dark accounting: a dead node's hosts read as Dark through the
// degraded coverage accounting until the rebalance completes.
// ---------------------------------------------------------------------

#[test]
fn dead_node_hosts_are_dark_until_rebalance_completes() {
    let corpus = small_corpus();
    let s = scenario(2);
    let batches = batches_for(&corpus, &s);
    let killed = run_in_fresh_dir(
        "dark",
        &s,
        &batches,
        &[ClusterKillPoint::Node { node: 1, at_tick: 6 }],
    );
    killed.check().unwrap();
    assert_eq!(killed.node_deaths_total, 1);
    assert!(killed.rebalances_total >= 1);
    assert!(!killed.dark_episodes.is_empty());
    let dark_hosts: Vec<u32> = killed
        .dark_episodes
        .iter()
        .flat_map(|e| e.hosts.iter().copied())
        .collect();
    assert!(!dark_hosts.is_empty(), "the dead node owned no hosts");
    let (_, mid_eval) = killed.dark_evaluation.as_ref().expect("mid-window evaluation");
    for (i, (host, _)) in killed.hosts.iter().enumerate() {
        if dark_hosts.contains(host) {
            assert_eq!(
                mid_eval.users[i].status,
                HostStatus::Dark,
                "host {host} not Dark during the window"
            );
        }
    }
    // After the rebalance the final evaluation has no dark hosts left.
    let final_eval = killed.evaluation.as_ref().expect("final evaluation");
    assert!(
        final_eval.users.iter().all(|u| u.status != HostStatus::Dark),
        "hosts still dark after rebalance completed"
    );
}

// ---------------------------------------------------------------------
// Lossy links: drops, duplicates, reorders, and bit corruption on every
// link — the ARQ plus resynchronizing decoder must still converge to the
// identical table.
// ---------------------------------------------------------------------

#[test]
fn lossy_links_preserve_the_hosts_csv() {
    let corpus = small_corpus();
    let clean = scenario(2);
    let batches = batches_for(&corpus, &clean);
    let reference = run_in_fresh_dir("link-ref", &clean, &batches, &[]);

    let mut lossy = scenario(2);
    lossy.cluster.link = LinkFaults::with_severity(1.0);
    // At full severity ~13% of frames die per direction; with the default
    // 4-interval timeout a long run will eventually miss enough
    // consecutive heartbeats to declare a healthy node dead — and a
    // second spurious death would leave no survivor to rebalance onto.
    // 16 intervals makes spurious death (p ≈ 0.13^16) unreachable while
    // still exercising every fault class on the data path.
    lossy.cluster.heartbeat_timeout = 64;
    let faulted = run_in_fresh_dir("link-lossy", &lossy, &batches, &[]);
    faulted.check().unwrap();
    assert_eq!(faulted.lost_batches, 0, "retry budget exhausted under link faults");
    let log = &faulted.links;
    assert!(
        log.dropped > 0 && log.duplicated > 0 && log.reordered > 0 && log.corrupted > 0,
        "fault mix not exercised: {log:?}"
    );
    assert!(
        faulted.wire.resyncs > 0,
        "corrupted frames never forced a decoder resync"
    );
    assert_eq!(hosts_csv(&faulted), hosts_csv(&reference));
    assert_eq!(
        determinism_snapshot(&faulted),
        determinism_snapshot(&reference)
    );
}

// ---------------------------------------------------------------------
// Satellite: double-torn mid-handoff recovery, end to end on real files.
// The newest cluster snapshot is corrupted AND the journal tail is a
// torn Rebalance record; recovery must fall back to the older snapshot,
// replay the journal prefix, and land on the pre-handoff assignment —
// never a half-moved host.
// ---------------------------------------------------------------------

#[test]
fn torn_snapshot_and_torn_journal_recover_to_pre_handoff_assignment() {
    let corpus = small_corpus();
    let s = scenario(4);
    let batches = batches_for(&corpus, &s);
    let dir = unique_run_dir("double-torn");

    // Drive a real run through one full death + rebalance so the
    // directory holds genuine node WALs, a journal with a completed
    // handoff, and the keep-two snapshot set.
    let first = run(
        &dir,
        &s,
        &batches,
        &[ClusterKillPoint::Node { node: 1, at_tick: 6 }],
    )
    .unwrap();
    assert!(first.rebalances_total >= 1);

    // Read the post-run assignment (epoch E) through a clean reopen.
    let universe: Vec<u32> = (0..N_USERS as u32).collect();
    let mut kill = ClusterKillSwitch::none();
    let (cluster, _) = Cluster::open(&dir, s.cluster, &universe, &mut kill).unwrap();
    let epoch = cluster.assign().epoch;
    let pre_live = cluster.assign().live.clone();
    let pre_overrides = cluster.assign().overrides.clone();
    let node2_hosts: Vec<u32> = universe
        .iter()
        .copied()
        .filter(|&h| cluster.assign().owner(h) == 2)
        .collect();
    assert!(epoch >= 2, "death + rebalance must have advanced the epoch");
    drop(cluster);

    // Now fake the next failure sequence dying mid-handoff: a durable
    // NodeDead(E+1) for node 2, then a Rebalance(E+2) torn mid-frame.
    let moved: Vec<(u32, u32)> = universe.iter().map(|&h| (h, 0)).collect();
    let dead = AssignEvent::NodeDead {
        epoch: epoch + 1,
        node: 2,
    };
    let rebalance = AssignEvent::Rebalance {
        epoch: epoch + 2,
        from: 2,
        moved,
    };
    let torn_frame = frame(&rebalance);
    let mut tail = frame(&dead);
    tail.extend_from_slice(&torn_frame[..torn_frame.len() / 2]);
    let journal = dir.join("cluster.wal");
    let mut bytes = std::fs::read(&journal).unwrap();
    bytes.extend_from_slice(&tail);
    std::fs::write(&journal, &bytes).unwrap();

    // And corrupt the newest snapshot's payload.
    let snaps = list_images::<ClusterSnapshot>(&dir).unwrap();
    let (_, newest) = snaps.first().unwrap();
    let mut snap_bytes = std::fs::read(newest).unwrap();
    let last = snap_bytes.len() - 1;
    snap_bytes[last] ^= 0xFF;
    std::fs::write(newest, &snap_bytes).unwrap();

    // Recovery: older snapshot + full journal replay, torn tail dropped.
    let mut kill = ClusterKillSwitch::none();
    let (mut cluster, rec) = Cluster::open(&dir, s.cluster, &universe, &mut kill).unwrap();
    assert!(rec.snapshots_discarded >= 1, "corrupt snapshot not discarded");
    assert!(rec.journal_torn_bytes > 0, "torn journal tail not detected");
    let assign = cluster.assign();
    // The durable NodeDead applied; the torn Rebalance must not have.
    assert_eq!(assign.epoch, epoch + 1);
    assert!(assign.pending_dead.contains(&2));
    assert!(!assign.live.contains(&2));
    for &n in &pre_live {
        assert_eq!(assign.live.contains(&n), n != 2);
    }
    // No half-moved host: every override predates the torn handoff.
    assert_eq!(&assign.overrides, &pre_overrides, "a host half-moved");
    for &(_, e) in assign.overrides.values() {
        assert!(e <= epoch, "override from the torn epoch survived");
    }
    // The pending death is visible as darkness — exactly node 2's hosts
    // — then one tick completes the interrupted handoff with a fresh
    // journaled Rebalance.
    let mut dark = cluster.dark_hosts();
    dark.sort_unstable();
    assert_eq!(dark, node2_hosts, "dark set must be the dead node's hosts");
    cluster.tick(&mut kill).unwrap();
    assert!(cluster.assign().pending_dead.is_empty(), "handoff did not resume");
    assert_eq!(cluster.assign().epoch, epoch + 2);

    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Satellite: decorrelated-jitter retry on the wire path survives attempt
// counts far past the u64 shift width (the PR 5 saturating-shift fix).
// ---------------------------------------------------------------------

#[test]
fn wire_path_retry_survives_huge_attempt_budgets() {
    let dir = unique_run_dir("arq-sat");
    let mut cfg = ClusterScenario::default().cluster;
    cfg.n_nodes = 1;
    // Every frame is dropped: the batch can never be delivered, so the
    // queue must walk the full 96-attempt backoff schedule — the cap
    // computation shifts by attempts-1 = 95, which overflowed before the
    // saturating fix.
    cfg.link = LinkFaults {
        drop_rate: 1.0,
        dup_rate: 0.0,
        reorder_rate: 0.0,
        corrupt_rate: 0.0,
    };
    // Keep the single node alive despite its heartbeats being dropped.
    cfg.heartbeat_timeout = 1 << 40;
    let mut kill = ClusterKillSwitch::none();
    let (mut cluster, _) = Cluster::open(&dir, cfg, &[0], &mut kill).unwrap();

    let mut queue: DeliveryQueue<WindowBatch> = DeliveryQueue::new(DeliveryConfig {
        capacity: 4,
        max_attempts: 96,
        backoff_base: 1,
        jitter_seed: Some(0xA77E_3575),
    });
    assert!(queue.offer(WindowBatch {
        host: 0,
        seq: 1,
        week: Week::Train,
        start: 0,
        counts: vec![1, 2, 3],
        poison: false,
    }));

    let mut transmissions = 0u64;
    for _ in 0..400 {
        queue.pump(|b| {
            transmissions += 1;
            let _ = cluster.transmit(b);
            false
        });
        if queue.is_empty() {
            break;
        }
        cluster.tick(&mut kill).unwrap();
        // Huge time jumps: saturated backoff deadlines must still fire
        // instead of overflowing into the past or panicking.
        queue.tick(1 << 40);
    }
    assert!(queue.is_empty(), "batch neither delivered nor expired");
    let stats = queue.stats();
    assert_eq!(stats.expired_batches, 1);
    assert_eq!(transmissions, 96, "full attempt budget must be walked");
    assert!(cluster.stats().batches_sent >= 96);

    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Satellite: the wire decoder is a total function with bounded buffering
// under adversarial input.
// ---------------------------------------------------------------------

/// The decoder may buffer at most one maximal frame plus one header's
/// worth of scan slack.
const BUFFER_BOUND: usize = MAX_WIRE_PAYLOAD as usize + 2 * FRAME_HEADER_LEN;

#[test]
fn implausible_length_prefix_is_skipped_without_allocation() {
    let msg = ClusterMsg::Heartbeat { node: 3, ticks: 9 };
    let mut attack = frame_msg(&msg);
    // Forge the length field to u32::MAX: a trusting decoder would try
    // to allocate 4 GiB; ours must reject the header and resync.
    attack[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut dec = WireDecoder::new();
    dec.push(&attack);
    dec.push(&frame_msg(&msg));
    let mut decoded = Vec::new();
    while let Some(m) = dec.next() {
        decoded.push(m);
    }
    assert_eq!(decoded, vec![msg]);
    assert!(dec.stats().resyncs >= 1);
    assert!(dec.buffered() <= BUFFER_BOUND);
}

#[test]
fn hungry_plausible_length_prefix_cannot_swallow_later_frames_forever() {
    let msg = ClusterMsg::Ack {
        node: 1,
        epoch: 2,
        host: 3,
        seq: 4,
        disposition: Disposition::Applied,
    };
    // A plausible-but-bogus header: declares a near-maximal payload, so
    // the decoder legitimately waits for bytes — but once they arrive
    // and the CRC fails, it must resync and recover the real frame.
    let mut stream = Vec::new();
    stream.extend_from_slice(b"CLW1");
    stream.extend_from_slice(&(MAX_WIRE_PAYLOAD - 1).to_le_bytes());
    stream.extend_from_slice(&0xBAD0_C4C0u32.to_le_bytes());
    stream.extend_from_slice(&frame_msg(&msg));
    stream.resize(stream.len() + MAX_WIRE_PAYLOAD as usize, 0);
    let mut dec = WireDecoder::new();
    let mut decoded = Vec::new();
    for chunk in stream.chunks(4096) {
        dec.push(chunk);
        while let Some(m) = dec.next() {
            decoded.push(m);
        }
        assert!(dec.buffered() <= BUFFER_BOUND);
    }
    assert_eq!(decoded, vec![msg]);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// Arbitrary junk, arbitrarily chunked: the decoder never panics and
    /// never buffers more than one maximal frame.
    #[test]
    fn decoder_is_total_on_arbitrary_junk(
        junk in proptest::collection::vec(any::<u8>(), 0..4096),
        chunk in 1usize..257,
    ) {
        let mut dec = WireDecoder::new();
        for c in junk.chunks(chunk) {
            dec.push(c);
            while dec.next().is_some() {}
            prop_assert!(dec.buffered() <= BUFFER_BOUND);
        }
    }

    /// Valid frames survive an arbitrary corrupted prefix: after the junk
    /// (padded so any trailing hungry header starves out), every clean
    /// frame decodes in order.
    #[test]
    fn decoder_resyncs_through_corruption_to_valid_frames(
        junk in proptest::collection::vec(any::<u8>(), 1..512),
        node in 0u32..16,
        ticks in 0u64..1_000_000,
        chunk in 1usize..129,
    ) {
        let msgs = [
            ClusterMsg::Heartbeat { node, ticks },
            ClusterMsg::Ack {
                node,
                epoch: 7,
                host: 11,
                seq: ticks,
                disposition: Disposition::Duplicate,
            },
        ];
        let mut stream = junk.clone();
        // Flush slack: any partial header at the junk tail can declare up
        // to MAX_WIRE_PAYLOAD pending bytes; feeding that many zeros
        // forces its CRC check to fail and the scanner to move on.
        stream.resize(stream.len() + MAX_WIRE_PAYLOAD as usize + FRAME_HEADER_LEN, 0);
        for m in &msgs {
            stream.extend_from_slice(&frame_msg(m));
        }
        let mut dec = WireDecoder::new();
        let mut decoded = Vec::new();
        for c in stream.chunks(chunk) {
            dec.push(c);
            while let Some(m) = dec.next() {
                decoded.push(m);
            }
            prop_assert!(dec.buffered() <= BUFFER_BOUND);
        }
        // Junk may accidentally contain decodable frames; the real ones
        // must be the final two, in order.
        prop_assert!(decoded.len() >= msgs.len());
        prop_assert_eq!(&decoded[decoded.len() - msgs.len()..], &msgs[..]);
    }
}
