//! Replay ≡ live, for every WAL record kind.
//!
//! A daemon is driven through a random interleaving of window batches
//! (resends and rejected strays among them), ticks, one canary rollout and
//! the pin, drain, undrain and force-rollback commands, with snapshots
//! held off so that the WAL is the only durable state. No batch is poison
//! and nothing is shed. `Daemon::open` on the same directory must then
//! rebuild exactly the live daemon's host table, epoch state (the
//! in-flight candidate's gate counters included) and drained set: the
//! recovery contract the kill sweeps rely on, checked here with no kill in
//! the way.

use std::collections::BTreeMap;
use std::path::PathBuf;

use fleetd::{
    Admit, ControlCommand, Daemon, DaemonConfig, HostState, KillSwitch, QueueConfig, RolloutConfig,
    Week, WindowBatch,
};
use proptest::prelude::*;

const N_SHARDS: usize = 4;
const N_WINDOWS: u32 = 8;
const N_HOSTS: u32 = 6;

fn config() -> DaemonConfig {
    DaemonConfig {
        n_shards: N_SHARDS,
        n_windows: N_WINDOWS,
        // No tick ever checkpoints: every effect must come back from the
        // WAL alone.
        snapshot_every: u64::MAX,
        queue: QueueConfig {
            // Nothing queued ever goes stale, so nothing is shed.
            shed_after: u64::MAX,
            quantum: 2,
            ..QueueConfig::default()
        },
        rollout: RolloutConfig {
            canary_shards: 2,
            ..RolloutConfig::default()
        },
        ..DaemonConfig::default()
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// The host's next (up to) `counts.len()` windows, or (`resend`) its
    /// last admitted batch again.
    Batch {
        host: u32,
        counts: Vec<u64>,
        resend: bool,
    },
    /// A batch reaching past the week's end, which the daemon rejects.
    Stray {
        host: u32,
    },
    Tick,
    Pin {
        host: u32,
        t: u32,
    },
    Drain(u32),
    Undrain(u32),
    ForceRollback,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (
        0u32..80,
        0..N_HOSTS,
        proptest::collection::vec(0u64..100, 1..4),
        0u32..100,
    )
        .prop_map(|(pick, host, counts, n)| match pick {
            0..=45 => Op::Batch {
                host,
                counts,
                // One batch in ten resends its host's last one.
                resend: n < 10,
            },
            46 => Op::Stray { host },
            47..=68 => Op::Tick,
            69..=71 => Op::Pin { host, t: n },
            72..=74 => Op::Drain(n % N_SHARDS as u32),
            75..=78 => Op::Undrain(n % N_SHARDS as u32),
            _ => Op::ForceRollback,
        })
}

/// The one canary rollout: where in the op list it begins, its soak span,
/// and candidate thresholds for the first few canary-shard hosts.
fn arb_rollout() -> impl Strategy<Value = (usize, u32, u32, BTreeMap<u32, f64>)> {
    let canary_hosts: Vec<u32> = (0..N_HOSTS)
        .filter(|h| (*h as usize % N_SHARDS) < config().rollout.canary_shards)
        .collect();
    (
        0usize..8,
        0..N_WINDOWS - 1,
        1u32..3,
        1..=canary_hosts.len(),
        proptest::collection::vec(0u32..200, canary_hosts.len()),
    )
        .prop_map(move |(at, start, span, n, ts)| {
            let end = (start + span).min(N_WINDOWS);
            let thresholds = canary_hosts
                .iter()
                .zip(ts)
                .take(n)
                .map(|(&h, t)| (h, f64::from(t)))
                .collect();
            (at, start, end, thresholds)
        })
}

fn tmpdir() -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("fleetd-replay-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn owned_hosts(d: &Daemon) -> BTreeMap<u32, HostState> {
    d.hosts().into_iter().map(|(h, s)| (h, s.clone())).collect()
}

/// One host's agent: it walks its training week and then its test week
/// in order, and retries a refused batch on its next turn.
#[derive(Default)]
struct Agent {
    /// Next window, counting the training week's windows first.
    cursor: u32,
    seq: u64,
    last: Option<WindowBatch>,
}

impl Agent {
    /// The host's next batch: at most `counts.len()` windows, not past its
    /// week's end nor, while a candidate soaks, across the soak end (the
    /// canary barrier would refuse it for as long as the soak lasts).
    fn next(&self, host: u32, counts: &[u64], soak_end: Option<u32>) -> Option<WindowBatch> {
        if self.cursor >= 2 * N_WINDOWS {
            return None;
        }
        let (test, start) = (self.cursor >= N_WINDOWS, self.cursor % N_WINDOWS);
        let mut end = (start + counts.len() as u32).min(N_WINDOWS);
        if let Some(soak_end) = soak_end.filter(|&e| test && start < e) {
            end = end.min(soak_end);
        }
        Some(WindowBatch {
            host,
            seq: self.seq + 1,
            week: if test { Week::Test } else { Week::Train },
            start,
            counts: counts[..(end - start) as usize].to_vec(),
            poison: false,
        })
    }
}

/// Drive a fresh daemon through `ops`, beginning the rollout before op
/// `rollout.0`, and return it.
fn drive(
    dir: &std::path::Path,
    ops: &[Op],
    rollout: &(usize, u32, u32, BTreeMap<u32, f64>),
) -> Daemon {
    let (mut d, _) = Daemon::open(dir, config()).unwrap();
    let mut kill = KillSwitch::none();
    let mut agents: BTreeMap<u32, Agent> = BTreeMap::new();
    let (begin_at, soak_start, soak_end, thresholds) = rollout;
    for (i, op) in ops.iter().enumerate() {
        if i == begin_at % ops.len() {
            // Refused (typed) only by a bad request; never killed.
            let _ = d.begin_rollout(*soak_start, *soak_end, thresholds.clone(), &mut kill);
        }
        match op {
            Op::Batch {
                host,
                counts,
                resend,
            } => {
                let agent = agents.entry(*host).or_default();
                if *resend {
                    if let Some(last) = &agent.last {
                        let _ = d.offer(last.clone());
                    }
                    continue;
                }
                let soak_end = d.epoch_state().candidate.as_ref().map(|c| c.soak_end);
                let Some(batch) = agent.next(*host, counts, soak_end) else {
                    continue;
                };
                // A refused batch (drained shard, canary barrier) is
                // retried on the host's next turn.
                if d.offer(batch.clone()) != Admit::Overflow {
                    agent.seq = batch.seq;
                    agent.cursor += batch.counts.len() as u32;
                    agent.last = Some(batch);
                }
            }
            Op::Stray { host } => {
                let seq = agents.get(host).map_or(0, |a| a.seq) + 1;
                let _ = d.offer(WindowBatch {
                    host: *host,
                    seq,
                    week: Week::Train,
                    start: N_WINDOWS - 1,
                    counts: vec![1, 2],
                    poison: false,
                });
            }
            Op::Tick => d.tick(&mut kill).unwrap(),
            Op::Pin { host, t } => d
                .command(
                    ControlCommand::PinThreshold {
                        host: *host,
                        t: f64::from(*t),
                    },
                    &mut kill,
                )
                .unwrap(),
            Op::Drain(shard) => d
                .command(ControlCommand::DrainShard { shard: *shard }, &mut kill)
                .unwrap(),
            Op::Undrain(shard) => d
                .command(ControlCommand::UndrainShard { shard: *shard }, &mut kill)
                .unwrap(),
            // Refused when no candidate is in flight.
            Op::ForceRollback => {
                let _ = d.command(ControlCommand::ForceRollback, &mut kill);
            }
        }
    }
    assert!(
        d.drain(&mut kill, 10_000).unwrap(),
        "queued work must drain"
    );
    assert_eq!(d.stats().snapshots_written, 0);
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn replay_rebuilds_live_state_for_every_record_kind(
        ops in proptest::collection::vec(arb_op(), 1..200),
        rollout in arb_rollout(),
    ) {
        let dir = tmpdir();
        let live = drive(&dir, &ops, &rollout);
        let (hosts, epoch, drained) =
            (owned_hosts(&live), live.epoch_state().clone(), live.drained_shards());
        drop(live);

        let (replayed, report) = Daemon::open(&dir, config()).unwrap();
        prop_assert_eq!(report.snapshot_seq, None);
        prop_assert_eq!(report.wal_torn_bytes, 0);
        prop_assert_eq!(report.wal_rejected + report.wal_quarantined, 0);
        prop_assert_eq!(owned_hosts(&replayed), hosts);
        prop_assert_eq!(replayed.epoch_state(), &epoch);
        prop_assert_eq!(replayed.drained_shards(), drained);
        drop(replayed);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
