//! The stop-and-wait delivery driver shared by every streaming harness
//! (`daemon`, `rollout`, `controlplane`, `cluster`).
//!
//! Per host, at most one batch is outstanding at any moment: it sits
//! somewhere between the [`DeliveryQueue`] and a completion, so retries can
//! never reorder a host's sequence numbers. The driver owns that state —
//! the per-host batch lists (built once per run), the cursor to each
//! host's first batch without a terminal outcome, the in-flight set, the
//! per-batch attempt counts, and the batches given up when their retry
//! budget ran out. A harness keeps only its own logic: what to hold back,
//! where its segments end, and how a batch reaches its target.
//!
//! One round is `feed` → (quiescent? stop) → `pump` → target tick →
//! `complete` each completion → `tick`. [`StopAndWait::deliver_round`]
//! runs the last four steps against a [`Daemon`].

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use fleetd::{Admit, Completion, Daemon, DaemonConfig, DaemonError, KillSwitch, WindowBatch};
use itconsole::{DeliveryConfig, DeliveryQueue, DeliveryStats};

use crate::daemon::{RecoveryTotals, RunError};

/// Stop-and-wait delivery state for one stream of window batches.
pub(crate) struct StopAndWait<'a> {
    /// Each host's batches in input order (per-host seqs ascending).
    by_host: BTreeMap<u32, Vec<&'a WindowBatch>>,
    /// Per host, the index of its first batch without a terminal outcome.
    cursor: BTreeMap<u32, usize>,
    /// Hosts whose current batch is queued or admitted but not completed.
    in_flight: BTreeSet<u32>,
    /// Refused delivery attempts per in-flight batch.
    attempts: BTreeMap<(u32, u64), u32>,
    /// Batches the target reported complete.
    completed: BTreeSet<(u32, u64)>,
    /// Batches given up when their retry budget ran out.
    lost: BTreeSet<(u32, u64)>,
    config: DeliveryConfig,
    /// This lifetime's link.
    queue: DeliveryQueue<WindowBatch>,
    /// Link counters of every earlier lifetime.
    retired: DeliveryStats,
}

impl<'a> StopAndWait<'a> {
    /// Index `batches` per host; call [`begin_lifetime`](Self::begin_lifetime)
    /// before the first round.
    pub(crate) fn new(batches: &'a [WindowBatch], config: DeliveryConfig) -> Self {
        let mut by_host: BTreeMap<u32, Vec<&WindowBatch>> = BTreeMap::new();
        for b in batches {
            by_host.entry(b.host).or_default().push(b);
        }
        Self {
            by_host,
            cursor: BTreeMap::new(),
            in_flight: BTreeSet::new(),
            attempts: BTreeMap::new(),
            completed: BTreeSet::new(),
            lost: BTreeSet::new(),
            config,
            queue: DeliveryQueue::new(config),
            retired: DeliveryStats::default(),
        }
    }

    /// Start over on a fresh link: the previous link's counters are kept,
    /// its queued batches dropped, and every host resumes at its first
    /// batch without a terminal outcome.
    pub(crate) fn begin_lifetime(&mut self) {
        self.retired = sum_delivery(self.retired, self.queue.stats());
        self.queue = DeliveryQueue::new(self.config);
        self.cursor = self
            .by_host
            .iter()
            .map(|(&h, list)| (h, first_pending(list, &self.completed, &self.lost)))
            .collect();
        self.in_flight.clear();
        self.attempts.clear();
    }

    /// Forget every completion, so the next lifetime redrives each host
    /// from its first batch that was not lost.
    pub(crate) fn forget_completions(&mut self) {
        self.completed.clear();
    }

    /// Offer each idle host's current batch unless `hold` defers it.
    /// Returns whether the host side is quiescent: every batch has a
    /// terminal outcome and nothing is in flight or queued.
    pub(crate) fn feed(&mut self, hold: impl Fn(&WindowBatch) -> bool) -> bool {
        let mut work_left = false;
        for (&host, &idx) in &self.cursor {
            let Some(&b) = self.by_host[&host].get(idx) else {
                continue;
            };
            work_left = true;
            if !hold(b) && !self.in_flight.contains(&host) && self.queue.offer(b.clone()) {
                self.in_flight.insert(host);
            }
        }
        !work_left && self.in_flight.is_empty() && self.queue.is_empty()
    }

    /// Push every due batch at `sink`; a `false` is a refused attempt.
    /// A batch whose attempts reach the budget is lost and its host moves
    /// on to its next batch.
    pub(crate) fn pump(&mut self, mut sink: impl FnMut(&WindowBatch) -> bool) {
        let attempts = &mut self.attempts;
        self.queue.pump(|b| {
            let accepted = sink(b);
            if !accepted {
                *attempts.entry((b.host, b.seq)).or_insert(0) += 1;
            }
            accepted
        });
        let max_attempts = self.config.max_attempts;
        let (lost, cursor, in_flight) = (&mut self.lost, &mut self.cursor, &mut self.in_flight);
        self.attempts.retain(|&(host, seq), &mut n| {
            if n < max_attempts {
                return true;
            }
            lost.insert((host, seq));
            if let Some(idx) = cursor.get_mut(&host) {
                *idx += 1;
            }
            in_flight.remove(&host);
            false
        });
    }

    /// Record the target's completion of `(host, seq)`; when it is the
    /// host's current batch the host moves on.
    pub(crate) fn complete(&mut self, host: u32, seq: u64) {
        self.completed.insert((host, seq));
        self.attempts.remove(&(host, seq));
        if let Some(idx) = self.cursor.get_mut(&host) {
            let list = &self.by_host[&host];
            if list.get(*idx).is_some_and(|b| b.seq == seq) {
                *idx += 1;
                self.in_flight.remove(&host);
            }
        }
    }

    /// [`complete`](Self::complete) for a link whose sends always read as
    /// refused: the acknowledgement also retires the queued batch.
    pub(crate) fn acknowledge(&mut self, host: u32, seq: u64) {
        self.queue.acknowledge(|b| b.host == host && b.seq == seq);
        self.complete(host, seq);
    }

    /// Restart `hosts` from their first batch: their completions, attempts
    /// and queued batches are withdrawn (lost batches stay lost).
    pub(crate) fn rewind(&mut self, hosts: &BTreeSet<u32>) {
        self.completed.retain(|(h, _)| !hosts.contains(h));
        self.attempts.retain(|(h, _), _| !hosts.contains(h));
        self.queue.evict(|b| hosts.contains(&b.host));
        for host in hosts {
            self.in_flight.remove(host);
            if let Some(idx) = self.cursor.get_mut(host) {
                *idx = first_pending(&self.by_host[host], &self.completed, &self.lost);
            }
        }
    }

    /// Advance the link's virtual clock one tick.
    pub(crate) fn tick(&mut self) {
        self.queue.tick(1);
    }

    /// One round against a daemon after [`feed`](Self::feed): deliver due
    /// batches (a busy shard or an overflow is a refused attempt), tick the
    /// daemon, and record its completions, which are returned for the
    /// harness's own bookkeeping. `Err(Killed)` ends the lifetime.
    pub(crate) fn deliver_round(
        &mut self,
        daemon: &mut Daemon,
        kill: &mut KillSwitch,
    ) -> Result<Vec<Completion>, DaemonError> {
        self.pump(|b| !daemon.shard_busy(b.host) && daemon.offer(b.clone()) != Admit::Overflow);
        daemon.tick(kill)?;
        let completions = daemon.take_completions();
        for c in &completions {
            self.complete(c.host, c.seq);
        }
        self.tick();
        Ok(completions)
    }

    /// The first batch of `host` with sequence number `seq`.
    pub(crate) fn batch(&self, host: u32, seq: u64) -> Option<&'a WindowBatch> {
        self.by_host
            .get(&host)?
            .iter()
            .find(|b| b.seq == seq)
            .copied()
    }

    /// Batches given up so far.
    pub(crate) fn lost_batches(&self) -> u64 {
        self.lost.len() as u64
    }

    /// Link counters summed over every lifetime so far.
    pub(crate) fn delivery(&self) -> DeliveryStats {
        sum_delivery(self.retired, self.queue.stats())
    }
}

/// First index into `list` without a terminal outcome.
fn first_pending(
    list: &[&WindowBatch],
    completed: &BTreeSet<(u32, u64)>,
    lost: &BTreeSet<(u32, u64)>,
) -> usize {
    list.iter()
        .position(|b| !completed.contains(&(b.host, b.seq)) && !lost.contains(&(b.host, b.seq)))
        .unwrap_or(list.len())
}

/// Field-wise sum of two links' counters (high water is a max).
pub(crate) fn sum_delivery(mut acc: DeliveryStats, s: DeliveryStats) -> DeliveryStats {
    acc.enqueued += s.enqueued;
    acc.delivered += s.delivered;
    acc.retries += s.retries;
    acc.acknowledged += s.acknowledged;
    acc.rejected_batches += s.rejected_batches;
    acc.rejected_units += s.rejected_units;
    acc.expired_batches += s.expired_batches;
    acc.expired_units += s.expired_units;
    acc.evicted_batches += s.evicted_batches;
    acc.evicted_units += s.evicted_units;
    acc.queue_high_water = acc.queue_high_water.max(s.queue_high_water);
    acc
}

/// Open the next daemon lifetime at `dir` and fold its recovery report
/// into `totals`; more than `max_lifetimes` lifetimes is a stall.
pub(crate) fn open_daemon(
    dir: &Path,
    config: DaemonConfig,
    totals: &mut RecoveryTotals,
    max_lifetimes: u32,
) -> Result<Daemon, RunError> {
    totals.lifetimes += 1;
    if totals.lifetimes > max_lifetimes {
        return Err(RunError::Stalled("lifetime budget exhausted"));
    }
    let (daemon, rec) = Daemon::open(dir, config)?;
    if rec.snapshot_seq.is_some() {
        totals.snapshots_loaded += 1;
    }
    totals.snapshots_discarded += rec.snapshots_discarded;
    totals.wal_replayed += rec.wal_replayed;
    totals.wal_torn_bytes += rec.wal_torn_bytes;
    Ok(daemon)
}
