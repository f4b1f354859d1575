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
//! runs the last four steps against a [`Daemon`]. Around the rounds,
//! [`Restarts`] runs the lifetimes: it counts rounds and lifetimes against
//! their budgets, restarts after each kill, and folds recovery reports.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use fleetd::{
    Admit, Completion, Daemon, DaemonConfig, DaemonError, KillSwitch, RecoveryReport, WindowBatch,
};
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
    /// Hosts with a batch left and none in flight: the only hosts
    /// [`feed`](Self::feed) visits, so a round costs the idle hosts, not
    /// the whole fleet.
    idle: BTreeSet<u32>,
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
            idle: BTreeSet::new(),
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
        self.idle = self
            .cursor
            .iter()
            .filter(|&(h, &idx)| idx < self.by_host[h].len())
            .map(|(&h, _)| h)
            .collect();
    }

    /// Re-derive whether `host` is idle after its cursor or in-flight
    /// state changed.
    fn settle(&mut self, host: u32) {
        let pending = match (self.cursor.get(&host), self.by_host.get(&host)) {
            (Some(&idx), Some(list)) => idx < list.len(),
            _ => false,
        };
        if pending && !self.in_flight.contains(&host) {
            self.idle.insert(host);
        } else {
            self.idle.remove(&host);
        }
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
        let mut offered = Vec::new();
        for host in &self.idle {
            let Some(&b) = self.by_host[host].get(self.cursor[host]) else {
                continue;
            };
            if !hold(b) && self.queue.offer(b.clone()) {
                offered.push(*host);
            }
        }
        for host in offered {
            self.idle.remove(&host);
            self.in_flight.insert(host);
        }
        self.idle.is_empty() && self.in_flight.is_empty() && self.queue.is_empty()
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
        let mut moved = Vec::new();
        self.attempts.retain(|&(host, seq), &mut n| {
            if n < max_attempts {
                return true;
            }
            lost.insert((host, seq));
            if let Some(idx) = cursor.get_mut(&host) {
                *idx += 1;
            }
            in_flight.remove(&host);
            moved.push(host);
            false
        });
        for host in moved {
            self.settle(host);
        }
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
                self.settle(host);
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
            self.settle(*host);
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

/// The restart loop every streaming harness shares. A lifetime ends when
/// the kill switch fires; the kill is counted and the next lifetime starts
/// over from durable state. The round and lifetime budgets are checked
/// here, and every daemon recovery report is folded into one set of
/// totals. The kill schedule itself lives in the switch, which arms its
/// next point as one fires.
pub(crate) struct Restarts {
    max_rounds: u64,
    max_lifetimes: u32,
    rounds: u64,
    /// Lifetimes, kills and folded recovery reports so far.
    pub(crate) totals: RecoveryTotals,
}

impl Restarts {
    pub(crate) fn new(max_rounds: u64, max_lifetimes: u32) -> Self {
        Self {
            max_rounds,
            max_lifetimes,
            rounds: 0,
            totals: RecoveryTotals::default(),
        }
    }

    /// Run `lifetime` until it ends other than by a kill: `Err(Killed)`
    /// counts the kill and starts the next lifetime, and anything else is
    /// the run's result. More than `max_lifetimes` lifetimes is a stall.
    pub(crate) fn run<T>(
        &mut self,
        mut lifetime: impl FnMut(&mut Self) -> Result<T, RunError>,
    ) -> Result<T, RunError> {
        loop {
            self.totals.lifetimes += 1;
            if self.totals.lifetimes > self.max_lifetimes {
                return Err(RunError::Stalled("lifetime budget exhausted"));
            }
            match lifetime(self) {
                Err(RunError::Daemon(DaemonError::Killed)) => self.totals.kills += 1,
                done => return done,
            }
        }
    }

    /// Count one harness round; more than `max_rounds` is a stall.
    pub(crate) fn round(&mut self) -> Result<(), RunError> {
        self.rounds += 1;
        if self.rounds > self.max_rounds {
            return Err(RunError::Stalled("round budget exhausted"));
        }
        Ok(())
    }

    /// Open this lifetime's daemon at `dir`, folding its recovery report.
    pub(crate) fn open_daemon(
        &mut self,
        dir: &Path,
        config: DaemonConfig,
    ) -> Result<Daemon, RunError> {
        let (daemon, rec) = Daemon::open(dir, config)?;
        self.totals.fold(&rec);
        Ok(daemon)
    }
}

impl RecoveryTotals {
    /// Add one daemon's recovery report.
    pub(crate) fn fold(&mut self, rec: &RecoveryReport) {
        if rec.snapshot_seq.is_some() {
            self.snapshots_loaded += 1;
        }
        self.snapshots_discarded += rec.snapshots_discarded;
        self.wal_replayed += rec.wal_replayed;
        self.wal_torn_bytes += rec.wal_torn_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restarts_count_kills_and_end_on_any_other_outcome() {
        let mut restarts = Restarts::new(100, 8);
        let mut calls = 0;
        let out: Result<(), RunError> = restarts.run(|_| {
            calls += 1;
            if calls < 3 {
                Err(DaemonError::Killed.into())
            } else {
                Err(DaemonError::Config("not a kill").into())
            }
        });
        assert!(matches!(
            out,
            Err(RunError::Daemon(DaemonError::Config("not a kill")))
        ));
        assert_eq!((restarts.totals.lifetimes, restarts.totals.kills), (3, 2));
    }

    #[test]
    fn rounds_are_counted_across_lifetimes() {
        let mut restarts = Restarts::new(5, 8);
        let out: Result<(), RunError> = restarts.run(|r| {
            r.round()?;
            r.round()?;
            Err(DaemonError::Killed.into())
        });
        // Rounds 1-2 and 3-4 end in kills; the third lifetime stalls at
        // round 6.
        assert!(matches!(
            out,
            Err(RunError::Stalled("round budget exhausted"))
        ));
        assert_eq!((restarts.totals.lifetimes, restarts.totals.kills), (3, 2));
    }
}
