//! The flow table: groups packets into flows and emits [`FlowRecord`]s.
//!
//! Each packet costs one hash probe. Expiry visits only flows that can be
//! due: terminal TCP flows from a list filled as they close, and idle flows
//! from a min-heap on last-packet time (DESIGN.md §3, "Flow table").

use std::cmp::Reverse;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasher, Hasher};

use crate::conn::TcpTracker;
use crate::record::{from_total_order_key, total_order_key, AppProtocol, FlowRecord};
use crate::tuple::{FiveTuple, FlowDirection};
use crate::tuple::FlowKey;
use netpkt::TcpFlags;

/// Flow-table tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct FlowTableConfig {
    /// Evict a flow after this many seconds without a packet.
    pub idle_timeout: f64,
    /// Emit a record for (and re-key) a flow after this total lifetime,
    /// so month-long connections still appear in per-window features.
    pub active_timeout: f64,
    /// Hard cap on concurrently tracked flows; when full, the stalest flow
    /// is evicted to make room (mirrors real capture-tool behaviour under
    /// scan floods).
    pub max_flows: usize,
}

impl Default for FlowTableConfig {
    fn default() -> Self {
        Self {
            idle_timeout: 60.0,
            active_timeout: 3600.0,
            max_flows: 1 << 20,
        }
    }
}

#[derive(Debug)]
struct FlowEntry {
    record: FlowRecord,
    /// Orientation of the canonical key's `lo` endpoint: true when `lo` is
    /// the initiator.
    lo_is_initiator: bool,
    tcp: Option<TcpTracker>,
    /// [`total_order_key`] of this flow's entry in the expiry heap. Never
    /// above the key of `record.last_ts`.
    queued: i64,
}

impl FlowEntry {
    /// A flow whose first packet is this one: its sender is the initiator.
    fn open(
        ts: f64,
        tuple: FiveTuple,
        dir_vs_canonical: FlowDirection,
        payload_len: usize,
        tcp_flags: Option<TcpFlags>,
    ) -> Self {
        let tcp = tcp_flags.map(|f| TcpTracker::new(f, FlowDirection::FromInitiator));
        let record = FlowRecord {
            initiator: tuple.src,
            responder: tuple.dst,
            transport: tuple.transport,
            app: AppProtocol::classify(tuple.transport, tuple.dst.port),
            first_ts: ts,
            last_ts: ts,
            packets_fwd: 1,
            packets_rev: 0,
            bytes_fwd: payload_len as u64,
            bytes_rev: 0,
            initiator_syn: tcp.as_ref().is_some_and(|t| t.initiator_syn()),
            syn_count: tcp.as_ref().map_or(0, |t| t.syn_count()),
            tcp_state: tcp.as_ref().map(|t| t.state()),
        };
        Self {
            record,
            lo_is_initiator: dir_vs_canonical == FlowDirection::FromInitiator,
            tcp,
            queued: total_order_key(ts),
        }
    }

    fn is_terminal(&self) -> bool {
        self.tcp.as_ref().is_some_and(|t| t.state().is_terminal())
    }
}

/// The table's hasher: a keyed folded multiply, in the style of foldhash.
///
/// Flow keys come from observed traffic, which an attacker can choose, so
/// the hash stays keyed: each table draws fresh keys from [`RandomState`],
/// and without them the collisions cannot be planned. [`FlowKey`] hashes
/// as one `write_u128`, which costs one 64×64→128-bit multiply, plus one
/// more in `finish` to spread the low bits into the high ones.
#[derive(Debug, Clone, Copy)]
struct FoldHashKeys([u64; 3]);

impl FoldHashKeys {
    fn fresh() -> Self {
        let state = RandomState::new();
        Self([0u64, 1, 2].map(|i| state.hash_one(i)))
    }
}

impl BuildHasher for FoldHashKeys {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            acc: self.0[0],
            keys: [self.0[1], self.0[2]],
        }
    }
}

struct FoldHasher {
    acc: u64,
    keys: [u64; 2],
}

/// The 128-bit product of `a` and `b`, its halves folded by xor.
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

impl Hasher for FoldHasher {
    fn write_u128(&mut self, x: u128) {
        self.acc = folded_multiply(x as u64 ^ self.acc, (x >> 64) as u64 ^ self.keys[0]);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(16) {
            let mut word = [0u8; 16];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u128(u128::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        folded_multiply(self.acc, self.keys[1])
    }
}

/// Groups directed packets into bidirectional flows.
///
/// Call [`FlowTable::observe`] per packet (in timestamp order), harvesting
/// any records it returns; call [`FlowTable::drain`] at end of trace.
#[derive(Debug)]
pub struct FlowTable {
    config: FlowTableConfig,
    flows: HashMap<FlowKey, FlowEntry, FoldHashKeys>,
    /// Min-heap of `(time key, flow key)`. Every open flow has the entry
    /// its `queued` names; other entries are stale and skipped when popped.
    due: BinaryHeap<Reverse<(i64, FlowKey)>>,
    /// Keys of flows that turned terminal since the last sweep (stale keys
    /// included: the sweep rechecks each).
    closed: Vec<FlowKey>,
    /// Completed records not yet harvested.
    out: Vec<FlowRecord>,
    last_sweep: f64,
    /// Sweep scratch, empty between sweeps: flows expired this sweep, and
    /// heap entries to push back once the sweep's pops are done.
    expired: Vec<(FlowKey, FlowRecord)>,
    requeue: Vec<Reverse<(i64, FlowKey)>>,
}

impl FlowTable {
    /// Create an empty table.
    pub fn new(config: FlowTableConfig) -> Self {
        Self::with_keys(config, FoldHashKeys::fresh())
    }

    fn with_keys(config: FlowTableConfig, keys: FoldHashKeys) -> Self {
        Self {
            config,
            flows: HashMap::with_hasher(keys),
            due: BinaryHeap::new(),
            closed: Vec::new(),
            out: Vec::new(),
            last_sweep: 0.0,
            expired: Vec::new(),
            requeue: Vec::new(),
        }
    }

    /// Number of currently open flows.
    pub fn open_flows(&self) -> usize {
        self.flows.len()
    }

    /// Observe one packet.
    ///
    /// `payload_len` is the transport payload length; `tcp_flags` is `None`
    /// for non-TCP packets. Timestamps are expected in capture order
    /// (non-decreasing), though an older packet is still accounted
    /// exactly; the table sweeps for idle flows once per second of trace
    /// time.
    pub fn observe(
        &mut self,
        ts: f64,
        tuple: FiveTuple,
        payload_len: usize,
        tcp_flags: Option<TcpFlags>,
    ) {
        if ts - self.last_sweep >= 1.0 {
            self.sweep(ts);
            self.last_sweep = ts;
        }

        let (key, dir_vs_canonical) = tuple.canonical();
        let t = total_order_key(ts);
        let full = self.flows.len() >= self.config.max_flows;
        match self.flows.entry(key) {
            Entry::Occupied(mut occupied) => {
                let entry = occupied.get_mut();
                // Active-timeout / terminal-state rollover: flush the
                // finished flow and start a new one for this packet, in
                // place. The new flow inherits the heap entry when that is
                // not later than this packet.
                if ts - entry.record.first_ts > self.config.active_timeout
                    || entry.is_terminal() && tcp_flags.is_some_and(|f| f.syn() && !f.ack())
                {
                    let fresh =
                        FlowEntry::open(ts, tuple, dir_vs_canonical, payload_len, tcp_flags);
                    let old = std::mem::replace(entry, fresh);
                    self.out.push(old.record);
                    if old.queued <= t {
                        entry.queued = old.queued;
                    } else {
                        self.due.push(Reverse((t, key)));
                    }
                    if entry.is_terminal() {
                        self.closed.push(key);
                    }
                    return;
                }

                let dir = if entry.lo_is_initiator {
                    dir_vs_canonical
                } else {
                    dir_vs_canonical.reverse()
                };
                entry.record.last_ts = ts;
                if t < entry.queued {
                    // Out-of-order packet: requeue at the earlier time.
                    entry.queued = t;
                    self.due.push(Reverse((t, key)));
                }
                match dir {
                    FlowDirection::FromInitiator => {
                        entry.record.packets_fwd += 1;
                        entry.record.bytes_fwd += payload_len as u64;
                    }
                    FlowDirection::FromResponder => {
                        entry.record.packets_rev += 1;
                        entry.record.bytes_rev += payload_len as u64;
                    }
                }
                if let (Some(tracker), Some(flags)) = (entry.tcp.as_mut(), tcp_flags) {
                    let was_terminal = tracker.state().is_terminal();
                    tracker.observe(flags, dir);
                    entry.record.initiator_syn = tracker.initiator_syn();
                    entry.record.syn_count = tracker.syn_count();
                    entry.record.tcp_state = Some(tracker.state());
                    if !was_terminal && tracker.state().is_terminal() {
                        self.closed.push(key);
                    }
                }
            }
            Entry::Vacant(vacant) => {
                let entry = FlowEntry::open(ts, tuple, dir_vs_canonical, payload_len, tcp_flags);
                if entry.is_terminal() {
                    self.closed.push(key);
                }
                if full {
                    // Rare (scan floods): evict first, then probe again.
                    self.evict_stalest();
                    self.flows.insert(key, entry);
                } else {
                    vacant.insert(entry);
                }
                self.due.push(Reverse((t, key)));
            }
        }
    }

    /// Harvest records completed so far (closed, reset, idle- or
    /// active-timed-out flows).
    pub fn harvest(&mut self) -> Vec<FlowRecord> {
        std::mem::take(&mut self.out)
    }

    /// Flush everything (end of trace) and return all remaining records
    /// plus anything not yet harvested, ordered by `first_ts`. Ties keep
    /// unharvested records first, in emission order, then open flows in
    /// key order.
    pub fn drain(&mut self) -> Vec<FlowRecord> {
        let mut all = std::mem::take(&mut self.out);
        let mut open: Vec<(FlowKey, FlowRecord)> =
            self.flows.drain().map(|(k, e)| (k, e.record)).collect();
        open.sort_unstable_by_key(|&(k, _)| k);
        all.extend(open.into_iter().map(|(_, r)| r));
        all.sort_by_cached_key(|r| total_order_key(r.first_ts));
        self.due.clear();
        self.closed.clear();
        all
    }

    /// Expire every flow that is terminal or idle for more than
    /// `idle_timeout` at `now`, emitting records in key order.
    ///
    /// Visits only the closed list and the heap entries that are due. Each
    /// visit is one probe: `remove`, then `insert` back a flow that stays.
    fn sweep(&mut self, now: f64) {
        let idle = self.config.idle_timeout;
        let is_expired = |e: &FlowEntry| now - e.record.last_ts > idle || e.is_terminal();
        while let Some(&Reverse((t, key))) = self.due.peek() {
            // Stop at `age <= idle` rather than go on while `age > idle`:
            // a NaN age pops, not blocks the entries behind it.
            if now - from_total_order_key(t) <= idle {
                break;
            }
            self.due.pop();
            let Some(mut entry) = self.flows.remove(&key) else {
                continue;
            };
            if entry.queued == t {
                if is_expired(&entry) {
                    self.expired.push((key, entry.record));
                    continue;
                }
                // Not due yet: move the entry up to the flow's real time,
                // after the loop so one sweep pops each entry once.
                entry.queued = total_order_key(entry.record.last_ts);
                self.requeue.push(Reverse((entry.queued, key)));
            }
            self.flows.insert(key, entry);
        }
        self.due.extend(self.requeue.drain(..));
        for key in self.closed.drain(..) {
            if let Some(entry) = self.flows.remove(&key) {
                if is_expired(&entry) {
                    self.expired.push((key, entry.record));
                } else {
                    self.flows.insert(key, entry);
                }
            }
        }
        // Deterministic output order regardless of hash-map iteration.
        self.expired.sort_unstable_by_key(|&(k, _)| k);
        self.out.extend(self.expired.drain(..).map(|(_, r)| r));
    }

    /// Evict the flow with the smallest `last_ts`, ties to the smaller key.
    ///
    /// Every open flow's heap entry is at most its `last_ts`, so the first
    /// popped entry that equals its flow's `last_ts` is a true minimum;
    /// entries below that are moved up to their flow's real time.
    fn evict_stalest(&mut self) {
        while let Some(Reverse((t, key))) = self.due.pop() {
            let Some(mut entry) = self.flows.remove(&key) else {
                continue;
            };
            if entry.queued == t {
                let last = total_order_key(entry.record.last_ts);
                if last == t {
                    self.out.push(entry.record);
                    return;
                }
                entry.queued = last;
                self.due.push(Reverse((last, key)));
            }
            self.flows.insert(key, entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::TcpConnState;
    use crate::tuple::{Endpoint, Transport};
    use std::net::Ipv4Addr;

    fn ep(last: u8, port: u16) -> Endpoint {
        Endpoint::new(Ipv4Addr::new(10, 0, 0, last), port)
    }

    fn tcp_tuple(sport: u16, dport: u16) -> FiveTuple {
        FiveTuple::new(ep(1, sport), ep(2, dport), Transport::Tcp)
    }

    #[test]
    fn bidirectional_packets_merge_into_one_flow() {
        let mut tab = FlowTable::new(FlowTableConfig::default());
        let fwd = tcp_tuple(50000, 80);
        tab.observe(0.0, fwd, 0, Some(TcpFlags::syn_only()));
        tab.observe(0.1, fwd.reversed(), 0, Some(TcpFlags::syn_ack()));
        tab.observe(0.2, fwd, 10, Some(TcpFlags(TcpFlags::ACK)));
        tab.observe(0.3, fwd.reversed(), 300, Some(TcpFlags(TcpFlags::ACK)));
        assert_eq!(tab.open_flows(), 1);
        let recs = tab.drain();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.initiator, ep(1, 50000));
        assert_eq!(r.responder, ep(2, 80));
        assert_eq!(r.packets_fwd, 2);
        assert_eq!(r.packets_rev, 2);
        assert_eq!(r.bytes_fwd, 10);
        assert_eq!(r.bytes_rev, 300);
        assert!(r.initiator_syn);
        assert_eq!(r.app, AppProtocol::Http);
        assert_eq!(r.tcp_state, Some(TcpConnState::Established));
    }

    #[test]
    fn initiator_defined_by_first_packet_even_when_canonically_hi() {
        // Source endpoint sorts *after* destination, so canonical `lo` is
        // the responder; direction bookkeeping must still hold.
        let fwd = FiveTuple::new(ep(9, 60000), ep(1, 80), Transport::Tcp);
        let mut tab = FlowTable::new(FlowTableConfig::default());
        tab.observe(0.0, fwd, 5, Some(TcpFlags::syn_only()));
        tab.observe(0.1, fwd.reversed(), 7, Some(TcpFlags::syn_ack()));
        let recs = tab.drain();
        assert_eq!(recs[0].initiator, ep(9, 60000));
        assert_eq!(recs[0].bytes_fwd, 5);
        assert_eq!(recs[0].bytes_rev, 7);
    }

    #[test]
    fn idle_timeout_splits_flows() {
        let mut tab = FlowTable::new(FlowTableConfig {
            idle_timeout: 10.0,
            ..Default::default()
        });
        let t = FiveTuple::new(ep(1, 5000), ep(2, 9999), Transport::Udp);
        tab.observe(0.0, t, 100, None);
        tab.observe(1.0, t, 100, None);
        // 20 s gap > idle timeout; sweep happens on the next packet.
        tab.observe(21.0, t, 100, None);
        let harvested = tab.harvest();
        assert_eq!(harvested.len(), 1, "first flow evicted as idle");
        assert_eq!(harvested[0].packets_fwd, 2);
        let rest = tab.drain();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].packets_fwd, 1);
    }

    #[test]
    fn terminal_tcp_flow_flushed_on_sweep_and_rekeyed_on_new_syn() {
        let mut tab = FlowTable::new(FlowTableConfig::default());
        let t = tcp_tuple(50001, 80);
        tab.observe(0.0, t, 0, Some(TcpFlags::syn_only()));
        tab.observe(0.1, t, 0, Some(TcpFlags(TcpFlags::RST)));
        // New connection on the same five-tuple (port reuse).
        tab.observe(0.2, t, 0, Some(TcpFlags::syn_only()));
        let recs = tab.drain();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].tcp_state, Some(TcpConnState::Reset));
        assert_eq!(recs[1].tcp_state, Some(TcpConnState::SynSent));
    }

    #[test]
    fn capacity_evicts_stalest() {
        let mut tab = FlowTable::new(FlowTableConfig {
            max_flows: 2,
            ..Default::default()
        });
        for (i, sport) in [40000u16, 40001, 40002].iter().enumerate() {
            tab.observe(
                i as f64 * 0.1,
                tcp_tuple(*sport, 80),
                0,
                Some(TcpFlags::syn_only()),
            );
        }
        assert_eq!(tab.open_flows(), 2);
        let harvested = tab.harvest();
        assert_eq!(harvested.len(), 1);
        assert_eq!(harvested[0].initiator.port, 40000, "stalest evicted first");
    }

    #[test]
    fn scan_flood_evicts_in_age_order_without_growing_the_heap() {
        let mut tab = FlowTable::new(FlowTableConfig {
            max_flows: 64,
            ..Default::default()
        });
        let mut harvested = Vec::new();
        for i in 0..10_000u32 {
            let dst = Endpoint::new(Ipv4Addr::from(0x0a01_0000 + i), 80);
            let tuple = FiveTuple::new(ep(1, 40000), dst, Transport::Tcp);
            tab.observe(f64::from(i) * 1e-4, tuple, 0, Some(TcpFlags::syn_only()));
            harvested.extend(tab.harvest());
            assert!(tab.open_flows() <= 64);
            assert!(
                tab.due.len() <= 2 * 64,
                "heap holds {} entries",
                tab.due.len()
            );
        }
        assert_eq!(tab.open_flows(), 64);
        assert_eq!(harvested.len(), 10_000 - 64);
        for (i, r) in harvested.iter().enumerate() {
            assert_eq!(
                r.responder.addr,
                Ipv4Addr::from(0x0a01_0000 + i as u32),
                "record {i}"
            );
        }
    }

    #[test]
    fn record_order_does_not_depend_on_the_hasher() {
        // TCP/UDP twins on shared endpoints, every packet of a burst at one
        // time, so only the key can order same-time records.
        let mut stream = Vec::new();
        for burst in 0..6u16 {
            let ts = f64::from(burst) * 40.0;
            for host in 1..6u8 {
                for transport in [Transport::Udp, Transport::Tcp] {
                    let tuple = FiveTuple::new(ep(host, 5000 + burst % 2), ep(9, 53), transport);
                    let flags = (transport == Transport::Tcp).then_some(if burst % 3 == 2 {
                        TcpFlags(TcpFlags::RST)
                    } else {
                        TcpFlags::syn_only()
                    });
                    stream.push((ts, tuple, flags));
                }
            }
        }
        let run = || {
            let mut tab = FlowTable::new(FlowTableConfig {
                idle_timeout: 50.0,
                max_flows: 12,
                ..Default::default()
            });
            let mut seen = Vec::new();
            for &(ts, tuple, flags) in &stream {
                tab.observe(ts, tuple, 1, flags);
                seen.push(tab.harvest());
            }
            seen.push(tab.drain());
            seen
        };
        let first = run();
        assert!(first.iter().map(Vec::len).sum::<usize>() > 40);
        for _ in 0..32 {
            assert_eq!(run(), first);
        }
    }

    /// A scan flood past a 64-flow cap, with sweeps: SYNs to fresh
    /// destinations, every third one answered by a reset.
    fn scan_flood_records(keys: FoldHashKeys) -> Vec<Vec<FlowRecord>> {
        let config = FlowTableConfig {
            max_flows: 64,
            idle_timeout: 0.5,
            ..Default::default()
        };
        let mut tab = FlowTable::with_keys(config, keys);
        let mut seen = Vec::new();
        for i in 0..4_000u32 {
            let dst = Endpoint::new(Ipv4Addr::from(0x0a01_0000 + i % 1_500), 80 + (i % 7) as u16);
            let tuple = FiveTuple::new(ep(1, 40000 + (i % 3) as u16), dst, Transport::Tcp);
            let ts = f64::from(i) * 2e-3;
            tab.observe(ts, tuple, 0, Some(TcpFlags::syn_only()));
            if i % 3 == 0 {
                tab.observe(ts, tuple.reversed(), 0, Some(TcpFlags(TcpFlags::RST)));
            }
            seen.push(tab.harvest());
        }
        seen.push(tab.drain());
        seen
    }

    #[test]
    fn records_match_under_fresh_and_degenerate_keys() {
        // All-zero keys hash every flow key to 0: one probe chain.
        let fixed = scan_flood_records(FoldHashKeys([0; 3]));
        assert!(fixed.iter().map(Vec::len).sum::<usize>() > 3_000);
        for _ in 0..4 {
            assert_eq!(scan_flood_records(FoldHashKeys::fresh()), fixed);
        }
    }

    #[test]
    fn keys_that_collide_under_a_known_key_spread_under_a_fresh_one() {
        // Keys differing only in `lo.addr` share their low 64-bit half. A
        // key whose first word is that half zeroes the folded multiply, so
        // all 4096 hash alike: what an attacker who knew the key could do.
        let key = |i: u32| FlowKey {
            lo: Endpoint::new(Ipv4Addr::from(0x0a00_0000 + i), 40000),
            hi: ep(9, 443),
            transport: Transport::Tcp,
        };
        let hash = |keys: &FoldHashKeys, i| keys.hash_one(key(i));
        let known = FoldHashKeys([key(0).packed() as u64, 0x5eed, 0xc0ffee]);
        assert!((1..4096).all(|i| hash(&known, i) == hash(&known, 0)));
        // Under fresh keys: 4096 keys over 512 buckets (8 per bucket on
        // average), by the top nine bits (the hash space in 512ths) and by
        // the bottom nine (the table's bucket index).
        for _ in 0..8 {
            let keys = FoldHashKeys::fresh();
            let (mut top, mut bottom) = ([0u32; 512], [0u32; 512]);
            for i in 0..4096 {
                let h = hash(&keys, i);
                top[(h >> 55) as usize] += 1;
                bottom[(h & 511) as usize] += 1;
            }
            let largest = top.iter().chain(&bottom).max().copied().unwrap_or(0);
            assert!(largest <= 32, "a bucket holds {largest} of 4096 keys");
        }
    }

    #[test]
    fn active_timeout_rolls_over_long_flows() {
        let mut tab = FlowTable::new(FlowTableConfig {
            active_timeout: 100.0,
            idle_timeout: 1e9,
            ..Default::default()
        });
        let t = FiveTuple::new(ep(1, 1234), ep(2, 9), Transport::Udp);
        tab.observe(0.0, t, 1, None);
        tab.observe(50.0, t, 1, None);
        tab.observe(151.0, t, 1, None); // > active timeout after first_ts
        let mut all = tab.harvest();
        all.extend(tab.drain());
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn drain_sorted_by_first_ts() {
        let mut tab = FlowTable::new(FlowTableConfig::default());
        for (ts, sport) in [(5.0, 50005u16), (1.0, 50001), (3.0, 50003)] {
            tab.observe(ts, tcp_tuple(sport, 80), 0, Some(TcpFlags::syn_only()));
        }
        let recs = tab.drain();
        let times: Vec<f64> = recs.iter().map(|r| r.first_ts).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }
}
