//! The flow table against a scan-every-flow oracle.
//!
//! [`ScanTable`] is the table as it was before expiry went lazy: every
//! sweep visits every open flow, eviction scans for the stalest flow, and
//! each packet looks its key up separately for rollover, update and insert.
//! Its one change is the tie rule, which the fast table defines and the
//! hash order used to decide: same-time records leave in key order
//! (`(lo, hi, transport)`), and eviction takes the smallest
//! `(last_ts, key)`. The property holds [`FlowTable`] to it record for
//! record, after every packet and at the final drain.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use proptest::prelude::*;

use flowtab::tuple::FlowKey;
use flowtab::{
    AppProtocol, Endpoint, FiveTuple, FlowDirection, FlowRecord, FlowTable, FlowTableConfig,
    TcpTracker, Transport,
};
use netpkt::TcpFlags;

struct ScanEntry {
    record: FlowRecord,
    lo_is_initiator: bool,
    tcp: Option<TcpTracker>,
}

struct ScanTable {
    config: FlowTableConfig,
    flows: HashMap<FlowKey, ScanEntry>,
    out: Vec<FlowRecord>,
    last_sweep: f64,
}

impl ScanTable {
    fn new(config: FlowTableConfig) -> Self {
        Self {
            config,
            flows: HashMap::new(),
            out: Vec::new(),
            last_sweep: 0.0,
        }
    }

    fn observe(
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
        let needs_rollover = self.flows.get(&key).is_some_and(|e| {
            ts - e.record.first_ts > self.config.active_timeout
                || e.tcp.as_ref().is_some_and(|t| t.state().is_terminal())
                    && tcp_flags.is_some_and(|f| f.syn() && !f.ack())
        });
        if needs_rollover {
            if let Some(e) = self.flows.remove(&key) {
                self.out.push(e.record);
            }
        }
        if let Some(entry) = self.flows.get_mut(&key) {
            let dir = if entry.lo_is_initiator {
                dir_vs_canonical
            } else {
                dir_vs_canonical.reverse()
            };
            entry.record.last_ts = ts;
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
                tracker.observe(flags, dir);
                entry.record.initiator_syn = tracker.initiator_syn();
                entry.record.syn_count = tracker.syn_count();
                entry.record.tcp_state = Some(tracker.state());
            }
            return;
        }
        if self.flows.len() >= self.config.max_flows {
            self.evict_stalest();
        }
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
        self.flows.insert(
            key,
            ScanEntry {
                record,
                lo_is_initiator: dir_vs_canonical == FlowDirection::FromInitiator,
                tcp,
            },
        );
    }

    fn harvest(&mut self) -> Vec<FlowRecord> {
        std::mem::take(&mut self.out)
    }

    fn drain(&mut self) -> Vec<FlowRecord> {
        let mut all = std::mem::take(&mut self.out);
        let mut open: Vec<(FlowKey, ScanEntry)> = self.flows.drain().collect();
        open.sort_by_key(|(k, _)| *k);
        all.extend(open.into_iter().map(|(_, e)| e.record));
        all.sort_by(|a, b| a.first_ts.total_cmp(&b.first_ts));
        all
    }

    fn sweep(&mut self, now: f64) {
        let idle = self.config.idle_timeout;
        let mut expired: Vec<FlowKey> = self
            .flows
            .iter()
            .filter(|(_, e)| {
                now - e.record.last_ts > idle
                    || e.tcp.as_ref().is_some_and(|t| t.state().is_terminal())
            })
            .map(|(k, _)| *k)
            .collect();
        expired.sort();
        for key in expired {
            if let Some(e) = self.flows.remove(&key) {
                self.out.push(e.record);
            }
        }
    }

    fn evict_stalest(&mut self) {
        if let Some(key) = self
            .flows
            .iter()
            .min_by(|a, b| {
                a.1.record
                    .last_ts
                    .total_cmp(&b.1.record.last_ts)
                    .then(a.0.cmp(b.0))
            })
            .map(|(k, _)| *k)
        {
            if let Some(e) = self.flows.remove(&key) {
                self.out.push(e.record);
            }
        }
    }
}

/// Step sizes between packets, in seconds. Zero makes same-time ties;
/// the larger steps cross the idle timeout (5 s) and, summed, the active
/// timeout (20 s); the negative ones make out-of-order packets, which move
/// a flow's `last_ts` back below its place in the expiry heap.
const GAPS: [f64; 10] = [0.0, 0.001, 0.25, 0.9, 1.0, 3.0, 5.5, 12.0, -0.5, -4.0];

const FLAGS: [u8; 7] = [
    TcpFlags::SYN,
    TcpFlags::SYN | TcpFlags::ACK,
    TcpFlags::ACK,
    TcpFlags::ACK | TcpFlags::PSH,
    TcpFlags::FIN | TcpFlags::ACK,
    TcpFlags::RST,
    TcpFlags::SYN,
];

/// One packet: endpoint indices, port indices, transport, direction, flag
/// and gap choices, payload length.
type Step = (u8, u8, u8, bool, bool, u8, u8, u16);

fn packet(step: &Step) -> (FiveTuple, Option<TcpFlags>, usize) {
    let &(a, b, port, udp, reverse, flags, _, len) = step;
    let host = |i: u8| Ipv4Addr::new(10, 0, 0, 1 + i % 3);
    let ports = [53u16, 80, 40000, 40001];
    let src = Endpoint::new(host(a), ports[usize::from(port % 4)]);
    let dst = Endpoint::new(host(b), ports[usize::from(port / 4 % 4)]);
    let transport = if udp { Transport::Udp } else { Transport::Tcp };
    let tuple = FiveTuple::new(src, dst, transport);
    let tuple = if reverse { tuple.reversed() } else { tuple };
    let flags = (!udp).then(|| TcpFlags(FLAGS[usize::from(flags) % FLAGS.len()]));
    (tuple, flags, usize::from(len))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn lazy_expiry_matches_the_scan(
        steps in proptest::collection::vec(
            (0u8..3, 0u8..3, 0u8..16, any::<bool>(), any::<bool>(), any::<u8>(), 0u8..10, 0u16..600),
            1..300,
        ),
        max_flows in 1usize..8,
    ) {
        let config = FlowTableConfig {
            idle_timeout: 5.0,
            active_timeout: 20.0,
            max_flows,
        };
        let mut fast = FlowTable::new(config);
        let mut scan = ScanTable::new(config);
        let mut ts = 0.0;
        for (i, step) in steps.iter().enumerate() {
            ts += GAPS[usize::from(step.6)];
            let (tuple, flags, len) = packet(step);
            fast.observe(ts, tuple, len, flags);
            scan.observe(ts, tuple, len, flags);
            prop_assert_eq!(fast.harvest(), scan.harvest(), "after packet {}", i);
            prop_assert_eq!(fast.open_flows(), scan.flows.len(), "after packet {}", i);
        }
        prop_assert_eq!(fast.drain(), scan.drain());
    }
}
