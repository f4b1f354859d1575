//! Expand window counts into concrete flow records and packets.
//!
//! This is the *faithful* measurement path: the inverse of feature
//! extraction. Given a window's [`FeatureCounts`] it fabricates a set of
//! flow records whose extracted features reproduce those counts exactly,
//! and can further render every flow into a valid packet exchange
//! (Ethernet/IPv4/TCP/UDP frames with correct checksums) suitable for pcap
//! export and re-ingestion through [`flowtab::FlowExtractor`].
//!
//! The equivalence `counts -> flows -> extract == counts` and
//! `counts -> flows -> packets -> extract == counts` is what licenses the
//! population-scale experiments to run at count level (see DESIGN.md §5).

use std::fmt::Write;
use std::net::Ipv4Addr;

use flowtab::{
    total_order_key, AppProtocol, Endpoint, FeatureCounts, FeatureKind, FlowRecord, Transport,
    Windowing,
};
use netpkt::dns::DnsRecordType;
use netpkt::testutil::{FrameSpec, FrameTemplate};
use netpkt::{MacAddr, TcpFlags};
use rand::Rng;

use crate::counts::invariants_hold;
use crate::profile::UserProfile;

/// Resolver addresses used by all rendered DNS traffic (at most two, which
/// is what bounds the resolvers' contribution to `num-distinct`).
pub const RESOLVERS: [Ipv4Addr; 2] = [Ipv4Addr::new(10, 8, 0, 53), Ipv4Addr::new(10, 8, 1, 53)];

/// Render one window's counts into flow records.
///
/// The produced flows all start inside the window and satisfy, under
/// [`flowtab::extract_features`], exactly the input counts.
///
/// # Panics
/// Panics (debug assertion) if `counts` violates the generator invariants
/// or exceeds ~60 000 flows (source-port space for one window).
pub fn render_window_flows<R: Rng + ?Sized>(
    profile: &UserProfile,
    counts: &FeatureCounts,
    window_idx: usize,
    windowing: Windowing,
    rng: &mut R,
) -> Vec<FlowRecord> {
    debug_assert!(invariants_hold(counts), "bad counts: {counts:?}");
    let tcp = counts.get(FeatureKind::TcpConnections);
    let syn = counts.get(FeatureKind::TcpSyn);
    let http = counts.get(FeatureKind::HttpConnections);
    let udp = counts.get(FeatureKind::UdpConnections);
    let dns = counts.get(FeatureKind::DnsConnections);
    let distinct = counts.get(FeatureKind::DistinctConnections);
    let total = tcp + udp + dns;
    assert!(total <= 60_000, "window too large to render as flows");
    if total == 0 {
        return Vec::new();
    }

    let base_ts = window_idx as f64 * windowing.width_secs;
    let span = windowing.width_secs - 10.0;
    let mut next_src_port: u16 = 1025;
    let mut alloc_port = move || {
        let p = next_src_port;
        next_src_port = next_src_port.wrapping_add(1).max(1025);
        p
    };

    // Destination pool: r_used resolver addresses plus unique other hosts.
    let r_used = dns.min(2).min(distinct) as usize;
    let others = (distinct as usize) - r_used;
    let mut other_dests = Vec::with_capacity(others);
    for i in 0..others {
        // 172.16.0.0/12-ish space, unique per index.
        other_dests.push(Ipv4Addr::new(
            172,
            (16 + (i >> 16)) as u8,
            ((i >> 8) & 0xff) as u8,
            (i & 0xff) as u8,
        ));
    }

    let mut flows = Vec::with_capacity(total as usize);
    let ts_in_window = |rng: &mut R| base_ts + 1.0 + rng.random::<f64>() * span;

    // `non_dns_assignments[i]` is the responder address of the i-th TCP/UDP
    // flow: first cover every "other" destination once, then reuse.
    let non_dns = (tcp + udp) as usize;
    let mut assignments: Vec<Ipv4Addr> = Vec::with_capacity(non_dns);
    for dest in &other_dests {
        assignments.push(*dest);
    }
    while assignments.len() < non_dns {
        let reuse = if other_dests.is_empty() {
            RESOLVERS[rng.random_range(0..r_used.max(1)) % RESOLVERS.len()]
        } else {
            other_dests[rng.random_range(0..other_dests.len())]
        };
        assignments.push(reuse);
    }
    // Shuffle so HTTP flows don't systematically hit the "new" dests.
    for i in (1..assignments.len()).rev() {
        assignments.swap(i, rng.random_range(0..=i));
    }

    // Extra SYN retransmissions to distribute over the TCP flows.
    let mut extra_syn = syn - tcp;

    for (i, dest) in assignments.iter().take(tcp as usize).enumerate() {
        let is_http = (i as u64) < http;
        let dport = if is_http {
            80
        } else {
            // Anything TCP that is not DNS(53)/HTTP(80,8080).
            [443u16, 22, 143, 993, 5222][rng.random_range(0..5)]
        };
        let retx = if extra_syn > 0 {
            let take = extra_syn.min(1 + rng.random_range(0..3));
            extra_syn -= take;
            take
        } else {
            0
        };
        let first_ts = ts_in_window(rng);
        let mut record = FlowRecord::synthetic(
            Endpoint::new(profile.addr, alloc_port()),
            Endpoint::new(*dest, dport),
            Transport::Tcp,
            first_ts,
            0.5 + rng.random::<f64>() * 3.0,
            4 + retx,
            200 + rng.random_range(0..4000),
            true,
        );
        record.syn_count = 1 + retx as u32;
        flows.push(record);
    }
    // Any undistributed retransmissions pile onto the last TCP flow.
    if extra_syn > 0 {
        if let Some(last) = flows.last_mut() {
            last.syn_count += extra_syn as u32;
        }
    }

    for dest in assignments.iter().skip(tcp as usize) {
        let dport = [123u16, 500, 4500, 27015, 3478][rng.random_range(0..5)];
        let first_ts = ts_in_window(rng);
        flows.push(FlowRecord::synthetic(
            Endpoint::new(profile.addr, alloc_port()),
            Endpoint::new(*dest, dport),
            Transport::Udp,
            first_ts,
            0.05 + rng.random::<f64>(),
            2,
            120 + rng.random_range(0..800),
            false,
        ));
    }

    for i in 0..dns {
        let resolver = RESOLVERS[if r_used == 0 { 0 } else { (i as usize) % r_used }];
        let first_ts = ts_in_window(rng);
        flows.push(FlowRecord::synthetic(
            Endpoint::new(profile.addr, alloc_port()),
            Endpoint::new(resolver, 53),
            Transport::Udp,
            first_ts,
            0.01 + rng.random::<f64>() * 0.2,
            1,
            60 + rng.random_range(0..120),
            false,
        ));
    }

    debug_assert!(flows.iter().all(|f| {
        windowing.window_of(f.first_ts) == window_idx
    }));
    flows.sort_by_cached_key(|f| total_order_key(f.first_ts));
    flows
}

/// A rendered frame with its capture timestamp.
#[derive(Debug, Clone)]
pub struct TimedFrame {
    /// Capture timestamp, seconds.
    pub ts: f64,
    /// Complete Ethernet frame bytes.
    pub frame: Vec<u8>,
}

/// Render flow records into a timestamp-sorted packet exchange.
///
/// Each TCP flow becomes `syn_count` SYNs, a SYN|ACK, the handshake ACK,
/// one data segment each way and a FIN exchange; each DNS flow a
/// query/response pair; each other UDP flow a two-packet exchange.
///
/// Frames come from one [`FrameTemplate`] per flow direction and are
/// ordered by `(timestamp, render index)`: the bytes and order of
/// [`oracle::render_flows_to_frames`], which builds every frame from
/// scratch and stable-sorts them (DESIGN.md §5).
pub fn render_flows_to_frames<R: Rng + ?Sized>(flows: &[FlowRecord], rng: &mut R) -> Vec<TimedFrame> {
    let mut frames: Vec<TimedFrame> = Vec::with_capacity(flows.iter().map(frame_count).sum());
    let mut ip_id: u16 = 1;
    let mut name = String::new();
    let mut msg = [0u8; 512];
    for flow in flows {
        let (fwd, rev) = flow_specs(flow, &mut ip_id);
        let t0 = flow.first_ts;
        let mut push = |ts, frame| frames.push(TimedFrame { ts, frame });
        match (flow.transport, flow.app) {
            (Transport::Tcp, _) => {
                let (fwd, rev) = (FrameTemplate::tcp(&fwd), FrameTemplate::tcp(&rev));
                let mut t = t0;
                for k in 0..flow.syn_count.max(1) {
                    push(t, fwd.tcp_frame(TcpFlags::syn_only(), 100 + k, &[]));
                    t += 0.05;
                }
                let data = TcpFlags(TcpFlags::ACK | TcpFlags::PSH);
                let fin = TcpFlags(TcpFlags::FIN | TcpFlags::ACK);
                push(t, rev.tcp_frame(TcpFlags::syn_ack(), 900, &[]));
                push(t + 0.01, fwd.tcp_frame(TcpFlags(TcpFlags::ACK), 101, &[]));
                push(t + 0.02, fwd.tcp_frame(data, 101, HTTP_REQUEST));
                push(t + 0.08, rev.tcp_frame(data, 901, HTTP_RESPONSE));
                push(t + 0.1, fwd.tcp_frame(fin, 130, &[]));
                push(t + 0.12, rev.tcp_frame(fin, 920, &[]));
            }
            (Transport::Udp, AppProtocol::Dns) => {
                let txid = rng.random::<u16>();
                name.clear();
                let _ = write!(name, "host{}.corp.example", rng.random_range(0..100_000));
                let n = netpkt::dns::emit_query(&mut msg, txid, &name, DnsRecordType::A)
                    .expect("query fits");
                let query = FrameSpec { dst_port: 53, ..fwd };
                push(t0, FrameTemplate::udp(&query).udp_frame(&msg[..n]));
                // A well-formed A-record response from the resolver.
                let answer =
                    Ipv4Addr::new(172, rng.random_range(16..32), rng.random(), rng.random());
                let n = netpkt::dns::emit_a_response(&mut msg, txid, &name, &[answer], 300)
                    .expect("response fits");
                push(t0 + 0.02, FrameTemplate::udp(&rev).udp_frame(&msg[..n]));
            }
            (Transport::Udp, _) => {
                push(t0, FrameTemplate::udp(&fwd).udp_frame(&[0xAB; 64]));
                push(t0 + 0.03, FrameTemplate::udp(&rev).udp_frame(&[0xCD; 64]));
            }
            (Transport::Icmp, _) => {}
        }
    }
    // Order `(key, index)` pairs, not the frames, then move each frame
    // once into its place.
    let mut sorted = Vec::with_capacity(frames.len());
    sorted.extend(time_order(&frames).into_iter().map(|(_, i)| {
        let f = &mut frames[i as usize];
        TimedFrame {
            ts: f.ts,
            frame: std::mem::take(&mut f.frame),
        }
    }));
    sorted
}

/// Every frame's `(total_order_key(ts), index)`, ascending. Indices are
/// unique, so this is a stable sort by time.
///
/// A counting pass spreads the pairs, in index order, over about `n / 4`
/// buckets of equal key range; each bucket is then sorted alone. Bucket
/// numbers rise with the key, so the buckets concatenate in order. A
/// window's frames spread evenly over its 15 minutes, so buckets hold a
/// few frames each, and this costs about half of one `sort_unstable`
/// over all pairs; a skewed spread only makes some buckets larger.
fn time_order(frames: &[TimedFrame]) -> Vec<(i64, u32)> {
    let key = |f: &TimedFrame| total_order_key(f.ts);
    let (lo, hi) = frames
        .iter()
        .map(key)
        .fold((i64::MAX, i64::MIN), |(lo, hi), k| (lo.min(k), hi.max(k)));
    let buckets = frames.len() / 4 + 2;
    let span = hi.wrapping_sub(lo) as u64;
    // At most 63: with two or more buckets, `span >> 63 <= 1` always fits.
    let shift = (0..64).find(|&s| span >> s < buckets as u64).unwrap_or(63);
    let bucket = |k: i64| (k.wrapping_sub(lo) as u64 >> shift) as usize;
    // Counts, then each bucket's next free slot.
    let mut next = vec![0u32; buckets];
    for f in frames {
        next[bucket(key(f))] += 1;
    }
    let mut start = 0;
    for slot in &mut next {
        let count = *slot;
        *slot = start;
        start += count;
    }
    let mut order = vec![(0i64, 0u32); frames.len()];
    for (i, f) in frames.iter().enumerate() {
        let k = key(f);
        let b = bucket(k);
        order[next[b] as usize] = (k, i as u32);
        next[b] += 1;
    }
    // Each slot now holds its bucket's end.
    let mut start = 0;
    for &end in &next {
        order[start..end as usize].sort_unstable();
        start = end as usize;
    }
    order
}

const HTTP_REQUEST: &[u8] = b"GET / HTTP/1.1\r\nHost: x\r\n\r\n";
const HTTP_RESPONSE: &[u8] = b"HTTP/1.1 200 OK\r\n\r\n";

/// The two directions' frame parameters of `flow`, drawing the forward
/// then the reverse IP identification from `ip_id`.
fn flow_specs(flow: &FlowRecord, ip_id: &mut u16) -> (FrameSpec, FrameSpec) {
    let mut id = || {
        *ip_id = ip_id.wrapping_add(1);
        *ip_id
    };
    let fwd = FrameSpec {
        src_mac: MacAddr::from_host_id(u32::from_be_bytes(flow.initiator.addr.octets())),
        dst_mac: MacAddr::from_host_id(u32::from_be_bytes(flow.responder.addr.octets())),
        src_ip: flow.initiator.addr,
        dst_ip: flow.responder.addr,
        src_port: flow.initiator.port,
        dst_port: flow.responder.port,
        ip_id: id(),
    };
    let rev = FrameSpec {
        src_mac: fwd.dst_mac,
        dst_mac: fwd.src_mac,
        src_ip: fwd.dst_ip,
        dst_ip: fwd.src_ip,
        src_port: fwd.dst_port,
        dst_port: fwd.src_port,
        ip_id: id(),
    };
    (fwd, rev)
}

/// The number of frames [`render_flows_to_frames`] renders for `flow`.
fn frame_count(flow: &FlowRecord) -> usize {
    match (flow.transport, flow.app) {
        (Transport::Tcp, _) => flow.syn_count.max(1) as usize + 6,
        (Transport::Udp, _) => 2,
        (Transport::Icmp, _) => 0,
    }
}

/// The renderer as first written: every frame built from scratch by
/// `netpkt::testutil`'s builders, then the frames stable-sorted by time.
/// [`render_flows_to_frames`] must reproduce it byte for byte;
/// `tests/oracle.rs` holds the two equal.
pub mod oracle {
    use flowtab::{total_order_key, AppProtocol, FlowRecord, Transport};
    use netpkt::testutil::{build_dns_query_frame, build_tcp_frame, build_udp_frame, FrameSpec};
    use netpkt::{MacAddr, TcpFlags};
    use rand::Rng;

    use super::{frame_count, TimedFrame};

    /// Render flow records into a timestamp-sorted packet exchange.
    ///
    /// Each TCP flow becomes `syn_count` SYNs, a SYN|ACK, the handshake ACK,
    /// one data segment each way and a FIN exchange; each DNS flow a
    /// query/response pair; each other UDP flow a two-packet exchange.
    pub fn render_flows_to_frames<R: Rng + ?Sized>(flows: &[FlowRecord], rng: &mut R) -> Vec<TimedFrame> {
        let mut frames: Vec<TimedFrame> = Vec::with_capacity(flows.iter().map(frame_count).sum());
        let mut ip_id: u16 = 1;
        for flow in flows {
            let mut id = || {
                ip_id = ip_id.wrapping_add(1);
                ip_id
            };
            let fwd = FrameSpec {
                src_mac: MacAddr::from_host_id(u32::from_be_bytes(flow.initiator.addr.octets())),
                dst_mac: MacAddr::from_host_id(u32::from_be_bytes(flow.responder.addr.octets())),
                src_ip: flow.initiator.addr,
                dst_ip: flow.responder.addr,
                src_port: flow.initiator.port,
                dst_port: flow.responder.port,
                ip_id: id(),
            };
            let rev = FrameSpec {
                src_mac: fwd.dst_mac,
                dst_mac: fwd.src_mac,
                src_ip: fwd.dst_ip,
                dst_ip: fwd.src_ip,
                src_port: fwd.dst_port,
                dst_port: fwd.src_port,
                ip_id: id(),
            };
            let t0 = flow.first_ts;
            match (flow.transport, flow.app) {
                (Transport::Tcp, _) => {
                    let mut t = t0;
                    for k in 0..flow.syn_count.max(1) {
                        frames.push(TimedFrame {
                            ts: t,
                            frame: build_tcp_frame(&fwd, TcpFlags::syn_only(), 100 + k, &[]),
                        });
                        t += 0.05;
                    }
                    frames.push(TimedFrame {
                        ts: t,
                        frame: build_tcp_frame(&rev, TcpFlags::syn_ack(), 900, &[]),
                    });
                    frames.push(TimedFrame {
                        ts: t + 0.01,
                        frame: build_tcp_frame(&fwd, TcpFlags(TcpFlags::ACK), 101, &[]),
                    });
                    frames.push(TimedFrame {
                        ts: t + 0.02,
                        frame: build_tcp_frame(
                            &fwd,
                            TcpFlags(TcpFlags::ACK | TcpFlags::PSH),
                            101,
                            b"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
                        ),
                    });
                    frames.push(TimedFrame {
                        ts: t + 0.08,
                        frame: build_tcp_frame(&rev, TcpFlags(TcpFlags::ACK | TcpFlags::PSH), 901, b"HTTP/1.1 200 OK\r\n\r\n"),
                    });
                    frames.push(TimedFrame {
                        ts: t + 0.1,
                        frame: build_tcp_frame(&fwd, TcpFlags(TcpFlags::FIN | TcpFlags::ACK), 130, &[]),
                    });
                    frames.push(TimedFrame {
                        ts: t + 0.12,
                        frame: build_tcp_frame(&rev, TcpFlags(TcpFlags::FIN | TcpFlags::ACK), 920, &[]),
                    });
                }
                (Transport::Udp, AppProtocol::Dns) => {
                    let txid = rng.random::<u16>();
                    let name = format!("host{}.corp.example", rng.random_range(0..100_000));
                    frames.push(TimedFrame {
                        ts: t0,
                        frame: build_dns_query_frame(&fwd, txid, &name),
                    });
                    // A well-formed A-record response from the resolver.
                    let answer = std::net::Ipv4Addr::new(
                        172,
                        rng.random_range(16..32),
                        rng.random(),
                        rng.random(),
                    );
                    let mut msg = vec![0u8; 512];
                    let n = netpkt::dns::emit_a_response(&mut msg, txid, &name, &[answer], 300)
                        .expect("response fits");
                    msg.truncate(n);
                    frames.push(TimedFrame {
                        ts: t0 + 0.02,
                        frame: build_udp_frame(&rev, &msg),
                    });
                }
                (Transport::Udp, _) => {
                    frames.push(TimedFrame {
                        ts: t0,
                        frame: build_udp_frame(&fwd, &[0xAB; 64]),
                    });
                    frames.push(TimedFrame {
                        ts: t0 + 0.03,
                        frame: build_udp_frame(&rev, &[0xCD; 64]),
                    });
                }
                (Transport::Icmp, _) => {}
            }
        }
        // A stable sort on the integer key, not `sort_by_cached_key`: its
        // index array made `pcap-heavy` slower and raised its peak RSS.
        frames.sort_by_key(|f| total_order_key(f.ts));
        frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::{user_week_series, window_counts};
    use crate::profile::{stream_rng, Population, PopulationConfig};
    use flowtab::{extract_features, FlowExtractor, FlowTableConfig};

    fn test_profile() -> UserProfile {
        let mut profile = Population::sample(PopulationConfig {
            n_users: 4,
            ..Default::default()
        })
        .users[1]
            .clone();
        // Pin moderate tail levels so the test windows are reliably busy
        // without being huge.
        profile.levels = crate::profile::TailLevels {
            tcp: 400.0,
            udp: 150.0,
            dns: 80.0,
        };
        profile
    }

    fn busy_counts(profile: &UserProfile) -> FeatureCounts {
        // Find a non-trivial window deterministically.
        let mut rng = stream_rng(7, profile.id, 9);
        for _ in 0..400 {
            let c = window_counts(profile, &mut rng, 11.0 * 3600.0, false);
            let total = c.get(FeatureKind::TcpConnections)
                + c.get(FeatureKind::UdpConnections)
                + c.get(FeatureKind::DnsConnections);
            if (20..40_000).contains(&total) {
                return c;
            }
        }
        panic!("no busy window found");
    }

    #[test]
    fn flow_path_reproduces_counts_exactly() {
        let profile = test_profile();
        let counts = busy_counts(&profile);
        let mut rng = stream_rng(1, 1, 1);
        let w = 5usize;
        let flows = render_window_flows(&profile, &counts, w, Windowing::FIFTEEN_MIN, &mut rng);
        let series = extract_features(&flows, profile.addr, Windowing::FIFTEEN_MIN, w + 1);
        assert_eq!(series.windows[w], counts, "flow path must round-trip");
        for earlier in &series.windows[..w] {
            assert_eq!(*earlier, FeatureCounts::default());
        }
    }

    #[test]
    fn packet_path_reproduces_counts_exactly() {
        let profile = test_profile();
        let counts = {
            // Keep the packet test modest in size.
            let mut c = busy_counts(&profile);
            for k in FeatureKind::ALL {
                *c.get_mut(k) = c.get(k).min(300);
            }
            // Re-impose invariants after capping.
            let tcp = c.get(FeatureKind::TcpConnections);
            if c.get(FeatureKind::TcpSyn) < tcp {
                *c.get_mut(FeatureKind::TcpSyn) = tcp;
            }
            let max_http = tcp.min(c.get(FeatureKind::HttpConnections));
            *c.get_mut(FeatureKind::HttpConnections) = max_http;
            let max_distinct = tcp
                + c.get(FeatureKind::UdpConnections)
                + c.get(FeatureKind::DnsConnections).min(2);
            let d = c.get(FeatureKind::DistinctConnections).min(max_distinct).max(1);
            *c.get_mut(FeatureKind::DistinctConnections) = d;
            c
        };
        let mut rng = stream_rng(2, 1, 2);
        let w = 2usize;
        let flows = render_window_flows(&profile, &counts, w, Windowing::FIFTEEN_MIN, &mut rng);
        let frames = render_flows_to_frames(&flows, &mut rng);
        let mut ex = FlowExtractor::new(FlowTableConfig::default());
        for f in &frames {
            ex.push_frame(f.ts, &f.frame).expect("rendered frames parse");
        }
        let records = ex.finish();
        let series = extract_features(&records, profile.addr, Windowing::FIFTEEN_MIN, w + 1);
        assert_eq!(series.windows[w], counts, "packet path must round-trip");
    }

    #[test]
    fn frames_fill_their_reservation_exactly() {
        let profile = test_profile();
        let counts = busy_counts(&profile);
        let mut rng = stream_rng(6, 1, 6);
        let flows = render_window_flows(&profile, &counts, 1, Windowing::FIFTEEN_MIN, &mut rng);
        let frames = render_flows_to_frames(&flows, &mut rng);
        assert_eq!(frames.len(), flows.iter().map(frame_count).sum::<usize>());
        assert_eq!(frames.capacity(), frames.len());
        assert!(frames.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn time_order_is_the_stable_sort_for_any_timestamps() {
        let odd = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            1e-310,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            900.5,
        ];
        let mut rng = stream_rng(8, 1, 8);
        for len in [0usize, 1, 2, 3, 7, 40, 1000] {
            for spread in [1.0, 1e-9, 1e300] {
                let frames: Vec<TimedFrame> = (0..len)
                    .map(|i| TimedFrame {
                        ts: if i % 5 == 0 {
                            odd[rng.random_range(0..odd.len())]
                        } else {
                            // Ties: a coarse grid of times.
                            (rng.random_range(0..50) as f64) * spread
                        },
                        frame: Vec::new(),
                    })
                    .collect();
                let mut want: Vec<(i64, u32)> = frames
                    .iter()
                    .enumerate()
                    .map(|(i, f)| (total_order_key(f.ts), i as u32))
                    .collect();
                want.sort();
                assert_eq!(time_order(&frames), want, "len {len}, spread {spread}");
            }
        }
    }

    #[test]
    fn empty_window_renders_nothing() {
        let profile = test_profile();
        let mut rng = stream_rng(3, 1, 3);
        let flows = render_window_flows(
            &profile,
            &FeatureCounts::default(),
            0,
            Windowing::FIFTEEN_MIN,
            &mut rng,
        );
        assert!(flows.is_empty());
    }

    #[test]
    fn whole_week_flow_path_matches_fast_path() {
        // Spot-check several windows of a real generated week.
        let profile = test_profile();
        let series = user_week_series(&profile, 11, 0, Windowing::FIFTEEN_MIN);
        let mut rng = stream_rng(4, 1, 4);
        let mut checked = 0;
        for (w, counts) in series.windows.iter().enumerate() {
            let total = counts.get(FeatureKind::TcpConnections)
                + counts.get(FeatureKind::UdpConnections)
                + counts.get(FeatureKind::DnsConnections);
            if total == 0 || total > 20_000 {
                continue;
            }
            let flows =
                render_window_flows(&profile, counts, w, Windowing::FIFTEEN_MIN, &mut rng);
            let got = extract_features(&flows, profile.addr, Windowing::FIFTEEN_MIN, w + 1);
            assert_eq!(got.windows[w], *counts, "window {w}");
            checked += 1;
            if checked >= 25 {
                break;
            }
        }
        assert!(checked >= 10, "too few non-empty windows checked: {checked}");
    }

    #[test]
    fn rendered_flows_have_unique_source_ports() {
        let profile = test_profile();
        let counts = busy_counts(&profile);
        let mut rng = stream_rng(5, 1, 5);
        let flows = render_window_flows(&profile, &counts, 0, Windowing::FIFTEEN_MIN, &mut rng);
        let mut ports: Vec<u16> = flows.iter().map(|f| f.initiator.port).collect();
        let before = ports.len();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), before);
    }
}
