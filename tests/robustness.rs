//! Fault-injection / robustness properties: the measurement pipeline must
//! never panic on hostile or corrupted input — a HIDS that crashes on a
//! malformed packet is itself a vulnerability.

use proptest::prelude::*;

use flowtab::{DnsTracker, Endpoint, FlowExtractor, FlowTableConfig};
use netpkt::dns::parse_answers;
use netpkt::{DnsHeader, IcmpMessage, Ipv4Packet, PcapReader, TcpSegment, UdpDatagram};
use std::net::Ipv4Addr;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every parser returns Ok or Err — never panics — on arbitrary bytes.
    #[test]
    fn parsers_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        let _ = Ipv4Packet::parse(&bytes[..]);
        let _ = TcpSegment::parse(&bytes[..]);
        let _ = UdpDatagram::parse(&bytes[..]);
        let _ = IcmpMessage::parse(&bytes[..]);
        let _ = DnsHeader::parse(&bytes[..]);
        let _ = parse_answers(&bytes[..]);
    }

    /// The flow extractor accepts any frame bytes without panicking and
    /// never fabricates flows from garbage it rejected.
    #[test]
    fn extractor_total_on_garbage(frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 0..50)) {
        let mut ex = FlowExtractor::new(FlowTableConfig::default());
        let mut accepted = 0u64;
        for (i, frame) in frames.iter().enumerate() {
            if ex.push_frame(i as f64, frame).is_ok() {
                accepted += 1;
            }
        }
        prop_assert_eq!(ex.stats().accepted, accepted);
        prop_assert!(ex.finish().len() as u64 <= accepted);
    }

    /// A valid frame corrupted at a random position either still parses
    /// (the flip hit the payload) or is cleanly rejected — never panics.
    #[test]
    fn corrupted_valid_frame_handled(pos in 0usize..100, bit in 0u8..8) {
        let mut frame = netpkt::testutil::sample_tcp_syn();
        if pos < frame.len() {
            frame[pos] ^= 1 << bit;
        }
        let mut ex = FlowExtractor::new(FlowTableConfig::default());
        let _ = ex.push_frame(0.0, &frame);
        let _ = ex.finish();
    }

    /// The pcap reader is total on arbitrary bytes: it either errors or
    /// yields records, and bounded memory is respected (no multi-GiB
    /// allocations from a forged length).
    #[test]
    fn pcap_reader_total(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        if let Ok(mut reader) = PcapReader::new(&bytes[..]) {
            for _ in 0..100 {
                match reader.next_packet() {
                    Ok(Some(pkt)) => prop_assert!(pkt.data.len() <= 0x0400_0000),
                    Ok(None) | Err(_) => break,
                }
            }
        }
    }

    /// The DNS transaction tracker is total on arbitrary payloads.
    #[test]
    fn dns_tracker_total(payloads in proptest::collection::vec((any::<bool>(), proptest::collection::vec(any::<u8>(), 0..100)), 0..40)) {
        let client = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 5000);
        let mut tracker = DnsTracker::new(5.0);
        for (i, (from_client, payload)) in payloads.iter().enumerate() {
            tracker.observe(i as f64, client, *from_client, payload);
        }
        let (txs, stats) = tracker.finish();
        prop_assert!(stats.answered + stats.timed_out >= txs.iter().filter(|t| t.response_ts.is_some()).count() as u64);
        prop_assert!(stats.failure_rate() >= 0.0 && stats.failure_rate() <= 1.0);
    }

    /// A truncated pcap of valid frames loses at most the trailing record.
    #[test]
    fn truncated_pcap_degrades_gracefully(cut in 1usize..200) {
        use netpkt::{LinkType, PcapPacket, PcapWriter};
        let mut w = PcapWriter::new(Vec::new(), LinkType::Ethernet).unwrap();
        for i in 0..5u32 {
            w.write_packet(&PcapPacket {
                ts_sec: i,
                ts_usec: 0,
                data: netpkt::testutil::sample_tcp_syn(),
            })
            .unwrap();
        }
        let mut bytes = w.finish().unwrap();
        let record_len = 16 + netpkt::testutil::sample_tcp_syn().len();
        let cut = cut.min(bytes.len() - 24);
        bytes.truncate(bytes.len() - cut);
        let mut reader = PcapReader::new(&bytes[..]).unwrap();
        let mut ok = 0usize;
        while let Ok(Some(_)) = reader.next_packet() {
            ok += 1;
        }
        let lost_at_most = cut.div_ceil(record_len);
        prop_assert!(
            ok + lost_at_most >= 5,
            "only truncated records lost: kept {ok}, cut {cut} (record {record_len})"
        );
    }
}
