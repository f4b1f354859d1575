//! Property-based tests of the wire-format layer.

use proptest::prelude::*;

use netpkt::checksum::{internet_checksum, Checksum};
use netpkt::dns::{emit_query, parse_answers, DnsHeader, DnsQuestion, DnsRecordType, DNS_HEADER_LEN};
use netpkt::{
    EthernetFrame, IcmpMessage, Ipv4Packet, LinkType, LossyPcapReader, PcapPacket, PcapReader,
    PcapWriter, TcpFlags, TcpSegment, UdpDatagram,
};

/// Valid DNS labels: 1..=20 lowercase alphanumerics.
fn arb_name() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z0-9]{1,20}", 1..5).prop_map(|labels| labels.join("."))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Splitting the data at any point never changes the checksum.
    #[test]
    fn checksum_split_invariant(data in proptest::collection::vec(any::<u8>(), 0..400), split in any::<proptest::sample::Index>()) {
        let oneshot = internet_checksum(&data);
        let at = if data.is_empty() { 0 } else { split.index(data.len()) };
        let mut c = Checksum::new();
        c.push(&data[..at]);
        c.push(&data[at..]);
        prop_assert_eq!(c.finish(), oneshot);
    }

    /// Filling a checksum field always verifies; flipping any bit after
    /// filling always fails verification.
    #[test]
    fn checksum_fill_verify(mut data in proptest::collection::vec(any::<u8>(), 4..200), flip_at in any::<proptest::sample::Index>(), bit in 0u8..8) {
        let len = data.len();
        data[0] = 0;
        data[1] = 0;
        let ck = internet_checksum(&data);
        data[0..2].copy_from_slice(&ck.to_be_bytes());
        prop_assert_eq!(internet_checksum(&data), 0);
        let i = flip_at.index(len);
        data[i] ^= 1 << bit;
        prop_assert_ne!(internet_checksum(&data), 0, "flip at {} bit {}", i, bit);
    }

    /// Any valid name round-trips through DNS query encode/parse.
    #[test]
    fn dns_name_roundtrip(name in arb_name(), id in any::<u16>()) {
        let mut buf = vec![0u8; 512];
        let n = emit_query(&mut buf, id, &name, DnsRecordType::A).unwrap();
        let header = DnsHeader::parse(&buf[..n]).unwrap();
        prop_assert_eq!(header.id, id);
        let (q, end) = DnsQuestion::parse(&buf[..n], DNS_HEADER_LEN).unwrap();
        prop_assert_eq!(q.name, name);
        prop_assert_eq!(end, n);
    }

    /// Every layer decoder is total on arbitrary bytes: returns Ok or Err,
    /// never panics, never reads out of bounds.
    #[test]
    fn layer_decoders_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..700)) {
        let _ = EthernetFrame::parse(&bytes[..]);
        let _ = Ipv4Packet::parse(&bytes[..]);
        let _ = TcpSegment::parse(&bytes[..]);
        let _ = UdpDatagram::parse(&bytes[..]);
        let _ = IcmpMessage::parse(&bytes[..]);
        let _ = DnsHeader::parse(&bytes[..]);
        let _ = parse_answers(&bytes[..]);
    }

    /// Both pcap readers are total on arbitrary bytes; the lossy reader's
    /// accounting never loses track of input bytes.
    #[test]
    fn pcap_readers_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        if let Ok(mut strict) = PcapReader::new(&bytes[..]) {
            for _ in 0..200 {
                match strict.next_packet() {
                    Ok(Some(_)) => {}
                    Ok(None) | Err(_) => break,
                }
            }
        }
        if let Ok(reader) = LossyPcapReader::new(&bytes[..]) {
            let (packets, stats) = reader.read_all();
            prop_assert_eq!(packets.len() as u64, stats.records_ok);
            // Accounted bytes never exceed the capture.
            let payload: u64 = packets.iter().map(|p| p.data.len() as u64 + 16).sum();
            let accounted = payload + stats.bytes_skipped + stats.preamble_skipped + 24;
            prop_assert!(accounted <= bytes.len() as u64 + 24);
        }
    }

    /// Flipping bits anywhere in a valid capture never panics either
    /// reader, and the lossy reader still recovers only real records.
    #[test]
    fn pcap_bitflips_never_panic(
        flips in proptest::collection::vec((any::<proptest::sample::Index>(), 0u8..8), 0..12)
    ) {
        let mut w = PcapWriter::new(Vec::new(), LinkType::Ethernet).unwrap();
        for i in 0u32..8 {
            w.write_packet(&PcapPacket {
                ts_sec: 1_200_000_000 + i,
                ts_usec: i * 10,
                data: vec![i as u8; 20 + (i as usize % 7)],
            }).unwrap();
        }
        let mut bytes = w.finish().unwrap();
        let n = bytes.len();
        for (idx, bit) in &flips {
            bytes[idx.index(n)] ^= 1 << bit;
        }
        if let Ok(mut strict) = PcapReader::new(&bytes[..]) {
            while let Ok(Some(_)) = strict.next_packet() {}
        }
        if let Ok(reader) = LossyPcapReader::new(&bytes[..]) {
            let (packets, stats) = reader.read_all();
            prop_assert!(stats.records_ok <= 8 + stats.records_skipped);
            prop_assert_eq!(packets.len() as u64, stats.records_ok);
        }
    }

    /// The lossy reader recovers every remaining record after a forged
    /// length field, regardless of which record is hit.
    #[test]
    fn lossy_reader_resyncs_after_forged_length(victim in 0usize..6, forged in 0x0500_0000u32..0xffff_0000u32) {
        let mut w = PcapWriter::new(Vec::new(), LinkType::Ethernet).unwrap();
        for i in 0u32..6 {
            w.write_packet(&PcapPacket {
                ts_sec: 1_200_000_000 + i,
                ts_usec: 0,
                data: vec![0xab; 30],
            }).unwrap();
        }
        let mut bytes = w.finish().unwrap();
        // Record i starts at 24 + i * (16 + 30); incl_len at +8.
        let off = 24 + victim * 46 + 8;
        bytes[off..off + 4].copy_from_slice(&forged.to_le_bytes());
        let (packets, stats) = LossyPcapReader::new(&bytes[..]).unwrap().read_all();
        prop_assert_eq!(stats.records_ok, 5, "{:?}", stats);
        prop_assert_eq!(packets.len(), 5);
        prop_assert!(stats.records_skipped >= 1);
    }

    /// TCP flag bits survive the flag-byte mask independently.
    #[test]
    fn tcp_flags_bits(bits in 0u8..64) {
        let f = TcpFlags(bits);
        prop_assert_eq!(f.syn(), bits & 0x02 != 0);
        prop_assert_eq!(f.ack(), bits & 0x10 != 0);
        prop_assert_eq!(f.fin(), bits & 0x01 != 0);
        prop_assert_eq!(f.rst(), bits & 0x04 != 0);
        // Display never panics and mentions SYN iff set.
        let s = f.to_string();
        prop_assert_eq!(s.contains("SYN"), f.syn());
    }
}
