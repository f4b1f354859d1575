//! The Internet checksum (RFC 1071) and the TCP/UDP pseudo-header variant.

use std::net::Ipv4Addr;

/// Incremental ones-complement sum accumulator.
///
/// Words accumulate in a `u64`, which cannot carry out before 2^48 words
/// (512 TiB); carries fold into 16 bits only in [`Checksum::finish`].
///
/// Feed it byte slices (odd-length slices are handled by padding the final
/// byte, matching the behaviour of summing the datagram as a sequence of
/// 16-bit big-endian words) and call [`Checksum::finish`] to obtain the
/// folded, complemented checksum field value.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checksum {
    sum: u64,
    /// A trailing odd byte from the previous `push`, if any.
    pending: Option<u8>,
}

impl Checksum {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `data` to the running sum.
    pub fn push(&mut self, data: &[u8]) {
        let mut data = data;
        if let Some(hi) = self.pending.take() {
            if let Some((&lo, rest)) = data.split_first() {
                self.sum += u64::from(u16::from_be_bytes([hi, lo]));
                data = rest;
            } else {
                self.pending = Some(hi);
                return;
            }
        }
        let (words, odd) = data.split_at(data.len() & !1);
        self.sum += word_sum(words);
        if let [last] = odd {
            self.pending = Some(*last);
        }
    }

    /// Add a single big-endian 16-bit word.
    pub fn push_u16(&mut self, word: u16) {
        self.push(&word.to_be_bytes());
    }

    /// Fold carries and return the complemented checksum.
    pub fn finish(mut self) -> u16 {
        if let Some(hi) = self.pending.take() {
            self.sum += u64::from(u16::from_be_bytes([hi, 0]));
        }
        fold_complement(self.sum)
    }
}

/// The plain integer sum of `data` as big-endian 16-bit words, an odd final
/// byte padded with zero: what [`Checksum`] accumulates before it folds.
///
/// Sums of word-aligned pieces add up to the sum of the whole, so a fixed
/// header's sum can be computed once and reused (`testutil::FrameTemplate`).
pub fn word_sum(data: &[u8]) -> u64 {
    const LOW_WORDS: u64 = 0x0000_ffff_0000_ffff;
    let mut chunks = data.chunks_exact(8);
    let mut sum = 0u64;
    for c in &mut chunks {
        // Four words at once: two 32-bit lanes of two words each.
        let x = u64::from_be_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        let pairs = (x & LOW_WORDS) + ((x >> 16) & LOW_WORDS);
        sum += (pairs & 0xffff_ffff) + (pairs >> 32);
    }
    let mut words = chunks.remainder().chunks_exact(2);
    for w in &mut words {
        sum += u64::from(u16::from_be_bytes([w[0], w[1]]));
    }
    if let [last] = words.remainder() {
        sum += u64::from(*last) << 8;
    }
    sum
}

/// Fold carries of a plain word sum into 16 bits and complement: the
/// checksum field value for the words summed.
pub fn fold_complement(mut sum: u64) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Compute the Internet checksum of a complete buffer.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.push(data);
    c.finish()
}

/// Verify a buffer whose checksum field is already populated.
///
/// A correct buffer sums (including its checksum field) to `0xffff` before
/// complementing, i.e. [`internet_checksum`] over it returns zero.
pub fn verify(data: &[u8]) -> bool {
    internet_checksum(data) == 0
}

/// Compute the TCP/UDP checksum over the IPv4 pseudo-header plus payload.
///
/// `segment` must contain the transport header and payload with its checksum
/// field zeroed (when computing) or populated (when verifying — in which case
/// a result of zero indicates validity).
pub fn pseudo_header_checksum(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: u8,
    segment: &[u8],
) -> u16 {
    let mut c = Checksum::new();
    c.push(&src.octets());
    c.push(&dst.octets());
    c.push_u16(u16::from(protocol));
    c.push_u16(segment.len() as u16);
    c.push(segment);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // The classic worked example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0x00 01 + 0xf2 03 + 0xf4 f5 + 0xf6 f7 = 0x2ddf0 -> fold -> 0xddf2
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(internet_checksum(&[0xab]), internet_checksum(&[0xab, 0x00]));
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0u16..301).map(|x| (x % 251) as u8).collect();
        let oneshot = internet_checksum(&data);
        for split in [0usize, 1, 2, 3, 150, 299, 300, 301] {
            let mut c = Checksum::new();
            c.push(&data[..split]);
            c.push(&data[split..]);
            assert_eq!(c.finish(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn odd_odd_chaining() {
        // Two odd-length pushes must combine into whole words across the seam.
        let data = [0x12u8, 0x34, 0x56, 0x78, 0x9a];
        let mut c = Checksum::new();
        c.push(&data[..1]);
        c.push(&data[1..4]);
        c.push(&data[4..]);
        assert_eq!(c.finish(), internet_checksum(&data));
    }

    /// RFC 1071 by definition: ones-complement 16-bit additions, each
    /// carry folded back in at once.
    fn reference_checksum(data: &[u8]) -> u16 {
        let mut sum: u16 = 0;
        for chunk in data.chunks(2) {
            let word = u16::from_be_bytes([chunk[0], chunk.get(1).copied().unwrap_or(0)]);
            let (s, carry) = sum.overflowing_add(word);
            sum = s + u16::from(carry);
        }
        !sum
    }

    #[test]
    fn large_buffers_match_the_reference() {
        // 0xff words overflowed a u32 accumulator after 65 538 words.
        assert_eq!(
            internet_checksum(&[0xff; 200_000]),
            reference_checksum(&[0xff; 200_000])
        );
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let data: Vec<u8> = (0..(1 << 20) + 1)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x.is_multiple_of(4) {
                    0xff
                } else {
                    (x >> 56) as u8
                }
            })
            .collect();
        for buf in [&data[..1 << 20], &data[..], &[0xffu8; 1 << 20][..]] {
            let oneshot = internet_checksum(buf);
            assert_eq!(oneshot, reference_checksum(buf), "len {}", buf.len());
            for split in [1usize, 2, 65_535, 131_073, 1 << 19, buf.len() - 1] {
                let mut c = Checksum::new();
                c.push(&buf[..split]);
                c.push(&buf[split..]);
                assert_eq!(c.finish(), oneshot, "len {} split at {split}", buf.len());
            }
        }
    }

    #[test]
    fn verify_roundtrip() {
        let mut data = vec![0u8; 20];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i * 7 + 3) as u8;
        }
        // Zero a "checksum field" at offset 10, then fill it in.
        data[10] = 0;
        data[11] = 0;
        let ck = internet_checksum(&data);
        data[10..12].copy_from_slice(&ck.to_be_bytes());
        assert!(verify(&data));
        data[0] ^= 0xff;
        assert!(!verify(&data));
    }

    #[test]
    fn pseudo_header_known_vector() {
        // Hand-checked UDP checksum: src 10.0.0.1 dst 10.0.0.2, proto 17,
        // segment = UDP header (ports 53->1024, len 9, ck 0) + payload "A".
        let seg = [0x00u8, 0x35, 0x04, 0x00, 0x00, 0x09, 0x00, 0x00, 0x41];
        let ck = pseudo_header_checksum(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            17,
            &seg,
        );
        // Verify by re-summing with the checksum included: must be valid.
        let mut filled = seg;
        filled[6..8].copy_from_slice(&ck.to_be_bytes());
        let residual = pseudo_header_checksum(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            17,
            &filled,
        );
        assert_eq!(residual, 0);
    }
}
