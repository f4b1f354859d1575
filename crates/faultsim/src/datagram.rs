//! Seeded UDP datagram faults for the wire-facing ingest plane.
//!
//! `fleetd::ingest` receives telemetry as unreliable datagrams, and the
//! network does to datagrams what it always does: loses them, delivers
//! them twice, flips their bytes in flight, and hands over truncated
//! fragments. This module injects exactly those four failure modes,
//! deterministically per `(seed, index)` — datagram `i` of a stream is
//! faulted identically no matter what happened to datagrams `0..i`, so a
//! sharded or resumed replay stays bit-identical.
//!
//! Deliberately **no reordering**: the ingest harness feeds the daemon
//! through the same stop-and-wait delivery loop as the synthetic path,
//! which requires per-host sequence order. Duplication is safe (the
//! daemon dedups by `seq`); reordering belongs to [`crate::batchfault`],
//! which attacks the console's resequencing path instead.

use std::borrow::Cow;

use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::Serialize;

use crate::subseed;

/// Knobs for datagram faults. All rates are probabilities in `[0, 1]`;
/// zero everywhere means `apply` passes every datagram through intact.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DatagramFaults {
    /// Probability a datagram is silently lost.
    pub drop_rate: f64,
    /// Probability a delivered datagram arrives twice.
    pub dup_rate: f64,
    /// Probability a delivered datagram has one byte bit-flipped.
    pub corrupt_rate: f64,
    /// Probability a delivered datagram loses a random-length tail.
    pub truncate_rate: f64,
}

impl DatagramFaults {
    /// No faults at all.
    pub fn none() -> Self {
        Self {
            drop_rate: 0.0,
            dup_rate: 0.0,
            corrupt_rate: 0.0,
            truncate_rate: 0.0,
        }
    }

    /// True when `apply` is the identity.
    pub fn is_none(&self) -> bool {
        self.drop_rate == 0.0
            && self.dup_rate == 0.0
            && self.corrupt_rate == 0.0
            && self.truncate_rate == 0.0
    }

    /// A profile scaled by one severity knob in `[0, 1]`, mirroring
    /// [`crate::FaultPlan::with_severity`]. Severity 0 is the identity;
    /// severity 1 is a badly misbehaving access network.
    pub fn with_severity(severity: f64) -> Self {
        let s = severity.clamp(0.0, 1.0);
        Self {
            drop_rate: 0.10 * s,
            dup_rate: 0.08 * s,
            corrupt_rate: 0.12 * s,
            truncate_rate: 0.08 * s,
        }
    }

    /// Fault datagram number `index` of the stream seeded by `seed`.
    /// Returns the 0, 1 or 2 copies that actually arrive (duplicates are
    /// byte-identical to their faulted original) and updates `log`. A copy
    /// no fault touched borrows `payload`; only a corrupted or truncated
    /// one is a new buffer.
    ///
    /// Determinism contract: the outcome depends only on
    /// `(self, seed, index, payload)` — never on other datagrams.
    pub fn apply<'a>(
        &self,
        payload: &'a [u8],
        seed: u64,
        index: u64,
        log: &mut DatagramFaultLog,
    ) -> Vec<Cow<'a, [u8]>> {
        log.offered += 1;
        if self.is_none() {
            log.delivered += 1;
            return vec![Cow::Borrowed(payload)];
        }
        let mut rng = StdRng::seed_from_u64(subseed(seed, index.wrapping_add(0xDA7A)));
        if self.drop_rate > 0.0 && rng.random_bool(self.drop_rate) {
            log.dropped += 1;
            return Vec::new();
        }
        let mut out = Cow::Borrowed(payload);
        if self.corrupt_rate > 0.0 && !out.is_empty() && rng.random_bool(self.corrupt_rate) {
            let pos = rng.random_range(0..out.len());
            let bit: u8 = rng.random_range(0u8..8);
            out.to_mut()[pos] ^= 1 << bit;
            log.corrupted += 1;
        }
        if self.truncate_rate > 0.0 && out.len() > 1 && rng.random_bool(self.truncate_rate) {
            let cut = rng.random_range(1..out.len());
            out.to_mut().truncate(cut);
            log.truncated += 1;
        }
        log.delivered += 1;
        if self.dup_rate > 0.0 && rng.random_bool(self.dup_rate) {
            log.duplicated += 1;
            log.delivered += 1;
            return vec![out.clone(), out];
        }
        vec![out]
    }
}

/// What the faulted network did to a datagram stream.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DatagramFaultLog {
    /// Datagrams offered for transmission.
    pub offered: u64,
    /// Copies that arrived (duplicates count twice).
    pub delivered: u64,
    /// Datagrams silently lost.
    pub dropped: u64,
    /// Datagrams delivered twice.
    pub duplicated: u64,
    /// Datagrams with a flipped byte.
    pub corrupted: u64,
    /// Datagrams with a lost tail.
    pub truncated: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(seed: u64, faults: DatagramFaults) -> (Vec<Vec<u8>>, DatagramFaultLog) {
        let mut log = DatagramFaultLog::default();
        let mut arrived = Vec::new();
        for i in 0..400u64 {
            let payload = vec![i as u8; 40 + (i % 17) as usize];
            let copies = faults.apply(&payload, seed, i, &mut log);
            arrived.extend(copies.into_iter().map(Cow::into_owned));
        }
        (arrived, log)
    }

    #[test]
    fn severity_zero_is_identity() {
        let faults = DatagramFaults::with_severity(0.0);
        assert!(faults.is_none());
        let (arrived, log) = drive(1, faults);
        assert_eq!(arrived.len(), 400);
        assert_eq!(log.delivered, 400);
        assert_eq!(log.dropped + log.duplicated + log.corrupted + log.truncated, 0);
    }

    #[test]
    fn same_seed_same_stream() {
        let faults = DatagramFaults::with_severity(1.0);
        let (a, log_a) = drive(42, faults);
        let (b, log_b) = drive(42, faults);
        assert_eq!(a, b);
        assert_eq!(log_a, log_b);
        let (c, _) = drive(43, faults);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn outcome_independent_of_neighbours() {
        // Datagram 123 gets the same fate whether or not 0..123 ran first.
        let faults = DatagramFaults::with_severity(0.7);
        let payload = vec![9u8; 64];
        let mut log = DatagramFaultLog::default();
        let alone = faults.apply(&payload, 5, 123, &mut log);
        let (_, _) = drive(5, faults);
        let mut log2 = DatagramFaultLog::default();
        let again = faults.apply(&payload, 5, 123, &mut log2);
        assert_eq!(alone, again);
    }

    #[test]
    fn severity_one_exercises_every_fault_class() {
        let (_, log) = drive(7, DatagramFaults::with_severity(1.0));
        assert!(log.dropped > 0);
        assert!(log.duplicated > 0);
        assert!(log.corrupted > 0);
        assert!(log.truncated > 0);
        assert!(log.dropped < log.offered, "most datagrams still get through");
    }

    #[test]
    fn duplicates_are_byte_identical() {
        let faults = DatagramFaults {
            dup_rate: 1.0,
            ..DatagramFaults::none()
        };
        let mut log = DatagramFaultLog::default();
        let copies = faults.apply(b"payload", 3, 0, &mut log);
        assert_eq!(copies.len(), 2);
        assert_eq!(copies[0], copies[1]);
        assert_eq!(&*copies[0], b"payload");
        assert_eq!(log.offered, 1);
        assert_eq!(log.delivered, 2);
    }

    #[test]
    fn untouched_copies_borrow_the_payload() {
        let payload = b"clean wire".to_vec();
        let mut log = DatagramFaultLog::default();
        let dup_only = DatagramFaults {
            dup_rate: 1.0,
            ..DatagramFaults::none()
        };
        for faults in [DatagramFaults::none(), dup_only] {
            for copy in faults.apply(&payload, 3, 0, &mut log) {
                assert!(matches!(copy, Cow::Borrowed(b) if b.as_ptr() == payload.as_ptr()));
            }
        }
        let corrupt = DatagramFaults {
            corrupt_rate: 1.0,
            ..DatagramFaults::none()
        };
        let copies = corrupt.apply(&payload, 3, 0, &mut log);
        assert!(matches!(copies[..], [Cow::Owned(_)]));
        assert_ne!(&*copies[0], &payload[..]);
    }

    #[test]
    fn accounting_conserves() {
        let (arrived, log) = drive(11, DatagramFaults::with_severity(0.5));
        assert_eq!(log.offered, 400);
        assert_eq!(arrived.len() as u64, log.delivered);
        assert_eq!(log.delivered, log.offered - log.dropped + log.duplicated);
    }
}
