//! Policy bundles — the artifact an IT department actually deploys.
//!
//! A configured policy becomes a *bundle*: a versioned table mapping each
//! host to its per-feature thresholds, with a content checksum so a
//! compliance audit can verify "is every host running bundle v7?" without
//! comparing thresholds field by field. Serialises to a plain
//! tab-separated text format (greppable, diffable, VCS-friendly), which
//! the checksum covers.

use flowtab::FeatureKind;
use serde::{Deserialize, Serialize};

use crate::{Detector, PolicyOutcome};

/// A deployable configuration bundle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyBundle {
    /// Monotonic version, assigned by the console.
    pub version: u32,
    /// `(user, feature, threshold)` rows, sorted by (user, feature).
    pub entries: Vec<(u32, FeatureKind, f64)>,
}

impl PolicyBundle {
    /// Build a bundle for one feature from a policy outcome.
    pub fn from_outcome(version: u32, feature: FeatureKind, outcome: &PolicyOutcome) -> Self {
        let mut entries: Vec<(u32, FeatureKind, f64)> = outcome
            .thresholds
            .iter()
            .enumerate()
            .map(|(u, &t)| (u as u32, feature, t))
            .collect();
        entries.sort_by_key(|e| (e.0, e.1.index()));
        Self { version, entries }
    }

    /// Merge another bundle's entries (e.g. a second feature); rows with
    /// the same (user, feature) are replaced by the newcomer.
    pub fn merge(&mut self, other: &PolicyBundle) {
        for &(u, f, t) in &other.entries {
            match self
                .entries
                .binary_search_by(|e| (e.0, e.1.index()).cmp(&(u, f.index())))
            {
                Ok(i) => self.entries[i].2 = t,
                Err(i) => self.entries.insert(i, (u, f, t)),
            }
        }
        self.version = self.version.max(other.version);
    }

    /// FNV-1a checksum over the canonical serialisation — two bundles with
    /// the same rows always agree.
    pub fn checksum(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.to_text().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }

    /// Number of hosts covered.
    pub fn n_hosts(&self) -> usize {
        let mut users: Vec<u32> = self.entries.iter().map(|e| e.0).collect();
        users.dedup();
        users.len()
    }

    /// Instantiate the detectors this bundle configures.
    pub fn deploy(&self) -> Vec<Detector> {
        let mut detectors: Vec<Detector> = Vec::new();
        for &(user, feature, t) in &self.entries {
            if detectors.last().is_none_or(|d| d.user != user) {
                detectors.push(Detector::new(user));
            }
            detectors
                .last_mut()
                .expect("just pushed")
                .set_threshold(feature, t);
        }
        detectors
    }

    /// Serialise to the text format:
    /// header `#policy-bundle v<version>` then `user\tfeature\tthreshold`.
    pub fn to_text(&self) -> String {
        let mut out = format!("#policy-bundle v{}\n", self.version);
        for &(u, f, t) in &self.entries {
            out.push_str(&format!("{u}\t{}\t{t}\n", f.name()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Grouping, Policy, ThresholdHeuristic};
    use tailstats::EmpiricalDist;

    fn outcome(n: usize) -> PolicyOutcome {
        let train: Vec<EmpiricalDist> = (0..n)
            .map(|i| {
                EmpiricalDist::from_counts(
                    &(0..100u64).map(|x| x * (i as u64 + 1)).collect::<Vec<_>>(),
                )
            })
            .collect();
        Policy {
            grouping: Grouping::FullDiversity,
            heuristic: ThresholdHeuristic::P99,
        }
        .configure(&train)
    }

    #[test]
    fn merge_combines_features() {
        let mut b = PolicyBundle::from_outcome(1, FeatureKind::TcpConnections, &outcome(3));
        let u = PolicyBundle::from_outcome(2, FeatureKind::UdpConnections, &outcome(3));
        b.merge(&u);
        assert_eq!(b.version, 2);
        assert_eq!(b.entries.len(), 6);
        let detectors = b.deploy();
        assert_eq!(detectors.len(), 3);
        let monitored = FeatureKind::ALL
            .iter()
            .filter(|&&f| detectors[0].threshold(f).is_some());
        assert_eq!(monitored.count(), 2);
    }

    #[test]
    fn checksum_detects_tampering() {
        let b = PolicyBundle::from_outcome(3, FeatureKind::DnsConnections, &outcome(4));
        let mut tampered = b.clone();
        tampered.entries[2].2 += 1.0;
        assert_ne!(b.checksum(), tampered.checksum());
    }

    #[test]
    fn deploy_then_audit_is_compliant() {
        let out = outcome(4);
        let b = PolicyBundle::from_outcome(1, FeatureKind::TcpConnections, &out);
        let detectors = b.deploy();
        // Every deployed detector matches the outcome it came from.
        for (det, &t) in detectors.iter().zip(&out.thresholds) {
            assert_eq!(det.threshold(FeatureKind::TcpConnections), Some(t));
        }
    }

    #[test]
    fn merge_overwrites_same_key() {
        let mut a = PolicyBundle::from_outcome(1, FeatureKind::TcpConnections, &outcome(2));
        let before = a.entries[0].2;
        let mut newer = a.clone();
        newer.version = 5;
        for e in &mut newer.entries {
            e.2 = before + 100.0;
        }
        a.merge(&newer);
        assert_eq!(a.version, 5);
        assert_eq!(a.entries.len(), 2);
        assert_eq!(a.entries[0].2, before + 100.0);
    }
}
