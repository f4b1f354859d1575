//! Table 2: "best users" per alarm type and their overlap.
//!
//! The 10 users with the lowest thresholds per feature are the best
//! detectors of stealthy anomalies in that feature. The paper lists them
//! under the Full-Diversity and Partial-Diversity policies and observes
//! only 2 (full) / 4 (partial) users common between the TCP and UDP lists.

use flowtab::FeatureKind;
use hids_core::{Grouping, PartialMethod, Policy, ThresholdHeuristic};
use itconsole::{best_users, sentinel::overlap};
use tailstats::EmpiricalDist;

use crate::data::Corpus;
use crate::report::Table;

/// Best-user lists for one grouping policy.
#[derive(Debug, Clone)]
pub struct BestUsers {
    /// Policy label.
    pub policy: &'static str,
    /// Best 10 for `num-UDP-connections`.
    pub udp: Vec<usize>,
    /// Best 10 for `num-TCP-connections`.
    pub tcp: Vec<usize>,
}

impl BestUsers {
    /// Users common to both lists.
    pub fn common(&self) -> usize {
        overlap(&self.udp, &self.tcp)
    }
}

/// The Table-2 result.
#[derive(Debug, Clone)]
pub struct Tab2Result {
    /// Full-diversity lists.
    pub full: BestUsers,
    /// 8-partial lists.
    pub partial: BestUsers,
}

/// Run the Table-2 analysis.
pub fn run(corpus: &Corpus, week: usize, k: usize) -> Tab2Result {
    // Only the training week is read: build each feature's once.
    let udp = corpus.dists(FeatureKind::UdpConnections, week);
    let tcp = corpus.dists(FeatureKind::TcpConnections, week);
    let lists = |grouping: Grouping, label: &'static str| -> BestUsers {
        let policy = Policy {
            grouping,
            heuristic: ThresholdHeuristic::P99,
        };
        let pick = |train: &[EmpiricalDist]| best_users(&policy.configure(train).thresholds, k);
        BestUsers {
            policy: label,
            udp: pick(&udp),
            tcp: pick(&tcp),
        }
    };
    Tab2Result {
        full: lists(Grouping::FullDiversity, "Full Diversity"),
        partial: lists(
            Grouping::Partial(PartialMethod::EIGHT_PARTIAL),
            "Partial Diversity",
        ),
    }
}

/// Render as the paper's Table 2 layout plus overlap counts.
pub fn table(r: &Tab2Result) -> Table {
    let fmt = |v: &[usize]| {
        v.iter()
            .map(|u| u.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut t = Table::new(
        "Table 2 — best users per alarm type (lowest thresholds)",
        &["feature", "full diversity", "partial diversity"],
    );
    t.row(vec![
        "number UDP connections".into(),
        fmt(&r.full.udp),
        fmt(&r.partial.udp),
    ]);
    t.row(vec![
        "number TCP connections".into(),
        fmt(&r.full.tcp),
        fmt(&r.partial.tcp),
    ]);
    t.row(vec![
        "common users (UDP ∩ TCP)".into(),
        r.full.common().to_string(),
        r.partial.common().to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::CorpusConfig;

    #[test]
    fn lists_have_k_distinct_users() {
        let corpus = Corpus::generate(CorpusConfig {
            n_users: 80,
            ..CorpusConfig::small()
        });
        let r = run(&corpus, 0, 10);
        for lists in [&r.full, &r.partial] {
            assert_eq!(lists.udp.len(), 10);
            assert_eq!(lists.tcp.len(), 10);
            let mut u = lists.udp.clone();
            u.sort_unstable();
            u.dedup();
            assert_eq!(u.len(), 10);
        }
    }

    #[test]
    fn best_tcp_and_udp_detectors_differ() {
        let corpus = Corpus::generate(CorpusConfig {
            n_users: 150,
            ..CorpusConfig::small()
        });
        let r = run(&corpus, 0, 10);
        // The paper found only 2/10 common under full diversity; our
        // orientation model should likewise keep the lists mostly disjoint.
        assert!(
            r.full.common() <= 6,
            "TCP and UDP best-user lists mostly disjoint, got {} common",
            r.full.common()
        );
    }

    #[test]
    fn renders_three_rows() {
        let corpus = Corpus::generate(CorpusConfig {
            n_users: 30,
            ..CorpusConfig::small()
        });
        let t = table(&run(&corpus, 0, 10));
        assert_eq!(t.len(), 3);
    }
}
