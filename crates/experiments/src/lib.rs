//! # experiments — regenerate every table and figure of the paper
//!
//! One module per artifact of the evaluation section, each exposing a
//! `run(&Corpus) -> *Result` function returning typed data plus an ASCII /
//! CSV renderer, so the `repro` binary (and the Criterion benches in
//! `crates/bench`) can regenerate any row of EXPERIMENTS.md. [`suite`]
//! lists them all, in the order `repro` runs them:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`fig1`] | Fig. 1(a–f): sorted per-user 99th/99.9th-percentile thresholds |
//! | [`fig2`] | Fig. 2: per-user TCP vs UDP 99th-percentile scatter |
//! | [`tab2`] | Table 2: best-10 users per alarm type + overlap |
//! | [`fig3`] | Fig. 3(a,b): utility boxplots and mean utility vs `w` |
//! | [`tab3`] | Table 3: false alarms/week at the central console |
//! | [`fig4`] | Fig. 4(a,b): naive detection curves, mimicry hidden traffic |
//! | [`fig5`] | Fig. 5(a,b): Storm replay FP/detection scatter |
//! | [`drift`] | extension: week-over-week threshold drift |
//! | [`multifeat`] | extension: concurrent multi-feature monitoring trade-off |
//! | [`collab`] | extension: collaborative sentinel detection (§7) |
//! | [`seeds`] | extension: seed sensitivity of the headline conclusions |
//! | [`ops`] | extension: analyst triage cost & threshold maintenance |
//! | [`ablation`] | extension: group count / binning / heuristic ablations |
//! | [`chaos`] | extension: fault injection & degraded-mode behaviour |
//! | [`daemon`] | extension: crash-safe streaming evaluation daemon |
//! | [`ingest`] | extension: hardened syslog/CEF + DNS wire ingest plane |
//! | [`cluster`] | extension: fault-tolerant multi-node fleetd sharding |
//! | [`rollout`] | extension: drift-aware canary rollouts & rollback |
//! | [`controlplane`] | extension: operator control plane under crash injection |
//! | [`megafleet`] | extension: million-host sketch-backed fleet evaluation |
//! | [`sketchablate`] | extension: sketch-vs-exact error ablation at paper scale |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod chaos;
pub mod cluster;
pub mod collab;
pub mod controlplane;
pub mod daemon;
pub mod data;
pub mod drift;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod ingest;
pub mod megafleet;
pub mod multifeat;
pub mod ops;
pub mod pipeline;
pub mod plot;
pub mod report;
pub mod rollout;
pub mod seeds;
pub mod sketchablate;
mod stopwait;
pub mod suite;
pub mod tab2;
pub mod tab3;

pub use data::{Corpus, CorpusConfig};
pub use report::{Table, write_csv};

use hids_core::{Grouping, PartialMethod};

/// The paper's three groupings with their CSV labels, in display order:
/// Homogeneous, Full-Diversity and 8-Partial. `chaos` and `pipeline` keep
/// their own lists, whose "Full Diversity" label is part of their CSV
/// bytes.
pub const POLICIES: [(&str, Grouping); 3] = [
    ("Homogeneous", Grouping::Homogeneous),
    ("Full-Diversity", Grouping::FullDiversity),
    ("8-Partial", Grouping::Partial(PartialMethod::EIGHT_PARTIAL)),
];
