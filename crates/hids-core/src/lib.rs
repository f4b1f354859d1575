//! # hids-core — behavioral HIDS configuration policies
//!
//! The paper's primary contribution: given per-user training distributions
//! of traffic features, configure each host's anomaly-detector threshold
//! under an enterprise *policy* = (threshold heuristic × grouping method),
//! then evaluate every user's false-positive / false-negative balance on
//! held-out test data.
//!
//! * [`threshold`] — heuristics: percentile (the operators' 99th-percentile
//!   rule of thumb), mean + k·σ, F-measure-optimal, utility-maximising.
//! * [`policy`] — groupings: homogeneous (monoculture), full diversity
//!   (per-host), partial diversity (the paper's knee heuristic and k-means).
//! * [`detector`] — the per-host runtime object: thresholds + alerting.
//! * [`eval`] — the train-week-n / test-week-n+1 evaluation methodology,
//!   attack-size sweeps, and per-user utility
//!   `U = 1 − [w·FN + (1−w)·FP]`.
//!
//! ```
//! use hids_core::{Policy, Grouping, ThresholdHeuristic, eval::FeatureDataset};
//! use flowtab::FeatureKind;
//! # use flowtab::{FeatureSeries, Windowing, FeatureCounts};
//! # let mk = |vals: &[u64]| {
//! #     let mut s = FeatureSeries::zeros(Windowing::FIFTEEN_MIN, vals.len());
//! #     for (w, &v) in vals.iter().enumerate() {
//! #         *s.windows[w].get_mut(FeatureKind::TcpConnections) = v;
//! #     }
//! #     s
//! # };
//! # let train = vec![mk(&[1, 2, 3, 50]), mk(&[10, 20, 30, 500])];
//! # let test = vec![mk(&[2, 2, 4, 40]), mk(&[15, 25, 35, 450])];
//! let ds = FeatureDataset::from_series(&train, &test, FeatureKind::TcpConnections);
//! let policy = Policy {
//!     grouping: Grouping::FullDiversity,
//!     heuristic: ThresholdHeuristic::Percentile(0.99),
//! };
//! let outcome = policy.configure(&ds.train);
//! assert_eq!(outcome.thresholds.len(), 2); // one threshold per user
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod bundle;
pub mod degraded;
pub mod detector;
pub mod drift;
pub mod eval;
pub mod incremental;
pub mod multi;
pub mod par;
pub mod policy;
pub mod roc;
pub mod sweep;
pub mod threshold;

pub use adaptive::{realized_fp_series, AdaptiveThreshold, UpdateStrategy};
pub use bundle::PolicyBundle;
pub use degraded::{
    evaluate_policy_degraded, DegradedDataset, DegradedError, DegradedEvalConfig,
    DegradedEvaluation, DegradedUserPerf, HostStatus,
};
pub use detector::{Alert, Detector};
pub use drift::{DriftConfig, DriftState, DriftTracker};
pub use eval::{
    max_observed, score_source, utility_of, AttackSweep, DatasetError, EvalConfig,
    FeatureDataset, PolicyEvaluation, UserPerf,
};
pub use incremental::{degraded_dataset, SketchAccumulator, WindowAccumulator};
pub use multi::{
    evaluate_multi, multi_detection, FireMasks, MultiEvaluation, MultiPolicy, MultiUserPerf,
    Overlay,
};
pub use par::{current_threads, par_map, par_map_range, set_threads};
pub use policy::{ConfigureError, Grouping, PartialMethod, Policy, PolicyOutcome};
pub use roc::{RocCurve, RocPoint};
pub use sweep::SweepTable;
pub use threshold::ThresholdHeuristic;
