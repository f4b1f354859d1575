//! # tailstats — statistics for tail-behaviour analysis
//!
//! The paper's entire argument rests on *where the tail of each user's
//! feature distribution begins* (its high quantiles) and how that varies
//! across a population. This crate provides the statistical machinery:
//!
//! * [`EmpiricalDist`] — exact quantiles, CDF and exceedance probabilities
//!   over run-length samples (what each end host computes from a training
//!   week);
//! * [`KllSketch`] — deterministic integer-only mergeable rank sketch with
//!   a guaranteed rank-error ledger, for fleet-scale per-host state;
//! * [`QuantileBackend`] — the one rank-query surface both of those
//!   implement, with the pinned boundary/NaN contract and the
//!   [`RankedView`] a whole-distribution kernel scans (the backend, not
//!   its caller, decides which view it hands out);
//! * [`Moments`] / [`Ewma`] — streaming mean/variance and smoothing;
//! * [`FiveNumber`] — boxplot summaries (Figures 3(a) and 4(b));
//! * [`kmeans`](mod@kmeans) — Lloyd's algorithm with deterministic initialisation, used
//!   for the paper's (unsuccessful) natural-clusters probe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod edf;
pub mod ewma;
pub mod fivenum;
pub mod kmeans;
pub mod moments;
pub mod resample;
pub mod sketch;
pub mod source;

pub use edf::EmpiricalDist;
pub use ewma::Ewma;
pub use fivenum::FiveNumber;
pub use kmeans::{kmeans, kmeans_1d, separation_score, KMeansResult};
pub use moments::Moments;
pub use resample::{bootstrap_ci, gini, ks_distance, lorenz_curve, BootstrapCi};
pub use sketch::{KllSketch, SketchDecodeError};
pub use source::{QuantileBackend, QuantileSource, RankedView};
