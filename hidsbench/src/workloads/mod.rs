//! The four workloads. Each is a batch job measured from its input to its
//! complete result, driven only through the workspace crates' public API.

pub mod daemon;
pub mod fleet;
pub mod paper;
pub mod pcap;

use std::path::Path;

use crate::trace::Tracer;

/// One named pass/fail check on a workload's output.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Self {
        Self {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// What the benchmark reads off one rep's output, outside the timed region.
#[derive(Debug, Clone, Default)]
pub struct RepSummary {
    /// Units of work the rep completed (see [`Workload::op_unit`]).
    pub ops: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// FNV-1a over the rep's output; every rep of a run must agree.
    pub fingerprint: u64,
    /// Deterministic per-layer counters, by per-layer metric name.
    pub counts: Vec<(&'static str, f64)>,
    pub checks: Vec<Check>,
}

/// A batch workload: inputs made from a seed, then reps over them.
pub trait Workload {
    type Input;
    type Output;

    fn name(&self) -> &'static str;

    /// What one op is, for the report.
    fn op_unit(&self) -> &'static str;

    /// Scale, for the report.
    fn scale(&self) -> String;

    /// Seed used when none is given; fingerprints are pinned at it.
    fn default_seed(&self) -> u64;

    /// Output fingerprint expected at the default seed, if pinned for this
    /// scale.
    fn pinned_fingerprint(&self) -> Option<u64>;

    /// Build the inputs (and any oracle the checks need) from `seed`.
    fn setup(&self, seed: u64) -> Result<Self::Input, String>;

    /// One timed rep. `dir` is an empty directory, made afresh before each
    /// rep, that the rep may write under. With `tr` on, every call into a
    /// layer's public functions runs in a span. Where the program has one
    /// entry point for the job, a rep with `tr` off calls it, and one with
    /// `tr` on runs a mirror of it that makes the same calls.
    fn rep(&self, input: &Self::Input, dir: &Path, tr: &mut Tracer)
        -> Result<Self::Output, String>;

    /// Checks, counters and fingerprint of one rep's output.
    fn summarize(&self, input: &Self::Input, out: &Self::Output) -> RepSummary;

    /// Once-per-run checks that are too costly for every rep.
    fn verify(&self, _input: &Self::Input, _out: &Self::Output) -> Vec<Check> {
        Vec::new()
    }

    /// Per-layer figures measured once, after the traced reps; `dir` holds
    /// what the last rep wrote.
    fn profile(
        &self,
        _input: &Self::Input,
        _dir: &Path,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(Vec::new())
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue an FNV-1a 64 hash over `bytes`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Remove and recreate `dir`.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("clear {}: {e}", dir.display())),
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_megafleet_fingerprint_function() {
        // The megafleet hosts-CSV hash is FNV-1a 64 over the CSV bytes.
        let cfg = experiments::megafleet::MegafleetConfig {
            n_users: 12,
            progress_every: 0,
            ..Default::default()
        };
        let r = experiments::megafleet::run(&cfg);
        assert_eq!(
            fnv1a(FNV_OFFSET, r.hosts_csv().as_bytes()),
            r.hosts_csv_hash()
        );
    }
}
