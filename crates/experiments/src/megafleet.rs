//! megafleet — million-host streaming evaluation on bounded per-host
//! memory.
//!
//! The paper's population is 350 hosts because that is what fit in a
//! packet trace. This experiment asks what the same per-host methodology
//! costs at enterprise-fleet scale: every host is generated *streamed*
//! ([`synthgen::sample_user`] + one [`synthgen::WeekPlan`] column per
//! week, one host in memory at a time), its train/test weeks are folded into
//! [`tailstats::KllSketch`]es instead of exact sample vectors, and the
//! threshold fit + FP/FN/utility scoring run entirely against the
//! sketches through [`hids_core::ThresholdHeuristic::threshold`] and
//! [`hids_core::UserPerf::score`], the same fit and score the exact
//! paper suite runs. Per-host state is therefore
//! `O(log(n)/eps)` integers rather than `O(windows)` — the figure
//! [`MegafleetResult::peak_host_state_bytes`] reports.
//!
//! Determinism: hosts are split into [`MegafleetConfig::n_shards`]
//! *fixed contiguous id ranges* (never thread-count dependent), shards
//! run under [`hids_core::par_map_range`] (order-preserving), and
//! population-level tail statistics come from
//! [`tailstats::KllSketch::pool`], whose output is invariant to merge
//! order. The hosts CSV and the pooled sketch image are byte-identical
//! at any `--threads` setting; [`MegafleetResult::check`] verifies the
//! merge-order half of that claim internally by re-pooling the shard
//! sketches in reversed order.

use std::sync::atomic::{AtomicU64, Ordering};

use flowtab::FeatureKind;
use hids_core::{par_map_range, AttackSweep, ThresholdHeuristic, UserPerf};
use synthgen::{sample_user, PopulationConfig, WeekPlan};
use tailstats::KllSketch;

use crate::report::{fnum, Table};

/// Scale and accuracy knobs for a megafleet run.
#[derive(Debug, Clone)]
pub struct MegafleetConfig {
    /// Fleet size (hosts). Host ids are `0..n_users`.
    pub n_users: u64,
    /// Master seed (same meaning as the corpus seed).
    pub seed: u64,
    /// Rank-error budget for every per-host sketch, in `(0, 1)`.
    pub sketch_eps: f64,
    /// Quantile for the per-host threshold fit (paper default 0.99).
    pub threshold_q: f64,
    /// FN weight of the utility `U = 1 − [w·FN + (1−w)·FP]`.
    pub w: f64,
    /// Feature under monitoring.
    pub feature: FeatureKind,
    /// Fixed shard count; hosts map to shards by contiguous id range, so
    /// the decomposition never depends on the worker-thread count.
    pub n_shards: usize,
    /// Log a progress line roughly every this many hosts (0 = silent).
    pub progress_every: u64,
    /// Keep every [`HostRow`] in memory (fine at smoke scale; at a
    /// million hosts the per-shard CSV text is kept instead).
    pub collect_rows: bool,
}

impl Default for MegafleetConfig {
    fn default() -> Self {
        Self {
            n_users: 1_000_000,
            seed: 0xC0FFEE,
            sketch_eps: 0.01,
            threshold_q: 0.99,
            w: 0.4,
            feature: FeatureKind::TcpConnections,
            n_shards: 256,
            progress_every: 100_000,
            collect_rows: false,
        }
    }
}

/// One host's fitted threshold and sketch-scored performance.
#[derive(Debug, Clone, Copy)]
pub struct HostRow {
    /// Host id.
    pub id: u32,
    /// Fitted threshold (q-th discrete percentile of the train sketch).
    pub threshold: f64,
    /// Training-week tail quantiles read off the sketch.
    pub q90: f64,
    /// 95th percentile.
    pub q95: f64,
    /// 99th percentile.
    pub q99: f64,
    /// Test-week false-positive rate.
    pub fp: f64,
    /// Mean FN rate over the attack sweep.
    pub fn_rate: f64,
    /// Utility at [`MegafleetConfig::w`].
    pub utility: f64,
    /// Benign test windows above the threshold.
    pub false_alarms: u64,
    /// Bytes of sketch state this host needed (train + test).
    pub state_bytes: u64,
}

/// What one shard hands back to the aggregator.
struct ShardOut {
    csv: String,
    rows: Vec<HostRow>,
    n_hosts: u64,
    peak_host_bytes: u64,
    total_bytes: u64,
    total_compactions: u64,
    max_err_ppm: u64,
    utility_sum: f64,
    fp_sum: f64,
    alarms: u64,
    pooled: Option<KllSketch>,
}

/// Aggregated outcome of a megafleet run.
#[derive(Debug)]
pub struct MegafleetResult {
    /// The configuration that produced this result.
    pub cfg: MegafleetConfig,
    /// Per-shard CSV text (concatenating in shard order yields the
    /// global hosts CSV in host-id order).
    pub shard_csvs: Vec<String>,
    /// Per-host rows when [`MegafleetConfig::collect_rows`] was set.
    pub rows: Vec<HostRow>,
    /// Hosts evaluated.
    pub n_hosts: u64,
    /// Largest train+test sketch footprint any single host reached.
    pub peak_host_state_bytes: u64,
    /// Sum of all per-host sketch footprints.
    pub total_sketch_bytes: u64,
    /// Compactions across every per-host sketch.
    pub total_compactions: u64,
    /// Worst per-host rank-error ledger, as parts-per-million of that
    /// host's stream weight (always ≤ the sketches' `eps_ppm()` by
    /// construction).
    pub max_rank_error_ppm: u64,
    /// Fleet mean utility.
    pub mean_utility: f64,
    /// Fleet mean false-positive rate.
    pub mean_fp: f64,
    /// Total benign alarms the fleet would deliver to the console.
    pub total_false_alarms: u64,
    /// Pooled training sketch over the whole fleet (population tail).
    pub global: Option<KllSketch>,
    /// Whether re-pooling the shard sketches in reversed order produced
    /// a byte-identical image.
    pub merge_order_ok: bool,
}

/// Worst-case rank-error ledger of one sketch in ppm of its weight.
fn err_ppm(s: &KllSketch) -> u64 {
    if s.len() == 0 {
        0
    } else {
        (u128::from(s.rank_error_bound()) * 1_000_000 / u128::from(s.len())) as u64
    }
}

fn process_shard(
    cfg: &MegafleetConfig,
    lo: u64,
    hi: u64,
    done: &AtomicU64,
) -> ShardOut {
    let pcfg = PopulationConfig {
        n_users: cfg.n_users as usize,
        seed: cfg.seed,
        ..Default::default()
    };
    let windowing = flowtab::Windowing::FIFTEEN_MIN;
    let heuristic = ThresholdHeuristic::Percentile(cfg.threshold_q);
    let mut out = ShardOut {
        csv: String::new(),
        rows: Vec::new(),
        n_hosts: 0,
        peak_host_bytes: 0,
        total_bytes: 0,
        total_compactions: 0,
        max_err_ppm: 0,
        utility_sum: 0.0,
        fp_sum: 0.0,
        alarms: 0,
        pooled: None,
    };
    let mut shard_sketches: Vec<KllSketch> = Vec::new();
    let mut column = Vec::new();
    for id in lo..hi {
        let plan = WeekPlan::new(&sample_user(&pcfg, id as u32), windowing);
        let mut week_sketch = |week| {
            plan.column(cfg.seed, week, pcfg.weekly_trend, cfg.feature, &mut column);
            let mut s = KllSketch::new(cfg.sketch_eps);
            s.extend_from_counts(&column);
            s
        };
        let train = week_sketch(0);
        let test = week_sketch(1);

        let state_bytes = train.state_bytes() + test.state_bytes();
        out.peak_host_bytes = out.peak_host_bytes.max(state_bytes);
        out.total_bytes += state_bytes;
        out.total_compactions += train.compactions() + test.compactions();
        out.max_err_ppm = out.max_err_ppm.max(err_ppm(&train)).max(err_ppm(&test));

        // A short, per-host attack sweep keeps scoring O(1) per host
        // while exercising the full sketch-backed FN path.
        let sweep = AttackSweep::new(train.max().max(1.0), 64);
        let threshold = heuristic.threshold(&train);
        let (q90, q95, q99) = (
            train.quantile(0.90),
            train.quantile(0.95),
            train.quantile(0.99),
        );
        let perf = UserPerf::score(&test, threshold, &sweep, cfg.w);

        let row = HostRow {
            id: id as u32,
            threshold,
            q90,
            q95,
            q99,
            fp: perf.fp,
            fn_rate: perf.fn_rate,
            utility: perf.utility,
            false_alarms: perf.false_alarms,
            state_bytes,
        };
        out.csv.push_str(&format!(
            "{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{},{}\n",
            row.id,
            row.threshold,
            row.q90,
            row.q95,
            row.q99,
            row.fp,
            row.fn_rate,
            row.utility,
            row.false_alarms,
            row.state_bytes,
        ));
        if cfg.collect_rows {
            out.rows.push(row);
        }
        out.utility_sum += perf.utility;
        out.fp_sum += perf.fp;
        out.alarms += perf.false_alarms;
        out.n_hosts += 1;
        shard_sketches.push(train);

        let total = done.fetch_add(1, Ordering::Relaxed) + 1;
        if cfg.progress_every > 0 && total % cfg.progress_every == 0 {
            eprintln!("megafleet: {total}/{} hosts evaluated", cfg.n_users);
        }
    }
    if !shard_sketches.is_empty() {
        let refs: Vec<&KllSketch> = shard_sketches.iter().collect();
        out.pooled = Some(KllSketch::pool(&refs));
    }
    out
}

/// Run the fleet. Deterministic in `(cfg)`: the hosts CSV, every
/// aggregate, and the pooled sketch image are byte-identical at any
/// worker-thread count.
pub fn run(cfg: &MegafleetConfig) -> MegafleetResult {
    let n_shards = cfg.n_shards.max(1);
    let chunk = cfg.n_users.div_ceil(n_shards as u64).max(1);
    let done = AtomicU64::new(0);
    let shards = par_map_range(n_shards, |s| {
        let lo = (s as u64 * chunk).min(cfg.n_users);
        let hi = ((s as u64 + 1) * chunk).min(cfg.n_users);
        process_shard(cfg, lo, hi, &done)
    });

    let mut result = MegafleetResult {
        cfg: cfg.clone(),
        shard_csvs: Vec::with_capacity(shards.len()),
        rows: Vec::new(),
        n_hosts: 0,
        peak_host_state_bytes: 0,
        total_sketch_bytes: 0,
        total_compactions: 0,
        max_rank_error_ppm: 0,
        mean_utility: 0.0,
        mean_fp: 0.0,
        total_false_alarms: 0,
        global: None,
        merge_order_ok: true,
    };
    let mut utility_sum = 0.0;
    let mut fp_sum = 0.0;
    let mut shard_sketches: Vec<KllSketch> = Vec::new();
    for shard in shards {
        result.n_hosts += shard.n_hosts;
        result.peak_host_state_bytes = result.peak_host_state_bytes.max(shard.peak_host_bytes);
        result.total_sketch_bytes += shard.total_bytes;
        result.total_compactions += shard.total_compactions;
        result.max_rank_error_ppm = result.max_rank_error_ppm.max(shard.max_err_ppm);
        result.total_false_alarms += shard.alarms;
        utility_sum += shard.utility_sum;
        fp_sum += shard.fp_sum;
        result.shard_csvs.push(shard.csv);
        result.rows.extend(shard.rows);
        if let Some(s) = shard.pooled {
            shard_sketches.push(s);
        }
    }
    if result.n_hosts > 0 {
        result.mean_utility = utility_sum / result.n_hosts as f64;
        result.mean_fp = fp_sum / result.n_hosts as f64;
    }
    if !shard_sketches.is_empty() {
        let forward: Vec<&KllSketch> = shard_sketches.iter().collect();
        let global = KllSketch::pool(&forward);
        // Merge-order invariance, verified on the real data: pooling the
        // shard sketches in the opposite order must give the same bytes.
        let reversed: Vec<&KllSketch> = shard_sketches.iter().rev().collect();
        result.merge_order_ok = KllSketch::pool(&reversed).to_bytes() == global.to_bytes();
        result.global = Some(global);
    }
    result
}

/// CSV header matching [`MegafleetResult::shard_csvs`] rows.
pub const HOSTS_CSV_HEADER: &str =
    "host,threshold,q90,q95,q99,fp,fn_rate,utility,false_alarms,state_bytes";

impl MegafleetResult {
    /// The full hosts CSV (header + every shard, host-id order).
    pub fn hosts_csv(&self) -> String {
        let mut s = String::from(HOSTS_CSV_HEADER);
        s.push('\n');
        for shard in &self.shard_csvs {
            s.push_str(shard);
        }
        s
    }

    /// FNV-1a hash of [`MegafleetResult::hosts_csv`] without
    /// materialising the concatenation — the determinism fingerprint the
    /// CI check compares across `--threads` settings.
    pub fn hosts_csv_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        eat(HOSTS_CSV_HEADER.as_bytes());
        eat(b"\n");
        for shard in &self.shard_csvs {
            eat(shard.as_bytes());
        }
        h
    }

    /// Fleet-level summary table.
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new(
            "megafleet — sketch-backed fleet evaluation",
            &["metric", "value"],
        );
        t.row(vec!["hosts".into(), self.n_hosts.to_string()]);
        t.row(vec![
            "sketch eps".into(),
            format!("{:.4}", self.cfg.sketch_eps),
        ]);
        t.row(vec![
            "peak host state bytes".into(),
            self.peak_host_state_bytes.to_string(),
        ]);
        t.row(vec![
            "total sketch bytes".into(),
            self.total_sketch_bytes.to_string(),
        ]);
        t.row(vec![
            "total compactions".into(),
            self.total_compactions.to_string(),
        ]);
        t.row(vec![
            "max rank error (ppm)".into(),
            self.max_rank_error_ppm.to_string(),
        ]);
        t.row(vec!["mean utility".into(), fnum(self.mean_utility)]);
        t.row(vec!["mean fp".into(), fnum(self.mean_fp)]);
        t.row(vec![
            "total false alarms".into(),
            self.total_false_alarms.to_string(),
        ]);
        if let Some(g) = &self.global {
            t.row(vec!["fleet q50".into(), fnum(g.quantile(0.50))]);
            t.row(vec!["fleet q99".into(), fnum(g.quantile(0.99))]);
            t.row(vec![
                "fleet sketch bytes".into(),
                g.state_bytes().to_string(),
            ]);
        }
        t.row(vec![
            "merge-order check".into(),
            if self.merge_order_ok { "ok" } else { "FAILED" }.into(),
        ]);
        t.row(vec![
            "hosts csv fnv64".into(),
            format!("{:016x}", self.hosts_csv_hash()),
        ]);
        t
    }

    /// Export the sketch health gauges into a metrics registry.
    pub fn export_metrics(&self, reg: &mut hids_metrics::Registry) {
        reg.register_gauge(
            "tailstats_sketch_bytes_total",
            "total bytes of per-host sketch state across the fleet",
        );
        reg.register_gauge(
            "tailstats_sketch_peak_host_bytes",
            "largest train+test sketch footprint of any single host",
        );
        reg.register_gauge(
            "tailstats_sketch_compactions_total",
            "compactions performed across every per-host sketch",
        );
        reg.register_gauge(
            "tailstats_sketch_rank_error_ppm_max",
            "worst per-host rank-error ledger in ppm of stream weight",
        );
        reg.gauge_set(
            "tailstats_sketch_bytes_total",
            &[],
            self.total_sketch_bytes as i64,
        );
        reg.gauge_set(
            "tailstats_sketch_peak_host_bytes",
            &[],
            self.peak_host_state_bytes as i64,
        );
        reg.gauge_set(
            "tailstats_sketch_compactions_total",
            &[],
            self.total_compactions as i64,
        );
        reg.gauge_set(
            "tailstats_sketch_rank_error_ppm_max",
            &[],
            self.max_rank_error_ppm as i64,
        );
    }

    /// Internal invariants: every host evaluated, the rank-error ledger
    /// within the configured budget, pooling order-invariant.
    pub fn check(&self) -> Result<(), String> {
        if self.n_hosts != self.cfg.n_users {
            return Err(format!(
                "evaluated {} of {} hosts",
                self.n_hosts, self.cfg.n_users
            ));
        }
        // The budget the sketches hold themselves to, not `ε·10⁶`
        // truncated: the two differ by a ppm for some ε.
        let budget_ppm = u64::from(KllSketch::new(self.cfg.sketch_eps).eps_ppm());
        if self.max_rank_error_ppm > budget_ppm {
            return Err(format!(
                "rank error {} ppm exceeds budget {} ppm",
                self.max_rank_error_ppm, budget_ppm
            ));
        }
        if !self.merge_order_ok {
            return Err("pooled sketch is merge-order dependent".into());
        }
        if self.n_hosts > 0 && self.peak_host_state_bytes == 0 {
            return Err("no sketch state accounted".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(n: u64) -> MegafleetConfig {
        MegafleetConfig {
            n_users: n,
            progress_every: 0,
            collect_rows: true,
            ..Default::default()
        }
    }

    #[test]
    fn small_fleet_runs_and_passes_self_check() {
        let r = run(&small(40));
        r.check().expect("invariants");
        assert_eq!(r.rows.len(), 40);
        assert!(r.rows.iter().all(|h| h.threshold.is_finite()));
        assert!(r.rows.iter().all(|h| (0.0..=1.0).contains(&h.utility)));
        assert!(r.global.is_some());
        let csv = r.hosts_csv();
        assert_eq!(csv.lines().count(), 41, "header + one row per host");
        assert!(csv.starts_with(HOSTS_CSV_HEADER));
    }

    #[test]
    fn output_is_identical_across_thread_counts() {
        let prev = hids_core::current_threads();
        hids_core::set_threads(1);
        let a = run(&small(60));
        hids_core::set_threads(7);
        let b = run(&small(60));
        hids_core::set_threads(prev);
        assert_eq!(a.hosts_csv(), b.hosts_csv());
        assert_eq!(a.hosts_csv_hash(), b.hosts_csv_hash());
        assert_eq!(
            a.global.unwrap().to_bytes(),
            b.global.unwrap().to_bytes(),
            "pooled fleet sketch must not depend on thread count"
        );
        assert_eq!(a.peak_host_state_bytes, b.peak_host_state_bytes);
    }

    #[test]
    fn shard_count_does_not_change_the_rows() {
        let a = run(&small(50));
        let b = run(&MegafleetConfig {
            n_shards: 7,
            ..small(50)
        });
        assert_eq!(a.hosts_csv(), b.hosts_csv());
    }

    #[test]
    fn check_takes_the_budget_the_sketch_holds() {
        // 0.000249·10⁶ is 248.99999999999997: truncated it would be 248.
        let cfg = MegafleetConfig {
            sketch_eps: 0.000249,
            ..small(1)
        };
        assert_eq!(KllSketch::new(cfg.sketch_eps).eps_ppm(), 249);
        let result = |max_rank_error_ppm| MegafleetResult {
            cfg: cfg.clone(),
            shard_csvs: Vec::new(),
            rows: Vec::new(),
            n_hosts: 1,
            peak_host_state_bytes: 1,
            total_sketch_bytes: 1,
            total_compactions: 0,
            max_rank_error_ppm,
            mean_utility: 0.0,
            mean_fp: 0.0,
            total_false_alarms: 0,
            global: None,
            merge_order_ok: true,
        };
        result(249)
            .check()
            .expect("249 ppm is within a 249 ppm budget");
        assert!(result(250).check().is_err());
    }

    #[test]
    fn metrics_gauges_are_exported() {
        let r = run(&small(10));
        let mut reg = hids_metrics::Registry::new();
        r.export_metrics(&mut reg);
        assert_eq!(
            reg.gauge_value("tailstats_sketch_bytes_total", &[]),
            r.total_sketch_bytes as i64
        );
        assert!(reg.gauge_value("tailstats_sketch_peak_host_bytes", &[]) > 0);
    }
}
