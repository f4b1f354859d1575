//! `fleet-sketch`: the sketch-backed fleet evaluation
//! (`experiments::megafleet::run`).
//!
//! Every host is generated, folded into KLL sketches, fitted and scored
//! one at a time across 256 fixed shards. It is the only workload on
//! `tailstats`' sketches and the only one whose reps spread over threads
//! in coarse shards. The traced mirror walks the shards in order, which is
//! what `par_map_range` does on one thread. Set-up builds the oracle: the
//! exact training week of a sample of hosts, against which the sketch
//! thresholds must stay within the configured rank-error budget.

use std::path::Path;

use experiments::megafleet::{self, MegafleetConfig, MegafleetResult};
use flowtab::{FeatureKind, Windowing};
use hids_core::{score_source, AttackSweep, ThresholdHeuristic};
use synthgen::{sample_user, user_week_series, PopulationConfig};
use tailstats::{KllSketch, QuantileSource};

use super::{Check, RepSummary, Workload};
use crate::trace::Tracer;

pub struct FleetSketch {
    pub hosts: u64,
    /// Hosts whose thresholds are checked against the exact oracle.
    pub oracle_hosts: u64,
}

impl FleetSketch {
    pub fn full() -> Self {
        Self {
            hosts: 2000,
            oracle_hosts: 64,
        }
    }

    pub fn smoke() -> Self {
        Self {
            hosts: 300,
            oracle_hosts: 16,
        }
    }
}

pub struct Input {
    cfg: MegafleetConfig,
    /// `(host, sorted training-week values)` of the oracle sample.
    oracle: Vec<(u64, Vec<u64>)>,
}

pub struct Output {
    result: MegafleetResult,
    /// Kept over generated feature values; only the traced mirror sees
    /// the generated series.
    useful_ratio: Option<f64>,
}

const WINDOWING: Windowing = Windowing::FIFTEEN_MIN;

fn population(cfg: &MegafleetConfig) -> PopulationConfig {
    PopulationConfig {
        n_users: cfg.n_users as usize,
        seed: cfg.seed,
        ..Default::default()
    }
}

/// Worst-case rank-error ledger of one sketch in ppm of its weight.
fn err_ppm(s: &KllSketch) -> u64 {
    if s.is_empty() {
        0
    } else {
        (u128::from(s.rank_error_bound()) * 1_000_000 / u128::from(s.len())) as u64
    }
}

#[derive(Default)]
struct Shard {
    csv: String,
    n_hosts: u64,
    peak_host_bytes: u64,
    total_bytes: u64,
    total_compactions: u64,
    max_err_ppm: u64,
    utility_sum: f64,
    fp_sum: f64,
    alarms: u64,
    pooled: Option<KllSketch>,
    generated: u64,
    kept: u64,
}

/// One shard of `megafleet::run`, call for call, with spans.
fn traced_shard(cfg: &MegafleetConfig, lo: u64, hi: u64, tr: &mut Tracer) -> Shard {
    let pcfg = population(cfg);
    let heuristic = ThresholdHeuristic::Percentile(cfg.threshold_q);
    let mut out = Shard::default();
    let mut shard_sketches = Vec::new();
    for id in lo..hi {
        let profile = tr.span("synthgen.profile", || sample_user(&pcfg, id as u32));
        let sketch_week = |week: usize, tr: &mut Tracer, out: &mut Shard| {
            let series = tr.span("synthgen.series", || {
                user_week_series(&profile, cfg.seed, week, WINDOWING)
            });
            let counts = tr.span("synthgen.series", || series.feature(cfg.feature));
            out.generated += (series.windows.len() * FeatureKind::ALL.len()) as u64;
            out.kept += counts.len() as u64;
            tr.span("tailstats.sketch", || {
                let mut s = KllSketch::new(cfg.sketch_eps);
                for c in counts {
                    s.insert(c);
                }
                s
            })
        };
        let train = sketch_week(0, tr, &mut out);
        let test = sketch_week(1, tr, &mut out);

        let state_bytes = tr.span("tailstats.sketch", || {
            out.total_compactions += train.compactions() + test.compactions();
            out.max_err_ppm = out.max_err_ppm.max(err_ppm(&train)).max(err_ppm(&test));
            train.state_bytes() + test.state_bytes()
        });
        out.peak_host_bytes = out.peak_host_bytes.max(state_bytes);
        out.total_bytes += state_bytes;

        let (train_src, sweep, threshold, q90, q95, q99) =
            tr.span("hids_core.threshold_fit", || {
                let sweep = AttackSweep::new(train.max().max(1.0), 64);
                let train_src = QuantileSource::Sketch(train);
                let threshold = heuristic.threshold_source(&train_src);
                let (q90, q95, q99) = (
                    train_src.quantile(0.90),
                    train_src.quantile(0.95),
                    train_src.quantile(0.99),
                );
                (train_src, sweep, threshold, q90, q95, q99)
            });
        let test_src = QuantileSource::Sketch(test);
        let perf = tr.span("hids_core.score", || {
            score_source(&test_src, threshold, &sweep, cfg.w)
        });

        tr.span("experiments.csv", || {
            out.csv.push_str(&format!(
                "{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{},{}\n",
                id as u32,
                threshold,
                q90,
                q95,
                q99,
                perf.fp,
                perf.fn_rate,
                perf.utility,
                perf.false_alarms,
                state_bytes,
            ))
        });
        out.utility_sum += perf.utility;
        out.fp_sum += perf.fp;
        out.alarms += perf.false_alarms;
        out.n_hosts += 1;
        if let QuantileSource::Sketch(s) = train_src {
            shard_sketches.push(s);
        }
    }
    if !shard_sketches.is_empty() {
        let refs: Vec<&KllSketch> = shard_sketches.iter().collect();
        out.pooled = Some(tr.span("tailstats.pool", || KllSketch::pool(&refs)));
    }
    out
}

/// `megafleet::run` with spans, shards in order on the calling thread.
fn traced_run(cfg: &MegafleetConfig, tr: &mut Tracer) -> Output {
    let n_shards = cfg.n_shards.max(1);
    let chunk = cfg.n_users.div_ceil(n_shards as u64).max(1);
    let shards: Vec<Shard> = (0..n_shards)
        .map(|s| {
            let lo = (s as u64 * chunk).min(cfg.n_users);
            let hi = ((s as u64 + 1) * chunk).min(cfg.n_users);
            traced_shard(cfg, lo, hi, tr)
        })
        .collect();

    let mut r = MegafleetResult {
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
    let (mut utility_sum, mut fp_sum, mut generated, mut kept) = (0.0, 0.0, 0, 0);
    let mut shard_sketches = Vec::new();
    for shard in shards {
        r.n_hosts += shard.n_hosts;
        r.peak_host_state_bytes = r.peak_host_state_bytes.max(shard.peak_host_bytes);
        r.total_sketch_bytes += shard.total_bytes;
        r.total_compactions += shard.total_compactions;
        r.max_rank_error_ppm = r.max_rank_error_ppm.max(shard.max_err_ppm);
        r.total_false_alarms += shard.alarms;
        utility_sum += shard.utility_sum;
        fp_sum += shard.fp_sum;
        generated += shard.generated;
        kept += shard.kept;
        r.shard_csvs.push(shard.csv);
        if let Some(s) = shard.pooled {
            shard_sketches.push(s);
        }
    }
    if r.n_hosts > 0 {
        r.mean_utility = utility_sum / r.n_hosts as f64;
        r.mean_fp = fp_sum / r.n_hosts as f64;
    }
    if !shard_sketches.is_empty() {
        tr.span("tailstats.pool", || {
            let forward: Vec<&KllSketch> = shard_sketches.iter().collect();
            let global = KllSketch::pool(&forward);
            let reversed: Vec<&KllSketch> = shard_sketches.iter().rev().collect();
            r.merge_order_ok = KllSketch::pool(&reversed).to_bytes() == global.to_bytes();
            r.global = Some(global);
        });
    }
    Output {
        result: r,
        useful_ratio: (generated > 0).then(|| kept as f64 / generated as f64),
    }
}

impl Workload for FleetSketch {
    type Input = Input;
    type Output = Output;

    fn name(&self) -> &'static str {
        "fleet-sketch"
    }

    fn op_unit(&self) -> &'static str {
        "hosts"
    }

    fn scale(&self) -> String {
        format!("{} hosts, eps 0.01, 256 shards", self.hosts)
    }

    fn default_seed(&self) -> u64 {
        0xC0FFEE
    }

    fn pinned_fingerprint(&self) -> Option<u64> {
        (self.hosts == 2000).then_some(PIN_FULL)
    }

    fn setup(&self, seed: u64) -> Result<Input, String> {
        let cfg = MegafleetConfig {
            n_users: self.hosts,
            seed,
            progress_every: 0,
            ..Default::default()
        };
        let pcfg = population(&cfg);
        let oracle = (0..self.oracle_hosts)
            .map(|k| {
                let id = k * self.hosts / self.oracle_hosts;
                let profile = sample_user(&pcfg, id as u32);
                let mut values =
                    user_week_series(&profile, seed, 0, WINDOWING).feature(cfg.feature);
                values.sort_unstable();
                (id, values)
            })
            .collect();
        Ok(Input { cfg, oracle })
    }

    fn rep(&self, input: &Input, _dir: &Path, tr: &mut Tracer) -> Result<Output, String> {
        if tr.is_on() {
            return Ok(traced_run(&input.cfg, tr));
        }
        Ok(Output {
            result: megafleet::run(&input.cfg),
            useful_ratio: None,
        })
    }

    fn summarize(&self, input: &Input, out: &Output) -> RepSummary {
        let r = &out.result;
        let check = r.check();
        let mut counts = vec![
            ("tailstats.sketch.compactions", r.total_compactions as f64),
            (
                "tailstats.sketch.bytes_per_host",
                r.total_sketch_bytes as f64 / r.n_hosts.max(1) as f64,
            ),
            (
                "tailstats.sketch.max_rank_error_ppm",
                r.max_rank_error_ppm as f64,
            ),
        ];
        if let Some(ratio) = out.useful_ratio {
            counts.push(("synthgen.series.useful_ratio", ratio));
        }
        RepSummary {
            ops: r.n_hosts,
            failed: input.cfg.n_users.saturating_sub(r.n_hosts),
            fingerprint: r.hosts_csv_hash(),
            counts,
            checks: vec![Check::new(
                "megafleet_check",
                check.is_ok(),
                check
                    .err()
                    .unwrap_or_else(|| "every host evaluated within the rank budget".into()),
            )],
        }
    }

    /// The sketch threshold of each oracle host must sit within the
    /// configured rank-error budget of the exact `q`-quantile rank.
    fn verify(&self, input: &Input, out: &Output) -> Vec<Check> {
        let csv = out.result.hosts_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let q = input.cfg.threshold_q;
        let mut bad = Vec::new();
        for (id, values) in &input.oracle {
            let threshold = rows
                .get(*id as usize)
                .and_then(|row| row.split(',').nth(1))
                .and_then(|t| t.parse::<f64>().ok());
            let Some(t) = threshold else {
                bad.push(format!("host {id}: no row"));
                continue;
            };
            let n = values.len() as u64;
            let rank = ((q * n as f64).ceil() as u64).clamp(1, n.max(1));
            let budget = (input.cfg.sketch_eps * n as f64).ceil() as u64;
            let below = values.iter().filter(|&&v| (v as f64) < t).count() as u64;
            let at_most = values.iter().filter(|&&v| v as f64 <= t).count() as u64;
            // The threshold's true 1-based rank range [below + 1, at_most]
            // must meet [rank - budget, rank + budget].
            if below + 1 > rank + budget || at_most + budget < rank {
                bad.push(format!(
                    "host {id}: threshold {t} has {below} of {n} samples below it, want rank {rank}±{budget}"
                ));
            }
        }
        vec![Check::new(
            "sketch_thresholds_match_oracle",
            bad.is_empty(),
            if bad.is_empty() {
                format!("{} oracle hosts within the rank budget", input.oracle.len())
            } else {
                bad.join("; ")
            },
        )]
    }
}

/// Hosts-CSV fingerprint of the full scale at the default seed.
const PIN_FULL: u64 = 0x1bc9_0446_d6d4_0f48;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_mirror_reproduces_megafleet_run() {
        let cfg = MegafleetConfig {
            n_users: 90,
            n_shards: 7,
            progress_every: 0,
            ..Default::default()
        };
        let plain = megafleet::run(&cfg);
        let mut tr = Tracer::on();
        let traced = traced_run(&cfg, &mut tr);
        assert_eq!(traced.result.hosts_csv(), plain.hosts_csv());
        assert_eq!(traced.result.total_compactions, plain.total_compactions);
        assert_eq!(
            traced.result.peak_host_state_bytes,
            plain.peak_host_state_bytes
        );
        assert_eq!(
            traced.result.global.map(|g| g.to_bytes()),
            plain.global.map(|g| g.to_bytes())
        );
        assert_eq!(traced.useful_ratio, Some(1.0 / 6.0));
        assert_eq!(tr.layers()["synthgen.profile"].calls, 90);
    }
}
