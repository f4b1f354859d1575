//! hidsbench: end-to-end and per-layer benchmark of the HIDS workspace.
//!
//! ```text
//! hidsbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
//! hidsbench --test [--workload <name>]
//! hidsbench --compare BASELINE.tsv CANDIDATE.tsv
//! ```
//!
//! One process runs one workload: set-up (several times; `setup_s` is the
//! median), one discarded warm-up rep, then reps for `--seconds`, all on
//! one thread. With `--trace 1` the reps cycle through untraced, untraced
//! on every core (up to two) and traced. The last two lines of stdout are
//! a detailed report and the result, one JSON object each. README.md
//! explains every metric and workload.

mod compare;
mod host;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use stats::{Better, Summary};
use trace::{LayerTime, Tracer, ROOT};
use workloads::daemon::DaemonWire;
use workloads::fleet::FleetSketch;
use workloads::paper::PaperSuite;
use workloads::pcap::PcapHeavy;
use workloads::{fresh_dir, Check, Workload};

pub const WORKLOADS: [&str; 4] = ["pcap-heavy", "fleet-sketch", "daemon-wire", "paper-suite"];

/// End-to-end metrics: name, unit, direction, bound (a share of the
/// baseline median) and an absolute floor in the metric's unit. Mirrors
/// `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str, Better, f64, f64); 3] = [
    ("throughput", "1/s", Better::Higher, 0.25, 0.0),
    ("peak_rss_mb", "MiB", Better::Lower, 0.1, 0.0),
    ("setup_s", "s", Better::Lower, 0.25, 0.05),
];

/// Per-layer metrics, reported by every workload; a layer the workload
/// does not run reads 0. A `.share` metric is a layer's self time as a
/// share of the traced reps' wall time. Mirrors `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("hids_core.par.speedup", "ratio"),
    // pcap-heavy
    ("synthgen.render.share", "ratio"),
    ("netpkt.pcap_read.share", "ratio"),
    ("flowtab.extract.share", "ratio"),
    ("flowtab.features.share", "ratio"),
    ("fleetd.wire.share", "ratio"),
    ("hids_core.sweep.share", "ratio"),
    ("synthgen.render.frames", "count"),
    ("synthgen.render.max_capture_bytes", "bytes"),
    ("netpkt.pcap_read.records_skipped", "count"),
    ("flowtab.extract.flows", "count"),
    ("flowtab.extract.frames_rejected", "count"),
    ("flowtab.features.mismatches", "count"),
    ("fleetd.wire.datagrams", "count"),
    // fleet-sketch
    ("synthgen.profile.share", "ratio"),
    ("synthgen.series.share", "ratio"),
    ("tailstats.sketch.share", "ratio"),
    ("hids_core.threshold_fit.share", "ratio"),
    ("hids_core.score.share", "ratio"),
    ("experiments.csv.share", "ratio"),
    ("tailstats.pool.share", "ratio"),
    ("synthgen.series.useful_ratio", "ratio"),
    ("tailstats.sketch.compactions", "count"),
    ("tailstats.sketch.bytes_per_host", "bytes"),
    ("tailstats.sketch.max_rank_error_ppm", "ppm"),
    // daemon-wire
    ("experiments.batches.share", "ratio"),
    ("fleetd.encode.share", "ratio"),
    ("faultsim.apply.share", "ratio"),
    ("fleetd.ingest.share", "ratio"),
    ("fleetd.daemon.open.share", "ratio"),
    ("itconsole.delivery.share", "ratio"),
    ("fleetd.daemon.offer.share", "ratio"),
    ("fleetd.daemon.tick_plain.share", "ratio"),
    ("fleetd.daemon.tick_snapshot.share", "ratio"),
    ("fleetd.daemon.query.share", "ratio"),
    ("experiments.harness.share", "ratio"),
    ("hids_core.degraded_eval.share", "ratio"),
    ("hids_metrics.export.share", "ratio"),
    ("fleetd.recovery.share", "ratio"),
    ("fleetd.ingest.datagrams", "count"),
    ("fleetd.ingest.malformed", "count"),
    ("fleetd.ingest.shed", "count"),
    ("itconsole.delivery.attempts_per_batch", "ratio"),
    ("fleetd.daemon.offer.refused", "count"),
    ("fleetd.snapshot.count", "count"),
    ("fleetd.snapshot.bytes_final", "bytes"),
    ("fleetd.wal.bytes_appended", "bytes"),
    ("fleetd.queue.wait_ticks_p50", "ticks"),
    ("fleetd.queue.wait_ticks_p99", "ticks"),
    ("fleetd.recovery.snapshot_load_frac", "ratio"),
    // paper-suite
    ("experiments.fig1.share", "ratio"),
    ("experiments.fig2.share", "ratio"),
    ("experiments.tab2.share", "ratio"),
    ("experiments.fig3a.share", "ratio"),
    ("experiments.fig3b.share", "ratio"),
    ("experiments.tab3.share", "ratio"),
    ("experiments.fig4a.share", "ratio"),
    ("experiments.fig4b.share", "ratio"),
    ("experiments.fig5.share", "ratio"),
    ("experiments.multifeat.share", "ratio"),
];

/// Layer spans must cover at least this share of a traced rep.
const MIN_COVERAGE: f64 = 0.95;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Threads of the parallel reps that measure the speed-up, or every core
/// if there are fewer. Every other rep runs on one thread: on a small
/// shared machine a single thread leaves a core for everything else, and
/// its timings drift far less between runs.
const MAX_THREADS: usize = 2;

struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    smoke: bool,
    record: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str =
    "usage: hidsbench --workload <pcap-heavy|fleet-sketch|daemon-wire|paper-suite> \
[--seed N] [--seconds S] [--trace 0|1] [--record FILE]
       hidsbench --test [--workload NAME]
       hidsbench --compare BASELINE.tsv CANDIDATE.tsv";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: None,
        seconds: 10.0,
        trace: false,
        smoke: false,
        record: None,
        compare: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = Some(parse_seed(&value()?)?),
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds: not a duration: {v}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--record" => a.record = Some(value()?.into()),
            "--compare" => {
                let base = value()?;
                a.compare = Some((base.into(), value()?.into()));
            }
            "--test" => a.smoke = true,
            // `cargo bench` passes this to every harness-less target.
            "--bench" => {}
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(a)
}

/// A seed in decimal or `0x` hex.
fn parse_seed(v: &str) -> Result<u64, String> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    }
    .map_err(|_| format!("--seed: not a number: {v}"))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hidsbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, cand)) = &args.compare {
        return compare::run(base, cand);
    }
    if args.smoke {
        return smoke(args.workload.as_deref());
    }
    let Some(name) = args.workload.as_deref() else {
        eprintln!("hidsbench: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: false,
    };
    let report = match run_named(name, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hidsbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for c in report.checks.iter().filter(|c| !c.ok) {
        eprintln!("hidsbench: {name}: check {} FAILED: {}", c.name, c.detail);
    }
    println!("{}", report.detail_json());
    println!("{}", report.result_json());
    if let Some(path) = &args.record {
        if let Err(e) = report.append_record(path) {
            eprintln!("hidsbench: --record {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload (or the one named) at smoke scale, traced, with every
/// check.
fn smoke(only: Option<&str>) -> ExitCode {
    let opts = Opts {
        seed: None,
        seconds: 0.0,
        trace: true,
        smoke: true,
    };
    let mut ok = true;
    for name in WORKLOADS.iter().filter(|n| only.is_none_or(|o| o == **n)) {
        let t = Instant::now();
        match run_named(name, &opts) {
            Ok(r) => {
                for c in r.checks.iter().filter(|c| !c.ok) {
                    eprintln!(
                        "hidsbench --test: {name}: check {} FAILED: {}",
                        c.name, c.detail
                    );
                }
                ok &= r.correct();
                println!(
                    "hidsbench --test: {name}: {} ({} {} attempted, {} failed, {:.1}s)",
                    if r.correct() { "ok" } else { "FAILED" },
                    r.attempted,
                    r.op_unit,
                    r.failed,
                    t.elapsed().as_secs_f64()
                );
            }
            Err(e) => {
                eprintln!("hidsbench --test: {name}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct Opts {
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn run_named(name: &str, o: &Opts) -> Result<Report, String> {
    match (name, o.smoke) {
        ("pcap-heavy", false) => run(&PcapHeavy::full(), o),
        ("pcap-heavy", true) => run(&PcapHeavy::smoke(), o),
        ("fleet-sketch", false) => run(&FleetSketch::full(), o),
        ("fleet-sketch", true) => run(&FleetSketch::smoke(), o),
        ("daemon-wire", false) => run(&DaemonWire::full(), o),
        ("daemon-wire", true) => run(&DaemonWire::smoke(), o),
        ("paper-suite", false) => run(&PaperSuite::full(), o),
        ("paper-suite", true) => run(&PaperSuite::smoke(), o),
        _ => Err(format!("unknown workload {name}")),
    }
}

/// The build's target directory (the binary sits in its `release/`):
/// traces and scratch state go there, inside the checkout.
fn out_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()))
        .unwrap_or_else(|| PathBuf::from("target"))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum RepKind {
    /// Untraced, one thread: the end-to-end figures.
    Main,
    /// Untraced, on every core up to `MAX_THREADS`: the speed-up.
    Parallel,
    /// Traced, one thread: the per-layer figures.
    Traced,
}

fn run<W: Workload>(w: &W, o: &Opts) -> Result<Report, String> {
    let seed = o.seed.unwrap_or_else(|| w.default_seed());
    let threads = MAX_THREADS.min(host::nproc());
    hids_core::set_threads(1);
    let root = out_root();
    let work = root.join(format!("bench-work-{}", w.name()));
    let rep_dir = work.join("rep");
    fresh_dir(&work)?;

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut input = None;
    for _ in 0..SETUPS {
        drop(input.take());
        let t = Instant::now();
        input = Some(w.setup(seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let input = input.ok_or("no set-up ran")?;

    let mut report = Report {
        workload: w.name(),
        op_unit: w.op_unit(),
        scale: w.scale(),
        seed,
        seconds: o.seconds,
        trace: o.trace,
        threads,
        ..Report::default()
    };
    report.values.insert("setup_s", setup_s);

    // Warm-up: caches fill and lazy set-up finishes. Its output is the
    // reference every later rep must reproduce.
    fresh_dir(&rep_dir)?;
    let warm = w.rep(&input, &rep_dir, &mut Tracer::off())?;
    let s = w.summarize(&input, &warm);
    let reference = s.fingerprint;
    report.absorb(s);
    report.add_checks(w.verify(&input, &warm));
    drop(warm);
    if seed == w.default_seed() {
        if let Some(pin) = w.pinned_fingerprint() {
            report.add_checks(vec![Check::new(
                "pinned_fingerprint",
                reference == pin,
                format!("{reference:016x}, pinned {pin:016x}"),
            )]);
        }
    }

    let cycle: &[RepKind] = if o.trace {
        &[RepKind::Main, RepKind::Parallel, RepKind::Traced]
    } else {
        &[RepKind::Main]
    };
    let mut walls: BTreeMap<(bool, usize), Vec<f64>> = BTreeMap::new();
    let mut throughput = Vec::new();
    let mut last_tracer = None;
    let mut last_counts = Vec::new();
    let mut identical = Check::new(
        "reps_identical",
        true,
        "every rep reproduced the warm-up output",
    );
    let start = Instant::now();
    for (k, &kind) in cycle.iter().cycle().enumerate() {
        if k >= cycle.len() && start.elapsed().as_secs_f64() >= o.seconds {
            break;
        }
        let (n_threads, mut tr) = match kind {
            RepKind::Main => (1, Tracer::off()),
            RepKind::Parallel => (threads, Tracer::off()),
            RepKind::Traced => (1, Tracer::on()),
        };
        hids_core::set_threads(n_threads);
        fresh_dir(&rep_dir)?;
        tr.enter(ROOT);
        let t = Instant::now();
        let out = w.rep(&input, &rep_dir, &mut tr)?;
        let wall = t.elapsed().as_secs_f64();
        tr.exit();
        let s = w.summarize(&input, &out);
        drop(out);
        walls.entry((tr.is_on(), n_threads)).or_default().push(wall);
        if kind == RepKind::Main {
            throughput.push(s.ops as f64 / wall);
        }
        if s.fingerprint != reference && identical.ok {
            identical = Check::new(
                "reps_identical",
                false,
                format!(
                    "a {} rep at {n_threads} thread(s) gave {:016x}, the warm-up {reference:016x}",
                    if tr.is_on() { "traced" } else { "untraced" },
                    s.fingerprint
                ),
            );
        }
        if tr.is_on() {
            trace::merge(&mut report.layers, tr.layers());
            last_counts.clone_from(&s.counts);
            last_tracer = Some(tr);
        }
        report.absorb(s);
    }
    hids_core::set_threads(1);
    if !identical.ok {
        report.failed += 1;
    }
    report.add_checks(vec![identical]);

    if o.trace {
        report.figures = last_counts;
        let median = |key| {
            walls
                .get(&key)
                .and_then(|v| Summary::of(v))
                .map(|s| s.median)
        };
        if let (Some(traced), Some(plain)) = (median((true, 1)), median((false, 1))) {
            report
                .figures
                .push(("trace.overhead", traced / plain - 1.0));
        }
        if let (Some(one), Some(parallel)) = (median((false, 1)), median((false, threads))) {
            report
                .figures
                .push(("hids_core.par.speedup", one / parallel));
        }
        report.figures.extend(w.profile(&input, &rep_dir)?);
        let listed = |layer: &str| {
            PER_LAYER
                .iter()
                .any(|(m, _)| m.strip_suffix(".share") == Some(layer))
        };
        let unlisted: Vec<&str> = report
            .layers
            .keys()
            .copied()
            .filter(|l| *l != ROOT && !listed(l))
            .collect();
        let coverage = report.coverage();
        report.add_checks(vec![
            Check::new(
                "layers_listed",
                unlisted.is_empty(),
                format!("spans without a per-layer share metric: {unlisted:?}"),
            ),
            Check::new(
                "trace_coverage",
                coverage >= MIN_COVERAGE,
                format!("layer spans cover {coverage:.4} of the traced wall time"),
            ),
        ]);
        if let Some(tr) = &last_tracer {
            let path = root.join("bench-trace").join(format!("{}.json", w.name()));
            tr.write_chrome(&path)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            report.trace_file = Some(path);
        }
    }
    report.values.insert("throughput", throughput);
    report
        .values
        .insert("peak_rss_mb", host::peak_rss_mib().into_iter().collect());
    drop(input);
    std::fs::remove_dir_all(&work).map_err(|e| format!("remove {}: {e}", work.display()))?;
    Ok(report)
}

#[derive(Default)]
struct Report {
    workload: &'static str,
    op_unit: &'static str,
    scale: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Threads of the parallel reps.
    threads: usize,
    attempted: u64,
    failed: u64,
    /// Raw samples of the end-to-end metrics.
    values: BTreeMap<&'static str, Vec<f64>>,
    /// One entry per check name; it fails if any instance failed.
    checks: Vec<Check>,
    /// Calls, total and self time per span name over every traced rep.
    layers: BTreeMap<&'static str, LayerTime>,
    /// Per-layer counters of the last traced rep, then figures taken over
    /// the run as a whole.
    figures: Vec<(&'static str, f64)>,
    trace_file: Option<PathBuf>,
}

impl Report {
    fn absorb(&mut self, s: workloads::RepSummary) {
        self.attempted += s.ops;
        let failed_check = s.checks.iter().any(|c| !c.ok);
        self.failed += s.failed.max(u64::from(failed_check));
        self.add_checks(s.checks);
    }

    fn add_checks(&mut self, checks: Vec<Check>) {
        for c in checks {
            match self.checks.iter_mut().find(|k| k.name == c.name) {
                Some(k) if k.ok => *k = c,
                Some(_) => {}
                None => self.checks.push(c),
            }
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && !self.checks.is_empty() && self.checks.iter().all(|c| c.ok)
    }

    /// `ns` as a share of the traced reps' wall time.
    fn share(&self, ns: u64) -> f64 {
        match self.layers.get(ROOT) {
            Some(root) if root.total_ns > 0 => ns as f64 / root.total_ns as f64,
            _ => 0.0,
        }
    }

    /// The share of the traced reps' wall time inside layer spans.
    fn coverage(&self) -> f64 {
        let root = self.layers.get(ROOT).copied().unwrap_or_default();
        self.share(root.total_ns - root.self_ns)
    }

    fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = if name == "trace.coverage" {
                    self.coverage()
                } else if let Some(layer) = name.strip_suffix(".share") {
                    self.share(self.layers.get(layer).map_or(0, |t| t.self_ns))
                } else {
                    self.figures
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0.0, |&(_, v)| v)
                };
                (name, unit, value)
            })
            .collect()
    }

    fn end_to_end(&self) -> Vec<(&'static str, &'static str, Option<Summary>)> {
        END_TO_END
            .iter()
            .map(|&(name, unit, ..)| {
                (
                    name,
                    unit,
                    self.values.get(name).and_then(|v| Summary::of(v)),
                )
            })
            .collect()
    }

    /// The metrics of the result line, with their values.
    fn result_metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        if self.trace {
            self.per_layer()
        } else {
            self.end_to_end()
                .into_iter()
                .map(|(name, unit, s)| (name, unit, s.map_or(f64::NAN, |s| s.median)))
                .collect()
        }
    }

    /// The last line of stdout: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .result_metrics()
            .into_iter()
            .map(|(n, u, v)| metric_json(n, v, u))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Everything the run measured: each end-to-end sample summary, the
    /// per-layer times, every check.
    fn detail_json(&self) -> String {
        let e2e: Vec<String> = self
            .end_to_end()
            .into_iter()
            .map(|(name, unit, s)| {
                let body = match s {
                    None => "null".to_string(),
                    Some(s) => format!(
                        "{{\"unit\": {}, \"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}, \"tail\": {}}}",
                        quote(unit),
                        s.n,
                        num(s.median),
                        num(s.q1),
                        num(s.q3),
                        num(s.min),
                        num(s.max),
                        s.tail.map_or("null".into(), |(p, v)| format!(
                            "{{\"pct\": {}, \"value\": {}}}",
                            num(p),
                            num(v)
                        )),
                    ),
                };
                format!("{}: {body}", quote(name))
            })
            .collect();
        let layers: Vec<String> = self
            .layers
            .iter()
            .map(|(name, t)| {
                format!(
                    "{}: {{\"calls\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                    quote(name),
                    t.calls,
                    num(t.total_ns as f64 / 1e6),
                    num(t.self_ns as f64 / 1e6)
                )
            })
            .collect();
        let per_layer: Vec<String> = if self.trace {
            self.per_layer()
                .into_iter()
                .map(|(n, u, v)| metric_json(n, v, u))
                .collect()
        } else {
            Vec::new()
        };
        let figures: Vec<String> = self
            .figures
            .iter()
            .map(|(n, v)| format!("{}: {}", quote(n), num(*v)))
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                    quote(c.name),
                    c.ok,
                    quote(&c.detail)
                )
            })
            .collect();
        format!(
            "{{\"workload\": {}, \"scale\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"threads\": 1, \"parallel_threads\": {}, \"nproc\": {}, \"git_rev\": {}, \"op_unit\": {}, \"ops\": {}, \"failed_ops\": {}, \"end_to_end\": {{{}}}, \"per_layer\": {{{}}}, \"figures\": {{{}}}, \"layers\": {{{}}}, \"checks\": [{}], \"trace_file\": {}}}",
            quote(self.workload),
            quote(&self.scale),
            self.seed,
            num(self.seconds),
            self.trace,
            self.threads,
            host::nproc(),
            quote(&host::git_rev(Path::new("."))),
            quote(self.op_unit),
            self.attempted,
            self.failed,
            e2e.join(", "),
            per_layer.join(", "),
            figures.join(", "),
            layers.join(", "),
            checks.join(", "),
            self.trace_file.as_ref().map_or("null".into(), |p| quote(&p.display().to_string())),
        )
    }

    /// Append the result metrics to a tab-separated record file, one
    /// `workload seed trace metric value` row each.
    fn append_record(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        for (name, _, value) in self.result_metrics() {
            writeln!(
                f,
                "{}\t{}\t{}\t{name}\t{value}",
                self.workload,
                self.seed,
                u8::from(self.trace)
            )?;
        }
        Ok(())
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        quote(name),
        num(value),
        quote(unit)
    )
}

/// A JSON number with every digit the `f64` carries; `null` if not finite.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn benchmark_json_lists_every_metric_and_workload() {
        let json = benchmark_json();
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
        for (name, unit, better, bound, _) in END_TO_END {
            let better = if better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "missing {entry}");
        }
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"");
            assert!(json.contains(&entry), "missing per-layer {name}");
        }
        let names = json.matches("\"name\":").count();
        assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        let a = parse(&[
            "--workload",
            "daemon-wire",
            "--seed",
            "0xC0FFEE",
            "--seconds",
            "3",
            "--trace",
            "1",
            "--bench",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("daemon-wire"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(0xC0FFEE), 3.0, true));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seconds", "-1"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn json_numbers_and_strings_are_valid() {
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn report_fails_on_any_failed_check_and_keeps_the_failure() {
        let mut r = Report::default();
        r.absorb(workloads::RepSummary {
            ops: 5,
            checks: vec![Check::new("a", true, "ok")],
            ..Default::default()
        });
        assert!(r.correct());
        r.absorb(workloads::RepSummary {
            ops: 5,
            checks: vec![Check::new("a", false, "broke")],
            ..Default::default()
        });
        r.add_checks(vec![Check::new("a", true, "ok again")]);
        assert_eq!((r.attempted, r.failed), (10, 1));
        assert!(!r.correct());
        assert_eq!(r.checks[0].detail, "broke");
    }
}
