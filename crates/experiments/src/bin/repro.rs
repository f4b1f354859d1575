//! `repro` — regenerate the paper's tables and figures and drive the
//! fleetd scenarios.
//!
//! Runs the experiments named on the command line (`all` when none is) in
//! the order of `experiments::suite`'s registry, which [`usage`] lists
//! with every flag (printed by `repro --help` and after any usage error).
//!
//! Prints each table and plot to stdout and, when `--out` is given,
//! writes the tables' data as CSV for external plotting. Stderr gets one
//! `check <name>: ok: <detail>` (or `FAILED`) line per self-check and one
//! `[timing]` line per experiment. The exit status is 0 when every check
//! passed, 1 when a check, a run or a CSV/metrics write failed, and 2 on
//! a flag error or an unknown experiment name.
//!
//! `--threads N` (or the `REPRO_THREADS` env var) pins the worker-thread
//! count of the parallel evaluation engine; output is identical at any
//! setting.
//!
//! `--metrics-out PATH` writes the merged metrics registry (counters,
//! gauges, histograms and the structured event log from every experiment
//! that ran) as Prometheus exposition text. The snapshot is rendered
//! deterministically — wall-clock timings are quarantined to a volatile
//! section that is excluded — so the file is byte-identical at any
//! `--threads` setting.

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use experiments::suite::{self, Block, Check, Experiment, Options, Report, Scope};
use experiments::{write_csv, Corpus};

#[derive(Debug)]
struct Args {
    opts: Options,
    threads: Option<usize>,
    out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    selected: Vec<&'static Experiment>,
}

fn usage() -> String {
    let mut s = String::from(
        "usage: repro [--users N] [--weeks N] [--seed S] [--threads N] [--out DIR] [--fault-seed S] [--fault-rate R] [--metrics-out PATH] [--delivery-attempts N] [--delivery-backoff T] [--ingest-rate N] [--ingest-burst N] [--fault-severity S] [--sketch-eps E] [--nodes N] [--kill-seed S] [--heartbeat-interval T] [--heartbeat-timeout T] [--admin-port P] [EXPERIMENT...]\n\
         exit status: 0 when every check passed, 1 when a check, run or write failed,\n\
         2 on a usage error\n\
         experiments, in run order (`all`, the default, runs every one not marked [named]):\n",
    );
    for e in suite::EXPERIMENTS {
        let named = if e.scope == Scope::Named { "[named] " } else { "" };
        s += &format!("  {:<13} {named}{}\n", e.name, e.about);
    }
    let aliases: Vec<String> = suite::ALIASES.iter().map(|(a, to)| format!("{a} = {to}")).collect();
    s + "aliases: " + &aliases.join(", ")
}

/// The value after `flag`.
fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} requires a value"))
}

/// The value after `flag`, parsed as a `T`; a parse error names the flag.
fn typed<T: FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value(it, flag)?.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_args<I>(argv: I) -> Result<Args, String>
where
    I: IntoIterator<Item = String>,
{
    let mut args = Args {
        opts: Options::default(),
        threads: None,
        out: None,
        metrics_out: None,
        selected: Vec::new(),
    };
    let o = &mut args.opts;
    let mut names = Vec::new();
    let mut admin_port_raw: Option<String> = None;
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--users" => o.users = typed(&mut it, flag)?,
            "--weeks" => o.weeks = typed(&mut it, flag)?,
            "--seed" => o.seed = typed(&mut it, flag)?,
            "--threads" => args.threads = Some(typed(&mut it, flag)?),
            "--out" => args.out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--fault-seed" => o.fault_seed = typed(&mut it, flag)?,
            "--fault-rate" => o.fault_rate = typed(&mut it, flag)?,
            "--delivery-attempts" => o.delivery_attempts = Some(typed(&mut it, flag)?),
            "--delivery-backoff" => o.delivery_backoff = Some(typed(&mut it, flag)?),
            "--ingest-rate" => o.ingest_rate = typed(&mut it, flag)?,
            "--ingest-burst" => o.ingest_burst = typed(&mut it, flag)?,
            "--fault-severity" => o.fault_severity = typed(&mut it, flag)?,
            "--sketch-eps" => o.sketch_eps = typed(&mut it, flag)?,
            "--nodes" => o.nodes = typed(&mut it, flag)?,
            "--kill-seed" => o.kill_seed = typed(&mut it, flag)?,
            "--heartbeat-interval" => o.heartbeat_interval = typed(&mut it, flag)?,
            "--heartbeat-timeout" => o.heartbeat_timeout = typed(&mut it, flag)?,
            "--admin-port" => admin_port_raw = Some(value(&mut it, flag)?),
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            exp => names.push(exp.to_string()),
        }
    }
    if names.is_empty() {
        names.push("all".to_string());
    }
    args.selected = suite::select(&names)?;
    let rules = [
        (o.users == 0, "--users must be at least 1"),
        (o.users > u32::MAX as usize, "--users overflows the 32-bit host id space"),
        (
            !(o.sketch_eps > 0.0 && o.sketch_eps < 1.0),
            "--sketch-eps must be in the open interval (0, 1)",
        ),
        (o.weeks < 2, "--weeks must be at least 2 (train + test)"),
        (args.threads == Some(0), "--threads must be at least 1"),
        (!(0.0..=1.0).contains(&o.fault_rate), "--fault-rate must be in [0, 1]"),
        (!(0.0..=1.0).contains(&o.fault_severity), "--fault-severity must be in [0, 1]"),
        (o.ingest_rate == 0, "--ingest-rate must be at least 1 datagram/tick"),
        (o.ingest_burst < o.ingest_rate, "--ingest-burst must be at least --ingest-rate"),
        (o.delivery_attempts == Some(0), "--delivery-attempts must be at least 1"),
        (o.delivery_backoff == Some(0), "--delivery-backoff must be at least 1 tick"),
        (o.nodes == 0, "--nodes must be at least 1"),
        (o.nodes > 4096, "--nodes must be at most 4096"),
        (o.heartbeat_interval == 0, "--heartbeat-interval must be at least 1 tick"),
        (
            o.heartbeat_timeout <= o.heartbeat_interval,
            "--heartbeat-timeout must exceed --heartbeat-interval",
        ),
    ];
    if let Some((_, broken)) = rules.iter().find(|(bad, _)| *bad) {
        return Err(broken.to_string());
    }
    if let Some(e) = args.selected.iter().find(|e| o.users < e.min_users) {
        return Err(format!(
            "--users {} is below the {} users {} needs for its self-checks",
            o.users, e.min_users, e.name
        ));
    }
    // The control-plane knobs route through the daemon's own FleetConfig
    // machinery, so repro accepts exactly the values a live reload would.
    let mut fc = fleetd::FleetConfig::default();
    let routed = [
        ("--delivery-attempts", "delivery_attempts", o.delivery_attempts.map(|v| v.to_string())),
        ("--delivery-backoff", "delivery_backoff", o.delivery_backoff.map(|v| v.to_string())),
        ("--ingest-rate", "ingest_rate", Some(o.ingest_rate.to_string())),
        ("--ingest-burst", "ingest_burst", Some(o.ingest_burst.to_string())),
        ("--admin-port", "admin_port", admin_port_raw),
    ];
    for (flag, key, val) in routed {
        if let Some(v) = val {
            fc.set(key, &v).map_err(|e| format!("{flag}: {e}"))?;
        }
    }
    fc.validate()
        .map_err(|e| format!("--{}", e.replacen('_', "-", 1)))?;
    o.admin_port = fc.admin_port;
    Ok(args)
}

fn generate_corpus(opts: &Options) -> Corpus {
    let cfg = opts.corpus_config();
    eprintln!(
        "generating corpus: {} users x {} weeks (seed {:#x}, {} threads)...",
        cfg.n_users,
        cfg.n_weeks,
        cfg.seed,
        hids_core::current_threads()
    );
    let t = Instant::now();
    let corpus = Corpus::generate(cfg);
    eprintln!("corpus ready in {:.1}s", t.elapsed().as_secs_f64());
    corpus
}

/// Print `report`'s blocks and one line per check, writing its CSVs under
/// `out`; false when a check or a write failed.
fn emit(report: &Report, out: Option<&Path>) -> bool {
    let mut written = true;
    for block in &report.blocks {
        let write = match block {
            Block::Text(text) => {
                print!("{text}");
                None
            }
            Block::Table { out_only: true, .. } if out.is_none() => None,
            Block::Table { name, table, .. } => {
                println!("{}", table.render());
                out.map(|dir| (name, write_csv(dir, name, &table.to_csv())))
            }
            Block::Csv(name, csv) => out.map(|dir| (name, write_csv(dir, name, csv))),
        };
        if let Some((name, Err(e))) = write {
            eprintln!("{}", Check::new(&format!("write.{name}.csv"), Err(e.to_string())));
            written = false;
        }
    }
    for check in &report.checks {
        eprintln!("{check}");
    }
    written && report.passed()
}

/// Flush the merged metrics registry as deterministic Prometheus text;
/// false when the write failed.
fn write_metrics(path: &Path, metrics: &mut hids_metrics::Registry) -> bool {
    // Harvest the sweep kernel's process-wide work counters last so the
    // snapshot covers every experiment that ran.
    hids_core::sweep::export_metrics(metrics);
    let text = metrics.render(hids_metrics::RenderOptions::deterministic());
    let write = || -> std::io::Result<()> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, &text)
    };
    match write() {
        Ok(()) => {
            eprintln!("metrics snapshot written to {}", path.display());
            true
        }
        Err(e) => {
            let detail = format!("{}: {e}", path.display());
            eprintln!("{}", Check::new("write.metrics", Err(detail)));
            false
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repro: {e}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.threads {
        hids_core::set_threads(n);
    }
    let t0 = Instant::now();
    // Merged observability snapshot across every experiment that runs.
    // Each contributor is deterministic (integer-only accumulation,
    // stable key order), so the rendered text is a pure function of the
    // work performed — byte-identical at any --threads setting.
    let mut metrics = hids_metrics::Registry::new();
    // Built before the first selected experiment that reads it, if any.
    let mut corpus = None;
    let mut passed = true;
    for exp in &args.selected {
        if exp.needs_corpus() && corpus.is_none() {
            corpus = Some(generate_corpus(&args.opts));
        }
        let t = Instant::now();
        let report = exp
            .run(&args.opts, corpus.as_ref())
            .unwrap_or_else(|e| Report::failed(&format!("{}.run", exp.name), e));
        let secs = t.elapsed().as_secs_f64();
        passed &= emit(&report, args.out.as_deref());
        metrics.merge(&report.metrics);
        eprintln!("[timing] {}: {secs:.2}s", exp.name);
    }
    if let Some(path) = &args.metrics_out {
        passed &= write_metrics(path, &mut metrics);
    }
    eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_args, Args};

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    /// The selected experiments' names, in run order.
    fn names(args: &Args) -> Vec<&'static str> {
        args.selected.iter().map(|e| e.name).collect()
    }

    #[test]
    fn defaults_fill_in_when_nothing_is_passed() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.opts.users, 350);
        assert_eq!(args.opts.weeks, 5);
        let all = names(&args);
        assert_eq!(all, names(&parse(&["all"]).unwrap()));
        assert!(all.contains(&"fig1") && all.contains(&"controlplane"));
        assert!(!all.contains(&"megafleet") && !all.contains(&"pipeline"));
    }

    #[test]
    fn flags_and_experiments_parse_together() {
        let args = parse(&["--users", "40", "--threads", "2", "rollout", "daemon"]).unwrap();
        assert_eq!(args.opts.users, 40);
        assert_eq!(args.threads, Some(2));
        assert_eq!(names(&args), vec!["daemon", "rollout"], "registry order");
    }

    #[test]
    fn fault_rate_outside_unit_interval_is_rejected() {
        assert!(parse(&["--fault-rate", "1.5"]).unwrap_err().contains("[0, 1]"));
        assert!(parse(&["--fault-rate", "-0.1"]).unwrap_err().contains("[0, 1]"));
        assert!(parse(&["--fault-rate", "1.0"]).is_ok());
    }

    #[test]
    fn zero_valued_tunables_are_rejected() {
        assert!(parse(&["--users", "0"]).unwrap_err().contains("--users"));
        assert!(parse(&["--threads", "0"]).unwrap_err().contains("--threads"));
        assert!(parse(&["--weeks", "1"]).unwrap_err().contains("--weeks"));
        assert!(parse(&["--delivery-backoff", "0"])
            .unwrap_err()
            .contains("--delivery-backoff"));
        assert!(parse(&["--delivery-attempts", "0"])
            .unwrap_err()
            .contains("--delivery-attempts"));
    }

    #[test]
    fn sketch_eps_outside_open_unit_interval_is_rejected() {
        for bad in ["0", "0.0", "1", "1.0", "-0.1", "2.5", "NaN"] {
            assert!(
                parse(&["--sketch-eps", bad]).unwrap_err().contains("(0, 1)"),
                "--sketch-eps {bad} must be rejected"
            );
        }
        let args = parse(&["--sketch-eps", "0.05", "megafleet"]).unwrap();
        assert_eq!(args.opts.sketch_eps, 0.05);
        assert_eq!(parse(&[]).unwrap().opts.sketch_eps, 0.01, "default eps");
    }

    #[test]
    fn cluster_flags_parse_with_defaults() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.opts.nodes, 2);
        assert_eq!(args.opts.heartbeat_interval, 4);
        assert_eq!(args.opts.heartbeat_timeout, 16);
        let args = parse(&[
            "--nodes",
            "4",
            "--kill-seed",
            "99",
            "--heartbeat-interval",
            "3",
            "--heartbeat-timeout",
            "12",
            "cluster",
        ])
        .unwrap();
        assert_eq!(args.opts.nodes, 4);
        assert_eq!(args.opts.kill_seed, 99);
        assert_eq!(args.opts.heartbeat_interval, 3);
        assert_eq!(args.opts.heartbeat_timeout, 12);
        assert_eq!(names(&args), vec!["cluster"]);
    }

    #[test]
    fn cluster_flag_misuse_is_rejected() {
        assert!(parse(&["--nodes", "0"]).unwrap_err().contains("--nodes"));
        assert!(parse(&["--nodes", "4097"]).unwrap_err().contains("--nodes"));
        assert!(parse(&["--heartbeat-interval", "0"])
            .unwrap_err()
            .contains("--heartbeat-interval"));
        // The timeout must strictly exceed the interval, else a healthy
        // node can never prove liveness between detector sweeps.
        assert!(parse(&["--heartbeat-interval", "8", "--heartbeat-timeout", "8"])
            .unwrap_err()
            .contains("--heartbeat-timeout"));
        assert!(parse(&["--heartbeat-interval", "8", "--heartbeat-timeout", "4"])
            .unwrap_err()
            .contains("--heartbeat-timeout"));
        assert!(parse(&["--kill-seed"]).unwrap_err().contains("requires a value"));
        assert!(parse(&["--kill-seed", "not-a-seed"]).is_err());
    }

    #[test]
    fn ingest_flags_parse_with_defaults() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.opts.ingest_rate, 16);
        assert_eq!(args.opts.ingest_burst, 64);
        assert_eq!(args.opts.fault_severity, 0.2);
        let args = parse(&[
            "--ingest-rate",
            "4",
            "--ingest-burst",
            "32",
            "--fault-severity",
            "0.05",
            "ingest",
        ])
        .unwrap();
        assert_eq!(args.opts.ingest_rate, 4);
        assert_eq!(args.opts.ingest_burst, 32);
        assert_eq!(args.opts.fault_severity, 0.05);
        assert_eq!(names(&args), vec!["ingest"]);
    }

    #[test]
    fn ingest_flag_misuse_is_rejected() {
        assert!(parse(&["--ingest-rate", "0"])
            .unwrap_err()
            .contains("--ingest-rate"));
        // A burst below the refill rate can never fill the bucket —
        // honest sources would shed on their very first tick.
        assert!(parse(&["--ingest-rate", "8", "--ingest-burst", "4"])
            .unwrap_err()
            .contains("--ingest-burst"));
        for bad in ["1.5", "-0.1", "NaN"] {
            assert!(
                parse(&["--fault-severity", bad]).unwrap_err().contains("[0, 1]"),
                "--fault-severity {bad} must be rejected"
            );
        }
        assert!(parse(&["--fault-severity"]).unwrap_err().contains("requires a value"));
        assert!(parse(&["--ingest-rate", "not-a-rate"]).is_err());
        assert!(parse(&["--fault-severity", "1.0"]).is_ok());
    }

    #[test]
    fn admin_port_routes_through_fleet_config_validation() {
        // Port 0 parses as a number but is forbidden by FleetConfig's own
        // validator — the same rule a live reload enforces.
        assert!(parse(&["--admin-port", "0"]).unwrap_err().contains("--admin-port"));
        // Out of u16 range fails at the typed key parse, with the flag named.
        assert!(parse(&["--admin-port", "70000"])
            .unwrap_err()
            .contains("--admin-port"));
        assert!(parse(&["--admin-port"]).unwrap_err().contains("requires a value"));
        assert!(parse(&["--admin-port", "not-a-port"]).is_err());
        let args = parse(&["--admin-port", "18080", "controlplane"]).unwrap();
        assert_eq!(args.opts.admin_port, Some(18080));
        assert_eq!(names(&args), vec!["controlplane"]);
        assert_eq!(parse(&[]).unwrap().opts.admin_port, None, "endpoint off by default");
    }

    #[test]
    fn users_beyond_host_id_space_are_rejected() {
        assert!(parse(&["--users", "4294967296"])
            .unwrap_err()
            .contains("host id space"));
        assert!(parse(&["--users", "4294967295"]).is_ok());
        // Values that overflow usize itself fail at the parse step.
        assert!(parse(&["--users", "99999999999999999999999"]).is_err());
    }

    #[test]
    fn unknown_experiment_names_are_rejected_and_aliases_resolve() {
        let err = parse(&["--users", "2", "fig6"]).unwrap_err();
        assert!(err.contains("unknown experiment fig6"), "{err}");
        assert!(err.contains("fig5") && err.contains("sketchablate"), "{err}");
        assert!(parse(&["fig1", "figx"]).is_err());
        assert_eq!(names(&parse(&["fig5a"]).unwrap()), vec!["fig5"]);
        assert_eq!(names(&parse(&["fig5b", "fig5a"]).unwrap()), vec!["fig5"]);
        assert_eq!(names(&parse(&["fig5"]).unwrap()), vec!["fig5"]);
    }

    #[test]
    fn malformed_input_is_rejected_with_context() {
        assert!(parse(&["--users"]).unwrap_err().contains("requires a value"));
        assert_eq!(
            parse(&["--users", "many"]).unwrap_err(),
            "--users: invalid digit found in string"
        );
        for flag in [
            "--users",
            "--weeks",
            "--seed",
            "--threads",
            "--fault-seed",
            "--fault-rate",
            "--delivery-attempts",
            "--delivery-backoff",
            "--ingest-rate",
            "--ingest-burst",
            "--fault-severity",
            "--sketch-eps",
            "--nodes",
            "--kill-seed",
            "--heartbeat-interval",
            "--heartbeat-timeout",
            "--admin-port",
        ] {
            let err = parse(&[flag, "many"]).unwrap_err();
            assert!(err.starts_with(&format!("{flag}: ")), "{flag} many: {err}");
        }
        assert!(parse(&["--frobnicate"]).unwrap_err().contains("unknown flag"));
    }
}
