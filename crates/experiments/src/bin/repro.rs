//! `repro` — regenerate the paper's tables and figures and drive the
//! fleetd scenarios.
//!
//! The flags and experiment names are listed once, in [`usage`] (printed by
//! `repro --help` and after any flag error); with no experiment named it
//! runs `all`.
//!
//! Prints each artifact as an aligned table and, when `--out` is given,
//! writes the underlying data as CSV for external plotting. Each
//! experiment's wall-clock time goes to stderr as a `[timing]` line.
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

use experiments::plot::{render as plot, ChartSpec, Series};
use experiments::{
    ablation, chaos, cluster, collab, controlplane, daemon, data::CorpusConfig, drift, fig1, fig2,
    fig3, fig4, fig5, megafleet, multifeat, ops, report, rollout, seeds, sketchablate, tab2, tab3,
    Corpus, Table,
};
use flowtab::FeatureKind;
use itconsole::DeliveryConfig;
use synthgen::StormConfig;

#[derive(Debug)]
struct Args {
    users: usize,
    weeks: usize,
    seed: u64,
    threads: Option<usize>,
    out: Option<PathBuf>,
    fault_seed: u64,
    fault_rate: f64,
    delivery_attempts: Option<u32>,
    delivery_backoff: Option<u64>,
    metrics_out: Option<PathBuf>,
    ingest_rate: u64,
    ingest_burst: u64,
    fault_severity: f64,
    sketch_eps: f64,
    nodes: u32,
    kill_seed: u64,
    heartbeat_interval: u64,
    heartbeat_timeout: u64,
    admin_port: Option<u16>,
    experiments: Vec<String>,
}

fn usage() -> String {
    "usage: repro [--users N] [--weeks N] [--seed S] [--threads N] [--out DIR] [--fault-seed S] [--fault-rate R] [--metrics-out PATH] [--delivery-attempts N] [--delivery-backoff T] [--ingest-rate N] [--ingest-burst N] [--fault-severity S] [--sketch-eps E] [--nodes N] [--kill-seed S] [--heartbeat-interval T] [--heartbeat-timeout T] [--admin-port P] [EXPERIMENT...]\n\
     experiments: validate fig1 fig2 tab2 fig3a fig3b tab3 fig4a fig4b fig5a fig5b multi collab seeds ops drift ablation chaos daemon ingest rollout controlplane all\n\
     controlplane replays a scripted operator timeline (drain/pin/undrain, canary rollout +\n\
     force-rollback, valid + rejected hot reload) through the crash-injection harness and demands\n\
     a byte-identical hosts CSV; with --admin-port P it also binds the admin endpoint on\n\
     127.0.0.1:P and drives reload/command/metrics requests over raw TCP;\n\
     ingest re-encodes the daemon stream as syslog/CEF + DNS datagrams through the hardened wire\n\
     front-end: severity 0 must reproduce the synthetic hosts CSV byte-for-byte, then a\n\
     --fault-severity sweep plus a seeded flood exercise shedding and degraded accounting\n\
     (--ingest-rate/--ingest-burst tune the per-source token bucket);\n\
     pipeline (run only when named; not part of `all`) renders synthetic weeks to real pcap and\n\
     drives them end to end — pcap → lossy decode → sanitize → features → threshold sweep — with\n\
     per-stage timings and identity checks;\n\
     scale experiments (run only when named; not part of `all`): megafleet sketchablate cluster\n\
     megafleet streams --users hosts through bounded-memory rank sketches (--sketch-eps, default 0.01);\n\
     sketchablate quantifies sketch-vs-exact error on the corpus;\n\
     cluster shards fleetd across --nodes worker nodes (default 2) over a lossy wire, then\n\
     replays the run under a --kill-seed schedule of node and process kills and demands a\n\
     byte-identical merged hosts CSV (--heartbeat-interval/--heartbeat-timeout tune detection)"
        .to_string()
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
        users: 350,
        weeks: 5,
        seed: 0xC0FFEE,
        threads: None,
        out: None,
        fault_seed: 0xFA17,
        fault_rate: 0.2,
        delivery_attempts: None,
        delivery_backoff: None,
        metrics_out: None,
        ingest_rate: 16,
        ingest_burst: 64,
        fault_severity: 0.2,
        sketch_eps: 0.01,
        nodes: 2,
        kill_seed: 0xC1A5,
        heartbeat_interval: 4,
        heartbeat_timeout: 16,
        admin_port: None,
        experiments: Vec::new(),
    };
    let mut admin_port_raw: Option<String> = None;
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--users" => args.users = typed(&mut it, flag)?,
            "--weeks" => args.weeks = typed(&mut it, flag)?,
            "--seed" => args.seed = typed(&mut it, flag)?,
            "--threads" => args.threads = Some(typed(&mut it, flag)?),
            "--out" => args.out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--fault-seed" => args.fault_seed = typed(&mut it, flag)?,
            "--fault-rate" => args.fault_rate = typed(&mut it, flag)?,
            "--delivery-attempts" => args.delivery_attempts = Some(typed(&mut it, flag)?),
            "--delivery-backoff" => args.delivery_backoff = Some(typed(&mut it, flag)?),
            "--ingest-rate" => args.ingest_rate = typed(&mut it, flag)?,
            "--ingest-burst" => args.ingest_burst = typed(&mut it, flag)?,
            "--fault-severity" => args.fault_severity = typed(&mut it, flag)?,
            "--sketch-eps" => args.sketch_eps = typed(&mut it, flag)?,
            "--nodes" => args.nodes = typed(&mut it, flag)?,
            "--kill-seed" => args.kill_seed = typed(&mut it, flag)?,
            "--heartbeat-interval" => args.heartbeat_interval = typed(&mut it, flag)?,
            "--heartbeat-timeout" => args.heartbeat_timeout = typed(&mut it, flag)?,
            "--admin-port" => admin_port_raw = Some(value(&mut it, flag)?),
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            exp => args.experiments.push(exp.to_string()),
        }
    }
    if args.experiments.is_empty() {
        args.experiments.push("all".to_string());
    }
    if args.users == 0 {
        return Err("--users must be at least 1".into());
    }
    if args.users > u32::MAX as usize {
        return Err("--users overflows the 32-bit host id space".into());
    }
    if !(args.sketch_eps > 0.0 && args.sketch_eps < 1.0) {
        return Err("--sketch-eps must be in the open interval (0, 1)".into());
    }
    if args.weeks < 2 {
        return Err("--weeks must be at least 2 (train + test)".into());
    }
    if args.threads == Some(0) {
        return Err("--threads must be at least 1".into());
    }
    if !(0.0..=1.0).contains(&args.fault_rate) {
        return Err("--fault-rate must be in [0, 1]".into());
    }
    if !(0.0..=1.0).contains(&args.fault_severity) {
        return Err("--fault-severity must be in [0, 1]".into());
    }
    if args.ingest_rate == 0 {
        return Err("--ingest-rate must be at least 1 datagram/tick".into());
    }
    if args.ingest_burst < args.ingest_rate {
        return Err("--ingest-burst must be at least --ingest-rate".into());
    }
    if args.delivery_attempts == Some(0) {
        return Err("--delivery-attempts must be at least 1".into());
    }
    if args.delivery_backoff == Some(0) {
        return Err("--delivery-backoff must be at least 1 tick".into());
    }
    if args.nodes == 0 {
        return Err("--nodes must be at least 1".into());
    }
    if args.nodes > 4096 {
        return Err("--nodes must be at most 4096".into());
    }
    if args.heartbeat_interval == 0 {
        return Err("--heartbeat-interval must be at least 1 tick".into());
    }
    if args.heartbeat_timeout <= args.heartbeat_interval {
        return Err("--heartbeat-timeout must exceed --heartbeat-interval".into());
    }
    // The control-plane knobs route through the daemon's own FleetConfig
    // machinery, so repro accepts exactly the values a live reload would.
    let mut fc = fleetd::FleetConfig::default();
    let routed: [(&str, &str, Option<String>); 5] = [
        (
            "--delivery-attempts",
            "delivery_attempts",
            args.delivery_attempts.map(|v| v.to_string()),
        ),
        (
            "--delivery-backoff",
            "delivery_backoff",
            args.delivery_backoff.map(|v| v.to_string()),
        ),
        ("--ingest-rate", "ingest_rate", Some(args.ingest_rate.to_string())),
        ("--ingest-burst", "ingest_burst", Some(args.ingest_burst.to_string())),
        ("--admin-port", "admin_port", admin_port_raw),
    ];
    for (flag, key, val) in routed {
        if let Some(v) = val {
            fc.set(key, &v).map_err(|e| format!("{flag}: {e}"))?;
        }
    }
    fc.validate()
        .map_err(|e| format!("--{}", e.replacen('_', "-", 1)))?;
    args.admin_port = fc.admin_port;
    Ok(args)
}

impl Args {
    /// A harness's default delivery link with `--delivery-attempts` and
    /// `--delivery-backoff` applied.
    fn delivery(&self, mut link: DeliveryConfig) -> DeliveryConfig {
        if let Some(n) = self.delivery_attempts {
            link.max_attempts = n;
        }
        if let Some(t) = self.delivery_backoff {
            link.backoff_base = t;
        }
        link
    }
}

/// Run `f` in a fresh scratch directory, removed again on every path out
/// of `f`.
fn in_scratch<T>(tag: &str, f: impl FnOnce(&Path) -> T) -> T {
    struct Removed(PathBuf);
    impl Drop for Removed {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let dir = Removed(daemon::unique_run_dir(tag));
    f(&dir.0)
}

/// The `Ok` value, or report the error after `context` and exit failed.
macro_rules! or_exit {
    ($result:expr, $($context:tt)+) => {
        match $result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: {e}", format_args!($($context)+));
                return ExitCode::FAILURE;
            }
        }
    };
}

fn emit(table: &Table, out: &Option<PathBuf>, name: &str) {
    println!("{}", table.render());
    if let Some(dir) = out {
        if let Err(e) = report::write_csv(table, dir, name) {
            eprintln!("warning: failed to write {name}.csv: {e}");
        }
    }
}

/// Flush the merged metrics registry as deterministic Prometheus text.
fn write_metrics(path: &PathBuf, metrics: &mut hids_metrics::Registry) {
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
        Ok(()) => eprintln!("metrics snapshot written to {}", path.display()),
        Err(e) => eprintln!("warning: failed to write {}: {e}", path.display()),
    }
}

/// Drive the live admin endpoint over real TCP: open a daemon at `dir`,
/// bind on `port`, serve from this thread while a client thread issues one
/// request per probe, and return the `(label, raw response)` pairs.
fn admin_probe(
    dir: &Path,
    port: u16,
    daemon_cfg: fleetd::DaemonConfig,
) -> Result<Vec<(String, String)>, String> {
    use std::io::{Read as _, Write as _};
    let (mut d, _) = fleetd::Daemon::open(dir, daemon_cfg).map_err(|e| e.to_string())?;
    let mut kill = fleetd::KillSwitch::none();
    let server = fleetd::AdminServer::bind(port, fleetd::AdminConfig::default())
        .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
    let actual = server.port();
    let post = |path: &str, body: &str| {
        format!(
            "POST {path} HTTP/1.0\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    };
    let requests: Vec<(String, String)> = vec![
        (
            "reload-valid".into(),
            post("/reload", "snapshot_every = 257\n"),
        ),
        ("reload-invalid".into(), post("/reload", "n_shards = 8\n")),
        (
            "pin-threshold".into(),
            post("/command", "pin-threshold 0 42"),
        ),
        ("state".into(), "GET /state HTTP/1.0\r\n\r\n".into()),
        ("metrics".into(), "GET /metrics HTTP/1.0\r\n\r\n".into()),
    ];
    let n = requests.len();
    let client = std::thread::spawn(move || -> Result<Vec<(String, String)>, String> {
        let mut out = Vec::new();
        for (label, raw) in requests {
            let mut s = std::net::TcpStream::connect(("127.0.0.1", actual))
                .map_err(|e| format!("{label}: connect: {e}"))?;
            s.write_all(raw.as_bytes())
                .map_err(|e| format!("{label}: write: {e}"))?;
            let mut resp = String::new();
            s.read_to_string(&mut resp)
                .map_err(|e| format!("{label}: read: {e}"))?;
            out.push((label, resp));
        }
        Ok(out)
    });
    let mut ctl = fleetd::DaemonControl {
        daemon: &mut d,
        kill: &mut kill,
    };
    let mut serve_err = None;
    for _ in 0..n {
        if let Err(e) = server.serve_one(&mut ctl) {
            serve_err = Some(e.to_string());
            break;
        }
    }
    let out = client
        .join()
        .map_err(|_| "admin client thread panicked".to_string())?;
    match serve_err {
        Some(e) => Err(format!("serve: {e}")),
        None => out,
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

    let wants = |name: &str| {
        args.experiments
            .iter()
            .any(|e| e == name || e == "all")
    };
    // Scale experiments run only when named explicitly — `all` at a
    // million hosts would be a footgun.
    let named = |name: &str| args.experiments.iter().any(|e| e == name);

    // Merged observability snapshot across every experiment that runs.
    // Each contributor is deterministic (integer-only accumulation,
    // stable key order), so the rendered text is a pure function of the
    // work performed — byte-identical at any --threads setting.
    let mut metrics = hids_metrics::Registry::new();

    if named("megafleet") {
        // Streams every host (no corpus materialisation), so it runs
        // before — and can entirely replace — corpus generation.
        let mcfg = megafleet::MegafleetConfig {
            n_users: args.users as u64,
            seed: args.seed,
            sketch_eps: args.sketch_eps,
            ..Default::default()
        };
        eprintln!(
            "megafleet: streaming {} hosts at eps {} ({} threads)...",
            mcfg.n_users,
            mcfg.sketch_eps,
            hids_core::current_threads()
        );
        let t = Instant::now();
        let r = megafleet::run(&mcfg);
        let secs = t.elapsed().as_secs_f64();
        eprintln!("[timing] megafleet: {secs:.2}s");
        println!("{}", r.summary_table().render());
        if let Err(e) = r.check() {
            eprintln!("warning: megafleet invariant violated: {e}");
        }
        r.export_metrics(&mut metrics);
        if let Some(dir) = &args.out {
            let write = || -> std::io::Result<()> {
                use std::io::Write as _;
                std::fs::create_dir_all(dir)?;
                let mut f = std::io::BufWriter::new(std::fs::File::create(
                    dir.join("megafleet_hosts.csv"),
                )?);
                writeln!(f, "{}", megafleet::HOSTS_CSV_HEADER)?;
                for shard in &r.shard_csvs {
                    f.write_all(shard.as_bytes())?;
                }
                Ok(())
            };
            if let Err(e) = write() {
                eprintln!("warning: failed to write megafleet outputs: {e}");
            }
        }
        if args.experiments.iter().all(|e| e == "megafleet") {
            // Sole experiment: skip corpus generation entirely.
            if let Some(path) = &args.metrics_out {
                write_metrics(path, &mut metrics);
            }
            eprintln!("done in {secs:.1}s");
            return ExitCode::SUCCESS;
        }
    }

    if named("pipeline") {
        // Builds its own small population (independent of --users), so it
        // runs before — and can entirely replace — corpus generation.
        let scenario = experiments::pipeline::PipelineScenario {
            seed: args.seed,
            ..experiments::pipeline::PipelineScenario::default()
        };
        eprintln!(
            "pipeline: {} users x {} windows x 2 weeks through pcap→decode→sanitize→features→sweep...",
            scenario.n_users, scenario.n_windows
        );
        let t = Instant::now();
        match experiments::pipeline::run(&scenario) {
            Err(e) => {
                eprintln!("pipeline experiment failed: {e}");
                return ExitCode::FAILURE;
            }
            Ok(r) => {
                let secs = t.elapsed().as_secs_f64();
                eprintln!("[timing] pipeline: {secs:.2}s");
                println!("{}", experiments::pipeline::table(&r).render());
                match r.check() {
                    Ok(()) => {
                        eprintln!(
                            "pipeline capture check: clean pcap loss-free ({} records)",
                            r.records_ok
                        );
                        eprintln!(
                            "pipeline feature check: packet-path features identical to generated series ({} windows)",
                            r.feature_windows
                        );
                        eprintln!(
                            "pipeline wire check: {} hostile envelopes sanitized, decoded batches identical",
                            r.wire_datagrams
                        );
                        eprintln!(
                            "pipeline throughput: {:.0} window-events/sec end-to-end",
                            r.events_per_sec
                        );
                    }
                    Err(e) => eprintln!("warning: pipeline invariant FAILED: {e}"),
                }
                if args.experiments.iter().all(|e| e == "pipeline") {
                    // Sole experiment: skip corpus generation entirely.
                    if let Some(path) = &args.metrics_out {
                        write_metrics(path, &mut metrics);
                    }
                    eprintln!("done in {secs:.1}s");
                    return ExitCode::SUCCESS;
                }
            }
        }
    }

    let cfg = CorpusConfig {
        n_users: args.users,
        n_weeks: args.weeks,
        seed: args.seed,
        ..Default::default()
    };
    eprintln!(
        "generating corpus: {} users x {} weeks (seed {:#x}, {} threads)...",
        cfg.n_users,
        cfg.n_weeks,
        cfg.seed,
        hids_core::current_threads()
    );
    let t0 = Instant::now();
    let corpus = Corpus::generate(cfg.clone());
    let corpus_secs = t0.elapsed().as_secs_f64();
    eprintln!("corpus ready in {corpus_secs:.1}s");

    // Run one experiment, timing it on stderr.
    macro_rules! experiment {
        ($name:literal, $body:block) => {
            experiment!($name, wants($name), $body)
        };
        ($name:literal, $cond:expr, $body:block) => {
            if $cond {
                let t = Instant::now();
                $body
                let secs = t.elapsed().as_secs_f64();
                eprintln!("[timing] {}: {:.2}s", $name, secs);
            }
        };
    }

    let tcp = FeatureKind::TcpConnections;

    experiment!("validate", {
        let report = synthgen::validate(&corpus.population, corpus.config.windowing());
        println!("{}", report.render());
        if !report.passed() {
            eprintln!("warning: population failed calibration checks");
        }
    });

    experiment!("fig1", {
        let r = fig1::run(&corpus, 0);
        emit(&fig1::summary_table(&r), &args.out, "fig1_summary");
        emit(&fig1::concentration_table(&r), &args.out, "fig1_concentration");
        if let Some(curve) = r.curves.iter().find(|c| c.feature == tcp) {
            let series = [
                Series {
                    label: "99th percentile",
                    points: curve
                        .points
                        .iter()
                        .enumerate()
                        .map(|(i, p)| (i as f64, p.1.max(1.0)))
                        .collect(),
                },
                Series {
                    label: "99.9th percentile",
                    points: curve
                        .points
                        .iter()
                        .enumerate()
                        .map(|(i, p)| (i as f64, p.2.max(1.0)))
                        .collect(),
                },
            ];
            println!(
                "{}",
                plot(
                    &ChartSpec {
                        title: "Fig. 1(a) — # TCP connections: per-user thresholds (sorted)",
                        x_label: "user rank",
                        y_label: "threshold",
                        log_y: true,
                        ..Default::default()
                    },
                    &series,
                )
            );
        }
        if args.out.is_some() {
            for c in &r.curves {
                let name = format!(
                    "fig1_curve_{}",
                    c.feature.name().replace('-', "_")
                );
                emit(&fig1::curve_table(c), &args.out, &name);
            }
        }
    });

    experiment!("fig2", {
        let r = fig2::run(&corpus, 0);
        emit(&fig2::summary_table(&r), &args.out, "fig2_summary");
        if args.out.is_some() {
            emit(&fig2::scatter_table(&r), &args.out, "fig2_scatter");
        }
        let series = [Series {
            label: "one point per user",
            points: r
                .points
                .iter()
                .map(|(_, x, y)| (x.max(1.0), y.max(1.0)))
                .collect(),
        }];
        println!(
            "{}",
            plot(
                &ChartSpec {
                    title: "Fig. 2 — per-user 99th percentiles (log-log): TCP (x) vs UDP (y)",
                    x_label: "tcp q99 (log)",
                    y_label: "udp q99",
                    log_x: true,
                    log_y: true,
                    ..Default::default()
                },
                &series,
            )
        );
    });

    experiment!("tab2", {
        let r = tab2::run(&corpus, 0, 10);
        emit(&tab2::table(&r), &args.out, "tab2");
    });

    experiment!("fig3a", {
        let r = fig3::run_a(&corpus, tcp, 0.4);
        emit(&fig3::table_a(&r), &args.out, "fig3a");
    });

    experiment!("fig3b", {
        let r = fig3::run_b(&corpus, tcp, &fig3::paper_weights());
        emit(&fig3::table_b(&r), &args.out, "fig3b");
        let labels = ["Homogeneous", "Full-Diversity", "8-Partial"];
        let series: Vec<Series> = labels
            .iter()
            .enumerate()
            .map(|(p, label)| Series {
                label,
                points: r
                    .weights
                    .iter()
                    .zip(&r.means[p])
                    .map(|(&w, &u)| (w, u))
                    .collect(),
            })
            .collect();
        println!(
            "{}",
            plot(
                &ChartSpec {
                    title: "Fig. 3(b) — mean utility vs w",
                    x_label: "w",
                    y_label: "utility",
                    ..Default::default()
                },
                &series,
            )
        );
    });

    experiment!("tab3", {
        let r = tab3::run(&corpus, tcp);
        emit(&tab3::table(&r), &args.out, "tab3");
    });

    experiment!("fig4a", {
        let r = fig4::run_a(&corpus, tcp, 0, 64);
        emit(&fig4::table_a(&r), &args.out, "fig4a");
        let labels = ["Homogeneous", "Full-Diversity", "8-Partial"];
        let series: Vec<Series> = labels
            .iter()
            .enumerate()
            .map(|(p, label)| Series {
                label,
                points: r.sizes.iter().zip(&r.curves[p]).map(|(&b, &f)| (b, f)).collect(),
            })
            .collect();
        println!(
            "{}",
            plot(
                &ChartSpec {
                    title: "Fig. 4(a) — fraction of users alarming vs attack size",
                    x_label: "attack size (log)",
                    y_label: "fraction",
                    log_x: true,
                    ..Default::default()
                },
                &series,
            )
        );
    });

    experiment!("fig4b", {
        let r = fig4::run_b(&corpus, tcp, 0, 0.9);
        emit(&fig4::table_b(&r), &args.out, "fig4b");
        emit(&fig4::run_c(&corpus, tcp, 0), &args.out, "fig4c_omniscient");
    });

    experiment!("fig5", wants("fig5a") || wants("fig5b"), {
        let r = fig5::run(&corpus, 0, &StormConfig::default());
        let wpw = corpus.config.windowing().windows_per_week() as f64;
        emit(&fig5::summary_table(&r, wpw), &args.out, "fig5_summary");
        if args.out.is_some() {
            emit(&fig5::scatter_table(&r), &args.out, "fig5_scatter");
        }
        let fp_floor = 1.0 / wpw;
        let series: Vec<Series> = r
            .scatters
            .iter()
            .map(|s| Series {
                label: s.policy,
                points: s
                    .points
                    .iter()
                    .map(|p| (p.fp.max(fp_floor), p.detection))
                    .collect(),
            })
            .collect();
        println!(
            "{}",
            plot(
                &ChartSpec {
                    title: "Fig. 5 — Storm replay: FP (log) vs detection, one point per user",
                    x_label: "false positive rate (log)",
                    y_label: "detection",
                    log_x: true,
                    ..Default::default()
                },
                &series,
            )
        );
    });

    experiment!("multi", {
        let r = multifeat::run(&corpus, 0, &StormConfig::default());
        emit(&multifeat::table(&r), &args.out, "multifeat");
    });

    experiment!("collab", {
        let r = collab::run(&corpus, 0, &StormConfig::default());
        emit(&collab::table(&r), &args.out, "collab");
    });

    experiment!("seeds", {
        // Five alternate populations at reduced scale: the qualitative
        // conclusions must not depend on the master seed.
        let r = seeds::run(&[1, 2, 3, 0xBEEF, 0xC0FFEE], args.users.min(120));
        emit(&seeds::table(&r), &args.out, "seeds");
        if !r.all_conclusions_hold() {
            eprintln!("warning: a seed failed to reproduce a headline conclusion");
        }
    });

    experiment!("ops", {
        emit(
            &ops::triage_table(&corpus, tcp, &itconsole::TriageConfig::default()),
            &args.out,
            "ops_triage",
        );
        if corpus.config.n_weeks >= 3 {
            emit(&ops::maintenance_table(&corpus, tcp), &args.out, "ops_maintenance");
        }
    });

    experiment!("drift", {
        let r = drift::run(&corpus, tcp);
        emit(&drift::table(&r), &args.out, "drift");
    });

    experiment!("chaos", {
        let mut ccfg = chaos::ChaosConfig::new(args.fault_seed, args.fault_rate);
        ccfg.queue = args.delivery(ccfg.queue);
        let r = chaos::run(&corpus, tcp, &ccfg);
        emit(&chaos::table(&r), &args.out, "chaos");
        if let Err(e) = r.check() {
            eprintln!("warning: chaos invariant violated: {e}");
        }
        r.export_metrics(&mut metrics);
    });

    experiment!("daemon", {
        let mut scenario = daemon::DaemonScenario {
            feature: tcp,
            ..daemon::DaemonScenario::default()
        };
        scenario.delivery = args.delivery(scenario.delivery);
        if args.fault_rate > 0.0 {
            // One poisoned host per run keeps the quarantine path hot
            // without drowning the coverage picture.
            scenario.poison_hosts = vec![(args.fault_seed % args.users as u64) as u32];
            eprintln!(
                "note: host {} carries a poison batch; panic traces below are injected \
                 faults survived by the shard supervisor",
                scenario.poison_hosts[0]
            );
        }
        let batches = daemon::build_batches(&corpus, &scenario);

        let reference = or_exit!(
            in_scratch("repro-ref", |dir| daemon::run(dir, &scenario, &batches, &[])),
            "daemon experiment failed"
        );
        emit(&daemon::hosts_table(&reference), &args.out, "daemon_hosts");
        emit(&daemon::ops_table(&reference), &args.out, "daemon_ops");
        metrics.merge(&reference.metrics);
        if let Err(e) = reference.check() {
            eprintln!("warning: daemon invariant violated: {e}");
        }

        if args.fault_rate > 0.0 {
            // Crash-recovery self-check: replay the same stream through a
            // daemon killed at seeded batch/byte boundaries (including a
            // torn final WAL record) and demand a byte-identical hosts CSV.
            let kills = faultsim::kill_points(
                args.fault_seed,
                6,
                reference.total_applied,
                reference.total_wal_bytes,
            );
            match in_scratch("repro-kill", |dir| daemon::run(dir, &scenario, &batches, &kills)) {
                Ok(killed) => {
                    if daemon::hosts_csv(&killed) == daemon::hosts_csv(&reference) {
                        eprintln!(
                            "daemon kill-recovery check: {} kills over {} lifetimes, hosts CSV identical",
                            killed.recovery.kills, killed.recovery.lifetimes
                        );
                    } else {
                        eprintln!("warning: daemon kill-recovery check FAILED: hosts CSV diverged");
                    }
                }
                Err(e) => eprintln!("warning: daemon kill-recovery run failed: {e}"),
            }
        }
    });

    experiment!("ingest", {
        let base = experiments::ingest::IngestScenario {
            seed: args.fault_seed,
            rate_per_tick: args.ingest_rate,
            burst: args.ingest_burst,
            daemon: daemon::DaemonScenario {
                feature: tcp,
                ..daemon::DaemonScenario::default()
            },
            ..experiments::ingest::IngestScenario::default()
        };

        // Identity leg: a clean wire must reproduce the synthetic-batch
        // hosts CSV byte-for-byte — the wire format adds nothing.
        let clean = or_exit!(
            in_scratch("ingest-clean", |dir| experiments::ingest::run(dir, &corpus, &base)),
            "ingest experiment failed"
        );
        let batches = daemon::build_batches(&corpus, &base.daemon);
        match in_scratch("ingest-ref", |dir| daemon::run(dir, &base.daemon, &batches, &[])) {
            Ok(reference) => {
                if clean.hosts_csv() == daemon::hosts_csv(&reference) {
                    eprintln!("ingest identity check: severity-0 hosts CSV identical to synthetic path");
                } else {
                    eprintln!("warning: ingest identity check FAILED: hosts CSV diverged");
                }
            }
            Err(e) => eprintln!("warning: ingest reference run failed: {e}"),
        }

        // Degradation leg: a faulted wire plus one flooding agent. The
        // flood drains its own source's bucket, so that host's test week
        // is shed — it must surface through degraded accounting, not
        // vanish.
        let flooded_host = (args.fault_seed % args.users as u64) as u32;
        let hostile = experiments::ingest::IngestScenario {
            severity: args.fault_severity,
            flood_hosts: vec![flooded_host],
            ..base.clone()
        };
        let faulted = or_exit!(
            in_scratch("ingest-hostile", |dir| experiments::ingest::run(dir, &corpus, &hostile)),
            "ingest experiment failed (severity {})",
            args.fault_severity
        );
        emit(
            &experiments::ingest::sweep_table(&[
                (0.0, &clean),
                (args.fault_severity, &faulted),
            ]),
            &args.out,
            "ingest_sweep",
        );
        metrics.merge(&faulted.run.metrics);
        for (label, r) in [("clean", &clean), ("hostile", &faulted)] {
            if let Err(e) = r.check() {
                eprintln!("warning: ingest invariant violated ({label}): {e}");
            }
        }
        use hids_core::degraded::HostStatus;
        match faulted.host_status(flooded_host) {
            Some(HostStatus::Evaluated) => {
                eprintln!("warning: flooded host {flooded_host} was fully evaluated — flood had no effect")
            }
            Some(s) => eprintln!(
                "ingest flood check: host {flooded_host} degraded to {s:?} with {} datagrams shed",
                faulted.stats.shed
            ),
            None => eprintln!("ingest flood check: host {flooded_host} fully dark (no state)"),
        }
    });

    experiment!("rollout", {
        // Synthetic drift streams (not the corpus): sized so both
        // narratives — benign promotion and poisoned rollback — are
        // scripted outcomes, deterministic at any --threads setting.
        let benign = rollout::RolloutScenario {
            seed: args.fault_seed,
            ..rollout::RolloutScenario::default()
        };
        let benign_input = rollout::build_input(&benign);
        let promoted = or_exit!(
            in_scratch("rollout-benign", |dir| rollout::run(dir, &benign, &benign_input, &[])),
            "rollout experiment failed"
        );
        println!("benign drift: refit, canary, promote");
        print!("{}", itconsole::render_history(&promoted.epoch_summaries()));
        itconsole::export_history_metrics(&promoted.epoch_summaries(), &mut metrics);
        emit(&rollout::hosts_table(&promoted), &args.out, "rollout_benign_hosts");
        emit(&rollout::epochs_table(&promoted), &args.out, "rollout_benign_epochs");
        emit(&rollout::ops_table(&promoted), &args.out, "rollout_benign_ops");
        if let Err(e) = promoted.check(&benign) {
            eprintln!("warning: benign rollout invariant violated: {e}");
        }

        let poisoned = rollout::RolloutScenario {
            poison: true,
            ..benign.clone()
        };
        let poisoned_input = rollout::build_input(&poisoned);
        let rolled_back = or_exit!(
            in_scratch("rollout-poisoned", |dir| {
                rollout::run(dir, &poisoned, &poisoned_input, &[])
            }),
            "rollout experiment failed"
        );
        println!("poisoned drift: guard, gate failure, rollback");
        print!("{}", itconsole::render_history(&rolled_back.epoch_summaries()));
        itconsole::export_history_metrics(&rolled_back.epoch_summaries(), &mut metrics);
        emit(&rollout::hosts_table(&rolled_back), &args.out, "rollout_poisoned_hosts");
        emit(&rollout::epochs_table(&rolled_back), &args.out, "rollout_poisoned_epochs");
        emit(&rollout::ops_table(&rolled_back), &args.out, "rollout_poisoned_ops");
        if let Err(e) = rolled_back.check(&poisoned) {
            eprintln!("warning: poisoned rollout invariant violated: {e}");
        }

        // Rollback-identity self-check: the rolled-back fleet must be
        // byte-identical to one that never attempted a rollout.
        let untouched_scenario = rollout::RolloutScenario {
            attempt_rollout: false,
            ..poisoned.clone()
        };
        match in_scratch("rollout-untouched", |dir| {
            rollout::run(dir, &untouched_scenario, &poisoned_input, &[])
        }) {
            Ok(untouched) => {
                if rollout::hosts_csv(&rolled_back) == rollout::hosts_csv(&untouched) {
                    eprintln!("rollout rollback-identity check: hosts CSV identical");
                } else {
                    eprintln!("warning: rollout rollback-identity check FAILED");
                }
            }
            Err(e) => eprintln!("warning: rollout reference run failed: {e}"),
        }

        if args.fault_rate > 0.0 {
            // Crash-recovery self-check across batch, WAL-byte, and
            // epoch-boundary kills.
            let kills = faultsim::rollout_kill_points(
                args.fault_seed,
                6,
                promoted.total_applied,
                promoted.total_wal_bytes,
                promoted.total_rollout_events as u32,
            );
            match in_scratch("rollout-kill", |dir| {
                rollout::run(dir, &benign, &benign_input, &kills)
            }) {
                Ok(killed) => {
                    if rollout::hosts_csv(&killed) == rollout::hosts_csv(&promoted) {
                        eprintln!(
                            "rollout kill-recovery check: {} kills over {} lifetimes, hosts CSV identical",
                            killed.recovery.kills, killed.recovery.lifetimes
                        );
                    } else {
                        eprintln!("warning: rollout kill-recovery check FAILED: hosts CSV diverged");
                    }
                }
                Err(e) => eprintln!("warning: rollout kill-recovery run failed: {e}"),
            }
        }
    });

    experiment!("controlplane", {
        let mut scenario = controlplane::ControlScenario {
            feature: tcp,
            ..controlplane::ControlScenario::default()
        };
        scenario.delivery = args.delivery(scenario.delivery);
        if args.users == 1 {
            // A one-host fleet: the script's drain/pin target must exist.
            scenario.drain_shard = 0;
            scenario.pin_host = 0;
        }
        let batches = daemon::build_batches_for(&corpus, tcp, scenario.batch_windows, &[]);

        let reference = or_exit!(
            in_scratch("ctrl-ref", |dir| controlplane::run(dir, &scenario, &batches, &[])),
            "controlplane experiment failed"
        );
        emit(&controlplane::hosts_table(&reference), &args.out, "controlplane_hosts");
        emit(
            &controlplane::evidence_table(&reference),
            &args.out,
            "controlplane_evidence",
        );
        metrics.merge(&reference.metrics);
        match reference.check(&scenario) {
            Ok(()) => eprintln!(
                "controlplane script check: drain refused admission, operator rollback recorded, \
                 reload generation {}, invalid reload rejected with old config live",
                reference.evidence.generation_after_reload
            ),
            Err(e) => eprintln!("warning: controlplane invariant violated: {e}"),
        }

        // Determinism: a second uninterrupted run of the same script must
        // reproduce the hosts CSV byte-for-byte.
        match in_scratch("ctrl-dup", |dir| controlplane::run(dir, &scenario, &batches, &[])) {
            Ok(dup) => {
                if controlplane::hosts_csv(&dup) == controlplane::hosts_csv(&reference) {
                    eprintln!("controlplane determinism check: hosts CSV identical");
                } else {
                    eprintln!("warning: controlplane determinism check FAILED: hosts CSV diverged");
                }
            }
            Err(e) => eprintln!("warning: controlplane determinism run failed: {e}"),
        }

        if args.fault_rate > 0.0 {
            // Crash-recovery self-check: kill at seeded batch boundaries,
            // WAL byte offsets (including torn tails over command
            // records), and post-command ack windows, and demand a
            // byte-identical hosts CSV.
            let kills = faultsim::command_kill_points(
                args.fault_seed,
                10,
                reference.total_applied,
                reference.total_wal_bytes,
                reference.total_commands as u32,
            );
            match in_scratch("ctrl-kill", |dir| {
                controlplane::run(dir, &scenario, &batches, &kills)
            }) {
                Ok(killed) => {
                    if let Err(e) = killed.check(&scenario) {
                        eprintln!("warning: controlplane invariant violated under kills: {e}");
                    }
                    if controlplane::hosts_csv(&killed) == controlplane::hosts_csv(&reference) {
                        eprintln!(
                            "controlplane kill-recovery check: {} kills over {} lifetimes across \
                             {} scheduled points, hosts CSV identical",
                            killed.recovery.kills,
                            killed.recovery.lifetimes,
                            kills.len()
                        );
                    } else {
                        eprintln!(
                            "warning: controlplane kill-recovery check FAILED: hosts CSV diverged"
                        );
                    }
                }
                Err(e) => eprintln!("warning: controlplane kill-recovery run failed: {e}"),
            }
        }

        if let Some(port) = args.admin_port {
            // Live endpoint leg: serve the admin plane on a real socket
            // and drive reload / rejected reload / command / scrape
            // requests through it.
            match in_scratch("ctrl-admin", |dir| admin_probe(dir, port, scenario.daemon)) {
                Ok(responses) => {
                    let get = |label: &str| {
                        responses
                            .iter()
                            .find(|(l, _)| l == label)
                            .map(|(_, r)| r.as_str())
                            .unwrap_or("")
                    };
                    let reload_ok = get("reload-valid").starts_with("HTTP/1.0 200")
                        && get("reload-valid").contains("\"generation\":2");
                    let reject_ok = get("reload-invalid").starts_with("HTTP/1.0 422")
                        && get("reload-invalid").contains("restart");
                    let pin_ok = get("pin-threshold").starts_with("HTTP/1.0 200");
                    let state_ok = get("state").contains("\"config_generation\":2");
                    for line in get("metrics").lines() {
                        if line.starts_with("# TYPE control_") {
                            println!("{line}");
                        }
                    }
                    if reload_ok && reject_ok && pin_ok && state_ok {
                        eprintln!(
                            "controlplane admin check: reload applied at generation 2, structural \
                             reload rejected 422, pin-threshold accepted over 127.0.0.1:{port}"
                        );
                    } else {
                        eprintln!(
                            "warning: controlplane admin check FAILED (reload {reload_ok}, \
                             reject {reject_ok}, pin {pin_ok}, state {state_ok})"
                        );
                    }
                }
                Err(e) => eprintln!("warning: controlplane admin probe failed: {e}"),
            }
        }
    });

    experiment!("ablation", {
        emit(
            &ablation::group_count_table(&ablation::group_count(&corpus, tcp, 0.5)),
            &args.out,
            "ablation_groups",
        );
        emit(
            &ablation::grouping_methods(&corpus, tcp, 0.5, 8),
            &args.out,
            "ablation_methods",
        );
        emit(
            &ablation::heuristic_family(&corpus, tcp, 0.4),
            &args.out,
            "ablation_heuristics",
        );
        emit(
            &ablation::kmeans_probe_table(&ablation::kmeans_probe(&corpus, tcp)),
            &args.out,
            "ablation_kmeans",
        );
        let ds_for_size = corpus.dataset(tcp, 0);
        let mut q99s: Vec<f64> = ds_for_size.train.iter().map(|d| d.quantile(0.99)).collect();
        q99s.sort_by(|a, b| a.total_cmp(b));
        emit(
            &ablation::attack_duration(&corpus, tcp, q99s[q99s.len() / 2]),
            &args.out,
            "ablation_duration",
        );
        emit(&ablation::roc_headroom(&corpus, tcp), &args.out, "ablation_roc");
        // The bin-width ablation regenerates its own corpus, so run it on
        // a reduced population to keep the runtime reasonable.
        let small = CorpusConfig {
            n_users: cfg.n_users.min(120),
            n_weeks: 2,
            ..cfg.clone()
        };
        emit(
            &ablation::bin_width(&small, tcp, 0.5),
            &args.out,
            "ablation_binwidth",
        );
    });

    experiment!("cluster", named("cluster"), {
        let mut scenario = cluster::ClusterScenario {
            feature: tcp,
            ..cluster::ClusterScenario::default()
        };
        scenario.cluster.n_nodes = args.nodes;
        scenario.cluster.heartbeat_interval = args.heartbeat_interval;
        scenario.cluster.heartbeat_timeout = args.heartbeat_timeout;
        scenario.delivery = args.delivery(scenario.delivery);
        let batches =
            daemon::build_batches_for(&corpus, tcp, scenario.batch_windows, &scenario.poison_hosts);

        // Single-node reference: the merged table every sharded run must
        // reproduce byte-for-byte.
        let mut ref_scenario = scenario.clone();
        ref_scenario.cluster.n_nodes = 1;
        let reference = or_exit!(
            in_scratch("cluster-ref", |dir| cluster::run(dir, &ref_scenario, &batches, &[])),
            "cluster experiment failed (single-node reference)"
        );
        let multi = or_exit!(
            in_scratch("cluster-multi", |dir| cluster::run(dir, &scenario, &batches, &[])),
            "cluster experiment failed ({} nodes)",
            args.nodes
        );
        emit(&cluster::hosts_table(&multi), &args.out, "cluster_hosts");
        emit(&cluster::ops_table(&multi), &args.out, "cluster_ops");
        metrics.merge(&multi.metrics);
        if let Err(e) = multi.check() {
            eprintln!("warning: cluster invariant violated: {e}");
        }
        if cluster::hosts_csv(&multi) == cluster::hosts_csv(&reference)
            && cluster::determinism_snapshot(&multi) == cluster::determinism_snapshot(&reference)
        {
            eprintln!(
                "cluster determinism check ({} nodes vs 1): hosts CSV and metrics snapshot identical",
                args.nodes
            );
        } else {
            eprintln!(
                "warning: cluster determinism check FAILED: {}-node output diverged from single-node",
                args.nodes
            );
        }

        if args.fault_rate > 0.0 {
            // Fault-tolerance self-check: replay the same stream under a
            // seeded schedule of silent node deaths, batch-boundary
            // process kills, and torn WAL/journal writes, and demand the
            // identical merged hosts CSV.
            let kills = faultsim::cluster_kill_points(
                args.kill_seed,
                10,
                args.nodes,
                multi.total_applied,
                multi.total_wal_bytes,
                multi.total_ticks,
            );
            match in_scratch("cluster-kill", |dir| cluster::run(dir, &scenario, &batches, &kills)) {
                Ok(killed) => {
                    if let Err(e) = killed.check() {
                        eprintln!("warning: cluster invariant violated under kills: {e}");
                    }
                    let identical = cluster::hosts_csv(&killed) == cluster::hosts_csv(&reference)
                        && cluster::determinism_snapshot(&killed)
                            == cluster::determinism_snapshot(&reference);
                    if identical {
                        eprintln!(
                            "cluster kill-recovery check: {} node deaths, {} process kills over {} lifetimes, \
                             {} dark episodes, hosts CSV identical",
                            killed.node_deaths_total,
                            killed.recovery.kills,
                            killed.recovery.lifetimes,
                            killed.dark_episodes.len()
                        );
                    } else {
                        eprintln!("warning: cluster kill-recovery check FAILED: hosts CSV diverged");
                    }
                }
                Err(e) => eprintln!("warning: cluster kill-recovery run failed: {e}"),
            }
        }
    });

    experiment!("sketchablate", named("sketchablate"), {
        let r = sketchablate::run(&corpus, tcp, args.sketch_eps);
        emit(&r.rank_table(), &args.out, "sketchablate_rank");
        emit(&r.heuristic_table(), &args.out, "sketchablate_heuristics");
        match r.check() {
            Ok(()) => eprintln!(
                "sketchablate self-check: worst rank deviation {:.6} within budget {:.6}",
                r.worst_rank_dev,
                r.rank_budget()
            ),
            Err(e) => eprintln!("warning: sketchablate rank bound violated: {e}"),
        }
    });

    if let Some(path) = &args.metrics_out {
        write_metrics(path, &mut metrics);
    }

    let total_secs = t0.elapsed().as_secs_f64();
    eprintln!("done in {total_secs:.1}s");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{in_scratch, parse_args};

    fn parse(argv: &[&str]) -> Result<super::Args, String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_fill_in_when_nothing_is_passed() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.users, 350);
        assert_eq!(args.weeks, 5);
        assert_eq!(args.experiments, vec!["all".to_string()]);
    }

    #[test]
    fn flags_and_experiments_parse_together() {
        let args = parse(&["--users", "40", "--threads", "2", "rollout", "daemon"]).unwrap();
        assert_eq!(args.users, 40);
        assert_eq!(args.threads, Some(2));
        assert_eq!(args.experiments, vec!["rollout", "daemon"]);
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
        assert_eq!(args.sketch_eps, 0.05);
        assert_eq!(parse(&[]).unwrap().sketch_eps, 0.01, "default eps");
    }

    #[test]
    fn cluster_flags_parse_with_defaults() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.nodes, 2);
        assert_eq!(args.heartbeat_interval, 4);
        assert_eq!(args.heartbeat_timeout, 16);
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
        assert_eq!(args.nodes, 4);
        assert_eq!(args.kill_seed, 99);
        assert_eq!(args.heartbeat_interval, 3);
        assert_eq!(args.heartbeat_timeout, 12);
        assert_eq!(args.experiments, vec!["cluster"]);
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
        assert_eq!(args.ingest_rate, 16);
        assert_eq!(args.ingest_burst, 64);
        assert_eq!(args.fault_severity, 0.2);
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
        assert_eq!(args.ingest_rate, 4);
        assert_eq!(args.ingest_burst, 32);
        assert_eq!(args.fault_severity, 0.05);
        assert_eq!(args.experiments, vec!["ingest"]);
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
        assert_eq!(args.admin_port, Some(18080));
        assert_eq!(args.experiments, vec!["controlplane"]);
        assert_eq!(parse(&[]).unwrap().admin_port, None, "endpoint off by default");
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
    fn scratch_dirs_are_removed_on_every_path() {
        let made = |dir: &std::path::Path| {
            std::fs::create_dir_all(dir).unwrap();
            dir.to_path_buf()
        };
        let dir = in_scratch("scratch-ok", made);
        assert!(!dir.exists());
        let mut early = None;
        let r: Result<(), String> = in_scratch("scratch-err", |dir| {
            early = Some(made(dir));
            Err("failed run".into())
        });
        assert!(r.is_err());
        assert!(!early.unwrap().exists());
        let mut panicked = None;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            in_scratch("scratch-panic", |dir| {
                panicked = Some(made(dir));
                panic!("harness bug");
            })
        }));
        assert!(r.is_err());
        assert!(!panicked.unwrap().exists());
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
