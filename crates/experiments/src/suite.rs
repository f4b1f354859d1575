//! The experiment registry: every experiment `repro` can run, in run
//! order, each returning its output as data.
//!
//! An experiment's [`Report`] holds its stdout blocks (tables, plots and
//! the tables emitted only under `--out`), its self-[`Check`]s and its
//! metrics. `repro` selects entries by name ([`select`]), runs them and
//! emits each report; any failed check fails its exit status. [`paper`]
//! runs the paper's own entries and returns their tables: the one list
//! the byte pin and the determinism tests read.

use std::fmt::Display;
use std::path::{Path, PathBuf};

use flowtab::FeatureKind;
use hids_core::degraded::HostStatus;
use hids_metrics::Registry;
use itconsole::DeliveryConfig;
use synthgen::StormConfig;

use crate::plot::{self, ChartSpec, Series};
use crate::{
    ablation, chaos, cluster, collab, controlplane, daemon, drift, fig1, fig2, fig3, fig4, fig5,
    ingest, megafleet, multifeat, ops, pipeline, rollout, seeds, sketchablate, tab2, tab3, Corpus,
    CorpusConfig, Table, POLICIES,
};

const TCP: FeatureKind = FeatureKind::TcpConnections;

/// The scenario knobs `repro`'s flags set. [`Default`] holds the flags'
/// defaults.
#[derive(Debug, Clone)]
pub struct Options {
    /// Hosts in the corpus (`--users`).
    pub users: usize,
    /// Weeks in the corpus (`--weeks`).
    pub weeks: usize,
    /// Master seed (`--seed`).
    pub seed: u64,
    /// Seed of every injected fault (`--fault-seed`).
    pub fault_seed: u64,
    /// Fault rate; 0 turns the kill-recovery checks off (`--fault-rate`).
    pub fault_rate: f64,
    /// Console delivery attempts per batch (`--delivery-attempts`).
    pub delivery_attempts: Option<u32>,
    /// Console delivery backoff base in ticks (`--delivery-backoff`).
    pub delivery_backoff: Option<u64>,
    /// Per-source token-bucket refill (`--ingest-rate`).
    pub ingest_rate: u64,
    /// Per-source token-bucket depth (`--ingest-burst`).
    pub ingest_burst: u64,
    /// Wire corruption severity of ingest's hostile leg (`--fault-severity`).
    pub fault_severity: f64,
    /// Rank-error budget of the sketches (`--sketch-eps`).
    pub sketch_eps: f64,
    /// Worker nodes of the cluster (`--nodes`).
    pub nodes: u32,
    /// Seed of the cluster's kill schedule (`--kill-seed`).
    pub kill_seed: u64,
    /// Cluster heartbeat interval in ticks (`--heartbeat-interval`).
    pub heartbeat_interval: u64,
    /// Cluster heartbeat timeout in ticks (`--heartbeat-timeout`).
    pub heartbeat_timeout: u64,
    /// Port of the live admin endpoint, off when `None` (`--admin-port`).
    pub admin_port: Option<u16>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            users: 350,
            weeks: 5,
            seed: 0xC0FFEE,
            fault_seed: 0xFA17,
            fault_rate: 0.2,
            delivery_attempts: None,
            delivery_backoff: None,
            ingest_rate: 16,
            ingest_burst: 64,
            fault_severity: 0.2,
            sketch_eps: 0.01,
            nodes: 2,
            kill_seed: 0xC1A5,
            heartbeat_interval: 4,
            heartbeat_timeout: 16,
            admin_port: None,
        }
    }
}

impl Options {
    /// The shared corpus these options describe.
    pub fn corpus_config(&self) -> CorpusConfig {
        CorpusConfig {
            n_users: self.users,
            n_weeks: self.weeks,
            seed: self.seed,
            ..Default::default()
        }
    }

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

    /// The host carrying the injected poison batch or flood.
    fn faulted_host(&self) -> u32 {
        (self.fault_seed % self.users as u64) as u32
    }
}

/// One stdout block of a report, in print order.
#[derive(Debug, Clone)]
pub enum Block {
    /// Text printed as is.
    Text(String),
    /// A table printed aligned and, under `--out`, written as
    /// `<name>.csv`. An `out_only` table is printed and written only under
    /// `--out`.
    Table {
        /// Its CSV file's stem.
        name: String,
        /// The table.
        table: Table,
        /// Emitted only under `--out`.
        out_only: bool,
    },
    /// CSV text written as `<name>.csv` under `--out`, never printed.
    Csv(String, String),
}

/// One self-check's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// `<experiment>.<claim>`, e.g. `daemon.kill_recovery`.
    pub name: String,
    /// Whether the claim held.
    pub passed: bool,
    /// What was measured, or what broke.
    pub detail: String,
}

impl Check {
    /// A check that passes with `Ok(detail)` and fails with `Err(detail)`.
    pub fn new(name: &str, outcome: Result<String, String>) -> Self {
        let passed = outcome.is_ok();
        let detail = outcome.unwrap_or_else(|e| e);
        Self {
            name: name.to_string(),
            passed,
            detail,
        }
    }
}

impl Display for Check {
    /// `check <name>: ok: <detail>` or `check <name>: FAILED: <detail>`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let status = if self.passed { "ok" } else { "FAILED" };
        write!(f, "check {}: {status}: {}", self.name, self.detail)
    }
}

/// What one experiment produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Stdout blocks, in print order.
    pub blocks: Vec<Block>,
    /// Self-checks, in run order.
    pub checks: Vec<Check>,
    /// Metrics the experiment contributes to the `--metrics-out` snapshot.
    pub metrics: Registry,
}

impl Report {
    /// A report holding only the failed check `name`.
    pub fn failed(name: &str, detail: String) -> Self {
        let mut r = Self::default();
        r.checks.push(Check::new(name, Err(detail)));
        r
    }

    /// A report holding only the table `name`.
    pub fn of(name: &str, table: Table) -> Self {
        let mut r = Self::default();
        r.table(name, table);
        r
    }

    /// True when every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    fn text(&mut self, text: String) {
        self.blocks.push(Block::Text(text));
    }

    fn table(&mut self, name: &str, table: Table) {
        let name = name.to_string();
        self.blocks.push(Block::Table { name, table, out_only: false });
    }

    fn out_table(&mut self, name: &str, table: Table) {
        let name = name.to_string();
        self.blocks.push(Block::Table { name, table, out_only: true });
    }

    fn plot(&mut self, spec: ChartSpec, series: &[Series]) {
        self.text(format!("{}\n", plot::render(&spec, series)));
    }

    fn check(&mut self, name: &str, outcome: impl FnOnce() -> Result<String, String>) {
        self.checks.push(Check::new(name, outcome()));
    }
}

/// Which selections run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The paper's tables and figures: in `all` and in [`paper`].
    Paper,
    /// In `all`.
    Extra,
    /// Only when named: scale and end-to-end runs.
    Named,
}

/// How an experiment runs.
#[derive(Debug, Clone, Copy)]
pub enum Run {
    /// Reads the shared corpus.
    Shared(fn(&Corpus, &Options) -> Result<Report, String>),
    /// Builds its own input.
    Alone(fn(&Options) -> Result<Report, String>),
}

/// One registry entry.
#[derive(Debug)]
pub struct Experiment {
    /// Its name on the command line and in `[timing]` lines.
    pub name: &'static str,
    /// Which selections run it.
    pub scope: Scope,
    /// One line for `repro --help`.
    pub about: &'static str,
    /// Its body.
    pub run: Run,
    /// The smallest `--users` at which its self-checks can hold: below
    /// it `repro` refuses the flag rather than report a failed check.
    pub min_users: usize,
}

impl Experiment {
    /// This entry with a `--users` floor of `n`.
    const fn min_users(self, n: usize) -> Self {
        Self { min_users: n, ..self }
    }

    /// True when it reads the shared corpus.
    pub fn needs_corpus(&self) -> bool {
        matches!(self.run, Run::Shared(_))
    }

    /// Run it; `corpus` must be given when [`Self::needs_corpus`].
    pub fn run(&self, opts: &Options, corpus: Option<&Corpus>) -> Result<Report, String> {
        match (self.run, corpus) {
            (Run::Alone(run), _) => run(opts),
            (Run::Shared(run), Some(corpus)) => run(corpus, opts),
            (Run::Shared(_), None) => Err("no corpus given".into()),
        }
    }
}

const fn entry(name: &'static str, scope: Scope, about: &'static str, run: Run) -> Experiment {
    Experiment { name, scope, about, run, min_users: 1 }
}

use Run::{Alone, Shared};
use Scope::{Extra, Named, Paper};

/// Every experiment, in run order.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    entry("megafleet", Named, "streams --users hosts through rank sketches at --sketch-eps (default 0.01), on bounded memory", Alone(run_megafleet)),
    entry("pipeline", Named, "renders synthetic weeks to pcap and drives pcap → decode → sanitize → features → sweep, with identity checks", Alone(run_pipeline)),
    // Calibration bands are population statistics: below ~20 users most
    // seeds miss one.
    entry("validate", Extra, "checks the generated population against its calibration targets", Shared(run_validate)).min_users(20),
    entry("fig1", Paper, "Fig. 1: sorted per-user 99th/99.9th-percentile thresholds", Shared(run_fig1)),
    entry("fig2", Paper, "Fig. 2: per-user TCP vs UDP 99th percentiles", Shared(run_fig2)),
    entry("tab2", Paper, "Table 2: best-10 users per alarm type and their overlap",
        Shared(|c, _| Ok(Report::of("tab2", tab2::table(&tab2::run(c, 0, 10)))))),
    entry("fig3a", Paper, "Fig. 3(a): per-user utility at w = 0.4",
        Shared(|c, _| Ok(Report::of("fig3a", fig3::table_a(&fig3::run_a(c, TCP, 0.4)))))),
    entry("fig3b", Paper, "Fig. 3(b): mean utility vs w", Shared(run_fig3b)),
    entry("tab3", Paper, "Table 3: false alarms per week at the central console",
        Shared(|c, _| Ok(Report::of("tab3", tab3::table(&tab3::run(c, TCP)))))),
    entry("fig4a", Paper, "Fig. 4(a): fraction of users alarming vs attack size", Shared(run_fig4a)),
    entry("fig4b", Paper, "Fig. 4(b): traffic a mimicry attacker hides, plus the omniscient bound", Shared(run_fig4b)),
    entry("fig5", Paper, "Fig. 5(a,b): Storm replay, FP vs detection per user", Shared(run_fig5)),
    entry("multi", Paper, "concurrent multi-feature monitoring",
        Shared(|c, _| Ok(Report::of("multifeat", multifeat::table(&multifeat::run(c, 0, &StormConfig::default())))))),
    entry("collab", Extra, "collaborative sentinel detection",
        Shared(|c, _| Ok(Report::of("collab", collab::table(&collab::run(c, 0, &StormConfig::default())))))),
    // The headline orderings first hold at all five seeds at 28 users.
    entry("seeds", Extra, "the headline conclusions at five other master seeds", Alone(run_seeds)).min_users(30),
    entry("ops", Extra, "analyst triage cost and threshold maintenance", Shared(run_ops)),
    entry("drift", Extra, "week-over-week threshold drift",
        Shared(|c, _| Ok(Report::of("drift", drift::table(&drift::run(c, TCP)))))),
    entry("chaos", Extra, "fault injection at --fault-seed/--fault-rate and degraded-mode accounting", Shared(run_chaos)),
    entry("daemon", Extra, "the crash-safe streaming daemon, kill-recovered at seeded points when --fault-rate > 0", Shared(run_daemon)),
    entry("ingest", Extra, "syslog/CEF + DNS wire ingest: severity-0 identity, then --fault-severity plus a flood (--ingest-rate/--ingest-burst)", Shared(run_ingest)),
    entry("rollout", Extra, "drift-aware canary rollouts: benign promotion, poisoned rollback, kill recovery", Alone(run_rollout)),
    entry("controlplane", Extra, "a scripted operator timeline under kills; --admin-port P also drives the admin endpoint on 127.0.0.1:P", Shared(run_controlplane)),
    entry("ablation", Extra, "group count, grouping method, heuristic, duration, ROC and bin-width ablations", Shared(run_ablation)),
    entry("cluster", Named, "fleetd over --nodes nodes on a lossy wire, then under a --kill-seed schedule of node and process kills", Shared(run_cluster)),
    entry("sketchablate", Named, "sketch-vs-exact rank error at --sketch-eps on the corpus", Shared(run_sketchablate)),
];

/// Names accepted in place of a registry name: `(alias, name)`.
pub const ALIASES: &[(&str, &str)] = &[("fig5a", "fig5"), ("fig5b", "fig5")];

/// The entries `names` select, in registry order. `all` selects every
/// entry not [`Scope::Named`]; an unknown name is an error naming the
/// valid ones.
pub fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    let mut wanted = Vec::new();
    for name in names {
        let name = ALIASES.iter().find(|(alias, _)| alias == name).map_or(name.as_str(), |a| a.1);
        if name != "all" && !EXPERIMENTS.iter().any(|e| e.name == name) {
            let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
            return Err(format!("unknown experiment {name}; valid: {} all", valid.join(" ")));
        }
        wanted.push(name);
    }
    let all = wanted.contains(&"all");
    Ok(EXPERIMENTS
        .iter()
        .filter(|e| wanted.contains(&e.name) || (all && e.scope != Named))
        .collect())
}

/// The paper suite's tables, in registry order: every table of the
/// [`Scope::Paper`] entries, the `--out`-only ones left out.
pub fn paper(corpus: &Corpus) -> Result<Vec<(String, Table)>, String> {
    let mut tables = Vec::new();
    for e in EXPERIMENTS.iter().filter(|e| e.scope == Paper) {
        for block in e.run(&Options::default(), Some(corpus))?.blocks {
            if let Block::Table { name, table, out_only: false } = block {
                tables.push((name, table));
            }
        }
    }
    Ok(tables)
}

/// Run `f` in a fresh scratch directory, removed again on every path out
/// of `f`; its error becomes text.
fn in_scratch<T, E>(tag: &str, f: impl FnOnce(&Path) -> Result<T, E>) -> Result<T, String>
where
    E: Display,
{
    struct Removed(PathBuf);
    impl Drop for Removed {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let dir = Removed(daemon::unique_run_dir(tag));
    f(&dir.0).map_err(|e| e.to_string())
}

/// `Ok` when two hosts CSVs (or snapshots) are identical.
fn same(a: &str, b: &str, what: &str) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what} diverged"))
    }
}

/// One plot series per label; `points(i)` gives label `i`'s points.
fn series<'a>(labels: &[&'a str], points: impl Fn(usize) -> Vec<(f64, f64)>) -> Vec<Series<'a>> {
    let series = labels.iter().enumerate();
    series.map(|(i, &label)| Series { label, points: points(i) }).collect()
}

fn run_megafleet(o: &Options) -> Result<Report, String> {
    let cfg = megafleet::MegafleetConfig {
        n_users: o.users as u64,
        seed: o.seed,
        sketch_eps: o.sketch_eps,
        ..Default::default()
    };
    let (hosts, eps, threads) = (cfg.n_users, cfg.sketch_eps, hids_core::current_threads());
    eprintln!("megafleet: streaming {hosts} hosts at eps {eps} ({threads} threads)...");
    let mut r = megafleet::run(&cfg);
    let mut rep = Report::default();
    rep.text(format!("{}\n", r.summary_table().render()));
    rep.check("megafleet.invariants", || {
        let (hosts, ppm) = (r.n_hosts, r.max_rank_error_ppm);
        r.check().map(|()| {
            format!("{hosts} hosts, rank error {ppm} ppm within budget, merge order invariant")
        })
    });
    r.export_metrics(&mut rep.metrics);
    let mut csv = format!("{}\n", megafleet::HOSTS_CSV_HEADER);
    for shard in r.shard_csvs.drain(..) {
        csv.push_str(&shard);
    }
    rep.blocks.push(Block::Csv("megafleet_hosts".into(), csv));
    Ok(rep)
}

fn run_pipeline(o: &Options) -> Result<Report, String> {
    let scenario = pipeline::PipelineScenario { seed: o.seed, ..Default::default() };
    eprintln!(
        "pipeline: {} users x {} windows x 2 weeks through \
         pcap→decode→sanitize→features→sweep...",
        scenario.n_users, scenario.n_windows
    );
    let r = pipeline::run(&scenario)?;
    let mut rep = Report::default();
    rep.text(format!("{}\n", pipeline::table(&r).render()));
    rep.check("pipeline.laws", || {
        r.check().map(|()| {
            format!(
                "clean pcap loss-free ({} records), packet-path features identical to generated \
                 series ({} windows), {} hostile envelopes sanitized, decoded batches identical",
                r.records_ok, r.feature_windows, r.wire_datagrams
            )
        })
    });
    rep.check("pipeline.throughput", || {
        let rate = format!("{:.0} window-events/sec end-to-end", r.events_per_sec);
        held(r.events_per_sec >= 1.0, rate.clone(), rate)
    });
    Ok(rep)
}

/// `Ok(ok)` when `passed`, else `Err(failed)`.
fn held(passed: bool, ok: String, failed: String) -> Result<String, String> {
    if passed {
        Ok(ok)
    } else {
        Err(failed)
    }
}

fn run_validate(corpus: &Corpus, _: &Options) -> Result<Report, String> {
    let v = synthgen::validate(&corpus.population, corpus.config.windowing());
    let mut rep = Report::default();
    rep.text(format!("{}\n", v.render()));
    rep.check("validate.calibration", || {
        let out: Vec<&str> = v.checks.iter().filter(|c| !c.passed()).map(|c| c.name).collect();
        let violations = v.invariant_violations;
        held(
            v.passed(),
            format!("{} calibration targets in band", v.checks.len()),
            format!("out of band: [{}]; {violations} invariant violations", out.join(", ")),
        )
    });
    Ok(rep)
}

fn run_fig1(corpus: &Corpus, _: &Options) -> Result<Report, String> {
    let r = fig1::run(corpus, 0);
    let mut rep = Report::default();
    rep.table("fig1_summary", fig1::summary_table(&r));
    rep.table("fig1_concentration", fig1::concentration_table(&r));
    if let Some(curve) = r.curves.iter().find(|c| c.feature == TCP) {
        let points = curve.points.iter().enumerate();
        let quantile =
            |i: usize| points.clone().map(|(k, p)| (k as f64, [p.1, p.2][i].max(1.0))).collect();
        rep.plot(
            ChartSpec {
                title: "Fig. 1(a) — # TCP connections: per-user thresholds (sorted)",
                x_label: "user rank",
                y_label: "threshold",
                log_y: true,
                ..Default::default()
            },
            &series(&["99th percentile", "99.9th percentile"], quantile),
        );
    }
    for c in &r.curves {
        let name = format!("fig1_curve_{}", c.feature.name().replace('-', "_"));
        rep.out_table(&name, fig1::curve_table(c));
    }
    Ok(rep)
}

fn run_fig2(corpus: &Corpus, _: &Options) -> Result<Report, String> {
    let r = fig2::run(corpus, 0);
    let mut rep = Report::default();
    rep.table("fig2_summary", fig2::summary_table(&r));
    rep.out_table("fig2_scatter", fig2::scatter_table(&r));
    let points = |_| r.points.iter().map(|(_, x, y)| (x.max(1.0), y.max(1.0))).collect();
    rep.plot(
        ChartSpec {
            title: "Fig. 2 — per-user 99th percentiles (log-log): TCP (x) vs UDP (y)",
            x_label: "tcp q99 (log)",
            y_label: "udp q99",
            log_x: true,
            log_y: true,
            ..Default::default()
        },
        &series(&["one point per user"], points),
    );
    Ok(rep)
}

fn run_fig3b(corpus: &Corpus, _: &Options) -> Result<Report, String> {
    let r = fig3::run_b(corpus, TCP, &fig3::paper_weights());
    let mut rep = Report::of("fig3b", fig3::table_b(&r));
    let points = |p: usize| r.weights.iter().zip(&r.means[p]).map(|(&w, &u)| (w, u)).collect();
    let spec = ChartSpec {
        title: "Fig. 3(b) — mean utility vs w",
        x_label: "w",
        y_label: "utility",
        ..Default::default()
    };
    rep.plot(spec, &series(&POLICIES.map(|p| p.0), points));
    Ok(rep)
}

fn run_fig4a(corpus: &Corpus, _: &Options) -> Result<Report, String> {
    let r = fig4::run_a(corpus, TCP, 0, 64);
    let mut rep = Report::of("fig4a", fig4::table_a(&r));
    let points = |p: usize| r.sizes.iter().zip(&r.curves[p]).map(|(&b, &f)| (b, f)).collect();
    let spec = ChartSpec {
        title: "Fig. 4(a) — fraction of users alarming vs attack size",
        x_label: "attack size (log)",
        y_label: "fraction",
        log_x: true,
        ..Default::default()
    };
    rep.plot(spec, &series(&POLICIES.map(|p| p.0), points));
    Ok(rep)
}

fn run_fig4b(corpus: &Corpus, _: &Options) -> Result<Report, String> {
    let mut rep = Report::of("fig4b", fig4::table_b(&fig4::run_b(corpus, TCP, 0, 0.9)));
    rep.table("fig4c_omniscient", fig4::run_c(corpus, TCP, 0));
    Ok(rep)
}

fn run_fig5(corpus: &Corpus, _: &Options) -> Result<Report, String> {
    let r = fig5::run(corpus, 0, &StormConfig::default());
    let wpw = corpus.config.windowing().windows_per_week() as f64;
    let mut rep = Report::of("fig5_summary", fig5::summary_table(&r, wpw));
    rep.out_table("fig5_scatter", fig5::scatter_table(&r));
    let labels: Vec<&str> = r.scatters.iter().map(|s| s.policy).collect();
    let points = |i: usize| {
        let scatter = r.scatters[i].points.iter();
        scatter.map(|p| (p.fp.max(1.0 / wpw), p.detection)).collect()
    };
    let spec = ChartSpec {
        title: "Fig. 5 — Storm replay: FP (log) vs detection, one point per user",
        x_label: "false positive rate (log)",
        y_label: "detection",
        log_x: true,
        ..Default::default()
    };
    rep.plot(spec, &series(&labels, points));
    Ok(rep)
}

fn run_seeds(o: &Options) -> Result<Report, String> {
    // Five alternate populations at reduced scale: the qualitative
    // conclusions must not depend on the master seed.
    let r = seeds::run(&[1, 2, 3, 0xBEEF, 0xC0FFEE], o.users.min(120));
    let mut rep = Report::of("seeds", seeds::table(&r));
    rep.check("seeds.conclusions", || {
        held(
            r.all_conclusions_hold(),
            format!("every headline conclusion holds at {} seeds", r.outcomes.len()),
            "a seed failed to reproduce a headline conclusion".into(),
        )
    });
    Ok(rep)
}

fn run_ops(corpus: &Corpus, _: &Options) -> Result<Report, String> {
    let triage = itconsole::TriageConfig::default();
    let mut rep = Report::of("ops_triage", ops::triage_table(corpus, TCP, &triage));
    if corpus.config.n_weeks >= 3 {
        rep.table("ops_maintenance", ops::maintenance_table(corpus, TCP));
    }
    Ok(rep)
}

fn run_chaos(corpus: &Corpus, o: &Options) -> Result<Report, String> {
    let mut ccfg = chaos::ChaosConfig::new(o.fault_seed, o.fault_rate);
    ccfg.queue = o.delivery(ccfg.queue);
    let r = chaos::run(corpus, TCP, &ccfg);
    let mut rep = Report::of("chaos", chaos::table(&r));
    rep.check("chaos.invariants", || {
        r.check().map(|()| format!("every conservation law holds at severity {}", r.severity))
    });
    r.export_metrics(&mut rep.metrics);
    Ok(rep)
}

fn run_daemon(corpus: &Corpus, o: &Options) -> Result<Report, String> {
    let mut scenario = daemon::DaemonScenario { feature: TCP, ..Default::default() };
    scenario.delivery = o.delivery(scenario.delivery);
    if o.fault_rate > 0.0 {
        // One poisoned host per run keeps the quarantine path hot
        // without drowning the coverage picture.
        scenario.poison_hosts = vec![o.faulted_host()];
        eprintln!(
            "note: host {} carries a poison batch; panic traces below are injected \
             faults survived by the shard supervisor",
            scenario.poison_hosts[0]
        );
    }
    let batches = daemon::build_batches(corpus, &scenario);
    let reference = in_scratch("repro-ref", |d| daemon::run(d, &scenario, &batches, &[]))?;
    let mut rep = Report::of("daemon_hosts", daemon::hosts_table(&reference));
    rep.table("daemon_ops", daemon::ops_table(&reference));
    rep.metrics.merge(&reference.metrics);
    rep.check("daemon.invariants", || {
        let admitted = reference.stats.admitted;
        reference.check().map(|()| format!("{admitted} admitted batches all accounted for"))
    });
    if o.fault_rate > 0.0 {
        // Crash-recovery: replay the same stream through a daemon killed
        // at seeded batch/byte boundaries (including a torn final WAL
        // record) and demand a byte-identical hosts CSV.
        let (applied, wal_bytes) = (reference.total_applied, reference.total_wal_bytes);
        let kills = faultsim::kill_points(o.fault_seed, 6, applied, wal_bytes);
        rep.check("daemon.kill_recovery", || {
            let killed = in_scratch("repro-kill", |d| daemon::run(d, &scenario, &batches, &kills))?;
            let csv = daemon::hosts_csv(&killed);
            same(&csv, &daemon::hosts_csv(&reference), "hosts CSV")?;
            let r = &killed.recovery;
            Ok(format!("{} kills over {} lifetimes, hosts CSV identical", r.kills, r.lifetimes))
        });
    }
    Ok(rep)
}

fn run_ingest(corpus: &Corpus, o: &Options) -> Result<Report, String> {
    let base = ingest::IngestScenario {
        seed: o.fault_seed,
        rate_per_tick: o.ingest_rate,
        burst: o.ingest_burst,
        daemon: daemon::DaemonScenario { feature: TCP, ..Default::default() },
        ..Default::default()
    };
    let clean = in_scratch("ingest-clean", |d| ingest::run(d, corpus, &base))?;
    let mut rep = Report::default();
    // Identity: a clean wire must reproduce the synthetic-batch hosts CSV
    // byte-for-byte; the wire format adds nothing.
    rep.check("ingest.identity", || {
        let batches = daemon::build_batches(corpus, &base.daemon);
        let reference = in_scratch("ingest-ref", |d| daemon::run(d, &base.daemon, &batches, &[]))?;
        same(&clean.hosts_csv(), &daemon::hosts_csv(&reference), "hosts CSV")?;
        Ok("severity-0 hosts CSV identical to synthetic path".into())
    });
    // Degradation: a faulted wire plus one flooding agent. The flood
    // drains its own source's bucket, so that host's test week is shed;
    // it must surface through degraded accounting, not vanish.
    let (flooded, severity) = (o.faulted_host(), o.fault_severity);
    let hostile = ingest::IngestScenario { severity, flood_hosts: vec![flooded], ..base.clone() };
    let faulted = in_scratch("ingest-hostile", |d| ingest::run(d, corpus, &hostile))
        .map_err(|e| format!("severity {severity}: {e}"))?;
    let sweep = ingest::sweep_table(&[(0.0, &clean), (severity, &faulted)]);
    rep.table("ingest_sweep", sweep);
    rep.metrics.merge(&faulted.run.metrics);
    rep.check("ingest.invariants", || {
        clean.check().map_err(|e| format!("clean: {e}"))?;
        faulted.check().map_err(|e| format!("hostile: {e}"))?;
        Ok("received = accepted + shed + malformed on the clean and hostile wires".into())
    });
    rep.check("ingest.flood", || match faulted.host_status(flooded) {
        Some(HostStatus::Evaluated) => {
            Err(format!("flooded host {flooded} was fully evaluated; the flood had no effect"))
        }
        Some(s) => {
            let shed = faulted.stats.shed;
            Ok(format!("host {flooded} degraded to {s:?} with {shed} datagrams shed"))
        }
        None => Ok(format!("host {flooded} fully dark (no state)")),
    });
    Ok(rep)
}

fn run_rollout(o: &Options) -> Result<Report, String> {
    // Synthetic drift streams (not the corpus): sized so both narratives,
    // benign promotion and poisoned rollback, are scripted outcomes,
    // deterministic at any --threads setting.
    let benign = rollout::RolloutScenario { seed: o.fault_seed, ..Default::default() };
    let benign_input = rollout::build_input(&benign);
    let promoted = in_scratch("rollout-benign", |d| rollout::run(d, &benign, &benign_input, &[]))?;
    let poisoned = rollout::RolloutScenario { poison: true, ..benign.clone() };
    let poisoned_input = rollout::build_input(&poisoned);
    let rolled_back =
        in_scratch("rollout-poisoned", |d| rollout::run(d, &poisoned, &poisoned_input, &[]))?;

    let mut rep = Report::default();
    for (label, run, tag) in [
        ("benign drift: refit, canary, promote", &promoted, "benign"),
        ("poisoned drift: guard, gate failure, rollback", &rolled_back, "poisoned"),
    ] {
        let history = run.epoch_summaries();
        rep.text(format!("{label}\n{}", itconsole::render_history(&history)));
        itconsole::export_history_metrics(&history, &mut rep.metrics);
        rep.table(&format!("rollout_{tag}_hosts"), rollout::hosts_table(run));
        rep.table(&format!("rollout_{tag}_epochs"), rollout::epochs_table(run));
        rep.table(&format!("rollout_{tag}_ops"), rollout::ops_table(run));
    }
    rep.check("rollout.invariants", || {
        promoted.check(&benign).map_err(|e| format!("benign: {e}"))?;
        rolled_back.check(&poisoned).map_err(|e| format!("poisoned: {e}"))?;
        Ok("benign run promoted and poisoned run rolled back as scripted".into())
    });
    // Rollback identity: the rolled-back fleet must be byte-identical to
    // one that never attempted a rollout.
    rep.check("rollout.rollback_identity", || {
        let untouched = rollout::RolloutScenario { attempt_rollout: false, ..poisoned.clone() };
        let untouched =
            in_scratch("rollout-untouched", |d| rollout::run(d, &untouched, &poisoned_input, &[]))?;
        same(&rollout::hosts_csv(&rolled_back), &rollout::hosts_csv(&untouched), "hosts CSV")?;
        Ok("hosts CSV identical".into())
    });
    if o.fault_rate > 0.0 {
        // Crash-recovery across batch, WAL-byte and epoch-boundary kills.
        let kills = faultsim::rollout_kill_points(
            o.fault_seed,
            6,
            promoted.total_applied,
            promoted.total_wal_bytes,
            promoted.total_rollout_events as u32,
        );
        rep.check("rollout.kill_recovery", || {
            let killed =
                in_scratch("rollout-kill", |d| rollout::run(d, &benign, &benign_input, &kills))?;
            same(&rollout::hosts_csv(&killed), &rollout::hosts_csv(&promoted), "hosts CSV")?;
            let r = &killed.recovery;
            Ok(format!("{} kills over {} lifetimes, hosts CSV identical", r.kills, r.lifetimes))
        });
    }
    Ok(rep)
}

fn run_controlplane(corpus: &Corpus, o: &Options) -> Result<Report, String> {
    let mut scenario = controlplane::ControlScenario { feature: TCP, ..Default::default() };
    scenario.delivery = o.delivery(scenario.delivery);
    if o.users == 1 {
        // A one-host fleet: the script's drain/pin target must exist.
        scenario.drain_shard = 0;
        scenario.pin_host = 0;
    }
    let batches = daemon::build_batches_for(corpus, TCP, scenario.batch_windows, &[]);
    let run = |tag: &str, kills: &[faultsim::KillPoint]| {
        in_scratch(tag, |d| controlplane::run(d, &scenario, &batches, kills))
    };
    let reference = run("ctrl-ref", &[])?;
    let mut rep = Report::of("controlplane_hosts", controlplane::hosts_table(&reference));
    rep.table("controlplane_evidence", controlplane::evidence_table(&reference));
    rep.metrics.merge(&reference.metrics);
    rep.check("controlplane.script", || {
        reference.check(&scenario).map(|()| {
            format!(
                "drain refused admission, operator rollback recorded, reload generation {}, \
                 invalid reload rejected with old config live",
                reference.evidence.generation_after_reload
            )
        })
    });
    let reference_csv = controlplane::hosts_csv(&reference);
    // Determinism: a second uninterrupted run of the same script must
    // reproduce the hosts CSV byte-for-byte.
    rep.check("controlplane.determinism", || {
        same(&controlplane::hosts_csv(&run("ctrl-dup", &[])?), &reference_csv, "hosts CSV")?;
        Ok("hosts CSV identical".into())
    });
    if o.fault_rate > 0.0 {
        // Crash-recovery: kill at seeded batch boundaries, WAL byte
        // offsets (including torn tails over command records) and
        // post-command ack windows, and demand a byte-identical hosts CSV.
        let kills = faultsim::command_kill_points(
            o.fault_seed,
            10,
            reference.total_applied,
            reference.total_wal_bytes,
            reference.total_commands as u32,
        );
        rep.check("controlplane.kill_recovery", || {
            let killed = run("ctrl-kill", &kills)?;
            killed.check(&scenario).map_err(|e| format!("under kills: {e}"))?;
            same(&controlplane::hosts_csv(&killed), &reference_csv, "hosts CSV")?;
            let r = &killed.recovery;
            Ok(format!(
                "{} kills over {} lifetimes across {} scheduled points, hosts CSV identical",
                r.kills,
                r.lifetimes,
                kills.len()
            ))
        });
    }
    if let Some(port) = o.admin_port {
        // Live endpoint: serve the admin plane on a real socket and drive
        // reload / rejected reload / command / scrape requests through it.
        match in_scratch("ctrl-admin", |d| admin_probe(d, port, scenario.daemon)) {
            Ok(responses) => {
                let get = |label: &str| {
                    let response = responses.iter().find(|(l, _)| *l == label);
                    response.map_or("", |(_, r)| r.as_str())
                };
                let metrics = get("metrics").lines();
                let families = metrics.filter(|line| line.starts_with("# TYPE control_"));
                rep.text(families.map(|line| format!("{line}\n")).collect());
                rep.check("controlplane.admin", || {
                    let reload = get("reload-valid").starts_with("HTTP/1.0 200")
                        && get("reload-valid").contains("\"generation\":2");
                    let reject = get("reload-invalid").starts_with("HTTP/1.0 422")
                        && get("reload-invalid").contains("restart");
                    let pin = get("pin-threshold").starts_with("HTTP/1.0 200");
                    let state = get("state").contains("\"config_generation\":2");
                    held(
                        reload && reject && pin && state,
                        format!(
                            "reload applied at generation 2, structural reload rejected 422, \
                             pin-threshold accepted over 127.0.0.1:{port}"
                        ),
                        format!("reload {reload}, reject {reject}, pin {pin}, state {state}"),
                    )
                });
            }
            Err(e) => rep.check("controlplane.admin", || Err(format!("probe failed: {e}"))),
        }
    }
    Ok(rep)
}

/// Drive the live admin endpoint over real TCP: open a daemon at `dir`,
/// bind on `port`, serve from this thread while a client thread issues one
/// request per probe, and return the `(label, raw response)` pairs.
fn admin_probe(
    dir: &Path,
    port: u16,
    daemon_cfg: fleetd::DaemonConfig,
) -> Result<Vec<(&'static str, String)>, String> {
    use std::io::{Read as _, Write as _};
    let (mut d, _) = fleetd::Daemon::open(dir, daemon_cfg).map_err(|e| e.to_string())?;
    let mut kill = fleetd::KillSwitch::none();
    let server = fleetd::AdminServer::bind(port, fleetd::AdminConfig::default())
        .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
    let actual = server.port();
    let post = |path: &str, body: &str| {
        format!("POST {path} HTTP/1.0\r\nContent-Length: {}\r\n\r\n{body}", body.len())
    };
    let requests = [
        ("reload-valid", post("/reload", "snapshot_every = 257\n")),
        ("reload-invalid", post("/reload", "n_shards = 8\n")),
        ("pin-threshold", post("/command", "pin-threshold 0 42")),
        ("state", "GET /state HTTP/1.0\r\n\r\n".into()),
        ("metrics", "GET /metrics HTTP/1.0\r\n\r\n".into()),
    ];
    let n = requests.len();
    let client = std::thread::spawn(move || {
        let mut out = Vec::new();
        for (label, raw) in requests {
            let mut resp = String::new();
            let mut s = std::net::TcpStream::connect(("127.0.0.1", actual))
                .map_err(|e| format!("{label}: connect: {e}"))?;
            s.write_all(raw.as_bytes()).map_err(|e| format!("{label}: write: {e}"))?;
            s.read_to_string(&mut resp).map_err(|e| format!("{label}: read: {e}"))?;
            out.push((label, resp));
        }
        Ok(out)
    });
    let mut ctl = fleetd::DaemonControl { daemon: &mut d, kill: &mut kill };
    let mut serve = |_| server.serve_one(&mut ctl).map_err(|e| format!("serve: {e}"));
    let served = (0..n).try_for_each(&mut serve);
    let out = client.join().map_err(|_| "admin client thread panicked".to_string())?;
    served.and(out)
}

fn run_ablation(corpus: &Corpus, _: &Options) -> Result<Report, String> {
    let groups = ablation::group_count(corpus, TCP, 0.5);
    let mut rep = Report::of("ablation_groups", ablation::group_count_table(&groups));
    rep.table("ablation_methods", ablation::grouping_methods(corpus, TCP, 0.5, 8));
    rep.table("ablation_heuristics", ablation::heuristic_family(corpus, TCP, 0.4));
    let probe = ablation::kmeans_probe(corpus, TCP);
    rep.table("ablation_kmeans", ablation::kmeans_probe_table(&probe));
    let ds = corpus.dataset(TCP, 0);
    let mut q99s: Vec<f64> = ds.train.iter().map(|d| d.quantile(0.99)).collect();
    q99s.sort_by(f64::total_cmp);
    let median_q99 = q99s[q99s.len() / 2];
    rep.table("ablation_duration", ablation::attack_duration(corpus, TCP, median_q99));
    rep.table("ablation_roc", ablation::roc_headroom(corpus, TCP));
    // The bin-width ablation regenerates its own corpus, so run it on a
    // reduced population to keep the runtime reasonable.
    let n_users = corpus.config.n_users.min(120);
    let small = CorpusConfig { n_users, n_weeks: 2, ..corpus.config.clone() };
    rep.table("ablation_binwidth", ablation::bin_width(&small, TCP, 0.5));
    Ok(rep)
}

fn run_cluster(corpus: &Corpus, o: &Options) -> Result<Report, String> {
    let mut scenario = cluster::ClusterScenario { feature: TCP, ..Default::default() };
    scenario.cluster.n_nodes = o.nodes;
    scenario.cluster.heartbeat_interval = o.heartbeat_interval;
    scenario.cluster.heartbeat_timeout = o.heartbeat_timeout;
    scenario.delivery = o.delivery(scenario.delivery);
    let poison = &scenario.poison_hosts;
    let batches = daemon::build_batches_for(corpus, TCP, scenario.batch_windows, poison);
    // Single-node reference: the merged table every sharded run must
    // reproduce byte-for-byte.
    let mut single = scenario.clone();
    single.cluster.n_nodes = 1;
    let reference = in_scratch("cluster-ref", |d| cluster::run(d, &single, &batches, &[]))
        .map_err(|e| format!("single-node reference: {e}"))?;
    let multi = in_scratch("cluster-multi", |d| cluster::run(d, &scenario, &batches, &[]))
        .map_err(|e| format!("{} nodes: {e}", o.nodes))?;
    let mut rep = Report::of("cluster_hosts", cluster::hosts_table(&multi));
    rep.table("cluster_ops", cluster::ops_table(&multi));
    rep.metrics.merge(&multi.metrics);
    rep.check("cluster.invariants", || {
        multi.check().map(|()| format!("conservation holds across {} nodes", o.nodes))
    });
    let matches_reference = |run: &cluster::ClusterRun| {
        same(&cluster::hosts_csv(run), &cluster::hosts_csv(&reference), "hosts CSV")?;
        let snapshot = cluster::determinism_snapshot(run);
        same(&snapshot, &cluster::determinism_snapshot(&reference), "metrics snapshot")
    };
    rep.check("cluster.determinism", || {
        let nodes = o.nodes;
        matches_reference(&multi).map_err(|e| format!("{nodes}-node output vs single-node: {e}"))?;
        Ok(format!("{nodes} nodes vs 1: hosts CSV and metrics snapshot identical"))
    });
    if o.fault_rate > 0.0 {
        // Fault tolerance: replay the same stream under a seeded schedule
        // of silent node deaths, batch-boundary process kills and torn
        // WAL/journal writes, and demand the identical merged hosts CSV.
        let kills = faultsim::cluster_kill_points(
            o.kill_seed,
            10,
            o.nodes,
            multi.total_applied,
            multi.total_wal_bytes,
            multi.total_ticks,
        );
        rep.check("cluster.kill_recovery", || {
            let killed =
                in_scratch("cluster-kill", |d| cluster::run(d, &scenario, &batches, &kills))?;
            killed.check().map_err(|e| format!("under kills: {e}"))?;
            matches_reference(&killed)?;
            Ok(format!(
                "{} node deaths, {} process kills over {} lifetimes, {} dark episodes, \
                 hosts CSV identical",
                killed.node_deaths_total,
                killed.recovery.kills,
                killed.recovery.lifetimes,
                killed.dark_episodes.len()
            ))
        });
    }
    Ok(rep)
}

fn run_sketchablate(corpus: &Corpus, o: &Options) -> Result<Report, String> {
    let r = sketchablate::run(corpus, TCP, o.sketch_eps);
    let mut rep = Report::of("sketchablate_rank", r.rank_table());
    rep.table("sketchablate_heuristics", r.heuristic_table());
    rep.check("sketchablate.rank_bound", || {
        let (worst, budget) = (r.worst_rank_dev, r.rank_budget());
        r.check().map(|()| format!("worst rank deviation {worst:.6} within budget {budget:.6}"))
    });
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &[&str]) -> Result<Vec<&'static str>, String> {
        let list: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        Ok(select(&list)?.iter().map(|e| e.name).collect())
    }

    #[test]
    fn names_are_unique_and_aliases_resolve() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|f| f.name != e.name), "{}", e.name);
        }
        for (alias, to) in ALIASES {
            assert!(EXPERIMENTS.iter().any(|e| e.name == *to), "{alias} -> {to}");
        }
    }

    #[test]
    fn all_leaves_named_only_entries_out_and_keeps_registry_order() {
        let all = names(&["all"]).unwrap();
        assert!(!all.contains(&"megafleet") && !all.contains(&"cluster"));
        assert_eq!(all.first(), Some(&"validate"));
        assert_eq!(names(&["all", "cluster"]).unwrap().len(), all.len() + 1);
        assert_eq!(names(&["rollout", "daemon"]).unwrap(), ["daemon", "rollout"]);
    }

    #[test]
    fn check_lines_have_one_fixed_format() {
        let ok = Check::new("daemon.kill_recovery", Ok("6 kills".into()));
        assert_eq!(ok.to_string(), "check daemon.kill_recovery: ok: 6 kills");
        let bad = Report::failed("write.tab2.csv", "Not a directory".into());
        assert!(!bad.passed());
        assert_eq!(
            bad.checks[0].to_string(),
            "check write.tab2.csv: FAILED: Not a directory"
        );
    }

    #[test]
    fn corpus_entries_fail_without_a_corpus() {
        let fig1 = EXPERIMENTS.iter().find(|e| e.name == "fig1").unwrap();
        assert!(fig1.needs_corpus());
        assert!(fig1.run(&Options::default(), None).is_err());
    }

    #[test]
    fn scratch_dirs_are_removed_on_every_path() {
        let made = |dir: &Path| {
            std::fs::create_dir_all(dir).unwrap();
            Ok::<_, String>(dir.to_path_buf())
        };
        let dir = in_scratch("scratch-ok", made).unwrap();
        assert!(!dir.exists());
        let mut early = None;
        let r: Result<(), String> = in_scratch("scratch-err", |dir| {
            early = made(dir).ok();
            Err("failed run")
        });
        assert_eq!(r.unwrap_err(), "failed run");
        assert!(!early.unwrap().exists());
        let mut panicked = None;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            in_scratch("scratch-panic", |dir| -> Result<(), String> {
                panicked = made(dir).ok();
                panic!("harness bug");
            })
        }));
        assert!(r.is_err());
        assert!(!panicked.unwrap().exists());
    }
}
