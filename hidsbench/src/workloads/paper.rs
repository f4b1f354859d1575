//! `paper-suite`: the paper's tables and figures over one corpus.
//!
//! A rep makes the calls `repro` makes for fig1, fig2, tab2, fig3a/b,
//! tab3, fig4a/b, fig5 and multifeat, and renders each result table to
//! CSV (the ASCII plots are left out). It is the only workload on the
//! exact-quantile path, with a fine-grained `par_map` inside every call.
//! Set-up generates the corpus.

use std::path::Path;

use experiments::{
    fig1, fig2, fig3, fig4, fig5, multifeat, tab2, tab3, Corpus, CorpusConfig, Table,
};
use flowtab::FeatureKind;
use synthgen::StormConfig;

use super::{fnv1a, Check, RepSummary, Workload, FNV_OFFSET};
use crate::trace::Tracer;

const TCP: FeatureKind = FeatureKind::TcpConnections;

pub struct PaperSuite {
    pub users: usize,
}

impl PaperSuite {
    pub fn full() -> Self {
        Self { users: 200 }
    }

    pub fn smoke() -> Self {
        Self { users: 40 }
    }
}

pub struct Output {
    /// `(name, CSV)` of every table the calls produce.
    tables: Vec<(&'static str, String)>,
    /// Fig. 3(a) mean utility of Homogeneous, Full Diversity, 8-Partial.
    fig3a_means: Vec<f64>,
}

/// Experiments one rep runs: fig1, fig2, tab2, fig3a, fig3b, tab3, fig4a,
/// fig4b, fig5, multifeat.
const EXPERIMENTS: u64 = 10;

impl Workload for PaperSuite {
    type Input = Corpus;
    type Output = Output;

    fn name(&self) -> &'static str {
        "paper-suite"
    }

    fn op_unit(&self) -> &'static str {
        "experiments"
    }

    fn scale(&self) -> String {
        format!("{} users x 5 weeks, 10 experiments", self.users)
    }

    fn default_seed(&self) -> u64 {
        0xC0FFEE
    }

    fn pinned_fingerprint(&self) -> Option<u64> {
        (self.users == 200).then_some(PIN_FULL)
    }

    fn setup(&self, seed: u64) -> Result<Corpus, String> {
        Ok(Corpus::generate(CorpusConfig {
            n_users: self.users,
            n_weeks: 5,
            seed,
            ..CorpusConfig::default()
        }))
    }

    fn rep(&self, corpus: &Corpus, _dir: &Path, tr: &mut Tracer) -> Result<Output, String> {
        let mut tables: Vec<(&'static str, Table)> = Vec::new();
        tables.extend(tr.span("experiments.fig1", || {
            let r = fig1::run(corpus, 0);
            [
                ("fig1_summary", fig1::summary_table(&r)),
                ("fig1_concentration", fig1::concentration_table(&r)),
            ]
        }));
        tables.push(tr.span("experiments.fig2", || {
            ("fig2_summary", fig2::summary_table(&fig2::run(corpus, 0)))
        }));
        tables.push(tr.span("experiments.tab2", || {
            ("tab2", tab2::table(&tab2::run(corpus, 0, 10)))
        }));
        let (fig3a, table) = tr.span("experiments.fig3a", || {
            let r = fig3::run_a(corpus, TCP, 0.4);
            let t = fig3::table_a(&r);
            (r, t)
        });
        tables.push(("fig3a", table));
        tables.push(tr.span("experiments.fig3b", || {
            (
                "fig3b",
                fig3::table_b(&fig3::run_b(corpus, TCP, &fig3::paper_weights())),
            )
        }));
        tables.push(tr.span("experiments.tab3", || {
            ("tab3", tab3::table(&tab3::run(corpus, TCP)))
        }));
        tables.push(tr.span("experiments.fig4a", || {
            ("fig4a", fig4::table_a(&fig4::run_a(corpus, TCP, 0, 64)))
        }));
        tables.extend(tr.span("experiments.fig4b", || {
            [
                ("fig4b", fig4::table_b(&fig4::run_b(corpus, TCP, 0, 0.9))),
                ("fig4c_omniscient", fig4::run_c(corpus, TCP, 0)),
            ]
        }));
        tables.push(tr.span("experiments.fig5", || {
            let r = fig5::run(corpus, 0, &StormConfig::default());
            let per_week = corpus.config.windowing().windows_per_week() as f64;
            ("fig5_summary", fig5::summary_table(&r, per_week))
        }));
        tables.push(tr.span("experiments.multifeat", || {
            (
                "multifeat",
                multifeat::table(&multifeat::run(corpus, 0, &StormConfig::default())),
            )
        }));
        Ok(Output {
            tables: tables
                .into_iter()
                .map(|(name, t)| (name, t.to_csv()))
                .collect(),
            fig3a_means: fig3a.boxes.iter().map(|b| b.summary.mean).collect(),
        })
    }

    fn summarize(&self, _corpus: &Corpus, out: &Output) -> RepSummary {
        let m = &out.fig3a_means;
        let ordered = m.len() == 3 && m[1] > m[0] && m[2] > m[0];
        let empty: Vec<&str> = out
            .tables
            .iter()
            .filter(|(_, csv)| csv.lines().count() < 2)
            .map(|(n, _)| *n)
            .collect();
        let mut h = FNV_OFFSET;
        for (name, csv) in &out.tables {
            h = fnv1a(h, name.as_bytes());
            h = fnv1a(h, csv.as_bytes());
        }
        let checks = vec![
            Check::new(
                "diversity_beats_homogeneous",
                ordered,
                format!("fig3a mean utility (homogeneous, full diversity, 8-partial): {m:?}"),
            ),
            Check::new(
                "tables_filled",
                empty.is_empty(),
                format!("tables without rows: {empty:?}"),
            ),
        ];
        RepSummary {
            ops: EXPERIMENTS,
            failed: u64::from(!ordered) + empty.len() as u64,
            fingerprint: h,
            counts: Vec::new(),
            checks,
        }
    }
}

/// Tables fingerprint of the full scale at the default seed.
const PIN_FULL: u64 = 0x74f6_fec3_a138_90fa;
