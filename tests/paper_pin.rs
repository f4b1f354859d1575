//! Byte pin on the paper suite: the ten experiments the `paper-suite`
//! benchmark runs, rendered to CSV at 40 users × 5 weeks (the default
//! seed), hashed with FNV-1a 64 in the benchmark's order and framing
//! (each table's name, then its CSV). A performance change to the exact
//! path must leave this hash alone.

use experiments::{
    fig1, fig2, fig3, fig4, fig5, multifeat, tab2, tab3, Corpus, CorpusConfig, Table,
};
use flowtab::FeatureKind;
use synthgen::StormConfig;

/// The suite's tables hash at 40 users × 5 weeks, seed `0xC0FFEE`.
const PIN_40: u64 = 0x8313_a16a_3586_f693;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Every table the benchmark's paper-suite rep renders, in its order.
fn suite_tables(corpus: &Corpus) -> Vec<(&'static str, Table)> {
    let tcp = FeatureKind::TcpConnections;
    let storm = StormConfig::default();
    let f1 = fig1::run(corpus, 0);
    let f5 = fig5::run(corpus, 0, &storm);
    let per_week = corpus.config.windowing().windows_per_week() as f64;
    vec![
        ("fig1_summary", fig1::summary_table(&f1)),
        ("fig1_concentration", fig1::concentration_table(&f1)),
        ("fig2_summary", fig2::summary_table(&fig2::run(corpus, 0))),
        ("tab2", tab2::table(&tab2::run(corpus, 0, 10))),
        ("fig3a", fig3::table_a(&fig3::run_a(corpus, tcp, 0.4))),
        (
            "fig3b",
            fig3::table_b(&fig3::run_b(corpus, tcp, &fig3::paper_weights())),
        ),
        ("tab3", tab3::table(&tab3::run(corpus, tcp))),
        ("fig4a", fig4::table_a(&fig4::run_a(corpus, tcp, 0, 64))),
        ("fig4b", fig4::table_b(&fig4::run_b(corpus, tcp, 0, 0.9))),
        ("fig4c_omniscient", fig4::run_c(corpus, tcp, 0)),
        ("fig5_summary", fig5::summary_table(&f5, per_week)),
        (
            "multifeat",
            multifeat::table(&multifeat::run(corpus, 0, &storm)),
        ),
    ]
}

#[test]
fn paper_suite_csvs_match_pin_at_40_users() {
    let corpus = Corpus::generate(CorpusConfig {
        n_users: 40,
        n_weeks: 5,
        seed: 0xC0FFEE,
        ..CorpusConfig::default()
    });
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (name, table) in suite_tables(&corpus) {
        h = fnv1a(h, name.as_bytes());
        h = fnv1a(h, table.to_csv().as_bytes());
    }
    assert_eq!(h, PIN_40, "paper-suite tables hash {h:016x}");
}
