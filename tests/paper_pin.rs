//! Byte pin on the paper suite: the tables of `experiments::suite::paper`
//! (fig1, fig2, tab2, fig3a/b, tab3, fig4a/b, fig5 and multifeat, the ten
//! experiments the `paper-suite` benchmark runs), rendered to CSV at 40
//! users × 5 weeks (the default seed), hashed with FNV-1a 64 in the
//! benchmark's order and framing (each table's name, then its CSV). A
//! performance change to the exact path must leave this hash alone.

use experiments::{suite, Corpus, CorpusConfig};

/// The suite's tables hash at 40 users × 5 weeks, seed `0xC0FFEE`.
const PIN_40: u64 = 0x8313_a16a_3586_f693;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
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
    for (name, table) in suite::paper(&corpus).unwrap() {
        h = fnv1a(h, name.as_bytes());
        h = fnv1a(h, table.to_csv().as_bytes());
    }
    assert_eq!(h, PIN_40, "paper-suite tables hash {h:016x}");
}
