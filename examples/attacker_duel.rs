//! Attacker vs policy duel — the paper's Figure 4 workflow.
//!
//! A botmaster controls a zombie on every host. The naive variant injects
//! a flat load and we sweep its size; the resourceful variant profiles each
//! host and injects the largest load that still evades with 90% confidence.
//!
//! ```sh
//! cargo run --release --example attacker_duel
//! ```

use experiments::{fig4, Corpus, CorpusConfig, POLICIES};
use flowtab::FeatureKind;

fn main() {
    let corpus = Corpus::generate(CorpusConfig {
        n_users: 150,
        n_weeks: 2,
        ..Default::default()
    });
    let feature = FeatureKind::TcpConnections;

    // --- Naive attacker: detection curves (Fig. 4(a)) ---
    let a = fig4::run_a(&corpus, feature, 0, 64);
    println!("{}", fig4::table_a(&a).render());

    // Where does each policy reach 90% population detection?
    println!("attack size at which 90% of hosts alarm:");
    for (p, curve) in POLICIES.iter().zip(&a.curves) {
        let at = a
            .sizes
            .iter()
            .zip(curve)
            .find(|(_, &f)| f >= 0.9)
            .map(|(b, _)| format!("{b:.0}"))
            .unwrap_or_else(|| "never".to_string());
        println!("  {:>16}: {at}", p.0);
    }

    // --- Resourceful attacker: hidden-traffic budgets (Fig. 4(b)) ---
    let b = fig4::run_b(&corpus, feature, 0, 0.9);
    println!("\n{}", fig4::table_b(&b).render());
    let medians: Vec<f64> = b.summaries.iter().map(|s| s.median).collect();
    println!(
        "median hidden traffic: homogeneous {:.0} -> full diversity {:.0} ({:.0}% reduction)",
        medians[0],
        medians[1],
        100.0 * (1.0 - medians[1] / medians[0].max(1.0))
    );

    // Aggregate DDoS capacity: what the whole botnet can hide.
    let totals: Vec<u64> = b.budgets.iter().map(|v| v.iter().sum()).collect();
    println!(
        "total undetected DDoS capacity across {} zombies: homogeneous {} conns/window vs full diversity {}",
        corpus.n_users(),
        totals[0],
        totals[1]
    );
}
