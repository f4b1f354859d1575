//! The complete IT-operations loop, end to end:
//!
//! 1. hosts ship training distributions to the console,
//! 2. the console configures a policy and cuts a versioned bundle,
//! 3. hosts deploy the bundle,
//! 4. a compliance audit verifies the fleet (with one tampered host),
//! 5. a test week runs: alerts are batched, coalesced, rate-limited and
//!    accounted centrally,
//! 6. sentinel consensus turns diverse thresholds into fleet-wide
//!    advisories during a Storm infection.
//!
//! ```sh
//! cargo run --release --example it_workflow
//! ```

use flowtab::FeatureKind;
use hids_core::{Grouping, PartialMethod, Policy, PolicyBundle, ThresholdHeuristic};
use itconsole::{audit, coalesce, sentinel_consensus, AlertBatcher, CentralConsole, RateLimiter, SentinelConfig};
use monoculture_hids::prelude::*;
use synthgen::{storm_week_series, StormConfig};

fn main() {
    let corpus = Corpus::generate(CorpusConfig {
        n_users: 80,
        n_weeks: 2,
        ..Default::default()
    });
    let feature = FeatureKind::DistinctConnections;
    let ds = corpus.dataset(feature, 0);

    // 1-2. Configure the 8-partial policy and cut a bundle.
    let policy = Policy {
        grouping: Grouping::Partial(PartialMethod::EIGHT_PARTIAL),
        heuristic: ThresholdHeuristic::P99,
    };
    let outcome = policy.configure(&ds.train);
    let bundle = PolicyBundle::from_outcome(7, feature, &outcome);
    println!(
        "bundle v{} covers {} hosts, checksum {:016x}, {} bytes as text",
        bundle.version,
        bundle.n_hosts(),
        bundle.checksum(),
        bundle.to_text().len()
    );

    // 3. Deploy — and tamper with one host to give the audit work.
    let mut detectors = bundle.deploy();
    detectors[13].set_threshold(feature, 999_999.0);

    // 4. Compliance audit.
    let report = audit(&detectors, &outcome, feature, 0.0);
    println!(
        "audit: {} hosts checked, {} deviations ({}); deviation rate {:.1}%",
        report.audited,
        report.deviations.len(),
        report
            .deviations
            .first()
            .map(|d| format!("host {} deployed {:?}", d.user_index, d.deployed))
            .unwrap_or_default(),
        report.deviation_rate() * 100.0
    );
    detectors[13].set_threshold(feature, outcome.thresholds[13]); // remediate

    // 5. Run the test week through batching -> coalescing -> rate limit ->
    //    console.
    let console = CentralConsole::new(corpus.config.windowing().windows_per_week());
    let mut all_alerts = Vec::new();
    for (user, det) in detectors.iter().enumerate() {
        let mut batcher = AlertBatcher::new(96);
        for (w, counts) in corpus.series(user, 1).windows.iter().enumerate() {
            for alert in det.evaluate(w, counts) {
                batcher.push(alert);
            }
        }
        for batch in batcher.flush() {
            console.ingest_batch(&batch);
            all_alerts.extend(batch);
        }
    }
    all_alerts.sort_by_key(|a| (a.user, a.window));
    let lines = coalesce(&all_alerts, 1);
    let mut limiter = RateLimiter::new(20.0, 0.25);
    let queued = lines
        .iter()
        .filter(|l| limiter.admit(l.user, l.first_window))
        .count();
    let stats = console.stats();
    println!(
        "test week: {} raw alerts -> {} coalesced lines -> {} queued ({} rate-limited); top talker: host {:?}",
        stats.total_alerts,
        lines.len(),
        queued,
        limiter.suppressed(),
        stats.top_talkers(1).first().map(|t| t.0)
    );

    // 6. Storm hits the fleet: sentinels raise advisories.
    let zombie = storm_week_series(&StormConfig::default(), corpus.config.windowing(), 0);
    let zombie_counts = zombie.feature(feature);
    let alarm_matrix: Vec<Vec<bool>> = corpus
        .weeks
        .iter()
        .enumerate()
        .map(|(user, weeks)| {
            let t = outcome.thresholds[user];
            weeks[1]
                .column(feature)
                .iter()
                .enumerate()
                .map(|(w, &g)| (g + zombie_counts[w % zombie_counts.len()]) as f64 > t)
                .collect()
        })
        .collect();
    let advisories = sentinel_consensus(
        &alarm_matrix,
        &outcome.thresholds,
        &SentinelConfig::default(),
    );
    let attacked = zombie_counts.iter().filter(|&&b| b > 0).count();
    println!(
        "storm week: advisories cover {}/{} attacked windows ({:.0}%)",
        advisories.len(),
        attacked,
        100.0 * advisories.len() as f64 / attacked as f64
    );
}
