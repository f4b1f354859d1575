//! The central alert console: concurrent ingestion and accounting.

use std::collections::HashMap;
use std::sync::Arc;

use crossbeam::channel::{bounded, Sender};
use hids_core::Alert;
use parking_lot::Mutex;

/// Aggregate statistics kept by the console.
#[derive(Debug, Default, Clone)]
pub struct ConsoleStats {
    /// Total alerts received.
    pub total_alerts: u64,
    /// Batches received.
    pub batches: u64,
    /// Alerts per user.
    pub per_user: HashMap<u32, u64>,
    /// Alerts per feature (dense by `FeatureKind::index`).
    pub per_feature: [u64; 6],
    /// Alerts per week (week = window / windows_per_week).
    pub per_week: HashMap<usize, u64>,
}

impl ConsoleStats {
    /// The noisiest users, descending, up to `k`.
    pub fn top_talkers(&self, k: usize) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self.per_user.iter().map(|(&u, &c)| (u, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }
}

/// A thread-safe central console.
///
/// Hosts (or host threads) submit alert batches either directly with
/// [`CentralConsole::ingest_batch`] or through a channel from
/// [`CentralConsole::spawn_ingestor`]. All accounting is behind a
/// `parking_lot::Mutex`, which is plenty for the alert volumes a 350-host
/// enterprise produces.
#[derive(Debug, Default)]
pub struct CentralConsole {
    stats: Arc<Mutex<ConsoleStats>>,
    windows_per_week: usize,
}

impl CentralConsole {
    /// Create a console; `windows_per_week` drives per-week accounting
    /// (672 for 15-minute windows).
    pub fn new(windows_per_week: usize) -> Self {
        Self {
            stats: Arc::new(Mutex::new(ConsoleStats::default())),
            windows_per_week: windows_per_week.max(1),
        }
    }

    /// Ingest one batch of alerts.
    pub fn ingest_batch(&self, batch: &[Alert]) {
        let mut stats = self.stats.lock();
        stats.batches += 1;
        for alert in batch {
            stats.total_alerts += 1;
            *stats.per_user.entry(alert.user).or_default() += 1;
            stats.per_feature[alert.feature.index()] += 1;
            *stats
                .per_week
                .entry(alert.window / self.windows_per_week)
                .or_default() += 1;
        }
    }

    /// Spawn an ingestion worker fed by a bounded channel; returns the
    /// sender and the worker handle. Dropping all senders stops the worker.
    pub fn spawn_ingestor(&self, capacity: usize) -> (Sender<Vec<Alert>>, std::thread::JoinHandle<()>) {
        let (tx, rx) = bounded::<Vec<Alert>>(capacity);
        let stats = Arc::clone(&self.stats);
        let wpw = self.windows_per_week;
        let handle = std::thread::spawn(move || {
            for batch in rx {
                let mut stats = stats.lock();
                stats.batches += 1;
                for alert in &batch {
                    stats.total_alerts += 1;
                    *stats.per_user.entry(alert.user).or_default() += 1;
                    stats.per_feature[alert.feature.index()] += 1;
                    *stats.per_week.entry(alert.window / wpw).or_default() += 1;
                }
            }
        });
        (tx, handle)
    }

    /// Snapshot the current statistics.
    pub fn stats(&self) -> ConsoleStats {
        self.stats.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtab::FeatureKind;

    fn alert(user: u32, window: usize, feature: FeatureKind) -> Alert {
        Alert {
            user,
            window,
            feature,
            observed: 10,
            threshold: 5.0,
        }
    }

    #[test]
    fn accounting_by_user_feature_week() {
        let console = CentralConsole::new(672);
        console.ingest_batch(&[
            alert(1, 10, FeatureKind::TcpConnections),
            alert(1, 700, FeatureKind::UdpConnections),
            alert(2, 10, FeatureKind::TcpConnections),
        ]);
        let stats = console.stats();
        assert_eq!(stats.total_alerts, 3);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.per_user[&1], 2);
        assert_eq!(stats.per_user[&2], 1);
        assert_eq!(stats.per_feature[FeatureKind::TcpConnections.index()], 2);
        assert_eq!(stats.per_week[&0], 2);
        assert_eq!(stats.per_week[&1], 1);
    }

    #[test]
    fn concurrent_ingestion_loses_nothing() {
        let console = CentralConsole::new(672);
        let (tx, handle) = console.spawn_ingestor(64);
        let mut senders = Vec::new();
        for host in 0..8u32 {
            let tx = tx.clone();
            senders.push(std::thread::spawn(move || {
                for w in 0..100usize {
                    tx.send(vec![alert(host, w, FeatureKind::DnsConnections)])
                        .unwrap();
                }
            }));
        }
        drop(tx);
        for s in senders {
            s.join().unwrap();
        }
        handle.join().unwrap();
        let stats = console.stats();
        assert_eq!(stats.total_alerts, 800);
        assert_eq!(stats.batches, 800);
        assert_eq!(stats.per_user.len(), 8);
        assert!(stats.per_user.values().all(|&c| c == 100));
    }

    #[test]
    fn top_talkers_ordering() {
        let console = CentralConsole::new(672);
        for (user, n) in [(5u32, 3usize), (1, 10), (9, 7)] {
            for w in 0..n {
                console.ingest_batch(&[alert(user, w, FeatureKind::TcpSyn)]);
            }
        }
        let top = console.stats().top_talkers(2);
        assert_eq!(top, vec![(1, 10), (9, 7)]);
    }

    #[test]
    fn empty_console() {
        let console = CentralConsole::new(672);
        let stats = console.stats();
        assert_eq!(stats.total_alerts, 0);
        assert!(stats.top_talkers(5).is_empty());
    }
}
