//! The metric registry: families, label sets, and deterministic merge.
//!
//! A [`Registry`] is a plain value — no globals, no locks, no clocks.
//! Each worker owns its own registry (sharding), and the coordinator
//! folds the shards together with [`Registry::merge`] *in input order*.
//! Because counters and histogram buckets accumulate integers, the merge
//! commutes and associates exactly, and because every map is a `BTreeMap`
//! the rendered snapshot is a pure function of the work performed —
//! byte-identical no matter how many threads did it.
//!
//! Wall-clock measurements cannot satisfy that contract, so they live in
//! a separate *volatile* section ([`Registry::volatile_add`]) that the
//! default render excludes.

use std::collections::BTreeMap;

use crate::events::EventRing;
use crate::histogram::Histogram;

/// What a metric family measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone saturating `u64` total.
    Counter,
    /// Point-in-time `i64` level (merge sums across shards).
    Gauge,
    /// Fixed-bucket integer histogram.
    Histogram,
}

impl MetricKind {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Family {
    kind: MetricKind,
    help: String,
    /// Bucket bounds for histogram families; empty otherwise.
    bounds: Vec<u64>,
}

/// Sharded, deterministically mergeable metric store.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    families: BTreeMap<String, Family>,
    /// family -> rendered label set -> value.
    counters: BTreeMap<String, BTreeMap<String, u64>>,
    gauges: BTreeMap<String, BTreeMap<String, i64>>,
    histograms: BTreeMap<String, BTreeMap<String, Histogram>>,
    /// Nondeterministic measurements (wall-clock timings), quarantined
    /// from the default render. Merge sums.
    volatile: BTreeMap<String, BTreeMap<String, f64>>,
    volatile_help: BTreeMap<String, String>,
    events: EventRing,
}

/// Render a label slice into its canonical `{k="v",…}` form: keys
/// sorted, values escaped. Empty slice renders as the empty string.
fn label_key(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort_unstable();
    let mut out = String::from("{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

impl Registry {
    /// Empty registry with the default event-ring capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a counter family (idempotent; help from the first call
    /// wins so shard registries agree).
    pub fn register_counter(&mut self, name: &str, help: &str) {
        self.register(name, MetricKind::Counter, help, &[]);
    }

    /// Declare a gauge family.
    pub fn register_gauge(&mut self, name: &str, help: &str) {
        self.register(name, MetricKind::Gauge, help, &[]);
    }

    /// Declare a histogram family over inclusive upper `bounds`.
    pub fn register_histogram(&mut self, name: &str, help: &str, bounds: &[u64]) {
        self.register(name, MetricKind::Histogram, help, bounds);
    }

    fn register(&mut self, name: &str, kind: MetricKind, help: &str, bounds: &[u64]) {
        self.families.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            bounds: bounds.to_vec(),
        });
    }

    /// Add `delta` to a counter series, auto-registering the family with
    /// empty help if it was never declared. Saturating: a ledger, not a
    /// checksum.
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.register(name, MetricKind::Counter, "", &[]);
        let slot = self
            .counters
            .entry(name.to_string())
            .or_default()
            .entry(label_key(labels))
            .or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Set a gauge series to `value`.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], value: i64) {
        self.register(name, MetricKind::Gauge, "", &[]);
        self.gauges
            .entry(name.to_string())
            .or_default()
            .insert(label_key(labels), value);
    }

    /// Record `value` into a histogram series. The family must have been
    /// declared with [`Registry::register_histogram`] first — observing
    /// into an undeclared histogram has no bucket layout to use and is a
    /// wiring bug, reported by panic.
    pub fn histogram_observe(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let bounds = match self.families.get(name) {
            Some(f) if f.kind == MetricKind::Histogram => f.bounds.clone(),
            _ => unreachable_family(name),
        };
        self.histograms
            .entry(name.to_string())
            .or_default()
            .entry(label_key(labels))
            .or_insert_with(|| Histogram::new(&bounds))
            .observe(value);
    }

    /// Add a nondeterministic measurement (e.g. wall-clock nanoseconds)
    /// to the quarantined volatile section. Never part of the default
    /// deterministic render.
    pub fn volatile_add(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.volatile_help.entry(name.to_string()).or_default();
        let slot = self
            .volatile
            .entry(name.to_string())
            .or_default()
            .entry(label_key(labels))
            .or_insert(0.0);
        *slot += value;
    }

    /// Declare help text for a volatile family.
    pub fn register_volatile(&mut self, name: &str, help: &str) {
        self.volatile_help
            .entry(name.to_string())
            .or_insert_with(|| help.to_string());
    }

    /// Record a structured event (see [`EventRing`]).
    pub fn event(&mut self, scope: &str, name: &str, fields: &[(&str, &str)]) {
        self.events.push(scope, name, fields);
    }

    /// The event ring.
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// Append an externally owned ring's events (a producer that keeps
    /// its own [`EventRing`] rather than a whole registry) after ours.
    pub fn merge_events(&mut self, ring: &EventRing) {
        self.events.merge(ring);
    }

    /// Read a counter series back (0 if absent) — for tests and
    /// conservation-law checks.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters
            .get(name)
            .and_then(|m| m.get(&label_key(labels)))
            .copied()
            .unwrap_or(0)
    }

    /// Read a gauge series back (0 if absent).
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> i64 {
        self.gauges
            .get(name)
            .and_then(|m| m.get(&label_key(labels)))
            .copied()
            .unwrap_or(0)
    }

    /// Fold `other` into `self`: counters and histogram buckets add,
    /// gauges sum (a fleet-level gauge is the sum of its shards' levels),
    /// events concatenate after ours. Call in input order — shard 0
    /// first — so the result is independent of completion order.
    ///
    /// # Panics
    /// Panics when the same family name carries different kinds or
    /// bucket layouts in the two registries: shards built from the same
    /// instrumentation code cannot disagree unless miswired.
    pub fn merge(&mut self, other: &Registry) {
        for (name, fam) in &other.families {
            match self.families.get(name) {
                None => {
                    self.families.insert(name.clone(), fam.clone());
                }
                Some(existing) => {
                    if existing.kind != fam.kind || existing.bounds != fam.bounds {
                        unreachable_family(name);
                    }
                }
            }
        }
        for (name, series) in &other.counters {
            let dst = self.counters.entry(name.clone()).or_default();
            for (key, &v) in series {
                let slot = dst.entry(key.clone()).or_insert(0);
                *slot = slot.saturating_add(v);
            }
        }
        for (name, series) in &other.gauges {
            let dst = self.gauges.entry(name.clone()).or_default();
            for (key, &v) in series {
                let slot = dst.entry(key.clone()).or_insert(0);
                *slot = slot.saturating_add(v);
            }
        }
        for (name, series) in &other.histograms {
            let dst = self.histograms.entry(name.clone()).or_default();
            for (key, h) in series {
                match dst.get_mut(key) {
                    Some(mine) => mine.merge(h),
                    None => {
                        dst.insert(key.clone(), h.clone());
                    }
                }
            }
        }
        for (name, help) in &other.volatile_help {
            self.volatile_help
                .entry(name.clone())
                .or_insert_with(|| help.clone());
        }
        for (name, series) in &other.volatile {
            let dst = self.volatile.entry(name.clone()).or_default();
            for (key, &v) in series {
                *dst.entry(key.clone()).or_insert(0.0) += v;
            }
        }
        self.events.merge(other.events());
    }

    pub(crate) fn families_iter(
        &self,
    ) -> impl Iterator<Item = (&String, MetricKind, &String, &[u64])> {
        self.families
            .iter()
            .map(|(n, f)| (n, f.kind, &f.help, f.bounds.as_slice()))
    }

    pub(crate) fn counter_series(&self, name: &str) -> Option<&BTreeMap<String, u64>> {
        self.counters.get(name)
    }

    pub(crate) fn gauge_series(&self, name: &str) -> Option<&BTreeMap<String, i64>> {
        self.gauges.get(name)
    }

    pub(crate) fn histogram_series(&self, name: &str) -> Option<&BTreeMap<String, Histogram>> {
        self.histograms.get(name)
    }

    pub(crate) fn volatile_iter(
        &self,
    ) -> impl Iterator<Item = (&String, &String, &BTreeMap<String, f64>)> {
        self.volatile.iter().map(|(n, series)| {
            let help = self
                .volatile_help
                .get(n)
                .unwrap_or_else(|| unreachable_family(n));
            (n, help, series)
        })
    }
}

/// A family-kind/layout mismatch is a wiring bug (two code paths fighting
/// over one name), not a runtime condition — fail loudly at the single
/// point the invariant can break.
fn unreachable_family(name: &str) -> ! {
    // The clippy::panic gate exempts this single diagnostic site.
    #[allow(clippy::panic)]
    {
        panic!("metric family {name:?}: kind/bucket mismatch or undeclared histogram")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_keys_are_canonical() {
        assert_eq!(label_key(&[]), "");
        assert_eq!(
            label_key(&[("b", "2"), ("a", "1")]),
            "{a=\"1\",b=\"2\"}",
            "labels sort by key regardless of call order"
        );
        assert_eq!(label_key(&[("k", "a\"b\\c")]), "{k=\"a\\\"b\\\\c\"}");
    }

    #[test]
    fn counters_accumulate_and_saturate() {
        let mut r = Registry::new();
        r.counter_add("x_total", &[], 2);
        r.counter_add("x_total", &[], 3);
        assert_eq!(r.counter_value("x_total", &[]), 5);
        r.counter_add("x_total", &[], u64::MAX);
        assert_eq!(r.counter_value("x_total", &[]), u64::MAX);
        assert_eq!(r.counter_value("absent", &[]), 0);
    }

    #[test]
    fn merge_is_order_insensitive_for_integer_metrics() {
        let build = |seed: u64| {
            let mut r = Registry::new();
            r.register_histogram("h", "h help", &[1, 4]);
            r.counter_add("c_total", &[("w", "a")], seed);
            r.gauge_set("g", &[], seed as i64);
            r.histogram_observe("h", &[], seed);
            r
        };
        let (a, b) = (build(3), build(5));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.counter_value("c_total", &[("w", "a")]), 8);
        assert_eq!(ab.gauge_value("g", &[]), 8);
        assert_eq!(
            ab.counter_value("c_total", &[("w", "a")]),
            ba.counter_value("c_total", &[("w", "a")])
        );
        assert_eq!(ab.gauge_value("g", &[]), ba.gauge_value("g", &[]));
    }

    #[test]
    #[should_panic(expected = "kind/bucket mismatch")]
    fn histogram_observe_without_registration_panics() {
        let mut r = Registry::new();
        r.histogram_observe("h", &[], 1);
    }

    #[test]
    #[should_panic(expected = "kind/bucket mismatch")]
    fn merge_with_conflicting_kinds_panics() {
        let mut a = Registry::new();
        a.register_counter("m", "");
        let mut b = Registry::new();
        b.register_gauge("m", "");
        a.merge(&b);
    }

    #[test]
    fn events_flow_through_merge() {
        let mut a = Registry::new();
        a.event("s", "first", &[]);
        let mut b = Registry::new();
        b.event("s", "second", &[("k", "v")]);
        a.merge(&b);
        let names: Vec<_> = a.events().events().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["first", "second"]);
    }
}
