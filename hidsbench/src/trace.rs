//! Spans around calls into each layer, kept in memory, with self time.
//!
//! A span's self time is its duration minus the time its child spans
//! cover. The orchestrator opens one root span, `rep`, around a traced rep;
//! every other span names the layer whose public function it wraps, so the
//! root's self time is time no layer accounts for.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the root span around one traced rep.
pub const ROOT: &str = "rep";

/// One closed span, in nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Calls, total time and self time of one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Records spans when on; every method is a no-op when off, so one code path
/// serves traced and untraced reps.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans: index into `spans` and child time seen so far.
    open: Vec<(usize, u64)>,
    layers: BTreeMap<&'static str, LayerTime>,
}

impl Tracer {
    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::exit`] or [`Tracer::exit_as`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().map(|&(i, _)| i),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push((self.spans.len() - 1, 0));
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if let Some(&(i, _)) = self.open.last() {
            let name = self.spans[i].name;
            self.exit_as(name);
        }
    }

    /// Close the innermost open span under `name`, for spans whose layer is
    /// known only once the call returns.
    pub fn exit_as(&mut self, name: &'static str) {
        let Some((i, child_ns)) = self.open.pop() else {
            return;
        };
        let end_ns = self.now_ns();
        let span = &mut self.spans[i];
        span.name = name;
        span.end_ns = end_ns;
        let dur = end_ns - span.start_ns;
        let t = self.layers.entry(name).or_default();
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.1 += dur;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Per-name totals over every closed span.
    pub fn layers(&self) -> &BTreeMap<&'static str, LayerTime> {
        &self.layers
    }

    /// Write the spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                f,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            )?;
        }
        f.write_all(b"]}\n")?;
        f.flush()
    }
}

/// Add `b`'s per-name totals into `a`.
pub fn merge(a: &mut BTreeMap<&'static str, LayerTime>, b: &BTreeMap<&'static str, LayerTime>) {
    for (name, t) in b {
        let acc = a.entry(name).or_default();
        acc.calls += t.calls;
        acc.total_ns += t.total_ns;
        acc.self_ns += t.self_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::on();
        tr.enter(ROOT);
        tr.span("outer", || busy(2));
        tr.enter("outer");
        tr.span("inner", || busy(3));
        tr.exit();
        tr.exit();
        let l = tr.layers();
        assert_eq!(l["outer"].calls, 2);
        assert_eq!(l["inner"].calls, 1);
        assert!(l["outer"].total_ns >= l["outer"].self_ns + l["inner"].total_ns);
        let root = l[ROOT];
        let children: u64 = l
            .iter()
            .filter(|(n, _)| **n != ROOT)
            .map(|(_, t)| t.self_ns)
            .sum();
        assert!(children <= root.total_ns);
        assert_eq!(root.self_ns + children, root.total_ns);
    }

    #[test]
    fn exit_as_renames_and_off_records_nothing() {
        let mut tr = Tracer::on();
        tr.enter("tick");
        tr.exit_as("tick_snapshot");
        assert!(tr.layers().contains_key("tick_snapshot"));
        assert!(!tr.layers().contains_key("tick"));

        let mut off = Tracer::off();
        assert_eq!(off.span("x", || 7), 7);
        off.exit();
        assert!(off.layers().is_empty());
    }
}
