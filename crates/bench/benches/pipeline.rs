//! End-to-end pipeline benchmark: pcap → decode → sanitize → features
//! → threshold sweep, as one measured unit.
//!
//! Complements the `ingest` micro-benchmarks: where those isolate the
//! sanitizer and the datagram decoder, this drives the whole measurement
//! path the paper's deployment implies — synthetic weeks rendered to a
//! real pcap capture, read back through the fault-tolerant reader,
//! decoded into flows, folded into per-window features, shipped over the
//! hardened syslog/CEF wire (hostile envelope, so the sanitizer's
//! rebuild path runs for real) and swept through the grouping policies.
//! `repro pipeline` prints the same figure on its `pipeline throughput:`
//! stderr line.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use experiments::pipeline::{run, PipelineScenario};

fn bench_pipeline(c: &mut Criterion) {
    // Small but complete: every stage runs, every identity check holds.
    let scenario = PipelineScenario {
        n_users: 2,
        n_windows: 8,
        ..PipelineScenario::default()
    };
    let probe = run(&scenario).expect("pipeline scenario runs");
    probe.check().expect("pipeline invariants");
    assert!(probe.frames_written > 0, "span must carry traffic");

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    // Events = window-slots carried end to end (users × windows × 2 weeks).
    group.throughput(Throughput::Elements(probe.feature_windows));
    group.bench_function("pcap_to_sweep_end_to_end", |b| {
        b.iter(|| {
            let r = run(black_box(&scenario)).expect("pipeline scenario runs");
            assert_eq!(r.feature_mismatches, 0);
            black_box(r)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
