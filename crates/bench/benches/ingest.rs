//! Micro-benchmarks of the wire-ingest hot path: sanitization (the
//! scan-first zero-copy fast path against the strip-and-rebuild slow
//! path), the agent-side syslog/CEF batch encode, and the full datagram
//! decode the sanitizer front-ends.
//!
//! The interesting comparison is `sanitize/clean_*` vs `sanitize/dirty_*`:
//! clean telemetry — the overwhelmingly common case — must cost a scan
//! and no allocation, while hostile input pays for the rebuild.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use fleetd::ingest::{decode_batch_datagram, encode_batch_datagram, sanitize};
use fleetd::{IngestConfig, WindowBatch};

const MAX_LEN: usize = 8 * 1024;

/// A realistic clean CEF-in-syslog line (printable ASCII, ~230 bytes).
fn clean_line() -> String {
    let counts: String = (0..24).map(|i| format!("{},", i * 7 % 97)).collect();
    format!(
        "<134>1 2009-04-07T12:00:00Z host042 hids - - - \
         CEF:0|fleet|hids|1.0|batch|window batch|3|host=42 seq=9 week=test start=96 counts={}",
        counts.trim_end_matches(',')
    )
}

/// The same line with interleaved ANSI escapes and control bytes.
fn dirty_line() -> String {
    let mut out = String::new();
    for (i, c) in clean_line().chars().enumerate() {
        out.push(c);
        if i % 16 == 0 {
            out.push_str("\x1b[31m");
        }
        if i % 37 == 0 {
            out.push('\u{0007}');
        }
    }
    out
}

/// Clean multi-byte text: exercises the char-scan identity check.
fn clean_unicode_line() -> String {
    "höst=42 wéek=test münich köln ü".repeat(8)
}

fn bench_sanitize(c: &mut Criterion) {
    let clean = clean_line();
    let dirty = dirty_line();
    let unicode = clean_unicode_line();

    let mut group = c.benchmark_group("sanitize");
    group.sample_size(60);

    group.throughput(Throughput::Bytes(clean.len() as u64));
    group.bench_function("clean_ascii_borrowed", |b| {
        b.iter(|| black_box(sanitize(black_box(&clean), MAX_LEN)))
    });

    group.throughput(Throughput::Bytes(unicode.len() as u64));
    group.bench_function("clean_unicode_borrowed", |b| {
        b.iter(|| black_box(sanitize(black_box(&unicode), MAX_LEN)))
    });

    group.throughput(Throughput::Bytes(dirty.len() as u64));
    group.bench_function("dirty_ansi_rebuilt", |b| {
        b.iter(|| black_box(sanitize(black_box(&dirty), MAX_LEN)))
    });

    group.throughput(Throughput::Bytes(clean.len() as u64));
    group.bench_function("clean_truncated_rebuilt", |b| {
        b.iter(|| black_box(sanitize(black_box(&clean), 64)))
    });

    group.finish();
}

/// A canonical 96-window batch, as the repro `ingest` experiment sends
/// one per host and week slice.
fn canonical_batch() -> WindowBatch {
    WindowBatch {
        host: 42,
        seq: 9,
        week: fleetd::Week::Test,
        start: 96,
        counts: (0..96).map(|i| i * 7 % 97).collect(),
        poison: false,
    }
}

fn bench_encode(c: &mut Criterion) {
    let batch = canonical_batch();
    let payload = encode_batch_datagram(&batch, "host042", "hids");
    assert_eq!(payload, fleetd::ingest::oracle::encode_batch_datagram(&batch, "host042", "hids"));

    let mut group = c.benchmark_group("encode");
    group.sample_size(60);
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("batch_datagram_96", |b| {
        b.iter(|| black_box(encode_batch_datagram(black_box(&batch), "host042", "hids")))
    });
    group.bench_function("oracle_format_96", |b| {
        b.iter(|| {
            black_box(fleetd::ingest::oracle::encode_batch_datagram(
                black_box(&batch),
                "host042",
                "hids",
            ))
        })
    });
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    // A canonical wire datagram, exactly as the flood benchmarks in the
    // repro `ingest` experiment produce it.
    let batch = canonical_batch();
    let config = IngestConfig::default();
    let payload = encode_batch_datagram(&batch, "host042", "hids");
    assert!(decode_batch_datagram(&payload, &config).is_ok());

    let mut group = c.benchmark_group("decode");
    group.sample_size(60);
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("batch_datagram_end_to_end", |b| {
        b.iter(|| black_box(decode_batch_datagram(black_box(&payload), &config)))
    });
    group.finish();
}

criterion_group!(benches, bench_sanitize, bench_encode, bench_decode);
criterion_main!(benches);
