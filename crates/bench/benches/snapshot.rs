//! Micro-benchmarks of the daemon's snapshot write path: the CRC-32 every
//! frame carries, and encoding a full-state `FSN1` image.
//!
//! `crc32/slice_by_8` against `crc32/oracle_byte_at_a_time` is the CRC
//! rewrite's gain over the same 4 MiB buffer. `snapshot/encode_300x1344`
//! encodes a 300-host table with a full train and test week per host
//! (1344 windows), about the size of the newest image in the daemon-wire
//! benchmark workload; it includes framing and the CRC.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::collections::BTreeMap;
use std::hint::black_box;

use fleetd::codec::{crc32, oracle};
use fleetd::{HostState, Snapshot};
use hids_core::WindowAccumulator;

const WEEK_WINDOWS: u32 = 672;

fn noise(n: usize) -> Vec<u8> {
    (0..n as u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
        .collect()
}

fn week(host: u32, salt: u64) -> WindowAccumulator {
    let mut acc = WindowAccumulator::new();
    for w in 0..WEEK_WINDOWS {
        acc.insert(w, (u64::from(host) * 31 + u64::from(w) * 7 + salt) % 97);
    }
    acc
}

fn fleet_snapshot(n_hosts: u32) -> Snapshot {
    let hosts: BTreeMap<u32, HostState> = (0..n_hosts)
        .map(|h| {
            let st = HostState {
                last_seq: 14,
                train: week(h, 0),
                test: week(h, 1),
                threshold: Some(80.5),
                live_alarms: u64::from(h % 5),
                ..HostState::default()
            };
            (h, st)
        })
        .collect();
    Snapshot {
        seq: 65,
        n_windows: WEEK_WINDOWS,
        hosts,
        ..Snapshot::default()
    }
}

fn bench_crc32(c: &mut Criterion) {
    let buf = noise(4 << 20);
    assert_eq!(crc32(&buf), oracle::crc32(&buf));

    let mut group = c.benchmark_group("crc32");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(buf.len() as u64));
    group.bench_function("slice_by_8", |b| b.iter(|| black_box(crc32(black_box(&buf)))));
    group.bench_function("oracle_byte_at_a_time", |b| {
        b.iter(|| black_box(oracle::crc32(black_box(&buf))))
    });
    group.finish();
}

fn bench_snapshot_encode(c: &mut Criterion) {
    let snap = fleet_snapshot(300);
    let bytes = snap.encode().len();

    let mut group = c.benchmark_group("snapshot");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(bytes as u64));
    group.bench_function("encode_300x1344", |b| b.iter(|| black_box(snap.encode())));
    group.finish();
}

criterion_group!(benches, bench_crc32, bench_snapshot_encode);
criterion_main!(benches);
