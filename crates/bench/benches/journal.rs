//! Checkpoint-path benches: CRC32 throughput, journal append (with and
//! without per-record fsync), tail recovery, and atomic snapshot writes.
//!
//! These bound the durability overhead of a checkpointed campaign: a round
//! record for the full-scale world is a few hundred KB, so append + CRC
//! must stay far below the cost of scanning the round itself, and the
//! per-week snapshot far below one round. EXPERIMENTS.md discusses the
//! cadence trade-off these numbers feed.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fbs_journal::{crc32, read_snapshot, write_snapshot, Journal};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "fbs-journal-bench-{}-{name}-{n}",
        std::process::id()
    ))
}

/// A round-record-shaped payload: 13 bytes per block observation.
fn payload(blocks: usize) -> Vec<u8> {
    (0..blocks * 13 + 14)
        .map(|i| (i * 31 % 251) as u8)
        .collect()
}

fn bench_crc32(c: &mut Criterion) {
    let mut g = c.benchmark_group("journal/crc32");
    for size in [1usize << 10, 1 << 16, 1 << 20] {
        let data = payload(size / 13);
        g.throughput(Throughput::Bytes(data.len() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| crc32(black_box(data)))
        });
    }
    g.finish();
}

fn bench_append(c: &mut Criterion) {
    let mut g = c.benchmark_group("journal/append");
    // ~2k blocks ≈ the small-scale world's record size.
    let record = payload(2_000);
    g.throughput(Throughput::Bytes(record.len() as u64));

    g.bench_function("buffered", |b| {
        let path = scratch("append");
        let mut journal = Journal::create(&path).expect("create");
        b.iter(|| journal.append(black_box(&record)).expect("append"));
        drop(journal);
        let _ = std::fs::remove_file(&path);
    });
    g.bench_function("fsync_each", |b| {
        let path = scratch("append-sync");
        let mut journal = Journal::create(&path).expect("create");
        b.iter(|| {
            journal.append(black_box(&record)).expect("append");
            journal.sync().expect("sync");
        });
        drop(journal);
        let _ = std::fs::remove_file(&path);
    });
    g.finish();
}

fn bench_recovery(c: &mut Criterion) {
    // Reopening is the resume path: stream every frame, verify every CRC,
    // retain nothing past the visit.
    let mut g = c.benchmark_group("journal/recover");
    for records in [100u64, 1_000] {
        let path = scratch("recover");
        let mut journal = Journal::create(&path).expect("create");
        let record = payload(2_000);
        for _ in 0..records {
            journal.append(&record).expect("append");
        }
        drop(journal);
        g.throughput(Throughput::Elements(records));
        g.bench_with_input(BenchmarkId::from_parameter(records), &path, |b, path| {
            b.iter(|| {
                let mut visited = 0u64;
                let (journal, recovery) = Journal::open(path, |_, payload| {
                    black_box(payload);
                    visited += 1;
                    Ok(())
                })
                .expect("open");
                assert!(recovery.was_clean());
                black_box((journal.records(), visited));
            })
        });
        let _ = std::fs::remove_file(&path);
    }
    g.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    let mut g = c.benchmark_group("journal/snapshot");
    for size in [64usize << 10, 1 << 20] {
        let state = payload(size / 13);
        let path = scratch("snap");
        g.throughput(Throughput::Bytes(state.len() as u64));
        g.bench_with_input(
            BenchmarkId::new("write_atomic", size),
            &state,
            |b, state| b.iter(|| write_snapshot(&path, 1, black_box(state)).expect("write")),
        );
        g.bench_with_input(BenchmarkId::new("read_verify", size), &path, |b, path| {
            b.iter(|| read_snapshot(black_box(path)).expect("read").expect("some"))
        });
        let _ = std::fs::remove_file(&path);
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_crc32,
    bench_append,
    bench_recovery,
    bench_snapshot
);
criterion_main!(benches);
