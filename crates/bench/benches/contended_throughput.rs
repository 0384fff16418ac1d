//! Contended submit throughput of the cache hot path (not a paper
//! figure): wall-clock hot-read submits/second against one shared,
//! pre-warmed `HybridCache` at 1–32 OS threads.
//!
//! Every request is a repeat read of a shard's single hot block (the
//! "index root page" shape — see `hstorage_bench::workload::hot_read`),
//! and all threads share one schedule so they pile onto the same shard at
//! once. Two engine configurations are compared:
//!
//! * `optimistic` — the lock-light hot path: repeat hits are served under
//!   the shard's `RwLock` read view with atomic statistics, never taking
//!   the stripe mutex;
//! * `locked` — `with_optimistic_reads(false)`, the pre-optimization hot
//!   path that takes the stripe mutex on every submission.
//!
//! Both serve the identical workload with identical simulated timing and
//! statistics; what diverges is wall-clock scalability under contention.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hstorage_bench::workload::{contended_hot_reads, warmed_cache, HOT_READS_PER_THREAD};

fn bench_contended(c: &mut Criterion) {
    let mut group = c.benchmark_group("contended_throughput");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    for threads in [1usize, 2, 4, 8, 16, 32] {
        group.throughput(Throughput::Elements(threads as u64 * HOT_READS_PER_THREAD));
        for (label, optimistic) in [("optimistic", true), ("locked", false)] {
            // The cache is warmed once and shared across iterations: the
            // workload is pure repeat hits, so no iteration changes what
            // the next one measures.
            let cache = warmed_cache(optimistic);
            group.bench_with_input(BenchmarkId::new(label, threads), &threads, |b, &threads| {
                b.iter(|| contended_hot_reads(&cache, threads, HOT_READS_PER_THREAD));
            });
        }
    }

    group.finish();
}

criterion_group!(benches, bench_contended);
criterion_main!(benches);
