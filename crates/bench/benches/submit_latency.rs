//! Single-thread submit latency of the shard interior (not a paper
//! figure): ns/submit through one `HybridCache`, measured per request
//! shape.
//!
//! Three shapes isolate the three structure paths
//! (`hstorage_bench::workload`):
//!
//! * `hit` — reads cycling over a resident working set far larger than
//!   one block per shard, so the optimistic descriptor never matches and
//!   every submit pays the full locked path: stripe mutex, metadata
//!   probe, policy-list touch. This is the path the open-addressing
//!   table and the arena-backed lists were built for.
//! * `miss` — never-repeating cold reads: table insert, list push and —
//!   once the cache fills — eviction (list pop, table remove with
//!   backward-shift deletion).
//! * `repeat_hit` — back-to-back reads of one hot block: the optimistic
//!   fast path, which never touches the table at all. It is the control
//!   row.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hstorage_bench::workload::{
    fresh_interior_cache, interior_hit_read, interior_miss_read, interior_submits,
    warmed_interior_cache, INTERIOR_SET,
};

/// Submits per iteration — a full pass over the working set for the hit
/// cycle, and the same count for the other shapes so ns/submit compares.
const PER_ITER: u64 = INTERIOR_SET;

fn bench_submit_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("submit_latency");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(PER_ITER));

    // Hit cycle: warmed once, shared across iterations — pure hits, so no
    // iteration changes what the next one measures.
    let cache = warmed_interior_cache();
    group.bench_function("hit", |b| {
        b.iter(|| interior_submits(&cache, 0, PER_ITER, interior_hit_read));
    });

    // Miss cycle: the address counter keeps rising across iterations so
    // every submit stays a miss (steady-state: allocate + evict).
    let cache = fresh_interior_cache();
    let mut next = 0u64;
    group.bench_function("miss", |b| {
        b.iter(|| {
            let r = interior_submits(&cache, next, PER_ITER, interior_miss_read);
            next += PER_ITER;
            r
        });
    });

    // Repeat-hit control: same block every time — the optimistic fast
    // path serves it without touching the interior structures.
    let cache = warmed_interior_cache();
    group.bench_function("repeat_hit", |b| {
        b.iter(|| interior_submits(&cache, 0, PER_ITER, |_| interior_hit_read(0)));
    });

    group.finish();
}

criterion_group!(benches, bench_submit_latency);
criterion_main!(benches);
