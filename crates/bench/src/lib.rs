//! Shared helpers for the benchmark harness.
//!
//! Every Criterion bench in `benches/` regenerates one table or figure of
//! the paper at a reduced TPC-H scale; the `run_experiments` binary runs
//! them all once and prints the rows, which is what EXPERIMENTS.md records.

use hstorage_tpch::TpchScale;

/// The scale the Criterion benches run at. Small enough that a single
/// experiment iteration completes in well under a second, large enough that
/// the cache/buffer-pool ratios are meaningful.
pub fn bench_scale() -> TpchScale {
    TpchScale::new(0.02)
}

/// The scale the `run_experiments` binary uses for the single-query
/// experiments (Figures 4–9, Tables 4–7).
pub fn report_scale() -> TpchScale {
    TpchScale::new(0.1)
}

/// The scale used for the long-running sequence and concurrency experiments
/// (Figure 11 / Table 8, Table 9 / Figure 12).
pub fn report_concurrency_scale() -> TpchScale {
    TpchScale::new(0.05)
}

/// The submit-throughput workload shared by the `batch_throughput` bench
/// and the `bench_gate` CI binary.
///
/// Both must measure the *same* workload — the bench is how a developer
/// inspects a regression the gate reports — so the request shapes, cache
/// construction and drive loop live here, once.
pub mod workload {
    use hstorage_cache::{
        CachePolicyKind, HybridCache, StorageConfig, StorageConfigKind, StorageSystem,
    };
    use hstorage_engine::{
        run_streams_service, Access, Catalog, ConcurrencyRegistry, ExecutorConfig, ObjectKind,
        OperatorKind, PlanNode, PlanTree, ServiceConfig, StreamSpec,
    };
    use hstorage_storage::{
        BlockRange, ClassifiedRequest, IoRequest, PolicyConfig, QosPolicy, RequestClass,
    };
    use std::sync::Arc;

    /// Cache capacity in blocks.
    pub const BLOCKS: u64 = 4_096;
    /// Requests per run.
    pub const TOTAL_SUBMITS: u64 = 10_000;
    /// Device queue depth used by the batched configurations.
    pub const QUEUE_DEPTH: usize = 32;
    /// Lock-striping shard count.
    pub const SHARDS: usize = 8;

    /// Adjacent single-block sequential reads — the shape a table scan
    /// produces (bypasses the cache, merges on the device).
    pub fn scan_read(i: u64) -> ClassifiedRequest {
        ClassifiedRequest::new(
            IoRequest::read(BlockRange::new(i, 1), true),
            RequestClass::Sequential,
            QosPolicy::NonCachingNonEviction,
        )
    }

    /// Scattered single-block random reads at mixed priorities — exercises
    /// cache management; no transfers merge.
    pub fn random_read(i: u64) -> ClassifiedRequest {
        ClassifiedRequest::new(
            IoRequest::read(BlockRange::new((i * 17) % (BLOCKS * 2), 1), false),
            RequestClass::Random,
            QosPolicy::priority(2 + (i % 5) as u8),
        )
    }

    /// Deterministic address scatter (multiplicative hashing), so each
    /// request class spreads over every shard instead of correlating with
    /// `i % 8`, and re-reference distances vary enough that replacement
    /// policies actually diverge.
    fn mix(i: u64) -> u64 {
        i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33
    }

    /// A deterministic blend of all four request shapes — a re-referenced
    /// hot random set (reuse the policies can protect), one-shot cold
    /// random reads and fresh sequential scan traffic (pollution
    /// pressure), buffered updates over a write-hot region and
    /// temporary-data writes — the workload the cache-policy sweep runs,
    /// because replacement policies only diverge when admission, eviction
    /// and reuse all happen.
    pub fn mixed_request(i: u64) -> ClassifiedRequest {
        match i % 8 {
            // Hot random reads over half the cache capacity.
            0 | 1 => ClassifiedRequest::new(
                IoRequest::read(BlockRange::new(mix(i) % (BLOCKS / 2), 1), false),
                RequestClass::Random,
                QosPolicy::priority(2 + (i % 5) as u8),
            ),
            // Cold random reads: mostly one-shot pollution.
            2 | 3 => ClassifiedRequest::new(
                IoRequest::read(BlockRange::new(10_000 + mix(i + 7_919) % 50_000, 1), false),
                RequestClass::Random,
                QosPolicy::priority(2 + (i % 5) as u8),
            ),
            // A fresh table scan: 4-block adjacent sequential transfers
            // covering every shard (and mergeable on the device).
            4 | 5 => ClassifiedRequest::new(
                IoRequest::read(
                    BlockRange::new(100_000 + (i / 8) * 8 + if i % 8 == 5 { 4 } else { 0 }, 4),
                    true,
                ),
                RequestClass::Sequential,
                QosPolicy::NonCachingNonEviction,
            ),
            // Buffered updates over a small write-hot region (dirty
            // blocks the write-aware policies treat differently).
            6 => ClassifiedRequest::new(
                IoRequest::write(BlockRange::new(mix(i ^ 0xABCD) % (BLOCKS / 4), 1), false),
                RequestClass::Update,
                QosPolicy::WriteBuffer,
            ),
            // Temporary-data writes, mostly one-shot and dirty.
            _ => ClassifiedRequest::new(
                IoRequest::write(
                    BlockRange::new(50_000 + mix(i + 31) % (BLOCKS / 2), 1),
                    false,
                ),
                RequestClass::TemporaryData,
                QosPolicy::priority(1),
            ),
        }
    }

    /// Hot blocks of the contended-read workload: exactly one per shard,
    /// shared by every thread (the "index root page" shape). Because each
    /// shard has a single hot block, the optimistic hit descriptor of
    /// every shard stays permanently armed no matter how threads
    /// interleave — the workload isolates pure lock-path cost.
    pub const HOT_SET: u64 = SHARDS as u64;
    /// Hot reads each thread issues per contended run.
    pub const HOT_READS_PER_THREAD: u64 = 2_000;

    /// The `i`-th hot read of the contended workload: a single-block
    /// priority-2 random read that rotates over the [`HOT_SET`] every 16
    /// requests. All threads share one schedule, so under contention they
    /// pile onto the same shard — worst case for a mutex hot path, best
    /// case for an optimistic read view.
    pub fn hot_read(i: u64) -> ClassifiedRequest {
        ClassifiedRequest::new(
            IoRequest::read(BlockRange::new((i / 16) % HOT_SET, 1), false),
            RequestClass::Random,
            QosPolicy::priority(2),
        )
    }

    /// A sharded cache pre-warmed for the contended hot-read workload:
    /// the [`HOT_SET`] is resident (first pass allocates) and every
    /// shard's optimistic hit descriptor is armed (second pass hits), so
    /// every subsequent [`hot_read`] is a cache hit. Statistics are reset
    /// after warm-up; the `optimistic` flag selects the lock-light or the
    /// fully locked (pre-optimization) hot path.
    pub fn warmed_cache(optimistic: bool) -> HybridCache {
        let cache = fresh_cache(1).with_optimistic_reads(optimistic);
        for _ in 0..2 {
            for b in 0..HOT_SET {
                cache.submit(hot_read(b * 16));
            }
        }
        cache.reset_stats();
        cache
    }

    /// Drives `per_thread` hot reads through `cache` from each of
    /// `threads` OS threads, all sharing the [`hot_read`] schedule.
    /// Returns the resident block count so benches have a value to
    /// `black_box`.
    pub fn contended_hot_reads(cache: &HybridCache, threads: usize, per_thread: u64) -> u64 {
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for i in 0..per_thread {
                        cache.submit(hot_read(i));
                    }
                });
            }
        });
        cache.resident_blocks()
    }

    /// Distinct blocks of the shard-interior latency working set: half the
    /// cache capacity, so the set is fully resident after one warm-up pass
    /// and every shard holds `INTERIOR_SET / SHARDS` distinct hot blocks.
    pub const INTERIOR_SET: u64 = BLOCKS / 2;

    /// The `i`-th read of the interior *hit* cycle: a single-block
    /// priority-2 random read cycling over the [`INTERIOR_SET`]. Because
    /// each shard holds hundreds of distinct resident blocks, consecutive
    /// hits to a shard land on different blocks — the optimistic hit
    /// descriptor never matches, so every submit takes the full locked
    /// path: stripe mutex, metadata probe, policy-list touch — the path
    /// the shard interior (metadata table and recency lists) sits on.
    pub fn interior_hit_read(i: u64) -> ClassifiedRequest {
        ClassifiedRequest::new(
            IoRequest::read(BlockRange::new(i % INTERIOR_SET, 1), false),
            RequestClass::Random,
            QosPolicy::priority(2),
        )
    }

    /// The `i`-th read of the interior *miss* cycle: a never-repeating
    /// address past the warmed set, so every submit misses, probes the
    /// table, allocates a slot and — once the cache fills — evicts. This
    /// exercises the insert/remove and list push/pop half of the interior.
    pub fn interior_miss_read(i: u64) -> ClassifiedRequest {
        ClassifiedRequest::new(
            IoRequest::read(BlockRange::new(INTERIOR_SET + 1 + i, 1), false),
            RequestClass::Random,
            QosPolicy::priority(2),
        )
    }

    /// A fresh single-queue-depth sharded cache running the default policy
    /// (cold — miss-cycle starting point).
    pub fn fresh_interior_cache() -> HybridCache {
        fresh_cache(1)
    }

    /// A cache pre-warmed so the whole [`INTERIOR_SET`] is resident;
    /// statistics are reset after warm-up so every subsequent
    /// [`interior_hit_read`] is a cache hit.
    pub fn warmed_interior_cache() -> HybridCache {
        let cache = fresh_interior_cache();
        for i in 0..INTERIOR_SET {
            cache.submit(interior_hit_read(i));
        }
        cache.reset_stats();
        cache
    }

    /// Drives `n` single-thread submits of the given shape through
    /// `cache`, offset by `base` so back-to-back runs of the miss cycle
    /// keep generating fresh addresses. Returns the resident block count
    /// so benches have a value to `black_box`.
    pub fn interior_submits(
        cache: &HybridCache,
        base: u64,
        n: u64,
        make: impl Fn(u64) -> ClassifiedRequest,
    ) -> u64 {
        for i in base..base + n {
            cache.submit(make(i));
        }
        cache.resident_blocks()
    }

    /// A fresh sharded hybrid cache at the given device queue depth.
    pub fn fresh_cache(queue_depth: usize) -> HybridCache {
        fresh_policy_cache(CachePolicyKind::SemanticPriority, queue_depth)
    }

    /// A fresh sharded cache engine running the given replacement policy.
    pub fn fresh_policy_cache(kind: CachePolicyKind, queue_depth: usize) -> HybridCache {
        HybridCache::with_shard_count_and_queue_depth(
            PolicyConfig::paper_default(),
            BLOCKS,
            SHARDS,
            queue_depth,
        )
        .with_cache_policy(kind)
    }

    /// Drives [`TOTAL_SUBMITS`] requests of the given shape through `cache`
    /// in `batch`-sized vectored submissions (batch 1 degenerates to the
    /// per-request `submit` path). Returns the resident block count so
    /// benches have a value to `black_box`.
    pub fn drive(
        cache: &HybridCache,
        batch: usize,
        make: impl Fn(u64) -> ClassifiedRequest,
    ) -> u64 {
        let mut buf = Vec::with_capacity(batch);
        for i in 0..TOTAL_SUBMITS {
            buf.push(make(i));
            if buf.len() == batch {
                cache.submit_batch(std::mem::take(&mut buf));
            }
        }
        if !buf.is_empty() {
            cache.submit_batch(buf);
        }
        cache.resident_blocks()
    }

    /// Runs a fixed mixed-shape query workload through the query service
    /// at **one worker** — fully deterministic: the closed-loop driver
    /// executes every stream's head query in stream order, then the
    /// follow-ups generation by generation — and returns the simulated
    /// per-request latency percentiles in milliseconds: `(p50, p99, p999)`.
    ///
    /// The workload mixes sequential scans, random index lookups and
    /// temporary spills across 24 streams so the latency distribution has
    /// a genuine tail; being simulated device time, the percentiles are
    /// bit-identical on every machine and serve as gated CI rows.
    pub fn service_latency_percentiles() -> (f64, f64, f64) {
        let mut catalog = Catalog::new();
        let table = catalog.register("orders", ObjectKind::Table, BlockRange::new(0u64, 600));
        let index = catalog.register("idx", ObjectKind::Index, BlockRange::new(20_000u64, 80));
        catalog.set_temp_region(BlockRange::new(50_000u64, 2_000));
        let seq = |passes| {
            PlanTree::new(
                "seq",
                PlanNode::leaf(OperatorKind::SeqScan, Access::SeqScan { table, passes }),
            )
        };
        let lookup = |lookups| {
            PlanTree::new(
                "rand",
                PlanNode::leaf(
                    OperatorKind::IndexScan,
                    Access::IndexScan {
                        index,
                        table,
                        lookups,
                        index_hot_fraction: 0.5,
                        table_hot_fraction: 0.2,
                    },
                ),
            )
        };
        let spill = |blocks| {
            PlanTree::new(
                "spill",
                PlanNode::leaf(
                    OperatorKind::Hash,
                    Access::TempSpill {
                        blocks,
                        read_passes: 1,
                    },
                ),
            )
        };
        let streams: Vec<StreamSpec> = (0..24u64)
            .map(|i| StreamSpec {
                name: format!("s{i}"),
                queries: match i % 4 {
                    0 => vec![seq(1), lookup(40)],
                    1 => vec![lookup(80), spill(24)],
                    2 => vec![spill(48), seq(1)],
                    _ => vec![lookup(20), seq(2)],
                },
            })
            .collect();
        let storage: Arc<dyn StorageSystem> =
            StorageConfig::new(StorageConfigKind::HStorageDb, BLOCKS).build_shared();
        let registry = ConcurrencyRegistry::new();
        let report = run_streams_service(
            ExecutorConfig {
                buffer_pool_blocks: 128,
                ..ExecutorConfig::default()
            },
            ServiceConfig {
                workers: 1,
                queue_depth: 8,
            },
            PolicyConfig::paper_default(),
            &registry,
            &streams,
            &catalog,
            &storage,
        );
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        (
            ms(report.latency.p50().expect("non-empty workload")),
            ms(report.latency.p99().expect("non-empty workload")),
            ms(report.latency.p999().expect("non-empty workload")),
        )
    }

    /// Runs the mixed workload once under `kind` and returns the two
    /// deterministic figures the CI gate tracks per policy: simulated
    /// device seconds and the overall cache hit ratio.
    pub fn mixed_policy_run(kind: CachePolicyKind) -> (f64, f64) {
        let cache = fresh_policy_cache(kind, QUEUE_DEPTH);
        drive(&cache, 64, mixed_request);
        let totals = cache.stats().totals();
        let hit_ratio = if totals.accessed_blocks == 0 {
            0.0
        } else {
            totals.cache_hits as f64 / totals.accessed_blocks as f64
        };
        (cache.now().as_secs_f64(), hit_ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(bench_scale().scale_factor <= report_concurrency_scale().scale_factor);
        assert!(report_concurrency_scale().scale_factor <= report_scale().scale_factor);
    }
}
