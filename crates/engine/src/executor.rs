//! The query executor.
//!
//! The executor turns a compiled [`RequestProgram`]
//! into classified I/O against a [`StorageSystem`], going through the DBMS
//! buffer pool first and assigning a QoS policy to every request via the
//! policy assignment table at issue time.
//!
//! Storage is accessed through `&dyn StorageSystem`: the storage service is
//! shared, and all its mutation is interior. Two multi-stream drivers are
//! provided on top of the single-query path:
//!
//! * [`run_concurrent`] — the deterministic cooperative slicer used by the
//!   paper-figure experiments: one executor, one buffer pool, streams
//!   interleaved a fixed number of operations at a time. Fully
//!   reproducible, single-threaded.
//! * [`run_threaded`] — real OS-thread concurrency: each stream runs on its
//!   own thread with its own executor (and buffer pool) against one shared
//!   `Arc<dyn StorageSystem>`, with one [`ConcurrencyRegistry`] shared by
//!   all streams so Rule 5 still governs priority assignment.
//!
//! Sequential streams (table scans, temporary-data generation and
//! consumption) are issued in *vectored batches* of up to
//! [`ExecutorConfig::io_batch_size`] requests through
//! [`StorageSystem::submit_batch`], so the storage system sees a scan as the
//! semantic batch it is — one classification, one shard-lock acquisition per
//! shard, mergeable device transfers — instead of a stream of independent
//! submits. Batches are flushed before any random submit, TRIM or query
//! completion, so the request order reaching storage is identical to
//! unbatched execution.

use crate::buffer_pool::BufferPool;
use crate::catalog::{Catalog, ObjectId};
use crate::concurrency::ConcurrencyRegistry;
use crate::plan::PlanTree;
use crate::policy_table::PolicyAssignmentTable;
use crate::program::{compile, CompileOptions, IoOp, RequestProgram};
use crate::semantic::SemanticInfo;
use crate::stats::QueryStats;
use hstorage_cache::StorageSystem;
use hstorage_storage::{
    BlockAddr, BlockRange, ClassifiedRequest, IoRequest, PolicyConfig, QosPolicy, RequestClass,
    TrimCommand,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Executor tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutorConfig {
    /// DBMS buffer-pool capacity in blocks.
    pub buffer_pool_blocks: u64,
    /// CPU cost charged per block processed.
    pub cpu_time_per_block: Duration,
    /// Blocks per sequential read request.
    pub seq_blocks_per_request: u64,
    /// Blocks per temporary-data request.
    pub temp_blocks_per_request: u64,
    /// Seed for the deterministic random-access generator.
    pub seed: u64,
    /// Maximum number of sequential-stream requests the executor collects
    /// into one vectored [`StorageSystem::submit_batch`] call. Sequential
    /// scans and temporary-data streams vector their run of requests up to
    /// this size; index/random paths always submit per request. `1`
    /// disables batching. Because a batch is flushed before any
    /// non-batchable request (and before TRIM), the request order seen by
    /// storage is identical to unbatched execution.
    pub io_batch_size: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            buffer_pool_blocks: 4096,
            cpu_time_per_block: Duration::from_micros(12),
            seq_blocks_per_request: 64,
            temp_blocks_per_request: 32,
            seed: 0x5707ACEDB,
            io_batch_size: 16,
        }
    }
}

impl ExecutorConfig {
    /// The compile options implied by this configuration.
    pub fn compile_options(&self) -> CompileOptions {
        CompileOptions {
            seq_blocks_per_request: self.seq_blocks_per_request,
            temp_blocks_per_request: self.temp_blocks_per_request,
        }
    }
}

/// `(oid, effective level, query bounds)`: everything
/// [`PolicyAssignmentTable::assign`] reads for a `Random` request besides
/// the registry.
type RandomQosKey = (ObjectId, u32, (u32, u32));

/// The executor's memo of `Random`-class policies. Every entry was
/// computed at registry generation `generation`; the registry's state is a
/// function of its generation, so while the generation has not moved each
/// entry is exactly what the locked lookup would return. A generation
/// spans at most one query's lifetime on the single-query path (its
/// registration and unregistration both move it), so the memo holds a
/// handful of `(object, level)` pairs and a linear scan finds them.
#[derive(Debug, Default)]
struct RandomQosMemo {
    generation: u64,
    entries: Vec<(RandomQosKey, QosPolicy)>,
}

/// Executes query plans against a storage system.
pub struct QueryExecutor {
    policy_table: PolicyAssignmentTable,
    registry: ConcurrencyRegistry,
    random_qos: RandomQosMemo,
    buffer_pool: BufferPool,
    config: ExecutorConfig,
    rng: SmallRng,
    /// Sequential-stream requests collected for the next vectored submit.
    pending: Vec<ClassifiedRequest>,
}

impl QueryExecutor {
    /// Creates an executor with its own (single-query) registry.
    pub fn new(config: ExecutorConfig, policy: PolicyConfig) -> Self {
        Self::with_registry(config, policy, ConcurrencyRegistry::new())
    }

    /// Creates an executor that shares `registry` with other executors
    /// (Rule 5: concurrent queries must agree on priorities).
    pub fn with_registry(
        config: ExecutorConfig,
        policy: PolicyConfig,
        registry: ConcurrencyRegistry,
    ) -> Self {
        QueryExecutor {
            policy_table: PolicyAssignmentTable::new(policy),
            registry,
            random_qos: RandomQosMemo::default(),
            buffer_pool: BufferPool::new(config.buffer_pool_blocks),
            rng: SmallRng::seed_from_u64(config.seed),
            pending: Vec::with_capacity(config.io_batch_size),
            config,
        }
    }

    /// The shared concurrency registry.
    pub fn registry(&self) -> &ConcurrencyRegistry {
        &self.registry
    }

    /// The policy assignment table.
    pub fn policy_table(&self) -> &PolicyAssignmentTable {
        &self.policy_table
    }

    /// The DBMS buffer pool.
    pub fn buffer_pool(&self) -> &BufferPool {
        &self.buffer_pool
    }

    /// The executor configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// Clears the buffer pool (used between independent experiment runs).
    pub fn clear_buffer_pool(&mut self) {
        self.buffer_pool.clear();
    }

    /// Compiles a plan against the catalog.
    pub fn compile(&self, plan: &PlanTree, catalog: &mut Catalog) -> RequestProgram {
        compile(plan, catalog, self.config.compile_options())
    }

    /// Compiles and runs one query to completion, registering it with the
    /// concurrency registry for its duration.
    pub fn run_query(
        &mut self,
        plan: &PlanTree,
        catalog: &mut Catalog,
        storage: &dyn StorageSystem,
    ) -> QueryStats {
        let program = self.compile(plan, catalog);
        let ticket = self.registry.register_query(plan);
        let mut stats = QueryStats::new(&program.name);
        let io_start = storage.now();
        for op in &program.ops {
            self.execute_op(op, program.level_bounds, catalog, storage, &mut stats);
        }
        self.flush_pending(storage);
        self.registry.unregister_query(plan, ticket);
        finalize(&mut stats, io_start, storage);
        // Query boundaries are the executor's natural idle points: offer
        // the storage system a tier-migration window (a no-op unless a
        // migration engine is configured). Placed after `finalize` so
        // background device traffic is never charged to this query's I/O
        // time.
        storage.migrate_idle();
        stats
    }

    /// Executes one operation of a compiled program. Used directly by the
    /// concurrent-workload driver; most callers want [`Self::run_query`].
    pub fn execute_op(
        &mut self,
        op: &IoOp,
        level_bounds: (u32, u32),
        catalog: &mut Catalog,
        storage: &dyn StorageSystem,
        stats: &mut QueryStats,
    ) {
        match op {
            IoOp::SequentialRead { info, range } => {
                self.issue(storage, stats, info, level_bounds, *range, false, true);
                self.charge_cpu(stats, range.len);
            }
            IoOp::IndexProbe {
                index_info,
                index_hot,
                table_info,
                table_hot,
            } => {
                let index_block = self.pick(index_hot);
                let table_block = self.pick(table_hot);
                self.random_block_access(storage, stats, index_info, level_bounds, index_block);
                self.random_block_access(storage, stats, table_info, level_bounds, table_block);
                self.charge_cpu(stats, 2);
            }
            IoOp::TempWrite { info, range } => {
                self.issue(storage, stats, info, level_bounds, *range, true, true);
                self.charge_cpu(stats, range.len);
            }
            IoOp::TempRead { info, range } => {
                self.issue(storage, stats, info, level_bounds, *range, false, true);
                self.charge_cpu(stats, range.len);
            }
            IoOp::TempDelete { info, range, oid } => {
                // The deletion itself is a metadata operation: the DBMS
                // notifies the storage system that the blocks are dead. In
                // hStorage-DB this becomes a TRIM (or the "non-caching and
                // eviction" scan workaround); legacy systems ignore it.
                stats.record_request(info.request_class(), range.len);
                // Pending batched reads/writes must reach storage before
                // the blocks are invalidated.
                self.flush_pending(storage);
                storage.trim(&TrimCommand::single(*range));
                for block in range.iter() {
                    self.buffer_pool.invalidate(block);
                }
                catalog.drop_temp(*oid);
            }
            IoOp::UpdateWrite { info, table_range } => {
                let block = self.pick(table_range);
                let policy = self.assign(info, level_bounds);
                let io = IoRequest::write(BlockRange::new(block, 1), false);
                stats.record_request(info.request_class(), 1);
                self.flush_pending(storage);
                storage.submit(ClassifiedRequest::new(io, info.request_class(), policy));
                self.buffer_pool.invalidate(block);
                self.charge_cpu(stats, 1);
            }
        }
    }

    /// One random single-block read that goes through the buffer pool.
    fn random_block_access(
        &mut self,
        storage: &dyn StorageSystem,
        stats: &mut QueryStats,
        info: &SemanticInfo,
        level_bounds: (u32, u32),
        block: BlockAddr,
    ) {
        if self.buffer_pool.access(block, true) {
            stats.buffer_pool_hits += 1;
            return;
        }
        stats.buffer_pool_misses += 1;
        self.issue(
            storage,
            stats,
            info,
            level_bounds,
            BlockRange::new(block, 1),
            false,
            false,
        );
    }

    /// Issues one classified storage request.
    #[allow(clippy::too_many_arguments)]
    fn issue(
        &mut self,
        storage: &dyn StorageSystem,
        stats: &mut QueryStats,
        info: &SemanticInfo,
        level_bounds: (u32, u32),
        range: BlockRange,
        is_write: bool,
        sequential: bool,
    ) {
        let policy = self.assign(info, level_bounds);
        let io = if is_write {
            IoRequest::write(range, sequential)
        } else {
            IoRequest::read(range, sequential)
        };
        let class = info.request_class();
        stats.record_request(class, range.len);
        let req = ClassifiedRequest::new(io, class, policy);
        if sequential && self.config.io_batch_size > 1 {
            // Sequential streams vector their run of requests; the batch is
            // flushed as soon as it is full or a non-batchable request
            // needs to preserve ordering.
            self.pending.push(req);
            if self.pending.len() >= self.config.io_batch_size {
                self.flush_pending(storage);
            }
        } else {
            self.flush_pending(storage);
            storage.submit(req);
        }
    }

    /// The QoS policy of a request: [`PolicyAssignmentTable::assign`],
    /// with `Random`-class answers (the only ones that consult the shared
    /// registry) served from the per-generation memo when possible.
    fn assign(&mut self, info: &SemanticInfo, level_bounds: (u32, u32)) -> QosPolicy {
        if info.request_class() != RequestClass::Random {
            return self.policy_table.assign(info, &self.registry, level_bounds);
        }
        let generation = self.registry.generation();
        let memo = &mut self.random_qos;
        if memo.generation != generation {
            memo.entries.clear();
            memo.generation = generation;
        }
        let key = (info.oid, info.level.unwrap_or(level_bounds.0), level_bounds);
        if let Some(&(_, qos)) = memo.entries.iter().find(|(k, _)| *k == key) {
            return qos;
        }
        let qos = self.policy_table.assign(info, &self.registry, level_bounds);
        // Keep the answer only if no registration raced the locked lookup:
        // the generation is monotonic and bumped under the registry mutex,
        // so an unchanged value proves the lookup saw this generation.
        if self.registry.generation() == generation {
            memo.entries.push((key, qos));
        }
        qos
    }

    /// Submits any batched sequential requests still pending, as one
    /// vectored [`StorageSystem::submit_batch`] call.
    ///
    /// [`Self::run_query`] and the stream drivers flush at every point that
    /// needs ordering (before random submits, TRIMs, and query completion);
    /// callers driving [`Self::execute_op`] directly must flush before
    /// reading storage state or time.
    pub fn flush_pending(&mut self, storage: &dyn StorageSystem) {
        if self.pending.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.pending);
        storage.submit_batch(batch);
    }

    fn pick(&mut self, range: &BlockRange) -> BlockAddr {
        if range.len <= 1 {
            return range.start;
        }
        BlockAddr(range.start.0 + self.rng.gen_range(0..range.len))
    }

    fn charge_cpu(&self, stats: &mut QueryStats, blocks: u64) {
        stats.cpu_time += self.config.cpu_time_per_block * blocks as u32;
    }
}

fn finalize(stats: &mut QueryStats, io_start: Duration, storage: &dyn StorageSystem) {
    stats.io_time = storage.now().saturating_sub(io_start);
    stats.elapsed = stats.io_time + stats.cpu_time;
}

/// Internal state of one query inside the concurrent driver.
struct ActiveQuery {
    plan: PlanTree,
    ticket: crate::concurrency::QueryTicket,
    program: RequestProgram,
    cursor: usize,
    stats: QueryStats,
    io_start: Duration,
}

/// One stream of queries for the concurrent driver.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Stream name ("stream-1", "update-stream", …).
    pub name: String,
    /// Queries to run, in order.
    pub queries: Vec<PlanTree>,
}

/// The result of one query completed by the concurrent driver.
#[derive(Debug, Clone)]
pub struct CompletedQuery {
    /// The stream the query belonged to.
    pub stream: String,
    /// Execution statistics. `elapsed` is the wall-clock (simulated) time
    /// between the query's first and last operation, so it includes the
    /// interference of the other streams — the quantity Figure 12b reports.
    pub stats: QueryStats,
}

/// Runs several query streams concurrently against one storage system.
///
/// The driver interleaves the streams' compiled programs `ops_per_slice`
/// operations at a time, which models concurrent query execution over a
/// shared storage system with a shared DBMS buffer pool. All queries are
/// registered with the executor's concurrency registry for their duration,
/// so Rule 5 governs priority assignment.
///
/// This is the *deterministic* driver: a single thread, a fixed
/// interleaving, bit-identical results run to run — the tool for
/// reproducing the paper's throughput figures. For real parallelism over OS
/// threads use [`run_threaded`].
pub fn run_concurrent(
    executor: &mut QueryExecutor,
    streams: &[StreamSpec],
    catalog: &mut Catalog,
    storage: &dyn StorageSystem,
    ops_per_slice: usize,
) -> Vec<CompletedQuery> {
    assert!(ops_per_slice > 0, "ops_per_slice must be positive");
    let mut pending: Vec<std::collections::VecDeque<PlanTree>> = streams
        .iter()
        .map(|s| s.queries.iter().cloned().collect())
        .collect();
    let mut active: Vec<Option<ActiveQuery>> = streams.iter().map(|_| None).collect();
    let mut completed = Vec::new();

    loop {
        let mut any_work = false;
        for (idx, stream) in streams.iter().enumerate() {
            // Start the next query of this stream if none is active.
            if active[idx].is_none() {
                if let Some(plan) = pending[idx].pop_front() {
                    let program = executor.compile(&plan, catalog);
                    let ticket = executor.registry.register_query(&plan);
                    let stats = QueryStats::new(&program.name);
                    active[idx] = Some(ActiveQuery {
                        plan,
                        ticket,
                        program,
                        cursor: 0,
                        stats,
                        io_start: storage.now(),
                    });
                }
            }
            let Some(query) = active[idx].as_mut() else {
                continue;
            };
            any_work = true;

            // Split borrows: the ops are read out of `program` while the
            // stats are written, so the slice executes in place — no
            // per-slice clone of the `IoOp`s.
            let ActiveQuery {
                program,
                cursor,
                stats,
                ..
            } = query;
            let end = (*cursor + ops_per_slice).min(program.ops.len());
            for op in &program.ops[*cursor..end] {
                executor.execute_op(op, program.level_bounds, catalog, storage, stats);
            }
            // The slice boundary is also the batch boundary: flushing here
            // keeps the interleaving deterministic (a stream's batched scan
            // I/O never drifts into another stream's slice) and lets the
            // completion check below observe a fully up-to-date clock.
            executor.flush_pending(storage);
            *cursor = end;

            if query.cursor >= query.program.ops.len() {
                let mut done = active[idx].take().expect("query was active");
                executor.registry.unregister_query(&done.plan, done.ticket);
                finalize(&mut done.stats, done.io_start, storage);
                completed.push(CompletedQuery {
                    stream: stream.name.clone(),
                    stats: done.stats,
                });
            }
        }
        if !any_work {
            break;
        }
    }
    completed
}

/// Runs query streams in parallel OS threads against one shared storage
/// system, over a **bounded** pool of at most
/// `min(streams.len(), available_parallelism)` threads.
///
/// Every stream gets its own [`QueryExecutor`] (with its own DBMS buffer
/// pool and a per-stream RNG seed of `config.seed + stream index`) and its
/// own clone of `catalog` for temporary-file bookkeeping, with the temp
/// region relocated to a disjoint full-size per-stream copy so concurrent
/// spills never alias each other's blocks in the shared storage; all
/// executors share `registry`, so Rule 5 priority assignment sees every
/// concurrently running query exactly as the cooperative slicer does. The
/// storage system serializes internally (lock striping in the hybrid
/// cache), so the total device traffic is the union of all streams'
/// requests — but the interleaving, and therefore per-query cache hit
/// counts, are scheduling-dependent. Use [`run_concurrent`] when bit-exact
/// reproducibility matters and `run_threaded` to exercise or measure real
/// parallelism.
///
/// Pool workers claim whole streams from a shared counter, so a workload of
/// many streams completes over a fixed number of threads instead of
/// spawning one thread per stream (the fan-out bug this replaces — 10,000
/// streams used to mean 10,000 OS threads). A stream's per-stream state
/// (seed, temp region) depends only on its *index*, not on which worker
/// runs it. At most `available_parallelism` streams run at once; for
/// latency percentiles over huge stream counts, or for open-loop request
/// traffic, use the [`crate::service`] layer instead.
///
/// Results are returned grouped by stream, in stream order.
pub fn run_threaded(
    config: ExecutorConfig,
    policy: PolicyConfig,
    registry: &ConcurrencyRegistry,
    streams: &[StreamSpec],
    catalog: &Catalog,
    storage: &Arc<dyn StorageSystem>,
) -> Vec<CompletedQuery> {
    let workers = streams.len().min(crate::service::available_parallelism());
    let next_stream = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<Mutex<Vec<CompletedQuery>>> =
        streams.iter().map(|_| Mutex::new(Vec::new())).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let next_stream = &next_stream;
            let results = &results;
            let registry = registry.clone();
            scope.spawn(move || loop {
                let idx = next_stream.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(stream) = streams.get(idx) else {
                    break;
                };
                let mut catalog = catalog.clone();
                // Relocate each stream's temp region to a disjoint,
                // full-size copy of the original (stream 0 keeps the
                // original placement), so concurrent spills never alias
                // each other's blocks in the shared storage. The block
                // address space is simulated, so stacking fresh regions
                // past the original is free; keeping the original length
                // preserves each stream's spill/wrap behaviour. A single
                // stream keeps the whole region and the parent's cursor,
                // matching plain `run_query`.
                if streams.len() > 1 {
                    let region = catalog.temp_region();
                    let start = region.start.0 + idx as u64 * region.len;
                    catalog.set_temp_region(BlockRange::new(start, region.len));
                }
                let stream_config = ExecutorConfig {
                    seed: config.seed.wrapping_add(idx as u64),
                    ..config
                };
                let mut executor =
                    QueryExecutor::with_registry(stream_config, policy, registry.clone());
                let completed: Vec<CompletedQuery> = stream
                    .queries
                    .iter()
                    .map(|plan| CompletedQuery {
                        stream: stream.name.clone(),
                        stats: executor.run_query(plan, &mut catalog, storage.as_ref()),
                    })
                    .collect();
                *results[idx].lock().expect("result slot poisoned") = completed;
            });
        }
    });
    results
        .into_iter()
        .flat_map(|slot| slot.into_inner().expect("result slot poisoned"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ObjectKind;
    use crate::plan::{Access, OperatorKind, PlanNode};
    use hstorage_cache::{HybridCache, StorageConfig, StorageConfigKind};

    fn small_catalog() -> (Catalog, crate::catalog::ObjectId, crate::catalog::ObjectId) {
        let mut cat = Catalog::new();
        let table = cat.register("orders", ObjectKind::Table, BlockRange::new(0u64, 2_000));
        let index = cat.register(
            "idx_orders",
            ObjectKind::Index,
            BlockRange::new(2_000u64, 200),
        );
        cat.set_temp_region(BlockRange::new(50_000u64, 20_000));
        (cat, table, index)
    }

    fn seq_plan(table: crate::catalog::ObjectId) -> PlanTree {
        PlanTree::new(
            "seq",
            PlanNode::node(
                OperatorKind::Aggregate,
                Access::None,
                vec![PlanNode::leaf(
                    OperatorKind::SeqScan,
                    Access::SeqScan { table, passes: 1 },
                )],
            ),
        )
    }

    fn random_plan(
        table: crate::catalog::ObjectId,
        index: crate::catalog::ObjectId,
        lookups: u64,
    ) -> PlanTree {
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
    }

    fn executor() -> QueryExecutor {
        let cfg = ExecutorConfig {
            buffer_pool_blocks: 128,
            ..ExecutorConfig::default()
        };
        QueryExecutor::new(cfg, PolicyConfig::paper_default())
    }

    #[test]
    fn sequential_query_issues_only_sequential_requests() {
        let (mut cat, table, _) = small_catalog();
        let mut exec = executor();
        let storage = StorageConfig::new(StorageConfigKind::HStorageDb, 1_000).build();
        let stats = exec.run_query(&seq_plan(table), &mut cat, storage.as_ref());
        assert_eq!(stats.blocks(RequestClass::Sequential), 2_000);
        assert_eq!(stats.requests(RequestClass::Random), 0);
        assert!(stats.elapsed > Duration::ZERO);
        assert!(stats.io_time > Duration::ZERO);
        // hStorage-DB does not cache sequentially scanned blocks.
        assert_eq!(storage.resident_blocks(), 0);
    }

    #[test]
    fn random_query_populates_cache_and_buffer_pool() {
        let (mut cat, table, index) = small_catalog();
        let mut exec = executor();
        let storage = StorageConfig::new(StorageConfigKind::HStorageDb, 5_000).build();
        let stats = exec.run_query(
            &random_plan(table, index, 3_000),
            &mut cat,
            storage.as_ref(),
        );
        assert_eq!(stats.requests(RequestClass::Sequential), 0);
        assert!(stats.blocks(RequestClass::Random) > 0);
        assert!(storage.resident_blocks() > 0);
        assert!(stats.buffer_pool_hits + stats.buffer_pool_misses == 6_000);
    }

    #[test]
    fn repeated_random_query_benefits_from_the_ssd_cache() {
        let (mut cat, table, index) = small_catalog();
        let mut exec = executor();
        let storage = StorageConfig::new(StorageConfigKind::HStorageDb, 5_000).build();
        let cold = exec.run_query(
            &random_plan(table, index, 2_000),
            &mut cat,
            storage.as_ref(),
        );
        let warm = exec.run_query(
            &random_plan(table, index, 2_000),
            &mut cat,
            storage.as_ref(),
        );
        assert!(
            warm.io_time < cold.io_time / 2,
            "warm {:?} vs cold {:?}",
            warm.io_time,
            cold.io_time
        );
    }

    #[test]
    fn temp_spill_lifecycle_reaches_storage_and_is_trimmed() {
        let (mut cat, _, _) = small_catalog();
        let plan = PlanTree::new(
            "spill",
            PlanNode::leaf(
                OperatorKind::Hash,
                Access::TempSpill {
                    blocks: 256,
                    read_passes: 1,
                },
            ),
        );
        let mut exec = executor();
        let hybrid = HybridCache::new(PolicyConfig::paper_default(), 10_000);
        let stats = exec.run_query(&plan, &mut cat, &hybrid);
        assert_eq!(stats.blocks(RequestClass::TemporaryData), 512); // write + read
        assert_eq!(stats.blocks(RequestClass::TemporaryDataTrim), 256);
        // After the TRIM at end of lifetime nothing remains cached.
        assert_eq!(hybrid.resident_blocks(), 0);
        // Temporary reads were all served from cache.
        let s = hybrid.stats();
        assert_eq!(s.class(RequestClass::TemporaryData).cache_hits, 256);
    }

    #[test]
    fn updates_go_to_the_write_buffer() {
        let (mut cat, table, _) = small_catalog();
        let plan = PlanTree::new(
            "rf1",
            PlanNode::leaf(OperatorKind::Update, Access::Update { table, blocks: 50 }),
        );
        let mut exec = executor();
        let hybrid = HybridCache::new(PolicyConfig::paper_default(), 10_000);
        let stats = exec.run_query(&plan, &mut cat, &hybrid);
        assert_eq!(stats.requests(RequestClass::Update), 50);
        let s = hybrid.stats();
        assert_eq!(s.class(RequestClass::Update).accessed_blocks, 50);
        assert!(s.action(hstorage_cache::CacheAction::WriteAllocation) > 0);
    }

    #[test]
    fn policy_assignment_reaches_storage_with_expected_priorities() {
        // A plan with index scans at two levels must produce requests at two
        // different priorities (Rule 2), which the hybrid cache tracks in
        // its per-priority statistics.
        let (mut cat, table, index) = small_catalog();
        let other_table = cat.register(
            "supplier",
            ObjectKind::Table,
            BlockRange::new(10_000u64, 200),
        );
        let other_index = cat.register(
            "idx_supplier",
            ObjectKind::Index,
            BlockRange::new(10_200u64, 20),
        );
        let low = PlanNode::leaf(
            OperatorKind::IndexScan,
            Access::IndexScan {
                index: other_index,
                table: other_table,
                lookups: 100,
                index_hot_fraction: 1.0,
                table_hot_fraction: 1.0,
            },
        );
        let join = PlanNode::node(OperatorKind::HashJoin, Access::None, vec![low]);
        let high = PlanNode::leaf(
            OperatorKind::IndexScan,
            Access::IndexScan {
                index,
                table,
                lookups: 100,
                index_hot_fraction: 0.5,
                table_hot_fraction: 0.2,
            },
        );
        let root = PlanNode::node(OperatorKind::NestedLoop, Access::None, vec![join, high]);
        let plan = PlanTree::new("two-level", root);

        let mut exec = executor();
        let hybrid = HybridCache::new(PolicyConfig::paper_default(), 10_000);
        exec.run_query(&plan, &mut cat, &hybrid);
        let s = hybrid.stats();
        assert!(s.priority(2).accessed_blocks > 0, "priority 2 traffic");
        assert!(s.priority(3).accessed_blocks > 0, "priority 3 traffic");
        let _ = QosPolicy::priority(2);
    }

    #[test]
    fn scan_batching_is_equivalent_to_unbatched_execution() {
        // With the default queue depth (1) the vectored path is not just
        // statistically but *timing*-identical to per-request submission,
        // for every op kind including spills (whose TRIM forces a flush).
        let (cat, table, index) = small_catalog();
        let spill = PlanTree::new(
            "spill",
            PlanNode::leaf(
                OperatorKind::Hash,
                Access::TempSpill {
                    blocks: 256,
                    read_passes: 1,
                },
            ),
        );
        let plans = [seq_plan(table), random_plan(table, index, 300), spill];

        let run = |io_batch_size: usize| {
            let cfg = ExecutorConfig {
                buffer_pool_blocks: 128,
                io_batch_size,
                ..ExecutorConfig::default()
            };
            let mut exec = QueryExecutor::new(cfg, PolicyConfig::paper_default());
            let mut cat = cat.clone();
            let storage = StorageConfig::new(StorageConfigKind::HStorageDb, 5_000).build();
            let stats: Vec<QueryStats> = plans
                .iter()
                .map(|p| exec.run_query(p, &mut cat, storage.as_ref()))
                .collect();
            (stats, storage.stats(), storage.now())
        };

        let (batched, batched_storage, batched_now) = run(16);
        let (unbatched, unbatched_storage, unbatched_now) = run(1);
        assert_eq!(batched, unbatched);
        assert_eq!(batched_storage, unbatched_storage);
        assert_eq!(batched_now, unbatched_now);
    }

    #[test]
    fn concurrent_driver_completes_all_queries() {
        let (mut cat, table, index) = small_catalog();
        let mut exec = executor();
        let storage = StorageConfig::new(StorageConfigKind::HStorageDb, 5_000).build();
        let streams = vec![
            StreamSpec {
                name: "s1".into(),
                queries: vec![random_plan(table, index, 500), seq_plan(table)],
            },
            StreamSpec {
                name: "s2".into(),
                queries: vec![seq_plan(table)],
            },
        ];
        let done = run_concurrent(&mut exec, &streams, &mut cat, storage.as_ref(), 16);
        assert_eq!(done.len(), 3);
        assert_eq!(exec.registry().active_queries(), 0);
        assert!(done.iter().all(|q| q.stats.elapsed > Duration::ZERO));
        let s1_count = done.iter().filter(|q| q.stream == "s1").count();
        assert_eq!(s1_count, 2);
    }

    #[test]
    fn concurrent_queries_take_longer_than_standalone() {
        let (mut cat, table, index) = small_catalog();

        // Standalone execution.
        let mut exec = executor();
        let storage = StorageConfig::new(StorageConfigKind::HddOnly, 0).build();
        let solo = exec.run_query(&random_plan(table, index, 500), &mut cat, storage.as_ref());

        // The same query with two competing sequential streams.
        let mut exec = executor();
        let storage = StorageConfig::new(StorageConfigKind::HddOnly, 0).build();
        let streams = vec![
            StreamSpec {
                name: "q".into(),
                queries: vec![random_plan(table, index, 500)],
            },
            StreamSpec {
                name: "noise1".into(),
                queries: vec![seq_plan(table)],
            },
            StreamSpec {
                name: "noise2".into(),
                queries: vec![seq_plan(table)],
            },
        ];
        let done = run_concurrent(&mut exec, &streams, &mut cat, storage.as_ref(), 8);
        let contended = &done.iter().find(|q| q.stream == "q").unwrap().stats;
        assert!(contended.elapsed > solo.elapsed);
    }

    #[test]
    fn threaded_driver_completes_all_queries_on_shared_storage() {
        let (cat, table, index) = small_catalog();
        let storage: Arc<dyn StorageSystem> =
            StorageConfig::new(StorageConfigKind::HStorageDb, 5_000)
                .with_shards(8)
                .build_shared();
        let registry = ConcurrencyRegistry::new();
        let streams = vec![
            StreamSpec {
                name: "s1".into(),
                queries: vec![random_plan(table, index, 500), seq_plan(table)],
            },
            StreamSpec {
                name: "s2".into(),
                queries: vec![seq_plan(table)],
            },
            StreamSpec {
                name: "s3".into(),
                queries: vec![random_plan(table, index, 200)],
            },
        ];
        let cfg = ExecutorConfig {
            buffer_pool_blocks: 128,
            ..ExecutorConfig::default()
        };
        let done = run_threaded(
            cfg,
            PolicyConfig::paper_default(),
            &registry,
            &streams,
            &cat,
            &storage,
        );
        assert_eq!(done.len(), 4);
        assert_eq!(registry.active_queries(), 0);
        assert!(done.iter().all(|q| q.stats.elapsed > Duration::ZERO));
        // Results are grouped by stream, in stream order.
        let order: Vec<&str> = done.iter().map(|q| q.stream.as_str()).collect();
        assert_eq!(order, ["s1", "s1", "s2", "s3"]);
    }

    /// Forwards to an inner storage system while recording every OS
    /// thread that ever touches it — ground truth for the pool bound.
    struct ThreadRecordingStorage {
        inner: Box<dyn StorageSystem>,
        threads: std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>,
    }

    impl ThreadRecordingStorage {
        fn new(inner: Box<dyn StorageSystem>) -> Self {
            ThreadRecordingStorage {
                inner,
                threads: std::sync::Mutex::new(std::collections::HashSet::new()),
            }
        }

        fn record(&self) {
            self.threads
                .lock()
                .unwrap()
                .insert(std::thread::current().id());
        }

        fn distinct_threads(&self) -> usize {
            self.threads.lock().unwrap().len()
        }
    }

    impl StorageSystem for ThreadRecordingStorage {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn submit(&self, req: ClassifiedRequest) {
            self.record();
            self.inner.submit(req);
        }
        fn submit_batch(&self, reqs: Vec<ClassifiedRequest>) {
            self.record();
            self.inner.submit_batch(reqs);
        }
        fn trim(&self, cmd: &TrimCommand) {
            self.record();
            self.inner.trim(cmd);
        }
        fn stats(&self) -> hstorage_cache::CacheStats {
            self.inner.stats()
        }
        fn now(&self) -> Duration {
            self.inner.now()
        }
        fn reset_stats(&self) {
            self.inner.reset_stats();
        }
        fn resident_blocks(&self) -> u64 {
            self.inner.resident_blocks()
        }
    }

    #[test]
    fn threaded_driver_bounds_its_thread_fan_out() {
        // Regression test for the thread-explosion bug: 10,000 single-query
        // streams used to spawn 10,000 OS threads. The pooled driver must
        // complete them all over at most `available_parallelism` workers.
        let mut cat = Catalog::new();
        let tiny = cat.register("tiny", ObjectKind::Table, BlockRange::new(0u64, 1));
        cat.set_temp_region(BlockRange::new(50_000u64, 64));
        let recorder = Arc::new(ThreadRecordingStorage::new(
            StorageConfig::new(StorageConfigKind::HStorageDb, 1_000)
                .with_shards(8)
                .build(),
        ));
        let storage: Arc<dyn StorageSystem> = recorder.clone();
        let streams: Vec<StreamSpec> = (0..10_000)
            .map(|i| StreamSpec {
                name: format!("s{i}"),
                queries: vec![seq_plan(tiny)],
            })
            .collect();
        let cfg = ExecutorConfig {
            buffer_pool_blocks: 16,
            ..ExecutorConfig::default()
        };
        let registry = ConcurrencyRegistry::new();
        let done = run_threaded(
            cfg,
            PolicyConfig::paper_default(),
            &registry,
            &streams,
            &cat,
            &storage,
        );
        assert_eq!(done.len(), 10_000);
        assert_eq!(registry.active_queries(), 0);
        // Results stay grouped by stream, in stream order.
        assert_eq!(done[0].stream, "s0");
        assert_eq!(done[9_999].stream, "s9999");
        let bound = crate::service::available_parallelism();
        let threads = recorder.distinct_threads();
        assert!(
            threads <= bound,
            "{threads} distinct submitter threads exceed the pool bound {bound}"
        );
        assert!(
            threads < 10_000,
            "thread fan-out must not scale with streams"
        );
    }

    #[test]
    fn threaded_driver_with_one_stream_matches_run_query() {
        let (cat, table, index) = small_catalog();
        let plans = vec![random_plan(table, index, 400), seq_plan(table)];
        let cfg = ExecutorConfig {
            buffer_pool_blocks: 128,
            ..ExecutorConfig::default()
        };

        let mut solo_cat = cat.clone();
        let mut exec = QueryExecutor::new(cfg, PolicyConfig::paper_default());
        let storage = StorageConfig::new(StorageConfigKind::HStorageDb, 5_000).build();
        let solo: Vec<QueryStats> = plans
            .iter()
            .map(|p| exec.run_query(p, &mut solo_cat, storage.as_ref()))
            .collect();

        let shared: Arc<dyn StorageSystem> =
            StorageConfig::new(StorageConfigKind::HStorageDb, 5_000).build_shared();
        let registry = ConcurrencyRegistry::new();
        let streams = vec![StreamSpec {
            name: "only".into(),
            queries: plans.clone(),
        }];
        let threaded = run_threaded(
            cfg,
            PolicyConfig::paper_default(),
            &registry,
            &streams,
            &cat,
            &shared,
        );
        assert_eq!(threaded.len(), solo.len());
        for (t, s) in threaded.iter().zip(&solo) {
            assert_eq!(t.stats.total_blocks(), s.total_blocks());
            assert_eq!(t.stats.total_requests(), s.total_requests());
            for class in RequestClass::all() {
                assert_eq!(t.stats.blocks(class), s.blocks(class), "{class:?}");
            }
        }
    }

    /// Plans whose random accesses reach shared objects from different
    /// levels, so registrations move both the per-object lowest level and
    /// the global bounds.
    fn rule_5_plans() -> Vec<PlanTree> {
        let index_scan = |index: u32, table: u32| {
            PlanNode::leaf(
                OperatorKind::IndexScan,
                Access::IndexScan {
                    index: ObjectId(index),
                    table: ObjectId(table),
                    lookups: 10,
                    index_hot_fraction: 1.0,
                    table_hot_fraction: 1.0,
                },
            )
        };
        let seq_scan = |table: u32| {
            PlanNode::leaf(
                OperatorKind::SeqScan,
                Access::SeqScan {
                    table: ObjectId(table),
                    passes: 1,
                },
            )
        };
        let join = |kind, children| PlanNode::node(kind, Access::None, children);
        vec![
            PlanTree::new("A", index_scan(10, 1)),
            PlanTree::new(
                "B",
                join(
                    OperatorKind::HashJoin,
                    vec![index_scan(20, 3), index_scan(10, 1)],
                ),
            ),
            PlanTree::new(
                "C",
                join(
                    OperatorKind::NestedLoop,
                    vec![
                        join(OperatorKind::HashJoin, vec![index_scan(20, 3), seq_scan(4)]),
                        index_scan(10, 1),
                    ],
                ),
            ),
            PlanTree::new(
                "D",
                join(
                    OperatorKind::Aggregate,
                    vec![join(
                        OperatorKind::NestedLoop,
                        vec![index_scan(30, 5), index_scan(20, 3)],
                    )],
                ),
            ),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Executors sharing one registry, under any interleaving of query
        /// registrations and unregistrations, always hand out the policy a
        /// fresh locked `PolicyAssignmentTable::assign` returns — the
        /// Rule-5 memo never serves an answer from a stale generation.
        #[test]
        fn memoized_policies_equal_a_fresh_assignment(
            steps in proptest::collection::vec((0u8..3, 0usize..16), 1..80),
            infos in proptest::collection::vec((0u8..6, 0usize..7, 0u32..6, 0usize..5), 1..16),
        ) {
            use proptest::prelude::prop_assert_eq;
            let oids = [1, 3, 5, 10, 20, 30, 99];
            let bounds = [(0, 0), (0, 1), (0, 2), (1, 3), (2, 2)];
            let infos: Vec<(SemanticInfo, (u32, u32))> = infos
                .into_iter()
                .map(|(kind, oid, level, b)| {
                    let oid = ObjectId(oids[oid]);
                    let info = match kind {
                        0 | 1 => SemanticInfo::random_access(
                            oid,
                            crate::semantic::ContentType::Index,
                            level,
                        ),
                        // A random access without a plan level falls back
                        // to the query's lower bound.
                        2 => SemanticInfo {
                            level: None,
                            ..SemanticInfo::random_access(
                                oid,
                                crate::semantic::ContentType::RegularTable,
                                0,
                            )
                        },
                        3 => SemanticInfo::sequential_scan(oid, level),
                        4 => SemanticInfo::update(oid),
                        _ => SemanticInfo::temporary(oid, level % 2 == 0),
                    };
                    (info, bounds[b])
                })
                .collect();
            let plans = rule_5_plans();
            let registry = ConcurrencyRegistry::new();
            let policy = PolicyConfig::paper_default();
            let table = PolicyAssignmentTable::new(policy);
            let mut executors: Vec<QueryExecutor> = (0..3)
                .map(|_| {
                    QueryExecutor::with_registry(ExecutorConfig::default(), policy, registry.clone())
                })
                .collect();
            let mut live = Vec::new();
            for (op, arg) in steps {
                match op {
                    0 => {
                        let plan = &plans[arg % plans.len()];
                        live.push((arg % plans.len(), registry.register_query(plan)));
                    }
                    1 if !live.is_empty() => {
                        let (plan, ticket) = live.swap_remove(arg % live.len());
                        registry.unregister_query(&plans[plan], ticket);
                    }
                    // Warm one executor's memo at the current generation.
                    _ => {
                        let (info, b) = &infos[arg % infos.len()];
                        let n = executors.len();
                        executors[arg % n].assign(info, *b);
                    }
                }
                for exec in &mut executors {
                    for (info, b) in &infos {
                        prop_assert_eq!(exec.assign(info, *b), table.assign(info, &registry, *b));
                    }
                }
            }
        }
    }
}
