//! The three workloads: what each builds in set-up, how it drives the
//! system, and the checks its outputs must pass.
//!
//! * `power` — the TPC-H power test (RF1, Q1–Q22 in stream-00 order, RF2)
//!   on one thread calling `QueryExecutor::run_query`: the paper's Fig. 11
//!   run. Scan-heavy; the data outgrows the SSD cache, which outgrows the
//!   buffer pool. Deterministic.
//! * `throughput` — the TPC-H throughput test (query streams 01–03 plus
//!   the RF1/RF2 update stream, repeated for a few rounds), each stream a
//!   closed loop through a `QueryService` with one worker per core: the
//!   paper's Table 9 run, and the only workload with concurrent workers,
//!   so it exercises the service queue, the Rule-5 registry and the shard
//!   locks. The cache holds a quarter of the data and evicts heavily.
//! * `oltp` — 64 closed-loop streams of short queries through a one-worker
//!   `QueryService` with the journal on: index lookups on the ORDERS and
//!   LINEITEM key indexes whose hot set fits in the SSD cache, a quarter
//!   write-buffered updates and an eighth sorts that spill and end in TRIM.
//!   Hit-dominated, per-query overhead decides its speed. Deterministic.
//!
//! The seed picks the executor's random-access stream on every workload
//! and, on `oltp`, the query mix itself.

use crate::timed::{StorageTrace, TimedStorage};
use hstorage::SystemConfig;
use hstorage_cache::{
    recover, verify_convergence, CacheEngine, CacheStats, HybridCache, JournalConfig,
    StorageConfigKind, StorageSystem,
};
use hstorage_engine::{
    compile, Access, Catalog, ConcurrencyRegistry, OperatorKind, PlanNode, PlanTree, QueryExecutor,
    QueryRequest, QueryResponse, QueryService, QueryStats, ServiceConfig,
};
use hstorage_tpch::power::power_test_sequence;
use hstorage_tpch::throughput::{query_stream, update_stream, PAPER_QUERY_STREAMS};
use hstorage_tpch::{build_plan, QueryId, TpchDatabase, TpchIndex, TpchScale, TpchTable};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the closed-loop client waits for any reply before it counts
/// the queries still in flight as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Hot fractions of the `oltp` lookups. The hot set (about 12k blocks at
/// SF 1) fits in the SSD cache (about 127k blocks) but not in the buffer
/// pool (about 3.6k blocks), so lookups are served by cache hits.
const ORDERS_INDEX_HOT: f64 = 0.5;
const ORDERS_TABLE_HOT: f64 = 0.1;
const LINEITEM_INDEX_HOT: f64 = 0.25;
const LINEITEM_TABLE_HOT: f64 = 0.03;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The TPC-H power test.
    Power,
    /// The TPC-H throughput test.
    Throughput,
    /// Short cache-resident queries with writes and the journal on.
    Oltp,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Power, Workload::Throughput, Workload::Oltp];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Power => "power",
            Workload::Throughput => "throughput",
            Workload::Oltp => "oltp",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether two runs with the same seed must produce identical
    /// simulated outputs (one thread drives the storage).
    pub fn deterministic(self) -> bool {
        self != Workload::Throughput
    }
}

/// The size of a workload run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// The workload.
    pub workload: Workload,
    /// TPC-H scale factor.
    pub scale: f64,
    /// `throughput`: how often every stream repeats its query sequence.
    pub rounds: usize,
    /// `oltp`: number of closed-loop streams.
    pub streams: usize,
    /// `oltp`: queries per stream.
    pub queries_per_stream: usize,
    /// Service worker threads (`throughput`, `oltp`).
    pub workers: usize,
    /// Service submission-queue depth (`throughput`, `oltp`).
    pub queue_depth: usize,
}

impl Spec {
    /// The benchmark's configuration of `workload`; `nproc` sizes the
    /// `throughput` worker pool.
    pub fn standard(workload: Workload, nproc: usize) -> Spec {
        let base = Spec {
            workload,
            scale: 1.0,
            rounds: 1,
            streams: 1,
            queries_per_stream: 0,
            workers: 0,
            queue_depth: 1,
        };
        match workload {
            Workload::Power => Spec { scale: 2.0, ..base },
            Workload::Throughput => Spec {
                rounds: 2,
                workers: nproc,
                queue_depth: 2,
                ..base
            },
            Workload::Oltp => Spec {
                streams: 64,
                queries_per_stream: 200,
                workers: 1,
                queue_depth: 16,
                ..base
            },
        }
    }

    /// The system configuration the workload runs against.
    pub fn system_config(&self, seed: u64) -> SystemConfig {
        let scale = TpchScale::new(self.scale);
        let mut config = match self.workload {
            Workload::Power => SystemConfig::single_query(scale, StorageConfigKind::HStorageDb),
            Workload::Throughput => SystemConfig::throughput(scale, StorageConfigKind::HStorageDb)
                .with_storage_shards(8),
            Workload::Oltp => SystemConfig::single_query(scale, StorageConfigKind::HStorageDb)
                .with_journal(JournalConfig::on()),
        };
        config.executor.seed = splitmix64(seed);
        config
    }
}

/// One step of the splitmix64 generator: a well-mixed 64-bit value from
/// any input, used to derive every random choice from the seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A workload ready to run: database, storage and query streams.
pub struct Prepared {
    spec: Spec,
    config: SystemConfig,
    catalog: Catalog,
    storage: Arc<dyn StorageSystem>,
    /// The journaled engine behind `storage` (`oltp` only).
    engine: Option<Arc<CacheEngine>>,
    streams: Vec<Vec<PlanTree>>,
    /// Wall time spent building plans, and how many were built.
    pub plan_build: Duration,
    /// Number of plans built.
    pub plans: usize,
}

/// Builds everything a run needs: the set-up the benchmark times.
pub fn prepare(spec: &Spec, seed: u64) -> Prepared {
    let config = spec.system_config(seed);
    let db = TpchDatabase::build(config.scale);
    let (storage, engine): (Arc<dyn StorageSystem>, _) = match spec.workload {
        Workload::Oltp => {
            let engine = Arc::new(journaled_engine(&config));
            (engine.clone(), Some(engine))
        }
        _ => (config.storage_config().build_shared(), None),
    };
    let started = Instant::now();
    let streams = match spec.workload {
        Workload::Power => vec![plans(&db, &power_test_sequence())],
        Workload::Throughput => {
            let mut streams: Vec<Vec<QueryId>> =
                (0..PAPER_QUERY_STREAMS).map(query_stream).collect();
            streams.push(update_stream(PAPER_QUERY_STREAMS));
            streams
                .iter()
                .map(|s| plans(&db, &s.repeat(spec.rounds)))
                .collect()
        }
        Workload::Oltp => oltp_streams(&db, spec, seed),
    };
    let plan_build = started.elapsed();
    Prepared {
        spec: *spec,
        config,
        catalog: db.catalog,
        storage,
        engine,
        plans: streams.iter().map(Vec::len).sum(),
        streams,
        plan_build,
    }
}

fn plans(db: &TpchDatabase, queries: &[QueryId]) -> Vec<PlanTree> {
    queries.iter().map(|q| build_plan(*q, db)).collect()
}

/// The `oltp` engine: the configuration's hStorage-DB cache with its
/// journal, built through the engine constructor so the benchmark keeps a
/// handle for the journal snapshot.
fn journaled_engine(config: &SystemConfig) -> CacheEngine {
    let storage = config.storage_config();
    HybridCache::with_shard_count_and_queue_depth(
        storage.policy,
        storage.cache_capacity_blocks,
        storage.shards,
        storage.queue_depth,
    )
    .with_cache_policy(storage.cache_policy)
    .with_migration(storage.migration)
    .with_journal(storage.journal)
}

/// The `oltp` query streams: every query's kind and size drawn from the
/// seed.
fn oltp_streams(db: &TpchDatabase, spec: &Spec, seed: u64) -> Vec<Vec<PlanTree>> {
    let mut state = seed;
    let mut next = |bound: u64| {
        state = splitmix64(state);
        state % bound
    };
    let lookup = |index: TpchIndex, lookups, index_hot, table_hot| {
        PlanNode::leaf(
            OperatorKind::IndexScan,
            Access::IndexScan {
                index: db.index(index),
                table: db.table(index.table()),
                lookups,
                index_hot_fraction: index_hot,
                table_hot_fraction: table_hot,
            },
        )
    };
    let orders = |n| {
        lookup(
            TpchIndex::OrdersOrderkey,
            n,
            ORDERS_INDEX_HOT,
            ORDERS_TABLE_HOT,
        )
    };
    let lines = |n| {
        lookup(
            TpchIndex::LineitemOrderkey,
            n,
            LINEITEM_INDEX_HOT,
            LINEITEM_TABLE_HOT,
        )
    };
    let update = |table, blocks| {
        PlanNode::leaf(
            OperatorKind::Update,
            Access::Update {
                table: db.table(table),
                blocks,
            },
        )
    };
    (0..spec.streams)
        .map(|_| {
            (0..spec.queries_per_stream)
                .map(|_| match next(8) {
                    0..=2 => PlanTree::new("order-lookup", orders(1 + next(4))),
                    3 | 4 => PlanTree::new(
                        "order-lines",
                        PlanNode::node(
                            OperatorKind::NestedLoop,
                            Access::None,
                            vec![orders(1 + next(2)), lines(2 + next(7))],
                        ),
                    ),
                    5 | 6 => PlanTree::new(
                        "order-update",
                        PlanNode::node(
                            OperatorKind::Result,
                            Access::None,
                            vec![
                                update(TpchTable::Orders, 1),
                                update(TpchTable::Lineitem, 2 + next(6)),
                            ],
                        ),
                    ),
                    _ => PlanTree::new(
                        "sorted-lines",
                        PlanNode::node(
                            OperatorKind::Sort,
                            Access::TempSpill {
                                blocks: 4 + next(16),
                                read_passes: 1,
                            },
                            vec![lines(4 + next(13))],
                        ),
                    ),
                })
                .collect()
        })
        .collect()
}

/// What the query service did in a traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceTrace {
    /// Wall time the client spent blocked in `QueryService::submit`.
    pub submit_wait: Duration,
    /// Number of `submit` calls.
    pub submits: u64,
    /// Wall time from each submit to its reply, in nanoseconds.
    pub reply_ns: Vec<u64>,
    /// Queries each worker completed, in worker order.
    pub per_worker_completed: Vec<u64>,
}

/// Compile cost of the run's plans, timed by the benchmark's own calls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompileTrace {
    /// Summed wall time of the `compile` calls.
    pub wall: Duration,
    /// Programs compiled.
    pub programs: u64,
    /// Operations in those programs.
    pub ops: u64,
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Wall time of the measured window.
    pub wall: Duration,
    /// Simulated time the workload took.
    pub sim: Duration,
    /// Storage statistics at the end of the run.
    pub cache: CacheStats,
    /// Blocks resident in the SSD cache at the end of the run.
    pub resident: u64,
    /// Blocks the executor requested from storage.
    pub blocks: u64,
    /// Buffer-pool hits and misses of random reads.
    pub buffer_pool: (u64, u64),
    /// Simulated latency of every completed query, in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Wall time from the start of the measured window to each query's
    /// completion, in completion order.
    pub completed_at: Vec<Duration>,
    /// Queries submitted.
    pub attempted: u64,
    /// Queries that never completed or failed a check.
    pub failed: u64,
    /// Every failed check, described.
    pub failures: Vec<String>,
    /// Threads that executed queries.
    pub executing_threads: usize,
    /// Journal records after the run (0 with the journal off).
    pub journal_len: usize,
    /// Wall time `recover` took to replay the journal after the run
    /// (`oltp` only).
    pub journal_replay: Option<Duration>,
    /// Storage-boundary measurements (traced runs only).
    pub storage_trace: Option<StorageTrace>,
    /// Compile measurements (traced runs only).
    pub compile: Option<CompileTrace>,
    /// Service measurements (traced service runs only).
    pub service: Option<ServiceTrace>,
}

/// Runs a prepared workload. A traced run wraps the storage in a
/// [`TimedStorage`] and times the benchmark's own calls into the engine.
pub fn run(prepared: Prepared, traced: bool) -> Outcome {
    let Prepared {
        spec,
        config,
        mut catalog,
        storage,
        engine,
        streams,
        ..
    } = prepared;
    let compile = traced.then(|| time_compile(&streams, &catalog, &config));
    let timed = traced.then(|| Arc::new(TimedStorage::new(storage.clone())));
    let driven: Arc<dyn StorageSystem> = match &timed {
        Some(t) => t.clone(),
        None => storage.clone(),
    };
    let capacity = config.cache_blocks;
    let registry = ConcurrencyRegistry::new();
    let started = Instant::now();
    let mut tally = Tally::new(started);
    match spec.workload {
        Workload::Power => {
            let mut executor =
                QueryExecutor::with_registry(config.executor, config.policy, registry.clone());
            for plan in streams.into_iter().flatten() {
                tally.attempted += 1;
                let before = driven.now();
                let stats = executor.run_query(&plan, &mut catalog, driven.as_ref());
                let latency = driven.now().saturating_sub(before);
                tally.complete(&plan.name, stats, latency, driven.as_ref(), capacity);
            }
        }
        Workload::Throughput | Workload::Oltp => {
            let service = ServiceConfig {
                workers: spec.workers,
                queue_depth: spec.queue_depth,
            };
            let svc = QueryService::start(
                config.executor,
                service,
                config.policy,
                &registry,
                &catalog,
                &driven,
            );
            tally.drive_closed_loop(&svc, streams, traced, driven.as_ref(), capacity);
            match catch_unwind(AssertUnwindSafe(|| svc.shutdown())) {
                Ok(per_worker) => {
                    let completed: u64 = per_worker.iter().map(|w| w.completed).sum();
                    if completed != tally.completed {
                        tally.fail(format!(
                            "workers report {completed} completions, the client saw {}",
                            tally.completed
                        ));
                    }
                    if let Some(trace) = tally.service.as_mut() {
                        trace.per_worker_completed =
                            per_worker.iter().map(|w| w.completed).collect();
                    }
                }
                Err(_) => tally.fail("a service worker panicked".to_string()),
            }
        }
    }
    let wall = started.elapsed();

    if registry.active_queries() != 0 {
        tally.fail(format!(
            "{} queries still registered after the run",
            registry.active_queries()
        ));
    }
    let resident = storage.resident_blocks();
    if resident > capacity {
        tally.fail(format!(
            "{resident} resident blocks exceed capacity {capacity}"
        ));
    }
    let journal_len = engine.as_ref().map_or(0, |e| e.journal_len());
    let journal_replay = engine.map(|engine| check_durability(&engine, &config, &mut tally));
    Outcome {
        wall,
        sim: storage.now(),
        cache: storage.stats(),
        resident,
        blocks: tally.blocks,
        buffer_pool: tally.buffer_pool,
        latencies_ns: tally.latencies_ns,
        completed_at: tally.completed_at,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        executing_threads: match spec.workload {
            Workload::Power => 1,
            _ => spec.workers,
        },
        journal_len,
        journal_replay,
        storage_trace: timed.map(|t| t.trace()),
        compile,
        service: tally.service,
    }
}

/// Compiles every plan the way `run_query` does, each against a fresh
/// copy of the catalog, and times the `compile` calls.
fn time_compile(
    streams: &[Vec<PlanTree>],
    catalog: &Catalog,
    config: &SystemConfig,
) -> CompileTrace {
    let options = config.executor.compile_options();
    let mut trace = CompileTrace::default();
    for plan in streams.iter().flatten() {
        let mut scratch = catalog.clone();
        let started = Instant::now();
        let program = compile(plan, &mut scratch, options);
        trace.wall += started.elapsed();
        trace.programs += 1;
        trace.ops += program.len() as u64;
    }
    trace
}

/// Seals the journal, recovers it into a fresh engine and checks that the
/// recovered engine converged with the live one; returns the replay's wall
/// time. Runs outside the measured window.
fn check_durability(engine: &CacheEngine, config: &SystemConfig, tally: &mut Tally) -> Duration {
    engine.journal_seal();
    let snapshot = engine
        .journal_snapshot()
        .expect("the oltp engine is built with its journal on");
    match recover(&snapshot, journaled_engine(config)) {
        Ok((recovered, outcome)) => {
            if let Err(divergences) = verify_convergence(&recovered, engine) {
                tally.fail(format!(
                    "recovered engine diverged: {}",
                    divergences.join("; ")
                ));
            }
            outcome.replay_wall
        }
        Err(e) => {
            tally.fail(format!("journal recovery failed: {e:?}"));
            Duration::ZERO
        }
    }
}

/// Accounting of one run as queries complete.
struct Tally {
    /// Start of the measured window.
    started: Instant,
    attempted: u64,
    completed: u64,
    failed: u64,
    blocks: u64,
    buffer_pool: (u64, u64),
    latencies_ns: Vec<u64>,
    completed_at: Vec<Duration>,
    failures: Vec<String>,
    service: Option<ServiceTrace>,
}

impl Tally {
    fn new(started: Instant) -> Self {
        Tally {
            started,
            attempted: 0,
            completed: 0,
            failed: 0,
            blocks: 0,
            buffer_pool: (0, 0),
            latencies_ns: Vec::new(),
            completed_at: Vec::new(),
            failures: Vec::new(),
            service: None,
        }
    }

    fn fail(&mut self, failure: String) {
        self.failures.push(failure);
    }

    /// Records one completed query and checks the cache bound.
    fn complete(
        &mut self,
        expected: &str,
        stats: QueryStats,
        latency: Duration,
        storage: &dyn StorageSystem,
        capacity: u64,
    ) {
        self.completed_at.push(self.started.elapsed());
        self.completed += 1;
        if stats.name != expected {
            self.failed += 1;
            self.fail(format!("query {expected} completed as {}", stats.name));
        }
        let resident = storage.resident_blocks();
        if resident > capacity {
            self.failed += 1;
            self.fail(format!(
                "{resident} resident blocks exceed capacity {capacity} after {expected}"
            ));
        }
        self.blocks += stats.total_blocks();
        self.buffer_pool.0 += stats.buffer_pool_hits;
        self.buffer_pool.1 += stats.buffer_pool_misses;
        self.latencies_ns
            .push(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Keeps every stream one query deep until all have run, and checks
    /// that every submitted query completes exactly once.
    fn drive_closed_loop(
        &mut self,
        svc: &QueryService,
        streams: Vec<Vec<PlanTree>>,
        traced: bool,
        storage: &dyn StorageSystem,
        capacity: u64,
    ) {
        if traced {
            self.service = Some(ServiceTrace::default());
        }
        let mut pending: Vec<VecDeque<PlanTree>> =
            streams.into_iter().map(VecDeque::from).collect();
        // Per stream: the name of the query in flight and when it was
        // submitted.
        let mut in_flight: Vec<Option<(String, Instant)>> = vec![None; pending.len()];
        let (reply, replies) = mpsc::channel::<QueryResponse>();
        for stream in 0..pending.len() {
            self.submit_next(svc, &mut pending, &mut in_flight, stream, &reply);
        }
        while in_flight.iter().any(Option::is_some) {
            let Ok(resp) = replies.recv_timeout(REPLY_TIMEOUT) else {
                let lost = in_flight.iter().filter(|q| q.is_some()).count() as u64;
                self.failed += lost;
                self.fail(format!("{lost} queries never completed"));
                return;
            };
            let Some((name, submitted)) = in_flight.get_mut(resp.stream).and_then(Option::take)
            else {
                self.failed += 1;
                self.fail(format!(
                    "stream {} got a reply it did not wait for",
                    resp.stream
                ));
                continue;
            };
            if let Some(trace) = self.service.as_mut() {
                trace
                    .reply_ns
                    .push(u64::try_from(submitted.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
            self.complete(&name, resp.stats, resp.sim_latency, storage, capacity);
            self.submit_next(svc, &mut pending, &mut in_flight, resp.stream, &reply);
        }
    }

    fn submit_next(
        &mut self,
        svc: &QueryService,
        pending: &mut [VecDeque<PlanTree>],
        in_flight: &mut [Option<(String, Instant)>],
        stream: usize,
        reply: &mpsc::Sender<QueryResponse>,
    ) {
        let Some(plan) = pending[stream].pop_front() else {
            return;
        };
        self.attempted += 1;
        let name = plan.name.clone();
        let started = Instant::now();
        let request = QueryRequest {
            stream,
            plan,
            reply: reply.clone(),
        };
        if svc.submit(request).is_err() {
            self.failed += 1;
            self.fail(format!("the service refused {name} of stream {stream}"));
            return;
        }
        if let Some(trace) = self.service.as_mut() {
            trace.submit_wait += started.elapsed();
            trace.submits += 1;
        }
        in_flight[stream] = Some((name, started));
    }
}
