//! A timing decorator over the storage interface.
//!
//! [`TimedStorage`] wraps the `Arc<dyn StorageSystem>` the engine is handed
//! and times every call into the cache layer from outside the program. It
//! forwards each call unchanged — `submit_batch` to the inner batch path,
//! not the trait's per-request default — so the simulated outcome of a
//! traced run is identical to an untraced one.
//!
//! Besides per-operation wall time it measures the executor's own time:
//! on every thread, the wall between the end of one storage call and the
//! start of the next belongs to the executor, except the gap after
//! `migrate_idle`, which the executor issues as its last call of every
//! query — that gap covers the benchmark's or the service's loop and the next
//! query's compile, which the benchmark times on its own.

use hstorage_cache::{CacheStats, MigrationStats, StorageSystem};
use hstorage_storage::{ClassifiedRequest, TrimCommand};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The storage calls the decorator times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `StorageSystem::submit`.
    Submit,
    /// `StorageSystem::submit_batch`.
    SubmitBatch,
    /// `StorageSystem::trim`.
    Trim,
    /// `StorageSystem::migrate_idle`, the executor's query-boundary pulse.
    MigrateIdle,
}

/// Calls and summed wall time of one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTotals {
    /// Number of calls.
    pub calls: u64,
    /// Summed wall time of the calls, in nanoseconds.
    pub ns: u64,
}

impl OpTotals {
    /// Mean wall nanoseconds per call (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Everything a traced run measured at the storage boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageTrace {
    /// Per-operation totals, indexed by `Op as usize`.
    pub ops: [OpTotals; 4],
    /// Requests carried by `submit_batch` calls.
    pub batched_requests: u64,
    /// Executor wall between storage calls inside queries, summed over
    /// threads, in nanoseconds.
    pub executor_gap_ns: u64,
}

impl StorageTrace {
    /// Totals of one operation.
    pub fn op(&self, op: Op) -> OpTotals {
        self.ops[op as usize]
    }

    /// Wall time spent inside storage calls, summed over threads.
    pub fn storage_ns(&self) -> u64 {
        self.ops.iter().map(|o| o.ns).sum()
    }

    /// Calls that mutate the cache through the journaled entry points
    /// (`submit`, `submit_batch`, `trim`).
    pub fn mutating_calls(&self) -> u64 {
        [Op::Submit, Op::SubmitBatch, Op::Trim]
            .into_iter()
            .map(|op| self.op(op).calls)
            .sum()
    }
}

#[derive(Default)]
struct Counter {
    calls: AtomicU64,
    ns: AtomicU64,
}

/// Where the calling thread's previous storage call ended.
#[derive(Clone, Copy)]
struct LastCall {
    decorator: u64,
    end: Instant,
    boundary: bool,
}

thread_local! {
    static LAST_CALL: Cell<Option<LastCall>> = const { Cell::new(None) };
}

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// The timing decorator. Build one per run; read it with
/// [`TimedStorage::trace`] once the run's threads have stopped.
pub struct TimedStorage {
    inner: Arc<dyn StorageSystem>,
    id: u64,
    ops: [Counter; 4],
    batched_requests: AtomicU64,
    executor_gap_ns: AtomicU64,
}

impl TimedStorage {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn StorageSystem>) -> Self {
        TimedStorage {
            inner,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            ops: Default::default(),
            batched_requests: AtomicU64::new(0),
            executor_gap_ns: AtomicU64::new(0),
        }
    }

    /// What the decorator has measured so far.
    pub fn trace(&self) -> StorageTrace {
        let mut trace = StorageTrace {
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            executor_gap_ns: self.executor_gap_ns.load(Ordering::Relaxed),
            ..StorageTrace::default()
        };
        for (totals, counter) in trace.ops.iter_mut().zip(&self.ops) {
            totals.calls = counter.calls.load(Ordering::Relaxed);
            totals.ns = counter.ns.load(Ordering::Relaxed);
        }
        trace
    }

    // The counters are statistics that publish no other data, so every
    // atomic here is `Relaxed`; `trace` is read after the run's threads
    // have been joined.
    fn timed<R>(&self, op: Op, call: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = call();
        let end = Instant::now();
        let counter = &self.ops[op as usize];
        counter.calls.fetch_add(1, Ordering::Relaxed);
        counter.ns.fetch_add(nanos(end - start), Ordering::Relaxed);
        let previous = LAST_CALL.replace(Some(LastCall {
            decorator: self.id,
            end,
            boundary: op == Op::MigrateIdle,
        }));
        if let Some(last) = previous.filter(|l| l.decorator == self.id && !l.boundary) {
            self.executor_gap_ns.fetch_add(
                nanos(start.saturating_duration_since(last.end)),
                Ordering::Relaxed,
            );
        }
        result
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl StorageSystem for TimedStorage {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn submit(&self, req: ClassifiedRequest) {
        self.timed(Op::Submit, || self.inner.submit(req));
    }

    fn submit_batch(&self, reqs: Vec<ClassifiedRequest>) {
        self.batched_requests
            .fetch_add(reqs.len() as u64, Ordering::Relaxed);
        self.timed(Op::SubmitBatch, || self.inner.submit_batch(reqs));
    }

    fn trim(&self, cmd: &TrimCommand) {
        self.timed(Op::Trim, || self.inner.trim(cmd));
    }

    fn stats(&self) -> CacheStats {
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

    fn migrate_idle(&self) -> MigrationStats {
        self.timed(Op::MigrateIdle, || self.inner.migrate_idle())
    }

    fn migration_stats(&self) -> MigrationStats {
        self.inner.migration_stats()
    }
}
