//! Cache statistics.
//!
//! The paper's evaluation reports, per query and per storage configuration,
//! the number of accessed blocks and cache hits broken down by request
//! class (Tables 4, 7) and by assigned priority (Tables 5, 6). These
//! counters are collected here, along with counts of the six cache actions
//! of Section 5.1.

use hstorage_storage::{DeviceStats, RequestClass};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The six actions a cache may take for a request (Section 5.1), plus the
/// write-buffer flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CacheAction {
    /// Blocks already in cache.
    CacheHit,
    /// Blocks read from the second level into the cache.
    ReadAllocation,
    /// Blocks written into the cache.
    WriteAllocation,
    /// Blocks transferred directly between OS and second level.
    Bypassing,
    /// Cached blocks moved to a different priority group.
    ReAllocation,
    /// Cached blocks removed to make room.
    Eviction,
    /// Cached blocks invalidated by TRIM.
    Trim,
    /// Dirty write-buffer contents flushed to the second level.
    WriteBufferFlush,
}

impl CacheAction {
    /// Every action, in declaration order. The order is the array layout of
    /// [`AtomicCacheStats`]: `ALL[a.index()] == a`.
    pub const ALL: [CacheAction; 8] = [
        CacheAction::CacheHit,
        CacheAction::ReadAllocation,
        CacheAction::WriteAllocation,
        CacheAction::Bypassing,
        CacheAction::ReAllocation,
        CacheAction::Eviction,
        CacheAction::Trim,
        CacheAction::WriteBufferFlush,
    ];

    /// The action's position in [`CacheAction::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Blocks accessed vs blocks served from cache, the unit of every
/// hit-ratio table in the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassCounters {
    /// Number of blocks accessed.
    pub accessed_blocks: u64,
    /// Of those, blocks that were cache hits.
    pub cache_hits: u64,
}

impl ClassCounters {
    /// Cache hit ratio in `[0, 1]`; zero when nothing was accessed.
    pub fn hit_ratio(&self) -> f64 {
        if self.accessed_blocks == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.accessed_blocks as f64
        }
    }

    /// Cache misses.
    pub fn misses(&self) -> u64 {
        self.accessed_blocks - self.cache_hits
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &ClassCounters) {
        self.accessed_blocks += other.accessed_blocks;
        self.cache_hits += other.cache_hits;
    }
}

/// Hot-path contention diagnostics: how often the cache took a shard
/// stripe mutex versus serving a request entirely on the optimistic
/// lock-free path.
///
/// These counters describe the *execution path*, not the cache's logical
/// behaviour: two runs that make identical caching decisions can take
/// different counts depending on thread interleaving and whether the
/// optimistic read path is enabled. They are therefore excluded from
/// [`CacheStats`]'s `PartialEq` — the equivalence suites (sharded ≡
/// unsharded, batched ≡ sequential, optimistic ≡ locked) compare logical
/// state only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContentionCounters {
    /// Times a shard's stripe mutex was acquired on the submission paths
    /// (per-block work, trims, and write-buffer drains; read-only probes
    /// and statistics reads never count — they no longer take the mutex).
    pub lock_acquisitions: u64,
    /// Single-block repeat read hits served entirely through the
    /// optimistic read view, without touching the stripe mutex.
    pub fast_path_hits: u64,
}

impl ContentionCounters {
    /// Fraction of `lock_acquisitions + fast_path_hits` served on the
    /// fast path; zero when nothing was counted.
    pub fn fast_path_rate(&self) -> f64 {
        let total = self.lock_acquisitions + self.fast_path_hits;
        if total == 0 {
            0.0
        } else {
            self.fast_path_hits as f64 / total as f64
        }
    }

    /// Sums another counter set into this one.
    pub fn merge(&mut self, other: &ContentionCounters) {
        self.lock_acquisitions += other.lock_acquisitions;
        self.fast_path_hits += other.fast_path_hits;
    }
}

/// Full statistics snapshot of a storage system.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accessed blocks / hits per request class.
    pub per_class: BTreeMap<String, ClassCounters>,
    /// Accessed blocks / hits per assigned caching priority (hStorage-DB
    /// configurations only; the LRU baseline records the priority the
    /// request *would* have had, to reproduce Table 6).
    pub per_priority: BTreeMap<u8, ClassCounters>,
    /// Counts of each cache action, in blocks.
    pub actions: BTreeMap<String, u64>,
    /// Blocks currently resident in the cache.
    pub resident_blocks: u64,
    /// Statistics of the first-level (SSD) device, if present.
    pub ssd: Option<DeviceStats>,
    /// Statistics of the second-level (HDD) device, if present.
    pub hdd: Option<DeviceStats>,
    /// Lock-vs-fast-path diagnostics. Excluded from `PartialEq` (see
    /// [`ContentionCounters`]).
    pub contention: ContentionCounters,
}

/// Equality compares the cache's *logical* state — class/priority/action
/// counters, residency and device statistics — and deliberately ignores
/// [`CacheStats::contention`], which varies with thread interleaving and
/// the optimistic-read configuration without the cache behaving any
/// differently.
impl PartialEq for CacheStats {
    fn eq(&self, other: &Self) -> bool {
        self.per_class == other.per_class
            && self.per_priority == other.per_priority
            && self.actions == other.actions
            && self.resident_blocks == other.resident_blocks
            && self.ssd == other.ssd
            && self.hdd == other.hdd
    }
}

impl CacheStats {
    /// Creates an empty statistics snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `blocks` accessed of class `class`, of which `hits` were
    /// served from cache.
    pub fn record_class(&mut self, class: RequestClass, blocks: u64, hits: u64) {
        let c = self.per_class.entry(class.label().to_string()).or_default();
        c.accessed_blocks += blocks;
        c.cache_hits += hits;
    }

    /// Records `blocks` accessed at priority `prio`, of which `hits` were
    /// served from cache.
    pub fn record_priority(&mut self, prio: u8, blocks: u64, hits: u64) {
        let c = self.per_priority.entry(prio).or_default();
        c.accessed_blocks += blocks;
        c.cache_hits += hits;
    }

    /// Adds `blocks` to the counter of `action`.
    pub fn record_action(&mut self, action: CacheAction, blocks: u64) {
        *self.actions.entry(format!("{action:?}")).or_default() += blocks;
    }

    /// Counter for one request class (zero if never seen).
    pub fn class(&self, class: RequestClass) -> ClassCounters {
        self.per_class
            .get(class.label())
            .copied()
            .unwrap_or_default()
    }

    /// Counter for one priority (zero if never seen).
    pub fn priority(&self, prio: u8) -> ClassCounters {
        self.per_priority.get(&prio).copied().unwrap_or_default()
    }

    /// Count of one action (zero if never taken).
    pub fn action(&self, action: CacheAction) -> u64 {
        self.actions
            .get(&format!("{action:?}"))
            .copied()
            .unwrap_or_default()
    }

    /// Totals across all request classes.
    pub fn totals(&self) -> ClassCounters {
        let mut t = ClassCounters::default();
        for c in self.per_class.values() {
            t.merge(c);
        }
        t
    }

    /// Folds another snapshot into this one: class, priority and action
    /// counters are summed, and `resident_blocks` accumulates. Device
    /// statistics are *not* merged (shards share one device pair); the
    /// caller attaches them once on the aggregate. This is how the sharded
    /// cache's striped statistics are combined on read.
    pub fn merge(&mut self, other: &CacheStats) {
        for (class, counters) in &other.per_class {
            self.per_class
                .entry(class.clone())
                .or_default()
                .merge(counters);
        }
        for (prio, counters) in &other.per_priority {
            self.per_priority.entry(*prio).or_default().merge(counters);
        }
        for (action, count) in &other.actions {
            *self.actions.entry(action.clone()).or_default() += count;
        }
        self.resident_blocks += other.resident_blocks;
        self.contention.merge(&other.contention);
    }
}

/// Lock-free statistics for one cache shard: every counter of
/// [`CacheStats`] that the submission paths update, held on relaxed
/// [`AtomicU64`]s so recording never takes (or extends) the shard's stripe
/// mutex and reading never blocks a writer.
///
/// Aggregation is order-independent: [`AtomicCacheStats::snapshot`]
/// produces a [`CacheStats`] that merges (via [`CacheStats::merge`]) to
/// exactly what the old mutex-guarded per-shard `CacheStats` would have
/// accumulated for the same set of record calls, in any order and from any
/// number of threads. Key-presence semantics are preserved too: a counter
/// recorded with a zero amount still creates its map entry in the
/// snapshot, just as `CacheStats::record_action(a, 0)` creates a zero
/// entry (per-shard "seen" bitmasks track which keys were ever touched).
///
/// Recording is built for the per-request hot path: a seen bit is set with
/// a locked `fetch_or` only when a relaxed load shows it clear (its first
/// sighting), and a zero amount skips its `fetch_add`. A snapshot therefore
/// lists a key when its seen bit is set *or* any of its counters is
/// non-zero: a [`AtomicCacheStats::reset`] racing a record can clear the
/// bit after the recorder saw it set, but never hides the counted amount.
///
/// Individual counters are `Relaxed`; a snapshot taken while writers are
/// active is a per-counter-atomic view, not a cross-counter consistent
/// cut. Quiesced (no concurrent submits), it is exact — which is what the
/// equivalence suites and the bench gate read.
pub struct AtomicCacheStats {
    class_accessed: [AtomicU64; CLASS_SLOTS],
    class_hits: [AtomicU64; CLASS_SLOTS],
    class_seen: AtomicU64,
    prio_accessed: [AtomicU64; PRIO_SLOTS],
    prio_hits: [AtomicU64; PRIO_SLOTS],
    prio_seen: [AtomicU64; PRIO_SLOTS / 64],
    actions: [AtomicU64; ACTION_SLOTS],
    actions_seen: AtomicU64,
    lock_acquisitions: AtomicU64,
    fast_path_hits: AtomicU64,
}

const CLASS_SLOTS: usize = 5;
const PRIO_SLOTS: usize = 256;
const ACTION_SLOTS: usize = CacheAction::ALL.len();

// `[AtomicU64; 256]` has no blanket `Default`/`Debug` story that reads
// well, so both are hand-rolled: `Default` zero-fills, `Debug` shows the
// materialized snapshot instead of 500+ raw atomics.
impl Default for AtomicCacheStats {
    fn default() -> Self {
        AtomicCacheStats {
            class_accessed: std::array::from_fn(|_| AtomicU64::new(0)),
            class_hits: std::array::from_fn(|_| AtomicU64::new(0)),
            class_seen: AtomicU64::new(0),
            prio_accessed: std::array::from_fn(|_| AtomicU64::new(0)),
            prio_hits: std::array::from_fn(|_| AtomicU64::new(0)),
            prio_seen: std::array::from_fn(|_| AtomicU64::new(0)),
            actions: std::array::from_fn(|_| AtomicU64::new(0)),
            actions_seen: AtomicU64::new(0),
            lock_acquisitions: AtomicU64::new(0),
            fast_path_hits: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for AtomicCacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicCacheStats")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl AtomicCacheStats {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `blocks` accessed of class `class`, of which `hits` were
    /// served from cache. Equivalent to [`CacheStats::record_class`].
    pub fn record_class(&self, class: RequestClass, blocks: u64, hits: u64) {
        let i = class as usize;
        mark_seen(&self.class_seen, 1 << i);
        add(&self.class_accessed[i], blocks);
        add(&self.class_hits[i], hits);
    }

    /// Records `blocks` accessed at priority `prio`, of which `hits` were
    /// served from cache. Equivalent to [`CacheStats::record_priority`].
    pub fn record_priority(&self, prio: u8, blocks: u64, hits: u64) {
        let i = prio as usize;
        mark_seen(&self.prio_seen[i / 64], 1 << (i % 64));
        add(&self.prio_accessed[i], blocks);
        add(&self.prio_hits[i], hits);
    }

    /// Adds `blocks` to the counter of `action`. Equivalent to
    /// [`CacheStats::record_action`] (including the zero-amount case: the
    /// action's key appears in the snapshot even when `blocks == 0`).
    pub fn record_action(&self, action: CacheAction, blocks: u64) {
        let i = action.index();
        mark_seen(&self.actions_seen, 1 << i);
        add(&self.actions[i], blocks);
    }

    /// Counts one acquisition of the owning shard's stripe mutex.
    pub fn record_lock_acquisition(&self) {
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request served entirely on the optimistic fast path.
    pub fn record_fast_path_hit(&self) {
        self.fast_path_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Materializes the counters as a [`CacheStats`] (no device statistics
    /// and no residency — the engine attaches both on the aggregate, as it
    /// did for the locked per-shard snapshots).
    pub fn snapshot(&self) -> CacheStats {
        let mut out = CacheStats::new();
        // A key is present when its seen bit is set or a counter moved
        // (see the type docs for why both are needed).
        let counters = |seen: bool, accessed: &AtomicU64, hits: &AtomicU64| {
            let c = ClassCounters {
                accessed_blocks: accessed.load(Ordering::Relaxed),
                cache_hits: hits.load(Ordering::Relaxed),
            };
            (seen || c.accessed_blocks != 0 || c.cache_hits != 0).then_some(c)
        };
        let class_seen = self.class_seen.load(Ordering::Relaxed);
        for (i, class) in RequestClass::all().iter().enumerate() {
            let seen = class_seen & (1 << i) != 0;
            if let Some(c) = counters(seen, &self.class_accessed[i], &self.class_hits[i]) {
                out.per_class.insert(class.label().to_string(), c);
            }
        }
        for i in 0..PRIO_SLOTS {
            let seen = self.prio_seen[i / 64].load(Ordering::Relaxed) & (1 << (i % 64)) != 0;
            if let Some(c) = counters(seen, &self.prio_accessed[i], &self.prio_hits[i]) {
                out.per_priority.insert(i as u8, c);
            }
        }
        let actions_seen = self.actions_seen.load(Ordering::Relaxed);
        for (i, action) in CacheAction::ALL.iter().enumerate() {
            let blocks = self.actions[i].load(Ordering::Relaxed);
            if actions_seen & (1 << i) != 0 || blocks != 0 {
                out.actions.insert(format!("{action:?}"), blocks);
            }
        }
        out.contention = ContentionCounters {
            lock_acquisitions: self.lock_acquisitions.load(Ordering::Relaxed),
            fast_path_hits: self.fast_path_hits.load(Ordering::Relaxed),
        };
        out
    }

    /// Zeroes every counter and every "seen" mask.
    pub fn reset(&self) {
        for a in self
            .class_accessed
            .iter()
            .chain(self.class_hits.iter())
            .chain(self.prio_accessed.iter())
            .chain(self.prio_hits.iter())
            .chain(self.prio_seen.iter())
            .chain(self.actions.iter())
        {
            a.store(0, Ordering::Relaxed);
        }
        self.class_seen.store(0, Ordering::Relaxed);
        self.actions_seen.store(0, Ordering::Relaxed);
        self.lock_acquisitions.store(0, Ordering::Relaxed);
        self.fast_path_hits.store(0, Ordering::Relaxed);
    }
}

/// Sets `bit` in a seen mask, paying for the locked read-modify-write only
/// on the bit's first sighting.
fn mark_seen(mask: &AtomicU64, bit: u64) {
    if mask.load(Ordering::Relaxed) & bit == 0 {
        mask.fetch_or(bit, Ordering::Relaxed);
    }
}

/// Adds `n` to a counter, skipping the locked add when there is nothing to
/// add.
fn add(counter: &AtomicU64, n: u64) {
    if n != 0 {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// Single-threaded twin of [`AtomicCacheStats`]: the same fixed
/// enum-indexed counter arrays, on plain `u64`s behind `&mut self`, for
/// systems that already serialize recording under one mutex (the LRU
/// baseline cache and the passthrough configurations).
///
/// Recording is a bounds-checked array add — no `BTreeMap` walk, no key
/// allocation — and the map-shaped [`CacheStats`] is rendered only at
/// [`LocalCacheStats::snapshot`] time. Key-presence semantics match
/// [`CacheStats`] exactly: a zero-amount record still creates its map
/// entry in the snapshot (per-slot "seen" bitmasks).
#[derive(Debug)]
pub struct LocalCacheStats {
    class_accessed: [u64; CLASS_SLOTS],
    class_hits: [u64; CLASS_SLOTS],
    class_seen: u64,
    prio_accessed: [u64; PRIO_SLOTS],
    prio_hits: [u64; PRIO_SLOTS],
    prio_seen: [u64; PRIO_SLOTS / 64],
    actions: [u64; ACTION_SLOTS],
    actions_seen: u64,
}

impl Default for LocalCacheStats {
    fn default() -> Self {
        LocalCacheStats {
            class_accessed: [0; CLASS_SLOTS],
            class_hits: [0; CLASS_SLOTS],
            class_seen: 0,
            prio_accessed: [0; PRIO_SLOTS],
            prio_hits: [0; PRIO_SLOTS],
            prio_seen: [0; PRIO_SLOTS / 64],
            actions: [0; ACTION_SLOTS],
            actions_seen: 0,
        }
    }
}

impl LocalCacheStats {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `blocks` accessed of class `class`, of which `hits` were
    /// served from cache. Equivalent to [`CacheStats::record_class`].
    pub fn record_class(&mut self, class: RequestClass, blocks: u64, hits: u64) {
        let i = class as usize;
        self.class_seen |= 1 << i;
        self.class_accessed[i] += blocks;
        self.class_hits[i] += hits;
    }

    /// Records `blocks` accessed at priority `prio`, of which `hits` were
    /// served from cache. Equivalent to [`CacheStats::record_priority`].
    pub fn record_priority(&mut self, prio: u8, blocks: u64, hits: u64) {
        let i = prio as usize;
        self.prio_seen[i / 64] |= 1 << (i % 64);
        self.prio_accessed[i] += blocks;
        self.prio_hits[i] += hits;
    }

    /// Adds `blocks` to the counter of `action`. Equivalent to
    /// [`CacheStats::record_action`] (including the zero-amount case).
    pub fn record_action(&mut self, action: CacheAction, blocks: u64) {
        let i = action.index();
        self.actions_seen |= 1 << i;
        self.actions[i] += blocks;
    }

    /// Materializes the counters as a [`CacheStats`] (no device statistics
    /// and no residency — the owning system attaches both).
    pub fn snapshot(&self) -> CacheStats {
        let mut out = CacheStats::new();
        for (i, class) in RequestClass::all().iter().enumerate() {
            if self.class_seen & (1 << i) != 0 {
                out.per_class.insert(
                    class.label().to_string(),
                    ClassCounters {
                        accessed_blocks: self.class_accessed[i],
                        cache_hits: self.class_hits[i],
                    },
                );
            }
        }
        for i in 0..PRIO_SLOTS {
            if self.prio_seen[i / 64] & (1 << (i % 64)) != 0 {
                out.per_priority.insert(
                    i as u8,
                    ClassCounters {
                        accessed_blocks: self.prio_accessed[i],
                        cache_hits: self.prio_hits[i],
                    },
                );
            }
        }
        for (i, action) in CacheAction::ALL.iter().enumerate() {
            if self.actions_seen & (1 << i) != 0 {
                out.actions.insert(format!("{action:?}"), self.actions[i]);
            }
        }
        out
    }

    /// Zeroes every counter and every "seen" mask.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Exact-sample latency recorder with nearest-rank percentile queries.
///
/// The service layer records one sample per completed request (simulated
/// time between submission pickup and completion), and the benches report
/// p50/p99/p999 from the full sample set — no bucketing, no interpolation,
/// so the percentiles are deterministic for a deterministic workload.
/// Samples are stored as whole nanoseconds.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Recorded samples in nanoseconds, in arrival order.
    samples: Vec<u64>,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample (truncated to whole nanoseconds).
    pub fn record(&mut self, latency: Duration) {
        self.samples
            .push(latency.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Folds another histogram's samples into this one. Percentiles are
    /// order-independent, so merging per-worker histograms in any order
    /// yields the same summary.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `q`-th percentile (`0 < q <= 100`) by the nearest-rank method:
    /// the smallest recorded sample such that at least `q` percent of all
    /// samples are `<=` it. `None` when empty. `q` values at or below zero
    /// return the minimum sample; values above 100 the maximum.
    pub fn percentile(&self, q: f64) -> Option<Duration> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        // Relative guard before ceil(): 99.9% of 10,000 computes to a hair
        // above 9,990.0 in f64, which would otherwise skip to rank 9,991.
        let exact = q * n as f64 / 100.0;
        let rank = (exact - exact.abs() * 1e-12).ceil() as usize;
        Some(Duration::from_nanos(sorted[rank.clamp(1, n) - 1]))
    }

    /// Median latency (`None` when empty).
    pub fn p50(&self) -> Option<Duration> {
        self.percentile(50.0)
    }

    /// 99th-percentile latency (`None` when empty).
    pub fn p99(&self) -> Option<Duration> {
        self.percentile(99.0)
    }

    /// 99.9th-percentile latency (`None` when empty).
    pub fn p999(&self) -> Option<Duration> {
        self.percentile(99.9)
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<Duration> {
        self.samples.iter().max().map(|&n| Duration::from_nanos(n))
    }

    /// Arithmetic mean of the samples (`None` when empty).
    pub fn mean(&self) -> Option<Duration> {
        if self.samples.is_empty() {
            return None;
        }
        let sum: u128 = self.samples.iter().map(|&n| n as u128).sum();
        Some(Duration::from_nanos(
            (sum / self.samples.len() as u128) as u64,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_and_misses() {
        let c = ClassCounters {
            accessed_blocks: 200,
            cache_hits: 50,
        };
        assert!((c.hit_ratio() - 0.25).abs() < 1e-9);
        assert_eq!(c.misses(), 150);
        assert_eq!(ClassCounters::default().hit_ratio(), 0.0);
    }

    #[test]
    fn record_and_query_by_class_and_priority() {
        let mut s = CacheStats::new();
        s.record_class(RequestClass::Random, 100, 90);
        s.record_class(RequestClass::Random, 10, 0);
        s.record_class(RequestClass::Sequential, 1000, 3);
        s.record_priority(2, 100, 90);
        s.record_priority(3, 10, 0);

        assert_eq!(s.class(RequestClass::Random).accessed_blocks, 110);
        assert_eq!(s.class(RequestClass::Random).cache_hits, 90);
        assert_eq!(s.class(RequestClass::Sequential).cache_hits, 3);
        assert_eq!(s.class(RequestClass::Update), ClassCounters::default());
        assert_eq!(s.priority(2).cache_hits, 90);
        assert_eq!(s.totals().accessed_blocks, 1110);
    }

    #[test]
    fn merge_sums_counters_and_residents() {
        let mut a = CacheStats::new();
        a.record_class(RequestClass::Random, 100, 40);
        a.record_priority(2, 100, 40);
        a.record_action(CacheAction::Eviction, 3);
        a.resident_blocks = 10;

        let mut b = CacheStats::new();
        b.record_class(RequestClass::Random, 50, 10);
        b.record_class(RequestClass::Sequential, 5, 0);
        b.record_action(CacheAction::Eviction, 1);
        b.record_action(CacheAction::Bypassing, 9);
        b.resident_blocks = 7;

        a.merge(&b);
        assert_eq!(a.class(RequestClass::Random).accessed_blocks, 150);
        assert_eq!(a.class(RequestClass::Random).cache_hits, 50);
        assert_eq!(a.class(RequestClass::Sequential).accessed_blocks, 5);
        assert_eq!(a.priority(2).cache_hits, 40);
        assert_eq!(a.action(CacheAction::Eviction), 4);
        assert_eq!(a.action(CacheAction::Bypassing), 9);
        assert_eq!(a.resident_blocks, 17);
    }

    #[test]
    fn merge_of_empty_snapshots_is_empty() {
        let mut a = CacheStats::new();
        a.merge(&CacheStats::new());
        assert_eq!(a, CacheStats::new());
    }

    #[test]
    fn merge_into_empty_copies_cache_level_state() {
        // Aggregating a single shard must reproduce its cache-level
        // counters exactly — the N=1 case of the sharded stats read path.
        let mut shard = CacheStats::new();
        shard.record_class(RequestClass::Update, 42, 7);
        shard.record_priority(0, 42, 7);
        shard.record_action(CacheAction::WriteBufferFlush, 11);
        shard.resident_blocks = 3;

        let mut aggregate = CacheStats::new();
        aggregate.merge(&shard);
        assert_eq!(aggregate, shard);
    }

    #[test]
    fn merge_with_empty_other_is_identity() {
        let mut a = CacheStats::new();
        a.record_class(RequestClass::Random, 10, 4);
        a.record_action(CacheAction::Eviction, 2);
        a.resident_blocks = 5;
        let before = a.clone();
        a.merge(&CacheStats::new());
        assert_eq!(a, before);
    }

    #[test]
    fn merge_handles_asymmetric_shards() {
        // Shards only record what they saw: counters present on one side
        // and absent on the other must survive the merge in both
        // directions.
        let mut a = CacheStats::new();
        a.record_class(RequestClass::Random, 100, 40);
        a.record_priority(2, 100, 40);
        a.record_action(CacheAction::ReadAllocation, 60);

        let mut b = CacheStats::new();
        b.record_class(RequestClass::TemporaryData, 30, 30);
        b.record_priority(1, 30, 30);
        b.record_action(CacheAction::Trim, 30);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        // Merge is commutative on cache-level state.
        assert_eq!(ab, ba);
        assert_eq!(ab.class(RequestClass::Random).accessed_blocks, 100);
        assert_eq!(ab.class(RequestClass::TemporaryData).cache_hits, 30);
        assert_eq!(ab.priority(1).accessed_blocks, 30);
        assert_eq!(ab.priority(2).cache_hits, 40);
        assert_eq!(ab.action(CacheAction::ReadAllocation), 60);
        assert_eq!(ab.action(CacheAction::Trim), 30);
        assert_eq!(ab.totals().accessed_blocks, 130);
    }

    #[test]
    fn merge_never_touches_device_stats() {
        // Shards share one device pair, so per-shard snapshots must not
        // contribute device stats: the caller attaches them once on the
        // aggregate.
        let mut other = CacheStats::new();
        other.ssd = Some(hstorage_storage::DeviceStats {
            blocks_read: 999,
            ..Default::default()
        });
        other.hdd = Some(hstorage_storage::DeviceStats::default());

        let mut aggregate = CacheStats::new();
        aggregate.merge(&other);
        assert_eq!(aggregate.ssd, None);
        assert_eq!(aggregate.hdd, None);

        // And an aggregate that already has device stats keeps its own.
        let mine = hstorage_storage::DeviceStats {
            blocks_written: 5,
            ..Default::default()
        };
        aggregate.ssd = Some(mine.clone());
        aggregate.merge(&other);
        assert_eq!(aggregate.ssd, Some(mine));
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p99(), None);
        assert_eq!(h.p999(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(100.0), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(42));
        let v = Some(Duration::from_micros(42));
        assert_eq!(h.len(), 1);
        assert_eq!(h.percentile(0.0), v);
        assert_eq!(h.p50(), v);
        assert_eq!(h.p99(), v);
        assert_eq!(h.p999(), v);
        assert_eq!(h.percentile(100.0), v);
        assert_eq!(h.max(), v);
        assert_eq!(h.mean(), v);
    }

    #[test]
    fn nearest_rank_percentiles_on_a_known_set() {
        // 1..=10 ms: nearest rank for q% of 10 samples is ceil(q/10).
        let mut h = LatencyHistogram::new();
        for ms in 1..=10u64 {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.p50(), Some(Duration::from_millis(5)));
        assert_eq!(h.percentile(90.0), Some(Duration::from_millis(9)));
        assert_eq!(h.percentile(91.0), Some(Duration::from_millis(10)));
        assert_eq!(h.p99(), Some(Duration::from_millis(10)));
        assert_eq!(h.percentile(100.0), Some(Duration::from_millis(10)));
        // Out-of-range q values clamp to the extremes instead of panicking.
        assert_eq!(h.percentile(-3.0), Some(Duration::from_millis(1)));
        assert_eq!(h.percentile(250.0), Some(Duration::from_millis(10)));
        assert_eq!(h.mean(), Some(Duration::from_nanos(5_500_000)));
    }

    #[test]
    fn heavy_tail_separates_the_high_percentiles() {
        // 9,990 fast requests and 10 slow stragglers: the tail must be
        // invisible at p50/p99 and dominate p999/max.
        let mut h = LatencyHistogram::new();
        for _ in 0..9_990 {
            h.record(Duration::from_micros(100));
        }
        for _ in 0..10 {
            h.record(Duration::from_secs(1));
        }
        assert_eq!(h.p50(), Some(Duration::from_micros(100)));
        assert_eq!(h.p99(), Some(Duration::from_micros(100)));
        // rank(99.9% of 10,000) = 9,990 → still fast; 99.91 crosses over.
        assert_eq!(h.p999(), Some(Duration::from_micros(100)));
        assert_eq!(h.percentile(99.91), Some(Duration::from_secs(1)));
        assert_eq!(h.max(), Some(Duration::from_secs(1)));
        // Recording order does not matter: an interleaved twin agrees.
        let mut twin = LatencyHistogram::new();
        for i in 0..10_000u64 {
            if i % 1_000 == 0 {
                twin.record(Duration::from_secs(1));
            } else {
                twin.record(Duration::from_micros(100));
            }
        }
        for q in [50.0, 99.0, 99.9, 99.91, 100.0] {
            assert_eq!(h.percentile(q), twin.percentile(q), "q = {q}");
        }
    }

    #[test]
    fn merge_concatenates_samples() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for ms in 1..=5u64 {
            a.record(Duration::from_millis(ms));
        }
        for ms in 6..=10u64 {
            b.record(Duration::from_millis(ms));
        }
        a.merge(&b);
        assert_eq!(a.len(), 10);
        assert_eq!(a.p50(), Some(Duration::from_millis(5)));
        assert_eq!(a.max(), Some(Duration::from_millis(10)));
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn atomic_stats_snapshot_matches_locked_recording() {
        // The same record calls against the atomic and the mutex-era
        // mutable stats must materialize identical snapshots.
        let atomic = AtomicCacheStats::new();
        let mut locked = CacheStats::new();
        for (class, blocks, hits) in [
            (RequestClass::Random, 100, 90),
            (RequestClass::Random, 10, 0),
            (RequestClass::Sequential, 1_000, 3),
        ] {
            atomic.record_class(class, blocks, hits);
            locked.record_class(class, blocks, hits);
        }
        for (prio, blocks, hits) in [(2u8, 100, 90), (3, 10, 0), (2, 5, 5)] {
            atomic.record_priority(prio, blocks, hits);
            locked.record_priority(prio, blocks, hits);
        }
        for (action, blocks) in [
            (CacheAction::CacheHit, 98),
            (CacheAction::Eviction, 4),
            (CacheAction::CacheHit, 1),
        ] {
            atomic.record_action(action, blocks);
            locked.record_action(action, blocks);
        }
        assert_eq!(atomic.snapshot(), locked);
    }

    #[test]
    fn atomic_zero_amount_records_create_their_keys() {
        // BTreeMap presence semantics: recording zero still creates the
        // entry, and the equivalence suites compare whole maps.
        let atomic = AtomicCacheStats::new();
        let mut locked = CacheStats::new();
        atomic.record_action(CacheAction::WriteBufferFlush, 0);
        locked.record_action(CacheAction::WriteBufferFlush, 0);
        atomic.record_class(RequestClass::Update, 0, 0);
        locked.record_class(RequestClass::Update, 0, 0);
        atomic.record_priority(7, 0, 0);
        locked.record_priority(7, 0, 0);
        let snap = atomic.snapshot();
        assert_eq!(snap, locked);
        assert!(snap.actions.contains_key("WriteBufferFlush"));
        assert!(snap.per_class.contains_key("update"));
        assert!(snap.per_priority.contains_key(&7));
        // A repeat finds the seen bit set and changes nothing; after a
        // reset the bit is clear again and a zero record must set it anew.
        atomic.record_action(CacheAction::WriteBufferFlush, 0);
        assert_eq!(atomic.snapshot(), locked);
        atomic.reset();
        atomic.record_action(CacheAction::WriteBufferFlush, 0);
        assert_eq!(atomic.snapshot().actions.get("WriteBufferFlush"), Some(&0));
    }

    #[test]
    fn atomic_reset_clears_counters_and_presence() {
        let atomic = AtomicCacheStats::new();
        atomic.record_class(RequestClass::Random, 10, 4);
        atomic.record_priority(2, 10, 4);
        atomic.record_action(CacheAction::CacheHit, 4);
        atomic.record_lock_acquisition();
        atomic.record_fast_path_hit();
        atomic.reset();
        let snap = atomic.snapshot();
        assert_eq!(snap, CacheStats::new());
        assert!(snap.per_class.is_empty());
        assert!(snap.actions.is_empty());
        assert_eq!(snap.contention, ContentionCounters::default());
        // Recording again after the reset must set the cleared seen bits
        // anew, so every key shows up again.
        atomic.record_class(RequestClass::Random, 3, 1);
        atomic.record_priority(2, 3, 1);
        atomic.record_action(CacheAction::CacheHit, 1);
        let mut locked = CacheStats::new();
        locked.record_class(RequestClass::Random, 3, 1);
        locked.record_priority(2, 3, 1);
        locked.record_action(CacheAction::CacheHit, 1);
        assert_eq!(atomic.snapshot(), locked);
    }

    #[test]
    fn atomic_snapshot_lists_every_slot_with_a_non_zero_counter() {
        // A reset racing a record can clear a seen bit the recorder had
        // already found set, leaving a counted amount with a clear bit;
        // the snapshot must still list that key. Reproduced by writing the
        // counters directly.
        let atomic = AtomicCacheStats::new();
        atomic.class_hits[RequestClass::Update as usize].store(2, Ordering::Relaxed);
        atomic.class_accessed[RequestClass::Sequential as usize].store(5, Ordering::Relaxed);
        atomic.prio_hits[200].store(1, Ordering::Relaxed);
        atomic.prio_accessed[3].store(9, Ordering::Relaxed);
        atomic.actions[CacheAction::Trim.index()].store(7, Ordering::Relaxed);
        let snap = atomic.snapshot();
        assert_eq!(snap.class(RequestClass::Update).cache_hits, 2);
        assert_eq!(snap.class(RequestClass::Sequential).accessed_blocks, 5);
        assert_eq!(snap.per_class.len(), 2);
        assert_eq!(
            snap.per_priority.keys().copied().collect::<Vec<_>>(),
            [3, 200]
        );
        assert_eq!(snap.priority(200).cache_hits, 1);
        assert_eq!(snap.priority(3).accessed_blocks, 9);
        assert_eq!(snap.actions.len(), 1);
        assert_eq!(snap.action(CacheAction::Trim), 7);
    }

    #[test]
    fn contention_is_excluded_from_equality_but_merged() {
        let mut a = CacheStats::new();
        a.record_class(RequestClass::Random, 10, 4);
        let mut b = a.clone();
        b.contention.lock_acquisitions = 99;
        b.contention.fast_path_hits = 1;
        // Same logical state, different execution paths: still equal.
        assert_eq!(a, b);
        a.merge(&b);
        assert_eq!(a.contention.lock_acquisitions, 99);
        assert_eq!(a.contention.fast_path_hits, 1);
        assert!((b.contention.fast_path_rate() - 0.01).abs() < 1e-9);
        assert_eq!(ContentionCounters::default().fast_path_rate(), 0.0);
    }

    #[test]
    fn local_stats_snapshot_matches_locked_recording() {
        let mut local = LocalCacheStats::new();
        let mut locked = CacheStats::new();
        for (class, blocks, hits) in [
            (RequestClass::Random, 100, 90),
            (RequestClass::Random, 10, 0),
            (RequestClass::Sequential, 1_000, 3),
        ] {
            local.record_class(class, blocks, hits);
            locked.record_class(class, blocks, hits);
        }
        for (prio, blocks, hits) in [(2u8, 100, 90), (3, 10, 0), (2, 5, 5)] {
            local.record_priority(prio, blocks, hits);
            locked.record_priority(prio, blocks, hits);
        }
        for (action, blocks) in [
            (CacheAction::CacheHit, 98),
            (CacheAction::Eviction, 4),
            (CacheAction::Trim, 0),
        ] {
            local.record_action(action, blocks);
            locked.record_action(action, blocks);
        }
        assert_eq!(local.snapshot(), locked);
        // Zero-amount records still create their keys, as in the map path.
        assert!(local.snapshot().actions.contains_key("Trim"));
        local.reset();
        assert_eq!(local.snapshot(), CacheStats::new());
    }

    #[test]
    fn enum_indexed_counters_render_the_exact_legacy_key_strings() {
        // The enum-indexed hot-path counters are an internal layout
        // change: the rendered snapshot is the wire format (serialized in
        // bench reports and compared across versions), so the BTreeMap
        // keys must stay byte-identical to the strings the old map-based
        // recording produced. Both the atomic and the local twin are
        // pinned here.
        let atomic = AtomicCacheStats::new();
        let mut local = LocalCacheStats::new();
        for class in RequestClass::all() {
            atomic.record_class(class, 1, 1);
            local.record_class(class, 1, 1);
        }
        for action in CacheAction::ALL {
            atomic.record_action(action, 1);
            local.record_action(action, 1);
        }
        for prio in [0u8, 1, 2, 7, 255] {
            atomic.record_priority(prio, 1, 0);
            local.record_priority(prio, 1, 0);
        }
        for snap in [atomic.snapshot(), local.snapshot()] {
            let classes: Vec<&str> = snap.per_class.keys().map(String::as_str).collect();
            assert_eq!(
                classes,
                ["random", "sequential", "temp-trim", "temporary", "update"],
                "per_class keys must keep the legacy label strings"
            );
            let actions: Vec<&str> = snap.actions.keys().map(String::as_str).collect();
            assert_eq!(
                actions,
                [
                    "Bypassing",
                    "CacheHit",
                    "Eviction",
                    "ReAllocation",
                    "ReadAllocation",
                    "Trim",
                    "WriteAllocation",
                    "WriteBufferFlush",
                ],
                "actions keys must keep the legacy Debug-format strings"
            );
            let prios: Vec<u8> = snap.per_priority.keys().copied().collect();
            assert_eq!(prios, [0, 1, 2, 7, 255]);
        }
    }

    #[test]
    fn actions_accumulate() {
        let mut s = CacheStats::new();
        s.record_action(CacheAction::Eviction, 5);
        s.record_action(CacheAction::Eviction, 7);
        s.record_action(CacheAction::Bypassing, 3);
        assert_eq!(s.action(CacheAction::Eviction), 12);
        assert_eq!(s.action(CacheAction::Bypassing), 3);
        assert_eq!(s.action(CacheAction::CacheHit), 0);
    }
}
