//! The policy-agnostic cache engine (mechanism half of the hybrid cache).
//!
//! An SSD works as a cache for an HDD. The engine owns everything that is
//! *mechanism*: lock-striped shards, the physical slot allocator, block
//! metadata and clean/dirty state, write-buffer occupancy accounting,
//! statistics, and the per-request / vectored device submission paths.
//! Every *decision* — admission, victim selection, promotion on hit — is
//! delegated to a per-shard [`CachePolicy`] instance, so one engine serves
//! the paper's semantic priority policy and any classical baseline (LRU,
//! CFLRU, 2Q, or a custom policy) interchangeably.
//!
//! The six actions of Section 5.1 (cache hit, read allocation, write
//! allocation, bypassing, re-allocation, eviction) are all implemented and
//! counted, as are TRIM-driven invalidations and write-buffer flushes.
//!
//! # Concurrency
//!
//! The engine is a shared service: [`StorageSystem::submit`] takes `&self`,
//! so one instance can serve many threads. Internally the block metadata,
//! per-shard policy state, slot allocator, write buffer and statistics are
//! partitioned into `N` *shards* keyed by logical block address
//! (`lbn % N`). Each shard manages an equal slice of the cache capacity,
//! so allocation and eviction are decided shard-locally. With a single
//! shard (the default, used by the paper-figure experiments) the behaviour
//! is block-for-block identical to the original exclusive implementation;
//! [`CacheEngine::with_shard_count`] enables real parallelism for the
//! threaded drivers and benches.
//!
//! Within a shard, state is split by how hot its access path is:
//!
//! * **statistics** live on relaxed atomics ([`AtomicCacheStats`]) — both
//!   recording and the aggregate [`StorageSystem::stats`] read are
//!   lock-free;
//! * **metadata** (plus the hot-hit descriptor) sits behind an `RwLock`
//!   read view — read-only probes ([`CacheEngine::contains_block`],
//!   [`CacheEngine::cached_priority`], residency counts) take the shared
//!   read lock and never serialize with each other;
//! * **decision state** (the policy and the slot allocator) stays behind
//!   the stripe mutex, which every mutating path takes *together with* the
//!   view's write lock (always mutex first).
//!
//! On top of that split sits an optimistic fast path for the hottest
//! possible case: a single-block read that repeats the immediately
//! preceding hit on its shard. When the installed policy declares repeat
//! hits idempotent ([`CachePolicy::repeat_hit_idempotent`]) the repeat is
//! served entirely under the read view — statistics recorded on atomics,
//! the SSD transfer issued as usual — without acquiring the stripe mutex,
//! because the skipped `on_hit` call is provably a no-op. Anything that
//! could perturb policy order (a different block's hit, a write, an
//! allocation, an eviction, a trim, a drain) falls back to the full mutex
//! path and invalidates the descriptor. The fast path alters no simulated
//! timing, no hit ratio and no policy decision; it only removes mutex
//! traffic. [`CacheEngine::with_optimistic_reads`] turns it off to
//! reproduce the fully locked hot path (the pre-optimization engine), and
//! [`crate::ContentionCounters`] reports how often each path was taken.

use crate::allocator::SlotAllocator;
use crate::journal::{Journal, JournalConfig, JournalOp, JournalSnapshot};
use crate::metadata::{BlockState, CacheEntry};
use crate::migration::{MigrationConfig, MigrationCounters, MigrationStats, ShardMigration};
use crate::policy::{CachePolicy, CachePolicyKind, HitOutcome, PolicyRequest, RemoveReason};
use crate::stats::{AtomicCacheStats, CacheAction, CacheStats};
use crate::system::StorageSystem;
use crate::table::BlockTable;
use hstorage_storage::{
    BlockAddr, BlockRange, CachePriority, ClassifiedRequest, Direction, HddDevice, HddParameters,
    IoRequest, PolicyConfig, QosPolicy, SimClock, SsdDevice, SsdParameters, StorageDevice,
    TrimCommand,
};
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockWriteGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Per-request batch of device traffic, flushed as one I/O per device and
/// direction so multi-block requests pay one command overhead, like the real
/// system.
#[derive(Debug, Default, Clone, Copy)]
struct DeviceBatch {
    ssd_read: u64,
    ssd_write: u64,
    hdd_read: u64,
    hdd_write: u64,
}

/// The block whose repeat read hit the optimistic path may serve without
/// the stripe mutex: the last read hit on the shard, fingerprinted by its
/// request shape so only a *bit-identical* repeat (same class, QoS and
/// resolved priority — the arguments `on_hit` would receive) matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HotHit {
    lbn: BlockAddr,
    fingerprint: u64,
}

/// Packs the request shape a read hit hands to `CachePolicy::on_hit` into
/// the hot-hit fingerprint. Direction is not encoded: only read hits
/// publish a descriptor and only reads consult it.
fn hit_fingerprint(req: &PolicyRequest) -> u64 {
    let qos = match req.qos {
        QosPolicy::Priority(p) => 0x100 | p.0 as u64,
        QosPolicy::NonCachingNonEviction => 0x200,
        QosPolicy::NonCachingEviction => 0x300,
        QosPolicy::WriteBuffer => 0x400,
    };
    ((req.class as u64) << 16) | ((req.prio.0 as u64) << 32) | qos
}

/// The shared read view of one shard: everything a read-only probe or an
/// optimistic repeat hit needs. Mutating paths hold this view's write lock
/// (in addition to the stripe mutex), so a holder of the read lock sees a
/// consistent metadata + hot-descriptor pair without any versioning.
struct MetaView {
    meta: BlockTable,
    /// `Some` exactly while the last completed shard visit was a read hit
    /// and nothing has perturbed policy order since; any such block is
    /// guaranteed resident.
    hot: Option<HotHit>,
}

/// The decision state of one shard, only ever touched under the stripe
/// mutex: the pluggable policy and the physical slot allocator.
struct ShardInner {
    policy: Box<dyn CachePolicy>,
    alloc: SlotAllocator,
    /// Tier-migration state ([`crate::MigrationConfig`]): heat tracker,
    /// request shapes and the pending promote/demote queues. `None` while
    /// migration is disabled — the foreground hooks then cost one branch.
    migration: Option<ShardMigration>,
}

/// One lock-striped partition of the cache. See the module docs for how
/// the three pieces (atomic statistics, `RwLock` read view, mutex-guarded
/// decision state) divide the hot path.
struct Shard {
    /// Shared read view (metadata + hot-hit descriptor).
    view: RwLock<MetaView>,
    /// Decision state. Lock order: `inner` **before** `view`.
    inner: Mutex<ShardInner>,
    /// Striped statistics on relaxed atomics — recording never takes (or
    /// extends) either lock.
    stats: AtomicCacheStats,
    /// Maximum blocks this shard's slice of the write buffer may hold.
    /// Immutable after construction.
    write_buffer_limit: u64,
    /// Blocks currently resident in the write-buffer group. Only mutated
    /// under the stripe mutex; atomic so the occupancy getters and the
    /// flush pre-check can read it lock-free.
    write_buffer_resident: AtomicU64,
    /// Heat earned by optimistic fast-path hits, which never take the
    /// stripe mutex: an atomic side-counter folded into the hot block's
    /// heat at the next migration round, so the fast path stays lock-free
    /// with migration enabled (its one extra cost is this relaxed add).
    fast_heat: AtomicU64,
    /// Lock-free migration counters (see [`MigrationCounters`]).
    migration_counters: MigrationCounters,
}

impl Shard {
    fn new(config: &PolicyConfig, capacity: u64, policy: Box<dyn CachePolicy>) -> Self {
        Shard {
            view: RwLock::new(MetaView {
                // Pre-sized to the shard's slot count: a full shard never
                // rehashes mid-run.
                meta: BlockTable::with_capacity(capacity as usize),
                hot: None,
            }),
            inner: Mutex::new(ShardInner {
                policy,
                alloc: SlotAllocator::new(capacity),
                migration: None,
            }),
            stats: AtomicCacheStats::new(),
            write_buffer_limit: (capacity as f64 * config.write_buffer_fraction).floor() as u64,
            write_buffer_resident: AtomicU64::new(0),
            fast_heat: AtomicU64::new(0),
            migration_counters: MigrationCounters::default(),
        }
    }

    /// Acquires the shard's write-side lock pair (stripe mutex first, then
    /// the view's write lock) and counts the acquisition.
    fn lock_for_write(&self) -> (MutexGuard<'_, ShardInner>, RwLockWriteGuard<'_, MetaView>) {
        self.stats.record_lock_acquisition();
        (self.inner.lock(), self.view.write())
    }

    /// Evicts `victim` (a block the policy *selected* via
    /// `pop_victim`/`steal_victim` but still tracks), writing it back if
    /// dirty. The engine completes the removal by announcing it to the
    /// policy with [`RemoveReason::Evict`], so ghost-keeping policies
    /// observe their own evictions.
    fn evict(
        &self,
        inner: &mut ShardInner,
        view: &mut MetaView,
        victim: BlockAddr,
        batch: &mut DeviceBatch,
    ) {
        let entry = view
            .meta
            .remove(victim)
            .expect("victim tracked by policy but not in metadata");
        inner
            .policy
            .on_remove_reasoned(victim, entry.priority, RemoveReason::Evict);
        if entry.is_dirty() {
            batch.hdd_write += 1;
        }
        if inner.policy.write_buffered(entry.priority) {
            self.debit_write_buffer(1);
        }
        inner.alloc.release(entry.pbn);
        self.stats.record_action(CacheAction::Eviction, 1);
    }

    /// Deducts `n` blocks from the write-buffer occupancy. An underflow
    /// would mean the insert/move/remove accounting diverged from the
    /// policy's group labelling — a bug worth failing loudly on, not one
    /// to paper over with silent saturation. Callers hold the stripe
    /// mutex (occupancy has exactly one mutator at a time), so the
    /// load/store pair cannot lose an update.
    fn debit_write_buffer(&self, n: u64) {
        let resident = self.write_buffer_resident.load(Ordering::Relaxed);
        debug_assert!(
            resident >= n,
            "write-buffer occupancy underflow: resident {resident} < debit {n}"
        );
        self.write_buffer_resident
            .store(resident.saturating_sub(n), Ordering::Relaxed);
    }

    /// Tries to obtain a free cache slot for `incoming` (the missing
    /// block of `req`), asking the policy to displace a resident if the
    /// shard is full. Returns the physical slot or `None` if the block
    /// must bypass the cache.
    fn try_allocate(
        &self,
        inner: &mut ShardInner,
        view: &mut MetaView,
        incoming: BlockAddr,
        req: &PolicyRequest,
        batch: &mut DeviceBatch,
    ) -> Option<u64> {
        if let Some(pbn) = inner.alloc.allocate() {
            return Some(pbn);
        }
        let victim = inner.policy.pop_victim(incoming, req)?;
        self.evict(inner, view, victim, batch);
        inner.alloc.allocate()
    }

    /// Handles one block of a request; returns `true` on a cache hit.
    fn handle_block(
        &self,
        inner: &mut ShardInner,
        view: &mut MetaView,
        lbn: BlockAddr,
        req: &PolicyRequest,
        batch: &mut DeviceBatch,
    ) -> bool {
        if let Some(mig) = inner.migration.as_mut() {
            // Every foreground access — hit, miss or bypass — is one unit
            // of heat and refreshes the remembered request shape.
            mig.note_access(lbn, req);
        }
        if let Some(entry) = view.meta.get(lbn).copied() {
            // --- Cache hit ---
            if let Some(mig) = inner.migration.as_mut() {
                // Lazy cancellation: a hit on a queued demotion candidate
                // proves the block is still hot, so the demotion is
                // dropped instead of executed at the next round.
                if mig.note_hit(lbn) {
                    self.migration_counters
                        .cancelled_demotions
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            self.stats.record_action(CacheAction::CacheHit, 1);
            match inner.policy.on_hit(lbn, entry.priority, req) {
                HitOutcome::Unchanged => {}
                HitOutcome::Moved(new) => self.apply_move(inner, view, lbn, entry.priority, new),
            }
            match req.direction {
                Direction::Read => {
                    batch.ssd_read += 1;
                    // Publish the hot-hit descriptor: an immediate
                    // bit-identical repeat of this read may skip the mutex
                    // (consulted only when the policy declares repeats
                    // idempotent and optimistic reads are enabled).
                    view.hot = Some(HotHit {
                        lbn,
                        fingerprint: hit_fingerprint(req),
                    });
                }
                Direction::Write => {
                    batch.ssd_write += 1;
                    if let Some(e) = view.meta.get_mut(lbn) {
                        e.state = BlockState::Dirty;
                    }
                    // A write hit dirties state a repeat read would not
                    // reproduce; drop the descriptor.
                    view.hot = None;
                }
            }
            return true;
        }

        // --- Cache miss ---
        if !inner.policy.admits(req) {
            // Bypassing: straight to the second-level device. `admits` is
            // a pure query, so the hot descriptor stays valid.
            self.stats.record_action(CacheAction::Bypassing, 1);
            match req.direction {
                Direction::Read => batch.hdd_read += 1,
                Direction::Write => batch.hdd_write += 1,
            }
            return false;
        }

        // The allocation path may perturb policy order even when it ends
        // in a bypass (ARC adapts its target on ghost hits inside
        // `pop_victim`), so the descriptor is cleared up front.
        view.hot = None;
        match self.try_allocate(inner, view, lbn, req, batch) {
            Some(pbn) => {
                let state = match req.direction {
                    Direction::Read => {
                        // Read allocation: fetch from HDD, place in SSD.
                        self.stats.record_action(CacheAction::ReadAllocation, 1);
                        batch.hdd_read += 1;
                        batch.ssd_write += 1;
                        BlockState::Clean
                    }
                    Direction::Write => {
                        // Write allocation: place in SSD, mark dirty.
                        self.stats.record_action(CacheAction::WriteAllocation, 1);
                        batch.ssd_write += 1;
                        BlockState::Dirty
                    }
                };
                let group = inner.policy.on_insert(lbn, req);
                view.meta.insert(
                    lbn,
                    CacheEntry {
                        pbn,
                        priority: group,
                        state,
                    },
                );
                if inner.policy.write_buffered(group) {
                    self.write_buffer_resident.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(mig) = inner.migration.as_mut() {
                    // Lazy promotion: the foreground admission just
                    // performed the migration a round had queued.
                    if mig.note_insert(lbn) {
                        self.migration_counters
                            .lazy_promotions
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            None => {
                // Not cache-worthy relative to current residents: bypass.
                self.stats.record_action(CacheAction::Bypassing, 1);
                match req.direction {
                    Direction::Read => batch.hdd_read += 1,
                    Direction::Write => batch.hdd_write += 1,
                }
            }
        }
        false
    }

    /// Mirrors a policy-initiated group move in the metadata, write-buffer
    /// accounting and statistics.
    fn apply_move(
        &self,
        inner: &mut ShardInner,
        view: &mut MetaView,
        lbn: BlockAddr,
        old: CachePriority,
        new: CachePriority,
    ) {
        if let Some(e) = view.meta.get_mut(lbn) {
            e.priority = new;
        }
        let was_buffered = inner.policy.write_buffered(old);
        let is_buffered = inner.policy.write_buffered(new);
        if was_buffered && !is_buffered {
            self.debit_write_buffer(1);
        } else if is_buffered && !was_buffered {
            self.write_buffer_resident.fetch_add(1, Ordering::Relaxed);
        }
        self.stats.record_action(CacheAction::ReAllocation, 1);
    }

    /// Drains the shard's write buffer if its occupancy exceeds the limit:
    /// buffered blocks are dropped from the cache and the number of *dirty*
    /// blocks (which must be written to the HDD by the caller, outside the
    /// shard locks) is returned.
    fn drain_write_buffer_if_full(
        &self,
        inner: &mut ShardInner,
        view: &mut MetaView,
    ) -> Option<u64> {
        if self.write_buffer_limit == 0
            || self.write_buffer_resident.load(Ordering::Relaxed) <= self.write_buffer_limit
        {
            return None;
        }
        let buffered = inner.policy.drain_write_buffer();
        let mut dirty_blocks = 0u64;
        let mut removed = 0u64;
        for lbn in buffered {
            if let Some(entry) = view.meta.remove(lbn) {
                // The drain names buffered blocks without untracking them;
                // the engine completes each removal. A drain is an engine
                // displacement, so ghost-keeping policies see `Evict`, not
                // `Trim` (the block's data is still live on the HDD).
                inner
                    .policy
                    .on_remove_reasoned(lbn, entry.priority, RemoveReason::Evict);
                if entry.is_dirty() {
                    dirty_blocks += 1;
                }
                inner.alloc.release(entry.pbn);
                removed += 1;
            }
        }
        // Deduct what was actually drained (for a complete drain — every
        // shipped policy — this zeroes the counter) so a policy whose
        // drain is partial cannot desynchronize the occupancy accounting.
        self.debit_write_buffer(removed);
        view.hot = None;
        self.stats
            .record_action(CacheAction::WriteBufferFlush, dirty_blocks);
        Some(dirty_blocks)
    }

    /// Invalidates one block if resident; returns 1 if it was trimmed.
    /// Conservatively drops the hot descriptor either way (an absent trim
    /// may still touch ghost history).
    fn trim_block(&self, inner: &mut ShardInner, view: &mut MetaView, lbn: BlockAddr) -> u64 {
        view.hot = None;
        if let Some(mig) = inner.migration.as_mut() {
            // The block's lifetime ended: discard its heat, shape and any
            // queued migration so an in-flight candidate cannot resurrect
            // dead data at the next round.
            let cancelled = mig.note_trim(lbn);
            if cancelled > 0 {
                self.migration_counters
                    .trim_cancellations
                    .fetch_add(cancelled, Ordering::Relaxed);
            }
        }
        let Some(entry) = view.meta.remove(lbn) else {
            // The block's lifetime ended while not resident: policies
            // keeping history about absent addresses (ghost lists)
            // must still forget it.
            inner.policy.on_trim_absent(lbn);
            return 0;
        };
        inner
            .policy
            .on_remove_reasoned(lbn, entry.priority, RemoveReason::Trim);
        if inner.policy.write_buffered(entry.priority) {
            self.debit_write_buffer(1);
        }
        inner.alloc.release(entry.pbn);
        1
    }

    /// Runs one tier-migration round on this shard (no-op when migration
    /// is disabled). Under the caller's lock pair the round:
    ///
    /// 1. folds the optimistic fast path's atomic hit counter into the
    ///    current hot block's heat, advances the round counter, applies
    ///    decay on the half-life cadence and prunes the tracker;
    /// 2. re-validates the pending promote/demote queues against current
    ///    residency;
    /// 3. ranks residents coldest-first (write-buffered blocks excluded:
    ///    the buffer has its own drain lifecycle) and admissible absent
    ///    blocks hottest-first — both orders fully deterministic (heat,
    ///    then address), so the metadata map's iteration order never
    ///    reaches an observable decision;
    /// 4. within the per-round budget, first promotes the hottest absents
    ///    into free slots, then demote/promote pairs — a cold resident
    ///    makes room for a strictly hotter absent block. Demotions flow
    ///    through [`RemoveReason::Evict`] (ghost directories learn);
    ///    promotions re-enter via `admits` → `on_insert` with the
    ///    request shape last observed for the block;
    /// 5. queues the unconsumed candidates for the lazy window until the
    ///    next round.
    ///
    /// Returns the device traffic the round generated; the engine issues
    /// it after the shard locks are released. The round deliberately
    /// records no [`CacheAction`]: migration is background work, and the
    /// per-action statistics stay bit-comparable between migration-on and
    /// migration-off runs of identical foreground traffic.
    fn migration_round(&self, inner: &mut ShardInner, view: &mut MetaView) -> DeviceBatch {
        let mut batch = DeviceBatch::default();
        let ShardInner {
            policy,
            alloc,
            migration,
        } = inner;
        let Some(mig) = migration.as_mut() else {
            return batch;
        };
        let ShardMigration {
            config,
            heat,
            shapes,
            pending_promote,
            pending_demote,
            rounds,
            track_cap,
            resident_scratch,
        } = mig;

        let fast_hits = self.fast_heat.swap(0, Ordering::Relaxed);
        if fast_hits > 0 {
            if let Some(hot) = view.hot {
                // The fast path serves only the shard's hot descriptor, so
                // the accumulated count belongs to the block it currently
                // names. If a slow-path visit cleared the descriptor since,
                // the count is dropped — an acceptable undercount for a
                // lock-free hot path.
                heat.record_n(hot.lbn, fast_hits);
            }
        }

        *rounds += 1;
        if *rounds % u64::from(config.half_life_rounds) == 0 {
            heat.decay();
        }
        heat.retain_hottest(*track_cap);
        shapes.retain(|lbn, _| heat.heat(*lbn) > 0);
        pending_demote.retain(|lbn| view.meta.contains(*lbn));
        pending_promote.retain(|lbn| !view.meta.contains(*lbn) && heat.heat(*lbn) > 0);

        let mut absents: Vec<(u64, BlockAddr, PolicyRequest)> = heat
            .iter()
            .filter(|(lbn, heat)| **heat > 0 && !view.meta.contains(**lbn))
            .filter_map(|(lbn, h)| {
                let shape = shapes.get(lbn)?;
                // A promotion is a background fetch, whatever direction
                // the remembered foreground access had.
                let preq = PolicyRequest {
                    direction: Direction::Read,
                    ..*shape
                };
                // Write-buffer shapes are excluded: promoting into the
                // buffer would grow occupancy outside the per-request
                // flush check. Everything else must pass normal admission.
                if preq.prio == CachePriority(0) || !policy.admits(&preq) {
                    return None;
                }
                Some((*h, *lbn, preq))
            })
            .collect();
        absents.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

        // Residents are only consumed by the absents-gated pairing loops
        // below, so a round with no promotion candidate (the steady state
        // of a stable working set) skips the full metadata sweep and sort.
        // The sweep reuses the shard's scratch buffer instead of
        // reallocating a shard-sized Vec every round.
        let residents = resident_scratch;
        residents.clear();
        if !absents.is_empty() {
            residents.extend(
                view.meta
                    .iter()
                    .filter(|(_, e)| !policy.write_buffered(e.priority))
                    .map(|(lbn, _)| (heat.heat(lbn), lbn)),
            );
            residents.sort_unstable();
        }

        // Performs one promotion: fetch from HDD, place in SSD, clean, via
        // the policy's normal insertion path. A nested fn (not a closure)
        // so the demote code between calls can also borrow the policy and
        // the batch.
        #[allow(clippy::too_many_arguments)]
        fn promote(
            shard: &Shard,
            policy: &mut Box<dyn CachePolicy>,
            view: &mut MetaView,
            pending_promote: &mut std::collections::HashSet<BlockAddr>,
            batch: &mut DeviceBatch,
            lbn: BlockAddr,
            preq: &PolicyRequest,
            pbn: u64,
        ) {
            let group = policy.on_insert(lbn, preq);
            view.meta.insert(
                lbn,
                CacheEntry {
                    pbn,
                    priority: group,
                    state: BlockState::Clean,
                },
            );
            if policy.write_buffered(group) {
                shard.write_buffer_resident.fetch_add(1, Ordering::Relaxed);
            }
            batch.hdd_read += 1;
            batch.ssd_write += 1;
            pending_promote.remove(&lbn);
            shard
                .migration_counters
                .promoted
                .fetch_add(1, Ordering::Relaxed);
        }

        let mut budget = config.round_budget;
        let mut moved = false;
        let mut next_absent = 0usize;
        let mut next_resident = 0usize;

        // Free slots first: promotion without displacement.
        while budget >= 1 && next_absent < absents.len() {
            let Some(pbn) = alloc.allocate() else { break };
            let (_, lbn, preq) = absents[next_absent];
            promote(
                self,
                policy,
                view,
                pending_promote,
                &mut batch,
                lbn,
                &preq,
                pbn,
            );
            next_absent += 1;
            budget -= 1;
            moved = true;
        }

        // Demote/promote pairs: a cold resident makes room for a strictly
        // hotter absent block (ties never migrate — churn without gain).
        while budget >= 2 && next_absent < absents.len() && next_resident < residents.len() {
            let (absent_heat, absent_lbn, preq) = absents[next_absent];
            let (resident_heat, resident_lbn) = residents[next_resident];
            if absent_heat <= resident_heat {
                break;
            }
            let entry = view
                .meta
                .remove(resident_lbn)
                .expect("demotion candidate was checked resident");
            policy.on_remove_reasoned(resident_lbn, entry.priority, RemoveReason::Evict);
            if entry.is_dirty() {
                batch.hdd_write += 1;
            }
            if policy.write_buffered(entry.priority) {
                self.debit_write_buffer(1);
            }
            alloc.release(entry.pbn);
            pending_demote.remove(&resident_lbn);
            self.migration_counters
                .demoted
                .fetch_add(1, Ordering::Relaxed);
            let pbn = alloc.allocate().expect("slot just freed by demotion");
            promote(
                self,
                policy,
                view,
                pending_promote,
                &mut batch,
                absent_lbn,
                &preq,
                pbn,
            );
            next_absent += 1;
            next_resident += 1;
            budget -= 2;
            moved = true;
        }

        // Queue what the budget did not cover for the lazy window: an
        // admitted miss resolves a queued promotion, a hit rescues a
        // queued demotion, a TRIM cancels either.
        for (_, lbn, _) in absents.iter().skip(next_absent).take(config.round_budget) {
            pending_promote.insert(*lbn);
        }
        let mut queued = 0usize;
        while queued < config.round_budget
            && next_absent < absents.len()
            && next_resident < residents.len()
        {
            if absents[next_absent].0 <= residents[next_resident].0 {
                break;
            }
            pending_demote.insert(residents[next_resident].1);
            queued += 1;
            next_absent += 1;
            next_resident += 1;
        }

        if moved {
            // Residency changed behind the descriptor's back.
            view.hot = None;
        }
        batch
    }
}

/// The hybrid SSD-over-HDD storage system: a policy-agnostic cache engine
/// whose admission/eviction/promotion decisions come from a pluggable
/// [`CachePolicy`]. With the default [`CachePolicyKind::SemanticPriority`]
/// this **is** the paper's hStorage-DB cache (the [`crate::HybridCache`]
/// alias); with [`CachePolicyKind::Lru`] / [`CachePolicyKind::Cflru`] /
/// [`CachePolicyKind::TwoQ`] the same shards, devices and submission
/// pipeline serve the classical baselines.
pub struct CacheEngine {
    config: PolicyConfig,
    policy_kind: CachePolicyKind,
    name: String,
    /// Whether the installed policy maintains a write buffer (group 0).
    /// When it does not, the write-buffer flush checks and the batch
    /// run-splitting they require are skipped entirely.
    write_buffering: bool,
    /// The [`Self::with_optimistic_reads`] knob (default `true`).
    optimistic_reads: bool,
    /// Derived: the knob is on **and** the installed policy declares
    /// repeat hits idempotent — the precondition for consulting the
    /// hot-hit descriptor.
    hit_fast_path: bool,
    cache_capacity: u64,
    /// The [`Self::with_migration`] knob set (default: disabled).
    migration: MigrationConfig,
    /// Engine-level migration round counters (per-shard move counters
    /// live on the shards).
    migration_rounds: AtomicU64,
    migration_skipped: AtomicU64,
    /// Summed device idle time (nanoseconds) consumed by the last executed
    /// migration round; the idle gate in
    /// [`StorageSystem::migrate_idle`] claims the next window with a
    /// compare-exchange on this mark, so concurrent callers never
    /// double-run a round.
    idle_mark: AtomicU64,
    /// The [`Self::with_journal`] knob set (default: disabled). `None`
    /// while journaling is off, so the disabled engine carries no
    /// journal state at all.
    journal_config: JournalConfig,
    journal: Option<Journal>,
    clock: SimClock,
    ssd: SsdDevice,
    hdd: HddDevice,
    shards: Vec<Shard>,
}

impl CacheEngine {
    /// Creates a single-shard engine with `cache_capacity_blocks` of SSD
    /// cache in front of the HDD, using the paper's device models and the
    /// semantic priority policy. One shard reproduces the paper's global
    /// selective allocation/eviction exactly; use
    /// [`Self::with_shard_count`] for concurrent workloads.
    pub fn new(config: PolicyConfig, cache_capacity_blocks: u64) -> Self {
        Self::with_shard_count(config, cache_capacity_blocks, 1)
    }

    /// Creates an engine whose state is striped over `shards` locks (each
    /// managing an equal slice of the capacity) so concurrent submits to
    /// different shards do not serialize.
    pub fn with_shard_count(
        config: PolicyConfig,
        cache_capacity_blocks: u64,
        shards: usize,
    ) -> Self {
        Self::with_shard_count_and_queue_depth(config, cache_capacity_blocks, shards, 1)
    }

    /// Creates a sharded engine whose devices merge up to `queue_depth`
    /// adjacent queued requests into one physical transfer on the batched
    /// submission path ([`StorageSystem::submit_batch`]).
    /// `queue_depth = 1` (the [`Self::with_shard_count`] default) disables
    /// merging and is timing-identical to per-request submission.
    pub fn with_shard_count_and_queue_depth(
        config: PolicyConfig,
        cache_capacity_blocks: u64,
        shards: usize,
        queue_depth: usize,
    ) -> Self {
        let clock = SimClock::new();
        Self::with_devices_sharded(
            config,
            cache_capacity_blocks,
            shards,
            SsdDevice::new(
                SsdParameters::intel_320().with_queue_depth(queue_depth),
                clock.clone(),
            ),
            HddDevice::new(
                HddParameters::cheetah_15k7().with_queue_depth(queue_depth),
                clock.clone(),
            ),
            clock,
        )
    }

    /// Creates a single-shard engine over explicitly constructed devices.
    /// The devices must share `clock`.
    pub fn with_devices(
        config: PolicyConfig,
        cache_capacity_blocks: u64,
        ssd: SsdDevice,
        hdd: HddDevice,
        clock: SimClock,
    ) -> Self {
        Self::with_devices_sharded(config, cache_capacity_blocks, 1, ssd, hdd, clock)
    }

    /// Creates a sharded engine over explicitly constructed devices. The
    /// devices must share `clock`. Shard `i` manages the blocks with
    /// `lbn % shards == i` and `capacity / shards` slots (the remainder is
    /// spread over the first shards).
    pub fn with_devices_sharded(
        config: PolicyConfig,
        cache_capacity_blocks: u64,
        shards: usize,
        ssd: SsdDevice,
        hdd: HddDevice,
        clock: SimClock,
    ) -> Self {
        config.validate().expect("invalid policy configuration");
        assert!(shards > 0, "shard count must be positive");
        let kind = CachePolicyKind::default();
        let n = shards as u64;
        let shards = (0..n)
            .map(|i| {
                let capacity = cache_capacity_blocks / n + u64::from(i < cache_capacity_blocks % n);
                Shard::new(&config, capacity, kind.build(&config, capacity))
            })
            .collect();
        let mut engine = CacheEngine {
            config,
            policy_kind: kind,
            name: kind.system_name().to_string(),
            write_buffering: true,
            optimistic_reads: true,
            hit_fast_path: false,
            cache_capacity: cache_capacity_blocks,
            migration: MigrationConfig::default(),
            migration_rounds: AtomicU64::new(0),
            migration_skipped: AtomicU64::new(0),
            idle_mark: AtomicU64::new(0),
            journal_config: JournalConfig::default(),
            journal: None,
            clock,
            ssd,
            hdd,
            shards,
        };
        engine.refresh_policy_traits();
        engine
    }

    /// Re-derives the policy-dependent engine flags from the installed
    /// policy:
    ///
    /// * [`Self::write_buffering`] — and with it the write-buffer
    ///   contract: the engine's buffer mechanism (limit, flush trigger,
    ///   batch run-splitting) is keyed to group 0, so a policy declaring
    ///   any other group buffered would accumulate occupancy the engine
    ///   never flushes;
    /// * [`Self::hit_fast_path`] — optimistic repeat hits are consulted
    ///   only when the policy declares them idempotent **and** the
    ///   [`Self::with_optimistic_reads`] knob is on.
    fn refresh_policy_traits(&mut self) {
        let Some(shard) = self.shards.first_mut() else {
            self.write_buffering = false;
            self.hit_fast_path = false;
            return;
        };
        let policy = &shard.inner.get_mut().policy;
        self.write_buffering = policy.write_buffered(CachePriority(0));
        for group in 1..=u8::MAX {
            assert!(
                !policy.write_buffered(CachePriority(group)),
                "CachePolicy declares group {group} write-buffered, but the engine's \
                 write buffer is group 0 (see CachePolicy::write_buffered)"
            );
        }
        self.hit_fast_path = self.optimistic_reads && policy.repeat_hit_idempotent();
    }

    /// Selects which shipped [`CachePolicyKind`] drives the engine's
    /// decisions, including any knob values the kind carries. Must be
    /// called before any traffic is submitted (the per-shard policy state
    /// is rebuilt empty).
    pub fn with_cache_policy(mut self, kind: CachePolicyKind) -> Self {
        kind.validate().expect("invalid cache-policy configuration");
        self.policy_kind = kind;
        self.name = kind.system_name().to_string();
        for shard in &mut self.shards {
            assert!(
                shard.view.get_mut().meta.is_empty(),
                "cache policy must be selected before submitting traffic"
            );
            let inner = shard.inner.get_mut();
            inner.policy = kind.build(&self.config, inner.alloc.capacity());
        }
        self.refresh_policy_traits();
        self
    }

    /// Installs a custom [`CachePolicy`] built by `factory` (called once
    /// per shard with that shard's slot capacity) and names the resulting
    /// storage system `name`. Must be called before any traffic is
    /// submitted. See the [`CachePolicy`] docs for a worked example.
    pub fn with_policy_factory(
        mut self,
        name: impl Into<String>,
        factory: impl Fn(u64) -> Box<dyn CachePolicy>,
    ) -> Self {
        self.name = name.into();
        for shard in &mut self.shards {
            assert!(
                shard.view.get_mut().meta.is_empty(),
                "cache policy must be installed before submitting traffic"
            );
            let inner = shard.inner.get_mut();
            inner.policy = factory(inner.alloc.capacity());
        }
        self.refresh_policy_traits();
        self
    }

    /// Enables or disables the optimistic repeat-hit read path (default:
    /// enabled). Disabled, every submission takes the stripe mutex — the
    /// pre-optimization hot path — which is what the contended-throughput
    /// bench compares against and what the equivalence suites pin the
    /// optimistic path to. The knob never changes caching behaviour, only
    /// which locks the hot path touches; read-only probes stay lock-free
    /// either way.
    pub fn with_optimistic_reads(mut self, enabled: bool) -> Self {
        self.optimistic_reads = enabled;
        self.refresh_policy_traits();
        self
    }

    /// Whether the optimistic repeat-hit path is in force (the knob is on
    /// and the installed policy declares repeat hits idempotent).
    pub fn optimistic_reads_active(&self) -> bool {
        self.hit_fast_path
    }

    /// Configures online tier migration (see [`MigrationConfig`] and the
    /// [`crate::migration`] module docs). Must be called before any
    /// traffic is submitted; the default — and
    /// [`MigrationConfig::off`] — leaves the engine bit-identical to one
    /// built without migration. Composes with
    /// [`Self::with_cache_policy`] / [`Self::with_policy_factory`] in
    /// either order.
    pub fn with_migration(mut self, config: MigrationConfig) -> Self {
        config.validate().expect("invalid migration configuration");
        self.migration = config;
        for shard in &mut self.shards {
            assert!(
                shard.view.get_mut().meta.is_empty(),
                "migration must be configured before submitting traffic"
            );
            let inner = shard.inner.get_mut();
            inner.migration = config
                .enabled
                .then(|| ShardMigration::new(config, inner.alloc.capacity()));
        }
        self
    }

    /// The tier-migration configuration in force.
    pub fn migration_config(&self) -> MigrationConfig {
        self.migration
    }

    /// Configures the write-ahead journal (see [`JournalConfig`] and the
    /// [`crate::journal`] module docs). Must be called before any traffic
    /// is submitted; the default — and [`JournalConfig::off`] — leaves
    /// the engine bit-identical to one built without a journal. Enabled,
    /// every [`StorageSystem`] mutation is logged write-ahead with batch
    /// begin/commit framing, and [`Self::journal_snapshot`] exposes the
    /// simulated persistent image for [`crate::recovery`].
    pub fn with_journal(mut self, config: JournalConfig) -> Self {
        config.validate().expect("invalid journal configuration");
        for shard in &mut self.shards {
            assert!(
                shard.view.get_mut().meta.is_empty(),
                "journaling must be configured before submitting traffic"
            );
        }
        self.journal_config = config;
        self.journal = config.enabled.then(|| Journal::new(config));
        self
    }

    /// The journal configuration in force.
    pub fn journal_config(&self) -> JournalConfig {
        self.journal_config
    }

    /// Number of records in the attached journal (0 with journaling
    /// disabled).
    pub fn journal_len(&self) -> usize {
        self.journal.as_ref().map_or(0, Journal::len)
    }

    /// The current image of the attached journal — what the simulated
    /// persistent device holds right now — or `None` with journaling
    /// disabled. Feed it (optionally through
    /// [`JournalSnapshot::crash_at`]) to [`crate::recovery::recover`].
    pub fn journal_snapshot(&self) -> Option<JournalSnapshot> {
        self.journal.as_ref().map(Journal::snapshot)
    }

    /// Commits any open journal batch (a clean shutdown of the group
    /// commit window). No-op with journaling disabled.
    pub fn journal_seal(&self) {
        if let Some(journal) = &self.journal {
            journal.seal();
        }
    }

    /// The resident set as `(lbn, priority, dirty)` triples, sorted by
    /// block address — the recovery suite's convergence fingerprint.
    /// Takes each shard's read view in turn.
    pub fn resident_set(&self) -> Vec<(BlockAddr, CachePriority, bool)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let view = shard.view.read();
            for (lbn, entry) in view.meta.iter() {
                out.push((lbn, entry.priority, entry.is_dirty()));
            }
        }
        out.sort_unstable_by_key(|(lbn, _, _)| lbn.0);
        out
    }

    /// The migration heat learned for `lbn` so far (0 with migration
    /// disabled). Pending fast-path heat that has not yet been folded
    /// into the tracker — see [`Self::reset_stats`] and the migration
    /// round — is not included.
    pub fn learned_heat(&self, lbn: BlockAddr) -> u64 {
        let shard = self.shard(lbn);
        let inner = shard.inner.lock();
        inner.migration.as_ref().map_or(0, |mig| mig.heat.heat(lbn))
    }

    /// Every block with non-zero learned heat as `(lbn, heat)` pairs,
    /// sorted by block address (empty with migration disabled) — the
    /// recovery suite's heat fingerprint.
    pub fn heat_snapshot(&self) -> Vec<(BlockAddr, u64)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let inner = shard.inner.lock();
            if let Some(mig) = inner.migration.as_ref() {
                out.extend(
                    mig.heat
                        .iter()
                        .filter(|(_, heat)| **heat > 0)
                        .map(|(lbn, heat)| (*lbn, *heat)),
                );
            }
        }
        out.sort_unstable_by_key(|(lbn, _)| lbn.0);
        out
    }

    /// The `{N, t, b}` policy configuration in force.
    pub fn policy(&self) -> &PolicyConfig {
        &self.config
    }

    /// Which shipped policy kind the engine was configured with (custom
    /// factories report the default kind; their [`StorageSystem::name`]
    /// identifies them).
    pub fn cache_policy_kind(&self) -> CachePolicyKind {
        self.policy_kind
    }

    /// Cache capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.cache_capacity
    }

    /// Number of lock-striped shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Maximum number of blocks the write buffer may hold before a flush
    /// (summed over all shards). Lock-free: the limits are fixed at
    /// construction.
    pub fn write_buffer_limit(&self) -> u64 {
        self.shards.iter().map(|s| s.write_buffer_limit).sum()
    }

    /// Number of blocks currently held in the write buffer. Lock-free:
    /// occupancy is kept on per-shard atomics.
    pub fn write_buffer_resident(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.write_buffer_resident.load(Ordering::Relaxed))
            .sum()
    }

    /// Whether `lbn` is currently resident in the cache. Served through
    /// the shard's read view — never contends with other probes, only
    /// with a concurrent mutation of the same shard.
    pub fn contains_block(&self, lbn: BlockAddr) -> bool {
        self.shard(lbn).view.read().meta.contains(lbn)
    }

    /// The priority group `lbn` currently lives in, if resident (for the
    /// non-semantic policies this is the informational label recorded at
    /// insertion). Served through the shard's read view, like
    /// [`Self::contains_block`].
    pub fn cached_priority(&self, lbn: BlockAddr) -> Option<CachePriority> {
        self.shard(lbn)
            .view
            .read()
            .meta
            .get(lbn)
            .map(|e| e.priority)
    }

    fn shard_index(&self, lbn: BlockAddr) -> usize {
        (lbn.0 % self.shards.len() as u64) as usize
    }

    fn shard(&self, lbn: BlockAddr) -> &Shard {
        &self.shards[self.shard_index(lbn)]
    }

    fn policy_request(&self, req: &ClassifiedRequest) -> PolicyRequest {
        PolicyRequest {
            direction: req.io.direction,
            class: req.class,
            qos: req.policy,
            prio: self.config.resolve(req.policy),
        }
    }

    /// The optimistic fast path: serves `req` entirely under the shard's
    /// read view iff it is a single-block read repeating the immediately
    /// preceding hit on its shard (same block, same request shape). The
    /// skipped `on_hit` is a no-op by the
    /// [`CachePolicy::repeat_hit_idempotent`] contract, so metadata,
    /// policy state, statistics totals and the SSD transfer (timing
    /// included) come out identical to the mutex path. Returns `false`
    /// when the request must take the slow path.
    fn try_fast_read_hit(&self, req: &ClassifiedRequest, preq: &PolicyRequest) -> bool {
        if !self.hit_fast_path
            || req.blocks() != 1
            || req.io.direction != Direction::Read
            // Buffered-priority requests keep the per-request flush check
            // of the slow path (a pure hit cannot grow the buffer, but the
            // conservative skip keeps the two paths trivially equivalent).
            || (self.write_buffering && preq.prio == CachePriority(0))
        {
            return false;
        }
        let lbn = req.io.range.start;
        let shard = self.shard(lbn);
        {
            let view = shard.view.read();
            let expected = HotHit {
                lbn,
                fingerprint: hit_fingerprint(preq),
            };
            if view.hot != Some(expected) {
                return false;
            }
            debug_assert!(
                view.meta.contains(lbn),
                "hot-hit descriptor names a non-resident block"
            );
        }
        // Statistics are atomics and the device has its own
        // synchronization, so the view is released first — mirroring the
        // slow path, which issues device traffic after dropping its shard
        // guards.
        shard.stats.record_action(CacheAction::CacheHit, 1);
        shard.stats.record_class(req.class, 1, 1);
        shard.stats.record_priority(preq.prio.0, 1, 1);
        shard.stats.record_fast_path_hit();
        if self.migration.enabled {
            // Heat for the hot block, folded in at the next migration
            // round — one relaxed add keeps the fast path lock-free.
            shard.fast_heat.fetch_add(1, Ordering::Relaxed);
        }
        self.ssd
            .serve(&IoRequest::read(BlockRange::new(lbn, 1), req.io.sequential));
        true
    }

    /// Issues the accumulated device traffic for one request.
    fn flush_batch(&self, req: &ClassifiedRequest, batch: DeviceBatch) {
        let seq = req.io.sequential;
        let start = req.io.range.start;
        if batch.hdd_read > 0 {
            self.hdd.serve(&IoRequest::read(
                BlockRange::new(start, batch.hdd_read),
                seq,
            ));
        }
        if batch.hdd_write > 0 {
            self.hdd.serve(&IoRequest::write(
                BlockRange::new(start, batch.hdd_write),
                seq,
            ));
        }
        if batch.ssd_read > 0 {
            self.ssd.serve(&IoRequest::read(
                BlockRange::new(start, batch.ssd_read),
                seq,
            ));
        }
        if batch.ssd_write > 0 {
            self.ssd.serve(&IoRequest::write(
                BlockRange::new(start, batch.ssd_write),
                seq,
            ));
        }
    }

    /// Serves a run of non-write-buffer requests as one vectored submission:
    /// block-level work is grouped by shard so each shard lock is taken once
    /// for the whole run, and the accumulated device traffic is issued as
    /// one queue per device so adjacent transfers merge up to the device
    /// queue depth.
    ///
    /// Per-shard block order equals request order, so the cache state and
    /// cache-level statistics after a run are identical to submitting each
    /// request individually. Under a write-buffering policy, callers must
    /// ensure no request in the run resolves to the write-buffer priority:
    /// buffered traffic needs the per-request flush check of
    /// [`StorageSystem::submit`]. (Non-buffering policies have no flush
    /// semantics, so any request may appear in a run.)
    fn submit_run(&self, reqs: &[ClassifiedRequest]) {
        match reqs {
            [] => return,
            // Straight to the unbatched path, below the journal wrapper:
            // the run is always part of an already-journaled operation.
            [one] => return self.submit_inner(*one),
            _ => {}
        }
        let preqs: Vec<PolicyRequest> = reqs.iter().map(|r| self.policy_request(r)).collect();
        let mut hits = vec![0u64; reqs.len()];
        let mut batches = vec![DeviceBatch::default(); reqs.len()];

        if self.shards.len() == 1 {
            // The whole run's block work under a single lock acquisition.
            let shard = &self.shards[0];
            let (mut inner, mut view) = shard.lock_for_write();
            for (i, req) in reqs.iter().enumerate() {
                for lbn in req.io.range.iter() {
                    if shard.handle_block(&mut inner, &mut view, lbn, &preqs[i], &mut batches[i]) {
                        hits[i] += 1;
                    }
                }
            }
            drop(view);
            drop(inner);
            // Request-level counters are atomics; recording them after the
            // guards drop changes nothing about the totals.
            for (i, req) in reqs.iter().enumerate() {
                shard.stats.record_class(req.class, req.blocks(), hits[i]);
                shard
                    .stats
                    .record_priority(preqs[i].prio.0, req.blocks(), hits[i]);
            }
        } else {
            // Group block work by shard, preserving request order within
            // each shard, and visit every touched shard exactly once.
            let mut per_shard: Vec<Vec<(u32, BlockAddr)>> = vec![Vec::new(); self.shards.len()];
            for (i, req) in reqs.iter().enumerate() {
                for lbn in req.io.range.iter() {
                    per_shard[self.shard_index(lbn)].push((i as u32, lbn));
                }
            }
            for (idx, blocks) in per_shard.iter().enumerate() {
                if blocks.is_empty() {
                    continue;
                }
                let shard = &self.shards[idx];
                let (mut inner, mut view) = shard.lock_for_write();
                for &(i, lbn) in blocks {
                    let i = i as usize;
                    if shard.handle_block(&mut inner, &mut view, lbn, &preqs[i], &mut batches[i]) {
                        hits[i] += 1;
                    }
                }
            }
            // Request-level counters are striped to the run's first shard;
            // the aggregate view sums all stripes, so placement is free.
            let shard = self.shard(reqs[0].io.range.start);
            for (i, req) in reqs.iter().enumerate() {
                shard.stats.record_class(req.class, req.blocks(), hits[i]);
                shard
                    .stats
                    .record_priority(preqs[i].prio.0, req.blocks(), hits[i]);
            }
        }

        // Issue the device traffic as one queue per device, in request
        // order (the order `submit` would have served it in), letting the
        // device merge adjacent same-direction transfers.
        let mut hdd_q = Vec::new();
        let mut ssd_q = Vec::new();
        for (req, b) in reqs.iter().zip(&batches) {
            let seq = req.io.sequential;
            let start = req.io.range.start;
            if b.hdd_read > 0 {
                hdd_q.push(IoRequest::read(BlockRange::new(start, b.hdd_read), seq));
            }
            if b.hdd_write > 0 {
                hdd_q.push(IoRequest::write(BlockRange::new(start, b.hdd_write), seq));
            }
            if b.ssd_read > 0 {
                ssd_q.push(IoRequest::read(BlockRange::new(start, b.ssd_read), seq));
            }
            if b.ssd_write > 0 {
                ssd_q.push(IoRequest::write(BlockRange::new(start, b.ssd_write), seq));
            }
        }
        if !hdd_q.is_empty() {
            self.hdd.serve_batch(&hdd_q);
        }
        if !ssd_q.is_empty() {
            self.ssd.serve_batch(&ssd_q);
        }
        // No write-buffer flush check: under a buffering policy the run
        // contains no write-buffer requests, and under a non-buffering
        // policy the buffer can never grow.
    }

    /// Flushes every shard's write buffer that exceeds its threshold `b`:
    /// dirty buffered blocks are written to the HDD and the buffer space is
    /// returned to the cache.
    fn maybe_flush_write_buffers(&self) {
        for (idx, shard) in self.shards.iter().enumerate() {
            // Lock-free occupancy screen. Occupancy only moves under the
            // stripe mutex and the thread that pushed it over the limit
            // sees its own increment here, so a needed flush is never
            // skipped; shards that cannot need one are not locked at all.
            if shard.write_buffer_limit == 0
                || shard.write_buffer_resident.load(Ordering::Relaxed) <= shard.write_buffer_limit
            {
                continue;
            }
            let (mut inner, mut view) = shard.lock_for_write();
            let drained = shard.drain_write_buffer_if_full(&mut inner, &mut view);
            drop(view);
            drop(inner);
            if let Some(dirty_blocks) = drained {
                // The drain tore down the buffer inside the enclosing
                // journal batch; the note marks the torn-drain window the
                // fault-injection suite crashes into. Never replayed.
                if let Some(journal) = &self.journal {
                    journal.note_drain(idx, dirty_blocks);
                }
                if dirty_blocks > 0 {
                    // The flush is a large, mostly sequential transfer.
                    self.hdd
                        .serve(&IoRequest::write(BlockRange::new(0u64, dirty_blocks), true));
                }
            }
        }
    }

    /// Runs one journaled operation: appends `op` write-ahead (opening a
    /// batch if needed), executes `body`, then marks the operation done —
    /// committing the batch once it holds `commit_interval` operations.
    /// With journaling disabled this is exactly `body()`.
    fn journaled<T>(&self, op: impl FnOnce() -> JournalOp, body: impl FnOnce() -> T) -> T {
        match &self.journal {
            None => body(),
            Some(journal) => {
                journal.op_begin(op());
                let out = body();
                journal.op_end();
                out
            }
        }
    }

    /// [`StorageSystem::submit`] below the journal wrapper.
    fn submit_inner(&self, req: ClassifiedRequest) {
        let preq = self.policy_request(&req);
        if self.try_fast_read_hit(&req, &preq) {
            return;
        }
        let mut batch = DeviceBatch::default();
        let mut hits = 0u64;
        // Hold one shard's lock pair at a time, re-acquiring only when the
        // next block hashes to a different shard: with one shard the whole
        // request's block work is handled under a single acquisition,
        // exactly like the unsharded implementation.
        let mut guard: Option<(MutexGuard<'_, ShardInner>, RwLockWriteGuard<'_, MetaView>)> = None;
        let mut guard_idx = usize::MAX;
        for lbn in req.io.range.iter() {
            let idx = self.shard_index(lbn);
            if guard_idx != idx {
                // Release the old shard before acquiring the next one:
                // assigning directly would briefly hold both shards'
                // locks, and ascending block addresses make the
                // transition order cyclic (N-1 → 0), which can deadlock N
                // concurrent multi-block submits.
                drop(guard.take());
                guard = Some(self.shards[idx].lock_for_write());
                guard_idx = idx;
            }
            let (inner, view) = guard.as_mut().expect("shard guard just acquired");
            if self.shards[idx].handle_block(inner, view, lbn, &preq, &mut batch) {
                hits += 1;
            }
        }
        drop(guard);
        // Request-level counters are striped to the first shard (the only
        // shard, when unsharded); they are atomics, so no lock is needed
        // and the aggregate view sums all stripes.
        let shard = self.shard(req.io.range.start);
        shard.stats.record_class(req.class, req.blocks(), hits);
        shard.stats.record_priority(preq.prio.0, req.blocks(), hits);
        self.flush_batch(&req, batch);
        // Only write-buffer traffic can grow the buffer, so the flush
        // check is needed — and its cost paid — only under a buffering
        // policy and only then.
        if self.write_buffering && preq.prio == CachePriority(0) {
            self.maybe_flush_write_buffers();
        }
    }

    /// [`StorageSystem::submit_batch`] below the journal wrapper.
    fn submit_batch_inner(&self, reqs: Vec<ClassifiedRequest>) {
        if reqs.len() <= 1 {
            if let Some(req) = reqs.into_iter().next() {
                self.submit_inner(req);
            }
            return;
        }
        // Under a non-buffering policy the buffer can never grow, so the
        // whole batch is served as one run — no fragmentation, full
        // device queue merging.
        if !self.write_buffering {
            return self.submit_run(&reqs);
        }
        // Write-buffer requests keep the per-request flush semantics of
        // `submit`, so the batch is served as maximal runs of non-buffered
        // requests with buffered requests submitted individually between
        // them. On the hot path (scan batches) the whole batch is one run.
        let mut run: Vec<ClassifiedRequest> = Vec::with_capacity(reqs.len());
        for req in reqs {
            if self.config.resolve(req.policy) == CachePriority(0) {
                self.submit_run(&run);
                run.clear();
                self.submit_inner(req);
            } else {
                run.push(req);
            }
        }
        self.submit_run(&run);
    }

    /// [`StorageSystem::reset_stats`] below the journal wrapper. Before
    /// the counters clear, any heat the optimistic fast path accumulated
    /// is folded into the migration tracker, so learned heat survives
    /// the reset instead of riding a side-counter whose hot descriptor a
    /// later slow-path visit may invalidate (which would drop it at the
    /// next round's fold).
    fn reset_stats_inner(&self) {
        if self.migration.enabled {
            for shard in &self.shards {
                if shard.fast_heat.load(Ordering::Relaxed) == 0 {
                    continue;
                }
                let (mut inner, view) = shard.lock_for_write();
                if let Some(hot) = view.hot {
                    let fast_hits = shard.fast_heat.swap(0, Ordering::Relaxed);
                    if fast_hits > 0 {
                        if let Some(mig) = inner.migration.as_mut() {
                            mig.heat.record_n(hot.lbn, fast_hits);
                        }
                    }
                }
            }
        }
        for shard in &self.shards {
            shard.stats.reset();
        }
        self.ssd.reset_stats();
        self.hdd.reset_stats();
    }

    /// [`StorageSystem::trim`] below the journal wrapper.
    fn trim_inner(&self, cmd: &TrimCommand) {
        for range in &cmd.ranges {
            let mut blocks_iter = range.iter().peekable();
            while let Some(lbn) = blocks_iter.next() {
                let idx = self.shard_index(lbn);
                let shard = &self.shards[idx];
                let (mut inner, mut view) = shard.lock_for_write();
                let mut trimmed = shard.trim_block(&mut inner, &mut view, lbn);
                while let Some(&next) = blocks_iter.peek() {
                    if self.shard_index(next) != idx {
                        break;
                    }
                    blocks_iter.next();
                    trimmed += shard.trim_block(&mut inner, &mut view, next);
                }
                if trimmed > 0 {
                    shard.stats.record_action(CacheAction::Trim, trimmed);
                }
            }
        }
    }
}

impl StorageSystem for CacheEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn submit(&self, req: ClassifiedRequest) {
        self.journaled(|| JournalOp::Submit(req), || self.submit_inner(req));
    }

    fn submit_batch(&self, reqs: Vec<ClassifiedRequest>) {
        match &self.journal {
            // The clone of the request vector is paid only with
            // journaling on; disabled, the batch moves straight through.
            None => self.submit_batch_inner(reqs),
            Some(journal) => {
                // One record for the whole batch: the batched path merges
                // adjacent device transfers, so replaying it as
                // individual submits would diverge from the original
                // device timing.
                journal.op_begin(JournalOp::SubmitBatch(reqs.clone()));
                self.submit_batch_inner(reqs);
                journal.op_end();
            }
        }
    }

    fn trim(&self, cmd: &TrimCommand) {
        self.journaled(|| JournalOp::Trim(cmd.clone()), || self.trim_inner(cmd));
    }

    fn stats(&self) -> CacheStats {
        // Lock-free aggregation: per-shard snapshots are atomic reads, and
        // the residency count takes only the shared read view.
        let mut aggregate = CacheStats::new();
        let mut resident = 0u64;
        for shard in &self.shards {
            aggregate.merge(&shard.stats.snapshot());
            resident += shard.view.read().meta.len() as u64;
        }
        aggregate.resident_blocks = resident;
        aggregate.ssd = Some(self.ssd.stats());
        aggregate.hdd = Some(self.hdd.stats());
        aggregate
    }

    fn now(&self) -> Duration {
        self.clock.now()
    }

    fn reset_stats(&self) {
        self.journaled(|| JournalOp::StatsReset, || self.reset_stats_inner());
    }

    fn resident_blocks(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.view.read().meta.len() as u64)
            .sum()
    }

    fn migrate_idle(&self) -> MigrationStats {
        if !self.migration.enabled {
            // A pulse without a migration engine is a pure no-op on both
            // sides of a crash, so it is not worth a journal record.
            return self.migration_stats();
        }
        self.journaled(|| JournalOp::MigrationPulse, || self.migrate_idle_inner())
    }

    fn migration_stats(&self) -> MigrationStats {
        let mut stats = MigrationStats {
            rounds: self.migration_rounds.load(Ordering::Relaxed),
            skipped_rounds: self.migration_skipped.load(Ordering::Relaxed),
            ..MigrationStats::default()
        };
        for shard in &self.shards {
            shard.migration_counters.add_into(&mut stats);
        }
        stats
    }
}

impl CacheEngine {
    /// [`StorageSystem::migrate_idle`] below the journal wrapper (only
    /// reached with migration enabled).
    fn migrate_idle_inner(&self) -> MigrationStats {
        // The gate is the *sum* of both devices' accrued idle time: it is
        // monotone and grows whenever either device sits idle while the
        // other serves, so rounds keep firing even when one device is
        // saturated (exactly the phase where migration matters). The
        // per-device minimum would stagnate there.
        let idle_ns = (self.ssd.idle_time() + self.hdd.idle_time()).as_nanos() as u64;
        let threshold_ns = self.migration.idle_threshold.as_nanos() as u64;
        let mark = self.idle_mark.load(Ordering::Acquire);
        if idle_ns.saturating_sub(mark) < threshold_ns {
            self.migration_skipped.fetch_add(1, Ordering::Relaxed);
            return self.migration_stats();
        }
        // Claim the idle window; a concurrent caller losing the race
        // counts a skip instead of double-running the round.
        if self
            .idle_mark
            .compare_exchange(mark, idle_ns, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            self.migration_skipped.fetch_add(1, Ordering::Relaxed);
            return self.migration_stats();
        }
        self.migration_rounds.fetch_add(1, Ordering::Relaxed);
        let mut total = DeviceBatch::default();
        for shard in &self.shards {
            let (mut inner, mut view) = shard.lock_for_write();
            let batch = shard.migration_round(&mut inner, &mut view);
            drop(view);
            drop(inner);
            total.hdd_read += batch.hdd_read;
            total.hdd_write += batch.hdd_write;
            total.ssd_read += batch.ssd_read;
            total.ssd_write += batch.ssd_write;
        }
        // Issue the round's traffic outside every shard lock, one batched
        // command per device and direction (promotion fetches, demotion
        // writebacks of dirty blocks, SSD placements).
        if total.hdd_read > 0 {
            self.hdd.serve(&IoRequest::read(
                BlockRange::new(0u64, total.hdd_read),
                false,
            ));
        }
        if total.hdd_write > 0 {
            self.hdd.serve(&IoRequest::write(
                BlockRange::new(0u64, total.hdd_write),
                false,
            ));
        }
        if total.ssd_read > 0 {
            self.ssd.serve(&IoRequest::read(
                BlockRange::new(0u64, total.ssd_read),
                false,
            ));
        }
        if total.ssd_write > 0 {
            self.ssd.serve(&IoRequest::write(
                BlockRange::new(0u64, total.ssd_write),
                false,
            ));
        }
        self.migration_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru_cache::LruCache;
    use hstorage_storage::{QosPolicy, RequestClass};

    fn engine(kind: CachePolicyKind, capacity: u64) -> CacheEngine {
        CacheEngine::new(PolicyConfig::paper_default(), capacity).with_cache_policy(kind)
    }

    fn read_req(start: u64, len: u64, class: RequestClass, policy: QosPolicy) -> ClassifiedRequest {
        let sequential = matches!(class, RequestClass::Sequential);
        ClassifiedRequest::new(
            IoRequest::read(BlockRange::new(start, len), sequential),
            class,
            policy,
        )
    }

    fn write_req(
        start: u64,
        len: u64,
        class: RequestClass,
        policy: QosPolicy,
    ) -> ClassifiedRequest {
        ClassifiedRequest::new(
            IoRequest::write(BlockRange::new(start, len), false),
            class,
            policy,
        )
    }

    #[test]
    fn policy_selection_renames_the_system() {
        assert_eq!(
            engine(CachePolicyKind::SemanticPriority, 10).name(),
            "hStorage-DB"
        );
        assert_eq!(engine(CachePolicyKind::Lru, 10).name(), "hybrid-lru");
        assert_eq!(engine(CachePolicyKind::cflru(), 10).name(), "hybrid-cflru");
        assert_eq!(engine(CachePolicyKind::two_q(), 10).name(), "hybrid-2q");
        assert_eq!(
            engine(CachePolicyKind::two_q(), 10).cache_policy_kind(),
            CachePolicyKind::two_q()
        );
    }

    #[test]
    fn lru_policy_engine_admits_sequential_data_unlike_the_semantic_policy() {
        let c = engine(CachePolicyKind::Lru, 100);
        c.submit(read_req(
            0,
            50,
            RequestClass::Sequential,
            QosPolicy::NonCachingNonEviction,
        ));
        // The scan fills the cache — the classic pollution the semantic
        // policy avoids.
        assert_eq!(c.resident_blocks(), 50);
        assert_eq!(c.stats().action(CacheAction::Bypassing), 0);

        let semantic = engine(CachePolicyKind::SemanticPriority, 100);
        semantic.submit(read_req(
            0,
            50,
            RequestClass::Sequential,
            QosPolicy::NonCachingNonEviction,
        ));
        assert_eq!(semantic.resident_blocks(), 0);
    }

    #[test]
    fn lru_policy_engine_matches_the_standalone_lru_baseline_on_reuse() {
        // The engine running the Lru policy and the paper's standalone
        // LruCache baseline implement the same algorithm; on a
        // no-write-buffer trace their cache-level counters agree.
        let eng = engine(CachePolicyKind::Lru, 32);
        let base = LruCache::new(32);
        let mk = |i: u64| read_req(i % 48, 1, RequestClass::Random, QosPolicy::priority(2));
        for i in 0..500u64 {
            eng.submit(mk(i));
            base.submit(mk(i));
        }
        let (es, bs) = (eng.stats(), base.stats());
        assert_eq!(es.per_class, bs.per_class);
        assert_eq!(
            es.action(CacheAction::Eviction),
            bs.action(CacheAction::Eviction)
        );
        assert_eq!(eng.resident_blocks(), base.resident_blocks());
    }

    #[test]
    fn cflru_policy_engine_saves_dirty_writebacks_over_lru() {
        // Half the resident set is dirty; a stream of fresh reads then
        // forces evictions. CFLRU must write back fewer dirty blocks than
        // plain LRU for the same logical traffic.
        let run = |kind: CachePolicyKind| {
            let c = engine(kind, 64);
            for i in 0..64u64 {
                if i % 2 == 0 {
                    c.submit(write_req(
                        i,
                        1,
                        RequestClass::Random,
                        QosPolicy::priority(3),
                    ));
                } else {
                    c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(3)));
                }
            }
            for i in 1_000..1_016u64 {
                c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(3)));
            }
            c.stats().hdd.expect("engine has an HDD").blocks_written
        };
        assert!(run(CachePolicyKind::cflru()) < run(CachePolicyKind::Lru));
    }

    #[test]
    fn two_q_policy_engine_resists_scan_pollution() {
        // Repeated rounds of a small hot set followed by a one-shot scan
        // larger than the cache. LRU loses the hot set to every scan; 2Q
        // evicts it to the ghost list once, promotes it to Am on the next
        // round's re-reference, and from then on the scans only churn the
        // probationary queue.
        let hot_hits = |kind: CachePolicyKind| {
            let c = engine(kind, 64);
            for round in 0..30u64 {
                for i in 0..8u64 {
                    c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(2)));
                }
                c.submit(read_req(
                    10_000 + round * 64,
                    64,
                    RequestClass::Sequential,
                    QosPolicy::NonCachingNonEviction,
                ));
            }
            c.stats().class(RequestClass::Random).cache_hits
        };
        let two_q = hot_hits(CachePolicyKind::two_q());
        let lru = hot_hits(CachePolicyKind::Lru);
        assert!(
            two_q > 2 * lru.max(1),
            "2Q must out-hit LRU on the scan-polluted hot set (2Q {two_q}, LRU {lru})"
        );
    }

    #[test]
    fn arc_policy_engine_resists_scan_pollution() {
        // A hot set that proves reuse once while resident (back-to-back
        // warm-up touches), then rounds of one hot pass plus a one-shot
        // scan as large as the cache. ARC holds the promoted set in T2
        // while the scans churn T1; LRU loses it to every scan.
        let hot_hits = |kind: CachePolicyKind| {
            let c = engine(kind, 64);
            for _ in 0..2 {
                for i in 0..8u64 {
                    c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(2)));
                }
            }
            for round in 0..30u64 {
                for i in 0..8u64 {
                    c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(2)));
                }
                c.submit(read_req(
                    10_000 + round * 64,
                    64,
                    RequestClass::Sequential,
                    QosPolicy::NonCachingNonEviction,
                ));
            }
            c.stats().class(RequestClass::Random).cache_hits
        };
        let arc = hot_hits(CachePolicyKind::Arc);
        let lru = hot_hits(CachePolicyKind::Lru);
        assert!(
            arc > 2 * lru.max(1),
            "ARC must out-hit LRU on the scan-polluted hot set (ARC {arc}, LRU {lru})"
        );
    }

    #[test]
    fn per_stream_engine_routes_scans_to_semantic_and_reads_to_arc() {
        let c = engine(CachePolicyKind::per_stream(), 100);
        // The sequential stream consults the semantic inner: scans bypass.
        c.submit(read_req(
            0,
            50,
            RequestClass::Sequential,
            QosPolicy::NonCachingNonEviction,
        ));
        assert_eq!(c.resident_blocks(), 0);
        assert_eq!(c.stats().action(CacheAction::Bypassing), 50);
        // The random stream consults ARC: even a non-caching QoS is
        // admitted (ARC ignores classification, like any baseline).
        c.submit(read_req(
            1_000,
            10,
            RequestClass::Random,
            QosPolicy::priority(2),
        ));
        assert_eq!(c.resident_blocks(), 10);
        // Temporary-data lifecycle still works through the semantic
        // stream: write, trim, gone.
        c.submit(write_req(
            2_000,
            20,
            RequestClass::TemporaryData,
            QosPolicy::priority(1),
        ));
        assert_eq!(c.resident_blocks(), 30);
        c.trim(&TrimCommand::single(BlockRange::new(2_000u64, 20)));
        assert_eq!(c.resident_blocks(), 10);
        assert_eq!(c.stats().action(CacheAction::Trim), 20);
    }

    #[test]
    fn per_stream_engine_keeps_the_semantic_write_buffer() {
        let c = engine(CachePolicyKind::per_stream(), 100); // buffer limit 10
        assert_eq!(c.write_buffer_limit(), 10);
        for i in 0..11u64 {
            c.submit(write_req(
                i,
                1,
                RequestClass::Update,
                QosPolicy::WriteBuffer,
            ));
        }
        // The 11th buffered write exceeds the limit and triggers a flush,
        // exactly like the plain semantic engine.
        assert_eq!(c.write_buffer_resident(), 0);
        assert_eq!(c.stats().action(CacheAction::WriteBufferFlush), 11);
    }

    #[test]
    #[should_panic(expected = "invalid cache-policy configuration")]
    fn engine_rejects_out_of_range_policy_knobs() {
        let _ = engine(
            CachePolicyKind::TwoQ {
                kin_pct: 25,
                kout_pct: 201,
            },
            64,
        );
    }

    #[test]
    fn non_semantic_policies_have_no_write_buffer() {
        let c = engine(CachePolicyKind::Lru, 100);
        for i in 0..30u64 {
            c.submit(write_req(
                i,
                1,
                RequestClass::Update,
                QosPolicy::WriteBuffer,
            ));
        }
        // Buffered updates are ordinary cached writes: no flush, no
        // write-buffer residency.
        assert_eq!(c.write_buffer_resident(), 0);
        assert_eq!(c.stats().action(CacheAction::WriteBufferFlush), 0);
        assert_eq!(c.resident_blocks(), 30);
    }

    #[test]
    fn policies_keep_capacity_invariants_under_churn() {
        for kind in CachePolicyKind::all() {
            let c = engine(kind, 64);
            for i in 0..1_000u64 {
                let prio = 2 + (i % 5) as u8;
                if i % 7 == 0 {
                    c.submit(write_req(
                        i,
                        1,
                        RequestClass::Random,
                        QosPolicy::priority(prio),
                    ));
                } else {
                    c.submit(read_req(
                        i % 200,
                        1,
                        RequestClass::Random,
                        QosPolicy::priority(prio),
                    ));
                }
                assert!(c.resident_blocks() <= 64, "{kind}");
            }
            let s = c.stats();
            assert_eq!(
                s.class(RequestClass::Random).accessed_blocks,
                1_000,
                "{kind}"
            );
        }
    }

    #[test]
    fn trim_invalidates_under_every_policy() {
        for kind in CachePolicyKind::all() {
            let c = engine(kind, 100);
            c.submit(write_req(
                0,
                40,
                RequestClass::TemporaryData,
                QosPolicy::priority(1),
            ));
            assert_eq!(c.resident_blocks(), 40, "{kind}");
            c.trim(&TrimCommand::single(BlockRange::new(0u64, 40)));
            assert_eq!(c.resident_blocks(), 0, "{kind}");
            assert_eq!(c.stats().action(CacheAction::Trim), 40, "{kind}");
            // Space is reusable afterwards.
            c.submit(read_req(
                200,
                60,
                RequestClass::Random,
                QosPolicy::priority(2),
            ));
            assert_eq!(c.resident_blocks(), 60, "{kind}");
        }
    }

    #[test]
    fn trim_of_an_evicted_block_clears_its_2q_ghost() {
        // Temporary-data lifecycle against the ghost list: a block that
        // was evicted (and ghosted) and then TRIMmed must be a first-touch
        // block again when its address is re-used — not falsely hot.
        let c = engine(CachePolicyKind::two_q(), 8); // kin = 2 per shard
        c.submit(write_req(
            3,
            1,
            RequestClass::TemporaryData,
            QosPolicy::priority(1),
        ));
        // Churn enough same-shard blocks through probation to evict 3.
        for i in 0..20u64 {
            c.submit(read_req(
                10 + i,
                1,
                RequestClass::Random,
                QosPolicy::priority(2),
            ));
        }
        assert!(!c.contains_block(BlockAddr(3)), "block 3 must be evicted");
        // End of lifetime for the (absent) block.
        c.trim(&TrimCommand::single(BlockRange::new(3u64, 1)));
        assert_eq!(c.stats().action(CacheAction::Trim), 0, "nothing resident");

        // Against a twin engine that never saw the block, the re-used
        // address must behave identically (i.e. not be ghost-promoted).
        let twin = engine(CachePolicyKind::two_q(), 8);
        for e in [&c, &twin] {
            e.submit(read_req(3, 1, RequestClass::Random, QosPolicy::priority(2)));
            for i in 100..140u64 {
                e.submit(read_req(
                    3 + i * 8,
                    1,
                    RequestClass::Random,
                    QosPolicy::priority(2),
                ));
            }
        }
        assert_eq!(
            c.contains_block(BlockAddr(3)),
            twin.contains_block(BlockAddr(3)),
            "stale ghost must not change the re-used address's fate"
        );
    }

    #[test]
    fn eviction_ghosts_a_2q_block_but_trim_forgets_it() {
        // The engine now announces its own displacements with
        // `RemoveReason::Evict`, so 2Q's probationary ghost list diverges
        // between the two ways a block can leave: evicted → remembered in
        // a1out (re-use is ghost-promoted straight to Am), trimmed →
        // forgotten (re-use restarts probation).
        let build = |trim_after_evict: bool| {
            let c = engine(CachePolicyKind::two_q(), 8); // kin = 2
            c.submit(read_req(3, 1, RequestClass::Random, QosPolicy::priority(2)));
            // Fill the cache and push one more block: the probationary LRU
            // (block 3) is evicted and lands on the ghost list.
            for i in 10..18u64 {
                c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(2)));
            }
            assert!(!c.contains_block(BlockAddr(3)), "block 3 must be evicted");
            if trim_after_evict {
                c.trim(&TrimCommand::single(BlockRange::new(3u64, 1)));
            }
            // Re-use the address, then churn fresh probationary blocks.
            c.submit(read_req(3, 1, RequestClass::Random, QosPolicy::priority(2)));
            for i in 100..110u64 {
                c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(2)));
            }
            c.contains_block(BlockAddr(3))
        };
        assert!(
            build(false),
            "an engine-evicted block must be ghost-promoted to Am on re-use"
        );
        assert!(
            !build(true),
            "a trimmed ghost must restart probation and churn out with a1in"
        );
    }

    #[test]
    fn eviction_ghosts_an_arc_block_but_trim_forgets_it() {
        // Same divergence for ARC's B1 ghost list: an evicted T1 block is
        // remembered (re-use is a ghost hit into T2 and survives T1 churn);
        // a trimmed one is forgotten (re-use restarts in T1 and churns out).
        let build = |trim_after_evict: bool| {
            let c = engine(CachePolicyKind::Arc, 8);
            // Warm a hot set into T2 first so T1 stays narrow — ARC bounds
            // |T1| + |B1| by the capacity, and a full-width T1 would push
            // the block-3 ghost out of B1 before its re-use.
            for _ in 0..2 {
                for i in 20..24u64 {
                    c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(2)));
                }
            }
            c.submit(read_req(3, 1, RequestClass::Random, QosPolicy::priority(2)));
            for i in 10..14u64 {
                c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(2)));
            }
            assert!(!c.contains_block(BlockAddr(3)), "block 3 must be evicted");
            if trim_after_evict {
                c.trim(&TrimCommand::single(BlockRange::new(3u64, 1)));
            }
            c.submit(read_req(3, 1, RequestClass::Random, QosPolicy::priority(2)));
            for i in 100..110u64 {
                c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(2)));
            }
            c.contains_block(BlockAddr(3))
        };
        assert!(
            build(false),
            "an engine-evicted block must be a B1 ghost hit into T2 on re-use"
        );
        assert!(
            !build(true),
            "a trimmed ghost must restart in T1 and churn out"
        );
    }

    #[test]
    fn trimming_a_clean_write_buffered_block_debits_its_occupancy() {
        // A read admitted under the WriteBuffer QoS is a *clean* group-0
        // resident; trimming it must debit the occupancy counter exactly
        // once. An over-count (the bug the old silent saturation could
        // mask) would surface below as a premature flush.
        let c = engine(CachePolicyKind::SemanticPriority, 100); // limit 10
        assert_eq!(c.write_buffer_limit(), 10);
        c.submit(read_req(7, 1, RequestClass::Update, QosPolicy::WriteBuffer));
        assert_eq!(c.cached_priority(BlockAddr(7)), Some(CachePriority(0)));
        assert_eq!(c.write_buffer_resident(), 1);
        c.trim(&TrimCommand::single(BlockRange::new(7u64, 1)));
        assert_eq!(c.write_buffer_resident(), 0);
        // The counter is exact afterwards: exactly `limit` buffered writes
        // fit without a flush, and one more drains.
        for i in 100..110u64 {
            c.submit(write_req(
                i,
                1,
                RequestClass::Update,
                QosPolicy::WriteBuffer,
            ));
        }
        assert_eq!(c.write_buffer_resident(), 10);
        assert_eq!(c.stats().action(CacheAction::WriteBufferFlush), 0);
        c.submit(write_req(
            110,
            1,
            RequestClass::Update,
            QosPolicy::WriteBuffer,
        ));
        assert_eq!(c.write_buffer_resident(), 0);
        assert_eq!(c.stats().action(CacheAction::WriteBufferFlush), 11);
    }

    #[test]
    fn write_buffer_occupancy_tracks_resident_group_zero_exactly() {
        // Differential check of the occupancy counter against ground truth
        // (the number of resident blocks whose metadata group is 0) under
        // randomized buffered/regular/trim traffic, for both policies that
        // maintain a write buffer.
        for kind in [
            CachePolicyKind::SemanticPriority,
            CachePolicyKind::per_stream(),
        ] {
            let c = engine(kind, 64); // limit 6
            let mut state = 0x5707_ACEDu64;
            let mut rng = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state >> 33
            };
            for _ in 0..600 {
                let addr = rng() % 80;
                match rng() % 5 {
                    0 => c.submit(write_req(
                        addr,
                        1,
                        RequestClass::Update,
                        QosPolicy::WriteBuffer,
                    )),
                    1 => c.submit(read_req(
                        addr,
                        1,
                        RequestClass::Update,
                        QosPolicy::WriteBuffer,
                    )),
                    2 => c.submit(read_req(
                        addr,
                        1,
                        RequestClass::Random,
                        QosPolicy::priority(2),
                    )),
                    3 => c.submit(write_req(
                        addr,
                        1,
                        RequestClass::TemporaryData,
                        QosPolicy::priority(1),
                    )),
                    _ => c.trim(&TrimCommand::single(BlockRange::new(addr, 2))),
                }
                let ground_truth = (0..80u64)
                    .filter(|&l| c.cached_priority(BlockAddr(l)) == Some(CachePriority(0)))
                    .count() as u64;
                assert_eq!(c.write_buffer_resident(), ground_truth, "{kind}");
            }
        }
    }

    #[test]
    fn non_buffering_policies_serve_mixed_batches_as_one_run() {
        // A batch containing WriteBuffer requests must not fragment under
        // a policy without a write buffer: at queue depth 8 the adjacent
        // scan reads around the update still merge into few transfers.
        let one_run = CacheEngine::with_shard_count_and_queue_depth(
            PolicyConfig::paper_default(),
            1_000,
            1,
            8,
        )
        .with_cache_policy(CachePolicyKind::Lru);
        let reqs: Vec<ClassifiedRequest> = (0..64u64)
            .map(|i| {
                if i == 31 {
                    write_req(2_000, 1, RequestClass::Update, QosPolicy::WriteBuffer)
                } else {
                    read_req(
                        i,
                        1,
                        RequestClass::Sequential,
                        QosPolicy::NonCachingNonEviction,
                    )
                }
            })
            .collect();
        one_run.submit_batch(reqs);
        // 63 scan misses + 1 update: LRU admits everything, so the HDD
        // sees 63 read-allocation fetches. Unfragmented, they merge into
        // ceil(31/8) + ceil(32/8) = 8 transfers (split only at the
        // non-adjacent update address), not the ~10+ a per-request split
        // at the buffered write would produce.
        let hdd = one_run.stats().hdd.expect("engine has an HDD");
        assert_eq!(hdd.blocks_read, 63);
        assert_eq!(hdd.read_requests, 8);
    }

    #[test]
    fn batch_equals_sequential_for_every_policy() {
        for kind in CachePolicyKind::all() {
            let batched = engine(kind, 256);
            let sequential = engine(kind, 256);
            let reqs: Vec<ClassifiedRequest> = (0..300u64)
                .map(|i| match i % 4 {
                    0 => read_req(i % 80, 2, RequestClass::Random, QosPolicy::priority(2)),
                    1 => read_req(
                        1_000 + i,
                        1,
                        RequestClass::Sequential,
                        QosPolicy::NonCachingNonEviction,
                    ),
                    2 => write_req(i % 50, 1, RequestClass::Update, QosPolicy::WriteBuffer),
                    _ => write_req(
                        2_000 + i,
                        1,
                        RequestClass::TemporaryData,
                        QosPolicy::priority(1),
                    ),
                })
                .collect();
            for req in &reqs {
                sequential.submit(*req);
            }
            batched.submit_batch(reqs);
            assert_eq!(batched.stats(), sequential.stats(), "{kind}");
            assert_eq!(batched.now(), sequential.now(), "{kind}");
        }
    }

    /// A repeat-heavy single-block trace (every policy admits at least the
    /// priority-2 random reads, and the back-to-back repeats are what the
    /// fast path serves).
    fn repeat_heavy_trace() -> Vec<ClassifiedRequest> {
        let mut reqs = Vec::new();
        for round in 0..40u64 {
            for i in 0..6u64 {
                let r = read_req(i, 1, RequestClass::Random, QosPolicy::priority(2));
                // Three consecutive identical reads: the second and third
                // are bit-identical repeats of the first's hit.
                reqs.push(r);
                reqs.push(r);
                reqs.push(r);
            }
            // Perturbations between repeat bursts: a miss-and-allocate, a
            // write hit, a buffered update, and a trim.
            reqs.push(read_req(
                100 + round,
                1,
                RequestClass::Random,
                QosPolicy::priority(2),
            ));
            reqs.push(write_req(
                round % 6,
                1,
                RequestClass::Update,
                QosPolicy::priority(3),
            ));
            reqs.push(write_req(
                200 + round % 5,
                1,
                RequestClass::Update,
                QosPolicy::WriteBuffer,
            ));
        }
        reqs
    }

    #[test]
    fn optimistic_reads_match_the_locked_path_for_every_policy() {
        // The fast path must change nothing observable: logical statistics,
        // simulated time, residency and per-block state all agree with the
        // engine that takes the mutex on every submission.
        for kind in CachePolicyKind::all() {
            let optimistic = engine(kind, 64);
            let locked = engine(kind, 64).with_optimistic_reads(false);
            assert!(optimistic.optimistic_reads_active(), "{kind}");
            assert!(!locked.optimistic_reads_active(), "{kind}");
            for req in repeat_heavy_trace() {
                optimistic.submit(req);
                locked.submit(req);
            }
            optimistic.trim(&TrimCommand::single(BlockRange::new(0u64, 3)));
            locked.trim(&TrimCommand::single(BlockRange::new(0u64, 3)));
            assert_eq!(optimistic.stats(), locked.stats(), "{kind}");
            assert_eq!(optimistic.now(), locked.now(), "{kind}");
            assert_eq!(optimistic.resident_blocks(), locked.resident_blocks());
            for lbn in 0..250u64 {
                assert_eq!(
                    optimistic.cached_priority(BlockAddr(lbn)),
                    locked.cached_priority(BlockAddr(lbn)),
                    "{kind} block {lbn}"
                );
            }
            // And the diagnostic counters prove the paths diverged where
            // they should: repeats were served lock-free on one engine and
            // through the mutex on the other.
            assert!(
                optimistic.stats().contention.fast_path_hits > 0,
                "{kind}: the repeat-heavy trace must exercise the fast path"
            );
            assert_eq!(locked.stats().contention.fast_path_hits, 0, "{kind}");
            assert!(
                optimistic.stats().contention.lock_acquisitions
                    < locked.stats().contention.lock_acquisitions,
                "{kind}: the fast path must shed lock acquisitions"
            );
        }
    }

    #[test]
    fn fast_path_serves_only_bit_identical_repeats() {
        let c = engine(CachePolicyKind::Lru, 64);
        let r = |class, qos| read_req(5, 1, class, qos);
        c.submit(r(RequestClass::Random, QosPolicy::priority(2)));
        assert_eq!(c.stats().contention.fast_path_hits, 0, "miss: slow path");
        c.submit(r(RequestClass::Random, QosPolicy::priority(2)));
        assert_eq!(c.stats().contention.fast_path_hits, 0, "first hit arms");
        c.submit(r(RequestClass::Random, QosPolicy::priority(2)));
        assert_eq!(c.stats().contention.fast_path_hits, 1, "repeat is served");
        // A different request shape on the same block is not a repeat —
        // the policy must see it — but it re-arms the descriptor.
        c.submit(r(RequestClass::Update, QosPolicy::priority(2)));
        assert_eq!(c.stats().contention.fast_path_hits, 1);
        c.submit(r(RequestClass::Update, QosPolicy::priority(2)));
        assert_eq!(c.stats().contention.fast_path_hits, 2);
        // Multi-block reads never take the fast path.
        c.submit(read_req(5, 2, RequestClass::Random, QosPolicy::priority(2)));
        let after_multi = c.stats().contention.fast_path_hits;
        assert_eq!(after_multi, 2);
    }

    #[test]
    fn probes_do_not_take_the_stripe_mutex() {
        // Hold every shard's stripe mutex and drive the read-only probes:
        // if any of them needed the mutex this test would deadlock. (The
        // probes go through the RwLock read view and the atomics instead.)
        let c = engine(CachePolicyKind::SemanticPriority, 64);
        c.submit(read_req(1, 1, RequestClass::Random, QosPolicy::priority(2)));
        let guards: Vec<_> = c.shards.iter().map(|s| s.inner.lock()).collect();
        assert!(c.contains_block(BlockAddr(1)));
        assert_eq!(c.cached_priority(BlockAddr(1)), Some(CachePriority(2)));
        assert_eq!(c.resident_blocks(), 1);
        assert_eq!(c.write_buffer_resident(), 0);
        assert_eq!(c.write_buffer_limit(), 6);
        let stats = c.stats();
        assert_eq!(stats.resident_blocks, 1);
        assert_eq!(stats.class(RequestClass::Random).accessed_blocks, 1);
        drop(guards);
    }

    /// An eager migration config: every `migrate_idle` call runs a round.
    fn eager_migration(budget: usize) -> MigrationConfig {
        MigrationConfig::on()
            .with_idle_threshold(Duration::ZERO)
            .with_round_budget(budget)
    }

    #[test]
    fn migration_is_off_by_default_and_idle_pulses_are_free() {
        let c = engine(CachePolicyKind::SemanticPriority, 16);
        assert!(!c.migration_config().enabled);
        c.submit(read_req(1, 1, RequestClass::Random, QosPolicy::priority(2)));
        assert_eq!(c.migrate_idle(), MigrationStats::default());
        assert_eq!(c.migration_stats(), MigrationStats::default());
    }

    #[test]
    fn idle_gate_spaces_rounds_by_accrued_idle_time() {
        let c = engine(CachePolicyKind::SemanticPriority, 16)
            .with_migration(MigrationConfig::on().with_idle_threshold(Duration::from_secs(3600)));
        c.submit(read_req(1, 1, RequestClass::Random, QosPolicy::priority(2)));
        // Far below an hour of accrued idle: the pulse is counted but no
        // round runs.
        let stats = c.migrate_idle();
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.skipped_rounds, 1);
    }

    #[test]
    fn rounds_promote_hot_absent_blocks_over_cold_residents() {
        let c = engine(CachePolicyKind::SemanticPriority, 4).with_migration(eager_migration(64));
        // Four cold residents at priority 2 (accessed once each).
        for lbn in 0..4u64 {
            c.submit(read_req(
                lbn,
                1,
                RequestClass::Random,
                QosPolicy::priority(2),
            ));
        }
        assert_eq!(c.resident_blocks(), 4);
        // A hot absent set at priority 3: selective eviction refuses to
        // displace the higher-priority residents (2 >= 3 fails), so the
        // foreground path bypasses forever.
        for _ in 0..3 {
            for lbn in 100..104u64 {
                c.submit(read_req(
                    lbn,
                    1,
                    RequestClass::Random,
                    QosPolicy::priority(3),
                ));
            }
        }
        assert_eq!(c.resident_blocks(), 4);
        assert!(!c.contains_block(BlockAddr(100)));
        let stats = c.migrate_idle();
        // One round: all four heat-3 absents displace all four heat-1
        // residents.
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.promoted, 4);
        assert_eq!(stats.demoted, 4);
        for lbn in 100..104u64 {
            assert!(c.contains_block(BlockAddr(lbn)), "block {lbn} not promoted");
            // Promotions re-enter via the policy's normal insertion path.
            assert_eq!(c.cached_priority(BlockAddr(lbn)), Some(CachePriority(3)));
        }
        for lbn in 0..4u64 {
            assert!(!c.contains_block(BlockAddr(lbn)), "block {lbn} not demoted");
        }
        // Migration is background work: the foreground action counters
        // must not have recorded its moves as evictions.
        assert_eq!(c.stats().action(CacheAction::Eviction), 0);
    }

    #[test]
    fn equal_heat_never_migrates() {
        let c = engine(CachePolicyKind::SemanticPriority, 1).with_migration(eager_migration(64));
        c.submit(read_req(0, 1, RequestClass::Random, QosPolicy::priority(2)));
        c.submit(read_req(
            100,
            1,
            RequestClass::Random,
            QosPolicy::priority(3),
        ));
        let stats = c.migrate_idle();
        // Equal heat (1 vs 1) is churn without gain: nothing moves.
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.migrated(), 0);
        assert!(c.contains_block(BlockAddr(0)));
        assert!(!c.contains_block(BlockAddr(100)));
    }

    #[test]
    fn trim_of_a_queued_candidate_never_resurrects_the_block() {
        // Budget 2 = one demote/promote pair per round, so with two hot
        // absent blocks one is left queued for the lazy window.
        let c = engine(CachePolicyKind::SemanticPriority, 4).with_migration(eager_migration(2));
        for lbn in 0..4u64 {
            c.submit(read_req(
                lbn,
                1,
                RequestClass::Random,
                QosPolicy::priority(2),
            ));
        }
        for _ in 0..3 {
            for lbn in [100u64, 101] {
                c.submit(read_req(
                    lbn,
                    1,
                    RequestClass::Random,
                    QosPolicy::priority(3),
                ));
            }
        }
        let stats = c.migrate_idle();
        assert_eq!(stats.promoted, 1);
        assert!(c.contains_block(BlockAddr(100)), "hotter tiebreak first");
        assert!(!c.contains_block(BlockAddr(101)), "queued, not promoted");
        // The queued candidate's lifetime ends before the next round.
        c.trim(&TrimCommand::new(vec![BlockRange::new(101u64, 1)]));
        let stats = c.migrate_idle();
        assert!(stats.trim_cancellations >= 1, "queue entry cancelled");
        assert!(
            !c.contains_block(BlockAddr(101)),
            "trimmed block resurrected by migration"
        );
        assert_eq!(stats.promoted, 1, "no further promotion of dead data");
    }

    #[test]
    fn a_hit_rescues_a_queued_demotion() {
        // Budget 2 and three hot absents: the round demotes one resident
        // and queues the next-coldest for demotion.
        let c = engine(CachePolicyKind::SemanticPriority, 2).with_migration(eager_migration(2));
        for lbn in 0..2u64 {
            c.submit(read_req(
                lbn,
                1,
                RequestClass::Random,
                QosPolicy::priority(2),
            ));
        }
        for _ in 0..3 {
            for lbn in 100..103u64 {
                c.submit(read_req(
                    lbn,
                    1,
                    RequestClass::Random,
                    QosPolicy::priority(3),
                ));
            }
        }
        let stats = c.migrate_idle();
        assert_eq!(stats.demoted, 1);
        // Block 1 is now queued for demotion; a foreground hit proves it
        // hot again and cancels the queue entry.
        c.submit(read_req(1, 1, RequestClass::Random, QosPolicy::priority(2)));
        assert_eq!(c.migration_stats().cancelled_demotions, 1);
    }

    #[test]
    fn journaling_is_off_by_default() {
        let c = engine(CachePolicyKind::SemanticPriority, 16);
        assert!(!c.journal_config().enabled);
        assert_eq!(c.journal_len(), 0);
        assert!(c.journal_snapshot().is_none());
        c.submit(read_req(1, 1, RequestClass::Random, QosPolicy::priority(2)));
        assert_eq!(c.journal_len(), 0, "no journal attached, nothing recorded");
    }

    #[test]
    fn the_journal_frames_each_engine_op_in_a_batch() {
        let c = engine(CachePolicyKind::SemanticPriority, 16).with_journal(JournalConfig::on());
        c.submit(read_req(1, 1, RequestClass::Random, QosPolicy::priority(2)));
        c.trim(&TrimCommand::new(vec![BlockRange::new(1u64, 1)]));
        // Two ops at commit interval 1: two begin/op/commit triples.
        assert_eq!(c.journal_len(), 6);
        let records = c.journal_snapshot().expect("journal attached");
        assert!(matches!(
            records.records()[1],
            crate::journal::JournalRecord::Op(JournalOp::Submit(_))
        ));
        assert!(matches!(
            records.records()[4],
            crate::journal::JournalRecord::Op(JournalOp::Trim(_))
        ));
    }

    #[test]
    #[should_panic(expected = "journaling must be configured before submitting traffic")]
    fn the_journal_cannot_be_attached_to_a_warm_engine() {
        let c = engine(CachePolicyKind::SemanticPriority, 16);
        c.submit(read_req(1, 1, RequestClass::Random, QosPolicy::priority(2)));
        let _ = c.with_journal(JournalConfig::on());
    }

    #[test]
    fn reset_stats_preserves_learned_heat() {
        let c = engine(CachePolicyKind::SemanticPriority, 16)
            .with_migration(MigrationConfig::on().with_idle_threshold(Duration::from_secs(3600)));
        // Two slow-path accesses record heat directly; the third rides the
        // hot fast path and parks one pending count in `fast_heat`.
        for _ in 0..3 {
            c.submit(read_req(1, 1, RequestClass::Random, QosPolicy::priority(2)));
        }
        assert_eq!(c.learned_heat(BlockAddr(1)), 2);
        assert!(c.stats().action(CacheAction::CacheHit) > 0);
        c.reset_stats();
        // The counters are gone but the learned heat survived — including
        // the pending fast-path hit, folded in rather than dropped.
        assert_eq!(c.stats().action(CacheAction::CacheHit), 0);
        assert_eq!(c.learned_heat(BlockAddr(1)), 3);
        assert_eq!(c.heat_snapshot(), vec![(BlockAddr(1), 3)]);
    }
}
