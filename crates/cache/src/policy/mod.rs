//! The pluggable cache-policy framework.
//!
//! The hybrid cache is split into a policy-agnostic *engine*
//! ([`crate::engine::CacheEngine`]) and a [`CachePolicy`] that owns every
//! *decision* the engine must make per block: whether a missing block may
//! be admitted, which resident block to displace when the cache is full,
//! and how a hit changes the block's standing. The engine keeps the
//! mechanism — shards, slot allocation, metadata, write-buffer accounting,
//! statistics and batched device submission — so one engine serves any
//! replacement algorithm.
//!
//! Shipped policies:
//!
//! * [`SemanticPriorityPolicy`] — the paper's selective allocation /
//!   selective eviction over per-priority LRU groups (the default),
//! * [`LruPolicy`] — a single classification-blind LRU stack,
//! * [`CflruPolicy`] — clean-first LRU: prefers evicting clean blocks to
//!   save write-backs (tunable clean-first window),
//! * [`TwoQPolicy`] — scan-resistant 2Q with a probationary FIFO and a
//!   ghost list (tunable `Kin`/`Kout`),
//! * [`ArcPolicy`] — adaptive replacement: two resident LRU lists backed
//!   by two [`GhostList`]s and a self-tuning recency/frequency target,
//! * [`PerStreamPolicy`] — a compositor that routes each request class to
//!   its own inner policy ([`StreamRouting`]), so mixed workloads get the
//!   best algorithm per stream.
//!
//! A policy instance is **per shard**: the engine builds one via
//! [`CachePolicyKind::build`] (or a custom factory) for each of its lock
//! stripes, so implementations need no internal synchronisation.

mod arc;
mod cflru;
mod ghost;
mod lru;
mod per_stream;
mod semantic;
mod two_q;

pub use arc::ArcPolicy;
pub use cflru::CflruPolicy;
pub use ghost::GhostList;
pub use lru::LruPolicy;
pub use per_stream::{PerStreamPolicy, StreamPolicyKind, StreamRouting};
pub use semantic::SemanticPriorityPolicy;
pub use two_q::TwoQPolicy;

use hstorage_storage::{
    BlockAddr, CachePriority, Direction, PolicyConfig, QosPolicy, RequestClass,
};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The per-block view of a request that a policy decides on: the I/O
/// direction, the request class the DBMS derived from semantic
/// information, the QoS policy the request carries, and the caching
/// priority it resolves to under the active [`PolicyConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyRequest {
    /// Read or write.
    pub direction: Direction,
    /// The request class (stream) the DBMS classified the request into —
    /// what [`PerStreamPolicy`] routes on.
    pub class: RequestClass,
    /// The QoS policy attached to the request by the DBMS storage manager.
    pub qos: QosPolicy,
    /// The priority the QoS policy resolves to (write buffer = 0).
    pub prio: CachePriority,
}

/// What a hit did to the block's residency bookkeeping, which the engine
/// must mirror in its metadata and statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitOutcome {
    /// The block stayed in its group (possibly refreshed in recency).
    Unchanged,
    /// The block moved to a new priority group: the engine updates the
    /// metadata label, the write-buffer accounting and records a
    /// re-allocation.
    Moved(CachePriority),
}

/// Why the engine removed a tracked block without asking the policy for a
/// victim — the lifetime hint behind
/// [`CachePolicy::on_remove_reasoned`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RemoveReason {
    /// A TRIM invalidated the block: its lifetime has **ended** and the
    /// address may be re-used for unrelated data. History-keeping policies
    /// must forget everything about the address (like the semantic
    /// policy's end-of-lifetime handling of `NonCachingEviction` data).
    Trim,
    /// The engine displaced the block — it was selected by
    /// [`CachePolicy::pop_victim`] / [`CachePolicy::steal_victim`] or
    /// swept up by a write-buffer drain — and its slot was released. The
    /// address is still live, so ghost-keeping policies may remember it
    /// exactly as they would one of their own evictions.
    Evict,
}

/// A cache-replacement algorithm: the decision half of the hybrid cache.
///
/// The engine calls exactly one method per block event and mirrors the
/// outcome in its own metadata; the policy maintains whatever ordering
/// structures it needs (LRU lists, FIFO queues, ghost lists) and must keep
/// them consistent with the engine's resident set:
///
/// * every block passed to [`CachePolicy::on_insert`] is tracked until the
///   engine announces its removal via
///   [`CachePolicy::on_remove_reasoned`] — with [`RemoveReason::Trim`]
///   when a TRIM invalidates it, with [`RemoveReason::Evict`] when the
///   engine releases the slot itself (after the policy selected the block
///   via [`CachePolicy::pop_victim`] / [`CachePolicy::steal_victim`], or
///   after a write-buffer drain returned it);
/// * [`CachePolicy::pop_victim`], [`CachePolicy::steal_victim`] and
///   [`CachePolicy::drain_write_buffer`] are **selection-only**: they name
///   tracked blocks without untracking them — the follow-up
///   `on_remove_reasoned(…, Evict)` call does that. (Legacy policies that
///   eagerly untrack inside `pop_victim` keep working, because the default
///   removal hooks tolerate already-absent blocks.)
///
/// # Worked example: a custom FIFO policy
///
/// A policy that evicts in plain insertion order — no recency, no
/// semantics — plugs into the engine through
/// [`CacheEngine::with_policy_factory`](crate::engine::CacheEngine::with_policy_factory):
///
/// ```
/// use hstorage_cache::policy::{CachePolicy, HitOutcome, PolicyRequest};
/// use hstorage_cache::{CacheEngine, StorageSystem};
/// use hstorage_storage::{
///     BlockAddr, BlockRange, CachePriority, ClassifiedRequest, IoRequest, PolicyConfig,
///     QosPolicy, RequestClass,
/// };
/// use std::collections::VecDeque;
///
/// #[derive(Default)]
/// struct FifoPolicy {
///     queue: VecDeque<BlockAddr>,
/// }
///
/// impl CachePolicy for FifoPolicy {
///     fn on_hit(
///         &mut self,
///         _lbn: BlockAddr,
///         _current: CachePriority,
///         _req: &PolicyRequest,
///     ) -> HitOutcome {
///         HitOutcome::Unchanged // FIFO ignores recency entirely
///     }
///
///     fn admits(&self, _req: &PolicyRequest) -> bool {
///         true // admit everything, like the classical baselines
///     }
///
///     fn pop_victim(&mut self, _incoming: BlockAddr, _req: &PolicyRequest) -> Option<BlockAddr> {
///         // Selection only: the engine follows up with
///         // `on_remove_reasoned(…, RemoveReason::Evict)`, which lands in
///         // `on_remove` below and dequeues the block.
///         self.queue.front().copied()
///     }
///
///     fn on_insert(&mut self, lbn: BlockAddr, req: &PolicyRequest) -> CachePriority {
///         self.queue.push_back(lbn);
///         req.prio // recorded in the metadata, informational for FIFO
///     }
///
///     fn on_remove(&mut self, lbn: BlockAddr, _group: CachePriority) {
///         self.queue.retain(|&b| b != lbn);
///     }
/// }
///
/// // A two-slot FIFO cache: the third insert evicts the *first* block,
/// // even though it was touched more recently than the second.
/// let engine = CacheEngine::new(PolicyConfig::paper_default(), 2)
///     .with_policy_factory("fifo", |_shard_capacity| Box::<FifoPolicy>::default());
/// let read = |lbn: u64| {
///     ClassifiedRequest::new(
///         IoRequest::read(BlockRange::new(lbn, 1), false),
///         RequestClass::Random,
///         QosPolicy::priority(2),
///     )
/// };
/// engine.submit(read(10));
/// engine.submit(read(11));
/// engine.submit(read(10)); // hit — FIFO order unchanged
/// engine.submit(read(12)); // full: evicts block 10, the oldest insert
/// assert_eq!(engine.name(), "fifo");
/// assert!(!engine.contains_block(BlockAddr(10)));
/// assert!(engine.contains_block(BlockAddr(11)));
/// assert!(engine.contains_block(BlockAddr(12)));
/// ```
pub trait CachePolicy: Send {
    /// Called when `lbn` (tracked, currently labelled `current`) is hit.
    /// The policy refreshes its internal ordering and reports whether the
    /// block moved to a different group.
    fn on_hit(&mut self, lbn: BlockAddr, current: CachePriority, req: &PolicyRequest)
        -> HitOutcome;

    /// Whether a block missing from the cache may be admitted at all under
    /// this request. Returning `false` bypasses the cache (the transfer
    /// goes straight to the second-level device).
    fn admits(&self, req: &PolicyRequest) -> bool;

    /// Whether a *repeat* hit is a no-op: calling [`CachePolicy::on_hit`]
    /// twice in a row with identical arguments (same block, same label,
    /// same request shape, no other policy event in between) leaves the
    /// policy in exactly the state the first call produced, and returns
    /// [`HitOutcome::Unchanged`] the second time.
    ///
    /// Policies declaring `true` opt their blocks into the engine's
    /// optimistic read path: a single-block read that repeats the
    /// immediately preceding hit on its shard is served through the shared
    /// metadata read view — statistics and device timing recorded, policy
    /// untouched — without acquiring the stripe mutex. That is only sound
    /// when the skipped `on_hit` is provably a no-op, which is exactly
    /// this contract. Every shipped policy satisfies it (an LRU touch of
    /// the block that is already most-recent does not reorder anything);
    /// the conservative default is `false`, so custom policies keep the
    /// always-locked behaviour unless they opt in.
    fn repeat_hit_idempotent(&self) -> bool {
        false
    }

    /// The shard is full and `incoming` (the missing block of `req`) was
    /// admitted: name the tracked block to displace, or `None` if the
    /// incoming block is not worth a resident one (the request then
    /// bypasses the cache). This is **selection-only** — the policy keeps
    /// tracking the named block until the engine completes the eviction
    /// with [`CachePolicy::on_remove_reasoned`] and
    /// [`RemoveReason::Evict`]. Most policies ignore `incoming`; ARC
    /// consults its ghost lists for it to bias the recency/frequency
    /// trade-off of its `REPLACE` step.
    fn pop_victim(&mut self, incoming: BlockAddr, req: &PolicyRequest) -> Option<BlockAddr>;

    /// Like [`CachePolicy::pop_victim`] (and equally selection-only), but
    /// on behalf of a block this policy will **never** track — a
    /// compositor stealing space for another stream's insert.
    /// Implementations must not update any per-address state for the
    /// request (ARC overrides this to skip its ghost-hit adaptation of
    /// `p`); the default simply delegates with a sentinel address, which
    /// is correct for every policy whose victim choice ignores the
    /// incoming block.
    fn steal_victim(&mut self, req: &PolicyRequest) -> Option<BlockAddr> {
        self.pop_victim(BlockAddr(u64::MAX), req)
    }

    /// `lbn` was just allocated a slot: start tracking it. The returned
    /// priority is recorded as the block's group label in the engine's
    /// metadata (and handed back via `current` on later events).
    fn on_insert(&mut self, lbn: BlockAddr, req: &PolicyRequest) -> CachePriority;

    /// `lbn` (labelled `group`) is gone from the engine's resident set —
    /// a TRIM invalidated it, or the engine completed an eviction the
    /// policy selected: stop tracking it. Must tolerate blocks that are
    /// already untracked.
    fn on_remove(&mut self, lbn: BlockAddr, group: CachePriority);

    /// Reason-aware variant of [`CachePolicy::on_remove`]: the engine (or
    /// a compositor) reports *why* the block went away, so policies can
    /// exploit lifetime hints — a [`RemoveReason::Trim`] means the address
    /// is dead and any ghost history for it must be dropped, while a
    /// [`RemoveReason::Evict`] completes a displacement the policy (or a
    /// sibling stream's steal) selected, which ghost-keeping policies may
    /// remember like one of their own evictions. The default forwards to
    /// [`CachePolicy::on_remove`], so existing policies compile (and
    /// behave) unchanged.
    fn on_remove_reasoned(&mut self, lbn: BlockAddr, group: CachePriority, reason: RemoveReason) {
        let _ = reason;
        self.on_remove(lbn, group);
    }

    /// A TRIM invalidated `lbn` while it was **not** resident. The block's
    /// lifetime has ended and its address may be re-used for unrelated
    /// data, so policies that keep history about non-resident addresses
    /// (e.g. 2Q's ghost list) must forget it. Most policies keep no such
    /// history; the default does nothing.
    fn on_trim_absent(&mut self, lbn: BlockAddr) {
        let _ = lbn;
    }

    /// Whether blocks labelled `group` occupy the engine's write buffer.
    /// Only the semantic policy buffers writes; the baselines treat
    /// buffered updates as ordinary cached writes.
    ///
    /// The engine's write-buffer mechanism (occupancy limit, flush
    /// trigger, batch run-splitting) is keyed to **group 0** — the
    /// priority that `WriteBuffer` requests resolve to. A policy may
    /// therefore only ever return `true` for `CachePriority(0)`; the
    /// engine asserts this when the policy is installed.
    fn write_buffered(&self, group: CachePriority) -> bool {
        let _ = group;
        false
    }

    /// Name every write-buffered block (called by the engine when the
    /// buffer exceeds its share of the cache). Selection-only, like
    /// [`CachePolicy::pop_victim`]: the engine completes each removal via
    /// [`CachePolicy::on_remove_reasoned`] with [`RemoveReason::Evict`].
    /// Policies without a write buffer return nothing.
    fn drain_write_buffer(&mut self) -> Vec<BlockAddr> {
        Vec::new()
    }
}

/// Which [`CachePolicy`] the cache engine runs — the configuration-level
/// selector threaded from `StorageConfig` / `SystemConfig` down to the
/// engine. The tunable policies carry their knobs as variant fields
/// (validated by [`CachePolicyKind::validate`]); the bare constructors
/// ([`CachePolicyKind::cflru`], [`CachePolicyKind::two_q`],
/// [`CachePolicyKind::per_stream`]) fill in the paper-exact defaults, so
/// a configuration that never touches a knob behaves bit-identically to
/// the pre-knob framework.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CachePolicyKind {
    /// The paper's semantic, priority-driven policy (selective allocation
    /// and eviction). The default.
    #[default]
    SemanticPriority,
    /// Classification-blind single-stack LRU.
    Lru,
    /// Clean-first LRU: prefers clean victims within a window of the LRU
    /// end to save dirty write-backs.
    Cflru {
        /// Clean-first window as an integer percentage of the shard
        /// capacity, in `1..=100`. Default
        /// ([`CflruPolicy::DEFAULT_WINDOW_PCT`]): 25.
        window_pct: u8,
    },
    /// Scan-resistant 2Q: probationary FIFO + ghost list + main LRU.
    TwoQ {
        /// Probationary-queue (`A1in`) target as an integer percentage of
        /// the shard capacity, in `1..=100`. Default
        /// ([`TwoQPolicy::DEFAULT_KIN_PCT`]): 25.
        kin_pct: u8,
        /// Ghost-list (`A1out`) capacity as an integer percentage of the
        /// shard capacity, in `1..=200` (the ghost directory may exceed
        /// the resident capacity — it holds addresses, not blocks).
        /// Default ([`TwoQPolicy::DEFAULT_KOUT_PCT`]): 50.
        kout_pct: u8,
    },
    /// Adaptive replacement (ARC): recency and frequency lists with ghost
    /// directories and a self-tuning balance — no knobs by design.
    Arc,
    /// Per-stream compositor: each request class is served by its own
    /// inner policy as described by the [`StreamRouting`].
    PerStream(StreamRouting),
}

impl CachePolicyKind {
    /// All selectable policies (with default knobs), semantic first.
    pub fn all() -> [CachePolicyKind; 6] {
        [
            CachePolicyKind::SemanticPriority,
            CachePolicyKind::Lru,
            CachePolicyKind::cflru(),
            CachePolicyKind::two_q(),
            CachePolicyKind::Arc,
            CachePolicyKind::per_stream(),
        ]
    }

    /// CFLRU with the default clean-first window (25% — the PR-4-exact
    /// value).
    pub fn cflru() -> CachePolicyKind {
        CachePolicyKind::Cflru {
            window_pct: CflruPolicy::DEFAULT_WINDOW_PCT,
        }
    }

    /// 2Q with the 2Q paper's recommended fractions (`Kin` 25%, `Kout`
    /// 50% — the PR-4-exact values).
    pub fn two_q() -> CachePolicyKind {
        CachePolicyKind::TwoQ {
            kin_pct: TwoQPolicy::DEFAULT_KIN_PCT,
            kout_pct: TwoQPolicy::DEFAULT_KOUT_PCT,
        }
    }

    /// The per-stream compositor under its default routing (semantic for
    /// sequential/temporary/update streams, ARC for random point reads).
    pub fn per_stream() -> CachePolicyKind {
        CachePolicyKind::PerStream(StreamRouting::default())
    }

    /// Short lower-case label for reports, bench IDs and the CI policy
    /// matrix. The label identifies the policy *family*; knob values are
    /// rendered by [`CachePolicyKind::describe`].
    pub fn label(&self) -> &'static str {
        match self {
            CachePolicyKind::SemanticPriority => "semantic-priority",
            CachePolicyKind::Lru => "lru",
            CachePolicyKind::Cflru { .. } => "cflru",
            CachePolicyKind::TwoQ { .. } => "2q",
            CachePolicyKind::Arc => "arc",
            CachePolicyKind::PerStream(_) => "per-stream",
        }
    }

    /// Parses a [`CachePolicyKind::label`] back into a kind with default
    /// knobs — how the CI policy-matrix env var selects a policy.
    pub fn from_label(label: &str) -> Option<CachePolicyKind> {
        Some(match label {
            "semantic-priority" => CachePolicyKind::SemanticPriority,
            "lru" => CachePolicyKind::Lru,
            "cflru" => CachePolicyKind::cflru(),
            "2q" => CachePolicyKind::two_q(),
            "arc" => CachePolicyKind::Arc,
            "per-stream" => CachePolicyKind::per_stream(),
            _ => return None,
        })
    }

    /// The label plus the knob values in force, e.g. `2q(kin=25%,kout=50%)`
    /// — what the ablation reports print.
    pub fn describe(&self) -> String {
        match self {
            CachePolicyKind::Cflru { window_pct } => format!("cflru(window={window_pct}%)"),
            CachePolicyKind::TwoQ { kin_pct, kout_pct } => {
                format!("2q(kin={kin_pct}%,kout={kout_pct}%)")
            }
            CachePolicyKind::PerStream(routing) => format!("per-stream({routing})"),
            other => other.label().to_string(),
        }
    }

    /// The storage-system display name of an engine running this policy.
    /// The semantic default keeps the paper's "hStorage-DB" label.
    pub fn system_name(&self) -> &'static str {
        match self {
            CachePolicyKind::SemanticPriority => "hStorage-DB",
            CachePolicyKind::Lru => "hybrid-lru",
            CachePolicyKind::Cflru { .. } => "hybrid-cflru",
            CachePolicyKind::TwoQ { .. } => "hybrid-2q",
            CachePolicyKind::Arc => "hybrid-arc",
            CachePolicyKind::PerStream(_) => "hybrid-per-stream",
        }
    }

    /// The equivalent routing leaf for the non-compositor kinds — the
    /// single place knob ranges and leaf construction live
    /// ([`StreamPolicyKind`] is the source of truth; this conversion is
    /// what keeps the two enums from drifting apart).
    fn stream_kind(&self) -> Option<StreamPolicyKind> {
        Some(match self {
            CachePolicyKind::SemanticPriority => StreamPolicyKind::SemanticPriority,
            CachePolicyKind::Lru => StreamPolicyKind::Lru,
            CachePolicyKind::Cflru { window_pct } => StreamPolicyKind::Cflru {
                window_pct: *window_pct,
            },
            CachePolicyKind::TwoQ { kin_pct, kout_pct } => StreamPolicyKind::TwoQ {
                kin_pct: *kin_pct,
                kout_pct: *kout_pct,
            },
            CachePolicyKind::Arc => StreamPolicyKind::Arc,
            CachePolicyKind::PerStream(_) => return None,
        })
    }

    /// Validates the knob ranges (and, for the compositor, the routing).
    /// Leaf bounds are checked by [`StreamPolicyKind::validate`], the
    /// shared source of truth.
    pub fn validate(&self) -> Result<(), String> {
        match (self, self.stream_kind()) {
            (CachePolicyKind::PerStream(routing), _) => routing.validate(),
            (_, Some(leaf)) => leaf.validate(),
            (_, None) => unreachable!("every non-compositor kind has a stream leaf"),
        }
    }

    /// Builds one per-shard policy instance for a shard managing
    /// `shard_capacity` cache slots. Leaf construction is shared with the
    /// compositor via [`StreamPolicyKind::build`].
    pub fn build(&self, config: &PolicyConfig, shard_capacity: u64) -> Box<dyn CachePolicy> {
        match (self, self.stream_kind()) {
            (CachePolicyKind::PerStream(routing), _) => {
                Box::new(PerStreamPolicy::new(*config, shard_capacity, *routing))
            }
            (_, Some(leaf)) => leaf.build(config, shard_capacity),
            (_, None) => unreachable!("every non-compositor kind has a stream leaf"),
        }
    }
}

impl fmt::Display for CachePolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_names_are_unique() {
        let labels: std::collections::HashSet<_> =
            CachePolicyKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 6);
        let names: std::collections::HashSet<_> = CachePolicyKind::all()
            .iter()
            .map(|k| k.system_name())
            .collect();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn default_is_the_paper_policy() {
        assert_eq!(
            CachePolicyKind::default(),
            CachePolicyKind::SemanticPriority
        );
        assert_eq!(CachePolicyKind::default().system_name(), "hStorage-DB");
    }

    #[test]
    fn labels_round_trip_through_from_label() {
        for kind in CachePolicyKind::all() {
            assert_eq!(CachePolicyKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(CachePolicyKind::from_label("no-such-policy"), None);
    }

    #[test]
    fn default_knob_constructors_match_the_pr4_constants() {
        assert_eq!(
            CachePolicyKind::cflru(),
            CachePolicyKind::Cflru { window_pct: 25 }
        );
        assert_eq!(
            CachePolicyKind::two_q(),
            CachePolicyKind::TwoQ {
                kin_pct: 25,
                kout_pct: 50
            }
        );
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_bad_knobs() {
        for kind in CachePolicyKind::all() {
            assert!(kind.validate().is_ok(), "{kind}");
        }
        assert!(CachePolicyKind::Cflru { window_pct: 0 }.validate().is_err());
        assert!(CachePolicyKind::Cflru { window_pct: 101 }
            .validate()
            .is_err());
        assert!(CachePolicyKind::TwoQ {
            kin_pct: 0,
            kout_pct: 50
        }
        .validate()
        .is_err());
        assert!(CachePolicyKind::TwoQ {
            kin_pct: 25,
            kout_pct: 201
        }
        .validate()
        .is_err());
        // In-range custom knobs pass.
        assert!(CachePolicyKind::TwoQ {
            kin_pct: 10,
            kout_pct: 150
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn describe_renders_the_knobs() {
        assert_eq!(
            CachePolicyKind::Cflru { window_pct: 40 }.describe(),
            "cflru(window=40%)"
        );
        assert_eq!(
            CachePolicyKind::TwoQ {
                kin_pct: 10,
                kout_pct: 80
            }
            .describe(),
            "2q(kin=10%,kout=80%)"
        );
        assert_eq!(CachePolicyKind::Arc.describe(), "arc");
    }

    #[test]
    fn build_constructs_every_kind() {
        let config = PolicyConfig::paper_default();
        for kind in CachePolicyKind::all() {
            let policy = kind.build(&config, 64);
            // Every freshly built policy admits a plain random read.
            let req = PolicyRequest {
                direction: Direction::Read,
                class: RequestClass::Random,
                qos: QosPolicy::priority(2),
                prio: CachePriority(2),
            };
            assert!(policy.admits(&req), "{kind}");
        }
    }
}
