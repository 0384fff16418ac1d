//! The hybrid storage system of the hStorage-DB paper, plus the baselines
//! it is evaluated against.
//!
//! The paper's storage prototype (Section 5) is a two-level hierarchy: an
//! SSD cache on top of HDDs, managed with *selective allocation* and
//! *selective eviction* over per-priority LRU groups. Four storage
//! configurations are used in the evaluation:
//!
//! * **HDD-only** — every request goes straight to the disk ([`passthrough`]),
//! * **SSD-only** — the ideal case, everything served by the SSD ([`passthrough`]),
//! * **LRU** — the SSD cache managed by a classification-blind LRU
//!   ([`lru_cache`]),
//! * **hStorage-DB** — the SSD cache managed by the priority mechanism
//!   ([`hybrid`]).
//!
//! All four implement the [`StorageSystem`] trait so the query engine can
//! drive them interchangeably.
//!
//! The hybrid cache itself is split into a policy-agnostic [`engine`]
//! (shards, allocator, write buffer, batched device submission) and a
//! pluggable [`policy`] framework: the paper's semantic priority policy is
//! one [`CachePolicy`] among several ([`policy::LruPolicy`],
//! [`policy::CflruPolicy`], [`policy::TwoQPolicy`], the adaptive
//! [`policy::ArcPolicy`] and the [`policy::PerStreamPolicy`] compositor),
//! selectable — knobs included — via [`CachePolicyKind`] on
//! [`StorageConfig`] so the same engine can compare replacement
//! algorithms under identical mechanism.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod allocator;
pub mod arena;
pub mod config;
pub mod engine;
pub mod hybrid;
pub mod journal;
pub mod lru;
pub mod lru_cache;
pub mod metadata;
pub mod migration;
pub mod passthrough;
pub mod policy;
pub mod priority_group;
pub mod recovery;
pub mod stats;
pub mod system;
pub mod table;
pub mod trace;

pub use arena::{ListArena, ListHandle};
pub use config::{StorageConfig, StorageConfigKind};
pub use engine::CacheEngine;
pub use hybrid::HybridCache;
pub use journal::{Journal, JournalConfig, JournalOp, JournalRecord, JournalSnapshot};
pub use lru_cache::LruCache;
pub use migration::{HeatTracker, MigrationConfig, MigrationStats};
pub use passthrough::{HddOnly, SsdOnly};
pub use policy::{
    CachePolicy, CachePolicyKind, HitOutcome, PolicyRequest, RemoveReason, StreamPolicyKind,
    StreamRouting,
};
pub use recovery::{
    apply_op, crash_offset, recover, replay_plan, verify_convergence, RecoveryError,
    RecoveryOutcome, ReplayPlan,
};
pub use stats::{
    AtomicCacheStats, CacheAction, CacheStats, ClassCounters, ContentionCounters, LatencyHistogram,
    LocalCacheStats,
};
pub use system::StorageSystem;
pub use table::{BlockTable, OpenMap};
pub use trace::{Trace, TraceEvent, TraceRecorder};
