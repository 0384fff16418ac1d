//! The DBMS side of hStorage-DB.
//!
//! The paper instruments PostgreSQL so that semantic information flows from
//! the query optimizer and execution engine down to the storage manager,
//! which classifies every I/O request and attaches a QoS policy before the
//! request leaves the DBMS. This crate is a purpose-built mini engine that
//! reproduces exactly that pipeline:
//!
//! * [`catalog`] — database objects (tables, indexes, temporary files) and
//!   their physical block layout,
//! * [`semantic`] — the semantic information carried by each data request
//!   (content type, access pattern, originating plan level),
//! * [`plan`] — query plan trees with operator levels and the blocking-
//!   operator level recalculation of Section 4.2.2,
//! * [`priority`] — Function (1), the mapping from plan level to caching
//!   priority,
//! * [`concurrency`] — the shared registry (`H<oid, list>`, `gl_low`,
//!   `gl_high`) that makes priority assignment deterministic across
//!   concurrently running queries (Rule 5),
//! * [`policy_table`] — the policy assignment table implementing Rules 1–5,
//! * [`buffer_pool`] — the DBMS buffer pool that absorbs re-accesses before
//!   they become storage I/O,
//! * [`executor`] — turns a plan tree into a classified block-level request
//!   stream against a [`hstorage_cache::StorageSystem`],
//! * [`migration`] — the driver that offers the storage system background
//!   tier-migration windows at query boundaries (and on demand),
//! * [`service`] — the request/response query service: a bounded worker
//!   pool that sustains tens of thousands of logical query streams over a
//!   fixed number of OS threads, with backpressure, admission control and
//!   per-request latency percentiles,
//! * [`stats`] — per-query execution statistics.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffer_pool;
pub mod catalog;
pub mod concurrency;
pub mod executor;
pub mod migration;
pub mod plan;
pub mod policy_table;
pub mod priority;
pub mod program;
pub mod semantic;
pub mod service;
pub mod stats;

pub use buffer_pool::BufferPool;
pub use catalog::{Catalog, ObjectId, ObjectKind};
pub use concurrency::ConcurrencyRegistry;
pub use executor::{
    run_concurrent, run_threaded, CompletedQuery, ExecutorConfig, QueryExecutor, StreamSpec,
};
pub use migration::MigrationDriver;
pub use plan::{Access, OperatorKind, PlanNode, PlanTree, RandomLevels};
pub use policy_table::PolicyAssignmentTable;
pub use priority::random_request_priority;
pub use program::{compile, CompileOptions, IoOp, ProgramCursor, RequestProgram};
pub use semantic::{AccessPattern, ContentType, SemanticInfo};
pub use service::{
    run_streams_service, QueryRequest, QueryResponse, QueryService, ServiceConfig, ServiceReport,
    SubmitError, WorkerStats,
};
pub use stats::QueryStats;
