//! The repository's benchmark: three workloads run end to end against the
//! hStorage-DB configuration, and a traced variant that splits their wall
//! time by layer from outside the program.
//!
//! The benchmark drives the system only through its public entry points
//! (`TpchDatabase::build`, `build_plan`, `QueryExecutor::run_query`,
//! `QueryService::start/submit`, the storage constructors) and reads the
//! program's own counters. `METRICS.md` defines every metric it prints.

pub mod probe;
pub mod report;
pub mod stats;
pub mod timed;
pub mod workload;
