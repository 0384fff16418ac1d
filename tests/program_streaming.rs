//! Streamed request programs against the materializing compiler they
//! replaced, on the real TPC-H plans.
//!
//! The eager compiler lives in the engine as a test-only module; this suite
//! mounts the same source file here, with its `super::` dependencies
//! re-exported from the public API below.

use hstorage_engine::program::hot_subset;
use hstorage_engine::{
    compile, Access, Catalog, CompileOptions, ContentType, IoOp, ObjectId, PlanNode, PlanTree,
    SemanticInfo,
};
use hstorage_storage::BlockRange;
use hstorage_tpch::{build_plan, QueryId, TpchDatabase, TpchScale};

#[path = "../crates/engine/src/program/eager.rs"]
mod eager;

/// Q1–Q22 and both refresh functions.
fn every_query() -> Vec<QueryId> {
    let mut queries = QueryId::all_queries();
    queries.extend([QueryId::Rf1, QueryId::Rf2]);
    queries
}

#[test]
fn tpch_programs_equal_the_eager_oracle() {
    let option_sets = [
        CompileOptions::default(),
        CompileOptions {
            seq_blocks_per_request: 7,
            temp_blocks_per_request: 5,
        },
    ];
    for scale in [0.01, 0.3] {
        let db = TpchDatabase::build(TpchScale::new(scale));
        for options in option_sets {
            // One catalog per compiler, carried across the queries, so the
            // temp allocator's cursor (and its wrap-around) is compared too.
            let mut streamed_cat = db.catalog.clone();
            let mut oracle_cat = db.catalog.clone();
            for query in every_query() {
                let plan = build_plan(query, &db);
                let streamed = compile(&plan, &mut streamed_cat, options);
                let oracle = eager::compile(&plan, &mut oracle_cat, options);
                let context = format!("{query} at SF {scale} with {options:?}");
                assert_eq!(streamed.name, plan.name, "{context}");
                assert_eq!(streamed.len(), oracle.ops.len(), "{context}");
                assert_eq!(streamed.level_bounds, oracle.level_bounds, "{context}");
                assert!(
                    streamed.iter().eq(oracle.ops.iter().copied()),
                    "op sequence differs: {context}"
                );
                assert_eq!(streamed_cat, oracle_cat, "{context}");
            }
        }
    }
}

/// At SF 1000 the power test's programs hold billions of requests; a
/// compiler that materialized them would need tens of GB. The stream trees
/// are built from the plans alone, and the first requests can be pulled.
#[test]
fn tpch_programs_compile_without_materializing_at_sf_1000() {
    let db = TpchDatabase::build(TpchScale::new(1000.0));
    let mut catalog = db.catalog.clone();
    let mut total = 0u64;
    for query in every_query() {
        let program = compile(&build_plan(query, &db), &mut catalog, Default::default());
        total += program.len() as u64;
        let pulled = program.iter().take(1000).count();
        assert_eq!(pulled, program.len().min(1000), "{query}");
    }
    let bytes = total * std::mem::size_of::<IoOp>() as u64;
    assert!(
        bytes > 10 << 30,
        "{total} ops ({bytes} bytes materialized) no longer show the point"
    );
}
