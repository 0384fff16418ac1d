//! The eager compiler, a test oracle: every operation of a query
//! materialized into one vector, each plan level merging its children's
//! vectors. The streamed [`super::compile`] must match it op for op.
//!
//! The module names its dependencies through `super::` only, so that an
//! integration test can mount this file under a module that re-exports the
//! same names from the public API.

use super::{
    hot_subset, Access, BlockRange, Catalog, CompileOptions, ContentType, IoOp, ObjectId, PlanNode,
    PlanTree, SemanticInfo,
};
use std::collections::HashMap;

/// A materialized program.
#[derive(Debug, Clone, PartialEq)]
pub struct EagerProgram {
    /// The query's own `(llow, lhigh)`, `(0, 0)` without random operators.
    pub level_bounds: (u32, u32),
    /// Every operation, in issue order.
    pub ops: Vec<IoOp>,
}

/// Merges several operation streams proportionally, preserving the order
/// within each stream: the stream that is least far through goes next,
/// ties to the lower index.
fn interleave(streams: Vec<Vec<IoOp>>) -> Vec<IoOp> {
    let total: usize = streams.iter().map(|s| s.len()).sum();
    let mut cursors = vec![0usize; streams.len()];
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        let mut best: Option<(usize, f64)> = None;
        for (i, stream) in streams.iter().enumerate() {
            if cursors[i] >= stream.len() {
                continue;
            }
            let progress = cursors[i] as f64 / stream.len() as f64;
            match best {
                Some((_, p)) if p <= progress => {}
                _ => best = Some((i, progress)),
            }
        }
        let (i, _) = best.expect("total count guarantees a non-exhausted stream");
        out.push(streams[i][cursors[i]]);
        cursors[i] += 1;
    }
    out
}

/// Compiles a plan tree into a materialized program.
pub fn compile(plan: &PlanTree, catalog: &mut Catalog, options: CompileOptions) -> EagerProgram {
    let level_bounds = plan.random_level_bounds().unwrap_or((0, 0));
    let object_levels = plan.random_object_levels();
    let eff: Vec<u32> = plan
        .operator_levels()
        .iter()
        .map(|l| l.effective_level)
        .collect();

    fn walk(
        node: &PlanNode,
        counter: &mut usize,
        eff: &[u32],
        catalog: &mut Catalog,
        options: &CompileOptions,
        object_levels: &HashMap<ObjectId, u32>,
        deferred: &mut Vec<IoOp>,
    ) -> Vec<IoOp> {
        let my_index = *counter;
        *counter += 1;
        let child_streams: Vec<Vec<IoOp>> = node
            .children
            .iter()
            .map(|c| walk(c, counter, eff, catalog, options, object_levels, deferred))
            .collect();

        let any_blocking_child = node.children.iter().any(|c| c.kind.is_blocking());
        let mut ops = if child_streams.len() <= 1 || any_blocking_child {
            child_streams.into_iter().flatten().collect()
        } else {
            interleave(child_streams)
        };

        let mut own = Vec::new();
        compile_step(
            node.access,
            eff[my_index],
            catalog,
            options,
            object_levels,
            &mut own,
        );
        if let Access::TempSpill { .. } = node.access {
            let (writes, rest): (Vec<IoOp>, Vec<IoOp>) = own
                .into_iter()
                .partition(|op| matches!(op, IoOp::TempWrite { .. }));
            ops = interleave(vec![ops, writes]);
            deferred.extend(rest);
        } else {
            ops.extend(own);
        }
        ops
    }

    let mut counter = 0;
    let mut deferred = Vec::new();
    let mut ops = walk(
        &plan.root,
        &mut counter,
        &eff,
        catalog,
        &options,
        &object_levels,
        &mut deferred,
    );
    ops.extend(deferred);
    EagerProgram { level_bounds, ops }
}

/// Pushes `range` cut into requests of `chunk` blocks.
fn push_chunks(
    range: BlockRange,
    chunk: u64,
    op: impl Fn(BlockRange) -> IoOp,
    ops: &mut Vec<IoOp>,
) {
    let mut remaining = range;
    while !remaining.is_empty() {
        let (head, rest) = remaining.split_at(chunk);
        ops.push(op(head));
        remaining = rest;
    }
}

fn compile_step(
    access: Access,
    level: u32,
    catalog: &mut Catalog,
    options: &CompileOptions,
    object_levels: &HashMap<ObjectId, u32>,
    ops: &mut Vec<IoOp>,
) {
    match access {
        Access::None => {}
        Access::SeqScan { table, passes } => {
            let Some(info) = catalog.get(table) else {
                return;
            };
            let range = info.range;
            let info = SemanticInfo::sequential_scan(table, level);
            for _ in 0..passes {
                push_chunks(
                    range,
                    options.seq_blocks_per_request,
                    |range| IoOp::SequentialRead { info, range },
                    ops,
                );
            }
        }
        Access::IndexScan {
            index,
            table,
            lookups,
            index_hot_fraction,
            table_hot_fraction,
        } => {
            let (Some(index_obj), Some(table_obj)) = (catalog.get(index), catalog.get(table))
            else {
                return;
            };
            let index_hot = hot_subset(index_obj.range, index_hot_fraction);
            let table_hot = hot_subset(table_obj.range, table_hot_fraction);
            let index_level = *object_levels.get(&index).unwrap_or(&level);
            let table_level = *object_levels.get(&table).unwrap_or(&level);
            let index_info = SemanticInfo::random_access(index, ContentType::Index, index_level);
            let table_info =
                SemanticInfo::random_access(table, ContentType::RegularTable, table_level);
            for _ in 0..lookups {
                ops.push(IoOp::IndexProbe {
                    index_info,
                    index_hot,
                    table_info,
                    table_hot,
                });
            }
        }
        Access::TempSpill {
            blocks,
            read_passes,
        } => {
            if blocks == 0 {
                return;
            }
            let oid = catalog.allocate_temp(blocks);
            let range = catalog.get(oid).expect("temp just allocated").range;
            let write_info = SemanticInfo::temporary(oid, true);
            let read_info = SemanticInfo::temporary(oid, false);
            let chunk = options.temp_blocks_per_request;
            push_chunks(
                range,
                chunk,
                |range| IoOp::TempWrite {
                    info: write_info,
                    range,
                },
                ops,
            );
            for _ in 0..read_passes {
                push_chunks(
                    range,
                    chunk,
                    |range| IoOp::TempRead {
                        info: read_info,
                        range,
                    },
                    ops,
                );
            }
            ops.push(IoOp::TempDelete {
                info: SemanticInfo::temporary_delete(oid),
                range,
                oid,
            });
        }
        Access::Update { table, blocks } => {
            let Some(table_obj) = catalog.get(table) else {
                return;
            };
            let info = SemanticInfo::update(table);
            for _ in 0..blocks {
                ops.push(IoOp::UpdateWrite {
                    info,
                    table_range: table_obj.range,
                });
            }
        }
    }
}
