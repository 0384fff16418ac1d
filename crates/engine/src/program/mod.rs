//! Request programs: the compiled I/O behaviour of a query plan.
//!
//! The executor first *compiles* a plan tree against the catalog into a
//! [`RequestProgram`], and then *executes* it, assigning QoS policies at
//! issue time so that Rule 5 sees the registry state of the moment.
//! Keeping compilation separate from execution is also what lets the
//! concurrent-workload driver interleave several programs over one storage
//! system.
//!
//! A program is a *stream tree*, not a list of operations: its size is
//! proportional to the number of plan nodes, and each [`IoOp`] is generated
//! when the executor pulls it from a [`ProgramCursor`] — the order an
//! iterator-model executor with blocking operators would issue them in.
//!
//! * **Runs** are the leaves. Each has a closed-form `k`-th operation: a
//!   table scan is `passes` passes over the chunks of a range, a spill's
//!   writes and reads are chunked the same way (the last chunk of a pass
//!   may be short, exactly as [`BlockRange::split_at`] cuts it), and index
//!   probes, updates and a spill's deletion repeat one operation.
//! * **Concat** nodes play their children back to back: the children of a
//!   blocking operator, an operator's own I/O after its input, and the
//!   deferred consumption phases of spills at the end of the query.
//! * **Interleave** nodes merge their children proportionally: the children
//!   of a pipelined join, and a spill's generation phase with its input.
//!   The child that is least far through, `issued as f64 / len as f64`,
//!   goes next and a tie goes to the lower index — the rule the eager
//!   test oracle (`program/eager.rs`) applies to whole vectors, evaluated
//!   one operation at a time, so the issued sequence is identical.
//!
//! Every node stores its length, so [`RequestProgram::len`] is arithmetic.
//! Compilation still has its one side effect at compile time: temporary
//! files are allocated from the catalog in the plan's post-order.

use crate::catalog::{Catalog, ObjectId};
use crate::plan::{Access, OperatorLevel, PlanNode, PlanTree, RandomLevels};
use crate::semantic::{ContentType, SemanticInfo};
use hstorage_storage::BlockRange;
use serde::{Deserialize, Serialize};

#[cfg(test)]
pub(crate) mod eager;

/// One unit of work of a compiled query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum IoOp {
    /// A sequential read of a contiguous range of a table.
    SequentialRead {
        /// Semantic information to attach.
        info: SemanticInfo,
        /// Blocks to read.
        range: BlockRange,
    },
    /// One index-scan probe: a random read of one index block followed by a
    /// random read of one table block. The concrete block addresses are
    /// drawn at execution time from the hot subsets.
    IndexProbe {
        /// Semantic info for the index access.
        index_info: SemanticInfo,
        /// Hot subset of the index to probe.
        index_hot: BlockRange,
        /// Semantic info for the table access.
        table_info: SemanticInfo,
        /// Hot subset of the table to access.
        table_hot: BlockRange,
    },
    /// A write of temporary data during the generation phase.
    TempWrite {
        /// Semantic information (temporary, write).
        info: SemanticInfo,
        /// Blocks to write.
        range: BlockRange,
    },
    /// A read of temporary data during the consumption phase.
    TempRead {
        /// Semantic information (temporary, read).
        info: SemanticInfo,
        /// Blocks to read.
        range: BlockRange,
    },
    /// Deletion of a temporary file at the end of its lifetime.
    TempDelete {
        /// Semantic information (temporary delete).
        info: SemanticInfo,
        /// The whole file being deleted.
        range: BlockRange,
        /// The temporary object to drop from the catalog.
        oid: ObjectId,
    },
    /// An application update of one random block.
    UpdateWrite {
        /// Semantic information (update).
        info: SemanticInfo,
        /// The table region the updated block is drawn from.
        table_range: BlockRange,
    },
}

/// A compiled query: its name, the plan-level bounds used by Function (1),
/// and the stream tree its operations are pulled from.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestProgram {
    /// Query name.
    pub name: String,
    /// The query's own `(llow, lhigh)` over random operators; `(0, 0)` when
    /// the plan has no random operators.
    pub level_bounds: (u32, u32),
    /// The stream tree; children precede their parents.
    nodes: Vec<Node>,
    /// The root of the tree; `None` for a program without operations.
    root: Option<usize>,
}

impl RequestProgram {
    /// Number of operations.
    pub fn len(&self) -> usize {
        self.root.map_or(0, |root| self.nodes[root].len as usize)
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// A cursor at the program's first operation. The cursor does not
    /// borrow the program, so a driver can keep the two side by side.
    pub fn cursor(&self) -> ProgramCursor {
        ProgramCursor {
            issued: vec![0; self.nodes.len()],
        }
    }

    /// The operations in issue order.
    pub fn iter(&self) -> impl Iterator<Item = IoOp> + '_ {
        let mut cursor = self.cursor();
        std::iter::from_fn(move || cursor.next(self))
    }
}

/// A position in a [`RequestProgram`]: how many operations each node of its
/// stream tree has issued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramCursor {
    issued: Vec<u64>,
}

impl ProgramCursor {
    /// The next operation of `program`, or `None` once all have been
    /// issued. `program` must be the program this cursor was made by.
    pub fn next(&mut self, program: &RequestProgram) -> Option<IoOp> {
        let root = program.root?;
        (self.issued[root] < program.nodes[root].len).then(|| self.pull(program, root))
    }

    /// Whether every operation of `program` has been issued.
    pub fn is_done(&self, program: &RequestProgram) -> bool {
        program
            .root
            .map_or(true, |root| self.issued[root] == program.nodes[root].len)
    }

    /// Issues the next operation of the non-exhausted node `at`.
    fn pull(&mut self, program: &RequestProgram, at: usize) -> IoOp {
        let k = self.issued[at];
        self.issued[at] += 1;
        let child = match &program.nodes[at].kind {
            NodeKind::Run(run) => return run.op(k),
            NodeKind::Concat(children) => *children
                .iter()
                .find(|&&c| self.issued[c] < program.nodes[c].len)
                .expect("a non-exhausted concat has a non-exhausted child"),
            NodeKind::Interleave(children) => {
                let mut best: Option<(usize, f64)> = None;
                for &c in children {
                    let len = program.nodes[c].len;
                    if self.issued[c] >= len {
                        continue;
                    }
                    let progress = self.issued[c] as f64 / len as f64;
                    match best {
                        Some((_, p)) if p <= progress => {}
                        _ => best = Some((c, progress)),
                    }
                }
                best.expect("a non-exhausted interleave has a non-exhausted child")
                    .0
            }
        };
        self.pull(program, child)
    }
}

/// A node of a program's stream tree.
#[derive(Debug, Clone, PartialEq)]
struct Node {
    /// Operations under this node; never zero.
    len: u64,
    kind: NodeKind,
}

#[derive(Debug, Clone, PartialEq)]
enum NodeKind {
    Run(Run),
    Concat(Vec<usize>),
    Interleave(Vec<usize>),
}

/// A leaf of the stream tree: operations with a closed-form `k`-th one.
#[derive(Debug, Clone, PartialEq)]
enum Run {
    /// Passes over `range` in requests of `chunk` blocks, `per_pass`
    /// requests a pass.
    Chunked {
        kind: ChunkedKind,
        info: SemanticInfo,
        range: BlockRange,
        chunk: u64,
        per_pass: u64,
    },
    /// One operation, repeated.
    Repeat(IoOp),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ChunkedKind {
    SequentialRead,
    TempWrite,
    TempRead,
}

impl Run {
    fn op(&self, k: u64) -> IoOp {
        match *self {
            Run::Chunked {
                kind,
                info,
                range,
                chunk,
                per_pass,
            } => {
                let offset = k % per_pass * chunk;
                let range =
                    BlockRange::new(range.start.offset(offset), chunk.min(range.len - offset));
                match kind {
                    ChunkedKind::SequentialRead => IoOp::SequentialRead { info, range },
                    ChunkedKind::TempWrite => IoOp::TempWrite { info, range },
                    ChunkedKind::TempRead => IoOp::TempRead { info, range },
                }
            }
            Run::Repeat(op) => op,
        }
    }
}

/// Compilation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompileOptions {
    /// Blocks per sequential read request.
    pub seq_blocks_per_request: u64,
    /// Blocks per temporary-data request.
    pub temp_blocks_per_request: u64,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            seq_blocks_per_request: 64,
            temp_blocks_per_request: 32,
        }
    }
}

/// Returns the leading sub-range of `range` covering `fraction` of it (at
/// least one block for non-empty ranges): the hot subset index probes land
/// on.
pub fn hot_subset(range: BlockRange, fraction: f64) -> BlockRange {
    if range.is_empty() {
        return range;
    }
    let len = ((range.len as f64 * fraction).ceil() as u64).clamp(1, range.len);
    BlockRange::new(range.start, len)
}

/// Compiles a plan tree into a request program.
///
/// Children of blocking operators (hash, sort, materialize) complete before
/// anything above them runs; children of pipelined operators (joins) have
/// their I/O interleaved proportionally.
///
/// Temporary spills model the two phases of Section 4.2.3: the *generation*
/// phase (the write stream) is interleaved with the spilling operator's
/// input, and the *consumption* phase (the read streams) plus the deletion
/// are deferred to the end of the query, when the materialised data is
/// actually consumed by the upper part of the plan. Temporary files are
/// allocated from the catalog's temp region during compilation; the
/// corresponding [`IoOp::TempDelete`] drops them again at execution time.
///
/// # Panics
///
/// If either request size in `options` is zero: no number of such requests
/// covers a non-empty range.
pub fn compile(plan: &PlanTree, catalog: &mut Catalog, options: CompileOptions) -> RequestProgram {
    assert!(
        options.seq_blocks_per_request > 0 && options.temp_blocks_per_request > 0,
        "compile options need positive request sizes, got {options:?}"
    );
    let levels = plan.operator_levels();
    let random = RandomLevels::of(&levels);
    let mut builder = Builder {
        nodes: Vec::new(),
        deferred: Vec::new(),
        levels: &levels,
        random: &random,
        catalog,
        options,
    };
    let mut counter = 0;
    let main = builder.walk(&plan.root, &mut counter);
    let mut phases: Vec<usize> = main.into_iter().collect();
    phases.append(&mut builder.deferred);
    let root = builder.combine(phases, NodeKind::Concat);
    RequestProgram {
        name: plan.name.clone(),
        level_bounds: random.bounds.unwrap_or((0, 0)),
        nodes: builder.nodes,
        root,
    }
}

/// Builds a program's stream tree. Every method returns the index of the
/// node it added, or `None` for a stream without operations, which is
/// never added.
struct Builder<'a> {
    nodes: Vec<Node>,
    /// Consumption phases and deletions of spills, in plan post-order.
    deferred: Vec<usize>,
    levels: &'a [OperatorLevel],
    random: &'a RandomLevels,
    catalog: &'a mut Catalog,
    options: CompileOptions,
}

impl Builder<'_> {
    fn push(&mut self, len: u64, kind: NodeKind) -> Option<usize> {
        (len > 0).then(|| {
            self.nodes.push(Node { len, kind });
            self.nodes.len() - 1
        })
    }

    /// An inner node over the non-empty `children`; a lone child stands for
    /// itself.
    fn combine(&mut self, children: Vec<usize>, kind: fn(Vec<usize>) -> NodeKind) -> Option<usize> {
        if children.len() <= 1 {
            return children.first().copied();
        }
        let len = children.iter().map(|&c| self.nodes[c].len).sum();
        self.push(len, kind(children))
    }

    fn repeat(&mut self, op: IoOp, times: u64) -> Option<usize> {
        self.push(times, NodeKind::Run(Run::Repeat(op)))
    }

    fn chunked(
        &mut self,
        kind: ChunkedKind,
        info: SemanticInfo,
        range: BlockRange,
        chunk: u64,
        passes: u64,
    ) -> Option<usize> {
        let per_pass = range.len.div_ceil(chunk);
        let run = Run::Chunked {
            kind,
            info,
            range,
            chunk,
            per_pass,
        };
        self.push(passes * per_pass, NodeKind::Run(run))
    }

    /// The stream of the subtree at `node`, whose pre-order index is
    /// `*counter`.
    fn walk(&mut self, node: &PlanNode, counter: &mut usize) -> Option<usize> {
        let level = self.levels[*counter].effective_level;
        *counter += 1;
        let inputs: Vec<usize> = node
            .children
            .iter()
            .filter_map(|c| self.walk(c, counter))
            .collect();
        // Blocking children finish before their siblings start; pipelined
        // children interleave.
        let pipelined =
            node.children.len() > 1 && !node.children.iter().any(|c| c.kind.is_blocking());
        let input = if pipelined {
            self.combine(inputs, NodeKind::Interleave)
        } else {
            self.combine(inputs, NodeKind::Concat)
        };

        match node.access {
            Access::TempSpill {
                blocks,
                read_passes,
            } if blocks > 0 => {
                let oid = self.catalog.allocate_temp(blocks);
                let range = self.catalog.get(oid).expect("temp just allocated").range;
                let chunk = self.options.temp_blocks_per_request;
                // Generation (writes) interleaves with the input;
                // consumption (reads) and deletion are deferred to the end
                // of the query.
                let writes = self.chunked(
                    ChunkedKind::TempWrite,
                    SemanticInfo::temporary(oid, true),
                    range,
                    chunk,
                    1,
                );
                let reads = self.chunked(
                    ChunkedKind::TempRead,
                    SemanticInfo::temporary(oid, false),
                    range,
                    chunk,
                    u64::from(read_passes),
                );
                let delete = IoOp::TempDelete {
                    info: SemanticInfo::temporary_delete(oid),
                    range,
                    oid,
                };
                let delete = self.repeat(delete, 1);
                self.deferred.extend(reads.into_iter().chain(delete));
                self.combine(
                    input.into_iter().chain(writes).collect(),
                    NodeKind::Interleave,
                )
            }
            access => {
                let own = self.own_stream(access, level);
                self.combine(input.into_iter().chain(own).collect(), NodeKind::Concat)
            }
        }
    }

    /// The I/O of a non-spilling operator at effective level `level`.
    fn own_stream(&mut self, access: Access, level: u32) -> Option<usize> {
        match access {
            Access::None | Access::TempSpill { .. } => None,
            Access::SeqScan { table, passes } => {
                let range = self.catalog.get(table)?.range;
                self.chunked(
                    ChunkedKind::SequentialRead,
                    SemanticInfo::sequential_scan(table, level),
                    range,
                    self.options.seq_blocks_per_request,
                    u64::from(passes),
                )
            }
            Access::IndexScan {
                index,
                table,
                lookups,
                index_hot_fraction,
                table_hot_fraction,
            } => {
                let index_hot = hot_subset(self.catalog.get(index)?.range, index_hot_fraction);
                let table_hot = hot_subset(self.catalog.get(table)?.range, table_hot_fraction);
                // Rule 2: the level that determines the priority of requests
                // to an object is the lowest level of any operator that
                // accesses it randomly — not necessarily this operator's
                // own level.
                let index_level = self.random.object_level(index).unwrap_or(level);
                let table_level = self.random.object_level(table).unwrap_or(level);
                let probe = IoOp::IndexProbe {
                    index_info: SemanticInfo::random_access(index, ContentType::Index, index_level),
                    index_hot,
                    table_info: SemanticInfo::random_access(
                        table,
                        ContentType::RegularTable,
                        table_level,
                    ),
                    table_hot,
                };
                self.repeat(probe, lookups)
            }
            Access::Update { table, blocks } => {
                let table_range = self.catalog.get(table)?.range;
                let write = IoOp::UpdateWrite {
                    info: SemanticInfo::update(table),
                    table_range,
                };
                self.repeat(write, blocks)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ObjectKind;
    use crate::plan::OperatorKind;

    fn setup() -> (Catalog, ObjectId, ObjectId) {
        let mut cat = Catalog::new();
        let table = cat.register("orders", ObjectKind::Table, BlockRange::new(0u64, 1000));
        let index = cat.register(
            "idx_orders",
            ObjectKind::Index,
            BlockRange::new(1000u64, 100),
        );
        cat.set_temp_region(BlockRange::new(100_000u64, 10_000));
        (cat, table, index)
    }

    #[test]
    fn seq_scan_is_chunked() {
        let (mut cat, table, _) = setup();
        let plan = PlanTree::new(
            "scan",
            PlanNode::leaf(OperatorKind::SeqScan, Access::SeqScan { table, passes: 1 }),
        );
        let prog = compile(&plan, &mut cat, CompileOptions::default());
        assert_eq!(prog.len(), 1000usize.div_ceil(64));
        let total: u64 = prog
            .iter()
            .map(|op| match op {
                IoOp::SequentialRead { range, .. } => range.len,
                _ => 0,
            })
            .sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn index_scan_emits_one_probe_per_lookup() {
        let (mut cat, table, index) = setup();
        let plan = PlanTree::new(
            "probe",
            PlanNode::leaf(
                OperatorKind::IndexScan,
                Access::IndexScan {
                    index,
                    table,
                    lookups: 250,
                    index_hot_fraction: 0.5,
                    table_hot_fraction: 0.1,
                },
            ),
        );
        let prog = compile(&plan, &mut cat, CompileOptions::default());
        assert_eq!(prog.len(), 250);
        let first = prog.iter().next().unwrap();
        match &first {
            IoOp::IndexProbe {
                index_hot,
                table_hot,
                ..
            } => {
                assert_eq!(index_hot.len, 50);
                assert_eq!(table_hot.len, 100);
            }
            other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn temp_spill_generates_write_read_delete_lifecycle() {
        let (mut cat, _, _) = setup();
        let plan = PlanTree::new(
            "spill",
            PlanNode::leaf(
                OperatorKind::Hash,
                Access::TempSpill {
                    blocks: 64,
                    read_passes: 2,
                },
            ),
        );
        let before = cat.len();
        let prog = compile(&plan, &mut cat, CompileOptions::default());
        assert_eq!(cat.len(), before + 1);
        let ops: Vec<IoOp> = prog.iter().collect();
        let writes = ops
            .iter()
            .filter(|o| matches!(o, IoOp::TempWrite { .. }))
            .count();
        let reads = ops
            .iter()
            .filter(|o| matches!(o, IoOp::TempRead { .. }))
            .count();
        let deletes = ops
            .iter()
            .filter(|o| matches!(o, IoOp::TempDelete { .. }))
            .count();
        assert_eq!(writes, 2); // 64 blocks / 32 per request
        assert_eq!(reads, 4); // two passes
        assert_eq!(deletes, 1);
        // Writes come before reads, delete is last.
        assert!(matches!(ops.first().unwrap(), IoOp::TempWrite { .. }));
        assert!(matches!(ops.last().unwrap(), IoOp::TempDelete { .. }));
    }

    #[test]
    fn update_emits_one_op_per_block() {
        let (mut cat, table, _) = setup();
        let plan = PlanTree::new(
            "rf1",
            PlanNode::leaf(OperatorKind::Update, Access::Update { table, blocks: 17 }),
        );
        let prog = compile(&plan, &mut cat, CompileOptions::default());
        assert_eq!(prog.len(), 17);
        assert!(prog.iter().all(|o| matches!(o, IoOp::UpdateWrite { .. })));
    }

    #[test]
    fn hot_subset_bounds() {
        let r = BlockRange::new(10u64, 100);
        assert_eq!(hot_subset(r, 0.25).len, 25);
        assert_eq!(hot_subset(r, 0.0).len, 1);
        assert_eq!(hot_subset(r, 1.0).len, 100);
        assert_eq!(hot_subset(r, 2.0).len, 100);
        assert!(hot_subset(BlockRange::empty(), 0.5).is_empty());
    }

    #[test]
    fn level_bounds_default_to_zero_without_random_ops() {
        let (mut cat, table, _) = setup();
        let plan = PlanTree::new(
            "scan",
            PlanNode::leaf(OperatorKind::SeqScan, Access::SeqScan { table, passes: 1 }),
        );
        let prog = compile(&plan, &mut cat, CompileOptions::default());
        assert_eq!(prog.level_bounds, (0, 0));
    }

    #[test]
    #[should_panic(expected = "positive request sizes")]
    fn zero_seq_request_size_is_rejected() {
        let (mut cat, table, _) = setup();
        let plan = PlanTree::new(
            "scan",
            PlanNode::leaf(OperatorKind::SeqScan, Access::SeqScan { table, passes: 1 }),
        );
        let options = CompileOptions {
            seq_blocks_per_request: 0,
            ..CompileOptions::default()
        };
        compile(&plan, &mut cat, options);
    }

    #[test]
    #[should_panic(expected = "positive request sizes")]
    fn zero_temp_request_size_is_rejected() {
        let (mut cat, _, _) = setup();
        let plan = PlanTree::new(
            "spill",
            PlanNode::leaf(
                OperatorKind::Hash,
                Access::TempSpill {
                    blocks: 64,
                    read_passes: 1,
                },
            ),
        );
        let options = CompileOptions {
            temp_blocks_per_request: 0,
            ..CompileOptions::default()
        };
        compile(&plan, &mut cat, options);
    }

    #[test]
    fn cursor_reports_exhaustion_and_stays_exhausted() {
        let (mut cat, table, _) = setup();
        let plan = PlanTree::new(
            "scan",
            PlanNode::leaf(OperatorKind::SeqScan, Access::SeqScan { table, passes: 2 }),
        );
        let prog = compile(&plan, &mut cat, CompileOptions::default());
        let mut cursor = prog.cursor();
        let mut issued = 0;
        while !cursor.is_done(&prog) {
            assert!(cursor.next(&prog).is_some());
            issued += 1;
        }
        assert_eq!(issued, prog.len());
        assert_eq!(cursor.next(&prog), None);

        let empty = PlanTree::new("none", PlanNode::leaf(OperatorKind::Result, Access::None));
        let prog = compile(&empty, &mut cat, CompileOptions::default());
        assert!(prog.is_empty());
        assert!(prog.cursor().is_done(&prog));
        assert_eq!(prog.iter().count(), 0);
    }

    const KINDS: [OperatorKind; 11] = [
        OperatorKind::SeqScan,
        OperatorKind::IndexScan,
        OperatorKind::Hash,
        OperatorKind::Sort,
        OperatorKind::HashJoin,
        OperatorKind::MergeJoin,
        OperatorKind::NestedLoop,
        OperatorKind::Aggregate,
        OperatorKind::Materialize,
        OperatorKind::Result,
        OperatorKind::Update,
    ];

    /// One node of a generated plan: operator kind, access kind, object,
    /// count, passes, hot fraction (in quarters), parent selector.
    type NodeSpec = (usize, u8, usize, u64, u32, u8, u16);

    /// Builds a plan from generated node specs: node `i > 0` becomes the
    /// last child of node `parent % i`, so node 0 is the root. The objects
    /// include an empty table and an id the catalog does not know.
    fn generated_plan(specs: &[NodeSpec], objects: &[ObjectId]) -> PlanTree {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); specs.len()];
        for (i, spec) in specs.iter().enumerate().skip(1) {
            children[usize::from(spec.6) % i].push(i);
        }
        fn build(
            i: usize,
            specs: &[NodeSpec],
            children: &[Vec<usize>],
            objects: &[ObjectId],
        ) -> PlanNode {
            let (kind, access, obj, n, passes, quarters, _) = specs[i];
            let object = objects[obj % objects.len()];
            let access = match access {
                0 => Access::None,
                1 => Access::SeqScan {
                    table: object,
                    passes,
                },
                2 => Access::IndexScan {
                    index: object,
                    table: objects[(obj + 1) % objects.len()],
                    lookups: n % 60,
                    index_hot_fraction: f64::from(quarters) / 4.0,
                    table_hot_fraction: f64::from(4 - quarters) / 4.0,
                },
                3 => Access::TempSpill {
                    blocks: n % 201,
                    read_passes: passes,
                },
                _ => Access::Update {
                    table: object,
                    blocks: n % 40,
                },
            };
            let kids = children[i]
                .iter()
                .map(|&c| build(c, specs, children, objects))
                .collect();
            PlanNode::node(KINDS[kind % KINDS.len()], access, kids)
        }
        PlanTree::new("generated", build(0, specs, &children, objects))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The streamed program of any plan issues exactly the operations
        /// of the materializing oracle, reports the same length and level
        /// bounds, and leaves the catalog's temp allocations identical.
        #[test]
        fn streamed_program_equals_the_eager_oracle(
            specs in proptest::collection::vec(
                (0usize..11, 0u8..5, 0usize..8, 0u64..400, 0u32..4, 0u8..5, proptest::prelude::any::<u16>()),
                1..24,
            ),
            seq_chunk in 0usize..4,
            temp_chunk in 0usize..3,
        ) {
            use proptest::prelude::prop_assert_eq;
            let mut cat = Catalog::new();
            let objects = vec![
                cat.register("big", ObjectKind::Table, BlockRange::new(0u64, 1000)),
                cat.register("small", ObjectKind::Table, BlockRange::new(1000u64, 7)),
                cat.register("empty", ObjectKind::Table, BlockRange::new(1007u64, 0)),
                cat.register("idx_big", ObjectKind::Index, BlockRange::new(1007u64, 100)),
                cat.register("idx_one", ObjectKind::Index, BlockRange::new(1107u64, 1)),
                ObjectId(99),
            ];
            // Small enough that spills wrap around it.
            cat.set_temp_region(BlockRange::new(10_000u64, 500));
            let options = CompileOptions {
                seq_blocks_per_request: [1, 3, 7, 64][seq_chunk],
                temp_blocks_per_request: [1, 5, 32][temp_chunk],
            };
            let plan = generated_plan(&specs, &objects);

            let mut oracle_cat = cat.clone();
            let oracle = eager::compile(&plan, &mut oracle_cat, options);
            let prog = compile(&plan, &mut cat, options);
            prop_assert_eq!(prog.len(), oracle.ops.len());
            prop_assert_eq!(prog.is_empty(), oracle.ops.is_empty());
            prop_assert_eq!(prog.level_bounds, oracle.level_bounds);
            prop_assert_eq!(prog.iter().collect::<Vec<_>>(), oracle.ops);
            prop_assert_eq!(cat, oracle_cat);
        }
    }
}
