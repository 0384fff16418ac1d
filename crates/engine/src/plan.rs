//! Query plan trees.
//!
//! The priority assignment of Rule 2 depends only on the *shape* of the
//! query plan: which operators access which objects randomly, at which
//! level of the tree, and where blocking operators (hash, sort,
//! materialize) reset the level numbering. This module provides exactly
//! that: a plan tree whose nodes carry an operator kind and an access
//! specification, plus the level computations of Section 4.2.2:
//!
//! * the root is on the highest level; the leaf farthest from the root is
//!   on Level 0,
//! * a blocking operator at level `L` causes every operator that has to
//!   wait for it (its ancestors and their other subtrees at level `>= L`)
//!   to be renumbered as if the blocking operator were at Level 0.

use crate::catalog::ObjectId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Operator kinds found in the TPC-H plans of the paper (Figures 2, 7, 8, 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OperatorKind {
    /// Full sequential scan of a table.
    SeqScan,
    /// Index scan: random accesses to an index and its table.
    IndexScan,
    /// Hash build (blocking; may spill temporary data).
    Hash,
    /// Sort (blocking; may spill temporary data).
    Sort,
    /// Hash join probe side driver.
    HashJoin,
    /// Merge join.
    MergeJoin,
    /// Nested-loop join.
    NestedLoop,
    /// Aggregation (hash or group aggregate).
    Aggregate,
    /// Materialize (blocking; may spill temporary data).
    Materialize,
    /// Plain row-limit / top-level result node.
    Result,
    /// Application update statement (RF1/RF2 refresh functions).
    Update,
}

impl OperatorKind {
    /// Whether this operator is *blocking* in the sense of Section 4.2.2:
    /// operators above it (or its sibling) cannot proceed until it finishes.
    pub fn is_blocking(self) -> bool {
        matches!(
            self,
            OperatorKind::Hash | OperatorKind::Sort | OperatorKind::Materialize
        )
    }

    /// Short display name.
    pub fn label(self) -> &'static str {
        match self {
            OperatorKind::SeqScan => "seq scan",
            OperatorKind::IndexScan => "index scan",
            OperatorKind::Hash => "hash",
            OperatorKind::Sort => "sort",
            OperatorKind::HashJoin => "hash join",
            OperatorKind::MergeJoin => "merge join",
            OperatorKind::NestedLoop => "nested loop",
            OperatorKind::Aggregate => "aggregate",
            OperatorKind::Materialize => "materialize",
            OperatorKind::Result => "result",
            OperatorKind::Update => "update",
        }
    }
}

/// The I/O an operator performs, in workload-model terms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Access {
    /// The operator performs no storage I/O of its own (pure pipelining).
    None,
    /// Sequential scan of a table, `passes` full passes.
    SeqScan {
        /// Table being scanned.
        table: ObjectId,
        /// Number of complete passes over the table.
        passes: u32,
    },
    /// Index scan: `lookups` random probes. Each probe touches one index
    /// block and one table block, drawn from hot subsets of the two objects.
    IndexScan {
        /// The index being probed.
        index: ObjectId,
        /// The table the index points into.
        table: ObjectId,
        /// Number of probe operations.
        lookups: u64,
        /// Fraction of the index blocks the probes actually land on.
        index_hot_fraction: f64,
        /// Fraction of the table blocks the probes actually land on.
        table_hot_fraction: f64,
    },
    /// The operator spills temporary data: `blocks` are written during the
    /// generation phase and read back `read_passes` times during the
    /// consumption phase, after which the temporary file is deleted.
    TempSpill {
        /// Number of temporary blocks generated.
        blocks: u64,
        /// Number of read passes over the temporary data.
        read_passes: u32,
    },
    /// Application update: `blocks` random blocks of `table` are written.
    Update {
        /// The table being updated.
        table: ObjectId,
        /// Number of blocks written.
        blocks: u64,
    },
}

impl Access {
    /// Object ids this access touches *randomly* (relevant for Rule 2).
    pub fn random_objects(&self) -> Vec<ObjectId> {
        match self {
            Access::IndexScan { index, table, .. } => vec![*index, *table],
            _ => Vec::new(),
        }
    }
}

/// A node of a query plan tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanNode {
    /// Operator kind.
    pub kind: OperatorKind,
    /// The I/O this operator performs.
    pub access: Access,
    /// Child operators (inputs).
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    /// Creates a leaf node.
    pub fn leaf(kind: OperatorKind, access: Access) -> Self {
        PlanNode {
            kind,
            access,
            children: Vec::new(),
        }
    }

    /// Creates an interior node.
    pub fn node(kind: OperatorKind, access: Access, children: Vec<PlanNode>) -> Self {
        PlanNode {
            kind,
            access,
            children,
        }
    }

    /// Number of nodes in the subtree rooted here.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(|c| c.size()).sum::<usize>()
    }
}

/// One operator of a flattened plan, with its computed levels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperatorLevel {
    /// Pre-order index of the node.
    pub index: usize,
    /// Operator kind.
    pub kind: OperatorKind,
    /// The operator's access specification.
    pub access: Access,
    /// Level before blocking-operator recalculation.
    pub original_level: u32,
    /// Level after blocking-operator recalculation (used by Rule 2).
    pub effective_level: u32,
}

/// A step of the execution order (post-order walk of the tree).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecStep {
    /// Operator kind.
    pub kind: OperatorKind,
    /// The I/O the operator performs.
    pub access: Access,
    /// The operator's effective level (after blocking recalculation).
    pub level: u32,
}

/// The random operators of a plan as Rule 2 and Function (1) see them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RandomLevels {
    /// The lowest and highest effective levels over all operators that
    /// issue random requests (`llow`, `lhigh`); `None` without any.
    pub bounds: Option<(u32, u32)>,
    /// Every randomly accessed object with the minimum effective level of
    /// the operators accessing it, in order of first access (pre-order).
    pub objects: Vec<(ObjectId, u32)>,
}

impl RandomLevels {
    /// Derives the summary from a plan's [`PlanTree::operator_levels`].
    pub fn of(levels: &[OperatorLevel]) -> Self {
        let mut out = RandomLevels::default();
        for op in levels {
            let level = op.effective_level;
            for oid in op.access.random_objects() {
                out.bounds = Some(match out.bounds {
                    None => (level, level),
                    Some((lo, hi)) => (lo.min(level), hi.max(level)),
                });
                match out.objects.iter_mut().find(|(o, _)| *o == oid) {
                    Some((_, l)) => *l = (*l).min(level),
                    None => out.objects.push((oid, level)),
                }
            }
        }
        out
    }

    /// The level Rule 2 assigns to random requests to `oid`, if the plan
    /// accesses it randomly.
    pub fn object_level(&self, oid: ObjectId) -> Option<u32> {
        self.objects
            .iter()
            .find(|(o, _)| *o == oid)
            .map(|&(_, level)| level)
    }
}

/// A full query plan tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanTree {
    /// Query name ("Q9", "RF1", …).
    pub name: String,
    /// Root operator.
    pub root: PlanNode,
}

#[derive(Debug, Clone)]
struct FlatNode {
    kind: OperatorKind,
    access: Access,
    depth: u32,
    parent: Option<usize>,
}

impl PlanTree {
    /// Creates a plan tree.
    pub fn new(name: impl Into<String>, root: PlanNode) -> Self {
        PlanTree {
            name: name.into(),
            root,
        }
    }

    /// Total number of operators.
    pub fn size(&self) -> usize {
        self.root.size()
    }

    fn flatten(&self) -> Vec<FlatNode> {
        fn walk(node: &PlanNode, depth: u32, parent: Option<usize>, out: &mut Vec<FlatNode>) {
            let idx = out.len();
            out.push(FlatNode {
                kind: node.kind,
                access: node.access,
                depth,
                parent,
            });
            for child in &node.children {
                walk(child, depth + 1, Some(idx), out);
            }
        }
        let mut out = Vec::with_capacity(self.size());
        walk(&self.root, 0, None, &mut out);
        out
    }

    /// Number of levels in the tree (the root is on level `levels() - 1`).
    pub fn level_count(&self) -> u32 {
        let flat = self.flatten();
        flat.iter().map(|n| n.depth).max().unwrap_or(0) + 1
    }

    /// Computes original and effective levels for every operator.
    ///
    /// Original level: `max_depth - depth`, so the deepest leaf is Level 0
    /// and the root is on the highest level.
    ///
    /// Effective level: for every blocking operator `b` at original level
    /// `L_b`, every operator that is *not* in `b`'s subtree and whose
    /// original level is `>= L_b` is renumbered as if `b` were at Level 0,
    /// i.e. its level is reduced by `L_b`. When several blocking operators
    /// affect the same node, the largest reduction applies.
    pub fn operator_levels(&self) -> Vec<OperatorLevel> {
        let flat = self.flatten();
        let max_depth = flat.iter().map(|n| n.depth).max().unwrap_or(0);
        let original: Vec<u32> = flat.iter().map(|n| max_depth - n.depth).collect();

        // Subtree membership: node j is in subtree(i) iff i is an ancestor
        // of j (or i == j). With pre-order numbering, subtree(i) is a
        // contiguous index range; recompute by walking parents (trees here
        // are tiny, a dozen nodes at most).
        let is_ancestor = |anc: usize, mut node: usize| -> bool {
            loop {
                if node == anc {
                    return true;
                }
                match flat[node].parent {
                    Some(p) => node = p,
                    None => return false,
                }
            }
        };

        let blocking: Vec<(usize, u32)> = flat
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind.is_blocking())
            .map(|(i, _)| (i, original[i]))
            .collect();

        let mut effective = original.clone();
        for (i, lvl) in flat.iter().enumerate() {
            let _ = lvl;
            let mut reduction = 0u32;
            for &(b, lb) in &blocking {
                if b == i {
                    continue;
                }
                if !is_ancestor(b, i) && !is_ancestor(i, b) {
                    // `i` is in a sibling subtree of `b`.
                    if original[i] >= lb {
                        reduction = reduction.max(lb);
                    }
                } else if is_ancestor(b, i) {
                    // `i` is inside the blocking subtree: unaffected.
                } else {
                    // `i` is an ancestor of `b`: it waits for `b`.
                    if original[i] >= lb {
                        reduction = reduction.max(lb);
                    }
                }
            }
            effective[i] = original[i] - reduction.min(original[i]);
        }

        flat.into_iter()
            .enumerate()
            .map(|(i, n)| OperatorLevel {
                index: i,
                kind: n.kind,
                access: n.access,
                original_level: original[i],
                effective_level: effective[i],
            })
            .collect()
    }

    /// Rule 2's view of the plan's random operators — the query bounds and
    /// the per-object lowest levels — from one [`Self::operator_levels`]
    /// pass.
    pub fn random_levels(&self) -> RandomLevels {
        RandomLevels::of(&self.operator_levels())
    }

    /// The lowest and highest *effective* levels over all operators that
    /// issue random requests (`llow`, `lhigh` in Function (1)). `None` if
    /// the plan has no random operators.
    pub fn random_level_bounds(&self) -> Option<(u32, u32)> {
        self.random_levels().bounds
    }

    /// For every object accessed randomly, the minimum effective level of
    /// the operators accessing it — Rule 2's "the priorities of all random
    /// requests to this table are determined by the operator at the lowest
    /// level of the query plan tree".
    pub fn random_object_levels(&self) -> HashMap<ObjectId, u32> {
        self.random_levels().objects.into_iter().collect()
    }

    /// The execution order: a post-order walk (children before parents), as
    /// produced by an iterator-model executor where blocking operators fully
    /// consume their input before producing output.
    pub fn execution_order(&self) -> Vec<ExecStep> {
        let levels = self.operator_levels();
        // Build a map from pre-order index to effective level, then walk
        // post-order.
        let eff: Vec<u32> = levels.iter().map(|l| l.effective_level).collect();
        let mut steps = Vec::with_capacity(levels.len());
        fn walk(node: &PlanNode, counter: &mut usize, eff: &[u32], steps: &mut Vec<ExecStep>) {
            let my_index = *counter;
            *counter += 1;
            for child in &node.children {
                walk(child, counter, eff, steps);
            }
            steps.push(ExecStep {
                kind: node.kind,
                access: node.access,
                level: eff[my_index],
            });
        }
        let mut counter = 0;
        walk(&self.root, &mut counter, &eff, &mut steps);
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(n: u32) -> ObjectId {
        ObjectId(n)
    }

    /// Builds the example plan tree of Figure 2:
    ///
    /// ```text
    /// Level 5:        nested loop                      index scan t.a (idx at L1 in paper's text)
    /// Level 4:     hash        index scan t.c
    /// ...
    /// Level 0: index scan t.a   seq scan t.b   index scan t.b ...
    /// ```
    ///
    /// We reproduce the structural facts the paper states: a 6-level tree,
    /// a blocking hash on level 4 whose sibling (index scan on t.c) and
    /// parent (root) are renumbered to levels 0 and 1.
    fn figure2_tree() -> PlanTree {
        // Objects: 1 = t.a, 2 = t.a index, 3 = t.b, 4 = t.b index,
        //          5 = t.c, 6 = t.c index.
        let idx_a_low = PlanNode::leaf(
            OperatorKind::IndexScan,
            Access::IndexScan {
                index: oid(2),
                table: oid(1),
                lookups: 100,
                index_hot_fraction: 1.0,
                table_hot_fraction: 1.0,
            },
        );
        let seq_b = PlanNode::leaf(
            OperatorKind::SeqScan,
            Access::SeqScan {
                table: oid(3),
                passes: 1,
            },
        );
        let join_l1 = PlanNode::node(OperatorKind::HashJoin, Access::None, vec![idx_a_low, seq_b]);
        let idx_b = PlanNode::leaf(
            OperatorKind::IndexScan,
            Access::IndexScan {
                index: oid(4),
                table: oid(3),
                lookups: 100,
                index_hot_fraction: 1.0,
                table_hot_fraction: 1.0,
            },
        );
        let join_l2 = PlanNode::node(OperatorKind::NestedLoop, Access::None, vec![join_l1, idx_b]);
        let idx_a_high = PlanNode::leaf(
            OperatorKind::IndexScan,
            Access::IndexScan {
                index: oid(2),
                table: oid(1),
                lookups: 100,
                index_hot_fraction: 1.0,
                table_hot_fraction: 1.0,
            },
        );
        let join_l3 = PlanNode::node(
            OperatorKind::NestedLoop,
            Access::None,
            vec![join_l2, idx_a_high],
        );
        let hash = PlanNode::node(OperatorKind::Hash, Access::None, vec![join_l3]);
        let idx_c = PlanNode::leaf(
            OperatorKind::IndexScan,
            Access::IndexScan {
                index: oid(6),
                table: oid(5),
                lookups: 100,
                index_hot_fraction: 1.0,
                table_hot_fraction: 1.0,
            },
        );
        let root = PlanNode::node(OperatorKind::HashJoin, Access::None, vec![hash, idx_c]);
        PlanTree::new("figure2", root)
    }

    #[test]
    fn figure2_has_six_levels() {
        let t = figure2_tree();
        assert_eq!(t.level_count(), 6);
        assert_eq!(t.size(), 10);
    }

    #[test]
    fn figure2_blocking_recalculation() {
        let t = figure2_tree();
        let levels = t.operator_levels();
        // Root (hash join) is originally on level 5; the hash below it is on
        // level 4; the index scan on t.c is the hash's sibling on level 4.
        let root = &levels[0];
        assert_eq!(root.kind, OperatorKind::HashJoin);
        assert_eq!(root.original_level, 5);
        assert_eq!(root.effective_level, 1);

        let hash = levels
            .iter()
            .find(|l| l.kind == OperatorKind::Hash)
            .unwrap();
        assert_eq!(hash.original_level, 4);
        // The blocking operator itself keeps its level; only waiters are
        // renumbered.
        assert_eq!(hash.effective_level, 4);

        let idx_c = levels
            .iter()
            .find(|l| matches!(l.access, Access::IndexScan { table, .. } if table == oid(5)))
            .unwrap();
        assert_eq!(idx_c.original_level, 4);
        assert_eq!(idx_c.effective_level, 0);
    }

    #[test]
    fn figure2_random_object_levels_follow_rule_2() {
        let t = figure2_tree();
        let map = t.random_object_levels();
        // t.a (oid 1) is accessed by index scans on levels 0 and 3; the
        // lowest level (0) wins.
        assert_eq!(map[&oid(1)], 0);
        assert_eq!(map[&oid(2)], 0);
        // t.b (oid 3) is randomly accessed by the index scan one level above
        // the deepest leaves.
        assert_eq!(map[&oid(3)], 1);
        // t.c (oid 5) is randomly accessed by the renumbered index scan at
        // level 0.
        assert_eq!(map[&oid(5)], 0);
    }

    #[test]
    fn figure2_random_level_bounds() {
        let t = figure2_tree();
        let (lo, hi) = t.random_level_bounds().unwrap();
        assert_eq!(lo, 0);
        // Highest effective level of a random operator: the upper index
        // scan on t.a lives inside the hash's subtree, so its level (2) is
        // unaffected by the blocking recalculation.
        assert_eq!(hi, 2);
    }

    #[test]
    fn execution_order_is_post_order() {
        let t = figure2_tree();
        let order = t.execution_order();
        assert_eq!(order.len(), t.size());
        // The root must come last.
        assert_eq!(order.last().unwrap().kind, OperatorKind::HashJoin);
        // The first executed operator is the deepest leaf (index scan t.a).
        assert_eq!(order[0].kind, OperatorKind::IndexScan);
        assert_eq!(order[0].level, 0);
    }

    #[test]
    fn plan_without_random_operators_has_no_bounds() {
        let scan = PlanNode::leaf(
            OperatorKind::SeqScan,
            Access::SeqScan {
                table: oid(1),
                passes: 1,
            },
        );
        let root = PlanNode::node(OperatorKind::Aggregate, Access::None, vec![scan]);
        let t = PlanTree::new("seq-only", root);
        assert!(t.random_level_bounds().is_none());
        assert!(t.random_object_levels().is_empty());
    }

    #[test]
    fn single_node_plan_levels() {
        let t = PlanTree::new(
            "tiny",
            PlanNode::leaf(
                OperatorKind::SeqScan,
                Access::SeqScan {
                    table: oid(9),
                    passes: 1,
                },
            ),
        );
        let levels = t.operator_levels();
        assert_eq!(levels.len(), 1);
        assert_eq!(levels[0].original_level, 0);
        assert_eq!(levels[0].effective_level, 0);
        assert_eq!(t.level_count(), 1);
    }
}
