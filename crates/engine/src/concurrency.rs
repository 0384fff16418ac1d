//! Rule 5: deterministic priority assignment under concurrent queries.
//!
//! When several queries run at once, random requests to the same object
//! could be assigned different priorities depending on which query issued
//! them. The paper avoids this with a small set of shared data structures
//! (Section 4.3):
//!
//! * a hash table `H<oid, list>` where each list element `<level, count>`
//!   says that `count` operators (across all running queries) access `oid`
//!   from plan level `level`,
//! * `gl_low` / `gl_high`, the global minimum and maximum of the per-query
//!   `llow` / `lhigh` values.
//!
//! The structures are updated at query start and end; the priority of a
//! random request to `oid` is computed by Function (1) using the *lowest*
//! registered level for `oid` and the global bounds.
//!
//! Because the structures change only at query boundaries, every change
//! also bumps a [`ConcurrencyRegistry::generation`] counter. A caller that
//! remembers lookups together with the generation they were made at can
//! reuse them, lock-free, until the generation moves (see the executor's
//! Rule-5 memo).

use crate::catalog::ObjectId;
use crate::plan::PlanTree;
use crate::priority::random_request_priority;
use hstorage_storage::{CachePriority, PolicyConfig};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
struct RegistryInner {
    /// `oid → [(level, count)]`.
    objects: HashMap<ObjectId, Vec<(u32, u32)>>,
    /// Per-query `(llow, lhigh)` of the currently registered queries, keyed
    /// by registration ticket.
    query_bounds: HashMap<u64, (u32, u32)>,
    next_ticket: u64,
}

impl RegistryInner {
    fn global_bounds(&self) -> Option<(u32, u32)> {
        let mut bounds: Option<(u32, u32)> = None;
        for &(lo, hi) in self.query_bounds.values() {
            bounds = Some(match bounds {
                None => (lo, hi),
                Some((glo, ghi)) => (glo.min(lo), ghi.max(hi)),
            });
        }
        bounds
    }

    fn lowest_level_for(&self, oid: ObjectId) -> Option<u32> {
        self.objects
            .get(&oid)
            .and_then(|list| list.iter().map(|&(lvl, _)| lvl).min())
    }
}

/// Handle returned by [`ConcurrencyRegistry::register_query`]; pass it back
/// to [`ConcurrencyRegistry::unregister_query`] when the query finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryTicket {
    ticket: u64,
}

/// The shared registry of running queries.
#[derive(Debug, Clone, Default)]
pub struct ConcurrencyRegistry {
    inner: Arc<Mutex<RegistryInner>>,
    /// Number of registry changes so far, shared by clones like `inner`.
    /// Bumped under the mutex by every register/unregister, so an
    /// unchanged value means an unchanged registry.
    generation: Arc<AtomicU64>,
}

impl ConcurrencyRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a query: records, for every object its plan accesses
    /// randomly, the level of the accessing operator, and folds the query's
    /// `llow`/`lhigh` into the global bounds.
    pub fn register_query(&self, plan: &PlanTree) -> QueryTicket {
        let mut inner = self.inner.lock();
        self.generation.fetch_add(1, Ordering::Release);
        let ticket = inner.next_ticket;
        inner.next_ticket += 1;

        if let Some(bounds) = plan.random_level_bounds() {
            inner.query_bounds.insert(ticket, bounds);
        }
        for (oid, level) in plan.random_object_levels() {
            let list = inner.objects.entry(oid).or_default();
            match list.iter_mut().find(|(lvl, _)| *lvl == level) {
                Some((_, count)) => *count += 1,
                None => list.push((level, 1)),
            }
        }
        QueryTicket { ticket }
    }

    /// Unregisters a finished query, removing its contribution.
    pub fn unregister_query(&self, plan: &PlanTree, ticket: QueryTicket) {
        let mut inner = self.inner.lock();
        self.generation.fetch_add(1, Ordering::Release);
        inner.query_bounds.remove(&ticket.ticket);
        for (oid, level) in plan.random_object_levels() {
            if let Some(list) = inner.objects.get_mut(&oid) {
                if let Some(pos) = list.iter().position(|(lvl, _)| *lvl == level) {
                    if list[pos].1 <= 1 {
                        list.remove(pos);
                    } else {
                        list[pos].1 -= 1;
                    }
                }
                if list.is_empty() {
                    inner.objects.remove(&oid);
                }
            }
        }
    }

    /// The registry's change counter: it moves on every
    /// [`Self::register_query`] and [`Self::unregister_query`] and never
    /// otherwise, so two equal reads bracket a period in which every
    /// [`Self::random_priority`] answer stayed the same.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Number of queries currently registered.
    pub fn active_queries(&self) -> usize {
        self.inner.lock().query_bounds.len()
    }

    /// The global level bounds `(gl_low, gl_high)` over all running queries.
    pub fn global_bounds(&self) -> Option<(u32, u32)> {
        self.inner.lock().global_bounds()
    }

    /// The priority of a random request to `oid` under Rule 5: Function (1)
    /// evaluated at the lowest level registered for `oid`, with the global
    /// bounds substituted for the per-query bounds.
    ///
    /// `fallback_level` and `fallback_bounds` (from the issuing query's own
    /// plan) are used when the registry has no information, e.g. for a
    /// query running alone whose registration was skipped.
    pub fn random_priority(
        &self,
        config: &PolicyConfig,
        oid: ObjectId,
        fallback_level: u32,
        fallback_bounds: (u32, u32),
    ) -> CachePriority {
        let inner = self.inner.lock();
        let level = inner.lowest_level_for(oid).unwrap_or(fallback_level);
        let (gl_low, gl_high) = inner.global_bounds().unwrap_or(fallback_bounds);
        drop(inner);
        random_request_priority(config, level, gl_low, gl_high)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Access, OperatorKind, PlanNode};

    fn oid(n: u32) -> ObjectId {
        ObjectId(n)
    }

    fn index_scan(index: u32, table: u32) -> PlanNode {
        PlanNode::leaf(
            OperatorKind::IndexScan,
            Access::IndexScan {
                index: oid(index),
                table: oid(table),
                lookups: 10,
                index_hot_fraction: 1.0,
                table_hot_fraction: 1.0,
            },
        )
    }

    fn seq_scan(table: u32) -> PlanNode {
        PlanNode::leaf(
            OperatorKind::SeqScan,
            Access::SeqScan {
                table: oid(table),
                passes: 1,
            },
        )
    }

    /// A two-level plan: an index scan under a join with a sequential scan.
    fn plan_a() -> PlanTree {
        let join = PlanNode::node(
            OperatorKind::HashJoin,
            Access::None,
            vec![index_scan(10, 1), seq_scan(2)],
        );
        PlanTree::new("A", join)
    }

    /// A deeper plan where table 1 is accessed from a higher level.
    fn plan_b() -> PlanTree {
        let inner = PlanNode::node(
            OperatorKind::HashJoin,
            Access::None,
            vec![index_scan(20, 3), seq_scan(4)],
        );
        let outer = PlanNode::node(
            OperatorKind::NestedLoop,
            Access::None,
            vec![inner, index_scan(10, 1)],
        );
        PlanTree::new("B", outer)
    }

    #[test]
    fn register_and_unregister_are_symmetric() {
        let reg = ConcurrencyRegistry::new();
        let a = plan_a();
        let t = reg.register_query(&a);
        assert_eq!(reg.active_queries(), 1);
        reg.unregister_query(&a, t);
        assert_eq!(reg.active_queries(), 0);
        assert!(reg.global_bounds().is_none());
    }

    #[test]
    fn same_object_gets_same_priority_across_queries() {
        let cfg = PolicyConfig::paper_default();
        let reg = ConcurrencyRegistry::new();
        let a = plan_a();
        let b = plan_b();
        let _ta = reg.register_query(&a);
        let _tb = reg.register_query(&b);

        // In plan A, table 1 is accessed at level 0; in plan B at level 1.
        // Rule 5 assigns the highest priority (from the lowest level) to
        // both queries' requests.
        let p_from_a = reg.random_priority(&cfg, oid(1), 0, (0, 0));
        let p_from_b = reg.random_priority(&cfg, oid(1), 1, (0, 1));
        assert_eq!(p_from_a, p_from_b);
        assert_eq!(p_from_a, CachePriority(2));
    }

    #[test]
    fn global_bounds_cover_all_registered_queries() {
        let reg = ConcurrencyRegistry::new();
        let a = plan_a();
        let b = plan_b();
        let _ta = reg.register_query(&a);
        assert_eq!(reg.global_bounds(), Some((0, 0)));
        let _tb = reg.register_query(&b);
        let (lo, hi) = reg.global_bounds().unwrap();
        assert_eq!(lo, 0);
        assert!(hi >= 1);
    }

    #[test]
    fn fallbacks_used_when_nothing_registered() {
        let cfg = PolicyConfig::paper_default();
        let reg = ConcurrencyRegistry::new();
        let p = reg.random_priority(&cfg, oid(99), 2, (0, 3));
        assert_eq!(p, CachePriority(4));
    }

    #[test]
    fn generation_moves_on_every_change_and_is_shared_by_clones() {
        let reg = ConcurrencyRegistry::new();
        let clone = reg.clone();
        let a = plan_a();
        let g0 = reg.generation();
        let cfg = PolicyConfig::paper_default();
        reg.random_priority(&cfg, oid(1), 0, (0, 0));
        assert_eq!(reg.generation(), g0, "lookups do not change the registry");
        let t = clone.register_query(&a);
        let g1 = reg.generation();
        assert!(g1 > g0);
        reg.unregister_query(&a, t);
        assert!(clone.generation() > g1);
        assert_eq!(reg.generation(), clone.generation());
    }

    #[test]
    fn counts_prevent_premature_removal() {
        let reg = ConcurrencyRegistry::new();
        let a1 = plan_a();
        let a2 = plan_a();
        let t1 = reg.register_query(&a1);
        let _t2 = reg.register_query(&a2);
        reg.unregister_query(&a1, t1);
        // The second registration still pins table 1 at level 0.
        let cfg = PolicyConfig::paper_default();
        let p = reg.random_priority(&cfg, oid(1), 5, (0, 5));
        assert_eq!(p, CachePriority(2));
    }
}
