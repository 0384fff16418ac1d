//! The paper's semantic, priority-driven policy (Section 5.1), expressed
//! behind the [`CachePolicy`] trait.

use crate::policy::{CachePolicy, HitOutcome, PolicyRequest};
use crate::priority_group::PriorityGroups;
use hstorage_storage::{BlockAddr, CachePriority, PolicyConfig, QosPolicy};

/// Selective allocation and selective eviction over per-priority LRU
/// groups, driven by the caching priority each request carries:
///
/// * **admission** — only requests whose QoS policy admits and whose
///   resolved priority is below the non-caching threshold `t` may
///   allocate;
/// * **displacement** — when the shard is full, a new block is admitted
///   only if some resident block has an equal or lower priority, and the
///   victim is the least-recently-used block of the lowest-priority
///   non-empty group;
/// * **promotion** — a hit under a numbered priority (or the write buffer)
///   moves the block to that group; "non-caching and eviction" demotes it
///   to the evict-first group; "non-caching and non-eviction" leaves the
///   layout untouched.
///
/// This is the exact decision logic the pre-framework `HybridCache`
/// hard-coded; the equivalence suites assert bit-identical statistics and
/// simulated device timing.
pub struct SemanticPriorityPolicy {
    config: PolicyConfig,
    groups: PriorityGroups,
}

impl SemanticPriorityPolicy {
    /// Creates the policy for one shard under the given `{N, t, b}`
    /// configuration.
    pub fn new(config: PolicyConfig) -> Self {
        SemanticPriorityPolicy {
            groups: PriorityGroups::new(config.total_priorities),
            config,
        }
    }
}

impl CachePolicy for SemanticPriorityPolicy {
    fn on_hit(
        &mut self,
        lbn: BlockAddr,
        current: CachePriority,
        req: &PolicyRequest,
    ) -> HitOutcome {
        match req.qos {
            QosPolicy::NonCachingNonEviction => {
                // Does not affect the existing layout: no touch, no move.
                HitOutcome::Unchanged
            }
            QosPolicy::NonCachingEviction => {
                let target = self.config.non_caching_eviction();
                if current != target {
                    self.groups.reallocate(lbn, current, target);
                    HitOutcome::Moved(target)
                } else {
                    HitOutcome::Unchanged
                }
            }
            QosPolicy::Priority(_) | QosPolicy::WriteBuffer => {
                if current != req.prio {
                    self.groups.reallocate(lbn, current, req.prio);
                    HitOutcome::Moved(req.prio)
                } else {
                    self.groups.touch(lbn, req.prio);
                    HitOutcome::Unchanged
                }
            }
        }
    }

    fn admits(&self, req: &PolicyRequest) -> bool {
        req.qos.admits() && self.config.admissible(req.prio)
    }

    // Every repeat outcome is a no-op: the non-caching QoS branches do
    // nothing at all, and the priority branches either re-allocate to the
    // group the first hit already moved the block into (so `current ==
    // req.prio` the second time, taking the touch branch) or re-touch the
    // group MRU the block already occupies.
    fn repeat_hit_idempotent(&self) -> bool {
        true
    }

    fn pop_victim(&mut self, _incoming: BlockAddr, req: &PolicyRequest) -> Option<BlockAddr> {
        // Selective allocation: admit only if some resident block has an
        // equal or lower priority (a numerically >= priority value). The
        // victim stays in its group until the engine's Evict notification.
        let (victim, victim_prio) = self.groups.peek_victim()?;
        if victim_prio.0 >= req.prio.0 {
            Some(victim)
        } else {
            None
        }
    }

    fn on_insert(&mut self, lbn: BlockAddr, req: &PolicyRequest) -> CachePriority {
        self.groups.insert(lbn, req.prio);
        req.prio
    }

    fn on_remove(&mut self, lbn: BlockAddr, group: CachePriority) {
        self.groups.remove(lbn, group);
    }

    fn write_buffered(&self, group: CachePriority) -> bool {
        group == CachePriority(0)
    }

    fn drain_write_buffer(&mut self) -> Vec<BlockAddr> {
        // Selection only: the engine untracks each block with an Evict
        // notification as it releases the slots.
        self.groups.iter_group(CachePriority(0)).copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RemoveReason;
    use hstorage_storage::{Direction, RequestClass};

    fn req(qos: QosPolicy, config: &PolicyConfig) -> PolicyRequest {
        PolicyRequest {
            direction: Direction::Read,
            class: RequestClass::Random,
            qos,
            prio: config.resolve(qos),
        }
    }

    /// Emulates the engine's eviction protocol: select a victim, then
    /// complete the removal with the Evict notification. The engine passes
    /// the victim's metadata group; in these tests that always equals the
    /// displacing request's priority.
    fn pop(p: &mut SemanticPriorityPolicy, req: &PolicyRequest) -> Option<BlockAddr> {
        let victim = p.pop_victim(BlockAddr(u64::MAX), req)?;
        p.on_remove_reasoned(victim, req.prio, RemoveReason::Evict);
        Some(victim)
    }

    #[test]
    fn admission_follows_the_threshold() {
        let config = PolicyConfig::paper_default();
        let p = SemanticPriorityPolicy::new(config);
        assert!(p.admits(&req(QosPolicy::priority(2), &config)));
        assert!(p.admits(&req(QosPolicy::WriteBuffer, &config)));
        assert!(!p.admits(&req(QosPolicy::priority(7), &config)));
        assert!(!p.admits(&req(QosPolicy::NonCachingNonEviction, &config)));
        assert!(!p.admits(&req(QosPolicy::NonCachingEviction, &config)));
    }

    #[test]
    fn displacement_requires_an_equal_or_lower_priority_resident() {
        let config = PolicyConfig::paper_default();
        let mut p = SemanticPriorityPolicy::new(config);
        let r2 = req(QosPolicy::priority(2), &config);
        p.on_insert(BlockAddr(1), &r2);
        // A lower-priority (numerically higher) request must not displace.
        assert_eq!(pop(&mut p, &req(QosPolicy::priority(4), &config)), None);
        // An equal-priority request displaces the LRU resident.
        assert_eq!(pop(&mut p, &r2), Some(BlockAddr(1)));
        // Empty shard: nothing to displace.
        assert_eq!(pop(&mut p, &r2), None);
    }

    #[test]
    fn hits_promote_demote_and_touch() {
        let config = PolicyConfig::paper_default();
        let mut p = SemanticPriorityPolicy::new(config);
        let r3 = req(QosPolicy::priority(3), &config);
        p.on_insert(BlockAddr(1), &r3);
        // Same priority: touch, no move.
        assert_eq!(
            p.on_hit(BlockAddr(1), CachePriority(3), &r3),
            HitOutcome::Unchanged
        );
        // Different priority: re-allocation.
        let r2 = req(QosPolicy::priority(2), &config);
        assert_eq!(
            p.on_hit(BlockAddr(1), CachePriority(3), &r2),
            HitOutcome::Moved(CachePriority(2))
        );
        // Eviction policy demotes to the evict-first group.
        let evict = req(QosPolicy::NonCachingEviction, &config);
        assert_eq!(
            p.on_hit(BlockAddr(1), CachePriority(2), &evict),
            HitOutcome::Moved(config.non_caching_eviction())
        );
        // Non-eviction leaves the layout untouched.
        let scan = req(QosPolicy::NonCachingNonEviction, &config);
        assert_eq!(
            p.on_hit(BlockAddr(1), config.non_caching_eviction(), &scan),
            HitOutcome::Unchanged
        );
    }

    #[test]
    fn drain_returns_only_the_write_buffer_group() {
        let config = PolicyConfig::paper_default();
        let mut p = SemanticPriorityPolicy::new(config);
        p.on_insert(BlockAddr(1), &req(QosPolicy::WriteBuffer, &config));
        p.on_insert(BlockAddr(2), &req(QosPolicy::priority(2), &config));
        p.on_insert(BlockAddr(3), &req(QosPolicy::WriteBuffer, &config));
        assert!(p.write_buffered(CachePriority(0)));
        assert!(!p.write_buffered(CachePriority(2)));
        let mut drained = p.drain_write_buffer();
        // The engine completes the drain with one Evict per block.
        for lbn in &drained {
            p.on_remove_reasoned(*lbn, CachePriority(0), RemoveReason::Evict);
        }
        drained.sort();
        assert_eq!(drained, vec![BlockAddr(1), BlockAddr(3)]);
        assert!(p.drain_write_buffer().is_empty());
        // The regular-priority block is still tracked.
        assert_eq!(
            pop(&mut p, &req(QosPolicy::priority(2), &config)),
            Some(BlockAddr(2))
        );
    }
}
