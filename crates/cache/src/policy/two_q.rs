//! Scan-resistant 2Q replacement behind the [`CachePolicy`] trait.
//!
//! 2Q (Johnson & Shasha, VLDB 1994) splits residency into a small
//! probationary FIFO (`A1in`) and a main LRU (`Am`), with a ghost list of
//! recently evicted addresses (`A1out`). A first-time block only enters
//! `A1in`; it is promoted to `Am` when it is re-referenced *after* leaving
//! `A1in` — i.e. its address is found on the ghost list. One-shot scan
//! traffic therefore churns through the small probationary queue without
//! ever displacing the hot working set in `Am`.

use crate::lru::LruList;
use crate::policy::{CachePolicy, GhostList, HitOutcome, PolicyRequest, RemoveReason};
use hstorage_storage::{BlockAddr, CachePriority};

/// The classic "full version" 2Q with FIFO `A1in`, ghost `A1out` and LRU
/// `Am`, sized by tunable fractions of the shard capacity (defaults:
/// `Kin` = 25%, `Kout` = 50%, the 2Q paper's recommendation).
pub struct TwoQPolicy {
    /// Probationary FIFO of resident first-time blocks.
    a1in: LruList,
    /// Ghost FIFO of addresses recently evicted from `A1in` (not
    /// resident; holds no cache space).
    a1out: GhostList,
    /// Main LRU of re-referenced (hot) resident blocks.
    am: LruList,
    /// Target size of `A1in` in blocks.
    kin: usize,
}

impl TwoQPolicy {
    /// Default `Kin` as an integer percentage of the shard capacity (2Q
    /// paper: 25%).
    pub const DEFAULT_KIN_PCT: u8 = 25;
    /// Default `Kout` as an integer percentage of the shard capacity (2Q
    /// paper: 50%).
    pub const DEFAULT_KOUT_PCT: u8 = 50;

    /// Creates the policy for a shard of `shard_capacity` slots with the
    /// paper-recommended default fractions.
    pub fn new(shard_capacity: u64) -> Self {
        Self::with_knobs(
            shard_capacity,
            Self::DEFAULT_KIN_PCT,
            Self::DEFAULT_KOUT_PCT,
        )
    }

    /// Creates the policy with explicit `Kin`/`Kout` fractions, each an
    /// integer percentage of `shard_capacity` (floored, minimum 1).
    pub fn with_knobs(shard_capacity: u64, kin_pct: u8, kout_pct: u8) -> Self {
        let sized =
            |pct: u8| ((shard_capacity as f64 * (pct as f64 / 100.0)).floor() as usize).max(1);
        TwoQPolicy {
            a1in: LruList::new(),
            a1out: GhostList::new(sized(kout_pct)),
            am: LruList::new(),
            kin: sized(kin_pct),
        }
    }

    /// Probationary queue target size.
    pub fn kin(&self) -> usize {
        self.kin
    }

    /// Ghost list capacity.
    pub fn kout(&self) -> usize {
        self.a1out.capacity()
    }

    /// Number of ghost addresses currently remembered.
    pub fn ghost_len(&self) -> usize {
        self.a1out.len()
    }
}

impl CachePolicy for TwoQPolicy {
    fn on_hit(
        &mut self,
        lbn: BlockAddr,
        _current: CachePriority,
        _req: &PolicyRequest,
    ) -> HitOutcome {
        // `touch` is a no-op for keys Am does not hold. A hit in A1in
        // deliberately does nothing: the queue is FIFO, so correlated
        // re-references within the probation window do not count as reuse
        // (that is 2Q's scan resistance).
        self.am.touch(&lbn);
        HitOutcome::Unchanged
    }

    fn admits(&self, _req: &PolicyRequest) -> bool {
        true
    }

    // A repeat hit re-touches the Am MRU (order unchanged) or repeats the
    // deliberate A1in no-op — idempotent either way.
    fn repeat_hit_idempotent(&self) -> bool {
        true
    }

    fn pop_victim(&mut self, _incoming: BlockAddr, _req: &PolicyRequest) -> Option<BlockAddr> {
        // Selection only: reclaim from the probationary queue while it is
        // over target, otherwise from the LRU end of Am. Ghosting happens
        // when the engine completes the eviction (`on_remove_reasoned`
        // with `Evict`): A1in victims are remembered, Am victims are
        // forgotten entirely.
        if self.a1in.len() >= self.kin {
            if let Some(&victim) = self.a1in.peek_lru() {
                return Some(victim);
            }
        }
        if let Some(&victim) = self.am.peek_lru() {
            return Some(victim);
        }
        // Am empty (e.g. tiny shard): fall back to whatever A1in holds.
        self.a1in.peek_lru().copied()
    }

    fn on_insert(&mut self, lbn: BlockAddr, req: &PolicyRequest) -> CachePriority {
        if self.a1out.forget(lbn) {
            // Re-reference after probation: the block is hot.
            self.am.insert_mru(lbn);
        } else {
            self.a1in.insert_mru(lbn);
        }
        req.prio
    }

    fn on_remove(&mut self, lbn: BlockAddr, _group: CachePriority) {
        if !self.a1in.remove(&lbn) {
            self.am.remove(&lbn);
        }
    }

    fn on_remove_reasoned(&mut self, lbn: BlockAddr, group: CachePriority, reason: RemoveReason) {
        match reason {
            RemoveReason::Trim => {
                // Lifetime hint: the address is dead, so no history may
                // survive either (a resident block is never ghosted, but
                // compositor fan-out keeps this defensive).
                self.on_remove(lbn, group);
                self.a1out.forget(lbn);
            }
            RemoveReason::Evict => {
                // The eviction completes here, with 2Q's own ghosting
                // rules: a block displaced out of probation is remembered
                // (a prompt re-reference of the address reads as reuse),
                // while an Am block has already proven its reuse and is
                // forgotten entirely — exactly the asymmetry the victim
                // selection promises.
                if self.a1in.remove(&lbn) {
                    self.a1out.remember(lbn);
                } else {
                    self.am.remove(&lbn);
                }
            }
        }
    }

    fn on_trim_absent(&mut self, lbn: BlockAddr) {
        // The lifetime of a previously evicted block ended: without this,
        // a later re-use of the address would find the stale ghost and be
        // falsely promoted to Am on first touch.
        self.a1out.forget(lbn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hstorage_storage::{Direction, PolicyConfig, QosPolicy, RequestClass};

    fn req() -> PolicyRequest {
        let config = PolicyConfig::paper_default();
        PolicyRequest {
            direction: Direction::Read,
            class: RequestClass::Random,
            qos: QosPolicy::priority(2),
            prio: config.resolve(QosPolicy::priority(2)),
        }
    }

    /// Emulates the engine: select a victim, then complete the eviction
    /// with the reasoned removal notification.
    fn pop(p: &mut TwoQPolicy) -> Option<BlockAddr> {
        let victim = p.pop_victim(BlockAddr(u64::MAX), &req())?;
        p.on_remove_reasoned(victim, CachePriority(2), RemoveReason::Evict);
        Some(victim)
    }

    #[test]
    fn first_time_blocks_are_probationary_and_evict_fifo() {
        let mut p = TwoQPolicy::new(4); // kin = 1, kout = 2
        p.on_insert(BlockAddr(1), &req());
        p.on_insert(BlockAddr(2), &req());
        // Hits in A1in do not reorder the FIFO.
        p.on_hit(BlockAddr(1), CachePriority(2), &req());
        assert_eq!(pop(&mut p), Some(BlockAddr(1)));
        assert_eq!(p.ghost_len(), 1);
    }

    #[test]
    fn default_knobs_match_the_paper_fractions() {
        let p = TwoQPolicy::new(100);
        assert_eq!(p.kin(), 25);
        assert_eq!(p.kout(), 50);
        // Explicit defaults are identical to the bare constructor.
        let q = TwoQPolicy::with_knobs(
            100,
            TwoQPolicy::DEFAULT_KIN_PCT,
            TwoQPolicy::DEFAULT_KOUT_PCT,
        );
        assert_eq!((q.kin(), q.kout()), (p.kin(), p.kout()));
    }

    #[test]
    fn knobs_resize_the_queues_and_never_hit_zero() {
        let p = TwoQPolicy::with_knobs(100, 10, 150);
        assert_eq!(p.kin(), 10);
        assert_eq!(p.kout(), 150);
        let tiny = TwoQPolicy::with_knobs(2, 10, 10);
        assert_eq!(tiny.kin(), 1);
        assert_eq!(tiny.kout(), 1);
    }

    #[test]
    fn ghost_re_reference_promotes_to_the_main_queue() {
        let mut p = TwoQPolicy::new(4);
        p.on_insert(BlockAddr(1), &req());
        let evicted = pop(&mut p).unwrap();
        assert_eq!(evicted, BlockAddr(1));
        // The address is remembered; re-inserting it lands in Am.
        p.on_insert(BlockAddr(1), &req());
        p.on_insert(BlockAddr(2), &req()); // probationary
        p.on_insert(BlockAddr(3), &req()); // probationary, A1in over target
                                           // Victims come from the probationary queue, not the hot block.
        assert_eq!(pop(&mut p), Some(BlockAddr(2)));
        assert_eq!(pop(&mut p), Some(BlockAddr(3)));
        // Only when probation is empty does Am give up its LRU block.
        assert_eq!(pop(&mut p), Some(BlockAddr(1)));
        assert_eq!(pop(&mut p), None);
    }

    #[test]
    fn ghost_list_is_bounded() {
        let mut p = TwoQPolicy::new(4); // kout = 2
        for i in 0..10u64 {
            p.on_insert(BlockAddr(i), &req());
            pop(&mut p);
        }
        assert!(p.ghost_len() <= p.kout());
    }

    #[test]
    fn scan_does_not_displace_the_hot_set() {
        let mut p = TwoQPolicy::new(8); // kin = 2
                                        // Establish a hot block in Am via ghost promotion.
        p.on_insert(BlockAddr(100), &req());
        while pop(&mut p).is_some() {}
        p.on_insert(BlockAddr(100), &req());
        // A long one-shot scan churns through probation only.
        for i in 0..50u64 {
            p.on_insert(BlockAddr(i), &req());
            if i >= 2 {
                let victim = pop(&mut p).unwrap();
                assert_ne!(victim, BlockAddr(100), "hot block must survive the scan");
            }
        }
    }

    #[test]
    fn trim_forgets_a_resident_block() {
        let mut p = TwoQPolicy::new(4);
        p.on_insert(BlockAddr(1), &req());
        pop(&mut p); // 1 is now a ghost
        p.on_insert(BlockAddr(1), &req()); // promoted to Am
        p.on_remove_reasoned(BlockAddr(1), CachePriority(2), RemoveReason::Trim);
        assert_eq!(pop(&mut p), None);
    }

    #[test]
    fn trim_of_an_absent_block_forgets_its_ghost() {
        let mut p = TwoQPolicy::new(4);
        p.on_insert(BlockAddr(1), &req());
        pop(&mut p); // 1 is evicted and remembered as a ghost
        assert_eq!(p.ghost_len(), 1);
        // The block's lifetime ends (TRIM) while it is not resident.
        p.on_trim_absent(BlockAddr(1));
        assert_eq!(p.ghost_len(), 0);
        // Re-using the address is a first touch again: probation, not Am.
        p.on_insert(BlockAddr(1), &req());
        p.on_insert(BlockAddr(2), &req());
        assert_eq!(pop(&mut p), Some(BlockAddr(1)), "1 is probationary again");
    }

    #[test]
    fn external_evict_is_remembered_as_reuse_history() {
        let mut p = TwoQPolicy::new(4);
        p.on_insert(BlockAddr(1), &req());
        // The engine (or a compositor steal) displaces the probationary
        // block: 2Q exploits the hint by ghosting it, so the next touch of
        // the address is a promotion to Am — unlike a TRIM, after which it
        // would restart probation.
        p.on_remove_reasoned(BlockAddr(1), CachePriority(2), RemoveReason::Evict);
        assert_eq!(p.ghost_len(), 1);
        p.on_insert(BlockAddr(1), &req());
        p.on_insert(BlockAddr(2), &req());
        // 2 (probation) evicts before the promoted 1.
        assert_eq!(pop(&mut p), Some(BlockAddr(2)));
    }

    #[test]
    fn evicting_a_main_queue_block_leaves_no_ghost() {
        let mut p = TwoQPolicy::new(4);
        p.on_insert(BlockAddr(1), &req());
        pop(&mut p); // ghosted out of probation
        p.on_insert(BlockAddr(1), &req()); // promoted to Am
        assert_eq!(p.ghost_len(), 0);
        // Evicting out of Am forgets the address entirely: re-inserting it
        // restarts probation rather than reading as reuse.
        p.on_remove_reasoned(BlockAddr(1), CachePriority(2), RemoveReason::Evict);
        assert_eq!(p.ghost_len(), 0);
        p.on_insert(BlockAddr(1), &req());
        p.on_insert(BlockAddr(2), &req());
        assert_eq!(pop(&mut p), Some(BlockAddr(1)), "1 is probationary again");
    }
}
