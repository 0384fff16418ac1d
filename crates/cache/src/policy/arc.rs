//! Adaptive Replacement Cache (ARC) behind the [`CachePolicy`] trait.
//!
//! ARC (Megiddo & Modha, FAST 2003) splits residency into a recency list
//! `T1` (blocks seen exactly once recently) and a frequency list `T2`
//! (blocks seen at least twice), each backed by a [`GhostList`] of
//! recently evicted addresses (`B1` behind `T1`, `B2` behind `T2`). A
//! self-tuning target `p` — the desired size of `T1` — moves toward
//! recency every time a miss lands on `B1` ("we evicted a once-seen block
//! too early") and toward frequency on a `B2` ghost hit, so the policy
//! continuously re-balances itself between LRU-like and LFU-like
//! behaviour without a workload-specific knob. One-shot scans churn
//! through `T1` without displacing the re-referenced working set in `T2`.
//!
//! Fit to the engine contract: the engine resolves a miss as
//! `admits` → (`pop_victim` when the shard is full) → `on_insert`, so the
//! canonical algorithm's steps map as
//!
//! * ghost-hit adaptation of `p` happens in [`CachePolicy::pop_victim`]
//!   (before `REPLACE`, as in the paper) when the shard is full, or in
//!   [`CachePolicy::on_insert`] when a free slot made `REPLACE`
//!   unnecessary — an internal marker prevents double adaptation;
//! * `REPLACE` is split across the selection-only `pop_victim` (which
//!   picks the list and victim, including the `x ∈ B2` tie-break — why
//!   the trait passes the incoming block address) and the engine's
//!   follow-up `on_remove_reasoned` with `Evict`, which untracks the
//!   victim and remembers it in the matching ghost directory;
//! * the directory bound (`|T1| + |B1| ≤ c`, total ≤ `2c`) is enforced at
//!   insertion of a complete miss, as in the paper's case IV.

use crate::policy::{CachePolicy, GhostList, HitOutcome, PolicyRequest, RemoveReason};
use hstorage_storage::{BlockAddr, CachePriority};

use crate::lru::LruList;

/// The self-tuning recency/frequency policy. Invariants (asserted by the
/// property tests): `|T1| + |T2| ≤ c`, `p ∈ [0, c]`, `|B1| ≤ c`,
/// `|B2| ≤ c`.
pub struct ArcPolicy {
    /// Resident blocks seen exactly once since entering the cache.
    t1: LruList,
    /// Resident blocks seen at least twice (the frequency-protected set).
    t2: LruList,
    /// Ghost directory of recent `T1` evictions.
    b1: GhostList,
    /// Ghost directory of recent `T2` evictions.
    b2: GhostList,
    /// Cache capacity `c` of this shard, in blocks.
    capacity: usize,
    /// Self-tuning target size of `T1`, `0 ..= c`.
    p: usize,
    /// Miss address whose ghost-hit adaptation already ran in
    /// `pop_victim`, so `on_insert` must not adapt a second time.
    adapted: Option<BlockAddr>,
}

impl ArcPolicy {
    /// Creates the policy for a shard of `shard_capacity` slots. Each
    /// ghost directory remembers up to `c` addresses.
    pub fn new(shard_capacity: u64) -> Self {
        let capacity = (shard_capacity.max(1)) as usize;
        ArcPolicy {
            t1: LruList::new(),
            t2: LruList::new(),
            b1: GhostList::new(capacity),
            b2: GhostList::new(capacity),
            capacity,
            p: 0,
            adapted: None,
        }
    }

    /// Cache capacity `c` in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current self-tuning target for `|T1|`.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Number of resident once-seen blocks.
    pub fn t1_len(&self) -> usize {
        self.t1.len()
    }

    /// Number of resident frequency-protected blocks.
    pub fn t2_len(&self) -> usize {
        self.t2.len()
    }

    /// Number of remembered recency ghosts.
    pub fn b1_len(&self) -> usize {
        self.b1.len()
    }

    /// Number of remembered frequency ghosts.
    pub fn b2_len(&self) -> usize {
        self.b2.len()
    }

    /// The selection half of `REPLACE` (paper Fig. 4): name the victim
    /// from `T1` while it exceeds its target — with a tie-break toward
    /// `T1` when `prefer_t1_on_tie` (the miss is a `B2` ghost hit) —
    /// otherwise from `T2`, without removing it. The engine's Evict
    /// notification completes the step, moving the victim into the
    /// matching ghost directory (see
    /// [`CachePolicy::on_remove_reasoned`]).
    fn peek_replace(&self, prefer_t1_on_tie: bool) -> Option<BlockAddr> {
        let from_t1 = !self.t1.is_empty()
            && (self.t1.len() > self.p || (self.t1.len() == self.p && prefer_t1_on_tie));
        if from_t1 {
            return self.t1.peek_lru().copied();
        }
        if let Some(&victim) = self.t2.peek_lru() {
            return Some(victim);
        }
        // T2 empty (e.g. p ≥ |T1| on a cold full shard): fall back to T1.
        self.t1.peek_lru().copied()
    }

    /// Applies the ghost-hit adaptation of `p` for a miss on `lbn`, at
    /// most once per miss (pop_victim and on_insert both call this; the
    /// `adapted` marker makes the second call a no-op).
    fn maybe_adapt(&mut self, lbn: BlockAddr) {
        if self.adapted == Some(lbn) {
            return;
        }
        if self.b1.contains(lbn) {
            // Recency ghost hit: grow the recency side.
            let delta = (self.b2.len() / self.b1.len().max(1)).max(1);
            self.p = (self.p + delta).min(self.capacity);
            self.adapted = Some(lbn);
        } else if self.b2.contains(lbn) {
            // Frequency ghost hit: shrink the recency side.
            let delta = (self.b1.len() / self.b2.len().max(1)).max(1);
            self.p = self.p.saturating_sub(delta);
            self.adapted = Some(lbn);
        }
    }
}

impl CachePolicy for ArcPolicy {
    fn on_hit(
        &mut self,
        lbn: BlockAddr,
        _current: CachePriority,
        _req: &PolicyRequest,
    ) -> HitOutcome {
        // Any hit proves reuse: the block moves to (or refreshes in) the
        // frequency-protected list.
        if self.t1.remove(&lbn) {
            self.t2.insert_mru(lbn);
        } else {
            self.t2.touch(&lbn);
        }
        HitOutcome::Unchanged
    }

    fn admits(&self, _req: &PolicyRequest) -> bool {
        true
    }

    // The first hit moves the block T1 → T2 (or refreshes it in T2); the
    // repeat finds it already at the T2 MRU, so the second `touch` changes
    // nothing. The adaptation of `p` happens only on misses (ghost hits in
    // `pop_victim`), never on hits, so skipping the repeat is safe.
    fn repeat_hit_idempotent(&self) -> bool {
        true
    }

    fn pop_victim(&mut self, incoming: BlockAddr, _req: &PolicyRequest) -> Option<BlockAddr> {
        // Adapt p on a ghost hit *before* REPLACE, as in the paper, and
        // apply the paper's tie-break toward T1 when the miss is a B2
        // ghost hit.
        self.maybe_adapt(incoming);
        self.peek_replace(self.b2.contains(incoming))
    }

    fn steal_victim(&mut self, _req: &PolicyRequest) -> Option<BlockAddr> {
        // The freed slot will host another stream's block that this
        // policy never tracks: plain REPLACE under the current p, with no
        // ghost consultation and no adaptation for the foreign address.
        self.peek_replace(false)
    }

    fn on_insert(&mut self, lbn: BlockAddr, req: &PolicyRequest) -> CachePriority {
        // Free-slot misses skip pop_victim, so the ghost adaptation runs
        // here in that case (the marker makes it a no-op otherwise).
        self.maybe_adapt(lbn);
        self.adapted = None;
        if self.b1.forget(lbn) || self.b2.forget(lbn) {
            // Ghost hit: the address was evicted recently — seen at least
            // twice overall, so it enters the frequency list directly.
            // (Total directory size is unchanged: one ghost became one
            // resident.)
            self.t2.insert_mru(lbn);
        } else {
            // Complete miss: track the newcomer in T1, then re-establish
            // the paper's directory bounds (case IV deletions) by aging
            // out the oldest ghosts — set-equivalent to deleting them
            // before REPLACE, and it keeps the REPLACE-fresh ghost alive.
            self.t1.insert_mru(lbn);
            while self.t1.len() + self.b1.len() > self.capacity {
                if self.b1.pop_oldest().is_none() {
                    break;
                }
            }
            while self.t1.len() + self.t2.len() + self.b1.len() + self.b2.len() > 2 * self.capacity
            {
                if self.b2.pop_oldest().is_none() {
                    break;
                }
            }
        }
        req.prio
    }

    fn on_remove(&mut self, lbn: BlockAddr, _group: CachePriority) {
        if !self.t1.remove(&lbn) {
            self.t2.remove(&lbn);
        }
    }

    fn on_remove_reasoned(&mut self, lbn: BlockAddr, group: CachePriority, reason: RemoveReason) {
        match reason {
            RemoveReason::Trim => {
                // Lifetime over: forget the block entirely, history
                // included (a resident block is never ghosted, but the
                // forget is kept defensive for compositor fan-out).
                self.on_remove(lbn, group);
                self.b1.forget(lbn);
                self.b2.forget(lbn);
            }
            RemoveReason::Evict => {
                // The removal half of REPLACE (whether the victim was our
                // own selection or a compositor steal): untrack the block
                // and remember it in the ghost directory of the list it
                // left.
                if self.t1.remove(&lbn) {
                    self.b1.remember(lbn);
                } else if self.t2.remove(&lbn) {
                    self.b2.remember(lbn);
                }
            }
        }
    }

    fn on_trim_absent(&mut self, lbn: BlockAddr) {
        // The address may be recycled for unrelated data: a stale ghost
        // would fake a reuse signal and mis-tune p.
        self.b1.forget(lbn);
        self.b2.forget(lbn);
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

    /// Engine-contract harness: replays accesses against the policy the
    /// way the engine would (hit → on_hit; miss → pop_victim when full →
    /// on_insert), tracking residency.
    struct Harness {
        policy: ArcPolicy,
        resident: std::collections::HashSet<BlockAddr>,
        capacity: usize,
    }

    impl Harness {
        fn new(capacity: u64) -> Self {
            Harness {
                policy: ArcPolicy::new(capacity),
                resident: std::collections::HashSet::new(),
                capacity: capacity as usize,
            }
        }

        fn access(&mut self, lbn: BlockAddr) {
            if self.resident.contains(&lbn) {
                self.policy.on_hit(lbn, CachePriority(2), &req());
                return;
            }
            if self.resident.len() == self.capacity {
                match self.policy.pop_victim(lbn, &req()) {
                    Some(victim) => {
                        assert!(self.resident.remove(&victim), "victim {victim:?} tracked");
                        // The engine completes the eviction it was handed.
                        self.policy.on_remove_reasoned(
                            victim,
                            CachePriority(2),
                            RemoveReason::Evict,
                        );
                    }
                    None => return, // bypass
                }
            }
            self.policy.on_insert(lbn, &req());
            self.resident.insert(lbn);
        }
    }

    #[test]
    fn one_shot_scan_does_not_displace_the_reused_set() {
        let mut h = Harness::new(8);
        // Establish a reused set: touch 0..4 twice (second touch promotes
        // to T2).
        for round in 0..2 {
            for i in 0..4u64 {
                h.access(BlockAddr(i));
            }
            let _ = round;
        }
        assert_eq!(h.policy.t2_len(), 4);
        // A long one-shot scan must churn T1 and leave T2 alone.
        for i in 100..200u64 {
            h.access(BlockAddr(i));
        }
        for i in 0..4u64 {
            assert!(h.resident.contains(&BlockAddr(i)), "hot block {i} evicted");
        }
        assert_eq!(h.policy.t2_len(), 4);
    }

    #[test]
    fn cold_sequential_fill_keeps_no_ghosts() {
        // With |T1| at capacity, the directory bound |T1| + |B1| ≤ c
        // leaves no room for recency ghosts — the paper's case IV(b):
        // pure one-shot traffic is forgotten entirely.
        let mut h = Harness::new(4);
        for i in 0..10u64 {
            h.access(BlockAddr(i));
        }
        assert_eq!(h.policy.t1_len(), 4);
        assert_eq!(h.policy.b1_len(), 0);
    }

    #[test]
    fn b1_ghost_hit_grows_p_and_reinserts_into_t2() {
        let mut h = Harness::new(4);
        // Two re-referenced blocks in T2, two once-seen in T1.
        for i in 0..2u64 {
            h.access(BlockAddr(i));
            h.access(BlockAddr(i));
        }
        h.access(BlockAddr(10));
        h.access(BlockAddr(11));
        assert_eq!((h.policy.t1_len(), h.policy.t2_len()), (2, 2));
        // Overflow: the T1 LRU block (10) is evicted and remembered in B1
        // (|T1| < c, so the directory has room for the ghost).
        h.access(BlockAddr(12));
        assert!(h.policy.b1_len() > 0);
        let p_before = h.policy.p();
        // Miss on the B1 ghost: p grows, the block lands in T2.
        h.access(BlockAddr(10));
        assert!(h.policy.p() > p_before, "B1 hit must grow p");
        assert!(h.policy.t2_len() >= 3);
    }

    #[test]
    fn b2_ghost_hit_shrinks_p() {
        let mut h = Harness::new(2);
        // Build a T2 block, then force it out so B2 remembers it.
        h.access(BlockAddr(1));
        h.access(BlockAddr(1)); // promote to T2
        h.access(BlockAddr(2));
        h.access(BlockAddr(3)); // evictions begin
        h.access(BlockAddr(4));
        h.access(BlockAddr(5));
        // By now T2's block 1 has been replaced; find the state where B2
        // holds it (the exact step depends on p's trajectory).
        if h.policy.b2_len() > 0 {
            // Grow p first so the shrink is observable.
            let grow = h.policy.capacity();
            h.policy.p = grow;
            h.access(BlockAddr(1));
            assert!(h.policy.p() < grow, "B2 hit must shrink p");
        }
    }

    #[test]
    fn p_and_residency_stay_within_bounds_under_churn() {
        let mut h = Harness::new(16);
        // Establish a reused set in T2 …
        for i in 0..4u64 {
            h.access(BlockAddr(i));
            h.access(BlockAddr(i));
        }
        for i in 0..2_000u64 {
            // … then churn with a blend of short-distance reuse and
            // one-shot traffic.
            let addr = if i % 4 < 2 { i % 8 } else { 1_000 + i };
            h.access(BlockAddr(addr));
            assert!(h.policy.t1_len() + h.policy.t2_len() <= h.policy.capacity());
            assert!(h.policy.p() <= h.policy.capacity());
            assert!(h.policy.b1_len() <= h.policy.capacity());
            assert!(h.policy.b2_len() <= h.policy.capacity());
            assert!(h.policy.t1_len() + h.policy.b1_len() <= h.policy.capacity());
        }
        // The reused set must have been promoted at some point.
        assert!(h.policy.t2_len() > 0);
    }

    #[test]
    fn trim_forgets_residents_and_ghosts() {
        let mut h = Harness::new(2);
        h.access(BlockAddr(0));
        h.access(BlockAddr(0)); // T2
        h.access(BlockAddr(1)); // T1; full
        h.access(BlockAddr(2)); // evicts 1 into B1 (|T1| < c leaves room)
        let ghosted = BlockAddr(1);
        assert!(h.policy.b1.contains(ghosted));
        // Resident trim.
        let resident = *h.resident.iter().next().expect("something resident");
        h.policy
            .on_remove_reasoned(resident, CachePriority(2), RemoveReason::Trim);
        assert_eq!(h.policy.t1_len() + h.policy.t2_len(), h.resident.len() - 1);
        // Absent trim clears the ghost, so a later re-use is a cold miss.
        h.policy.on_trim_absent(ghosted);
        assert!(!h.policy.b1.contains(ghosted));
        assert!(!h.policy.b2.contains(ghosted));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The ARC structural invariants hold on any access/TRIM trace
        /// replayed under the engine contract: residency never exceeds
        /// the capacity (`|T1| + |T2| ≤ c` and matches the model's
        /// resident set), the self-tuning target stays in `[0, c]`, and
        /// every directory stays bounded.
        #[test]
        fn arc_invariants_hold_on_arbitrary_traces(
            capacity in 1u64..32,
            events in proptest::collection::vec(
                (0u64..64, proptest::prelude::any::<bool>()),
                1..300,
            ),
        ) {
            use proptest::prelude::prop_assert;
            let mut h = Harness::new(capacity);
            for (addr, is_trim) in events {
                let lbn = BlockAddr(addr);
                if is_trim {
                    if h.resident.remove(&lbn) {
                        h.policy
                            .on_remove_reasoned(lbn, CachePriority(2), RemoveReason::Trim);
                    } else {
                        h.policy.on_trim_absent(lbn);
                    }
                } else {
                    h.access(lbn);
                }
                let c = h.policy.capacity();
                prop_assert!(h.policy.t1_len() + h.policy.t2_len() <= c);
                prop_assert!(h.policy.t1_len() + h.policy.t2_len() == h.resident.len());
                prop_assert!(h.policy.p() <= c);
                prop_assert!(h.policy.b1_len() <= c);
                prop_assert!(h.policy.b2_len() <= c);
                prop_assert!(h.policy.t1_len() + h.policy.b1_len() <= c);
            }
        }
    }

    #[test]
    fn steal_victim_replaces_without_adapting() {
        let mut p = ArcPolicy::new(4);
        p.on_insert(BlockAddr(1), &req());
        p.on_insert(BlockAddr(2), &req());
        let p_before = p.p();
        // A compositor steals a slot for a foreign block: plain REPLACE,
        // completed by the engine's Evict notification.
        let victim = p.steal_victim(&req()).expect("resident blocks exist");
        assert_eq!(victim, BlockAddr(1), "T1 LRU under p = 0");
        p.on_remove_reasoned(victim, CachePriority(2), RemoveReason::Evict);
        assert_eq!(p.p(), p_before, "no adaptation for a foreign insert");
        assert!(p.b1.contains(BlockAddr(1)), "victim ghosted as usual");
        // A later genuine miss on the ghost still adapts normally.
        p.on_insert(BlockAddr(1), &req());
        assert!(p.p() > p_before, "B1 ghost hit must still grow p");
        assert!(!p.b1.contains(BlockAddr(1)));
    }

    #[test]
    fn external_evict_is_remembered_as_a_ghost() {
        let mut p = ArcPolicy::new(4);
        p.on_insert(BlockAddr(1), &req()); // T1
        p.on_insert(BlockAddr(2), &req());
        p.on_hit(BlockAddr(2), CachePriority(2), &req()); // T2
        p.on_remove_reasoned(BlockAddr(1), CachePriority(2), RemoveReason::Evict);
        p.on_remove_reasoned(BlockAddr(2), CachePriority(2), RemoveReason::Evict);
        assert!(p.b1.contains(BlockAddr(1)), "T1 evict lands in B1");
        assert!(p.b2.contains(BlockAddr(2)), "T2 evict lands in B2");
        assert_eq!(p.t1_len() + p.t2_len(), 0);
        // Re-inserting a ghosted address goes straight to T2.
        p.on_insert(BlockAddr(1), &req());
        assert_eq!(p.t2_len(), 1);
    }
}
