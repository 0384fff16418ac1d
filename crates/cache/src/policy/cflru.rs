//! Clean-First LRU (CFLRU) behind the [`CachePolicy`] trait.
//!
//! CFLRU (Park et al., CASES 2006) is a write-aware refinement of LRU for
//! flash-backed caches: evicting a *dirty* block costs a write-back to the
//! second-level device, so the policy first looks for a **clean** victim
//! within a window at the LRU end of the stack and only falls back to the
//! plain LRU block (dirty or not) when the whole window is dirty. Recency
//! handling is otherwise identical to LRU.

use crate::lru::LruList;
use crate::policy::{CachePolicy, HitOutcome, PolicyRequest};
use crate::table::OpenMap;
use hstorage_storage::{BlockAddr, CachePriority, Direction};

/// Write-aware LRU: prefers clean victims inside a clean-first window to
/// save dirty write-backs, trading a slightly worse hit ratio for less
/// second-level write traffic.
///
/// The policy tracks dirtiness from the events it observes — a block is
/// dirty from the moment it is inserted or hit by a write until it leaves
/// the cache — which mirrors the engine's clean/dirty metadata exactly
/// (resident blocks are never cleaned in place).
pub struct CflruPolicy {
    stack: LruList,
    /// Dirty-address set (contains-only: membership queries are
    /// order-free, so an open-addressing map serves).
    dirty: OpenMap<()>,
    /// How many blocks from the LRU end are searched for a clean victim
    /// before falling back to plain LRU.
    window: usize,
}

impl CflruPolicy {
    /// Default clean-first window as an integer percentage of the shard
    /// capacity (the "window size" parameter of the CFLRU paper; a
    /// quarter of the cache is a common operating point).
    pub const DEFAULT_WINDOW_PCT: u8 = 25;

    /// Creates the policy for a shard of `shard_capacity` slots with the
    /// default window.
    pub fn new(shard_capacity: u64) -> Self {
        Self::with_window(shard_capacity, Self::DEFAULT_WINDOW_PCT)
    }

    /// Creates the policy with an explicit clean-first window, given as an
    /// integer percentage of `shard_capacity` (floored, minimum 1 block).
    pub fn with_window(shard_capacity: u64, window_pct: u8) -> Self {
        let window =
            ((shard_capacity as f64 * (window_pct as f64 / 100.0)).floor() as usize).max(1);
        CflruPolicy {
            stack: LruList::new(),
            dirty: OpenMap::new(),
            window,
        }
    }

    /// The clean-first window size in blocks.
    pub fn window(&self) -> usize {
        self.window
    }
}

impl CachePolicy for CflruPolicy {
    fn on_hit(
        &mut self,
        lbn: BlockAddr,
        _current: CachePriority,
        req: &PolicyRequest,
    ) -> HitOutcome {
        self.stack.touch(&lbn);
        if req.direction == Direction::Write {
            self.dirty.insert(lbn.0, ());
        }
        HitOutcome::Unchanged
    }

    fn admits(&self, _req: &PolicyRequest) -> bool {
        true
    }

    // Re-touching the most-recent block keeps the stack order; re-adding
    // an address to the dirty set is a set no-op. A repeat hit (same
    // direction included — the contract requires identical arguments)
    // therefore changes nothing.
    fn repeat_hit_idempotent(&self) -> bool {
        true
    }

    fn pop_victim(&mut self, _incoming: BlockAddr, _req: &PolicyRequest) -> Option<BlockAddr> {
        // Selection only (the engine's Evict notification untracks the
        // block via `on_remove`): prefer the oldest clean block inside the
        // window; whole window dirty → plain LRU fallback (pays the
        // write-back).
        self.stack
            .iter_lru()
            .take(self.window)
            .find(|lbn| !self.dirty.contains(lbn.0))
            .copied()
            .or_else(|| self.stack.peek_lru().copied())
    }

    fn on_insert(&mut self, lbn: BlockAddr, req: &PolicyRequest) -> CachePriority {
        self.stack.insert_mru(lbn);
        // Every path by which a block leaves the policy also clears its
        // dirty bit, so an inserted block is clean unless this request
        // writes it.
        if req.direction == Direction::Write {
            self.dirty.insert(lbn.0, ());
        }
        req.prio
    }

    fn on_remove(&mut self, lbn: BlockAddr, _group: CachePriority) {
        self.stack.remove(&lbn);
        self.dirty.remove(lbn.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RemoveReason;
    use hstorage_storage::{PolicyConfig, QosPolicy, RequestClass};

    fn req(direction: Direction) -> PolicyRequest {
        let config = PolicyConfig::paper_default();
        PolicyRequest {
            direction,
            class: RequestClass::Random,
            qos: QosPolicy::priority(2),
            prio: config.resolve(QosPolicy::priority(2)),
        }
    }

    /// Emulates the engine: select a victim, then complete the eviction
    /// with the reasoned removal notification.
    fn pop(p: &mut CflruPolicy) -> Option<BlockAddr> {
        let victim = p.pop_victim(BlockAddr(u64::MAX), &req(Direction::Read))?;
        p.on_remove_reasoned(victim, CachePriority(2), RemoveReason::Evict);
        Some(victim)
    }

    #[test]
    fn prefers_a_clean_victim_over_the_dirty_lru_block() {
        let mut p = CflruPolicy::new(16); // window = 4
        assert_eq!(p.window(), 4);
        p.on_insert(BlockAddr(1), &req(Direction::Write)); // dirty, LRU end
        p.on_insert(BlockAddr(2), &req(Direction::Read)); // clean
        p.on_insert(BlockAddr(3), &req(Direction::Read)); // clean
                                                          // Plain LRU would evict 1; CFLRU skips the dirty block and takes
                                                          // the oldest clean one inside the window.
        assert_eq!(pop(&mut p), Some(BlockAddr(2)));
    }

    #[test]
    fn falls_back_to_lru_when_the_window_is_all_dirty() {
        let mut p = CflruPolicy::new(8); // window = 2
        p.on_insert(BlockAddr(1), &req(Direction::Write));
        p.on_insert(BlockAddr(2), &req(Direction::Write));
        p.on_insert(BlockAddr(3), &req(Direction::Read)); // clean but outside window
        assert_eq!(pop(&mut p), Some(BlockAddr(1)));
    }

    #[test]
    fn a_write_hit_dirties_a_clean_block() {
        let mut p = CflruPolicy::new(16);
        p.on_insert(BlockAddr(1), &req(Direction::Read));
        p.on_insert(BlockAddr(2), &req(Direction::Read));
        p.on_hit(BlockAddr(1), CachePriority(2), &req(Direction::Write));
        // Block 1 is now dirty (and MRU); block 2 is the clean victim.
        assert_eq!(pop(&mut p), Some(BlockAddr(2)));
        // Only the dirty block remains; window exhausted, LRU fallback.
        assert_eq!(pop(&mut p), Some(BlockAddr(1)));
        assert_eq!(pop(&mut p), None);
    }

    #[test]
    fn window_scales_with_capacity_and_never_hits_zero() {
        assert_eq!(CflruPolicy::new(0).window(), 1);
        assert_eq!(CflruPolicy::new(1).window(), 1);
        assert_eq!(CflruPolicy::new(100).window(), 25);
    }

    #[test]
    fn window_knob_resizes_the_clean_first_search() {
        assert_eq!(CflruPolicy::with_window(100, 5).window(), 5);
        assert_eq!(CflruPolicy::with_window(100, 100).window(), 100);
        assert_eq!(CflruPolicy::with_window(10, 1).window(), 1);
        // The default constructor and the explicit default agree.
        assert_eq!(
            CflruPolicy::with_window(64, CflruPolicy::DEFAULT_WINDOW_PCT).window(),
            CflruPolicy::new(64).window()
        );
        // A 1%-window CFLRU degenerates toward plain LRU: with the LRU
        // block dirty it pays the write-back immediately.
        let mut lru_like = CflruPolicy::with_window(100, 1);
        lru_like.on_insert(BlockAddr(1), &req(Direction::Write));
        lru_like.on_insert(BlockAddr(2), &req(Direction::Read));
        assert_eq!(pop(&mut lru_like), Some(BlockAddr(1)));
    }
}
