//! A bounded ghost list: recency-ordered history of *non-resident* block
//! addresses.
//!
//! Ghost-keeping policies remember addresses they recently evicted so a
//! re-reference can be told apart from a first touch: 2Q promotes a block
//! to its main queue only when the address is found on `A1out`, and ARC
//! steers its self-tuning target `p` by which of its two ghost lists (`B1`
//! for recency victims, `B2` for frequency victims) a miss lands on. The
//! plumbing is identical in both — insert at the MRU end, age out at the
//! LRU end when over capacity, forget on TRIM — so it lives here once.
//!
//! A ghost entry holds **no cache space**; only the address is remembered.

use crate::lru::LruList;
use hstorage_storage::BlockAddr;

/// A capacity-bounded FIFO/LRU of remembered block addresses.
#[derive(Debug, Clone)]
pub struct GhostList {
    list: LruList,
    capacity: usize,
}

impl GhostList {
    /// Creates an empty ghost list remembering at most `capacity`
    /// addresses. A capacity of 0 remembers nothing (every
    /// [`GhostList::remember`] is immediately aged out).
    pub fn new(capacity: usize) -> Self {
        GhostList {
            list: LruList::new(),
            capacity,
        }
    }

    /// Maximum number of addresses remembered.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of addresses currently remembered.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether no address is remembered.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Whether `lbn` is remembered.
    pub fn contains(&self, lbn: BlockAddr) -> bool {
        self.list.contains(&lbn)
    }

    /// Remembers `lbn` at the most-recent end, aging out the oldest
    /// remembered address while the list is over capacity. Re-remembering
    /// an address moves it to the most-recent end without duplicating it.
    pub fn remember(&mut self, lbn: BlockAddr) {
        self.list.insert_mru(lbn);
        while self.list.len() > self.capacity {
            self.list.pop_lru();
        }
    }

    /// Forgets `lbn` (ghost hit consumed, or the block's lifetime ended in
    /// a TRIM). Returns `true` if the address was remembered.
    pub fn forget(&mut self, lbn: BlockAddr) -> bool {
        self.list.remove(&lbn)
    }

    /// Removes and returns the oldest remembered address (directory
    /// trimming, e.g. ARC's bound on `|T1| + |B1|`).
    pub fn pop_oldest(&mut self) -> Option<BlockAddr> {
        self.list.pop_lru()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remember_trims_to_capacity_in_fifo_order() {
        let mut g = GhostList::new(3);
        for i in 0..5u64 {
            g.remember(BlockAddr(i));
        }
        assert_eq!(g.len(), 3);
        assert_eq!(g.capacity(), 3);
        // The two oldest were aged out.
        assert!(!g.contains(BlockAddr(0)));
        assert!(!g.contains(BlockAddr(1)));
        for i in 2..5u64 {
            assert!(g.contains(BlockAddr(i)), "ghost {i} must survive");
        }
        assert_eq!(g.pop_oldest(), Some(BlockAddr(2)));
    }

    #[test]
    fn duplicate_remember_refreshes_without_duplicating() {
        let mut g = GhostList::new(2);
        g.remember(BlockAddr(1));
        g.remember(BlockAddr(2));
        // Re-remembering 1 moves it to the MRU end; the list must not
        // grow, and 2 is now the oldest.
        g.remember(BlockAddr(1));
        assert_eq!(g.len(), 2);
        g.remember(BlockAddr(3));
        assert!(!g.contains(BlockAddr(2)), "2 aged out, not the refreshed 1");
        assert!(g.contains(BlockAddr(1)));
        assert!(g.contains(BlockAddr(3)));
    }

    #[test]
    fn hit_forgets_exactly_the_hit_address() {
        let mut g = GhostList::new(4);
        for i in 0..3u64 {
            g.remember(BlockAddr(i));
        }
        // A ghost hit consumes the entry: the promoted address leaves the
        // list, everything else stays.
        assert!(g.forget(BlockAddr(1)));
        assert!(!g.contains(BlockAddr(1)));
        assert!(!g.forget(BlockAddr(1)), "second forget finds nothing");
        assert_eq!(g.len(), 2);
        assert!(g.contains(BlockAddr(0)));
        assert!(g.contains(BlockAddr(2)));
    }

    #[test]
    fn zero_capacity_remembers_nothing() {
        let mut g = GhostList::new(0);
        g.remember(BlockAddr(7));
        assert!(g.is_empty());
        assert!(!g.contains(BlockAddr(7)));
        assert_eq!(g.pop_oldest(), None);
    }
}
