//! Cache metadata (Section 5.2).
//!
//! The storage system tracks cached blocks with a hash table keyed by the
//! logical block number. Each entry is `< lbn, (pbn, prio) >` in the paper;
//! we additionally record the clean/dirty state that Section 5.1 describes
//! for valid blocks.
//!
//! This module defines the entry; the table itself is the open-addressing
//! [`BlockTable`](crate::table::BlockTable), which each engine shard holds
//! directly.

use hstorage_storage::CachePriority;

/// State of a valid cached block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// An identical copy exists on the second-level device.
    Clean,
    /// The cached copy is newer than the second-level copy.
    Dirty,
}

/// Metadata for one cached block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    /// Physical block number inside the SSD cache.
    pub pbn: u64,
    /// Current caching priority (which priority group the block lives in).
    pub priority: CachePriority,
    /// Clean or dirty.
    pub state: BlockState,
}

impl CacheEntry {
    /// Whether the entry is dirty.
    pub fn is_dirty(&self) -> bool {
        self.state == BlockState::Dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::BlockTable;
    use hstorage_storage::BlockAddr;
    use std::collections::HashMap;

    fn entry(pbn: u64, prio: u8, dirty: bool) -> CacheEntry {
        CacheEntry {
            pbn,
            priority: CachePriority(prio),
            state: if dirty {
                BlockState::Dirty
            } else {
                BlockState::Clean
            },
        }
    }

    fn dirty_count(m: &BlockTable) -> usize {
        m.iter().filter(|(_, e)| e.is_dirty()).count()
    }

    #[test]
    fn insert_lookup_remove() {
        let mut m = BlockTable::with_capacity(8);
        assert!(m.is_empty());
        m.insert(BlockAddr(5), entry(0, 2, false));
        assert!(m.contains(BlockAddr(5)));
        assert_eq!(m.get(BlockAddr(5)).unwrap().pbn, 0);
        assert_eq!(m.len(), 1);
        let removed = m.remove(BlockAddr(5)).unwrap();
        assert_eq!(removed.priority, CachePriority(2));
        assert!(m.is_empty());
    }

    #[test]
    fn dirty_count_tracks_state() {
        let mut m = BlockTable::with_capacity(8);
        m.insert(BlockAddr(1), entry(0, 1, true));
        m.insert(BlockAddr(2), entry(1, 1, false));
        m.insert(BlockAddr(3), entry(2, 3, true));
        assert_eq!(dirty_count(&m), 2);
        m.get_mut(BlockAddr(1)).unwrap().state = BlockState::Clean;
        assert_eq!(dirty_count(&m), 1);
    }

    #[test]
    fn insert_replaces_existing_entry() {
        let mut m = BlockTable::with_capacity(8);
        m.insert(BlockAddr(9), entry(10, 4, false));
        m.insert(BlockAddr(9), entry(11, 2, true));
        let e = m.get(BlockAddr(9)).unwrap();
        assert_eq!(e.pbn, 11);
        assert_eq!(e.priority, CachePriority(2));
        assert!(e.is_dirty());
        assert_eq!(m.len(), 1);
    }

    /// The block table and a `std::HashMap` reference hold the same set
    /// after the same inserts.
    #[test]
    fn iter_yields_the_same_set_on_both_backends() {
        let mut table = BlockTable::with_capacity(4);
        let mut reference = HashMap::new();
        for i in 0..50u64 {
            table.insert(BlockAddr(i), entry(i, 1, i % 2 == 0));
            reference.insert(BlockAddr(i), entry(i, 1, i % 2 == 0));
        }
        let mut got: Vec<(u64, u64)> = table.iter().map(|(lbn, e)| (lbn.0, e.pbn)).collect();
        got.sort_unstable();
        let mut want: Vec<(u64, u64)> = reference.iter().map(|(lbn, e)| (lbn.0, e.pbn)).collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(got.len(), 50);
    }
}
