//! Open-addressing hash tables for the cache hot path.
//!
//! The paper's per-request metadata lookup (`lbn → (pbn, prio, state)`,
//! Section 5.2) sits on the submit path of every shard, and after the
//! lock-light refactor the remaining cost is the probe itself. This module
//! holds that table, a flat, cache-line-friendly open-addressing design:
//!
//! * power-of-two capacity with Fibonacci hashing (a single multiply and
//!   shift — no SipHash state, no per-lookup hasher construction);
//! * linear probing, so a probe touches consecutive slots of one dense
//!   array instead of chasing bucket pointers;
//! * backward-shift deletion instead of tombstones, so probe chains never
//!   grow from churn and the table needs no rehash-on-delete heuristics.
//!
//! [`OpenMap`] is the generic engine (`u64` keys, `Copy` values), and
//! [`BlockTable`] the shard-metadata wrapper whose slots colocate the
//! [`CacheEntry`] with a `u32` policy-node index so a single probe can
//! reach both the metadata and the owning list node. [`OpenMap`] also
//! indexes every [`LruList`](crate::lru::LruList). The tests check it
//! against a `std::HashMap` model on arbitrary insert/remove traces.

use crate::metadata::{BlockState, CacheEntry};
use hstorage_storage::{BlockAddr, CachePriority};

/// Fibonacci-hashing multiplier: `2^64 / φ`, the canonical odd constant.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Smallest table capacity ever allocated (slots, power of two).
const MIN_CAPACITY: usize = 8;

/// Sentinel for "no policy node attached" in a [`BlockTable`] slot.
pub const NO_NODE: u32 = u32::MAX;

/// A flat open-addressing hash map from `u64` keys to `Copy` values.
///
/// Linear probing over a power-of-two slot array, grown at 7/8 load;
/// deletions backward-shift the following probe chain, so the table never
/// holds tombstones and every lookup terminates at the first empty slot.
/// Iteration order is unspecified (slot order) — callers that need a
/// deterministic order must sort, exactly as with `std::HashMap`.
#[derive(Debug, Clone)]
pub struct OpenMap<V> {
    // Struct-of-arrays on purpose. An array-of-structs layout (one
    // `(key, value, used)` slot per entry) was measured 3–15% slower in
    // `norm_wall_ns_per_block` on the `power` benchmark workload, in 3 of 3
    // parent/change pairs on a 2-vCPU Xeon KVM guest. The likely cause: a
    // miss probe reads only `used`, and that dense byte array stays in L2
    // where interleaved slots would not. Measure before retrying it.
    keys: Vec<u64>,
    values: Vec<V>,
    used: Vec<bool>,
    len: usize,
    /// `64 - log2(capacity)`: maps the 64-bit hash onto a slot index.
    shift: u32,
}

impl<V: Copy + Default> Default for OpenMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Default> OpenMap<V> {
    /// Creates an empty map with the minimum capacity.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty map pre-sized so `items` entries fit without
    /// growing (capacity is the next power of two above `items / (7/8)`).
    pub fn with_capacity(items: usize) -> Self {
        let cap = items
            .saturating_mul(8)
            .div_ceil(7)
            .max(MIN_CAPACITY)
            .next_power_of_two();
        OpenMap {
            keys: vec![0; cap],
            values: vec![V::default(); cap],
            used: vec![false; cap],
            len: 0,
            shift: 64 - cap.trailing_zeros(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current slot capacity (power of two).
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// The slot holding `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let mask = self.keys.len() - 1;
        let mut i = self.home(key);
        while self.used[i] {
            if self.keys[i] == key {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
        None
    }

    /// Looks up `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key).map(|i| &self.values[i])
    }

    /// Mutable lookup.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find(key).map(|i| &mut self.values[i])
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Inserts `key → value`, returning the previous value if the key was
    /// already present.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        if let Some(i) = self.find(key) {
            return Some(std::mem::replace(&mut self.values[i], value));
        }
        // Grow *before* placing so the probe chain is computed against the
        // final capacity.
        if (self.len + 1) * 8 > self.keys.len() * 7 {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut i = self.home(key);
        while self.used[i] {
            i = (i + 1) & mask;
        }
        self.keys[i] = key;
        self.values[i] = value;
        self.used[i] = true;
        self.len += 1;
        None
    }

    /// Removes `key`, returning its value if it was present. The probe
    /// chain behind the vacated slot is backward-shifted, so no tombstone
    /// is left behind.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut i = self.find(key)?;
        let removed = self.values[i];
        let mask = self.keys.len() - 1;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            if !self.used[j] {
                break;
            }
            // Slot j's entry may backfill the hole at i only if its home
            // slot does not lie in the circular range (i, j] — i.e. the
            // entry's displacement from home spans the hole.
            let home = self.home(self.keys[j]);
            if (j.wrapping_sub(home)) & mask >= (j.wrapping_sub(i)) & mask {
                self.keys[i] = self.keys[j];
                self.values[i] = self.values[j];
                i = j;
            }
        }
        self.used[i] = false;
        self.len -= 1;
        Some(removed)
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.used.iter_mut().for_each(|u| *u = false);
        self.len = 0;
    }

    /// Iterates all `(key, value)` pairs in unspecified (slot) order.
    pub fn iter(&self) -> OpenMapIter<'_, V> {
        OpenMapIter { map: self, pos: 0 }
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_values = std::mem::replace(&mut self.values, vec![V::default(); new_cap]);
        let old_used = std::mem::replace(&mut self.used, vec![false; new_cap]);
        self.shift = 64 - new_cap.trailing_zeros();
        let mask = new_cap - 1;
        for (slot, was_used) in old_used.into_iter().enumerate() {
            if !was_used {
                continue;
            }
            let key = old_keys[slot];
            let mut i = self.home(key);
            while self.used[i] {
                i = (i + 1) & mask;
            }
            self.keys[i] = key;
            self.values[i] = old_values[slot];
            self.used[i] = true;
        }
    }

    /// Asserts the open-addressing invariant the backward-shift deletion
    /// must preserve: walking from any entry's home slot to the slot it
    /// occupies crosses no empty slot (otherwise a lookup would terminate
    /// early and miss the entry).
    #[cfg(test)]
    fn assert_probe_invariant(&self) {
        let mask = self.keys.len() - 1;
        for slot in 0..self.keys.len() {
            if !self.used[slot] {
                continue;
            }
            let mut i = self.home(self.keys[slot]);
            while i != slot {
                assert!(
                    self.used[i],
                    "probe chain for key {} crosses empty slot {} before {}",
                    self.keys[slot], i, slot
                );
                i = (i + 1) & mask;
            }
        }
    }
}

/// Iterator over an [`OpenMap`]'s `(key, value)` pairs in slot order.
pub struct OpenMapIter<'a, V> {
    map: &'a OpenMap<V>,
    pos: usize,
}

impl<'a, V> Iterator for OpenMapIter<'a, V> {
    type Item = (u64, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        while self.pos < self.map.keys.len() {
            let i = self.pos;
            self.pos += 1;
            if self.map.used[i] {
                return Some((self.map.keys[i], &self.map.values[i]));
            }
        }
        None
    }
}

/// One [`BlockTable`] slot: the block's metadata entry plus the owning
/// policy's `u32` list-node index (or [`NO_NODE`]), colocated so a single
/// probe reaches both.
#[derive(Debug, Clone, Copy)]
pub struct TableSlot {
    /// The resident block's metadata.
    pub entry: CacheEntry,
    /// Arena index of the list node tracking this block, or [`NO_NODE`].
    pub node: u32,
}

impl Default for TableSlot {
    fn default() -> Self {
        TableSlot {
            entry: CacheEntry {
                pbn: 0,
                priority: CachePriority(0),
                state: BlockState::Clean,
            },
            node: NO_NODE,
        }
    }
}

/// The shard-metadata table `lbn → (CacheEntry, node)` on the flat
/// [`OpenMap`] engine: the paper's one lookup table, held directly by
/// every engine shard.
#[derive(Debug, Clone, Default)]
pub struct BlockTable {
    map: OpenMap<TableSlot>,
}

impl BlockTable {
    /// Creates an empty table with the minimum capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table pre-sized for `items` resident blocks.
    pub fn with_capacity(items: usize) -> Self {
        BlockTable {
            map: OpenMap::with_capacity(items),
        }
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up a block's metadata.
    #[inline]
    pub fn get(&self, lbn: BlockAddr) -> Option<&CacheEntry> {
        self.map.get(lbn.0).map(|slot| &slot.entry)
    }

    /// Mutable metadata lookup.
    #[inline]
    pub fn get_mut(&mut self, lbn: BlockAddr) -> Option<&mut CacheEntry> {
        self.map.get_mut(lbn.0).map(|slot| &mut slot.entry)
    }

    /// Whether a block is resident.
    #[inline]
    pub fn contains(&self, lbn: BlockAddr) -> bool {
        self.map.contains(lbn.0)
    }

    /// Inserts (or replaces) a block's metadata, returning the previous
    /// entry if it existed. A replace keeps the slot's node index; a fresh
    /// insert starts it at [`NO_NODE`].
    pub fn insert(&mut self, lbn: BlockAddr, entry: CacheEntry) -> Option<CacheEntry> {
        match self.map.get_mut(lbn.0) {
            Some(slot) => Some(std::mem::replace(&mut slot.entry, entry)),
            None => {
                self.map.insert(
                    lbn.0,
                    TableSlot {
                        entry,
                        node: NO_NODE,
                    },
                );
                None
            }
        }
    }

    /// Removes a block, returning its metadata.
    pub fn remove(&mut self, lbn: BlockAddr) -> Option<CacheEntry> {
        self.map.remove(lbn.0).map(|slot| slot.entry)
    }

    /// The policy-node index attached to a resident block.
    #[inline]
    pub fn node(&self, lbn: BlockAddr) -> Option<u32> {
        self.map.get(lbn.0).map(|slot| slot.node)
    }

    /// Attaches a policy-node index to a resident block. Returns `false`
    /// if the block is not resident.
    pub fn set_node(&mut self, lbn: BlockAddr, node: u32) -> bool {
        match self.map.get_mut(lbn.0) {
            Some(slot) => {
                slot.node = node;
                true
            }
            None => false,
        }
    }

    /// Iterates all `(lbn, entry)` pairs in unspecified (slot) order.
    pub fn iter(&self) -> BlockTableIter<'_> {
        BlockTableIter {
            inner: self.map.iter(),
        }
    }
}

/// Iterator over a [`BlockTable`]'s `(lbn, entry)` pairs in slot order.
pub struct BlockTableIter<'a> {
    inner: OpenMapIter<'a, TableSlot>,
}

impl<'a> Iterator for BlockTableIter<'a> {
    type Item = (BlockAddr, &'a CacheEntry);

    fn next(&mut self) -> Option<Self::Item> {
        self.inner
            .next()
            .map(|(key, slot)| (BlockAddr(key), &slot.entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn entry(pbn: u64) -> CacheEntry {
        CacheEntry {
            pbn,
            priority: CachePriority(2),
            state: BlockState::Clean,
        }
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut t = BlockTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(BlockAddr(5), entry(50)), None);
        assert!(t.contains(BlockAddr(5)));
        assert_eq!(t.get(BlockAddr(5)).unwrap().pbn, 50);
        assert_eq!(t.len(), 1);
        t.get_mut(BlockAddr(5)).unwrap().state = BlockState::Dirty;
        assert!(t.get(BlockAddr(5)).unwrap().is_dirty());
        assert_eq!(t.get_mut(BlockAddr(6)), None);
        assert_eq!(t.remove(BlockAddr(5)).unwrap().pbn, 50);
        assert!(t.is_empty());
        assert_eq!(t.remove(BlockAddr(5)), None);
    }

    #[test]
    fn replace_keeps_the_node_hint() {
        let mut t = BlockTable::new();
        t.insert(BlockAddr(9), entry(1));
        assert_eq!(t.node(BlockAddr(9)), Some(NO_NODE));
        assert!(t.set_node(BlockAddr(9), 7));
        let new = CacheEntry {
            pbn: 2,
            priority: CachePriority(4),
            state: BlockState::Dirty,
        };
        let old = t.insert(BlockAddr(9), new);
        assert_eq!(old.unwrap().pbn, 1);
        assert_eq!(
            t.get(BlockAddr(9)),
            Some(&new),
            "replace swaps the whole entry"
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.node(BlockAddr(9)), Some(7), "replace keeps the node");
        assert!(!t.set_node(BlockAddr(42), 0), "absent block has no node");
        assert_eq!(t.node(BlockAddr(42)), None);
    }

    #[test]
    fn grows_past_the_load_factor_and_keeps_every_entry() {
        let mut t = BlockTable::new();
        for i in 0..1000u64 {
            t.insert(BlockAddr(i), entry(i * 10));
        }
        assert_eq!(t.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(t.get(BlockAddr(i)).unwrap().pbn, i * 10, "lbn {i}");
        }
        let mut pairs: Vec<(u64, u64)> = t.iter().map(|(lbn, e)| (lbn.0, e.pbn)).collect();
        pairs.sort_unstable();
        let expect: Vec<(u64, u64)> = (0..1000u64).map(|i| (i, i * 10)).collect();
        assert_eq!(pairs, expect, "iter yields every resident block once");
        t.map.assert_probe_invariant();
    }

    #[test]
    fn extreme_keys_are_legal() {
        // BlockAddr legitimately spans the full u64 range — the table has
        // no sentinel key, only occupancy flags.
        let mut t = BlockTable::new();
        t.insert(BlockAddr(0), entry(1));
        t.insert(BlockAddr(u64::MAX), entry(2));
        assert_eq!(t.get(BlockAddr(0)).unwrap().pbn, 1);
        assert_eq!(t.get(BlockAddr(u64::MAX)).unwrap().pbn, 2);
    }

    #[test]
    fn with_capacity_presizes_above_the_load_factor() {
        let t = OpenMap::<u32>::with_capacity(1000);
        // 1000 entries at 7/8 load need ≥ 1143 slots → 2048.
        assert_eq!(t.capacity(), 2048);
        let small = OpenMap::<u32>::with_capacity(0);
        assert_eq!(small.capacity(), MIN_CAPACITY);
    }

    #[test]
    fn backward_shift_closes_probe_chains() {
        // Force a dense cluster, then delete from its middle: lookups for
        // every survivor must still succeed and the invariant must hold.
        let mut m = OpenMap::<u64>::new();
        for i in 0..7u64 {
            m.insert(i, i);
        }
        m.remove(3);
        m.map_invariant_and_all_present(&[0, 1, 2, 4, 5, 6]);
        m.remove(0);
        m.map_invariant_and_all_present(&[1, 2, 4, 5, 6]);
    }

    impl OpenMap<u64> {
        fn map_invariant_and_all_present(&self, keys: &[u64]) {
            self.assert_probe_invariant();
            for &k in keys {
                assert_eq!(self.get(k), Some(&k), "key {k} lost");
            }
            assert_eq!(self.len(), keys.len());
        }
    }

    #[test]
    fn clear_empties_without_shrinking() {
        let mut m = OpenMap::<u32>::new();
        for i in 0..100 {
            m.insert(i, i as u32);
        }
        let cap = m.capacity();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.capacity(), cap);
        assert_eq!(m.get(5), None);
        m.insert(5, 1);
        assert_eq!(m.get(5), Some(&1));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The open-addressing table agrees with a `HashMap` model on any
        /// insert/remove/lookup trace, and the backward-shift invariant —
        /// no probe chain ever crosses an empty slot — holds after every
        /// operation.
        #[test]
        fn open_map_matches_a_hash_map_model(
            ops in proptest::collection::vec(
                (0u64..48, proptest::prelude::any::<bool>(), 0u64..1000),
                1..400,
            ),
        ) {
            use proptest::prelude::prop_assert_eq;
            let mut map = OpenMap::<u64>::new();
            let mut model: HashMap<u64, u64> = HashMap::new();
            for (key, is_remove, value) in ops {
                if is_remove {
                    prop_assert_eq!(map.remove(key), model.remove(&key));
                } else {
                    prop_assert_eq!(map.insert(key, value), model.insert(key, value));
                }
                map.assert_probe_invariant();
                prop_assert_eq!(map.len(), model.len());
                for (&k, v) in &model {
                    prop_assert_eq!(map.get(k), Some(v));
                }
            }
            // The iterator visits exactly the model's pairs.
            let mut seen: Vec<(u64, u64)> = map.iter().map(|(k, v)| (k, *v)).collect();
            seen.sort_unstable();
            let mut expect: Vec<(u64, u64)> = model.into_iter().collect();
            expect.sort_unstable();
            prop_assert_eq!(seen, expect);
        }
    }
}
