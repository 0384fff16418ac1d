//! Database objects and their physical layout.
//!
//! The catalog maps object ids to the contiguous block ranges the objects
//! occupy on the second-level device. The hStorage-DB rules only need the
//! object identity (for the concurrency registry) and the block layout (to
//! generate the request stream), so this is intentionally lean.

use hstorage_storage::{BlockAddr, BlockRange};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a database object (table, index, or temporary file).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ObjectId(pub u32);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oid#{}", self.0)
    }
}

/// What kind of object an [`ObjectId`] denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObjectKind {
    /// A regular user table.
    Table,
    /// A secondary index.
    Index,
    /// A temporary file created during query execution.
    Temporary,
}

/// Catalog entry for one object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectInfo {
    /// The object's id.
    pub oid: ObjectId,
    /// Human-readable name ("lineitem", "idx_l_orderkey", …).
    pub name: String,
    /// Table, index or temporary file.
    pub kind: ObjectKind,
    /// Physical location on the second-level device.
    pub range: BlockRange,
}

/// The object catalog plus a simple bump allocator for temporary files.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Catalog {
    objects: HashMap<ObjectId, ObjectInfo>,
    by_name: HashMap<String, ObjectId>,
    next_oid: u32,
    /// Region of the block address space reserved for temporary data.
    temp_region: BlockRange,
    temp_cursor: u64,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an object at an explicit location, assigning it a fresh id.
    pub fn register(&mut self, name: &str, kind: ObjectKind, range: BlockRange) -> ObjectId {
        let oid = ObjectId(self.next_oid);
        self.next_oid += 1;
        self.objects.insert(
            oid,
            ObjectInfo {
                oid,
                name: name.to_string(),
                kind,
                range,
            },
        );
        self.by_name.insert(name.to_string(), oid);
        oid
    }

    /// Declares the block region used for temporary files.
    pub fn set_temp_region(&mut self, region: BlockRange) {
        self.temp_region = region;
        self.temp_cursor = 0;
    }

    /// The region reserved for temporary files.
    pub fn temp_region(&self) -> BlockRange {
        self.temp_region
    }

    /// Allocates a temporary file of `blocks` blocks inside the temp region.
    ///
    /// The allocator wraps around when the region is exhausted, mirroring a
    /// file system reusing space freed by earlier deletions.
    pub fn allocate_temp(&mut self, blocks: u64) -> ObjectId {
        assert!(
            blocks <= self.temp_region.len.max(1),
            "temporary file of {blocks} blocks exceeds the temp region ({})",
            self.temp_region.len
        );
        if self.temp_cursor + blocks > self.temp_region.len {
            self.temp_cursor = 0;
        }
        let start = BlockAddr(self.temp_region.start.0 + self.temp_cursor);
        self.temp_cursor += blocks;
        let name = format!("temp_{}", self.next_oid);
        self.register(&name, ObjectKind::Temporary, BlockRange::new(start, blocks))
    }

    /// Drops a temporary file from the catalog, returning its layout.
    pub fn drop_temp(&mut self, oid: ObjectId) -> Option<ObjectInfo> {
        let info = self.objects.get(&oid)?;
        if info.kind != ObjectKind::Temporary {
            return None;
        }
        let info = self.objects.remove(&oid)?;
        self.by_name.remove(&info.name);
        Some(info)
    }

    /// Looks up an object by id.
    pub fn get(&self, oid: ObjectId) -> Option<&ObjectInfo> {
        self.objects.get(&oid)
    }

    /// Looks up an object by name.
    pub fn by_name(&self, name: &str) -> Option<&ObjectInfo> {
        self.by_name.get(name).and_then(|oid| self.objects.get(oid))
    }

    /// Number of registered objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Iterates over all objects in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &ObjectInfo> {
        self.objects.values()
    }

    /// Total number of blocks occupied by non-temporary objects.
    pub fn data_blocks(&self) -> u64 {
        self.objects
            .values()
            .filter(|o| o.kind != ObjectKind::Temporary)
            .map(|o| o.range.len)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        let t = c.register("lineitem", ObjectKind::Table, BlockRange::new(0u64, 1000));
        let i = c.register("idx_l", ObjectKind::Index, BlockRange::new(1000u64, 100));
        assert_ne!(t, i);
        assert_eq!(c.get(t).unwrap().name, "lineitem");
        assert_eq!(c.by_name("idx_l").unwrap().oid, i);
        assert_eq!(c.len(), 2);
        assert_eq!(c.data_blocks(), 1100);
    }

    #[test]
    fn temp_allocation_and_drop() {
        let mut c = Catalog::new();
        c.set_temp_region(BlockRange::new(10_000u64, 500));
        let t1 = c.allocate_temp(200);
        let t2 = c.allocate_temp(200);
        let r1 = c.get(t1).unwrap().range;
        let r2 = c.get(t2).unwrap().range;
        assert!(!r1.overlaps(&r2));
        assert!(c.temp_region().contains(r1.start));
        let dropped = c.drop_temp(t1).unwrap();
        assert_eq!(dropped.range, r1);
        assert!(c.get(t1).is_none());
    }

    #[test]
    fn temp_allocation_wraps_around() {
        let mut c = Catalog::new();
        c.set_temp_region(BlockRange::new(0u64, 100));
        let _a = c.allocate_temp(60);
        let b = c.allocate_temp(60); // does not fit after the first: wraps
        assert_eq!(c.get(b).unwrap().range.start, BlockAddr(0));
    }

    #[test]
    fn drop_temp_refuses_regular_tables() {
        let mut c = Catalog::new();
        let t = c.register("part", ObjectKind::Table, BlockRange::new(0u64, 10));
        assert!(c.drop_temp(t).is_none());
        assert!(c.get(t).is_some());
    }
}
