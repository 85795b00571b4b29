//! Tree entries: a moving rectangle plus a reference to what it bounds.

use cij_geom::MovingRect;
use cij_storage::PageId;

/// Identifier of a data object. Unique across both joined sets (paper
/// §II-A: "each object has a unique ID among all the objects in A ∪ B").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// What an entry points at: a child node (non-leaf levels) or a data
/// object (leaf level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildRef {
    /// Child node page (entry lives in a non-leaf node).
    Page(PageId),
    /// Data object (entry lives in a leaf).
    Object(ObjectId),
}

impl ChildRef {
    /// The child page id.
    ///
    /// # Panics
    /// Panics when the entry is a leaf (object) entry — calling this on a
    /// leaf entry is a traversal logic bug.
    #[must_use]
    pub fn page(self) -> PageId {
        match self {
            Self::Page(p) => p,
            Self::Object(o) => panic!("expected child page, found object entry {o}"),
        }
    }

    /// The object id.
    ///
    /// # Panics
    /// Panics when the entry is a non-leaf (page) entry.
    #[must_use]
    pub fn object(self) -> ObjectId {
        match self {
            Self::Object(o) => o,
            Self::Page(p) => panic!("expected object entry, found child page {p}"),
        }
    }
}

/// One slot of a tree node: a conservative moving MBR plus the reference
/// to the bounded child.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Conservative moving bound of the child (exact for objects).
    pub mbr: MovingRect,
    /// What the bound covers.
    pub child: ChildRef,
}

impl Entry {
    /// Leaf entry for a data object.
    #[must_use]
    pub fn object(oid: ObjectId, mbr: MovingRect) -> Self {
        Self {
            mbr,
            child: ChildRef::Object(oid),
        }
    }

    /// Non-leaf entry for a child node.
    #[must_use]
    pub fn node(page: PageId, mbr: MovingRect) -> Self {
        Self {
            mbr,
            child: ChildRef::Page(page),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cij_geom::Rect;

    fn mbr() -> MovingRect {
        MovingRect::rigid(Rect::new([0.0, 0.0], [1.0, 1.0]), [1.0, -1.0], 5.0)
    }

    #[test]
    fn constructors_set_child() {
        let e = Entry::object(ObjectId(7), mbr());
        assert_eq!(e.child.object(), ObjectId(7));
        let e = Entry::node(PageId(3), mbr());
        assert_eq!(e.child.page(), PageId(3));
    }

    #[test]
    #[should_panic(expected = "expected child page")]
    fn wrong_accessor_panics() {
        let e = Entry::object(ObjectId(7), mbr());
        let _ = e.child.page();
    }
}
