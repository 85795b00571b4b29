//! Tree entries: a moving rectangle plus a reference to what it bounds.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

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

/// A `HashMap` keyed by [`ObjectId`]s (or tuples of them) on the
/// per-update path, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// The [`HashSet`] counterpart of [`IdMap`].
pub type IdSet<K> = HashSet<K, IdBuildHasher>;

/// Multiply-fold hasher for id-keyed maps: every 64-bit word is XORed
/// into the state, multiplied by an odd constant to 128 bits, and the two
/// halves folded back together — two instructions per id where SipHash
/// spends dozens of rounds.
///
/// It is **not** collision-resistant against someone who knows the seed.
/// The seed is drawn once per process from [`RandomState`], so bucket
/// order cannot be predicted from the ids alone, but nothing here
/// protects against a producer that can observe timing closely enough to
/// learn it. Use it for maps whose keys are object ids the engine already
/// indexes; nothing may depend on the iteration order of such a map.
#[derive(Debug, Clone, Copy)]
pub struct IdHasher(u64);

/// 2⁶⁴ / φ, odd: consecutive ids land far apart in both halves of the
/// product.
const FOLD_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        let wide = u128::from(self.0 ^ word) * u128::from(FOLD_MULTIPLIER);
        self.0 = (wide as u64) ^ ((wide >> 64) as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`IdHasher`]s that all start from the process-wide seed.
#[derive(Debug, Clone, Copy)]
pub struct IdBuildHasher {
    seed: u64,
}

impl Default for IdBuildHasher {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        Self {
            seed: *SEED.get_or_init(|| RandomState::new().hash_one(FOLD_MULTIPLIER)),
        }
    }
}

impl BuildHasher for IdBuildHasher {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher(self.seed)
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
    fn id_hasher_spreads_sequential_ids_and_pairs() {
        // hashbrown picks the bucket from the low bits and the control
        // byte from the top seven: both must vary over consecutive ids.
        let build = IdBuildHasher::default();
        let mut low = HashSet::new();
        let mut top = HashSet::new();
        for id in 0..4096u64 {
            let h = build.hash_one((ObjectId(id), ObjectId(id + 10_000)));
            low.insert(h & 0xFFF);
            top.insert(h >> 57);
        }
        assert!(low.len() > 2000, "low bits collide: {}", low.len());
        assert_eq!(top.len(), 128);
        // One seed per process: two builders agree, so maps can be
        // compared and merged.
        let other = IdBuildHasher::default();
        assert_eq!(build.hash_one(ObjectId(7)), other.hash_one(ObjectId(7)));
        // The byte-slice path (derived `Hash` on wider keys) is usable.
        let mut map: IdMap<(ObjectId, u8), u32> = IdMap::default();
        map.insert((ObjectId(1), 2), 3);
        assert_eq!(map[&(ObjectId(1), 2)], 3);
    }

    #[test]
    #[should_panic(expected = "expected child page")]
    fn wrong_accessor_panics() {
        let e = Entry::object(ObjectId(7), mbr());
        let _ = e.child.page();
    }
}
