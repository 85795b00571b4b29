//! Zero-copy structure-of-arrays page views.
//!
//! The v2 page layout stores a node as a fixed-offset header followed by
//! ten parallel lanes (one per `MovingRect` field plus the child
//! reference), so a reader can address any field of any entry at a fixed
//! byte offset without a sequential decode. [`NodeView`] is the typed
//! borrow of such a page: parsing is O(entries) validation only, and
//! every accessor is a single 8-byte little-endian load — on
//! little-endian targets the compiler lowers `f64::from_le_bytes` to a
//! plain memory load, which is as close to "view the page as `&[f64]`"
//! as safe code gets (the crate denies `unsafe_code`, and a
//! `Box<[u8; 4096]>` carries no alignment guarantee to transmute on
//! anyway).
//!
//! ```text
//! offset   size   field
//! 0        2      magic 0x5453 ("TS", le bytes 53 54)
//! 2        1      layout version (2)
//! 3        1      level (0 = leaf)
//! 4        2      entry count (u16, le)
//! 6        2      padding (zero)
//! 8        408    lane 0: lo[0]   (51 slots x 8 bytes, f64 le)
//! 416      408    lane 1: lo[1]
//! 824      408    lane 2: hi[0]
//! 1232     408    lane 3: hi[1]
//! 1640     408    lane 4: vlo[0]
//! 2048     408    lane 5: vlo[1]
//! 2456     408    lane 6: vhi[0]
//! 2864     408    lane 7: vhi[1]
//! 3272     408    lane 8: t_ref
//! 3680     408    lane 9: child (u64 le: ObjectId on leaves, PageId above)
//! 4088     8      slack
//! ```
//!
//! Every lane offset is a multiple of 8, so lane element `i` of lane `k`
//! lives at `8 + k·408 + i·8` — naturally aligned for 8-byte loads
//! whenever the page buffer itself is 8-aligned. Entry *kind* is implied
//! by the level (leaves hold objects, internal nodes hold pages), so
//! there is no per-entry tag byte.
//!
//! This is the only layout. A page carrying the magic of the retired v1
//! array-of-structs layout (`0x5452`) is rejected by
//! [`NodeView::parse`] with a `Corrupt` error that names v1.

use cij_geom::MovingRect;
use cij_storage::{PageId, StorageError, StorageResult, PAGE_SIZE};

use crate::entry::{ChildRef, Entry, ObjectId};
use crate::node::Node;

/// Magic of the v2 structure-of-arrays page layout.
pub const SOA_MAGIC: u16 = 0x5453; // "TS"

/// Magic of the retired v1 (AoS) layout; only named in the error.
const V1_MAGIC: u16 = 0x5452; // "TR"

/// Layout version byte stored at offset 2.
pub const SOA_VERSION: u8 = 2;

/// Bytes of fixed v2 header before the lanes.
pub const SOA_HEADER_BYTES: usize = 8;

/// Number of 8-byte fields per entry (9 × f64 + 1 × u64 child).
pub const SOA_LANES: usize = 10;

/// Slots per lane: entries that physically fit one v2 page.
pub const SOA_SLOTS: usize = (PAGE_SIZE - SOA_HEADER_BYTES) / (SOA_LANES * 8);

/// Byte stride between consecutive lanes.
pub const SOA_LANE_BYTES: usize = SOA_SLOTS * 8;

/// Lane indices, in on-page order.
const L_LO0: usize = 0;
const L_LO1: usize = 1;
const L_HI0: usize = 2;
const L_HI1: usize = 3;
const L_VLO0: usize = 4;
const L_VLO1: usize = 5;
const L_VHI0: usize = 6;
const L_VHI1: usize = 7;
const L_TREF: usize = 8;
const L_CHILD: usize = 9;

// Accessors index dimension lanes as `L_*0 + d`; the dim-1 lane must sit
// directly after its dim-0 twin for that to hold.
const _: () = assert!(
    L_LO1 == L_LO0 + 1 && L_HI1 == L_HI0 + 1 && L_VLO1 == L_VLO0 + 1 && L_VHI1 == L_VHI0 + 1
);

/// Byte offset of element `i` in lane `k`.
#[inline(always)]
const fn lane_off(k: usize, i: usize) -> usize {
    SOA_HEADER_BYTES + k * SOA_LANE_BYTES + i * 8
}

#[inline(always)]
fn load_f64(page: &[u8; PAGE_SIZE], k: usize, i: usize) -> f64 {
    let off = lane_off(k, i);
    f64::from_le_bytes(page[off..off + 8].try_into().expect("8 bytes"))
}

#[inline(always)]
fn load_u64(page: &[u8; PAGE_SIZE], k: usize, i: usize) -> u64 {
    let off = lane_off(k, i);
    u64::from_le_bytes(page[off..off + 8].try_into().expect("8 bytes"))
}

/// A validated, zero-copy view of a v2 (SoA) node page.
///
/// Borrowing the page buffer directly, so it can only live inside a
/// buffer-pool `read` closure; anything that must outlive the frame goes
/// through [`NodeView::to_node`] or [`EntryLanes`].
#[derive(Clone, Copy)]
pub struct NodeView<'a> {
    page: &'a [u8; PAGE_SIZE],
    level: u8,
    len: usize,
}

impl<'a> NodeView<'a> {
    /// Parses a page as a v2 SoA node; `Err` for anything else.
    ///
    /// Validated: magic and version, entry count against capacity,
    /// `lo <= hi` per dimension (which also rejects NaN bounds), and
    /// child page ids within `u32` range on internal nodes. Every
    /// accessor of the returned view is then in bounds.
    pub fn parse(page: &'a [u8; PAGE_SIZE]) -> StorageResult<Self> {
        let magic = u16::from_le_bytes([page[0], page[1]]);
        if magic == V1_MAGIC {
            return Err(StorageError::Corrupt(format!(
                "node magic {magic:#06x} is the v1 (AoS) page layout, which is no longer read"
            )));
        }
        if magic != SOA_MAGIC {
            return Err(StorageError::Corrupt(format!(
                "bad node magic {magic:#06x} (expected {SOA_MAGIC:#06x})"
            )));
        }
        let version = page[2];
        if version != SOA_VERSION {
            return Err(StorageError::Corrupt(format!(
                "unsupported SoA layout version {version} (expected {SOA_VERSION})"
            )));
        }
        let level = page[3];
        let len = u16::from_le_bytes([page[4], page[5]]) as usize;
        if len > Node::max_capacity() {
            return Err(StorageError::Corrupt(format!(
                "entry count {len} exceeds physical capacity {}",
                Node::max_capacity()
            )));
        }
        let view = Self { page, level, len };
        for i in 0..len {
            if !(view.lo(0, i) <= view.hi(0, i) && view.lo(1, i) <= view.hi(1, i)) {
                return Err(StorageError::Corrupt(format!(
                    "inverted entry rect lo=({}, {}) hi=({}, {})",
                    view.lo(0, i),
                    view.lo(1, i),
                    view.hi(0, i),
                    view.hi(1, i)
                )));
            }
            if level > 0 && u32::try_from(view.child_raw(i)).is_err() {
                return Err(StorageError::Corrupt("page id > u32".into()));
            }
        }
        Ok(view)
    }

    /// Node level (0 = leaf).
    #[must_use]
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Whether this is a leaf node.
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the node has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lower bound of entry `i` in dimension `d` at the reference time.
    #[inline]
    #[must_use]
    pub fn lo(&self, d: usize, i: usize) -> f64 {
        debug_assert!(d < 2 && i < self.len);
        load_f64(self.page, L_LO0 + d, i)
    }

    /// Upper bound of entry `i` in dimension `d` at the reference time.
    #[inline]
    #[must_use]
    pub fn hi(&self, d: usize, i: usize) -> f64 {
        debug_assert!(d < 2 && i < self.len);
        load_f64(self.page, L_HI0 + d, i)
    }

    /// Lower-bound velocity of entry `i` in dimension `d`.
    #[inline]
    #[must_use]
    pub fn vlo(&self, d: usize, i: usize) -> f64 {
        debug_assert!(d < 2 && i < self.len);
        load_f64(self.page, L_VLO0 + d, i)
    }

    /// Upper-bound velocity of entry `i` in dimension `d`.
    #[inline]
    #[must_use]
    pub fn vhi(&self, d: usize, i: usize) -> f64 {
        debug_assert!(d < 2 && i < self.len);
        load_f64(self.page, L_VHI0 + d, i)
    }

    /// Reference time of entry `i`.
    #[inline]
    #[must_use]
    pub fn t_ref(&self, i: usize) -> f64 {
        debug_assert!(i < self.len);
        load_f64(self.page, L_TREF, i)
    }

    /// Raw child word of entry `i` (`ObjectId` bits on leaves, `PageId`
    /// on internal nodes).
    #[inline]
    #[must_use]
    pub fn child_raw(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        load_u64(self.page, L_CHILD, i)
    }

    /// Child reference of entry `i`, typed by the node level.
    #[inline]
    #[must_use]
    pub fn child(&self, i: usize) -> ChildRef {
        let raw = self.child_raw(i);
        if self.level == 0 {
            ChildRef::Object(ObjectId(raw))
        } else {
            // Validated in `parse`.
            ChildRef::Page(PageId(raw as u32))
        }
    }

    /// Moving rectangle of entry `i`, materialized from the lanes.
    #[inline]
    #[must_use]
    pub fn mbr(&self, i: usize) -> MovingRect {
        MovingRect::new(
            [self.lo(0, i), self.lo(1, i)],
            [self.hi(0, i), self.hi(1, i)],
            [self.vlo(0, i), self.vlo(1, i)],
            [self.vhi(0, i), self.vhi(1, i)],
            self.t_ref(i),
        )
    }

    /// Entry `i`, materialized.
    #[inline]
    #[must_use]
    pub fn entry(&self, i: usize) -> Entry {
        Entry {
            mbr: self.mbr(i),
            child: self.child(i),
        }
    }

    /// Iterates over all entries (materializing each).
    pub fn entries(&self) -> impl Iterator<Item = Entry> + '_ {
        (0..self.len).map(|i| self.entry(i))
    }

    /// Same fold as [`Node::bounding_mbr`], reading from the lanes.
    #[must_use]
    pub fn bounding_mbr(&self) -> Option<MovingRect> {
        let mut it = (0..self.len).map(|i| self.mbr(i));
        let first = it.next()?;
        Some(it.fold(first, |acc, m| acc.union_moving(&m)))
    }

    /// Decodes the whole view into an owned [`Node`] (lane-order bulk
    /// decode; validation already happened in [`NodeView::parse`]).
    #[must_use]
    pub fn to_node(&self) -> Node {
        let mut node = Node::new(self.level);
        node.entries.reserve_exact(self.len);
        for i in 0..self.len {
            node.entries.push(self.entry(i));
        }
        node
    }
}

impl std::fmt::Debug for NodeView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeView")
            .field("level", &self.level)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

/// Capacity-retained owned copy of one node's lanes.
///
/// The bridge between a [`NodeView`] (which cannot escape the buffer-pool
/// frame it borrows) and lane-oriented consumers like the plane-sweep
/// kernel: `fill_from_view` is a straight lane-to-lane copy, so refilling
/// sweep state from it never gathers per-entry structs.
#[derive(Debug, Default, Clone)]
pub struct EntryLanes {
    /// `lo[d]` lanes.
    pub lo: [Vec<f64>; 2],
    /// `hi[d]` lanes.
    pub hi: [Vec<f64>; 2],
    /// `vlo[d]` lanes.
    pub vlo: [Vec<f64>; 2],
    /// `vhi[d]` lanes.
    pub vhi: [Vec<f64>; 2],
    /// `t_ref` lane.
    pub t_ref: Vec<f64>,
    /// Raw child words (`ObjectId` bits on leaves).
    pub child: Vec<u64>,
    level: u8,
}

impl EntryLanes {
    /// An empty lane set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.t_ref.len()
    }

    /// Whether there are no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.t_ref.is_empty()
    }

    /// Level of the node the lanes were copied from (0 = leaf).
    #[must_use]
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Drops all entries, keeping capacity.
    pub fn clear(&mut self) {
        for d in 0..2 {
            self.lo[d].clear();
            self.hi[d].clear();
            self.vlo[d].clear();
            self.vhi[d].clear();
        }
        self.t_ref.clear();
        self.child.clear();
    }

    /// Object id of entry `i` (leaf lanes only).
    #[inline]
    #[must_use]
    pub fn object(&self, i: usize) -> ObjectId {
        debug_assert_eq!(self.level, 0);
        ObjectId(self.child[i])
    }

    /// Child page of entry `i` (internal-node lanes only; the word was
    /// range-checked when the page was parsed).
    #[inline]
    #[must_use]
    pub fn page(&self, i: usize) -> PageId {
        debug_assert_ne!(self.level, 0);
        PageId(self.child[i] as u32)
    }

    /// Moving rectangle of entry `i`, materialized from the lanes.
    #[inline]
    #[must_use]
    pub fn mbr(&self, i: usize) -> MovingRect {
        MovingRect::new(
            [self.lo[0][i], self.lo[1][i]],
            [self.hi[0][i], self.hi[1][i]],
            [self.vlo[0][i], self.vlo[1][i]],
            [self.vhi[0][i], self.vhi[1][i]],
            self.t_ref[i],
        )
    }

    /// Same fold as [`Node::bounding_mbr`], over the lanes.
    #[must_use]
    pub fn bounding_mbr(&self) -> Option<MovingRect> {
        let mut it = (0..self.len()).map(|i| self.mbr(i));
        let first = it.next()?;
        Some(it.fold(first, |acc, m| acc.union_moving(&m)))
    }

    /// Refills from a zero-copy view: one contiguous copy per lane, no
    /// per-entry struct assembly.
    pub fn fill_from_view(&mut self, view: &NodeView<'_>) {
        self.clear();
        self.level = view.level();
        let n = view.len();
        for d in 0..2 {
            self.lo[d].extend((0..n).map(|i| view.lo(d, i)));
            self.hi[d].extend((0..n).map(|i| view.hi(d, i)));
            self.vlo[d].extend((0..n).map(|i| view.vlo(d, i)));
            self.vhi[d].extend((0..n).map(|i| view.vhi(d, i)));
        }
        self.t_ref.extend((0..n).map(|i| view.t_ref(i)));
        self.child.extend((0..n).map(|i| view.child_raw(i)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cij_geom::Rect;

    fn sample_node(level: u8, n: usize) -> Node {
        let mut node = Node::new(level);
        for i in 0..n {
            let x = i as f64 * 3.0;
            let mbr = MovingRect::rigid(
                Rect::new([x, -x], [x + 1.5, -x + 2.0]),
                [0.5 * i as f64, -1.0],
                i as f64 / 7.0,
            );
            let child = if level == 0 {
                ChildRef::Object(ObjectId(i as u64 + 100))
            } else {
                ChildRef::Page(PageId(i as u32 + 5))
            };
            node.entries.push(Entry { mbr, child });
        }
        node
    }

    #[test]
    fn layout_constants_fit_one_page() {
        assert_eq!(SOA_SLOTS, 51);
        assert_eq!(SOA_LANE_BYTES, 408);
        const { assert!(SOA_HEADER_BYTES + SOA_LANES * SOA_LANE_BYTES <= PAGE_SIZE) };
        // Every lane starts 8-aligned relative to the page base.
        for k in 0..SOA_LANES {
            assert_eq!(lane_off(k, 0) % 8, 0, "lane {k} misaligned");
        }
        assert!(Node::max_capacity() <= SOA_SLOTS);
    }

    #[test]
    fn view_agrees_with_decoded_node() {
        for (level, n) in [(0u8, 17usize), (2, 30), (0, 0)] {
            let node = sample_node(level, n);
            let page = node.to_page().unwrap();
            let view = NodeView::parse(&page).unwrap();
            assert_eq!(view.level(), node.level);
            assert_eq!(view.len(), node.entries.len());
            assert_eq!(view.is_leaf(), node.is_leaf());
            for (i, e) in node.entries.iter().enumerate() {
                assert_eq!(view.entry(i), *e);
                assert_eq!(view.mbr(i), e.mbr);
                assert_eq!(view.child(i), e.child);
            }
            assert_eq!(view.to_node(), node);
            assert_eq!(view.bounding_mbr(), node.bounding_mbr());
        }
    }

    #[test]
    fn garbage_magic_rejected() {
        let mut page = cij_storage::zeroed_page();
        page[0] = 0xFF;
        page[1] = 0xFF;
        assert!(NodeView::parse(&page).is_err());
    }

    #[test]
    fn bad_version_rejected() {
        let node = sample_node(0, 1);
        let mut page = node.to_page().unwrap();
        page[2] = 9;
        assert!(NodeView::parse(&page).is_err());
    }

    #[test]
    fn overlong_count_rejected() {
        let node = sample_node(0, 1);
        let mut page = node.to_page().unwrap();
        let bad = (Node::max_capacity() as u16 + 1).to_le_bytes();
        page[4..6].copy_from_slice(&bad);
        assert!(NodeView::parse(&page).is_err());
    }

    #[test]
    fn internal_child_above_u32_rejected() {
        let node = sample_node(1, 1);
        let mut page = node.to_page().unwrap();
        let off = lane_off(L_CHILD, 0);
        page[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(NodeView::parse(&page).is_err());
        // The same word is a perfectly fine object id on a leaf.
        let leaf = sample_node(0, 1);
        let mut page = leaf.to_page().unwrap();
        page[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let view = NodeView::parse(&page).unwrap();
        assert_eq!(view.child(0), ChildRef::Object(ObjectId(u64::MAX)));
    }

    #[test]
    fn entry_lanes_roundtrip() {
        let node = sample_node(0, 9);
        let page = node.to_page().unwrap();
        let mut lanes = EntryLanes::new();
        lanes.fill_from_view(&NodeView::parse(&page).unwrap());

        assert_eq!(lanes.len(), node.entries.len());
        assert_eq!(lanes.level(), 0);
        for i in 0..node.entries.len() {
            assert_eq!(lanes.mbr(i), node.entries[i].mbr);
            assert_eq!(lanes.object(i), node.entries[i].child.object());
        }
        assert_eq!(lanes.bounding_mbr(), node.bounding_mbr());

        // Refilling reuses capacity and replaces contents.
        let page = sample_node(0, 2).to_page().unwrap();
        lanes.fill_from_view(&NodeView::parse(&page).unwrap());
        assert_eq!(lanes.len(), 2);
    }
}
