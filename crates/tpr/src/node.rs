//! In-memory node representation and its page codec.
//!
//! A node is a level tag plus up to `capacity` entries. Level 0 is the
//! leaf level (entries point at objects); higher levels point at child
//! pages. Nodes serialize into one 4 KB page each.
//!
//! There is one on-page layout, the v2 structure-of-arrays layout of
//! [`crate::view`]: [`Node::to_page`] writes it, and every read goes
//! through [`NodeView`](crate::NodeView) — [`Node::from_page`] is
//! `NodeView::parse` + `to_node`.

use cij_geom::{MovingRect, Time};
use cij_storage::{PageBuf, StorageError, StorageResult, PAGE_SIZE};

use crate::entry::{ChildRef, Entry};
use crate::view::{NodeView, SOA_HEADER_BYTES, SOA_LANE_BYTES, SOA_MAGIC, SOA_SLOTS, SOA_VERSION};

/// A deserialized tree node.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// 0 for leaves, parents are children's level + 1.
    pub level: u8,
    /// The node's entries (≤ configured capacity; the codec enforces only
    /// the physical page bound).
    pub entries: Vec<Entry>,
}

impl Node {
    /// An empty node at `level`.
    #[must_use]
    pub fn new(level: u8) -> Self {
        Self {
            level,
            entries: Vec::new(),
        }
    }

    /// Whether this is a leaf node.
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Maximum entry count of one page: 50, one less than the 51 slots
    /// a lane holds. Every page the tree has ever written obeys this
    /// bound, so [`TreeConfig`](crate::TreeConfig) validation and the
    /// decoder both keep enforcing it; the last slot is slack.
    #[must_use]
    pub fn max_capacity() -> usize {
        SOA_SLOTS - 1
    }

    /// The tightest moving rectangle bounding every entry from
    /// `max(entry t_refs)` onward. `None` for an empty node.
    #[must_use]
    pub fn bounding_mbr(&self) -> Option<MovingRect> {
        let mut it = self.entries.iter();
        let first = it.next()?.mbr;
        Some(it.fold(first, |acc, e| acc.union_moving(&e.mbr)))
    }

    /// Like [`bounding_mbr`](Self::bounding_mbr) but rebased to `t` so
    /// parent entries produced at different times stay comparable.
    #[must_use]
    pub fn bounding_mbr_at(&self, t: Time) -> Option<MovingRect> {
        self.bounding_mbr()
            .map(|m| if m.t_ref < t { m.rebase(t) } else { m })
    }

    /// Serializes into a fresh page buffer in the v2 SoA layout.
    pub fn to_page(&self) -> StorageResult<PageBuf> {
        if self.entries.len() > Self::max_capacity() {
            return Err(StorageError::Corrupt(format!(
                "entry count {} exceeds physical capacity {}",
                self.entries.len(),
                Self::max_capacity()
            )));
        }
        let mut page = cij_storage::zeroed_page();
        page[0..2].copy_from_slice(&SOA_MAGIC.to_le_bytes());
        page[2] = SOA_VERSION;
        page[3] = self.level;
        let count = u16::try_from(self.entries.len())
            .map_err(|_| StorageError::Corrupt("entry count > u16".into()))?;
        page[4..6].copy_from_slice(&count.to_le_bytes());
        // Lane-major writes: one sequential pass per field.
        let mut off = SOA_HEADER_BYTES;
        let mut lane = |page: &mut PageBuf, f: &mut dyn FnMut(&Entry) -> u64| {
            for (i, e) in self.entries.iter().enumerate() {
                let at = off + i * 8;
                page[at..at + 8].copy_from_slice(&f(e).to_le_bytes());
            }
            off += SOA_LANE_BYTES;
        };
        lane(&mut page, &mut |e| e.mbr.lo[0].to_bits());
        lane(&mut page, &mut |e| e.mbr.lo[1].to_bits());
        lane(&mut page, &mut |e| e.mbr.hi[0].to_bits());
        lane(&mut page, &mut |e| e.mbr.hi[1].to_bits());
        lane(&mut page, &mut |e| e.mbr.vlo[0].to_bits());
        lane(&mut page, &mut |e| e.mbr.vlo[1].to_bits());
        lane(&mut page, &mut |e| e.mbr.vhi[0].to_bits());
        lane(&mut page, &mut |e| e.mbr.vhi[1].to_bits());
        lane(&mut page, &mut |e| e.mbr.t_ref.to_bits());
        lane(&mut page, &mut |e| match e.child {
            ChildRef::Object(oid) => oid.0,
            ChildRef::Page(pid) => u64::from(pid.0),
        });
        Ok(page)
    }

    /// Deserializes from a page buffer (see [`NodeView::parse`] for what
    /// is validated).
    pub fn from_page(page: &[u8; PAGE_SIZE]) -> StorageResult<Self> {
        Ok(NodeView::parse(page)?.to_node())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::ObjectId;
    use cij_geom::Rect;
    use cij_storage::PageId;

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
    fn roundtrip_leaf() {
        let node = sample_node(0, 17);
        let page = node.to_page().unwrap();
        let back = Node::from_page(&page).unwrap();
        assert_eq!(node, back);
    }

    #[test]
    fn roundtrip_internal() {
        let node = sample_node(3, 30);
        let page = node.to_page().unwrap();
        let back = Node::from_page(&page).unwrap();
        assert_eq!(node, back);
    }

    #[test]
    fn roundtrip_empty() {
        let node = Node::new(0);
        let back = Node::from_page(&node.to_page().unwrap()).unwrap();
        assert_eq!(back.entries.len(), 0);
        assert!(back.is_leaf());
    }

    #[test]
    fn physical_capacity_exceeds_table_i() {
        assert_eq!(Node::max_capacity(), 50);
    }

    #[test]
    fn garbage_page_is_rejected() {
        let mut page = cij_storage::zeroed_page();
        page[0] = 0xFF;
        page[1] = 0xFF;
        assert!(matches!(
            Node::from_page(&page),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn inverted_rect_rejected() {
        let node = sample_node(0, 1);
        let mut page = node.to_page().unwrap();
        // lo.x of entry 0 is the first element of the first v2 lane.
        let off = crate::view::SOA_HEADER_BYTES;
        page[off..off + 8].copy_from_slice(&1e9f64.to_le_bytes());
        assert!(matches!(
            Node::from_page(&page),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn overfull_node_refuses_to_serialize() {
        let node = sample_node(0, Node::max_capacity() + 1);
        assert!(matches!(node.to_page(), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn bounding_mbr_covers_entries() {
        let node = sample_node(0, 10);
        let mbr = node.bounding_mbr().unwrap();
        let t0 = mbr.t_ref;
        for t in [t0, t0 + 10.0, t0 + 60.0] {
            for e in &node.entries {
                assert!(mbr.at(t).contains_rect_eps(&e.mbr.at(t), 1e-9));
            }
        }
    }

    #[test]
    fn bounding_mbr_empty_is_none() {
        assert!(Node::new(0).bounding_mbr().is_none());
    }

    #[test]
    fn bounding_mbr_at_rebases_forward_only() {
        let node = sample_node(0, 3);
        let raw = node.bounding_mbr().unwrap();
        let later = node.bounding_mbr_at(raw.t_ref + 5.0).unwrap();
        assert_eq!(later.t_ref, raw.t_ref + 5.0);
        // Asking for an earlier reference must not rewind (bounds are only
        // valid forward in time).
        let earlier = node.bounding_mbr_at(raw.t_ref - 5.0).unwrap();
        assert_eq!(earlier.t_ref, raw.t_ref);
    }
}
