//! Property tests: arbitrary operation sequences keep the TPR-tree
//! equivalent to a shadow map — structure valid, queries exact.

use std::collections::HashMap;
use std::sync::Arc;

use cij_geom::{MovingRect, Rect};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore, PageId, StorageError, PAGE_SIZE};
use cij_tpr::{
    ChildRef, Entry, EntryLanes, Node, NodeView, ObjectId, TprTree, TreeConfig, SOA_MAGIC,
    SOA_VERSION,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert {
        x: f64,
        y: f64,
        side: f64,
        vx: f64,
        vy: f64,
    },
    /// Update the `i`-th live object (modulo population).
    Update {
        pick: usize,
        x: f64,
        y: f64,
        vx: f64,
        vy: f64,
    },
    /// Delete the `i`-th live object (modulo population).
    Delete { pick: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0.0..990.0f64, 0.0..990.0f64, 0.1..8.0f64, -5.0..5.0f64, -5.0..5.0f64)
            .prop_map(|(x, y, side, vx, vy)| Op::Insert { x, y, side, vx, vy }),
        2 => (any::<usize>(), 0.0..990.0f64, 0.0..990.0f64, -5.0..5.0f64, -5.0..5.0f64)
            .prop_map(|(pick, x, y, vx, vy)| Op::Update { pick, x, y, vx, vy }),
        1 => any::<usize>().prop_map(|pick| Op::Delete { pick }),
    ]
}

fn new_tree(capacity: usize) -> TprTree {
    let pool = BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(128),
    );
    TprTree::new(
        pool,
        TreeConfig {
            capacity,
            ..TreeConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After any op sequence the tree validates, matches the shadow map,
    /// and answers a range query exactly.
    #[test]
    fn random_ops_preserve_equivalence(
        capacity in prop_oneof![Just(4usize), Just(8), Just(30)],
        ops in proptest::collection::vec(arb_op(), 1..150),
        probe in (0.0..900.0f64, 0.0..900.0f64, 0.0..70.0f64),
    ) {
        let mut tree = new_tree(capacity);
        let mut shadow: HashMap<ObjectId, MovingRect> = HashMap::new();
        let mut next_id = 0u64;
        let mut live: Vec<ObjectId> = Vec::new();
        let mut now = 0.0;

        for (step, op) in ops.iter().enumerate() {
            now = step as f64 * 0.5;
            match op {
                Op::Insert { x, y, side, vx, vy } => {
                    let oid = ObjectId(next_id);
                    next_id += 1;
                    let mbr = MovingRect::rigid(
                        Rect::new([*x, *y], [*x + *side, *y + *side]),
                        [*vx, *vy],
                        now,
                    );
                    tree.insert(oid, mbr, now).unwrap();
                    shadow.insert(oid, mbr);
                    live.push(oid);
                }
                Op::Update { pick, x, y, vx, vy } => {
                    if live.is_empty() { continue; }
                    let oid = live[pick % live.len()];
                    let old = shadow[&oid];
                    let mbr = MovingRect::rigid(
                        Rect::new([*x, *y], [*x + 1.0, *y + 1.0]),
                        [*vx, *vy],
                        now,
                    );
                    tree.update(oid, &old, mbr, now).unwrap();
                    shadow.insert(oid, mbr);
                }
                Op::Delete { pick } => {
                    if live.is_empty() { continue; }
                    let idx = pick % live.len();
                    let oid = live.swap_remove(idx);
                    let old = shadow.remove(&oid).unwrap();
                    tree.delete(oid, &old, now).unwrap();
                }
            }
        }

        prop_assert_eq!(tree.len(), shadow.len());
        tree.validate(now).unwrap();

        // Range query at a future instant matches brute force.
        let (px, py, t_off) = probe;
        let w = Rect::new([px, py], [px + 120.0, py + 120.0]);
        let t = now + t_off;
        let mut got = tree.range_at(&w, t).unwrap();
        let mut expect: Vec<ObjectId> = shadow
            .iter()
            .filter(|(_, m)| m.at(t).intersects(&w))
            .map(|(o, _)| *o)
            .collect();
        got.sort();
        expect.sort();
        prop_assert_eq!(got, expect);
    }
}

// ----------------------------------------------------------------------
// Page-format properties: the v2 SoA layout and the zero-copy view must
// describe the same node — bit for bit, even through NaN and infinite
// velocities (compared via `to_bits`, since `NaN != NaN` under
// `PartialEq`) — and the decoder must answer hostile bytes with a typed
// error, never a panic.
// ----------------------------------------------------------------------

/// A velocity component: usually finite, sometimes `NaN` or `±∞`.
fn arb_velocity() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => -50.0..50.0f64,
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
    ]
}

/// Raw entry material: a moving rectangle with finite, ordered spatial
/// bounds (`from_page` rejects inverted rectangles, and a `NaN` bound
/// *is* inverted under `!(lo <= hi)`) — velocities and only velocities
/// carry the special values — plus child-id material for either kind.
fn arb_raw_entry() -> impl Strategy<Value = (MovingRect, u32, u64)> {
    (
        (-1e6..1e6f64, -1e6..1e6f64),
        (0.0..1e3f64, 0.0..1e3f64),
        (arb_velocity(), arb_velocity()),
        (arb_velocity(), arb_velocity()),
        -1e6..1e6f64,
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(
            |((x, y), (w, h), (vlx, vly), (vhx, vhy), t_ref, page, oid)| {
                let mbr = MovingRect {
                    lo: [x, y],
                    hi: [x + w, y + h],
                    vlo: [vlx, vly],
                    vhi: [vhx, vhy],
                    t_ref,
                };
                (mbr, page, oid)
            },
        )
}

fn arb_node() -> impl Strategy<Value = Node> {
    (
        0u8..3,
        proptest::collection::vec(arb_raw_entry(), 0..Node::max_capacity() + 1),
    )
        .prop_map(|(level, raw)| {
            let mut node = Node::new(level);
            node.entries = raw
                .into_iter()
                .map(|(mbr, page, oid)| Entry {
                    mbr,
                    child: if level == 0 {
                        ChildRef::Object(ObjectId(oid))
                    } else {
                        ChildRef::Page(PageId(page))
                    },
                })
                .collect();
            node
        })
}

/// Field-by-field bit equality (velocities may be NaN).
fn assert_entries_bit_equal(a: &Node, b: &Node) {
    prop_assert_eq!(a.level, b.level);
    prop_assert_eq!(a.entries.len(), b.entries.len());
    for (ea, eb) in a.entries.iter().zip(&b.entries) {
        for d in 0..2 {
            prop_assert_eq!(ea.mbr.lo[d].to_bits(), eb.mbr.lo[d].to_bits());
            prop_assert_eq!(ea.mbr.hi[d].to_bits(), eb.mbr.hi[d].to_bits());
            prop_assert_eq!(ea.mbr.vlo[d].to_bits(), eb.mbr.vlo[d].to_bits());
            prop_assert_eq!(ea.mbr.vhi[d].to_bits(), eb.mbr.vhi[d].to_bits());
        }
        prop_assert_eq!(ea.mbr.t_ref.to_bits(), eb.mbr.t_ref.to_bits());
        prop_assert_eq!(ea.child, eb.child);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any node decodes bit-identically from its page — including NaN /
    /// infinite velocities.
    #[test]
    fn page_roundtrip_bit_identical(node in arb_node()) {
        let page = node.to_page().unwrap();
        assert_entries_bit_equal(&node, &Node::from_page(&page).unwrap());
    }

    /// Every `NodeView` accessor agrees bit-for-bit with the decoded
    /// node: the zero-copy read path and the materializing path are the
    /// same function of the page bytes.
    #[test]
    fn view_accessors_agree_with_decoded_node(node in arb_node()) {
        let page = node.to_page().unwrap();
        let view = NodeView::parse(&page).unwrap();
        let decoded = Node::from_page(&page).unwrap();

        prop_assert_eq!(view.level(), decoded.level);
        prop_assert_eq!(view.len(), decoded.entries.len());
        for (i, e) in decoded.entries.iter().enumerate() {
            for d in 0..2 {
                prop_assert_eq!(view.lo(d, i).to_bits(), e.mbr.lo[d].to_bits());
                prop_assert_eq!(view.hi(d, i).to_bits(), e.mbr.hi[d].to_bits());
                prop_assert_eq!(view.vlo(d, i).to_bits(), e.mbr.vlo[d].to_bits());
                prop_assert_eq!(view.vhi(d, i).to_bits(), e.mbr.vhi[d].to_bits());
            }
            prop_assert_eq!(view.t_ref(i).to_bits(), e.mbr.t_ref.to_bits());
            prop_assert_eq!(view.child(i), e.child);
            let vm = view.mbr(i);
            prop_assert_eq!(vm.t_ref.to_bits(), e.mbr.t_ref.to_bits());
            for d in 0..2 {
                prop_assert_eq!(vm.lo[d].to_bits(), e.mbr.lo[d].to_bits());
                prop_assert_eq!(vm.hi[d].to_bits(), e.mbr.hi[d].to_bits());
            }
        }
        assert_entries_bit_equal(&view.to_node(), &decoded);
    }

    /// Arbitrary 4 KiB buffers: a typed `Corrupt` error or a view that
    /// can be read end to end.
    #[test]
    fn parse_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), PAGE_SIZE..PAGE_SIZE + 1),
        // Half the cases get a valid magic + version so the per-entry
        // checks are reached, not just the magic test.
        plausible_header in any::<bool>(),
        level in 0u8..3,
        len in 0u16..64,
    ) {
        let mut page = cij_storage::zeroed_page();
        page.copy_from_slice(&bytes);
        if plausible_header {
            page[0..2].copy_from_slice(&SOA_MAGIC.to_le_bytes());
            page[2] = SOA_VERSION;
            page[3] = level;
            page[4..6].copy_from_slice(&len.to_le_bytes());
        }
        exercise_parse(&page);
    }

    /// Valid v2 pages with 1–8 random byte flips: same contract.
    #[test]
    fn parse_survives_byte_flips(
        node in arb_node(),
        flips in proptest::collection::vec((0..PAGE_SIZE, 1u8..=255), 1..9),
    ) {
        let mut page = node.to_page().unwrap();
        for (at, xor) in flips {
            page[at] ^= xor;
        }
        exercise_parse(&page);
    }
}

/// `NodeView::parse` on hostile bytes: `Err(Corrupt)` or a view on which
/// every accessor, `to_node` and `EntryLanes::fill_from_view` run
/// without panicking and agree on the entry count.
fn exercise_parse(page: &[u8; PAGE_SIZE]) {
    match NodeView::parse(page) {
        Err(StorageError::Corrupt(_)) => {}
        Err(other) => panic!("expected Corrupt, got {other:?}"),
        Ok(view) => {
            let _ = view.level();
            for i in 0..view.len() {
                for d in 0..2 {
                    let _ = (view.lo(d, i), view.hi(d, i));
                }
                let _ = view.child_raw(i);
            }
            let node = view.to_node();
            let mut lanes = EntryLanes::new();
            lanes.fill_from_view(&view);
            prop_assert_eq!(node.entries.len(), view.len());
            prop_assert_eq!(lanes.len(), view.len());
        }
    }
}

/// A page carrying the retired v1 magic is a typed error naming v1.
#[test]
fn v1_magic_yields_typed_error_naming_v1() {
    let mut page = cij_storage::zeroed_page();
    page[0..2].copy_from_slice(&0x5452u16.to_le_bytes());
    match NodeView::parse(&page) {
        Err(StorageError::Corrupt(msg)) => assert!(msg.contains("v1"), "{msg}"),
        other => panic!("expected Corrupt naming v1, got {other:?}"),
    }
}
