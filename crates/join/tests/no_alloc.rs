//! Allocation regression test for the join hot path.
//!
//! A counting global allocator wraps the system allocator; after a
//! warm-up call, a steady-state [`improved_join_into`] allocates nothing:
//! every node, internal or leaf, goes straight into the lanes of the
//! reused [`JoinScratch`] frames, every other traversal temporary lives
//! in those frames too, and the output vector retains its capacity.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cij_geom::{MovingRect, Rect};
use cij_join::{
    improved_join, improved_join_into, probe_batch, techniques, JoinCounters, JoinScratch,
};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::{ObjectId, TprTree, TreeConfig};

/// Counts every allocation (alloc / realloc / alloc_zeroed) of the
/// calling thread. Deallocs are not counted — freeing retained buffers
/// is not a regression. Per thread, because the harness runs the tests
/// of this file on parallel threads: a process-wide counter charges one
/// test with another's set-up.
struct CountingAlloc;

thread_local! {
    // `const` init: no lazy registration, so reading it inside the
    // allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Two trees of height 2 (a root over leaves): a join reads an internal
/// node and many leaves on each side.
fn build_trees(n: u64) -> (TprTree, TprTree) {
    let pool = BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default());
    let mut ta = TprTree::new(pool.clone(), TreeConfig::default());
    let mut tb = TprTree::new(pool, TreeConfig::default());
    for i in 0..n {
        let x = (i as f64 * 13.0) % 700.0;
        let y = (i as f64 * 29.0) % 700.0;
        ta.insert(
            ObjectId(i),
            MovingRect::rigid(Rect::new([x, y], [x + 2.0, y + 2.0]), [1.0, -0.5], 0.0),
            0.0,
        )
        .expect("insert a");
        tb.insert(
            ObjectId(100_000 + i),
            MovingRect::rigid(
                Rect::new([x + 4.0, y + 1.0], [x + 6.0, y + 3.0]),
                [-1.0, 0.5],
                0.0,
            ),
            0.0,
        )
        .expect("insert b");
    }
    assert_eq!((ta.height(), tb.height()), (2, 2));
    (ta, tb)
}

#[test]
fn warm_improved_join_allocates_nothing() {
    let (ta, tb) = build_trees(500);
    let mut scratch = JoinScratch::new();
    let mut out = Vec::new();

    // Warm-up: grows the scratch frames and the output vector to their
    // steady-state sizes.
    let warm = improved_join_into(&ta, &tb, 0.0, 60.0, techniques::ALL, &mut scratch, &mut out)
        .expect("warm-up join");
    assert!(!out.is_empty(), "workload must produce pairs");
    let warm_pairs = out.clone();

    for round in 0..3 {
        let before = allocations();
        let counters =
            improved_join_into(&ta, &tb, 0.0, 60.0, techniques::ALL, &mut scratch, &mut out)
                .expect("steady-state join");
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "steady-state improved_join_into allocated (round {round})"
        );
        assert_eq!(counters, warm, "counters changed between identical runs");
        assert_eq!(out, warm_pairs, "pairs changed between identical runs");
    }
}

#[test]
fn every_technique_combination_allocates_nothing_when_warm() {
    let (ta, tb) = build_trees(300);
    for tech in [
        techniques::NONE,
        techniques::IC,
        techniques::PS,
        techniques::DS_PS,
        techniques::IC_PS,
        techniques::ALL,
    ] {
        let mut scratch = JoinScratch::new();
        let mut out = Vec::new();
        improved_join_into(&ta, &tb, 0.0, 60.0, tech, &mut scratch, &mut out).expect("warm-up");
        let before = allocations();
        improved_join_into(&ta, &tb, 0.0, 60.0, tech, &mut scratch, &mut out).expect("steady");
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "technique set {tech:?} allocated when warm"
        );
    }
}

/// The batched maintenance probe reads every node zero-copy into the
/// scratch frames: once those have grown, a probe — every node visit a
/// real page read — allocates nothing, however many nodes it visits.
#[test]
fn warm_batched_probe_allocates_nothing() {
    let pool = BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default());
    let mut tree = TprTree::new(pool, TreeConfig::default());
    let mut probes = Vec::new();
    for i in 0..2_000u64 {
        let x = (i as f64 * 13.0) % 700.0;
        let y = (i as f64 * 29.0) % 700.0;
        let m = MovingRect::rigid(Rect::new([x, y], [x + 2.0, y + 2.0]), [1.0, -0.5], 0.0);
        tree.insert(ObjectId(i), m, 0.0).expect("insert");
        if i % 40 == 0 {
            let shifted = Rect::new([x + 3.0, y], [x + 5.0, y + 2.0]);
            probes.push(MovingRect::rigid(shifted, [-1.0, 0.5], 0.0));
        }
    }
    let mut scratch = JoinScratch::new();
    let mut hits = Vec::new();
    let mut warm = JoinCounters::new();
    probe_batch(
        &tree,
        &probes,
        0.0,
        60.0,
        &mut scratch,
        &mut warm,
        &mut hits,
    )
    .expect("warm-up");
    assert!(warm.node_pairs > 50, "probe must visit many nodes");
    assert!(!hits.is_empty(), "workload must produce hits");

    hits.clear();
    let mut counters = JoinCounters::new();
    let before = allocations();
    probe_batch(
        &tree,
        &probes,
        0.0,
        60.0,
        &mut scratch,
        &mut counters,
        &mut hits,
    )
    .expect("steady");
    let after = allocations();
    assert_eq!(after - before, 0, "warm probe_batch allocated");
    assert_eq!(counters, warm, "counters changed between identical runs");
}

#[test]
fn scratch_entry_point_matches_plain_entry_point() {
    let (ta, tb) = build_trees(400);
    let (pairs, counters) = improved_join(&ta, &tb, 0.0, 60.0, techniques::ALL).expect("plain");
    let mut scratch = JoinScratch::new();
    let mut out = Vec::new();
    let counters_into =
        improved_join_into(&ta, &tb, 0.0, 60.0, techniques::ALL, &mut scratch, &mut out)
            .expect("into");
    assert_eq!(pairs, out);
    assert_eq!(counters, counters_into);
}

/// Pins `TprTree::find_leaf`: a delete whose search backtracks through
/// overlapping subtrees decodes each visited page once (one allocation
/// per logical read) and never copies a node again per candidate child.
/// The seed cloned the internal node for every child it tried — 2 986
/// allocations on this workload against 1 668 now, for 1 418 reads.
#[test]
fn delete_in_overlapping_region_allocates_once_per_page_read() {
    let pool = BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default());
    let mut tree = TprTree::new(pool.clone(), TreeConfig::default());
    // 1 500 static 20×20 squares on a 40×40 patch: every subtree
    // overlaps every other, so the search tries many children.
    let objs: Vec<(ObjectId, MovingRect)> = (0..1_500u64)
        .map(|i| {
            let (x, y) = ((i as f64 * 7.0) % 40.0, (i as f64 * 3.0) % 40.0);
            let rect = Rect::new([x, y], [x + 20.0, y + 20.0]);
            (ObjectId(i), MovingRect::stationary(rect, 0.0))
        })
        .collect();
    for &(id, m) in &objs {
        tree.insert(id, m, 0.0).expect("insert");
    }
    let io_before = pool.stats().snapshot();
    let before = allocations();
    for (id, m) in objs.iter().step_by(30) {
        tree.delete(*id, m, 0.0).expect("delete");
    }
    let allocs = allocations() - before;
    let io = pool.stats().snapshot();
    let reads = io.logical_reads - io_before.logical_reads;
    let writes = io.logical_writes - io_before.logical_writes;
    assert!(reads > 20 * 50, "search must backtrack ({reads} reads)");
    // One decoded node per read; the write-back side (page images, path
    // and orphan vectors) stays within two allocations per page write.
    assert!(
        allocs <= reads + 2 * writes,
        "{allocs} allocations for {reads} reads and {writes} writes"
    );
}
