//! Allocation regression test for the MTB-tree's one mutation.
//!
//! A counting global allocator wraps the system allocator; once the
//! bucket trees' retained buffers are warm, a batch of one — an object
//! moving from the bucket of its last update to the bucket of `now` —
//! that neither splits a node, dissolves one nor opens or drops a bucket
//! allocates nothing: the list of buckets it touches is kept between
//! batches, as the trees keep theirs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::iter;
use std::sync::Arc;

use cij_core::MtbTree;
use cij_geom::{MovingRect, Rect};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::{ObjectId, TreeConfig};

/// Counts every allocation (alloc / realloc / alloc_zeroed) of the
/// calling thread. Deallocs are not counted — freeing retained buffers
/// is not a regression. Per thread, because the harness may run tests on
/// parallel threads.
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

/// Xorshift64: a fixed sequence that allocates nothing.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn object(rng: &mut Rng, now: f64) -> MovingRect {
    let (x, y) = (rng.unit() * 1000.0, rng.unit() * 1000.0);
    let v = [rng.unit() * 4.0 - 2.0, rng.unit() * 4.0 - 2.0];
    MovingRect::rigid(Rect::new([x, y], [x + 3.0, y + 3.0]), v, now)
}

#[test]
fn warm_mtb_batch_of_one_allocates_nothing() {
    let pool = BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default());
    // T_M = 60: buckets of 30 ticks.
    let mut mtb = MtbTree::new(pool.clone(), TreeConfig::default(), 60.0);
    let mut rng = Rng(0x0B0C_4E75);
    let mut live: Vec<(MovingRect, f64)> = Vec::new();
    let genesis: Vec<_> = (0..3_000u64)
        .map(|i| (ObjectId(i), object(&mut rng, 0.0), 0.0))
        .collect();
    mtb.apply_batch(iter::empty(), genesis.iter().copied(), 0.0)
        .unwrap();
    live.extend(genesis.iter().map(|&(_, mbr, at)| (mbr, at)));

    // Updates at 30 ≤ now < 60 move objects out of bucket 0 into bucket
    // 1, or within bucket 1 when they moved before.
    let mut now = 30.0;
    let mut checked = 0;
    for step in 0..4_000usize {
        if step % 200 == 0 {
            now += 1.0;
        }
        let k = (rng.unit() * live.len() as f64) as usize;
        let (old, at) = live[k];
        let new = object(&mut rng, now);
        let id = ObjectId(k as u64);
        let buckets = mtb.bucket_count();
        let pages = pool.stats().snapshot();
        let before = allocations();
        mtb.apply_batch(iter::once((id, old, at)), iter::once((id, new, now)), now)
            .unwrap();
        let allocated = allocations() - before;
        let pages = pool.stats().snapshot() - pages;
        live[k] = (new, now);
        // The first 2 000 batches warm the retained buffers up.
        let plain = pages.allocations == 0 && pages.frees == 0;
        if step >= 2_000 && plain && mtb.bucket_count() == buckets {
            assert_eq!(
                allocated, 0,
                "batch {step} (no split, no condense) allocated"
            );
            checked += 1;
        }
    }
    assert!(checked > 1_500, "only {checked} plain batches checked");
    assert_eq!(mtb.len(), 3_000);
}
