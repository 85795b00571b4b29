//! Allocation regression test for tree mutation.
//!
//! A counting global allocator wraps the system allocator; once the
//! tree's retained buffers are warm, an update (delete + insert) that
//! neither splits a node nor dissolves one allocates nothing: every node
//! it reads is decoded into a retained entry buffer, its path lives in a
//! retained vector, and every node it writes is encoded straight into
//! the latched pool frame. The same holds for a batched tick of many
//! deletes and inserts: its victims, routes and held nodes live in
//! retained buffers too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cij_geom::{MovingRect, Rect};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::{ObjectId, TprTree, TreeConfig};

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
fn warm_update_without_split_or_condense_allocates_nothing() {
    // The paper's 50-page pool under a tree of some 150 leaves: updates
    // miss, evict dirty pages and write into frames they did not read.
    let pool = BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default());
    let mut tree = TprTree::new(pool.clone(), TreeConfig::default());
    let mut rng = Rng(0x05EE_D0FA_110C);
    let mut live = Vec::new();
    for i in 0..3_000u64 {
        let mbr = object(&mut rng, 0.0);
        tree.insert(ObjectId(i), mbr, 0.0).unwrap();
        live.push(mbr);
    }
    assert_eq!(tree.height(), 3);

    let mut now = 0.0;
    let mut checked = 0;
    for step in 0..4_000usize {
        if step % 100 == 0 {
            now += 1.0;
        }
        let k = (rng.unit() * live.len() as f64) as usize;
        let new = object(&mut rng, now);
        let pages = pool.stats().snapshot();
        let before = allocations();
        tree.update(ObjectId(k as u64), &live[k], new, now).unwrap();
        let allocated = allocations() - before;
        let pages = pool.stats().snapshot() - pages;
        live[k] = new;
        // The first 2 000 updates warm the retained buffers up.
        if step >= 2_000 && pages.allocations == 0 && pages.frees == 0 {
            assert_eq!(
                allocated, 0,
                "update {step} (no split, no condense) allocated"
            );
            checked += 1;
        }
    }
    assert!(checked > 1_500, "only {checked} plain updates checked");
    tree.validate(now).unwrap();

    // Batched ticks: 40 deletes and 40 inserts in one `apply_batch`,
    // their inputs laid out before the count starts.
    const BATCH: usize = 40;
    let mut news = [object(&mut rng, now); BATCH];
    let mut checked = 0;
    for tick in 0..1_000usize {
        now += 1.0;
        // 61 is prime to the population, so the picks are distinct.
        let first = (rng.unit() * live.len() as f64) as usize;
        let picks: [usize; BATCH] = std::array::from_fn(|i| (first + 61 * i) % live.len());
        for new in &mut news {
            *new = object(&mut rng, now);
        }
        let pages = pool.stats().snapshot();
        let before = allocations();
        let deletes = picks.iter().map(|&k| (ObjectId(k as u64), live[k]));
        let inserts = picks
            .iter()
            .zip(&news)
            .map(|(&k, &m)| (ObjectId(k as u64), m));
        tree.apply_batch(deletes, inserts, now).unwrap();
        let allocated = allocations() - before;
        let pages = pool.stats().snapshot() - pages;
        for (&k, &new) in picks.iter().zip(&news) {
            live[k] = new;
        }
        // The first 400 ticks warm the batch buffers up to the most
        // nodes, victims and routes a tick holds at once.
        if tick >= 400 && pages.allocations == 0 && pages.frees == 0 {
            assert_eq!(
                allocated, 0,
                "tick {tick} (no split, no condense) allocated"
            );
            checked += 1;
        }
    }
    assert!(checked > 80, "only {checked} plain batched ticks checked");
    tree.validate(now).unwrap();
}
