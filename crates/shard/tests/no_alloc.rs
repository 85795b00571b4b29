//! Allocation regression test for the partitioned pair's one mutation.
//!
//! A counting global allocator wraps the system allocator; once the
//! retained buffers are warm, retiring an object and restoring it at its
//! registration — two batches of one, the engine's `remove_object` and
//! `restore_object` — allocate nothing when no node splits or dissolves:
//! the partition of each change is routed through buffers the pair keeps
//! between calls, as its partitions and their trees keep theirs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::iter;
use std::sync::Arc;

use cij_core::{EngineConfig, IndexPair, MtbPair, Registration};
use cij_geom::{MovingRect, Rect};
use cij_obs::MetricsRegistry;
use cij_shard::{PartitionedConfig, PartitionedPair, VelocityBandPolicy};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::ObjectId;
use cij_workload::SetTag;

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

/// No changes, for the side of a batch that has none.
fn none() -> iter::Empty<(ObjectId, Registration)> {
    iter::empty()
}

#[test]
fn warm_partitioned_remove_and_restore_allocate_nothing() {
    let pool = BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default());
    let config = PartitionedConfig {
        inner: EngineConfig::default(),
        policy: Arc::new(VelocityBandPolicy::new(4, 3.0)),
    };
    let mut pair = PartitionedPair::<MtbPair>::empty(&pool, &config, &MetricsRegistry::disabled());
    let mut rng = Rng(0x9A27_1770);
    let live: Vec<_> = (0..3_000u64)
        .map(|i| {
            let set = if i % 2 == 0 { SetTag::A } else { SetTag::B };
            let registration = Registration {
                set,
                mbr: object(&mut rng, 0.0),
                registered_at: 0.0,
            };
            (ObjectId(i), registration)
        })
        .collect();
    pair.refile(none(), live.iter().copied(), 0.0).unwrap();

    let now = 5.0;
    let mut checked = 0;
    for step in 0..4_000usize {
        let filed = live[(rng.unit() * live.len() as f64) as usize];
        let pages = pool.stats().snapshot();
        let before = allocations();
        pair.refile(iter::once(filed), none(), now).unwrap();
        pair.refile(none(), iter::once(filed), now).unwrap();
        let allocated = allocations() - before;
        let pages = pool.stats().snapshot() - pages;
        // The first 2 000 round trips warm the retained buffers up.
        if step >= 2_000 && pages.allocations == 0 && pages.frees == 0 {
            assert_eq!(
                allocated, 0,
                "round trip {step} (no split, no condense) allocated"
            );
            checked += 1;
        }
    }
    assert!(checked > 1_500, "only {checked} plain round trips checked");
    let indexed: usize = (pair.partitions().iter())
        .map(|p| p.mtb_a().len() + p.mtb_b().len())
        .sum();
    assert_eq!(indexed, live.len());
}
