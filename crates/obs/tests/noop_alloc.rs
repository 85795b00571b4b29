//! Guard: the disabled observability path is allocation-free.
//!
//! A counting global allocator wraps the system allocator; the test
//! exercises every record-path operation on handles from a disabled
//! registry and asserts not a single heap allocation happened. This is
//! the "disabled path compiles to no-ops" acceptance gate — engines run
//! with `metrics: false` by default, and that mode must cost nothing on
//! the hot path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cij_obs::MetricsRegistry;

struct CountingAlloc;

thread_local! {
    // Per thread: the harness runs this file's tests in parallel, and a
    // process-wide counter charges each with the other's allocations.
    // `const` init, so reading it inside the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// Counting the system allocator's calls requires implementing the
// (unsafe) GlobalAlloc trait; the implementation only forwards.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn disabled_registry_record_path_never_allocates() {
    // Handle creation from a disabled registry is also allocation-free
    // (no cells, no map entries), so it is inside the measured window.
    let registry = MetricsRegistry::disabled();
    let before = allocations();

    let counter = registry.counter("hot.path.counter");
    let gauge = registry.gauge("hot.path.gauge");
    let histogram = registry.histogram("hot.path.histogram");
    for i in 0..10_000u64 {
        counter.inc();
        counter.add(i);
        gauge.set(i as i64);
        gauge.add(-1);
        histogram.record(i);
        let span = registry.span("hot.path.span");
        drop(span);
    }
    let snapshot = registry.snapshot();
    assert!(snapshot.is_empty());

    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled metrics path allocated {} times",
        after - before
    );
}

#[test]
fn enabled_registry_record_path_does_not_allocate_after_registration() {
    let registry = MetricsRegistry::new();
    let counter = registry.counter("hot.counter");
    let histogram = registry.histogram("hot.histogram");

    let before = allocations();
    for i in 0..10_000u64 {
        counter.inc();
        histogram.record(i);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "enabled record path allocated {} times",
        after - before
    );
}
