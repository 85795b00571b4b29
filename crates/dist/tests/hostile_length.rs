//! A count read from a peer or a disk must not size an allocation. The
//! two payloads here are tiny — a 31-byte `Step`, a 15-byte journal
//! `Batch` — and each claims 2³² − 1 elements; decoding them must fail on
//! the count itself, before anything is reserved for it. A recording
//! global allocator holds the decoders to that: it notes the largest
//! single request of the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cij_dist::Request;
use cij_storage::frame::write_frame;
use cij_stream::{StreamConfig, StreamError, StreamService, WireError};

mod common;
use common::unhex;

struct RecordingAlloc;

thread_local! {
    // `const` init: reading it inside the allocator never allocates.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    LARGEST.with(|l| l.set(l.get().max(size)));
}

unsafe impl GlobalAlloc for RecordingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: RecordingAlloc = RecordingAlloc;

/// Runs `f` and returns the largest single allocation it requested.
fn largest_request<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// No decoder has any business asking for more than this at once for a
/// payload of a few bytes (a pool page is 4 KiB).
const MODEST: usize = 1 << 20;

#[test]
fn a_step_claiming_four_billion_ops_is_refused_before_allocating() {
    // header, tag 0x14, seq 1, now 1.0, ack_through 0, count 0xFFFFFFFF.
    let payload = unhex("c10114 0100000000000000 000000000000f03f 0000000000000000 ffffffff");
    assert_eq!(payload.len(), 31);
    let (decoded, largest) = largest_request(|| Request::decode(&payload));
    match decoded {
        Err(WireError::Corrupt(msg)) => assert!(msg.contains("4294967295"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert!(largest < MODEST, "decode asked for {largest} bytes at once");
}

#[test]
fn a_journal_batch_claiming_four_billion_updates_is_refused_before_allocating() {
    // The pinned stream journal's genesis, then: header, tag 0x02, at 1.0,
    // count 0xFFFFFFFF.
    let genesis = unhex(
        "c1010100000000000000000100000001000000000000000000000000000000000000000000f03f\
         000000000000000000000000000000000000000000000000000000000000f03f00000000000000\
         000000000000000000000000000000000000000000",
    );
    let batch = unhex("c10102 000000000000f03f ffffffff");
    assert_eq!(batch.len(), 15);
    let path = std::env::temp_dir().join(format!("cij-hostile-len-{}.wal", std::process::id()));
    let mut image = Vec::new();
    write_frame(&mut image, &genesis).expect("frame");
    write_frame(&mut image, &batch).expect("frame");
    std::fs::write(&path, &image).expect("write journal");

    let config = StreamConfig::builder().wal_path(path.clone()).build();
    let factory = |cfg: &cij_core::EngineConfig,
                   a: &[cij_workload::MovingObject],
                   b: &[cij_workload::MovingObject],
                   start: f64|
     -> cij_tpr::TprResult<Box<dyn cij_core::ContinuousJoinEngine>> {
        let pool = cij_storage::BufferPool::new(
            std::sync::Arc::new(cij_storage::InMemoryStore::new()),
            cij_storage::BufferPoolConfig::with_capacity(64),
        );
        Ok(Box::new(cij_core::MtbEngine::new(pool, *cfg, a, b, start)?))
    };
    let (recovered, largest) = largest_request(|| StreamService::recover(config, &factory));
    let _ = std::fs::remove_file(&path);
    match recovered {
        Err(StreamError::CorruptJournal(msg)) => assert!(msg.contains("4294967295"), "{msg}"),
        Err(other) => panic!("expected CorruptJournal, got {other:?}"),
        Ok(_) => panic!("a journal with a hostile batch recovered"),
    }
    assert!(
        largest < MODEST,
        "recovery asked for {largest} bytes at once"
    );
}
