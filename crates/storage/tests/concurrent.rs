//! Concurrency stress for the buffer pool: 8 threads × 10 000 mixed
//! read/write operations over 64 pages, twice. Behind an **8-frame**
//! pool nearly every access evicts a page some other thread is about to
//! use — readers, writers and evictors overlap on the same frames all the
//! time. Behind a **40-frame** pool most accesses are lock-free hits that
//! race the evictions in between, so frames are retargeted under readers
//! that have already looked them up.
//!
//! Every page image carries a version (its total write count), one
//! write-count slot per thread, and a body filled from the version, so a
//! copy torn anywhere in the 4 KiB is visible. Checked:
//!
//! 1. **Torn-page freedom** — every image a reader sees, latched or not,
//!    is some complete previously written image: slots sum to the version
//!    and the whole body matches it.
//! 2. **No lost writes** — writers do a read-modify-write under a
//!    test-level page latch (the pool, like a real buffer manager,
//!    serialises only frame access). At the end each slot equals the
//!    thread's own tally — any write dropped by an eviction/reload race
//!    breaks the count — and after `flush` the *store* holds those same
//!    images.
//! 3. **Accounting exactness** — residency never exceeds the frame
//!    budget; every read is exactly one hit or one miss as the threads
//!    themselves observed them (`logical = hits + misses`, `misses` =
//!    physical reads), and logical writes equal the writes issued.

use std::cell::Cell;
use std::sync::{Arc, Barrier};
use std::thread;

use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore, PageId, PageStore, PAGE_SIZE};
use parking_lot::Mutex;

mod common;
use common::SpyStore;

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 10_000;
const PAGES: usize = 64;

/// Word layout of a page image: `THREADS` per-thread write counts, the
/// version, then the body.
const VERSION: usize = THREADS;
const BODY: usize = THREADS + 1;
const WORDS: usize = PAGE_SIZE / 8;

fn word(buf: &[u8; PAGE_SIZE], i: usize) -> u64 {
    let o = i * 8;
    u64::from_le_bytes(buf[o..o + 8].try_into().expect("word within page"))
}

fn set_word(buf: &mut [u8; PAGE_SIZE], i: usize, v: u64) {
    let o = i * 8;
    buf[o..o + 8].copy_from_slice(&v.to_le_bytes());
}

fn body_word(version: u64, i: usize) -> u64 {
    version.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64
}

/// Stamps `version` and the body derived from it onto an image whose
/// per-thread slots are already set.
fn seal(buf: &mut [u8; PAGE_SIZE], version: u64) {
    set_word(buf, VERSION, version);
    for i in BODY..WORDS {
        set_word(buf, i, body_word(version, i));
    }
}

/// Panics unless `buf` is a complete image some writer sealed.
fn assert_untorn(buf: &[u8; PAGE_SIZE], who: &str) {
    let version = word(buf, VERSION);
    let sum: u64 = (0..THREADS).map(|t| word(buf, t)).sum();
    assert_eq!(version, sum, "torn header seen by {who}");
    for i in BODY..WORDS {
        assert_eq!(
            word(buf, i),
            body_word(version, i),
            "torn body seen by {who}"
        );
    }
}

thread_local! {
    /// Set when the store is read on this thread, i.e. the pool read in
    /// progress is a miss.
    static FAULTED: Cell<bool> = const { Cell::new(false) };
}

/// Deterministic per-thread operation stream (xorshift64*; the pool's
/// behaviour under test must not depend on the mix, only the checks do).
struct OpRng(u64);

impl OpRng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// What one thread did and saw.
struct Tally {
    hits: u64,
    misses: u64,
    writes: u64,
    /// Own writes per page.
    own: Vec<u64>,
}

#[test]
fn thrashing_pool_keeps_pages_whole_writes_durable_and_counters_exact() {
    let (hits, misses) = stress(8);
    assert!(misses > 4 * hits, "the pool was meant to thrash");
}

#[test]
fn hits_racing_evictions_keep_pages_whole_writes_durable_and_counters_exact() {
    let (hits, misses) = stress(40);
    assert!(
        hits > misses && misses > (THREADS * OPS_PER_THREAD / 8) as u64,
        "meant to mix hits and evictions ({hits} hits, {misses} misses)"
    );
}

/// Runs the workload behind `capacity` frames; returns `(hits, misses)`.
fn stress(capacity: usize) -> (u64, u64) {
    let store = Arc::new(SpyStore {
        inner: InMemoryStore::new(),
        spy: |is_write: bool, _: PageId| {
            if !is_write {
                FAULTED.with(|f| f.set(true));
            }
        },
    });
    let pool = BufferPool::new(store.clone(), BufferPoolConfig::with_capacity(capacity));
    let pages: Vec<PageId> = (0..PAGES).map(|_| pool.allocate()).collect();
    let mut blank = [0u8; PAGE_SIZE];
    seal(&mut blank, 0);
    for &id in &pages {
        pool.write(id, &blank).expect("init page");
    }
    let latches: Vec<Mutex<()>> = (0..PAGES).map(|_| Mutex::new(())).collect();
    let before = pool.stats().snapshot();
    // All threads start together, so they contend from the first op.
    let start = Barrier::new(THREADS);

    let tallies: Vec<Tally> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (pool, pages, latches, start) = (&pool, &pages, &latches, &start);
                s.spawn(move || {
                    let who = format!("thread {t}");
                    let mut rng = OpRng(0x9E37_79B9 + t as u64);
                    let mut tally = Tally {
                        hits: 0,
                        misses: 0,
                        writes: 0,
                        own: vec![0; PAGES],
                    };
                    // One pool read, classified by what this thread saw.
                    let read = |p: usize, tally: &mut Tally| {
                        FAULTED.with(|f| f.set(false));
                        let image = pool.read(pages[p], |data| *data).expect("read");
                        if FAULTED.with(Cell::get) {
                            tally.misses += 1;
                        } else {
                            tally.hits += 1;
                        }
                        assert_untorn(&image, &who);
                        image
                    };
                    start.wait();
                    for op in 0..OPS_PER_THREAD {
                        let p = (rng.next() % PAGES as u64) as usize;
                        if rng.next().is_multiple_of(4) {
                            // Write op: latched read-modify-write.
                            let _latch = latches[p].lock();
                            let mut image = read(p, &mut tally);
                            let mine = word(&image, t) + 1;
                            set_word(&mut image, t, mine);
                            let version = word(&image, VERSION) + 1;
                            seal(&mut image, version);
                            pool.write(pages[p], &image).expect("write back");
                            tally.own[p] += 1;
                            tally.writes += 1;
                        } else {
                            // Read op: unlatched snapshot; must be whole.
                            read(p, &mut tally);
                        }
                        if op % 1_000 == 0 {
                            assert!(pool.resident() <= capacity, "over budget mid-run");
                        }
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    // Accounting: every read was one hit or one miss, every miss one
    // physical read; writes as issued.
    let delta = pool.stats().snapshot().delta_since(&before);
    let hits: u64 = tallies.iter().map(|t| t.hits).sum();
    let misses: u64 = tallies.iter().map(|t| t.misses).sum();
    let writes: u64 = tallies.iter().map(|t| t.writes).sum();
    assert_eq!(
        delta.logical_reads,
        hits + misses,
        "logical = hits + misses"
    );
    assert_eq!(delta.physical_reads, misses, "one physical read per miss");
    assert_eq!(delta.logical_writes, writes, "logical write accounting");
    assert!(pool.resident() <= capacity, "over budget at rest");

    // No lost writes: after a flush the store itself holds, for every
    // page, exactly the threads' own tallies — and so does the pool.
    pool.flush().expect("flush");
    for (p, &id) in pages.iter().enumerate() {
        let mut on_disk = [0u8; PAGE_SIZE];
        store.read(id, &mut on_disk).expect("raw read");
        let buffered = pool.read(id, |data| *data).expect("final read");
        for (image, who) in [(&on_disk, "the store"), (&buffered, "the pool")] {
            assert_untorn(image, who);
            for (t, tally) in tallies.iter().enumerate() {
                assert_eq!(
                    word(image, t),
                    tally.own[p],
                    "lost write: page {p} slot {t} in {who}"
                );
            }
        }
    }
    (hits, misses)
}
