//! Property tests: the buffer pool must behave exactly like a reference
//! model (hash map contents + ideal LRU), and the record codec must
//! round-trip arbitrary field sequences.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use cij_storage::codec::{ByteReader, ByteWriter};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore, PageId, PageStore, StorageError};
use proptest::prelude::*;

mod common;
use common::SpyStore;

/// A serializable field for codec round-trip tests.
#[derive(Debug, Clone)]
enum Field {
    U8(u8),
    U16(u16),
    U32(u32),
    U64(u64),
    F64(f64),
    Bytes(Vec<u8>),
}

fn arb_field() -> impl Strategy<Value = Field> {
    prop_oneof![
        any::<u8>().prop_map(Field::U8),
        any::<u16>().prop_map(Field::U16),
        any::<u32>().prop_map(Field::U32),
        any::<u64>().prop_map(Field::U64),
        any::<f64>().prop_map(Field::F64),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Field::Bytes),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any sequence of fields reads back identically.
    #[test]
    fn codec_roundtrip(fields in proptest::collection::vec(arb_field(), 0..40)) {
        let mut w = ByteWriter::new();
        for f in &fields {
            match f {
                Field::U8(v) => w.put_u8(*v),
                Field::U16(v) => w.put_u16(*v),
                Field::U32(v) => w.put_u32(*v),
                Field::U64(v) => w.put_u64(*v),
                Field::F64(v) => w.put_f64(*v),
                Field::Bytes(v) => w.put_bytes(v),
            }
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for f in &fields {
            match f {
                Field::U8(v) => prop_assert_eq!(r.get_u8().unwrap(), *v),
                Field::U16(v) => prop_assert_eq!(r.get_u16().unwrap(), *v),
                Field::U32(v) => prop_assert_eq!(r.get_u32().unwrap(), *v),
                Field::U64(v) => prop_assert_eq!(r.get_u64().unwrap(), *v),
                Field::F64(v) => {
                    let back = r.get_f64().unwrap();
                    prop_assert!(back == *v || (back.is_nan() && v.is_nan()));
                }
                Field::Bytes(v) => prop_assert_eq!(r.get_bytes(v.len()).unwrap(), &v[..]),
            }
        }
        // Nothing left over, and reading past the record is an error.
        prop_assert_eq!(r.remaining(), 0);
        prop_assert!(r.get_u8().is_err());
    }
}

/// What the pool asked of the disk: `(is_write, page)`.
type DiskOp = (bool, u32);

/// A resident page in the reference model.
struct ModelFrame {
    page: u32,
    marker: u8,
    dirty: bool,
}

/// Reference model of the pool: the disk's contents plus a textbook LRU
/// queue, predicting every disk operation the pool may issue.
struct Model {
    capacity: usize,
    disk: HashMap<u32, u8>,    // live page → marker byte on the disk
    lru: VecDeque<ModelFrame>, // front = MRU
    expected: Vec<DiskOp>,     // disk operations of the current step
    physical_reads: u64,
    physical_writes: u64,
}

impl Model {
    fn position(&self, page: u32) -> Option<usize> {
        self.lru.iter().position(|f| f.page == page)
    }

    fn write_back(&mut self, page: u32, marker: u8) {
        self.expected.push((true, page));
        self.physical_writes += 1;
        self.disk.insert(page, marker);
    }

    /// A frame is needed for a non-resident page: a full pool gives up
    /// its least recently used page, written back first if dirty.
    fn make_room(&mut self) {
        if self.lru.len() == self.capacity {
            let victim = self.lru.pop_back().expect("capacity > 0");
            if victim.dirty {
                self.write_back(victim.page, victim.marker);
            }
        }
    }

    /// The marker a read returns, or `None` when the page is not on the
    /// disk (the pool has already taken a frame by then).
    fn read(&mut self, page: u32) -> Option<u8> {
        if let Some(at) = self.position(page) {
            let frame = self.lru.remove(at).expect("position is in range");
            let marker = frame.marker;
            self.lru.push_front(frame);
            return Some(marker);
        }
        self.make_room();
        self.expected.push((false, page));
        let marker = *self.disk.get(&page)?;
        self.physical_reads += 1;
        self.lru.push_front(ModelFrame {
            page,
            marker,
            dirty: false,
        });
        Some(marker)
    }

    fn write(&mut self, page: u32, marker: u8) {
        match self.position(page) {
            Some(at) => drop(self.lru.remove(at)),
            None => self.make_room(),
        }
        self.lru.push_front(ModelFrame {
            page,
            marker,
            dirty: true,
        });
    }

    fn flush(&mut self) {
        for at in 0..self.lru.len() {
            if self.lru[at].dirty {
                self.lru[at].dirty = false;
                let (page, marker) = (self.lru[at].page, self.lru[at].marker);
                self.write_back(page, marker);
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Write(u16, u8), // (page index, marker)
    Read(u16),
    Free(u16),
    Allocate,
    Flush,
    Clear,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (any::<u16>(), any::<u8>()).prop_map(|(p, m)| Op::Write(p, m)),
        12 => any::<u16>().prop_map(Op::Read),
        2 => any::<u16>().prop_map(Op::Free),
        2 => Just(Op::Allocate),
        1 => Just(Op::Flush),
        1 => Just(Op::Clear),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Single-threaded, the pool is an exact LRU: under arbitrary
    /// operation sequences it returns the model's contents and issues the
    /// model's disk operations — same victims, in the same order, hence
    /// the same physical read and write counts. Reading a page that is
    /// not on the disk fails with a typed error and loses no frame.
    #[test]
    fn pool_matches_lru_model(
        capacity in prop_oneof![Just(1usize), Just(2), 3usize..6, Just(50)],
        ops in proptest::collection::vec(arb_op(), 1..600),
    ) {
        // Every disk operation the pool issues, in order — its victim
        // choice made visible.
        let log: Arc<Mutex<Vec<DiskOp>>> = Arc::default();
        let store = Arc::new(SpyStore {
            inner: InMemoryStore::new(),
            spy: {
                let log = log.clone();
                move |is_write, id: PageId| log.lock().unwrap().push((is_write, id.0))
            },
        });
        let pool = BufferPool::new(store.clone(), BufferPoolConfig::with_capacity(capacity));
        // Enough pages that most accesses miss; ids are 0..pages.
        let pages = (2 * capacity).max(8) as u32;
        let mut model = Model {
            capacity,
            disk: (0..pages).map(|_| (pool.allocate().0, 0)).collect(),
            lru: VecDeque::new(),
            expected: Vec::new(),
            physical_reads: 0,
            physical_writes: 0,
        };

        for op in &ops {
            let mut any_order = false;
            match *op {
                Op::Write(p, marker) => {
                    let page = u32::from(p) % pages;
                    // Writing a page the disk does not have is a caller
                    // bug the pool cannot see until eviction; not modelled.
                    if model.disk.contains_key(&page) {
                        let mut data = cij_storage::zeroed_page();
                        data[0] = marker;
                        pool.write(PageId(page), &data).unwrap();
                        model.write(page, marker);
                    }
                }
                Op::Read(p) => {
                    let page = u32::from(p) % pages;
                    let got = pool.read(PageId(page), |data| data[0]);
                    match model.read(page) {
                        Some(marker) => prop_assert_eq!(got, Ok(marker), "page {}", page),
                        None => prop_assert_eq!(got, Err(StorageError::PageNotFound(PageId(page)))),
                    }
                }
                Op::Free(p) => {
                    let page = u32::from(p) % pages;
                    let was_live = model.disk.remove(&page).is_some();
                    prop_assert_eq!(pool.free(PageId(page)).is_ok(), was_live);
                    if let Some(at) = model.position(page) {
                        model.lru.remove(at);
                    }
                }
                Op::Allocate => {
                    if (model.disk.len() as u32) < pages {
                        // The store recycles a freed id, zeroed.
                        model.disk.insert(pool.allocate().0, 0);
                    }
                }
                Op::Flush => {
                    pool.flush().unwrap();
                    model.flush();
                    any_order = true;
                }
                Op::Clear => {
                    pool.clear().unwrap();
                    model.flush();
                    model.lru.clear();
                    any_order = true;
                }
            }
            let mut got = std::mem::take(&mut *log.lock().unwrap());
            let mut expected = std::mem::take(&mut model.expected);
            if any_order {
                // A flush promises which pages are written, not the order.
                got.sort_unstable();
                expected.sort_unstable();
            }
            prop_assert_eq!(got, expected, "disk operations of {:?} (cap {})", op, capacity);
            prop_assert_eq!(pool.resident(), model.lru.len());
        }

        let io = pool.stats().snapshot();
        prop_assert_eq!(io.physical_reads, model.physical_reads);
        prop_assert_eq!(io.physical_writes, model.physical_writes);

        // Final disk truth: clear the pool and read everything raw.
        pool.clear().unwrap();
        model.flush();
        for (&page, &marker) in &model.disk {
            let mut raw = cij_storage::zeroed_page();
            store.inner.read(PageId(page), &mut raw).unwrap();
            prop_assert_eq!(raw[0], marker, "final content of page {}", page);
        }
    }
}

/// `write_with` on a page that is not resident, in a full pool: a blind
/// write. It counts one logical write and reads nothing from the disk;
/// the least recently used page, dirty, is written back first.
#[test]
fn write_with_into_a_full_pool_is_a_blind_write() {
    let log: Arc<Mutex<Vec<DiskOp>>> = Arc::default();
    let store = Arc::new(SpyStore {
        inner: InMemoryStore::new(),
        spy: {
            let log = log.clone();
            move |is_write, id: PageId| log.lock().unwrap().push((is_write, id.0))
        },
    });
    let pool = BufferPool::new(store.clone(), BufferPoolConfig::with_capacity(2));
    let (a, b, c) = (pool.allocate(), pool.allocate(), pool.allocate());
    pool.write_with(a, |p| p.fill(0xAA)).unwrap();
    pool.write_with(b, |p| p.fill(0xBB)).unwrap();
    assert!(log.lock().unwrap().is_empty(), "two frames, no disk access");

    let before = pool.stats().snapshot();
    pool.write_with(c, |p| p.fill(0xCC)).unwrap();
    let delta = pool.stats().snapshot() - before;
    assert_eq!(delta.logical_writes, 1);
    assert_eq!(delta.logical_reads, 0);
    assert_eq!(delta.physical_reads, 0, "the new bytes are not read first");
    assert_eq!(delta.physical_writes, 1, "the dirty victim is written back");
    assert_eq!(*log.lock().unwrap(), vec![(true, a.0)]);
    assert_eq!(pool.resident(), 2);

    // The victim reached the disk whole, and the frame it left holds the
    // new page, overwritten whole.
    let mut raw = cij_storage::zeroed_page();
    store.inner.read(a, &mut raw).unwrap();
    assert!(raw.iter().all(|&byte| byte == 0xAA));
    assert_eq!(
        pool.read(c, |p| p.iter().all(|&byte| byte == 0xCC)),
        Ok(true)
    );
}
