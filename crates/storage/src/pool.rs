//! The LRU buffer pool: a fixed number of page frames in front of a
//! [`PageStore`].
//!
//! Semantics follow the paper's experimental setup: an LRU buffer of 50
//! pages; a read that hits the buffer is free (logical only), a miss
//! costs one physical read, and evicting a dirty frame costs one physical
//! write. The pool is shared by every index on the same simulated disk,
//! exactly as one buffer pool would be shared on the real machine.
//!
//! # Latch protocol
//!
//! Users of resident pages do not wait on one another unless they want
//! the same page. Four pieces of state, always acquired in this order:
//!
//! 1. **The residency lock** (`Mutex<Residency>`): the free frames and
//!    the eviction order, and the right to change the directory. Taken
//!    only by the paths that change residency — a miss, a `write` of a
//!    non-resident page, `free`, `clear` — and by `flush` / `resident`.
//!    A `read` or `write` of a *resident* page never takes it.
//! 2. **The directory** (`Directory`): page → frame, an open-addressing
//!    table of atomics that anyone may read without a lock. A lock-free
//!    look can be out of date, so its answer is only a hint: the frame it
//!    names is latched and asked which page it holds ([`FrameData::id`]);
//!    a look that finds nothing is repeated under the residency lock,
//!    where it is exact.
//! 3. **The frame latch** (`RwLock<FrameData>`, one per frame): the page
//!    id, the bytes and the dirty flag. **The caller's closure runs under
//!    the frame latch alone** — shared, so two readers of one page decode
//!    it concurrently; a miss fills the frame under the exclusive latch
//!    and downgrades it before the closure runs. An evictor holds the
//!    residency lock and waits on the victim's latch until its readers
//!    are done.
//! 4. **The store.**
//!
//! A closure passed to [`BufferPool::read`] therefore **must not call
//! back into the pool**: it holds a frame latch, and an evictor behind it
//! can wait on that latch while the closure waits on the evictor.
//!
//! # Recency without a list
//!
//! Every access to a resident page draws one tick from a single atomic
//! clock and stores it in the frame's `stamp` — one `fetch_add`, the only
//! pool-wide cache line a hit dirties, and one plain store. The resident
//! frames are kept ordered by the stamp each had when it was last
//! *filed* ([`Order`]), and the order is only resolved when a victim is
//! needed: take the smallest key, and if that frame has been touched
//! since (stamp ≠ key), file it again under its current stamp and look
//! again. Every re-filing is paid for by at least one earlier hit, so
//! victim choice costs amortised `O(log capacity)` per access — `O(1)`
//! for pages that are never hit between fault and eviction — and nothing
//! allocates once the pool is built.
//!
//! With one thread the stamps are strictly increasing in access order,
//! so the victim is always the least recently used page: the eviction
//! sequence, and with it every physical read and write, is exactly that
//! of a linked LRU list. With several threads the order is that of the
//! clock, which respects happens-before between accesses — some legal
//! interleaving of the threads' accesses. (Two *concurrent* hits on one
//! frame may leave the smaller of their two stamps.) I/O counters live in
//! [`IoStats`] atomics on the store, so totals stay exact under any
//! interleaving; which access misses is only reproducible at one thread.
//!
//! Frame headers (a few dozen bytes each) are allocated with the pool;
//! the 4 KiB page buffers only when a frame is first used.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockWriteGuard};

use crate::{IoStats, PageBuf, PageId, PageStore, StorageResult, DEFAULT_POOL_PAGES, PAGE_SIZE};

/// Buffer pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct BufferPoolConfig {
    /// Number of page frames (paper default: 50).
    pub capacity: usize,
}

impl Default for BufferPoolConfig {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_POOL_PAGES)
    }
}

impl BufferPoolConfig {
    /// One LRU over `capacity` frames — the paper's setup.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self { capacity }
    }
}

/// One page frame: the bytes, which page they are, and how recently they
/// were used.
struct Frame {
    /// Clock tick of the last access to the resident page. Written under
    /// the latch (either mode); the evictor trusts it only once it holds
    /// the latch exclusively, whose acquire pairs with every earlier
    /// holder's release — `Relaxed` is enough.
    stamp: AtomicU64,
    latch: RwLock<FrameData>,
}

struct FrameData {
    /// The page held; `INVALID` while the frame is free or being refilled.
    id: PageId,
    /// Whether the store lacks these bytes; never set without a page.
    dirty: bool,
    /// Allocated when the frame is first handed out.
    data: Option<PageBuf>,
}

impl FrameData {
    fn page(&self) -> &[u8; PAGE_SIZE] {
        self.data.as_deref().expect("a frame in use has a buffer")
    }

    fn page_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        self.data
            .as_deref_mut()
            .expect("a frame in use has a buffer")
    }
}

/// Page → frame, as an open-addressing table of atomics (linear probing,
/// at most half full): written only under the residency lock, read by
/// anyone without one. A lock-free reader racing a writer may miss a
/// resident page — it then asks again under the lock, where the answer
/// is exact — and may be handed a frame that has moved on, which is why
/// every user checks [`FrameData::id`] under the frame latch.
struct Directory {
    /// `page << 32 | frame`, or `EMPTY`.
    slots: Box<[AtomicU64]>,
    /// `64 − log2(slots.len())`.
    shift: u32,
}

const EMPTY: u64 = u64::MAX;

impl Directory {
    fn with_frames(frames: usize) -> Self {
        let len = (2 * frames).next_power_of_two();
        Self {
            slots: (0..len).map(|_| AtomicU64::new(EMPTY)).collect(),
            shift: 64 - len.trailing_zeros(),
        }
    }

    /// Fibonacci hashing: page ids come from the store's own allocator
    /// (small, dense), and the multiplication spreads them over the high
    /// bits the shift keeps.
    fn home(&self, page: u32) -> usize {
        (u64::from(page).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The slot and frame of `id`.
    fn locate(&self, id: PageId) -> Option<(usize, usize)> {
        let mask = self.slots.len() - 1;
        let mut at = self.home(id.0);
        // Bounded, so that a reader chasing entries a writer keeps moving
        // gives up (and asks under the lock) instead of circling.
        for _ in 0..self.slots.len() {
            let entry = self.slots[at].load(Ordering::Relaxed);
            if entry == EMPTY {
                return None;
            }
            if (entry >> 32) as u32 == id.0 {
                return Some((at, entry as u32 as usize));
            }
            at = (at + 1) & mask;
        }
        None
    }

    fn insert(&self, id: PageId, frame: usize) {
        let mask = self.slots.len() - 1;
        let mut at = self.home(id.0);
        while self.slots[at].load(Ordering::Relaxed) != EMPTY {
            at = (at + 1) & mask;
        }
        self.slots[at].store(u64::from(id.0) << 32 | frame as u64, Ordering::Relaxed);
    }

    /// Empties `slot` and closes the gap (backward-shift deletion), so
    /// probe sequences stay unbroken without tombstones.
    fn remove(&self, slot: usize) {
        let mask = self.slots.len() - 1;
        let (mut hole, mut at) = (slot, slot);
        loop {
            at = (at + 1) & mask;
            let entry = self.slots[at].load(Ordering::Relaxed);
            if entry == EMPTY {
                break;
            }
            // The entry may drop back into the hole unless its home lies
            // after the hole on its probe path.
            let home = self.home((entry >> 32) as u32);
            if (at.wrapping_sub(home) & mask) >= (at.wrapping_sub(hole) & mask) {
                self.slots[hole].store(entry, Ordering::Relaxed);
                hole = at;
            }
        }
        self.slots[hole].store(EMPTY, Ordering::Relaxed);
    }

    fn clear(&self) {
        for slot in self.slots.iter() {
            slot.store(EMPTY, Ordering::Relaxed);
        }
    }
}

/// The resident frames by the stamp each had when it was last *filed*,
/// smallest first. A frame filed at installation carries a fresh tick —
/// larger than every key on file — so those wait in a plain queue that is
/// sorted by construction; only frames re-filed under the stamp of a later
/// hit need the heap. The cold pages of a thrashing pool thus pass through
/// in `O(1)`, and the heap holds the hot ones.
///
/// A frame that leaves from the middle (its page was freed) is only
/// struck from `filed`; its entry is dropped when it surfaces, or when
/// dead entries outnumber the frames. Nothing allocates after `new`.
struct Order {
    young: VecDeque<(u64, usize)>,
    old: BinaryHeap<Reverse<(u64, usize)>>,
    /// Frame → the key it is on file under, `UNFILED` if it is not.
    filed: Box<[u64]>,
    /// Frames on file.
    len: usize,
}

const UNFILED: u64 = u64::MAX;

impl Order {
    fn with_frames(frames: usize) -> Self {
        Self {
            young: VecDeque::with_capacity(2 * frames),
            old: BinaryHeap::with_capacity(2 * frames),
            filed: vec![UNFILED; frames].into(),
            len: 0,
        }
    }

    /// Files `frame` under a fresh tick.
    fn push_newest(&mut self, key: u64, frame: usize) {
        debug_assert!(self.young.back().is_none_or(|&(newest, _)| newest < key));
        self.make_room();
        self.young.push_back((key, frame));
        self.filed[frame] = key;
        self.len += 1;
    }

    /// Files `frame` under any key.
    fn push(&mut self, key: u64, frame: usize) {
        self.make_room();
        self.old.push(Reverse((key, frame)));
        self.filed[frame] = key;
        self.len += 1;
    }

    /// Takes the frame with the smallest key off file.
    fn pop_min(&mut self) -> Option<(u64, usize)> {
        loop {
            let young = self.young.front().copied();
            let old = self.old.peek().map(|&Reverse(entry)| entry);
            let (key, frame) = match (young, old) {
                (Some(young), Some(old)) if old < young => self.old.pop()?.0,
                (Some(_), _) => self.young.pop_front()?,
                (None, _) => self.old.pop()?.0,
            };
            if self.filed[frame] == key {
                self.filed[frame] = UNFILED;
                self.len -= 1;
                return Some((key, frame));
            }
        }
    }

    /// Takes `frame` off file, wherever it is.
    fn remove(&mut self, frame: usize) {
        self.filed[frame] = UNFILED;
        self.len -= 1;
    }

    fn clear(&mut self) {
        self.young.clear();
        self.old.clear();
        self.filed.fill(UNFILED);
        self.len = 0;
    }

    /// Drops the dead entries once both containers are as full as they
    /// were allocated — paid for by the removals that left them.
    fn make_room(&mut self) {
        if self.young.len() + self.old.len() == 2 * self.filed.len() {
            let filed = &self.filed;
            self.young.retain(|&(key, frame)| filed[frame] == key);
            self.old
                .retain(|&Reverse((key, frame))| filed[frame] == key);
        }
    }
}

/// Which frames are in use, and in what order they leave; see the module
/// docs.
struct Residency {
    /// Frames handed out so far (`<= capacity`); the rest have no buffer.
    used: usize,
    free: Vec<usize>,
    order: Order,
}

struct Inner {
    frames: Box<[Frame]>,
    directory: Directory,
    clock: AtomicU64,
    residency: Mutex<Residency>,
}

impl Inner {
    fn tick(&self) -> u64 {
        // Only uniqueness and monotonicity along happens-before are
        // needed, and a read-modify-write on one atomic gives both.
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The frame holding `id`, if resident, latched through `lock`
    /// ([`RwLock::read`] or [`RwLock::write`]) and its recency refreshed.
    /// Takes no lock but the latch.
    fn latch<'a, G: Deref<Target = FrameData>>(
        &'a self,
        id: PageId,
        lock: impl FnOnce(&'a RwLock<FrameData>) -> G,
    ) -> Option<G> {
        let frame = &self.frames[self.directory.locate(id)?.1];
        let data = lock(&frame.latch);
        // The frame may have been retargeted before we got the latch.
        (data.id == id).then(|| {
            frame.stamp.store(self.tick(), Ordering::Relaxed);
            data
        })
    }

    /// Hands out an unused frame, latched: a free one, a never-used one,
    /// or the least recently used resident one (written back if dirty,
    /// once its readers are done) — clean and holding no page. On error
    /// nothing has changed.
    fn take_frame(
        &self,
        residency: &mut Residency,
        store: &dyn PageStore,
    ) -> StorageResult<(usize, RwLockWriteGuard<'_, FrameData>)> {
        if let Some(idx) = residency.free.pop() {
            return Ok((idx, self.frames[idx].latch.write()));
        }
        if residency.used < self.frames.len() {
            let idx = residency.used;
            residency.used += 1;
            let mut frame = self.frames[idx].latch.write();
            frame.data = Some(crate::zeroed_page());
            return Ok((idx, frame));
        }
        let (key, idx, mut frame) = loop {
            let (key, idx) = residency
                .order
                .pop_min()
                .expect("a full pool has a resident frame");
            // The LRU, unless the frame has been touched since it was
            // filed. Asked again under the latch: a hit that held it
            // until now stamps late.
            let stamp = &self.frames[idx].stamp;
            if stamp.load(Ordering::Relaxed) == key {
                let frame = self.frames[idx].latch.write();
                if stamp.load(Ordering::Relaxed) == key {
                    break (key, idx, frame);
                }
            }
            residency.order.push(stamp.load(Ordering::Relaxed), idx);
        };
        if frame.dirty {
            if let Err(e) = store.write(frame.id, frame.page()) {
                residency.order.push(key, idx);
                return Err(e);
            }
            frame.dirty = false;
        }
        let (slot, _) = self
            .directory
            .locate(frame.id)
            .expect("a resident frame is in the directory");
        self.directory.remove(slot);
        frame.id = PageId::INVALID;
        Ok((idx, frame))
    }

    /// Makes frame `idx`, latched by the caller, the resident, most
    /// recently used copy of `id`.
    fn install(&self, residency: &mut Residency, idx: usize, frame: &mut FrameData, id: PageId) {
        let key = self.tick();
        self.frames[idx].stamp.store(key, Ordering::Relaxed);
        frame.id = id;
        self.directory.insert(id, idx);
        residency.order.push_newest(key, idx);
    }

    /// Writes every dirty frame back; pages stay resident and clean.
    fn write_back(&self, residency: &Residency, store: &dyn PageStore) -> StorageResult<()> {
        for frame in &self.frames[..residency.used] {
            let mut frame = frame.latch.write();
            if frame.dirty {
                store.write(frame.id, frame.page())?;
                frame.dirty = false;
            }
        }
        Ok(())
    }
}

/// A shared LRU buffer pool whose users of resident pages do not wait on
/// one another unless they want the same page (see the module docs for
/// the latch protocol). Cheap to clone (`Arc` inside); clones see the
/// same frames and counters.
#[derive(Clone)]
pub struct BufferPool {
    store: Arc<dyn PageStore>,
    inner: Arc<Inner>,
}

impl BufferPool {
    /// Creates a pool over `store` with the given configuration.
    ///
    /// # Panics
    /// Panics when `config.capacity == 0`.
    #[must_use]
    pub fn new(store: Arc<dyn PageStore>, config: BufferPoolConfig) -> Self {
        let capacity = config.capacity;
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let frames = (0..capacity)
            .map(|_| Frame {
                stamp: AtomicU64::new(0),
                latch: RwLock::new(FrameData {
                    id: PageId::INVALID,
                    dirty: false,
                    data: None,
                }),
            })
            .collect();
        let inner = Inner {
            frames,
            directory: Directory::with_frames(capacity),
            clock: AtomicU64::new(0),
            residency: Mutex::new(Residency {
                used: 0,
                free: Vec::new(),
                order: Order::with_frames(capacity),
            }),
        };
        Self {
            store,
            inner: Arc::new(inner),
        }
    }

    /// Creates a pool with the paper's default 50-page capacity.
    #[must_use]
    pub fn with_default_capacity(store: Arc<dyn PageStore>) -> Self {
        Self::new(store, BufferPoolConfig::default())
    }

    /// Number of page frames.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.frames.len()
    }

    /// The I/O counters of the underlying store.
    #[must_use]
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(self.store.stats())
    }

    /// Allocates a fresh page on the store (not yet buffered).
    #[must_use]
    pub fn allocate(&self) -> PageId {
        self.store.allocate()
    }

    /// Frees a page, dropping any buffered copy without writing it back.
    pub fn free(&self, id: PageId) -> StorageResult<()> {
        let inner = &*self.inner;
        let mut residency = inner.residency.lock();
        if let Some((slot, idx)) = inner.directory.locate(id) {
            let mut frame = inner.frames[idx].latch.write();
            frame.id = PageId::INVALID;
            frame.dirty = false;
            drop(frame);
            inner.directory.remove(slot);
            residency.order.remove(idx);
            residency.free.push(idx);
        }
        drop(residency);
        self.store.free(id)
    }

    /// Reads a page through the buffer and hands a view of its bytes to
    /// `f`. Counts one logical read always; one physical read iff the
    /// page was not resident.
    ///
    /// `f` runs under the page's frame latch and must not call back into
    /// this pool (see the module docs).
    pub fn read<R>(&self, id: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> StorageResult<R> {
        self.store.stats().record_logical_read();
        let inner = &*self.inner;
        if let Some(frame) = inner.latch(id, RwLock::read) {
            return Ok(f(frame.page()));
        }

        let mut residency = inner.residency.lock();
        // Under the lock the directory is exact: the page may have been
        // faulted in since, or hidden from the lock-free look by a move.
        if let Some(frame) = inner.latch(id, RwLock::read) {
            drop(residency);
            return Ok(f(frame.page()));
        }
        let (idx, mut frame) = inner.take_frame(&mut residency, &*self.store)?;
        if let Err(e) = self.store.read(id, frame.page_mut()) {
            residency.free.push(idx);
            return Err(e);
        }
        inner.install(&mut residency, idx, &mut frame, id);
        drop(residency);
        // Other readers of the page need not wait for `f`.
        let frame = RwLockWriteGuard::downgrade(frame);
        Ok(f(frame.page()))
    }

    /// Writes a page through the buffer (write-back): the frame is
    /// updated and marked dirty; the store sees it on eviction or flush.
    /// Counts one logical write. No physical read is needed because
    /// `data` overwrites the whole page.
    pub fn write(&self, id: PageId, data: &[u8; PAGE_SIZE]) -> StorageResult<()> {
        self.store.stats().record_logical_write();
        let inner = &*self.inner;
        let mut frame = match inner.latch(id, RwLock::write) {
            Some(frame) => frame,
            None => {
                let mut residency = inner.residency.lock();
                match inner.latch(id, RwLock::write) {
                    Some(frame) => frame,
                    None => {
                        let (idx, mut frame) = inner.take_frame(&mut residency, &*self.store)?;
                        inner.install(&mut residency, idx, &mut frame, id);
                        frame
                    }
                }
            }
        };
        frame.page_mut().copy_from_slice(data);
        frame.dirty = true;
        Ok(())
    }

    /// Writes every dirty resident frame back to the store (frames stay
    /// resident and clean). Residency does not change, so hits on other
    /// pages proceed alongside.
    pub fn flush(&self) -> StorageResult<()> {
        let residency = self.inner.residency.lock();
        self.inner.write_back(&residency, &*self.store)
    }

    /// Flushes, then drops every frame. Used between experiment phases to
    /// cold-start the buffer, mirroring the paper's fresh-cache
    /// measurements.
    pub fn clear(&self) -> StorageResult<()> {
        let inner = &*self.inner;
        let mut residency = inner.residency.lock();
        inner.write_back(&residency, &*self.store)?;
        for frame in &inner.frames[..residency.used] {
            frame.latch.write().id = PageId::INVALID;
        }
        inner.directory.clear();
        residency.order.clear();
        residency.free = (0..residency.used).collect();
        Ok(())
    }

    /// Number of currently resident pages.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.inner.residency.lock().order.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InMemoryStore;

    fn pool(capacity: usize) -> BufferPool {
        BufferPool::new(
            Arc::new(InMemoryStore::new()),
            BufferPoolConfig::with_capacity(capacity),
        )
    }

    fn page_with(byte: u8) -> PageBuf {
        let mut p = crate::zeroed_page();
        p[0] = byte;
        p
    }

    #[test]
    fn read_hit_costs_no_physical_io() {
        let pool = pool(4);
        let id = pool.allocate();
        pool.write(id, &page_with(7)).unwrap();
        let before = pool.stats().snapshot();
        for _ in 0..5 {
            let b = pool.read(id, |p| p[0]).unwrap();
            assert_eq!(b, 7);
        }
        let delta = pool.stats().snapshot() - before;
        assert_eq!(delta.physical_reads, 0, "hits must be free");
        assert_eq!(delta.logical_reads, 5);
    }

    #[test]
    fn miss_costs_one_physical_read() {
        let pool = pool(2);
        let id = pool.allocate();
        pool.write(id, &page_with(1)).unwrap();
        pool.clear().unwrap();
        let before = pool.stats().snapshot();
        pool.read(id, |_| ()).unwrap();
        pool.read(id, |_| ()).unwrap();
        let delta = pool.stats().snapshot() - before;
        assert_eq!(delta.physical_reads, 1);
    }

    #[test]
    fn eviction_follows_lru_order() {
        let pool = pool(2);
        let ids: Vec<_> = (0..3).map(|_| pool.allocate()).collect();
        // Seed store contents directly through the pool then clear.
        for (i, &id) in ids.iter().enumerate() {
            pool.write(id, &page_with(i as u8)).unwrap();
        }
        pool.clear().unwrap();

        // Read 0 then 1 (pool holds {0, 1}); touching 0 makes 1 the LRU.
        pool.read(ids[0], |_| ()).unwrap();
        pool.read(ids[1], |_| ()).unwrap();
        pool.read(ids[0], |_| ()).unwrap();
        // Faulting 2 evicts 1.
        pool.read(ids[2], |_| ()).unwrap();
        let before = pool.stats().snapshot();
        pool.read(ids[0], |_| ()).unwrap(); // still resident → hit
        let delta = pool.stats().snapshot() - before;
        assert_eq!(delta.physical_reads, 0);
        let before = pool.stats().snapshot();
        pool.read(ids[1], |_| ()).unwrap(); // was evicted → miss
        let delta = pool.stats().snapshot() - before;
        assert_eq!(delta.physical_reads, 1);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let pool = pool(1);
        let a = pool.allocate();
        let b = pool.allocate();
        pool.write(a, &page_with(0xAA)).unwrap();
        let before = pool.stats().snapshot();
        // Faulting b evicts dirty a → one physical write.
        pool.read(b, |_| ()).unwrap();
        let delta = pool.stats().snapshot() - before;
        assert_eq!(delta.physical_writes, 1);
        // a's data survived the round trip.
        let byte = pool.read(a, |p| p[0]).unwrap();
        assert_eq!(byte, 0xAA);
    }

    #[test]
    fn clean_eviction_writes_nothing() {
        let pool = pool(1);
        let a = pool.allocate();
        let b = pool.allocate();
        pool.write(a, &page_with(1)).unwrap();
        pool.flush().unwrap(); // a resident + clean
        let before = pool.stats().snapshot();
        pool.read(b, |_| ()).unwrap(); // evicts clean a
        let delta = pool.stats().snapshot() - before;
        assert_eq!(delta.physical_writes, 0);
    }

    #[test]
    fn write_back_coalesces_physical_writes() {
        let pool = pool(4);
        let id = pool.allocate();
        let before = pool.stats().snapshot();
        for i in 0..10 {
            pool.write(id, &page_with(i)).unwrap();
        }
        pool.flush().unwrap();
        let delta = pool.stats().snapshot() - before;
        assert_eq!(delta.logical_writes, 10);
        assert_eq!(delta.physical_writes, 1, "ten logical writes, one flush");
    }

    #[test]
    fn freeing_resident_page_discards_frame() {
        let pool = pool(2);
        let id = pool.allocate();
        pool.write(id, &page_with(9)).unwrap();
        assert_eq!(pool.resident(), 1);
        pool.free(id).unwrap();
        assert_eq!(pool.resident(), 0);
        assert!(pool.read(id, |_| ()).is_err());
    }

    #[test]
    fn shared_clones_see_same_frames() {
        let pool = pool(2);
        let clone = pool.clone();
        let id = pool.allocate();
        pool.write(id, &page_with(5)).unwrap();
        let byte = clone.read(id, |p| p[0]).unwrap();
        assert_eq!(byte, 5);
        assert_eq!(clone.resident(), pool.resident());
    }

    #[test]
    fn capacity_is_respected() {
        let pool = pool(3);
        let ids: Vec<_> = (0..10).map(|_| pool.allocate()).collect();
        for &id in &ids {
            pool.write(id, &page_with(0)).unwrap();
        }
        assert!(pool.resident() <= 3);
    }

    #[test]
    fn directory_matches_a_hash_map() {
        // Random insert / remove at the fill the pool allows (half),
        // with ids dense enough to collide; every id asked after each step.
        const FRAMES: usize = 16;
        let directory = Directory::with_frames(FRAMES);
        let mut reference = std::collections::HashMap::new(); // page → frame
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let id = PageId((rng >> 16) as u32 % 64);
            match directory.locate(id) {
                Some((slot, frame)) => {
                    assert_eq!(reference.remove(&id), Some(frame));
                    directory.remove(slot);
                }
                None if reference.len() < FRAMES => {
                    assert!(!reference.contains_key(&id));
                    let frame = (rng >> 48) as usize % FRAMES;
                    directory.insert(id, frame);
                    reference.insert(id, frame);
                }
                None => assert!(!reference.contains_key(&id)),
            }
            for page in 0..64 {
                let found = directory.locate(PageId(page)).map(|(_, frame)| frame);
                assert_eq!(found, reference.get(&PageId(page)).copied());
            }
        }
    }

    #[test]
    fn order_matches_a_sorted_map() {
        // Random file-newest / re-file / remove against a `BTreeMap`,
        // draining both now and then; dead entries must never surface.
        const FRAMES: usize = 24;
        let mut order = Order::with_frames(FRAMES);
        let mut reference = std::collections::BTreeMap::new(); // key → frame
        let mut key_of = [None; FRAMES];
        let mut clock = 0u64;
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..20_000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let frame = (rng >> 8) as usize % FRAMES;
            clock += 1_000;
            match (rng % 3, key_of[frame]) {
                (0, None) => {
                    order.push_newest(clock, frame);
                    reference.insert(clock, frame);
                    key_of[frame] = Some(clock);
                }
                (1, Some(key)) => {
                    order.remove(frame);
                    reference.remove(&key);
                    key_of[frame] = None;
                }
                (2, _) => {
                    // Re-file the minimum under some key since its own.
                    let popped = order.pop_min();
                    assert_eq!(popped, reference.pop_first());
                    if let Some((key, min)) = popped {
                        let mut later = key + 1 + (rng >> 40) % (clock - key - 1);
                        while reference.contains_key(&later) {
                            later += 1; // keys are unique, as stamps are
                        }
                        order.push(later, min);
                        reference.insert(later, min);
                        key_of[min] = Some(later);
                    }
                }
                _ => {}
            }
            assert_eq!(order.len, reference.len());
            if step % 500 == 499 {
                while let Some((key, min)) = reference.pop_first() {
                    assert_eq!(order.pop_min(), Some((key, min)));
                    key_of[min] = None;
                }
                assert_eq!(order.pop_min(), None);
            }
            assert!(order.young.len() + order.old.len() <= 2 * FRAMES);
        }
    }

    #[test]
    fn failed_read_returns_its_frame() {
        // A read the store refuses must give back the frame it took:
        // two leaked frames would empty this pool, a third read panic.
        let pool = pool(2);
        let a = pool.allocate();
        let b = pool.allocate();
        pool.write(a, &page_with(1)).unwrap();
        pool.write(b, &page_with(2)).unwrap();
        let unknown = PageId(999);
        for _ in 0..3 {
            assert_eq!(
                pool.read(unknown, |_| ()),
                Err(crate::StorageError::PageNotFound(unknown))
            );
        }
        // Both frames are still usable and no write was lost.
        assert_eq!(pool.read(a, |p| p[0]), Ok(1));
        assert_eq!(pool.read(b, |p| p[0]), Ok(2));
        assert_eq!(pool.resident(), 2);
    }

    #[test]
    fn failed_write_back_keeps_the_victim_resident() {
        let store = Arc::new(InMemoryStore::new());
        let pool = BufferPool::new(store.clone(), BufferPoolConfig::with_capacity(1));
        let a = pool.allocate();
        let b = pool.allocate();
        pool.write(a, &page_with(7)).unwrap();
        // The page vanishes from the disk behind the pool's back.
        store.free(a).unwrap();
        assert!(pool.read(b, |_| ()).is_err(), "dirty victim has no home");
        assert_eq!(pool.resident(), 1);
        assert_eq!(pool.read(a, |p| p[0]), Ok(7), "victim still buffered");
        // Dropping the buffered copy unblocks the frame.
        assert!(pool.free(a).is_err());
        pool.read(b, |_| ()).unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_panics() {
        let _ = pool(0);
    }
}
