//! A sharded LRU cache of *decoded* page payloads.
//!
//! The buffer pool caches raw 4 KB pages; every consumer still pays the
//! full decode (parse + `Vec` allocation) on each access. [`DecodedCache`]
//! sits **above** the pool and memoizes the decoded form behind an
//! `Arc<T>`, so a cache hit returns a shared immutable value with zero
//! parsing and zero allocation. `cij-tpr` uses it with `T = Node`.
//!
//! # Sharding
//!
//! Pages map to shards by `page_id % shards`, each shard its own lock
//! and LRU; one shard is one exact LRU.
//!
//! # Consistency: generation-stamped invalidation
//!
//! Writers must call [`DecodedCache::install`] (write-through replace) or
//! [`DecodedCache::invalidate`] (drop) *before* the underlying page write
//! or free becomes visible. Both bump the shard's **generation**. Readers
//! that miss follow the protocol
//!
//! 1. `begin_insert(id)` — record the shard generation,
//! 2. decode the page through the buffer pool,
//! 3. `try_insert(id, value, gen)` — rejected if the generation moved,
//!
//! so a decode raced by a concurrent writer can never install a stale
//! value. (With Rust's `&mut` aliasing rules a tree writer excludes
//! readers of the *same* tree anyway; the stamp keeps the cache safe as a
//! standalone component and under future sharing.)
//!
//! # I/O accounting
//!
//! A cache hit never reaches the buffer pool: it records **no** logical
//! read and refreshes no pool LRU state. The paper's I/O methodology is
//! preserved by keeping the cache *off* by default (capacity 0 at the
//! consumer level); when enabled, the cache's own [`CacheStats`] carry
//! the accounting.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::lru::{LruLink, LruList};
use crate::stats::{CacheSnapshot, CacheStats};
use crate::PageId;

struct CacheShard<T> {
    /// Entry budget of this shard alone.
    capacity: usize,
    /// Bumped by every `install`/`invalidate`; stamps in-flight decodes.
    generation: u64,
    map: HashMap<PageId, usize>,
    /// Slot slab, `None` = free slot.
    slots: Vec<Option<(PageId, Arc<T>)>>,
    /// LRU link fields, parallel to `slots`.
    links: Vec<LruLink>,
    free: Vec<usize>,
    lru: LruList,
}

impl<T> CacheShard<T> {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity,
            generation: 0,
            map: HashMap::with_capacity(capacity * 2),
            slots: Vec::with_capacity(capacity),
            links: Vec::with_capacity(capacity),
            free: Vec::new(),
            lru: LruList::new(),
        }
    }

    /// Obtains a free slot index, evicting the LRU entry when full.
    /// Returns `(idx, evicted)`.
    fn take_slot(&mut self) -> (usize, bool) {
        if let Some(idx) = self.free.pop() {
            return (idx, false);
        }
        if self.slots.len() < self.capacity {
            self.slots.push(None);
            self.links.push(LruLink::default());
            return (self.slots.len() - 1, false);
        }
        let idx = {
            let Self { lru, links, .. } = self;
            lru.pop_lru(links).expect("full shard has an LRU victim")
        };
        let (victim, _) = self.slots[idx].take().expect("LRU slot is occupied");
        self.map.remove(&victim);
        (idx, true)
    }

    /// Inserts or replaces `id`. Returns `(evicted, replaced)`.
    fn put(&mut self, id: PageId, value: Arc<T>) -> (bool, bool) {
        if let Some(&idx) = self.map.get(&id) {
            self.slots[idx] = Some((id, value));
            let Self { lru, links, .. } = self;
            lru.touch(idx, links);
            return (false, true);
        }
        let (idx, evicted) = self.take_slot();
        self.slots[idx] = Some((id, value));
        self.map.insert(id, idx);
        let Self { lru, links, .. } = self;
        lru.push_front(idx, links);
        (evicted, false)
    }

    /// Removes `id` if present; returns whether an entry was dropped.
    fn remove(&mut self, id: PageId) -> bool {
        let Some(idx) = self.map.remove(&id) else {
            return false;
        };
        self.slots[idx] = None;
        let Self { lru, links, .. } = self;
        lru.unlink(idx, links);
        self.free.push(idx);
        true
    }
}

/// A sharded LRU cache of decoded page payloads (see module docs).
///
/// All methods take `&self`; shards are individually locked. Cheap
/// lookups (`get`) touch exactly one shard mutex.
pub struct DecodedCache<T> {
    shards: Box<[Mutex<CacheShard<T>>]>,
    stats: CacheStats,
    capacity: usize,
}

impl<T> std::fmt::Debug for DecodedCache<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodedCache")
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .finish()
    }
}

impl<T> DecodedCache<T> {
    /// Creates a cache holding at most `capacity` decoded values, striped
    /// over `shards` segments. The shard count is clamped to `capacity` so every
    /// shard holds at least one entry.
    ///
    /// # Panics
    /// Panics when `capacity == 0` or `shards == 0` — a disabled cache is
    /// expressed by not constructing one.
    #[must_use]
    pub fn new(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "decoded cache needs at least one entry");
        assert!(shards > 0, "decoded cache needs at least one shard");
        let shards = shards.min(capacity);
        let base = capacity / shards;
        let extra = capacity % shards;
        let shards: Box<[Mutex<CacheShard<T>>]> = (0..shards)
            .map(|i| Mutex::new(CacheShard::with_capacity(base + usize::from(i < extra))))
            .collect();
        Self {
            shards,
            stats: CacheStats::new(),
            capacity,
        }
    }

    /// Total entry budget across all shards.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of currently cached values across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache holds no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cache's counters.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Convenience: a point-in-time copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> CacheSnapshot {
        self.stats.snapshot()
    }

    fn shard(&self, id: PageId) -> &Mutex<CacheShard<T>> {
        &self.shards[id.0 as usize % self.shards.len()]
    }

    /// Looks up `id`, refreshing its recency. Counts one hit or miss.
    #[must_use]
    pub fn get(&self, id: PageId) -> Option<Arc<T>> {
        let mut shard = self.shard(id).lock();
        match shard.map.get(&id).copied() {
            Some(idx) => {
                let CacheShard { lru, links, .. } = &mut *shard;
                lru.touch(idx, links);
                let value = shard.slots[idx]
                    .as_ref()
                    .map(|(_, v)| Arc::clone(v))
                    .expect("mapped slot is occupied");
                drop(shard);
                self.stats.record_hit();
                Some(value)
            }
            None => {
                drop(shard);
                self.stats.record_miss();
                None
            }
        }
    }

    /// Starts a miss-fill: returns the shard generation to stamp the
    /// subsequent [`try_insert`](Self::try_insert) with. Call *before*
    /// decoding the page.
    #[must_use]
    pub fn begin_insert(&self, id: PageId) -> u64 {
        self.shard(id).lock().generation
    }

    /// Completes a miss-fill started at generation `gen`. The value is
    /// installed only if no writer touched the shard in between; a stale
    /// decode is rejected (and counted). Returns whether it was installed.
    pub fn try_insert(&self, id: PageId, value: Arc<T>, gen: u64) -> bool {
        let mut shard = self.shard(id).lock();
        if shard.generation != gen {
            drop(shard);
            self.stats.record_stale_rejection();
            return false;
        }
        let (evicted, _) = shard.put(id, value);
        drop(shard);
        self.stats.record_insertion();
        if evicted {
            self.stats.record_eviction();
        }
        true
    }

    /// Writer path: installs the authoritative decoded value for `id`
    /// (write-through), bumping the shard generation so concurrent
    /// miss-fills of older bytes are rejected. Replacing an existing
    /// entry counts as an invalidation of the old value.
    pub fn install(&self, id: PageId, value: Arc<T>) {
        let mut shard = self.shard(id).lock();
        shard.generation += 1;
        let (evicted, replaced) = shard.put(id, value);
        drop(shard);
        self.stats.record_insertion();
        if evicted {
            self.stats.record_eviction();
        }
        if replaced {
            self.stats.record_invalidation();
        }
    }

    /// Writer path: drops `id` (page freed / contents dead), bumping the
    /// shard generation. Counts an invalidation when an entry was present.
    pub fn invalidate(&self, id: PageId) {
        let mut shard = self.shard(id).lock();
        shard.generation += 1;
        let removed = shard.remove(id);
        drop(shard);
        if removed {
            self.stats.record_invalidation();
        }
    }

    /// Drops every cached value (generations bump, counters are kept).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut shard = shard.lock();
            shard.generation += 1;
            shard.map.clear();
            loop {
                let CacheShard { lru, links, .. } = &mut *shard;
                let Some(idx) = lru.pop_lru(links) else { break };
                shard.slots[idx] = None;
                shard.free.push(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize, shards: usize) -> DecodedCache<u64> {
        DecodedCache::new(capacity, shards)
    }

    fn fill(c: &DecodedCache<u64>, id: u32, v: u64) -> bool {
        let gen = c.begin_insert(PageId(id));
        c.try_insert(PageId(id), Arc::new(v), gen)
    }

    #[test]
    fn miss_then_hit() {
        let c = cache(4, 1);
        assert!(c.get(PageId(1)).is_none());
        assert!(fill(&c, 1, 11));
        assert_eq!(*c.get(PageId(1)).unwrap(), 11);
        let s = c.snapshot();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.hit_rate(), Some(0.5));
    }

    #[test]
    fn lru_eviction_order() {
        let c = cache(2, 1);
        assert!(fill(&c, 1, 1));
        assert!(fill(&c, 2, 2));
        let _ = c.get(PageId(1)); // 2 becomes LRU
        assert!(fill(&c, 3, 3)); // evicts 2
        assert_eq!(c.len(), 2);
        assert!(c.get(PageId(2)).is_none());
        assert!(c.get(PageId(1)).is_some());
        assert!(c.get(PageId(3)).is_some());
        assert_eq!(c.snapshot().evictions, 1);
    }

    #[test]
    fn stale_fill_is_rejected() {
        let c = cache(4, 1);
        let gen = c.begin_insert(PageId(7));
        // A writer intervenes between begin_insert and try_insert.
        c.install(PageId(7), Arc::new(99));
        assert!(!c.try_insert(PageId(7), Arc::new(1), gen));
        // The writer's value survives.
        assert_eq!(*c.get(PageId(7)).unwrap(), 99);
        assert_eq!(c.snapshot().stale_rejections, 1);
    }

    #[test]
    fn invalidate_drops_and_stamps() {
        let c = cache(4, 1);
        let gen = c.begin_insert(PageId(3));
        assert!(fill(&c, 3, 3));
        c.invalidate(PageId(3));
        assert!(c.get(PageId(3)).is_none());
        assert_eq!(c.snapshot().invalidations, 1);
        // The pre-invalidation generation is dead even for fresh inserts.
        assert!(!c.try_insert(PageId(3), Arc::new(4), gen));
        // Invalidating an absent key bumps no counter.
        c.invalidate(PageId(100));
        assert_eq!(c.snapshot().invalidations, 1);
    }

    #[test]
    fn install_replaces_and_counts_invalidation() {
        let c = cache(4, 1);
        assert!(fill(&c, 5, 50));
        c.install(PageId(5), Arc::new(51));
        assert_eq!(*c.get(PageId(5)).unwrap(), 51);
        let s = c.snapshot();
        assert_eq!(s.insertions, 2);
        assert_eq!(s.invalidations, 1);
    }

    #[test]
    fn sharding_respects_total_capacity_and_striping() {
        let c = cache(5, 2); // budgets 3 + 2
        assert_eq!(c.shard_count(), 2);
        for i in 0..20u32 {
            assert!(fill(&c, i, u64::from(i)));
        }
        assert!(c.len() <= 5);
        // Entries survive per-shard LRU independently.
        for i in 0..20u32 {
            if let Some(v) = c.get(PageId(i)) {
                assert_eq!(*v, u64::from(i));
            }
        }
    }

    #[test]
    fn shard_count_clamped_to_capacity() {
        let c = cache(2, 8);
        assert_eq!(c.shard_count(), 2);
        assert!(fill(&c, 0, 0));
        assert!(fill(&c, 1, 1));
        assert!(c.len() <= 2);
    }

    #[test]
    fn clear_drops_everything_and_bumps_generations() {
        let c = cache(4, 2);
        let gen = c.begin_insert(PageId(0));
        assert!(fill(&c, 0, 0));
        assert!(fill(&c, 1, 1));
        c.clear();
        assert!(c.is_empty());
        assert!(c.get(PageId(0)).is_none());
        assert!(!c.try_insert(PageId(0), Arc::new(9), gen));
        // A post-clear fill works again.
        assert!(fill(&c, 0, 7));
        assert_eq!(*c.get(PageId(0)).unwrap(), 7);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = cache(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = cache(4, 0);
    }

    #[test]
    fn concurrent_readers_and_writer_never_see_torn_state() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let c = Arc::new(cache(64, 4));
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = &c;
                let stop = &stop;
                s.spawn(move || {
                    let mut x = 0x9e3779b9u64.wrapping_add(t);
                    while !stop.load(Ordering::Relaxed) {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let id = PageId((x % 128) as u32);
                        match x % 4 {
                            0 => {
                                let _ = fill(c, id.0, u64::from(id.0));
                            }
                            1 => c.install(id, Arc::new(u64::from(id.0))),
                            2 => c.invalidate(id),
                            _ => {
                                if let Some(v) = c.get(id) {
                                    // Values are keyed by id; a hit must
                                    // return the id's own value.
                                    assert_eq!(*v, u64::from(id.0));
                                }
                            }
                        }
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
            stop.store(true, Ordering::Relaxed);
        });
        assert!(c.len() <= 64);
    }
}
