//! The simulated disk: a flat page space with allocation and physical I/O
//! accounting.

use std::sync::{Arc, Mutex};

use crate::{sync, IoStats, PageBuf, PageId, StorageError, StorageResult, PAGE_SIZE};

/// Abstraction over the physical page device.
///
/// Implementations count *physical* I/O on every read/write; the buffer
/// pool in front of a store is what turns logical accesses into (fewer)
/// physical ones.
pub trait PageStore: Send + Sync {
    /// Allocates a fresh zeroed page and returns its id.
    fn allocate(&self) -> PageId;

    /// Releases a page; its id may be recycled by future allocations.
    fn free(&self, id: PageId) -> StorageResult<()>;

    /// Copies the page contents into `out`.
    fn read(&self, id: PageId, out: &mut [u8; PAGE_SIZE]) -> StorageResult<()>;

    /// Overwrites the page contents with `data`.
    fn write(&self, id: PageId, data: &[u8; PAGE_SIZE]) -> StorageResult<()>;

    /// Number of live (allocated, not freed) pages.
    fn live_pages(&self) -> usize;

    /// The shared I/O counters for this device.
    fn stats(&self) -> &Arc<IoStats>;
}

/// An in-memory [`PageStore`].
///
/// Stands in for the disk of the paper's testbed: contents are held in
/// RAM, but every read/write is tallied, so "number of disk I/Os" — the
/// paper's hardware-independent metric — is reproduced exactly while the
/// experiments stay fast enough to sweep 100 K-object workloads.
pub struct InMemoryStore {
    inner: Mutex<StoreInner>,
    stats: Arc<IoStats>,
}

struct StoreInner {
    pages: Vec<Option<PageBuf>>,
    free_list: Vec<u32>,
}

impl InMemoryStore {
    /// Creates an empty store with fresh counters.
    #[must_use]
    pub fn new() -> Self {
        Self::with_stats(Arc::new(IoStats::new()))
    }

    /// Creates an empty store sharing externally-owned counters (so two
    /// trees on the same simulated disk report into one ledger).
    #[must_use]
    pub fn with_stats(stats: Arc<IoStats>) -> Self {
        Self {
            inner: Mutex::new(StoreInner {
                pages: Vec::new(),
                free_list: Vec::new(),
            }),
            stats,
        }
    }
}

impl Default for InMemoryStore {
    fn default() -> Self {
        Self::new()
    }
}

impl PageStore for InMemoryStore {
    fn allocate(&self) -> PageId {
        let mut inner = sync::lock(&self.inner);
        self.stats.record_alloc();
        if let Some(idx) = inner.free_list.pop() {
            inner.pages[idx as usize] = Some(crate::zeroed_page());
            PageId(idx)
        } else {
            inner.pages.push(Some(crate::zeroed_page()));
            PageId(u32::try_from(inner.pages.len() - 1).expect("page space < 2^32"))
        }
    }

    fn free(&self, id: PageId) -> StorageResult<()> {
        let mut inner = sync::lock(&self.inner);
        let slot = inner
            .pages
            .get_mut(id.0 as usize)
            .ok_or(StorageError::PageNotFound(id))?;
        if slot.take().is_none() {
            return Err(StorageError::PageNotFound(id));
        }
        inner.free_list.push(id.0);
        self.stats.record_free();
        Ok(())
    }

    fn read(&self, id: PageId, out: &mut [u8; PAGE_SIZE]) -> StorageResult<()> {
        let inner = sync::lock(&self.inner);
        let page = inner
            .pages
            .get(id.0 as usize)
            .and_then(|p| p.as_ref())
            .ok_or(StorageError::PageNotFound(id))?;
        out.copy_from_slice(&page[..]);
        self.stats.record_physical_read();
        Ok(())
    }

    fn write(&self, id: PageId, data: &[u8; PAGE_SIZE]) -> StorageResult<()> {
        let mut inner = sync::lock(&self.inner);
        let page = inner
            .pages
            .get_mut(id.0 as usize)
            .and_then(|p| p.as_mut())
            .ok_or(StorageError::PageNotFound(id))?;
        page.copy_from_slice(&data[..]);
        self.stats.record_physical_write();
        Ok(())
    }

    fn live_pages(&self) -> usize {
        let inner = sync::lock(&self.inner);
        inner.pages.iter().filter(|p| p.is_some()).count()
    }

    fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_read_write_roundtrip() {
        let store = InMemoryStore::new();
        let id = store.allocate();
        let mut page = crate::zeroed_page();
        page[0] = 0xAB;
        page[PAGE_SIZE - 1] = 0xCD;
        store.write(id, &page).unwrap();
        let mut out = crate::zeroed_page();
        store.read(id, &mut out).unwrap();
        assert_eq!(out[0], 0xAB);
        assert_eq!(out[PAGE_SIZE - 1], 0xCD);
    }

    #[test]
    fn fresh_pages_are_zeroed() {
        let store = InMemoryStore::new();
        let id = store.allocate();
        let mut out = crate::zeroed_page();
        out[7] = 99;
        store.read(id, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn free_then_access_fails() {
        let store = InMemoryStore::new();
        let id = store.allocate();
        store.free(id).unwrap();
        let mut out = crate::zeroed_page();
        assert_eq!(
            store.read(id, &mut out),
            Err(StorageError::PageNotFound(id))
        );
        assert_eq!(store.free(id), Err(StorageError::PageNotFound(id)));
    }

    #[test]
    fn freed_ids_are_recycled_zeroed() {
        let store = InMemoryStore::new();
        let a = store.allocate();
        let mut page = crate::zeroed_page();
        page[0] = 1;
        store.write(a, &page).unwrap();
        store.free(a).unwrap();
        let b = store.allocate();
        assert_eq!(a, b, "free list should recycle ids");
        let mut out = crate::zeroed_page();
        out[0] = 42;
        store.read(b, &mut out).unwrap();
        assert_eq!(out[0], 0, "recycled page must be zeroed");
    }

    #[test]
    fn live_pages_counts() {
        let store = InMemoryStore::new();
        let a = store.allocate();
        let _b = store.allocate();
        assert_eq!(store.live_pages(), 2);
        store.free(a).unwrap();
        assert_eq!(store.live_pages(), 1);
    }

    #[test]
    fn physical_io_is_counted() {
        let store = InMemoryStore::new();
        let id = store.allocate();
        let page = crate::zeroed_page();
        store.write(id, &page).unwrap();
        let mut out = crate::zeroed_page();
        store.read(id, &mut out).unwrap();
        store.read(id, &mut out).unwrap();
        let snap = store.stats().snapshot();
        assert_eq!(snap.physical_writes, 1);
        assert_eq!(snap.physical_reads, 2);
        assert_eq!(snap.allocations, 1);
    }
}
