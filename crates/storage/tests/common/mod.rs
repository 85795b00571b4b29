//! Shared by the storage integration tests.

use std::sync::Arc;

use cij_storage::{InMemoryStore, IoStats, PageId, PageStore, StorageResult, PAGE_SIZE};

/// An [`InMemoryStore`] that reports every physical read and write it is
/// asked for — `spy(is_write, page)`, on the calling thread, before the
/// operation — so a test can see what the pool does to the disk.
pub struct SpyStore<F> {
    pub inner: InMemoryStore,
    pub spy: F,
}

impl<F: Fn(bool, PageId) + Send + Sync> PageStore for SpyStore<F> {
    fn allocate(&self) -> PageId {
        self.inner.allocate()
    }
    fn free(&self, id: PageId) -> StorageResult<()> {
        self.inner.free(id)
    }
    fn read(&self, id: PageId, out: &mut [u8; PAGE_SIZE]) -> StorageResult<()> {
        (self.spy)(false, id);
        self.inner.read(id, out)
    }
    fn write(&self, id: PageId, data: &[u8; PAGE_SIZE]) -> StorageResult<()> {
        (self.spy)(true, id);
        self.inner.write(id, data)
    }
    fn live_pages(&self) -> usize {
        self.inner.live_pages()
    }
    fn stats(&self) -> &Arc<IoStats> {
        self.inner.stats()
    }
}
