//! A file-backed [`PageStore`]: the genuinely disk-resident option.
//!
//! [`InMemoryStore`](crate::InMemoryStore) reproduces the paper's I/O
//! *counts* while staying fast; `FileStore` additionally pays real disk
//! latency — pages live at `page_id × PAGE_SIZE` offsets in a single
//! file, read and written with positioned I/O. Free-list state is kept in
//! memory (rebuilding it on open is out of scope: the experiments always
//! start from an empty index, and durability of the *allocator* is not
//! part of the paper's model — the data pages themselves are durable).

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::{sync, IoStats, PageId, PageStore, StorageError, StorageResult, PAGE_SIZE};

/// A [`PageStore`] persisting pages to a single file.
pub struct FileStore {
    inner: Mutex<FileInner>,
    stats: Arc<IoStats>,
}

struct FileInner {
    file: File,
    /// Number of page slots ever allocated (file length / PAGE_SIZE).
    slots: u32,
    /// Allocation bitmap: `true` = live.
    live: Vec<bool>,
    free_list: Vec<u32>,
}

impl FileStore {
    /// Creates (truncating) a store at `path`.
    pub fn create(path: &Path) -> StorageResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(io_err)?;
        Ok(Self {
            inner: Mutex::new(FileInner {
                file,
                slots: 0,
                live: Vec::new(),
                free_list: Vec::new(),
            }),
            stats: Arc::new(IoStats::new()),
        })
    }

    /// Flushes file contents to the OS (used by tests and shutdown
    /// paths; the simulation itself measures page I/O, not fsyncs).
    pub fn sync(&self) -> StorageResult<()> {
        sync::lock(&self.inner).file.sync_data().map_err(io_err)
    }
}

fn io_err(e: std::io::Error) -> StorageError {
    StorageError::Corrupt(format!("file I/O error: {e}"))
}

impl PageStore for FileStore {
    fn allocate(&self) -> PageId {
        let mut inner = sync::lock(&self.inner);
        self.stats.record_alloc();
        if let Some(idx) = inner.free_list.pop() {
            inner.live[idx as usize] = true;
            // Zero the recycled slot so fresh pages read back zeroed.
            let zero = crate::zeroed_page();
            let _ = inner
                .file
                .seek(SeekFrom::Start(u64::from(idx) * PAGE_SIZE as u64))
                .and_then(|_| inner.file.write_all(&zero[..]));
            return PageId(idx);
        }
        let idx = inner.slots;
        inner.slots += 1;
        inner.live.push(true);
        let zero = crate::zeroed_page();
        let _ = inner
            .file
            .seek(SeekFrom::Start(u64::from(idx) * PAGE_SIZE as u64))
            .and_then(|_| inner.file.write_all(&zero[..]));
        PageId(idx)
    }

    fn free(&self, id: PageId) -> StorageResult<()> {
        let mut inner = sync::lock(&self.inner);
        let slot = inner
            .live
            .get_mut(id.0 as usize)
            .ok_or(StorageError::PageNotFound(id))?;
        if !*slot {
            return Err(StorageError::PageNotFound(id));
        }
        *slot = false;
        inner.free_list.push(id.0);
        self.stats.record_free();
        Ok(())
    }

    fn read(&self, id: PageId, out: &mut [u8; PAGE_SIZE]) -> StorageResult<()> {
        let mut inner = sync::lock(&self.inner);
        if !inner.live.get(id.0 as usize).copied().unwrap_or(false) {
            return Err(StorageError::PageNotFound(id));
        }
        inner
            .file
            .seek(SeekFrom::Start(u64::from(id.0) * PAGE_SIZE as u64))
            .map_err(io_err)?;
        inner.file.read_exact(&mut out[..]).map_err(io_err)?;
        self.stats.record_physical_read();
        Ok(())
    }

    fn write(&self, id: PageId, data: &[u8; PAGE_SIZE]) -> StorageResult<()> {
        let mut inner = sync::lock(&self.inner);
        if !inner.live.get(id.0 as usize).copied().unwrap_or(false) {
            return Err(StorageError::PageNotFound(id));
        }
        inner
            .file
            .seek(SeekFrom::Start(u64::from(id.0) * PAGE_SIZE as u64))
            .map_err(io_err)?;
        inner.file.write_all(&data[..]).map_err(io_err)?;
        self.stats.record_physical_write();
        Ok(())
    }

    fn live_pages(&self) -> usize {
        sync::lock(&self.inner).live.iter().filter(|&&l| l).count()
    }

    fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempFile(std::path::PathBuf);
    impl TempFile {
        fn new(name: &str) -> Self {
            let mut p = std::env::temp_dir();
            p.push(format!("cij-filestore-{}-{}", std::process::id(), name));
            Self(p)
        }
    }
    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn roundtrip_on_disk() {
        let tmp = TempFile::new("roundtrip");
        let store = FileStore::create(&tmp.0).unwrap();
        let a = store.allocate();
        let b = store.allocate();
        let mut page = crate::zeroed_page();
        page[0] = 0xAA;
        page[PAGE_SIZE - 1] = 0xBB;
        store.write(a, &page).unwrap();
        page[0] = 0xCC;
        store.write(b, &page).unwrap();
        store.sync().unwrap();

        let mut out = crate::zeroed_page();
        store.read(a, &mut out).unwrap();
        assert_eq!((out[0], out[PAGE_SIZE - 1]), (0xAA, 0xBB));
        store.read(b, &mut out).unwrap();
        assert_eq!(out[0], 0xCC);
        assert_eq!(store.live_pages(), 2);
        // The backing file has exactly two pages.
        assert_eq!(
            std::fs::metadata(&tmp.0).unwrap().len(),
            2 * PAGE_SIZE as u64
        );
    }

    #[test]
    fn free_and_recycle_zeroes() {
        let tmp = TempFile::new("recycle");
        let store = FileStore::create(&tmp.0).unwrap();
        let a = store.allocate();
        let mut page = crate::zeroed_page();
        page[7] = 9;
        store.write(a, &page).unwrap();
        store.free(a).unwrap();
        let mut out = crate::zeroed_page();
        assert_eq!(store.read(a, &mut out), Err(StorageError::PageNotFound(a)));
        let b = store.allocate();
        assert_eq!(a, b);
        out[7] = 1;
        store.read(b, &mut out).unwrap();
        assert_eq!(out[7], 0, "recycled page must read back zeroed");
    }

    #[test]
    fn works_under_buffer_pool_and_tree_sized_load() {
        let tmp = TempFile::new("pool");
        let store = Arc::new(FileStore::create(&tmp.0).unwrap());
        let pool = crate::BufferPool::new(store, crate::BufferPoolConfig::with_capacity(8));
        // Write/read far more pages than the pool holds.
        let ids: Vec<PageId> = (0..64).map(|_| pool.allocate()).collect();
        for (i, &id) in ids.iter().enumerate() {
            let mut page = crate::zeroed_page();
            page[0] = i as u8;
            pool.write(id, &page).unwrap();
        }
        for (i, &id) in ids.iter().enumerate() {
            let byte = pool.read(id, |p| p[0]).unwrap();
            assert_eq!(byte, i as u8);
        }
        assert!(pool.resident() <= 8);
    }
}
