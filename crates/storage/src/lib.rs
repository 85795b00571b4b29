//! # cij-storage — disk simulation for the CIJ stack
//!
//! The paper's evaluation (§VI-A) assumes disk-resident indexes: 4 KB
//! pages behind an LRU buffer of 50 pages, with *number of disk I/Os* as
//! one of the two reported metrics. This crate reproduces that setup in
//! process:
//!
//! * [`PageId`] / [`PAGE_SIZE`] — fixed-size page addressing.
//! * [`PageStore`] / [`InMemoryStore`] — the "disk": a flat page space
//!   with physical read/write counters.
//! * [`BufferPool`] — a shared, thread-safe LRU buffer pool in front of a
//!   store; every index node access in `cij-tpr` goes through it, so the
//!   I/O numbers the benchmark harness reports follow the paper's
//!   methodology (buffer hits are free, misses cost a physical read,
//!   dirty evictions cost a physical write).
//! * [`IoStats`] — counters with snapshot/delta arithmetic for per-phase
//!   accounting (initial join vs. maintenance).
//! * [`CacheStats`] — the page-format counter a tree keeps beside the
//!   pool's I/O counters (node pages read through the zero-copy view).
//! * [`codec`] — bounds-checked little-endian cursors used to serialize
//!   variable-length journal and wire records.
//! * [`frame`] — the one `[len][crc32][payload]` frame (and its size
//!   limit) both the log and the `cij-dist` TCP transport write and read.
//! * [`wal`] — a write-ahead log of those frames with torn-tail
//!   recovery, the durability substrate of the `cij-stream` service.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod codec;
mod error;
mod file_store;
pub mod frame;
mod pool;
mod stats;
mod store;
pub mod wal;

pub use error::{StorageError, StorageResult};
pub use file_store::FileStore;
pub use pool::{BufferPool, BufferPoolConfig};
pub use stats::{CacheSnapshot, CacheStats, IoSnapshot, IoStats};
pub use store::{InMemoryStore, PageStore};
pub use wal::{Wal, WalRecovery, WalStats};

/// Size of a disk page in bytes (paper §VI-A: "the disk page size is 4K
/// bytes").
pub const PAGE_SIZE: usize = 4096;

/// Default buffer pool capacity in pages (paper §VI-A: "an LRU buffer
/// with 50 pages is used").
pub const DEFAULT_POOL_PAGES: usize = 50;

/// Identifier of a disk page. Allocated densely by the store; never
/// reused until freed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// Sentinel used in serialized nodes for "no page" (e.g. leaf child
    /// pointers).
    pub const INVALID: PageId = PageId(u32::MAX);

    /// Whether this id is the sentinel.
    #[inline]
    pub fn is_valid(self) -> bool {
        self != Self::INVALID
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

/// A fixed-size page buffer. Heap-allocated so frames move cheaply.
pub type PageBuf = Box<[u8; PAGE_SIZE]>;

/// Allocates a zeroed page buffer.
#[must_use]
pub fn zeroed_page() -> PageBuf {
    vec![0u8; PAGE_SIZE]
        .into_boxed_slice()
        .try_into()
        .expect("PAGE_SIZE-length vec converts to array")
}
