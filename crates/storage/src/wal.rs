//! Write-ahead log: an append-only file of [`frame`](crate::frame)s.
//!
//! The stream subsystem journals every ingested update batch here
//! *before* applying it to the engine, so a crash can lose at most the
//! batch whose frame never finished reaching the disk.
//!
//! Recovery ([`Wal::open`]) reads frames from the start and stops at the
//! first incomplete, oversized or CRC-mismatching one — the classic
//! torn-tail rule — then truncates the file back to the durable prefix so
//! new appends never interleave with garbage. Everything before the tear
//! is returned to the caller for replay.
//!
//! Payload contents are opaque bytes; callers encode them with
//! [`codec::ByteWriter`](crate::codec::ByteWriter).

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::Arc;

use cij_obs::{CounterCell, MetricsRegistry};

use crate::frame::{read_frame, write_frame, FRAME_HEADER};
use crate::{StorageError, StorageResult};

/// What [`Wal::open`] found in an existing log file.
#[derive(Debug)]
pub struct WalRecovery {
    /// Payloads of every intact record, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte length of the durable prefix (the file was truncated to
    /// this length).
    pub durable_len: u64,
    /// Whether a torn or corrupt tail was found (and cut off).
    pub tail_corrupt: bool,
}

/// Shared, thread-safe WAL activity counters, built on `cij-obs`
/// [`CounterCell`]s so they can be registered as a live view in a
/// [`MetricsRegistry`] (same pattern as [`IoStats`](crate::IoStats)).
#[derive(Debug, Default)]
pub struct WalStats {
    appends: Arc<CounterCell>,
    appended_bytes: Arc<CounterCell>,
    syncs: Arc<CounterCell>,
}

impl WalStats {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records appended this log's lifetime.
    #[must_use]
    pub fn appends(&self) -> u64 {
        self.appends.get()
    }

    /// Payload + frame bytes appended this log's lifetime.
    #[must_use]
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes.get()
    }

    /// `sync` calls this log's lifetime.
    #[must_use]
    pub fn syncs(&self) -> u64 {
        self.syncs.get()
    }

    /// Registers every counter in `registry` under `prefix` (e.g.
    /// `stream.wal` → `stream.wal.appends`, …), sharing this struct's
    /// atomics. No-op when the registry is disabled.
    pub fn register_in(&self, registry: &MetricsRegistry, prefix: &str) {
        for (name, cell) in [
            ("appends", &self.appends),
            ("appended_bytes", &self.appended_bytes),
            ("syncs", &self.syncs),
        ] {
            registry.register_counter_cell(&format!("{prefix}.{name}"), Arc::clone(cell));
        }
    }
}

/// An open write-ahead log, positioned for appending.
pub struct Wal {
    file: File,
    len: u64,
    stats: Arc<WalStats>,
}

fn io_err(e: std::io::Error) -> StorageError {
    StorageError::Corrupt(format!("WAL I/O error: {e}"))
}

impl Wal {
    /// Creates a fresh (truncated) log at `path`.
    pub fn create(path: &Path) -> StorageResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(io_err)?;
        Ok(Self {
            file,
            len: 0,
            stats: Arc::new(WalStats::new()),
        })
    }

    /// Opens (or creates) the log at `path`, scanning it for intact
    /// records and truncating any torn tail. The returned recovery holds
    /// every durable record for replay.
    pub fn open(path: &Path) -> StorageResult<(Self, WalRecovery)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(io_err)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io_err)?;

        let mut records = Vec::new();
        let mut rest = &bytes[..];
        let mut durable = 0usize;
        while !rest.is_empty() {
            let Ok(payload) = read_frame(&mut rest) else {
                break;
            };
            records.push(payload);
            durable = bytes.len() - rest.len();
        }
        let tail_corrupt = durable < bytes.len();

        let durable_len = durable as u64;
        if tail_corrupt {
            file.set_len(durable_len).map_err(io_err)?;
        }
        file.seek(SeekFrom::Start(durable_len)).map_err(io_err)?;
        Ok((
            Self {
                file,
                len: durable_len,
                stats: Arc::new(WalStats::new()),
            },
            WalRecovery {
                records,
                durable_len,
                tail_corrupt,
            },
        ))
    }

    /// Appends one record and returns the file length after the append.
    /// The record is durable (up to OS buffering; see [`Wal::sync`])
    /// once this returns.
    pub fn append(&mut self, payload: &[u8]) -> StorageResult<u64> {
        write_frame(&mut self.file, payload)
            .map_err(|e| StorageError::Corrupt(format!("WAL append: {e}")))?;
        self.len += (FRAME_HEADER + payload.len()) as u64;
        self.stats.appends.inc();
        self.stats
            .appended_bytes
            .add((FRAME_HEADER + payload.len()) as u64);
        Ok(self.len)
    }

    /// Flushes appended records to the OS.
    pub fn sync(&self) -> StorageResult<()> {
        self.stats.syncs.inc();
        self.file.sync_data().map_err(io_err)
    }

    /// Activity counters for this log (appends, bytes, syncs). The
    /// returned handle stays live across appends.
    #[must_use]
    pub fn stats(&self) -> Arc<WalStats> {
        Arc::clone(&self.stats)
    }

    /// Current file length in bytes.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    struct TempFile(PathBuf);
    impl TempFile {
        fn new(name: &str) -> Self {
            let mut p = std::env::temp_dir();
            p.push(format!("cij-wal-{}-{}", std::process::id(), name));
            let _ = std::fs::remove_file(&p);
            Self(p)
        }
    }
    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn append_and_recover_roundtrip() {
        let tmp = TempFile::new("roundtrip");
        {
            let mut wal = Wal::create(&tmp.0).unwrap();
            wal.append(b"alpha").unwrap();
            wal.append(b"").unwrap(); // empty payloads are legal
            wal.append(&[7u8; 1000]).unwrap();
            wal.sync().unwrap();
        }
        let (wal, rec) = Wal::open(&tmp.0).unwrap();
        assert!(!rec.tail_corrupt);
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.records[0], b"alpha");
        assert!(rec.records[1].is_empty());
        assert_eq!(rec.records[2], vec![7u8; 1000]);
        assert_eq!(wal.len(), rec.durable_len);
    }

    #[test]
    fn torn_payload_is_cut_back_to_last_record() {
        let tmp = TempFile::new("torn-payload");
        let keep;
        {
            let mut wal = Wal::create(&tmp.0).unwrap();
            keep = wal.append(b"first").unwrap();
            wal.append(b"second-record-payload").unwrap();
        }
        // Chop mid-way through the second record's payload.
        let f = OpenOptions::new().write(true).open(&tmp.0).unwrap();
        f.set_len(keep + FRAME_HEADER as u64 + 3).unwrap();
        drop(f);

        let (mut wal, rec) = Wal::open(&tmp.0).unwrap();
        assert!(rec.tail_corrupt);
        assert_eq!(rec.records, vec![b"first".to_vec()]);
        assert_eq!(rec.durable_len, keep);
        assert_eq!(std::fs::metadata(&tmp.0).unwrap().len(), keep);
        // Appending after recovery continues cleanly.
        wal.append(b"third").unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&tmp.0).unwrap();
        assert!(!rec.tail_corrupt);
        assert_eq!(rec.records, vec![b"first".to_vec(), b"third".to_vec()]);
    }

    #[test]
    fn torn_header_and_flipped_bit_are_detected() {
        let tmp = TempFile::new("torn-header");
        let keep;
        {
            let mut wal = Wal::create(&tmp.0).unwrap();
            keep = wal.append(b"solid").unwrap();
            wal.append(b"doomed").unwrap();
        }
        // Case 1: only 5 bytes of the second frame's header survive.
        let f = OpenOptions::new().write(true).open(&tmp.0).unwrap();
        f.set_len(keep + 5).unwrap();
        drop(f);
        let (_, rec) = Wal::open(&tmp.0).unwrap();
        assert!(rec.tail_corrupt);
        assert_eq!(rec.records, vec![b"solid".to_vec()]);

        // Case 2: full frame present but a payload bit flipped.
        {
            let mut wal = Wal::open(&tmp.0).unwrap().0;
            wal.append(b"doomed").unwrap();
        }
        let mut bytes = std::fs::read(&tmp.0).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&tmp.0, &bytes).unwrap();
        let (_, rec) = Wal::open(&tmp.0).unwrap();
        assert!(rec.tail_corrupt);
        assert_eq!(rec.records, vec![b"solid".to_vec()]);
        assert_eq!(rec.durable_len, keep);
    }

    #[test]
    fn oversized_length_field_is_corruption_not_allocation() {
        let tmp = TempFile::new("oversize");
        {
            let mut wal = Wal::create(&tmp.0).unwrap();
            wal.append(b"good").unwrap();
        }
        let mut bytes = std::fs::read(&tmp.0).unwrap();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd len
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        std::fs::write(&tmp.0, &bytes).unwrap();
        let (_, rec) = Wal::open(&tmp.0).unwrap();
        assert!(rec.tail_corrupt);
        assert_eq!(rec.records, vec![b"good".to_vec()]);
    }

    #[test]
    fn opening_a_missing_file_creates_an_empty_log() {
        let tmp = TempFile::new("fresh");
        let (wal, rec) = Wal::open(&tmp.0).unwrap();
        assert!(wal.is_empty());
        assert!(rec.records.is_empty());
        assert!(!rec.tail_corrupt);
    }
}
