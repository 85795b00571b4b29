//! Bounds-checked little-endian record codec.
//!
//! Variable-length records — the [`wal`](crate::wal) frames, the stream
//! subsystem's journal payloads and wire frames, the dist protocol —
//! are written through the growable [`ByteWriter`] and read back through
//! the bounds-checked [`ByteReader`]. The reader is a plain cursor over
//! the record bytes; every access is bounds-checked and surfaces
//! [`StorageError::PageOverflow`] instead of panicking, so a truncated or
//! corrupt record turns into an error the caller can report.
//!
//! Tree nodes do not pass through here: they are laid out and read in
//! place by the zero-copy page format of `cij-tpr`.

use crate::{StorageError, StorageResult};

/// Growable little-endian writer for variable-length records.
///
/// It never overflows — the buffer grows on demand — so every `put_*`
/// is infallible.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Starts an empty record.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts an empty record with `cap` bytes preallocated.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer and returns the record bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16` (little-endian).
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` (IEEE-754 bits, little-endian).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Bounds-checked little-endian reader over a variable-length record.
///
/// Overruns surface as [`StorageError::PageOverflow`] (the offsets in the
/// error are record offsets here, not page offsets), so a truncated or
/// corrupt record decodes into an error instead of a panic.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading at offset 0.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current offset.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> StorageResult<&'a [u8]> {
        // `checked_add`: a hostile `n` near `usize::MAX` would wrap the
        // naive `pos + n` in release builds and bypass the bounds check.
        let end = match self.pos.checked_add(n) {
            Some(end) if end <= self.buf.len() => end,
            _ => {
                return Err(StorageError::PageOverflow {
                    offset: self.pos,
                    requested: n,
                });
            }
        };
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> StorageResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn get_u16(&mut self) -> StorageResult<u16> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> StorageResult<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> StorageResult<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64`.
    pub fn get_f64(&mut self) -> StorageResult<f64> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> StorageResult<&'a [u8]> {
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = ByteWriter::new();
        w.put_u8(0xFE);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_f64(-1234.5678e9);
        w.put_f64(f64::INFINITY);
        w.put_f64(f64::NEG_INFINITY);
        w.put_bytes(b"hello");
        assert_eq!(w.len(), 1 + 2 + 4 + 8 + 8 + 8 + 8 + 5);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xFE);
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_f64().unwrap(), -1234.5678e9);
        assert_eq!(r.get_f64().unwrap(), f64::INFINITY);
        assert_eq!(r.get_f64().unwrap(), f64::NEG_INFINITY);
        assert_eq!(r.get_bytes(5).unwrap(), b"hello");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        // A payload NaN, not the canonical one: the bits must survive.
        let nan = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let mut w = ByteWriter::new();
        w.put_f64(nan);
        let bytes = w.into_bytes();
        let back = ByteReader::new(&bytes).get_f64().unwrap();
        assert!(back.is_nan());
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    /// Regression: `pos + n` used to be computed unchecked, so a length
    /// near `usize::MAX` wrapped in release builds and sailed past the
    /// bounds check straight into a slice panic (or worse). The reader
    /// must reject it as a clean `PageOverflow` and stay usable.
    #[test]
    fn huge_length_does_not_wrap_bounds_check() {
        let bytes = [1u8, 2, 3, 4];
        let mut br = ByteReader::new(&bytes);
        br.get_u16().unwrap();
        assert_eq!(
            br.get_bytes(usize::MAX),
            Err(StorageError::PageOverflow {
                offset: 2,
                requested: usize::MAX
            })
        );
        assert_eq!(br.position(), 2, "failed read must not advance");
        assert!(br.get_u16().is_ok());
    }

    #[test]
    fn byte_reader_overrun_is_an_error() {
        let mut w = ByteWriter::with_capacity(4);
        w.put_u32(7);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u16().unwrap(), 7);
        assert_eq!(
            r.get_u32(),
            Err(StorageError::PageOverflow {
                offset: 2,
                requested: 4
            })
        );
        // A failed read does not advance.
        assert_eq!(r.position(), 2);
        assert!(r.get_u16().is_ok());
    }
}
