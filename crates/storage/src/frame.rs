//! The one frame of the wire stack: length + CRC32 around an opaque
//! payload.
//!
//! ```text
//! [len: u32 LE][crc32(payload): u32 LE][payload: len bytes]
//! ```
//!
//! The [`Wal`](crate::Wal) is a file of these frames and the TCP
//! transport of `cij-dist` a stream of them, through the same two
//! functions — so a sender refuses exactly the payloads a receiver would
//! reject, and there is one [`MAX_FRAME_LEN`].

use std::io::{Read, Write};

/// Upper bound on a frame's payload. [`write_frame`] refuses to send more
/// and [`read_frame`] treats a larger length field as corruption rather
/// than honouring it with a huge allocation.
pub const MAX_FRAME_LEN: usize = 1 << 24; // 16 MiB

/// Bytes a frame adds to its payload (length + checksum).
pub const FRAME_HEADER: usize = 8;

/// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 checksum of `bytes` (IEEE polynomial, as in zlib/PNG).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Why a frame was not written or not read.
#[derive(Debug)]
pub enum FrameError {
    /// The sink or source failed; end of input inside a frame (a torn
    /// tail, a dropped connection) is `UnexpectedEof` here.
    Io(std::io::Error),
    /// [`write_frame`] refused a payload above [`MAX_FRAME_LEN`]; nothing
    /// was written. Deterministic: sending again fails the same way.
    TooLarge {
        /// The refused payload's length.
        len: usize,
    },
    /// [`read_frame`] rejected the bytes: a length field above
    /// [`MAX_FRAME_LEN`] or a checksum mismatch.
    Corrupt(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "frame I/O error: {e}"),
            Self::TooLarge { len } => write!(
                f,
                "payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte frame limit"
            ),
            Self::Corrupt(msg) => write!(f, "corrupt frame: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Writes `payload` as one frame and flushes the sink.
///
/// # Errors
/// [`FrameError::TooLarge`] before anything is written;
/// [`FrameError::Io`] from the sink.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    let len = match u32::try_from(payload.len()) {
        Ok(len) if payload.len() <= MAX_FRAME_LEN => len,
        _ => return Err(FrameError::TooLarge { len: payload.len() }),
    };
    let mut header = [0u8; FRAME_HEADER];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    Ok(w.flush()?)
}

/// Reads one frame and verifies its checksum.
///
/// # Errors
/// [`FrameError::Io`] when the source fails or ends inside the frame;
/// [`FrameError::Corrupt`] on an oversized length field (before
/// allocating for it) or a checksum mismatch.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; FRAME_HEADER];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Corrupt(format!(
            "length field {len} exceeds the {MAX_FRAME_LEN}-byte frame limit"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    if crc32(&payload) != crc {
        return Err(FrameError::Corrupt("checksum mismatch".into()));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
