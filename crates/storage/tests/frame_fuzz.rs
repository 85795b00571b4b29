//! The frame level of the wire stack under hostile bytes. Whatever a
//! socket or a disk hands [`read_frame`] and [`Wal::open`] — a truncated,
//! bit-flipped, spliced or random string — comes back as a typed error or
//! as payloads that re-frame identically; never a panic, never an
//! allocation sized by the input. Seeded, so a failure replays.

use std::path::PathBuf;

use cij_storage::frame::{read_frame, write_frame, FrameError, FRAME_HEADER, MAX_FRAME_LEN};
use cij_storage::Wal;

#[path = "common/bytes.rs"]
mod bytes;
use bytes::{hex, hostile_variants, random_strings, unhex};

/// `b"123456789"`, `b""` and `b"cij"` as the first build wrote them: the
/// CRC-32 check value `0xCBF43926` sits in the first header.
const GOLDEN_FRAMES: &str = "090000002639f4cb313233343536373839\
    0000000000000000\
    03000000c3f488ac63696a";

const PAYLOADS: [&[u8]; 3] = [b"123456789", b"", b"cij"];

struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("cij-frame-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Self(path)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn frames_are_written_and_read_as_the_golden_bytes() {
    let mut written = Vec::new();
    for payload in PAYLOADS {
        write_frame(&mut written, payload).expect("write");
    }
    assert_eq!(hex(&written), hex(&unhex(GOLDEN_FRAMES)));

    let golden = unhex(GOLDEN_FRAMES);
    let mut rest = &golden[..];
    for payload in PAYLOADS {
        assert_eq!(read_frame(&mut rest).expect("read"), payload);
    }
    assert!(rest.is_empty());

    // A flipped payload byte is a checksum mismatch; a frame cut short is
    // the source ending (a torn tail, a dropped connection).
    let mut flipped = golden.clone();
    flipped[FRAME_HEADER] ^= 0xFF;
    assert!(matches!(
        read_frame(&mut &flipped[..]),
        Err(FrameError::Corrupt(_))
    ));
    let short = &golden[..FRAME_HEADER + 3];
    assert!(matches!(
        read_frame(&mut &short[..]),
        Err(FrameError::Io(_))
    ));
}

#[test]
fn the_sender_refuses_exactly_what_the_receiver_would() {
    // One byte over the limit: refused before anything reaches the sink,
    // with the limit in the message.
    let mut sink = Vec::new();
    let over = vec![0u8; MAX_FRAME_LEN + 1];
    match write_frame(&mut sink, &over) {
        Err(e @ FrameError::TooLarge { len }) => {
            assert_eq!(len, MAX_FRAME_LEN + 1);
            assert!(e.to_string().contains(&MAX_FRAME_LEN.to_string()), "{e}");
        }
        other => panic!("expected TooLarge, got {other:?}"),
    }
    assert!(sink.is_empty(), "a refused frame must write nothing");

    // The same length announced by a peer: corrupt, before allocating.
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
    hostile.extend_from_slice(&[0u8; 12]);
    assert!(matches!(
        read_frame(&mut &hostile[..]),
        Err(FrameError::Corrupt(_))
    ));

    // Exactly the limit passes both ways.
    write_frame(&mut sink, &over[1..]).expect("a frame at the limit is legal");
    assert_eq!(sink.len(), FRAME_HEADER + MAX_FRAME_LEN);
    assert_eq!(
        read_frame(&mut &sink[..]).expect("read").len(),
        MAX_FRAME_LEN
    );
}

/// Reads frames until the first error; every frame read must re-frame to
/// the bytes it came from.
fn drain(mut rest: &[u8]) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    while !rest.is_empty() {
        let before = rest;
        let Ok(payload) = read_frame(&mut rest) else {
            break;
        };
        let mut again = Vec::new();
        write_frame(&mut again, &payload).expect("a frame that was read can be written");
        assert_eq!(again, before[..before.len() - rest.len()]);
        frames.push(payload);
    }
    frames
}

#[test]
fn read_frame_survives_hostile_bytes() {
    let golden = unhex(GOLDEN_FRAMES);
    let mut fed = 0usize;
    let mut feed = |bytes: &[u8]| {
        fed += 1;
        assert!(drain(bytes).len() <= PAYLOADS.len() + 1);
    };
    hostile_variants(&golden, 0xF4A3E, 10_000, &mut feed);
    random_strings(0xF4A3F, 2_000, 48, &golden[..FRAME_HEADER], &mut feed);
    assert!(fed > 12_000);
}

#[test]
fn wal_open_survives_a_hostile_file() {
    let golden = unhex(GOLDEN_FRAMES);
    let tmp = TempFile::new("wal-fuzz");
    let mut opened = 0usize;
    let mut feed = |bytes: &[u8]| {
        opened += 1;
        std::fs::write(&tmp.0, bytes).expect("write image");
        let (mut wal, recovery) = Wal::open(&tmp.0).expect("open never fails on content");
        // What recovery returns is what a plain frame scan returns, and
        // the file is cut back to exactly that.
        assert_eq!(recovery.records, drain(bytes));
        assert!(recovery.durable_len <= bytes.len() as u64);
        assert_eq!(
            recovery.tail_corrupt,
            recovery.durable_len < bytes.len() as u64
        );
        assert_eq!(
            std::fs::metadata(&tmp.0).expect("stat").len(),
            recovery.durable_len
        );
        // The log is usable again: an append lands after the durable
        // prefix and the next open sees a clean file.
        wal.append(b"next").expect("append");
        drop(wal);
        let (_, again) = Wal::open(&tmp.0).expect("reopen");
        assert!(!again.tail_corrupt);
        assert_eq!(again.records.len(), recovery.records.len() + 1);
        assert_eq!(again.records.last().map(Vec::as_slice), Some(&b"next"[..]));
    };
    hostile_variants(&golden, 0x3A10, 2_000, &mut feed);
    random_strings(0x3A11, 500, 48, &golden[..FRAME_HEADER], &mut feed);
    assert!(opened > 2_500);
}
