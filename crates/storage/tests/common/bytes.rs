//! Byte-level helpers for the golden-bytes and decoder-fuzz suites of
//! `cij-storage`, `cij-stream` and `cij-dist` (the latter two include
//! this file by `#[path]`): hex constants, and the hostile inputs derived
//! from a known-good byte string.

#![allow(dead_code)] // each test crate uses a different subset

use cij_storage::frame::read_frame;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Inverse of [`hex`]; whitespace (line continuations in a constant) is
/// skipped.
pub fn unhex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert!(digits.len().is_multiple_of(2), "odd number of hex digits");
    digits
        .chunks(2)
        .map(|pair| {
            let s = std::str::from_utf8(pair).expect("ascii");
            u8::from_str_radix(s, 16).expect("hex digit")
        })
        .collect()
}

/// The payloads of a well-formed journal image, in order.
pub fn unframe(image: &[u8]) -> Vec<Vec<u8>> {
    let mut rest = image;
    let mut records = Vec::new();
    while !rest.is_empty() {
        records.push(read_frame(&mut rest).expect("intact frame"));
    }
    records
}

/// Values that sit on a decoder's edges when they land in a length, tag,
/// flag or `f64` field.
const EDGES: [u8; 8] = [0x00, 0x01, 0x02, 0x7F, 0x80, 0xF0, 0xF8, 0xFF];

fn byte(rng: &mut StdRng) -> u8 {
    rng.gen_range(0..=u8::MAX)
}

/// Feeds `sink` every strict prefix of `good`, then `mutations` seeded
/// variants of it: one to four positions overwritten with a random or an
/// edge byte, and now and then a run of `0xFF` (a huge count, a NaN), an
/// insertion or a deletion.
pub fn hostile_variants(good: &[u8], seed: u64, mutations: usize, mut sink: impl FnMut(&[u8])) {
    for cut in 0..good.len() {
        sink(&good[..cut]);
    }
    if good.is_empty() {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..mutations {
        let mut bytes = good.to_vec();
        match rng.gen_range(0..10u32) {
            0 => {
                let at = rng.gen_range(0..bytes.len());
                let run = rng.gen_range(1..=8usize).min(bytes.len() - at);
                bytes[at..at + run].fill(0xFF);
            }
            1 => {
                let at = rng.gen_range(0..=bytes.len());
                bytes.insert(at, byte(&mut rng));
            }
            2 => {
                bytes.remove(rng.gen_range(0..bytes.len()));
            }
            _ => {
                for _ in 0..rng.gen_range(1..=4u32) {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] = if rng.gen_bool(0.5) {
                        byte(&mut rng)
                    } else {
                        EDGES[rng.gen_range(0..EDGES.len())]
                    };
                }
            }
        }
        sink(&bytes);
    }
}

/// `count` seeded random strings of up to `max_len` bytes, half of them
/// behind `prefix` (a valid header, so the body decoder is reached).
pub fn random_strings(
    seed: u64,
    count: usize,
    max_len: usize,
    prefix: &[u8],
    mut sink: impl FnMut(&[u8]),
) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..count {
        let mut bytes = if i % 2 == 0 {
            prefix.to_vec()
        } else {
            Vec::new()
        };
        for _ in 0..rng.gen_range(0..=max_len) {
            bytes.push(byte(&mut rng));
        }
        sink(&bytes);
    }
}
