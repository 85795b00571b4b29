//! Shared by the dist golden-bytes and fuzz suites: the pinned encodings,
//! a worker's pinned life, and the byte helpers of the storage suites
//! (one copy for the whole wire stack).

#![allow(dead_code)] // each test crate uses a different subset

use cij_core::Registration;
use cij_dist::{EngineKind, Refile, Request};
use cij_geom::{MovingRect, Rect, Time};
use cij_tpr::ObjectId;
use cij_workload::SetTag;

#[path = "../../../storage/tests/common/bytes.rs"]
mod bytes;
pub use bytes::*;

/// `golden_bytes.rs`'s `sample_requests()`, encoded by the first `PROTOCOL_VERSION` 3 build.
pub const GOLDEN_REQUESTS: [&str; 6] = [
    "c10310",
    "\
        c103110100000000000000030000000000003440040000000000000000000000000000000100000001000000\
        0000000001000000000000f03f0000000000000840000000000000f0bf000000000000f03f00000000000000\
        400000000000001040000000000000e03f000000000000e83f000000000000f03f0000000000000000",
    "\
        c103140200000000000000000000000000f03f010000000000000002000000000000000000f03f0100000009\
        000000000000000200000000000014400000000000001c4000000000000014c0000000000000144000000000\
        000018400000000000002040000000000000e03f000000000000e83f0000000000001440000000000000d03f\
        010000000900000000000000020000000000001040000000000000184000000000000010c000000000000010\
        4000000000000014400000000000001c40000000000000e03f000000000000e83f0000000000001040000000\
        000000f03f000000000000f03f01000000030000000000000001000000000000e03f00000000000004400000\
        00000000e0bf000000000000e03f000000000000f83f0000000000000c40000000000000e03f000000000000\
        e83f000000000000e03f000000000000e03f0000000001000000000000000000004000000000000010400000\
        0000000000c0000000000000004000000000000008400000000000001440000000000000e03f000000000000\
        e83f0000000000000040010000000000000000001040000000000000184000000000000010c0000000000000\
        104000000000000014400000000000001c40000000000000e03f000000000000e83f0000000000001040",
    "\
        c103140300000000000000000000000000004002000000000000000000000000000000010000000000000000\
        000840000000000000144000000000000008c000000000000008400000000000001040000000000000184000\
        0000000000e03f000000000000e83f0000000000000840",
    "c103192a00000000000000",
    "c1031a",
];

/// `sample_responses()`, likewise.
pub const GOLDEN_RESPONSES: [&str; 7] = [
    "c103301100000000000000",
    "c103310100000000000000",
    "\
        c10332020000000000000001000000000000000700000000000000000000000000f03f0000000000000c4002\
        000000000000000100000000000000000000000000f03f000000000000f03f00000000080000000000000000\
        0000000000004000000000000035400100000000000000020000000000000003000000000000000400000000\
        000000",
    "\
        c103320300000000000000000000000000000000000000000000000000000000000000000000000000000000\
        00000000000000",
    "c103362a00000000000000",
    "c10337",
    "c10338130000006f626a656374206e6f7420666f756e643a2039",
];

/// What that build's worker answered to [`worker_life`], in order.
pub const GOLDEN_ANSWERS: [&str; 3] = [
    "c103310100000000000000",
    "\
        c103320200000000000000010000000000000002000000000000000000000000000000000000000000344000\
        0000000100000000000000010000000000000000000000000000000100000000000000",
    "\
        c10332030000000000000001000000000000000200000000000000000000000000f03f000000000000354000\
        0000000100000000000000010000000000000000000000000000000100000000000000",
];

/// Its answer to the last round's probe, sent again after that life.
pub const GOLDEN_REPROBE: &str = "\
    c10332040000000000000001000000000000000200000000000000000000000000f03f000000000000354000\
    0000000100000000000000010000000000000000000000000000000100000000000000";

fn stationary(x: f64) -> MovingRect {
    MovingRect::stationary(Rect::new([x, 0.0], [x + 1.0, 1.0]), 0.0)
}

/// Object `id` of side `set`, filed on `mbr` as registered at
/// `registered_at`.
pub fn filed(
    set: SetTag,
    id: u64,
    mbr: MovingRect,
    registered_at: Time,
) -> (ObjectId, Registration) {
    let registration = Registration {
        set,
        mbr,
        registered_at,
    };
    (ObjectId(id), registration)
}

/// An `Init` over A-object 1 and B-object 2, then the initial-join round
/// (A-object 1 probes), then a round that moves A-object 1; no answer is
/// acknowledged, so the outbox keeps all three.
pub fn worker_life() -> Vec<Request> {
    let moved = MovingRect::stationary(Rect::new([0.1, 0.0], [1.1, 1.0]), 1.0);
    vec![
        Request::Init {
            seq: 1,
            engine: EngineKind::Mtb,
            t_m: 20.0,
            buckets_per_tm: 4,
            seed: Refile {
                now: 0.0,
                removes: vec![],
                inserts: vec![
                    filed(SetTag::A, 1, stationary(0.0), 0.0),
                    filed(SetTag::B, 2, stationary(0.5), 0.0),
                ],
            },
        },
        Request::Step {
            seq: 2,
            now: 0.0,
            ack_through: 0,
            ops: vec![],
            probes_a: vec![stationary(0.0)],
            probes_b: vec![],
        },
        Request::Step {
            seq: 3,
            now: 1.0,
            ack_through: 0,
            ops: vec![Refile {
                now: 1.0,
                removes: vec![filed(SetTag::A, 1, stationary(0.0), 0.0)],
                inserts: vec![filed(SetTag::A, 1, moved, 1.0)],
            }],
            probes_a: vec![moved],
            probes_b: vec![],
        },
    ]
}
