//! Shared by the dist golden-bytes and fuzz suites: the pinned encodings,
//! a worker's pinned life, and the byte helpers of the storage suites
//! (one copy for the whole wire stack).

#![allow(dead_code)] // each test crate uses a different subset

use cij_dist::{EngineKind, IndexOp, Request};
use cij_geom::{MovingRect, Rect};
use cij_tpr::ObjectId;
use cij_workload::SetTag;

#[path = "../../../storage/tests/common/bytes.rs"]
mod bytes;
pub use bytes::*;

/// `golden_bytes.rs`'s `sample_requests()`, encoded by the first `PROTOCOL_VERSION` 2 build.
pub const GOLDEN_REQUESTS: [&str; 6] = [
    "c10210",
    "\
        c102110100000000000000030000000000003440040000000100000001010100000000000000000000000000\
        f03f0000000000000840000000000000f0bf000000000000f03f000000000000004000000000000010400000\
        00000000e03f000000000000e83f000000000000f03f00000000000000000000000000000000",
    "\
        c102140200000000000000000000000000f03f01000000000000000200000002020900000000000000000000\
        00000014400000000000001c4000000000000014c00000000000001440000000000000184000000000000020\
        40000000000000e03f000000000000e83f0000000000001440000000000000d03f000000000000f03f010209\
        000000000000000000000000001040000000000000184000000000000010c000000000000010400000000000\
        0014400000000000001c40000000000000e03f000000000000e83f0000000000001040000000000000f03f00\
        0000000000f03f010000000000000000000040000000000000104000000000000000c0000000000000004000\
        000000000008400000000000001440000000000000e03f000000000000e83f00000000000000400100000000\
        00000000001040000000000000184000000000000010c0000000000000104000000000000014400000000000\
        001c40000000000000e03f000000000000e83f0000000000001040",
    "\
        c102140300000000000000000000000000004002000000000000000000000000000000010000000000000000\
        000840000000000000144000000000000008c000000000000008400000000000001040000000000000184000\
        0000000000e03f000000000000e83f0000000000000840",
    "c102192a00000000000000",
    "c1021a",
];

/// `sample_responses()`, likewise.
pub const GOLDEN_RESPONSES: [&str; 7] = [
    "c102301100000000000000",
    "c102310100000000000000",
    "\
        c10232020000000000000001000000000000000700000000000000000000000000f03f0000000000000c4002\
        000000000000000100000000000000000000000000f03f000000000000f03f00000000080000000000000000\
        0000000000004000000000000035400100000000000000020000000000000003000000000000000400000000\
        000000",
    "\
        c102320300000000000000000000000000000000000000000000000000000000000000000000000000000000\
        00000000000000",
    "c102362a00000000000000",
    "c10237",
    "c10238130000006f626a656374206e6f7420666f756e643a2039",
];

/// What that build's worker answered to [`worker_life`], in order.
pub const GOLDEN_ANSWERS: [&str; 3] = [
    "c102310100000000000000",
    "\
        c102320200000000000000010000000000000002000000000000000000000000000000000000000000344000\
        0000000100000000000000010000000000000000000000000000000100000000000000",
    "\
        c10232030000000000000001000000000000000200000000000000000000000000f03f000000000000354000\
        0000000100000000000000010000000000000000000000000000000100000000000000",
];

/// Its answer to the last round's probe, sent again after that life.
pub const GOLDEN_REPROBE: &str = "\
    c10232040000000000000001000000000000000200000000000000000000000000f03f000000000000354000\
    0000000100000000000000010000000000000000000000000000000100000000000000";

fn stationary(x: f64) -> MovingRect {
    MovingRect::stationary(Rect::new([x, 0.0], [x + 1.0, 1.0]), 0.0)
}

/// An `Init` over A-object 1 and B-object 2, then the initial-join round
/// (A-object 1 probes), then a round that moves A-object 1; no answer is
/// acknowledged, so the outbox keeps all three.
pub fn worker_life() -> Vec<Request> {
    let insert = |set, id, x| IndexOp::Insert {
        set,
        id: ObjectId(id),
        mbr: stationary(x),
        registered_at: 0.0,
        now: 0.0,
    };
    let moved = MovingRect::stationary(Rect::new([0.1, 0.0], [1.1, 1.0]), 1.0);
    vec![
        Request::Init {
            seq: 1,
            engine: EngineKind::Mtb,
            t_m: 20.0,
            buckets_per_tm: 4,
            ops: vec![insert(SetTag::A, 1, 0.0), insert(SetTag::B, 2, 0.5)],
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
            ops: vec![
                IndexOp::Remove {
                    set: SetTag::A,
                    id: ObjectId(1),
                    old_mbr: stationary(0.0),
                    last_update: 0.0,
                    now: 1.0,
                },
                IndexOp::Insert {
                    set: SetTag::A,
                    id: ObjectId(1),
                    mbr: moved,
                    registered_at: 1.0,
                    now: 1.0,
                },
            ],
            probes_a: vec![moved],
            probes_b: vec![],
        },
    ]
}
