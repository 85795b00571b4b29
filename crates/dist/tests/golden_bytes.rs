//! The protocol's bytes, pinned. Every [`Request`] and [`Response`]
//! shape is held against the exact encoding the first `PROTOCOL_VERSION
//! 1` build produced, in both directions, and a worker journal written by
//! that build must still replay — a refactor of the codec that only
//! round-trips against itself would pass neither.

use cij_core::{EngineOp, PairStatus};
use cij_dist::{EngineKind, Request, Response, ShardWorker};
use cij_geom::{MovingRect, Rect, TimeInterval};
use cij_join::JoinCounters;
use cij_stream::{PROTOCOL_MAGIC, PROTOCOL_VERSION};
use cij_tpr::ObjectId;
use cij_workload::{MovingObject, ObjectUpdate, SetTag};

mod common;
use common::{
    hex, unhex, GOLDEN_ANSWERS, GOLDEN_JOURNAL, GOLDEN_REQUESTS, GOLDEN_RESPONSES, GOLDEN_RESULT,
};

fn mrect(seed: f64) -> MovingRect {
    MovingRect {
        lo: [seed, seed + 1.0],
        hi: [seed + 2.0, seed + 3.0],
        vlo: [-seed, 0.5],
        vhi: [seed, 0.75],
        t_ref: seed,
    }
}

fn sample_requests() -> Vec<Request> {
    vec![
        Request::Hello,
        Request::Init {
            seq: 1,
            engine: EngineKind::Mtb,
            t_m: 20.0,
            buckets_per_tm: 4,
            set_a: vec![MovingObject {
                id: ObjectId(1),
                mbr: mrect(1.0),
            }],
            set_b: vec![],
            start: 0.0,
        },
        Request::Track { seq: 2 },
        Request::Start { seq: 3, now: 0.0 },
        Request::Step {
            seq: 4,
            now: 1.0,
            ops: vec![
                EngineOp::Apply(ObjectUpdate {
                    id: ObjectId(7),
                    set: SetTag::B,
                    old_mbr: mrect(2.0),
                    last_update: 0.5,
                    new_mbr: mrect(3.0),
                }),
                EngineOp::Insert {
                    set: SetTag::A,
                    id: ObjectId(8),
                    mbr: mrect(4.0),
                },
                EngineOp::Remove {
                    set: SetTag::B,
                    id: ObjectId(9),
                    old_mbr: mrect(5.0),
                    last_update: 0.25,
                },
            ],
            ack_through: 3,
        },
        Request::Step {
            seq: 5,
            now: 2.0,
            ops: vec![],
            ack_through: 4,
        },
        Request::Immediate {
            seq: 6,
            now: 2.0,
            op: EngineOp::Remove {
                set: SetTag::A,
                id: ObjectId(1),
                old_mbr: mrect(1.0),
                last_update: 0.0,
            },
        },
        Request::PairStatusAt {
            pair: (ObjectId(1), ObjectId(7)),
            t: 2.5,
        },
        Request::ResultAt { t: 3.0 },
        Request::Counters,
        Request::Ping { nonce: 42 },
        Request::Shutdown,
    ]
}

fn sample_responses() -> Vec<Response> {
    vec![
        Response::HelloAck { last_applied: 17 },
        Response::Ack { seq: 3 },
        Response::StepAck {
            seq: 4,
            changes: Some(vec![(ObjectId(1), ObjectId(7)), (ObjectId(8), ObjectId(9))]),
        },
        Response::StepAck {
            seq: 5,
            changes: None,
        },
        Response::Status(PairStatus {
            active: Some(TimeInterval {
                start: 1.0,
                end: f64::INFINITY,
            }),
            next_start: Some(9.0),
        }),
        Response::Status(PairStatus::default()),
        Response::Pairs(vec![(ObjectId(1), ObjectId(7))]),
        Response::CountersAck(JoinCounters {
            node_pairs: 1,
            entry_comparisons: 2,
            ic_pruned: 3,
            pairs_emitted: 4,
        }),
        Response::Pong { nonce: 42 },
        Response::Bye,
        Response::Fail {
            message: "object not found: 9".into(),
        },
    ]
}

#[test]
fn every_message_encodes_to_and_decodes_from_its_golden_bytes() {
    let requests = sample_requests();
    assert_eq!(requests.len(), GOLDEN_REQUESTS.len());
    for (req, golden) in requests.iter().zip(GOLDEN_REQUESTS) {
        let golden = unhex(golden);
        assert_eq!(hex(&req.encode()), hex(&golden), "{req:?}");
        assert_eq!(&Request::decode(&golden).unwrap(), req);
        assert_eq!(golden[..2], [PROTOCOL_MAGIC, PROTOCOL_VERSION]);
    }
    let responses = sample_responses();
    assert_eq!(responses.len(), GOLDEN_RESPONSES.len());
    for (resp, golden) in responses.iter().zip(GOLDEN_RESPONSES) {
        let golden = unhex(golden);
        assert_eq!(hex(&resp.encode()), hex(&golden), "{resp:?}");
        assert_eq!(&Response::decode(&golden).unwrap(), resp);
        assert_eq!(golden[..2], [PROTOCOL_MAGIC, PROTOCOL_VERSION]);
    }
}

#[test]
fn seq_is_defined_exactly_for_mutating_requests() {
    let seqs: Vec<Option<u64>> = sample_requests().iter().map(Request::seq).collect();
    let mutating = [1, 2, 3, 4, 5, 6].map(Some);
    assert_eq!(seqs[0], None);
    assert_eq!(seqs[1..7], mutating);
    assert!(seqs[7..].iter().all(Option::is_none));
}

#[test]
fn kind_names_every_response_variant() {
    let kinds: Vec<&str> = sample_responses().iter().map(Response::kind).collect();
    assert_eq!(
        kinds,
        [
            "HelloAck",
            "Ack",
            "StepAck",
            "StepAck",
            "Status",
            "Status",
            "Pairs",
            "CountersAck",
            "Pong",
            "Bye",
            "Fail"
        ]
    );
}

fn obj(id: u64, x: f64) -> MovingObject {
    MovingObject {
        id: ObjectId(id),
        mbr: MovingRect::stationary(Rect::new([x, 0.0], [x + 1.0, 1.0]), 0.0),
    }
}

fn journaled_life() -> Vec<Request> {
    vec![
        Request::Init {
            seq: 1,
            engine: EngineKind::Mtb,
            t_m: 20.0,
            buckets_per_tm: 4,
            set_a: vec![obj(1, 0.0)],
            set_b: vec![obj(2, 0.5)],
            start: 0.0,
        },
        Request::Track { seq: 2 },
        Request::Start { seq: 3, now: 0.0 },
        Request::Step {
            seq: 4,
            now: 1.0,
            ops: vec![EngineOp::Apply(ObjectUpdate {
                id: ObjectId(1),
                set: SetTag::A,
                old_mbr: obj(1, 0.0).mbr,
                last_update: 0.0,
                new_mbr: MovingRect::stationary(Rect::new([0.1, 0.0], [1.1, 1.0]), 0.0),
            })],
            ack_through: 0,
        },
    ]
}

fn temp_wal(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("cij-dist-{tag}-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn a_worker_writes_the_golden_journal() {
    let path = temp_wal("golden-write");
    let mut worker = ShardWorker::open(&path).expect("fresh worker");
    for (req, golden) in journaled_life().iter().zip(GOLDEN_ANSWERS) {
        assert_eq!(hex(&worker.handle(req).encode()), golden, "{req:?}");
    }
    drop(worker);
    let written = std::fs::read(&path).expect("journal");
    let _ = std::fs::remove_file(&path);
    assert_eq!(hex(&written), hex(&unhex(GOLDEN_JOURNAL)));
}

#[test]
fn a_worker_replays_the_golden_journal() {
    let path = temp_wal("golden-replay");
    std::fs::write(&path, unhex(GOLDEN_JOURNAL)).expect("write image");
    let mut reborn = ShardWorker::open(&path).expect("recovered worker");
    assert_eq!(reborn.recovered(), 4);
    assert_eq!(reborn.last_applied(), 4);
    // Resent requests are answered from the rebuilt outbox, and the
    // rebuilt engine holds the journaled answer.
    for (req, golden) in journaled_life().iter().zip(GOLDEN_ANSWERS) {
        assert_eq!(hex(&reborn.handle(req).encode()), golden, "{req:?}");
    }
    let result = reborn.handle(&Request::ResultAt { t: 1.0 });
    assert_eq!(hex(&result.encode()), GOLDEN_RESULT);
    drop(reborn);
    let _ = std::fs::remove_file(&path);
}
