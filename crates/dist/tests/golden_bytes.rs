//! The protocol's bytes, pinned. Every [`Request`] and [`Response`]
//! shape is held against the exact encoding the first `PROTOCOL_VERSION
//! 2` build produced, in both directions, and a worker journal written by
//! that build must still replay — a refactor of the codec that only
//! round-trips against itself would pass neither.

use cij_dist::{EngineKind, IndexOp, Request, Response, ShardWorker};
use cij_geom::{MovingRect, Rect, TimeInterval};
use cij_join::JoinCounters;
use cij_stream::{PROTOCOL_MAGIC, PROTOCOL_VERSION};
use cij_tpr::ObjectId;
use cij_workload::SetTag;

mod common;
use common::{
    hex, unhex, GOLDEN_ANSWERS, GOLDEN_JOURNAL, GOLDEN_REPROBE, GOLDEN_REQUESTS, GOLDEN_RESPONSES,
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
            ops: vec![IndexOp::Insert {
                set: SetTag::A,
                id: ObjectId(1),
                mbr: mrect(1.0),
                registered_at: 0.0,
                now: 0.0,
            }],
        },
        Request::Step {
            seq: 2,
            now: 1.0,
            ack_through: 1,
            ops: vec![
                IndexOp::Remove {
                    set: SetTag::B,
                    id: ObjectId(9),
                    old_mbr: mrect(5.0),
                    last_update: 0.25,
                    now: 1.0,
                },
                IndexOp::Insert {
                    set: SetTag::B,
                    id: ObjectId(9),
                    mbr: mrect(4.0),
                    registered_at: 1.0,
                    now: 1.0,
                },
            ],
            probes_a: vec![mrect(2.0)],
            probes_b: vec![mrect(4.0)],
        },
        Request::Step {
            seq: 3,
            now: 2.0,
            ack_through: 2,
            ops: vec![],
            probes_a: vec![],
            probes_b: vec![mrect(3.0)],
        },
        Request::Ping { nonce: 42 },
        Request::Shutdown,
    ]
}

fn sample_responses() -> Vec<Response> {
    vec![
        Response::HelloAck { last_applied: 17 },
        Response::Ack { seq: 1 },
        Response::StepAck {
            seq: 2,
            hits_a: vec![(0, ObjectId(7), TimeInterval::new_unchecked(1.0, 3.5))],
            hits_b: vec![
                (0, ObjectId(1), TimeInterval::new_unchecked(1.0, 1.0)),
                (0, ObjectId(8), TimeInterval::new_unchecked(2.0, 21.0)),
            ],
            counters: JoinCounters {
                node_pairs: 1,
                entry_comparisons: 2,
                ic_pruned: 3,
                pairs_emitted: 4,
            },
        },
        Response::StepAck {
            seq: 3,
            hits_a: vec![],
            hits_b: vec![],
            counters: JoinCounters::default(),
        },
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
    assert_eq!(seqs, [None, Some(1), Some(2), Some(3), None, None]);
}

#[test]
fn kind_names_every_response_variant() {
    let kinds: Vec<&str> = sample_responses().iter().map(Response::kind).collect();
    assert_eq!(
        kinds,
        ["HelloAck", "Ack", "StepAck", "StepAck", "Pong", "Bye", "Fail"]
    );
}

fn stationary(x: f64) -> MovingRect {
    MovingRect::stationary(Rect::new([x, 0.0], [x + 1.0, 1.0]), 0.0)
}

/// An `Init` over A-object 1 and B-object 2, then the initial-join round
/// (A-object 1 probes), then a round that moves A-object 1; no answer is
/// acknowledged, so the outbox keeps all three.
fn journaled_life() -> Vec<Request> {
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
    assert_eq!(reborn.recovered(), 3);
    assert_eq!(reborn.last_applied(), 3);
    // Resent requests are answered from the rebuilt outbox, and the
    // rebuilt index answers the journaled round's probe again.
    for (req, golden) in journaled_life().iter().zip(GOLDEN_ANSWERS) {
        assert_eq!(hex(&reborn.handle(req).encode()), golden, "{req:?}");
    }
    let Request::Step { probes_a, .. } = &journaled_life()[2] else {
        unreachable!()
    };
    let again = Request::Step {
        seq: 4,
        now: 1.0,
        ack_through: 3,
        ops: vec![],
        probes_a: probes_a.clone(),
        probes_b: vec![],
    };
    assert_eq!(hex(&reborn.handle(&again).encode()), GOLDEN_REPROBE);
    drop(reborn);
    let _ = std::fs::remove_file(&path);
}
