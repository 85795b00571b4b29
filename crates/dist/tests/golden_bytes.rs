//! The protocol's bytes, pinned. Every [`Request`] and [`Response`]
//! shape is held against the exact encoding the first `PROTOCOL_VERSION
//! 3` build produced, in both directions, and a worker must still answer
//! that build's requests with that build's bytes — a refactor of the
//! codec that only round-trips against itself would pass neither.

use cij_dist::{EngineKind, Refile, Request, Response, ShardWorker};
use cij_geom::{MovingRect, TimeInterval};
use cij_join::JoinCounters;
use cij_stream::{PROTOCOL_MAGIC, PROTOCOL_VERSION};
use cij_tpr::ObjectId;
use cij_workload::SetTag;

mod common;
use common::{
    filed, hex, unhex, worker_life, GOLDEN_ANSWERS, GOLDEN_REPROBE, GOLDEN_REQUESTS,
    GOLDEN_RESPONSES,
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
            seed: Refile {
                now: 0.0,
                removes: vec![],
                inserts: vec![filed(SetTag::A, 1, mrect(1.0), 0.0)],
            },
        },
        Request::Step {
            seq: 2,
            now: 1.0,
            ack_through: 1,
            ops: vec![
                Refile {
                    now: 1.0,
                    removes: vec![filed(SetTag::B, 9, mrect(5.0), 0.25)],
                    inserts: vec![filed(SetTag::B, 9, mrect(4.0), 1.0)],
                },
                Refile {
                    now: 1.0,
                    removes: vec![filed(SetTag::A, 3, mrect(0.5), 0.5)],
                    inserts: vec![],
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

#[test]
fn a_worker_answers_with_the_golden_bytes() {
    let mut worker = ShardWorker::ephemeral();
    let life = worker_life();
    for (req, golden) in life.iter().zip(GOLDEN_ANSWERS) {
        assert_eq!(hex(&worker.handle(req).encode()), golden, "{req:?}");
    }
    // Resent requests are answered from the outbox, and the index
    // answers the last round's probe again.
    for (req, golden) in life.iter().zip(GOLDEN_ANSWERS) {
        assert_eq!(hex(&worker.handle(req).encode()), golden, "{req:?}");
    }
    let Request::Step { probes_a, .. } = &life[2] else {
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
    assert_eq!(hex(&worker.handle(&again).encode()), GOLDEN_REPROBE);
}
