//! The protocol decoders — and the worker behind them — under hostile
//! bytes. Every truncation and thousands of seeded mutations of every
//! pinned message, plus random strings, go through [`Request::decode`] /
//! [`Response::decode`]; whatever decodes is re-encoded (it must decode to
//! the same bytes again) and, for requests, handed to a [`ShardWorker`],
//! which documents that it never panics. Nothing here may panic or size
//! an allocation by a field of the input; seeded, so a failure replays.

use cij_dist::{Refile, Request, Response, ShardWorker};
use cij_geom::{MovingRect, Rect};
use cij_stream::{PROTOCOL_MAGIC, PROTOCOL_VERSION};
use cij_workload::SetTag;

mod common;
use common::{
    filed, hostile_variants, random_strings, unhex, worker_life, GOLDEN_REQUESTS, GOLDEN_RESPONSES,
};

/// Mutations per pinned message through the decoders (its truncations
/// come on top); a tenth of that where every input costs a worker.
const MUTATIONS: usize = 10_000;

/// The decoded request under sequence number 3 — the next one a worker
/// that applied `Init` and the initial-join round applies instead of
/// answering from its outbox.
fn resequenced(mut req: Request) -> Request {
    if let Request::Init { seq, .. } | Request::Step { seq, .. } = &mut req {
        *seq = 3;
    }
    req
}

/// A round after everything else: one probe per side at `t = 2`.
fn later_round(seq: u64) -> Request {
    let probe = MovingRect::rigid(Rect::new([0.0, 0.0], [2.0, 1.0]), [0.5, 0.0], 2.0);
    Request::Step {
        seq,
        now: 2.0,
        ack_through: seq - 1,
        ops: Vec::new(),
        probes_a: vec![probe],
        probes_b: vec![probe],
    }
}

/// Whether `req` carries a `refile` call that files or removes
/// something.
fn refiles(req: &Request) -> bool {
    let calls = match req {
        Request::Init { seed, .. } => std::slice::from_ref(seed),
        Request::Step { ops, .. } => &ops[..],
        _ => &[],
    };
    (calls.iter()).any(|call| !(call.removes.is_empty() && call.inserts.is_empty()))
}

#[test]
fn request_decode_survives_hostile_bytes() {
    let (mut fed, mut decoded, mut filing) = (0usize, 0usize, 0usize);
    let mut feed = |bytes: &[u8]| {
        fed += 1;
        let Ok(req) = Request::decode(bytes) else {
            return;
        };
        decoded += 1;
        filing += usize::from(refiles(&req));
        let again = req.encode();
        let back = Request::decode(&again).expect("a decoded request re-encodes decodably");
        assert_eq!(back.encode(), again);
        // A worker without an index pair: hostile `Init`s build (or
        // refuse to build) one, everything else meets "before Init".
        ShardWorker::ephemeral().handle(&req);
    };
    for (i, golden) in GOLDEN_REQUESTS.iter().enumerate() {
        hostile_variants(&unhex(golden), 0xD157 + i as u64, MUTATIONS, &mut feed);
    }
    random_strings(
        0xD1FF,
        2_000,
        64,
        &[PROTOCOL_MAGIC, PROTOCOL_VERSION],
        &mut feed,
    );
    assert!(fed > 6 * MUTATIONS, "fed {fed}");
    assert!(
        decoded > MUTATIONS,
        "only {decoded} of {fed} inputs decoded"
    );
    // The `Refile` decoder: mutated calls, not only empty rounds.
    assert!(
        filing > MUTATIONS,
        "only {filing} decoded calls file anything"
    );
}

#[test]
fn response_decode_survives_hostile_bytes() {
    let (mut fed, mut decoded) = (0usize, 0usize);
    let mut feed = |bytes: &[u8]| {
        fed += 1;
        let Ok(resp) = Response::decode(bytes) else {
            return;
        };
        decoded += 1;
        // `Fail` replaces invalid UTF-8 on the way in, so compare from
        // the first re-encoding on.
        let again = resp.encode();
        let back = Response::decode(&again).expect("a decoded response re-encodes decodably");
        assert_eq!(back.encode(), again);
        assert!(!resp.kind().is_empty());
    };
    for (i, golden) in GOLDEN_RESPONSES.iter().enumerate() {
        hostile_variants(&unhex(golden), 0x4E59 + i as u64, MUTATIONS, &mut feed);
    }
    random_strings(
        0x4EFF,
        2_000,
        64,
        &[PROTOCOL_MAGIC, PROTOCOL_VERSION],
        &mut feed,
    );
    assert!(fed > 7 * MUTATIONS, "fed {fed}");
    assert!(
        decoded > MUTATIONS,
        "only {decoded} of {fed} inputs decoded"
    );
}

/// The pinned life's requests, encoded: `Init`, the initial-join round,
/// and a round that moves A-object 1.
fn life_records() -> Vec<Vec<u8>> {
    worker_life().iter().map(Request::encode).collect()
}

#[test]
fn a_running_worker_survives_hostile_requests() {
    let records = life_records();
    let primed_worker = || {
        let mut worker = ShardWorker::ephemeral();
        for record in &records[..2] {
            let req = Request::decode(record).expect("golden record");
            assert!(!matches!(worker.handle(&req), Response::Fail { .. }));
        }
        worker
    };
    // The rounds the life lacks: a B-side insert probing both sides,
    // and a B-side delete.
    let round = |ops, probes_b| Request::Step {
        seq: 3,
        now: 1.0,
        ack_through: 2,
        ops,
        probes_a: vec![MovingRect::stationary(
            Rect::new([0.0, 0.0], [1.0, 1.0]),
            1.0,
        )],
        probes_b,
    };
    let fresh = MovingRect::rigid(Rect::new([0.2, 0.2], [0.8, 0.8]), [0.5, -0.5], 1.0);
    let seeds = [
        records[2].clone(),
        round(
            vec![Refile {
                now: 1.0,
                removes: vec![],
                inserts: vec![filed(SetTag::B, 5, fresh, 1.0)],
            }],
            vec![fresh],
        )
        .encode(),
        round(
            vec![Refile {
                now: 1.0,
                removes: vec![filed(
                    SetTag::B,
                    2,
                    MovingRect::stationary(Rect::new([0.5, 0.0], [1.5, 1.0]), 0.0),
                    0.0,
                )],
                inserts: vec![],
            }],
            vec![],
        )
        .encode(),
    ];

    let (mut applied, mut refused) = (0usize, 0usize);
    for (i, seed) in seeds.iter().enumerate() {
        let unmutated = Request::decode(seed).expect("seed");
        let resp = primed_worker().handle(&unmutated);
        assert!(
            matches!(resp, Response::StepAck { .. }),
            "{unmutated:?} -> {resp:?}"
        );
        hostile_variants(seed, 0x90B + i as u64, MUTATIONS / 5, |bytes| {
            let Ok(req) = Request::decode(bytes) else {
                return;
            };
            let mut worker = primed_worker();
            match worker.handle(&resequenced(req)) {
                Response::Fail { .. } => refused += 1,
                _ => applied += 1,
            }
            // Whatever it swallowed, the worker still probes and answers.
            worker.handle(&later_round(4));
            worker.handle(&Request::Ping { nonce: 4 });
        });
    }
    assert!(applied > 1_000, "only {applied} hostile requests applied");
    assert!(refused > 1_000, "only {refused} hostile requests refused");
}
