//! The protocol decoders — and the worker behind them — under hostile
//! bytes. Every truncation and thousands of seeded mutations of every
//! pinned message, plus random strings, go through [`Request::decode`] /
//! [`Response::decode`]; whatever decodes is re-encoded (it must decode to
//! the same bytes again) and, for requests, handed to a [`ShardWorker`],
//! which documents that it never panics. Nothing here may panic or size
//! an allocation by a field of the input; seeded, so a failure replays.

use cij_core::EngineOp;
use cij_dist::{Request, Response, ShardWorker};
use cij_geom::{MovingRect, Rect};
use cij_storage::frame::write_frame;
use cij_tpr::ObjectId;
use cij_workload::SetTag;

mod common;
use common::{
    hostile_variants, random_strings, unframe, unhex, GOLDEN_JOURNAL, GOLDEN_REQUESTS,
    GOLDEN_RESPONSES,
};

/// Mutations per pinned message through the decoders (its truncations
/// come on top); a tenth of that where every input costs a worker.
const MUTATIONS: usize = 10_000;

/// The decoded request under sequence number 4 — the next one a worker
/// that replayed `Init`, `Track`, `Start` applies instead of answering
/// from its outbox.
fn resequenced(mut req: Request) -> Request {
    match &mut req {
        Request::Init { seq, .. }
        | Request::Track { seq }
        | Request::Start { seq, .. }
        | Request::Step { seq, .. }
        | Request::Immediate { seq, .. } => *seq = 4,
        _ => {}
    }
    req
}

#[test]
fn request_decode_survives_hostile_bytes() {
    let (mut fed, mut decoded) = (0usize, 0usize);
    let mut feed = |bytes: &[u8]| {
        fed += 1;
        let Ok(req) = Request::decode(bytes) else {
            return;
        };
        decoded += 1;
        let again = req.encode();
        let back = Request::decode(&again).expect("a decoded request re-encodes decodably");
        assert_eq!(back.encode(), again);
        // A worker without an engine: hostile `Init`s build (or refuse
        // to build) one, everything else meets "before Init".
        ShardWorker::ephemeral().handle(&req);
    };
    for (i, golden) in GOLDEN_REQUESTS.iter().enumerate() {
        hostile_variants(&unhex(golden), 0xD157 + i as u64, MUTATIONS, &mut feed);
    }
    random_strings(0xD1FF, 2_000, 64, &[0xC1, 0x01], &mut feed);
    assert!(fed > 12 * MUTATIONS, "fed {fed}");
    assert!(
        decoded > MUTATIONS,
        "only {decoded} of {fed} inputs decoded"
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
    random_strings(0x4EFF, 2_000, 64, &[0xC1, 0x01], &mut feed);
    assert!(fed > 11 * MUTATIONS, "fed {fed}");
    assert!(
        decoded > MUTATIONS,
        "only {decoded} of {fed} inputs decoded"
    );
}

/// The pinned journal's records: `Init`, `Track`, `Start`, and a `Step`
/// that moves A-object 1.
fn journal_records() -> Vec<Vec<u8>> {
    let records = unframe(&unhex(GOLDEN_JOURNAL));
    assert_eq!(records.len(), 4);
    records
}

#[test]
fn a_running_worker_survives_hostile_requests() {
    let records = journal_records();
    let primed_worker = || {
        let mut worker = ShardWorker::ephemeral();
        for record in &records[..3] {
            let req = Request::decode(record).expect("golden record");
            assert!(matches!(worker.handle(&req), Response::Ack { .. }));
        }
        worker
    };
    // The ops the journal lacks: a routed insert and a routed delete.
    let immediate = |op| Request::Immediate {
        seq: 4,
        now: 1.0,
        op,
    };
    let seeds = [
        records[3].clone(),
        immediate(EngineOp::Insert {
            set: SetTag::B,
            id: ObjectId(5),
            mbr: MovingRect::rigid(Rect::new([0.2, 0.2], [0.8, 0.8]), [0.5, -0.5], 1.0),
        })
        .encode(),
        immediate(EngineOp::Remove {
            set: SetTag::B,
            id: ObjectId(2),
            old_mbr: MovingRect::stationary(Rect::new([0.5, 0.0], [1.5, 1.0]), 0.0),
            last_update: 0.0,
        })
        .encode(),
    ];

    let (mut applied, mut refused) = (0usize, 0usize);
    for (i, seed) in seeds.iter().enumerate() {
        let unmutated = Request::decode(seed).expect("seed");
        let resp = primed_worker().handle(&unmutated);
        assert!(
            !matches!(resp, Response::Fail { .. }),
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
            // Whatever it swallowed, the worker still ticks and answers.
            worker.handle(&Request::Step {
                seq: 5,
                now: 2.0,
                ack_through: 4,
                ops: Vec::new(),
            });
            worker.handle(&Request::ResultAt { t: 2.0 });
        });
    }
    assert!(applied > 1_000, "only {applied} hostile requests applied");
    assert!(refused > 1_000, "only {refused} hostile requests refused");
}

#[test]
fn a_journal_with_a_hostile_record_replays_without_a_panic() {
    let records = journal_records();
    let path = std::env::temp_dir().join(format!("cij-dist-fuzz-{}.wal", std::process::id()));
    let mut replayed = 0usize;
    for (i, record) in records.iter().enumerate() {
        hostile_variants(record, 0x1095 + i as u64, MUTATIONS / 40, |bytes| {
            let mut image = Vec::new();
            for (j, good) in records.iter().enumerate() {
                let payload = if i == j { bytes } else { good };
                write_frame(&mut image, payload).expect("frame");
            }
            std::fs::write(&path, &image).expect("write journal");
            // An undecodable record is a typed error; a decodable one is
            // replayed, whatever it asks for.
            if let Ok(mut worker) = ShardWorker::open(&path) {
                replayed += 1;
                assert_eq!(worker.recovered(), 4);
                worker.handle(&Request::ResultAt { t: 1.0 });
            }
        });
    }
    let _ = std::fs::remove_file(&path);
    assert!(replayed > 250, "only {replayed} journals replayed");
}
