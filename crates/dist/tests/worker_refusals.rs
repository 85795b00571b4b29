//! What a [`ShardWorker`] refuses instead of panicking. The worker
//! documents that it never panics, and everything it is handed arrived as
//! bytes from a socket, so index parameters, kinematics and probes an
//! index would assert on come back as [`Response::Fail`].

use cij_dist::{EngineKind, IndexOp, Request, Response, ShardWorker};
use cij_geom::{MovingRect, Rect};
use cij_tpr::ObjectId;
use cij_workload::SetTag;

fn insert(set: SetTag, id: u64, x: f64, now: f64) -> IndexOp {
    IndexOp::Insert {
        set,
        id: ObjectId(id),
        mbr: MovingRect::stationary(Rect::new([x, 0.0], [x + 1.0, 1.0]), 0.0),
        registered_at: 0.0,
        now,
    }
}

/// An `Init` over A-object 1 and B-object 2, inserted at `start`.
fn init(seq: u64, t_m: f64, buckets_per_tm: u32, start: f64) -> Request {
    Request::Init {
        seq,
        engine: EngineKind::Mtb,
        t_m,
        buckets_per_tm,
        ops: vec![
            insert(SetTag::A, 1, 0.0, start),
            insert(SetTag::B, 2, 0.5, start),
        ],
    }
}

fn step(seq: u64, now: f64, ops: Vec<IndexOp>, probes_a: Vec<MovingRect>) -> Request {
    Request::Step {
        seq,
        now,
        ack_through: 0,
        ops,
        probes_a,
        probes_b: Vec::new(),
    }
}

fn refused(resp: &Response) -> &str {
    match resp {
        Response::Fail { message } => message,
        other => panic!("expected Fail, got {other:?}"),
    }
}

#[test]
fn init_parameters_no_index_can_be_built_from_are_refused() {
    let hostile = [
        (init(1, 20.0, 0, 0.0), "buckets_per_tm=0"),
        (init(1, 0.0, 4, 0.0), "t_m=0"),
        (init(1, -1.0, 4, 0.0), "t_m=-1"),
        (init(1, f64::NAN, 4, 0.0), "t_m=NaN"),
        (init(1, f64::INFINITY, 4, 0.0), "t_m=inf"),
        (init(1, 20.0, 4, f64::NAN), "unsound"),
    ];
    for (req, needle) in &hostile {
        let mut worker = ShardWorker::ephemeral();
        let message = refused(&worker.handle(req)).to_owned();
        assert!(message.contains(needle), "{message}");
        // The refusal is an applied request like any other: answered
        // again from the outbox, and the worker goes on to serve.
        assert_eq!(refused(&worker.handle(req)), message);
        assert_eq!(
            worker.handle(&init(2, 20.0, 4, 0.0)),
            Response::Ack { seq: 2 }
        );
    }
}

#[test]
fn kinematics_an_index_would_assert_on_are_refused() {
    let primed = || {
        let mut worker = ShardWorker::ephemeral();
        worker.handle(&init(1, 20.0, 4, 0.0));
        worker.handle(&step(2, 0.0, vec![], vec![]));
        worker
    };
    let sound = MovingRect::rigid(Rect::new([3.0, 0.0], [4.0, 1.0]), [1.0, 0.0], 1.0);
    let hostile = [
        MovingRect {
            lo: [5.0, 0.0],
            ..sound
        }, // inverted
        MovingRect {
            vlo: [2.0, 0.0],
            ..sound
        }, // inverts later
        MovingRect {
            hi: [f64::NAN, 1.0],
            ..sound
        },
        MovingRect {
            vhi: [f64::INFINITY, 0.0],
            ..sound
        },
        MovingRect {
            t_ref: 5.0,
            ..sound
        }, // referenced after the op
        MovingRect {
            t_ref: f64::NAN,
            ..sound
        },
    ];
    for mbr in hostile {
        let op = IndexOp::Insert {
            set: SetTag::A,
            id: ObjectId(9),
            mbr,
            registered_at: 1.0,
            now: 1.0,
        };
        let inserted = step(3, 1.0, vec![op], vec![]);
        assert!(
            refused(&primed().handle(&inserted)).contains("trajectory"),
            "{mbr:?}"
        );
        // The same trajectory as a probe: refused, not handed to a tree.
        let probed = step(3, 1.0, vec![], vec![mbr]);
        assert!(
            refused(&primed().handle(&probed)).contains("trajectory"),
            "probe {mbr:?}"
        );
    }
    for now in [f64::NAN, f64::INFINITY, 1e300] {
        refused(&primed().handle(&step(3, now, Vec::new(), Vec::new())));
        let late = IndexOp::Remove {
            set: SetTag::B,
            id: ObjectId(2),
            old_mbr: MovingRect::stationary(Rect::new([0.5, 0.0], [1.5, 1.0]), 0.0),
            last_update: now,
            now: 1.0,
        };
        refused(&primed().handle(&step(3, 1.0, vec![late], Vec::new())));
    }
    // A NaN probe is a `Fail`, and the worker goes on serving.
    let nan = MovingRect {
        lo: [f64::NAN, 0.0],
        ..sound
    };
    let mut worker = primed();
    assert!(refused(&worker.handle(&step(3, 1.0, vec![], vec![nan]))).contains("unsound"));
    assert!(matches!(
        worker.handle(&step(4, 1.0, vec![], vec![sound])),
        Response::StepAck { seq: 4, .. }
    ));
    // The sound trajectory itself is applied.
    let op = IndexOp::Insert {
        set: SetTag::A,
        id: ObjectId(9),
        mbr: sound,
        registered_at: 1.0,
        now: 1.0,
    };
    let round = Request::Step {
        seq: 3,
        now: 1.0,
        ack_through: u64::MAX, // "everything": must not overflow the prune
        ops: vec![op],
        probes_a: vec![sound],
        probes_b: Vec::new(),
    };
    let mut worker = primed();
    assert!(matches!(
        worker.handle(&round),
        Response::StepAck { seq: 3, .. }
    ));
    assert_eq!(worker.outbox_len(), 0);
}
