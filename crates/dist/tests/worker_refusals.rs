//! What a [`ShardWorker`] refuses instead of panicking. The worker
//! documents that it never panics, and everything it is handed arrived as
//! bytes — from a socket, or from its own journal on restart — so engine
//! parameters and kinematics an engine would assert on come back as
//! [`Response::Fail`], live and on replay alike.

use cij_core::EngineOp;
use cij_dist::{EngineKind, Request, Response, ShardWorker};
use cij_geom::{MovingRect, Rect};
use cij_storage::frame::write_frame;
use cij_tpr::ObjectId;
use cij_workload::{MovingObject, SetTag};

fn obj(id: u64, x: f64) -> MovingObject {
    MovingObject {
        id: ObjectId(id),
        mbr: MovingRect::stationary(Rect::new([x, 0.0], [x + 1.0, 1.0]), 0.0),
    }
}

fn init(seq: u64, t_m: f64, buckets_per_tm: u32, start: f64) -> Request {
    Request::Init {
        seq,
        engine: EngineKind::Mtb,
        t_m,
        buckets_per_tm,
        set_a: vec![obj(1, 0.0)],
        set_b: vec![obj(2, 0.5)],
        start,
    }
}

fn refused(resp: &Response) -> &str {
    match resp {
        Response::Fail { message } => message,
        other => panic!("expected Fail, got {other:?}"),
    }
}

#[test]
fn init_parameters_no_engine_can_be_built_from_are_refused() {
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
fn a_journal_holding_a_refused_init_replays() {
    let path = std::env::temp_dir().join(format!("cij-dist-bad-init-{}.wal", std::process::id()));
    let bad = init(1, 20.0, 0, 0.0);
    let mut image = Vec::new();
    write_frame(&mut image, &bad.encode()).expect("frame");
    write_frame(&mut image, &init(2, 20.0, 4, 0.0).encode()).expect("frame");
    std::fs::write(&path, &image).expect("write journal");

    let mut worker = ShardWorker::open(&path).expect("the worker comes back");
    let _ = std::fs::remove_file(&path);
    assert_eq!(worker.recovered(), 2);
    assert_eq!(worker.last_applied(), 2);
    assert!(refused(&worker.handle(&bad)).contains("buckets_per_tm=0"));
    assert_eq!(
        worker.handle(&Request::Track { seq: 3 }),
        Response::Ack { seq: 3 }
    );
}

#[test]
fn kinematics_an_engine_would_assert_on_are_refused() {
    let primed = || {
        let mut worker = ShardWorker::ephemeral();
        worker.handle(&init(1, 20.0, 4, 0.0));
        worker.handle(&Request::Track { seq: 2 });
        worker.handle(&Request::Start { seq: 3, now: 0.0 });
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
        let op = EngineOp::Insert {
            set: SetTag::A,
            id: ObjectId(9),
            mbr,
        };
        let step = Request::Step {
            seq: 4,
            now: 1.0,
            ack_through: 0,
            ops: vec![op],
        };
        assert!(
            refused(&primed().handle(&step)).contains("trajectory"),
            "{mbr:?}"
        );
        let immediate = Request::Immediate {
            seq: 4,
            now: 1.0,
            op,
        };
        assert!(
            refused(&primed().handle(&immediate)).contains("trajectory"),
            "{mbr:?}"
        );
    }
    for now in [f64::NAN, f64::INFINITY, 1e300] {
        let step = Request::Step {
            seq: 4,
            now,
            ack_through: 0,
            ops: Vec::new(),
        };
        refused(&primed().handle(&step));
        refused(&primed().handle(&Request::Start { seq: 4, now }));
    }
    // The sound trajectory itself is applied.
    let op = EngineOp::Insert {
        set: SetTag::A,
        id: ObjectId(9),
        mbr: sound,
    };
    let step = Request::Step {
        seq: 4,
        now: 1.0,
        ack_through: u64::MAX, // "everything": must not overflow the prune
        ops: vec![op],
    };
    let mut worker = primed();
    assert!(matches!(
        worker.handle(&step),
        Response::StepAck { seq: 4, .. }
    ));
    assert_eq!(worker.outbox_len(), 0);
}
