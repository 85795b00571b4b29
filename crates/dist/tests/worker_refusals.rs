//! What a [`ShardWorker`] refuses instead of panicking. The worker
//! documents that it never panics, and everything it is handed arrived as
//! bytes from a socket, so index parameters, kinematics and probes an
//! index would assert on come back as [`Response::Fail`].

use cij_core::Registration;
use cij_dist::{EngineKind, Refile, Request, Response, ShardWorker};
use cij_geom::{MovingRect, Rect};
use cij_tpr::ObjectId;
use cij_workload::SetTag;

/// Object `id` of side `set`, filed on `mbr` as registered at
/// `registered_at`.
fn filed(set: SetTag, id: u64, mbr: MovingRect, registered_at: f64) -> (ObjectId, Registration) {
    let registration = Registration {
        set,
        mbr,
        registered_at,
    };
    (ObjectId(id), registration)
}

fn stationary(x: f64) -> MovingRect {
    MovingRect::stationary(Rect::new([x, 0.0], [x + 1.0, 1.0]), 0.0)
}

/// An `Init` over A-object 1 and B-object 2, inserted at `start`.
fn init(seq: u64, t_m: f64, buckets_per_tm: u32, start: f64) -> Request {
    Request::Init {
        seq,
        engine: EngineKind::Mtb,
        t_m,
        buckets_per_tm,
        seed: Refile {
            now: start,
            removes: vec![],
            inserts: vec![
                filed(SetTag::A, 1, stationary(0.0), 0.0),
                filed(SetTag::B, 2, stationary(0.5), 0.0),
            ],
        },
    }
}

/// One `refile` call at `now` that files A-object 9 on `mbr`.
fn insert(mbr: MovingRect, registered_at: f64, now: f64) -> Refile {
    Refile {
        now,
        removes: vec![],
        inserts: vec![filed(SetTag::A, 9, mbr, registered_at)],
    }
}

fn step(seq: u64, now: f64, ops: Vec<Refile>, probes_a: Vec<MovingRect>) -> Request {
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
            t_ref: f64::NAN,
            ..sound
        },
    ];
    for mbr in hostile {
        let inserted = step(3, 1.0, vec![insert(mbr, 1.0, 1.0)], vec![]);
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
        let late = Refile {
            now: 1.0,
            removes: vec![filed(SetTag::B, 2, stationary(0.5), now)],
            inserts: vec![],
        };
        refused(&primed().handle(&step(3, 1.0, vec![late], Vec::new())));
        // A call whose own time no index can hold.
        let call = insert(sound, 1.0, now);
        refused(&primed().handle(&step(3, 1.0, vec![call], Vec::new())));
    }
    // Registered after the call that files it.
    let early = insert(sound, 2.0, 1.0);
    assert!(refused(&primed().handle(&step(3, 1.0, vec![early], vec![]))).contains("trajectory"));
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
    let round = Request::Step {
        seq: 3,
        now: 1.0,
        ack_through: u64::MAX, // "everything": must not overflow the prune
        ops: vec![insert(sound, 1.0, 1.0)],
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

/// A trajectory referenced after the call that files it — a window that
/// starts later — is what the engine files ([`Registration::is_sound_at`]),
/// so the worker files and probes it too, and answers as in process.
#[test]
fn a_window_that_starts_later_is_filed_and_probed() {
    let mut worker = ShardWorker::ephemeral();
    worker.handle(&init(1, 20.0, 4, 0.0));
    let window = MovingRect::stationary(Rect::new([0.0, 0.0], [1.0, 1.0]), 5.0);
    let round = step(2, 1.0, vec![insert(window, 1.0, 1.0)], vec![window]);
    let Response::StepAck { hits_a, .. } = worker.handle(&round) else {
        panic!("the window was refused");
    };
    let met: Vec<u64> = hits_a.iter().map(|&(_, id, _)| id.0).collect();
    assert_eq!(met, [2], "the window meets B-object 2");
}
