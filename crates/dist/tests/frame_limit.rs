//! A message too large to frame is refused where it is sent. The TCP
//! sender and receiver share one frame limit, so an `Init` the worker
//! would bounce is never put on the wire: the coordinator gets a typed
//! [`DistError::FrameTooLarge`] at once instead of resending the same
//! 17 MB through its whole reconnect budget and reporting the worker
//! unavailable. The initial join's probes go out in rounds of a bounded
//! size, so a set A whose trajectories alone exceed a frame still joins.

use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cij_core::ContinuousJoinEngine;
use cij_dist::tcp::{serve, TcpConnector};
use cij_dist::{Connector, DistConfig, DistCoordinator, DistError, DistResult, ShardWorker};
use cij_dist::{Request, Transport};
use cij_geom::{MovingRect, Rect};
use cij_join::brute::brute_pairs_at;
use cij_shard::VelocityBandPolicy;
use cij_storage::frame::MAX_FRAME_LEN;
use cij_tpr::ObjectId;
use cij_workload::MovingObject;

/// Counts the dials the coordinator makes through a [`TcpConnector`].
struct CountingConnector {
    inner: TcpConnector,
    dials: Arc<AtomicUsize>,
}

impl Connector for CountingConnector {
    fn connect(&self) -> DistResult<Box<dyn Transport>> {
        self.dials.fetch_add(1, Ordering::SeqCst);
        self.inner.connect()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

#[test]
fn an_init_over_the_frame_limit_is_refused_at_the_sender_and_not_redialled() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || {
        let mut worker = ShardWorker::ephemeral();
        serve(&listener, &mut worker)
    });

    // 80 bytes an object: just past the 16 MiB a frame may carry.
    let count = MAX_FRAME_LEN / 80 + 1;
    let set_a: Vec<MovingObject> = (0..count as u64)
        .map(|i| MovingObject {
            id: ObjectId(i),
            mbr: MovingRect::stationary(Rect::new([0.0, 0.0], [1.0, 1.0]), 0.0),
        })
        .collect();

    let dials = Arc::new(AtomicUsize::new(0));
    let connector = CountingConnector {
        inner: TcpConnector::new(addr.clone(), Duration::from_secs(5)),
        dials: Arc::clone(&dials),
    };
    let config = DistConfig {
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(2),
        ..DistConfig::default()
    };
    let outcome = DistCoordinator::new(
        config,
        Arc::new(VelocityBandPolicy::new(1, 0.0)),
        vec![Box::new(connector)],
        &set_a,
        &[],
        0.0,
    );
    match outcome {
        Err(e @ DistError::FrameTooLarge { len }) => {
            assert!(len > MAX_FRAME_LEN);
            assert!(e.to_string().contains(&MAX_FRAME_LEN.to_string()), "{e}");
        }
        Err(other) => panic!("expected FrameTooLarge, got {other}"),
        Ok(_) => panic!("an oversized Init was accepted"),
    }
    assert_eq!(
        dials.load(Ordering::SeqCst),
        1,
        "the refusal must not be retried"
    );

    // The connection the refused message never used is still good.
    let mut transport = TcpConnector::new(addr, Duration::from_secs(5))
        .connect()
        .expect("dial");
    transport.call(&Request::Shutdown).expect("shutdown");
    server.join().expect("server thread").expect("serve");
}

/// Bytes of one probe trajectory on the wire.
const PROBE_LEN: usize = 72;

#[test]
fn an_initial_join_of_more_probes_than_a_frame_holds_runs_in_rounds() {
    const K: usize = 4;
    let workers: Vec<_> = (0..K)
        .map(|_| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr").to_string();
            let server = std::thread::spawn(move || {
                let mut worker = ShardWorker::ephemeral();
                serve(&listener, &mut worker)
            });
            (addr, server)
        })
        .collect();

    // More A trajectories than one frame carries, a quarter in each
    // speed band, so every partition's `Init` fits; a few large B
    // objects, one band each.
    let count = MAX_FRAME_LEN / PROBE_LEN + 1;
    let moving = |i: usize, side: f64, x: f64, y: f64| MovingObject {
        id: ObjectId(i as u64),
        mbr: MovingRect::rigid(
            Rect::new([x, y], [x + side, y + side]),
            [0.5 + (i % K) as f64, 0.0],
            0.0,
        ),
    };
    let set_a: Vec<MovingObject> = (0..count)
        .map(|i| moving(i, 1.0, (i % 1000) as f64 * 10.0, (i / 1000) as f64 * 10.0))
        .collect();
    let set_b: Vec<MovingObject> = (0..8)
        .map(|j| moving(count + j, 40.0, j as f64 * 1200.0, j as f64 * 290.0))
        .collect();

    let connectors: Vec<Box<dyn Connector>> = (workers.iter())
        .map(|(addr, _)| {
            Box::new(TcpConnector::new(addr.clone(), Duration::from_secs(30))) as Box<dyn Connector>
        })
        .collect();
    let policy = Arc::new(VelocityBandPolicy::new(K, K as f64));
    let mut coordinator = DistCoordinator::new(
        DistConfig::default(),
        policy,
        connectors,
        &set_a,
        &set_b,
        0.0,
    )
    .expect("every Init fits");
    coordinator.run_initial_join(0.0).expect("rounds fit");

    let trajectories =
        |set: &[MovingObject]| -> Vec<_> { set.iter().map(|o| (o.id, o.mbr)).collect() };
    let expected = brute_pairs_at(&trajectories(&set_a), &trajectories(&set_b), 0.0);
    assert!(!expected.is_empty(), "the sets must meet");
    assert_eq!(coordinator.result_at(0.0), expected);

    coordinator.shutdown_workers();
    for (_, server) in workers {
        server.join().expect("server thread").expect("serve");
    }
}
