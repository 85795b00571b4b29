//! A message too large to frame is refused where it is sent. The TCP
//! sender and receiver share one frame limit, so an `Init` the worker
//! would bounce is never put on the wire: the coordinator gets a typed
//! [`DistError::FrameTooLarge`] at once instead of resending the same
//! 17 MB through its whole reconnect budget and reporting the worker
//! unavailable.

use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cij_dist::tcp::{serve, TcpConnector};
use cij_dist::{Connector, DistConfig, DistCoordinator, DistError, DistResult, ShardWorker};
use cij_dist::{Request, Transport};
use cij_geom::{MovingRect, Rect};
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
