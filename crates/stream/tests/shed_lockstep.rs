//! Backpressure: a service on the default configuration closes its
//! queue at 3/4 of `batch_capacity` and sheds by replacement, and
//! degenerate watermarks flip exactly once per tick. Saturated services
//! against brute force — over MTB, TC and a sharded engine, at threads
//! {1, 4}, with honest or lying producers — are the root package's
//! `conform` suite (`tests/conform.rs`).

mod common;

use cij_core::EngineConfig;
use cij_geom::Time;
use cij_stream::{IngestOutcome, StreamConfig, StreamService};
use cij_workload::{generate_pair, Params};

use common::{mtb_factory, ChainedGen};

/// A capacity no schedule here comes near: the reference queue never
/// closes.
const UNBOUNDED: usize = 1 << 16;

fn small_params(seed: u64) -> Params {
    Params {
        dataset_size: 100,
        space: 200.0,
        object_size_pct: 1.0,
        seed,
        ..Params::default()
    }
}

fn service(
    capacity: usize,
    a: &[cij_workload::MovingObject],
    b: &[cij_workload::MovingObject],
) -> StreamService {
    let config = StreamConfig::builder()
        .engine(EngineConfig::builder().metrics(true).build())
        .batch_capacity(capacity)
        .outbox_capacity(1 << 16)
        .build();
    let factory = mtb_factory();
    StreamService::new(config, a, b, 0.0, &factory).unwrap()
}

/// Saturation has one behaviour, with no setting to choose it: a service
/// on the default configuration closes its queue at 3/4 of
/// `batch_capacity`, and then admits a second update for an object with
/// one pending by replacing it. Once drained, its answer is that of a
/// service whose queue never closed.
#[test]
fn the_default_service_sheds_at_its_high_watermark() {
    let params = Params {
        dataset_size: 192,
        space: 400.0,
        object_size_pct: 1.0,
        seed: 615,
        ..Params::default()
    };
    let (a, b) = generate_pair(&params, 0.0);
    let config = StreamConfig::default();
    let high = config.batch_capacity * 3 / 4;
    let factory = mtb_factory();
    let mut shed = StreamService::new(config, &a, &b, 0.0, &factory).unwrap();
    let mut oracle = service(UNBOUNDED, &a, &b);
    let mut gen = ChainedGen::new(&params, &a, &b, 0.0);
    let population = gen.len();
    assert_eq!(high % population, 0, "whole rounds fill the queue");
    // Every object once per tick, until `high` updates are pending.
    let rounds = high / population;
    for k in 0..high {
        assert!(shed.is_accepting(), "closed below the high watermark");
        let at = Time::from((k / population + 1) as u32);
        let u = gen.candidate(k, k as u64, at);
        gen.commit(&u, at);
        assert_eq!(shed.submit(u, at), IngestOutcome::Accepted);
        assert_eq!(oracle.submit(u, at), IngestOutcome::Accepted);
    }
    assert!(
        !shed.is_accepting(),
        "the high watermark must close the queue"
    );
    assert_eq!(shed.queue_len(), high);

    let last = Time::from(rounds as u32);
    let u = gen.candidate(0, 0xDEAD_BEEF, last);
    gen.commit(&u, last);
    assert_eq!(
        shed.submit(u, last),
        IngestOutcome::Accepted,
        "a closed queue must replace the object's pending update"
    );
    assert_eq!(shed.shed_dropped_stale(), 1);
    assert_eq!(shed.queue_len(), high, "a replacement keeps the count");
    assert_eq!(oracle.submit(u, last), IngestOutcome::Accepted);

    shed.advance_to(last).unwrap();
    oracle.advance_to(last).unwrap();
    assert_eq!(shed.queue_len(), 0);
    assert!(shed.is_accepting(), "a full drain must reopen the queue");
    let answer = oracle.result_at(last);
    assert!(!answer.is_empty(), "vacuous: no pairs");
    assert_eq!(shed.result_at(last), answer);
}

/// Degenerate watermarks (capacity 2, so `high == low == 1`): every
/// tick's single update closes the queue and every drain reopens it. The
/// cij-obs flip counters must read exactly one engage and one release
/// per tick — hysteresis makes the flap rate track the tick cadence, not
/// the submission count.
#[test]
fn degenerate_watermarks_pin_backpressure_flip_counters() {
    const FLAPS: u32 = 12;
    let params = small_params(613);
    let (a, b) = generate_pair(&params, 0.0);
    let mut svc = service(2, &a, &b);
    let mut gen = ChainedGen::new(&params, &a, &b, 0.0);
    for tick in 1..=FLAPS {
        let now = Time::from(tick);
        let u = gen.candidate(tick as usize, u64::from(tick), now);
        gen.commit(&u, now);
        assert!(svc.is_accepting());
        assert_eq!(svc.submit(u, now), IngestOutcome::Accepted);
        assert!(!svc.is_accepting(), "high == 1 must close on every submit");
        // A second same-tick submission, for an object with nothing
        // pending, is refused, not a second flip.
        let refused = gen.candidate(tick as usize + 50, u64::from(tick), now);
        assert_eq!(svc.submit(refused, now), IngestOutcome::QueueFull);
        svc.advance_to(now).unwrap();
        assert!(svc.is_accepting(), "drain to low == 1 must reopen");
    }
    let snap = svc.metrics_snapshot();
    assert_eq!(
        snap.counter("stream.backpressure.engaged"),
        Some(u64::from(FLAPS)),
        "exactly one engage per tick"
    );
    assert_eq!(
        snap.counter("stream.backpressure.released"),
        Some(u64::from(FLAPS)),
        "exactly one release per tick"
    );
    let depth = snap.histogram("stream.ingest.queue_depth").unwrap();
    assert_eq!(
        depth.count,
        u64::from(FLAPS) * 2,
        "one sample per submission"
    );
    let latency = snap.histogram("stream.ingest.latency_ns").unwrap();
    assert_eq!(
        latency.count,
        u64::from(FLAPS),
        "one sample per applied update"
    );
}
