//! Lockstep differential tests for load shedding.
//!
//! The shedding contract has two halves:
//!
//! * **No saturation ⇒ nothing shed.** A service whose queue never
//!   closes supersedes nothing, and its delta stream is bit-identical
//!   across thread counts — shedding is observable only under pressure.
//! * **Saturation ⇒ post-tick equality.** Under saturation, replacing a
//!   pending update with a newer one for the same object is sound under
//!   the paper's `T_M` discipline: the service keys the replacement's
//!   delete by its registration table, so the index delete hits exactly
//!   what the tree holds, and by the end of the tick both services have
//!   registered the same final trajectory. Intermediate deltas may
//!   differ (the oracle briefly reports pairs involving the superseded
//!   position); the post-tick result set may not. Pinned here at
//!   threads {1, 4}, with the delta stream additionally bit-identical
//!   across thread counts.
//!
//! The saturation driver is deterministic by construction: wave 1 fills
//! the shed service's queue exactly to its high watermark (closing it),
//! wave 2 re-updates half of wave 1's objects — admissible only through
//! supersession, which the test asserts happened every single time. A
//! service on the default configuration sheds the same way at its own
//! high watermark.
//!
//! A lying producer — every update's delete keys wrong — gets the
//! honest producer's answer under saturation and over MTB, TC and a
//! sharded engine: the service derives the delete keys itself.
//!
//! A final test pins the backpressure flip counters end to end through
//! cij-obs: a degenerate `high == low == 1` queue must engage and
//! release exactly once per tick, no more (re-entry flapping is bounded
//! by the per-tick cadence, not amplified by it).

mod common;

use std::collections::HashSet;
use std::sync::Arc;

use cij_core::{ContinuousJoinEngine, EngineConfig, MtbEngine, PairKey, TcEngine};
use cij_geom::{MovingRect, Rect, Time};
use cij_join::brute::brute_pairs_at;
use cij_shard::{ShardCoordinator, VelocityBandPolicy};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_stream::{IngestOutcome, ResultDelta, StampedDelta, StreamConfig, StreamService};
use cij_tpr::TprResult;
use cij_workload::{generate_pair, MovingObject, ObjectUpdate, Params, SetTag, UpdateStream};

use common::{mtb_factory, ChainedGen};

/// First-wave updates per tick — also the shed queue's high watermark.
const WAVE: usize = 30;
/// The shed queue's capacity: its high watermark, 3/4 of it, is `WAVE`.
const SHED_CAPACITY: usize = WAVE * 4 / 3;
/// A capacity no schedule here comes near: the oracle's queue never
/// closes.
const UNBOUNDED: usize = 1 << 16;
/// Second-wave (superseding) updates per tick.
const SUPERSEDE: usize = 15;
const TICKS: u32 = 40;

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
    threads: usize,
    a: &[cij_workload::MovingObject],
    b: &[cij_workload::MovingObject],
) -> StreamService {
    let config = StreamConfig::builder()
        .engine(
            EngineConfig::builder()
                .threads(threads)
                .metrics(true)
                .build(),
        )
        .batch_capacity(capacity)
        .outbox_capacity(1 << 16)
        .build();
    let factory = mtb_factory();
    StreamService::new(config, a, b, 0.0, &factory).unwrap()
}

// ----------------------------------------------------------------------
// Half 1: no saturation ⇒ nothing is shed.
// ----------------------------------------------------------------------

fn run_unsaturated(threads: usize) -> Vec<StampedDelta> {
    let params = small_params(610);
    let (a, b) = generate_pair(&params, 0.0);
    let mut svc = service(UNBOUNDED, threads, &a, &b);
    let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
    let mut out = Vec::new();
    for tick in 1..=TICKS {
        let now = Time::from(tick);
        for u in stream.tick(now) {
            assert_eq!(svc.submit(u, now), IngestOutcome::Accepted);
        }
        out.extend(svc.advance_to(now).unwrap());
    }
    assert_eq!(svc.shed_dropped_stale(), 0, "unsaturated run shed");
    assert!(!out.is_empty(), "vacuous run");
    out
}

#[test]
fn unsaturated_runs_shed_nothing_at_any_thread_count() {
    assert_eq!(
        run_unsaturated(1),
        run_unsaturated(4),
        "unsaturated delta stream differs between threads=1 and threads=4"
    );
}

// ----------------------------------------------------------------------
// Half 2: saturation ⇒ post-tick result equality.
// ----------------------------------------------------------------------

/// Drives the oracle (a queue that never closes) and the shed service
/// (queue closed by wave 1) over an identical two-wave schedule; returns
/// the shed service's delta stream and the per-tick result sets.
fn run_saturated_lockstep(threads: usize, seed: u64) -> (Vec<StampedDelta>, Vec<Vec<PairKey>>) {
    let params = small_params(seed);
    let (a, b) = generate_pair(&params, 0.0);
    let mut oracle = service(UNBOUNDED, threads, &a, &b);
    let mut shed = service(SHED_CAPACITY, threads, &a, &b);
    let mut gen = ChainedGen::new(&params, &a, &b, 0.0);
    let mut shed_stream = Vec::new();
    let mut results = Vec::new();
    for tick in 1..=TICKS {
        let now = Time::from(tick);
        let wave1_at = now - 0.5;
        // Wave 1: WAVE distinct objects (rotating window over the id
        // space, so every object refreshes well inside T_M). Fills the
        // shed queue exactly to its high watermark.
        let base = (tick as usize * WAVE * 2) % gen.len();
        let mut wave1 = Vec::with_capacity(WAVE);
        for k in 0..WAVE {
            let u = gen.candidate(base + k, u64::from(tick), wave1_at);
            gen.commit(&u, wave1_at);
            assert_eq!(oracle.submit(u, wave1_at), IngestOutcome::Accepted);
            assert_eq!(shed.submit(u, wave1_at), IngestOutcome::Accepted);
            wave1.push(base + k);
        }
        assert!(!shed.is_accepting(), "wave 1 must close the shed queue");
        assert!(oracle.is_accepting(), "the oracle must never close");
        // Wave 2: newer updates for half of wave 1's objects. The shed
        // queue is closed — admission is possible only by superseding
        // the object's pending wave-1 update.
        for k in 0..SUPERSEDE {
            let u = gen.candidate(wave1[k * 2], u64::from(tick) ^ 0xDEAD_BEEF, now);
            gen.commit(&u, now);
            assert_eq!(oracle.submit(u, now), IngestOutcome::Accepted);
            assert_eq!(
                shed.submit(u, now),
                IngestOutcome::Accepted,
                "supersession must absorb wave 2 at t={now}"
            );
        }
        oracle.advance_to(now).unwrap();
        shed_stream.extend(shed.advance_to(now).unwrap());
        assert!(shed.is_accepting(), "drain must reopen the shed queue");
        let expect = oracle.result_at(now);
        assert_eq!(
            shed.result_at(now),
            expect,
            "post-tick result diverges at t={now} (threads {threads})"
        );
        results.push(expect);
    }
    assert_eq!(
        shed.shed_dropped_stale(),
        u64::from(TICKS) * SUPERSEDE as u64,
        "every wave-2 update must shed its wave-1 predecessor"
    );
    assert_eq!(oracle.shed_dropped_stale(), 0);
    (shed_stream, results)
}

#[test]
fn drop_stale_post_tick_results_match_oracle_at_threads_1_and_4() {
    let (stream_seq, results_seq) = run_saturated_lockstep(1, 611);
    let (stream_par, results_par) = run_saturated_lockstep(4, 611);
    assert_eq!(
        results_seq, results_par,
        "post-tick results differ between threads=1 and threads=4"
    );
    assert_eq!(
        stream_seq, stream_par,
        "shed delta stream differs between threads=1 and threads=4"
    );
    // Non-vacuity: the sheds really produced pairs to compare.
    assert!(
        results_seq.iter().any(|r| !r.is_empty()),
        "no pairs ever reported"
    );
}

/// The shed service's own delta stream stays strict and snapshot-exact
/// even while it supersedes — replaying it reconstructs `result_at` at
/// every tick.
#[test]
fn drop_stale_delta_stream_replays_to_snapshots_under_saturation() {
    let params = small_params(612);
    let (a, b) = generate_pair(&params, 0.0);
    let mut shed = service(SHED_CAPACITY, 1, &a, &b);
    let mut gen = ChainedGen::new(&params, &a, &b, 0.0);
    let mut replayed: HashSet<PairKey> = HashSet::new();
    for tick in 1..=TICKS {
        let now = Time::from(tick);
        let wave1_at = now - 0.5;
        let base = (tick as usize * WAVE * 2) % gen.len();
        for k in 0..WAVE {
            let u = gen.candidate(base + k, u64::from(tick), wave1_at);
            gen.commit(&u, wave1_at);
            assert_eq!(shed.submit(u, wave1_at), IngestOutcome::Accepted);
        }
        for k in 0..SUPERSEDE {
            let u = gen.candidate(base + k * 2, u64::from(tick) ^ 0xDEAD_BEEF, now);
            gen.commit(&u, now);
            assert_eq!(shed.submit(u, now), IngestOutcome::Accepted);
        }
        for d in shed.advance_to(now).unwrap() {
            match d.delta {
                ResultDelta::PairAdded { pair, .. } => {
                    assert!(replayed.insert(pair), "duplicate add {pair:?} at t={now}");
                }
                ResultDelta::PairRemoved { pair } => {
                    assert!(
                        replayed.remove(&pair),
                        "removal of absent {pair:?} at t={now}"
                    );
                }
            }
        }
        let mut got: Vec<PairKey> = replayed.iter().copied().collect();
        got.sort_unstable();
        assert_eq!(got, shed.result_at(now), "replay diverges at t={now}");
    }
    assert!(shed.shed_dropped_stale() > 0, "saturation never triggered");
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
    let mut oracle = service(UNBOUNDED, 1, &a, &b);
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

// ----------------------------------------------------------------------
// Delete keys: a lying producer gets the honest producer's answer.
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Backend {
    Mtb,
    Tc,
    /// A K = 2 velocity-band `ShardCoordinator` over MTB engines.
    Sharded,
}

fn backend_service(
    backend: Backend,
    params: &Params,
    a: &[MovingObject],
    b: &[MovingObject],
) -> StreamService {
    let config = StreamConfig::builder()
        .batch_capacity(SHED_CAPACITY)
        .outbox_capacity(1 << 16)
        .build();
    let max_speed = params.max_speed;
    let factory = move |cfg: &EngineConfig,
                        a: &[MovingObject],
                        b: &[MovingObject],
                        start: Time|
          -> TprResult<Box<dyn ContinuousJoinEngine>> {
        let pool = BufferPool::new(
            Arc::new(InMemoryStore::new()),
            BufferPoolConfig::with_capacity(256),
        );
        Ok(match backend {
            Backend::Mtb => Box::new(MtbEngine::new(pool, *cfg, a, b, start)?),
            Backend::Tc => Box::new(TcEngine::new(pool, *cfg, a, b, start)?),
            Backend::Sharded => Box::new(ShardCoordinator::with_factory(
                pool,
                *cfg,
                Arc::new(VelocityBandPolicy::new(2, max_speed)),
                a,
                b,
                start,
                Arc::new(|pool, cfg, a, b, t| Ok(Box::new(MtbEngine::new(pool, *cfg, a, b, t)?))),
            )?),
        })
    };
    StreamService::new(config, a, b, 0.0, &factory).unwrap()
}

/// `u` with every delete key wrong: the other side's tag, a trajectory
/// the object never had, and a tick it was never updated at.
fn lie(u: ObjectUpdate) -> ObjectUpdate {
    let nowhere = Rect::new([-500.0, -500.0], [-499.0, -499.0]);
    ObjectUpdate {
        set: match u.set {
            SetTag::A => SetTag::B,
            SetTag::B => SetTag::A,
        },
        old_mbr: MovingRect::stationary(nowhere, u.last_update + 3.25),
        last_update: u.last_update + 3.25,
        ..u
    }
}

/// Drives an honest and a lying producer's services in lockstep over
/// the saturating two-wave schedule: both must accept the same updates,
/// emit the same delta stream and report the same answer, and whenever
/// the queues are drained that answer is the brute-force join of the
/// committed trajectories.
fn run_honest_and_lying(backend: Backend) {
    let params = small_params(614);
    let (a, b) = generate_pair(&params, 0.0);
    let mut honest = backend_service(backend, &params, &a, &b);
    let mut lying = backend_service(backend, &params, &a, &b);
    let mut gen = ChainedGen::new(&params, &a, &b, 0.0);
    let ctx = format!("{backend:?}");
    let mut oracle_checks = 0;
    for tick in 1..=TICKS {
        let now = Time::from(tick);
        let base = (tick as usize * WAVE * 2) % gen.len();
        let waves = (0..WAVE).map(|k| (base + k, u64::from(tick), now - 0.5));
        let wave2 = (0..SUPERSEDE).map(|k| (base + k * 2, u64::from(tick) ^ 0xDEAD_BEEF, now));
        for (index, salt, at) in waves.chain(wave2) {
            let u = gen.candidate(index, salt, at);
            let outcome = honest.submit(u, at);
            assert_eq!(lying.submit(lie(u), at), outcome, "{ctx}: admission");
            if outcome == IngestOutcome::Accepted {
                gen.commit(&u, at);
            }
        }
        let expected = honest.advance_to(now).unwrap();
        let got = lying
            .advance_to(now)
            .unwrap_or_else(|e| panic!("{ctx}: lying producer at t={now}: {e}"));
        assert_eq!(got, expected, "{ctx}: delta stream at t={now}");
        let answer = honest.result_at(now);
        assert_eq!(lying.result_at(now), answer, "{ctx}: result at t={now}");
        if honest.queue_len() == 0 {
            let (set_a, set_b) = (gen.trajectories(SetTag::A), gen.trajectories(SetTag::B));
            assert_eq!(answer, brute_pairs_at(&set_a, &set_b, now), "{ctx}: oracle");
            oracle_checks += 1;
        }
    }
    assert!(
        oracle_checks >= TICKS / 2,
        "{ctx}: oracle checked {oracle_checks} times"
    );
    assert!(honest.shed_dropped_stale() > 0, "{ctx}: nothing replaced");
}

#[test]
fn a_lying_producer_gets_the_honest_answer() {
    for backend in [Backend::Mtb, Backend::Tc, Backend::Sharded] {
        run_honest_and_lying(backend);
    }
}

// ----------------------------------------------------------------------
// Backpressure flip counters, pinned end to end through cij-obs.
// ----------------------------------------------------------------------

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
    let mut svc = service(2, 1, &a, &b);
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
