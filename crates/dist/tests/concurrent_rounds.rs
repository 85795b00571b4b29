//! The coordinator's per-worker rounds run concurrently: a tick's `Step`s
//! are in flight on several workers at once, the merged stream is still
//! bit-identical to the in-process shard coordinator's, and a round in
//! which one worker fails keeps every other worker's rounds exact — and
//! re-seeds the failed worker once it answers again.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cij_core::{ContinuousJoinEngine, EngineConfig, MtbEngine, MtbPair};
use cij_dist::loopback::LoopbackHost;
use cij_dist::{
    joinable_pairs, Connector, DistConfig, DistCoordinator, DistError, DistResult, EngineKind,
    IndexOp, Request, Response, ShardWorker, Transport,
};
use cij_geom::{MovingRect, Rect, Time, DIMS};
use cij_shard::{PartitionPolicy, ShardCoordinator, VelocityBandPolicy};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_stream::{StreamConfig, StreamService, SubscriptionFilter};
use cij_tpr::ObjectId;
use cij_workload::{generate_pair, Distribution, Params, SetTag, UpdateStream};

/// How long a `Step` waits for a second caller before giving up.
const COMPANY_WAIT: Duration = Duration::from_secs(2);

/// Shared by every wrapped slot of one deployment.
#[derive(Default)]
struct Probe {
    /// `Step` calls currently inside a transport, and the most ever seen.
    in_flight: AtomicUsize,
    peak: AtomicUsize,
    /// Set once a `Step` has waited for company — met or timed out — so
    /// that at most one call ever waits.
    waited: AtomicBool,
}

/// The last `Init` one worker was sent.
type LastInit = Arc<Mutex<Option<Request>>>;

/// A loopback connector that counts in-flight `Step`s, keeps the last
/// `Init` and, while its `refuse` flag is set, neither dials nor answers.
struct Wrapped {
    inner: Box<dyn Connector>,
    probe: Arc<Probe>,
    refuse: Arc<AtomicBool>,
    last_init: LastInit,
}

impl Connector for Wrapped {
    fn connect(&self) -> DistResult<Box<dyn Transport>> {
        if self.refuse.load(Ordering::SeqCst) {
            return Err(refused());
        }
        Ok(Box::new(WrappedTransport {
            inner: self.inner.connect()?,
            probe: Arc::clone(&self.probe),
            refuse: Arc::clone(&self.refuse),
            last_init: Arc::clone(&self.last_init),
        }))
    }

    fn describe(&self) -> String {
        format!("wrapped({})", self.inner.describe())
    }
}

struct WrappedTransport {
    inner: Box<dyn Transport>,
    probe: Arc<Probe>,
    refuse: Arc<AtomicBool>,
    last_init: LastInit,
}

impl Transport for WrappedTransport {
    fn call(&mut self, req: &Request) -> DistResult<Response> {
        if self.refuse.load(Ordering::SeqCst) {
            return Err(refused());
        }
        if matches!(req, Request::Init { .. }) {
            *self.last_init.lock().expect("last init") = Some(req.clone());
        }
        if !matches!(req, Request::Step { .. }) {
            return self.inner.call(req);
        }
        let probe = &self.probe;
        let mine = probe.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        probe.peak.fetch_max(mine, Ordering::SeqCst);
        if !probe.waited.load(Ordering::SeqCst) {
            // Still in flight, so a second caller arriving now raises the
            // peak to 2 — however quickly it is done again.
            let deadline = Instant::now() + COMPANY_WAIT;
            while probe.peak.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(50));
            }
            probe.waited.store(true, Ordering::SeqCst);
        }
        let resp = self.inner.call(req);
        probe.in_flight.fetch_sub(1, Ordering::SeqCst);
        resp
    }
}

fn refused() -> DistError {
    DistError::Io(std::io::Error::new(
        std::io::ErrorKind::ConnectionRefused,
        "dial refused",
    ))
}

fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn params(seed: u64) -> Params {
    Params {
        dataset_size: 100,
        distribution: Distribution::VelocitySkew,
        seed,
        space: 200.0,
        object_size_pct: 1.0,
        maximum_update_interval: 20.0,
        ..Params::default()
    }
}

/// One ephemeral loopback host per worker of `policy`, each behind a
/// [`Wrapped`] connector sharing `probe`, with its own refuse flag.
struct Deployment {
    hosts: Vec<Arc<LoopbackHost>>,
    refuse: Vec<Arc<AtomicBool>>,
    last_init: Vec<LastInit>,
    probe: Arc<Probe>,
}

impl Deployment {
    fn new(policy: &dyn PartitionPolicy) -> Self {
        let workers = joinable_pairs(policy).len();
        let probe = Arc::new(Probe {
            // Only a machine that can overlap calls is asked to wait.
            waited: AtomicBool::new(parallelism() < 2),
            ..Probe::default()
        });
        Self {
            hosts: (0..workers).map(|_| LoopbackHost::ephemeral()).collect(),
            refuse: (0..workers).map(|_| Arc::default()).collect(),
            last_init: (0..workers).map(|_| Arc::default()).collect(),
            probe,
        }
    }

    fn connectors(&self) -> Vec<Box<dyn Connector>> {
        (self.hosts.iter().zip(&self.refuse).zip(&self.last_init))
            .map(|((host, refuse), last_init)| {
                Box::new(Wrapped {
                    inner: Box::new(host.connector()),
                    probe: Arc::clone(&self.probe),
                    refuse: Arc::clone(refuse),
                    last_init: Arc::clone(last_init),
                }) as Box<dyn Connector>
            })
            .collect()
    }
}

fn dist_config(params: &Params) -> DistConfig {
    DistConfig {
        engine: EngineKind::Mtb,
        t_m: params.maximum_update_interval,
        metrics: true,
        connect_attempts: 3,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(2),
        ..DistConfig::default()
    }
}

/// On a machine with two or more cores, a tick's `Step`s overlap — and
/// the stream they merge into is the in-process shard coordinator's,
/// delta for delta. On one core only the second half is asserted.
#[test]
fn step_rounds_overlap_and_the_stream_stays_bit_identical() {
    let p = params(101);
    let policy: Arc<dyn PartitionPolicy> = Arc::new(VelocityBandPolicy::new(2, p.max_speed));
    let deployment = Deployment::new(&*policy);
    assert!(deployment.hosts.len() >= 2, "need two workers to overlap");
    let (a, b) = generate_pair(&p, 0.0);
    let stream_config = StreamConfig::builder()
        .engine(cij_core::EngineConfig {
            t_m: p.maximum_update_interval,
            ..cij_core::EngineConfig::default()
        })
        .build();

    let shard_policy = Arc::clone(&policy);
    let mut shard = StreamService::new(stream_config.clone(), &a, &b, 0.0, &|cfg, a, b, now| {
        let pool = BufferPool::new(
            Arc::new(InMemoryStore::new()),
            BufferPoolConfig::with_capacity(256),
        );
        Ok(Box::new(ShardCoordinator::with_factory(
            pool,
            *cfg,
            Arc::clone(&shard_policy),
            a,
            b,
            now,
            Arc::new(|pool, cfg, a, b, now| Ok(Box::new(MtbEngine::new(pool, *cfg, a, b, now)?))),
        )?))
    })
    .expect("shard service");
    let mut dist = StreamService::new(stream_config, &a, &b, 0.0, &|_, a, b, now| {
        Ok(Box::new(DistCoordinator::new(
            dist_config(&p),
            Arc::clone(&policy),
            deployment.connectors(),
            a,
            b,
            now,
        )?))
    })
    .expect("dist service");
    let sub_shard = shard.subscribe(SubscriptionFilter::All).expect("sub");
    let sub_dist = dist.subscribe(SubscriptionFilter::All).expect("sub");

    let mut workload = UpdateStream::new(&p, &a, &b, 0.0);
    let mut deltas = 0;
    for tick in 1..=25u32 {
        let now = Time::from(tick);
        for u in workload.tick(now) {
            shard.submit(u, now);
            dist.submit(u, now);
        }
        let d_shard = shard.advance_to(now).expect("shard advance");
        let d_dist = dist.advance_to(now).expect("dist advance");
        assert_eq!(d_dist, d_shard, "advance deltas diverged at t={now}");
        deltas += d_shard.len();
        assert_eq!(
            dist.poll(sub_dist).unwrap_or_default(),
            shard.poll(sub_shard).unwrap_or_default(),
            "outboxes diverged at t={now}"
        );
        assert_eq!(dist.result_at(now), shard.result_at(now), "t={now}");
    }
    assert!(deltas > 0, "the run never changed the answer");

    let peak = deployment.probe.peak.load(Ordering::SeqCst);
    if parallelism() >= 2 {
        assert!(peak >= 2, "no two Steps were ever in flight at once");
    } else {
        assert_eq!(peak, 1, "one core runs the sequential path");
    }
}

/// A round in which one worker cannot be reached fails with *that*
/// slot's `WorkerUnavailable`, yet every worker that acked its `Step`
/// recorded it: the acked-seq gauges advance. A healthy worker that then
/// loses everything is re-seeded from the engine's registrations at the
/// next round — together with the two that missed the failed round's
/// `Step` — and its index meets what it met before the loss, and does
/// the work an in-process worker seeded with the same `Init` does.
#[test]
fn a_failed_round_keeps_every_acked_round_exact() {
    let p = params(102);
    let policy: Arc<dyn PartitionPolicy> = Arc::new(VelocityBandPolicy::new(4, p.max_speed));
    let deployment = Deployment::new(&*policy);
    let workers = deployment.hosts.len();
    assert_eq!(workers, 4);
    let (a, b) = generate_pair(&p, 0.0);
    let config = dist_config(&p);
    let attempts = config.connect_attempts;
    let mut dist = DistCoordinator::new(
        config,
        Arc::clone(&policy),
        deployment.connectors(),
        &a,
        &b,
        0.0,
    )
    .expect("dist coordinator");
    dist.enable_delta_tracking();
    dist.run_initial_join(0.0).expect("initial join");

    let mut workload = UpdateStream::new(&p, &a, &b, 0.0);
    let healthy_ticks = 6u32;
    let mut rounds = 1u64; // the initial join's
    for tick in 1..=healthy_ticks {
        let now = Time::from(tick);
        let updates = workload.tick(now);
        rounds += u64::from(!updates.is_empty());
        dist.apply_batch(&updates, now).expect("healthy tick");
        dist.take_result_changes();
    }
    let acked = |dist: &DistCoordinator| -> Vec<i64> {
        dist.publish_metrics();
        let snap = dist.metrics_registry().snapshot();
        (0..workers)
            .map(|i| {
                snap.gauge(&format!("dist.worker.{i}.acked_seq"))
                    .expect("acked_seq gauge")
            })
            .collect()
    };
    let before = acked(&dist);
    // Each worker numbers its own requests: the Init, then its rounds.
    assert_eq!(before, vec![1 + rounds as i64; workers]);

    // Slots 1 and 3 go dark: the round fails, naming the lower of them.
    let failing = [1usize, 3];
    for &slot in &failing {
        deployment.refuse[slot].store(true, Ordering::SeqCst);
    }
    let now = Time::from(healthy_ticks + 1);
    let updates = workload.tick(now);
    assert!(!updates.is_empty());
    let err = dist
        .apply_batch(&updates, now)
        .expect_err("two workers are unreachable");
    let expected = DistError::WorkerUnavailable { slot: 1, attempts }.to_string();
    assert!(
        err.to_string().contains(&expected),
        "expected {expected:?}, got {err}"
    );

    // The healthy slots acked the round's Step, the dark ones did not.
    let after = acked(&dist);
    for slot in 0..workers {
        let want = before[slot] + i64::from(!failing.contains(&slot));
        assert_eq!(after[slot], want, "slot {slot}");
    }

    // Back online: the dark slots reconnect. They missed the failed
    // round's mutations, so they are lost, but a heartbeat seeds nothing.
    for &slot in &failing {
        deployment.refuse[slot].store(false, Ordering::SeqCst);
    }
    dist.heartbeat().expect("every worker reachable again");
    let reseeds = |dist: &DistCoordinator| {
        let snap = dist.metrics_registry().snapshot();
        (snap.counter("dist.reseeds")).zip(snap.counter("dist.reseed_objects"))
    };
    assert_eq!(reseeds(&dist), Some((0, 0)));

    // What the victim's index answers before it is lost: a probe-only
    // Step, dialled past the coordinator, of the failed tick's
    // trajectories and a still rectangle over the whole space, which
    // meets every object the partition holds.
    let victim = 0;
    let everything =
        MovingRect::stationary(Rect::new([-p.space; DIMS], [2.0 * p.space; DIMS]), now);
    let probes = |set| {
        let mut mbrs: Vec<MovingRect> = (updates.iter())
            .filter(|u| u.set == set)
            .map(|u| u.new_mbr)
            .collect();
        mbrs.push(everything);
        mbrs
    };
    let probe_step = |seq: i64| Request::Step {
        seq: seq as u64 + 1,
        now,
        ack_through: 0,
        ops: Vec::new(),
        probes_a: probes(SetTag::A),
        probes_b: probes(SetTag::B),
    };
    let answer = |host: &Arc<LoopbackHost>, step: &Request| {
        let mut channel = host.connector().connect().expect("dial the victim");
        let ack = channel.call(step).expect("probe-only step");
        assert!(matches!(ack, Response::StepAck { .. }), "got {ack:?}");
        ack
    };
    let sorted_hits = |ack: &Response| {
        let Response::StepAck { hits_a, hits_b, .. } = ack else {
            unreachable!()
        };
        let mut hits = [hits_a.clone(), hits_b.clone()];
        for side in &mut hits {
            side.sort_by_key(|&(probe, partner, _)| (probe, partner));
        }
        hits
    };
    let held = sorted_hits(&answer(
        &deployment.hosts[victim],
        &probe_step(after[victim]),
    ));
    assert!(
        !(held[0].is_empty() && held[1].is_empty()),
        "the probes meet nothing: the comparison below would be vacuous"
    );

    // A healthy worker loses its machine. The heartbeat finds it lost;
    // the next round — an object filed on another worker — re-seeds it
    // and the two dark slots from the engine's registrations and probes
    // them again.
    deployment.hosts[victim].kill();
    dist.heartbeat().expect("the victim is reachable");
    assert_eq!(reseeds(&dist), Some((0, 0)), "a heartbeat seeds nothing");
    let here = Rect::new([0.0; DIMS], [1.0; DIMS]);
    let newcomer = MovingRect::rigid(here, [0.9 * p.max_speed, 0.0], now);
    let id = ObjectId(1 << 40);
    assert_ne!(policy.shard_of(id, &newcomer), victim);
    dist.restore_object(SetTag::A, id, newcomer, now, now)
        .expect("a round that re-seeds the victim");
    let last_init = |slot: usize| {
        let init = deployment.last_init[slot]
            .lock()
            .expect("last init")
            .clone();
        init.expect("a re-seed")
    };
    let seeded = |slot: usize| match last_init(slot) {
        Request::Init { ops, .. } => ops.len() as u64,
        other => unreachable!("{other:?}"),
    };
    let seed = last_init(victim);
    let reseeded = [victim, failing[0], failing[1]];
    let objects = reseeded.iter().map(|&slot| seeded(slot)).sum();
    assert_eq!(reseeds(&dist), Some((3, objects)));

    // Its hits are the pre-loss hits; its work is that of a blank
    // in-process worker handed the same seed.
    let step = probe_step(acked(&dist)[victim]);
    let rebuilt = answer(&deployment.hosts[victim], &step);
    assert_eq!(
        sorted_hits(&rebuilt),
        held,
        "the rebuilt index meets other objects"
    );
    let mut twin = ShardWorker::ephemeral();
    assert!(matches!(twin.handle(&seed), Response::Ack { .. }));
    assert_eq!(
        twin.handle(&step),
        rebuilt,
        "the re-seeded index did other work"
    );
}

/// A worker that stays up but misses one busy round's `Step` — it
/// neither dials nor answers for that round — lacks that round's
/// mutations when it comes back. The failed `Step` marks it lost, so the
/// next round re-seeds it, with one `Init` of exactly its shard's
/// population, and no later round fails with `ObjectNotFound`. Once every
/// object updated in the failed round has updated again, the answer is
/// the in-process shard coordinator's.
#[test]
fn a_worker_that_missed_a_step_is_reseeded_at_the_next_round() {
    let p = params(103);
    let policy: Arc<dyn PartitionPolicy> = Arc::new(VelocityBandPolicy::new(2, p.max_speed));
    let deployment = Deployment::new(&*policy);
    let (a, b) = generate_pair(&p, 0.0);
    let mut dist = DistCoordinator::new(
        dist_config(&p),
        Arc::clone(&policy),
        deployment.connectors(),
        &a,
        &b,
        0.0,
    )
    .expect("dist coordinator");
    let pool = BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(256),
    );
    let engine = EngineConfig {
        t_m: p.maximum_update_interval,
        ..EngineConfig::default()
    };
    let mut local =
        ShardCoordinator::<MtbPair>::new(pool, engine, Arc::clone(&policy), &a, &b, 0.0)
            .expect("in-process coordinator");
    dist.run_initial_join(0.0).expect("initial join");
    local.run_initial_join(0.0).expect("initial join");
    let reseeds = |dist: &DistCoordinator| {
        let snap = dist.metrics_registry().snapshot();
        (snap.counter("dist.reseeds")).zip(snap.counter("dist.reseed_objects"))
    };

    let mut workload = UpdateStream::new(&p, &a, &b, 0.0);
    let (dark, failed_tick) = (1usize, 4u32);
    let mut pending: HashSet<ObjectId> = HashSet::new();
    let mut exact_ticks = 0;
    for tick in 1..=failed_tick + 2 * p.maximum_update_interval as u32 {
        let now = Time::from(tick);
        let updates = workload.tick(now);
        local.apply_batch(&updates, now).expect("in-process tick");
        if tick == failed_tick {
            assert!(!updates.is_empty(), "the failed round must be busy");
            deployment.refuse[dark].store(true, Ordering::SeqCst);
            let err = dist
                .apply_batch(&updates, now)
                .expect_err("the worker is dark");
            let expected = DistError::WorkerUnavailable {
                slot: dark,
                attempts: dist_config(&p).connect_attempts,
            };
            assert!(err.to_string().contains(&expected.to_string()), "{err}");
            deployment.refuse[dark].store(false, Ordering::SeqCst);
            pending = updates.iter().map(|u| u.id).collect();
            continue;
        }
        dist.apply_batch(&updates, now)
            .unwrap_or_else(|e| panic!("t={now}: {e}"));
        if tick == failed_tick + 1 {
            // The round after the failure re-seeded the dark worker, and
            // only it, with its shard's registrations as of this round.
            let Some(Request::Init { ops, .. }) = deployment.last_init[dark]
                .lock()
                .expect("last init")
                .clone()
            else {
                panic!("no Init was sent");
            };
            let expected: Vec<IndexOp> = (local.shard_registrations(dark).into_iter())
                .map(|(id, r)| IndexOp::Insert {
                    set: r.set,
                    id,
                    mbr: r.mbr,
                    registered_at: r.registered_at,
                    now,
                })
                .collect();
            let report = local.report();
            let population = report.population_a[dark] + report.population_b[dark];
            assert_eq!(ops.len(), population);
            assert_eq!(ops, expected, "the re-seed is not the shard's population");
            assert_eq!(reseeds(&dist), Some((1, population as u64)));
        }
        for u in &updates {
            pending.remove(&u.id);
        }
        if pending.is_empty() {
            assert_eq!(dist.result_at(now), local.result_at(now), "t={now}");
            exact_ticks += 1;
        }
    }
    assert!(pending.is_empty(), "an object never updated again");
    assert!(exact_ticks > 0);
    assert_eq!(reseeds(&dist).map(|(n, _)| n), Some(1));
}
