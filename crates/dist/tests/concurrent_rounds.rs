//! The coordinator's per-worker rounds run concurrently: a tick's `Step`s
//! are in flight on several workers at once, the merged stream is still
//! bit-identical to the in-process shard coordinator's, and a round in
//! which one worker fails keeps every other worker's history exact.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cij_core::{ContinuousJoinEngine, MtbEngine};
use cij_dist::loopback::LoopbackHost;
use cij_dist::{
    joinable_pairs, Connector, DistConfig, DistCoordinator, DistError, DistResult, EngineKind,
    Request, Response, Transport,
};
use cij_geom::Time;
use cij_shard::{PartitionPolicy, ShardCoordinator, VelocityBandPolicy};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_stream::{StreamConfig, StreamService, SubscriptionFilter};
use cij_workload::{generate_pair, Distribution, Params, UpdateStream};

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

/// A loopback connector that counts in-flight `Step`s and, while its
/// `refuse` flag is set, neither dials nor answers.
struct Wrapped {
    inner: Box<dyn Connector>,
    probe: Arc<Probe>,
    refuse: Arc<AtomicBool>,
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
}

impl Transport for WrappedTransport {
    fn call(&mut self, req: &Request) -> DistResult<Response> {
        if self.refuse.load(Ordering::SeqCst) {
            return Err(refused());
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
            probe,
        }
    }

    fn connectors(&self) -> Vec<Box<dyn Connector>> {
        (self.hosts.iter().zip(&self.refuse))
            .map(|(host, refuse)| {
                Box::new(Wrapped {
                    inner: Box::new(host.connector()),
                    probe: Arc::clone(&self.probe),
                    refuse: Arc::clone(refuse),
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
/// recorded it: the acked-seq gauges advance, and a healthy worker that
/// then loses everything is rebuilt from its history to the answer it
/// had.
#[test]
fn a_failed_round_keeps_every_acked_history_exact() {
    let p = params(102);
    let policy: Arc<dyn PartitionPolicy> = Arc::new(VelocityBandPolicy::new(2, p.max_speed));
    let deployment = Deployment::new(&*policy);
    let workers = deployment.hosts.len();
    assert_eq!(workers, 4);
    let (a, b) = generate_pair(&p, 0.0);
    let config = dist_config(&p);
    let attempts = config.connect_attempts;
    let mut dist = DistCoordinator::new(config, policy, deployment.connectors(), &a, &b, 0.0)
        .expect("dist coordinator");
    dist.enable_delta_tracking();
    dist.run_initial_join(0.0).expect("initial join");

    let mut workload = UpdateStream::new(&p, &a, &b, 0.0);
    let healthy_ticks = 6u32;
    for tick in 1..=healthy_ticks {
        let now = Time::from(tick);
        dist.apply_batch(&workload.tick(now), now)
            .expect("healthy tick");
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

    // The round's Steps were numbered in slot order after the previous
    // round's; the healthy slots acked theirs, the dark ones did not.
    let newest = *before.iter().max().expect("workers");
    let after = acked(&dist);
    for slot in 0..workers {
        if failing.contains(&slot) {
            assert_eq!(after[slot], before[slot], "slot {slot} acked while dark");
        } else {
            assert_eq!(after[slot], newest + slot as i64 + 1, "slot {slot}");
        }
    }

    // Back online: the dark slots reconnect and need no resync — their
    // history ends where their journal does.
    for &slot in &failing {
        deployment.refuse[slot].store(false, Ordering::SeqCst);
    }
    dist.heartbeat().expect("every worker reachable again");
    let snap = dist.metrics_registry().snapshot();
    assert_eq!(snap.counter("dist.resyncs").unwrap_or(0), 0);
    let answer = dist.result_at(now);
    let counters = dist.counters();

    // A healthy worker loses its machine; the heartbeat rebuilds it from
    // the history, failed round's Step included: Init, Track, Start and
    // one Step per tick it acked.
    let victim = 0;
    deployment.hosts[victim].kill_and_lose_wal();
    dist.heartbeat().expect("the victim is rebuilt");
    let snap = dist.metrics_registry().snapshot();
    assert_eq!(snap.counter("dist.resyncs"), Some(1));
    assert_eq!(
        snap.counter("dist.replayed_requests"),
        Some(3 + u64::from(healthy_ticks) + 1)
    );
    assert_eq!(dist.result_at(now), answer, "the rebuilt answer differs");
    assert_eq!(
        dist.counters(),
        counters,
        "the rebuilt engine did other work"
    );
}
