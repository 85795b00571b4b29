//! Workers hold soft state, and the coordinator engine's registration
//! table is the only recovery source. A coordinator rebuilt over workers that are
//! still up re-seeds them; a worker killed after 100 or after 1 000 ticks
//! is re-seeded with one `Init` of exactly its partition's population;
//! and a worker lost in the middle of a round is re-seeded and sent that
//! round's probes again, and nothing else. Through each, the answer and
//! the change stream are the in-process shard coordinator's.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use cij_core::{ContinuousJoinEngine, EngineConfig, MtbPair, TcPair};
use cij_dist::loopback::LoopbackHost;
use cij_dist::{
    Connector, DistConfig, DistCoordinator, DistError, DistResult, EngineKind, Request, Response,
    Transport,
};
use cij_geom::{MovingRect, Rect, Time};
use cij_shard::{PartitionPolicy, ShardCoordinator, VelocityBandPolicy};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_stream::{StreamConfig, StreamService, SubscriptionFilter};
use cij_tpr::ObjectId;
use cij_workload::{generate_pair, Distribution, MovingObject, Params, SetTag, UpdateStream};

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

fn pool() -> BufferPool {
    BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(256),
    )
}

fn engine_config(p: &Params) -> EngineConfig {
    EngineConfig {
        t_m: p.maximum_update_interval,
        ..EngineConfig::default()
    }
}

fn dist_config(p: &Params, engine: EngineKind) -> DistConfig {
    DistConfig {
        engine,
        t_m: p.maximum_update_interval,
        metrics: true,
        ..DistConfig::default()
    }
}

fn connectors(hosts: &[Arc<LoopbackHost>]) -> Vec<Box<dyn Connector>> {
    (hosts.iter())
        .map(|h| Box::new(h.connector()) as Box<dyn Connector>)
        .collect()
}

fn counter(dist: &DistCoordinator, name: &str) -> u64 {
    dist.metrics_registry()
        .snapshot()
        .counter(name)
        .unwrap_or(0)
}

/// Both coordinators over the same sets at `now`, initial join run and
/// delta tracking on.
fn pair_of(
    p: &Params,
    policy: &Arc<dyn PartitionPolicy>,
    hosts: &[Arc<LoopbackHost>],
    a: &[MovingObject],
    b: &[MovingObject],
    now: Time,
) -> (DistCoordinator, ShardCoordinator<MtbPair>) {
    let config = dist_config(p, EngineKind::Mtb);
    let mut dist = DistCoordinator::new(config, Arc::clone(policy), connectors(hosts), a, b, now)
        .expect("dist coordinator");
    let shard =
        ShardCoordinator::<MtbPair>::new(pool(), engine_config(p), Arc::clone(policy), a, b, now);
    let mut shard = shard.expect("shard coordinator");
    for engine in [&mut dist as &mut dyn ContinuousJoinEngine, &mut shard] {
        engine.enable_delta_tracking();
        engine.run_initial_join(now).expect("initial join");
    }
    (dist, shard)
}

/// Ticks `from..=to` of `workload` through both, asserting the answer
/// and the change list agree at every tick; `after` runs after each tick.
fn lockstep(
    dist: &mut DistCoordinator,
    shard: &mut ShardCoordinator<MtbPair>,
    workload: &mut UpdateStream,
    ticks: std::ops::RangeInclusive<u32>,
    mut after: impl FnMut(u32, &DistCoordinator),
) {
    for tick in ticks {
        let now = Time::from(tick);
        let updates = workload.tick(now);
        dist.apply_batch(&updates, now).expect("dist tick");
        shard.apply_batch(&updates, now).expect("shard tick");
        dist.gc(now);
        shard.gc(now);
        assert_eq!(dist.result_at(now), shard.result_at(now), "t={now}");
        assert_eq!(
            dist.take_result_changes(),
            shard.take_result_changes(),
            "change lists diverged at t={now}"
        );
        after(tick, dist);
    }
}

/// A coordinator dropped and rebuilt over the same two workers — never
/// killed, so each still holds the first coordinator's index and
/// sequence numbers — constructs, re-seeds both, and answers as the
/// in-process coordinator built over the same sets does.
#[test]
fn a_coordinator_rebuilt_over_live_workers_reseeds_them() {
    let p = params(111);
    let policy: Arc<dyn PartitionPolicy> = Arc::new(VelocityBandPolicy::new(2, p.max_speed));
    let hosts: Vec<Arc<LoopbackHost>> = (0..2).map(|_| LoopbackHost::ephemeral()).collect();
    let (a, b) = generate_pair(&p, 0.0);
    let mut workload = UpdateStream::new(&p, &a, &b, 0.0);

    let (mut dist, mut shard) = pair_of(&p, &policy, &hosts, &a, &b, 0.0);
    lockstep(&mut dist, &mut shard, &mut workload, 1..=5, |_, _| {});
    assert_eq!(counter(&dist, "dist.reseeds"), 0);
    drop((dist, shard));

    let now = 5.0;
    let live = |set| -> Vec<MovingObject> {
        (workload.snapshot(set).into_iter())
            .map(|(id, mbr)| MovingObject { id, mbr })
            .collect()
    };
    let (a, b) = (live(SetTag::A), live(SetTag::B));
    let (mut dist, mut shard) = pair_of(&p, &policy, &hosts, &a, &b, now);
    assert_eq!(counter(&dist, "dist.reseeds"), 2, "both workers re-seeded");
    assert_eq!(
        counter(&dist, "dist.reseed_objects"),
        (a.len() + b.len()) as u64
    );
    assert_eq!(dist.result_at(now), shard.result_at(now));
    lockstep(&mut dist, &mut shard, &mut workload, 6..=15, |_, _| {});
    assert!(hosts.iter().all(|h| h.kills() == 0 && h.restarts() == 0));
}

/// Kills worker 1 after `age` ticks and runs 20 more; returns what the
/// re-seed carried and the RPCs the recovery round cost.
fn kill_after(age: u32) -> (u64, u64) {
    let p = params(112);
    let policy: Arc<dyn PartitionPolicy> = Arc::new(VelocityBandPolicy::new(2, p.max_speed));
    let hosts: Vec<Arc<LoopbackHost>> = (0..2).map(|_| LoopbackHost::ephemeral()).collect();
    let (a, b) = generate_pair(&p, 0.0);
    let mut workload = UpdateStream::new(&p, &a, &b, 0.0);
    let (mut dist, mut shard) = pair_of(&p, &policy, &hosts, &a, &b, 0.0);
    lockstep(&mut dist, &mut shard, &mut workload, 1..=age, |_, _| {});

    let victim = 1;
    hosts[victim].kill();
    let mut recovery = None;
    let mut calls = counter(&dist, "dist.rpc.calls");
    lockstep(
        &mut dist,
        &mut shard,
        &mut workload,
        age + 1..=age + 20,
        |_, dist| {
            let now_calls = counter(dist, "dist.rpc.calls");
            if recovery.is_none() && counter(dist, "dist.reseeds") == 1 {
                // The re-seed ran in this tick's round, after its phase 1:
                // the population now is the one it carried.
                dist.publish_metrics();
                let snap = dist.metrics_registry().snapshot();
                let population: i64 = ["a", "b"]
                    .iter()
                    .map(|side| {
                        let name = format!("shard.population.{side}.{victim}");
                        snap.gauge(&name).expect("population gauge")
                    })
                    .sum();
                let carried = counter(dist, "dist.reseed_objects");
                assert_eq!(carried, population as u64, "age {age}");
                recovery = Some((carried, now_calls - calls));
            }
            calls = now_calls;
        },
    );
    assert_eq!(counter(&dist, "dist.reseeds"), 1, "age {age}");
    assert_eq!(hosts[victim].restarts(), 1);
    recovery.expect("a busy tick followed the kill")
}

/// Recovery is one `Init` of the victim's current population, whatever
/// the deployment's age: after 100 ticks and after 1 000 the re-seed
/// carries exactly the partition's router population, and the recovery
/// round costs the same RPCs.
#[test]
fn recovery_cost_does_not_grow_with_age() {
    let (young, young_calls) = kill_after(100);
    let (old, old_calls) = kill_after(1_000);
    assert!(young > 0 && old > 0);
    // The other worker's Step, and the victim's failed Step, its re-seed
    // and its second Step.
    assert_eq!(young_calls, 4);
    assert_eq!(old_calls, young_calls);
}

/// Every request one worker was sent.
type Sent = Arc<Mutex<Vec<Request>>>;

/// A loopback connector that records what its worker is sent and, once
/// armed, lets the next `Step` through, kills the host after the worker
/// applied it, and reports a broken pipe.
struct Saboteur {
    host: Arc<LoopbackHost>,
    armed: Arc<AtomicBool>,
    sent: Sent,
}

struct SabotagedTransport {
    inner: Box<dyn Transport>,
    host: Arc<LoopbackHost>,
    armed: Arc<AtomicBool>,
    sent: Sent,
}

impl Connector for Saboteur {
    fn connect(&self) -> DistResult<Box<dyn Transport>> {
        Ok(Box::new(SabotagedTransport {
            inner: self.host.connector().connect()?,
            host: Arc::clone(&self.host),
            armed: Arc::clone(&self.armed),
            sent: Arc::clone(&self.sent),
        }))
    }

    fn describe(&self) -> String {
        "saboteur".into()
    }
}

impl Transport for SabotagedTransport {
    fn call(&mut self, req: &Request) -> DistResult<Response> {
        self.sent.lock().expect("sent").push(req.clone());
        let resp = self.inner.call(req)?;
        if matches!(req, Request::Step { .. }) && self.armed.swap(false, Ordering::SeqCst) {
            self.host.kill();
            return Err(DistError::Io(std::io::ErrorKind::BrokenPipe.into()));
        }
        Ok(resp)
    }
}

/// A worker killed after it applied a round's `Step`, before its answer
/// arrived, is re-seeded within the round and sent the round's probes
/// again in a `Step` of no mutations — and the delta stream is the
/// in-process coordinator's, on both engine kinds.
#[test]
fn a_worker_lost_mid_round_is_reseeded_and_probed_again() {
    for kind in [EngineKind::Mtb, EngineKind::Tc] {
        let p = params(113);
        let policy: Arc<dyn PartitionPolicy> = Arc::new(VelocityBandPolicy::new(2, p.max_speed));
        let (a, b) = generate_pair(&p, 0.0);
        let stream_config = StreamConfig::builder().engine(engine_config(&p)).build();

        let oracle_policy = Arc::clone(&policy);
        let mut oracle =
            StreamService::new(stream_config.clone(), &a, &b, 0.0, &|cfg, a, b, now| {
                let policy = Arc::clone(&oracle_policy);
                let engine: Box<dyn ContinuousJoinEngine> = match kind {
                    EngineKind::Mtb => Box::new(ShardCoordinator::<MtbPair>::new(
                        pool(),
                        *cfg,
                        policy,
                        a,
                        b,
                        now,
                    )?),
                    EngineKind::Tc => Box::new(ShardCoordinator::<TcPair>::new(
                        pool(),
                        *cfg,
                        policy,
                        a,
                        b,
                        now,
                    )?),
                };
                Ok(engine)
            })
            .expect("oracle service");

        let victim = 0;
        let armed = Arc::new(AtomicBool::new(false));
        let sent = Sent::default();
        let hosts: Vec<Arc<LoopbackHost>> = (0..2).map(|_| LoopbackHost::ephemeral()).collect();
        let dist_policy = Arc::clone(&policy);
        let mut dist = StreamService::new(stream_config, &a, &b, 0.0, &|_, a, b, now| {
            let mut connectors = connectors(&hosts);
            connectors[victim] = Box::new(Saboteur {
                host: Arc::clone(&hosts[victim]),
                armed: Arc::clone(&armed),
                sent: Arc::clone(&sent),
            });
            let config = dist_config(&p, kind);
            let dist =
                DistCoordinator::new(config, Arc::clone(&dist_policy), connectors, a, b, now)?;
            Ok(Box::new(dist))
        })
        .expect("dist service");
        let sub_oracle = oracle.subscribe(SubscriptionFilter::All).expect("sub");
        let sub_dist = dist.subscribe(SubscriptionFilter::All).expect("sub");

        let mut workload = UpdateStream::new(&p, &a, &b, 0.0);
        let mut sabotaged = None;
        for tick in 1..=20u32 {
            let now = Time::from(tick);
            let updates = workload.tick(now);
            if tick >= 8 && sabotaged.is_none() && !updates.is_empty() {
                sabotaged = Some(sent.lock().expect("sent").len());
                armed.store(true, Ordering::SeqCst);
            }
            for u in updates {
                oracle.submit(u, now);
                dist.submit(u, now);
            }
            let deltas = oracle.advance_to(now).expect("oracle advance");
            assert_eq!(
                dist.advance_to(now).expect("dist advance"),
                deltas,
                "{kind:?} t={now}"
            );
            assert_eq!(
                dist.poll(sub_dist).unwrap_or_default(),
                oracle.poll(sub_oracle).unwrap_or_default(),
                "{kind:?}: outboxes diverged at t={now}"
            );
            assert_eq!(
                dist.result_at(now),
                oracle.result_at(now),
                "{kind:?} t={now}"
            );
        }
        assert!(
            !armed.load(Ordering::SeqCst),
            "{kind:?}: the saboteur never fired"
        );
        assert_eq!(hosts[victim].kills(), 1);
        let snap = dist.metrics_snapshot();
        assert_eq!(snap.counter("dist.reseeds"), Some(1), "{kind:?}");

        // The killed Step, then the reconnect, the re-seed and the
        // round's probes again — nothing of the round's mutations.
        let sent = sent.lock().expect("sent");
        let at = sabotaged.expect("a busy tick");
        let [Request::Step {
            seq: killed,
            ops,
            probes_a,
            probes_b,
            ..
        }, Request::Hello, Request::Init { seq: seeded, .. }, Request::Step {
            seq: again,
            ops: resent_ops,
            probes_a: resent_a,
            probes_b: resent_b,
            ..
        }, ..] = &sent[at..]
        else {
            panic!("{kind:?}: the victim was sent {:?}", &sent[at..]);
        };
        assert!(
            !ops.is_empty(),
            "{kind:?}: the killed round mutated nothing"
        );
        assert!(resent_ops.is_empty(), "{kind:?}: mutations resent");
        assert_eq!((resent_a, resent_b), (probes_a, probes_b), "{kind:?}");
        assert!(
            killed < seeded && seeded < again,
            "{kind:?}: {killed} {seeded} {again}"
        );
    }
}

/// A window that starts later (§V): a trajectory referenced after the
/// tick it is filed at, which the engine registers
/// ([`Registration::is_sound_at`](cij_core::Registration::is_sound_at)).
fn late_window(t_ref: Time) -> MovingRect {
    MovingRect::stationary(Rect::new([40.0, 40.0], [160.0, 160.0]), t_ref)
}

/// A genesis window that starts later seeds its worker as it is filed in
/// process: the deployment constructs, and answers as the in-process
/// coordinator does.
#[test]
fn a_genesis_window_that_starts_later_is_seeded() {
    let p = params(115);
    let policy: Arc<dyn PartitionPolicy> = Arc::new(VelocityBandPolicy::new(2, p.max_speed));
    let hosts: Vec<Arc<LoopbackHost>> = (0..2).map(|_| LoopbackHost::ephemeral()).collect();
    let (a, mut b) = generate_pair(&p, 0.0);
    b[0].mbr = late_window(5.0);
    let mut workload = UpdateStream::new(&p, &a, &b, 0.0);

    let (mut dist, mut shard) = pair_of(&p, &policy, &hosts, &a, &b, 0.0);
    lockstep(&mut dist, &mut shard, &mut workload, 1..=8, |_, _| {});
    assert!(dist.result_at(8.0).iter().any(|&(_, id)| id == b[0].id));
    assert_eq!(counter(&dist, "dist.reseeds"), 0);
}

/// A window that starts later, restored mid-run, is filed on its worker
/// as in process: the restore succeeds, no worker is lost, and the
/// answers after it are the in-process coordinator's.
#[test]
fn a_restored_window_that_starts_later_is_filed() {
    let p = params(116);
    let policy: Arc<dyn PartitionPolicy> = Arc::new(VelocityBandPolicy::new(2, p.max_speed));
    let hosts: Vec<Arc<LoopbackHost>> = (0..2).map(|_| LoopbackHost::ephemeral()).collect();
    let (a, b) = generate_pair(&p, 0.0);
    let mut workload = UpdateStream::new(&p, &a, &b, 0.0);

    let (mut dist, mut shard) = pair_of(&p, &policy, &hosts, &a, &b, 0.0);
    lockstep(&mut dist, &mut shard, &mut workload, 1..=2, |_, _| {});
    let id = ObjectId(1 << 40);
    for engine in [&mut dist as &mut dyn ContinuousJoinEngine, &mut shard] {
        (engine.restore_object(SetTag::B, id, late_window(6.0), 2.0, 2.0)).expect("restore");
    }
    lockstep(&mut dist, &mut shard, &mut workload, 3..=10, |_, _| {});
    assert!(dist.result_at(10.0).iter().any(|&(_, b)| b == id));
    assert_eq!(counter(&dist, "dist.reseeds"), 0);
}
