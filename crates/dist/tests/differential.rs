//! The distributed correctness contract: a `StreamService` running a
//! [`DistCoordinator`] over loopback workers must emit a delta stream
//! **bit-identical** to one running the in-process [`ShardCoordinator`]
//! with the same policy — per-tick `advance_to` delta vectors, polled
//! subscriber outboxes (`Gap` markers included), and `result_at`
//! snapshots — for every partition policy × K ∈ {2, 4}, including runs
//! where a worker is killed mid-stream, restarts blank and is re-seeded
//! from the coordinator's router records.

use std::sync::{Arc, Mutex};

use cij_core::{EngineConfig, MtbEngine};
use cij_dist::loopback::LoopbackHost;
use cij_dist::{
    joinable_pairs, Connector, DistConfig, DistCoordinator, DistResult, EngineKind, IndexOp,
    Request, Response, Transport,
};
use cij_geom::{MovingRect, Rect, Time};
use cij_obs::validate_prometheus;
use cij_shard::{PartitionPolicy, ShardCoordinator, VelocityBandPolicy};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_stream::{StreamConfig, StreamService, SubscriberId, SubscriptionFilter};
use cij_tpr::ObjectId;
use cij_workload::{
    generate_pair, Distribution, MovingObject, ObjectUpdate, Params, SetTag, UpdateStream,
};

/// Trajectory-independent placement by id modulo `K` — the one
/// behaviour no band policy can produce, kept as a test-local policy
/// since no deployment shards this way.
struct HashPolicy(usize);

impl PartitionPolicy for HashPolicy {
    fn name(&self) -> &'static str {
        "hash"
    }
    fn shard_count(&self) -> usize {
        self.0
    }
    fn shard_of(&self, id: ObjectId, _mbr: &MovingRect) -> usize {
        (id.0 % self.0 as u64) as usize
    }
}

/// Every request one worker was sent.
type Sent = Arc<Mutex<Vec<Request>>>;

/// A loopback connector that keeps every request its worker was sent.
struct Recorder {
    inner: Box<dyn Connector>,
    sent: Sent,
}

impl Recorder {
    /// `k` ephemeral workers behind recorders, and what each was sent.
    fn deployment(k: usize) -> (Vec<Box<dyn Connector>>, Vec<Sent>) {
        let sent: Vec<Sent> = (0..k).map(|_| Arc::default()).collect();
        let connectors = (sent.iter())
            .map(|sent| {
                Box::new(Self {
                    inner: Box::new(LoopbackHost::ephemeral().connector()),
                    sent: Arc::clone(sent),
                }) as Box<dyn Connector>
            })
            .collect();
        (connectors, sent)
    }
}

struct RecordingTransport {
    inner: Box<dyn Transport>,
    sent: Sent,
}

impl Connector for Recorder {
    fn connect(&self) -> DistResult<Box<dyn Transport>> {
        Ok(Box::new(RecordingTransport {
            inner: self.inner.connect()?,
            sent: Arc::clone(&self.sent),
        }))
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

impl Transport for RecordingTransport {
    fn call(&mut self, req: &Request) -> DistResult<Response> {
        self.sent.lock().expect("recorder").push(req.clone());
        self.inner.call(req)
    }
}

/// The ids of every object `req` removes.
fn removed_ids(req: &Request) -> Vec<ObjectId> {
    let ops = match req {
        Request::Init { ops, .. } | Request::Step { ops, .. } => &ops[..],
        _ => &[],
    };
    (ops.iter())
        .filter_map(|op| match *op {
            IndexOp::Remove { id, .. } => Some(id),
            IndexOp::Insert { .. } => None,
        })
        .collect()
}

fn pool() -> BufferPool {
    BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(256),
    )
}

/// Short T_M so the run covers a full re-registration round, and the
/// velocity-skew mix so the band policy sees both classes.
fn skew_params(seed: u64) -> Params {
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

fn engine_config(params: &Params) -> EngineConfig {
    EngineConfig {
        t_m: params.maximum_update_interval,
        ..EngineConfig::default()
    }
}

/// The two services under comparison plus the shared workload, with the
/// loopback hosts exposed for fault injection.
struct Rig {
    oracle: StreamService,
    dist: StreamService,
    sub_oracle: SubscriberId,
    sub_dist: SubscriberId,
    workload: UpdateStream,
    hosts: Vec<Arc<LoopbackHost>>,
    /// Ticks that carried updates: each is one `Step` per worker.
    busy_ticks: u64,
}

impl Rig {
    fn new(policy: Arc<dyn PartitionPolicy>, params: &Params, outbox_capacity: usize) -> Self {
        let (a, b) = generate_pair(params, 0.0);
        let stream_config = StreamConfig::builder()
            .engine(engine_config(params))
            .outbox_capacity(outbox_capacity)
            .build();

        let oracle_policy = policy.clone();
        let mut oracle =
            StreamService::new(stream_config.clone(), &a, &b, 0.0, &|cfg, a, b, now| {
                Ok(Box::new(ShardCoordinator::with_factory(
                    pool(),
                    *cfg,
                    oracle_policy.clone(),
                    a,
                    b,
                    now,
                    Arc::new(|pool, cfg, a, b, now| {
                        Ok(Box::new(MtbEngine::new(pool, *cfg, a, b, now)?))
                    }),
                )?))
            })
            .expect("oracle service");

        let hosts: Vec<Arc<LoopbackHost>> = (joinable_pairs(&*policy).iter())
            .map(|_| LoopbackHost::ephemeral())
            .collect();
        let dist_policy = policy.clone();
        let dist_hosts = hosts.clone();
        let mut dist = StreamService::new(stream_config, &a, &b, 0.0, &|cfg, a, b, now| {
            let connectors: Vec<Box<dyn Connector>> = dist_hosts
                .iter()
                .map(|h| Box::new(h.connector()) as Box<dyn Connector>)
                .collect();
            let dist_config = DistConfig {
                engine: EngineKind::Mtb,
                t_m: cfg.t_m,
                buckets_per_tm: cfg.buckets_per_tm,
                metrics: true,
                ..DistConfig::default()
            };
            Ok(Box::new(DistCoordinator::new(
                dist_config,
                dist_policy.clone(),
                connectors,
                a,
                b,
                now,
            )?))
        })
        .expect("dist service");

        let sub_oracle = oracle.subscribe(SubscriptionFilter::All).expect("sub");
        let sub_dist = dist.subscribe(SubscriptionFilter::All).expect("sub");
        let workload = UpdateStream::new(params, &a, &b, 0.0);
        Self {
            oracle,
            dist,
            sub_oracle,
            sub_dist,
            workload,
            hosts,
            busy_ticks: 0,
        }
    }

    /// Drives both services through ticks `from..=to` on the shared
    /// workload, asserting the advance deltas, polled outbox items and
    /// result snapshots stay bit-identical. `poll_every` lets the gap
    /// test starve the outboxes identically on both sides.
    fn run_ticks(&mut self, from: u32, to: u32, poll_every: u32, label: &str) -> u64 {
        let mut gaps = 0u64;
        for tick in from..=to {
            let updates = self.workload.tick(Time::from(tick));
            gaps += self.step(&updates, tick, tick % poll_every == 0, label);
        }
        gaps
    }

    /// One tick of `updates` through both services with the three
    /// bit-identity assertions; returns the gap markers polled.
    fn step(&mut self, updates: &[ObjectUpdate], tick: u32, poll: bool, label: &str) -> u64 {
        let now = Time::from(tick);
        for u in updates {
            self.oracle.submit(*u, now);
            self.dist.submit(*u, now);
        }
        self.busy_ticks += u64::from(!updates.is_empty());
        let d_oracle = self.oracle.advance_to(now).expect("oracle advance");
        let d_dist = self.dist.advance_to(now).expect("dist advance");
        assert_eq!(
            d_dist, d_oracle,
            "{label}: advance deltas diverged at t={now}"
        );

        let mut gaps = 0;
        if poll {
            let o_items = self.oracle.poll(self.sub_oracle).unwrap_or_default();
            let d_items = self.dist.poll(self.sub_dist).unwrap_or_default();
            assert_eq!(d_items, o_items, "{label}: outboxes diverged at t={now}");
            gaps = o_items
                .iter()
                .filter(|i| matches!(i, cij_stream::OutboxItem::Gap { .. }))
                .count() as u64;
        }
        assert_eq!(
            self.dist.result_at(now),
            self.oracle.result_at(now),
            "{label}: result snapshots diverged at t={now}"
        );
        gaps
    }
}

/// Deployments hand [`DistCoordinator::new`] one connector per
/// [`joinable_pairs`] entry, in that order: one worker per shard, in
/// shard order — worker `i`'s `Init` registers exactly the objects the
/// policy files in shard `i`, each object on one worker.
#[test]
fn workers_are_the_partitions_in_shard_order() {
    let p = skew_params(59);
    let bands: Arc<dyn PartitionPolicy> = Arc::new(VelocityBandPolicy::new(3, p.max_speed));
    let hash: Arc<dyn PartitionPolicy> = Arc::new(HashPolicy(2));
    for policy in [bands, hash] {
        let k = policy.shard_count();
        let diagonal: Vec<(usize, usize)> = (0..k).map(|i| (i, i)).collect();
        assert_eq!(joinable_pairs(&*policy), diagonal);

        let (a, b) = generate_pair(&p, 0.0);
        let (connectors, sent) = Recorder::deployment(k);
        let dist = DistCoordinator::new(
            DistConfig::default(),
            Arc::clone(&policy),
            connectors,
            &a,
            &b,
            0.0,
        )
        .expect("dist coordinator");
        assert_eq!(dist.worker_count(), k);
        assert_eq!(dist.shard_count(), k);
        let mut registered = 0;
        for (shard, sent) in sent.iter().enumerate() {
            let sent = sent.lock().expect("recorder");
            let journaled: Vec<&Request> = sent.iter().filter(|r| r.seq().is_some()).collect();
            let [Request::Init { ops, .. }] = journaled[..] else {
                panic!("worker {shard} was sent {sent:?}");
            };
            for op in ops {
                let IndexOp::Insert { id, mbr, .. } = *op else {
                    panic!("worker {shard}'s Init removes {op:?}");
                };
                assert_eq!(policy.shard_of(id, &mbr), shard, "{} {id:?}", policy.name());
            }
            registered += ops.len();
        }
        assert_eq!(registered, a.len() + b.len(), "each object on one worker");
    }
}

/// As in-process: a removal naming the wrong set is `ObjectNotFound`
/// before any worker hears of it, and the right one still goes through —
/// as a `Remove` in the next round of the object's worker, and nowhere
/// else.
#[test]
fn remove_object_under_the_wrong_set_is_refused() {
    use cij_core::ContinuousJoinEngine;

    let p = skew_params(58);
    let policy: Arc<dyn PartitionPolicy> = Arc::new(VelocityBandPolicy::new(2, p.max_speed));
    let (a, b) = generate_pair(&p, 0.0);
    let (connectors, sent) = Recorder::deployment(2);
    let config = DistConfig {
        metrics: true,
        ..DistConfig::default()
    };
    let mut dist = DistCoordinator::new(config, Arc::clone(&policy), connectors, &a, &b, 0.0)
        .expect("dist coordinator");
    dist.run_initial_join(0.0).expect("initial join");
    let calls = |dist: &DistCoordinator| {
        let snap = dist.metrics_registry().snapshot();
        snap.counter("dist.rpc.calls").expect("rpc counter")
    };

    let victim = b[0];
    let before = calls(&dist);
    let err = dist
        .remove_object(SetTag::A, victim.id, &victim.mbr, 0.0, 1.0)
        .expect_err("a B object removed as A");
    assert!(matches!(err, cij_tpr::TprError::ObjectNotFound(id) if id == victim.id));
    dist.remove_object(SetTag::B, victim.id, &victim.mbr, 0.0, 1.0)
        .expect("the right set");
    assert_eq!(calls(&dist), before, "a removal waits for the next round");
    assert!(dist.result_at(1.0).iter().all(|p| p.1 != victim.id));

    let mover = a[0];
    let here = mover.mbr.at(1.0);
    let update = ObjectUpdate {
        id: mover.id,
        set: SetTag::A,
        old_mbr: mover.mbr,
        last_update: 0.0,
        new_mbr: MovingRect::rigid(Rect::new(here.lo, here.hi), mover.mbr.vlo, 1.0),
    };
    dist.apply_batch(&[update], 1.0).expect("tick");
    let home = policy.shard_of(victim.id, &victim.mbr);
    for (shard, sent) in sent.iter().enumerate() {
        let sent = sent.lock().expect("recorder");
        let removed: Vec<ObjectId> = sent.iter().flat_map(removed_ids).collect();
        let victims = removed.iter().filter(|&&id| id == victim.id).count();
        assert_eq!(
            victims,
            usize::from(shard == home),
            "worker {shard}: {removed:?}"
        );
    }
}

/// As in-process: the router's records are the only delete keys. A
/// caller whose migrating updates and removal carry stale `old_mbr` /
/// `last_update` — the genesis registration, long replaced — gets
/// exactly the honest caller's answers from the workers.
#[test]
fn stale_delete_keys_get_the_honest_answer() {
    use cij_core::ContinuousJoinEngine;

    let p = skew_params(57);
    let policy: Arc<dyn PartitionPolicy> = Arc::new(VelocityBandPolicy::new(2, p.max_speed));
    let (a, b) = generate_pair(&p, 0.0);
    let coordinator = || {
        let connectors: Vec<Box<dyn Connector>> = joinable_pairs(&*policy)
            .iter()
            .map(|_| Box::new(LoopbackHost::ephemeral().connector()) as Box<dyn Connector>)
            .collect();
        let config = DistConfig {
            engine: EngineKind::Mtb,
            t_m: p.maximum_update_interval,
            ..DistConfig::default()
        };
        let mut dist = DistCoordinator::new(config, policy.clone(), connectors, &a, &b, 0.0)
            .expect("dist coordinator");
        dist.run_initial_join(0.0).expect("initial join");
        dist
    };
    let (mut honest, mut stale) = (coordinator(), coordinator());
    let movers = [a[0], a[1]];
    let mut tracked: Vec<(MovingRect, Time)> = movers.iter().map(|o| (o.mbr, 0.0)).collect();
    let (slow, fast) = (0.05 * p.max_speed, 0.95 * p.max_speed);
    // Four ticks apart, so the stale `last_update` soon names an MTB
    // bucket (T_M / 2 = 10 ticks wide) the object has left.
    for tick in 1..=5u32 {
        let now = Time::from(4 * tick);
        let speeds = if tick % 2 == 1 {
            [fast, slow]
        } else {
            [slow, fast]
        };
        let mut batch = Vec::new();
        let mut stale_batch = Vec::new();
        for (slot, speed) in speeds.into_iter().enumerate() {
            let (old_mbr, last_update) = tracked[slot];
            let here = old_mbr.at(now);
            let new_mbr = MovingRect::rigid(Rect::new(here.lo, here.hi), [speed, 0.0], now);
            tracked[slot] = (new_mbr, now);
            let u = ObjectUpdate {
                id: movers[slot].id,
                set: SetTag::A,
                old_mbr,
                last_update,
                new_mbr,
            };
            batch.push(u);
            stale_batch.push(ObjectUpdate {
                old_mbr: movers[slot].mbr,
                last_update: 0.0,
                ..u
            });
        }
        honest.apply_batch(&batch, now).expect("honest batch");
        stale.apply_batch(&stale_batch, now).expect("stale batch");
        assert_eq!(stale.result_at(now), honest.result_at(now), "t={now}");
    }
    assert!(honest.migrations() >= 8, "the movers must trade bands");
    assert_eq!(stale.migrations(), honest.migrations());

    let (now, gone) = (20.0, movers[0]);
    let (mbr, last_update) = tracked[0];
    honest
        .remove_object(SetTag::A, gone.id, &mbr, last_update, now)
        .expect("honest removal");
    stale
        .remove_object(SetTag::A, gone.id, &gone.mbr, 0.0, now)
        .expect("stale removal");
    assert_eq!(stale.result_at(now), honest.result_at(now));
    assert!(honest.result_at(now).iter().all(|p| p.0 != gone.id));
}

#[test]
fn loopback_stream_bit_identical_across_policies_and_k() {
    let cases: Vec<(&str, usize, Params, Arc<dyn PartitionPolicy>)> = {
        let mut v: Vec<(&str, usize, Params, Arc<dyn PartitionPolicy>)> = Vec::new();
        for k in [2usize, 4] {
            let p = skew_params(60 + k as u64);
            v.push((
                "hash",
                k,
                p,
                Arc::new(HashPolicy(k)) as Arc<dyn PartitionPolicy>,
            ));
            let p = skew_params(70 + k as u64);
            let policy = Arc::new(VelocityBandPolicy::new(k, p.max_speed));
            v.push(("velocity", k, p, policy));
        }
        v
    };

    for (name, k, params, policy) in cases {
        let label = format!("{name}-k{k}");
        let workers = k;
        let mut rig = Rig::new(policy, &params, 1024);
        assert_eq!(rig.hosts.len(), workers);

        // First half: healthy run.
        rig.run_ticks(1, 10, 1, &label);

        // Crash one worker process mid-stream. The supervisor restarts it
        // blank, and the coordinator re-seeds it at the next round.
        let victim = workers / 2;
        rig.hosts[victim].kill();

        // Second half: the kill must be invisible in the stream.
        rig.run_ticks(11, 20, 1, &label);
        assert_eq!(rig.hosts[victim].kills(), 1, "{label}");
        assert_eq!(rig.hosts[victim].restarts(), 1, "{label}: no restart");

        let snap = rig.dist.metrics_snapshot();
        validate_prometheus(&snap.to_prometheus()).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(
            snap.counter("dist.rpc.errors").unwrap_or(0) >= 1,
            "{label}: the kill should surface as a channel error"
        );
        assert!(
            snap.counter("dist.reconnects").unwrap_or(0) >= 1,
            "{label}: expected a reconnect after the kill"
        );
        assert_eq!(
            snap.counter("dist.reseeds"),
            Some(1),
            "{label}: the restarted worker is re-seeded once"
        );
        assert!(
            snap.counter("dist.reseed_objects").unwrap_or(0) > 0,
            "{label}: the re-seed carries the partition"
        );
        // The per-worker handles resolved at construction publish under
        // the per-worker names: one ack-lag sample per answered `Step` —
        // the initial join's round, then one per tick that carried
        // updates — and one RTT per answered RPC: those and the `Init`,
        // and the victim's re-seed `Init`.
        let rounds = 1 + rig.busy_ticks;
        assert!(rig.busy_ticks > 10, "{label}: the workload idled");
        let mut answered = 0;
        for idx in 0..workers {
            let samples = |metric: &str| {
                let name = format!("dist.worker.{idx}.{metric}");
                let histogram = snap.histogram(&name);
                histogram
                    .unwrap_or_else(|| panic!("{label}: no {name}"))
                    .count
            };
            assert_eq!(
                samples("ack_lag"),
                rounds,
                "{label}: one Step per busy tick"
            );
            let inits = 1 + u64::from(idx == victim);
            assert_eq!(
                samples("rtt_us"),
                inits + rounds,
                "{label}: Inits and Steps"
            );
            answered += samples("rtt_us");
        }
        assert!(snap.counter("dist.rpc.calls").unwrap_or(0) >= answered);
    }
}

/// A tick in which two objects trade speed bands between two same-band
/// updates: band 0's worker gets a stayer's remove and insert, a
/// migrant's remove (or insert) and the other stayer's pair in one
/// `Step`, band 1's worker the other migrant's halves, and the probes of
/// all four go to both. A third, unsharded service checks that neither
/// coordinator drifts from the plain engine.
#[test]
fn interleaved_apply_remove_insert_apply_stays_bit_identical() {
    let params = skew_params(92);
    let policy = Arc::new(VelocityBandPolicy::new(2, params.max_speed));
    let (a, b) = generate_pair(&params, 0.0);
    let mut rig = Rig::new(policy.clone(), &params, 1024);
    let plain_config = StreamConfig::builder()
        .engine(engine_config(&params))
        .build();
    let mut plain = StreamService::new(plain_config, &a, &b, 0.0, &|cfg, a, b, now| {
        Ok(Box::new(MtbEngine::new(pool(), *cfg, a, b, now)?))
    })
    .expect("plain service");

    let residents: Vec<MovingObject> = a[2..]
        .iter()
        .filter(|o| policy.shard_of(o.id, &o.mbr) == 0)
        .take(2)
        .copied()
        .collect();
    assert_eq!(residents.len(), 2, "need two band-0 residents");
    let mut tracked: Vec<(MovingObject, Time)> = [a[0], a[1], residents[0], residents[1]]
        .into_iter()
        .map(|o| (o, 0.0))
        .collect();
    let (slow, fast) = (0.05 * params.max_speed, 0.95 * params.max_speed);
    for tick in 1..=6u32 {
        let now = Time::from(tick);
        let mut step = |slot: usize, speed: Option<f64>| {
            let (object, last_update) = tracked[slot];
            let here = object.mbr.at(now);
            let velocity = speed.map_or(object.mbr.vlo, |s| [s, 0.0]);
            let new_mbr = MovingRect::rigid(Rect::new(here.lo, here.hi), velocity, now);
            let id = object.id;
            tracked[slot] = (MovingObject { id, mbr: new_mbr }, now);
            ObjectUpdate {
                id,
                set: SetTag::A,
                old_mbr: object.mbr,
                last_update,
                new_mbr,
            }
        };
        let (first, second) = if tick % 2 == 1 {
            (fast, slow)
        } else {
            (slow, fast)
        };
        let batch = [
            step(2, None),
            step(0, Some(first)),
            step(1, Some(second)),
            step(3, None),
        ];
        rig.step(&batch, tick, true, "interleave");
        for u in &batch {
            plain.submit(*u, now);
        }
        plain.advance_to(now).expect("plain advance");
        assert_eq!(rig.dist.result_at(now), plain.result_at(now), "t={now}");
    }
    let snap = rig.dist.metrics_snapshot();
    assert!(
        snap.counter("dist.migrations").unwrap_or(0) >= 11,
        "the movers must trade bands every tick"
    );
}

#[test]
fn gap_markers_match_under_tiny_outboxes() {
    let params = skew_params(91);
    let policy = Arc::new(HashPolicy(2));
    // A 3-item outbox polled every 5 ticks overflows on both sides in
    // exactly the same places, so even the loss markers are identical.
    let mut rig = Rig::new(policy, &params, 3);
    let gaps = rig.run_ticks(1, 25, 5, "gaps");
    assert!(gaps > 0, "run never overflowed an outbox: gaps unexercised");
}
