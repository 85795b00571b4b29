//! The dist coordinator's RPC routing and counts: which worker hears of
//! which object, when, and how many rounds a run and a worker kill cost.
//! Its answers — the delta stream bit-identical to the in-process shard
//! coordinator's through worker kills and re-seeds, with honest or lying
//! delete keys and tiny outboxes — are the root package's `conform` suite
//! (`tests/conform.rs`).

use std::sync::{Arc, Mutex};

use cij_dist::loopback::LoopbackHost;
use cij_dist::{
    joinable_pairs, Connector, DistConfig, DistCoordinator, DistResult, IndexOp, Request, Response,
    Transport,
};
use cij_geom::{MovingRect, Rect, Time};
use cij_obs::validate_prometheus;
use cij_shard::{PartitionPolicy, VelocityBandPolicy};
use cij_tpr::ObjectId;
use cij_workload::{generate_pair, Distribution, ObjectUpdate, Params, SetTag, UpdateStream};

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

/// Placement by id modulo `K`: trajectory-independent, unlike a band
/// policy.
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

/// Deployments hand [`DistCoordinator::new`] one connector per
/// [`joinable_pairs`] entry, in that order: one worker per shard, in
/// shard order — worker `i`'s `Init` registers exactly the objects the
/// policy files in shard `i`, each object on one worker.
#[test]
fn workers_are_the_partitions_in_shard_order() {
    let p = skew_params(59);
    let bands: Arc<dyn PartitionPolicy> = Arc::new(VelocityBandPolicy::new(3, p.max_speed));
    for policy in [bands, Arc::new(HashPolicy(2))] {
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

/// A removal goes to the object's worker alone, as a `Remove` in its
/// next round: no RPC before the round, and none to any other worker.
#[test]
fn a_removal_reaches_only_its_worker_at_the_next_round() {
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

    let (victim, before) = (b[0], calls(&dist));
    dist.remove_object(victim.id, 1.0).expect("a live object");
    assert_eq!(calls(&dist), before, "a removal waits for the next round");
    let (mover, here) = (a[0], a[0].mbr.at(1.0));
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

/// A worker killed mid-run restarts blank and is re-seeded once; every
/// round is counted per worker: one ack-lag sample per answered `Step`
/// (the initial join's round, then one per tick that carried updates)
/// and one RTT per answered RPC — those, the `Init`, and the victim's
/// re-seed `Init`.
#[test]
fn a_killed_worker_is_reseeded_once_and_every_round_is_counted() {
    use cij_core::ContinuousJoinEngine;

    let p = skew_params(60);
    let policy: Arc<dyn PartitionPolicy> = Arc::new(VelocityBandPolicy::new(2, p.max_speed));
    let (a, b) = generate_pair(&p, 0.0);
    let hosts: Vec<Arc<LoopbackHost>> = (0..2).map(|_| LoopbackHost::ephemeral()).collect();
    let connectors = (hosts.iter())
        .map(|h| Box::new(h.connector()) as Box<dyn Connector>)
        .collect();
    let config = DistConfig {
        t_m: p.maximum_update_interval,
        metrics: true,
        ..DistConfig::default()
    };
    let mut dist =
        DistCoordinator::new(config, policy, connectors, &a, &b, 0.0).expect("dist coordinator");
    dist.run_initial_join(0.0).expect("initial join");
    let mut workload = UpdateStream::new(&p, &a, &b, 0.0);
    let (victim, mut busy_ticks) = (1, 0);
    for tick in 1..=20 {
        if tick == 11 {
            hosts[victim].kill();
        }
        let now = Time::from(tick);
        let updates = workload.tick(now);
        busy_ticks += u64::from(!updates.is_empty());
        dist.apply_batch(&updates, now).expect("tick");
    }
    assert_eq!((hosts[victim].kills(), hosts[victim].restarts()), (1, 1));
    dist.publish_metrics();
    let snap = dist.metrics_registry().snapshot();
    validate_prometheus(&snap.to_prometheus()).expect("exposition");
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    assert!(
        counter("dist.rpc.errors") >= 1,
        "the kill is a channel error"
    );
    assert!(
        counter("dist.reconnects") >= 1,
        "a reconnect after the kill"
    );
    assert_eq!(counter("dist.reseeds"), 1, "the restarted worker, once");
    assert!(
        counter("dist.reseed_objects") > 0,
        "the re-seed carries the partition"
    );
    let rounds = 1 + busy_ticks;
    assert!(busy_ticks > 10, "the workload idled");
    let mut answered = 0;
    for idx in 0..hosts.len() {
        let samples = |metric: &str| {
            let name = format!("dist.worker.{idx}.{metric}");
            snap.histogram(&name)
                .unwrap_or_else(|| panic!("no {name}"))
                .count
        };
        assert_eq!(samples("ack_lag"), rounds, "one Step per busy tick");
        let inits = 1 + u64::from(idx == victim);
        assert_eq!(samples("rtt_us"), inits + rounds, "Inits and Steps");
        answered += samples("rtt_us");
    }
    assert!(counter("dist.rpc.calls") >= answered);
}
