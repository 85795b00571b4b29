//! The distributed correctness contract: a `StreamService` running a
//! [`DistCoordinator`] over loopback workers must emit a delta stream
//! **bit-identical** to one running the in-process [`ShardCoordinator`]
//! with the same policy — per-tick `advance_to` delta vectors, polled
//! subscriber outboxes (`Gap` markers included), and `result_at`
//! snapshots — for every partition policy × K ∈ {2, 4}, including runs
//! where a worker is killed mid-stream and restarts from its WAL, and
//! runs where the worker's WAL is lost and the coordinator resyncs it
//! by replaying its retained request history.

use std::path::PathBuf;
use std::sync::Arc;

use cij_core::{EngineConfig, MtbEngine};
use cij_dist::loopback::LoopbackHost;
use cij_dist::{joinable_pairs, Connector, DistConfig, DistCoordinator, EngineKind};
use cij_geom::{MovingRect, Rect, Time};
use cij_obs::validate_prometheus;
use cij_shard::{
    JoinPlan, PartitionPolicy, ShardCoordinator, SpatialGridPolicy, VelocityBandPolicy,
};
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

/// Slow movers over a wider space so the K = 4 strip plan prunes pairs.
fn grid_params(seed: u64) -> Params {
    Params {
        max_speed: 1.0,
        space: 300.0,
        dataset_size: 150,
        ..skew_params(seed)
    }
}

fn engine_config(params: &Params) -> EngineConfig {
    EngineConfig {
        t_m: params.maximum_update_interval,
        ..EngineConfig::default()
    }
}

struct TempWal(PathBuf);

impl TempWal {
    fn new(tag: &str, idx: usize) -> Self {
        let path =
            std::env::temp_dir().join(format!("cij-dist-{tag}-{idx}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Self(path)
    }
}

impl Drop for TempWal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One durable loopback host per joinable shard pair of `policy`.
fn durable_hosts(
    policy: &dyn PartitionPolicy,
    tag: &str,
) -> (Vec<Arc<LoopbackHost>>, Vec<TempWal>) {
    let mut hosts = Vec::new();
    let mut wals = Vec::new();
    for (idx, _) in joinable_pairs(policy).into_iter().enumerate() {
        let wal = TempWal::new(tag, idx);
        hosts.push(LoopbackHost::durable(wal.0.clone()).expect("durable host"));
        wals.push(wal);
    }
    (hosts, wals)
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
    _wals: Vec<TempWal>,
}

impl Rig {
    fn new(
        policy: Arc<dyn PartitionPolicy>,
        params: &Params,
        tag: &str,
        outbox_capacity: usize,
    ) -> Self {
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

        let (hosts, wals) = durable_hosts(&*policy, tag);
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
            _wals: wals,
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
/// [`joinable_pairs`] entry, in that order: it must be the [`JoinPlan`]'s
/// slot order — row-major over the joinable pairs — and the order the
/// coordinator reports its workers in, for a full plan and a pruned one.
#[test]
fn connector_order_is_the_join_plan_order() {
    let p = grid_params(59);
    let full: Arc<dyn PartitionPolicy> = Arc::new(VelocityBandPolicy::new(3, p.max_speed));
    let pruned: Arc<dyn PartitionPolicy> = Arc::new(SpatialGridPolicy::for_horizon(
        4,
        p.space,
        p.max_speed,
        p.maximum_update_interval,
        p.object_side(),
    ));
    for (policy, engines) in [(full, 9), (pruned, 10)] {
        let k = policy.shard_count();
        let row_major: Vec<(usize, usize)> = (0..k)
            .flat_map(|i| (0..k).map(move |j| (i, j)))
            .filter(|&(i, j)| policy.joinable(i, j))
            .collect();
        assert_eq!(row_major.len(), engines);
        assert_eq!(JoinPlan::new(&*policy).pairs(), row_major);
        assert_eq!(joinable_pairs(&*policy), row_major);

        let (a, b) = generate_pair(&p, 0.0);
        let connectors: Vec<Box<dyn Connector>> = row_major
            .iter()
            .map(|_| Box::new(LoopbackHost::ephemeral().connector()) as Box<dyn Connector>)
            .collect();
        let dist = DistCoordinator::new(DistConfig::default(), policy, connectors, &a, &b, 0.0)
            .expect("dist coordinator");
        assert_eq!(dist.worker_pairs(), row_major);
    }
}

/// As in-process: a removal naming the wrong set is `ObjectNotFound`
/// before any worker hears of it, and the right one still goes through.
#[test]
fn remove_object_under_the_wrong_set_is_refused() {
    use cij_core::ContinuousJoinEngine;

    let p = skew_params(58);
    let policy: Arc<dyn PartitionPolicy> = Arc::new(VelocityBandPolicy::new(2, p.max_speed));
    let (a, b) = generate_pair(&p, 0.0);
    let connectors: Vec<Box<dyn Connector>> = joinable_pairs(&*policy)
        .iter()
        .map(|_| Box::new(LoopbackHost::ephemeral().connector()) as Box<dyn Connector>)
        .collect();
    let config = DistConfig {
        metrics: true,
        ..DistConfig::default()
    };
    let mut dist =
        DistCoordinator::new(config, policy, connectors, &a, &b, 0.0).expect("dist coordinator");
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
    assert_eq!(calls(&dist), before, "a refused removal reached a worker");
    dist.remove_object(SetTag::B, victim.id, &victim.mbr, 0.0, 1.0)
        .expect("the right set");
    assert!(calls(&dist) > before);
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
            let p = grid_params(80 + k as u64);
            let policy = Arc::new(SpatialGridPolicy::for_horizon(
                k,
                p.space,
                p.max_speed,
                p.maximum_update_interval,
                p.object_side(),
            ));
            v.push(("grid", k, p, policy));
        }
        v
    };

    for (name, k, params, policy) in cases {
        let label = format!("{name}-k{k}");
        let workers = joinable_pairs(&*policy).len();
        let mut rig = Rig::new(policy, &params, &label, 1024);
        assert_eq!(rig.hosts.len(), workers);

        // First half: healthy run.
        rig.run_ticks(1, 10, 1, &label);

        // Crash one worker process mid-stream. Its WAL survives, so the
        // supervisor restart replays the journal and the coordinator
        // resyncs nothing.
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
            snap.counter("dist.resyncs").unwrap_or(0),
            0,
            "{label}: a WAL-intact restart must not need a history resync"
        );
        // The per-worker handles resolved at construction publish under
        // the per-worker names: one ack-lag sample per `Step`, one RTT
        // per answered RPC.
        let mut answered = 0;
        for idx in 0..workers {
            let samples = |metric: &str| {
                let name = format!("dist.worker.{idx}.{metric}");
                let histogram = snap.histogram(&name);
                histogram
                    .unwrap_or_else(|| panic!("{label}: no {name}"))
                    .count
            };
            assert_eq!(samples("ack_lag"), 20, "{label}: one Step per tick");
            assert!(samples("rtt_us") > 20, "{label}: Init, Start, Steps, reads");
            answered += samples("rtt_us");
        }
        assert!(snap.counter("dist.rpc.calls").unwrap_or(0) >= answered);
    }
}

/// Worker-side run grouping: a tick in which two objects trade speed
/// bands between two same-band updates puts `Apply, Remove, Insert,
/// Apply` into one worker's `Step`. The worker batches the `Apply` runs
/// on either side of the migration halves; a third, unsharded service
/// checks that neither coordinator drifts from the plain engine.
#[test]
fn interleaved_apply_remove_insert_apply_stays_bit_identical() {
    let params = skew_params(92);
    let policy = Arc::new(VelocityBandPolicy::new(2, params.max_speed));
    let (a, b) = generate_pair(&params, 0.0);
    let mut rig = Rig::new(policy.clone(), &params, "interleave", 1024);
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
fn wal_loss_forces_full_history_resync() {
    let params = skew_params(90);
    let policy = Arc::new(VelocityBandPolicy::new(2, params.max_speed));
    let mut rig = Rig::new(policy, &params, "walloss", 1024);

    rig.run_ticks(1, 8, 1, "walloss");

    // Lose a whole machine: worker, outbox and WAL. The restarted
    // worker reports zero durable progress, so the coordinator must
    // replay its entire retained history for that slot.
    rig.hosts[1].kill_and_lose_wal();

    rig.run_ticks(9, 20, 1, "walloss");
    assert_eq!(rig.hosts[1].restarts(), 1);

    let snap = rig.dist.metrics_snapshot();
    assert!(
        snap.counter("dist.resyncs").unwrap_or(0) >= 1,
        "losing the WAL must trigger a history resync"
    );
    assert!(
        snap.counter("dist.replayed_requests").unwrap_or(0) > 0,
        "the resync must actually replay requests"
    );
    assert!(snap.counter("dist.reconnects").unwrap_or(0) >= 1);
}

#[test]
fn gap_markers_match_under_tiny_outboxes() {
    let params = skew_params(91);
    let policy = Arc::new(HashPolicy(2));
    // A 3-item outbox polled every 5 ticks overflows on both sides in
    // exactly the same places, so even the loss markers are identical.
    let mut rig = Rig::new(policy, &params, "gaps", 3);
    let gaps = rig.run_ticks(1, 25, 5, "gaps");
    assert!(gaps > 0, "run never overflowed an outbox: gaps unexercised");
}
