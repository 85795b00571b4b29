//! A pair that becomes active, and later inactive, with **no update in
//! between**: the initial join predicts `[15.5, 23.5]` for it and nothing
//! touches either object afterwards. The delta stream must still say
//! `PairAdded` at the first tick on or after 15.5 and `PairRemoved` at the
//! first tick past 23.5 — carried solely by the engine's `gc` moving the
//! result buffer's sweep line across the interval's endpoints, through
//! `take_result_changes` on a plain engine, on a `ShardCoordinator`, and
//! on a loopback `DistCoordinator`, whose workers hear nothing after the
//! initial join's round: its one result buffer is the coordinator's.

use std::sync::Arc;

use cij_core::{ContinuousJoinEngine, EngineConfig, MtbEngine};
use cij_dist::loopback::LoopbackHost;
use cij_dist::{joinable_pairs, Connector, DistConfig, DistCoordinator, EngineKind};
use cij_geom::{MovingRect, Rect, Time, TimeInterval};
use cij_shard::{PartitionPolicy, ShardCoordinator, VelocityBandPolicy};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_stream::{
    OutboxItem, ResultDelta, StampedDelta, StreamConfig, StreamService, SubscriptionFilter,
};
use cij_tpr::{ObjectId, TprResult};
use cij_workload::MovingObject;

fn pool() -> BufferPool {
    BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(64),
    )
}

fn object(id: u64, x: f64, y: f64, vx: f64) -> MovingObject {
    let rect = Rect::new([x, y], [x + 4.0, y + 4.0]);
    MovingObject {
        id: ObjectId(id),
        mbr: MovingRect::rigid(rect, [vx, 0.0], 0.0),
    }
}

/// `A_1` drives right at unit speed into the standing `B_101`: they touch
/// from `4.5 + t = 20` to `0.5 + t = 24`. The rest never meet anything
/// and only give the shard policy both speed bands to fill.
fn sets() -> (Vec<MovingObject>, Vec<MovingObject>) {
    let a = vec![
        object(1, 0.5, 0.0, 1.0),
        object(2, 0.0, 500.0, 0.1),
        object(3, 0.0, 600.0, 2.9),
    ];
    let b = vec![
        object(101, 20.0, 0.0, 0.0),
        object(102, 900.0, 700.0, 0.2),
        object(103, 900.0, 800.0, -2.8),
    ];
    (a, b)
}

type Build<'a> = &'a dyn Fn(
    &EngineConfig,
    &[MovingObject],
    &[MovingObject],
    Time,
) -> TprResult<Box<dyn ContinuousJoinEngine>>;

fn runs_on(label: &str, build: Build<'_>) {
    let (a, b) = sets();
    let config = StreamConfig::builder()
        .engine(EngineConfig::builder().t_m(60.0).build())
        .build();
    let mut svc = StreamService::new(config, &a, &b, 0.0, build).expect(label);
    let sub = svc.subscribe(SubscriptionFilter::All).expect(label);

    let pair = (ObjectId(1), ObjectId(101));
    let valid = TimeInterval::new_unchecked(15.5, 23.5);
    let mut stream: Vec<StampedDelta> = Vec::new();
    for tick in 1..=30u32 {
        let now = Time::from(tick);
        // Not a single submission: time passing is the only event.
        stream.extend(svc.advance_to(now).expect(label));
        let expected = if (16..=23).contains(&tick) {
            vec![pair]
        } else {
            vec![]
        };
        assert_eq!(svc.result_at(now), expected, "{label}: answer at t={now}");
    }
    let expected = vec![
        StampedDelta {
            at: 16.0,
            delta: ResultDelta::PairAdded { pair, valid },
        },
        StampedDelta {
            at: 24.0,
            delta: ResultDelta::PairRemoved { pair },
        },
    ];
    assert_eq!(stream, expected, "{label}: delta stream");
    let outbox: Vec<OutboxItem> = svc.poll(sub).expect(label);
    let delivered: Vec<OutboxItem> = expected.into_iter().map(OutboxItem::Delta).collect();
    assert_eq!(outbox, delivered, "{label}: outbox");
}

#[test]
fn future_interval_activates_and_expires_without_an_update() {
    runs_on("plain MtbEngine", &|cfg, a, b, now| {
        Ok(Box::new(MtbEngine::new(pool(), *cfg, a, b, now)?))
    });

    let policy: Arc<dyn PartitionPolicy> = Arc::new(VelocityBandPolicy::new(2, 3.0));
    let shard_policy = policy.clone();
    runs_on("ShardCoordinator", &|cfg, a, b, now| {
        Ok(Box::new(ShardCoordinator::with_factory(
            pool(),
            *cfg,
            shard_policy.clone(),
            a,
            b,
            now,
            Arc::new(|pool, cfg, a, b, now| Ok(Box::new(MtbEngine::new(pool, *cfg, a, b, now)?))),
        )?))
    });

    let hosts: Vec<Arc<LoopbackHost>> = joinable_pairs(&*policy)
        .iter()
        .map(|_| LoopbackHost::ephemeral())
        .collect();
    assert!(
        hosts.len() > 1,
        "the pair must live on one worker of several"
    );
    runs_on("loopback DistCoordinator", &|cfg, a, b, now| {
        let connectors: Vec<Box<dyn Connector>> = hosts
            .iter()
            .map(|h| Box::new(h.connector()) as Box<dyn Connector>)
            .collect();
        let dist_config = DistConfig {
            engine: EngineKind::Mtb,
            t_m: cfg.t_m,
            buckets_per_tm: cfg.buckets_per_tm,
            ..DistConfig::default()
        };
        Ok(Box::new(DistCoordinator::new(
            dist_config,
            policy.clone(),
            connectors,
            a,
            b,
            now,
        )?))
    });
}
