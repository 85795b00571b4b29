//! Delta-stream continuity across *adaptive* re-partitioning: a
//! [`StreamService`] running a [`ShardCoordinator`] with an armed
//! [`AdaptiveController`](cij_shard::AdaptiveController) must emit the
//! same (tick, pair, add/remove) event set as a service on the plain
//! engine — through every telemetry-triggered rebalance — and replaying
//! either delta stream from the empty set must reconstruct `result_at`
//! exactly. A second leg proves rebalances are WAL-replay-deterministic:
//! recovery re-derives the same re-partition count and the same answer
//! because the trigger is a pure function of the update stream.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use cij_core::{ContinuousJoinEngine, EngineConfig, MtbEngine};
use cij_geom::Time;
use cij_obs::MetricsRegistry;
use cij_shard::{AdaptiveConfig, ShardCoordinator, VelocityBandPolicy};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_stream::{OutboxItem, StreamConfig, StreamService, SubscriptionFilter};
use cij_workload::{generate_pair, Distribution, Params, UpdateStream};

mod common;
use common::TempWal;

fn pool() -> BufferPool {
    BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(256),
    )
}

/// Velocity-skewed so equal-width K = 4 bands start badly imbalanced —
/// the adaptive trigger fires from real telemetry, not a forced call,
/// and the proposal both re-draws boundaries *and* merges the empty
/// middle bands away (a K-changing rebalance mid-stream).
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

/// Builds an adaptive sharded coordinator for the service, exporting
/// its metrics registry through `registry` so the test can prove
/// rebalances actually happened inside the closure.
fn adaptive_engine(
    cfg: &EngineConfig,
    a: &[cij_workload::MovingObject],
    b: &[cij_workload::MovingObject],
    now: Time,
    max_speed: f64,
    registry: &Arc<Mutex<Option<MetricsRegistry>>>,
) -> cij_tpr::TprResult<Box<dyn ContinuousJoinEngine>> {
    let sharded_cfg = EngineConfig {
        threads: 4,
        metrics: true,
        ..*cfg
    };
    let mut coord = ShardCoordinator::with_factory(
        pool(),
        sharded_cfg,
        Arc::new(VelocityBandPolicy::new(4, max_speed)),
        a,
        b,
        now,
        Arc::new(|pool, cfg, sa, sb, t| Ok(Box::new(MtbEngine::new(pool, *cfg, sa, sb, t)?))),
    )?;
    coord.enable_adaptive(AdaptiveConfig::velocity(max_speed))?;
    *registry.lock().unwrap() = Some(coord.metrics_registry());
    Ok(Box::new(coord))
}

#[test]
fn adaptive_rebalance_preserves_delta_stream_and_replay() {
    let params = skew_params(53);
    let (a, b) = generate_pair(&params, 0.0);
    let stream_config = StreamConfig::builder()
        .engine(EngineConfig {
            t_m: params.maximum_update_interval,
            ..EngineConfig::default()
        })
        .build();

    let mut single = StreamService::new(stream_config.clone(), &a, &b, 0.0, &|cfg, a, b, now| {
        Ok(Box::new(MtbEngine::new(pool(), *cfg, a, b, now)?))
    })
    .expect("single service");
    let registry = Arc::new(Mutex::new(None));
    let reg_handle = Arc::clone(&registry);
    let max_speed = params.max_speed;
    let mut sharded = StreamService::new(stream_config, &a, &b, 0.0, &move |cfg, a, b, now| {
        adaptive_engine(cfg, a, b, now, max_speed, &reg_handle)
    })
    .expect("adaptive sharded service");

    let sub_single = single.subscribe(SubscriptionFilter::All).expect("sub");
    let sub_sharded = sharded.subscribe(SubscriptionFilter::All).expect("sub");

    let mut workload = UpdateStream::new(&params, &a, &b, 0.0);
    let mut replay_single = BTreeSet::new();
    let mut replay_sharded = BTreeSet::new();
    for tick in 1..=40u32 {
        let now = Time::from(tick);
        for u in workload.tick(now) {
            single.submit(u, now);
            sharded.submit(u, now);
        }
        single.advance_to(now).expect("single advance");
        sharded.advance_to(now).expect("sharded advance");

        let drain = |svc: &mut StreamService, id, replay: &mut BTreeSet<_>| {
            let mut events = BTreeSet::new();
            for item in svc.poll(id).unwrap_or_default() {
                let OutboxItem::Delta(stamped) = item else {
                    panic!("no gaps expected in this run");
                };
                let pair = stamped.delta.pair();
                if stamped.delta.is_add() {
                    replay.insert(pair);
                } else {
                    replay.remove(&pair);
                }
                events.insert((stamped.at.to_bits(), pair, stamped.delta.is_add()));
            }
            events
        };
        let ev_single = drain(&mut single, sub_single, &mut replay_single);
        let ev_sharded = drain(&mut sharded, sub_sharded, &mut replay_sharded);
        assert_eq!(ev_sharded, ev_single, "event sets diverged at t={now}");

        let answer: BTreeSet<_> = single.result_at(now).into_iter().collect();
        assert_eq!(replay_single, answer, "single replay broke at t={now}");
        assert_eq!(replay_sharded, answer, "sharded replay broke at t={now}");
    }

    // The run must actually have re-partitioned — otherwise this test
    // silently degrades into the fixed-policy differential.
    let snap = registry
        .lock()
        .unwrap()
        .as_ref()
        .expect("factory ran")
        .snapshot();
    let rebalances = snap.counter("shard.rebalances").unwrap_or(0);
    assert!(
        rebalances >= 1,
        "adaptive controller never re-partitioned (imbalance never acted on)"
    );
    assert!(
        snap.counter("shard.rebalance.moved_objects").unwrap_or(0) > 0,
        "rebalance moved no objects"
    );
}

/// Adaptive triggers are a pure function of the update stream (the
/// sketch is fed in deterministic route order, decisions run at batch
/// boundaries), so WAL recovery must re-derive the *same* rebalances
/// and land on the same answer.
#[test]
fn wal_recovery_replays_adaptive_rebalances_deterministically() {
    let params = skew_params(54);
    let (a, b) = generate_pair(&params, 0.0);
    let wal = TempWal::new("adaptive-replay");
    let stream_config = StreamConfig::builder()
        .engine(EngineConfig {
            t_m: params.maximum_update_interval,
            ..EngineConfig::default()
        })
        .wal_path(wal.0.clone())
        .build();

    let registry = Arc::new(Mutex::new(None));
    let max_speed = params.max_speed;
    let live_rebalances;
    let live_answer;
    let end = Time::from(30u32);
    {
        let reg_handle = Arc::clone(&registry);
        let mut live = StreamService::new(
            stream_config.clone(),
            &a,
            &b,
            0.0,
            &move |cfg, a, b, now| adaptive_engine(cfg, a, b, now, max_speed, &reg_handle),
        )
        .expect("live service");
        let mut workload = UpdateStream::new(&params, &a, &b, 0.0);
        for tick in 1..=30u32 {
            let now = Time::from(tick);
            for u in workload.tick(now) {
                live.submit(u, now);
            }
            live.advance_to(now).expect("live advance");
        }
        live_answer = live.result_at(end);
        let snap = registry
            .lock()
            .unwrap()
            .as_ref()
            .expect("factory ran")
            .snapshot();
        live_rebalances = snap.counter("shard.rebalances").unwrap_or(0);
        assert!(live_rebalances >= 1, "live run never re-partitioned");
    }

    let reg_handle = Arc::clone(&registry);
    let (recovered, report) = StreamService::recover(stream_config, &move |cfg, a, b, now| {
        adaptive_engine(cfg, a, b, now, max_speed, &reg_handle)
    })
    .expect("recovery");
    assert!(report.batches_replayed > 0, "nothing replayed");
    assert_eq!(recovered.result_at(end), live_answer, "answers diverged");
    let snap = registry
        .lock()
        .unwrap()
        .as_ref()
        .expect("recovery factory ran")
        .snapshot();
    assert_eq!(
        snap.counter("shard.rebalances").unwrap_or(0),
        live_rebalances,
        "recovery re-derived a different re-partition history"
    );
}
