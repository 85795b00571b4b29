//! §V through the partitioned stacks: a continuous window query is a
//! join whose set B is the windows, registered once and never touched
//! again — so it must survive being split into shard-pair engines
//! exactly like any other join. Pinned here, every tick for more than
//! 3·`T_M`: a `TcEngine`-backed [`ShardCoordinator`] under velocity
//! bands (K = 2 and 4, each through one forced `rebalance_to`) and a
//! [`DistCoordinator`] of `EngineKind::Tc` loopback workers give the
//! answer of a single [`TcEngine`], and each window's members are
//! `TprTree::range_at` on an independent tree of the fleet.
//!
//! Every plan is the dense K×K grid: each A-shard meets each B-shard, so
//! a window's answer needs no bound on its extent or on its drift since
//! it registered. A window may be wider than anything else in the fleet
//! (the static region here spans 300 units), and the patrol window never
//! re-registers.

use std::sync::Arc;

use cij_core::{ContinuousJoinEngine, EngineConfig, PairKey, TcEngine};
use cij_dist::loopback::LoopbackHost;
use cij_dist::{joinable_pairs, Connector, DistConfig, DistCoordinator, EngineKind};
use cij_geom::{MovingRect, Rect, Time};
use cij_shard::{PartitionPolicy, ShardCoordinator, VelocityBandPolicy};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::{ObjectId, TprTree, TreeConfig};
use cij_workload::{generate_set, MovingObject, Params, SetTag, UpdateStream};

const TICKS: u32 = 200; // > 3·T_M
const REBALANCE_AT: u32 = 90;

fn pool() -> BufferPool {
    BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(256),
    )
}

fn fleet_params() -> Params {
    Params {
        dataset_size: 300,
        object_size_pct: 2.0,
        seed: 2109,
        ..Params::default()
    }
}

/// The windows of `crates/stream/tests/window_queries.rs`: a static
/// region, a zero-extent point window and a moving patrol window, on
/// ids disjoint from the fleet's.
fn windows() -> Vec<MovingObject> {
    let mbrs = [
        MovingRect::stationary(Rect::new([300.0, 300.0], [600.0, 600.0]), 0.0),
        MovingRect::stationary(Rect::point([500.0, 500.0]), 0.0),
        MovingRect::rigid(Rect::new([0.0, 400.0], [150.0, 550.0]), [4.0, 0.0], 0.0),
    ];
    let ids = 1u64 << 32..;
    ids.zip(mbrs)
        .map(|(id, mbr)| MovingObject {
            id: ObjectId(id),
            mbr,
        })
        .collect()
}

fn engine_config(params: &Params) -> EngineConfig {
    EngineConfig::builder()
        .t_m(params.maximum_update_interval)
        .build()
}

/// Drives `stack` in lockstep with a single `TcEngine` and the
/// `range_at` oracle over the same fleet and windows, calling
/// `at_rebalance` once mid-run.
fn run_windows<E: ContinuousJoinEngine>(
    tag: &str,
    build: impl FnOnce(&[MovingObject], &[MovingObject]) -> E,
    at_rebalance: impl FnOnce(&mut E, Time),
) {
    let params = fleet_params();
    assert!(f64::from(TICKS) > 3.0 * params.maximum_update_interval);
    let fleet = generate_set(&params, SetTag::A, 0, 0.0);
    let regions = windows();

    let mut stack = build(&fleet, &regions);
    let mut single =
        TcEngine::new(pool(), engine_config(&params), &fleet, &regions, 0.0).expect("single");
    let mut oracle = TprTree::new(pool(), TreeConfig::default());
    for o in &fleet {
        oracle.insert(o.id, o.mbr, 0.0).expect("oracle insert");
    }
    stack.run_initial_join(0.0).expect("initial join");
    single.run_initial_join(0.0).expect("single initial join");

    let mut stream = UpdateStream::new(&params, &fleet, &[], 0.0);
    let mut at_rebalance = Some(at_rebalance);
    let mut seen = vec![0usize; regions.len()];
    for tick in 0..=TICKS {
        let now = Time::from(tick);
        if tick > 0 {
            // The windows never appear here: only the fleet updates.
            let updates = stream.tick(now);
            for u in &updates {
                oracle
                    .update(u.id, &u.old_mbr, u.new_mbr, now)
                    .expect("oracle update");
            }
            stack.advance_time(now).expect("advance");
            single.advance_time(now).expect("single advance");
            stack.apply_batch(&updates, now).expect("batch");
            single.apply_batch(&updates, now).expect("single batch");
            stack.gc(now);
            single.gc(now);
        }
        if tick == REBALANCE_AT {
            at_rebalance.take().expect("once")(&mut stack, now);
        }
        let answer: Vec<PairKey> = stack.result_at(now);
        assert_eq!(
            answer,
            single.result_at(now),
            "{tag}: ≠ one TcEngine at t={now}"
        );
        for (w, seen) in regions.iter().zip(&mut seen) {
            let members = answer.iter().filter(|&&(_, q)| q == w.id);
            let members: Vec<ObjectId> = members.map(|&(o, _)| o).collect();
            let mut expect = oracle.range_at(&w.mbr.at(now), now).expect("range_at");
            expect.sort_unstable();
            assert_eq!(members, expect, "{tag}: window {:?} at t={now}", w.id);
            *seen += members.len();
        }
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "{tag}: every window must have had members at some tick: {seen:?}"
    );
}

#[test]
fn sharded_tc_windows_match_single_engine_and_range_at_across_a_rebalance() {
    let params = fleet_params();
    // K = 2: shift the one edge; K = 4: merge to three uneven bands,
    // which also re-homes the patrol window (speed 4.0, clamped into the
    // top band: column 3 → column 2) under its original registration
    // time. The static windows (speed 0) stay in column 0 throughout.
    for (k, edges) in [(2usize, vec![0.9]), (4, vec![0.4, 2.2])] {
        let tag = format!("ShardCoordinator K={k}");
        run_windows(
            &tag,
            |fleet, regions| {
                ShardCoordinator::with_factory(
                    pool(),
                    engine_config(&params),
                    Arc::new(VelocityBandPolicy::new(k, params.max_speed)),
                    fleet,
                    regions,
                    0.0,
                    Arc::new(|pool, cfg, a, b, now| {
                        Ok(Box::new(TcEngine::new(pool, *cfg, a, b, now)?))
                    }),
                )
                .expect("coordinator")
            },
            |coord, now| {
                let next = Arc::new(VelocityBandPolicy::from_edges(edges.clone()));
                let moved = coord.rebalance_to(next, now).expect("forced rebalance");
                assert!(moved > 0, "{tag}: the rebalance moved nothing");
                assert_eq!(coord.shard_count(), edges.len() + 1);
            },
        );
    }
}

#[test]
fn distributed_tc_windows_match_single_engine_and_range_at() {
    let params = fleet_params();
    let policy: Arc<dyn PartitionPolicy> = Arc::new(VelocityBandPolicy::new(2, params.max_speed));
    let hosts: Vec<Arc<LoopbackHost>> = joinable_pairs(&*policy)
        .iter()
        .map(|_| LoopbackHost::ephemeral())
        .collect();
    run_windows(
        "DistCoordinator K=2",
        |fleet, regions| {
            let connectors: Vec<Box<dyn Connector>> = hosts
                .iter()
                .map(|h| Box::new(h.connector()) as Box<dyn Connector>)
                .collect();
            let config = DistConfig {
                engine: EngineKind::Tc,
                t_m: params.maximum_update_interval,
                ..DistConfig::default()
            };
            DistCoordinator::new(config, policy.clone(), connectors, fleet, regions, 0.0)
                .expect("dist coordinator")
        },
        // A deployment's partition is fixed: nothing to force.
        |_, _| {},
    );
}
