//! Workspace integration tests for the §V extension working through the
//! facade: continuous window queries served by the join engine itself,
//! next to other structures on one shared simulated disk.

use std::sync::Arc;

use cij::core::{ContinuousJoinEngine, EngineConfig, MtbEngine, TcEngine};
use cij::geom::{MovingRect, Rect};
use cij::storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij::tpr::{ObjectId, TprTree, TreeConfig};
use cij::workload::{generate_pair, MovingObject, Params, SetTag, UpdateStream};

#[test]
fn one_disk_many_structures() {
    // A TPR-tree and a window monitor — a TC-Join engine whose set B is
    // the windows — share one buffer pool and track the same fleet
    // consistently, for more than 3·T_M without the windows ever
    // re-registering.
    let params = Params {
        dataset_size: 300,
        space: 400.0,
        object_size_pct: 0.5,
        ..Params::default()
    };
    let (fleet, _) = generate_pair(&params, 0.0);
    let pool = BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(200),
    );

    let tree_config = TreeConfig {
        capacity: params.node_capacity,
        ..TreeConfig::default()
    };
    let mut tpr = TprTree::new(pool.clone(), tree_config);
    for o in &fleet {
        tpr.insert(o.id, o.mbr, 0.0).unwrap();
    }

    let window = |id: u64, mbr| MovingObject {
        id: ObjectId(id),
        mbr,
    };
    let windows = [
        window(
            1 << 32,
            MovingRect::stationary(Rect::new([100.0, 100.0], [250.0, 250.0]), 0.0),
        ),
        window(
            (1 << 32) + 1,
            MovingRect::rigid(Rect::new([0.0, 150.0], [60.0, 210.0]), [1.5, 0.0], 0.0),
        ),
    ];
    let config = EngineConfig::builder()
        .t_m(params.maximum_update_interval)
        .tree(tree_config)
        .build();
    let mut monitor = TcEngine::new(pool.clone(), config, &fleet, &windows, 0.0).unwrap();
    monitor.run_initial_join(0.0).unwrap();

    let mut stream = UpdateStream::new(&params, &fleet, &[], 0.0);
    for tick in 1..=200u32 {
        let now = f64::from(tick);
        let updates = stream.tick(now);
        for u in &updates {
            tpr.update(u.id, &u.old_mbr, u.new_mbr, now).unwrap();
        }
        monitor.apply_batch(&updates, now).unwrap();
        monitor.gc(now);

        // The monitor agrees with the direct query, window by window.
        let answer = monitor.result_at(now);
        for w in &windows {
            let members = answer.iter().filter(|&&(_, q)| q == w.id);
            let members: Vec<ObjectId> = members.map(|&(o, _)| o).collect();
            let mut via_tpr = tpr.range_at(&w.mbr.at(now), now).unwrap();
            via_tpr.sort();
            assert_eq!(members, via_tpr, "window {} at t={now}", w.id);
        }
    }
    tpr.validate(200.0).unwrap();
}

#[test]
fn mtb_engine_and_monitors_share_fleet() {
    // The join engine answers pair queries while a window monitor watches
    // fleet A on the same pool and the same update stream — a realistic
    // composite deployment.
    let params = Params {
        dataset_size: 150,
        space: 250.0,
        object_size_pct: 1.0,
        ..Params::default()
    };
    let (a, b) = generate_pair(&params, 0.0);
    let pool = BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(128),
    );
    let mut engine = MtbEngine::new(pool.clone(), EngineConfig::default(), &a, &b, 0.0).unwrap();
    engine.run_initial_join(0.0).unwrap();

    // Window ids clear of both fleets (B's start at 2^32).
    let downtown = MovingObject {
        id: ObjectId(1 << 33),
        mbr: MovingRect::stationary(Rect::new([50.0, 50.0], [150.0, 150.0]), 0.0),
    };
    let mut monitor = TcEngine::new(pool, EngineConfig::default(), &a, &[downtown], 0.0).unwrap();
    monitor.run_initial_join(0.0).unwrap();

    let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
    for tick in 1..=70u32 {
        let now = f64::from(tick);
        for u in stream.tick(now) {
            engine.apply_update(&u, now).unwrap();
            if u.set == SetTag::A {
                monitor.apply_update(&u, now).unwrap();
            }
        }
        let fleet_a = stream.snapshot(SetTag::A);
        let expect = cij::join::brute::brute_pairs_at(&fleet_a, &stream.snapshot(SetTag::B), now);
        assert_eq!(engine.result_at(now), expect, "t={now}");
        let inside =
            cij::join::brute::brute_pairs_at(&fleet_a, &[(downtown.id, downtown.mbr)], now);
        assert_eq!(monitor.result_at(now), inside, "downtown at t={now}");
    }
}
