//! Workspace integration tests for the extension systems: window/kNN
//! monitors and the interval-NN machinery working together through the
//! facade, on one shared simulated disk.

use std::sync::Arc;

use cij::core::knn::ContinuousKnn;
use cij::core::window::{ContinuousWindowQueries, QueryId};
use cij::core::{ContinuousJoinEngine, EngineConfig, MtbEngine};
use cij::geom::Rect;
use cij::storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij::tpr::{TprTree, TreeConfig};
use cij::workload::{generate_pair, Params, SetTag, UpdateStream};

#[test]
fn one_disk_many_structures() {
    // A TPR-tree, a window monitor and a kNN monitor all share one
    // buffer pool and track the same fleet consistently.
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

    let mut tpr = TprTree::new(
        pool.clone(),
        TreeConfig {
            capacity: params.node_capacity,
            ..TreeConfig::default()
        },
    );
    for o in &fleet {
        tpr.insert(o.id, o.mbr, 0.0).unwrap();
    }

    let mut windows = ContinuousWindowQueries::new(params.maximum_update_interval);
    windows.add_query(QueryId(0), Rect::new([100.0, 100.0], [250.0, 250.0]));
    windows.initial_evaluate(&tpr, 0.0).unwrap();

    let mut knn = ContinuousKnn::new(params.maximum_update_interval, params.max_speed);
    knn.add_query(QueryId(0), [200.0, 200.0], 5);
    knn.refresh(&tpr, 0.0).unwrap();

    let mut stream = UpdateStream::new(&params, &fleet, &[], 0.0);
    for tick in 1..=80u32 {
        let now = f64::from(tick);
        for u in stream.tick(now) {
            tpr.update(u.id, &u.old_mbr, u.new_mbr, now).unwrap();
            windows.apply_update(u.id, &u.new_mbr, now);
            knn.apply_update(u.id, &u.old_mbr, &u.new_mbr, now);
        }
        knn.refresh(&tpr, now).unwrap();

        // The window monitor agrees with the direct query.
        let w = Rect::new([100.0, 100.0], [250.0, 250.0]);
        let mut via_tpr = tpr.range_at(&w, now).unwrap();
        via_tpr.sort();
        assert_eq!(
            windows.result_at(QueryId(0), now),
            via_tpr,
            "monitor t={now}"
        );

        // The kNN monitor's nearest is at least as close as any window
        // hit (shared oracle sanity).
        let knn_result = knn.result_at(QueryId(0), now);
        assert_eq!(knn_result.len(), 5);

        // Interval-NN: the timeline's owner at `now` equals knn[0] (by
        // distance).
        let tl = tpr
            .nn_over_interval([200.0, 200.0], now, now + 5.0)
            .unwrap();
        let owner = tl.iter().find(|s| s.interval.contains(now)).unwrap();
        let owner_mbr = stream.current(owner.oid).unwrap();
        let d_owner = owner_mbr.at(now).min_dist_sq([200.0, 200.0]);
        assert!(
            (d_owner - knn_result[0].1).abs() < 1e-6,
            "t={now}: interval-NN owner at {d_owner}, kNN best {}",
            knn_result[0].1
        );
    }
    tpr.validate(80.0).unwrap();
}

#[test]
fn mtb_engine_and_monitors_share_fleet() {
    // The join engine answers pair queries while the kNN monitor tracks
    // proximity on the same workload — a realistic composite deployment.
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
    let mut engine = MtbEngine::new(pool, EngineConfig::default(), &a, &b, 0.0).unwrap();
    engine.run_initial_join(0.0).unwrap();

    let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
    for tick in 1..=70u32 {
        let now = f64::from(tick);
        for u in stream.tick(now) {
            engine.apply_update(&u, now).unwrap();
        }
        let expect = cij::join::brute::brute_pairs_at(
            &stream.snapshot(SetTag::A),
            &stream.snapshot(SetTag::B),
            now,
        );
        assert_eq!(engine.result_at(now), expect, "t={now}");
    }
}
