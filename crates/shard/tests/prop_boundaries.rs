//! Property tests for partition-boundary discipline.
//!
//! The historical bug class here is float ties: banding via
//! `(speed / max_speed * k).floor()` lets rounding place a
//! boundary-exact trajectory *below* the edge on one code path and *at*
//! it on another, so the same object lands in different shards
//! depending on who classifies it. The fix stores explicit precomputed
//! edges and compares against them directly, with the tie rule
//! "boundary-exact goes to the upper band" everywhere. These properties
//! drive speeds and positions *exactly onto every edge* (plus nudges to
//! either side) across random `k`/`max_speed`/`space` draws and assert
//! that placement and migration stay consistent.

use std::sync::Arc;

use cij_core::EngineOp;
use cij_geom::{MovingRect, Rect, Time};
use cij_shard::{
    worst_corner_speed, JoinPlan, PartitionPolicy, ShardRouter, SpatialGridPolicy,
    VelocityBandPolicy,
};
use cij_tpr::ObjectId;
use cij_workload::{ObjectUpdate, SetTag};
use proptest::prelude::*;

/// A unit square moving at exactly `speed` along x: its worst corner
/// speed is `hypot(speed, 0) = speed`, bit-for-bit.
fn mbr_with_speed(speed: f64) -> MovingRect {
    MovingRect::rigid(
        Rect::new([10.0, 10.0], [11.0, 11.0]),
        [speed, 0.0],
        Time::from(0u32),
    )
}

/// A stationary point rect whose x-center is exactly `cx`: with
/// `lo = hi = cx`, the policy's `(lo + hi) / 2` reconstruction is
/// `2·cx / 2 = cx` bit-for-bit, so the probe really sits on the edge.
/// (A square with `cx ± 0.5` corners can re-round the center off the
/// edge.)
fn mbr_at_x(cx: f64) -> MovingRect {
    MovingRect::rigid(
        Rect::new([cx, 20.0], [cx, 21.0]),
        [0.0, 0.0],
        Time::from(0u32),
    )
}

/// What [`ShardRouter::project`] made of one A-side update, read back
/// off the op lists: `(shard, shard)` for a stay (plain `Apply`s on one
/// row), `(from, to)` for a migration (`Remove`s on one row, `Insert`s
/// on another), each op on all `k` slots of its row (bands prune none).
fn routed(
    router: &mut ShardRouter,
    plan: &JoinPlan,
    update: &ObjectUpdate,
    now: Time,
) -> (usize, usize) {
    let k = plan.shard_count();
    let mut ops = vec![Vec::new(); plan.pairs().len()];
    router.project(update, now, plan, &mut ops);
    let rows_of = |want: fn(&EngineOp) -> bool| -> Vec<usize> {
        let mut rows: Vec<usize> = (0..ops.len())
            .filter(|&s| ops[s].iter().any(want))
            .map(|s| plan.pairs()[s].0)
            .collect();
        rows.dedup();
        rows
    };
    let applied = rows_of(|op| matches!(op, EngineOp::Apply(_)));
    let removed = rows_of(|op| matches!(op, EngineOp::Remove { .. }));
    let inserted = rows_of(|op| matches!(op, EngineOp::Insert { .. }));
    assert_eq!(
        ops.iter().map(Vec::len).sum::<usize>(),
        k * (applied.len() + removed.len() + inserted.len())
    );
    match (&applied[..], &removed[..], &inserted[..]) {
        ([shard], [], []) => (*shard, *shard),
        ([], [from], [to]) => (*from, *to),
        other => panic!("an update must be one stay or one migration, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Boundary-exact speeds always take the upper band, the
    /// equal-width policy and the one rebuilt `from_edges` of its own
    /// boundaries agree on *every* probe (edges, nudges to either side,
    /// and random speeds) and on `joinable`, and off-edge probes
    /// straddle the edge.
    #[test]
    fn velocity_boundary_ties_are_deterministic(
        k in 2usize..8,
        max_speed in 0.1f64..10.0,
        extra in 0.0f64..1.0,
    ) {
        let band = VelocityBandPolicy::new(k, max_speed);
        let bounds = VelocityBandPolicy::from_edges(band.boundaries().to_vec());
        prop_assert_eq!(band.shard_count(), bounds.shard_count());
        prop_assert_eq!(JoinPlan::new(&band).pairs(), JoinPlan::new(&bounds).pairs());

        let id = ObjectId(7);
        for (i, &edge) in band.boundaries().iter().enumerate() {
            let exact = mbr_with_speed(edge);
            prop_assert_eq!(worst_corner_speed(&exact), edge);
            // The tie rule: exactly-on-edge belongs to the band above.
            prop_assert_eq!(band.shard_of(id, &exact), i + 1);
            prop_assert_eq!(bounds.shard_of(id, &exact), i + 1);
            let below = mbr_with_speed(edge - edge * 1e-12);
            prop_assert_eq!(band.shard_of(id, &below), i);
            prop_assert_eq!(bounds.shard_of(id, &below), i);
            let above = mbr_with_speed(edge + edge * 1e-12);
            prop_assert_eq!(band.shard_of(id, &above), i + 1);
            prop_assert_eq!(bounds.shard_of(id, &above), i + 1);
        }
        let probe = mbr_with_speed(extra * max_speed);
        prop_assert_eq!(band.shard_of(id, &probe), bounds.shard_of(id, &probe));
    }

    /// Projecting an update whose new trajectory sits exactly on a
    /// boundary is a stay when the object is already in the upper band,
    /// and a migration *to* the upper band when it is not — never a
    /// self-migration, never a disagreement with `shard_of`.
    #[test]
    fn router_never_self_migrates_on_boundary_speeds(
        k in 2usize..8,
        max_speed in 0.1f64..10.0,
    ) {
        let policy = VelocityBandPolicy::new(k, max_speed);
        let edges: Vec<f64> = policy.boundaries().to_vec();
        let plan = JoinPlan::new(&policy);
        let mut router = ShardRouter::new(Arc::new(policy));
        for (i, &edge) in edges.iter().enumerate() {
            let id = ObjectId(i as u64);
            let slow = mbr_with_speed(edge * 0.5);
            let from = router.place(id, SetTag::A, &slow, 0.0);
            // Re-announce the same trajectory: exact boundary or not,
            // re-routing what is already placed must be a Stay.
            let noop = ObjectUpdate {
                id,
                set: SetTag::A,
                old_mbr: slow,
                last_update: 0.0,
                new_mbr: slow,
            };
            prop_assert_eq!(routed(&mut router, &plan, &noop, 1.0), (from, from));

            // Accelerate to exactly the edge: lands in band i+1.
            let exact = mbr_with_speed(edge);
            let update = ObjectUpdate {
                id,
                set: SetTag::A,
                old_mbr: slow,
                last_update: 1.0,
                new_mbr: exact,
            };
            // A stay — `(i+1, i+1)` — is only legitimate when the slow
            // speed already banded to i+1 (possible for the lowest edges
            // at tiny k); `routed` rejects a self-migration outright.
            let migrations = router.migrations();
            prop_assert_eq!(routed(&mut router, &plan, &update, 2.0), (from, i + 1));
            prop_assert_eq!(router.migrations() - migrations, u64::from(from != i + 1));
            prop_assert_eq!(router.shard_of(id), Some(i + 1));
            // And staying exactly on the edge keeps the placement put.
            let hold = ObjectUpdate {
                id,
                set: SetTag::A,
                old_mbr: exact,
                last_update: 2.0,
                new_mbr: exact,
            };
            prop_assert_eq!(routed(&mut router, &plan, &hold, 3.0), (i + 1, i + 1));
        }
    }

    /// The same tie discipline on the spatial axis: centers exactly on
    /// a strip edge go to the upper strip under both the equal-width
    /// grid and the policy rebuilt `from_edges` of its boundaries, the
    /// two prune the same pairs whatever the reach, and `repartition`
    /// between the two moves nothing.
    #[test]
    fn spatial_boundary_ties_are_deterministic(
        k in 2usize..8,
        space in 50.0f64..500.0,
        reach_share in 0.0f64..1.0,
    ) {
        let grid = SpatialGridPolicy::new(k, space, space * reach_share);
        let bounds = SpatialGridPolicy::from_edges(grid.boundaries().to_vec(), grid.reach());
        prop_assert_eq!(JoinPlan::new(&grid).pairs(), JoinPlan::new(&bounds).pairs());
        let id = ObjectId(3);
        for (i, &edge) in grid.boundaries().iter().enumerate() {
            let exact = mbr_at_x(edge);
            prop_assert_eq!(grid.shard_of(id, &exact), i + 1);
            prop_assert_eq!(bounds.shard_of(id, &exact), i + 1);
            let below = mbr_at_x(edge - edge * 1e-12);
            prop_assert_eq!(grid.shard_of(id, &below), i);
            prop_assert_eq!(bounds.shard_of(id, &below), i);
        }

        // Equal edges ⇒ equal placement ⇒ an empty rebalance diff, even
        // with every object parked exactly on an edge.
        let mut router = ShardRouter::new(Arc::new(grid.clone()));
        for (n, &edge) in grid.boundaries().iter().enumerate() {
            router.place(ObjectId(n as u64), SetTag::B, &mbr_at_x(edge), 0.0);
        }
        let moves = router.repartition(Arc::new(bounds));
        prop_assert!(moves.is_empty(), "identical edges relocated {} objects", moves.len());
    }
}
