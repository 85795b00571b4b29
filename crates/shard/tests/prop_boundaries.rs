//! Property tests for partition-boundary discipline.
//!
//! The historical bug class here is float ties: banding via
//! `(speed / max_speed * k).floor()` lets rounding place a
//! boundary-exact trajectory *below* the edge on one code path and *at*
//! it on another, so the same object lands in different shards
//! depending on who classifies it. The fix stores explicit precomputed
//! edges and compares against them directly, with the tie rule
//! "boundary-exact goes to the upper band" everywhere. These properties
//! drive speeds *exactly onto every edge* (plus nudges to either side)
//! across random `k`/`max_speed` draws and assert that placement,
//! migration and re-partitioning stay consistent.

use std::sync::Arc;

use cij_core::{Registration, Registrations};
use cij_geom::{MovingRect, Rect, Time};
use cij_shard::{worst_corner_speed, PartitionPolicy, ShardRouter, VelocityBandPolicy};
use cij_tpr::ObjectId;
use cij_workload::SetTag;
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

/// An A-side registration on `mbr`.
fn registered(mbr: &MovingRect) -> Registration {
    Registration {
        set: SetTag::A,
        mbr: *mbr,
        registered_at: 0.0,
    }
}

/// What the router made of one A-side update from `prev` to `mbr`:
/// `(from, to)`, the two equal for a stay (a move between them counted
/// as a migration).
fn routed(
    router: &mut ShardRouter,
    id: ObjectId,
    prev: &MovingRect,
    mbr: &MovingRect,
) -> (usize, usize) {
    let from = router.remove(id, &registered(prev));
    let to = router.place(id, SetTag::A, mbr);
    router.count_move(from, to);
    (from, to)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Boundary-exact speeds always take the upper band, the
    /// equal-width policy and the one rebuilt `from_edges` of its own
    /// boundaries agree on *every* probe (edges, nudges to either side,
    /// and random speeds) and on the shard count, off-edge probes straddle the
    /// edge, and `repartition` between the two moves nothing.
    #[test]
    fn velocity_boundary_ties_are_deterministic(
        k in 2usize..8,
        max_speed in 0.1f64..10.0,
        extra in 0.0f64..1.0,
    ) {
        let band = VelocityBandPolicy::new(k, max_speed);
        let bounds = VelocityBandPolicy::from_edges(band.boundaries().to_vec());
        prop_assert_eq!(band.shard_count(), bounds.shard_count());

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

        // Equal edges ⇒ equal placement ⇒ an empty rebalance diff, even
        // with every object parked exactly on an edge.
        let mut router = ShardRouter::new(Arc::new(band.clone()));
        let mut table = Registrations::default();
        for (n, &edge) in band.boundaries().iter().enumerate() {
            let (id, mbr) = (ObjectId(n as u64), mbr_with_speed(edge));
            router.place(id, SetTag::B, &mbr);
            table.insert(id, Registration { set: SetTag::B, ..registered(&mbr) });
        }
        let moves = router.repartition(Arc::new(bounds), &table);
        prop_assert!(moves.is_empty(), "identical edges relocated {} objects", moves.len());
    }

    /// Routing an update whose new trajectory sits exactly on a
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
        let mut router = ShardRouter::new(Arc::new(policy));
        for (i, &edge) in edges.iter().enumerate() {
            let id = ObjectId(i as u64);
            let slow = mbr_with_speed(edge * 0.5);
            let from = router.place(id, SetTag::A, &slow);
            // Re-announce the same trajectory: exact boundary or not,
            // re-routing what is already placed must be a Stay.
            prop_assert_eq!(routed(&mut router, id, &slow, &slow), (from, from));

            // Accelerate to exactly the edge: lands in band i+1.
            let exact = mbr_with_speed(edge);
            // A stay — `(i+1, i+1)` — is only legitimate when the slow
            // speed already banded to i+1 (possible for the lowest edges
            // at tiny k); a migration is counted exactly when the two
            // shards differ.
            let migrations = router.migrations();
            prop_assert_eq!(routed(&mut router, id, &slow, &exact), (from, i + 1));
            prop_assert_eq!(router.migrations() - migrations, u64::from(from != i + 1));
            prop_assert_eq!(router.policy().shard_of(id, &exact), i + 1);
            // And staying exactly on the edge keeps the placement put.
            prop_assert_eq!(routed(&mut router, id, &exact, &exact), (i + 1, i + 1));
        }
    }
}
