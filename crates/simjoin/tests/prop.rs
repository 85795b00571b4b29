//! Property-based differential: the proximity engine vs the exhaustive
//! oracle over randomized workloads and thresholds.
//!
//! Velocities, extents and ε are drawn from bounded (NaN/inf-free)
//! ranges; one generator additionally **forces inflation-boundary ties**
//! — static pairs whose minimum distance is *exactly* ε (the gap and the
//! threshold are the same float) — pinning the closed-predicate
//! convention `dist ≤ ε` through candidate generation *and* refine.

use std::sync::Arc;

use cij_core::{ContinuousJoinEngine, EngineConfig, PairKey, PairStatus};
use cij_geom::{MovingRect, Rect, Time};
use cij_simjoin::{BruteProximityEngine, ProximityConfig, ProximityJoinEngine};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::ObjectId;
use cij_workload::{MovingObject, ObjectUpdate, SetTag};
use proptest::prelude::*;

fn pool() -> BufferPool {
    BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(64),
    )
}

/// One random trajectory: bounded position, extent and velocity.
fn arb_mbr() -> impl Strategy<Value = MovingRect> {
    (
        0.0f64..180.0,
        0.0f64..180.0,
        0.1f64..4.0,
        0.1f64..4.0,
        -3.0f64..3.0,
        -3.0f64..3.0,
    )
        .prop_map(|(x, y, w, h, vx, vy)| {
            MovingRect::rigid(Rect::new([x, y], [x + w, y + h]), [vx, vy], 0.0)
        })
}

fn side(ids_from: u64, mbrs: Vec<MovingRect>) -> Vec<MovingObject> {
    mbrs.into_iter()
        .enumerate()
        .map(|(i, mbr)| MovingObject {
            id: ObjectId(ids_from + i as u64),
            mbr,
        })
        .collect()
}

/// A randomized update: re-register object `idx` (A or B side) with a
/// fresh trajectory at the given tick.
type RawUpdate = (bool, usize, MovingRect);

fn arb_updates(n_per_side: usize) -> impl Strategy<Value = Vec<(Time, RawUpdate)>> {
    proptest::collection::vec((any::<bool>(), 0..n_per_side, arb_mbr(), 1u32..20), 0..24).prop_map(
        |v| {
            let mut out: Vec<(Time, RawUpdate)> = v
                .into_iter()
                .map(|(is_a, idx, mbr, tick)| (Time::from(tick), (is_a, idx, mbr)))
                .collect();
            out.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            out
        },
    )
}

/// Runs the workload three ways — the oracle and one engine update by
/// update, a second engine with each tick's updates as one `apply_batch`
/// — and requires bit-identical pair sets and `PairStatus` floats: after
/// every event for the first two, after every tick for all three.
///
/// The batched engine refines a subset of the per-update engine's
/// candidates (a pair found and dropped again inside a tick is never
/// refined), so its tallies can only be lower — and are equal when no
/// tick carries more than one update.
fn check_differential(
    eps: f64,
    set_a: &[MovingObject],
    set_b: &[MovingObject],
    updates: &[(Time, RawUpdate)],
) {
    let config = ProximityConfig::new(EngineConfig::default(), eps);
    let mut engine = ProximityJoinEngine::new(pool(), config, set_a, set_b, 0.0).unwrap();
    let mut batched = ProximityJoinEngine::new(pool(), config, set_a, set_b, 0.0).unwrap();
    let mut oracle = BruteProximityEngine::new(config, set_a, set_b);
    engine.run_initial_join(0.0).unwrap();
    batched.run_initial_join(0.0).unwrap();
    oracle.run_initial_join(0.0).unwrap();

    // Track each object's current registration so updates carry the
    // correct old_mbr/last_update (the engine locates tree entries by
    // their registered trajectory).
    let mut reg: Vec<(MovingRect, Time)> =
        set_a.iter().chain(set_b).map(|o| (o.mbr, 0.0)).collect();
    let n = set_a.len();
    let mut ticks: Vec<(Time, Vec<ObjectUpdate>)> = Vec::new();
    for (now, (is_a, idx, new_mbr)) in updates {
        let (slot, set, id) = if *is_a {
            (*idx, SetTag::A, set_a[*idx].id)
        } else {
            (n + *idx, SetTag::B, set_b[*idx].id)
        };
        let (old_mbr, last_update) = reg[slot];
        // Re-anchor the fresh trajectory at the update instant.
        let mut mbr = *new_mbr;
        mbr.t_ref = *now;
        reg[slot] = (mbr, *now);
        let u = ObjectUpdate {
            id,
            set,
            old_mbr,
            last_update,
            new_mbr: mbr,
        };
        match ticks.last_mut() {
            Some((t, batch)) if t == now => batch.push(u),
            _ => ticks.push((*now, vec![u])),
        }
    }

    let compare = |engine: &ProximityJoinEngine, oracle: &BruteProximityEngine, t: Time| {
        let got = engine.result_at(t);
        let expect = oracle.result_at(t);
        assert_eq!(&got, &expect, "pair sets diverge at t={t}");
        for p in got {
            let gs: PairStatus = engine.pair_status_at(p, t);
            let es: PairStatus = oracle.pair_status_at(p, t);
            assert_eq!(gs, es, "status of {p:?} diverges at t={t}");
        }
    };
    compare(&engine, &oracle, 0.0);
    compare(&batched, &oracle, 0.0);

    for (now, batch) in &ticks {
        for u in batch {
            engine.apply_update(u, *now).unwrap();
            oracle.apply_update(u, *now).unwrap();
            engine.gc(*now);
            oracle.gc(*now);
            compare(&engine, &oracle, *now);
        }
        batched.apply_batch(batch, *now).unwrap();
        batched.gc(*now);
        compare(&batched, &oracle, *now);
    }

    let accepted = |e: &ProximityJoinEngine| e.candidates() - e.refine_rejects();
    assert!(batched.candidates() <= engine.candidates());
    assert!(accepted(&batched) <= accepted(&engine));
    if ticks.iter().all(|(_, batch)| batch.len() == 1) {
        assert_eq!(batched.candidates(), engine.candidates());
        assert_eq!(accepted(&batched), accepted(&engine));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random workload × random ε: engine == oracle at every event.
    #[test]
    fn random_eps_differential(
        eps in 0.0f64..40.0,
        mbrs_a in proptest::collection::vec(arb_mbr(), 6..14),
        mbrs_b in proptest::collection::vec(arb_mbr(), 6..14),
        updates in arb_updates(6),
    ) {
        let set_a = side(1, mbrs_a);
        let set_b = side(1001, mbrs_b);
        check_differential(eps, &set_a, &set_b, &updates);
    }

    /// Forced boundary ties: a static A/B pair whose gap *is* ε
    /// bit-for-bit, plus random bystanders. The tied pair must be
    /// reported (closed predicate), identically by engine and oracle —
    /// also while either endpoint re-registers in place (the tie then
    /// goes through the maintenance probe of that side: the plain probe
    /// against inflated B, or the inflated probe against A), several
    /// times and both in one tick.
    #[test]
    fn boundary_tie_at_exactly_eps_is_reported(
        eps in 0.25f64..8.0,
        x in 0.0f64..100.0,
        y in 0.0f64..100.0,
        mbrs_b in proptest::collection::vec(arb_mbr(), 2..6),
        touches in proptest::collection::vec((1u32..6, 0usize..3, arb_mbr()), 0..10),
    ) {
        // A at [x, x+1]×[y, y+1]; B starts ~eps to the right of A's hi
        // edge, same y band. `x + 1.0 + eps` rounds, so the *threshold*
        // is taken as the representable gap `bx - a_hi` — exactly the
        // float the refine's per-axis subtraction reproduces. Per-axis
        // gaps are then (ε, 0) bit-for-bit and dist² == ε².
        let a_hi = x + 1.0;
        let a_rect = MovingRect::rigid(Rect::new([x, y], [a_hi, y + 1.0]), [0.0, 0.0], 0.0);
        let bx = a_hi + eps;
        let eps_tie = bx - a_hi;
        prop_assert!(eps_tie > 0.0);
        let b_rect = MovingRect::rigid(Rect::new([bx, y], [bx + 1.0, y + 1.0]), [0.0, 0.0], 0.0);
        let set_a = side(1, vec![a_rect]);
        let mut bs = vec![b_rect];
        bs.extend(mbrs_b);
        let set_b = side(1001, bs);

        let mut updates: Vec<(Time, RawUpdate)> = touches
            .into_iter()
            .map(|(tick, which, mbr)| {
                let update = match which {
                    0 => (true, 0, a_rect),
                    1 => (false, 0, b_rect),
                    _ => (false, 1, mbr), // a bystander moves
                };
                (Time::from(tick), update)
            })
            .collect();
        // Stable: the generated order inside a tick is the batch order.
        updates.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        check_differential(eps_tie, &set_a, &set_b, &updates);

        // And explicitly: the tie is in the answer for the whole window.
        let config = ProximityConfig::new(EngineConfig::default(), eps_tie);
        let mut engine = ProximityJoinEngine::new(pool(), config, &set_a, &set_b, 0.0).unwrap();
        engine.run_initial_join(0.0).unwrap();
        let tied: PairKey = (ObjectId(1), ObjectId(1001));
        prop_assert!(
            engine.result_at(0.0).contains(&tied),
            "distance-exactly-eps pair dropped (eps={})", eps_tie
        );
        let status = engine.pair_status_at(tied, 0.0);
        let iv = status.active.expect("tied pair has an active interval");
        prop_assert_eq!(iv.start, 0.0);
        prop_assert_eq!(iv.end, EngineConfig::default().t_m);
    }

    /// Just past the tie the pair must vanish: nudge the gap one step
    /// wider than ε and require absence (the predicate is ≤, not <, and
    /// inflation must not over-report after refine).
    #[test]
    fn just_beyond_eps_is_rejected(
        eps in 0.25f64..8.0,
        x in 0.0f64..100.0,
        y in 0.0f64..100.0,
    ) {
        let gap = eps + 1e-6;
        let a_rect = MovingRect::rigid(Rect::new([x, y], [x + 1.0, y + 1.0]), [0.0, 0.0], 0.0);
        let bx = x + 1.0 + gap;
        let b_rect = MovingRect::rigid(Rect::new([bx, y], [bx + 1.0, y + 1.0]), [0.0, 0.0], 0.0);
        let set_a = side(1, vec![a_rect]);
        let set_b = side(1001, vec![b_rect]);

        check_differential(eps, &set_a, &set_b, &[]);

        let config = ProximityConfig::new(EngineConfig::default(), eps);
        let mut engine = ProximityJoinEngine::new(pool(), config, &set_a, &set_b, 0.0).unwrap();
        engine.run_initial_join(0.0).unwrap();
        prop_assert!(
            engine.result_at(0.0).is_empty(),
            "pair beyond eps reported (eps={})", eps
        );
    }
}
