//! §V on the engine: a continuous window query is "essentially computing
//! the intersection between objects and query windows" — a join whose
//! set B is the windows. There is no window-monitor type; these tests pin
//! the recipe that replaces one:
//!
//! * a window (static or moving) is a [`MovingObject`] on side B of a
//!   [`TcEngine`], registered once and never re-registered;
//! * "who is in window *q* at *t*" is `result_at(t)` filtered on the B id;
//! * [`MtbEngine`] answers the same input only while the windows
//!   re-register within `T_M` like any object (Theorem 2 needs both
//!   sides to honour `T_M`).
//!
//! The oracle is independent of the engines: a separate [`TprTree`] over
//! the fleet queried with `range_at`, or a per-instant `intersects_at`
//! scan for the hand-built cases.

use std::sync::Arc;

use cij_core::{ContinuousJoinEngine, EngineConfig, MtbEngine, TcEngine};
use cij_geom::{MovingRect, Rect, Time};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::{ObjectId, TprTree, TreeConfig};
use cij_workload::{generate_set, MovingObject, ObjectUpdate, Params, SetTag, UpdateStream};

/// Window ids start where `generate_pair` starts set B: disjoint from any
/// fleet id.
const FIRST_WINDOW: u64 = 1 << 32;

fn pool() -> BufferPool {
    BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(128),
    )
}

/// `mbrs` as side-B objects with consecutive ids from [`FIRST_WINDOW`].
fn windows(mbrs: &[MovingRect]) -> Vec<MovingObject> {
    let ids = FIRST_WINDOW..;
    ids.zip(mbrs)
        .map(|(id, &mbr)| MovingObject {
            id: ObjectId(id),
            mbr,
        })
        .collect()
}

/// Unit squares `(id, x, y, vx)` registered at `t = 0`.
fn fleet(objects: &[(u64, f64, f64, f64)]) -> Vec<MovingObject> {
    objects
        .iter()
        .map(|&(id, x, y, vx)| MovingObject {
            id: ObjectId(id),
            mbr: MovingRect::rigid(Rect::new([x, y], [x + 1.0, y + 1.0]), [vx, 0.0], 0.0),
        })
        .collect()
}

fn still(lo: [f64; 2], hi: [f64; 2]) -> MovingRect {
    MovingRect::stationary(Rect::new(lo, hi), 0.0)
}

/// A [`TcEngine`] monitoring `windows` over `fleet`, initial join done.
fn tc_monitor(fleet: &[MovingObject], windows: &[MovingObject]) -> TcEngine {
    let mut engine = TcEngine::new(pool(), EngineConfig::default(), fleet, windows, 0.0).unwrap();
    engine.run_initial_join(0.0).unwrap();
    engine
}

/// The fleet objects inside window `q` at `t`, sorted.
fn members(engine: &impl ContinuousJoinEngine, q: ObjectId, t: Time) -> Vec<ObjectId> {
    let pairs = engine.result_at(t).into_iter();
    pairs.filter(|&(_, w)| w == q).map(|(o, _)| o).collect()
}

fn ids(raw: &[u64]) -> Vec<ObjectId> {
    raw.iter().map(|&id| ObjectId(id)).collect()
}

// ----------------------------------------------------------------------
// A fleet under the paper's update discipline, past every bucket expiry
// ----------------------------------------------------------------------

/// 400 objects of side 20 in the default 1000² space.
fn fleet_params() -> Params {
    Params {
        dataset_size: 400,
        object_size_pct: 2.0,
        seed: 2108,
        ..Params::default()
    }
}

/// Three static regions, one zero-extent point window and one moving
/// patrol window (it reaches x = 700..800 by t = 200).
fn monitored_regions() -> Vec<MovingObject> {
    windows(&[
        still([100.0, 100.0], [250.0, 250.0]),
        still([400.0, 400.0], [600.0, 600.0]),
        still([800.0, 50.0], [950.0, 200.0]),
        MovingRect::stationary(Rect::point([500.0, 500.0]), 0.0),
        MovingRect::rigid(Rect::new([0.0, 450.0], [100.0, 550.0]), [3.5, 0.0], 0.0),
    ])
}

/// Drives `engine` and an independent TPR-tree over the fleet for `ticks`
/// ticks. `reregister_every` (if any) re-sends every window as an
/// ordinary B-side update at that period. Returns the first tick at which
/// some window's membership differs from the tree's `range_at`, and the
/// membership count seen per window (so callers can check the run was
/// not vacuous).
fn first_divergence(
    engine: &mut impl ContinuousJoinEngine,
    objects: &[MovingObject],
    regions: &[MovingObject],
    ticks: u32,
    reregister_every: Option<u32>,
) -> (Option<u32>, Vec<usize>) {
    let params = fleet_params();
    let mut oracle = TprTree::new(pool(), TreeConfig::default());
    for o in objects {
        oracle.insert(o.id, o.mbr, 0.0).unwrap();
    }
    let mut stream = UpdateStream::new(&params, objects, &[], 0.0);
    // The windows' registered trajectories, as the engine holds them.
    let mut registered: Vec<(MovingRect, Time)> = regions.iter().map(|w| (w.mbr, 0.0)).collect();
    let mut seen = vec![0; regions.len()];

    engine.run_initial_join(0.0).unwrap();
    for tick in 0..=ticks {
        let now = Time::from(tick);
        if tick > 0 {
            let mut updates = stream.tick(now);
            for u in &updates {
                oracle.update(u.id, &u.old_mbr, u.new_mbr, now).unwrap();
            }
            if reregister_every.is_some_and(|period| tick % period == 0) {
                for (w, (mbr, last_update)) in regions.iter().zip(&mut registered) {
                    let new_mbr = mbr.rebase(now);
                    updates.push(ObjectUpdate {
                        id: w.id,
                        set: SetTag::B,
                        old_mbr: *mbr,
                        last_update: *last_update,
                        new_mbr,
                    });
                    (*mbr, *last_update) = (new_mbr, now);
                }
            }
            engine.apply_batch(&updates, now).unwrap();
            engine.gc(now);
        }
        for (k, w) in regions.iter().enumerate() {
            let mut expect = oracle.range_at(&w.mbr.at(now), now).unwrap();
            expect.sort_unstable();
            seen[k] += expect.len();
            if members(engine, w.id, now) != expect {
                return (Some(tick), seen);
            }
        }
    }
    (None, seen)
}

#[test]
fn tc_engine_windows_match_range_at_past_every_bucket_expiry() {
    // 200 ticks > 3·T_M: the windows registered at t = 0 are never
    // touched again, the fleet re-registers within T_M — Theorem 1 only
    // needs the probing side to be fresh.
    let objects = generate_set(&fleet_params(), SetTag::A, 0, 0.0);
    let regions = monitored_regions();
    let mut engine =
        TcEngine::new(pool(), EngineConfig::default(), &objects, &regions, 0.0).unwrap();
    let (diverged, seen) = first_divergence(&mut engine, &objects, &regions, 200, None);
    assert_eq!(diverged, None, "TC-Join window answer left the oracle");
    assert!(
        seen.iter().all(|&n| n > 0),
        "every window (point and patrol included) must have had members: {seen:?}"
    );
}

#[test]
fn mtb_engine_drops_windows_that_never_reregister() {
    // Theorem 2 caps a probe against the bucket [0, 30) at t_eb + T_M =
    // 90: a side that stays silent is invisible from there on. This is
    // the contract `MtbPair` documents, not a bug.
    let objects = generate_set(&fleet_params(), SetTag::A, 0, 0.0);
    let regions = monitored_regions();
    let mut engine =
        MtbEngine::new(pool(), EngineConfig::default(), &objects, &regions, 0.0).unwrap();
    let (diverged, _) = first_divergence(&mut engine, &objects, &regions, 200, None);
    assert_eq!(diverged, Some(90), "exact below t_eb + T_M, wrong from it");
}

#[test]
fn mtb_engine_with_reregistering_windows_matches_range_at() {
    // §V's refinement: windows re-register every 45 < T_M ticks as
    // ordinary B-side updates, and MTB-Join is exact for 200 ticks.
    let objects = generate_set(&fleet_params(), SetTag::A, 0, 0.0);
    let regions = monitored_regions();
    let mut engine =
        MtbEngine::new(pool(), EngineConfig::default(), &objects, &regions, 0.0).unwrap();
    let (diverged, seen) = first_divergence(&mut engine, &objects, &regions, 200, Some(45));
    assert_eq!(diverged, None, "MTB-Join window answer left the oracle");
    assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
}

// ----------------------------------------------------------------------
// Hand-built cases
// ----------------------------------------------------------------------

/// Every object of `fleet` whose trajectory meets `window` at `t`.
fn scan(fleet: &[MovingObject], window: &MovingRect, t: Time) -> Vec<ObjectId> {
    let inside = fleet.iter().filter(|o| o.mbr.intersects_at(window, t));
    inside.map(|o| o.id).collect()
}

#[test]
fn initial_join_finds_current_and_upcoming_members() {
    let objects = fleet(&[
        (1, 5.0, 5.0, 0.0),     // inside the window now
        (2, 50.0, 5.0, -1.0),   // reaches the window at t ≈ 40
        (3, 500.0, 500.0, 0.0), // never
    ]);
    let regions = windows(&[still([0.0, 0.0], [10.0, 10.0])]);
    let engine = tc_monitor(&objects, &regions);
    let q = regions[0].id;
    assert_eq!(members(&engine, q, 0.0), ids(&[1]));
    assert_eq!(members(&engine, q, 45.0), ids(&[1, 2]));
    for t in [0.0, 20.0, 40.0, 45.0, 59.0] {
        assert_eq!(members(&engine, q, t), scan(&objects, &regions[0].mbr, t));
    }
}

#[test]
fn empty_fleet_has_no_members() {
    let regions = windows(&[still([0.0, 0.0], [100.0, 100.0])]);
    let tc = tc_monitor(&[], &regions);
    assert!(tc.result_at(0.0).is_empty());
    assert!(tc.result_at(59.0).is_empty());

    // The MTB side must handle an index with no bucket at all.
    let mut mtb = MtbEngine::new(pool(), EngineConfig::default(), &[], &regions, 0.0).unwrap();
    mtb.run_initial_join(0.0).unwrap();
    assert!(mtb.result_at(0.0).is_empty());
}

#[test]
fn zero_extent_window_is_a_point_query() {
    // Object 1 covers the point, object 2 does not, object 3 sweeps
    // through it around t = 5 (its square is [t, t+1]×[5, 6]).
    let objects = fleet(&[(1, 5.0, 5.0, 0.0), (2, 20.0, 20.0, 0.0), (3, 0.0, 5.0, 1.0)]);
    let regions = windows(&[MovingRect::stationary(Rect::point([5.5, 5.5]), 0.0)]);
    let engine = tc_monitor(&objects, &regions);
    let q = regions[0].id;
    assert_eq!(members(&engine, q, 0.0), ids(&[1]));
    assert_eq!(members(&engine, q, 5.0), ids(&[1, 3]));
    assert_eq!(members(&engine, q, 30.0), ids(&[1]));
}

#[test]
fn moving_window_chases_a_static_object() {
    let objects = fleet(&[(1, 50.0, 0.0, 0.0)]);
    let regions = windows(&[MovingRect::rigid(
        Rect::new([0.0, 0.0], [10.0, 10.0]),
        [2.0, 0.0],
        0.0,
    )]);
    let engine = tc_monitor(&objects, &regions);
    let q = regions[0].id;
    assert!(members(&engine, q, 0.0).is_empty());
    // The window's front reaches x = 50 at t = 20.
    assert_eq!(members(&engine, q, 21.0), ids(&[1]));
}

#[test]
fn moving_window_with_t_ref_after_the_evaluated_interval() {
    // The window's reference time is t = 100; every evaluated instant
    // lies in its past, so the answer comes from backward extrapolation:
    // at t = 0 the window [200, 210]×[0, 10] moving at vx = +2 was back
    // at [0, 10]×[0, 10]. TC-Join and MTB-Join agree on it.
    let objects = fleet(&[
        (1, 5.0, 5.0, 0.0),
        (2, 30.0, 5.0, -1.0),
        (3, 400.0, 400.0, 0.5),
    ]);
    let regions = windows(&[MovingRect::rigid(
        Rect::new([200.0, 0.0], [210.0, 10.0]),
        [2.0, 0.0],
        100.0,
    )]);
    let tc = tc_monitor(&objects, &regions);
    let mut mtb = MtbEngine::new(pool(), EngineConfig::default(), &objects, &regions, 0.0).unwrap();
    mtb.run_initial_join(0.0).unwrap();
    let q = regions[0].id;
    assert_eq!(members(&tc, q, 0.0), ids(&[1]));
    // By t = 10 the window has slid to [20, 30] and left object 1 behind.
    assert!(!members(&tc, q, 10.0).contains(&ObjectId(1)));
    for t in [0.0, 10.0, 15.0, 30.0, 59.0] {
        let expect = scan(&objects, &regions[0].mbr, t);
        assert_eq!(members(&tc, q, t), expect, "TC-Join at t={t}");
        assert_eq!(members(&mtb, q, t), expect, "MTB-Join at t={t}");
    }
}

#[test]
fn windows_are_independent_and_retirement_empties_only_its_own() {
    let objects = fleet(&[(1, 5.0, 5.0, 0.0), (2, 100.0, 100.0, 0.0)]);
    let regions = windows(&[
        still([0.0, 0.0], [10.0, 10.0]),
        still([95.0, 95.0], [105.0, 105.0]),
    ]);
    let mut engine = tc_monitor(&objects, &regions);
    let (q0, q1) = (regions[0].id, regions[1].id);
    assert_eq!(members(&engine, q0, 0.0), ids(&[1]));
    assert_eq!(members(&engine, q1, 0.0), ids(&[2]));

    // Object 2 retires.
    let gone = &objects[1];
    engine.remove_object(gone.id, 0.0).unwrap();
    assert!(members(&engine, q1, 0.0).is_empty());
    assert_eq!(members(&engine, q0, 0.0), ids(&[1]));

    // A window retires the same way: its pairs go, the other's stay.
    engine.remove_object(q0, 0.0).unwrap();
    assert!(engine.result_at(0.0).is_empty());
}

#[test]
fn update_replaces_prediction() {
    let objects = fleet(&[(1, 5.0, 5.0, 0.0)]);
    let regions = windows(&[still([0.0, 0.0], [10.0, 10.0])]);
    let mut engine = tc_monitor(&objects, &regions);
    let q = regions[0].id;
    assert_eq!(members(&engine, q, 10.0), ids(&[1]));

    // Object 1 teleports far away at t = 10 …
    let at = |x: f64, t: Time| MovingRect::stationary(Rect::new([x, x], [x + 1.0, x + 1.0]), t);
    let away = ObjectUpdate {
        id: ObjectId(1),
        set: SetTag::A,
        old_mbr: objects[0].mbr,
        last_update: 0.0,
        new_mbr: at(900.0, 10.0),
    };
    engine.apply_update(&away, 10.0).unwrap();
    assert!(members(&engine, q, 10.0).is_empty());

    // … and comes back at t = 20.
    let back = ObjectUpdate {
        old_mbr: away.new_mbr,
        last_update: 10.0,
        new_mbr: at(5.0, 20.0),
        ..away
    };
    engine.apply_update(&back, 20.0).unwrap();
    assert_eq!(members(&engine, q, 20.0), ids(&[1]));
}
