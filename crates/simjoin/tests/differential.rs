//! Oracle differential for the proximity join.
//!
//! The engine's contract is **bit-identical** agreement with the
//! brute-force oracle — not tolerance bands. Both sides refine with the
//! same `within_dist_sq_interval` primitive over the same window
//! `[now, now + T_M]`, so pair sets, stored intervals (observed through
//! `pair_status_at`) and activation times are exact-`assert_eq!`-equal
//! at every tick, for ε ∈ {0, small, large} × threads ∈ {1, 4}. The
//! parallel candidate sweep additionally reproduces the sequential
//! engine's answer *and traversal counters* bit-for-bit.
//!
//! The same holds when the engine takes each tick as one `apply_batch`
//! (the two-phase tick: every index mutation, then one filter probe and
//! one refine pass per side) while the oracle keeps applying update by
//! update.

use std::sync::Arc;

use cij_core::{ContinuousJoinEngine, EngineConfig, PairKey, PairStatus};
use cij_geom::{MovingRect, Time};
use cij_obs::validate_prometheus;
use cij_simjoin::{BruteProximityEngine, ProximityConfig, ProximityJoinEngine};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_workload::{
    generate_pair, Distribution, MovingObject, ObjectUpdate, Params, SetTag, UpdateStream,
};

const TICKS: u32 = 40;

fn small_params(seed: u64) -> Params {
    Params {
        dataset_size: 80,
        distribution: Distribution::Uniform,
        seed,
        space: 200.0,
        object_size_pct: 1.0,
        ..Params::default()
    }
}

fn pool() -> BufferPool {
    BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(128),
    )
}

fn scheduled_updates(
    params: &Params,
    a: &[MovingObject],
    b: &[MovingObject],
    ticks: u32,
) -> Vec<(Time, Vec<ObjectUpdate>)> {
    let mut stream = UpdateStream::new(params, a, b, 0.0);
    (1..=ticks)
        .map(|tick| {
            let now = Time::from(tick);
            (now, stream.tick(now))
        })
        .collect()
}

/// One tick's observable answer: the active pairs and, for each, its
/// exact `PairStatus` (current interval + next activation) — the floats
/// the delta layer schedules on.
type Snapshot = (Time, Vec<(PairKey, PairStatus)>);

/// Drives any engine over the schedule, snapshotting after every tick.
fn drive(
    engine: &mut dyn ContinuousJoinEngine,
    schedule: &[(Time, Vec<ObjectUpdate>)],
) -> Vec<Snapshot> {
    drive_ticks(engine, schedule, false)
}

/// [`drive`], with each tick's updates applied one by one or — `batched`
/// — as one `apply_batch`.
fn drive_ticks(
    engine: &mut dyn ContinuousJoinEngine,
    schedule: &[(Time, Vec<ObjectUpdate>)],
    batched: bool,
) -> Vec<Snapshot> {
    engine.run_initial_join(0.0).unwrap();
    let mut out = Vec::with_capacity(schedule.len() + 1);
    let observe = |engine: &dyn ContinuousJoinEngine, t: Time| {
        let pairs = engine.result_at(t);
        (
            t,
            pairs
                .into_iter()
                .map(|p| (p, engine.pair_status_at(p, t)))
                .collect::<Vec<_>>(),
        )
    };
    out.push(observe(engine, 0.0));
    for (now, updates) in schedule {
        engine.advance_time(*now).unwrap();
        if batched {
            engine.apply_batch(updates, *now).unwrap();
        } else {
            for u in updates {
                engine.apply_update(u, *now).unwrap();
            }
        }
        engine.gc(*now);
        out.push(observe(engine, *now));
    }
    out
}

fn assert_snapshots_match(got: &[Snapshot], expect: &[Snapshot], context: &str) {
    assert_eq!(got.len(), expect.len());
    let mut nonempty = 0usize;
    for ((tg, pg), (te, pe)) in got.iter().zip(expect) {
        assert_eq!(tg, te);
        assert_eq!(pg, pe, "{context}: answers diverge at t={tg}");
        nonempty += usize::from(!pg.is_empty());
    }
    assert!(
        nonempty >= 3,
        "{context}: answer almost always empty — vacuous differential"
    );
}

/// Engine (threads 1 and 4) vs brute-force oracle on one workload: pair
/// sets and interval floats identical at every tick; the two engine runs
/// also agree on traversal counters and candidate/refine tallies.
fn differential_for(eps: f64, seed: u64) {
    let params = small_params(seed);
    let (a, b) = generate_pair(&params, 0.0);
    let schedule = scheduled_updates(&params, &a, &b, TICKS);

    let mut oracle =
        BruteProximityEngine::new(ProximityConfig::new(EngineConfig::default(), eps), &a, &b);
    let expect = drive(&mut oracle, &schedule);

    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        let config = ProximityConfig::new(EngineConfig::builder().threads(threads).build(), eps);
        let mut engine = ProximityJoinEngine::new(pool(), config, &a, &b, 0.0).unwrap();
        let got = drive(&mut engine, &schedule);
        assert_snapshots_match(&got, &expect, &format!("eps={eps} threads={threads}"));
        assert!(
            engine.candidates() >= engine.refine_rejects(),
            "rejects cannot exceed candidates"
        );
        runs.push((
            engine.counters(),
            engine.candidates(),
            engine.refine_rejects(),
        ));
    }
    assert_eq!(
        runs[0], runs[1],
        "eps={eps}: parallel run not bit-identical to sequential (counters/candidates)"
    );
}

#[test]
fn proximity_matches_oracle_at_eps_zero() {
    // ε = 0 degenerates to the plain intersection predicate.
    differential_for(0.0, 501);
}

#[test]
fn proximity_matches_oracle_at_small_eps() {
    // Comparable to an object side (2.0 in this parameterization).
    differential_for(2.5, 502);
}

#[test]
fn proximity_matches_oracle_at_large_eps() {
    // A sizeable fraction of the 200-unit space: dense answers, heavy
    // candidate traffic.
    differential_for(30.0, 503);
}

#[test]
fn refine_pass_actually_rejects_candidates() {
    // Sanity against silent refine-bypass: with a small ε the inflated
    // intersection join must over-approximate, so some candidates get
    // rejected — otherwise the differential above would also pass for a
    // candidates-only engine with an inflated answer.
    let params = small_params(504);
    let (a, b) = generate_pair(&params, 0.0);
    let schedule = scheduled_updates(&params, &a, &b, TICKS);
    let config = ProximityConfig::new(EngineConfig::builder().metrics(true).build(), 1.0);
    let mut engine = ProximityJoinEngine::new(pool(), config, &a, &b, 0.0).unwrap();
    drive(&mut engine, &schedule);
    assert!(engine.candidates() > 0, "no candidates generated");
    assert!(
        engine.refine_rejects() > 0,
        "refine never rejected — inflation is not over-approximating"
    );

    // What the obs pipeline scrapes is what the engine counted, in a
    // well-formed exposition.
    engine.publish_metrics();
    let snap = engine.metrics_registry().snapshot();
    assert_eq!(
        (
            snap.counter("simjoin.candidates"),
            snap.counter("simjoin.refine_rejects")
        ),
        (Some(engine.candidates()), Some(engine.refine_rejects())),
        "registry diverged from engine accessors"
    );
    assert!(snap
        .histogram("simjoin.refine_ns")
        .is_some_and(|h| h.count > 0));
    validate_prometheus(&snap.to_prometheus()).expect("exposition");
}

#[test]
fn batched_ticks_match_oracle() {
    for (eps, seed) in [(0.0, 511u64), (2.5, 512), (30.0, 513)] {
        // Short T_M: a tenth of each set updates per tick, so both
        // endpoints of a pair often share a batch.
        let params = Params {
            maximum_update_interval: 10.0,
            ..small_params(seed)
        };
        let engine_config = EngineConfig::builder()
            .t_m(params.maximum_update_interval)
            .build();
        let config = ProximityConfig::new(engine_config, eps);
        let (a, b) = generate_pair(&params, 0.0);
        let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
        let mut schedule: Vec<(Time, Vec<ObjectUpdate>)> = (1..=TICKS)
            .map(|tick| (Time::from(tick), stream.tick(Time::from(tick))))
            .collect();
        let mixed = schedule
            .iter()
            .filter(|(_, us)| us.iter().any(|u| u.set != us[0].set))
            .count();
        assert!(mixed > 20, "eps={eps}: batches must mix both sides");

        // One hand-made tick on top: both endpoints of a pair that is
        // reported now and still will be then re-register in one batch,
        // and its A endpoint a second time (stopping where it is).
        let now = Time::from(TICKS + 1);
        let mut oracle = BruteProximityEngine::new(config, &a, &b);
        let (_, live) = drive(&mut oracle, &schedule).pop().expect("snapshots");
        let (pa, pb) = live
            .iter()
            .find(|(_, status)| status.active.is_some_and(|iv| iv.end > now))
            .map(|(pair, _)| *pair)
            .expect("a pair live across the next tick");
        let current = |set: SetTag, id| -> MovingRect {
            let registered = stream.snapshot(set);
            registered
                .iter()
                .find(|(o, _)| *o == id)
                .expect("live id")
                .1
        };
        let reregister = |set, id, old_mbr: MovingRect, new_mbr| ObjectUpdate {
            id,
            set,
            old_mbr,
            last_update: old_mbr.t_ref,
            new_mbr,
        };
        let (ma, mb) = (current(SetTag::A, pa), current(SetTag::B, pb));
        let first = reregister(SetTag::A, pa, ma, ma.rebase(now));
        schedule.push((
            now,
            vec![
                first,
                reregister(SetTag::B, pb, mb, mb.rebase(now)),
                reregister(
                    SetTag::A,
                    pa,
                    first.new_mbr,
                    MovingRect::stationary(ma.at(now), now),
                ),
            ],
        ));

        let mut oracle = BruteProximityEngine::new(config, &a, &b);
        let expect = drive(&mut oracle, &schedule);
        let mut engine = ProximityJoinEngine::new(pool(), config, &a, &b, 0.0).unwrap();
        let got = drive_ticks(&mut engine, &schedule, true);
        assert_snapshots_match(&got, &expect, &format!("batched eps={eps}"));
        let (_, last) = got.last().expect("snapshots");
        assert!(
            last.iter().any(|(pair, _)| *pair == (pa, pb)),
            "eps={eps}: the pair re-registered in place must stay reported"
        );
    }
}

/// Updates whose delete keys are all wrong — `set` flipped, `old_mbr` far
/// from the registered trajectory, `last_update` a bucket away — give the
/// engine, batched or not, and the oracle exactly the honest answers:
/// both derive every delete and every side from their registrations.
#[test]
fn wrong_delete_keys_get_the_oracle_answer() {
    let eps = 3.0;
    let params = small_params(908);
    let (a, b) = generate_pair(&params, 0.0);
    let config = ProximityConfig::new(EngineConfig::default(), eps);
    let schedule = scheduled_updates(&params, &a, &b, TICKS);
    let wrong: Vec<(Time, Vec<ObjectUpdate>)> = (schedule.iter())
        .map(|(now, updates)| {
            let lie = |u: &ObjectUpdate| {
                let mut old_mbr = u.old_mbr;
                for d in 0..2 {
                    old_mbr.lo[d] -= 10.0 * params.space;
                    old_mbr.hi[d] -= 10.0 * params.space;
                }
                let set = match u.set {
                    SetTag::A => SetTag::B,
                    SetTag::B => SetTag::A,
                };
                ObjectUpdate {
                    set,
                    old_mbr,
                    last_update: u.last_update + config.engine.t_m,
                    ..*u
                }
            };
            (*now, updates.iter().map(lie).collect())
        })
        .collect();

    let expect = drive(&mut BruteProximityEngine::new(config, &a, &b), &schedule);
    let misled = drive(&mut BruteProximityEngine::new(config, &a, &b), &wrong);
    assert_snapshots_match(&misled, &expect, "misled oracle");
    for batched in [false, true] {
        let mut engine = ProximityJoinEngine::new(pool(), config, &a, &b, 0.0).unwrap();
        let got = drive_ticks(&mut engine, &wrong, batched);
        assert_snapshots_match(&got, &expect, &format!("misled engine, batched={batched}"));
    }
}
