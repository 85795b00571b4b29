//! Property tests at the engine level: arbitrary small workloads,
//! arbitrary engine configuration knobs — the continuous answer must
//! equal the brute-force oracle at every tick. Plus failure-path checks.

use std::sync::Arc;

use cij_core::{ContinuousJoinEngine, EngineConfig, EtpEngine, MtbEngine, TcEngine};
use cij_geom::{MovingRect, Time};
use cij_join::brute;
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::TprError;
use cij_workload::{generate_pair, Distribution, Params, SetTag, UpdateStream};
use proptest::prelude::*;

fn pool(cap: usize) -> BufferPool {
    BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(cap),
    )
}

fn arb_params() -> impl Strategy<Value = Params> {
    (
        20usize..80,
        prop_oneof![
            Just(Distribution::Uniform),
            Just(Distribution::Gaussian),
            Just(Distribution::Battlefield)
        ],
        1.0f64..5.0,
        0.5f64..3.0,
        any::<u64>(),
    )
        .prop_map(|(n, distribution, max_speed, size_pct, seed)| Params {
            dataset_size: n,
            distribution,
            max_speed,
            object_size_pct: size_pct,
            space: 150.0,
            seed,
            ..Params::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// MTB (arbitrary bucket count, arbitrary pool size) tracks the
    /// oracle through a multi-T_M run.
    #[test]
    fn mtb_tracks_oracle(
        params in arb_params(),
        buckets in 1u32..5,
        pool_cap in prop_oneof![Just(2usize), Just(16), Just(64)],
    ) {
        let (a, b) = generate_pair(&params, 0.0);
        let config = EngineConfig { buckets_per_tm: buckets, ..Default::default() };
        let mut engine = MtbEngine::new(pool(pool_cap), config, &a, &b, 0.0).unwrap();
        let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
        engine.run_initial_join(0.0).unwrap();
        for tick in 1..=75u32 {
            let now = Time::from(tick);
            for u in stream.tick(now) {
                engine.apply_update(&u, now).unwrap();
            }
            if tick % 5 == 0 {
                let expect = brute::brute_pairs_at(
                    &stream.snapshot(SetTag::A),
                    &stream.snapshot(SetTag::B),
                    now,
                );
                prop_assert_eq!(engine.result_at(now), expect, "t={}", now);
            }
        }
    }
}

#[test]
fn update_for_unknown_object_errors_cleanly() {
    let params = Params {
        dataset_size: 20,
        space: 100.0,
        ..Params::default()
    };
    let (a, b) = generate_pair(&params, 0.0);
    let mut engine = MtbEngine::new(pool(32), EngineConfig::default(), &a, &b, 0.0).unwrap();
    engine.run_initial_join(0.0).unwrap();

    // Forge an update for an object that was never inserted.
    let ghost = cij_workload::ObjectUpdate {
        id: cij_tpr::ObjectId(999_999),
        set: SetTag::A,
        old_mbr: a[0].mbr,
        last_update: 0.0,
        new_mbr: a[0].mbr,
    };
    let err = engine.apply_update(&ghost, 1.0).unwrap_err();
    assert!(matches!(err, TprError::ObjectNotFound(_)), "got {err:?}");
    // The engine is still usable afterwards.
    let real = cij_workload::ObjectUpdate {
        id: a[0].id,
        set: SetTag::A,
        old_mbr: a[0].mbr,
        last_update: 0.0,
        new_mbr: a[0].mbr.rebase(1.0),
    };
    engine.apply_update(&real, 1.0).unwrap();
    let _ = engine.result_at(1.0);
}

#[test]
fn etp_engine_single_object_sets() {
    // Degenerate cardinalities through the event machinery.
    let params = Params {
        dataset_size: 1,
        space: 50.0,
        object_size_pct: 4.0,
        ..Params::default()
    };
    let (a, b) = generate_pair(&params, 0.0);
    let mut engine = EtpEngine::new(pool(8), EngineConfig::default(), &a, &b, 0.0).unwrap();
    let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
    engine.run_initial_join(0.0).unwrap();
    for tick in 1..=70u32 {
        let now = Time::from(tick);
        engine.advance_time(now).unwrap();
        for u in stream.tick(now) {
            engine.apply_update(&u, now).unwrap();
        }
        let expect = brute::brute_pairs_at(
            &stream.snapshot(SetTag::A),
            &stream.snapshot(SetTag::B),
            now,
        );
        assert_eq!(engine.result_at(now), expect, "t={now}");
    }
}

/// `mbr` made unsound in one of three ways: a NaN velocity, a NaN
/// position, an infinite velocity.
fn unsound(mut mbr: MovingRect, case: usize) -> MovingRect {
    match case {
        0 => mbr.vlo[0] = f64::NAN,
        1 => mbr.lo[1] = f64::NAN,
        _ => mbr.vhi[0] = f64::INFINITY,
    }
    mbr
}

/// An update whose new trajectory no index can hold is refused with a
/// typed error before the engine changes anything, whichever of the
/// three ways it is unsound: a NaN velocity (which used to panic a later
/// forced reinsert's sort), a NaN position (which used to poison its
/// leaf for every later read) and an infinite velocity (which used to
/// turn parent bounds NaN and lose other objects). The updates before it
/// in the tick are applied; the rest, re-sent sound, are too; and the
/// engine matches the oracle at every tick before and after.
#[test]
fn unsound_trajectories_are_refused_before_anything_changes() {
    let params = Params {
        dataset_size: 60,
        space: 150.0,
        ..Params::default()
    };
    let (a, b) = generate_pair(&params, 0.0);
    for case in 0..3 {
        for kind in ["mtb", "tc", "etp"] {
            let config = EngineConfig::default();
            let mut engine: Box<dyn ContinuousJoinEngine> = match kind {
                "mtb" => Box::new(MtbEngine::new(pool(16), config, &a, &b, 0.0).unwrap()),
                "tc" => Box::new(TcEngine::new(pool(16), config, &a, &b, 0.0).unwrap()),
                _ => Box::new(EtpEngine::new(pool(16), config, &a, &b, 0.0).unwrap()),
            };
            let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
            engine.run_initial_join(0.0).unwrap();
            let mut refused = false;
            for tick in 1..=90u32 {
                let now = Time::from(tick);
                engine.advance_time(now).unwrap();
                let updates = stream.tick(now);
                if tick >= 5 && !refused && updates.len() >= 2 {
                    let k = updates.len() / 2;
                    let mut sent = updates.clone();
                    sent[k].new_mbr = unsound(sent[k].new_mbr, case);
                    let err = engine.apply_batch(&sent, now).unwrap_err();
                    let id = updates[k].id;
                    assert_eq!(err, TprError::UnsoundTrajectory(id), "{kind} case {case}");
                    engine.apply_batch(&updates[k..], now).unwrap();
                    refused = true;
                } else {
                    engine.apply_batch(&updates, now).unwrap();
                }
                engine.gc(now);
                let expect = brute::brute_pairs_at(
                    &stream.snapshot(SetTag::A),
                    &stream.snapshot(SetTag::B),
                    now,
                );
                assert_eq!(engine.result_at(now), expect, "{kind} case {case} t={now}");
            }
            assert!(refused, "{kind} case {case}: no tick was large enough");
        }
    }
}

/// Genesis objects and restored ones are held to the same rule.
#[test]
fn unsound_genesis_and_restored_objects_are_refused() {
    let params = Params {
        dataset_size: 10,
        space: 100.0,
        ..Params::default()
    };
    let (a, b) = generate_pair(&params, 0.0);
    for case in 0..3 {
        let (mut bad_a, mut bad_b) = (a.clone(), b.clone());
        bad_a[3].mbr = unsound(a[3].mbr, case);
        bad_b[3].mbr = unsound(b[3].mbr, case);
        let built = MtbEngine::new(pool(16), EngineConfig::default(), &bad_a, &b, 0.0);
        assert_eq!(built.err(), Some(TprError::UnsoundTrajectory(a[3].id)));
        let built = EtpEngine::new(pool(16), EngineConfig::default(), &a, &bad_b, 0.0);
        assert_eq!(built.err(), Some(TprError::UnsoundTrajectory(b[3].id)));

        let mut engine = TcEngine::new(pool(16), EngineConfig::default(), &a, &b, 0.0).unwrap();
        engine.run_initial_join(0.0).unwrap();
        let id = a[3].id;
        engine.remove_object(id, 1.0).unwrap();
        let mbr = unsound(a[3].mbr, case);
        let err = engine.restore_object(SetTag::A, id, mbr, 0.0, 1.0);
        assert_eq!(err, Err(TprError::UnsoundTrajectory(id)));
        engine
            .restore_object(SetTag::A, id, a[3].mbr, 0.0, 1.0)
            .unwrap();
    }
}
