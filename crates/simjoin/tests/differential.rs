//! The refine pass does work, and the brute-force oracle refuses what
//! the proximity join refuses. The proximity join's answer against the
//! oracle — pair sets and interval floats bit-identical at every tick,
//! for ε ∈ {0, small, large}, threads {1, 4}, batched or not, with
//! honest or lying delete keys — is the root package's `conform` suite
//! (`tests/conform.rs`).

use std::sync::Arc;

use cij_core::{ContinuousJoinEngine, EngineConfig};
use cij_geom::{MovingRect, Time};
use cij_obs::validate_prometheus;
use cij_simjoin::{BruteProximityEngine, ProximityConfig, ProximityJoinEngine};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::TprError;
use cij_workload::{generate_pair, Distribution, Params, UpdateStream};

#[test]
fn refine_pass_actually_rejects_candidates() {
    // Sanity against silent refine-bypass: with a small ε the inflated
    // intersection join must over-approximate, so some candidates get
    // rejected — otherwise the oracle differential would also pass for a
    // candidates-only engine with an inflated answer.
    let params = Params {
        dataset_size: 80,
        distribution: Distribution::Uniform,
        seed: 504,
        space: 200.0,
        object_size_pct: 1.0,
        ..Params::default()
    };
    let (a, b) = generate_pair(&params, 0.0);
    // The same candidates and rejects at any thread count.
    let mut runs = [1, 4].map(|threads| {
        let pool = BufferPool::new(
            Arc::new(InMemoryStore::new()),
            BufferPoolConfig::with_capacity(128),
        );
        let config = EngineConfig::builder().threads(threads).metrics(true);
        let config = ProximityConfig::new(config.build(), 1.0);
        let mut engine = ProximityJoinEngine::new(pool, config, &a, &b, 0.0).unwrap();
        let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
        engine.run_initial_join(0.0).unwrap();
        for tick in 1..=40 {
            let now = Time::from(tick);
            engine.advance_time(now).unwrap();
            for u in stream.tick(now) {
                engine.apply_update(&u, now).unwrap();
            }
            engine.gc(now);
        }
        engine
    });
    let tallies = runs
        .each_ref()
        .map(|e| (e.candidates(), e.refine_rejects()));
    assert_eq!(tallies[0], tallies[1], "threads 1 and 4 refine alike");
    let engine = &mut runs[0];
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

/// The oracle holds updates and restores to the engine's rule: a NaN
/// velocity, a NaN position and an infinite velocity are refused with
/// [`TprError::UnsoundTrajectory`] by both, and so is a restore
/// registered after `now`; neither changes anything, and after a sound
/// tick the two answers are still equal.
#[test]
fn the_oracle_refuses_what_the_engine_refuses() {
    let params = Params {
        dataset_size: 40,
        space: 150.0,
        ..Params::default()
    };
    let (a, b) = generate_pair(&params, 0.0);
    let config = ProximityConfig::new(EngineConfig::default(), 2.0);
    let pool = BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(64),
    );
    let engine = ProximityJoinEngine::new(pool, config, &a, &b, 0.0).unwrap();
    let oracle = BruteProximityEngine::new(config, &a, &b);
    let mut engines: [Box<dyn ContinuousJoinEngine>; 2] = [Box::new(engine), Box::new(oracle)];
    for engine in &mut engines {
        engine.run_initial_join(0.0).unwrap();
    }
    let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
    let unsound: [fn(&mut MovingRect); 3] = [
        |m| m.vlo[0] = f64::NAN,
        |m| m.lo[1] = f64::NAN,
        |m| m.vhi[0] = f64::INFINITY,
    ];
    for tick in 1..=20u32 {
        let now = Time::from(tick);
        let updates = stream.tick(now);
        let before = engines.each_ref().map(|e| e.result_at(now));
        if let Some(u) = updates.first() {
            for (case, spoil) in unsound.iter().enumerate() {
                let mut sent = *u;
                spoil(&mut sent.new_mbr);
                for engine in &mut engines {
                    let err = engine.apply_update(&sent, now);
                    let tag = format!("{} case {case} t={now}", engine.name());
                    assert_eq!(err, Err(TprError::UnsoundTrajectory(u.id)), "{tag}");
                }
            }
            let after = engines.each_ref().map(|e| e.result_at(now));
            assert_eq!(after, before, "t={now}: a refused update changed an answer");
            // A restore registered in the future.
            let r = engines[0].registrations()[&u.id];
            for engine in &mut engines {
                let tag = format!("{} t={now}", engine.name());
                engine.remove_object(u.id, now).unwrap();
                let err = engine.restore_object(r.set, u.id, r.mbr, now + 1.0, now);
                assert_eq!(err, Err(TprError::UnsoundTrajectory(u.id)), "{tag}");
                assert!(!engine.registrations().contains_key(&u.id), "{tag}");
                engine
                    .restore_object(r.set, u.id, r.mbr, r.registered_at, now)
                    .unwrap();
            }
        }
        let [engine, oracle] = &engines;
        assert_eq!(engine.registrations(), oracle.registrations(), "t={now}");
        assert_eq!(before[0], before[1], "t={now}");
        for engine in &mut engines {
            engine.apply_batch(&updates, now).unwrap();
            engine.gc(now);
        }
        assert_eq!(
            engines[0].result_at(now),
            engines[1].result_at(now),
            "t={now}"
        );
    }
}
