//! The refine pass does work. The proximity join's answer against the
//! brute-force oracle — pair sets and interval floats bit-identical at
//! every tick, for ε ∈ {0, small, large}, threads {1, 4}, batched or not,
//! with honest or lying delete keys — is the root package's `conform`
//! suite (`tests/conform.rs`).

use std::sync::Arc;

use cij_core::{ContinuousJoinEngine, EngineConfig};
use cij_geom::Time;
use cij_obs::validate_prometheus;
use cij_simjoin::{ProximityConfig, ProximityJoinEngine};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
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
