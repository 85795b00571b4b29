//! The ε-threshold proximity join on a generated workload, checked
//! against its brute-force oracle.
//!
//! Two fleets from `generate_pair` (the paper's uniform workload) go
//! through a [`ProximityJoinEngine`] asking *"which A–B pairs come within
//! ε during the next `T_M` ticks?"* and, side by side, through
//! [`BruteProximityEngine`], which refines every A×B pair with the same
//! primitive. The two answers must be equal at every tick; the demo
//! exits non-zero on the first mismatch. It ends with the
//! candidate/refine economics from the metrics registry.
//!
//! Run with `cargo run --release --example proximity_demo`.
//!
//! [`ProximityJoinEngine`]: cij::simjoin::ProximityJoinEngine
//! [`BruteProximityEngine`]: cij::simjoin::BruteProximityEngine

use std::sync::Arc;

use cij::core::{ContinuousJoinEngine, EngineConfig};
use cij::simjoin::{BruteProximityEngine, ProximityConfig, ProximityJoinEngine};
use cij::storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij::workload::{generate_pair, Params, UpdateStream};

/// Proximity threshold, in space units (objects have side 1).
const EPSILON: f64 = 5.0;
const TICKS: u32 = 90;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Params {
        dataset_size: 1500,
        ..Params::default()
    };
    let t_m = params.maximum_update_interval;
    let (set_a, set_b) = generate_pair(&params, 0.0);

    let engine_cfg = EngineConfig::builder().t_m(t_m).metrics(true).build();
    let config = ProximityConfig::new(engine_cfg, EPSILON);
    let pool = BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(128),
    );
    let mut engine = ProximityJoinEngine::new(pool, config, &set_a, &set_b, 0.0)?;
    let mut oracle = BruteProximityEngine::new(config, &set_a, &set_b);
    engine.enable_delta_tracking();
    engine.run_initial_join(0.0)?;
    oracle.run_initial_join(0.0)?;
    engine.take_result_changes();

    let mut stream = UpdateStream::new(&params, &set_a, &set_b, 0.0);
    for tick in 0..=TICKS {
        let now = f64::from(tick);
        let mut applied = 0;
        if tick > 0 {
            let updates = stream.tick(now);
            applied = updates.len();
            engine.apply_batch(&updates, now)?;
            oracle.apply_batch(&updates, now)?;
            engine.gc(now);
            oracle.gc(now);
        }
        let (got, expect) = (engine.result_at(now), oracle.result_at(now));
        if got != expect {
            eprintln!(
                "MISMATCH at t={now}: engine reports {} pairs, brute force {}",
                got.len(),
                expect.len()
            );
            std::process::exit(1);
        }
        if tick % 10 == 0 {
            let changed = engine.take_result_changes().map_or(0, |c| c.len());
            println!(
                "t={now:>3}: {:>3} pairs within {EPSILON} ({applied} updates this tick, \
                 {changed} pairs changed since last report)",
                got.len()
            );
        }
    }

    // Show one concrete encounter: the first active pair's exact window.
    let end = f64::from(TICKS);
    if let Some(&pair) = engine.result_at(end).first() {
        if let Some(iv) = engine.pair_interval(pair) {
            println!(
                "e.g. A:{} and B:{} are within {EPSILON} over [{:.2}, {:.2}]",
                pair.0, pair.1, iv.start, iv.end
            );
        }
    }

    // Candidate/refine economics, via the same registry the benchmarks
    // scrape: inflation proposes candidates, exact refine disposes.
    engine.publish_metrics();
    let snap = engine.metrics_registry().snapshot();
    let candidates = snap.counter("simjoin.candidates").unwrap_or(0);
    let rejects = snap.counter("simjoin.refine_rejects").unwrap_or(0);
    println!(
        "refine economics: {candidates} candidates, {rejects} rejected \
         ({:.1}% accepted)",
        if candidates > 0 {
            100.0 * (candidates - rejects) as f64 / candidates as f64
        } else {
            0.0
        }
    );
    println!("engine ≡ brute-force oracle at every tick through t={end}");
    Ok(())
}
