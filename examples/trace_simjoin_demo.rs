//! Replays the checked-in Geolife-style trajectory sample through the
//! ε-threshold proximity join.
//!
//! The sample under `crates/workload/data/` is a handful of Beijing
//! trajectories (set A: pedestrians/bicycles, set B: taxis/buses) in the
//! plain-text `trace` format, projected to a local metre frame. The demo
//! parses both files with `cij::workload::trace`, builds a
//! [`ProximityJoinEngine`] asking *"which pedestrian–vehicle pairs come
//! within ε metres during the next `T_M` seconds?"*, and replays the
//! update trace tick by tick, reporting the evolving answer and the
//! candidate/refine economics from the metrics registry.
//!
//! Run with `cargo run --release --example trace_simjoin_demo`.
//!
//! [`ProximityJoinEngine`]: cij::simjoin::ProximityJoinEngine

use std::fs::File;
use std::io::BufReader;
use std::sync::Arc;

use cij::core::{ContinuousJoinEngine, EngineConfig};
use cij::simjoin::{ProximityConfig, ProximityJoinEngine};
use cij::storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij::workload::trace;

const OBJECTS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/crates/workload/data/geolife_sample.objects.csv"
);
const UPDATES: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/crates/workload/data/geolife_sample.updates.csv"
);

/// Proximity threshold: report pairs that pass within 30 m.
const EPSILON: f64 = 30.0;
/// Lookahead horizon: the next 10 s of each trajectory segment.
const T_M: f64 = 10.0;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (set_a, set_b) = trace::read_objects(&mut BufReader::new(File::open(OBJECTS)?))?;
    let updates = trace::read_updates(&mut BufReader::new(File::open(UPDATES)?), &set_a, &set_b)?;
    println!(
        "sample: {} pedestrian/bicycle + {} taxi/bus trajectories, {} re-registrations",
        set_a.len(),
        set_b.len(),
        updates.len()
    );

    let engine_cfg = EngineConfig::builder().t_m(T_M).metrics(true).build();
    let config = ProximityConfig::new(engine_cfg, EPSILON);
    let pool = BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(128),
    );
    let mut engine = ProximityJoinEngine::new(pool, config, &set_a, &set_b, 0.0)?;
    engine.enable_delta_tracking();
    engine.run_initial_join(0.0)?;
    println!(
        "t= 0.0: {:>2} pairs within {EPSILON} m during [0, {T_M}]",
        engine.result_at(0.0).len()
    );
    engine.take_result_changes();

    // The trace is time-ordered; replay it in whole-tick groups.
    let last_tick = updates.last().map_or(0.0, |u| u.new_mbr.t_ref);
    let mut tick = 1.0;
    while tick <= last_tick {
        engine.advance_time(tick)?;
        let mut applied = 0;
        for u in updates.iter().filter(|u| u.new_mbr.t_ref == tick) {
            engine.apply_update(u, tick)?;
            applied += 1;
        }
        engine.gc(tick);
        let changed = engine.take_result_changes().map_or(0, |c| c.len());
        println!(
            "t={tick:>4}: {:>2} pairs ({applied} fixes applied, {changed} pairs changed)",
            engine.result_at(tick).len()
        );
        tick += 1.0;
    }

    // Show one concrete encounter: the first active pair's exact window.
    if let Some(&pair) = engine.result_at(last_tick).first() {
        let status = engine.pair_status_at(pair, last_tick);
        if let Some(iv) = status.active {
            println!(
                "e.g. A:{} and B:{} are within {EPSILON} m over [{:.2}, {:.2}]",
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
    Ok(())
}
