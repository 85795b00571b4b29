//! The simulation driver's metrics. Every engine's answer against brute
//! force, at every tick and thread count, is the root package's
//! `conform` suite (`tests/conform.rs`).

use std::sync::Arc;

use cij_core::{EngineConfig, MtbEngine};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_workload::{generate_pair, Distribution, Params, UpdateStream};

#[test]
fn sim_driver_collects_metrics() {
    let params = Params {
        dataset_size: 120,
        distribution: Distribution::Uniform,
        seed: 110,
        space: 200.0,
        object_size_pct: 1.0,
        ..Params::default()
    };
    let (a, b) = generate_pair(&params, 0.0);
    let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
    let pool = BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(128),
    );
    let mut e = MtbEngine::new(pool, EngineConfig::default(), &a, &b, 0.0).unwrap();
    let metrics =
        cij_core::run_simulation(&mut e, &mut stream, 0.0, 120.0, 60.0, |_, _| Ok(())).unwrap();
    assert!(metrics.initial_io > 0, "initial join must do I/O");
    assert!(metrics.maintenance_updates > 0);
    assert_eq!(metrics.measured_ticks, 60);
    assert!(metrics.io_per_update() >= 0.0);
}
