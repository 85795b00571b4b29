//! The engine factory that plugs the proximity join into the stream
//! service.

use std::sync::Arc;

use cij_core::{ContinuousJoinEngine, EngineConfig};
use cij_geom::Time;
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::TprResult;
use cij_workload::MovingObject;

use crate::{ProximityConfig, ProximityJoinEngine};

/// Buffer-pool size used by the stream factory (recovery rebuilds an
/// identical pool, so the factory stays deterministic).
const STREAM_POOL_PAGES: usize = 128;

/// A `StreamService` engine factory for the proximity join.
///
/// Every call builds a private in-memory buffer pool and a fresh
/// [`ProximityJoinEngine`] with threshold `epsilon` — a pure function of
/// its arguments, which is what WAL recovery requires: replaying the
/// logged batches through a factory-fresh engine must reproduce the
/// pre-crash answer exactly.
///
/// ```no_run
/// # use cij_simjoin::proximity_stream_factory;
/// # use cij_stream::{StreamConfig, StreamService};
/// let factory = proximity_stream_factory(2.5);
/// let svc = StreamService::new(StreamConfig::default(), &[], &[], 0.0, &factory);
/// ```
pub fn proximity_stream_factory(
    epsilon: f64,
) -> impl Fn(
    &EngineConfig,
    &[MovingObject],
    &[MovingObject],
    Time,
) -> TprResult<Box<dyn ContinuousJoinEngine>> {
    move |config, set_a, set_b, now| {
        let pool = BufferPool::new(
            Arc::new(InMemoryStore::new()),
            BufferPoolConfig::with_capacity(STREAM_POOL_PAGES),
        );
        let engine = ProximityJoinEngine::new(
            pool,
            ProximityConfig::new(*config, epsilon),
            set_a,
            set_b,
            now,
        )?;
        Ok(Box::new(engine) as Box<dyn ContinuousJoinEngine>)
    }
}
