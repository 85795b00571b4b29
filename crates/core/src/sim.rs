//! Simulation driver: runs an engine against an update stream and
//! collects the paper's two metrics per phase (disk I/Os and wall-clock
//! response time), split into *initial join* and *maintenance* exactly
//! like §VI-D.

use std::time::{Duration, Instant};

use cij_geom::Time;
use cij_tpr::TprResult;
use cij_workload::UpdateStream;

use crate::engine::ContinuousJoinEngine;

/// Metrics of one simulated run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimMetrics {
    /// Physical I/Os of the initial join.
    pub initial_io: u64,
    /// Wall time of the initial join.
    pub initial_time: Duration,
    /// Physical I/Os of the measured maintenance window.
    pub maintenance_io: u64,
    /// Wall time of the measured maintenance window.
    pub maintenance_time: Duration,
    /// Updates applied inside the measured window.
    pub maintenance_updates: u64,
    /// Ticks in the measured window.
    pub measured_ticks: u64,
}

impl SimMetrics {
    /// Average physical I/Os per update in the measured window — the
    /// y-axis of the paper's Fig. 13.
    #[must_use]
    pub fn io_per_update(&self) -> f64 {
        if self.maintenance_updates == 0 {
            0.0
        } else {
            self.maintenance_io as f64 / self.maintenance_updates as f64
        }
    }

    /// Average response time per update in the measured window.
    #[must_use]
    pub fn time_per_update(&self) -> Duration {
        if self.maintenance_updates == 0 {
            Duration::ZERO
        } else {
            self.maintenance_time / u32::try_from(self.maintenance_updates).unwrap_or(u32::MAX)
        }
    }
}

/// Runs the full continuous-join protocol:
///
/// 1. initial join at `start` (buffer cold-cleared first, as in the
///    paper's fresh measurements),
/// 2. ticks `start+1 ..= end`, applying the stream's updates each tick;
///    maintenance cost is accumulated only for ticks `> measure_from`
///    (the paper starts measuring at `T_M`, letting the bucket structure
///    reach steady state).
///
/// The caller keeps the stream and can interleave its own result checks
/// via `on_tick` (e.g. oracle comparisons in tests; `|_, _| Ok(())` in
/// benches).
pub fn run_simulation<E: ContinuousJoinEngine + ?Sized>(
    engine: &mut E,
    stream: &mut UpdateStream,
    start: Time,
    end: Time,
    measure_from: Time,
    mut on_tick: impl FnMut(&mut E, Time) -> TprResult<()>,
) -> TprResult<SimMetrics> {
    let mut metrics = SimMetrics::default();
    let stats = engine.pool().stats();
    // Per-phase spans land in the engine's registry (inert when the
    // engine was built without `EngineConfig::metrics`).
    let obs = engine.metrics_registry();

    engine.pool().clear().map_err(cij_tpr::TprError::from)?;
    let before = stats.snapshot();
    let t0 = Instant::now();
    {
        let _span = obs.span("phase.initial_join");
        engine.run_initial_join(start)?;
    }
    metrics.initial_time = t0.elapsed();
    metrics.initial_io = (stats.snapshot() - before).physical_total();
    on_tick(engine, start)?;

    let mut tick = start.floor() as i64 + 1;
    while (tick as Time) <= end {
        let now = tick as Time;
        let updates = stream.tick(now);
        let measured = now > measure_from;
        let before = stats.snapshot();
        let t0 = Instant::now();
        {
            let _span = obs.span("phase.maintenance_tick");
            engine.advance_time(now)?;
            // One batch per tick: engines default to the sequential
            // per-update loop; buffered engines (the shard coordinator
            // included) run it in two phases with identical results.
            engine.apply_batch(&updates, now)?;
        }
        if measured {
            metrics.maintenance_time += t0.elapsed();
            metrics.maintenance_io += (stats.snapshot() - before).physical_total();
            metrics.maintenance_updates += updates.len() as u64;
            metrics.measured_ticks += 1;
        }
        engine.gc(now);
        on_tick(engine, now)?;
        tick += 1;
    }
    engine.publish_metrics();
    Ok(metrics)
}
