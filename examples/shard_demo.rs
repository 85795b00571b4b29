//! Tour of the `cij-shard` coordinator: four velocity-band shards, one
//! MTB-Join engine per shard pair, cross-shard migration routing, a
//! merged result-delta changelog, and the aggregated counter/I-O report.
//!
//! Run with `cargo run --release --example shard_demo`.

use std::sync::Arc;

use cij::core::{ContinuousJoinEngine, EngineConfig, MtbEngine};
use cij::shard::{ShardCoordinator, VelocityBandPolicy};
use cij::storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij::tpr::TprResult;
use cij::workload::{generate_pair, Distribution, Params, UpdateStream};

fn main() -> TprResult<()> {
    // The skewed-velocity workload: 20% of objects near top speed, the
    // rest slow — the regime velocity banding is built for.
    let params = Params {
        dataset_size: 400,
        distribution: Distribution::VelocitySkew,
        maximum_update_interval: 20.0,
        space: 500.0,
        object_size_pct: 1.0,
        ..Params::default()
    };
    let (set_a, set_b) = generate_pair(&params, 0.0);

    let pool = BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(4096),
    );
    let config = EngineConfig {
        t_m: params.maximum_update_interval,
        threads: 4,
        metrics: true, // so the report carries a registry snapshot
        ..EngineConfig::default()
    };

    let policy = Arc::new(VelocityBandPolicy::new(4, params.max_speed));
    let mut coordinator = ShardCoordinator::with_factory(
        pool,
        config,
        policy,
        &set_a,
        &set_b,
        0.0,
        Arc::new(|pool, cfg, a, b, now| Ok(Box::new(MtbEngine::new(pool, *cfg, a, b, now)?))),
    )?;
    println!(
        "{} over {} velocity bands: {} shard-pair engines",
        coordinator.name(),
        coordinator.shard_count(),
        coordinator.engine_count(),
    );

    // The coordinator merges every shard-pair engine's ResultBuffer
    // deltas into one globally deduplicated changelog — the same feed
    // the cij-stream subscription path consumes.
    coordinator.enable_delta_tracking();
    coordinator.run_initial_join(0.0)?;
    println!(
        "t=   0: initial join reports {} intersecting pairs",
        coordinator.result_at(0.0).len()
    );

    let mut stream = UpdateStream::new(&params, &set_a, &set_b, 0.0);
    let (mut added, mut removed) = (0u64, 0u64);
    for tick in 1..=30u32 {
        let now = f64::from(tick);
        let updates = stream.tick(now);
        coordinator.advance_time(now)?;
        coordinator.apply_batch(&updates, now)?;
        coordinator.gc(now);
        let changed = coordinator
            .take_result_changes()
            .expect("delta tracking is on");
        let live: std::collections::HashSet<_> = coordinator.result_at(now).into_iter().collect();
        let adds = changed.iter().filter(|p| live.contains(*p)).count() as u64;
        added += adds;
        removed += changed.len() as u64 - adds;
        if tick % 10 == 0 {
            println!(
                "t={now:>4}: {:>3} pairs live, merged changelog +{adds} -{} this tick, \
                 {} migrations so far",
                live.len(),
                changed.len() as u64 - adds,
                coordinator.migrations(),
            );
        }
    }
    println!("changelog over 30 ticks: +{added} -{removed} merged deltas");

    // The aggregated diagnostics: per-pair counters, shard populations,
    // and the shared pool's I/O.
    let report = coordinator.report();
    println!("\n{report}");

    // The unified metrics view of the same run — per-pair traversal
    // counters, per-shard population gauges, migrations, and the shared
    // pool's live I/O counters — in Prometheus text exposition.
    if let Some(metrics) = &report.metrics {
        println!(
            "\nmetrics snapshot ({} counters, {} gauges):",
            metrics.counters.len(),
            metrics.gauges.len()
        );
        print!("{}", metrics.to_prometheus());
    }
    Ok(())
}
