//! Tour of the `cij-dist` coordinator/worker deployment: two loopback
//! workers holding soft state, one partition of the velocity bands each,
//! each killed mid-stream in turn and re-seeded from the coordinator
//! engine's registration table — with the delta stream asserted bit-identical to the
//! in-process shard coordinator at every tick.
//!
//! Run with `cargo run --release --example dist_demo`.

use std::sync::Arc;

use cij::core::{ContinuousJoinEngine, EngineConfig, MtbEngine};
use cij::dist::loopback::LoopbackHost;
use cij::dist::{Connector, DistConfig, DistCoordinator, EngineKind};
use cij::shard::{PartitionPolicy, ShardCoordinator, VelocityBandPolicy};
use cij::storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij::tpr::TprResult;
use cij::workload::{generate_pair, Distribution, Params, UpdateStream};

fn main() -> TprResult<()> {
    // The skewed-velocity workload the band policy is built for.
    let params = Params {
        dataset_size: 300,
        distribution: Distribution::VelocitySkew,
        maximum_update_interval: 20.0,
        space: 400.0,
        object_size_pct: 1.0,
        ..Params::default()
    };
    let (set_a, set_b) = generate_pair(&params, 0.0);
    let engine_cfg = EngineConfig {
        t_m: params.maximum_update_interval,
        ..EngineConfig::default()
    };

    // K = 2 velocity bands → two partitions → two workers, each a
    // simulated machine that keeps nothing on disk.
    let policy: Arc<dyn PartitionPolicy> = Arc::new(VelocityBandPolicy::new(2, params.max_speed));
    let hosts: Vec<Arc<LoopbackHost>> = (0..policy.shard_count())
        .map(|_| LoopbackHost::ephemeral())
        .collect();
    let connectors: Vec<Box<dyn Connector>> = hosts
        .iter()
        .map(|h| Box::new(h.connector()) as Box<dyn Connector>)
        .collect();

    let mut dist = DistCoordinator::new(
        DistConfig {
            engine: EngineKind::Mtb,
            t_m: engine_cfg.t_m,
            buckets_per_tm: engine_cfg.buckets_per_tm,
            metrics: true,
            ..DistConfig::default()
        },
        policy.clone(),
        connectors,
        &set_a,
        &set_b,
        0.0,
    )
    .map_err(cij::tpr::TprError::from)?;
    println!(
        "{} over {} velocity bands: {} workers, one partition each (worker i holds band i)",
        dist.name(),
        dist.shard_count(),
        dist.worker_count(),
    );

    // The in-process coordinator is the oracle: same policy, same
    // partitions, no transport. The demo asserts the distributed run
    // never deviates from it.
    let pool = BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(4096),
    );
    let mut oracle = ShardCoordinator::with_factory(
        pool,
        engine_cfg,
        policy,
        &set_a,
        &set_b,
        0.0,
        Arc::new(|pool, cfg, a, b, now| Ok(Box::new(MtbEngine::new(pool, *cfg, a, b, now)?))),
    )?;

    dist.enable_delta_tracking();
    oracle.enable_delta_tracking();
    dist.run_initial_join(0.0)?;
    oracle.run_initial_join(0.0)?;

    let mut stream = UpdateStream::new(&params, &set_a, &set_b, 0.0);
    let tick = |dist: &mut DistCoordinator,
                oracle: &mut ShardCoordinator,
                stream: &mut UpdateStream,
                now: f64|
     -> TprResult<usize> {
        let updates = stream.tick(now);
        for c in [dist as &mut dyn ContinuousJoinEngine, oracle] {
            c.advance_time(now)?;
            c.apply_batch(&updates, now)?;
            c.gc(now);
        }
        let d = dist.take_result_changes().unwrap_or_default();
        let o = oracle.take_result_changes().unwrap_or_default();
        assert_eq!(d, o, "distributed deltas diverged at t={now}");
        assert_eq!(dist.result_at(now), oracle.result_at(now), "t={now}");
        Ok(d.len())
    };

    let mut deltas = 0usize;
    for t in 1..=6u32 {
        deltas += tick(&mut dist, &mut oracle, &mut stream, f64::from(t))?;
    }
    println!("t=1..6   healthy: {deltas} deltas, all bit-identical to in-process");

    // ---- Kill each worker in turn: it comes back blank. -----------
    for (victim, ticks) in [(1, 7..=12u32), (0, 13..=18)] {
        let first = ticks.start();
        hosts[victim].kill();
        println!("t={first:<6} KILL worker {victim} (index, outbox and sequence state gone)");
        let mut deltas = 0usize;
        for t in ticks.clone() {
            deltas += tick(&mut dist, &mut oracle, &mut stream, f64::from(t))?;
        }
        println!(
            "{:<9}re-seeded: {deltas} deltas, still bit-identical \
             (worker {victim} restarts={}, rebuilt from the engine's registrations)",
            format!("t={first}..{}", ticks.end()),
            hosts[victim].restarts()
        );
    }

    dist.heartbeat().map_err(cij::tpr::TprError::from)?;
    println!("heartbeat: all {} workers answering", dist.worker_count());

    dist.publish_metrics();
    let snap = dist.metrics_registry().snapshot();
    let counter = |n: &str| snap.counter(n).unwrap_or(0);
    println!(
        "metrics: rpc_calls={} rpc_errors={} reconnects={} reseeds={} reseed_objects={}",
        counter("dist.rpc.calls"),
        counter("dist.rpc.errors"),
        counter("dist.reconnects"),
        counter("dist.reseeds"),
        counter("dist.reseed_objects"),
    );
    assert_eq!(
        counter("dist.reseeds"),
        2,
        "each killed worker re-seeded once"
    );

    dist.shutdown_workers();
    Ok(())
}
