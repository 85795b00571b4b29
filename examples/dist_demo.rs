//! Tour of the `cij-dist` coordinator/worker deployment: four WAL-backed
//! loopback workers under a velocity-band plan, a worker killed
//! mid-stream and restarted from its journal, a second worker losing its
//! WAL outright and being resynced from the coordinator's request
//! history — with the merged delta stream asserted bit-identical to the
//! in-process shard coordinator at every tick.
//!
//! Run with `cargo run --release --example dist_demo`.

use std::sync::Arc;

use cij::core::{ContinuousJoinEngine, EngineConfig, MtbEngine};
use cij::dist::loopback::LoopbackHost;
use cij::dist::{joinable_pairs, Connector, DistConfig, DistCoordinator, EngineKind};
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

    // K = 2 velocity bands → a 2×2 join plan → four workers, each a
    // simulated machine with its own write-ahead log.
    let policy: Arc<dyn PartitionPolicy> = Arc::new(VelocityBandPolicy::new(2, params.max_speed));
    let plan = joinable_pairs(&*policy);
    let wal_dir = std::env::temp_dir();
    let wal_paths: Vec<_> = (0..plan.len())
        .map(|i| wal_dir.join(format!("cij-dist-demo-{i}-{}.wal", std::process::id())))
        .collect();
    for p in &wal_paths {
        let _ = std::fs::remove_file(p);
    }
    let hosts: Vec<Arc<LoopbackHost>> = wal_paths
        .iter()
        .map(|p| LoopbackHost::durable(p.clone()).expect("open worker WAL"))
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
        "{} over {} velocity bands: {} workers serving shard pairs {:?}",
        dist.name(),
        dist.shard_count(),
        dist.worker_count(),
        dist.worker_pairs(),
    );

    // The in-process coordinator is the oracle: same policy, same
    // engines, no transport. The demo asserts the distributed run never
    // deviates from it.
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
    println!("t=1..6   healthy: {deltas} merged deltas, all bit-identical to in-process");

    // ---- Fault 1: crash a worker process; its WAL survives. --------
    hosts[1].kill();
    println!("t=7      KILL worker 1 (engine, outbox and sequence state gone; WAL intact)");
    let mut deltas = 0usize;
    for t in 7..=12u32 {
        deltas += tick(&mut dist, &mut oracle, &mut stream, f64::from(t))?;
    }
    println!(
        "t=7..12  recovered: {deltas} merged deltas, still bit-identical \
         (worker 1 restarts={}, journal replayed on open)",
        hosts[1].restarts()
    );

    // ---- Fault 2: lose a whole machine, WAL included. --------------
    hosts[2].kill_and_lose_wal();
    println!("t=13     KILL worker 2 *and* its WAL (total machine loss)");
    let mut deltas = 0usize;
    for t in 13..=18u32 {
        deltas += tick(&mut dist, &mut oracle, &mut stream, f64::from(t))?;
    }
    println!(
        "t=13..18 resynced: {deltas} merged deltas, still bit-identical \
         (coordinator replayed its retained history into the blank worker)"
    );

    dist.heartbeat().map_err(cij::tpr::TprError::from)?;
    println!("heartbeat: all {} workers answering", dist.worker_count());

    dist.publish_metrics();
    let snap = dist.metrics_registry().snapshot();
    let counter = |n: &str| snap.counter(n).unwrap_or(0);
    println!(
        "metrics: rpc_calls={} rpc_errors={} reconnects={} resyncs={} replayed_requests={}",
        counter("dist.rpc.calls"),
        counter("dist.rpc.errors"),
        counter("dist.reconnects"),
        counter("dist.resyncs"),
        counter("dist.replayed_requests"),
    );

    dist.shutdown_workers();
    for p in &wal_paths {
        let _ = std::fs::remove_file(p);
    }
    Ok(())
}
