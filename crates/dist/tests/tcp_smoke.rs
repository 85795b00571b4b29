//! Multi-process smoke: K = 2 velocity bands on two real `shard_worker`
//! processes over TCP (one per partition), one killed (SIGKILL) mid-run
//! and respawned blank on a fresh port. Objects cross the band edge, so
//! migrations travel over TCP too. The merged stream must stay
//! bit-identical to the in-process shard coordinator throughout and equal
//! the brute-force answer at the last tick, and the coordinator's metrics
//! must show the reconnect and the one re-seed of the respawned worker.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use cij_core::{EngineConfig, MtbEngine};
use cij_dist::tcp::TcpConnector;
use cij_dist::{joinable_pairs, Connector, DistConfig, DistCoordinator, EngineKind};
use cij_geom::Time;
use cij_join::brute::brute_pairs_at;
use cij_shard::{PartitionPolicy, ShardCoordinator, VelocityBandPolicy};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_stream::{StreamConfig, StreamService, SubscriptionFilter};
use cij_workload::{generate_pair, Params, SetTag, UpdateStream};

/// One spawned worker process, killed on drop so a failing test does
/// not leak children.
struct WorkerProc {
    child: Child,
    addr: String,
}

impl WorkerProc {
    fn spawn() -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_shard_worker"))
            .args(["--listen", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn shard_worker");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read LISTENING line");
        let addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
            .to_string();
        Self { child, addr }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

fn pool() -> BufferPool {
    BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(256),
    )
}

#[test]
fn two_processes_survive_a_kill_with_bit_identical_streams() {
    // Uniform speeds over [0, max_speed]: the K = 2 edge at half speed
    // is crossed by re-steers all the time.
    let params = Params {
        dataset_size: 80,
        seed: 92,
        space: 200.0,
        object_size_pct: 1.0,
        maximum_update_interval: 20.0,
        ..Params::default()
    };
    let engine_cfg = EngineConfig {
        t_m: params.maximum_update_interval,
        ..EngineConfig::default()
    };
    let policy: Arc<dyn PartitionPolicy> = Arc::new(VelocityBandPolicy::new(2, params.max_speed));
    assert_eq!(joinable_pairs(&*policy).len(), 2, "one worker per band");

    let (a, b) = generate_pair(&params, 0.0);
    let stream_config = StreamConfig::builder().engine(engine_cfg).build();

    let oracle_policy = policy.clone();
    let mut oracle = StreamService::new(stream_config.clone(), &a, &b, 0.0, &|cfg, a, b, now| {
        Ok(Box::new(ShardCoordinator::with_factory(
            pool(),
            *cfg,
            oracle_policy.clone(),
            a,
            b,
            now,
            Arc::new(|pool, cfg, a, b, now| Ok(Box::new(MtbEngine::new(pool, *cfg, a, b, now)?))),
        )?))
    })
    .expect("oracle service");

    let mut procs: Vec<WorkerProc> = (0..2).map(|_| WorkerProc::spawn()).collect();
    let connectors: Vec<TcpConnector> = procs
        .iter()
        .map(|p| TcpConnector::new(p.addr.clone(), Duration::from_secs(10)))
        .collect();

    let dist_policy = policy.clone();
    let dist_connectors = connectors.clone();
    let mut dist = StreamService::new(stream_config, &a, &b, 0.0, &|cfg, a, b, now| {
        let boxed: Vec<Box<dyn Connector>> = dist_connectors
            .iter()
            .map(|c| Box::new(c.clone()) as Box<dyn Connector>)
            .collect();
        let dist_config = DistConfig {
            engine: EngineKind::Mtb,
            t_m: cfg.t_m,
            buckets_per_tm: cfg.buckets_per_tm,
            metrics: true,
            ..DistConfig::default()
        };
        Ok(Box::new(DistCoordinator::new(
            dist_config,
            dist_policy.clone(),
            boxed,
            a,
            b,
            now,
        )?))
    })
    .expect("dist service");

    let sub_oracle = oracle.subscribe(SubscriptionFilter::All).expect("sub");
    let sub_dist = dist.subscribe(SubscriptionFilter::All).expect("sub");
    let mut workload = UpdateStream::new(&params, &a, &b, 0.0);

    let run = |oracle: &mut StreamService,
               dist: &mut StreamService,
               workload: &mut UpdateStream,
               from: u32,
               to: u32| {
        for tick in from..=to {
            let now = Time::from(tick);
            for u in workload.tick(now) {
                oracle.submit(u, now);
                dist.submit(u, now);
            }
            let d_oracle = oracle.advance_to(now).expect("oracle advance");
            let d_dist = dist.advance_to(now).expect("dist advance");
            assert_eq!(d_dist, d_oracle, "advance deltas diverged at t={now}");
            assert_eq!(
                dist.poll(sub_dist).unwrap_or_default(),
                oracle.poll(sub_oracle).unwrap_or_default(),
                "outboxes diverged at t={now}"
            );
            assert_eq!(
                dist.result_at(now),
                oracle.result_at(now),
                "result snapshots diverged at t={now}"
            );
        }
    };

    run(&mut oracle, &mut dist, &mut workload, 1, 6);

    // SIGKILL worker 1 mid-run and respawn it blank on a fresh port; the
    // retargeted connector is the supervisor's only repair, the re-seed
    // the coordinator's.
    procs[1].kill();
    procs[1] = WorkerProc::spawn();
    connectors[1].retarget(procs[1].addr.clone());

    run(&mut oracle, &mut dist, &mut workload, 7, 14);

    // Every probe meets every partition, so the answer is the join
    // itself, not only the oracle coordinator's.
    let last = Time::from(14u32);
    let expect = brute_pairs_at(
        &workload.snapshot(SetTag::A),
        &workload.snapshot(SetTag::B),
        last,
    );
    assert!(!expect.is_empty(), "the run must have intersecting pairs");
    assert_eq!(dist.result_at(last), expect, "≠ brute force at t={last}");

    let snap = dist.metrics_snapshot();
    assert!(
        snap.counter("dist.reconnects").unwrap_or(0) >= 1,
        "the kill should force at least one reconnect"
    );
    assert_eq!(
        snap.counter("dist.reseeds"),
        Some(1),
        "the respawned worker is re-seeded once"
    );
    assert!(snap.counter("dist.rpc.calls").unwrap_or(0) > 0);
    assert!(
        snap.counter("dist.migrations").unwrap_or(0) > 0,
        "no migration crossed TCP"
    );
}
