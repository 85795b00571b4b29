//! Multi-process smoke: a K = 2 velocity-band plan on four real
//! `shard_worker` processes over TCP (one per shard pair), one killed
//! (SIGKILL) mid-run and respawned on a fresh port from its surviving
//! WAL. Objects cross the band edge, so migrations travel over TCP too.
//! The merged stream must stay bit-identical to the in-process shard
//! coordinator throughout and equal the brute-force answer at the last
//! tick, and the coordinator's metrics must show the reconnect happened
//! without a history resync.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
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
    fn spawn(wal: &Path) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_shard_worker"))
            .args(["--listen", "127.0.0.1:0", "--wal"])
            .arg(wal)
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

struct TempWal(PathBuf);

impl TempWal {
    fn new(idx: usize) -> Self {
        let path = std::env::temp_dir().join(format!(
            "cij-dist-tcp-smoke-{idx}-{}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        Self(path)
    }
}

impl Drop for TempWal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn pool() -> BufferPool {
    BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(256),
    )
}

#[test]
fn four_processes_survive_a_kill_with_bit_identical_streams() {
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
    assert_eq!(
        joinable_pairs(&*policy),
        vec![(0, 0), (0, 1), (1, 0), (1, 1)]
    );

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

    let wals: Vec<TempWal> = (0..4).map(TempWal::new).collect();
    let mut procs: Vec<WorkerProc> = wals.iter().map(|w| WorkerProc::spawn(&w.0)).collect();
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

    // SIGKILL worker 1 mid-run and respawn it from its WAL on a fresh
    // port; the retargeted connector is the supervisor's only repair.
    procs[1].kill();
    procs[1] = WorkerProc::spawn(&wals[1].0);
    connectors[1].retarget(procs[1].addr.clone());

    run(&mut oracle, &mut dist, &mut workload, 7, 14);

    // The plan is the full K×K grid, so the merged answer is the join
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
        snap.counter("dist.resyncs").unwrap_or(0),
        0,
        "a WAL-intact restart must not need a history resync"
    );
    assert!(snap.counter("dist.rpc.calls").unwrap_or(0) > 0);
    assert!(
        snap.counter("dist.migrations").unwrap_or(0) > 0,
        "no migration crossed TCP"
    );
}
