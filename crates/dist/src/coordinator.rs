//! The distributed coordinator: the shard coordinator's engine over
//! remote partitions.
//!
//! [`DistCoordinator`] is a [`ShardCoordinator`] whose K partitions are
//! [`RemotePair`]s, one worker process each: the same
//! `BufferedEngine<PartitionedPair<_>>`, one registration table, one
//! result buffer. Phase 1 of a tick routes every update on the coordinator and queues
//! the index mutations per partition; phase 2 is one
//! [`Step`](crate::Request::Step) per worker, the workers of a round
//! called concurrently over [`cij_join::fan_out_tasks`] with the
//! machine's available parallelism as the width, so a tick costs the
//! slowest worker, not the sum. A tick with no updates sends nothing.
//!
//! # The same answer as in process
//!
//! A worker applies its partition's mutations in the order the
//! coordinator made them and answers the probes over the windows the
//! in-process partition would use; the hits are merged per side in shard
//! order, exactly as the partitioned pair merges in-process partitions.
//! So `result_at`, `pair_status_at`, `counters` and the change list are
//! read from the coordinator's buffer with no RPC, and a `StreamService`
//! over a `DistCoordinator` emits the delta stream it emits over a
//! `ShardCoordinator` with the same policy — the workspace's `conform`
//! suite pins it, through worker kills and re-seeds. The one exception is
//! the initial join: a worker cannot join its trees against another
//! worker's, so it is one probe round of every A object against every
//! partition's B side, where the in-process pair runs tree-vs-tree jobs.
//! Its answer is expected to be the same; its traversal counters are not.

use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::Duration;

use cij_core::{ContinuousJoinEngine, EngineConfig, PairKey, PairStatus, Registrations};
use cij_geom::{MovingRect, Time};
use cij_join::{fan_out_tasks, JoinCounters};
use cij_obs::MetricsRegistry;
use cij_shard::{PartitionPolicy, ShardCoordinator};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::{ObjectId, TprResult};
use cij_workload::{MovingObject, ObjectUpdate, SetTag};

use crate::error::{DistError, DistResult};
use crate::protocol::EngineKind;
use crate::remote::{RemoteConfig, RemotePair};
use crate::transport::Connector;

/// Deployment parameters: what the workers build and how hard the
/// coordinator tries to reach them.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Index pair each worker builds ([`EngineKind::Mtb`] by default).
    pub engine: EngineKind,
    /// Maximum update interval `T_M`.
    pub t_m: Time,
    /// MTB bucket granularity.
    pub buckets_per_tm: u32,
    /// Enables the coordinator's metrics registry (`dist.*` counters,
    /// per-worker RTT and ack-lag histograms).
    pub metrics: bool,
    /// Connection attempts per RPC before the worker is declared
    /// unavailable.
    pub connect_attempts: u32,
    /// First-retry backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for DistConfig {
    fn default() -> Self {
        let engine_defaults = EngineConfig::builder().build();
        Self {
            engine: EngineKind::Mtb,
            t_m: engine_defaults.t_m,
            buckets_per_tm: engine_defaults.buckets_per_tm,
            metrics: false,
            connect_attempts: 8,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(200),
        }
    }
}

/// The workers of `policy`: one per shard, in shard order, each entry
/// the shard's `(i, i)`. Deployments hand [`DistCoordinator::new`] one
/// connector per entry, in this order.
///
/// A stopgap with a pair-shaped signature, kept for callers written
/// against the K×K grid (the ledger's `benchmark/src/stacks.rs` counts
/// its workers with it) until they count shards instead.
#[must_use]
pub fn joinable_pairs(policy: &dyn PartitionPolicy) -> Vec<(usize, usize)> {
    (0..policy.shard_count()).map(|i| (i, i)).collect()
}

/// A [`ContinuousJoinEngine`] whose partitions live in worker processes
/// (see the module docs). Drop-in wherever a single engine runs —
/// including as a `StreamService` factory product.
pub struct DistCoordinator {
    shard: ShardCoordinator<RemotePair>,
}

impl DistCoordinator {
    /// Partitions both sets under `policy` and builds each worker's index
    /// pair over its partition with one [`Init`](crate::Request::Init)
    /// per worker — `connectors[i]` serves shard `i` — the seed that
    /// re-seeds a lost worker later. A worker still serving an earlier
    /// coordinator is re-seeded the same way. Delta tracking and the
    /// initial join follow through the usual engine-trait calls.
    ///
    /// # Errors
    /// [`DistError::Config`] on a connector-count mismatch; connection
    /// or worker errors from the init round-trips.
    pub fn new(
        config: DistConfig,
        policy: Arc<dyn PartitionPolicy>,
        connectors: Vec<Box<dyn Connector>>,
        set_a: &[MovingObject],
        set_b: &[MovingObject],
        now: Time,
    ) -> DistResult<Self> {
        let k = policy.shard_count();
        if connectors.len() != k {
            return Err(DistError::Config(format!(
                "policy {} has {k} shards but {} connectors were supplied",
                policy.name(),
                connectors.len()
            )));
        }
        let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        // Worker I/O happens in the worker processes; this pool is idle.
        let pool = BufferPool::new(
            Arc::new(InMemoryStore::new()),
            BufferPoolConfig::with_capacity(8),
        );
        let remote = RemoteConfig::new(config, threads, connectors);
        let shard = ShardCoordinator::<RemotePair>::new(pool, remote, policy, set_a, set_b, now)
            .map_err(|e| DistError::Config(e.to_string()))?;
        let parts = shard.partitions();
        fan_out_tasks(parts.len(), shard.threads(), |i| {
            parts[i].seed(&shard.shard_registrations(i), now)
        })
        .into_iter()
        .collect::<DistResult<()>>()?;
        Ok(Self { shard })
    }

    /// Shards per object set.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shard.shard_count()
    }

    /// Workers: one per shard.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.shard.partitions().len()
    }

    /// Cross-shard migrations routed so far.
    #[must_use]
    pub fn migrations(&self) -> u64 {
        self.shard.migrations()
    }

    /// Pings every worker, reconnecting any whose channel died; a worker
    /// found lost is re-seeded at its next round. A worker that cannot be
    /// revived within the backoff budget surfaces as
    /// [`DistError::WorkerUnavailable`].
    ///
    /// # Errors
    /// The first unreachable or misbehaving worker, in shard order.
    pub fn heartbeat(&mut self) -> DistResult<()> {
        let parts = self.shard.partitions();
        fan_out_tasks(parts.len(), self.shard.threads(), |i| parts[i].heartbeat())
            .into_iter()
            .collect()
    }

    /// Sends every worker a [`Shutdown`](crate::Request::Shutdown) on a
    /// best-effort basis (for deployments whose workers are real
    /// processes).
    pub fn shutdown_workers(&mut self) {
        for part in self.shard.partitions() {
            part.shutdown();
        }
    }
}

impl ContinuousJoinEngine for DistCoordinator {
    fn name(&self) -> &'static str {
        "Distributed"
    }

    fn run_initial_join(&mut self, now: Time) -> TprResult<()> {
        self.shard.run_initial_join(now)
    }

    fn apply_update(&mut self, update: &ObjectUpdate, now: Time) -> TprResult<()> {
        self.shard.apply_update(update, now)
    }

    fn apply_batch(&mut self, updates: &[ObjectUpdate], now: Time) -> TprResult<()> {
        self.shard.apply_batch(updates, now)
    }

    fn restore_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        mbr: MovingRect,
        registered_at: Time,
        now: Time,
    ) -> TprResult<()> {
        self.shard.restore_object(set, id, mbr, registered_at, now)
    }

    /// The worker hears of it with the next round.
    fn remove_object(&mut self, id: ObjectId, now: Time) -> TprResult<()> {
        self.shard.remove_object(id, now)
    }

    fn gc(&mut self, now: Time) {
        self.shard.gc(now);
    }

    fn result_at(&self, t: Time) -> Vec<PairKey> {
        self.shard.result_at(t)
    }

    fn registrations(&self) -> &Registrations {
        self.shard.registrations()
    }

    fn pool(&self) -> &BufferPool {
        self.shard.pool()
    }

    fn counters(&self) -> JoinCounters {
        self.shard.counters()
    }

    fn enable_delta_tracking(&mut self) {
        self.shard.enable_delta_tracking();
    }

    fn take_result_changes(&mut self) -> Option<Vec<PairKey>> {
        self.shard.take_result_changes()
    }

    fn pair_status_at(&self, pair: PairKey, t: Time) -> PairStatus {
        self.shard.pair_status_at(pair, t)
    }

    fn metrics_registry(&self) -> MetricsRegistry {
        self.shard.metrics_registry()
    }

    fn publish_metrics(&self) {
        let obs = self.shard.metrics_registry();
        if !obs.is_enabled() {
            return;
        }
        self.shard.publish_metrics();
        obs.counter("dist.migrations").store(self.migrations());
        obs.gauge("dist.workers").set(self.worker_count() as i64);
    }
}
