//! The shard coordinator: one buffered engine over a partitioned pair,
//! plus the adaptive controller, behind the single-engine protocol.
//!
//! # Topology
//!
//! A [`PartitionPolicy`] splits each object set into `K` shards, and a
//! [`PartitionedPair`] files every object in exactly one of K inner index
//! pairs (MTB by default): A-shard `i` on partition `i`'s A side,
//! B-shard `j` on partition `j`'s B side. One [`BufferedEngine`] runs the
//! maintenance protocol over it, so there is one
//! [`ResultBuffer`](cij_core::ResultBuffer), one change list and one set
//! of [`JoinCounters`]. A tick's phase 1 routes every update and hands
//! each partition its share in one batch (a migration is a remove from
//! one partition and an insert into another); phase 2 probes both sides against all K partitions, the
//! partitions fanned out over the configuration's `threads`. The module
//! docs of [`crate::partitioned`] argue why the answer is the single
//! engine's, bit for bit — the property the `conform` harness pins
//! across policies × K × threads, including across re-partitions.
//!
//! # Online re-partitioning
//!
//! [`rebalance_to`](ShardCoordinator::rebalance_to) swaps the partition
//! policy *while the join runs* — the mechanism behind the adaptive
//! controller ([`enable_adaptive`](ShardCoordinator::enable_adaptive))
//! and directly drivable for forced split/merge/boundary-shift events.
//! It only moves each object whose shard changes into its new partition,
//! at its original registration time. MTB buckets sit on a global time
//! grid, so the mover keeps its bucket and every Theorem-2 window it takes
//! part in: no probe runs, and the result buffer, the change list and the
//! counters are left as they were.
//!
//! Update-driven `migrations` and policy-driven `rebalance.moved`
//! objects are counted separately; both conserve populations.

use std::sync::Arc;

use cij_core::{
    BufferedEngine, ContinuousJoinEngine, EngineConfig, IndexPair, MtbPair, PairKey, PairStatus,
    Registration, Registrations,
};
use cij_geom::{MovingRect, Time};
use cij_join::JoinCounters;
use cij_obs::MetricsRegistry;
use cij_storage::BufferPool;
use cij_tpr::{ObjectId, TprError, TprResult};
use cij_workload::{MovingObject, ObjectUpdate, SetTag};

use crate::adaptive::{AdaptiveConfig, AdaptiveController};
use crate::partitioned::{PartitionedConfig, PartitionedPair};
use crate::policy::PartitionPolicy;
use crate::report::ShardReport;

/// An engine builder over the given subsets, the shape
/// [`ShardCoordinator::with_factory`] takes.
pub type SharedShardEngineFactory = Arc<
    dyn Fn(
            BufferPool,
            &EngineConfig,
            &[MovingObject],
            &[MovingObject],
            Time,
        ) -> TprResult<Box<dyn ContinuousJoinEngine + Send>>
        + Send
        + Sync,
>;

/// A `ContinuousJoinEngine` over K partitions of an index pair (see the
/// module docs). Drop-in wherever a single engine runs:
/// `run_simulation`, the stream service's engine factory, the bench
/// harness.
pub struct ShardCoordinator<P: IndexPair = MtbPair>
where
    P::Config: Clone,
{
    engine: BufferedEngine<PartitionedPair<P>>,
    threads: usize,
    adaptive: Option<AdaptiveController>,
}

impl ShardCoordinator {
    /// The MTB coordinator, built through an engine factory. A stopgap
    /// for callers written against the engine-grid coordinator: the
    /// factory is called once, on empty sets, only to read the engine's
    /// name. MTB-Join gets [`new`](Self::new) over [`MtbPair`]
    /// partitions; any other engine is refused.
    ///
    /// # Errors
    /// [`TprError::Unsupported`] when the factory builds anything but
    /// MTB-Join (shard it with `ShardCoordinator::<P>::new`), and
    /// whatever the factory or the build returns.
    pub fn with_factory(
        pool: BufferPool,
        config: EngineConfig,
        policy: Arc<dyn PartitionPolicy>,
        set_a: &[MovingObject],
        set_b: &[MovingObject],
        now: Time,
        factory: SharedShardEngineFactory,
    ) -> TprResult<Self> {
        let name = factory(pool.clone(), &config, &[], &[], now)?.name();
        if name != MtbPair::NAME {
            return Err(TprError::Unsupported {
                what: format!("with_factory over {name}: use ShardCoordinator::<P>::new"),
            });
        }
        Self::new(pool, config, policy, set_a, set_b, now)
    }
}

impl<P: IndexPair> ShardCoordinator<P>
where
    P::Config: Clone,
{
    /// Partitions both sets under `policy` into K pairs built from
    /// `config`, all reading through `pool`. The engine knobs' `threads`
    /// is the width of phase 2 — every tick's, and each round of the
    /// initial join's, which is phase 2 over all of A — which probes the
    /// K partitions on a fan-out.
    pub fn new(
        pool: BufferPool,
        config: P::Config,
        policy: Arc<dyn PartitionPolicy>,
        set_a: &[MovingObject],
        set_b: &[MovingObject],
        now: Time,
    ) -> TprResult<Self> {
        let threads = P::engine_config(&config).threads.max(1);
        let config = PartitionedConfig {
            inner: config,
            policy,
        };
        Ok(Self {
            engine: BufferedEngine::new(pool, config, set_a, set_b, now)?,
            threads,
            adaptive: None,
        })
    }

    /// Shards per object set.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.engine.partitions().len()
    }

    /// The partitions, in shard order.
    #[must_use]
    pub fn partitions(&self) -> &[P] {
        self.engine.partitions()
    }

    /// What partition `shard` holds, sorted by side and id (see
    /// [`PartitionedPair::shard_registrations`]).
    #[must_use]
    pub fn shard_registrations(&self, shard: usize) -> Vec<(ObjectId, Registration)> {
        (self.engine).shard_registrations(self.engine.registrations(), shard)
    }

    /// The width the partitions fan out at: the configuration's
    /// `threads`, at least 1.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cross-shard migrations routed so far (update-driven).
    #[must_use]
    pub fn migrations(&self) -> u64 {
        self.engine.router().migrations()
    }

    /// Re-partition events committed so far.
    #[must_use]
    pub fn rebalances(&self) -> u64 {
        self.engine.rebalances()
    }

    /// Objects relocated by re-partitioning so far (policy-driven).
    #[must_use]
    pub fn rebalance_moved(&self) -> u64 {
        self.engine.router().rebalanced()
    }

    /// The shard currently holding `id`: the policy's shard of its
    /// registered trajectory.
    #[must_use]
    pub fn shard_of(&self, id: ObjectId) -> Option<usize> {
        let registration = self.engine.registrations().get(&id)?;
        Some(
            self.engine
                .router()
                .policy()
                .shard_of(id, &registration.mbr),
        )
    }

    /// Arms the adaptive partition controller: observed trajectories
    /// feed its quantile sketch, and after every applied batch the
    /// coordinator re-partitions whenever the controller proposes a
    /// better policy (see [`AdaptiveController`]). The sketch is seeded
    /// from the current live population so the first decision is
    /// informed (it is a histogram: the order is immaterial).
    pub fn enable_adaptive(&mut self, cfg: AdaptiveConfig) -> TprResult<()> {
        let mut ctl = AdaptiveController::new(cfg);
        for r in self.engine.registrations().values() {
            ctl.observe(&r.mbr);
        }
        self.adaptive = Some(ctl);
        Ok(())
    }

    /// Re-partitions the live join under `new_policy` at time `now` by
    /// moving objects between partitions (see the module docs), and
    /// returns how many moved.
    pub fn rebalance_to(
        &mut self,
        new_policy: Arc<dyn PartitionPolicy>,
        now: Time,
    ) -> TprResult<usize> {
        let (pair, registrations) = self.engine.index_mut();
        pair.repartition(registrations, new_policy, now)
    }

    /// Asks the adaptive controller (when armed) whether the batch just
    /// applied warrants a re-partition, and commits it if so. Runs after
    /// every batch, so decisions depend only on the update stream.
    fn maybe_rebalance(&mut self, now: Time) -> TprResult<()> {
        let Some(ctl) = self.adaptive.as_mut() else {
            return Ok(());
        };
        let router = self.engine.router();
        let pops: Vec<usize> = (router.population(SetTag::A).iter())
            .zip(router.population(SetTag::B))
            .map(|(a, b)| a + b)
            .collect();
        if let Some(policy) = ctl.decide(now, &pops) {
            self.rebalance_to(policy, now)?;
            if let Some(ctl) = self.adaptive.as_mut() {
                ctl.note_rebalanced(now);
            }
        }
        Ok(())
    }

    /// Aggregated diagnostics: shard populations, migrations and
    /// rebalances, the traversal counters, and the shared pool's I/O.
    /// When metrics are enabled the report also carries a published
    /// [`MetricsSnapshot`](cij_obs::MetricsSnapshot) of the engine's
    /// registry.
    #[must_use]
    pub fn report(&self) -> ShardReport {
        let obs = self.engine.metrics_registry();
        let metrics = obs.is_enabled().then(|| {
            self.engine.publish_metrics();
            obs.snapshot()
        });
        ShardReport::new(
            self.engine.router(),
            self.threads,
            self.engine.rebalances(),
            self.engine.counters(),
            self.engine.pool().stats().snapshot(),
            metrics,
        )
    }
}

impl<P: IndexPair> ContinuousJoinEngine for ShardCoordinator<P>
where
    P::Config: Clone,
{
    fn name(&self) -> &'static str {
        "Sharded"
    }

    fn run_initial_join(&mut self, now: Time) -> TprResult<()> {
        self.engine.run_initial_join(now)
    }

    fn apply_update(&mut self, update: &ObjectUpdate, now: Time) -> TprResult<()> {
        self.apply_batch(std::slice::from_ref(update), now)
    }

    fn apply_batch(&mut self, updates: &[ObjectUpdate], now: Time) -> TprResult<()> {
        if updates.is_empty() {
            return Ok(());
        }
        if let Some(ctl) = self.adaptive.as_mut() {
            for u in updates {
                ctl.observe(&u.new_mbr);
            }
        }
        self.engine.apply_batch(updates, now)?;
        self.maybe_rebalance(now)
    }

    fn restore_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        mbr: MovingRect,
        registered_at: Time,
        now: Time,
    ) -> TprResult<()> {
        if let Some(ctl) = self.adaptive.as_mut() {
            ctl.observe(&mbr);
        }
        self.engine.restore_object(set, id, mbr, registered_at, now)
    }

    fn remove_object(&mut self, id: ObjectId, now: Time) -> TprResult<()> {
        self.engine.remove_object(id, now)
    }

    fn gc(&mut self, now: Time) {
        self.engine.gc(now);
    }

    fn result_at(&self, t: Time) -> Vec<PairKey> {
        self.engine.result_at(t)
    }

    fn registrations(&self) -> &Registrations {
        self.engine.registrations()
    }

    fn pool(&self) -> &BufferPool {
        self.engine.pool()
    }

    fn counters(&self) -> JoinCounters {
        self.engine.counters()
    }

    fn enable_delta_tracking(&mut self) {
        self.engine.enable_delta_tracking();
    }

    fn take_result_changes(&mut self) -> Option<Vec<PairKey>> {
        self.engine.take_result_changes()
    }

    fn pair_status_at(&self, pair: PairKey, t: Time) -> PairStatus {
        self.engine.pair_status_at(pair, t)
    }

    fn metrics_registry(&self) -> MetricsRegistry {
        self.engine.metrics_registry()
    }

    fn publish_metrics(&self) {
        self.engine.publish_metrics();
    }
}
