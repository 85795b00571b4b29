//! The shard coordinator: K×K (or fewer) shard-pair engines behind the
//! single-engine protocol.
//!
//! # Topology
//!
//! A [`PartitionPolicy`] splits each object set into `K` shards. For
//! every *joinable* shard pair `(i, j)` — one slot of the policy's
//! [`JoinPlan`] — the coordinator builds one full
//! [`ContinuousJoinEngine`] over (A-shard `i`, B-shard `j`) — so an
//! A-object of shard `i` is indexed by every engine in row `i`, and a
//! B-object of shard `j` by every engine in column `j`. Each engine owns
//! its indexes outright; engines share only the buffer pool (one
//! simulated disk, like the paper's testbed) and are otherwise disjoint,
//! which is what makes the parallel fan-out deterministic.
//!
//! # Why per-pair results union to the single-engine answer
//!
//! Every (a, b) with `a` in shard `i`, `b` in shard `j` is watched by
//! exactly one engine — `(i, j)` — and by none after a migration removes
//! either object from that engine's row/column. The per-pair predicted
//! intersection intervals depend only on the two trajectories and the
//! probe window, not on tree shape, and the probe windows are the
//! single-engine ones: the MTB buckets live on a *global* time grid
//! (`bucket_of(t) = ⌊t / bucket_len⌋`), so a shard's buckets are a
//! subset of the unsharded engine's buckets with identical `t_eb`s, and
//! Theorem 2's per-bucket window `min(t_eb, now) + T_M` evaluates
//! identically per shard — the per-shard generalization of the paper's
//! argument. Hence `⋃ result_at` over the plan, deduplicated, equals the
//! single engine's `result_at` — the property the differential harness
//! pins across policies × K × threads, including across re-partitions.
//!
//! # Updates, migration, batches
//!
//! What an update means for each engine — a plain `apply_update` on
//! the object's row/column, or the remove + insert halves of a
//! migration — is [`ShardRouter::project`]'s business.
//! [`apply_batch`](ContinuousJoinEngine::apply_batch) projects the
//! tick's update sequence onto each engine (preserving order) and fans
//! the per-engine op lists out over
//! [`cij_join::fan_out_tasks`] — engines are state-disjoint, so the
//! projection is exactly what each engine would have seen sequentially.
//!
//! # Online re-partitioning
//!
//! [`rebalance_to`](ShardCoordinator::rebalance_to) swaps the partition
//! policy *while the join runs* — the mechanism behind the adaptive
//! controller ([`enable_adaptive`](ShardCoordinator::enable_adaptive))
//! and directly drivable for forced split/merge/boundary-shift events.
//! The protocol, in four phases, all at one logical instant `now`:
//!
//! 1. **Diff** — the router re-evaluates the new policy against every
//!    live trajectory ([`ShardRouter::repartition`]) and returns the
//!    id-sorted movers.
//! 2. **Evict** — each mover is `remove_object`-ed from its old
//!    row/column under the *old* topology. Afterwards slot `(i, j)`
//!    holds exactly the objects whose old and new shards both equal
//!    `i` / `j` — the stayers — so surviving slots can be reused.
//! 3. **Rebuild** — the new policy's [`JoinPlan`] is laid out. A pair
//!    `(i, j)` joinable in both plans keeps its engine (stayers and
//!    their result intervals intact); other engines are built *empty*
//!    by the factory. Dropped engines drain their pending delta changelogs
//!    into the coordinator before they go — the delta extractor
//!    rechecks those pairs by membership, so dirt referring to
//!    re-homed pairs is harmless, and pairs pruned by the new join
//!    plan recheck as inactive exactly when their intervals say so.
//! 4. **Restore** — movers are re-registered into their new row/column
//!    (reused slots), and fresh slots get their *full* current
//!    membership, everything via
//!    [`restore_object`](ContinuousJoinEngine::restore_object) with the
//!    object's **original registration time**. That last part is the
//!    load-bearing bit: MTB buckets key removal by update time, so the
//!    next producer update (which still carries the old `last_update`)
//!    must find the object filed where it would have been without the
//!    rebalance — and the recomputed probe windows end at-or-after the
//!    original ones, so per-tick results are unchanged.
//!
//! Update-driven `migrations` and policy-driven `rebalance.moved`
//! objects are counted separately; both conserve populations.

use std::sync::Arc;

use cij_core::{
    apply_op_runs, publish_engine_totals, ContinuousJoinEngine, EngineConfig, EngineOp, PairKey,
    PairStatus,
};
use cij_geom::{MovingRect, Time};
use cij_join::{fan_out_tasks, JoinCounters};
use cij_obs::MetricsRegistry;
use cij_storage::{BufferPool, CacheSnapshot};
use cij_tpr::{ObjectId, TprError, TprResult};
use cij_workload::{MovingObject, ObjectUpdate, SetTag};
use parking_lot::Mutex;

use crate::adaptive::{AdaptiveConfig, AdaptiveController};
use crate::plan::JoinPlan;
use crate::policy::PartitionPolicy;
use crate::report::{PairReport, ShardReport};
use crate::router::{ObjectRecord, RebalanceMove, ShardRouter};

/// Builds one shard-pair engine over the given subsets. The coordinator
/// passes a clone of its shared pool and a `threads = 1` configuration
/// (parallelism lives across engines, not inside them), and keeps the
/// factory for the lifetime of the run: online re-partitioning builds
/// fresh shard-pair engines long after construction.
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

type PairSlot = Mutex<Box<dyn ContinuousJoinEngine + Send>>;

/// A `ContinuousJoinEngine` made of shard-pair engines (see the module
/// docs). Drop-in wherever a single engine runs: `run_simulation`, the
/// stream service's engine factory, the bench harness.
pub struct ShardCoordinator {
    pool: BufferPool,
    threads: usize,
    /// The per-engine configuration (threads = 1, metrics off) — kept
    /// so re-partitioning can build engines identical to construction.
    inner: EngineConfig,
    /// The slot layout of the router's current policy.
    plan: JoinPlan,
    /// One engine per slot of `plan`.
    slots: Vec<PairSlot>,
    router: ShardRouter,
    factory: SharedShardEngineFactory,
    /// Whether `enable_delta_tracking` was called — engines built
    /// mid-run must match the live slots' tracking state.
    delta_tracking: bool,
    /// Delta changelogs drained from engines dropped by a rebalance,
    /// surfaced on the next `take_result_changes`.
    pending_changes: Vec<PairKey>,
    adaptive: Option<AdaptiveController>,
    rebalances: u64,
    /// The coordinator's registry (disabled unless `config.metrics`).
    /// Inner engines run with metrics off — the coordinator owns the
    /// sharded run's telemetry, publishing per-slot counters itself.
    obs: MetricsRegistry,
}

impl ShardCoordinator {
    /// Partitions both sets under `policy`, builds one engine per
    /// joinable shard pair via `factory` (each on a clone of `pool`),
    /// and readies the router. `config.threads` sets the coordinator's
    /// fan-out width; inner engines always run their own traversals
    /// sequentially. The factory is kept: it builds the fresh engines
    /// of every later [`rebalance_to`](Self::rebalance_to).
    pub fn with_factory(
        pool: BufferPool,
        config: EngineConfig,
        policy: Arc<dyn PartitionPolicy>,
        set_a: &[MovingObject],
        set_b: &[MovingObject],
        now: Time,
        factory: SharedShardEngineFactory,
    ) -> TprResult<Self> {
        let plan = JoinPlan::new(&*policy);
        let mut router = ShardRouter::new(policy);
        let parts_a = router.place_set(SetTag::A, set_a, now);
        let parts_b = router.place_set(SetTag::B, set_b, now);

        let obs = MetricsRegistry::enabled_if(config.metrics);
        pool.stats().register_in(&obs, "storage.pool");

        let inner = EngineConfig {
            threads: 1,
            // One registry per sharded run: inner engines stay silent and
            // the coordinator publishes their counters under per-pair
            // names (see `publish_metrics`).
            metrics: false,
            ..config
        };
        let slots = plan
            .pairs()
            .iter()
            .map(|&(i, j)| {
                factory(pool.clone(), &inner, &parts_a[i], &parts_b[j], now).map(Mutex::new)
            })
            .collect::<TprResult<Vec<_>>>()?;

        Ok(Self {
            pool,
            threads: config.threads.max(1),
            inner,
            plan,
            slots,
            router,
            factory,
            delta_tracking: false,
            pending_changes: Vec::new(),
            adaptive: None,
            rebalances: 0,
            obs,
        })
    }

    /// Shards per object set.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.plan.shard_count()
    }

    /// Shard-pair engines in the join plan.
    #[must_use]
    pub fn engine_count(&self) -> usize {
        self.slots.len()
    }

    /// Cross-shard migrations routed so far (update-driven).
    #[must_use]
    pub fn migrations(&self) -> u64 {
        self.router.migrations()
    }

    /// Re-partition events committed so far.
    #[must_use]
    pub fn rebalances(&self) -> u64 {
        self.rebalances
    }

    /// Objects relocated by re-partitioning so far (policy-driven).
    #[must_use]
    pub fn rebalance_moved(&self) -> u64 {
        self.router.rebalanced()
    }

    /// The shard currently holding `id`.
    #[must_use]
    pub fn shard_of(&self, id: ObjectId) -> Option<usize> {
        self.router.shard_of(id)
    }

    /// Arms the adaptive partition controller: observed trajectories
    /// feed its quantile sketch, and after every applied batch the
    /// coordinator re-partitions whenever the controller proposes a
    /// better policy (see [`AdaptiveController`]). The sketch is seeded
    /// from the current live population so the first decision is
    /// informed.
    pub fn enable_adaptive(&mut self, cfg: AdaptiveConfig) -> TprResult<()> {
        let mut ctl = AdaptiveController::new(cfg);
        for (_, rec) in self.router.records() {
            ctl.observe(&rec.mbr);
        }
        self.adaptive = Some(ctl);
        Ok(())
    }

    /// Re-partitions the live join under `new_policy` at time `now`
    /// (see the module docs for the four-phase protocol) and returns
    /// how many objects moved.
    pub fn rebalance_to(
        &mut self,
        new_policy: Arc<dyn PartitionPolicy>,
        now: Time,
    ) -> TprResult<usize> {
        // Phase 1 (diff): who moves, sorted by id. The router is on the
        // new policy from here; `self.plan` stays the old layout.
        let moves = self.router.repartition(new_policy);

        // Phase 2 (evict): remove movers from their old row/column under
        // the old topology; slot (i, j) then holds exactly its stayers.
        // These lists and phase 4's borrow: K copies per mover show in RSS.
        let mut evictions: Vec<Vec<&RebalanceMove>> = vec![Vec::new(); self.slots.len()];
        for m in &moves {
            for &slot in self.plan.fan(m.record.set, m.from) {
                evictions[slot].push(m);
            }
        }
        self.for_each_slot(|i, engine| {
            for &&RebalanceMove { id, record, .. } in &evictions[i] {
                engine.remove_object(record.set, id, &record.mbr, record.last_update, now)?;
            }
            Ok(())
        })?;
        drop(evictions);

        // Phase 3 (rebuild): move to the new join plan, reusing the
        // engine of any pair joinable in both plans; build the rest
        // empty. Dropped engines give up their pending delta dirt.
        let new_plan = JoinPlan::new(&**self.router.policy());
        let old_plan = std::mem::replace(&mut self.plan, new_plan);
        let mut old_slots: Vec<Option<PairSlot>> = std::mem::take(&mut self.slots)
            .into_iter()
            .map(Some)
            .collect();
        let mut fresh = Vec::new();
        for (idx, &(i, j)) in self.plan.pairs().iter().enumerate() {
            let reused = old_plan.slot_of(i, j).and_then(|s| old_slots[s].take());
            self.slots.push(match reused {
                Some(slot) => slot,
                None => {
                    let mut engine = (self.factory)(self.pool.clone(), &self.inner, &[], &[], now)?;
                    if self.delta_tracking {
                        engine.enable_delta_tracking();
                    }
                    fresh.push(idx);
                    Mutex::new(engine)
                }
            });
        }
        for slot in old_slots.into_iter().flatten() {
            if let Some(changes) = slot.lock().take_result_changes() {
                self.pending_changes.extend(changes);
            }
        }

        // Phase 4 (restore): movers into reused slots of their new
        // row/column; fresh slots get their full current membership
        // (A's, then B's) — both with the original registration time,
        // id-sorted, via restore_object (incremental probes; no initial
        // join).
        let mut restores: Vec<Vec<(ObjectId, &ObjectRecord)>> = vec![Vec::new(); self.slots.len()];
        for m in &moves {
            for &slot in self.plan.fan(m.record.set, m.record.shard) {
                if !fresh.contains(&slot) {
                    restores[slot].push((m.id, &m.record));
                }
            }
        }
        if !fresh.is_empty() {
            let mut live: Vec<_> = self.router.records().collect();
            live.sort_unstable_by_key(|&(id, r)| (r.set == SetTag::B, id));
            for &slot in &fresh {
                let members = live
                    .iter()
                    .filter(|(_, r)| self.plan.fan(r.set, r.shard).contains(&slot));
                restores[slot].extend(members);
            }
        }
        self.for_each_slot(|i, engine| {
            for (id, rec) in &restores[i] {
                engine.restore_object(rec.set, *id, rec.mbr, rec.last_update, now)?;
            }
            Ok(())
        })?;

        self.rebalances += 1;
        if self.obs.is_enabled() {
            self.obs.counter("shard.rebalances").store(self.rebalances);
            self.obs
                .counter("shard.rebalance.moved_objects")
                .store(self.router.rebalanced());
            // Zero the names of shards and pairs the old plan had and
            // this one has not, so a snapshot only attributes load to
            // the topology that exists.
            for shard in self.plan.shard_count()..old_plan.shard_count() {
                for side in ["a", "b"] {
                    self.obs
                        .gauge(&format!("shard.population.{side}.{shard}"))
                        .set(0);
                }
            }
            for &(i, j) in old_plan.pairs() {
                if self.plan.slot_of(i, j).is_none() {
                    for metric in ["node_pairs", "pairs_emitted"] {
                        self.obs
                            .counter(&format!("shard.pair.{i}_{j}.{metric}"))
                            .store(0);
                    }
                }
            }
        }
        Ok(moves.len())
    }

    /// Asks the adaptive controller (when armed) whether the batch just
    /// applied warrants a re-partition, and commits it if so. Runs on
    /// the sequential path after every batch, so decisions depend only
    /// on the update stream.
    fn maybe_rebalance(&mut self, now: Time) -> TprResult<()> {
        let Some(ctl) = self.adaptive.as_mut() else {
            return Ok(());
        };
        let pops: Vec<usize> = (self.router.population(SetTag::A).iter())
            .zip(self.router.population(SetTag::B))
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

    /// Aggregated diagnostics: per-pair counters, shard populations,
    /// migrations and rebalances, and the shared pool's I/O. When
    /// metrics are enabled the report also carries a
    /// published [`MetricsSnapshot`](cij_obs::MetricsSnapshot) of the
    /// coordinator's registry.
    #[must_use]
    pub fn report(&self) -> ShardReport {
        let metrics = self.obs.is_enabled().then(|| {
            self.publish_metrics();
            self.obs.snapshot()
        });
        let pairs = (self.plan.pairs().iter().zip(&self.slots))
            .map(|(&(shard_a, shard_b), slot)| PairReport {
                shard_a,
                shard_b,
                counters: slot.lock().counters(),
            })
            .collect();
        ShardReport::new(
            &self.router,
            self.threads,
            self.rebalances,
            pairs,
            self.pool.stats().snapshot(),
            metrics,
        )
    }

    /// Runs `f(slot, engine)` for every slot, fanned out over the
    /// coordinator's threads, surfacing the first error in slot order.
    fn for_each_slot(
        &self,
        f: impl Fn(usize, &mut (dyn ContinuousJoinEngine + Send)) -> TprResult<()> + Sync,
    ) -> TprResult<()> {
        let results = fan_out_tasks(self.slots.len(), self.threads, |i| {
            f(i, &mut **self.slots[i].lock())
        });
        results.into_iter().collect()
    }
}

impl ContinuousJoinEngine for ShardCoordinator {
    fn name(&self) -> &'static str {
        "Sharded"
    }

    fn run_initial_join(&mut self, now: Time) -> TprResult<()> {
        self.for_each_slot(|_, e| e.run_initial_join(now))
    }

    fn advance_time(&mut self, now: Time) -> TprResult<()> {
        self.for_each_slot(|_, e| e.advance_time(now))
    }

    fn apply_update(&mut self, update: &ObjectUpdate, now: Time) -> TprResult<()> {
        self.apply_batch(std::slice::from_ref(update), now)
    }

    fn apply_batch(&mut self, updates: &[ObjectUpdate], now: Time) -> TprResult<()> {
        if updates.is_empty() {
            return Ok(());
        }
        let mut ops: Vec<Vec<EngineOp>> = vec![Vec::new(); self.slots.len()];
        for u in updates {
            if let Some(ctl) = self.adaptive.as_mut() {
                ctl.observe(&u.new_mbr);
            }
            self.router.project(u, now, &self.plan, &mut ops);
        }
        self.for_each_slot(|i, engine| apply_op_runs(engine, &ops[i], now))?;
        self.maybe_rebalance(now)
    }

    fn insert_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        mbr: MovingRect,
        now: Time,
    ) -> TprResult<()> {
        if let Some(ctl) = self.adaptive.as_mut() {
            ctl.observe(&mbr);
        }
        let shard = self.router.place(id, set, &mbr, now);
        for &slot in self.plan.fan(set, shard) {
            self.slots[slot].lock().insert_object(set, id, mbr, now)?;
        }
        Ok(())
    }

    fn remove_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        old_mbr: &MovingRect,
        last_update: Time,
        now: Time,
    ) -> TprResult<()> {
        let Some(record) = self.router.remove(set, id) else {
            return Err(TprError::ObjectNotFound(id));
        };
        for &slot in self.plan.fan(set, record.shard) {
            self.slots[slot]
                .lock()
                .remove_object(set, id, old_mbr, last_update, now)?;
        }
        Ok(())
    }

    fn gc(&mut self, now: Time) {
        for slot in &self.slots {
            slot.lock().gc(now);
        }
    }

    fn result_at(&self, t: Time) -> Vec<PairKey> {
        let mut out = Vec::new();
        for slot in &self.slots {
            out.extend(slot.lock().result_at(t));
        }
        // Each pair lives in exactly one engine, so the dedup is a
        // no-op in correct runs — kept so the merged answer is
        // canonical by construction.
        out.sort_unstable();
        out.dedup();
        out
    }

    fn pool(&self) -> &BufferPool {
        &self.pool
    }

    fn counters(&self) -> JoinCounters {
        self.slots.iter().fold(JoinCounters::new(), |acc, s| {
            acc.merged(s.lock().counters())
        })
    }

    fn enable_delta_tracking(&mut self) {
        self.delta_tracking = true;
        for slot in &self.slots {
            slot.lock().enable_delta_tracking();
        }
    }

    fn take_result_changes(&mut self) -> Option<Vec<PairKey>> {
        let mut out = Vec::new();
        for slot in &self.slots {
            out.extend(slot.lock().take_result_changes()?);
        }
        // Dirt inherited from engines a rebalance dropped: the consumer
        // rechecks by membership, so stale references are harmless and
        // pruned pairs resolve to their true (inactive) status.
        out.append(&mut self.pending_changes);
        out.sort_unstable();
        out.dedup();
        Some(out)
    }

    fn pair_status_at(&self, pair: PairKey, t: Time) -> PairStatus {
        match self.router.slot_of_pair(pair, &self.plan) {
            Some(slot) => self.slots[slot].lock().pair_status_at(pair, t),
            None => PairStatus::default(),
        }
    }

    fn page_format_snapshot(&self) -> Option<CacheSnapshot> {
        self.slots.iter().fold(None, |acc, s| {
            match (acc, s.lock().page_format_snapshot()) {
                (Some(x), Some(y)) => Some(x.merged(&y)),
                (x, None) => x,
                (None, y) => y,
            }
        })
    }

    fn metrics_registry(&self) -> MetricsRegistry {
        self.obs.clone()
    }

    fn publish_metrics(&self) {
        if !self.obs.is_enabled() {
            return;
        }
        publish_engine_totals(&self.obs, self.counters(), self.page_format_snapshot());
        self.obs
            .counter("shard.migrations")
            .store(self.router.migrations());
        self.obs.counter("shard.rebalances").store(self.rebalances);
        self.obs
            .counter("shard.rebalance.moved_objects")
            .store(self.router.rebalanced());
        self.obs.gauge("shard.engines").set(self.slots.len() as i64);
        for (side, set) in [("a", SetTag::A), ("b", SetTag::B)] {
            for (shard, &n) in self.router.population(set).iter().enumerate() {
                self.obs
                    .gauge(&format!("shard.population.{side}.{shard}"))
                    .set(n as i64);
            }
        }
        for (&(i, j), slot) in self.plan.pairs().iter().zip(&self.slots) {
            let c = slot.lock().counters();
            let prefix = format!("shard.pair.{i}_{j}");
            self.obs
                .counter(&format!("{prefix}.node_pairs"))
                .store(c.node_pairs);
            self.obs
                .counter(&format!("{prefix}.pairs_emitted"))
                .store(c.pairs_emitted);
        }
    }
}
