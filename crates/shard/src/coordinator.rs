//! The shard coordinator: K×K (or fewer) shard-pair engines behind the
//! single-engine protocol.
//!
//! # Topology
//!
//! A [`PartitionPolicy`] splits each object set into `K` shards. For
//! every *joinable* shard pair `(i, j)` the coordinator builds one full
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
//! A same-shard update is applied (as a plain `apply_update`) to every
//! engine of the object's row/column. A partition-crossing update
//! becomes `remove_object` from the old row/column plus `insert_object`
//! into the new one — one logical update, exact mirror halves of
//! `apply_update`. [`apply_batch`](ContinuousJoinEngine::apply_batch)
//! projects the tick's update sequence onto each engine (preserving
//! order) and fans the per-engine op lists out over
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
//! 3. **Rebuild** — the new join plan is laid out. A pair `(i, j)`
//!    joinable in both plans keeps its engine (stayers and their result
//!    intervals intact); other engines are built *empty* by the stored
//!    factory. Dropped engines drain their pending delta changelogs
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

use std::collections::{HashMap, HashSet};
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
use crate::policy::PartitionPolicy;
use crate::report::{PairReport, ShardReport};
use crate::router::{RebalanceMove, RouteDecision, ShardRouter};

/// Builds one shard-pair engine over the given subsets. The coordinator
/// passes a clone of its shared pool and a `threads = 1` configuration
/// (parallelism lives across engines, not inside them).
pub type ShardEngineFactory<'a> = dyn Fn(
        BufferPool,
        &EngineConfig,
        &[MovingObject],
        &[MovingObject],
        Time,
    ) -> TprResult<Box<dyn ContinuousJoinEngine + Send>>
    + 'a;

/// An owned, shareable engine factory the coordinator can keep for the
/// lifetime of the run — required for online re-partitioning, which
/// must build fresh shard-pair engines long after construction. Same
/// contract as [`ShardEngineFactory`].
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

/// One re-registration in a rebalance's restore phase.
#[derive(Debug, Clone, Copy)]
struct RestoreOp {
    set: SetTag,
    id: ObjectId,
    mbr: MovingRect,
    registered_at: Time,
}

struct PairSlot {
    shard_a: usize,
    shard_b: usize,
    engine: Mutex<Box<dyn ContinuousJoinEngine + Send>>,
}

/// Names already published to the registry, so a topology change can
/// zero out gauges/counters of shards and pairs that no longer exist
/// (snapshots stay an honest view of the *current* topology).
#[derive(Default)]
struct PublishedTopology {
    shards: usize,
    pairs: HashSet<(usize, usize)>,
}

/// A `ContinuousJoinEngine` made of shard-pair engines (see the module
/// docs). Drop-in wherever a single engine runs: `run_simulation`, the
/// stream service's engine factory, the bench harness.
pub struct ShardCoordinator {
    policy: Arc<dyn PartitionPolicy>,
    pool: BufferPool,
    threads: usize,
    /// The per-engine configuration (threads = 1, metrics off) — kept
    /// so re-partitioning can build engines identical to construction.
    inner: EngineConfig,
    slots: Vec<PairSlot>,
    /// (shard_a, shard_b) → index into `slots` for joinable pairs.
    slot_of: HashMap<(usize, usize), usize>,
    /// Slot indices of row i (A-shard i) / column j (B-shard j).
    rows: Vec<Vec<usize>>,
    cols: Vec<Vec<usize>>,
    router: ShardRouter,
    population_a: Vec<usize>,
    population_b: Vec<usize>,
    /// Stored factory enabling online re-partitioning (`None` under the
    /// borrowed-factory constructor — rebalancing then errors).
    factory: Option<SharedShardEngineFactory>,
    /// Whether `enable_delta_tracking` was called — engines built
    /// mid-run must match the live slots' tracking state.
    delta_tracking: bool,
    /// Delta changelogs drained from engines dropped by a rebalance,
    /// surfaced on the next `take_result_changes`.
    pending_changes: Vec<PairKey>,
    adaptive: Option<AdaptiveController>,
    rebalances: u64,
    rebalance_moved: u64,
    /// The coordinator's registry (disabled unless `config.metrics`).
    /// Inner engines run with metrics off — the coordinator owns the
    /// sharded run's telemetry, publishing per-slot counters itself.
    obs: MetricsRegistry,
    published: Mutex<PublishedTopology>,
}

impl ShardCoordinator {
    /// Partitions both sets under `policy`, builds one engine per
    /// joinable shard pair via `factory` (each on a clone of `pool`),
    /// and readies the router. `config.threads` sets the coordinator's
    /// fan-out width; inner engines always run their own traversals
    /// sequentially.
    ///
    /// The factory is borrowed for construction only, so the resulting
    /// coordinator cannot re-partition online — use
    /// [`with_factory`](Self::with_factory) for that.
    pub fn new(
        pool: BufferPool,
        config: EngineConfig,
        policy: Arc<dyn PartitionPolicy>,
        set_a: &[MovingObject],
        set_b: &[MovingObject],
        now: Time,
        factory: &ShardEngineFactory<'_>,
    ) -> TprResult<Self> {
        let k = policy.shard_count();
        let mut router = ShardRouter::new(policy.clone());
        let mut parts_a: Vec<Vec<MovingObject>> = vec![Vec::new(); k];
        let mut parts_b: Vec<Vec<MovingObject>> = vec![Vec::new(); k];
        for o in set_a {
            parts_a[router.place(o.id, SetTag::A, &o.mbr, now)].push(*o);
        }
        for o in set_b {
            parts_b[router.place(o.id, SetTag::B, &o.mbr, now)].push(*o);
        }

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
        let mut slots = Vec::new();
        let mut slot_of = HashMap::new();
        let mut rows = vec![Vec::new(); k];
        let mut cols = vec![Vec::new(); k];
        for i in 0..k {
            for j in 0..k {
                if !policy.joinable(i, j) {
                    continue;
                }
                let engine = factory(pool.clone(), &inner, &parts_a[i], &parts_b[j], now)?;
                let idx = slots.len();
                slots.push(PairSlot {
                    shard_a: i,
                    shard_b: j,
                    engine: Mutex::new(engine),
                });
                slot_of.insert((i, j), idx);
                rows[i].push(idx);
                cols[j].push(idx);
            }
        }

        Ok(Self {
            policy,
            pool,
            threads: config.threads.max(1),
            inner,
            slots,
            slot_of,
            rows,
            cols,
            router,
            population_a: parts_a.iter().map(Vec::len).collect(),
            population_b: parts_b.iter().map(Vec::len).collect(),
            factory: None,
            delta_tracking: false,
            pending_changes: Vec::new(),
            adaptive: None,
            rebalances: 0,
            rebalance_moved: 0,
            obs,
            published: Mutex::new(PublishedTopology::default()),
        })
    }

    /// Like [`new`](Self::new), but stores the (shared, owned) factory
    /// so the coordinator can build engines mid-run — the constructor
    /// for anything that re-partitions:
    /// [`rebalance_to`](Self::rebalance_to) and
    /// [`enable_adaptive`](Self::enable_adaptive).
    pub fn with_factory(
        pool: BufferPool,
        config: EngineConfig,
        policy: Arc<dyn PartitionPolicy>,
        set_a: &[MovingObject],
        set_b: &[MovingObject],
        now: Time,
        factory: SharedShardEngineFactory,
    ) -> TprResult<Self> {
        let borrowed =
            |p: BufferPool, c: &EngineConfig, a: &[MovingObject], b: &[MovingObject], t: Time| {
                factory(p, c, a, b, t)
            };
        let mut this = Self::new(pool, config, policy, set_a, set_b, now, &borrowed)?;
        this.factory = Some(factory);
        Ok(this)
    }

    /// Shards per object set.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.policy.shard_count()
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
        self.rebalance_moved
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
    /// informed. Errors unless the coordinator was built
    /// [`with_factory`](Self::with_factory).
    pub fn enable_adaptive(&mut self, cfg: AdaptiveConfig) -> TprResult<()> {
        if self.factory.is_none() {
            return Err(TprError::Unsupported {
                what: "adaptive sharding requires ShardCoordinator::with_factory \
                       (a stored engine factory for online re-partitioning)"
                    .to_string(),
            });
        }
        let mut ctl = AdaptiveController::new(cfg);
        for (_, rec) in self.router.records() {
            ctl.observe(&rec.mbr);
        }
        self.adaptive = Some(ctl);
        Ok(())
    }

    /// Re-partitions the live join under `new_policy` at time `now`
    /// (see the module docs for the four-phase protocol) and returns
    /// how many objects moved. Errors unless the coordinator was built
    /// [`with_factory`](Self::with_factory).
    pub fn rebalance_to(
        &mut self,
        new_policy: Arc<dyn PartitionPolicy>,
        now: Time,
    ) -> TprResult<usize> {
        let factory = self.factory.clone().ok_or_else(|| TprError::Unsupported {
            what: "online re-partitioning requires ShardCoordinator::with_factory \
                   (a stored engine factory)"
                .to_string(),
        })?;

        // Phase 1 (diff): who moves, sorted by id.
        let moves = self.router.repartition(new_policy.clone());

        // Phase 2 (evict): remove movers from their old row/column,
        // under the old topology. Slot (i, j) then holds exactly its
        // stayers.
        let mut evictions: Vec<Vec<&RebalanceMove>> = vec![Vec::new(); self.slots.len()];
        for m in &moves {
            for &slot in self.fan(m.set, m.from) {
                evictions[slot].push(m);
            }
        }
        let results = fan_out_tasks(self.slots.len(), self.threads, |i| {
            if evictions[i].is_empty() {
                return Ok(());
            }
            let mut engine = self.slots[i].engine.lock();
            for m in &evictions[i] {
                engine.remove_object(m.set, m.id, &m.mbr, m.last_update, now)?;
            }
            Ok(())
        });
        results.into_iter().collect::<TprResult<()>>()?;
        drop(evictions);

        // Phase 3 (rebuild): lay out the new join plan, reusing the
        // engine of any pair joinable in both plans; build the rest
        // empty. Dropped engines give up their pending delta dirt.
        let new_k = new_policy.shard_count();
        let mut old_slots: Vec<Option<PairSlot>> = std::mem::take(&mut self.slots)
            .into_iter()
            .map(Some)
            .collect();
        let old_slot_of = std::mem::take(&mut self.slot_of);
        let mut slots = Vec::new();
        let mut slot_of = HashMap::new();
        let mut rows = vec![Vec::new(); new_k];
        let mut cols = vec![Vec::new(); new_k];
        let mut fresh = HashSet::new();
        for (i, row) in rows.iter_mut().enumerate() {
            for (j, col) in cols.iter_mut().enumerate() {
                if !new_policy.joinable(i, j) {
                    continue;
                }
                let idx = slots.len();
                let reused = old_slot_of.get(&(i, j)).and_then(|&s| old_slots[s].take());
                match reused {
                    Some(slot) => slots.push(slot),
                    None => {
                        let mut engine = factory(self.pool.clone(), &self.inner, &[], &[], now)?;
                        if self.delta_tracking {
                            engine.enable_delta_tracking();
                        }
                        slots.push(PairSlot {
                            shard_a: i,
                            shard_b: j,
                            engine: Mutex::new(engine),
                        });
                        fresh.insert(idx);
                    }
                }
                slot_of.insert((i, j), idx);
                row.push(idx);
                col.push(idx);
            }
        }
        for slot in old_slots.into_iter().flatten() {
            if let Some(changes) = slot.engine.lock().take_result_changes() {
                self.pending_changes.extend(changes);
            }
        }
        self.slots = slots;
        self.slot_of = slot_of;
        self.rows = rows;
        self.cols = cols;
        self.policy = new_policy;

        // Phase 4 (restore): movers into reused slots of their new
        // row/column; fresh slots get their full current membership —
        // both with the original registration time, id-sorted, via
        // restore_object (incremental probes; no initial join).
        let mut restores: Vec<Vec<RestoreOp>> = vec![Vec::new(); self.slots.len()];
        for m in &moves {
            for &slot in self.fan(m.set, m.to) {
                if !fresh.contains(&slot) {
                    restores[slot].push(RestoreOp {
                        set: m.set,
                        id: m.id,
                        mbr: m.mbr,
                        registered_at: m.last_update,
                    });
                }
            }
        }
        if !fresh.is_empty() {
            let mut members_a: Vec<Vec<RestoreOp>> = vec![Vec::new(); new_k];
            let mut members_b: Vec<Vec<RestoreOp>> = vec![Vec::new(); new_k];
            for (id, rec) in self.router.records() {
                let op = RestoreOp {
                    set: rec.set,
                    id,
                    mbr: rec.mbr,
                    registered_at: rec.last_update,
                };
                match rec.set {
                    SetTag::A => members_a[rec.shard].push(op),
                    SetTag::B => members_b[rec.shard].push(op),
                }
            }
            for side in members_a.iter_mut().chain(members_b.iter_mut()) {
                side.sort_unstable_by_key(|op| op.id);
            }
            for &slot in &fresh {
                let (i, j) = (self.slots[slot].shard_a, self.slots[slot].shard_b);
                restores[slot].extend_from_slice(&members_a[i]);
                restores[slot].extend_from_slice(&members_b[j]);
            }
        }
        let results = fan_out_tasks(self.slots.len(), self.threads, |i| {
            if restores[i].is_empty() {
                return Ok(());
            }
            let mut engine = self.slots[i].engine.lock();
            for r in &restores[i] {
                engine.restore_object(r.set, r.id, r.mbr, r.registered_at, now)?;
            }
            Ok(())
        });
        results.into_iter().collect::<TprResult<()>>()?;

        self.population_a = vec![0; new_k];
        self.population_b = vec![0; new_k];
        for (_, rec) in self.router.records() {
            match rec.set {
                SetTag::A => self.population_a[rec.shard] += 1,
                SetTag::B => self.population_b[rec.shard] += 1,
            }
        }
        self.rebalances += 1;
        self.rebalance_moved += moves.len() as u64;
        if self.obs.is_enabled() {
            self.obs.counter("shard.rebalances").store(self.rebalances);
            self.obs
                .counter("shard.rebalance.moved_objects")
                .store(self.rebalance_moved);
        }
        Ok(moves.len())
    }

    /// Asks the adaptive controller (when armed) whether the batch just
    /// applied warrants a re-partition, and commits it if so. Runs on
    /// the sequential path after every batch, so decisions depend only
    /// on the update stream.
    fn maybe_rebalance(&mut self, now: Time) -> TprResult<()> {
        let proposal = match self.adaptive.as_mut() {
            None => return Ok(()),
            Some(ctl) => {
                let pops: Vec<usize> = self
                    .population_a
                    .iter()
                    .zip(&self.population_b)
                    .map(|(a, b)| a + b)
                    .collect();
                ctl.decide(now, &pops)
            }
        };
        if let Some(policy) = proposal {
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
        ShardReport {
            policy: self.policy.name(),
            k: self.policy.shard_count(),
            threads: self.threads,
            migrations: self.router.migrations(),
            rebalances: self.rebalances,
            rebalance_moved: self.rebalance_moved,
            population_a: self.population_a.clone(),
            population_b: self.population_b.clone(),
            pairs: self
                .slots
                .iter()
                .map(|s| {
                    let engine = s.engine.lock();
                    PairReport {
                        shard_a: s.shard_a,
                        shard_b: s.shard_b,
                        counters: engine.counters(),
                    }
                })
                .collect(),
            io: self.pool.stats().snapshot(),
            metrics,
        }
    }

    /// The slot indices an update of (`set`, shard) must reach: the
    /// whole row for A-objects, the whole column for B-objects.
    fn fan(&self, set: SetTag, shard: usize) -> &[usize] {
        match set {
            SetTag::A => &self.rows[shard],
            SetTag::B => &self.cols[shard],
        }
    }

    /// Projects one update onto per-slot operations, updating the
    /// router's placement (and the adaptive sketch) as a side effect.
    fn route_ops(&mut self, update: &ObjectUpdate, ops: &mut [Vec<EngineOp>], now: Time) {
        if let Some(ctl) = self.adaptive.as_mut() {
            ctl.observe(&update.new_mbr);
        }
        match self.router.route(update, now) {
            RouteDecision::Stay(shard) => {
                for &slot in self.fan(update.set, shard) {
                    ops[slot].push(EngineOp::Apply(*update));
                }
            }
            RouteDecision::Migrate { from, to } => {
                for &slot in self.fan(update.set, from) {
                    ops[slot].push(EngineOp::Remove {
                        set: update.set,
                        id: update.id,
                        old_mbr: update.old_mbr,
                        last_update: update.last_update,
                    });
                }
                for &slot in self.fan(update.set, to) {
                    ops[slot].push(EngineOp::Insert {
                        set: update.set,
                        id: update.id,
                        mbr: update.new_mbr,
                    });
                }
                match update.set {
                    SetTag::A => {
                        self.population_a[from] -= 1;
                        self.population_a[to] += 1;
                    }
                    SetTag::B => {
                        self.population_b[from] -= 1;
                        self.population_b[to] += 1;
                    }
                }
            }
        }
    }

    /// Executes per-slot op lists: fans slots with work out over the
    /// coordinator's threads, surfaces the first error in slot order.
    fn execute_ops(&self, ops: &[Vec<EngineOp>], now: Time) -> TprResult<()> {
        let results = fan_out_tasks(self.slots.len(), self.threads, |i| {
            let slot_ops = &ops[i];
            if slot_ops.is_empty() {
                return Ok(());
            }
            let mut engine = self.slots[i].engine.lock();
            apply_op_runs(&mut **engine, slot_ops, now)
        });
        results.into_iter().collect()
    }

    /// Runs `f` against every engine in parallel, surfacing the first
    /// error in slot order.
    fn for_each_engine(
        &self,
        f: impl Fn(&mut (dyn ContinuousJoinEngine + Send)) -> TprResult<()> + Sync,
    ) -> TprResult<()> {
        let results = fan_out_tasks(self.slots.len(), self.threads, |i| {
            f(&mut **self.slots[i].engine.lock())
        });
        results.into_iter().collect()
    }
}

impl ContinuousJoinEngine for ShardCoordinator {
    fn name(&self) -> &'static str {
        "Sharded"
    }

    fn run_initial_join(&mut self, now: Time) -> TprResult<()> {
        self.for_each_engine(|e| e.run_initial_join(now))
    }

    fn advance_time(&mut self, now: Time) -> TprResult<()> {
        self.for_each_engine(|e| e.advance_time(now))
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
            self.route_ops(u, &mut ops, now);
        }
        self.execute_ops(&ops, now)?;
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
        match set {
            SetTag::A => self.population_a[shard] += 1,
            SetTag::B => self.population_b[shard] += 1,
        }
        for &slot in self.fan(set, shard) {
            self.slots[slot]
                .engine
                .lock()
                .insert_object(set, id, mbr, now)?;
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
        let Some(record) = self.router.remove(id) else {
            return Err(TprError::ObjectNotFound(id));
        };
        let shard = record.shard;
        match set {
            SetTag::A => self.population_a[shard] -= 1,
            SetTag::B => self.population_b[shard] -= 1,
        }
        for &slot in self.fan(set, shard) {
            self.slots[slot]
                .engine
                .lock()
                .remove_object(set, id, old_mbr, last_update, now)?;
        }
        Ok(())
    }

    fn gc(&mut self, now: Time) {
        for slot in &self.slots {
            slot.engine.lock().gc(now);
        }
    }

    fn result_at(&self, t: Time) -> Vec<PairKey> {
        let mut out = Vec::new();
        for slot in &self.slots {
            out.extend(slot.engine.lock().result_at(t));
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
            acc.merged(s.engine.lock().counters())
        })
    }

    fn enable_delta_tracking(&mut self) {
        self.delta_tracking = true;
        for slot in &self.slots {
            slot.engine.lock().enable_delta_tracking();
        }
    }

    fn take_result_changes(&mut self) -> Option<Vec<PairKey>> {
        let mut out = Vec::new();
        for slot in &self.slots {
            out.extend(slot.engine.lock().take_result_changes()?);
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
        let (Some(sa), Some(sb)) = (self.router.shard_of(pair.0), self.router.shard_of(pair.1))
        else {
            return PairStatus::default();
        };
        match self.slot_of.get(&(sa, sb)) {
            Some(&slot) => self.slots[slot].engine.lock().pair_status_at(pair, t),
            // Pruned by the join plan: the policy guarantees the pair
            // can never be active at an observable time.
            None => PairStatus::default(),
        }
    }

    fn page_format_snapshot(&self) -> Option<CacheSnapshot> {
        self.slots.iter().fold(None, |acc, s| {
            match (acc, s.engine.lock().page_format_snapshot()) {
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
            .store(self.rebalance_moved);
        self.obs.gauge("shard.engines").set(self.slots.len() as i64);
        let k = self.population_a.len();
        for (shard, (&a, &b)) in self.population_a.iter().zip(&self.population_b).enumerate() {
            self.obs
                .gauge(&format!("shard.population.a.{shard}"))
                .set(a as i64);
            self.obs
                .gauge(&format!("shard.population.b.{shard}"))
                .set(b as i64);
        }
        let current: HashSet<(usize, usize)> =
            self.slots.iter().map(|s| (s.shard_a, s.shard_b)).collect();
        for s in &self.slots {
            let c = s.engine.lock().counters();
            let prefix = format!("shard.pair.{}_{}", s.shard_a, s.shard_b);
            self.obs
                .counter(&format!("{prefix}.node_pairs"))
                .store(c.node_pairs);
            self.obs
                .counter(&format!("{prefix}.pairs_emitted"))
                .store(c.pairs_emitted);
        }
        // Zero out names from topologies a rebalance retired, so the
        // snapshot only attributes load to shards/pairs that exist.
        let mut published = self.published.lock();
        for shard in k..published.shards {
            self.obs
                .gauge(&format!("shard.population.a.{shard}"))
                .set(0);
            self.obs
                .gauge(&format!("shard.population.b.{shard}"))
                .set(0);
        }
        for &(i, j) in published.pairs.difference(&current) {
            self.obs
                .counter(&format!("shard.pair.{i}_{j}.node_pairs"))
                .store(0);
            self.obs
                .counter(&format!("shard.pair.{i}_{j}.pairs_emitted"))
                .store(0);
        }
        published.shards = k;
        published.pairs = current;
    }
}
