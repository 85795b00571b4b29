//! The four continuous-join engines.
//!
//! Each engine owns the indexes of both object sets (reading through one
//! shared buffer pool, like the paper's single-disk testbed), a result
//! store, and implements the same three-call protocol:
//!
//! 1. [`run_initial_join`](ContinuousJoinEngine::run_initial_join) once,
//! 2. [`advance_time`](ContinuousJoinEngine::advance_time) +
//!    [`apply_update`](ContinuousJoinEngine::apply_update) as the
//!    workload unfolds,
//! 3. [`result_at`](ContinuousJoinEngine::result_at) whenever the answer
//!    is read.
//!
//! The engines differ exactly where the paper says they differ: the time
//! window each join run computes (∞ / `t_u + T_M` / per-bucket), and
//! whether answer updates are triggered by result changes (ETP) or only
//! by object updates (all others).

use std::collections::{HashMap, HashSet};

use cij_geom::{MovingRect, Time, INFINITE_TIME};
use cij_join::{
    parallel_improved_join, parallel_improved_multi_join, parallel_naive_join, probe_batch,
    tp_join, tp_object_probe, JoinCounters, JoinJob, JoinScratch, ProbeHit, Techniques,
};
use cij_obs::MetricsRegistry;
use cij_storage::{BufferPool, CacheSnapshot};
use cij_tpr::{ObjectId, TprResult, TprTree, TreeConfig};
use cij_workload::{MovingObject, ObjectUpdate, SetTag};

use crate::mtb::MtbTree;
use crate::result::{PairKey, PairStatus, ResultBuffer};

/// Shared engine configuration.
///
/// Construct via [`EngineConfig::builder`] (or `..Default::default()`
/// struct update); stream-service knobs (batch capacity, WAL path,
/// outbox capacity) live in `cij-stream`'s `StreamConfig`, which embeds
/// this type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Maximum update interval `T_M`.
    pub t_m: Time,
    /// Index configuration (capacity, horizon, …).
    pub tree: TreeConfig,
    /// Improvement techniques for tree-vs-tree joins (TC and MTB
    /// engines; Fig. 7 runs TC with `techniques::NONE`, Fig. 9+ run MTB
    /// with `techniques::ALL`).
    pub techniques: Techniques,
    /// MTB buckets per `T_M` (the paper follows the Bˣ-tree: 2).
    pub buckets_per_tm: u32,
    /// Worker threads for tree-vs-tree join traversals. `1` (the
    /// default) runs the exact sequential code paths of the paper's
    /// single-disk testbed; `> 1` fans the traversal worklist out over
    /// scoped threads, with results guaranteed bit-identical to the
    /// sequential runs (see `cij_join::parallel_improved_join`).
    pub threads: usize,
    /// Whether the engine records into a `cij-obs` metrics registry
    /// (per-phase spans, I/O and cache counters, traversal totals).
    /// `false` (the default) makes every handle a no-op: no allocation,
    /// no atomics, a single branch per record call.
    pub metrics: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            t_m: 60.0,
            tree: TreeConfig::default(),
            techniques: cij_join::techniques::ALL,
            buckets_per_tm: 2,
            threads: 1,
            metrics: false,
        }
    }
}

impl EngineConfig {
    /// Starts a builder at the paper's defaults (`T_M = 60`, Table-I
    /// tree, all techniques, 2 buckets per `T_M`, 1 thread).
    #[must_use]
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: Self::default(),
        }
    }

    /// Re-opens this configuration as a builder, so call sites can
    /// tweak one knob without a struct literal:
    /// `config.to_builder().threads(4).build()`.
    #[must_use]
    pub fn to_builder(self) -> EngineConfigBuilder {
        EngineConfigBuilder { config: self }
    }
}

/// Builder for [`EngineConfig`]. Every setter has a documented default
/// (see the field docs); `build` is infallible and
/// `config.to_builder().build()` round-trips exactly.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Maximum update interval `T_M` (default 60).
    #[must_use]
    pub fn t_m(mut self, t_m: Time) -> Self {
        self.config.t_m = t_m;
        self
    }

    /// Index configuration (default [`TreeConfig::default`]).
    #[must_use]
    pub fn tree(mut self, tree: TreeConfig) -> Self {
        self.config.tree = tree;
        self
    }

    /// Improvement techniques (default [`cij_join::techniques::ALL`]).
    #[must_use]
    pub fn techniques(mut self, techniques: Techniques) -> Self {
        self.config.techniques = techniques;
        self
    }

    /// MTB buckets per `T_M` (default 2, the Bˣ-tree convention).
    #[must_use]
    pub fn buckets_per_tm(mut self, buckets: u32) -> Self {
        self.config.buckets_per_tm = buckets;
        self
    }

    /// Worker threads for join traversals (default 1 = the paper's
    /// sequential code path).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Whether the engine records observability metrics (default false =
    /// zero-overhead no-op handles).
    #[must_use]
    pub fn metrics(mut self, metrics: bool) -> Self {
        self.config.metrics = metrics;
        self
    }

    /// Finishes the configuration.
    #[must_use]
    pub fn build(self) -> EngineConfig {
        self.config
    }
}

/// The protocol every continuous-join engine implements.
pub trait ContinuousJoinEngine {
    /// Algorithm name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Computes the initial answer at time `now` (phase 1 of §II-A).
    fn run_initial_join(&mut self, now: Time) -> TprResult<()>;

    /// Processes result-change events up to `now`. Only the ETP engine
    /// does work here; for the others maintenance is purely
    /// update-driven.
    fn advance_time(&mut self, _now: Time) -> TprResult<()> {
        Ok(())
    }

    /// Applies one object update at time `now`: re-registers the object
    /// in the index and refreshes the answer (phase 2 of §II-A).
    fn apply_update(&mut self, update: &ObjectUpdate, now: Time) -> TprResult<()>;

    /// Applies one tick's updates, all stamped `now`; the answer
    /// afterwards is the one the updates applied one by one, in order,
    /// would leave. The default is that loop. The TC and MTB engines run
    /// the tick in two phases instead — every index mutation first, then
    /// one synchronized probe of the whole batch per tree of the other
    /// side (`TickProbes`) — and the shard coordinator and the dist
    /// worker hand each inner engine its consecutive updates as one batch
    /// ([`apply_op_runs`]), so every stack shares the traversals.
    fn apply_batch(&mut self, updates: &[ObjectUpdate], now: Time) -> TprResult<()> {
        for u in updates {
            self.apply_update(u, now)?;
        }
        Ok(())
    }

    /// Registers a brand-new object on side `set` at `now` (`mbr.t_ref`
    /// must be `now`) and joins it against the other side, adding the
    /// discovered pairs to the answer. Together with
    /// [`remove_object`](Self::remove_object) this is exactly one half
    /// of [`apply_update`](Self::apply_update), split so a shard router
    /// can migrate an object across engines as delete-here + insert-there
    /// within a single logical update. Engines without an interval
    /// result buffer (ETP) return [`cij_tpr::TprError::Unsupported`].
    fn insert_object(
        &mut self,
        _set: SetTag,
        _id: ObjectId,
        _mbr: MovingRect,
        _now: Time,
    ) -> TprResult<()> {
        Err(cij_tpr::TprError::Unsupported {
            what: format!("routed insert_object on {}", self.name()),
        })
    }

    /// Deregisters object `id` from side `set` (located via its current
    /// trajectory `old_mbr` registered at `last_update`) and drops every
    /// result pair involving it. The other half of a routed migration —
    /// see [`insert_object`](Self::insert_object).
    fn remove_object(
        &mut self,
        _set: SetTag,
        _id: ObjectId,
        _old_mbr: &MovingRect,
        _last_update: Time,
        _now: Time,
    ) -> TprResult<()> {
        Err(cij_tpr::TprError::Unsupported {
            what: format!("routed remove_object on {}", self.name()),
        })
    }

    /// Re-registers an object that is *already live in the system* —
    /// last updated at `registered_at ≤ now` — into this engine at
    /// `now`, and joins it against the other side. The shard
    /// coordinator's re-partition path moves objects between engines
    /// *without* a fresh trajectory update, so unlike
    /// [`insert_object`](Self::insert_object) (where `mbr.t_ref == now`)
    /// the registration must keep the object's original update time:
    /// engines that key removal by update time (MTB buckets, Bˣ
    /// partitions) file the object under `registered_at`, so the *next*
    /// producer update — which still carries the old `last_update` —
    /// finds it exactly where the unsharded engine would. Probe windows
    /// may use `now` (they end at or after the windows the original
    /// registration used, and every window is exact inside its span, so
    /// observable answers are unchanged — the invariant the rebalance
    /// differential suite pins).
    ///
    /// The default delegates to `insert_object`, which is correct for
    /// engines that locate objects purely by trajectory (Naive, TC).
    fn restore_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        mbr: MovingRect,
        _registered_at: Time,
        now: Time,
    ) -> TprResult<()> {
        self.insert_object(set, id, mbr, now)
    }

    /// Garbage-collects answer state that can never be reported again
    /// (intervals entirely before `now`). Engines with interval buffers
    /// override this; the simulation driver calls it once per tick.
    fn gc(&mut self, _now: Time) {}

    /// The pairs reported as intersecting at `t`. Valid for the current
    /// time (after `advance_time(t)`); sorted.
    fn result_at(&self, t: Time) -> Vec<PairKey>;

    /// The buffer pool the engine's indexes read through (for I/O
    /// accounting).
    fn pool(&self) -> &BufferPool;

    /// Accumulated traversal work.
    fn counters(&self) -> JoinCounters;

    /// Turns on result change tracking so
    /// [`take_result_changes`](Self::take_result_changes) can report
    /// per-pair deltas. Engines without an interval buffer (ETP) leave
    /// this a no-op and keep returning `None` below.
    fn enable_delta_tracking(&mut self) {}

    /// Drains the pairs whose predicted intersection intervals changed
    /// since the previous call (sorted). `None` means the engine does
    /// not track changes — the delta layer then falls back to diffing
    /// [`result_at`](Self::result_at) snapshots.
    fn take_result_changes(&mut self) -> Option<Vec<PairKey>> {
        None
    }

    /// The activity of one pair at instant `t` (active interval plus
    /// next future activation). Only meaningful for engines that return
    /// `Some` from [`take_result_changes`](Self::take_result_changes);
    /// the default reports "inactive, no future interval".
    fn pair_status_at(&self, _pair: PairKey, _t: Time) -> PairStatus {
        PairStatus::default()
    }

    /// Aggregate page-format counters (node pages read through the
    /// zero-copy view) across the engine's TPR-trees; `None` for engines
    /// whose indexes are not TPR-trees (Bˣ).
    fn page_format_snapshot(&self) -> Option<CacheSnapshot> {
        None
    }

    /// The engine's metrics registry (a cheap handle). Disabled — every
    /// handle a no-op — unless the engine was built with
    /// [`EngineConfig::metrics`] set; the default implementation is for
    /// engines that never record.
    fn metrics_registry(&self) -> MetricsRegistry {
        MetricsRegistry::disabled()
    }

    /// Mirrors accumulated totals that live outside registered cells
    /// (traversal [`JoinCounters`], page-format totals) into the
    /// registry so a snapshot sees them. Pool I/O counters are live
    /// registered views and need no publishing. No-op when metrics are
    /// disabled; called by the harness before reading a snapshot.
    fn publish_metrics(&self) {}
}

/// Applies one engine's op list of a tick in order, handing every maximal
/// run of consecutive trajectory updates to
/// [`apply_batch`](ContinuousJoinEngine::apply_batch) as one batch, so an
/// engine behind a router (shard coordinator, dist worker) shares probe
/// traversals exactly like a directly driven one. `as_update` picks the
/// updates out of the caller's op type; every other op goes through
/// `apply_other`, between the runs it separates.
pub fn apply_op_runs<T>(
    engine: &mut dyn ContinuousJoinEngine,
    ops: &[T],
    now: Time,
    as_update: impl Fn(&T) -> Option<&ObjectUpdate>,
    mut apply_other: impl FnMut(&mut dyn ContinuousJoinEngine, &T) -> TprResult<()>,
) -> TprResult<()> {
    let mut run: Vec<ObjectUpdate> = Vec::new();
    for op in ops {
        if let Some(u) = as_update(op) {
            run.push(*u);
            continue;
        }
        if !run.is_empty() {
            engine.apply_batch(&run, now)?;
            run.clear();
        }
        apply_other(engine, op)?;
    }
    if !run.is_empty() {
        engine.apply_batch(&run, now)?;
    }
    Ok(())
}

/// Mirrors an engine's [`JoinCounters`] and page-format totals into
/// `registry` (the shared body of every `publish_metrics` impl; public so
/// engine wrappers — e.g. the shard coordinator — can reuse it for their
/// aggregated totals).
pub fn publish_engine_totals(
    registry: &MetricsRegistry,
    counters: JoinCounters,
    page_format: Option<CacheSnapshot>,
) {
    if !registry.is_enabled() {
        return;
    }
    registry
        .counter("join.node_pairs")
        .store(counters.node_pairs);
    registry
        .counter("join.entry_comparisons")
        .store(counters.entry_comparisons);
    registry.counter("join.ic_pruned").store(counters.ic_pruned);
    registry
        .counter("join.pairs_emitted")
        .store(counters.pairs_emitted);
    if let Some(p) = page_format {
        registry
            .counter("storage.page.zero_copy_reads")
            .store(p.zero_copy_reads);
    }
}

/// The delta-tracking trait methods shared by every engine that keeps
/// its answer in a [`ResultBuffer`].
macro_rules! buffer_delta_methods {
    () => {
        fn enable_delta_tracking(&mut self) {
            self.buffer.enable_change_tracking();
        }

        fn take_result_changes(&mut self) -> Option<Vec<PairKey>> {
            self.buffer.take_changes()
        }

        fn pair_status_at(&self, pair: PairKey, t: Time) -> PairStatus {
            self.buffer.status_at(pair.0, pair.1, t)
        }
    };
}

/// Orients an (updated object, partner) pair as (A-object, B-object).
fn orient(update_side: SetTag, updated: ObjectId, partner: ObjectId) -> PairKey {
    match update_side {
        SetTag::A => (updated, partner),
        SetTag::B => (partner, updated),
    }
}

/// Index of a side in the per-side arrays of [`TickProbes`].
fn side(set: SetTag) -> usize {
    match set {
        SetTag::A => 0,
        SetTag::B => 1,
    }
}

/// The two-phase maintenance tick shared by the TC and MTB engines.
///
/// Phase 1 ([`mutate_and_load`](Self::mutate_and_load)) applies every
/// index delete/insert **in batch order** — so the trees end up as the
/// very pages the per-update loop would have written — drops the updated
/// objects' pairs, and keeps one probe per updated id. Phase 2
/// ([`join_side`](Self::join_side), once per side) runs those probes
/// through the batched kernel and adds the hits to the result buffer.
///
/// Three rules make the buffer equal to the loop's, bit for bit:
/// mutation order is kept (above); an id updated twice probes only with
/// its **last** trajectory (the loop's earlier pairs were dropped again
/// by the later update); and a pair whose two endpoints both updated is
/// taken from the probe of the endpoint **later** in the batch (the loop
/// dropped the earlier endpoint's finding when the later one updated).
/// Pairs the loop found and dropped again within the tick never enter
/// the buffer here, so the change list is a subset of the loop's — it is
/// a dirty list that consumers recheck against engine state.
#[derive(Default)]
struct TickProbes {
    /// Per side: trajectory, id and batch position of each kept probe.
    mbrs: [Vec<MovingRect>; 2],
    ids: [Vec<ObjectId>; 2],
    pos: [Vec<u32>; 2],
    /// Per side: id → index into the three vectors above.
    slot: [HashMap<ObjectId, usize>; 2],
    scratch: JoinScratch,
    hits: Vec<ProbeHit>,
}

impl TickProbes {
    /// Replaces the loaded probes with `probes` (in batch order); a
    /// repeated id keeps its last trajectory and position.
    fn load(&mut self, probes: impl Iterator<Item = (SetTag, ObjectId, MovingRect)>) {
        for s in 0..2 {
            self.mbrs[s].clear();
            self.ids[s].clear();
            self.pos[s].clear();
            self.slot[s].clear();
        }
        for (k, (set, id, mbr)) in probes.enumerate() {
            let s = side(set);
            let fresh = self.ids[s].len();
            let i = *self.slot[s].entry(id).or_insert(fresh);
            if i == fresh {
                self.ids[s].push(id);
                self.mbrs[s].push(mbr);
                self.pos[s].push(k as u32);
            } else {
                self.mbrs[s][i] = mbr;
                self.pos[s][i] = k as u32;
            }
        }
    }

    /// Phase 1: `mutate` (the index delete + insert) per update in batch
    /// order, dropping each updated object's pairs. Stops at the first
    /// failure and returns it; the updates before it are loaded as
    /// probes, so running phase 2 leaves them fully applied — the state
    /// the per-update loop stops in.
    fn mutate_and_load(
        &mut self,
        updates: &[ObjectUpdate],
        buffer: &mut ResultBuffer,
        mut mutate: impl FnMut(&ObjectUpdate) -> TprResult<()>,
    ) -> TprResult<()> {
        let mut outcome = Ok(());
        let mut applied = 0;
        for u in updates {
            outcome = mutate(u);
            if outcome.is_err() {
                break;
            }
            buffer.remove_object(u.id);
            applied += 1;
        }
        self.load(updates[..applied].iter().map(|u| (u.set, u.id, u.new_mbr)));
        outcome
    }

    /// Phase 2 for the probes of side `set`: `probe` joins them against
    /// the other side's index, and every hit not superseded by the
    /// later-endpoint rule goes into `buffer`.
    fn join_side(
        &mut self,
        set: SetTag,
        buffer: &mut ResultBuffer,
        probe: impl FnOnce(&[MovingRect], &mut JoinScratch, &mut Vec<ProbeHit>) -> TprResult<()>,
    ) -> TprResult<()> {
        let (s, o) = (side(set), 1 - side(set));
        if self.mbrs[s].is_empty() {
            return Ok(());
        }
        self.hits.clear();
        probe(&self.mbrs[s], &mut self.scratch, &mut self.hits)?;
        for &(p, partner, iv) in &self.hits {
            let p = p as usize;
            let partner_is_later = self.slot[o]
                .get(&partner)
                .is_some_and(|&q| self.pos[o][q] > self.pos[s][p]);
            if !partner_is_later {
                let (a, b) = orient(set, self.ids[s][p], partner);
                buffer.add(a, b, iv);
            }
        }
        Ok(())
    }
}

fn build_tree(
    pool: &BufferPool,
    config: TreeConfig,
    objects: &[MovingObject],
    now: Time,
) -> TprResult<TprTree> {
    let mut tree = TprTree::new(pool.clone(), config);
    for o in objects {
        tree.insert(o.id, o.mbr, now)?;
    }
    Ok(tree)
}

// ----------------------------------------------------------------------
// NaiveJoin engine (§II-C)
// ----------------------------------------------------------------------

/// The paper's naive baseline: every join run computes pairs to the
/// infinite timestamp; answer updates happen only on object updates.
pub struct NaiveEngine {
    pool: BufferPool,
    tree_a: TprTree,
    tree_b: TprTree,
    buffer: ResultBuffer,
    counters: JoinCounters,
    threads: usize,
    obs: MetricsRegistry,
}

impl NaiveEngine {
    /// Builds the engine and its two TPR-trees.
    pub fn new(
        pool: BufferPool,
        config: EngineConfig,
        set_a: &[MovingObject],
        set_b: &[MovingObject],
        now: Time,
    ) -> TprResult<Self> {
        let obs = MetricsRegistry::enabled_if(config.metrics);
        pool.stats().register_in(&obs, "storage.pool");
        let tree_a = build_tree(&pool, config.tree, set_a, now)?;
        let tree_b = build_tree(&pool, config.tree, set_b, now)?;
        Ok(Self {
            pool,
            tree_a,
            tree_b,
            buffer: ResultBuffer::new(),
            counters: JoinCounters::new(),
            threads: config.threads,
            obs,
        })
    }
}

impl ContinuousJoinEngine for NaiveEngine {
    fn name(&self) -> &'static str {
        "NaiveJoin"
    }

    buffer_delta_methods!();

    fn run_initial_join(&mut self, now: Time) -> TprResult<()> {
        let (pairs, counters) = parallel_naive_join(&self.tree_a, &self.tree_b, now, self.threads)?;
        self.counters = self.counters.merged(counters);
        for p in pairs {
            self.buffer.add(p.a, p.b, p.interval);
        }
        Ok(())
    }

    fn apply_update(&mut self, update: &ObjectUpdate, now: Time) -> TprResult<()> {
        let (own, other) = match update.set {
            SetTag::A => (&mut self.tree_a, &self.tree_b),
            SetTag::B => (&mut self.tree_b, &self.tree_a),
        };
        own.update(update.id, &update.old_mbr, update.new_mbr, now)?;
        self.buffer.remove_object(update.id);
        // "Join the object with the other dataset (still using the naive
        // algorithm) from the current timestamp to the infinite
        // timestamp."
        for (partner, iv) in other.intersect_window(&update.new_mbr, now, INFINITE_TIME)? {
            let (a, b) = orient(update.set, update.id, partner);
            self.buffer.add(a, b, iv);
        }
        Ok(())
    }

    fn insert_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        mbr: MovingRect,
        now: Time,
    ) -> TprResult<()> {
        let (own, other) = match set {
            SetTag::A => (&mut self.tree_a, &self.tree_b),
            SetTag::B => (&mut self.tree_b, &self.tree_a),
        };
        own.insert(id, mbr, now)?;
        for (partner, iv) in other.intersect_window(&mbr, now, INFINITE_TIME)? {
            let (a, b) = orient(set, id, partner);
            self.buffer.add(a, b, iv);
        }
        Ok(())
    }

    fn remove_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        old_mbr: &MovingRect,
        _last_update: Time,
        now: Time,
    ) -> TprResult<()> {
        let own = match set {
            SetTag::A => &mut self.tree_a,
            SetTag::B => &mut self.tree_b,
        };
        own.delete(id, old_mbr, now)?;
        self.buffer.remove_object(id);
        Ok(())
    }

    fn gc(&mut self, now: Time) {
        self.buffer.prune_before(now);
    }

    fn result_at(&self, t: Time) -> Vec<PairKey> {
        self.buffer.active_at(t)
    }

    fn pool(&self) -> &BufferPool {
        &self.pool
    }

    fn counters(&self) -> JoinCounters {
        self.counters
    }

    fn page_format_snapshot(&self) -> Option<CacheSnapshot> {
        Some(
            self.tree_a
                .page_format_stats()
                .merged(&self.tree_b.page_format_stats()),
        )
    }

    fn metrics_registry(&self) -> MetricsRegistry {
        self.obs.clone()
    }

    fn publish_metrics(&self) {
        publish_engine_totals(&self.obs, self.counters, self.page_format_snapshot());
    }
}

// ----------------------------------------------------------------------
// TC-Join engine (§IV-B, Theorem 1)
// ----------------------------------------------------------------------

/// Time-constrained processing on single TPR-trees: every join run is
/// capped at `t_u + T_M`.
pub struct TcEngine {
    config: EngineConfig,
    pool: BufferPool,
    tree_a: TprTree,
    tree_b: TprTree,
    buffer: ResultBuffer,
    counters: JoinCounters,
    probes: TickProbes,
    obs: MetricsRegistry,
}

impl TcEngine {
    /// Builds the engine and its two TPR-trees.
    pub fn new(
        pool: BufferPool,
        config: EngineConfig,
        set_a: &[MovingObject],
        set_b: &[MovingObject],
        now: Time,
    ) -> TprResult<Self> {
        let obs = MetricsRegistry::enabled_if(config.metrics);
        pool.stats().register_in(&obs, "storage.pool");
        let tree_a = build_tree(&pool, config.tree, set_a, now)?;
        let tree_b = build_tree(&pool, config.tree, set_b, now)?;
        Ok(Self {
            config,
            pool,
            tree_a,
            tree_b,
            buffer: ResultBuffer::new(),
            counters: JoinCounters::new(),
            probes: TickProbes::default(),
            obs,
        })
    }

    /// Phase 2 of a tick: the loaded probes of each side against the
    /// other side's tree over Theorem 1's window `[now, now + T_M]` (the
    /// result for an object only needs to be valid until its own next
    /// update, at most `T_M` away).
    fn join_probes(&mut self, now: Time) -> TprResult<()> {
        let t_e = now + self.config.t_m;
        for (set, other) in [(SetTag::A, &self.tree_b), (SetTag::B, &self.tree_a)] {
            let counters = &mut self.counters;
            self.probes
                .join_side(set, &mut self.buffer, |mbrs, scratch, hits| {
                    probe_batch(other, mbrs, now, t_e, scratch, counters, hits)
                })?;
        }
        Ok(())
    }
}

impl ContinuousJoinEngine for TcEngine {
    fn name(&self) -> &'static str {
        "TC-Join"
    }

    buffer_delta_methods!();

    fn run_initial_join(&mut self, now: Time) -> TprResult<()> {
        let window_end = now + self.config.t_m;
        let (pairs, counters) = parallel_improved_join(
            &self.tree_a,
            &self.tree_b,
            now,
            window_end,
            self.config.techniques,
            self.config.threads,
        )?;
        self.counters = self.counters.merged(counters);
        for p in pairs {
            self.buffer.add(p.a, p.b, p.interval);
        }
        Ok(())
    }

    fn apply_update(&mut self, update: &ObjectUpdate, now: Time) -> TprResult<()> {
        self.apply_batch(std::slice::from_ref(update), now)
    }

    fn apply_batch(&mut self, updates: &[ObjectUpdate], now: Time) -> TprResult<()> {
        let (tree_a, tree_b) = (&mut self.tree_a, &mut self.tree_b);
        let outcome = self
            .probes
            .mutate_and_load(updates, &mut self.buffer, |u| match u.set {
                SetTag::A => tree_a.update(u.id, &u.old_mbr, u.new_mbr, now),
                SetTag::B => tree_b.update(u.id, &u.old_mbr, u.new_mbr, now),
            });
        self.join_probes(now)?;
        outcome
    }

    fn insert_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        mbr: MovingRect,
        now: Time,
    ) -> TprResult<()> {
        let own = match set {
            SetTag::A => &mut self.tree_a,
            SetTag::B => &mut self.tree_b,
        };
        own.insert(id, mbr, now)?;
        self.probes.load(std::iter::once((set, id, mbr)));
        self.join_probes(now)
    }

    fn remove_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        old_mbr: &MovingRect,
        _last_update: Time,
        now: Time,
    ) -> TprResult<()> {
        let own = match set {
            SetTag::A => &mut self.tree_a,
            SetTag::B => &mut self.tree_b,
        };
        own.delete(id, old_mbr, now)?;
        self.buffer.remove_object(id);
        Ok(())
    }

    fn gc(&mut self, now: Time) {
        self.buffer.prune_before(now);
    }

    fn result_at(&self, t: Time) -> Vec<PairKey> {
        self.buffer.active_at(t)
    }

    fn pool(&self) -> &BufferPool {
        &self.pool
    }

    fn counters(&self) -> JoinCounters {
        self.counters
    }

    fn page_format_snapshot(&self) -> Option<CacheSnapshot> {
        Some(
            self.tree_a
                .page_format_stats()
                .merged(&self.tree_b.page_format_stats()),
        )
    }

    fn metrics_registry(&self) -> MetricsRegistry {
        self.obs.clone()
    }

    fn publish_metrics(&self) {
        publish_engine_totals(&self.obs, self.counters, self.page_format_snapshot());
    }
}

// ----------------------------------------------------------------------
// ETP-Join engine (§III)
// ----------------------------------------------------------------------

/// Step past an event time when re-running TP-Join so a separation event
/// does not re-trigger itself (closed-interval semantics make a pair
/// "intersecting" at its own separation instant).
const ETP_EVENT_EPS: f64 = 1e-7;

/// The extended time-parameterized join: TP-Join re-run at every result
/// change, plus per-update influence-time probes.
pub struct EtpEngine {
    pool: BufferPool,
    tree_a: TprTree,
    tree_b: TprTree,
    current: HashSet<PairKey>,
    expiry: Time,
    counters: JoinCounters,
    /// TP-Join re-runs performed (diagnostics: the paper's argument is
    /// that this grows with result-change frequency).
    pub reruns: u64,
    obs: MetricsRegistry,
}

impl EtpEngine {
    /// Builds the engine and its two TPR-trees.
    pub fn new(
        pool: BufferPool,
        config: EngineConfig,
        set_a: &[MovingObject],
        set_b: &[MovingObject],
        now: Time,
    ) -> TprResult<Self> {
        let obs = MetricsRegistry::enabled_if(config.metrics);
        pool.stats().register_in(&obs, "storage.pool");
        let tree_a = build_tree(&pool, config.tree, set_a, now)?;
        let tree_b = build_tree(&pool, config.tree, set_b, now)?;
        Ok(Self {
            pool,
            tree_a,
            tree_b,
            current: HashSet::new(),
            expiry: INFINITE_TIME,
            counters: JoinCounters::new(),
            reruns: 0,
            obs,
        })
    }

    fn rerun(&mut self, t: Time) -> TprResult<()> {
        let ans = tp_join(&self.tree_a, &self.tree_b, t)?;
        self.counters = self.counters.merged(ans.counters);
        self.current = ans.current.into_iter().collect();
        self.expiry = ans.expiry;
        self.reruns += 1;
        Ok(())
    }
}

impl ContinuousJoinEngine for EtpEngine {
    fn name(&self) -> &'static str {
        "ETP-Join"
    }

    fn run_initial_join(&mut self, now: Time) -> TprResult<()> {
        self.rerun(now)
    }

    fn advance_time(&mut self, now: Time) -> TprResult<()> {
        // Consume result-change events up to `now`; each costs a full
        // TP-Join run (the paper's point about ETP's frequency).
        let mut guard = 0u32;
        while self.expiry <= now {
            let t = self.expiry + ETP_EVENT_EPS;
            self.rerun(t)?;
            guard += 1;
            if guard > 1_000_000 {
                unreachable!("ETP event loop failed to advance past {t}");
            }
        }
        Ok(())
    }

    fn apply_update(&mut self, update: &ObjectUpdate, now: Time) -> TprResult<()> {
        let (own, other) = match update.set {
            SetTag::A => (&mut self.tree_a, &self.tree_b),
            SetTag::B => (&mut self.tree_b, &self.tree_a),
        };
        own.update(update.id, &update.old_mbr, update.new_mbr, now)?;
        self.current
            .retain(|&(a, b)| a != update.id && b != update.id);
        // One traversal of the other tree: the object's current partners
        // and its influence time (§III).
        let probe = tp_object_probe(other, &update.new_mbr, now)?;
        self.counters = self.counters.merged(probe.counters);
        for partner in probe.current {
            self.current.insert(orient(update.set, update.id, partner));
        }
        if probe.influence < self.expiry {
            self.expiry = probe.influence;
        }
        Ok(())
    }

    fn result_at(&self, _t: Time) -> Vec<PairKey> {
        let mut out: Vec<PairKey> = self.current.iter().copied().collect();
        out.sort_unstable();
        out
    }

    fn pool(&self) -> &BufferPool {
        &self.pool
    }

    fn counters(&self) -> JoinCounters {
        self.counters
    }

    fn page_format_snapshot(&self) -> Option<CacheSnapshot> {
        Some(
            self.tree_a
                .page_format_stats()
                .merged(&self.tree_b.page_format_stats()),
        )
    }

    fn metrics_registry(&self) -> MetricsRegistry {
        self.obs.clone()
    }

    fn publish_metrics(&self) {
        publish_engine_totals(&self.obs, self.counters, self.page_format_snapshot());
        if self.obs.is_enabled() {
            self.obs.counter("engine.etp.reruns").store(self.reruns);
        }
    }
}

// ----------------------------------------------------------------------
// MTB-Join engine (§IV-C + §IV-D)
// ----------------------------------------------------------------------

/// The paper's full proposal: MTB-trees on both sets, per-bucket time
/// constraints (Theorem 2), improvement techniques on tree-vs-tree joins.
pub struct MtbEngine {
    config: EngineConfig,
    pool: BufferPool,
    mtb_a: MtbTree,
    mtb_b: MtbTree,
    buffer: ResultBuffer,
    counters: JoinCounters,
    probes: TickProbes,
    obs: MetricsRegistry,
}

impl MtbEngine {
    /// Builds the engine; all objects land in the bucket of `now`.
    pub fn new(
        pool: BufferPool,
        config: EngineConfig,
        set_a: &[MovingObject],
        set_b: &[MovingObject],
        now: Time,
    ) -> TprResult<Self> {
        let obs = MetricsRegistry::enabled_if(config.metrics);
        pool.stats().register_in(&obs, "storage.pool");
        let mut mtb_a = MtbTree::with_buckets_per_tm(
            pool.clone(),
            config.tree,
            config.t_m,
            config.buckets_per_tm,
        );
        let mut mtb_b = MtbTree::with_buckets_per_tm(
            pool.clone(),
            config.tree,
            config.t_m,
            config.buckets_per_tm,
        );
        for o in set_a {
            mtb_a.insert(o.id, o.mbr, now, now)?;
        }
        for o in set_b {
            mtb_b.insert(o.id, o.mbr, now, now)?;
        }
        Ok(Self {
            config,
            pool,
            mtb_a,
            mtb_b,
            buffer: ResultBuffer::new(),
            counters: JoinCounters::new(),
            probes: TickProbes::default(),
            obs,
        })
    }

    /// Phase 2 of a tick: the loaded probes of each side against every
    /// bucket of the other side, per-bucket windows
    /// `[now, min(t_eb, now) + T_M]` (§IV-C plus the `lut ≤ now` clamp,
    /// which tightens the current bucket from the paper's `t_eb + T_M`
    /// to Theorem 1's `now + T_M`).
    fn join_probes(&mut self, now: Time) -> TprResult<()> {
        let t_m = self.config.t_m;
        for (set, other) in [(SetTag::A, &self.mtb_b), (SetTag::B, &self.mtb_a)] {
            let counters = &mut self.counters;
            self.probes
                .join_side(set, &mut self.buffer, |mbrs, scratch, hits| {
                    let window = |t_eb: Time| t_eb.min(now) + t_m;
                    other.probe_batch(mbrs, now, window, scratch, counters, hits)
                })?;
        }
        Ok(())
    }

    /// Access to the A-side MTB-tree (diagnostics).
    #[must_use]
    pub fn mtb_a(&self) -> &MtbTree {
        &self.mtb_a
    }

    /// Access to the B-side MTB-tree (diagnostics).
    #[must_use]
    pub fn mtb_b(&self) -> &MtbTree {
        &self.mtb_b
    }
}

impl ContinuousJoinEngine for MtbEngine {
    fn name(&self) -> &'static str {
        "MTB-Join"
    }

    buffer_delta_methods!();

    fn run_initial_join(&mut self, now: Time) -> TprResult<()> {
        // Tree-vs-tree improved joins between every bucket pair, each
        // with the window min(t_eb_a, t_eb_b, now) + T_M — Theorem 2
        // applied to both sides, with the extra observation that a
        // bucket's latest update can never lie in the future (`lut ≤
        // now`), which tightens the current bucket's bound to the
        // paper's own initial-join window `[now, now + T_M]`. Right
        // after construction both MTBs hold a single bucket — exactly
        // the paper's "initial join on two single TPR-trees".
        let t_m = self.config.t_m;
        let mut jobs = Vec::new();
        for (eb_a, tree_a) in self.mtb_a.buckets() {
            for (eb_b, tree_b) in self.mtb_b.buckets() {
                let window_end = eb_a.min(eb_b).min(now) + t_m;
                if window_end <= now {
                    continue;
                }
                jobs.push(JoinJob {
                    tree_a,
                    tree_b,
                    t_s: now,
                    t_e: window_end,
                });
            }
        }
        // All bucket pairs share one traversal worklist, so even a single
        // large pair (the initial-join case: one bucket per side) fans
        // out across every worker. `threads == 1` runs the jobs
        // sequentially in order — the exact pre-parallel code path.
        let results =
            parallel_improved_multi_join(&jobs, self.config.techniques, self.config.threads)?;
        for (pairs, counters) in results {
            self.counters = self.counters.merged(counters);
            for p in pairs {
                self.buffer.add(p.a, p.b, p.interval);
            }
        }
        Ok(())
    }

    fn apply_update(&mut self, update: &ObjectUpdate, now: Time) -> TprResult<()> {
        self.apply_batch(std::slice::from_ref(update), now)
    }

    fn apply_batch(&mut self, updates: &[ObjectUpdate], now: Time) -> TprResult<()> {
        let (mtb_a, mtb_b) = (&mut self.mtb_a, &mut self.mtb_b);
        let outcome = self.probes.mutate_and_load(updates, &mut self.buffer, |u| {
            let own = match u.set {
                SetTag::A => &mut *mtb_a,
                SetTag::B => &mut *mtb_b,
            };
            // Bucket migration: out of the old-update bucket, into
            // `now`'s.
            own.remove(u.id, &u.old_mbr, u.last_update, now)?;
            own.insert(u.id, u.new_mbr, now, now)
        });
        self.join_probes(now)?;
        outcome
    }

    fn insert_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        mbr: MovingRect,
        now: Time,
    ) -> TprResult<()> {
        // A routed insert registers in `now`'s bucket — the same bucket
        // an update's migration lands in, so the per-bucket windows of
        // the probe match the unsharded engine's exactly.
        self.restore_object(set, id, mbr, now, now)
    }

    fn restore_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        mbr: MovingRect,
        registered_at: Time,
        now: Time,
    ) -> TprResult<()> {
        let own = match set {
            SetTag::A => &mut self.mtb_a,
            SetTag::B => &mut self.mtb_b,
        };
        // Bucket by the object's *original* update time: MTB buckets
        // live on a global grid, so the restored object lands in the
        // same bucket the unsharded engine holds it in — its next
        // producer update (still stamped with the old `last_update`)
        // removes it from exactly that bucket, and every Theorem-2
        // per-bucket window it participates in keeps the oracle's t_eb.
        own.insert(id, mbr, registered_at, now)?;
        self.probes.load(std::iter::once((set, id, mbr)));
        self.join_probes(now)
    }

    fn remove_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        old_mbr: &MovingRect,
        last_update: Time,
        now: Time,
    ) -> TprResult<()> {
        let own = match set {
            SetTag::A => &mut self.mtb_a,
            SetTag::B => &mut self.mtb_b,
        };
        own.remove(id, old_mbr, last_update, now)?;
        self.buffer.remove_object(id);
        Ok(())
    }

    fn gc(&mut self, now: Time) {
        self.buffer.prune_before(now);
    }

    fn result_at(&self, t: Time) -> Vec<PairKey> {
        self.buffer.active_at(t)
    }

    fn pool(&self) -> &BufferPool {
        &self.pool
    }

    fn counters(&self) -> JoinCounters {
        self.counters
    }

    fn page_format_snapshot(&self) -> Option<CacheSnapshot> {
        Some(
            self.mtb_a
                .page_format_stats()
                .merged(&self.mtb_b.page_format_stats()),
        )
    }

    fn metrics_registry(&self) -> MetricsRegistry {
        self.obs.clone()
    }

    fn publish_metrics(&self) {
        publish_engine_totals(&self.obs, self.counters, self.page_format_snapshot());
    }
}

// ----------------------------------------------------------------------
// Bx-substrate TC engine (extension: TC processing is index-agnostic)
// ----------------------------------------------------------------------

/// TC processing on the Bˣ-tree substrate (extension experiment).
///
/// Theorems 1 and 2 say nothing about *which* index answers the bounded
/// probes — this engine runs the identical TC maintenance protocol on
/// [`cij_bx::BxTree`]s instead of TPR-trees: per update, re-register in
/// the Bˣ index (cheap B⁺-tree ops), then probe the other side over
/// `[t_u, t_u + T_M]` (velocity-enlarged Z-range scans). The initial
/// join is one probe per left-side object — the Bˣ-tree has no
/// hierarchical tree-to-tree join, which is exactly the trade-off worth
/// measuring against [`MtbEngine`].
pub struct BxEngine {
    config: EngineConfig,
    pool: BufferPool,
    bx_a: cij_bx::BxTree,
    bx_b: cij_bx::BxTree,
    /// Current registrations of A-side objects (initial join probes B
    /// once per A object; maintenance keeps this map fresh).
    reg_a: std::collections::HashMap<ObjectId, cij_geom::MovingRect>,
    buffer: ResultBuffer,
    counters: JoinCounters,
    obs: MetricsRegistry,
}

impl BxEngine {
    /// Builds the engine and both Bˣ-trees. `space`, `max_speed` and
    /// `max_extent` parameterize the Bˣ query enlargement and must bound
    /// the workload (they do for `cij-workload` streams).
    pub fn new(
        pool: BufferPool,
        config: EngineConfig,
        bx_config: cij_bx::BxConfig,
        set_a: &[MovingObject],
        set_b: &[MovingObject],
        now: Time,
    ) -> TprResult<Self> {
        let obs = MetricsRegistry::enabled_if(config.metrics);
        pool.stats().register_in(&obs, "storage.pool");
        let mut bx_a = cij_bx::BxTree::new(pool.clone(), bx_config);
        let mut bx_b = cij_bx::BxTree::new(pool.clone(), bx_config);
        let mut reg_a = std::collections::HashMap::with_capacity(set_a.len());
        for o in set_a {
            bx_a.insert(o.id, o.mbr, now)?;
            reg_a.insert(o.id, o.mbr);
        }
        for o in set_b {
            bx_b.insert(o.id, o.mbr, now)?;
        }
        Ok(Self {
            config,
            pool,
            bx_a,
            bx_b,
            reg_a,
            buffer: ResultBuffer::new(),
            counters: JoinCounters::new(),
            obs,
        })
    }

    /// The A-side index (diagnostics).
    #[must_use]
    pub fn bx_a(&self) -> &cij_bx::BxTree {
        &self.bx_a
    }
}

impl ContinuousJoinEngine for BxEngine {
    fn name(&self) -> &'static str {
        "Bx-TC-Join"
    }

    buffer_delta_methods!();

    fn run_initial_join(&mut self, now: Time) -> TprResult<()> {
        let t_m = self.config.t_m;
        for (&oid, mbr) in &self.reg_a {
            for (partner, iv) in self.bx_b.intersect_window(mbr, now, now + t_m)? {
                self.counters.pairs_emitted += 1;
                self.buffer.add(oid, partner, iv);
            }
        }
        Ok(())
    }

    fn apply_update(&mut self, update: &ObjectUpdate, now: Time) -> TprResult<()> {
        let t_m = self.config.t_m;
        let (own, other) = match update.set {
            SetTag::A => (&mut self.bx_a, &self.bx_b),
            SetTag::B => (&mut self.bx_b, &self.bx_a),
        };
        own.update(
            update.id,
            &update.old_mbr,
            update.last_update,
            update.new_mbr,
            now,
        )?;
        if update.set == SetTag::A {
            self.reg_a.insert(update.id, update.new_mbr);
        }
        self.buffer.remove_object(update.id);
        for (partner, iv) in other.intersect_window(&update.new_mbr, now, now + t_m)? {
            let (a, b) = orient(update.set, update.id, partner);
            self.buffer.add(a, b, iv);
        }
        Ok(())
    }

    fn insert_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        mbr: MovingRect,
        now: Time,
    ) -> TprResult<()> {
        let t_m = self.config.t_m;
        let (own, other) = match set {
            SetTag::A => (&mut self.bx_a, &self.bx_b),
            SetTag::B => (&mut self.bx_b, &self.bx_a),
        };
        own.insert(id, mbr, now)?;
        if set == SetTag::A {
            self.reg_a.insert(id, mbr);
        }
        for (partner, iv) in other.intersect_window(&mbr, now, now + t_m)? {
            let (a, b) = orient(set, id, partner);
            self.buffer.add(a, b, iv);
        }
        Ok(())
    }

    fn restore_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        mbr: MovingRect,
        registered_at: Time,
        now: Time,
    ) -> TprResult<()> {
        let t_m = self.config.t_m;
        let (own, other) = match set {
            SetTag::A => (&mut self.bx_a, &self.bx_b),
            SetTag::B => (&mut self.bx_b, &self.bx_a),
        };
        // File under the original update time: Bˣ partitions are keyed
        // by registration timestamp, and the next producer update still
        // carries the old `last_update`.
        own.insert(id, mbr, registered_at)?;
        if set == SetTag::A {
            self.reg_a.insert(id, mbr);
        }
        for (partner, iv) in other.intersect_window(&mbr, now, now + t_m)? {
            let (a, b) = orient(set, id, partner);
            self.buffer.add(a, b, iv);
        }
        Ok(())
    }

    fn remove_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        old_mbr: &MovingRect,
        last_update: Time,
        _now: Time,
    ) -> TprResult<()> {
        let own = match set {
            SetTag::A => &mut self.bx_a,
            SetTag::B => &mut self.bx_b,
        };
        own.remove(id, old_mbr, last_update)?;
        if set == SetTag::A {
            self.reg_a.remove(&id);
        }
        self.buffer.remove_object(id);
        Ok(())
    }

    fn gc(&mut self, now: Time) {
        self.buffer.prune_before(now);
    }

    fn result_at(&self, t: Time) -> Vec<PairKey> {
        self.buffer.active_at(t)
    }

    fn pool(&self) -> &BufferPool {
        &self.pool
    }

    fn counters(&self) -> JoinCounters {
        self.counters
    }

    fn metrics_registry(&self) -> MetricsRegistry {
        self.obs.clone()
    }

    fn publish_metrics(&self) {
        publish_engine_totals(&self.obs, self.counters, None);
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(EngineConfig::builder().build(), EngineConfig::default());
    }

    #[test]
    fn builder_round_trips_every_knob() {
        let config = EngineConfig::builder()
            .t_m(120.0)
            .tree(TreeConfig {
                capacity: 12,
                ..TreeConfig::default()
            })
            .techniques(cij_join::techniques::NONE)
            .buckets_per_tm(4)
            .threads(8)
            .metrics(true)
            .build();
        assert_eq!(config.t_m, 120.0);
        assert_eq!(config.tree.capacity, 12);
        assert_eq!(config.techniques, cij_join::techniques::NONE);
        assert_eq!(config.buckets_per_tm, 4);
        assert_eq!(config.threads, 8);
        assert!(config.metrics);
        assert_eq!(config.to_builder().build(), config);
    }
}
