//! The engine protocol, its configuration, and the ETP competitor.
//!
//! Every engine owns the indexes of both object sets (reading through one
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
//! The engines differ exactly where the paper says they differ: whether
//! answer updates are triggered by result changes ([`EtpEngine`], here)
//! or only by object updates (everything else — one
//! [`BufferedEngine`](crate::BufferedEngine) whose index pair picks the
//! time window each join run computes: ∞ / `t_u + T_M` / per-bucket).

use std::collections::HashSet;

use cij_geom::{in_range, MovingRect, Time, INFINITE_TIME};
use cij_join::{tp_join, tp_object_probe, JoinCounters, Techniques};
use cij_obs::MetricsRegistry;
use cij_storage::{BufferPool, CacheSnapshot};
use cij_tpr::{ObjectId, TprResult, TprTree, TreeConfig};
use cij_workload::{MovingObject, ObjectUpdate, SetTag};

use crate::result::{PairKey, PairStatus};

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
    /// would leave. The default is that loop.
    /// [`BufferedEngine`](crate::BufferedEngine) runs the tick in two
    /// phases instead — every index mutation first, then one probe of the
    /// whole batch per side — and the shard coordinator and the dist
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
    /// engines that key removal by update time (MTB buckets) file the
    /// object under `registered_at`, so the *next* producer update —
    /// which still carries the old `last_update` — finds it exactly
    /// where the unsharded engine would. Probe windows
    /// may use `now` (they end at or after the windows the original
    /// registration used, and every window is exact inside its span, so
    /// observable answers are unchanged — the invariant the rebalance
    /// differential suite pins).
    ///
    /// The default delegates to `insert_object`, which is correct for
    /// engines that locate objects purely by trajectory.
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

    /// Advances the answer's sweep line to `now`: intervals that ended
    /// before `now` can never be reported again and are dropped, and
    /// every pair with an interval that *started* since the previous call
    /// joins the changelog (see
    /// [`ResultBuffer::prune_before`](crate::ResultBuffer::prune_before)).
    /// Call it once per tick, after the tick's updates and **before**
    /// [`take_result_changes`](Self::take_result_changes) for that tick —
    /// a pair that becomes active with no update in between is reported
    /// through this call and nothing else. Engines with interval buffers
    /// override it.
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

    /// Drains the pairs whose predicted intersection intervals changed,
    /// or one of whose intervals [`gc`](Self::gc) saw start, since the
    /// previous call (sorted). It is a dirty list: rechecking each pair
    /// with [`pair_status_at`](Self::pair_status_at) at the tick `gc` was
    /// last called with yields every membership change of the answer.
    /// `None` means the engine does not track changes — the delta layer
    /// then falls back to diffing [`result_at`](Self::result_at)
    /// snapshots.
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
    /// that hold no tree of their own (the distributed coordinator).
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

/// One operation a router (shard coordinator, dist coordinator) projects
/// onto an inner engine; also the op of the dist wire protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineOp {
    /// A same-shard trajectory update.
    Apply(ObjectUpdate),
    /// The insert half of a cross-shard migration (or a routed insert).
    Insert {
        /// Side the object joins.
        set: SetTag,
        /// The object.
        id: ObjectId,
        /// Its new trajectory.
        mbr: MovingRect,
    },
    /// The delete half of a migration (or an object retirement).
    Remove {
        /// Side the object leaves.
        set: SetTag,
        /// The object.
        id: ObjectId,
        /// The trajectory currently registered for it.
        old_mbr: MovingRect,
        /// When that trajectory was registered.
        last_update: Time,
    },
}

impl EngineOp {
    /// Whether the op's trajectories are
    /// [sound from](MovingRect::is_sound_from) `now` and its timestamps
    /// [in range](in_range) — what the engines assume of an op and assert
    /// on, so an op decoded from a socket or a journal is held against it
    /// first.
    #[must_use]
    pub fn is_sound_at(&self, now: Time) -> bool {
        match self {
            Self::Apply(u) => {
                in_range(u.last_update)
                    && u.old_mbr.is_sound_from(now)
                    && u.new_mbr.is_sound_from(now)
            }
            Self::Insert { mbr, .. } => mbr.is_sound_from(now),
            Self::Remove {
                old_mbr,
                last_update,
                ..
            } => in_range(*last_update) && old_mbr.is_sound_from(now),
        }
    }

    /// Applies this one op to `engine` at `now`.
    pub fn apply(&self, engine: &mut dyn ContinuousJoinEngine, now: Time) -> TprResult<()> {
        match self {
            Self::Apply(u) => engine.apply_update(u, now),
            Self::Insert { set, id, mbr } => engine.insert_object(*set, *id, *mbr, now),
            Self::Remove {
                set,
                id,
                old_mbr,
                last_update,
            } => engine.remove_object(*set, *id, old_mbr, *last_update, now),
        }
    }
}

/// Applies one engine's op list of a tick in order, handing every maximal
/// run of consecutive trajectory updates to
/// [`apply_batch`](ContinuousJoinEngine::apply_batch) as one batch, so an
/// engine behind a router (shard coordinator, dist worker) shares probe
/// traversals exactly like a directly driven one. Every other op is
/// applied on its own, between the runs it separates.
pub fn apply_op_runs(
    engine: &mut dyn ContinuousJoinEngine,
    ops: &[EngineOp],
    now: Time,
) -> TprResult<()> {
    let mut run: Vec<ObjectUpdate> = Vec::new();
    for op in ops {
        if let EngineOp::Apply(u) = op {
            run.push(*u);
            continue;
        }
        if !run.is_empty() {
            engine.apply_batch(&run, now)?;
            run.clear();
        }
        op.apply(engine, now)?;
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

/// Orients an (updated object, partner) pair as (A-object, B-object).
pub(crate) fn orient(update_side: SetTag, updated: ObjectId, partner: ObjectId) -> PairKey {
    match update_side {
        SetTag::A => (updated, partner),
        SetTag::B => (partner, updated),
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
