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

use cij_geom::{MovingRect, Time, INFINITE_TIME};
use cij_join::{tp_join, tp_object_probe, JoinCounters};
use cij_obs::MetricsRegistry;
use cij_storage::{BufferPool, CacheSnapshot};
use cij_tpr::{ObjectId, TprError, TprResult, TprTree, TreeConfig};
use cij_workload::{MovingObject, ObjectUpdate, SetTag};

use crate::registrations::{genesis_registrations, Registrations};
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
    /// MTB buckets per `T_M` (the paper follows the Bˣ-tree: 2).
    pub buckets_per_tm: u32,
    /// How many partitions a partitioned pair (the shard crate's) probes
    /// at once: its phase-2 fan-out width, with hits, counters and the
    /// change list the same at any width. `1` (the default) probes them
    /// in turn; a pair that is not partitioned probes sequentially
    /// whatever this says.
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
            buckets_per_tm: 2,
            threads: 1,
            metrics: false,
        }
    }
}

impl EngineConfig {
    /// Starts a builder at the paper's defaults (`T_M = 60`, Table-I
    /// tree, 2 buckets per `T_M`, 1 thread).
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

    /// MTB buckets per `T_M` (default 2, the Bˣ-tree convention).
    #[must_use]
    pub fn buckets_per_tm(mut self, buckets: u32) -> Self {
        self.config.buckets_per_tm = buckets;
        self
    }

    /// A partitioned pair's phase-2 fan-out width (default 1 = one
    /// partition after another).
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
    /// in the index and refreshes the answer (phase 2 of §II-A). Only its
    /// `id` and `new_mbr` are read: the side and delete keys are the
    /// engine's [`registrations`](Self::registrations). An id they do not
    /// hold fails with [`TprError::ObjectNotFound`], and a `new_mbr` not
    /// [sound](MovingRect::is_sound_from) from `now` with
    /// [`TprError::UnsoundTrajectory`], before anything changes.
    fn apply_update(&mut self, update: &ObjectUpdate, now: Time) -> TprResult<()>;

    /// Applies one tick's updates, all stamped `now`; the answer
    /// afterwards is the one the updates applied one by one, in order,
    /// would leave. The default is that loop.
    /// [`BufferedEngine`](crate::BufferedEngine) runs the tick in two
    /// phases instead — every index mutation first, then one probe of the
    /// whole batch per side — so every stack shares the traversals.
    fn apply_batch(&mut self, updates: &[ObjectUpdate], now: Time) -> TprResult<()> {
        for u in updates {
            self.apply_update(u, now)?;
        }
        Ok(())
    }

    /// Deregisters object `id` at `now`, located by its
    /// [registration](Self::registrations), and drops every result pair
    /// involving it. The other half of
    /// [`restore_object`](Self::restore_object); the stream service
    /// retires objects through it. An id the engine does not hold fails
    /// with [`TprError::ObjectNotFound`]. Engines without an interval
    /// result buffer (ETP) return [`TprError::Unsupported`].
    fn remove_object(&mut self, _id: ObjectId, _now: Time) -> TprResult<()> {
        Err(TprError::Unsupported {
            what: format!("routed remove_object on {}", self.name()),
        })
    }

    /// Registers object `id` on side `set`, last updated at
    /// `registered_at ≤ now`, and joins it against the other side at
    /// `now`, adding the discovered pairs to the answer: the one routed
    /// insert. A brand-new object passes `registered_at == now` (and
    /// `mbr.t_ref == now`); an object put back from a registration table
    /// passes the time it was registered, so engines that key removal by
    /// update time (MTB buckets) file it where the original registration
    /// was and its *next* update finds it there. Probe windows use `now`
    /// (they end at or after the windows the original registration used,
    /// and every window is exact inside its span, so observable answers
    /// are unchanged). An id already registered is refused with
    /// [`TprError::DuplicateObject`], and a trajectory not
    /// [sound](MovingRect::is_sound_from) from `now` (or from its own
    /// later reference time) or a `registered_at` after `now` with
    /// [`TprError::UnsoundTrajectory`]. Engines without an interval result
    /// buffer (ETP) return [`TprError::Unsupported`].
    fn restore_object(
        &mut self,
        _set: SetTag,
        _id: ObjectId,
        _mbr: MovingRect,
        _registered_at: Time,
        _now: Time,
    ) -> TprResult<()> {
        Err(TprError::Unsupported {
            what: format!("routed restore_object on {}", self.name()),
        })
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

    /// Every live object's side, indexed trajectory and registration
    /// time: the one table the engine derives its deletes from, and which
    /// the layers above read (the stream's journal, retirements and
    /// window filters).
    fn registrations(&self) -> &Registrations;

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

    /// Node pages read through the zero-copy view — a stopgap kept only
    /// because the performance ledger (`benchmark/`) reads its two fields
    /// to form `storage.zero_copy_share`. Every node read is one logical
    /// read of [`pool`](Self::pool) (the SoA view is the only page format),
    /// so it is the pool's logical reads; no engine keeps a count of its
    /// own, and none overrides this.
    fn page_format_snapshot(&self) -> Option<CacheSnapshot> {
        Some(CacheSnapshot {
            zero_copy_reads: self.pool().stats().snapshot().logical_reads,
            decode_fallbacks: 0,
        })
    }

    /// The engine's metrics registry (a cheap handle). Disabled — every
    /// handle a no-op — unless the engine was built with
    /// [`EngineConfig::metrics`] set; the default implementation is for
    /// engines that never record.
    fn metrics_registry(&self) -> MetricsRegistry {
        MetricsRegistry::disabled()
    }

    /// Mirrors accumulated totals that live outside registered cells
    /// (traversal [`JoinCounters`]) into the registry so a snapshot sees
    /// them. Pool I/O counters are live registered views and need no
    /// publishing. No-op when metrics are disabled; called by the harness
    /// before reading a snapshot.
    fn publish_metrics(&self) {}
}

/// Mirrors an engine's [`JoinCounters`] into `registry` (the shared body
/// of every `publish_metrics` impl).
pub(crate) fn publish_engine_totals(registry: &MetricsRegistry, counters: JoinCounters) {
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
}

/// Orients an (updated object, partner) pair as (A-object, B-object).
pub(crate) fn orient(update_side: SetTag, updated: ObjectId, partner: ObjectId) -> PairKey {
    match update_side {
        SetTag::A => (updated, partner),
        SetTag::B => (partner, updated),
    }
}

/// A TPR-tree over `objects`, filed at `now` in one batch.
fn build_tree(
    pool: &BufferPool,
    config: TreeConfig,
    objects: &[MovingObject],
    now: Time,
) -> TprResult<TprTree> {
    let mut tree = TprTree::new(pool.clone(), config);
    tree.apply_batch([], objects.iter().map(|o| (o.id, o.mbr)), now)?;
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
    registrations: Registrations,
    current: HashSet<PairKey>,
    expiry: Time,
    counters: JoinCounters,
    /// TP-Join re-runs performed (diagnostics: the paper's argument is
    /// that this grows with result-change frequency).
    pub reruns: u64,
    obs: MetricsRegistry,
}

impl EtpEngine {
    /// Builds the engine and its two TPR-trees; an id that appears twice
    /// across both sets is refused ([`TprError::DuplicateObject`]).
    pub fn new(
        pool: BufferPool,
        config: EngineConfig,
        set_a: &[MovingObject],
        set_b: &[MovingObject],
        now: Time,
    ) -> TprResult<Self> {
        let obs = MetricsRegistry::enabled_if(config.metrics);
        pool.stats().register_in(&obs, "storage.pool");
        let registrations = genesis_registrations(set_a, set_b, now)?;
        let tree_a = build_tree(&pool, config.tree, set_a, now)?;
        let tree_b = build_tree(&pool, config.tree, set_b, now)?;
        Ok(Self {
            pool,
            tree_a,
            tree_b,
            registrations,
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
        let id = update.id;
        let registration = (self.registrations.get_mut(&id)).ok_or(TprError::ObjectNotFound(id))?;
        if !update.new_mbr.is_sound_from(now) {
            return Err(TprError::UnsoundTrajectory(id));
        }
        let set = registration.set;
        let (own, other) = match set {
            SetTag::A => (&mut self.tree_a, &self.tree_b),
            SetTag::B => (&mut self.tree_b, &self.tree_a),
        };
        own.update(id, &registration.mbr, update.new_mbr, now)?;
        registration.mbr = update.new_mbr;
        registration.registered_at = now;
        self.current.retain(|&(a, b)| a != id && b != id);
        // One traversal of the other tree: the object's current partners
        // and its influence time (§III).
        let probe = tp_object_probe(other, &update.new_mbr, now)?;
        self.counters = self.counters.merged(probe.counters);
        for partner in probe.current {
            self.current.insert(orient(set, id, partner));
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

    fn registrations(&self) -> &Registrations {
        &self.registrations
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
        publish_engine_totals(&self.obs, self.counters);
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
            .buckets_per_tm(4)
            .threads(8)
            .metrics(true)
            .build();
        assert_eq!(config.t_m, 120.0);
        assert_eq!(config.tree.capacity, 12);
        assert_eq!(config.buckets_per_tm, 4);
        assert_eq!(config.threads, 8);
        assert!(config.metrics);
        assert_eq!(config.to_builder().build(), config);
    }
}
