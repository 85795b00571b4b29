//! The proximity join engine: TC-processed intersection candidates via
//! Minkowski inflation, exact distance-interval refine.

use std::collections::HashMap;
use std::time::Instant;

use cij_core::{
    publish_engine_totals, ContinuousJoinEngine, EngineConfig, PairKey, PairStatus, ResultBuffer,
};
use cij_geom::{MovingRect, Time, DIMS};
use cij_join::{parallel_improved_join, JoinCounters};
use cij_obs::MetricsRegistry;
use cij_storage::{BufferPool, CacheSnapshot};
use cij_tpr::{ObjectId, TprResult, TprTree};
use cij_workload::{MovingObject, ObjectUpdate, SetTag};

/// Configuration of a [`ProximityJoinEngine`]: the shared TC-engine knobs
/// plus the distance threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProximityConfig {
    /// The shared engine knobs (`T_M`, tree, techniques, threads,
    /// metrics). `buckets_per_tm` is unused — candidates come from
    /// single TPR-trees, as in the TC engine.
    pub engine: EngineConfig,
    /// Distance threshold ε ≥ 0 (Euclidean). Pairs whose minimum
    /// distance within the valid window is ≤ ε are reported.
    pub epsilon: f64,
}

impl ProximityConfig {
    /// Bundles engine knobs with a threshold.
    ///
    /// # Panics
    ///
    /// If `epsilon` is negative or not finite.
    #[must_use]
    pub fn new(engine: EngineConfig, epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "epsilon must be finite and non-negative, got {epsilon}"
        );
        Self { engine, epsilon }
    }
}

/// Continuous ε-threshold similarity join over two sets of moving
/// rectangles.
///
/// Maintains every pair `(a, b)` whose minimum Euclidean distance within
/// the Theorem-1 valid window `[t_u, t_u + T_M]` is ≤ ε, with the exact
/// time sub-interval during which `dist(a, b) ≤ ε` holds.
///
/// # How it reuses the intersection join
///
/// The B-side index stores rectangles **inflated by ε per axis** (the
/// Minkowski sum with the L∞ ball of radius ε). `dist_L2 ≤ ε` implies
/// every per-axis gap is ≤ ε, which is exactly `a ∩ inflate(b, ε) ≠ ∅` —
/// so the stock TPR-tree intersection join over `(A, inflate(B, ε))`
/// returns a complete candidate superset, time-constrained precisely as
/// the TC engine's runs are. A refine pass then evaluates the exact
/// distance condition with
/// [`MovingRect::within_dist_sq_interval`](cij_geom::MovingRect::within_dist_sq_interval)
/// over the **full** maintenance window (not the candidate's overlap
/// interval — so the refined answer is a pure function of the pair and
/// the window, which is what makes the engine bit-identical to the
/// brute-force oracle).
///
/// Results land in the standard [`ResultBuffer`], so delta extraction,
/// stream subscriptions, WAL recovery and sharding compose unchanged.
pub struct ProximityJoinEngine {
    config: EngineConfig,
    eps: f64,
    eps_sq: f64,
    pool: BufferPool,
    /// A-side index over the original trajectories.
    tree_a: TprTree,
    /// B-side index over ε-inflated trajectories.
    tree_b: TprTree,
    /// Original (uninflated) registrations, the refine inputs.
    reg_a: HashMap<ObjectId, MovingRect>,
    reg_b: HashMap<ObjectId, MovingRect>,
    buffer: ResultBuffer,
    counters: JoinCounters,
    candidates: u64,
    refine_rejects: u64,
    obs: MetricsRegistry,
}

impl ProximityJoinEngine {
    /// Builds the engine and its two TPR-trees (B-side inflated).
    pub fn new(
        pool: BufferPool,
        config: ProximityConfig,
        set_a: &[MovingObject],
        set_b: &[MovingObject],
        now: Time,
    ) -> TprResult<Self> {
        let eps = config.epsilon;
        assert!(
            eps.is_finite() && eps >= 0.0,
            "epsilon must be finite and non-negative, got {eps}"
        );
        let obs = MetricsRegistry::enabled_if(config.engine.metrics);
        pool.stats().register_in(&obs, "storage.pool");
        let mut tree_a = TprTree::new(pool.clone(), config.engine.tree);
        let mut tree_b = TprTree::new(pool.clone(), config.engine.tree);
        let mut reg_a = HashMap::with_capacity(set_a.len());
        let mut reg_b = HashMap::with_capacity(set_b.len());
        for o in set_a {
            tree_a.insert(o.id, o.mbr, now)?;
            reg_a.insert(o.id, o.mbr);
        }
        for o in set_b {
            tree_b.insert(o.id, inflate_padded(&o.mbr, eps), now)?;
            reg_b.insert(o.id, o.mbr);
        }
        Ok(Self {
            config: config.engine,
            eps,
            eps_sq: eps * eps,
            pool,
            tree_a,
            tree_b,
            reg_a,
            reg_b,
            buffer: ResultBuffer::new(),
            counters: JoinCounters::new(),
            candidates: 0,
            refine_rejects: 0,
            obs,
        })
    }

    /// The configured threshold ε.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.eps
    }

    /// Candidate pairs produced by the inflated intersection join so far.
    #[must_use]
    pub fn candidates(&self) -> u64 {
        self.candidates
    }

    /// Candidates the exact-distance refine pass discarded.
    #[must_use]
    pub fn refine_rejects(&self) -> u64 {
        self.refine_rejects
    }

    /// Refines candidate `(a, b)` over the full window `[now, now + T_M]`
    /// and records the surviving sub-interval. The window — not the
    /// candidate's overlap interval — is deliberate: it makes the stored
    /// interval a pure function of `(a, b, now)`, identical to what the
    /// brute-force oracle computes.
    fn refine(&mut self, a: ObjectId, b: ObjectId, now: Time) {
        self.candidates += 1;
        let iv = {
            let ra = self.reg_a.get(&a).expect("unregistered A-side candidate");
            let rb = self.reg_b.get(&b).expect("unregistered B-side candidate");
            ra.within_dist_sq_interval(rb, self.eps_sq, now, now + self.config.t_m)
        };
        match iv {
            Some(iv) => self.buffer.add(a, b, iv),
            None => self.refine_rejects += 1,
        }
    }

    /// Runs `refine` over a candidate batch, recording the batch's wall
    /// time into the `simjoin.refine_ns` histogram when metrics are on.
    fn refine_batch(&mut self, cands: impl IntoIterator<Item = PairKey>, now: Time) {
        let timer = self.obs.is_enabled().then(Instant::now);
        for (a, b) in cands {
            self.refine(a, b, now);
        }
        if let Some(t0) = timer {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.obs.histogram("simjoin.refine_ns").record(ns);
        }
    }
}

/// ε-inflation with a small outward rounding pad.
///
/// The candidate filter compares floats that each went through a
/// subtraction or addition (`lo - ε`, `hi + ε`) and, in the sweep, a
/// position advance — every step good to half an ulp. Plain `inflate(ε)`
/// can therefore round the inflated face *inward* past a pair whose
/// refined distance is exactly ε, silently dropping a boundary tie the
/// exact refine would accept. Padding each face outward by a few ulps of
/// its own magnitude restores the superset guarantee; the refine pass is
/// exact, so the pad costs only a handful of extra rejected candidates
/// and never changes the answer. Deterministic, so the delete path
/// reproduces the inserted rectangle bit-for-bit.
fn inflate_padded(r: &MovingRect, eps: f64) -> MovingRect {
    let mut out = r.inflate(eps);
    for d in 0..DIMS {
        let pad = f64::EPSILON * 4.0 * (out.lo[d].abs().max(out.hi[d].abs()) + eps + 1.0);
        out.lo[d] -= pad;
        out.hi[d] += pad;
    }
    out
}

/// Orients an (updated object, partner) pair as (A-object, B-object).
fn orient(update_side: SetTag, updated: ObjectId, partner: ObjectId) -> PairKey {
    match update_side {
        SetTag::A => (updated, partner),
        SetTag::B => (partner, updated),
    }
}

impl ContinuousJoinEngine for ProximityJoinEngine {
    fn name(&self) -> &'static str {
        "Proximity-Join"
    }

    fn run_initial_join(&mut self, now: Time) -> TprResult<()> {
        // Candidate phase: the stock time-constrained intersection join,
        // Theorem-1 window, over (A, inflate(B, ε)).
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
        self.refine_batch(pairs.into_iter().map(|p| (p.a, p.b)), now);
        Ok(())
    }

    fn apply_update(&mut self, update: &ObjectUpdate, now: Time) -> TprResult<()> {
        let window_end = now + self.config.t_m;
        // Re-register in the index (B-side rectangles are stored
        // inflated, and re-inflating the old registration reproduces the
        // stored rectangle bit-for-bit — same float op, same inputs).
        let cands = match update.set {
            SetTag::A => {
                self.tree_a
                    .update(update.id, &update.old_mbr, update.new_mbr, now)?;
                self.reg_a.insert(update.id, update.new_mbr);
                self.tree_b
                    .intersect_window(&update.new_mbr, now, window_end)?
            }
            SetTag::B => {
                let old_inflated = inflate_padded(&update.old_mbr, self.eps);
                let new_inflated = inflate_padded(&update.new_mbr, self.eps);
                self.tree_b
                    .update(update.id, &old_inflated, new_inflated, now)?;
                self.reg_b.insert(update.id, update.new_mbr);
                self.tree_a
                    .intersect_window(&new_inflated, now, window_end)?
            }
        };
        self.buffer.remove_object(update.id);
        let set = update.set;
        let id = update.id;
        self.refine_batch(
            cands
                .into_iter()
                .map(|(partner, _)| orient(set, id, partner)),
            now,
        );
        Ok(())
    }

    fn insert_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        mbr: MovingRect,
        now: Time,
    ) -> TprResult<()> {
        let window_end = now + self.config.t_m;
        let cands = match set {
            SetTag::A => {
                self.tree_a.insert(id, mbr, now)?;
                self.reg_a.insert(id, mbr);
                self.tree_b.intersect_window(&mbr, now, window_end)?
            }
            SetTag::B => {
                let inflated = inflate_padded(&mbr, self.eps);
                self.tree_b.insert(id, inflated, now)?;
                self.reg_b.insert(id, mbr);
                self.tree_a.intersect_window(&inflated, now, window_end)?
            }
        };
        self.refine_batch(
            cands
                .into_iter()
                .map(|(partner, _)| orient(set, id, partner)),
            now,
        );
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
        match set {
            SetTag::A => {
                self.tree_a.delete(id, old_mbr, now)?;
                self.reg_a.remove(&id);
            }
            SetTag::B => {
                self.tree_b
                    .delete(id, &inflate_padded(old_mbr, self.eps), now)?;
                self.reg_b.remove(&id);
            }
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

    fn enable_delta_tracking(&mut self) {
        self.buffer.enable_change_tracking();
    }

    fn take_result_changes(&mut self) -> Option<Vec<PairKey>> {
        self.buffer.take_changes()
    }

    fn pair_status_at(&self, pair: PairKey, t: Time) -> PairStatus {
        self.buffer.status_at(pair.0, pair.1, t)
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
            self.obs
                .counter("simjoin.candidates")
                .store(self.candidates);
            self.obs
                .counter("simjoin.refine_rejects")
                .store(self.refine_rejects);
        }
    }
}
