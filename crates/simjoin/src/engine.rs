//! The proximity join: TC-processed intersection candidates via
//! Minkowski inflation, exact distance-interval refine — an
//! [`IndexPair`] under `cij-core`'s one buffered engine, whose
//! registration table holds the original (uninflated) trajectories the
//! refine reads.

use cij_core::{BufferedEngine, EngineConfig, IndexPair, Registration, Registrations, TcPair};
use cij_geom::{MovingRect, Time, TimeInterval, DIMS};
use cij_join::{JoinCounters, JoinScratch, ProbeHit};
use cij_obs::{Histogram, MetricsRegistry};
use cij_storage::{BufferPool, CacheSnapshot};
use cij_tpr::{ObjectId, TprResult};
use cij_workload::SetTag;

/// Configuration of a [`ProximityJoinEngine`]: the shared TC-engine knobs
/// plus the distance threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProximityConfig {
    /// The shared engine knobs (`T_M`, tree, threads, metrics). `buckets_per_tm` is unused — candidates come from
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
/// Results land in the standard `ResultBuffer` of [`BufferedEngine`], so
/// the two-phase tick, delta extraction, stream subscriptions and WAL
/// recovery compose unchanged; everything specific to the query class is
/// in [`ProximityPair`], which the engine dereferences to
/// (`engine.candidates()`, `engine.refine_rejects()`, `engine.epsilon()`).
pub type ProximityJoinEngine = BufferedEngine<ProximityPair>;

/// The filter ∘ refine index pair of the proximity join.
///
/// # How it reuses the intersection join
///
/// The B-side index stores rectangles **inflated by ε per axis** (the
/// Minkowski sum with the L∞ ball of radius ε). `dist_L2 ≤ ε` implies
/// every per-axis gap is ≤ ε, which is exactly `a ∩ inflate(b, ε) ≠ ∅` —
/// so the stock TPR-tree intersection join over `(A, inflate(B, ε))` —
/// a [`TcPair`], used as it is — returns a complete candidate superset,
/// time-constrained precisely as the TC engine's runs are. The refine
/// pass then evaluates the exact distance condition with
/// [`MovingRect::within_dist_sq_interval`](cij_geom::MovingRect::within_dist_sq_interval)
/// over the **full** maintenance window `[now, now + T_M]` (not the
/// candidate's overlap interval — so the refined answer is a pure
/// function of the pair and the window, which is what makes the engine
/// bit-identical to the brute-force oracle). A partner's trajectory is
/// its entry in the engine's [`Registrations`], which the engine hands
/// the refine: the pair keeps no table of its own.
pub struct ProximityPair {
    /// The candidate filter: TC-Join over the original A trajectories
    /// and the ε-inflated B trajectories.
    filter: TcPair,
    t_m: Time,
    eps: f64,
    eps_sq: f64,
    candidates: u64,
    refine_rejects: u64,
    /// Wall time of each refine pass (`simjoin.refine_ns`).
    refine_ns: Histogram,
}

impl ProximityPair {
    /// The configured threshold ε.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.eps
    }

    /// Candidate pairs the refine pass has seen so far.
    #[must_use]
    pub fn candidates(&self) -> u64 {
        self.candidates
    }

    /// Candidates the exact-distance refine pass discarded.
    #[must_use]
    pub fn refine_rejects(&self) -> u64 {
        self.refine_rejects
    }

    /// The exact answer for `(ra, rb)` over `[now, now + T_M]`.
    fn exact(&self, ra: &MovingRect, rb: &MovingRect, now: Time) -> Option<TimeInterval> {
        ra.within_dist_sq_interval(rb, self.eps_sq, now, now + self.t_m)
    }

    /// The registered (uninflated) trajectory of an object the filter
    /// returned — every one is registered.
    fn original(registrations: &Registrations, id: ObjectId) -> &MovingRect {
        let registration = registrations.get(&id);
        &registration
            .expect("the filter returns registered objects")
            .mbr
    }

    /// Books one refine pass that kept `kept` of `seen` candidates.
    fn count(&mut self, seen: usize, kept: usize) {
        self.candidates += seen as u64;
        self.refine_rejects += (seen - kept) as u64;
    }
}

/// What the filter stores for an object of `set` on `mbr`: the
/// trajectory itself on side A, inflated by `eps` on side B.
fn stored_mbr(set: SetTag, mbr: &MovingRect, eps: f64) -> MovingRect {
    match set {
        SetTag::A => *mbr,
        SetTag::B => inflate_padded(mbr, eps),
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

impl IndexPair for ProximityPair {
    type Config = ProximityConfig;
    const NAME: &'static str = "Proximity-Join";

    fn engine_config(config: &ProximityConfig) -> &EngineConfig {
        &config.engine
    }

    fn empty(pool: &BufferPool, config: &ProximityConfig, obs: &MetricsRegistry) -> Self {
        let eps = config.epsilon;
        assert!(
            eps.is_finite() && eps >= 0.0,
            "epsilon must be finite and non-negative, got {eps}"
        );
        Self {
            filter: TcPair::empty(pool, &config.engine, obs),
            t_m: config.engine.t_m,
            eps,
            eps_sq: eps * eps,
            candidates: 0,
            refine_rejects: 0,
            refine_ns: obs.histogram("simjoin.refine_ns"),
        }
    }

    /// The filter's own batch, over the trajectories it stores.
    fn refile(
        &mut self,
        removes: impl Iterator<Item = (ObjectId, Registration)> + Clone,
        inserts: impl Iterator<Item = (ObjectId, Registration)> + Clone,
        now: Time,
    ) -> TprResult<()> {
        let eps = self.eps;
        let stored = move |(id, r): (ObjectId, Registration)| {
            (
                id,
                Registration {
                    mbr: stored_mbr(r.set, &r.mbr, eps),
                    ..r
                },
            )
        };
        self.filter
            .refile(removes.map(stored), inserts.map(stored), now)
    }

    fn probe(
        &self,
        side: SetTag,
        probes: &[MovingRect],
        now: Time,
        scratch: &mut JoinScratch,
        counters: &mut JoinCounters,
        hits: &mut Vec<ProbeHit>,
    ) -> TprResult<()> {
        match side {
            SetTag::A => self
                .filter
                .probe(side, probes, now, scratch, counters, hits),
            SetTag::B => {
                let inflated: Vec<MovingRect> = probes
                    .iter()
                    .map(|mbr| inflate_padded(mbr, self.eps))
                    .collect();
                self.filter
                    .probe(side, &inflated, now, scratch, counters, hits)
            }
        }
    }

    /// The exact pass: a probe is its object's fresh registration, the
    /// partner's is its entry in the engine's table.
    fn refine(
        &mut self,
        registrations: &Registrations,
        side: SetTag,
        probes: &[MovingRect],
        now: Time,
        hits: &mut Vec<ProbeHit>,
    ) {
        let _span = self.refine_ns.start_span();
        let seen = hits.len();
        hits.retain_mut(|(p, partner, iv)| {
            let probe = &probes[*p as usize];
            let partner = Self::original(registrations, *partner);
            let exact = match side {
                SetTag::A => self.exact(probe, partner, now),
                SetTag::B => self.exact(partner, probe, now),
            };
            exact.map(|refined| *iv = refined).is_some()
        });
        self.count(seen, hits.len());
    }

    fn page_format_stats(&self) -> CacheSnapshot {
        self.filter.page_format_stats()
    }

    fn publish_extra(&self, registry: &MetricsRegistry) {
        registry
            .counter("simjoin.candidates")
            .store(self.candidates);
        registry
            .counter("simjoin.refine_rejects")
            .store(self.refine_rejects);
    }
}
