//! The proximity join: an intersection [`IndexPair`] answering ε-inflated
//! probes, each hit refined to its exact distance interval — one more
//! pair under `cij-core`'s one buffered engine, whose registration table
//! holds the trajectories both the inner pair and the refine read.

use cij_core::{BufferedEngine, EngineConfig, IndexPair, Registration, Registrations, TcPair};
use cij_geom::{MovingRect, Time, TimeInterval, DIMS};
use cij_join::{JoinCounters, JoinScratch, ProbeHit};
use cij_obs::{Histogram, MetricsRegistry};
use cij_storage::BufferPool;
use cij_tpr::{ObjectId, TprResult};
use cij_workload::SetTag;

/// Configuration of a [`Within`] pair: the inner pair's configuration
/// plus the distance threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProximityConfig<C = EngineConfig> {
    /// The inner pair's configuration: for [`TcPair`] and `MtbPair` the
    /// shared engine knobs (`T_M`, tree, threads, metrics, and MTB's
    /// `buckets_per_tm`).
    pub engine: C,
    /// Distance threshold ε ≥ 0 (Euclidean). Pairs whose minimum
    /// distance within the valid window is ≤ ε are reported.
    pub epsilon: f64,
}

impl<C> ProximityConfig<C> {
    /// Bundles the inner pair's configuration with a threshold.
    ///
    /// # Panics
    ///
    /// If `epsilon` is negative or not finite.
    #[must_use]
    pub fn new(engine: C, epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "epsilon must be finite and non-negative, got {epsilon}"
        );
        Self { engine, epsilon }
    }
}

/// Continuous ε-threshold similarity join over two sets of moving
/// rectangles, on TPR-trees.
///
/// Maintains every pair `(a, b)` whose minimum Euclidean distance within
/// the Theorem-1 valid window `[t_u, t_u + T_M]` is ≤ ε, with the exact
/// time sub-interval during which `dist(a, b) ≤ ε` holds.
///
/// Results land in the standard `ResultBuffer` of [`BufferedEngine`], so
/// the two-phase tick, delta extraction, stream subscriptions and WAL
/// recovery compose unchanged; everything specific to the query class is
/// in [`Within`], which the engine dereferences to
/// (`engine.candidates()`, `engine.refine_rejects()`, `engine.epsilon()`).
pub type ProximityJoinEngine = BufferedEngine<Within<TcPair>>;

/// The ε-join over any intersection pair `P`: filter by `P`, refine
/// exactly.
///
/// # How it reuses the intersection join
///
/// `P` files every registration as it is. Each probe, of either side,
/// is **inflated by ε per axis** (the Minkowski sum with the L∞ ball of
/// radius ε) before `P` answers it. `dist_L2 ≤ ε` implies every per-axis
/// gap is ≤ ε, which is exactly `inflate(a, ε) ∩ b ≠ ∅` — so `P`'s stock
/// intersection probe returns a complete candidate superset, over the
/// windows `P` runs its joins on (Theorem 1's for [`TcPair`], Theorem 2's
/// bucket windows for `MtbPair`). The refine pass then evaluates the
/// exact distance condition with
/// [`MovingRect::within_dist_sq_interval`](cij_geom::MovingRect::within_dist_sq_interval)
/// over the **full** maintenance window `[now, now + T_M]` (not the
/// candidate's overlap interval — so the refined answer is a pure
/// function of the pair and the window, which is what makes the engine
/// bit-identical to the brute-force oracle). A partner's trajectory is
/// its entry in the engine's [`Registrations`], which the engine hands
/// the refine: the pair keeps no table of its own.
///
/// Since `P` holds exactly the engine's registrations, a pair that
/// answers only in rounds of both sides takes the inflated probes as they
/// are: over the shard crate's `PartitionedPair` the partitions find the
/// candidates and the refine runs once, outside them.
pub struct Within<P> {
    inner: P,
    t_m: Time,
    eps: f64,
    eps_sq: f64,
    candidates: u64,
    refine_rejects: u64,
    /// Wall time of each refine pass (`simjoin.refine_ns`).
    refine_ns: Histogram,
}

impl<P> Within<P> {
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

    /// The intersection pair that finds the candidates.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The exact answer for `(ra, rb)` over `[now, now + T_M]`.
    fn exact(&self, ra: &MovingRect, rb: &MovingRect, now: Time) -> Option<TimeInterval> {
        ra.within_dist_sq_interval(rb, self.eps_sq, now, now + self.t_m)
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
/// and never changes the answer.
fn inflate_padded(r: &MovingRect, eps: f64) -> MovingRect {
    let mut out = r.inflate(eps);
    for d in 0..DIMS {
        let pad = f64::EPSILON * 4.0 * (out.lo[d].abs().max(out.hi[d].abs()) + eps + 1.0);
        out.lo[d] -= pad;
        out.hi[d] += pad;
    }
    out
}

impl<P: IndexPair> IndexPair for Within<P> {
    type Config = ProximityConfig<P::Config>;
    const NAME: &'static str = "Proximity-Join";

    fn engine_config(config: &Self::Config) -> &EngineConfig {
        P::engine_config(&config.engine)
    }

    fn empty(pool: &BufferPool, config: &Self::Config, obs: &MetricsRegistry) -> Self {
        let eps = config.epsilon;
        assert!(
            eps.is_finite() && eps >= 0.0,
            "epsilon must be finite and non-negative, got {eps}"
        );
        Self {
            inner: P::empty(pool, &config.engine, obs),
            t_m: Self::engine_config(config).t_m,
            eps,
            eps_sq: eps * eps,
            candidates: 0,
            refine_rejects: 0,
            refine_ns: obs.histogram("simjoin.refine_ns"),
        }
    }

    fn refile(
        &mut self,
        removes: impl Iterator<Item = (ObjectId, Registration)> + Clone,
        inserts: impl Iterator<Item = (ObjectId, Registration)> + Clone,
        now: Time,
    ) -> TprResult<()> {
        self.inner.refile(removes, inserts, now)
    }

    /// Both sides' probes, inflated, in one call of the inner pair's.
    fn probe_sides(
        &self,
        registrations: &Registrations,
        probes: [&[MovingRect]; 2],
        now: Time,
        scratch: &mut JoinScratch,
        counters: &mut JoinCounters,
        hits: &mut [Vec<ProbeHit>; 2],
    ) -> TprResult<()> {
        let inflate = |side: &[MovingRect]| -> Vec<MovingRect> {
            side.iter()
                .map(|mbr| inflate_padded(mbr, self.eps))
                .collect()
        };
        let [a, b] = probes.map(inflate);
        (self.inner).probe_sides(registrations, [&a, &b], now, scratch, counters, hits)
    }

    fn reseed(&self, objects: &[(ObjectId, Registration)], now: Time) -> TprResult<bool> {
        self.inner.reseed(objects, now)
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
            let partner = &registrations[&*partner].mbr;
            let exact = match side {
                SetTag::A => self.exact(probe, partner, now),
                SetTag::B => self.exact(partner, probe, now),
            };
            exact.map(|refined| *iv = refined).is_some()
        });
        self.candidates += seen as u64;
        self.refine_rejects += (seen - hits.len()) as u64;
    }

    fn publish_extra(&self, registry: &MetricsRegistry) {
        self.inner.publish_extra(registry);
        registry
            .counter("simjoin.candidates")
            .store(self.candidates);
        registry
            .counter("simjoin.refine_rejects")
            .store(self.refine_rejects);
    }
}
