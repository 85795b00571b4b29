//! Partition policies: how objects map to shards and which shard pairs
//! can ever produce a result.
//!
//! A policy answers two questions the coordinator asks:
//!
//! 1. [`shard_of`](PartitionPolicy::shard_of) — which of the `K` shards
//!    owns an object, given its current trajectory. Placement may depend
//!    on the trajectory (velocity bands, spatial strips), so an update
//!    can *migrate* an object; the [`ShardRouter`](crate::ShardRouter)
//!    turns that into a delete-from-old + insert-into-new pair.
//! 2. [`joinable`](PartitionPolicy::joinable) — whether shard pair
//!    `(i, j)` can ever contribute a result pair at an observable time.
//!    The coordinator only builds engines for joinable pairs (the
//!    cross-shard join plan).
//!
//! Velocity bands follow "Boosting Moving Object Indexing through
//! Velocity Partitioning" (arXiv:1205.6697): grouping objects by speed
//! keeps each TPR-tree's velocity bounding rectangles tight, which is
//! exactly the dead space that inflates time-parameterized MBRs on a
//! mixed population.
//!
//! # Boundary discipline
//!
//! Placement must be *reproducible*: the router re-evaluates
//! `shard_of` on every update and during re-partitioning, and recovery
//! replays it — a value sitting exactly on a partition boundary must
//! land in the same shard every single time, under every equivalent
//! formulation of the boundaries. Every policy here therefore stores
//! its boundaries as **explicit precomputed values** and classifies by
//! direct comparison (`partition_point` over ascending edges, with
//! boundary-exact values going to the upper side), never by re-deriving
//! the edge arithmetically per call: `(speed / max_speed * k).floor()`
//! can round a boundary-exact speed to either side depending on how
//! `max_speed / k` rounds, which would disagree with a policy the
//! adaptive controller built `from_edges` carrying the numerically
//! identical values (the same exact-tie class of bug the simjoin
//! inflation padding fixed).

use cij_geom::MovingRect;
use cij_tpr::ObjectId;

/// Maps objects to shards and prunes the shard-pair join plan.
///
/// Implementations must be pure functions of their configuration and the
/// arguments (the coordinator calls them from multiple threads and
/// replays them during recovery).
pub trait PartitionPolicy: Send + Sync {
    /// Policy name for reports and bench output.
    fn name(&self) -> &'static str;

    /// Number of shards `K` per object set.
    fn shard_count(&self) -> usize;

    /// The shard owning an object with trajectory `mbr`. Must be
    /// `< shard_count()`.
    fn shard_of(&self, id: ObjectId, mbr: &MovingRect) -> usize;

    /// Whether A-shard `shard_a` and B-shard `shard_b` can ever produce
    /// an observable result pair. The default keeps every pair — always
    /// sound. Policies that prune must guarantee objects of non-joinable
    /// shards cannot intersect at any time the answer is read (see
    /// [`SpatialGridPolicy`] for the drift argument).
    fn joinable(&self, _shard_a: usize, _shard_b: usize) -> bool {
        true
    }
}

/// The speed key every velocity policy bands on: the faster of the two
/// corner velocities. Workload rectangles are rigid (`vlo == vhi`), but
/// for a non-rigid rect the corners can straddle a band boundary — the
/// worst corner is the one whose expansion actually dominates the
/// tree's velocity bounding rectangle, and keying on it keeps placement
/// and the migration re-check in agreement (keying on `vlo` alone let
/// them disagree).
#[must_use]
pub fn worst_corner_speed(mbr: &MovingRect) -> f64 {
    let lo = (mbr.vlo[0].powi(2) + mbr.vlo[1].powi(2)).sqrt();
    let hi = (mbr.vhi[0].powi(2) + mbr.vhi[1].powi(2)).sqrt();
    lo.max(hi)
}

/// Classifies `value` against ascending band edges: the number of edges
/// `≤ value`, so a value exactly on an edge deterministically takes the
/// upper band. One comparison discipline shared by every banded policy.
fn band_of(edges: &[f64], value: f64) -> usize {
    edges.partition_point(|&e| e <= value)
}

/// The precondition `band_of` needs of explicit edges.
fn assert_ascending(edges: &[f64]) {
    assert!(edges.iter().all(|e| e.is_finite()), "edges must be finite");
    assert!(
        edges.windows(2).all(|w| w[0] <= w[1]),
        "edges must be ascending"
    );
}

/// Placement by velocity magnitude into speed bands. Slow objects share
/// trees whose velocity rectangles stay tight; the fast minority pays
/// its own expansion. Objects migrate when a trajectory update crosses
/// a band boundary.
///
/// [`new`](Self::new) makes `K` equal-width bands over `[0, max_speed]`;
/// [`from_edges`](Self::from_edges) takes explicit edges — the adaptive
/// controller's observed speed quantiles, so each band holds an equal
/// share of the population, not of the speed range. Either way the
/// edges are stored and compared directly (see the module docs): equal
/// edges place every object identically, and speeds at or above the top
/// edge take the top band.
#[derive(Debug, Clone)]
pub struct VelocityBandPolicy {
    k: usize,
    /// Ascending interior edges: `edges[i]` is the lower edge of band
    /// `i + 1`. Empty for `new(k, 0.0)` (degenerate: everyone in band 0
    /// of `k`).
    edges: Vec<f64>,
}

impl VelocityBandPolicy {
    /// `k ≥ 1` equal-width speed bands over `[0, max_speed]`, split at
    /// `max_speed · (i+1) / k`.
    #[must_use]
    pub fn new(k: usize, max_speed: f64) -> Self {
        assert!(k >= 1, "shard count must be at least 1");
        assert!(max_speed >= 0.0, "max_speed must be non-negative");
        let edges = if max_speed > 0.0 {
            (1..k).map(|i| max_speed * i as f64 / k as f64).collect()
        } else {
            Vec::new()
        };
        Self { k, edges }
    }

    /// `edges.len() + 1` bands split at the given ascending interior
    /// edges.
    ///
    /// # Panics
    /// If any edge is non-finite or the sequence is not non-decreasing.
    #[must_use]
    pub fn from_edges(edges: Vec<f64>) -> Self {
        assert_ascending(&edges);
        Self {
            k: edges.len() + 1,
            edges,
        }
    }

    /// The interior band edges (ascending — the exact floats placement
    /// compares against).
    #[must_use]
    pub fn boundaries(&self) -> &[f64] {
        &self.edges
    }
}

impl PartitionPolicy for VelocityBandPolicy {
    fn name(&self) -> &'static str {
        "velocity-band"
    }

    fn shard_count(&self) -> usize {
        self.k
    }

    fn shard_of(&self, _id: ObjectId, mbr: &MovingRect) -> usize {
        band_of(&self.edges, worst_corner_speed(mbr))
    }
}

/// Placement by position: x-strips of the space. Strips (not a 2-D
/// grid) because with small `K` every 2-D cell touches every other once
/// expanded by the drift reach, while strips separate at `K ≥ 3` — so
/// the join plan actually prunes. The strips are `K` equal ones over
/// `[0, space]` ([`new`](Self::new), [`for_horizon`](Self::for_horizon))
/// or split at explicit edges ([`from_edges`](Self::from_edges): dense
/// regions get narrow strips); pruning always measures the actual strip
/// gaps.
///
/// Pruning soundness: a result pair observed at tick `t` was derived
/// from trajectories registered at most `T_M` before `t` (every object
/// re-registers within `T_M`, and each re-registration re-derives its
/// pairs). Each object's x-center therefore drifted at most
/// `max_speed · T_M` from the strip that placed it, and overlapping
/// rectangles put the two centers within one object extent of each
/// other. Two strips farther apart than `2·max_speed·T_M + extent` can
/// never meet those conditions; [`SpatialGridPolicy::for_horizon`] adds
/// one more extent of slack on top of that bound.
#[derive(Debug, Clone)]
pub struct SpatialGridPolicy {
    reach: f64,
    /// Ascending interior strip edges — strip `i` ends at `edges[i]`.
    edges: Vec<f64>,
}

impl SpatialGridPolicy {
    /// `k ≥ 1` equal strips over `[0, space]` (split at
    /// `space · (i+1) / k`), pruning shard pairs whose strips are
    /// farther than `reach` apart. `reach` must dominate the drift
    /// argument above — prefer [`Self::for_horizon`].
    #[must_use]
    pub fn new(k: usize, space: f64, reach: f64) -> Self {
        assert!(k >= 1, "shard count must be at least 1");
        assert!(space > 0.0, "space must be positive");
        let edges = (1..k).map(|i| space * i as f64 / k as f64).collect();
        Self::from_edges(edges, reach)
    }

    /// Strips with the safe reach `2·max_speed·t_m + 2·extent` for a
    /// workload whose objects re-register within `t_m`, move at most
    /// `max_speed`, and have sides at most `extent`.
    #[must_use]
    pub fn for_horizon(k: usize, space: f64, max_speed: f64, t_m: f64, extent: f64) -> Self {
        Self::new(k, space, 2.0 * max_speed * t_m + 2.0 * extent)
    }

    /// `edges.len() + 1` strips split at the given ascending interior
    /// edges, pruning pairs whose strips are farther than `reach` apart.
    ///
    /// # Panics
    /// If any edge is non-finite, the sequence is not non-decreasing,
    /// or `reach` is negative.
    #[must_use]
    pub fn from_edges(edges: Vec<f64>, reach: f64) -> Self {
        assert_ascending(&edges);
        assert!(reach >= 0.0, "reach must be non-negative");
        Self { reach, edges }
    }

    /// The interior strip edges.
    #[must_use]
    pub fn boundaries(&self) -> &[f64] {
        &self.edges
    }

    /// The pruning reach.
    #[must_use]
    pub fn reach(&self) -> f64 {
        self.reach
    }
}

impl PartitionPolicy for SpatialGridPolicy {
    fn name(&self) -> &'static str {
        "spatial-grid"
    }

    fn shard_count(&self) -> usize {
        self.edges.len() + 1
    }

    fn shard_of(&self, _id: ObjectId, mbr: &MovingRect) -> usize {
        // Centers outside the space need no clamp: below every edge is
        // strip 0, at or above every edge is the last strip.
        band_of(&self.edges, (mbr.lo[0] + mbr.hi[0]) / 2.0)
    }

    /// The gap between the x-intervals of the two strips (0 for the same
    /// or adjacent strips: strip `j` starts at `edges[j-1]`, strip `i`
    /// ends at `edges[i]`) must be within reach.
    fn joinable(&self, shard_a: usize, shard_b: usize) -> bool {
        let (lo, hi) = (shard_a.min(shard_b), shard_a.max(shard_b));
        hi - lo <= 1 || self.edges[hi - 1] - self.edges[lo] <= self.reach
    }
}

#[cfg(test)]
mod tests {
    use cij_geom::Rect;

    use super::*;

    fn rect_at(x: f64, v: [f64; 2]) -> MovingRect {
        MovingRect::rigid(Rect::new([x, 0.0], [x + 1.0, 1.0]), v, 0.0)
    }

    #[test]
    fn velocity_bands_split_at_speed_boundaries() {
        let p = VelocityBandPolicy::new(4, 4.0);
        assert_eq!(p.shard_of(ObjectId(1), &rect_at(0.0, [0.5, 0.0])), 0);
        assert_eq!(p.shard_of(ObjectId(1), &rect_at(0.0, [1.5, 0.0])), 1);
        assert_eq!(p.shard_of(ObjectId(1), &rect_at(0.0, [0.0, 2.5])), 2);
        assert_eq!(p.shard_of(ObjectId(1), &rect_at(0.0, [3.9, 0.0])), 3);
        // Clamped at and above max speed.
        assert_eq!(p.shard_of(ObjectId(1), &rect_at(0.0, [4.0, 0.0])), 3);
        assert_eq!(p.shard_of(ObjectId(1), &rect_at(0.0, [9.0, 0.0])), 3);
        // Degenerate max speed: everyone in band 0.
        let z = VelocityBandPolicy::new(3, 0.0);
        assert_eq!(z.shard_of(ObjectId(1), &rect_at(0.0, [0.0, 0.0])), 0);
    }

    /// Regression (satellite: non-rigid banding): placement must key on
    /// the *worst* corner speed. With the old `vlo`-only key, a rect
    /// whose lower corner crawls while the upper corner races landed in
    /// band 0 — and any consumer re-deriving the band from the true
    /// velocity extent disagreed with the router's placement.
    #[test]
    fn non_rigid_rects_band_on_worst_corner() {
        let p = VelocityBandPolicy::new(4, 4.0);
        let mut mbr = rect_at(0.0, [0.1, 0.0]);
        mbr.vhi = [3.9, 0.0]; // upper corner near top speed
        assert_eq!(worst_corner_speed(&mbr), 3.9);
        assert_eq!(p.shard_of(ObjectId(1), &mbr), 3, "must band on vhi");
        // Symmetric: the lower corner can be the fast one (shrinking
        // rect) — still the worst corner.
        let mut shrink = rect_at(0.0, [-3.9, 0.0]);
        shrink.vhi = [0.1, 0.0];
        assert_eq!(p.shard_of(ObjectId(1), &shrink), 3);
        // Rigid rects are unchanged by the fix.
        assert_eq!(p.shard_of(ObjectId(1), &rect_at(0.0, [1.5, 0.0])), 1);
    }

    /// Regression (satellite: boundary float ties): a speed exactly on
    /// a band edge classifies into the upper band, by direct comparison
    /// against the precomputed edge — for every k/max_speed, including
    /// ones where `(speed / max_speed * k).floor()` rounds the other
    /// way (e.g. 0.1 / 0.3 * 3 = 0.999…).
    #[test]
    fn boundary_exact_speeds_take_the_upper_band() {
        for (k, max_speed) in [(3usize, 0.3f64), (4, 4.0), (7, 1.1), (5, 3.0)] {
            let p = VelocityBandPolicy::new(k, max_speed);
            for (i, &edge) in p.boundaries().iter().enumerate() {
                let mbr = rect_at(0.0, [edge, 0.0]);
                assert_eq!(
                    p.shard_of(ObjectId(9), &mbr),
                    i + 1,
                    "k={k} max={max_speed}: edge {i} must go up"
                );
                // And the policy rebuilt from those explicit edges agrees
                // on the exact edge floats — the invariant a rebalance
                // between the two shapes depends on.
                let q = VelocityBandPolicy::from_edges(p.boundaries().to_vec());
                assert_eq!(q.shard_of(ObjectId(9), &mbr), p.shard_of(ObjectId(9), &mbr));
            }
        }
    }

    #[test]
    fn velocity_from_edges_places_and_prunes_nothing() {
        let p = VelocityBandPolicy::from_edges(vec![0.5, 2.0]);
        assert_eq!(p.shard_count(), 3);
        assert_eq!(p.shard_of(ObjectId(1), &rect_at(0.0, [0.4, 0.0])), 0);
        assert_eq!(p.shard_of(ObjectId(1), &rect_at(0.0, [0.5, 0.0])), 1);
        assert_eq!(p.shard_of(ObjectId(1), &rect_at(0.0, [1.9, 0.0])), 1);
        assert_eq!(p.shard_of(ObjectId(1), &rect_at(0.0, [2.0, 0.0])), 2);
        for i in 0..3 {
            for j in 0..3 {
                assert!(p.joinable(i, j));
            }
        }
    }

    #[test]
    fn spatial_strips_place_by_center_and_prune_far_pairs() {
        let p = SpatialGridPolicy::new(4, 2000.0, 22.0);
        assert_eq!(p.shard_of(ObjectId(1), &rect_at(10.0, [0.0, 0.0])), 0);
        assert_eq!(p.shard_of(ObjectId(1), &rect_at(700.0, [0.0, 0.0])), 1);
        assert_eq!(p.shard_of(ObjectId(1), &rect_at(1999.0, [0.0, 0.0])), 3);
        // Adjacent strips joinable, strips two apart pruned.
        assert!(p.joinable(0, 0));
        assert!(p.joinable(0, 1) && p.joinable(1, 0));
        assert!(!p.joinable(0, 2));
        assert!(!p.joinable(3, 0));
        // A huge reach keeps every pair.
        let all = SpatialGridPolicy::new(4, 2000.0, 5000.0);
        for i in 0..4 {
            for j in 0..4 {
                assert!(all.joinable(i, j));
            }
        }
    }

    #[test]
    fn spatial_from_edges_uneven_strips_gap_by_actual_edges() {
        // Strips: [..,10), [10,20), [20,500), [500,..) — the wide strip
        // 2 keeps strips 1 and 3 adjacent-but-far.
        let p = SpatialGridPolicy::from_edges(vec![10.0, 20.0, 500.0], 30.0);
        assert_eq!(p.shard_count(), 4);
        assert_eq!(p.shard_of(ObjectId(1), &rect_at(4.0, [0.0, 0.0])), 0);
        assert_eq!(p.shard_of(ObjectId(1), &rect_at(21.0, [0.0, 0.0])), 2);
        assert_eq!(p.shard_of(ObjectId(1), &rect_at(999.0, [0.0, 0.0])), 3);
        // Exact edge goes to the upper strip (center of rect at
        // x=9.5..10.5 is exactly 10).
        assert_eq!(p.shard_of(ObjectId(1), &rect_at(9.5, [0.0, 0.0])), 1);
        // Gaps: (0,2) = 20-10 = 10 ≤ 30 joinable; (0,3) = 500-10 pruned;
        // (1,3) = 500-20 pruned; adjacency always joinable.
        assert!(p.joinable(0, 1) && p.joinable(0, 2) && p.joinable(2, 3));
        assert!(!p.joinable(0, 3) && !p.joinable(3, 1));
    }
}
