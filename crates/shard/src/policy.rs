//! Partition policies: how objects map to shards.
//!
//! A policy answers one question the coordinator asks:
//! [`shard_of`](PartitionPolicy::shard_of) — which of the `K` shards owns
//! an object, given its current trajectory. Placement may depend on the
//! trajectory (velocity bands do), so an update can *migrate* an object;
//! the [`ShardRouter`](crate::ShardRouter) turns that into a
//! delete-from-old + insert-into-new pair. Which shards meet is not the
//! policy's business: every probe visits every partition of the other
//! side, so every A-shard meets every B-shard.
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
//! formulation of the boundaries. [`VelocityBandPolicy`] therefore stores
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

/// Maps objects to shards.
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
        assert!(edges.iter().all(|e| e.is_finite()), "edges must be finite");
        assert!(
            edges.windows(2).all(|w| w[0] <= w[1]),
            "edges must be ascending"
        );
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

    /// The number of edges `≤` the worst-corner speed, so a speed
    /// exactly on an edge deterministically takes the upper band.
    fn shard_of(&self, _id: ObjectId, mbr: &MovingRect) -> usize {
        let speed = worst_corner_speed(mbr);
        self.edges.partition_point(|&e| e <= speed)
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
    fn velocity_from_edges_places_by_its_edges() {
        let p = VelocityBandPolicy::from_edges(vec![0.5, 2.0]);
        assert_eq!(p.shard_count(), 3);
        assert_eq!(p.shard_of(ObjectId(1), &rect_at(0.0, [0.4, 0.0])), 0);
        assert_eq!(p.shard_of(ObjectId(1), &rect_at(0.0, [0.5, 0.0])), 1);
        assert_eq!(p.shard_of(ObjectId(1), &rect_at(0.0, [1.9, 0.0])), 1);
        assert_eq!(p.shard_of(ObjectId(1), &rect_at(0.0, [2.0, 0.0])), 2);
    }
}
