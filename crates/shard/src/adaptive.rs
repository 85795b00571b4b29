//! The adaptive partition controller: telemetry in, policies out.
//!
//! Fixed equal-width bands collapse on skew — the first sharding bench
//! run put 646 of 1000 A-objects in band 0 at K=4, so one engine owned
//! the workload and the sharded run lost wall-clock to the single engine
//! while "winning" on logical reads. *Speed Partitioning for Indexing
//! Moving Objects* and *Boosting Moving Object Indexing through
//! Velocity Partitioning* (PAPERS.md) both conclude boundaries must
//! come from the observed distribution, not the domain: equal-**weight**
//! bands give every partition the same population, which keeps each
//! per-shard velocity rectangle tight without letting one partition's
//! tree grow deep.
//!
//! The controller is a small deterministic state machine owned by the
//! [`ShardCoordinator`](crate::ShardCoordinator):
//!
//! * **Observe** — every routed trajectory feeds its worst-corner
//!   speed into a [`QuantileSketch`] over `[0, max_speed]`. Feeding
//!   happens in the coordinator's *sequential* routing phase, so the
//!   sketch contents are independent of the fan-out thread count.
//! * **Decide** — once per applied batch the coordinator asks
//!   [`decide`](AdaptiveController::decide). A re-partition is proposed
//!   when the sketch holds at least `MIN_WEIGHT` observations, the
//!   last re-partition is at least `COOLDOWN` time units old, and the
//!   population imbalance (max/mean over combined per-shard
//!   populations) exceeds `IMBALANCE_THRESHOLD`. These are constants,
//!   not settings; [`AdaptiveConfig`] holds only the sketch's speed
//!   range. The proposal is a
//!   [`VelocityBandPolicy`] built from the edges that minimize the
//!   sketch's churn-aware cost ([`QuantileSketch::partition`]): a
//!   quadratic balance term plus `CHURN_PENALTY` times the mass living
//!   next to each edge. On smooth distributions this is the
//!   equal-weight split; on clustered ones (VelocitySkew) the edges
//!   snap into inter-cluster gaps, because an edge inside a cluster is
//!   paid for on every re-steer that crosses it (a cross-shard
//!   migration moves the object between two partitions' trees, and
//!   every migration lands in the newest bucket of a partition that may
//!   not have one yet), while a bounded population imbalance only costs
//!   tree depth. When several edges land in the same gap, the parts
//!   between them are empty; an empty partition is one more index every
//!   probe visits, so the controller merges empty parts away and the
//!   proposal's shard count drops to the observed cluster count (never
//!   below two).
//! * **Decay** — after the coordinator commits a rebalance it calls
//!   [`note_rebalanced`](AdaptiveController::note_rebalanced): the
//!   sketch halves (newer observations dominate the next decision) and
//!   the cooldown window opens.
//!
//! Every input to a decision (sketch counts, populations, tick times)
//! is a deterministic function of the applied update stream, so WAL
//! replay reproduces the exact same sequence of re-partitions — the
//! property the stream-layer recovery test pins.

use std::sync::Arc;

use cij_geom::{MovingRect, Time};
use cij_obs::QuantileSketch;

use crate::policy::{worst_corner_speed, PartitionPolicy, VelocityBandPolicy};

/// Weight of the migration-churn term in the boundary objective (see
/// [`QuantileSketch::partition`]): each candidate edge is charged this
/// multiple of the mass share in its two flanking sketch buckets.
const CHURN_PENALTY: f64 = 24.0;
/// Sketch resolution (buckets over `[0, max_speed]`).
const SKETCH_BUCKETS: usize = 256;
/// Re-partition when `max(pop) / mean(pop)` exceeds this (combined A+B
/// population per shard).
const IMBALANCE_THRESHOLD: f64 = 2.0;
/// Minimum time between re-partitions, in simulation time units.
const COOLDOWN: Time = 10.0;
/// Observations the sketch must hold before any decision fires.
const MIN_WEIGHT: u64 = 64;

/// The adaptive controller's one setting: the speed range its sketch
/// covers. Its tuning — re-partition above a max/mean population ratio
/// of 2, at most once per 10 time units, once the sketch holds 64
/// observations — is fixed.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// The workload's top speed (sketch range upper bound; faster
    /// observations clamp).
    pub max_speed: f64,
}

impl AdaptiveConfig {
    /// A controller over speeds in `[0, max_speed]`.
    #[must_use]
    pub fn velocity(max_speed: f64) -> Self {
        Self { max_speed }
    }
}

/// The decision engine (see the module docs). Owned by the coordinator;
/// not constructed directly by users —
/// [`ShardCoordinator::enable_adaptive`](crate::ShardCoordinator::enable_adaptive)
/// builds and seeds it.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    cfg: AdaptiveConfig,
    sketch: QuantileSketch,
    /// When the last re-partition committed (cooldown anchor); also set
    /// on a no-op decision so an unchangeable imbalance does not
    /// re-evaluate every tick.
    last_action: Option<Time>,
    /// The edges of the last policy this controller emitted, for the
    /// "would not actually move anything" skip.
    last_edges: Option<Vec<f64>>,
}

impl AdaptiveController {
    /// A fresh controller. Panics on a non-positive `max_speed`.
    #[must_use]
    pub fn new(cfg: AdaptiveConfig) -> Self {
        assert!(cfg.max_speed > 0.0, "max_speed must be positive");
        Self {
            sketch: QuantileSketch::new(0.0, cfg.max_speed, SKETCH_BUCKETS),
            cfg,
            last_action: None,
            last_edges: None,
        }
    }

    /// Feeds one routed trajectory into the sketch. Must be called from
    /// a sequential phase — determinism of the sketch is what makes
    /// rebalance decisions replay-identical.
    pub fn observe(&mut self, mbr: &MovingRect) {
        self.sketch.observe(worst_corner_speed(mbr));
    }

    /// Asks whether the coordinator should re-partition now, given the
    /// current combined per-shard populations. Returns the replacement
    /// policy, or `None` to stand pat. Pure function of the controller
    /// state and arguments — no clocks, no randomness.
    pub fn decide(&mut self, now: Time, populations: &[usize]) -> Option<Arc<dyn PartitionPolicy>> {
        let k = populations.len();
        let total: usize = populations.iter().sum();
        if k == 0 || total == 0 || self.sketch.weight() < MIN_WEIGHT {
            return None;
        }
        if let Some(t) = self.last_action {
            if now - t < COOLDOWN {
                return None;
            }
        }
        let max = *populations.iter().max().expect("k > 0") as f64;
        let mean = total as f64 / k as f64;
        if max / mean <= IMBALANCE_THRESHOLD {
            return None;
        }

        let edges = self.sketch.partition(k, CHURN_PENALTY);
        if edges.len() + 1 != k {
            return None; // sketch emptied by decay: stand pat
        }
        let edges = self.merge_empty_parts(edges);
        // Skip (but open the cooldown window) when the proposal is the
        // one already in force — an imbalance the axis cannot express
        // would otherwise re-trigger every batch.
        let eps = self.cfg.max_speed * 1e-9;
        if let Some(prev) = &self.last_edges {
            if prev.len() == edges.len()
                && prev.iter().zip(&edges).all(|(a, b)| (a - b).abs() <= eps)
            {
                self.last_action = Some(now);
                return None;
            }
        }
        self.last_edges = Some(edges.clone());
        self.last_action = Some(now);
        Some(Arc::new(VelocityBandPolicy::from_edges(edges)))
    }

    /// Drops edges that bound (near-)empty parts, merging each empty
    /// part into its left neighbor, as long as at least two shards
    /// remain; otherwise the original edges stand. When the churn-aware
    /// edges reveal that the distribution has fewer clusters than shards
    /// (several edges landing in the same inter-cluster gap), the
    /// controller shrinks the shard count to the cluster count instead
    /// of keeping partitions nothing lives in.
    fn merge_empty_parts(&self, edges: Vec<f64>) -> Vec<f64> {
        let total = self.sketch.weight();
        // A part carrying under ~1%/k of the decayed mass is sketch
        // noise, not a cluster worth a dedicated shard.
        let eps = (total as f64 * 0.01 / (edges.len() + 1) as f64).max(1.0);
        let mut merged: Vec<f64> = Vec::with_capacity(edges.len());
        let mut prev = 0.0f64;
        for e in edges.iter().copied() {
            if self.sketch.mass_between(prev, e) as f64 > eps {
                merged.push(e);
            } else if let Some(last) = merged.last_mut() {
                // Empty part [prev, e): slide the previous edge up to
                // `e`, folding the span into the part on its left.
                *last = e;
            }
            // (An empty *leading* part simply drops its right edge,
            // folding into the part that follows.)
            prev = e;
        }
        if self.sketch.mass_between(prev, f64::INFINITY) as f64 <= eps {
            merged.pop(); // empty trailing part folds leftward
        }
        if merged.is_empty() {
            edges
        } else {
            merged
        }
    }

    /// Tells the controller its last proposal was committed: decays the
    /// sketch so the next decision weighs fresh observations, and
    /// anchors the cooldown at `now`.
    pub fn note_rebalanced(&mut self, now: Time) {
        self.sketch.halve();
        self.last_action = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use cij_geom::Rect;

    use super::*;

    fn rigid(x: f64, v: f64) -> MovingRect {
        MovingRect::rigid(Rect::new([x, 0.0], [x + 1.0, 1.0]), [v, 0.0], 0.0)
    }

    fn skewed_controller() -> AdaptiveController {
        let mut c = AdaptiveController::new(AdaptiveConfig::velocity(3.0));
        // VelocitySkew shape: 80% slow in [0, 0.9), 20% fast in [2.1, 3).
        for i in 0..400 {
            c.observe(&rigid(0.0, 0.9 * (i as f64 / 400.0)));
        }
        for i in 0..100 {
            c.observe(&rigid(0.0, 2.1 + 0.9 * (i as f64 / 100.0)));
        }
        c
    }

    #[test]
    fn balanced_population_stands_pat() {
        let mut c = skewed_controller();
        assert!(c.decide(5.0, &[100, 100, 100, 100]).is_none());
    }

    #[test]
    fn imbalance_triggers_churn_aware_boundaries() {
        let mut c = skewed_controller();
        let policy = c
            .decide(5.0, &[646, 154, 31, 169])
            .expect("imbalance 646/250 > 2 must trigger");
        // Under the 80/20 two-cluster skew the churn-aware objective
        // puts every candidate edge inside the empty (0.9, 2.1) gap;
        // the empty parts between them merge away, so the proposal is
        // the distribution's true cluster count: two shards, slow and
        // fast, with the single surviving edge in the gap where no
        // re-steer ever crosses it.
        assert_eq!(policy.shard_count(), 2);
        assert_eq!(policy.name(), "velocity-band");
        let dyn_any: Arc<dyn PartitionPolicy> = policy;
        for v in [0.05, 0.6, 0.89] {
            assert_eq!(
                dyn_any.shard_of(cij_tpr::ObjectId(1), &rigid(0.0, v)),
                0,
                "slow speed {v} cut away from its cluster"
            );
        }
        for v in [2.11, 2.5, 2.9] {
            assert_eq!(
                dyn_any.shard_of(cij_tpr::ObjectId(1), &rigid(0.0, v)),
                1,
                "fast speed {v} cut away from its cluster"
            );
        }
    }

    #[test]
    fn cooldown_and_no_op_proposals_back_off() {
        let imbalanced = [646, 154, 31, 169];
        let mut c = skewed_controller();
        // A proposal anchors the cooldown by itself.
        assert!(c.decide(5.0, &imbalanced).is_some());
        assert!(c.decide(9.0, &imbalanced).is_none(), "cooldown");
        // Past the cooldown with an unchanged sketch the same edges
        // come back — skipped as a no-op, and the skip re-arms the
        // cooldown (an imbalance the axis cannot fix must not retry
        // every batch).
        assert!(c.decide(20.0, &imbalanced).is_none(), "no-op skip");
        assert!(c.decide(21.0, &imbalanced).is_none(), "re-armed");
    }

    #[test]
    fn min_weight_gates_decisions() {
        let mut c = AdaptiveController::new(AdaptiveConfig::velocity(3.0));
        for _ in 0..10 {
            c.observe(&rigid(0.0, 1.0));
        }
        assert!(c.decide(5.0, &[900, 10, 10, 10]).is_none());
    }
}
