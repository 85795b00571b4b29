//! The adaptive partition controller: telemetry in, policies out.
//!
//! Fixed equal-width bands collapse on skew — the first sharding bench
//! run put 646 of 1000 A-objects in band 0 at K=4, so one engine owned
//! the workload and the sharded run lost wall-clock to the single engine
//! while "winning" on logical reads. *Speed Partitioning for Indexing
//! Moving Objects* and *Boosting Moving Object Indexing through
//! Velocity Partitioning* (PAPERS.md) both conclude boundaries must
//! come from the observed distribution, not the domain: equal-**weight**
//! bands make every shard-pair engine carry the same population, which
//! is simultaneously the balance condition for the parallel fan-out and
//! the condition that keeps each per-shard velocity rectangle tight.
//!
//! The controller is a small deterministic state machine owned by the
//! [`ShardCoordinator`](crate::ShardCoordinator):
//!
//! * **Observe** — every routed trajectory feeds its partition-axis
//!   value (worst-corner speed, or x-center for the spatial axis) into
//!   a [`QuantileSketch`]. Feeding happens in the coordinator's
//!   *sequential* routing phase, so the sketch contents are independent
//!   of the fan-out thread count.
//! * **Decide** — once per applied batch the coordinator asks
//!   [`decide`](AdaptiveController::decide). A re-partition is proposed
//!   when the population imbalance (max/mean over combined per-shard
//!   populations) exceeds the threshold, or when the population drifted
//!   far enough from `target_shard_population` that the shard count
//!   itself should change (split/merge). The proposal is a
//!   [`VelocityBoundsPolicy`] / [`SpatialBoundsPolicy`] whose edges
//!   minimize the sketch's churn-aware cost
//!   ([`QuantileSketch::partition`]): a quadratic balance term plus
//!   [`churn_penalty`](AdaptiveConfig::churn_penalty) times the mass
//!   living next to each edge. On smooth distributions this is the
//!   equal-weight split; on clustered ones (VelocitySkew) the edges
//!   snap into inter-cluster gaps, because an edge inside a cluster is
//!   paid for on every re-steer that crosses it (a cross-shard
//!   migration costs roughly one extra delete+insert across the
//!   object's whole engine fan), while a bounded population imbalance
//!   only costs tree depth. When several edges land in the same gap,
//!   the parts between them are empty — and an empty shard still owns
//!   a full row and column of pair engines — so the controller merges
//!   empty parts away and the proposal's shard count drops to the
//!   observed cluster count (never below
//!   [`min_k`](AdaptiveConfig::min_k)).
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

use crate::policy::{
    worst_corner_speed, PartitionPolicy, SpatialBoundsPolicy, VelocityBoundsPolicy,
};

/// Which distribution the controller partitions on.
#[derive(Debug, Clone, Copy)]
pub enum AdaptiveAxis {
    /// Band on velocity magnitude (worst-corner speed); the sketch
    /// spans `[0, max_speed]`.
    Velocity {
        /// The workload's top speed (sketch range upper bound; faster
        /// observations clamp).
        max_speed: f64,
    },
    /// Strip on x-center; the sketch spans `[0, space]`. Emitted
    /// policies prune shard pairs farther than `reach` apart — `reach`
    /// must dominate `2·max_speed·T_M + 2·extent` exactly as for
    /// [`SpatialGridPolicy`](crate::SpatialGridPolicy).
    Space {
        /// The workload's space extent.
        space: f64,
        /// The join-plan pruning reach.
        reach: f64,
    },
}

/// Tuning for the adaptive controller. Build with
/// [`AdaptiveConfig::velocity`] / [`AdaptiveConfig::spatial`] and
/// override fields as needed.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// The partition axis (and sketch range).
    pub axis: AdaptiveAxis,
    /// Re-partition when `max(pop) / mean(pop)` exceeds this (combined
    /// A+B population per shard). Must be ≥ 1.
    pub imbalance_threshold: f64,
    /// Minimum time between re-partitions, in simulation time units.
    pub cooldown: Time,
    /// When set, the controller also re-partitions to keep shards near
    /// this population: the proposed shard count is
    /// `ceil(total / target)` clamped into `[min_k, max_k]` — the
    /// split/merge path.
    pub target_shard_population: Option<usize>,
    /// Smallest shard count a split/merge may propose.
    pub min_k: usize,
    /// Largest shard count a split/merge may propose.
    pub max_k: usize,
    /// Observations the sketch must hold before any decision fires.
    pub min_weight: u64,
    /// Weight of the migration-churn term in the boundary objective
    /// (see [`QuantileSketch::partition`]): each candidate edge is
    /// charged this multiple of the mass share in its two flanking
    /// sketch buckets. `0` reduces to pure population balance.
    pub churn_penalty: f64,
    /// Sketch resolution (buckets over the axis range).
    pub sketch_buckets: usize,
}

impl AdaptiveConfig {
    /// Velocity-axis defaults: threshold 2, cooldown 10 time units,
    /// fixed shard count, 256-bucket sketch warm after 64 observations.
    #[must_use]
    pub fn velocity(max_speed: f64) -> Self {
        Self {
            axis: AdaptiveAxis::Velocity { max_speed },
            imbalance_threshold: 2.0,
            cooldown: 10.0,
            target_shard_population: None,
            min_k: 2,
            max_k: 8,
            min_weight: 64,
            sketch_buckets: 256,
            churn_penalty: 24.0,
        }
    }

    /// Spatial-axis defaults (same knobs as [`Self::velocity`]).
    #[must_use]
    pub fn spatial(space: f64, reach: f64) -> Self {
        Self {
            axis: AdaptiveAxis::Space { space, reach },
            ..Self::velocity(1.0)
        }
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
    /// A fresh controller. Panics if the config is inconsistent
    /// (`min_k > max_k`, `min_k == 0`, threshold < 1, or a
    /// non-positive axis range).
    #[must_use]
    pub fn new(cfg: AdaptiveConfig) -> Self {
        assert!(cfg.min_k >= 1 && cfg.min_k <= cfg.max_k, "bad k range");
        assert!(
            cfg.imbalance_threshold >= 1.0,
            "threshold below 1 always fires"
        );
        let hi = match cfg.axis {
            AdaptiveAxis::Velocity { max_speed } => max_speed,
            AdaptiveAxis::Space { space, .. } => space,
        };
        assert!(hi > 0.0, "axis range must be positive");
        Self {
            sketch: QuantileSketch::new(0.0, hi, cfg.sketch_buckets.max(1)),
            cfg,
            last_action: None,
            last_edges: None,
        }
    }

    /// The configuration the controller runs under.
    #[must_use]
    pub fn config(&self) -> &AdaptiveConfig {
        &self.cfg
    }

    /// The value of the partition axis for a trajectory.
    #[must_use]
    pub fn axis_value(&self, mbr: &MovingRect) -> f64 {
        match self.cfg.axis {
            AdaptiveAxis::Velocity { .. } => worst_corner_speed(mbr),
            AdaptiveAxis::Space { .. } => (mbr.lo[0] + mbr.hi[0]) / 2.0,
        }
    }

    /// Feeds one routed trajectory into the sketch. Must be called from
    /// a sequential phase — determinism of the sketch is what makes
    /// rebalance decisions replay-identical.
    pub fn observe(&mut self, mbr: &MovingRect) {
        self.sketch.observe(self.axis_value(mbr));
    }

    /// Decayed observation weight currently in the sketch.
    #[must_use]
    pub fn weight(&self) -> u64 {
        self.sketch.weight()
    }

    /// Asks whether the coordinator should re-partition now, given the
    /// current combined per-shard populations. Returns the replacement
    /// policy, or `None` to stand pat. Pure function of the controller
    /// state and arguments — no clocks, no randomness.
    pub fn decide(&mut self, now: Time, populations: &[usize]) -> Option<Arc<dyn PartitionPolicy>> {
        let k = populations.len();
        let total: usize = populations.iter().sum();
        if k == 0 || total == 0 || self.sketch.weight() < self.cfg.min_weight {
            return None;
        }
        if let Some(t) = self.last_action {
            if now - t < self.cfg.cooldown {
                return None;
            }
        }
        let max = *populations.iter().max().expect("k > 0") as f64;
        let mean = total as f64 / k as f64;
        let imbalance = max / mean;

        let desired_k = match self.cfg.target_shard_population {
            Some(target) if target > 0 => {
                total.div_ceil(target).clamp(self.cfg.min_k, self.cfg.max_k)
            }
            _ => k,
        };
        if imbalance <= self.cfg.imbalance_threshold && desired_k == k {
            return None;
        }

        let edges = self
            .sketch
            .partition(desired_k, self.cfg.churn_penalty.max(0.0));
        if edges.len() + 1 != desired_k {
            return None; // sketch emptied by decay: stand pat
        }
        let edges = self.merge_empty_parts(edges);
        // Skip (but open the cooldown window) when the proposal is the
        // one already in force — an imbalance the axis cannot express
        // would otherwise re-trigger every batch.
        let span = match self.cfg.axis {
            AdaptiveAxis::Velocity { max_speed } => max_speed,
            AdaptiveAxis::Space { space, .. } => space,
        };
        let eps = span * 1e-9;
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
        Some(match self.cfg.axis {
            AdaptiveAxis::Velocity { .. } => Arc::new(VelocityBoundsPolicy::new(edges)),
            AdaptiveAxis::Space { reach, .. } => Arc::new(SpatialBoundsPolicy::new(edges, reach)),
        })
    }

    /// Drops edges that bound (near-)empty parts, merging each empty
    /// part into its left neighbor, as long as at least `min_k` shards
    /// remain; otherwise the original edges stand. An empty shard is
    /// not free — it still owns a full row and column of shard-pair
    /// engines in the fan-out, and every update replicates into that
    /// row or column — so when the churn-aware edges reveal that the
    /// distribution has fewer clusters than `desired_k` (several edges
    /// landing in the same inter-cluster gap), the controller shrinks
    /// the shard count to the cluster count instead of shipping dead
    /// shards. This is the telemetry-driven merge path that needs no
    /// `target_shard_population`.
    fn merge_empty_parts(&self, edges: Vec<f64>) -> Vec<f64> {
        let total = self.sketch.weight();
        if total == 0 {
            return edges;
        }
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
        if !merged.is_empty() && merged.len() + 1 >= self.cfg.min_k {
            merged
        } else {
            edges
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
        assert_eq!(policy.name(), "velocity-bounds");
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
    fn target_population_drives_split_and_merge() {
        let mut cfg = AdaptiveConfig::velocity(3.0);
        cfg.target_shard_population = Some(250);
        cfg.min_weight = 10;
        let mut c = AdaptiveController::new(cfg);
        // Several passes so each sketch bucket holds > 1 observation
        // and the post-rebalance halving keeps the distribution (a
        // single-pass sketch of all-1 counts halves to empty — live
        // runs re-feed it from every routed update).
        for _ in 0..4 {
            for i in 0..100 {
                c.observe(&rigid(0.0, 3.0 * (i as f64 / 100.0)));
            }
        }
        // 1000 objects over K=2, target 250 → split to 4.
        let p = c.decide(0.0, &[500, 500]).expect("split");
        assert_eq!(p.shard_count(), 4);
        c.note_rebalanced(0.0);
        // 400 objects over K=4, target 250 → merge to 2 (after cooldown).
        let p = c.decide(20.0, &[100, 100, 100, 100]).expect("merge");
        assert_eq!(p.shard_count(), 2);
    }

    #[test]
    fn min_weight_gates_decisions() {
        let mut c = AdaptiveController::new(AdaptiveConfig::velocity(3.0));
        for _ in 0..10 {
            c.observe(&rigid(0.0, 1.0));
        }
        assert!(c.weight() < 64);
        assert!(c.decide(5.0, &[900, 10, 10, 10]).is_none());
    }
}
