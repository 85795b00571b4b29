//! The shard router: the one place that knows where every object lives.
//!
//! The router owns the object → shard placement map. Engines never see
//! it: the [`ShardCoordinator`](crate::ShardCoordinator) asks the router
//! where an update's object *was*, asks the policy where it *belongs*
//! now, and turns a disagreement into a migration (delete from every
//! engine of the old shard's row/column, insert into the new one's)
//! inside the same logical update.
//!
//! Since the adaptive-sharding work the router keeps a full
//! [`ObjectRecord`] per object — set, shard, current trajectory, and
//! the time the trajectory was *registered* (the tick the update was
//! applied, which under the stream service's coalescing can differ from
//! the trajectory's own reference time). That record is what makes
//! online re-partitioning possible: [`repartition`](ShardRouter::repartition)
//! re-evaluates a new policy against every live trajectory and hands
//! the coordinator the exact batch of moves, each carrying the original
//! registration time so engines that key removal on update time (MTB
//! buckets) can re-file the object where the *next* producer update will
//! look for it.

use std::collections::HashMap;
use std::sync::Arc;

use cij_geom::{MovingRect, Time};
use cij_tpr::ObjectId;
use cij_workload::{ObjectUpdate, SetTag};

use crate::policy::PartitionPolicy;

/// Where an update's object must be applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDecision {
    /// The object stays in its shard: apply the update in place.
    Stay(usize),
    /// The trajectory change crossed a partition boundary: remove the
    /// object from shard `from`, insert it into shard `to`.
    Migrate {
        /// Shard the object leaves.
        from: usize,
        /// Shard the object joins.
        to: usize,
    },
}

/// Everything the router knows about one live object.
#[derive(Debug, Clone, Copy)]
pub struct ObjectRecord {
    /// Which object set the object belongs to.
    pub set: SetTag,
    /// The shard currently holding the object.
    pub shard: usize,
    /// The trajectory the engines currently index.
    pub mbr: MovingRect,
    /// When that trajectory was registered — the tick the last update
    /// was *applied* (not the trajectory's `t_ref`; the stream layer
    /// may apply a coalesced update later than it was captured).
    pub last_update: Time,
}

/// One object relocation in a batched re-partition.
#[derive(Debug, Clone, Copy)]
pub struct RebalanceMove {
    /// The object being moved.
    pub id: ObjectId,
    /// Its object set.
    pub set: SetTag,
    /// Shard under the old policy.
    pub from: usize,
    /// Shard under the new policy.
    pub to: usize,
    /// The trajectory the engines currently index (what must be removed
    /// from `from` and restored into `to`).
    pub mbr: MovingRect,
    /// The trajectory's registration time — restores must preserve it.
    pub last_update: Time,
}

/// Object → shard placement, driven by a [`PartitionPolicy`].
///
/// Ids are globally unique across both object sets (the workload keeps
/// B ids disjoint from A ids), so one map serves both sides.
pub struct ShardRouter {
    policy: Arc<dyn PartitionPolicy>,
    records: HashMap<ObjectId, ObjectRecord>,
    migrations: u64,
    rebalanced: u64,
}

impl ShardRouter {
    /// An empty router over `policy`.
    #[must_use]
    pub fn new(policy: Arc<dyn PartitionPolicy>) -> Self {
        Self {
            policy,
            records: HashMap::new(),
            migrations: 0,
            rebalanced: 0,
        }
    }

    /// The policy currently driving placement.
    #[must_use]
    pub fn policy(&self) -> &Arc<dyn PartitionPolicy> {
        &self.policy
    }

    /// Places a new object registered at `now` and returns its shard.
    pub fn place(&mut self, id: ObjectId, set: SetTag, mbr: &MovingRect, now: Time) -> usize {
        let shard = self.policy.shard_of(id, mbr);
        self.records.insert(
            id,
            ObjectRecord {
                set,
                shard,
                mbr: *mbr,
                last_update: now,
            },
        );
        shard
    }

    /// The shard currently holding `id`, if the router has placed it.
    #[must_use]
    pub fn shard_of(&self, id: ObjectId) -> Option<usize> {
        self.records.get(&id).map(|r| r.shard)
    }

    /// The full record for `id`, if placed.
    #[must_use]
    pub fn record(&self, id: ObjectId) -> Option<&ObjectRecord> {
        self.records.get(&id)
    }

    /// All live records, in hash order — callers that need determinism
    /// (the rebalance path) sort what they extract.
    pub fn records(&self) -> impl Iterator<Item = (ObjectId, &ObjectRecord)> {
        self.records.iter().map(|(&id, r)| (id, r))
    }

    /// Routes a trajectory update applied at `now`: re-evaluates the
    /// policy against the new trajectory, records the move if the shard
    /// changed, and says how the coordinator must apply the update.
    /// Unknown objects are placed fresh and reported as `Stay`.
    pub fn route(&mut self, update: &ObjectUpdate, now: Time) -> RouteDecision {
        let to = self.policy.shard_of(update.id, &update.new_mbr);
        let prev = self.records.insert(
            update.id,
            ObjectRecord {
                set: update.set,
                shard: to,
                mbr: update.new_mbr,
                last_update: now,
            },
        );
        match prev {
            Some(r) if r.shard != to => {
                self.migrations += 1;
                RouteDecision::Migrate { from: r.shard, to }
            }
            _ => RouteDecision::Stay(to),
        }
    }

    /// Forgets `id`, returning the record that held it.
    pub fn remove(&mut self, id: ObjectId) -> Option<ObjectRecord> {
        self.records.remove(&id)
    }

    /// Re-partitions every live object under `new_policy`: swaps the
    /// policy in, updates placements, and returns the objects whose
    /// shard changed — sorted by id so the coordinator's batched
    /// rebalance is deterministic regardless of hash-map iteration
    /// order. Moves are counted in [`rebalanced`](Self::rebalanced),
    /// *not* in [`migrations`](Self::migrations): update-driven and
    /// policy-driven relocations are separate phenomena in the reports.
    pub fn repartition(&mut self, new_policy: Arc<dyn PartitionPolicy>) -> Vec<RebalanceMove> {
        let mut moves = Vec::new();
        for (&id, rec) in &mut self.records {
            let to = new_policy.shard_of(id, &rec.mbr);
            if to != rec.shard {
                moves.push(RebalanceMove {
                    id,
                    set: rec.set,
                    from: rec.shard,
                    to,
                    mbr: rec.mbr,
                    last_update: rec.last_update,
                });
                rec.shard = to;
            }
        }
        moves.sort_unstable_by_key(|m| m.id);
        self.rebalanced += moves.len() as u64;
        self.policy = new_policy;
        moves
    }

    /// Cross-shard migrations routed so far (update-driven).
    #[must_use]
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Objects relocated by re-partitioning so far (policy-driven).
    #[must_use]
    pub fn rebalanced(&self) -> u64 {
        self.rebalanced
    }

    /// Number of placed objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no object has been placed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use cij_geom::Rect;

    use super::*;
    use crate::policy::{VelocityBandPolicy, VelocityBoundsPolicy};

    fn rect(v: [f64; 2]) -> MovingRect {
        MovingRect::rigid(Rect::new([0.0, 0.0], [1.0, 1.0]), v, 0.0)
    }

    fn update(id: ObjectId, old: [f64; 2], new: [f64; 2]) -> ObjectUpdate {
        ObjectUpdate {
            set: SetTag::A,
            id,
            old_mbr: rect(old),
            new_mbr: rect(new),
            last_update: 0.0,
        }
    }

    #[test]
    fn routes_stays_and_migrations() {
        let mut r = ShardRouter::new(Arc::new(VelocityBandPolicy::new(4, 4.0)));
        let id = ObjectId(7);
        assert_eq!(r.place(id, SetTag::A, &rect([0.5, 0.0]), 0.0), 0);
        assert_eq!(r.shard_of(id), Some(0));
        // Same band: stay — but the record tracks the new trajectory
        // and registration time.
        assert_eq!(
            r.route(&update(id, [0.5, 0.0], [0.9, 0.0]), 3.0),
            RouteDecision::Stay(0)
        );
        assert_eq!(r.migrations(), 0);
        let rec = r.record(id).unwrap();
        assert_eq!(rec.last_update, 3.0);
        assert_eq!(rec.mbr.vlo, [0.9, 0.0]);
        // Band 0 → band 3: migrate.
        assert_eq!(
            r.route(&update(id, [0.9, 0.0], [3.9, 0.0]), 5.0),
            RouteDecision::Migrate { from: 0, to: 3 }
        );
        assert_eq!(r.migrations(), 1);
        assert_eq!(r.shard_of(id), Some(3));
        // Unknown object: placed fresh, no migration counted.
        assert_eq!(
            r.route(&update(ObjectId(99), [0.1, 0.0], [0.1, 0.0]), 5.0),
            RouteDecision::Stay(0)
        );
        assert_eq!(r.migrations(), 1);
        assert_eq!(r.len(), 2);
        let gone = r.remove(id).unwrap();
        assert_eq!(gone.shard, 3);
        assert_eq!(gone.last_update, 5.0);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn repartition_moves_exactly_the_crossers_sorted_by_id() {
        let mut r = ShardRouter::new(Arc::new(VelocityBandPolicy::new(2, 4.0)));
        // Speeds 0.5, 1.5, 2.5, 3.5 under equal-width K=2 bands split
        // at 2.0 → shards 0, 0, 1, 1.
        for (i, v) in [0.5, 1.5, 2.5, 3.5].into_iter().enumerate() {
            r.place(ObjectId(i as u64), SetTag::A, &rect([v, 0.0]), 1.0);
        }
        assert_eq!(r.shard_of(ObjectId(1)), Some(0));
        // New boundary at 1.0: objects 1, 2, 3 belong in shard 1 → only
        // object 1 moves.
        let moves = r.repartition(Arc::new(VelocityBoundsPolicy::new(vec![1.0])));
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].id, ObjectId(1));
        assert_eq!((moves[0].from, moves[0].to), (0, 1));
        assert_eq!(moves[0].last_update, 1.0);
        assert_eq!(r.shard_of(ObjectId(1)), Some(1));
        assert_eq!(r.rebalanced(), 1);
        assert_eq!(r.migrations(), 0, "rebalance must not count as migration");
        // Splitting to K=3 moves the fast half up, ids in order.
        let moves = r.repartition(Arc::new(VelocityBoundsPolicy::new(vec![1.0, 3.0])));
        assert_eq!(
            moves.iter().map(|m| m.id.0).collect::<Vec<_>>(),
            vec![3],
            "only 3.5 crosses the new 3.0 edge"
        );
        assert_eq!(r.shard_of(ObjectId(3)), Some(2));
        assert_eq!(r.rebalanced(), 2);
    }
}
