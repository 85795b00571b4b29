//! The shard router: placement as a pure function of the trajectory.
//!
//! As in *Speed Partitioning for Indexing Moving Objects*, an object's
//! shard is its policy's [`shard_of`](PartitionPolicy::shard_of) over
//! the trajectory it is registered with, so the router keeps no
//! per-object state: the engine's [`Registrations`] table holds every
//! object's side, trajectory and registration time, and the shard is
//! derived from that entry whenever it is needed. The router keeps the
//! policy and what is not derivable from one entry: the per-set
//! per-shard populations and the migration and rebalance tallies.
//!
//! An update is re-filed in three steps: [`remove`](ShardRouter::remove)
//! derives where the object *was* from its registration,
//! [`place`](ShardRouter::place) where it *belongs* now from its new
//! trajectory, and [`count_move`](ShardRouter::count_move) turns a
//! disagreement into a migration inside the same logical update. The
//! partitioned pair spells that as a remove from the old partition and
//! an insert into the new one, for a whole tick at once.
//!
//! [`repartition`](ShardRouter::repartition) re-evaluates a new policy
//! against every registration and hands the partitioned pair the exact
//! batch of moves, each carrying the object's registration so indexes
//! that key removal on update time (MTB buckets) re-file the object
//! where its next delete will look for it.

use std::sync::Arc;

use cij_core::{Registration, Registrations};
use cij_geom::MovingRect;
use cij_tpr::ObjectId;
use cij_workload::SetTag;

use crate::policy::PartitionPolicy;

/// One object relocation in a batched re-partition.
#[derive(Debug, Clone, Copy)]
pub struct RebalanceMove {
    /// The object being moved.
    pub id: ObjectId,
    /// Shard under the old policy.
    pub from: usize,
    /// Shard under the new policy.
    pub to: usize,
    /// What must be removed from `from` and inserted into `to`, at the
    /// original registration time.
    pub registration: Registration,
}

/// Placement under a [`PartitionPolicy`], and the populations it implies.
pub struct ShardRouter {
    policy: Arc<dyn PartitionPolicy>,
    /// Live objects per shard, one vector per set (`[A, B]`, see
    /// [`side`]); kept current by every placement change below.
    population: [Vec<usize>; 2],
    migrations: u64,
    rebalanced: u64,
}

/// The index of `set` in per-set pairs.
fn side(set: SetTag) -> usize {
    match set {
        SetTag::A => 0,
        SetTag::B => 1,
    }
}

impl ShardRouter {
    /// An empty router over `policy`.
    #[must_use]
    pub fn new(policy: Arc<dyn PartitionPolicy>) -> Self {
        let k = policy.shard_count();
        Self {
            policy,
            population: [vec![0; k], vec![0; k]],
            migrations: 0,
            rebalanced: 0,
        }
    }

    /// The policy currently driving placement.
    #[must_use]
    pub fn policy(&self) -> &Arc<dyn PartitionPolicy> {
        &self.policy
    }

    /// Live objects of `set` per shard.
    #[must_use]
    pub fn population(&self, set: SetTag) -> &[usize] {
        &self.population[side(set)]
    }

    /// Counts a new object of `set` on `mbr` and returns its shard.
    pub fn place(&mut self, id: ObjectId, set: SetTag, mbr: &MovingRect) -> usize {
        let shard = self.policy.shard_of(id, mbr);
        self.population[side(set)][shard] += 1;
        shard
    }

    /// Un-counts object `id`, filed under `registration`, and returns the
    /// shard that held it.
    pub fn remove(&mut self, id: ObjectId, registration: &Registration) -> usize {
        let shard = self.policy.shard_of(id, &registration.mbr);
        self.population[side(registration.set)][shard] -= 1;
        shard
    }

    /// Counts an update that took its object from shard `from` to `to`:
    /// a migration unless they are the same.
    pub fn count_move(&mut self, from: usize, to: usize) {
        if from != to {
            self.migrations += 1;
        }
    }

    /// Re-partitions every object of `registrations` under `new_policy`:
    /// swaps the policy in, recounts the populations, and returns the
    /// objects whose shard changed — sorted by id so the batched
    /// rebalance is deterministic whatever the table's iteration order.
    /// Moves are counted in [`rebalanced`](Self::rebalanced), *not* in
    /// [`migrations`](Self::migrations): update-driven and
    /// policy-driven relocations are separate phenomena in the reports.
    pub fn repartition(
        &mut self,
        new_policy: Arc<dyn PartitionPolicy>,
        registrations: &Registrations,
    ) -> Vec<RebalanceMove> {
        let k = new_policy.shard_count();
        self.population = [vec![0; k], vec![0; k]];
        let mut moves = Vec::new();
        for (&id, &registration) in registrations {
            let from = self.policy.shard_of(id, &registration.mbr);
            let to = new_policy.shard_of(id, &registration.mbr);
            if to != from {
                moves.push(RebalanceMove {
                    id,
                    from,
                    to,
                    registration,
                });
            }
            self.population[side(registration.set)][to] += 1;
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
}

#[cfg(test)]
mod tests {
    use cij_geom::{Rect, Time};

    use super::*;
    use crate::policy::VelocityBandPolicy;

    fn rect(v: [f64; 2]) -> MovingRect {
        MovingRect::rigid(Rect::new([0.0, 0.0], [1.0, 1.0]), v, 0.0)
    }

    fn registered(set: SetTag, v: [f64; 2], registered_at: Time) -> Registration {
        Registration {
            set,
            mbr: rect(v),
            registered_at,
        }
    }

    /// An update's old shard derives from the registration it replaces
    /// and its new one from its trajectory; the populations and the
    /// migration count keep in step.
    #[test]
    fn stays_and_migrations_route_by_the_registration() {
        let mut r = ShardRouter::new(Arc::new(VelocityBandPolicy::new(2, 4.0)));
        let id = ObjectId(7);
        let route = |r: &mut ShardRouter, prev: &Registration, mbr: &MovingRect| {
            let (from, to) = (r.remove(id, prev), r.place(id, prev.set, mbr));
            r.count_move(from, to);
            (from, to)
        };
        assert_eq!(r.place(id, SetTag::B, &rect([0.5, 0.0])), 0);
        // Same band: stay.
        let prev = registered(SetTag::B, [0.5, 0.0], 0.0);
        assert_eq!(route(&mut r, &prev, &rect([0.9, 0.0])), (0, 0));
        assert_eq!(r.migrations(), 0);
        assert_eq!(r.population(SetTag::B), [1, 0]);
        // Band 0 → band 1: migrate.
        let prev = registered(SetTag::B, [0.9, 0.0], 3.0);
        assert_eq!(route(&mut r, &prev, &rect([3.9, 0.0])), (0, 1));
        assert_eq!(r.migrations(), 1);
        assert_eq!(r.population(SetTag::A), [0, 0]);
        assert_eq!(r.population(SetTag::B), [0, 1]);
        assert_eq!(r.policy().shard_of(id, &rect([3.9, 0.0])), 1);
        // Removal un-counts the shard its registration derives to.
        let gone = r.remove(id, &registered(SetTag::B, [3.9, 0.0], 5.0));
        assert_eq!(gone, 1);
        assert_eq!(r.population(SetTag::B), [0, 0]);
    }

    #[test]
    fn repartition_moves_exactly_the_crossers_sorted_by_id() {
        let mut r = ShardRouter::new(Arc::new(VelocityBandPolicy::new(2, 4.0)));
        let mut table = Registrations::default();
        // Speeds 0.5, 1.5, 2.5, 3.5 under equal-width K=2 bands split
        // at 2.0 → shards 0, 0, 1, 1. Inserted in reverse to show the
        // moves come out by id whatever the table's order.
        for (i, v) in [0.5, 1.5, 2.5, 3.5].into_iter().enumerate().rev() {
            let id = ObjectId(i as u64);
            r.place(id, SetTag::A, &rect([v, 0.0]));
            table.insert(id, registered(SetTag::A, [v, 0.0], 1.0));
        }
        assert_eq!(r.population(SetTag::A), [2, 2]);
        // New boundary at 1.0: objects 1, 2, 3 belong in shard 1 → only
        // object 1 moves.
        let moves = r.repartition(Arc::new(VelocityBandPolicy::from_edges(vec![1.0])), &table);
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].id, ObjectId(1));
        assert_eq!((moves[0].from, moves[0].to), (0, 1));
        assert_eq!(moves[0].registration.registered_at, 1.0);
        assert_eq!(r.policy().shard_of(ObjectId(1), &rect([1.5, 0.0])), 1);
        assert_eq!(r.rebalanced(), 1);
        assert_eq!(r.migrations(), 0, "rebalance must not count as migration");
        assert_eq!(r.population(SetTag::A), [1, 3]);
        // Splitting to K=3 moves the fast half up, ids in order.
        let policy = VelocityBandPolicy::from_edges(vec![1.0, 3.0]);
        let moves = r.repartition(Arc::new(policy), &table);
        assert_eq!(
            moves.iter().map(|m| m.id.0).collect::<Vec<_>>(),
            vec![3],
            "only 3.5 crosses the new 3.0 edge"
        );
        assert_eq!((moves[0].from, moves[0].to), (1, 2));
        assert_eq!(r.rebalanced(), 2);
        assert_eq!(r.population(SetTag::A), [1, 2, 1]);
    }
}
