//! The shard router: the one place that knows where every object lives.
//!
//! The router owns the object → shard placement map and everything
//! derived from it: the per-set per-shard populations, the migration
//! and rebalance tallies, and [`route`](ShardRouter::route) — the one
//! body that re-files an update. Indexes never see any of it: the router
//! asks the policy where the object *belongs* now, compares with where it
//! *was*, and turns a disagreement into a migration inside the same
//! logical update. The partitioned pair spells that as a remove from the
//! old partition and an insert into the new one.
//!
//! The router keeps a full [`ObjectRecord`] per object — set, shard,
//! current trajectory, and the time the trajectory was *registered*
//! (the tick the update was applied, which for an update submitted late
//! can differ from the trajectory's own reference time).
//! That record is what makes online re-partitioning possible:
//! [`repartition`](ShardRouter::repartition) re-evaluates a new policy
//! against every live trajectory and hands the partitioned pair the
//! exact batch of moves, each carrying the original registration time so
//! indexes that key removal on update time (MTB buckets) can re-file the
//! object where its next delete will look for it.
//!
//! The record is also the only source of an update's delete keys:
//! [`route`](ShardRouter::route) hands back the record it replaces, and
//! every remove is addressed by it, never by the `old_mbr` /
//! `last_update` / `set` the caller put in the update.

use std::sync::Arc;

use cij_geom::{MovingRect, Time};
use cij_tpr::{IdMap, ObjectId, TprError, TprResult};
use cij_workload::SetTag;

use crate::policy::PartitionPolicy;

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
    /// was *applied* (not the trajectory's `t_ref`; a producer may
    /// submit an update later than it was captured).
    pub last_update: Time,
}

/// One object relocation in a batched re-partition.
#[derive(Debug, Clone, Copy)]
pub struct RebalanceMove {
    /// The object being moved.
    pub id: ObjectId,
    /// Shard under the old policy.
    pub from: usize,
    /// The object's record under the new policy: `shard` is where it
    /// goes; `mbr` and `last_update` are what must be removed from
    /// `from` and inserted there, at the original registration time.
    pub record: ObjectRecord,
}

/// Object → shard placement, driven by a [`PartitionPolicy`].
///
/// Ids are globally unique across both object sets (the workload keeps
/// B ids disjoint from A ids), so one map serves both sides.
pub struct ShardRouter {
    policy: Arc<dyn PartitionPolicy>,
    records: IdMap<ObjectId, ObjectRecord>,
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
            records: IdMap::default(),
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

    /// Records `id` as living in `shard`, keeping the populations in
    /// step.
    fn insert(&mut self, id: ObjectId, set: SetTag, shard: usize, mbr: &MovingRect, now: Time) {
        let record = ObjectRecord {
            set,
            shard,
            mbr: *mbr,
            last_update: now,
        };
        if let Some(old) = self.records.insert(id, record) {
            self.population[side(old.set)][old.shard] -= 1;
        }
        self.population[side(set)][shard] += 1;
    }

    /// Places a new object registered at `now` and returns its shard.
    pub fn place(&mut self, id: ObjectId, set: SetTag, mbr: &MovingRect, now: Time) -> usize {
        let shard = self.policy.shard_of(id, mbr);
        self.insert(id, set, shard, mbr, now);
        shard
    }

    /// The shard currently holding `id`, if the router has placed it.
    #[must_use]
    pub fn shard_of(&self, id: ObjectId) -> Option<usize> {
        self.records.get(&id).map(|r| r.shard)
    }

    /// All live records, in no particular order: nothing may depend on
    /// the iteration order of this map — every consumer that needs
    /// determinism ([`repartition`](Self::repartition)) sorts what it
    /// extracts by id.
    pub fn records(&self) -> impl Iterator<Item = (ObjectId, &ObjectRecord)> {
        self.records.iter().map(|(&id, r)| (id, r))
    }

    /// Re-files object `id` under its new trajectory `mbr`, registered at
    /// `now`, and returns the record that held it and its new shard; a
    /// shard change counts as a migration. This is the routing half of
    /// every update; the partitioned pair spells it as one remove and one
    /// insert.
    ///
    /// # Errors
    /// [`TprError::ObjectNotFound`], with nothing changed, when the router
    /// has not placed `id`.
    pub fn route(
        &mut self,
        id: ObjectId,
        mbr: &MovingRect,
        now: Time,
    ) -> TprResult<(ObjectRecord, usize)> {
        let Some(&prev) = self.records.get(&id) else {
            return Err(TprError::ObjectNotFound(id));
        };
        let to = self.policy.shard_of(id, mbr);
        self.insert(id, prev.set, to, mbr, now);
        if prev.shard != to {
            self.migrations += 1;
        }
        Ok((prev, to))
    }

    /// Forgets object `id` of `set`, returning the record that held it.
    /// `None` — and nothing forgotten — when the id is unknown or was
    /// placed under the other set.
    pub fn remove(&mut self, set: SetTag, id: ObjectId) -> Option<ObjectRecord> {
        if self.records.get(&id)?.set != set {
            return None;
        }
        let record = self.records.remove(&id)?;
        self.population[side(set)][record.shard] -= 1;
        Some(record)
    }

    /// Re-partitions every live object under `new_policy`: swaps the
    /// policy in, updates placements and populations, and returns the
    /// objects whose shard changed — sorted by id so the batched
    /// rebalance is deterministic regardless of hash-map iteration
    /// order. Moves are counted in
    /// [`rebalanced`](Self::rebalanced), *not* in
    /// [`migrations`](Self::migrations): update-driven and
    /// policy-driven relocations are separate phenomena in the reports.
    pub fn repartition(&mut self, new_policy: Arc<dyn PartitionPolicy>) -> Vec<RebalanceMove> {
        let k = new_policy.shard_count();
        self.population = [vec![0; k], vec![0; k]];
        let mut moves = Vec::new();
        for (&id, rec) in &mut self.records {
            let to = new_policy.shard_of(id, &rec.mbr);
            if to != rec.shard {
                let from = std::mem::replace(&mut rec.shard, to);
                let record = *rec;
                moves.push(RebalanceMove { id, from, record });
            }
            self.population[side(rec.set)][to] += 1;
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
    use cij_geom::Rect;

    use super::*;
    use crate::policy::VelocityBandPolicy;

    fn rect(v: [f64; 2]) -> MovingRect {
        MovingRect::rigid(Rect::new([0.0, 0.0], [1.0, 1.0]), v, 0.0)
    }

    /// `route` hands back the record an update replaces — the delete keys
    /// of its remove, whatever the caller believes — and its new shard,
    /// and keeps records, populations and the migration count in step.
    #[test]
    fn stays_and_migrations_route_by_the_record() {
        let mut r = ShardRouter::new(Arc::new(VelocityBandPolicy::new(2, 4.0)));
        let id = ObjectId(7);
        assert_eq!(r.place(id, SetTag::B, &rect([0.5, 0.0]), 0.0), 0);
        assert_eq!(r.shard_of(id), Some(0));
        // Same band: stay — but the record tracks the new trajectory
        // and registration time.
        let (prev, to) = r.route(id, &rect([0.9, 0.0]), 3.0).unwrap();
        assert_eq!((prev.set, prev.shard, to), (SetTag::B, 0, 0));
        assert_eq!((prev.mbr, prev.last_update), (rect([0.5, 0.0]), 0.0));
        assert_eq!(r.migrations(), 0);
        let (_, rec) = r.records().find(|&(live, _)| live == id).unwrap();
        assert_eq!(rec.last_update, 3.0);
        assert_eq!(rec.mbr.vlo, [0.9, 0.0]);
        // Band 0 → band 1: migrate, removing what the stay registered.
        let (prev, to) = r.route(id, &rect([3.9, 0.0]), 5.0).unwrap();
        assert_eq!((prev.shard, to), (0, 1));
        assert_eq!((prev.mbr, prev.last_update), (rect([0.9, 0.0]), 3.0));
        assert_eq!(r.migrations(), 1);
        assert_eq!(r.shard_of(id), Some(1));
        // Unknown object: refused, nothing routed or placed.
        let unknown = r.route(ObjectId(99), &rect([0.1, 0.0]), 5.0);
        assert!(matches!(
            unknown,
            Err(TprError::ObjectNotFound(ObjectId(99)))
        ));
        assert_eq!(r.migrations(), 1);
        assert_eq!(r.population(SetTag::A), [0, 0]);
        assert_eq!(r.population(SetTag::B), [0, 1]);
        // The caller's set must agree with the placement: a mismatch
        // forgets nothing and touches no population.
        assert!(r.remove(SetTag::A, id).is_none());
        assert_eq!(r.records().count(), 1);
        let gone = r.remove(SetTag::B, id).unwrap();
        assert_eq!(gone.shard, 1);
        assert_eq!(gone.last_update, 5.0);
        assert_eq!(r.records().count(), 0);
        assert_eq!(r.population(SetTag::B), [0, 0]);
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
        let moves = r.repartition(Arc::new(VelocityBandPolicy::from_edges(vec![1.0])));
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].id, ObjectId(1));
        assert_eq!((moves[0].from, moves[0].record.shard), (0, 1));
        assert_eq!(moves[0].record.last_update, 1.0);
        assert_eq!(r.shard_of(ObjectId(1)), Some(1));
        assert_eq!(r.rebalanced(), 1);
        assert_eq!(r.migrations(), 0, "rebalance must not count as migration");
        assert_eq!(r.population(SetTag::A), [1, 3]);
        // Splitting to K=3 moves the fast half up, ids in order.
        let moves = r.repartition(Arc::new(VelocityBandPolicy::from_edges(vec![1.0, 3.0])));
        assert_eq!(
            moves.iter().map(|m| m.id.0).collect::<Vec<_>>(),
            vec![3],
            "only 3.5 crosses the new 3.0 edge"
        );
        assert_eq!(r.shard_of(ObjectId(3)), Some(2));
        assert_eq!(r.rebalanced(), 2);
        assert_eq!(r.population(SetTag::A), [1, 2, 1]);
    }
}
