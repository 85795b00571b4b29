//! One index per object: K inner index pairs behind one [`IndexPair`].
//!
//! A [`PartitionedPair`] holds one inner pair per shard of its
//! [`PartitionPolicy`] and files every object in exactly one of them:
//! A-shard *i* on partition *i*'s A side, B-shard *j* on partition *j*'s
//! B side. Under a [`BufferedEngine`](cij_core::BufferedEngine) it is the
//! whole shard layer: one result buffer, one maintenance protocol, and
//! each object indexed once — velocity partitioning on a single node, as
//! *Speed Partitioning for Indexing Moving Objects* and *Boosting Moving
//! Object Indexing through Velocity Partitioning* run it.
//!
//! # Why the partitions answer exactly what one pair answers
//!
//! A probe of side A meets every B-object in some partition's B index,
//! so probing all K partitions in turn finds every partner the single
//! index would. The window of each hit is the single pair's too: MTB
//! buckets sit on a global time grid (`bucket_of(t) = ⌊t / bucket_len⌋`),
//! so an object's bucket, and the Theorem-2 window `min(t_eb, now) + T_M`
//! of every probe against it, do not depend on which partition holds it.
//! Theorem 2 needs only "every object of this bucket re-registers by
//! `t_eb + T_M`", which holds for any split of the objects. The initial
//! join is phase 2 over all of A, so the same argument covers it.
//!
//! # Phase 2 on a fan-out
//!
//! A tick's probes of both sides, and each round of the initial join's A
//! probes, go to every partition at once ([`IndexPair::probe_sides`]),
//! the partitions fanned out over
//! [`fan_out_tasks`] at the configuration's `threads`. Each partition
//! answers into scratch of its own, kept across ticks, and the answers are
//! merged per side in partition order — the order one thread probing
//! partition after partition appends them — so hits, [`JoinCounters`] and
//! the change list are the same at any width. Partitions whose trees live
//! elsewhere (`cij-dist`'s remote pair, one worker process each) join the
//! same way: the fan-out is then one round trip per worker, all in flight
//! together, so an in-process and a distributed deployment of the same
//! partitions do the same work and count the same [`JoinCounters`].
//!
//! # Routing
//!
//! The pair owns the [`ShardRouter`]: the policy, populations and
//! migration counts. It keeps no per-object state: every delete is
//! addressed by the engine's [`Registrations`] entry, and the partition
//! that holds an object is the policy's shard of that entry's trajectory.
//! An update that keeps its shard is a remove and an insert in one
//! partition; one that crosses a boundary (a migration) is a remove from
//! partition *i* and an insert into *j*, in the same phase-1 step.
//!
//! # Re-partitioning
//!
//! [`repartition`](PartitionedPair::repartition) moves each object whose
//! shard changes to its new partition and keeps its registration time,
//! so it lands in the bucket it left. No probe runs and no answer moves:
//! every buffered interval was computed under a window that the move
//! leaves as it was.

use std::sync::{Arc, Mutex};

use cij_core::{sorted_registrations, EngineConfig, IndexPair, Registration, Registrations};
use cij_geom::{MovingRect, Time};
use cij_join::{fan_out_tasks, JoinCounters, JoinScratch, ProbeHit};
use cij_obs::MetricsRegistry;
use cij_storage::{sync, BufferPool};
use cij_tpr::{IdMap, ObjectId, TprResult};
use cij_workload::SetTag;

use crate::policy::PartitionPolicy;
use crate::router::{RebalanceMove, ShardRouter};

/// What a [`PartitionedPair`] is built from.
#[derive(Clone)]
pub struct PartitionedConfig<C> {
    /// The configuration of every partition.
    pub inner: C,
    /// Where each object is filed.
    pub policy: Arc<dyn PartitionPolicy>,
}

/// K index pairs, one per shard, each object in exactly one (see the
/// module docs).
pub struct PartitionedPair<P: IndexPair> {
    pool: BufferPool,
    config: P::Config,
    obs: MetricsRegistry,
    router: ShardRouter,
    parts: Vec<P>,
    /// One per partition: what its phase-2 probes answered last.
    rounds: Vec<Mutex<PartRound>>,
    rebalances: u64,
    routing: Routing,
}

/// Where [`refile`](IndexPair::refile) sends each change, kept across
/// calls so a warm batch allocates nothing.
#[derive(Default)]
struct Routing {
    /// The partition each removed id left.
    left: IdMap<ObjectId, u32>,
    /// The partition of every removal, in order.
    from: Vec<u32>,
    /// The partition of every insertion, in order.
    to: Vec<u32>,
}

/// One partition's share of a phase-2 round, kept across ticks so the
/// fan-out allocates nothing once warm.
#[derive(Default)]
struct PartRound {
    scratch: JoinScratch,
    counters: JoinCounters,
    hits: [Vec<ProbeHit>; 2],
}

impl<P: IndexPair> PartitionedPair<P>
where
    P::Config: Clone,
{
    /// The router: placements, populations, migration tallies.
    #[must_use]
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The partitions, in shard order.
    #[must_use]
    pub fn partitions(&self) -> &[P] {
        &self.parts
    }

    /// Re-partitions committed so far.
    #[must_use]
    pub fn rebalances(&self) -> u64 {
        self.rebalances
    }

    /// Re-partitions every object of `registrations` — the engine's
    /// table of what this pair files — under `policy` at `now` and
    /// returns how many moved. Each mover is removed from its old
    /// partition and inserted into its new one at its original
    /// registration time; a split adds empty partitions first and a merge
    /// drops the partitions it emptied. No probe runs, so no answer and
    /// no [`JoinCounters`] move (see the module docs).
    pub fn repartition(
        &mut self,
        registrations: &Registrations,
        policy: Arc<dyn PartitionPolicy>,
        now: Time,
    ) -> TprResult<usize> {
        let old_k = self.parts.len();
        let moves = self.router.repartition(policy, registrations);
        let k = self.router.policy().shard_count();
        while self.parts.len() < k {
            let part = P::empty(&self.pool, &self.config, &self.obs);
            self.parts.push(part);
            self.rounds.push(Mutex::default());
        }
        for (i, part) in self.parts.iter_mut().enumerate() {
            let leaving = (moves.iter()).filter(move |m| m.from == i);
            let arriving = (moves.iter()).filter(move |m| m.to == i);
            let filing = |m: &RebalanceMove| (m.id, m.registration);
            part.refile(leaving.map(filing), arriving.map(filing), now)?;
        }
        self.parts.truncate(k);
        self.rounds.truncate(k);
        self.rebalances += 1;
        // A snapshot attributes load only to the shards that exist, and
        // sees the rebalance without waiting for the next publish.
        if self.obs.is_enabled() {
            for shard in k..old_k {
                for side in ["a", "b"] {
                    self.obs
                        .gauge(&format!("shard.population.{side}.{shard}"))
                        .set(0);
                }
            }
            self.publish_extra(&self.obs);
        }
        Ok(moves.len())
    }

    /// The objects of `registrations` that partition `shard` holds,
    /// sorted by side and id, as [`IndexPair::reseed`] takes them.
    #[must_use]
    pub fn shard_registrations(
        &self,
        registrations: &Registrations,
        shard: usize,
    ) -> Vec<(ObjectId, Registration)> {
        sorted_registrations(registrations, |id, r| {
            self.router.policy().shard_of(id, &r.mbr) == shard
        })
    }
}

impl<P: IndexPair> IndexPair for PartitionedPair<P>
where
    P::Config: Clone,
{
    type Config = PartitionedConfig<P::Config>;
    const NAME: &'static str = P::NAME;

    fn engine_config(config: &Self::Config) -> &EngineConfig {
        P::engine_config(&config.inner)
    }

    fn empty(pool: &BufferPool, config: &Self::Config, obs: &MetricsRegistry) -> Self {
        let k = config.policy.shard_count();
        Self {
            pool: pool.clone(),
            config: config.inner.clone(),
            obs: obs.clone(),
            router: ShardRouter::new(Arc::clone(&config.policy)),
            parts: (0..k).map(|_| P::empty(pool, &config.inner, obs)).collect(),
            rounds: (0..k).map(|_| Mutex::default()).collect(),
            rebalances: 0,
            routing: Routing::default(),
        }
    }

    /// Hands each partition its share of the batch in one call. An id
    /// both removed and inserted is an update, and a move between
    /// partitions counts as a migration ([`ShardRouter::count_move`]).
    /// Every removal un-counts, and every insertion counts, its object
    /// where its registration derives to.
    fn refile(
        &mut self,
        removes: impl Iterator<Item = (ObjectId, Registration)> + Clone,
        inserts: impl Iterator<Item = (ObjectId, Registration)> + Clone,
        now: Time,
    ) -> TprResult<()> {
        let Routing { left, from, to } = &mut self.routing;
        left.clear();
        from.clear();
        to.clear();
        for (id, r) in removes.clone() {
            let shard = self.router.remove(id, &r) as u32;
            left.insert(id, shard);
            from.push(shard);
        }
        for (id, r) in inserts.clone() {
            let shard = self.router.place(id, r.set, &r.mbr);
            if let Some(&was) = left.get(&id) {
                self.router.count_move(was as usize, shard);
            }
            to.push(shard as u32);
        }
        for (i, part) in self.parts.iter_mut().enumerate() {
            // A batch of one has a share in one partition.
            if !from.iter().chain(&*to).any(|&shard| shard as usize == i) {
                continue;
            }
            let here = move |(change, &shard): (_, &u32)| (shard as usize == i).then_some(change);
            let removes = removes.clone().zip(&*from).filter_map(here);
            part.refile(removes, inserts.clone().zip(&*to).filter_map(here), now)?;
        }
        Ok(())
    }

    /// Every partition's [`probe_sides`](IndexPair::probe_sides) on the
    /// fan-out, merged per side in shard order (see the module docs). A
    /// partition that failed because it lost its index is
    /// [re-seeded](IndexPair::reseed) from `registrations`, which
    /// already hold this round's mutations, and probed once more; the
    /// first other error, or second failure, in shard order.
    fn probe_sides(
        &self,
        registrations: &Registrations,
        probes: [&[MovingRect]; 2],
        now: Time,
        _: &mut JoinScratch,
        counters: &mut JoinCounters,
        hits: &mut [Vec<ProbeHit>; 2],
    ) -> TprResult<()> {
        let threads = P::engine_config(&self.config).threads;
        let (parts, rounds) = (&self.parts, &self.rounds);
        let probe = |i: usize| {
            // A round that panicked left nothing this one relies on: it
            // resets its counters and hits before it probes.
            let round = &mut *sync::lock(&rounds[i]);
            round.counters = JoinCounters::new();
            round.hits.iter_mut().for_each(Vec::clear);
            let PartRound {
                scratch,
                counters,
                hits,
            } = round;
            parts[i].probe_sides(registrations, probes, now, scratch, counters, hits)
        };
        let answered = fan_out_tasks(parts.len(), threads, probe);
        for (i, (round, answer)) in rounds.iter().zip(answered).enumerate() {
            if let Err(e) = answer {
                if !parts[i].reseed(&self.shard_registrations(registrations, i), now)? {
                    return Err(e);
                }
                probe(i)?;
            }
            let round = sync::lock(round);
            *counters = counters.merged(round.counters);
            for (all, part) in hits.iter_mut().zip(&round.hits) {
                all.extend_from_slice(part);
            }
        }
        Ok(())
    }

    fn publish_extra(&self, registry: &MetricsRegistry) {
        if !registry.is_enabled() {
            return;
        }
        let r = &self.router;
        registry.counter("shard.migrations").store(r.migrations());
        registry.counter("shard.rebalances").store(self.rebalances);
        registry
            .counter("shard.rebalance.moved_objects")
            .store(r.rebalanced());
        registry.gauge("shard.engines").set(self.parts.len() as i64);
        for part in &self.parts {
            part.publish_extra(registry);
        }
        for (side, set) in [("a", SetTag::A), ("b", SetTag::B)] {
            for (shard, &n) in r.population(set).iter().enumerate() {
                registry
                    .gauge(&format!("shard.population.{side}.{shard}"))
                    .set(n as i64);
            }
        }
    }
}
