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
//! join is the same argument for K² cross-partition tree joins.
//!
//! # Phase 2 on a fan-out
//!
//! A tick's probes of both sides go to every partition at once
//! ([`IndexPair::probe_sides`]), the partitions fanned out over
//! [`fan_out_tasks`] at the configuration's `threads`. Each partition
//! answers into scratch of its own, kept across ticks, and the answers are
//! merged per side in partition order — the order one thread probing
//! partition after partition appends them — so hits, [`JoinCounters`] and
//! the change list are the same at any width. Partitions whose trees live
//! elsewhere (`cij-dist`'s remote pair, one worker process each) join the
//! same way: the fan-out is then one round trip per worker, all in flight
//! together, and their initial join is one such round of every A object
//! (they cannot run a tree-vs-tree job across processes).
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

use cij_core::{
    self_join, sorted_registrations, EngineConfig, IndexPair, Registration, Registrations,
};
use cij_geom::{MovingRect, Time};
use cij_join::{fan_out_tasks, JoinCounters, JoinJob, JoinPair, JoinScratch, ProbeHit, Techniques};
use cij_obs::MetricsRegistry;
use cij_storage::{sync, BufferPool, CacheSnapshot};
use cij_tpr::{ObjectId, TprError, TprResult};
use cij_workload::SetTag;

use crate::policy::PartitionPolicy;
use crate::router::ShardRouter;

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
        for m in &moves {
            let r = &m.registration;
            self.parts[m.from].remove(m.id, r, now)?;
            self.parts[m.to].insert(r.set, m.id, r.mbr, r.registered_at, now)?;
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

    /// The initial join as one phase-2 round: every A object, in id order,
    /// probes every partition's B side.
    fn probe_join(
        &self,
        registrations: &Registrations,
        now: Time,
    ) -> TprResult<(Vec<JoinPair>, JoinCounters)> {
        let side_a = sorted_registrations(registrations, |_, r| r.set == SetTag::A);
        let probes: Vec<MovingRect> = side_a.iter().map(|(_, r)| r.mbr).collect();
        let mut counters = JoinCounters::new();
        let mut hits = [Vec::new(), Vec::new()];
        let scratch = &mut JoinScratch::new();
        let sent = [&probes[..], &[]];
        self.probe_sides(registrations, sent, now, scratch, &mut counters, &mut hits)?;
        let [hits_a, _] = hits;
        let pairs = (hits_a.into_iter())
            .map(|(p, b, interval)| JoinPair::new(side_a[p as usize].0, b, interval))
            .collect();
        Ok((pairs, counters))
    }
}

impl<P: IndexPair> IndexPair for PartitionedPair<P>
where
    P::Config: Clone,
{
    type Config = PartitionedConfig<P::Config>;
    const NAME: &'static str = P::NAME;
    const TREE_JOBS: bool = P::TREE_JOBS;

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
        }
    }

    fn insert(
        &mut self,
        set: SetTag,
        id: ObjectId,
        mbr: MovingRect,
        registered_at: Time,
        now: Time,
    ) -> TprResult<()> {
        let shard = self.router.place(id, set, &mbr);
        self.parts[shard].insert(set, id, mbr, registered_at, now)
    }

    /// Deletes from the partition `registration` derives to.
    fn remove(&mut self, id: ObjectId, registration: &Registration, now: Time) -> TprResult<()> {
        let shard = self.router.remove(id, registration);
        self.parts[shard].remove(id, registration, now)
    }

    fn reregister(
        &mut self,
        id: ObjectId,
        prev: &Registration,
        mbr: MovingRect,
        now: Time,
    ) -> TprResult<()> {
        let (from, to) = self.router.route(id, prev, &mbr);
        self.parts[from].remove(id, prev, now)?;
        self.parts[to].insert(prev.set, id, mbr, now, now)
    }

    /// The K² cross-partition tree jobs on one worklist; partitions whose
    /// trees are out of reach ([`IndexPair::TREE_JOBS`] false, remote
    /// ones) join by one probe round instead (see the module docs).
    fn initial_join(
        &mut self,
        registrations: &Registrations,
        now: Time,
    ) -> TprResult<(Vec<JoinPair>, JoinCounters)> {
        if P::TREE_JOBS {
            self_join(self, now, P::engine_config(&self.config).threads)
        } else {
            self.probe_join(registrations, now)
        }
    }

    /// Every (A-partition of `a`, B-partition of `b`) in row-major order;
    /// at K = 1 exactly the inner pair's jobs.
    fn join_jobs<'t>(
        a: &'t Self,
        b: &'t Self,
        now: Time,
        jobs: &mut Vec<JoinJob<'t>>,
    ) -> TprResult<Techniques> {
        let mut tech = Err(TprError::Unsupported {
            what: "a join of zero partitions".to_string(),
        });
        for part_a in &a.parts {
            for part_b in &b.parts {
                tech = Ok(P::join_jobs(part_a, part_b, now, jobs)?);
            }
        }
        tech
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

    fn page_format_stats(&self) -> CacheSnapshot {
        (self.parts.iter())
            .map(IndexPair::page_format_stats)
            .reduce(|acc, s| acc.merged(&s))
            .unwrap_or_default()
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
