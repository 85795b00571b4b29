//! The one update-driven engine and its index pairs.
//!
//! Theorems 1 and 2 bound the *window* of a join run and say nothing
//! about which index answers it, so NaiveJoin, TC-Join and MTB-Join are
//! one maintenance protocol — re-register the object in its own index,
//! drop its pairs, probe the other side over a window, add the hits to
//! the [`ResultBuffer`] — written once in [`BufferedEngine`].
//! Everything engine-specific (index, window, probe kernel, what moves
//! [`JoinCounters`]) lives in an [`IndexPair`]:
//!
//! | alias | pair | index | window | probe kernel |
//! |---|---|---|---|---|
//! | [`NaiveEngine`] | [`NaivePair`] = [`TprPair<false>`] | 2 TPR-trees | `∞` | `intersect_window` per probe |
//! | [`TcEngine`] | [`TcPair`] = [`TprPair<true>`] | 2 TPR-trees | `now + T_M` | [`probe_batch`] |
//! | [`MtbEngine`] | [`MtbPair`] | 2 [`MtbTree`]s | `min(t_eb, now) + T_M` per bucket | [`probe_batch`] per bucket |
//!
//! Every pair is backed by TPR-trees (the proximity pair of `cij-simjoin`
//! included): the paper runs all of §VI on that one substrate.

use std::ops::Deref;

use cij_geom::{MovingRect, Time, INFINITE_TIME};
use cij_join::{
    parallel_improved_multi_join, probe_batch, techniques, JoinCounters, JoinJob, JoinPair,
    JoinScratch, ProbeHit, Techniques,
};
use cij_obs::MetricsRegistry;
use cij_storage::{BufferPool, CacheSnapshot};
use cij_tpr::{IdMap, ObjectId, TprError, TprResult, TprTree};
use cij_workload::{MovingObject, ObjectUpdate, SetTag};

use crate::engine::{orient, publish_engine_totals, ContinuousJoinEngine, EngineConfig};
use crate::mtb::MtbTree;
use crate::registrations::{genesis_registrations, Registration, Registrations};
use crate::result::{PairKey, PairStatus, ResultBuffer};

/// The two indexes of a [`BufferedEngine`] — one per object set — and the
/// joins between them. An implementation decides which index holds the
/// objects, the time window of every join run and the kernel that
/// answers it; the engine owns the protocol around those calls and the
/// [`Registrations`] table, from which it derives every delete and which
/// it hands to the hooks that read other objects' registrations. Probes
/// only read the pair, so a pair is `Sync`: a partitioned one probes its
/// partitions from several threads at once.
pub trait IndexPair: Sized + Sync {
    /// What [`empty`](Self::empty) is configured from.
    type Config: Sync;

    /// Algorithm name as used in the paper's figures.
    const NAME: &'static str;

    /// Whether [`join_jobs`](Self::join_jobs) can reach this pair's
    /// trees. A pair whose trees live in another process says no; a
    /// partitioned pair of such pairs joins initially by a probe round.
    const TREE_JOBS: bool = true;

    /// The shared engine knobs inside `config`.
    fn engine_config(config: &Self::Config) -> &EngineConfig;

    /// Two empty indexes reading through `pool`. `obs` is the engine's
    /// registry, for pairs that record metrics of their own.
    fn empty(pool: &BufferPool, config: &Self::Config, obs: &MetricsRegistry) -> Self;

    /// Registers `id` on side `set` at `now`. `registered_at` is the time
    /// of the object's last update (`== now` unless the object is being
    /// restored); indexes keyed by update time file it there.
    fn insert(
        &mut self,
        set: SetTag,
        id: ObjectId,
        mbr: MovingRect,
        registered_at: Time,
        now: Time,
    ) -> TprResult<()>;

    /// Deregisters `id`, filed under `registration`.
    fn remove(&mut self, id: ObjectId, registration: &Registration, now: Time) -> TprResult<()>;

    /// Phase 1 of an update at `now`: moves `id` from `prev` to the
    /// trajectory `mbr`, registered at `now` on the same side. The
    /// default is a [`remove`](Self::remove) and an
    /// [`insert`](Self::insert); the shard crate's partitioned pair
    /// overrides it to count a move between partitions.
    fn reregister(
        &mut self,
        id: ObjectId,
        prev: &Registration,
        mbr: MovingRect,
        now: Time,
    ) -> TprResult<()> {
        self.remove(id, prev, now)?;
        self.insert(prev.set, id, mbr, now, now)
    }

    /// The set-vs-set join at `now` over the objects of `registrations`:
    /// every answer pair, in the order it enters the result buffer, and
    /// the traversal work it took.
    fn initial_join(
        &mut self,
        registrations: &Registrations,
        now: Time,
    ) -> TprResult<(Vec<JoinPair>, JoinCounters)>;

    /// The set-vs-set join between `a`'s A-side index and `b`'s B-side
    /// index at `now`, as tree-vs-tree jobs appended to `jobs`, and the
    /// improvement techniques they run with. A pair's own initial join is
    /// this hook with `a` = `b` ([`self_join`]); a partitioned pair calls
    /// it for every (A-partition, B-partition) and runs all the jobs in
    /// one worklist. The default refuses: the answer of a pair that
    /// refines its hits is not a plain tree join.
    fn join_jobs<'t>(
        _a: &'t Self,
        _b: &'t Self,
        _now: Time,
        _jobs: &mut Vec<JoinJob<'t>>,
    ) -> TprResult<Techniques> {
        Err(TprError::Unsupported {
            what: format!("tree-job initial join on {}", Self::NAME),
        })
    }

    /// Joins `probes` — trajectories of side `side`, all registered at
    /// `now` — against the index of the other side, appending one hit
    /// per (probe, partner) that meets inside the pair's window. The
    /// default refuses: a pair that probes only in rounds of both sides
    /// (the shard crate's partitions, a remote partition) overrides
    /// [`probe_sides`](Self::probe_sides) instead.
    fn probe(
        &self,
        _side: SetTag,
        _probes: &[MovingRect],
        _now: Time,
        _scratch: &mut JoinScratch,
        _counters: &mut JoinCounters,
        _hits: &mut Vec<ProbeHit>,
    ) -> TprResult<()> {
        Err(TprError::Unsupported {
            what: format!("a one-side probe on {}", Self::NAME),
        })
    }

    /// Phase 2 of a tick, both sides in one call: `probes[0]` (side A)
    /// and `probes[1]` (side B), each joined against the other side's
    /// index, hits appended to `hits[0]` and `hits[1]`. The default is one
    /// [`probe`](Self::probe) per side that has probes. A pair whose
    /// joins can run together overrides it — the shard crate's
    /// partitions on a fan-out, a remote partition in one round trip —
    /// and keeps the default's hits and counters; `registrations` is what
    /// it [re-seeds](Self::reseed) a lost partition from.
    fn probe_sides(
        &self,
        _registrations: &Registrations,
        probes: [&[MovingRect]; 2],
        now: Time,
        scratch: &mut JoinScratch,
        counters: &mut JoinCounters,
        hits: &mut [Vec<ProbeHit>; 2],
    ) -> TprResult<()> {
        for (set, (probes, hits)) in [SetTag::A, SetTag::B]
            .into_iter()
            .zip(probes.iter().zip(hits))
        {
            if !probes.is_empty() {
                self.probe(set, probes, now, scratch, counters, hits)?;
            }
        }
        Ok(())
    }

    /// Rebuilds the index of a pair that lost it, and says whether it
    /// had. A pair whose trees live in a worker process loses them when
    /// the worker restarts blank or misses a round; its
    /// [`probe_sides`](Self::probe_sides) then fails, and the caller hands
    /// it `objects` — every object it holds, sorted by side and id
    /// ([`sorted_registrations`](crate::sorted_registrations)) — to file each at its registration
    /// time, then probes it once more. The default: an in-process index
    /// is never lost.
    fn reseed(&self, _objects: &[(ObjectId, Registration)], _now: Time) -> TprResult<bool> {
        Ok(false)
    }

    /// Turns the [`probe`](Self::probe) hits the engine is about to
    /// buffer into answers, for pairs whose index only *filters*
    /// (rewrite an interval in place, or drop the hit); a partner's
    /// trajectory is its entry in `registrations`. Hits superseded inside
    /// the tick never get here. The default keeps every hit: an
    /// intersection index answers exactly.
    fn refine(
        &mut self,
        _registrations: &Registrations,
        _side: SetTag,
        _probes: &[MovingRect],
        _now: Time,
        _hits: &mut Vec<ProbeHit>,
    ) {
    }

    /// Page-format counters summed over both indexes.
    fn page_format_stats(&self) -> CacheSnapshot;

    /// Mirrors totals the pair keeps itself into the registry.
    fn publish_extra(&self, _registry: &MetricsRegistry) {}
}

/// A pair's initial join: its [`IndexPair::join_jobs`] against itself,
/// all jobs on one shared worklist of `threads` workers
/// ([`parallel_improved_multi_join`]), answers and counters concatenated
/// in job order.
pub fn self_join<P: IndexPair>(
    pair: &P,
    now: Time,
    threads: usize,
) -> TprResult<(Vec<JoinPair>, JoinCounters)> {
    let mut jobs = Vec::new();
    let tech = P::join_jobs(pair, pair, now, &mut jobs)?;
    let mut all = (Vec::new(), JoinCounters::new());
    for (pairs, counters) in parallel_improved_multi_join(&jobs, tech, threads)? {
        all.0.extend(pairs);
        all.1 = all.1.merged(counters);
    }
    Ok(all)
}

/// Position of a side in two-element per-side arrays.
fn side(set: SetTag) -> usize {
    match set {
        SetTag::A => 0,
        SetTag::B => 1,
    }
}

/// The probes of one maintenance tick: per side, one entry per updated
/// id — its last trajectory and last position in the batch.
#[derive(Default)]
struct TickProbes {
    mbrs: [Vec<MovingRect>; 2],
    ids: [Vec<ObjectId>; 2],
    pos: [Vec<u32>; 2],
    /// Per side: id → index into the three vectors above.
    slot: [IdMap<ObjectId, usize>; 2],
    /// Phase 1's side of each applied update, in batch order.
    sides: Vec<SetTag>,
    scratch: JoinScratch,
    /// Per side: the hits of its probes.
    hits: [Vec<ProbeHit>; 2],
}

impl TickProbes {
    /// Replaces the loaded probes with `probes` (in batch order); a
    /// repeated id keeps its last trajectory and position.
    fn load(&mut self, probes: impl Iterator<Item = (SetTag, ObjectId, MovingRect)>) {
        for s in 0..2 {
            self.mbrs[s].clear();
            self.ids[s].clear();
            self.pos[s].clear();
            self.slot[s].clear();
        }
        for (k, (set, id, mbr)) in probes.enumerate() {
            let s = side(set);
            let fresh = self.ids[s].len();
            let i = *self.slot[s].entry(id).or_insert(fresh);
            if i == fresh {
                self.ids[s].push(id);
                self.mbrs[s].push(mbr);
                self.pos[s].push(k as u32);
            } else {
                self.mbrs[s][i] = mbr;
                self.pos[s][i] = k as u32;
            }
        }
    }
}

/// The update-driven continuous join: an [`IndexPair`], the
/// [`Registrations`] of its objects, the answer in a [`ResultBuffer`], and
/// the maintenance protocol between them.
///
/// A tick ([`apply_batch`](ContinuousJoinEngine::apply_batch)) runs in
/// two phases. Phase 1 looks up each update's registration, removes the
/// object by it and re-registers it at `now`, **in batch order** — so the
/// indexes end up as the very pages the per-update loop would have
/// written — drops the updated objects' pairs, and keeps one probe per
/// updated id. Of an update only `id` and `new_mbr` are read: its side and
/// delete keys are the table's. Phase 2 joins the probes of each side against
/// the other side's index in one [`IndexPair::probe_sides`] call and adds
/// the hits to the buffer.
///
/// Three rules make the buffer equal to the loop's, bit for bit:
/// mutation order is kept (above); an id updated twice probes only with
/// its **last** trajectory (the loop's earlier pairs were dropped again
/// by the later update); and a pair whose two endpoints both updated is
/// taken from the probe of the endpoint **later** in the batch (the loop
/// dropped the earlier endpoint's finding when the later one updated).
/// Pairs the loop found and dropped again within the tick never enter
/// the buffer here, so the change list is a subset of the loop's — it is
/// a dirty list that consumers recheck against engine state.
///
/// The engine dereferences to its pair, which is where the
/// pair-specific accessors live (`engine.mtb_a()`, …).
pub struct BufferedEngine<I> {
    pool: BufferPool,
    index: I,
    registrations: Registrations,
    buffer: ResultBuffer,
    counters: JoinCounters,
    probes: TickProbes,
    obs: MetricsRegistry,
}

/// The paper's naive baseline (§II-C): every join run computes pairs to
/// the infinite timestamp.
pub type NaiveEngine = BufferedEngine<NaivePair>;
/// Time-constrained processing on single TPR-trees (§IV-B, Theorem 1):
/// every join run is capped at `t_u + T_M`.
pub type TcEngine = BufferedEngine<TcPair>;
/// The paper's full proposal (§IV-C + §IV-D): MTB-trees on both sets,
/// per-bucket time constraints (Theorem 2), improvement techniques on
/// tree-vs-tree joins.
pub type MtbEngine = BufferedEngine<MtbPair>;

impl<I: IndexPair> BufferedEngine<I> {
    /// Builds the engine: both sets registered at `now`, all of A first;
    /// an id that appears twice is refused ([`TprError::DuplicateObject`]).
    pub fn new(
        pool: BufferPool,
        config: I::Config,
        set_a: &[MovingObject],
        set_b: &[MovingObject],
        now: Time,
    ) -> TprResult<Self> {
        let obs = MetricsRegistry::enabled_if(I::engine_config(&config).metrics);
        pool.stats().register_in(&obs, "storage.pool");
        let registrations = genesis_registrations(set_a, set_b, now)?;
        let mut index = I::empty(&pool, &config, &obs);
        for (set, objects) in [(SetTag::A, set_a), (SetTag::B, set_b)] {
            for o in objects {
                index.insert(set, o.id, o.mbr, now, now)?;
            }
        }
        Ok(Self {
            pool,
            index,
            registrations,
            buffer: ResultBuffer::new(),
            counters: JoinCounters::new(),
            probes: TickProbes::default(),
            obs,
        })
    }

    /// Phase 2 of a tick: the loaded probes of each side against the
    /// other side's index; every hit not superseded by the
    /// later-endpoint rule is refined and buffered.
    fn join_probes(&mut self, now: Time) -> TprResult<()> {
        let TickProbes {
            mbrs,
            ids,
            pos,
            slot,
            scratch,
            hits,
            ..
        } = &mut self.probes;
        if mbrs.iter().all(Vec::is_empty) {
            return Ok(());
        }
        for side_hits in hits.iter_mut() {
            side_hits.clear();
        }
        let [probes_a, probes_b] = &*mbrs;
        let (table, counters) = (&self.registrations, &mut self.counters);
        (self.index).probe_sides(table, [probes_a, probes_b], now, scratch, counters, hits)?;
        for set in [SetTag::A, SetTag::B] {
            let (s, o) = (side(set), 1 - side(set));
            if mbrs[s].is_empty() {
                continue;
            }
            let hits = &mut hits[s];
            hits.retain(|&(p, partner, _)| {
                let partner_is_later = slot[o]
                    .get(&partner)
                    .is_some_and(|&q| pos[o][q] > pos[s][p as usize]);
                !partner_is_later
            });
            self.index.refine(table, set, &mbrs[s], now, hits);
            for &(p, partner, iv) in hits.iter() {
                let (a, b) = orient(set, ids[s][p as usize], partner);
                self.buffer.add(a, b, iv);
            }
        }
        Ok(())
    }
}

impl<I> BufferedEngine<I> {
    /// Mutable access to the pair, with the table of what it files, for
    /// changes that leave every registration and every answer as they
    /// are — moving an object between the partitions of a partitioned
    /// pair, say.
    pub fn index_mut(&mut self) -> (&mut I, &Registrations) {
        (&mut self.index, &self.registrations)
    }
}

impl<I> Deref for BufferedEngine<I> {
    type Target = I;

    fn deref(&self) -> &I {
        &self.index
    }
}

impl<I: IndexPair> ContinuousJoinEngine for BufferedEngine<I> {
    fn name(&self) -> &'static str {
        I::NAME
    }

    fn run_initial_join(&mut self, now: Time) -> TprResult<()> {
        let (pairs, counters) = self.index.initial_join(&self.registrations, now)?;
        self.counters = self.counters.merged(counters);
        for p in pairs {
            self.buffer.add(p.a, p.b, p.interval);
        }
        Ok(())
    }

    fn apply_update(&mut self, update: &ObjectUpdate, now: Time) -> TprResult<()> {
        self.apply_batch(std::slice::from_ref(update), now)
    }

    fn apply_batch(&mut self, updates: &[ObjectUpdate], now: Time) -> TprResult<()> {
        // Phase 1 stops at the first failure and returns it after phase 2
        // has probed for the updates before it, so they are fully applied
        // — the state the per-update loop stops in.
        let mut outcome = Ok(());
        let mut sides = std::mem::take(&mut self.probes.sides);
        sides.clear();
        for u in updates {
            let Some(registration) = self.registrations.get_mut(&u.id) else {
                outcome = Err(TprError::ObjectNotFound(u.id));
                break;
            };
            let prev = *registration;
            if let Err(e) = self.index.reregister(u.id, &prev, u.new_mbr, now) {
                outcome = Err(e);
                break;
            }
            registration.mbr = u.new_mbr;
            registration.registered_at = now;
            sides.push(prev.set);
            self.buffer.remove_object(u.id);
        }
        let applied = updates.iter().zip(&sides);
        self.probes
            .load(applied.map(|(u, &set)| (set, u.id, u.new_mbr)));
        self.probes.sides = sides;
        self.join_probes(now)?;
        outcome
    }

    fn remove_object(&mut self, id: ObjectId, now: Time) -> TprResult<()> {
        let prev = *(self.registrations.get(&id)).ok_or(TprError::ObjectNotFound(id))?;
        self.index.remove(id, &prev, now)?;
        self.registrations.remove(&id);
        self.buffer.remove_object(id);
        Ok(())
    }

    fn restore_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        mbr: MovingRect,
        registered_at: Time,
        now: Time,
    ) -> TprResult<()> {
        if self.registrations.contains_key(&id) {
            return Err(TprError::DuplicateObject(id));
        }
        self.index.insert(set, id, mbr, registered_at, now)?;
        let registration = Registration {
            set,
            mbr,
            registered_at,
        };
        self.registrations.insert(id, registration);
        self.probes.load(std::iter::once((set, id, mbr)));
        self.join_probes(now)
    }

    fn gc(&mut self, now: Time) {
        self.buffer.prune_before(now);
    }

    fn result_at(&self, t: Time) -> Vec<PairKey> {
        self.buffer.active_at(t)
    }

    fn registrations(&self) -> &Registrations {
        &self.registrations
    }

    fn pool(&self) -> &BufferPool {
        &self.pool
    }

    fn counters(&self) -> JoinCounters {
        self.counters
    }

    fn enable_delta_tracking(&mut self) {
        self.buffer.enable_change_tracking();
    }

    fn take_result_changes(&mut self) -> Option<Vec<PairKey>> {
        self.buffer.take_changes()
    }

    fn pair_status_at(&self, pair: PairKey, t: Time) -> PairStatus {
        self.buffer.status_at(pair.0, pair.1, t)
    }

    fn page_format_snapshot(&self) -> Option<CacheSnapshot> {
        Some(self.index.page_format_stats())
    }

    fn metrics_registry(&self) -> MetricsRegistry {
        self.obs.clone()
    }

    fn publish_metrics(&self) {
        publish_engine_totals(&self.obs, self.counters, self.page_format_snapshot());
        self.index.publish_extra(&self.obs);
    }
}

// ----------------------------------------------------------------------
// Index pairs
// ----------------------------------------------------------------------

/// Two TPR-trees. The const parameter picks the paper's algorithm on
/// them at compile time:
///
/// * `TprPair<false>` = [`NaivePair`] — NaiveJoin (§II-C): every join
///   run to the infinite timestamp. [`probe_batch`] needs a bounded
///   window, so maintenance is one `intersect_window` per probe, which
///   leaves [`JoinCounters`] alone (only the initial join counts
///   traversal work).
/// * `TprPair<true>` = [`TcPair`] — TC-Join (§IV-B): every join run over
///   Theorem 1's window `[now, now + T_M]` — the result for an object
///   only needs to be valid until its own next update, at most `T_M`
///   away.
///
/// **The `T_M` contract of [`TcPair`].** A pair stays exact while at
/// least one endpoint re-registered within `T_M`: that endpoint's probe
/// covered `[t_u, t_u + T_M]` against the other side's tree, whose
/// entries bound their objects at every future instant however old they
/// are. A side that never updates is therefore allowed — which is how
/// §V's continuous window queries run on this engine unchanged: the
/// windows are set B, registered once (see the crate docs).
pub struct TprPair<const TIME_CONSTRAINED: bool> {
    config: EngineConfig,
    trees: [TprTree; 2],
}

/// The index pair of [`NaiveEngine`].
pub type NaivePair = TprPair<false>;
/// The index pair of [`TcEngine`].
pub type TcPair = TprPair<true>;

impl<const TIME_CONSTRAINED: bool> IndexPair for TprPair<TIME_CONSTRAINED> {
    type Config = EngineConfig;
    const NAME: &'static str = if TIME_CONSTRAINED {
        "TC-Join"
    } else {
        "NaiveJoin"
    };

    fn engine_config(config: &EngineConfig) -> &EngineConfig {
        config
    }

    fn empty(pool: &BufferPool, config: &EngineConfig, _obs: &MetricsRegistry) -> Self {
        Self {
            config: *config,
            trees: [(); 2].map(|()| TprTree::new(pool.clone(), config.tree)),
        }
    }

    fn insert(
        &mut self,
        set: SetTag,
        id: ObjectId,
        mbr: MovingRect,
        _registered_at: Time,
        now: Time,
    ) -> TprResult<()> {
        self.trees[side(set)].insert(id, mbr, now)
    }

    fn remove(&mut self, id: ObjectId, r: &Registration, now: Time) -> TprResult<()> {
        self.trees[side(r.set)].delete(id, &r.mbr, now)
    }

    fn initial_join(
        &mut self,
        _: &Registrations,
        now: Time,
    ) -> TprResult<(Vec<JoinPair>, JoinCounters)> {
        self_join(self, now, self.config.threads)
    }

    fn join_jobs<'t>(
        a: &'t Self,
        b: &'t Self,
        now: Time,
        jobs: &mut Vec<JoinJob<'t>>,
    ) -> TprResult<Techniques> {
        let config = &a.config;
        let (t_e, tech) = if TIME_CONSTRAINED {
            (now + config.t_m, config.techniques)
        } else {
            (INFINITE_TIME, techniques::NONE)
        };
        jobs.push(JoinJob {
            tree_a: &a.trees[0],
            tree_b: &b.trees[1],
            t_s: now,
            t_e,
        });
        Ok(tech)
    }

    fn probe(
        &self,
        side_of_probes: SetTag,
        probes: &[MovingRect],
        now: Time,
        scratch: &mut JoinScratch,
        counters: &mut JoinCounters,
        hits: &mut Vec<ProbeHit>,
    ) -> TprResult<()> {
        let other = &self.trees[1 - side(side_of_probes)];
        if TIME_CONSTRAINED {
            let t_e = now + self.config.t_m;
            probe_batch(other, probes, now, t_e, scratch, counters, hits)
        } else {
            // "Join the object with the other dataset (still using the
            // naive algorithm) from the current timestamp to the infinite
            // timestamp."
            for (p, mbr) in probes.iter().enumerate() {
                let found = other.intersect_window(mbr, now, INFINITE_TIME)?;
                hits.extend(found.into_iter().map(|(id, iv)| (p as u32, id, iv)));
            }
            Ok(())
        }
    }

    fn page_format_stats(&self) -> CacheSnapshot {
        let [a, b] = &self.trees;
        a.page_format_stats().merged(&b.page_format_stats())
    }
}

/// MTB-Join (§IV-C + §IV-D): an [`MtbTree`] per set, objects filed by
/// the bucket of their last update, every join run against a bucket over
/// that bucket's own window (Theorem 2).
///
/// **The `T_M` contract.** Both sides must re-register within `T_M`.
/// Theorem 2 ends every probe against a bucket at `t_eb + T_M` because
/// each of its objects will have moved to a newer bucket by then; one
/// that stays silent is simply dropped from the answer at `t_eb + T_M`.
/// With the defaults (`T_M = 60`, bucket length 30), objects registered
/// at `t = 0` and never again vanish from every pair at `t = 90`, where
/// [`TcEngine`] on the same input stays exact. So §V's "index the
/// objects by an MTB-tree" refinement for window queries needs the
/// windows to re-register like any object (every 45 ticks, say).
pub struct MtbPair {
    config: EngineConfig,
    trees: [MtbTree; 2],
}

impl MtbPair {
    /// Access to the A-side MTB-tree (diagnostics).
    #[must_use]
    pub fn mtb_a(&self) -> &MtbTree {
        &self.trees[0]
    }

    /// Access to the B-side MTB-tree (diagnostics).
    #[must_use]
    pub fn mtb_b(&self) -> &MtbTree {
        &self.trees[1]
    }
}

impl IndexPair for MtbPair {
    type Config = EngineConfig;
    const NAME: &'static str = "MTB-Join";

    fn engine_config(config: &EngineConfig) -> &EngineConfig {
        config
    }

    fn empty(pool: &BufferPool, config: &EngineConfig, _obs: &MetricsRegistry) -> Self {
        let tree = |()| {
            MtbTree::with_buckets_per_tm(
                pool.clone(),
                config.tree,
                config.t_m,
                config.buckets_per_tm,
            )
        };
        Self {
            config: *config,
            trees: [(); 2].map(tree),
        }
    }

    /// Files the object in the bucket of `registered_at`. MTB buckets
    /// live on a global grid, so a restored object lands in the bucket
    /// the unsharded engine holds it in — its next update removes it,
    /// by the same registration time, from exactly that bucket, and
    /// every Theorem-2 per-bucket window it participates in keeps the
    /// oracle's `t_eb`.
    fn insert(
        &mut self,
        set: SetTag,
        id: ObjectId,
        mbr: MovingRect,
        registered_at: Time,
        now: Time,
    ) -> TprResult<()> {
        self.trees[side(set)].insert(id, mbr, registered_at, now)
    }

    fn remove(&mut self, id: ObjectId, r: &Registration, now: Time) -> TprResult<()> {
        self.trees[side(r.set)].remove(id, &r.mbr, r.registered_at, now)
    }

    /// All bucket pairs share one traversal worklist, so even a single
    /// large pair (the initial-join case: one bucket per side) fans out
    /// across every worker. `threads == 1` runs the jobs sequentially in
    /// order — the exact pre-parallel code path.
    fn initial_join(
        &mut self,
        _: &Registrations,
        now: Time,
    ) -> TprResult<(Vec<JoinPair>, JoinCounters)> {
        self_join(self, now, self.config.threads)
    }

    /// Tree-vs-tree improved joins between every bucket pair, each with
    /// the window min(t_eb_a, t_eb_b, now) + T_M — Theorem 2 applied to
    /// both sides, with the extra observation that a bucket's latest
    /// update can never lie in the future (`lut ≤ now`), which tightens
    /// the current bucket's bound to the paper's own initial-join window
    /// `[now, now + T_M]`. Right after construction both MTBs hold a
    /// single bucket — exactly the paper's "initial join on two single
    /// TPR-trees". Buckets sit on a global time grid, so the windows are
    /// the same whichever pair `a` and `b` the buckets come from.
    fn join_jobs<'t>(
        a: &'t Self,
        b: &'t Self,
        now: Time,
        jobs: &mut Vec<JoinJob<'t>>,
    ) -> TprResult<Techniques> {
        let t_m = a.config.t_m;
        for (eb_a, tree_a) in a.trees[0].buckets() {
            for (eb_b, tree_b) in b.trees[1].buckets() {
                let window_end = eb_a.min(eb_b).min(now) + t_m;
                if window_end <= now {
                    continue;
                }
                jobs.push(JoinJob {
                    tree_a,
                    tree_b,
                    t_s: now,
                    t_e: window_end,
                });
            }
        }
        Ok(a.config.techniques)
    }

    /// Per-bucket windows `[now, min(t_eb, now) + T_M]`: §IV-C plus the
    /// `lut ≤ now` clamp, which tightens the current bucket from the
    /// paper's `t_eb + T_M` to Theorem 1's `now + T_M`.
    fn probe(
        &self,
        side_of_probes: SetTag,
        probes: &[MovingRect],
        now: Time,
        scratch: &mut JoinScratch,
        counters: &mut JoinCounters,
        hits: &mut Vec<ProbeHit>,
    ) -> TprResult<()> {
        let t_m = self.config.t_m;
        let window = |t_eb: Time| t_eb.min(now) + t_m;
        self.trees[1 - side(side_of_probes)]
            .probe_batch(probes, now, window, scratch, counters, hits)
    }

    fn page_format_stats(&self) -> CacheSnapshot {
        let [a, b] = &self.trees;
        a.page_format_stats().merged(&b.page_format_stats())
    }
}
