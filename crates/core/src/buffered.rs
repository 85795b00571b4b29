//! The one update-driven engine and its index pairs.
//!
//! Theorems 1 and 2 bound the *window* of a join run and say nothing
//! about which index answers it, so TC-Join and MTB-Join are one
//! maintenance protocol — re-register the object in its own index,
//! drop its pairs, probe the other side over a window, add the hits to
//! the [`ResultBuffer`] — written once in [`BufferedEngine`], which
//! re-registers a whole tick's objects in one batch per index tree.
//! Everything engine-specific (index, window, probe kernel, what moves
//! [`JoinCounters`]) lives in an [`IndexPair`], which changes only
//! through [`IndexPair::refile`] — the genesis sets as one batch, a
//! tick's phase 1, and each retired or restored object as a batch of one —
//! and is joined only through [`IndexPair::probe_sides`]: a tick's phase
//! 2, and the initial join, which is phase 2 over all of A in rounds of a
//! fixed size (§II-A: at construction every object was updated at `now`):
//!
//! | alias | pair | index | window | probe kernel |
//! |---|---|---|---|---|
//! | [`TcEngine`] | [`TcPair`] | 2 TPR-trees | `now + T_M` | [`probe_batch`] |
//! | [`MtbEngine`] | [`MtbPair`] | 2 [`MtbTree`]s | `min(t_eb, now) + T_M` per bucket | [`probe_batch`] per bucket |
//!
//! Every pair is backed by TPR-trees (the proximity pair of `cij-simjoin`
//! included): the paper runs all of §VI on that one substrate. NaiveJoin
//! (§II-C), whose joins run to the infinite timestamp, is no engine: it
//! is the `cij_join::naive_join` kernel, which Figs. 7 and 9 measure.

use std::iter;
use std::ops::Deref;

use cij_geom::{MovingRect, Time};
use cij_join::{probe_batch, JoinCounters, JoinScratch, ProbeHit};
use cij_obs::MetricsRegistry;
use cij_storage::BufferPool;
use cij_tpr::{IdMap, ObjectId, TprError, TprResult, TprTree};
use cij_workload::{MovingObject, ObjectUpdate, SetTag};

use crate::engine::{orient, publish_engine_totals, ContinuousJoinEngine, EngineConfig};
use crate::mtb::MtbTree;
use crate::registrations::{genesis_registrations, Registration, Registrations};
use crate::result::{PairKey, PairStatus, ResultBuffer};

/// The two indexes of a [`BufferedEngine`] — one per object set — and the
/// probes between them. An implementation decides which index holds the
/// objects, the time window of every probe and the kernel that answers
/// it; the engine owns the protocol around those calls and the
/// [`Registrations`] table, from which it derives every delete and which
/// it hands to the hooks that read other objects' registrations. A pair
/// changes only through [`refile`](Self::refile), a batch of removals
/// and insertions; there is no one-object mutation beside it. Probes
/// only read the pair, so a pair is `Sync`: a partitioned one probes its
/// partitions from several threads at once.
pub trait IndexPair: Sized + Sync {
    /// What [`empty`](Self::empty) is configured from.
    type Config: Sync;

    /// Algorithm name as used in the paper's figures.
    const NAME: &'static str;

    /// The shared engine knobs inside `config`.
    fn engine_config(config: &Self::Config) -> &EngineConfig;

    /// Two empty indexes reading through `pool`. `obs` is the engine's
    /// registry, for pairs that record metrics of their own.
    fn empty(pool: &BufferPool, config: &Self::Config, obs: &MetricsRegistry) -> Self;

    /// How the pair changes, in one call: deregisters every
    /// `(id, registration)` of `removes`, then files every
    /// `(id, registration)` of `inserts` (indexes keyed by update time
    /// under its `registered_at`, which is `now` unless the object is
    /// being restored). An id appears at most once in each; one in both
    /// is an update. Both are iterators a pair may walk more than once —
    /// once per tree, say — instead of copying them. Building the pair
    /// over both genesis sets is one call, phase 1 of a tick is one, and so
    /// are retiring and restoring one object; a batch of one is the tree's
    /// classic operation page for page. Pairs
    /// over trees hand each tree its share in one
    /// [`TprTree::apply_batch`]; the shard crate's partitioned pair hands
    /// each partition its share and counts the moves between them.
    fn refile(
        &mut self,
        removes: impl Iterator<Item = (ObjectId, Registration)> + Clone,
        inserts: impl Iterator<Item = (ObjectId, Registration)> + Clone,
        now: Time,
    ) -> TprResult<()>;

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

    /// Phase 2 of a tick, and a round of the initial join (side A
    /// only), both sides in one call: `probes[0]` (side A)
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

    /// Mirrors totals the pair keeps itself into the registry.
    fn publish_extra(&self, _registry: &MetricsRegistry) {}
}

/// A-side probes per round of the initial join. The bound keeps small
/// what a round holds at once — the candidates of every probe in the
/// scratch, the hits — and a remote partition's `Step` far under the
/// frame limit, whatever the size of A.
const INITIAL_ROUND: usize = 2048;

/// Position of a side in two-element per-side arrays.
fn side(set: SetTag) -> usize {
    match set {
        SetTag::A => 0,
        SetTag::B => 1,
    }
}

/// The probes of one maintenance tick, or of one round of the initial
/// join: per side, one entry per updated id — its last trajectory and
/// last position in the batch.
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
/// two phases. Phase 1 first checks the whole tick against the table:
/// the updates before the first unknown id or unsound trajectory are the
/// tick (that failure is returned once they are applied). It then hands
/// the tick to the pair in one [`IndexPair::refile`] call — each updated
/// id removed once, by its registration, and re-registered once at `now`
/// with its **last** trajectory — re-registers those ids in the table,
/// drops their pairs, and keeps one probe per updated id. The pairs
/// over trees hand each tree its share in one
/// [`TprTree::apply_batch`], so a node the tick touches is read and
/// written once per descent, not once per update; the indexed set is
/// the per-update loop's, the page layout may differ. Of an update only
/// `id` and `new_mbr` are read: its side and delete keys are the
/// table's. Phase 2 joins the probes of each side against the other
/// side's index in one [`IndexPair::probe_sides`] call and adds the hits
/// to the buffer.
///
/// Two rules make the buffer equal to the loop's, bit for bit (the
/// probes find the same partners with the same intervals whatever the
/// page layout): an id updated twice probes only with its **last**
/// trajectory (the loop's earlier pairs were dropped again by the later
/// update); and a pair whose two endpoints both updated is taken from
/// the probe of the endpoint **later** in the batch (the loop dropped
/// the earlier endpoint's finding when the later one updated). Pairs the
/// loop found and dropped again within the tick never enter the buffer
/// here, so the change list is a subset of the loop's — it is a dirty
/// list that consumers recheck against engine state. An index error in
/// phase 1 (a page the store lost, say) is returned at once and leaves
/// the engine's state unspecified.
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

/// Time-constrained processing on single TPR-trees (§IV-B, Theorem 1):
/// every join run is capped at `t_u + T_M`.
pub type TcEngine = BufferedEngine<TcPair>;
/// The paper's full proposal (§IV-C): MTB-trees on both sets, per-bucket
/// time constraints (Theorem 2).
pub type MtbEngine = BufferedEngine<MtbPair>;

impl<I: IndexPair> BufferedEngine<I> {
    /// Builds the engine: both sets registered at `now` and filed in one
    /// [`IndexPair::refile`], all of A first, which packs each tree
    /// bottom-up (see [`TprTree::apply_batch`]); an id that appears twice
    /// is refused ([`TprError::DuplicateObject`]).
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
        // Both sets in one batch, all of A first. The registrations are
        // rebuilt rather than looked up in the table, which costs a cache
        // miss per object.
        let sets = [(SetTag::A, set_a), (SetTag::B, set_b)].into_iter();
        let genesis = sets.flat_map(move |(set, objects)| {
            objects.iter().map(move |o| {
                let registration = Registration {
                    set,
                    mbr: o.mbr,
                    registered_at: now,
                };
                (o.id, registration)
            })
        });
        index.refile(iter::empty(), genesis, now)?;
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

    /// Phase 2 over all of A (§II-A: at construction every object was
    /// updated at `now`): the A registrations in id order, in rounds of
    /// a fixed size, each joined against B's index as a tick's probes
    /// are.
    fn run_initial_join(&mut self, now: Time) -> TprResult<()> {
        let mut side_a: Vec<ObjectId> = (self.registrations.iter())
            .filter(|(_, r)| r.set == SetTag::A)
            .map(|(&id, _)| id)
            .collect();
        side_a.sort_unstable();
        for round in side_a.chunks(INITIAL_ROUND) {
            let table = &self.registrations;
            let probes = round.iter().map(|id| (SetTag::A, *id, table[id].mbr));
            self.probes.load(probes);
            self.join_probes(now)?;
        }
        Ok(())
    }

    fn apply_update(&mut self, update: &ObjectUpdate, now: Time) -> TprResult<()> {
        self.apply_batch(std::slice::from_ref(update), now)
    }

    fn apply_batch(&mut self, updates: &[ObjectUpdate], now: Time) -> TprResult<()> {
        // Phase 1 checks the tick before it changes anything. The updates
        // before the first unknown id or unsound trajectory are applied in
        // full, and that failure is returned after phase 2 has probed for
        // them — the state the per-update loop stops in.
        let mut outcome = Ok(());
        let mut sides = std::mem::take(&mut self.probes.sides);
        sides.clear();
        for u in updates {
            let Some(registration) = self.registrations.get(&u.id) else {
                outcome = Err(TprError::ObjectNotFound(u.id));
                break;
            };
            if !u.new_mbr.is_sound_from(now) {
                outcome = Err(TprError::UnsoundTrajectory(u.id));
                break;
            }
            sides.push(registration.set);
        }
        let applied = updates.iter().zip(&sides);
        self.probes
            .load(applied.map(|(u, &set)| (set, u.id, u.new_mbr)));
        self.probes.sides = sides;
        // Each updated id once: removed by its registration, filed with
        // its last trajectory.
        let (ids, mbrs, table) = (&self.probes.ids, &self.probes.mbrs, &self.registrations);
        let moved = [SetTag::A, SetTag::B].into_iter().flat_map(move |set| {
            let (ids, mbrs) = (&ids[side(set)], &mbrs[side(set)]);
            ids.iter().zip(mbrs).map(move |(&id, &mbr)| (set, id, mbr))
        });
        let removes = moved.clone().map(|(_, id, _)| (id, table[&id]));
        let filed = move |(set, id, mbr)| {
            (
                id,
                Registration {
                    set,
                    mbr,
                    registered_at: now,
                },
            )
        };
        let inserts = moved.clone().map(filed);
        self.index.refile(removes, inserts.clone(), now)?;
        for (id, registration) in inserts {
            self.registrations.insert(id, registration);
        }
        for u in &updates[..self.probes.sides.len()] {
            self.buffer.remove_object(u.id);
        }
        self.join_probes(now)?;
        outcome
    }

    fn remove_object(&mut self, id: ObjectId, now: Time) -> TprResult<()> {
        let prev = *(self.registrations.get(&id)).ok_or(TprError::ObjectNotFound(id))?;
        self.index
            .refile(iter::once((id, prev)), iter::empty(), now)?;
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
        let registration = Registration {
            set,
            mbr,
            registered_at,
        };
        if !registration.is_sound_at(now) {
            return Err(TprError::UnsoundTrajectory(id));
        }
        (self.index).refile(iter::empty(), iter::once((id, registration)), now)?;
        self.registrations.insert(id, registration);
        self.probes.load(iter::once((set, id, mbr)));
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

    fn metrics_registry(&self) -> MetricsRegistry {
        self.obs.clone()
    }

    fn publish_metrics(&self) {
        publish_engine_totals(&self.obs, self.counters);
        self.index.publish_extra(&self.obs);
    }
}

// ----------------------------------------------------------------------
// Index pairs
// ----------------------------------------------------------------------

/// TC-Join (§IV-B) on two TPR-trees: every join run over Theorem 1's
/// window `[now, now + T_M]` — the result for an object only needs to be
/// valid until its own next update, at most `T_M` away.
///
/// **The `T_M` contract.** A pair stays exact while at least one
/// endpoint re-registered within `T_M`: that endpoint's probe covered
/// `[t_u, t_u + T_M]` against the other side's tree, whose entries bound
/// their objects at every future instant however old they are. A side
/// that never updates is therefore allowed — which is how §V's
/// continuous window queries run on this engine unchanged: the windows
/// are set B, registered once (see the crate docs).
pub struct TcPair {
    config: EngineConfig,
    trees: [TprTree; 2],
}

impl IndexPair for TcPair {
    type Config = EngineConfig;
    const NAME: &'static str = "TC-Join";

    fn engine_config(config: &EngineConfig) -> &EngineConfig {
        config
    }

    fn empty(pool: &BufferPool, config: &EngineConfig, _obs: &MetricsRegistry) -> Self {
        Self {
            config: *config,
            trees: [(); 2].map(|()| TprTree::new(pool.clone(), config.tree)),
        }
    }

    /// Each tree's share of the tick in one batch.
    fn refile(
        &mut self,
        removes: impl Iterator<Item = (ObjectId, Registration)> + Clone,
        inserts: impl Iterator<Item = (ObjectId, Registration)> + Clone,
        now: Time,
    ) -> TprResult<()> {
        for set in [SetTag::A, SetTag::B] {
            let of_side =
                move |(id, r): (ObjectId, Registration)| (r.set == set).then_some((id, r.mbr));
            let share = (
                removes.clone().filter_map(of_side),
                inserts.clone().filter_map(of_side),
            );
            self.trees[side(set)].apply_batch(share.0, share.1, now)?;
        }
        Ok(())
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
        let t_e = now + self.config.t_m;
        probe_batch(other, probes, now, t_e, scratch, counters, hits)
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

    /// Each MTB-tree's share of the tick in one call, which hands every
    /// bucket tree its own share in one batch. An object is filed in the
    /// bucket of its `registered_at` and removed from there. MTB buckets
    /// live on a global grid, so a restored object lands in the bucket
    /// the unsharded engine holds it in — its next update removes it, by
    /// the same registration time, from exactly that bucket, and every
    /// Theorem-2 per-bucket window it participates in keeps the oracle's
    /// `t_eb`.
    fn refile(
        &mut self,
        removes: impl Iterator<Item = (ObjectId, Registration)> + Clone,
        inserts: impl Iterator<Item = (ObjectId, Registration)> + Clone,
        now: Time,
    ) -> TprResult<()> {
        for set in [SetTag::A, SetTag::B] {
            let of_side = move |(id, r): (ObjectId, Registration)| {
                (r.set == set).then_some((id, r.mbr, r.registered_at))
            };
            let share = (
                removes.clone().filter_map(of_side),
                inserts.clone().filter_map(of_side),
            );
            self.trees[side(set)].apply_batch(share.0, share.1, now)?;
        }
        Ok(())
    }

    /// Per-bucket windows `[now, min(t_eb, now) + T_M]`: §IV-C plus the
    /// `lut ≤ now` clamp, which tightens the current bucket from the
    /// paper's `t_eb + T_M` to Theorem 1's `now + T_M`. Right after
    /// construction each MTB-tree holds one bucket, so the initial join
    /// probes A against B's one tree over `[now, now + T_M]`.
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
}
