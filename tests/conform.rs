//! One conformance harness for every stack: `conform(case, schedule,
//! stacks)`.
//!
//! The paper's guarantee (Theorems 1 and 2) is that under `T_M` the pair
//! set reported at every timestamp is the brute-force intersection set.
//! A [`Schedule`] is a seeded list of ticks — `UpdateStream` batches, or
//! saturating two-wave batches — and of events: a live pair's endpoints
//! trading speed bands within one batch, an object taken out and put back
//! through `restore_object` at its original registration, a removal, a
//! forced rebalance, a loopback worker kill, a service restart from its
//! WAL, clean or torn. Every stack of a case runs it in lockstep — bare
//! engines, shard and dist coordinators, stream services over any of
//! them, the ε-join — some fed updates whose delete keys all lie, and
//! after every tick:
//!
//! * `result_at` equals the oracle: brute force over the schedule's
//!   registrations, or for the ε-join the case's first stack, a
//!   `BruteProximityEngine`;
//! * the change list (engines) or the delta stream and an all-pairs
//!   subscriber's outbox (services), replayed, equals `result_at`;
//! * an engine's `registrations()` equal the schedule's, every tree it
//!   exposes validates (the MTB pair, each partition of a shard stack),
//!   a shard stack's populations match the placement its registrations
//!   derive, and its migrations the tick's updates that cross shards;
//! * a stack that names a reference reports what the reference reports:
//!   the same change lists and pair statuses, or the same delta streams
//!   and outbox items (`Gap` markers included), and at `Same::Counters`
//!   the same traversal counters.
//!
//! Checks that belong to one layer — RPC routing and counts, placement
//! rules, backpressure counters, refine rejects, WAL corruption,
//! sim-driver metrics — stay in the crates' own suites.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

use cij::core::{
    genesis_registrations, sorted_registrations, BufferedEngine, ContinuousJoinEngine,
    EngineConfig, EtpEngine, IndexPair, MtbEngine, MtbPair, PairKey, Registration, Registrations,
    TcEngine, TcPair,
};
use cij::dist::loopback::LoopbackHost;
use cij::dist::{Connector, DistConfig, DistCoordinator, EngineKind};
use cij::geom::{MovingRect, Rect, Time};
use cij::join::brute::brute_pairs_at;
use cij::shard::{PartitionPolicy, ShardCoordinator, VelocityBandPolicy};
use cij::simjoin::{BruteProximityEngine, ProximityConfig, ProximityJoinEngine, ProximityPair};
use cij::storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij::stream::{
    IngestOutcome, OutboxItem, ResultDelta, StampedDelta, StreamConfig, StreamService,
    SubscriberId, SubscriptionFilter,
};
use cij::tpr::{ObjectId, TprError, TprResult};
use cij::workload::{
    generate_pair, Distribution, MovingObject, ObjectUpdate, Params, SetTag, UpdateStream,
};

// ---------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------

/// Something that happens at a tick: `Double` in its last batch, the
/// rest to the stacks after the tick's checks.
#[derive(Clone, Debug)]
enum Event {
    /// The answer object registered longest ago is taken out and put
    /// back at its original registration.
    Reinsert,
    /// The last answer pair's B object is removed for good.
    Retire,
    /// The live pair whose endpoints' K = 4 speed bands lie furthest
    /// apart re-registers in the tick's last batch, then trades
    /// velocities: a departure and an arrival in both bands in one batch.
    Double,
    /// Every shard stack re-partitions: velocity bands at these edges,
    /// or `edges.len() + 1` hash shards.
    Rebalance(Vec<f64>),
    /// Worker `i` of every dist stack is killed and restarts blank.
    Kill(usize),
    /// Every journaled service stops and recovers from its WAL; `torn`,
    /// it crashed mid-append and its WAL lost the tail of the tick's
    /// batch, which is submitted again.
    Crash { torn: bool },
}

/// An object re-registered from one trajectory to another.
type Move = (ObjectId, MovingRect, MovingRect);

struct Tick {
    now: Time,
    /// The tick's batches in time order, each `(at, updates)`.
    batches: Vec<(Time, Vec<ObjectUpdate>)>,
    /// Their updates' moves, in order: the stream's update of an object
    /// after a `Double` has stale delete keys, not its real move.
    moves: Vec<Move>,
    /// The registrations the batches leave, in `sorted_registrations`
    /// order.
    truth: Vec<(ObjectId, Registration)>,
    /// Brute force over `truth` at `now`.
    expect: Vec<PairKey>,
    events: Vec<Event>,
}

struct Schedule {
    params: Params,
    a: Vec<MovingObject>,
    b: Vec<MovingObject>,
    ticks: Vec<Tick>,
}

impl Schedule {
    /// `ticks` ticks over `params`' sets: the `UpdateStream` batches, or
    /// with `waves = Some(w)` a wave of `w` updates at `now - 0.5` and a
    /// second one at `now` re-updating every other object of the first;
    /// `plan` adds events.
    fn new(params: Params, ticks: u32, waves: Option<usize>, plan: &[(u32, Event)]) -> Self {
        let (a, b) = generate_pair(&params, 0.0);
        let mut live = genesis_registrations(&a, &b, 0.0).expect("unique ids");
        let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
        let mut out = Vec::new();
        for tick in 1..=ticks {
            let now = Time::from(tick);
            let (mut batches, mut moves) = (Vec::new(), Vec::new());
            if let Some(w) = waves {
                let ids: Vec<ObjectId> = (sorted_registrations(&live, |_, _| true).iter())
                    .map(|&(id, _)| id)
                    .collect();
                let base = tick as usize * w * 2;
                for (at, every) in [(now - 0.5, 1), (now, 2)] {
                    let ups: Vec<ObjectUpdate> = (0..w)
                        .step_by(every)
                        .map(|k| steer(&params, &live, ids[(base + k) % ids.len()], at))
                        .collect();
                    moves.extend(ups.iter().map(|u| commit(&mut live, u, at)));
                    batches.push((at, ups));
                }
            } else {
                let ups: Vec<ObjectUpdate> = (stream.tick(now).into_iter())
                    .filter(|u| live.contains_key(&u.id))
                    .collect();
                moves.extend(ups.iter().map(|u| commit(&mut live, u, now)));
                batches.push((now, ups));
            }
            let events: Vec<Event> = (plan.iter())
                .filter(|(t, _)| *t == tick)
                .map(|(_, e)| e.clone())
                .collect();
            if events.iter().any(|e| matches!(e, Event::Double)) {
                let bands = VelocityBandPolicy::new(4, params.max_speed);
                let band = |id| bands.shard_of(id, &live[&id].mbr);
                let pairs = brute(&live, now);
                let far = (pairs.iter()).max_by_key(|&&(a, b)| band(a).abs_diff(band(b)));
                let &(pa, pb) = far.expect("a live pair");
                assert_ne!(band(pa), band(pb), "t={now}: no pair straddles a band edge");
                let (ma, mb) = (live[&pa].mbr, live[&pb].mbr);
                let last = &mut batches.last_mut().expect("a batch").1;
                for (id, mbr) in [
                    (pa, ma.rebase(now)),
                    (pb, mb.rebase(now)),
                    (pa, MovingRect::rigid(ma.at(now), mb.vlo, now)),
                    (pb, MovingRect::rigid(mb.at(now), ma.vlo, now)),
                ] {
                    let u = update(&live, id, mbr);
                    moves.push(commit(&mut live, &u, now));
                    last.push(u);
                }
            }
            let tick = Tick {
                now,
                batches,
                moves,
                truth: sorted_registrations(&live, |_, _| true),
                expect: brute(&live, now),
                events,
            };
            for event in &tick.events {
                match event {
                    Event::Retire => drop(live.remove(&tick.retiree())),
                    Event::Crash { .. } => {
                        assert!(!tick.batches[0].1.is_empty(), "t={now}: nothing to tear")
                    }
                    _ => {}
                }
            }
            out.push(tick);
        }
        Self {
            params,
            a,
            b,
            ticks: out,
        }
    }
}

impl Tick {
    /// The object a `Reinsert` puts back, and its registration.
    fn oldest(&self) -> (ObjectId, Registration) {
        let answer: BTreeSet<ObjectId> = self.expect.iter().flat_map(|p| [p.0, p.1]).collect();
        (self.truth.iter())
            .filter(|(id, _)| answer.is_empty() || answer.contains(id))
            .min_by_key(|(id, r)| (r.registered_at.to_bits(), *id))
            .copied()
            .expect("an object")
    }

    /// The object a `Retire` removes.
    fn retiree(&self) -> ObjectId {
        let last = self.truth.last().map(|&(id, _)| id);
        self.expect.last().map(|p| p.1).or(last).expect("an object")
    }
}

/// An honest update of `id` onto `new_mbr`.
fn update(live: &Registrations, id: ObjectId, new_mbr: MovingRect) -> ObjectUpdate {
    let r = live[&id];
    ObjectUpdate {
        id,
        set: r.set,
        old_mbr: r.mbr,
        last_update: r.registered_at,
        new_mbr,
    }
}

/// Registers `u` in `live`; returns the move it made.
fn commit(live: &mut Registrations, u: &ObjectUpdate, at: Time) -> Move {
    let r = live.get_mut(&u.id).expect("a live object");
    r.registered_at = at;
    (u.id, std::mem::replace(&mut r.mbr, u.new_mbr), u.new_mbr)
}

/// A new course for `id` at `at`: from where it is (kept inside the
/// space), at a speed derived from `(id, at)`, turned inward near a
/// border.
fn steer(params: &Params, live: &Registrations, id: ObjectId, at: Time) -> ObjectUpdate {
    let (space, side) = (params.space, params.object_side());
    let here = live[&id].mbr.at(at);
    let h = id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ at.to_bits();
    let (mut lo, mut v) = ([0.0; 2], [0.0; 2]);
    for d in 0..2 {
        lo[d] = here.lo[d].clamp(0.0, space - side);
        v[d] = ((h >> (8 + 8 * d)) % 5) as f64 - 2.0;
        if lo[d] < 0.05 * space {
            v[d] = v[d].abs();
        } else if lo[d] > 0.95 * space - side {
            v[d] = -v[d].abs();
        }
    }
    let rect = Rect::new(lo, [lo[0] + side, lo[1] + side]);
    update(live, id, MovingRect::rigid(rect, v, at))
}

/// The intersection join of `live` at `now`, by brute force.
fn brute(live: &Registrations, now: Time) -> Vec<PairKey> {
    let side = |set| -> Vec<(ObjectId, MovingRect)> {
        (sorted_registrations(live, |_, r| r.set == set).into_iter())
            .map(|(id, r)| (id, r.mbr))
            .collect()
    };
    let mut pairs = brute_pairs_at(&side(SetTag::A), &side(SetTag::B), now);
    pairs.sort_unstable();
    pairs
}

/// `u` with every delete key wrong: the other side, a trajectory the
/// object never had, and a time it was never updated at.
fn lie(u: &ObjectUpdate) -> ObjectUpdate {
    let nowhere = Rect::new([-500.0, -500.0], [-499.0, -499.0]);
    ObjectUpdate {
        set: match u.set {
            SetTag::A => SetTag::B,
            SetTag::B => SetTag::A,
        },
        old_mbr: MovingRect::stationary(nowhere, u.last_update + 3.25),
        last_update: u.last_update + 3.25,
        ..*u
    }
}

// ---------------------------------------------------------------------
// Stacks
// ---------------------------------------------------------------------

/// Trajectory-independent placement by id modulo `K`: the one placement
/// no band policy produces (an update never migrates), kept here since
/// no deployment shards this way.
struct HashPolicy(usize);

impl PartitionPolicy for HashPolicy {
    fn name(&self) -> &'static str {
        "hash"
    }
    fn shard_count(&self) -> usize {
        self.0
    }
    fn shard_of(&self, id: ObjectId, _mbr: &MovingRect) -> usize {
        (id.0 % self.0 as u64) as usize
    }
}

#[derive(Clone, Copy, Debug)]
enum Pair {
    Tc,
    Mtb,
}

#[derive(Clone, Copy, Debug)]
enum Family {
    Bands,
    Hash,
}

impl Family {
    fn policy(self, k: usize, max_speed: f64) -> Arc<dyn PartitionPolicy> {
        match self {
            Self::Bands => Arc::new(VelocityBandPolicy::new(k, max_speed)),
            Self::Hash => Arc::new(HashPolicy(k)),
        }
    }

    fn at_edges(self, edges: &[f64]) -> Arc<dyn PartitionPolicy> {
        match self {
            Self::Bands => Arc::new(VelocityBandPolicy::from_edges(edges.to_vec())),
            Self::Hash => Arc::new(HashPolicy(edges.len() + 1)),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Eng {
    Plain(Pair),
    Etp,
    Shard(Pair, Family, usize),
    /// A `DistCoordinator` over loopback workers, one per shard.
    Dist(Family, usize),
    Proximity(f64),
    BruteProximity(f64),
}

/// A stream service around the engine.
#[derive(Clone, Copy, Debug)]
struct Svc {
    capacity: usize,
    outbox: usize,
    poll_every: u32,
    wal: bool,
}

const ROOMY: Svc = Svc {
    capacity: 1 << 16,
    outbox: 1 << 16,
    poll_every: 1,
    wal: false,
};

/// A 3-item outbox polled every 5 ticks: it overflows.
const TINY: Svc = Svc {
    outbox: 3,
    poll_every: 5,
    ..ROOMY
};

/// How much of a reference an engine stack reports identically; a
/// service always reports the same deltas and outbox items.
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
enum Same {
    /// The statuses (stored intervals) of the pairs either reports.
    Statuses,
    /// And the change lists.
    Changes,
    /// And the traversal counters.
    Counters,
}

/// One stack of a case.
#[derive(Clone, Copy, Debug)]
struct Spec {
    eng: Eng,
    config: EngineConfig,
    frames: usize,
    lies: bool,
    batched: bool,
    svc: Option<Svc>,
    reference: Option<(usize, Same)>,
}

fn stack(eng: Eng) -> Spec {
    Spec {
        eng,
        config: EngineConfig::default(),
        frames: 256,
        lies: false,
        batched: true,
        svc: None,
        reference: None,
    }
}

impl Spec {
    fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }
    /// Every update it is fed has wrong delete keys.
    fn lying(mut self) -> Self {
        self.lies = true;
        self
    }
    fn served(mut self, svc: Svc) -> Self {
        self.svc = Some(svc);
        self
    }
    fn config(mut self, f: impl FnOnce(&mut EngineConfig)) -> Self {
        f(&mut self.config);
        self
    }
    /// Reports what stack `i` reports, `same` deep.
    fn same(mut self, i: usize, same: Same) -> Self {
        self.reference = Some((i, same));
        self
    }
    fn like(self, i: usize) -> Self {
        self.same(i, Same::Changes)
    }
}

/// An engine with the structure checks and events only some stacks have.
trait Stack: ContinuousJoinEngine {
    fn check_structure(&self, _now: Time) {}
    /// Re-partitions a shard stack; the objects moved.
    fn rebalance(&mut self, _to: Arc<dyn PartitionPolicy>, _now: Time) -> usize {
        0
    }
    fn migrations(&self) -> u64 {
        0
    }
}

/// The trees an index pair exposes: validated, and their objects per side.
trait Trees {
    fn trees(&self, _now: Time) -> Option<[usize; 2]> {
        None
    }
}

impl Trees for TcPair {}
impl Trees for ProximityPair {}

impl Trees for MtbPair {
    fn trees(&self, now: Time) -> Option<[usize; 2]> {
        for tree in [self.mtb_a(), self.mtb_b()] {
            tree.validate(now).expect("a valid MTB-tree");
        }
        Some([self.mtb_a().len(), self.mtb_b().len()])
    }
}

impl<P: IndexPair + Trees> Stack for BufferedEngine<P> {
    fn check_structure(&self, now: Time) {
        (**self).trees(now);
    }
}

impl<P: IndexPair<Config = EngineConfig> + Trees> Stack for ShardCoordinator<P> {
    fn check_structure(&self, now: Time) {
        let report = self.report();
        let mut placed = [vec![0; report.k], vec![0; report.k]];
        for (&id, r) in self.registrations() {
            placed[usize::from(r.set == SetTag::B)][self.shard_of(id).expect("placed")] += 1;
        }
        assert_eq!(
            [&report.population_a, &report.population_b],
            [&placed[0], &placed[1]]
        );
        for (i, part) in self.partitions().iter().enumerate() {
            if let Some(lens) = part.trees(now) {
                assert_eq!(lens, [placed[0][i], placed[1][i]], "partition {i}");
            }
        }
    }
    fn rebalance(&mut self, to: Arc<dyn PartitionPolicy>, now: Time) -> usize {
        let k = to.shard_count();
        let moved = self.rebalance_to(to, now).expect("rebalance");
        assert_eq!(self.shard_count(), k);
        moved
    }
    fn migrations(&self) -> u64 {
        ShardCoordinator::migrations(self)
    }
}

impl Stack for EtpEngine {}
impl Stack for BruteProximityEngine {}

impl Stack for DistCoordinator {
    fn migrations(&self) -> u64 {
        DistCoordinator::migrations(self)
    }
}

fn build(
    spec: &Spec,
    config: EngineConfig,
    max_speed: f64,
    hosts: &[Arc<LoopbackHost>],
    (a, b, now): (&[MovingObject], &[MovingObject], Time),
) -> TprResult<Box<dyn Stack>> {
    let pool = BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(spec.frames),
    );
    Ok(match spec.eng {
        Eng::Plain(Pair::Tc) => Box::new(TcEngine::new(pool, config, a, b, now)?),
        Eng::Plain(Pair::Mtb) => Box::new(MtbEngine::new(pool, config, a, b, now)?),
        Eng::Etp => Box::new(EtpEngine::new(pool, config, a, b, now)?),
        Eng::Shard(pair, family, k) => {
            let policy = family.policy(k, max_speed);
            match pair {
                Pair::Tc => Box::new(ShardCoordinator::<TcPair>::new(
                    pool, config, policy, a, b, now,
                )?),
                Pair::Mtb => Box::new(ShardCoordinator::<MtbPair>::new(
                    pool, config, policy, a, b, now,
                )?),
            }
        }
        Eng::Dist(family, k) => {
            let connectors = (hosts.iter())
                .map(|h| Box::new(h.connector()) as Box<dyn Connector>)
                .collect();
            let dist = DistConfig {
                engine: EngineKind::Mtb,
                t_m: config.t_m,
                buckets_per_tm: config.buckets_per_tm,
                ..DistConfig::default()
            };
            let policy = family.policy(k, max_speed);
            Box::new(DistCoordinator::new(dist, policy, connectors, a, b, now)?)
        }
        Eng::Proximity(eps) => {
            let config = ProximityConfig::new(config, eps);
            Box::new(ProximityJoinEngine::new(pool, config, a, b, now)?)
        }
        Eng::BruteProximity(eps) => Box::new(BruteProximityEngine::new(
            ProximityConfig::new(config, eps),
            a,
            b,
        )),
    })
}

/// A journal file in the temp directory, removed on drop.
struct TempWal(PathBuf);

impl Drop for TempWal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A service's engine factory.
type Factory = dyn Fn(
    &EngineConfig,
    &[MovingObject],
    &[MovingObject],
    Time,
) -> TprResult<Box<dyn ContinuousJoinEngine>>;

/// A stack behind a stream service, with an all-pairs subscriber.
struct Served {
    svc: StreamService,
    config: StreamConfig,
    factory: Box<Factory>,
    sub: SubscriberId,
    /// The subscriber's deliveries, replayed, and whether they are all
    /// there: an outbox smaller than the answer cannot hold a catch-up.
    seen: BTreeSet<PairKey>,
    whole: bool,
    /// Gap markers polled.
    gaps: usize,
    wal: Option<TempWal>,
    /// The time of every batch the journal holds.
    journaled: Vec<Time>,
}

enum Under {
    Bare(Box<dyn Stack>),
    Served(Box<Served>),
}

/// One stack running a schedule.
struct Run {
    label: String,
    spec: Spec,
    hosts: Vec<Arc<LoopbackHost>>,
    /// A shard or dist stack's placement.
    policy: Option<Arc<dyn PartitionPolicy>>,
    under: Under,
    /// The change list or the delta stream, replayed.
    replay: BTreeSet<PairKey>,
    /// This tick's change list (engines), or deltas and polled outbox
    /// (services), for the stacks that name this one.
    changes: Option<Vec<PairKey>>,
    deltas: Vec<StampedDelta>,
    items: Option<Vec<OutboxItem>>,
    moved: usize,
}

/// Applies one delta, refusing an add of a held pair or a removal of an
/// absent one.
fn replay_strict(set: &mut BTreeSet<PairKey>, delta: &ResultDelta, ctx: &str) {
    match *delta {
        ResultDelta::PairAdded { pair, .. } => {
            assert!(set.insert(pair), "{ctx}: re-added {pair:?}")
        }
        ResultDelta::PairRemoved { pair } => {
            assert!(set.remove(&pair), "{ctx}: removed absent {pair:?}");
        }
    }
}

fn listed(set: &BTreeSet<PairKey>) -> Vec<PairKey> {
    set.iter().copied().collect()
}

impl Run {
    fn new(case: &str, i: usize, spec: Spec, schedule: &Schedule) -> Self {
        let lies = if spec.lies { " lying" } else { "" };
        let served = if spec.svc.is_some() { " served" } else { "" };
        let label = format!(
            "{case}#{i} {:?} t{}{lies}{served}",
            spec.eng, spec.config.threads
        );
        let (params, a, b) = (&schedule.params, &schedule.a[..], &schedule.b[..]);
        let config = EngineConfig {
            t_m: params.maximum_update_interval,
            ..spec.config
        };
        let workers = if let Eng::Dist(_, k) = spec.eng { k } else { 0 };
        let hosts: Vec<_> = (0..workers).map(|_| LoopbackHost::ephemeral()).collect();
        let max_speed = params.max_speed;
        let policy = match spec.eng {
            Eng::Shard(_, family, k) | Eng::Dist(family, k) => Some(family.policy(k, max_speed)),
            _ => None,
        };
        let under = match spec.svc {
            None => {
                let mut e = build(&spec, config, max_speed, &hosts, (a, b, 0.0)).expect("stack");
                e.enable_delta_tracking();
                e.run_initial_join(0.0).expect("initial join");
                Under::Bare(e)
            }
            Some(svc) => {
                let wal = svc.wal.then(|| {
                    let name = label.replace(|c: char| !c.is_ascii_alphanumeric(), "-");
                    let pid = std::process::id();
                    TempWal(std::env::temp_dir().join(format!("cij-conform-{pid}-{name}.wal")))
                });
                let config = StreamConfig {
                    engine: config,
                    batch_capacity: svc.capacity,
                    outbox_capacity: svc.outbox,
                    wal_path: wal.as_ref().map(|w| w.0.clone()),
                };
                let hosts = hosts.clone();
                let factory: Box<Factory> = Box::new(move |config, a, b, now| {
                    let e = build(&spec, *config, max_speed, &hosts, (a, b, now))?;
                    Ok(e as Box<dyn ContinuousJoinEngine>)
                });
                let mut svc =
                    StreamService::new(config.clone(), a, b, 0.0, &factory).expect("service");
                let sub = svc.subscribe(SubscriptionFilter::All).expect("subscriber");
                Under::Served(Box::new(Served {
                    svc,
                    config,
                    factory,
                    sub,
                    seen: BTreeSet::new(),
                    whole: true,
                    gaps: 0,
                    wal,
                    journaled: Vec::new(),
                }))
            }
        };
        Self {
            label,
            spec,
            hosts,
            policy,
            under,
            replay: BTreeSet::new(),
            changes: None,
            deltas: Vec::new(),
            items: None,
            moved: 0,
        }
    }

    fn engine(&self) -> &dyn Stack {
        match &self.under {
            Under::Bare(e) => e.as_ref(),
            Under::Served(_) => panic!("{}: a service", self.label),
        }
    }

    fn service(&self) -> &StreamService {
        match &self.under {
            Under::Served(s) => &s.svc,
            Under::Bare(_) => panic!("{}: an engine", self.label),
        }
    }

    fn result_at(&self, now: Time) -> Vec<PairKey> {
        match &self.under {
            Under::Bare(e) => e.result_at(now),
            Under::Served(s) => s.svc.result_at(now),
        }
    }

    /// Runs one tick's batches.
    fn step(&mut self, tick: &Tick, ctx: &str) {
        let lie = |u: &ObjectUpdate| if self.spec.lies { lie(u) } else { *u };
        let batches: Vec<(Time, Vec<ObjectUpdate>)> = (tick.batches.iter())
            .map(|(at, updates)| (*at, updates.iter().map(lie).collect()))
            .collect();
        let now = tick.now;
        match &mut self.under {
            Under::Bare(e) => {
                let before = e.migrations();
                for (at, updates) in &batches {
                    e.advance_time(*at).expect("advance");
                    if self.spec.batched {
                        e.apply_batch(updates, *at).expect("batch");
                    } else {
                        for u in updates {
                            e.apply_update(u, *at).expect("update");
                        }
                    }
                    e.gc(*at);
                }
                if let Some(p) = &self.policy {
                    let crossed = (tick.moves.iter())
                        .filter(|(id, from, to)| p.shard_of(*id, from) != p.shard_of(*id, to));
                    let migrated = e.migrations() - before;
                    assert_eq!(migrated, crossed.count() as u64, "{ctx}: migrations");
                }
                self.changes = e.take_result_changes();
                for &pair in self.changes.iter().flatten() {
                    if e.pair_status_at(pair, now).active.is_some() {
                        self.replay.insert(pair);
                    } else {
                        self.replay.remove(&pair);
                    }
                }
            }
            Under::Served(s) => {
                s.submit(&batches, ctx);
                self.deltas = s.svc.advance_to(now).expect("advance");
                for d in &self.deltas {
                    let on_tick = d.at == now || tick.batches.iter().any(|(at, _)| *at == d.at);
                    assert!(on_tick, "{ctx}: stamped {}", d.at);
                    replay_strict(&mut self.replay, &d.delta, ctx);
                }
                let svc = self.spec.svc.expect("a service");
                self.items = (now as u32)
                    .is_multiple_of(svc.poll_every)
                    .then(|| s.poll(ctx));
                let roomy = svc.outbox == ROOMY.outbox;
                assert!(s.gaps == 0 || !roomy, "{ctx}: a roomy outbox overflowed");
            }
        }
    }

    /// The checks of the module docs, against the oracle's `expect` and
    /// the schedule's registrations.
    fn check(&self, tick: &Tick, expect: &[PairKey], ctx: &str) {
        let got = self.result_at(tick.now);
        assert_eq!(got, expect, "{ctx}: the answer is not the oracle's");
        match &self.under {
            Under::Bare(e) => {
                if self.changes.is_some() {
                    assert_eq!(listed(&self.replay), got, "{ctx}: changelog replay");
                }
                let registered = sorted_registrations(e.registrations(), |_, _| true);
                let first = registered.iter().zip(&tick.truth).find(|(r, t)| r != t);
                let same = first.is_none() && registered.len() == tick.truth.len();
                assert!(same, "{ctx}: registrations differ, first at {first:?}");
                e.check_structure(tick.now);
            }
            Under::Served(s) => {
                assert_eq!(listed(&self.replay), got, "{ctx}: delta replay");
                if self.items.is_some() && s.whole {
                    assert_eq!(listed(&s.seen), got, "{ctx}: subscriber replay");
                }
            }
        }
    }

    fn check_against(&self, r: &Run, same: Same, now: Time, ctx: &str) {
        let ctx = format!("{ctx} vs {}", r.label);
        match (&self.under, &r.under) {
            (Under::Bare(e), Under::Bare(f)) => {
                let answer = e.result_at(now);
                let changed = [&self.changes, &r.changes].into_iter().flatten().flatten();
                for &pair in answer.iter().chain(changed) {
                    let status = e.pair_status_at(pair, now);
                    assert_eq!(status, f.pair_status_at(pair, now), "{ctx}: {pair:?}");
                }
                if same >= Same::Changes {
                    assert_eq!(self.changes, r.changes, "{ctx}: change list");
                }
                if same == Same::Counters {
                    assert_eq!(e.counters(), f.counters(), "{ctx}: counters");
                }
            }
            (Under::Served(_), Under::Served(_)) => {
                assert_eq!(self.deltas, r.deltas, "{ctx}: deltas");
                assert_eq!(self.items, r.items, "{ctx}: outbox");
            }
            _ => panic!("{ctx}: a reference is the same kind of stack"),
        }
    }

    fn event(&mut self, event: &Event, tick: &Tick, ctx: &str) {
        let now = tick.now;
        let unknown = ObjectId(1 << 40);
        let not_found = |r: TprResult<()>, id: ObjectId| matches!(r, Err(TprError::ObjectNotFound(x)) if x == id);
        match (event, &mut self.under) {
            (Event::Reinsert, Under::Bare(e)) => {
                let (id, r) = tick.oldest();
                e.remove_object(id, now).expect("a live object");
                let gone = e.result_at(now).iter().all(|p| p.0 != id && p.1 != id);
                assert!(gone, "{ctx}: {id:?} still answers");
                let twice = e.remove_object(id, now);
                assert!(not_found(twice, id), "{ctx}: removed twice");
                let restore = |e: &mut Box<dyn Stack>| {
                    e.restore_object(r.set, id, r.mbr, r.registered_at, now)
                };
                restore(e).expect("restore");
                let again = restore(e);
                assert!(matches!(again, Err(TprError::DuplicateObject(_))), "{ctx}");
            }
            (Event::Retire, Under::Bare(e)) => {
                assert!(not_found(e.remove_object(unknown, now), unknown), "{ctx}");
                e.remove_object(tick.retiree(), now).expect("a live object");
            }
            (Event::Retire, Under::Served(s)) => {
                assert!(!s.svc.retire_object(unknown).expect("retire"), "{ctx}");
                let retired = s.svc.retire_object(tick.retiree());
                assert!(retired.expect("retire"), "{ctx}");
            }
            (Event::Rebalance(edges), Under::Bare(e)) => {
                if let Eng::Shard(_, family, _) = self.spec.eng {
                    self.policy = Some(family.at_edges(edges));
                    self.moved += e.rebalance(family.at_edges(edges), now);
                }
            }
            (Event::Kill(i), _) => {
                if let Some(host) = self.hosts.get(*i) {
                    host.kill();
                }
            }
            (Event::Crash { torn }, Under::Served(s)) if s.wal.is_some() => {
                self.replay = s.crash(*torn, tick, ctx);
                for d in s.svc.advance_to(now).expect("advance") {
                    replay_strict(&mut self.replay, &d.delta, ctx);
                }
                self.items = Some(s.poll(ctx));
                self.check(tick, &tick.expect, &format!("{ctx} recovered"));
            }
            _ => {}
        }
    }
}

impl Served {
    fn submit(&mut self, batches: &[(Time, Vec<ObjectUpdate>)], ctx: &str) {
        for (at, updates) in batches.iter().filter(|(_, updates)| !updates.is_empty()) {
            for u in updates {
                let outcome = self.svc.submit(*u, *at);
                assert_eq!(outcome, IngestOutcome::Accepted, "{ctx}: {u:?}");
            }
            self.journaled.push(*at);
        }
    }

    /// Drains the subscriber's outbox into `seen`; after a gap it asks
    /// for a resync and replays the catch-up snapshot instead.
    fn poll(&mut self, ctx: &str) -> Vec<OutboxItem> {
        let gap = |items: &[OutboxItem]| items.iter().any(|i| matches!(i, OutboxItem::Gap { .. }));
        let items = self.svc.poll(self.sub).expect("the subscriber");
        let mut replay = items.clone();
        self.gaps += usize::from(gap(&items));
        if gap(&items) || !self.whole {
            self.seen.clear();
            assert!(self.svc.resync(self.sub));
            replay = self.svc.poll(self.sub).expect("the subscriber");
            self.whole = !gap(&replay);
        }
        for item in &replay {
            if let OutboxItem::Delta(d) = item {
                replay_strict(&mut self.seen, &d.delta, ctx);
            }
        }
        items
    }

    /// Recovers from the journal, torn first if `torn`, and submits the
    /// tick's lost batch again; the recovered answer is returned.
    fn crash(&mut self, torn: bool, tick: &Tick, ctx: &str) -> BTreeSet<PairKey> {
        if torn {
            let path = &self.wal.as_ref().expect("a journal").0;
            let file = std::fs::OpenOptions::new().write(true).open(path);
            let file = file.expect("the journal");
            file.set_len(file.metadata().expect("wal").len() - 5)
                .expect("tear");
        }
        let recovered = StreamService::recover(self.config.clone(), &self.factory);
        let (svc, report) = recovered.expect("recovery");
        self.svc = svc;
        let durable = self.journaled.len() - usize::from(torn);
        self.journaled.truncate(durable);
        let found = (report.tail_truncated, report.batches_replayed);
        assert_eq!(found, (torn, durable), "{ctx}: {report:?}");
        assert_eq!(report.subscribers, 1, "{ctx}");
        let last = self.journaled[durable - 1];
        assert_eq!((report.last_tick, self.svc.now()), (last, last), "{ctx}");
        // The subscriber's outbox died with the service: its next poll
        // leads with a gap marker, and the resync replays from there.
        let items = self.svc.poll(self.sub).expect("the subscriber");
        let gap = matches!(items[0], OutboxItem::Gap { .. });
        assert!(gap, "{ctx}: {items:?}");
        self.whole = false;
        let lost: Vec<_> = (tick.batches.iter())
            .filter(|&(at, _)| *at > report.last_tick)
            .cloned()
            .collect();
        self.submit(&lost, ctx);
        self.svc.result_at(report.last_tick).into_iter().collect()
    }
}

/// Runs every stack of `specs` over `schedule` in lockstep with the
/// checks of the module docs and returns the runs for the case's own
/// assertions. A case whose first stack is a `BruteProximityEngine` takes
/// it as the oracle; every other case takes brute force.
fn conform(case: &str, schedule: &Schedule, specs: &[Spec]) -> Vec<Run> {
    let mut runs: Vec<Run> = (specs.iter().enumerate())
        .map(|(i, &spec)| Run::new(case, i, spec, schedule))
        .collect();
    let lockstep_oracle = matches!(specs[0].eng, Eng::BruteProximity(_));
    let mut answered = 0;
    for tick in &schedule.ticks {
        let ctx = |run: &Run| format!("{} t={}", run.label, tick.now);
        for run in &mut runs {
            run.step(tick, &ctx(run));
        }
        let expect = match lockstep_oracle {
            true => runs[0].result_at(tick.now),
            false => tick.expect.clone(),
        };
        answered += usize::from(!expect.is_empty());
        for run in &runs {
            run.check(tick, &expect, &ctx(run));
            if let Some((r, same)) = run.spec.reference {
                run.check_against(&runs[r], same, tick.now, &ctx(run));
            }
        }
        for run in &mut runs {
            for event in &tick.events {
                run.event(event, tick, &ctx(run));
            }
        }
    }
    assert!(answered >= 3, "{case}: the answer was almost always empty");
    runs
}

// ---------------------------------------------------------------------
// Cases
// ---------------------------------------------------------------------

use crate::{Eng::*, Family::*, Pair::*};

/// Small sets in a small space, so pairs form at this size.
fn small(distribution: Distribution, seed: u64) -> Params {
    Params {
        dataset_size: 120,
        distribution,
        seed,
        space: 200.0,
        object_size_pct: 1.0,
        ..Params::default()
    }
}

/// The velocity-skew mix, so band policies see both speed classes, with
/// `T_M` = 20 so that 40 ticks are two re-registration rounds.
fn skew(seed: u64) -> Params {
    Params {
        dataset_size: 100,
        distribution: Distribution::VelocitySkew,
        maximum_update_interval: 20.0,
        ..small(Distribution::Uniform, seed)
    }
}

#[test]
fn engines_match_brute_force() {
    // 130 ticks > 2·T_M: re-registration windows end to end.
    let plan = [
        (45, Event::Reinsert),
        (60, Event::Retire),
        (70, Event::Double),
        (100, Event::Reinsert),
    ];
    let schedule = Schedule::new(small(Distribution::Uniform, 101), 130, None, &plan);
    conform(
        "engines",
        &schedule,
        &[
            stack(Plain(Tc)),
            stack(Plain(Tc)).threads(2).lying().same(0, Same::Counters),
            stack(Plain(Mtb)),
            stack(Plain(Mtb)).threads(2).lying().same(2, Same::Counters),
            stack(Plain(Mtb)).threads(8).same(2, Same::Counters),
            stack(Plain(Mtb)).config(|c| c.buckets_per_tm = 4),
        ],
    );
}

#[test]
fn every_distribution_matches_brute_force() {
    use Distribution::{Battlefield, Gaussian, Uniform};
    for (distribution, seed) in [(Uniform, 104), (Gaussian, 106), (Battlefield, 107)] {
        let schedule = Schedule::new(small(distribution, seed), 70, None, &[]);
        let specs = [
            stack(Plain(Mtb)),
            stack(Plain(Mtb)).threads(4).same(0, Same::Counters),
            stack(Etp),
            stack(Etp).lying().same(2, Same::Counters),
        ];
        conform(&format!("{distribution:?}"), &schedule, &specs);
    }
}

#[test]
fn shard_stacks_match_one_engine() {
    let plan = [
        (8, Event::Reinsert),
        (12, Event::Double),
        // Re-partitions to K = 2 (a boundary shift where K was 2), a split
        // to K = 4 and a merge back to K = 2.
        (18, Event::Rebalance(vec![0.9])),
        (26, Event::Rebalance(vec![0.5, 1.5, 2.4])),
        (30, Event::Retire),
        (34, Event::Rebalance(vec![1.2])),
        (36, Event::Reinsert),
    ];
    let schedule = Schedule::new(skew(41), 40, None, &plan);
    // Eight frames for four partitions and a two-thread initial join:
    // every partition's pages are evicted by its neighbours'.
    let thrashing = Spec {
        frames: 8,
        ..stack(Shard(Mtb, Bands, 4)).threads(2).like(0)
    };
    let runs = conform(
        "shard",
        &schedule,
        &[
            stack(Plain(Mtb)),
            stack(Shard(Mtb, Bands, 1)).like(0),
            stack(Shard(Mtb, Bands, 2)).threads(4).lying().like(0),
            stack(Shard(Mtb, Bands, 4)).like(0),
            stack(Shard(Mtb, Hash, 1)).threads(4).like(0),
            stack(Shard(Mtb, Hash, 2)).like(0),
            stack(Shard(Mtb, Hash, 4)).threads(4).lying().like(0),
            thrashing,
            stack(Plain(Tc)),
            stack(Shard(Tc, Bands, 4)).threads(4).like(8),
            stack(Shard(Tc, Hash, 2)).lying().like(8),
            stack(Plain(Mtb)).served(ROOMY),
            stack(Shard(Mtb, Bands, 4))
                .threads(4)
                .served(ROOMY)
                .like(11),
        ],
    );
    let bare_shard = |r: &&Run| matches!((r.spec.eng, r.spec.svc), (Shard(..), None));
    for run in runs.iter().filter(bare_shard) {
        assert!(run.moved > 0, "{}: no object relocated", run.label);
    }
    let pool = runs[7].engine().pool();
    let io = pool.stats().snapshot();
    assert!(pool.resident() <= 8);
    let thrashed = io.physical_reads > 160 && io.physical_writes > 160;
    assert!(thrashed, "the pool was meant to thrash: {io:?}");
}

/// A dist stack's workers hold the trees its in-process twin holds until
/// one is re-seeded, so the two count the same traversal work, the
/// initial join's included. A re-seeded worker packs its trees afresh
/// from the registration table: after a kill only the answers and the
/// change lists agree (the case below).
#[test]
fn dist_stacks_count_what_in_process_shards_count() {
    let plan = [
        (6, Event::Reinsert),
        (14, Event::Retire),
        (16, Event::Double),
    ];
    let schedule = Schedule::new(skew(60), 20, None, &plan);
    conform(
        "dist counters",
        &schedule,
        &[
            stack(Shard(Mtb, Bands, 4)),
            stack(Dist(Bands, 4)).lying().same(0, Same::Counters),
            stack(Shard(Mtb, Hash, 2)),
            stack(Dist(Hash, 2)).same(2, Same::Counters),
        ],
    );
}

#[test]
fn dist_stacks_match_in_process_shards_through_kills() {
    let plan = [
        (6, Event::Reinsert),
        (10, Event::Kill(1)),
        (14, Event::Retire),
        (16, Event::Double),
    ];
    let schedule = Schedule::new(skew(60), 20, None, &plan);
    let mut specs = vec![
        stack(Shard(Mtb, Bands, 4)),
        stack(Dist(Bands, 4)).lying().like(0),
        stack(Shard(Mtb, Hash, 2)),
        stack(Dist(Hash, 2)).like(2),
    ];
    // A tiny outbox overflows in the same places on both sides, so even
    // the gap markers are identical.
    for (family, k, svc) in [
        (Hash, 2, ROOMY),
        (Bands, 2, ROOMY),
        (Hash, 4, ROOMY),
        (Bands, 4, ROOMY),
        (Hash, 2, TINY),
    ] {
        let i = specs.len();
        specs.push(stack(Shard(Mtb, family, k)).served(svc));
        specs.push(stack(Dist(family, k)).served(svc).like(i));
    }
    let runs = conform("dist", &schedule, &specs);
    let Under::Served(tiny) = &runs.last().expect("a run").under else {
        unreachable!("a service")
    };
    assert!(tiny.gaps > 0, "the outbox never overflowed");
    for run in runs.iter().filter(|r| matches!(r.spec.eng, Dist(..))) {
        let label = &run.label;
        assert_eq!(run.hosts[1].restarts(), 1, "{label}: the killed worker");
    }
}

#[test]
fn services_replay_their_deltas_through_a_torn_wal() {
    let params = Params {
        dataset_size: 100,
        ..small(Distribution::Uniform, 301)
    };
    let plan = [
        (30, Event::Crash { torn: true }),
        (45, Event::Crash { torn: false }),
        (50, Event::Double),
    ];
    let schedule = Schedule::new(params, 65, None, &plan);
    let journaled = Svc { wal: true, ..ROOMY };
    let runs = conform(
        "stream",
        &schedule,
        &[
            stack(Plain(Tc)).served(ROOMY),
            stack(Plain(Tc)).threads(4).served(ROOMY).like(0),
            stack(Etp).served(ROOMY),
            stack(Etp).threads(4).served(ROOMY).like(2),
            stack(Plain(Mtb)).served(journaled),
            stack(Plain(Mtb)).threads(4).served(ROOMY).like(4),
            stack(Plain(Mtb)).served(TINY),
        ],
    );
    for run in &runs {
        let shed = run.service().shed_dropped_stale();
        assert_eq!(shed, 0, "{}: shed unsaturated", run.label);
    }
}

#[test]
fn saturated_services_shed_to_the_answer() {
    // Wave 1 fills the queue of capacity 40 to its high watermark, 30,
    // which closes it; wave 2 gets in only by replacing pending updates.
    const WAVE: usize = 30;
    let params = Params {
        dataset_size: 100,
        ..small(Distribution::Uniform, 611)
    };
    let schedule = Schedule::new(params, 40, Some(WAVE), &[(20, Event::Retire)]);
    let shedding = Svc {
        capacity: WAVE * 4 / 3,
        ..ROOMY
    };
    let runs = conform(
        "saturation",
        &schedule,
        &[
            stack(Plain(Mtb)).served(shedding),
            stack(Plain(Mtb)).threads(4).served(shedding).like(0),
            stack(Plain(Mtb)).lying().served(shedding).like(0),
            stack(Plain(Tc)).served(shedding),
            stack(Plain(Tc)).lying().served(shedding).like(3),
            stack(Shard(Mtb, Bands, 2)).served(shedding),
            stack(Shard(Mtb, Bands, 2)).lying().served(shedding).like(5),
            stack(Plain(Mtb)).served(ROOMY),
        ],
    );
    let replaced: usize = schedule.ticks.iter().map(|t| t.batches[1].1.len()).sum();
    for run in &runs {
        let saturated = run.spec.svc.is_some_and(|s| s.capacity < ROOMY.capacity);
        let shed = run.service().shed_dropped_stale() as usize;
        assert_eq!(shed, if saturated { replaced } else { 0 }, "{}", run.label);
    }
}

#[test]
fn proximity_join_matches_its_brute_force_oracle() {
    for (eps, seed) in [(0.0, 511), (2.5, 512), (30.0, 513)] {
        // A short T_M: a tenth of each set updates per tick, so both
        // endpoints of a pair often share a batch.
        let params = Params {
            dataset_size: 80,
            maximum_update_interval: 10.0,
            ..small(Distribution::Uniform, seed)
        };
        let plan = [
            (15, Event::Reinsert),
            (25, Event::Retire),
            (30, Event::Double),
            (40, Event::Double),
        ];
        let schedule = Schedule::new(params, 40, None, &plan);
        conform(
            &format!("eps{eps}"),
            &schedule,
            &[
                stack(BruteProximity(eps)),
                stack(Proximity(eps)).same(0, Same::Statuses),
                stack(Proximity(eps)).threads(4).same(1, Same::Counters),
                Spec {
                    batched: false,
                    ..stack(Proximity(eps)).lying().same(0, Same::Statuses)
                },
                stack(BruteProximity(eps)).lying().like(0),
                stack(Proximity(eps)).served(ROOMY),
            ],
        );
    }
}
