//! The two-phase maintenance tick (`BufferedEngine::apply_batch`: every
//! index mutation first, then one probe of the whole batch per side)
//! against the per-update loop it replaced, for every index pair in
//! `cij-core`: MTB and TC.
//!
//! The loop lives on here as the reference, built from public parts that
//! do not touch the engine or the batched probe: per update, delete +
//! insert in the own index as a batch of one, `ResultBuffer::remove_object`, then one
//! `intersect_window` per tree of the other side. After every tick the
//! engine under test must agree with it on
//!
//! * `result_at(now)`,
//! * `pair_status_at` — interval bits included — for every pair either
//!   side ever reported or marked changed,
//! * the change list: the batch's is a subset of the loop's, and a pair
//!   only the loop lists (found and dropped again within the tick) is
//!   absent from the answer before and after.

use std::collections::{BTreeSet, HashMap};
use std::iter;
use std::sync::Arc;

use cij_core::{
    ContinuousJoinEngine, EngineConfig, MtbEngine, MtbTree, PairKey, PairStatus, ResultBuffer,
    TcEngine,
};
use cij_geom::{MovingRect, Rect, Time, TimeInterval};
use cij_join::{improved_join, techniques, JoinPair};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::{ObjectId, TprTree, TreeConfig};
use cij_workload::{generate_pair, MovingObject, ObjectUpdate, Params, SetTag, UpdateStream};

/// Every index pair of `cij-core`, by the name the harness builds it under.
const KINDS: [&str; 2] = ["mtb", "tc"];

fn pool() -> BufferPool {
    BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(256),
    )
}

/// The two indexes of the reference loop.
enum Indexes {
    /// `"tc"`: probe window `now + T_M`.
    Tpr(TprTree, TprTree),
    Mtb(MtbTree, MtbTree),
}

/// The pre-batching maintenance protocol, one update at a time.
struct LoopReference {
    indexes: Indexes,
    buffer: ResultBuffer,
    t_m: Time,
}

impl LoopReference {
    fn new(kind: &str, config: &EngineConfig, a: &[MovingObject], b: &[MovingObject]) -> Self {
        let pool = pool();
        let indexes = match kind {
            "tc" => {
                let mut ta = TprTree::new(pool.clone(), config.tree);
                let mut tb = TprTree::new(pool, config.tree);
                for o in a {
                    ta.insert(o.id, o.mbr, 0.0).unwrap();
                }
                for o in b {
                    tb.insert(o.id, o.mbr, 0.0).unwrap();
                }
                Indexes::Tpr(ta, tb)
            }
            "mtb" => {
                let m = config.buckets_per_tm;
                let mut ma = MtbTree::with_buckets_per_tm(pool.clone(), config.tree, config.t_m, m);
                let mut mb = MtbTree::with_buckets_per_tm(pool, config.tree, config.t_m, m);
                for (mtb, objects) in [(&mut ma, a), (&mut mb, b)] {
                    for o in objects {
                        let filed = iter::once((o.id, o.mbr, 0.0));
                        mtb.apply_batch(iter::empty(), filed, 0.0).unwrap();
                    }
                }
                Indexes::Mtb(ma, mb)
            }
            other => panic!("unknown engine kind {other}"),
        };
        let mut buffer = ResultBuffer::new();
        buffer.enable_change_tracking();
        let t_m = config.t_m;
        // Initial join on `[0, T_M]`: both sides hold one tree at t = 0.
        let tree_join = |ta: &TprTree, tb: &TprTree| {
            improved_join(ta, tb, 0.0, t_m, techniques::ALL).unwrap().0
        };
        let pairs: Vec<JoinPair> = match &indexes {
            Indexes::Tpr(ta, tb) => tree_join(ta, tb),
            Indexes::Mtb(ma, mb) => tree_join(
                ma.buckets().next().expect("one bucket").1,
                mb.buckets().next().expect("one bucket").1,
            ),
        };
        let mut this = Self {
            indexes,
            buffer,
            t_m,
        };
        for p in pairs {
            this.buffer.add(p.a, p.b, p.interval);
        }
        let _ = this.buffer.take_changes();
        this
    }

    fn apply_update(&mut self, u: &ObjectUpdate, now: Time) {
        let t_m = self.t_m;
        let found: Vec<(ObjectId, TimeInterval)> = match &mut self.indexes {
            Indexes::Tpr(ta, tb) => {
                let (own, other) = match u.set {
                    SetTag::A => (ta, &*tb),
                    SetTag::B => (tb, &*ta),
                };
                own.update(u.id, &u.old_mbr, u.new_mbr, now).unwrap();
                other.intersect_window(&u.new_mbr, now, now + t_m).unwrap()
            }
            Indexes::Mtb(ma, mb) => {
                let (own, other) = match u.set {
                    SetTag::A => (ma, &*mb),
                    SetTag::B => (mb, &*ma),
                };
                let removal = iter::once((u.id, u.old_mbr, u.last_update));
                let filed = iter::once((u.id, u.new_mbr, now));
                own.apply_batch(removal, filed, now).unwrap();
                other
                    .buckets()
                    .map(|(t_eb, tree)| (tree, t_eb.min(now) + t_m))
                    .filter(|&(_, t_end)| t_end > now)
                    .flat_map(|(tree, t_end)| {
                        tree.intersect_window(&u.new_mbr, now, t_end).unwrap()
                    })
                    .collect()
            }
        };
        self.buffer.remove_object(u.id);
        for (partner, iv) in found {
            match u.set {
                SetTag::A => self.buffer.add(u.id, partner, iv),
                SetTag::B => self.buffer.add(partner, u.id, iv),
            }
        }
    }

    fn status(&self, pair: PairKey, t: Time) -> PairStatus {
        self.buffer.status_at(pair.0, pair.1, t)
    }
}

fn build_engine(
    kind: &str,
    config: EngineConfig,
    a: &[MovingObject],
    b: &[MovingObject],
) -> Box<dyn ContinuousJoinEngine> {
    let mut engine: Box<dyn ContinuousJoinEngine> = match kind {
        "tc" => Box::new(TcEngine::new(pool(), config, a, b, 0.0).unwrap()),
        "mtb" => Box::new(MtbEngine::new(pool(), config, a, b, 0.0).unwrap()),
        other => panic!("unknown engine kind {other}"),
    };
    engine.enable_delta_tracking();
    engine.run_initial_join(0.0).unwrap();
    let _ = engine.take_result_changes();
    engine
}

/// `(a, b, interval bits…)` — statuses compared bit for bit.
fn status_bits(s: PairStatus) -> (Option<(u64, u64)>, Option<u64>) {
    (
        s.active.map(|iv| (iv.start.to_bits(), iv.end.to_bits())),
        s.next_start.map(f64::to_bits),
    )
}

/// The engine under test and its reference, advanced in lockstep.
struct Twins {
    tag: String,
    batch: Box<dyn ContinuousJoinEngine>,
    reference: LoopReference,
    /// Every pair either side ever reported or marked changed.
    seen: BTreeSet<PairKey>,
    t_m: Time,
}

impl Twins {
    fn new(kind: &str, config: EngineConfig, a: &[MovingObject], b: &[MovingObject]) -> Self {
        let mut twins = Self {
            tag: format!("{kind} threads={}", config.threads),
            batch: build_engine(kind, config, a, b),
            reference: LoopReference::new(kind, &config, a, b),
            seen: BTreeSet::new(),
            t_m: config.t_m,
        };
        twins.compare_state(0.0);
        twins
    }

    /// One tick: the reference applies `updates` one by one, the engine
    /// as one batch; then every assertion of the module docs.
    fn tick(&mut self, updates: &[ObjectUpdate], now: Time) {
        let tag = format!("{} t={now}", self.tag);
        for u in updates {
            self.reference.apply_update(u, now);
        }
        self.reference.buffer.prune_before(now);
        let loop_changes = self.reference.buffer.take_changes().expect("tracking on");
        // The engine is still in its pre-tick state, which equals the
        // reference's pre-tick state by the previous tick's comparison.
        let before: HashMap<PairKey, PairStatus> = loop_changes
            .iter()
            .map(|&p| (p, self.batch.pair_status_at(p, now)))
            .collect();

        self.batch.advance_time(now).unwrap();
        self.batch.apply_batch(updates, now).unwrap();
        self.batch.gc(now);
        let batch_changes = self.batch.take_result_changes().expect("tracking on");

        let listed: BTreeSet<PairKey> = loop_changes.iter().copied().collect();
        for p in &batch_changes {
            assert!(listed.contains(p), "{tag}: batch alone lists {p:?}");
        }
        let kept: BTreeSet<PairKey> = batch_changes.into_iter().collect();
        for p in listed.difference(&kept) {
            assert_eq!(before[p], PairStatus::default(), "{tag}: {p:?} before");
            let after = self.batch.pair_status_at(*p, now);
            assert_eq!(after, PairStatus::default(), "{tag}: {p:?} after");
        }
        self.seen.extend(listed);
        self.compare_state(now);
    }

    fn compare_state(&mut self, now: Time) {
        let tag = format!("{} t={now}", self.tag);
        let got = self.batch.result_at(now);
        assert_eq!(got, self.reference.buffer.active_at(now), "{tag}: answer");
        self.seen.extend(got);
        for &p in &self.seen {
            for t in [now, now + self.t_m / 2.0, now + 2.0 * self.t_m] {
                assert_eq!(
                    status_bits(self.batch.pair_status_at(p, t)),
                    status_bits(self.reference.status(p, t)),
                    "{tag}: status of {p:?} at {t}"
                );
            }
        }
    }
}

#[test]
fn random_streams_match_the_loop_every_tick() {
    for kind in KINDS {
        for threads in [1usize, 4] {
            for seed in [3u64, 17, 4242] {
                let params = Params {
                    dataset_size: 150,
                    space: 200.0,
                    object_size_pct: 1.5,
                    // Short T_M: a tenth of each set updates per tick, so
                    // both endpoints of a pair often share a batch.
                    maximum_update_interval: 10.0,
                    seed,
                    ..Params::default()
                };
                let config = EngineConfig::builder()
                    .t_m(params.maximum_update_interval)
                    .threads(threads)
                    .build();
                let (a, b) = generate_pair(&params, 0.0);
                let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
                let mut twins = Twins::new(kind, config, &a, &b);
                let mut batched_pairs = 0;
                for tick in 1..=35u32 {
                    let now = Time::from(tick);
                    let updates = stream.tick(now);
                    let ua = updates.iter().filter(|u| u.set == SetTag::A).count();
                    batched_pairs += ua.min(updates.len() - ua);
                    twins.tick(&updates, now);
                }
                assert!(batched_pairs > 100, "batches must mix both sides");
                assert!(twins.seen.len() > 20, "{}: workload too sparse", twins.tag);
            }
        }
    }
}

// ----------------------------------------------------------------------
// Fixed cases
// ----------------------------------------------------------------------

/// A hand-driven world: unit-speed squares on a line, with the
/// bookkeeping (`old_mbr`, `last_update`) a producer would carry.
struct World {
    state: HashMap<ObjectId, (SetTag, MovingRect, Time)>,
}

const SIDE: f64 = 4.0;

fn square(x: f64, vx: f64, t: Time) -> MovingRect {
    MovingRect::rigid(Rect::new([x, 0.0], [x + SIDE, SIDE]), [vx, 0.0], t)
}

impl World {
    /// Ten objects per side, 10 apart; `A_i` and `B_i` overlap at t = 0
    /// and drift apart slowly, so pairs are live and expire later.
    fn new() -> (Self, Vec<MovingObject>, Vec<MovingObject>) {
        let make = |base: u64, dx: f64, vx: f64| -> Vec<MovingObject> {
            (0..10u64)
                .map(|i| MovingObject {
                    id: ObjectId(base + i),
                    mbr: square(i as f64 * 10.0 + dx, vx, 0.0),
                })
                .collect()
        };
        let (a, b) = (make(0, 0.0, 0.02), make(100, 1.0, -0.02));
        let mut state = HashMap::new();
        for o in &a {
            state.insert(o.id, (SetTag::A, o.mbr, 0.0));
        }
        for o in &b {
            state.insert(o.id, (SetTag::B, o.mbr, 0.0));
        }
        (Self { state }, a, b)
    }

    /// Moves object `id` to `x` with speed `vx` at `now`.
    fn update(&mut self, id: u64, x: f64, vx: f64, now: Time) -> ObjectUpdate {
        let id = ObjectId(id);
        let (set, old_mbr, last_update) = self.state[&id];
        let new_mbr = square(x, vx, now);
        self.state.insert(id, (set, new_mbr, now));
        ObjectUpdate {
            id,
            set,
            old_mbr,
            last_update,
            new_mbr,
        }
    }
}

/// Runs `script` (tick time → that tick's batch) on twins of every kind.
fn run_script(script: impl Fn(&mut World) -> Vec<(Time, Vec<ObjectUpdate>)>) {
    for kind in KINDS {
        for threads in [1usize, 4] {
            let (mut world, a, b) = World::new();
            let config = EngineConfig::builder()
                .t_m(60.0)
                .threads(threads)
                .tree(TreeConfig::with_capacity(4))
                .build();
            let mut twins = Twins::new(kind, config, &a, &b);
            assert_eq!(twins.batch.result_at(0.0).len(), 10, "A_i–B_i live at 0");
            for (now, updates) in script(&mut world) {
                twins.tick(&updates, now);
            }
        }
    }
}

#[test]
fn both_endpoints_of_a_live_pair_in_one_batch_either_order() {
    // (A_3, B_3) is live; both move and still overlap afterwards, so the
    // pair must come from exactly one of the two probes.
    run_script(|w| {
        vec![
            (
                1.0,
                vec![w.update(3, 31.0, 0.5, 1.0), w.update(103, 32.0, 0.4, 1.0)],
            ),
            (
                2.0,
                vec![w.update(103, 33.0, 0.1, 2.0), w.update(3, 34.0, 0.2, 2.0)],
            ),
            // …and once where the later endpoint walks away: the earlier
            // endpoint's finding must not survive.
            (
                3.0,
                vec![w.update(3, 35.0, 0.0, 3.0), w.update(103, 150.0, 0.0, 3.0)],
            ),
            (
                4.0,
                vec![w.update(103, 36.0, 0.0, 4.0), w.update(3, 170.0, 0.0, 4.0)],
            ),
        ]
    });
}

#[test]
fn same_id_twice_in_one_batch_probes_with_its_last_trajectory() {
    run_script(|w| {
        vec![
            // A_5 first jumps onto B_7, then onto B_8 — with B_8 itself
            // updating in between the two.
            (
                1.0,
                vec![
                    w.update(5, 71.0, 0.0, 1.0),
                    w.update(108, 82.0, 0.0, 1.0),
                    w.update(5, 81.0, 0.0, 1.0),
                ],
            ),
            // Twice on both sides, interleaved, ending apart.
            (
                2.0,
                vec![
                    w.update(5, 82.0, 0.0, 2.0),
                    w.update(108, 83.0, 0.0, 2.0),
                    w.update(5, 120.0, 0.0, 2.0),
                    w.update(108, 121.0, 0.0, 2.0),
                    w.update(108, 140.0, 0.0, 2.0),
                ],
            ),
        ]
    });
}

#[test]
fn empty_batch_and_batch_of_one() {
    run_script(|w| {
        vec![
            (1.0, vec![]),
            (2.0, vec![w.update(2, 21.5, 0.3, 2.0)]),
            (3.0, vec![]),
            (4.0, vec![w.update(102, 22.0, -0.3, 4.0)]),
            // An empty batch late enough for the initial intervals
            // (valid to T_M = 60) to have been pruned by `gc`.
            (61.0, vec![]),
        ]
    });
}

#[test]
fn batch_on_a_bucket_boundary_creates_one_bucket_and_empties_another() {
    // T_M = 60, two buckets per T_M: t = 30 is the first instant of
    // bucket 1. Everything was registered in bucket 0.
    run_script(|w| {
        let all_a: Vec<ObjectUpdate> = (0..10)
            .map(|i| w.update(i, i as f64 * 10.0 + 0.5, 0.01, 30.0))
            .collect();
        vec![
            // A few B objects leave bucket 0 just before the boundary…
            (
                29.0,
                vec![
                    w.update(101, 11.0, 0.0, 29.0),
                    w.update(102, 21.0, 0.0, 29.0),
                ],
            ),
            // …then the whole A side crosses it in one batch: A's bucket 1
            // is created, its bucket 0 emptied and dropped, while the B
            // probes of the same batch run against the result.
            (
                30.0,
                all_a
                    .into_iter()
                    .chain([
                        w.update(103, 31.0, 0.0, 30.0),
                        w.update(101, 11.5, 0.0, 30.0),
                    ])
                    .collect(),
            ),
            (
                31.0,
                vec![w.update(4, 41.0, 0.0, 31.0), w.update(104, 41.5, 0.0, 31.0)],
            ),
        ]
    });
}
