//! The four workloads and their seed-derived inputs.
//!
//! Inputs come from `cij_workload::{generate_pair, UpdateStream}` with
//! `Params.seed = --seed`; the stacks under test only ever see the
//! generated objects and updates. Everything is generated up front, so
//! generator time sits outside every timed interval.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use cij_core::PairKey;
use cij_geom::{MovingRect, Time};
use cij_join::brute::brute_pairs_at;
use cij_tpr::ObjectId;
use cij_workload::{
    generate_pair, Distribution, MovingObject, ObjectUpdate, Params, SetTag, UpdateStream,
};

/// Which public API the workload is driven through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackKind {
    /// `StreamService` → `MtbEngine`.
    Stream,
    /// `ShardCoordinator` of `MtbEngine`s via the engine trait.
    Shard,
    /// `DistCoordinator` over durable loopback workers.
    Dist,
}

/// Ticks per pass are the issue's sizes (120 / 240 / 320 / 240) times
/// this one common factor, chosen so a pass takes 1.5–3 s and a run of
/// `run_seconds` holds several passes. N, `T_M`, K, pool and subscriber
/// counts are never scaled.
pub const TICK_SCALE: f64 = 0.25;

/// Cool-down ticks available after a pass for the retry backlog and the
/// ingest queue to drain (steady 1× arrivals) before the final check.
pub const COOLDOWN_TICKS: u32 = 24;

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub params: Params,
    /// Measured ticks per maintenance pass.
    pub ticks: u32,
    /// Buffer-pool frames.
    pub pool_pages: usize,
    pub stack: StackKind,
    /// Arrivals ×6 for 2 of every 8 ticks (as `bench_ingest`'s `burst`).
    pub burst: bool,
    /// N ÷ 10 and 30 ticks, for CI.
    pub smoke: bool,
}

pub const WORKLOAD_NAMES: [&str; 4] = ["uniform10k", "skew_shard", "burst_ingest", "skew_dist"];

impl Spec {
    /// The named workload at `seed`; `smoke` divides N by 10 and runs
    /// 30 ticks.
    pub fn named(name: &str, seed: u64, smoke: bool) -> Result<Self, String> {
        let scaled = |full: u32| ((f64::from(full) * TICK_SCALE).round() as u32).max(1);
        let skew = Params {
            dataset_size: 4_000,
            distribution: Distribution::VelocitySkew,
            maximum_update_interval: 20.0,
            seed,
            ..Params::default()
        };
        let mut spec = match name {
            "uniform10k" => Self {
                name: "uniform10k",
                why: "paper Table I default cell behind a 50-page pool: working set far larger than the cache, sparse answer; core+join+tpr+storage dominate, stream is a pass-through",
                params: Params {
                    seed,
                    ..Params::default()
                },
                ticks: scaled(120),
                pool_pages: 50,
                stack: StackKind::Stream,
                burst: false,
                smoke,
            },
            "skew_shard" => Self {
                name: "skew_shard",
                why: "skewed speeds through the adaptive K=4 shard coordinator with a pool that fits everything: the shard layer dominates, storage misses and stream are bypassed",
                params: skew,
                ticks: scaled(240),
                pool_pages: 4096,
                stack: StackKind::Shard,
                burst: false,
                smoke,
            },
            "burst_ingest" => Self {
                name: "burst_ingest",
                why: "dense answer under 6x arrival bursts with WAL, shedding and 256 subscribers: the stream layer (queue, journal, delta fan-out) dominates, engine is small",
                params: Params {
                    dataset_size: 2_000,
                    maximum_update_interval: 30.0,
                    object_size_pct: 0.8,
                    seed,
                    ..Params::default()
                },
                ticks: scaled(320),
                pool_pages: 8192,
                stack: StackKind::Stream,
                burst: true,
                smoke,
            },
            "skew_dist" => Self {
                name: "skew_dist",
                why: "the skew_shard inputs through the distributed coordinator over 4 durable loopback workers: the only path through the protocol codec, worker journal and merge",
                params: skew,
                ticks: scaled(240),
                pool_pages: 4096,
                stack: StackKind::Dist,
                burst: false,
                smoke,
            },
            other => {
                return Err(format!(
                    "unknown workload {other:?} (use one of {WORKLOAD_NAMES:?})"
                ))
            }
        };
        if smoke {
            spec.params.dataset_size /= 10;
            spec.ticks = 30;
        }
        spec.params.assert_valid();
        Ok(spec)
    }

    /// Sub-steps (independent `1/T_M` draws per object) inside tick `tick`.
    #[must_use]
    pub fn multiplier(&self, tick: u32) -> u32 {
        if self.burst && tick <= self.ticks && tick % 8 < 2 {
            6
        } else {
            1
        }
    }

    /// Ticks at which an answer is compared with the oracle: every
    /// `T_M/2` and the last tick of the first `ticks` ticks.
    #[must_use]
    pub fn checkpoints(&self, ticks: u32) -> Vec<u32> {
        let every = ((self.params.maximum_update_interval / 2.0) as u32).max(1);
        let mut v: Vec<u32> = (1..=ticks).filter(|t| t % every == 0).collect();
        if v.last() != Some(&ticks) {
            v.push(ticks);
        }
        v
    }

    /// Ticks the ladder rungs run: half a pass.
    #[must_use]
    pub fn ladder_ticks(&self) -> u32 {
        (self.ticks / 2).max(1)
    }
}

/// One group of updates applied at logical time `at`.
#[derive(Debug, Clone)]
pub struct Step {
    pub at: Time,
    pub updates: Vec<ObjectUpdate>,
}

/// Everything that arrives during one service tick.
#[derive(Debug, Clone)]
pub struct TickInput {
    pub tick: u32,
    pub now: Time,
    pub steps: Vec<Step>,
}

impl TickInput {
    #[must_use]
    pub fn update_count(&self) -> u64 {
        self.steps.iter().map(|s| s.updates.len() as u64).sum()
    }
}

type Snapshot = (Vec<(ObjectId, MovingRect)>, Vec<(ObjectId, MovingRect)>);

pub struct Inputs {
    pub spec: Spec,
    pub set_a: Vec<MovingObject>,
    pub set_b: Vec<MovingObject>,
    /// `spec.ticks` measured ticks followed by `COOLDOWN_TICKS` at 1×.
    pub ticks: Vec<TickInput>,
    /// FNV-1a over every generated object and update.
    pub hash: u64,
    /// Wall time `generate_pair` + every `UpdateStream::tick` took.
    pub gen_secs: f64,
    snapshots: BTreeMap<u32, Snapshot>,
    oracle: RefCell<BTreeMap<u32, Rc<Vec<PairKey>>>>,
}

impl Inputs {
    /// Generates the workload's objects, its full update schedule and
    /// the `UpdateStream::snapshot`s the oracle needs.
    #[must_use]
    pub fn generate(spec: &Spec) -> Self {
        let mut gen_secs = 0.0;
        let t0 = Instant::now();
        let (set_a, set_b) = generate_pair(&spec.params, 0.0);
        let mut stream = UpdateStream::new(&spec.params, &set_a, &set_b, 0.0);
        gen_secs += t0.elapsed().as_secs_f64();

        let mut snap_ticks = spec.checkpoints(spec.ticks);
        snap_ticks.extend(spec.checkpoints(spec.ladder_ticks()));
        let total = spec.ticks + COOLDOWN_TICKS;
        let mut ticks = Vec::with_capacity(total as usize);
        let mut snapshots = BTreeMap::new();
        for tick in 1..=total {
            let m = spec.multiplier(tick);
            let mut steps = Vec::with_capacity(m as usize);
            for step in 1..=m {
                let at = f64::from(tick - 1) + f64::from(step) / f64::from(m);
                let t0 = Instant::now();
                let batch = stream.tick(at);
                gen_secs += t0.elapsed().as_secs_f64();
                steps.push(Step { at, updates: batch });
            }
            ticks.push(TickInput {
                tick,
                now: f64::from(tick),
                steps,
            });
            // Cool-down ticks can each become the final check, so all of
            // them keep a snapshot (only burst inputs ever need them).
            if snap_ticks.contains(&tick) || (spec.burst && tick > spec.ticks) {
                snapshots.insert(
                    tick,
                    (stream.snapshot(SetTag::A), stream.snapshot(SetTag::B)),
                );
            }
        }
        let hash = input_hash(&set_a, &set_b, &ticks);
        Self {
            spec: spec.clone(),
            set_a,
            set_b,
            ticks,
            hash,
            gen_secs,
            snapshots,
            oracle: RefCell::new(BTreeMap::new()),
        }
    }

    /// Updates in the first `ticks` ticks.
    #[must_use]
    pub fn updates_in(&self, ticks: u32) -> u64 {
        self.ticks[..ticks as usize]
            .iter()
            .map(TickInput::update_count)
            .sum()
    }

    /// The brute-force answer at `tick` over `UpdateStream::snapshot`
    /// (memoised), or `None` when no snapshot was kept for that tick.
    #[must_use]
    pub fn oracle(&self, tick: u32) -> Option<Rc<Vec<PairKey>>> {
        if let Some(hit) = self.oracle.borrow().get(&tick) {
            return Some(Rc::clone(hit));
        }
        let (a, b) = self.snapshots.get(&tick)?;
        let pairs = Rc::new(brute_pairs_at(a, b, f64::from(tick)));
        self.oracle.borrow_mut().insert(tick, Rc::clone(&pairs));
        Some(pairs)
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn mbr(&mut self, m: &MovingRect) {
        for v in m.lo.iter().chain(&m.hi).chain(&m.vlo).chain(&m.vhi) {
            self.u64(v.to_bits());
        }
        self.u64(m.t_ref.to_bits());
    }
}

fn input_hash(a: &[MovingObject], b: &[MovingObject], ticks: &[TickInput]) -> u64 {
    let mut h = Fnv::new();
    for o in a.iter().chain(b) {
        h.u64(o.id.0);
        h.mbr(&o.mbr);
    }
    for t in ticks {
        for s in &t.steps {
            h.u64(s.at.to_bits());
            for u in &s.updates {
                h.u64(u.id.0);
                h.u64(u.set as u64);
                h.mbr(&u.old_mbr);
                h.u64(u.last_update.to_bits());
                h.mbr(&u.new_mbr);
            }
        }
    }
    h.0
}

/// Order-sensitive hash of a sorted answer.
#[must_use]
pub fn pairs_hash(pairs: &[PairKey]) -> u64 {
    let mut h = Fnv::new();
    for (a, b) in pairs {
        h.u64(a.0);
        h.u64(b.0);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let spec = Spec::named("burst_ingest", 5, true).unwrap();
        let one = Inputs::generate(&spec);
        let two = Inputs::generate(&spec);
        assert_eq!(one.hash, two.hash);
        assert_eq!(one.updates_in(spec.ticks), two.updates_in(spec.ticks));
        let other = Inputs::generate(&Spec::named("burst_ingest", 6, true).unwrap());
        assert_ne!(one.hash, other.hash);
    }

    #[test]
    fn burst_schedule_matches_bench_ingest() {
        let spec = Spec::named("burst_ingest", 1, true).unwrap();
        let mult: Vec<u32> = (1..=9).map(|t| spec.multiplier(t)).collect();
        assert_eq!(mult, vec![6, 1, 1, 1, 1, 1, 1, 6, 6]);
        // Cool-down ticks never burst.
        assert_eq!(spec.multiplier(spec.ticks + 3), 1);
        let inputs = Inputs::generate(&spec);
        assert_eq!(inputs.ticks[0].steps.len(), 6);
        assert_eq!(inputs.ticks[1].steps.len(), 1);
        assert_eq!(inputs.ticks.len() as u32, spec.ticks + COOLDOWN_TICKS);
    }

    #[test]
    fn checkpoints_cover_half_tm_and_the_last_tick() {
        let spec = Spec::named("skew_shard", 1, false).unwrap();
        assert_eq!(spec.checkpoints(25), vec![10, 20, 25]);
        assert_eq!(spec.checkpoints(30), vec![10, 20, 30]);
        assert!(Spec::named("nope", 1, false).is_err());
    }

    #[test]
    fn oracle_is_available_at_every_checkpoint() {
        let spec = Spec::named("skew_shard", 3, true).unwrap();
        let inputs = Inputs::generate(&spec);
        for t in spec.checkpoints(spec.ticks) {
            assert!(inputs.oracle(t).is_some(), "tick {t}");
        }
        assert!(inputs.oracle(1).is_none());
    }
}
