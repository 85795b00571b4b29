//! Brute-force proximity-join oracle.
//!
//! No index, no candidates: every A×B pair is refined with the *same*
//! primitive over the *same* window the real engine uses, so the two
//! answers are bit-identical floats — the differential suites assert
//! exact equality, not tolerance bands.

use std::collections::HashMap;
use std::sync::Arc;

use cij_core::{ContinuousJoinEngine, PairKey, PairStatus, ResultBuffer};
use cij_geom::{MovingRect, Time};
use cij_join::JoinCounters;
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::{ObjectId, TprResult};
use cij_workload::{MovingObject, ObjectUpdate, SetTag};

use crate::ProximityConfig;

/// O(|A|·|B|) reference implementation of the proximity join.
///
/// Implements the full [`ContinuousJoinEngine`] protocol (including
/// routed insert/remove and delta tracking) so it can stand in for
/// [`ProximityJoinEngine`](crate::ProximityJoinEngine) anywhere — behind
/// the stream service, say — while computing the answer by exhaustive
/// refinement.
pub struct BruteProximityEngine {
    t_m: Time,
    eps_sq: f64,
    /// Unused placeholder so `pool()` has something to return; the
    /// oracle performs no page I/O.
    pool: BufferPool,
    reg_a: HashMap<ObjectId, MovingRect>,
    reg_b: HashMap<ObjectId, MovingRect>,
    buffer: ResultBuffer,
    counters: JoinCounters,
}

impl BruteProximityEngine {
    /// Builds the oracle over the same inputs the real engine takes.
    /// `config.engine` contributes only `T_M`; trees, techniques and
    /// threads are irrelevant to exhaustive refinement.
    #[must_use]
    pub fn new(config: ProximityConfig, set_a: &[MovingObject], set_b: &[MovingObject]) -> Self {
        let eps = config.epsilon;
        assert!(
            eps.is_finite() && eps >= 0.0,
            "epsilon must be finite and non-negative, got {eps}"
        );
        Self {
            t_m: config.engine.t_m,
            eps_sq: eps * eps,
            pool: BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default()),
            reg_a: set_a.iter().map(|o| (o.id, o.mbr)).collect(),
            reg_b: set_b.iter().map(|o| (o.id, o.mbr)).collect(),
            buffer: ResultBuffer::new(),
            counters: JoinCounters::new(),
        }
    }

    /// Refines one pair over `[now, now + T_M]` — byte-for-byte the call
    /// the real engine makes for its candidates.
    fn refine(&mut self, a: ObjectId, b: ObjectId, now: Time) {
        self.counters.entry_comparisons += 1;
        let iv = {
            let ra = &self.reg_a[&a];
            let rb = &self.reg_b[&b];
            ra.within_dist_sq_interval(rb, self.eps_sq, now, now + self.t_m)
        };
        if let Some(iv) = iv {
            self.counters.pairs_emitted += 1;
            self.buffer.add(a, b, iv);
        }
    }

    /// Refines `id` (on side `set`) against every registered partner.
    fn refine_against_all(&mut self, set: SetTag, id: ObjectId, now: Time) {
        let partners: Vec<ObjectId> = match set {
            SetTag::A => self.reg_b.keys().copied().collect(),
            SetTag::B => self.reg_a.keys().copied().collect(),
        };
        for p in partners {
            match set {
                SetTag::A => self.refine(id, p, now),
                SetTag::B => self.refine(p, id, now),
            }
        }
    }
}

impl ContinuousJoinEngine for BruteProximityEngine {
    fn name(&self) -> &'static str {
        "Brute-Proximity"
    }

    fn run_initial_join(&mut self, now: Time) -> TprResult<()> {
        let ids: Vec<ObjectId> = self.reg_a.keys().copied().collect();
        for a in ids {
            let partners: Vec<ObjectId> = self.reg_b.keys().copied().collect();
            for b in partners {
                self.refine(a, b, now);
            }
        }
        Ok(())
    }

    fn apply_update(&mut self, update: &ObjectUpdate, now: Time) -> TprResult<()> {
        match update.set {
            SetTag::A => self.reg_a.insert(update.id, update.new_mbr),
            SetTag::B => self.reg_b.insert(update.id, update.new_mbr),
        };
        self.buffer.remove_object(update.id);
        self.refine_against_all(update.set, update.id, now);
        Ok(())
    }

    fn insert_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        mbr: MovingRect,
        now: Time,
    ) -> TprResult<()> {
        match set {
            SetTag::A => self.reg_a.insert(id, mbr),
            SetTag::B => self.reg_b.insert(id, mbr),
        };
        self.refine_against_all(set, id, now);
        Ok(())
    }

    fn remove_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        _old_mbr: &MovingRect,
        _last_update: Time,
        _now: Time,
    ) -> TprResult<()> {
        match set {
            SetTag::A => self.reg_a.remove(&id),
            SetTag::B => self.reg_b.remove(&id),
        };
        self.buffer.remove_object(id);
        Ok(())
    }

    fn gc(&mut self, now: Time) {
        self.buffer.prune_before(now);
    }

    fn result_at(&self, t: Time) -> Vec<PairKey> {
        self.buffer.active_at(t)
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
}
