//! Brute-force proximity-join oracle.
//!
//! No index, no candidates: every A×B pair is refined with the *same*
//! primitive over the *same* window the real engine uses, so the two
//! answers are bit-identical floats — the `conform` suite asserts
//! exact equality, not tolerance bands.

use std::sync::Arc;

use cij_core::{
    genesis_registrations, ContinuousJoinEngine, PairKey, Registration, Registrations, ResultBuffer,
};
use cij_geom::{MovingRect, Time, TimeInterval};
use cij_join::JoinCounters;
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::{ObjectId, TprError, TprResult};
use cij_workload::{MovingObject, ObjectUpdate, SetTag};

use crate::ProximityConfig;

/// O(|A|·|B|) reference implementation of the proximity join.
///
/// Implements the full [`ContinuousJoinEngine`] protocol (including
/// routed restore/remove and delta tracking) so it can stand in for
/// [`ProximityJoinEngine`](crate::ProximityJoinEngine) anywhere — behind
/// the stream service, say — while computing the answer by exhaustive
/// refinement over its [`Registrations`]. It refuses what that engine
/// refuses, the same way and before anything changes: an unknown id, a
/// duplicate restore, and a trajectory or registration time the engine
/// could not index ([`TprError::UnsoundTrajectory`]).
pub struct BruteProximityEngine {
    t_m: Time,
    eps_sq: f64,
    /// Unused placeholder so `pool()` has something to return; the
    /// oracle performs no page I/O.
    pool: BufferPool,
    registrations: Registrations,
    buffer: ResultBuffer,
    counters: JoinCounters,
}

impl BruteProximityEngine {
    /// Builds the oracle over the same inputs the real engine takes, each
    /// object registered at its trajectory's reference time.
    /// `config.engine` contributes only `T_M`; trees and threads are
    /// irrelevant to exhaustive refinement.
    ///
    /// # Panics
    ///
    /// If `epsilon` is negative or not finite, or an id appears twice
    /// across `set_a ∪ set_b`.
    #[must_use]
    pub fn new(config: ProximityConfig, set_a: &[MovingObject], set_b: &[MovingObject]) -> Self {
        let eps = config.epsilon;
        assert!(
            eps.is_finite() && eps >= 0.0,
            "epsilon must be finite and non-negative, got {eps}"
        );
        let mut registrations = genesis_registrations(set_a, set_b, 0.0)
            .expect("object ids must be unique across both sets");
        for r in registrations.values_mut() {
            r.registered_at = r.mbr.t_ref;
        }
        Self {
            t_m: config.engine.t_m,
            eps_sq: eps * eps,
            pool: BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default()),
            registrations,
            buffer: ResultBuffer::new(),
            counters: JoinCounters::new(),
        }
    }

    /// The registered trajectory of `id`.
    fn mbr(&self, id: ObjectId) -> &MovingRect {
        &self
            .registrations
            .get(&id)
            .expect("a registered object")
            .mbr
    }

    /// Refines one pair over `[now, now + T_M]` — byte-for-byte the call
    /// the real engine makes for its candidates.
    fn refine(&mut self, a: ObjectId, b: ObjectId, now: Time) {
        self.counters.entry_comparisons += 1;
        let iv =
            (self.mbr(a)).within_dist_sq_interval(self.mbr(b), self.eps_sq, now, now + self.t_m);
        if let Some(iv) = iv {
            self.counters.pairs_emitted += 1;
            self.buffer.add(a, b, iv);
        }
    }

    /// Refines `id` (on side `set`) against every registered partner.
    fn refine_against_all(&mut self, set: SetTag, id: ObjectId, now: Time) {
        let partners: Vec<ObjectId> = (self.registrations.iter())
            .filter(|(_, r)| r.set != set)
            .map(|(&p, _)| p)
            .collect();
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
        let side_a: Vec<ObjectId> = (self.registrations.iter())
            .filter(|(_, r)| r.set == SetTag::A)
            .map(|(&a, _)| a)
            .collect();
        for a in side_a {
            self.refine_against_all(SetTag::A, a, now);
        }
        Ok(())
    }

    fn apply_update(&mut self, update: &ObjectUpdate, now: Time) -> TprResult<()> {
        let id = update.id;
        let set = (self.registrations.get(&id))
            .ok_or(TprError::ObjectNotFound(id))?
            .set;
        if !update.new_mbr.is_sound_from(now) {
            return Err(TprError::UnsoundTrajectory(id));
        }
        self.remove_object(id, now)?;
        self.restore_object(set, id, update.new_mbr, now, now)
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
        self.registrations.insert(id, registration);
        self.refine_against_all(set, id, now);
        Ok(())
    }

    fn remove_object(&mut self, id: ObjectId, _now: Time) -> TprResult<()> {
        (self.registrations.remove(&id)).ok_or(TprError::ObjectNotFound(id))?;
        self.buffer.remove_object(id);
        Ok(())
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

    fn pair_interval(&self, pair: PairKey) -> Option<TimeInterval> {
        self.buffer.interval(pair.0, pair.1)
    }
}
