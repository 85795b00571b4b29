//! The registration table. An MTB delete names the object's side, its
//! indexed trajectory and the time that was registered (§IV-C, the
//! paper's "last update timestamp"). Every engine keeps these *delete
//! keys* in one [`Registrations`] table and derives every delete from it;
//! the layers above read it through
//! [`ContinuousJoinEngine::registrations`](crate::ContinuousJoinEngine::registrations).

use cij_geom::{in_range, MovingRect, Time};
use cij_tpr::{IdMap, ObjectId, TprError, TprResult};
use cij_workload::{MovingObject, SetTag};

/// One live object as its engine files it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Registration {
    /// Which object set the object belongs to.
    pub set: SetTag,
    /// The trajectory the engine indexes.
    pub mbr: MovingRect,
    /// When that trajectory was registered: the tick the update was
    /// *applied*, which for a late submission is not the trajectory's
    /// own `t_ref`. MTB buckets file the object under it.
    pub registered_at: Time,
}

impl Registration {
    /// Whether an object can be filed on this registration at `now`: its
    /// trajectory is [indexable](MovingRect::is_sound_from) from `now` (or
    /// from its own later reference time), and it was registered at an
    /// [in-range](in_range) time no later than `now`. What a restored
    /// object is held against.
    #[must_use]
    pub fn is_sound_at(&self, now: Time) -> bool {
        indexable(&self.mbr, now) && in_range(self.registered_at) && self.registered_at <= now
    }
}

/// Every live object's [`Registration`], by id (unique across both sets).
/// Iteration order is no order: a consumer that needs one sorts
/// ([`sorted_registrations`]).
pub type Registrations = IdMap<ObjectId, Registration>;

/// Both genesis sets, registered at `now`.
///
/// # Errors
/// [`TprError::DuplicateObject`] naming the first id that appears twice
/// across `set_a ∪ set_b`, or [`TprError::UnsoundTrajectory`] naming the
/// first object whose trajectory is not [sound](MovingRect::is_sound_from)
/// from the later of `now` and its own reference time (a window may
/// start later).
pub fn genesis_registrations(
    set_a: &[MovingObject],
    set_b: &[MovingObject],
    now: Time,
) -> TprResult<Registrations> {
    let mut table = Registrations::default();
    table.reserve(set_a.len() + set_b.len());
    for (set, objects) in [(SetTag::A, set_a), (SetTag::B, set_b)] {
        for o in objects {
            if !indexable(&o.mbr, now) {
                return Err(TprError::UnsoundTrajectory(o.id));
            }
            let registration = Registration {
                set,
                mbr: o.mbr,
                registered_at: now,
            };
            if table.insert(o.id, registration).is_some() {
                return Err(TprError::DuplicateObject(o.id));
            }
        }
    }
    Ok(table)
}

/// Whether an object on `mbr` can be registered at `now` without a
/// registration time of its own: its trajectory is
/// [sound](MovingRect::is_sound_from) from the later of `now` and its
/// reference time. A genesis or restored object may be referenced in
/// the future (a window that starts later); an update's new trajectory
/// is registered at `now` and must be sound from `now` itself. The rule
/// every reader of a record that files an object holds it against.
#[must_use]
pub fn indexable(mbr: &MovingRect, now: Time) -> bool {
    mbr.is_sound_from(now.max(mbr.t_ref))
}

/// The objects of `table` that `keep` admits, sorted by side and id: the
/// order a rebuilt index files them in
/// ([`IndexPair::reseed`](crate::IndexPair::reseed)).
pub fn sorted_registrations(
    table: &Registrations,
    keep: impl Fn(ObjectId, &Registration) -> bool,
) -> Vec<(ObjectId, Registration)> {
    let mut objects: Vec<_> = (table.iter())
        .filter(|&(&id, r)| keep(id, r))
        .map(|(&id, &r)| (id, r))
        .collect();
    objects.sort_unstable_by_key(|&(id, r)| (r.set == SetTag::B, id));
    objects
}
