//! The registration table. An MTB delete names the object's side, its
//! indexed trajectory and the time that was registered (§IV-C, the
//! paper's "last update timestamp"). Every engine keeps these *delete
//! keys* in one [`Registrations`] table and derives every delete from it;
//! the layers above read it through
//! [`ContinuousJoinEngine::registrations`](crate::ContinuousJoinEngine::registrations).

use cij_geom::{MovingRect, Time};
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

/// Every live object's [`Registration`], by id (unique across both sets).
/// Iteration order is no order: a consumer that needs one sorts
/// ([`sorted_registrations`]).
pub type Registrations = IdMap<ObjectId, Registration>;

/// Both genesis sets, registered at `now`.
///
/// # Errors
/// [`TprError::DuplicateObject`] naming the first id that appears twice
/// across `set_a ∪ set_b`.
pub fn genesis_registrations(
    set_a: &[MovingObject],
    set_b: &[MovingObject],
    now: Time,
) -> TprResult<Registrations> {
    let mut table = Registrations::default();
    table.reserve(set_a.len() + set_b.len());
    for (set, objects) in [(SetTag::A, set_a), (SetTag::B, set_b)] {
        for o in objects {
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
