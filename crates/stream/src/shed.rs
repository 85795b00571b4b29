//! Load shedding: what the ingestion queue does *instead of* just
//! refusing work when backpressure engages.
//!
//! The paper's maximum-update-interval contract (`T_M`, §II) is what
//! makes shedding sound at all: an object's index entry is fully
//! determined by its **latest** applied update — the engines delete the
//! registered trajectory and insert the new one, so a pending-but-
//! unapplied intermediate update contributes nothing to the post-tick
//! result set. So while the queue is closed, a submission for an object
//! with a pending update replaces that update outright; the delete keys
//! are not the queue's concern — the engine derives them from its
//! registration table when the batch is applied, so the replacement
//! deletes what the engine actually holds (see DESIGN.md §8 for the full
//! soundness argument). This is the queue's only saturation behaviour;
//! [`ShedPolicy`] names it and selects nothing.

/// The saturation behaviour of the ingest queue — the only one there
/// is. Kept as a one-variant enum, with
/// [`StreamConfigBuilder::shed_policy`](crate::StreamConfigBuilder::shed_policy)
/// a no-op, only until the benchmark stops naming it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// When a submission would be refused (queue closed or at hard
    /// capacity), keep only the newest pending update per object: the
    /// arriving update *replaces* the object's latest pending one. Sound
    /// under `T_M`: the post-tick result set is bit-identical to applying
    /// every update (the lockstep tests prove it). Objects with no
    /// pending update still see `QueueFull`.
    #[default]
    DropStalePerObject,
}
