//! Load shedding: what the ingestion queue does *instead of* just
//! refusing work when backpressure engages.
//!
//! The paper's maximum-update-interval contract (`T_M`, §II) is what
//! makes shedding sound at all: an object's index entry is fully
//! determined by its **latest** applied update — the engines delete the
//! registered trajectory and insert the new one, so a pending-but-
//! unapplied intermediate update contributes nothing to the post-tick
//! result set. [`ShedPolicy::DropStalePerObject`] exploits exactly that:
//! it replaces a pending update outright. The delete keys are not the
//! queue's concern — the engine derives them from its registration table
//! when the batch is applied, so the replacement deletes what the engine
//! actually holds (see DESIGN.md §8 for the full soundness argument).

/// What the service sheds when the ingest queue saturates.
///
/// `None` is plain backpressure: the watermark hysteresis flips the
/// accepting flag and saturated producers see
/// [`QueueFull`](crate::IngestOutcome::QueueFull), nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// No shedding: refuse with `QueueFull` while closed (default).
    #[default]
    None,
    /// When a submission would be refused (queue closed or at hard
    /// capacity), keep only the newest pending update per object: the
    /// arriving update *replaces* the object's latest pending one. Sound
    /// under `T_M`: the post-tick result set is bit-identical to applying
    /// every update (the lockstep tests prove it). Objects with no
    /// pending update still see `QueueFull`.
    DropStalePerObject,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_none() {
        assert_eq!(ShedPolicy::default(), ShedPolicy::None);
    }
}
