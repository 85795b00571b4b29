//! Load-shedding policies: what the ingestion queue does *instead of*
//! just refusing work when backpressure engages.
//!
//! The paper's maximum-update-interval contract (`T_M`, §II) is what
//! makes shedding sound at all: an object's index entry is fully
//! determined by its **latest** applied update — the engines delete the
//! registered trajectory and insert the new one, so a pending-but-
//! unapplied intermediate update contributes nothing to the post-tick
//! result set. [`ShedPolicy::DropStalePerObject`] exploits exactly that:
//! it replaces a pending update outright. The delete keys are not the
//! queue's concern — the service fills them from its registration table
//! when the batch drains, so the replacement deletes what the engine
//! actually holds (see DESIGN.md §8 for the full soundness argument).
//!
//! The other two policies trade different currencies:
//! [`CoalesceHarder`](ShedPolicy::CoalesceHarder) spends *freshness*
//! (updates are re-timed onto a coarser tick grid, so a saturated
//! service runs fewer apply/extract cycles), and
//! [`DegradeToResync`](ShedPolicy::DegradeToResync) spends *delivery
//! granularity* (per-delta fan-out is suspended during saturation and
//! every subscriber is resynced from a snapshot at recovery, with exact
//! gap accounting).

use cij_geom::Time;

/// What the service sheds when the ingest queue saturates.
///
/// `None` preserves the pre-policy behavior bit-for-bit: the watermark
/// hysteresis flips the accepting flag and saturated producers see
/// [`QueueFull`](crate::IngestOutcome::QueueFull), nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ShedPolicy {
    /// No shedding: refuse with `QueueFull` while closed (default).
    #[default]
    None,
    /// While the queue is under pressure (pending at or above the *low*
    /// watermark), quantize submission ticks **up** to multiples of
    /// `window`, widening the per-tick coalescing so a drain runs fewer
    /// apply/extract cycles. Updates are applied late (freshness lag,
    /// recorded in `stream.freshness.lag_milliticks`) but none are
    /// dropped; admission control is unchanged.
    CoalesceHarder {
        /// Coalescing grid in ticks (must be positive). Submissions for
        /// tick `t` enqueue at `ceil(t / window) · window`.
        window: Time,
    },
    /// When a submission would be refused (queue closed or at hard
    /// capacity), keep only the newest pending update per object: the
    /// arriving update *replaces* the object's latest pending one. Sound
    /// under `T_M`: the post-tick result set is bit-identical to applying
    /// every update (the lockstep tests prove it). Objects with no
    /// pending update still see `QueueFull`.
    DropStalePerObject,
    /// Queue admission behaves like [`None`](ShedPolicy::None), but
    /// while backpressure is engaged the service suspends per-delta
    /// subscriber delivery (each suppressed delivery is counted into
    /// the subscriber's exact gap counter) and, when the queue reopens,
    /// force-resyncs every subscriber from a catch-up snapshot.
    DegradeToResync,
}

impl ShedPolicy {
    /// Whether this policy's parameters are usable
    /// (`CoalesceHarder.window` must be positive and finite).
    #[must_use]
    pub fn is_valid(&self) -> bool {
        match self {
            Self::CoalesceHarder { window } => window.is_finite() && *window > 0.0,
            _ => true,
        }
    }

    /// Short stable label for reports and benchmark JSON.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::None => "none",
            Self::CoalesceHarder { .. } => "coalesce_harder",
            Self::DropStalePerObject => "drop_stale_per_object",
            Self::DegradeToResync => "degrade_to_resync",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validity() {
        assert!(ShedPolicy::None.is_valid());
        assert!(ShedPolicy::DropStalePerObject.is_valid());
        assert!(ShedPolicy::DegradeToResync.is_valid());
        assert!(ShedPolicy::CoalesceHarder { window: 2.0 }.is_valid());
        assert!(!ShedPolicy::CoalesceHarder { window: 0.0 }.is_valid());
        assert!(!ShedPolicy::CoalesceHarder { window: -1.0 }.is_valid());
        assert!(!ShedPolicy::CoalesceHarder { window: f64::NAN }.is_valid());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ShedPolicy::None.label(), "none");
        assert_eq!(
            ShedPolicy::CoalesceHarder { window: 4.0 }.label(),
            "coalesce_harder"
        );
        assert_eq!(
            ShedPolicy::DropStalePerObject.label(),
            "drop_stale_per_object"
        );
        assert_eq!(ShedPolicy::DegradeToResync.label(), "degrade_to_resync");
    }

    #[test]
    fn default_is_none() {
        assert_eq!(ShedPolicy::default(), ShedPolicy::None);
    }
}
