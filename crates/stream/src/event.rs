//! The delta vocabulary: what subscribers receive instead of snapshots.

use cij_core::PairKey;
use cij_geom::{Time, TimeInterval};

/// One incremental change to the continuously-maintained join answer.
///
/// A subscriber replaying these events against an initially-empty pair
/// set reconstructs `result_at(t)` exactly at every extraction tick —
/// the workspace's `conform` suite pins that property for all four
/// engines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResultDelta {
    /// The pair entered the reported answer.
    PairAdded {
        /// The (A-object, B-object) pair.
        pair: PairKey,
        /// The predicted intersection interval the pair was admitted
        /// under. For engines that keep interval predictions
        /// (Naive/TC/MTB) this is the buffer interval containing the
        /// extraction tick; for snapshot-diffed engines (ETP) it is
        /// `[t, ∞)`, meaning "active from `t` until a later
        /// [`PairRemoved`](Self::PairRemoved)". The event stream itself
        /// is always the authoritative membership record.
        valid: TimeInterval,
    },
    /// The pair left the reported answer.
    PairRemoved {
        /// The (A-object, B-object) pair.
        pair: PairKey,
    },
}

impl ResultDelta {
    /// The pair this delta is about.
    #[must_use]
    pub fn pair(&self) -> PairKey {
        match self {
            Self::PairAdded { pair, .. } | Self::PairRemoved { pair } => *pair,
        }
    }

    /// Whether this is an addition.
    #[must_use]
    pub fn is_add(&self) -> bool {
        matches!(self, Self::PairAdded { .. })
    }
}

/// A delta stamped with the tick it was extracted at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StampedDelta {
    /// Extraction tick.
    pub at: Time,
    /// The change.
    pub delta: ResultDelta,
}

/// What a subscriber's [`poll`](crate::StreamService::poll) yields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OutboxItem {
    /// A delivered delta.
    Delta(StampedDelta),
    /// The subscriber fell behind (or the service recovered from a
    /// crash) and deliveries were discarded under the drop-oldest
    /// policy. After a gap the subscriber's replayed state is no longer
    /// trustworthy; it should ask the service for a
    /// [`resync`](crate::StreamService::resync).
    Gap {
        /// Number of discarded deltas. After crash recovery this is a
        /// lower bound (in-flight deliveries at the crash are unknown).
        dropped: u64,
    },
}
