//! The coordinator↔worker RPC protocol.
//!
//! Every message is one [`cij_stream::wire`] payload: the two-byte
//! protocol header (magic, version), a message tag, then the fields —
//! [`Request`] and [`Response`] below are `wire_enum!` declarations, each
//! variant's tag byte and fields written once, in wire order. Transports
//! frame these payloads (the TCP transport in `cij_storage::frame`s; the
//! loopback transport passes them by reference) but never interpret them.
//!
//! # Exactly-once application over at-least-once delivery
//!
//! Mutating requests carry a coordinator-assigned sequence number,
//! strictly increasing per worker (each worker's link counts its own,
//! and a number is never reused, acknowledged or not). A worker journals
//! each mutating request to its WAL *before* applying it and remembers
//! the response in an outbox keyed by sequence number.
//! A request with `seq ≤ last_applied` is **not** re-applied — the
//! cached response is returned — so the coordinator may resend freely
//! after a reconnect. [`Request::Step`] piggybacks `ack_through`, the
//! highest sequence number whose response the coordinator has safely
//! consumed; the worker prunes its outbox up to it.

use cij_geom::{in_range, MovingRect, Time};
use cij_join::{JoinCounters, ProbeHit};
use cij_stream::wire_enum;
use cij_tpr::ObjectId;
use cij_workload::SetTag;

/// Which index pair a worker builds at [`Request::Init`].
///
/// ETP is excluded by construction (it predicts no intervals, so it
/// cannot feed bit-identical delta streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Time-constrained processing on TPR-trees (§IV-B).
    Tc,
    /// TC + MTB-trees (§IV-C) — the paper's headline engine.
    Mtb,
}

wire_enum! {
    impl Wire for EngineKind, "engine kind" {
        2 => Tc,
        3 => Mtb,
    }
}

impl EngineKind {
    /// The engine's display name (matches the paper's figures).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Tc => "TC",
            Self::Mtb => "TC+MTB",
        }
    }
}

/// One mutation of a worker's index pair, in the order the coordinator's
/// phase 1 made it: the arguments of one
/// [`IndexPair::insert`](cij_core::IndexPair::insert) or
/// [`IndexPair::remove`](cij_core::IndexPair::remove) call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IndexOp {
    /// Registers an object.
    Insert {
        /// Side the object joins.
        set: SetTag,
        /// The object.
        id: ObjectId,
        /// Its trajectory.
        mbr: MovingRect,
        /// When the trajectory was registered (the MTB bucket it is filed
        /// under).
        registered_at: Time,
        /// When the insert ran.
        now: Time,
    },
    /// Deregisters an object.
    Remove {
        /// Side the object leaves.
        set: SetTag,
        /// The object.
        id: ObjectId,
        /// The trajectory registered for it.
        old_mbr: MovingRect,
        /// When that trajectory was registered.
        last_update: Time,
        /// When the remove ran.
        now: Time,
    },
}

wire_enum! {
    impl Wire for IndexOp, "index op" {
        1 => Insert { set: SetTag, id: ObjectId, mbr: MovingRect, registered_at: Time, now: Time },
        2 => Remove { set: SetTag, id: ObjectId, old_mbr: MovingRect, last_update: Time, now: Time },
    }
}

impl IndexOp {
    /// Whether the op's times are [in range](in_range) and its
    /// trajectory [sound from](MovingRect::is_sound_from) the time it ran
    /// — what the indexes assume and assert on, so an op decoded from a
    /// socket or a journal is held against it first.
    #[must_use]
    pub fn is_sound(&self) -> bool {
        let (mbr, at, now) = match self {
            Self::Insert {
                mbr,
                registered_at,
                now,
                ..
            } => (mbr, registered_at, now),
            Self::Remove {
                old_mbr,
                last_update,
                now,
                ..
            } => (old_mbr, last_update, now),
        };
        in_range(*at) && in_range(*now) && mbr.is_sound_from(*now)
    }
}

wire_enum! {
    /// A coordinator→worker message.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request, "request" {
        /// Connection handshake; the worker answers with its high-water
        /// sequence number so the coordinator knows what to replay.
        0x10 => Hello,
        /// Builds the worker's index pair and registers its partition's
        /// initial objects.
        0x11 => Init {
            /// Sequence number (see the module docs).
            seq: u64,
            /// Index pair to build.
            engine: EngineKind,
            /// Maximum update interval `T_M`.
            t_m: Time,
            /// MTB bucket granularity.
            buckets_per_tm: u32,
            /// The partition's initial registrations, in order.
            ops: Vec<IndexOp>,
        },
        /// One phase-2 round: apply the queued mutations in order, then
        /// join each side's probes against the other side's index over
        /// the pair's window at `now`.
        0x14 => Step {
            /// Sequence number.
            seq: u64,
            /// The tick time.
            now: Time,
            /// Outbox entries up to this sequence number may be pruned.
            ack_through: u64,
            /// The partition's mutations since the last round, in order.
            ops: Vec<IndexOp>,
            /// Side A's probes (trajectories registered at `now`).
            probes_a: Vec<MovingRect>,
            /// Side B's probes.
            probes_b: Vec<MovingRect>,
        },
        /// Liveness probe; echoed back in [`Response::Pong`].
        0x19 => Ping {
            /// Echo payload.
            nonce: u64,
        },
        /// Asks the worker process to exit after acknowledging.
        0x1A => Shutdown,
    }
}

impl Request {
    /// The request's sequence number — `Some` exactly for the mutating
    /// requests that are journaled, deduplicated and replayed.
    #[must_use]
    pub fn seq(&self) -> Option<u64> {
        match self {
            Self::Init { seq, .. } | Self::Step { seq, .. } => Some(*seq),
            _ => None,
        }
    }
}

wire_enum! {
    /// A worker→coordinator message.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response, "response" {
        /// Handshake answer: the worker's durable progress.
        0x30 => HelloAck {
            /// Highest sequence number the worker has applied (0 = fresh).
            last_applied: u64,
        },
        /// An `Init` was applied.
        0x31 => Ack {
            /// The applied request's sequence number.
            seq: u64,
        },
        /// A round was applied; carries its hits and traversal work.
        0x32 => StepAck {
            /// The step's sequence number.
            seq: u64,
            /// Hits of side A's probes: (probe index, B-object, interval).
            hits_a: Vec<ProbeHit>,
            /// Hits of side B's probes: (probe index, A-object, interval).
            hits_b: Vec<ProbeHit>,
            /// The probes' traversal counters.
            counters: JoinCounters,
        },
        /// Liveness echo.
        0x36 => Pong {
            /// The pinged nonce.
            nonce: u64,
        },
        /// Shutdown acknowledged; the worker exits after sending this.
        0x37 => Bye,
        /// The worker reached its index pair but the operation failed
        /// (the rendered error). Deterministic — resending will fail the
        /// same way — so the coordinator must not retry.
        0x38 => Fail {
            /// The rendered error.
            message: String,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cij_stream::{WireError, PROTOCOL_VERSION};

    #[test]
    fn garbage_and_foreign_versions_are_typed_errors() {
        assert!(matches!(
            Request::decode(&[]),
            Err(WireError::BadMagic { found: None })
        ));
        let mut bytes = Request::Hello.encode();
        bytes[1] = PROTOCOL_VERSION + 1;
        assert!(matches!(
            Request::decode(&bytes),
            Err(WireError::VersionMismatch { .. })
        ));
        let mut trailing = Response::Bye.encode();
        trailing.push(0);
        assert!(matches!(
            Response::decode(&trailing),
            Err(WireError::Corrupt(_))
        ));
    }
}
