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
//! strictly increasing per worker (the coordinator draws them from one
//! global counter, so a worker sees gaps — only the order matters). A
//! worker journals each mutating request to its WAL *before* applying
//! it and remembers the response in an outbox keyed by sequence number.
//! A request with `seq ≤ last_applied` is **not** re-applied — the
//! cached response is returned — so the coordinator may resend freely
//! after a reconnect. [`Request::Step`] piggybacks `ack_through`, the
//! highest sequence number whose response the coordinator has safely
//! consumed; the worker prunes its outbox up to it.

use cij_core::{EngineOp, PairKey, PairStatus};
use cij_geom::Time;
use cij_join::JoinCounters;
use cij_stream::wire_enum;
use cij_workload::MovingObject;

/// Which engine a worker should build at [`Request::Init`].
///
/// ETP is excluded by construction (it predicts no intervals, so it
/// cannot feed bit-identical delta streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// NaiveJoin (§II-C).
    Naive,
    /// Time-constrained processing (§IV).
    Tc,
    /// TC + MTB-trees (§V) — the paper's headline engine.
    Mtb,
}

wire_enum! {
    impl Wire for EngineKind, "engine kind" {
        1 => Naive,
        2 => Tc,
        3 => Mtb,
    }
}

impl EngineKind {
    /// The engine's display name (matches the paper's figures).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Naive => "NaiveJoin",
            Self::Tc => "TC",
            Self::Mtb => "TC+MTB",
        }
    }
}

wire_enum! {
    /// A coordinator→worker message.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request, "request" {
        /// Connection handshake; the worker answers with its high-water
        /// sequence number so the coordinator knows what to replay.
        0x10 => Hello,
        /// Builds the worker's engine over its shard-pair subsets.
        0x11 => Init {
            /// Sequence number (see the module docs).
            seq: u64,
            /// Engine to build.
            engine: EngineKind,
            /// Maximum update interval `T_M`.
            t_m: Time,
            /// MTB bucket granularity.
            buckets_per_tm: u32,
            /// The worker's A-side subset.
            set_a: Vec<MovingObject>,
            /// The worker's B-side subset.
            set_b: Vec<MovingObject>,
            /// Engine start time.
            start: Time,
        },
        /// Turns on result-change tracking.
        0x12 => Track {
            /// Sequence number.
            seq: u64,
        },
        /// Runs the initial join at `now` (phase 1 of §II-A).
        0x13 => Start {
            /// Sequence number.
            seq: u64,
            /// Initial-join time.
            now: Time,
        },
        /// One tick: advance the clock, apply the projected ops in order,
        /// garbage-collect, and drain the engine's result changes into the
        /// ack. Sent every tick — empty `ops` included — so the worker's
        /// engine sees exactly the single-process call cadence.
        0x14 => Step {
            /// Sequence number.
            seq: u64,
            /// The tick time.
            now: Time,
            /// Outbox entries up to this sequence number may be pruned.
            ack_through: u64,
            /// The ops projected onto this worker, in application order.
            ops: Vec<EngineOp>,
        },
        /// Applies one op *without* the tick bundle (no advance, no gc, no
        /// change drain) — the wire mirror of a direct
        /// `insert_object`/`remove_object` trait call, whose result-buffer
        /// changes must stay queued until the next tick's drain.
        0x15 => Immediate {
            /// Sequence number.
            seq: u64,
            /// The operation time.
            now: Time,
            /// The operation.
            op: EngineOp,
        },
        /// Reads one pair's activity at `t`.
        0x16 => PairStatusAt {
            /// The pair, oriented (A-object, B-object).
            pair: PairKey,
            /// The queried instant.
            t: Time,
        },
        /// Reads the worker's full answer at `t`.
        0x17 => ResultAt {
            /// The queried instant.
            t: Time,
        },
        /// Reads the worker's accumulated traversal counters.
        0x18 => Counters,
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
            Self::Init { seq, .. }
            | Self::Track { seq }
            | Self::Start { seq, .. }
            | Self::Step { seq, .. }
            | Self::Immediate { seq, .. } => Some(*seq),
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
        /// A mutating request (other than a step) was applied.
        0x31 => Ack {
            /// The applied request's sequence number.
            seq: u64,
        },
        /// A tick was applied; carries the drained result changes.
        0x32 => StepAck {
            /// The step's sequence number.
            seq: u64,
            /// The engine's drained result changes (sorted), or `None` if
            /// the engine does not track changes.
            changes: Option<Vec<PairKey>>,
        },
        /// A pair's activity.
        0x33 => Status(status: PairStatus),
        /// A full answer snapshot (sorted).
        0x34 => Pairs(pairs: Vec<PairKey>),
        /// Accumulated traversal counters.
        0x35 => CountersAck(counters: JoinCounters),
        /// Liveness echo.
        0x36 => Pong {
            /// The pinged nonce.
            nonce: u64,
        },
        /// Shutdown acknowledged; the worker exits after sending this.
        0x37 => Bye,
        /// The worker reached its engine but the operation failed (the
        /// rendered engine error). Deterministic — resending will fail the
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
