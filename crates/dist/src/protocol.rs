//! The coordinator↔worker RPC protocol.
//!
//! Every message is one [`cij_stream::wire`] payload: the two-byte
//! protocol header (magic, version), a message tag, then the fields.
//! Transports frame these payloads (the TCP transport adds a length
//! prefix and CRC32; the loopback transport passes them by reference)
//! but never interpret them.
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

use cij_core::{PairKey, PairStatus};
use cij_geom::{Time, TimeInterval};
use cij_join::JoinCounters;
use cij_storage::codec::{ByteReader, ByteWriter};
use cij_stream::wire::{
    check_header, get_mrect, get_objects, get_update, put_header, put_mrect, put_objects,
    put_update, set_from_byte, set_to_byte,
};
use cij_stream::WireError;
use cij_tpr::ObjectId;
use cij_workload::MovingObject;

const REQ_HELLO: u8 = 0x10;
const REQ_INIT: u8 = 0x11;
const REQ_TRACK: u8 = 0x12;
const REQ_START: u8 = 0x13;
const REQ_STEP: u8 = 0x14;
const REQ_IMMEDIATE: u8 = 0x15;
const REQ_PAIR_STATUS: u8 = 0x16;
const REQ_RESULT_AT: u8 = 0x17;
const REQ_COUNTERS: u8 = 0x18;
const REQ_PING: u8 = 0x19;
const REQ_SHUTDOWN: u8 = 0x1A;

const RESP_HELLO_ACK: u8 = 0x30;
const RESP_ACK: u8 = 0x31;
const RESP_STEP_ACK: u8 = 0x32;
const RESP_STATUS: u8 = 0x33;
const RESP_PAIRS: u8 = 0x34;
const RESP_COUNTERS: u8 = 0x35;
const RESP_PONG: u8 = 0x36;
const RESP_BYE: u8 = 0x37;
const RESP_FAIL: u8 = 0x38;

const OP_APPLY: u8 = 0;
const OP_INSERT: u8 = 1;
const OP_REMOVE: u8 = 2;

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

impl EngineKind {
    fn code(self) -> u8 {
        match self {
            Self::Naive => 1,
            Self::Tc => 2,
            Self::Mtb => 3,
        }
    }

    fn from_code(b: u8) -> Result<Self, WireError> {
        match b {
            1 => Ok(Self::Naive),
            2 => Ok(Self::Tc),
            3 => Ok(Self::Mtb),
            other => Err(WireError::Corrupt(format!("invalid engine kind {other}"))),
        }
    }

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

/// One operation projected onto a worker's shard-pair engine: the
/// routers' [`cij_core::EngineOp`], carried over the wire as is.
pub use cij_core::EngineOp as ShardOp;

fn put_op(w: &mut ByteWriter, op: &ShardOp) {
    match op {
        ShardOp::Apply(u) => {
            w.put_u8(OP_APPLY);
            put_update(w, u);
        }
        ShardOp::Insert { set, id, mbr } => {
            w.put_u8(OP_INSERT);
            w.put_u8(set_to_byte(*set));
            w.put_u64(id.0);
            put_mrect(w, mbr);
        }
        ShardOp::Remove {
            set,
            id,
            old_mbr,
            last_update,
        } => {
            w.put_u8(OP_REMOVE);
            w.put_u8(set_to_byte(*set));
            w.put_u64(id.0);
            put_mrect(w, old_mbr);
            w.put_f64(*last_update);
        }
    }
}

fn get_op(r: &mut ByteReader<'_>) -> Result<ShardOp, WireError> {
    Ok(match r.get_u8()? {
        OP_APPLY => ShardOp::Apply(get_update(r)?),
        OP_INSERT => ShardOp::Insert {
            set: set_from_byte(r.get_u8()?)?,
            id: ObjectId(r.get_u64()?),
            mbr: get_mrect(r)?,
        },
        OP_REMOVE => ShardOp::Remove {
            set: set_from_byte(r.get_u8()?)?,
            id: ObjectId(r.get_u64()?),
            old_mbr: get_mrect(r)?,
            last_update: r.get_f64()?,
        },
        other => return Err(WireError::Corrupt(format!("invalid op tag {other}"))),
    })
}

fn put_pairs(w: &mut ByteWriter, pairs: &[PairKey]) {
    w.put_u32(pairs.len() as u32);
    for (a, b) in pairs {
        w.put_u64(a.0);
        w.put_u64(b.0);
    }
}

fn get_pairs(r: &mut ByteReader<'_>) -> Result<Vec<PairKey>, WireError> {
    let n = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push((ObjectId(r.get_u64()?), ObjectId(r.get_u64()?)));
    }
    Ok(out)
}

/// A coordinator→worker message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Connection handshake; the worker answers with its high-water
    /// sequence number so the coordinator knows what to replay.
    Hello,
    /// Builds the worker's engine over its shard-pair subsets.
    Init {
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
    Track {
        /// Sequence number.
        seq: u64,
    },
    /// Runs the initial join at `now` (phase 1 of §II-A).
    Start {
        /// Sequence number.
        seq: u64,
        /// Initial-join time.
        now: Time,
    },
    /// One tick: advance the clock, apply the projected ops in order,
    /// garbage-collect, and drain the engine's result changes into the
    /// ack. Sent every tick — empty `ops` included — so the worker's
    /// engine sees exactly the single-process call cadence.
    Step {
        /// Sequence number.
        seq: u64,
        /// The tick time.
        now: Time,
        /// The ops projected onto this worker, in application order.
        ops: Vec<ShardOp>,
        /// Outbox entries up to this sequence number may be pruned.
        ack_through: u64,
    },
    /// Applies one op *without* the tick bundle (no advance, no gc, no
    /// change drain) — the wire mirror of a direct
    /// `insert_object`/`remove_object` trait call, whose result-buffer
    /// changes must stay queued until the next tick's drain.
    Immediate {
        /// Sequence number.
        seq: u64,
        /// The operation time.
        now: Time,
        /// The operation.
        op: ShardOp,
    },
    /// Reads one pair's activity at `t`.
    PairStatusAt {
        /// The pair, oriented (A-object, B-object).
        pair: PairKey,
        /// The queried instant.
        t: Time,
    },
    /// Reads the worker's full answer at `t`.
    ResultAt {
        /// The queried instant.
        t: Time,
    },
    /// Reads the worker's accumulated traversal counters.
    Counters,
    /// Liveness probe; echoed back in [`Response::Pong`].
    Ping {
        /// Echo payload.
        nonce: u64,
    },
    /// Asks the worker process to exit after acknowledging.
    Shutdown,
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

    /// Serializes the request (protocol header included).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        put_header(&mut w);
        match self {
            Self::Hello => w.put_u8(REQ_HELLO),
            Self::Init {
                seq,
                engine,
                t_m,
                buckets_per_tm,
                set_a,
                set_b,
                start,
            } => {
                w.put_u8(REQ_INIT);
                w.put_u64(*seq);
                w.put_u8(engine.code());
                w.put_f64(*t_m);
                w.put_u32(*buckets_per_tm);
                put_objects(&mut w, set_a);
                put_objects(&mut w, set_b);
                w.put_f64(*start);
            }
            Self::Track { seq } => {
                w.put_u8(REQ_TRACK);
                w.put_u64(*seq);
            }
            Self::Start { seq, now } => {
                w.put_u8(REQ_START);
                w.put_u64(*seq);
                w.put_f64(*now);
            }
            Self::Step {
                seq,
                now,
                ops,
                ack_through,
            } => {
                w.put_u8(REQ_STEP);
                w.put_u64(*seq);
                w.put_f64(*now);
                w.put_u64(*ack_through);
                w.put_u32(ops.len() as u32);
                for op in ops {
                    put_op(&mut w, op);
                }
            }
            Self::Immediate { seq, now, op } => {
                w.put_u8(REQ_IMMEDIATE);
                w.put_u64(*seq);
                w.put_f64(*now);
                put_op(&mut w, op);
            }
            Self::PairStatusAt { pair, t } => {
                w.put_u8(REQ_PAIR_STATUS);
                w.put_u64(pair.0 .0);
                w.put_u64(pair.1 .0);
                w.put_f64(*t);
            }
            Self::ResultAt { t } => {
                w.put_u8(REQ_RESULT_AT);
                w.put_f64(*t);
            }
            Self::Counters => w.put_u8(REQ_COUNTERS),
            Self::Ping { nonce } => {
                w.put_u8(REQ_PING);
                w.put_u64(*nonce);
            }
            Self::Shutdown => w.put_u8(REQ_SHUTDOWN),
        }
        w.into_bytes()
    }

    /// Deserializes a request payload.
    ///
    /// # Errors
    /// Typed [`WireError`]s: bad magic / foreign version before any
    /// field is read, `Corrupt` on truncation, unknown tags, or trailing
    /// bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let body = check_header(payload)?;
        let mut r = ByteReader::new(body);
        let req = match r.get_u8()? {
            REQ_HELLO => Self::Hello,
            REQ_INIT => {
                let seq = r.get_u64()?;
                let engine = EngineKind::from_code(r.get_u8()?)?;
                let t_m = r.get_f64()?;
                let buckets_per_tm = r.get_u32()?;
                let set_a = get_objects(&mut r)?;
                let set_b = get_objects(&mut r)?;
                let start = r.get_f64()?;
                Self::Init {
                    seq,
                    engine,
                    t_m,
                    buckets_per_tm,
                    set_a,
                    set_b,
                    start,
                }
            }
            REQ_TRACK => Self::Track { seq: r.get_u64()? },
            REQ_START => Self::Start {
                seq: r.get_u64()?,
                now: r.get_f64()?,
            },
            REQ_STEP => {
                let seq = r.get_u64()?;
                let now = r.get_f64()?;
                let ack_through = r.get_u64()?;
                let n = r.get_u32()? as usize;
                let mut ops = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    ops.push(get_op(&mut r)?);
                }
                Self::Step {
                    seq,
                    now,
                    ops,
                    ack_through,
                }
            }
            REQ_IMMEDIATE => Self::Immediate {
                seq: r.get_u64()?,
                now: r.get_f64()?,
                op: get_op(&mut r)?,
            },
            REQ_PAIR_STATUS => Self::PairStatusAt {
                pair: (ObjectId(r.get_u64()?), ObjectId(r.get_u64()?)),
                t: r.get_f64()?,
            },
            REQ_RESULT_AT => Self::ResultAt { t: r.get_f64()? },
            REQ_COUNTERS => Self::Counters,
            REQ_PING => Self::Ping {
                nonce: r.get_u64()?,
            },
            REQ_SHUTDOWN => Self::Shutdown,
            other => {
                return Err(WireError::Corrupt(format!(
                    "unknown request tag {other:#04x}"
                )))
            }
        };
        if r.remaining() != 0 {
            return Err(WireError::Corrupt(format!(
                "{} trailing bytes after request",
                r.remaining()
            )));
        }
        Ok(req)
    }
}

/// A worker→coordinator message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake answer: the worker's durable progress.
    HelloAck {
        /// Highest sequence number the worker has applied (0 = fresh).
        last_applied: u64,
    },
    /// A mutating request (other than a step) was applied.
    Ack {
        /// The applied request's sequence number.
        seq: u64,
    },
    /// A tick was applied; carries the drained result changes.
    StepAck {
        /// The step's sequence number.
        seq: u64,
        /// The engine's drained result changes (sorted), or `None` if
        /// the engine does not track changes.
        changes: Option<Vec<PairKey>>,
    },
    /// A pair's activity.
    Status(PairStatus),
    /// A full answer snapshot (sorted).
    Pairs(Vec<PairKey>),
    /// Accumulated traversal counters.
    CountersAck(JoinCounters),
    /// Liveness echo.
    Pong {
        /// The pinged nonce.
        nonce: u64,
    },
    /// Shutdown acknowledged; the worker exits after sending this.
    Bye,
    /// The worker reached its engine but the operation failed (the
    /// rendered engine error). Deterministic — resending will fail the
    /// same way — so the coordinator must not retry.
    Fail {
        /// The rendered error.
        message: String,
    },
}

impl Response {
    /// The response kind's name, for state-machine error reporting.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::HelloAck { .. } => "HelloAck",
            Self::Ack { .. } => "Ack",
            Self::StepAck { .. } => "StepAck",
            Self::Status(_) => "Status",
            Self::Pairs(_) => "Pairs",
            Self::CountersAck(_) => "CountersAck",
            Self::Pong { .. } => "Pong",
            Self::Bye => "Bye",
            Self::Fail { .. } => "Fail",
        }
    }

    /// Serializes the response (protocol header included).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        put_header(&mut w);
        match self {
            Self::HelloAck { last_applied } => {
                w.put_u8(RESP_HELLO_ACK);
                w.put_u64(*last_applied);
            }
            Self::Ack { seq } => {
                w.put_u8(RESP_ACK);
                w.put_u64(*seq);
            }
            Self::StepAck { seq, changes } => {
                w.put_u8(RESP_STEP_ACK);
                w.put_u64(*seq);
                match changes {
                    None => w.put_u8(0),
                    Some(pairs) => {
                        w.put_u8(1);
                        put_pairs(&mut w, pairs);
                    }
                }
            }
            Self::Status(status) => {
                w.put_u8(RESP_STATUS);
                match status.active {
                    None => w.put_u8(0),
                    Some(iv) => {
                        w.put_u8(1);
                        w.put_f64(iv.start);
                        w.put_f64(iv.end);
                    }
                }
                match status.next_start {
                    None => w.put_u8(0),
                    Some(t) => {
                        w.put_u8(1);
                        w.put_f64(t);
                    }
                }
            }
            Self::Pairs(pairs) => {
                w.put_u8(RESP_PAIRS);
                put_pairs(&mut w, pairs);
            }
            Self::CountersAck(c) => {
                w.put_u8(RESP_COUNTERS);
                w.put_u64(c.node_pairs);
                w.put_u64(c.entry_comparisons);
                w.put_u64(c.ic_pruned);
                w.put_u64(c.pairs_emitted);
            }
            Self::Pong { nonce } => {
                w.put_u8(RESP_PONG);
                w.put_u64(*nonce);
            }
            Self::Bye => w.put_u8(RESP_BYE),
            Self::Fail { message } => {
                w.put_u8(RESP_FAIL);
                let bytes = message.as_bytes();
                w.put_u32(bytes.len() as u32);
                for b in bytes {
                    w.put_u8(*b);
                }
            }
        }
        w.into_bytes()
    }

    /// Deserializes a response payload.
    ///
    /// # Errors
    /// Typed [`WireError`]s, as for [`Request::decode`].
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let body = check_header(payload)?;
        let mut r = ByteReader::new(body);
        let resp = match r.get_u8()? {
            RESP_HELLO_ACK => Self::HelloAck {
                last_applied: r.get_u64()?,
            },
            RESP_ACK => Self::Ack { seq: r.get_u64()? },
            RESP_STEP_ACK => {
                let seq = r.get_u64()?;
                let changes = match r.get_u8()? {
                    0 => None,
                    1 => Some(get_pairs(&mut r)?),
                    other => {
                        return Err(WireError::Corrupt(format!("invalid option flag {other}")))
                    }
                };
                Self::StepAck { seq, changes }
            }
            RESP_STATUS => {
                let active = match r.get_u8()? {
                    0 => None,
                    1 => {
                        let start = r.get_f64()?;
                        let end = r.get_f64()?;
                        Some(TimeInterval { start, end })
                    }
                    other => {
                        return Err(WireError::Corrupt(format!("invalid option flag {other}")))
                    }
                };
                let next_start = match r.get_u8()? {
                    0 => None,
                    1 => Some(r.get_f64()?),
                    other => {
                        return Err(WireError::Corrupt(format!("invalid option flag {other}")))
                    }
                };
                Self::Status(PairStatus { active, next_start })
            }
            RESP_PAIRS => Self::Pairs(get_pairs(&mut r)?),
            RESP_COUNTERS => Self::CountersAck(JoinCounters {
                node_pairs: r.get_u64()?,
                entry_comparisons: r.get_u64()?,
                ic_pruned: r.get_u64()?,
                pairs_emitted: r.get_u64()?,
            }),
            RESP_PONG => Self::Pong {
                nonce: r.get_u64()?,
            },
            RESP_BYE => Self::Bye,
            RESP_FAIL => {
                let n = r.get_u32()? as usize;
                let mut bytes = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    bytes.push(r.get_u8()?);
                }
                Self::Fail {
                    message: String::from_utf8_lossy(&bytes).into_owned(),
                }
            }
            other => {
                return Err(WireError::Corrupt(format!(
                    "unknown response tag {other:#04x}"
                )))
            }
        };
        if r.remaining() != 0 {
            return Err(WireError::Corrupt(format!(
                "{} trailing bytes after response",
                r.remaining()
            )));
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cij_geom::MovingRect;
    use cij_stream::{PROTOCOL_MAGIC, PROTOCOL_VERSION};
    use cij_workload::{ObjectUpdate, SetTag};

    fn mrect(seed: f64) -> MovingRect {
        MovingRect {
            lo: [seed, seed + 1.0],
            hi: [seed + 2.0, seed + 3.0],
            vlo: [-seed, 0.5],
            vhi: [seed, 0.75],
            t_ref: seed,
        }
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Hello,
            Request::Init {
                seq: 1,
                engine: EngineKind::Mtb,
                t_m: 20.0,
                buckets_per_tm: 4,
                set_a: vec![MovingObject {
                    id: ObjectId(1),
                    mbr: mrect(1.0),
                }],
                set_b: vec![],
                start: 0.0,
            },
            Request::Track { seq: 2 },
            Request::Start { seq: 3, now: 0.0 },
            Request::Step {
                seq: 4,
                now: 1.0,
                ops: vec![
                    ShardOp::Apply(ObjectUpdate {
                        id: ObjectId(7),
                        set: SetTag::B,
                        old_mbr: mrect(2.0),
                        last_update: 0.5,
                        new_mbr: mrect(3.0),
                    }),
                    ShardOp::Insert {
                        set: SetTag::A,
                        id: ObjectId(8),
                        mbr: mrect(4.0),
                    },
                    ShardOp::Remove {
                        set: SetTag::B,
                        id: ObjectId(9),
                        old_mbr: mrect(5.0),
                        last_update: 0.25,
                    },
                ],
                ack_through: 3,
            },
            Request::Step {
                seq: 5,
                now: 2.0,
                ops: vec![],
                ack_through: 4,
            },
            Request::Immediate {
                seq: 6,
                now: 2.0,
                op: ShardOp::Remove {
                    set: SetTag::A,
                    id: ObjectId(1),
                    old_mbr: mrect(1.0),
                    last_update: 0.0,
                },
            },
            Request::PairStatusAt {
                pair: (ObjectId(1), ObjectId(7)),
                t: 2.5,
            },
            Request::ResultAt { t: 3.0 },
            Request::Counters,
            Request::Ping { nonce: 42 },
            Request::Shutdown,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::HelloAck { last_applied: 17 },
            Response::Ack { seq: 3 },
            Response::StepAck {
                seq: 4,
                changes: Some(vec![(ObjectId(1), ObjectId(7)), (ObjectId(8), ObjectId(9))]),
            },
            Response::StepAck {
                seq: 5,
                changes: None,
            },
            Response::Status(PairStatus {
                active: Some(TimeInterval {
                    start: 1.0,
                    end: f64::INFINITY,
                }),
                next_start: Some(9.0),
            }),
            Response::Status(PairStatus::default()),
            Response::Pairs(vec![(ObjectId(1), ObjectId(7))]),
            Response::CountersAck(JoinCounters {
                node_pairs: 1,
                entry_comparisons: 2,
                ic_pruned: 3,
                pairs_emitted: 4,
            }),
            Response::Pong { nonce: 42 },
            Response::Bye,
            Response::Fail {
                message: "object not found: 9".into(),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let bytes = req.encode();
            assert_eq!(bytes[0], PROTOCOL_MAGIC);
            assert_eq!(bytes[1], PROTOCOL_VERSION);
            assert_eq!(Request::decode(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            let bytes = resp.encode();
            assert_eq!(bytes[0], PROTOCOL_MAGIC);
            assert_eq!(bytes[1], PROTOCOL_VERSION);
            assert_eq!(Response::decode(&bytes).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn seq_is_defined_exactly_for_mutating_requests() {
        let seqs: Vec<Option<u64>> = sample_requests().iter().map(Request::seq).collect();
        assert_eq!(
            seqs,
            vec![
                None,
                Some(1),
                Some(2),
                Some(3),
                Some(4),
                Some(5),
                Some(6),
                None,
                None,
                None,
                None,
                None
            ]
        );
    }

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
