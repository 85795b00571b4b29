//! Wire format of the service's write-ahead log records and the shared
//! codec the distributed protocol (`cij-dist`) builds on.
//!
//! Each WAL payload (the framing — length prefix and CRC — lives in
//! [`cij_storage::Wal`]) is one tagged record encoded with the
//! byte-slice codec from `cij_storage::codec`. Everything an engine
//! needs to be rebuilt deterministically is journaled: the genesis
//! object sets, every applied update batch, object retirements, and the
//! subscription control operations.
//!
//! Every payload opens with a two-byte protocol header —
//! [`PROTOCOL_MAGIC`] then [`PROTOCOL_VERSION`] — so a peer (or a
//! recovery pass) reading bytes produced by a different build fails
//! fast with a typed [`WireError`] instead of misparsing garbage. The
//! cross-process transports in `cij-dist` stamp the same header on
//! their frames via [`put_header`]/[`check_header`].

use cij_geom::{MovingRect, Rect, Time};
use cij_storage::codec::{ByteReader, ByteWriter};
use cij_storage::{StorageError, StorageResult};
use cij_tpr::ObjectId;
use cij_workload::{MovingObject, ObjectUpdate, SetTag};

use crate::subscribe::{SubscriberId, SubscriptionFilter};

/// First byte of every wire payload. Anything else is not ours.
pub const PROTOCOL_MAGIC: u8 = 0xC1;

/// Current protocol version, bumped on any incompatible layout change.
/// Peers (and recovery) refuse payloads from other versions outright —
/// there is no cross-version negotiation.
pub const PROTOCOL_VERSION: u8 = 1;

const TAG_GENESIS: u8 = 0x01;
const TAG_BATCH: u8 = 0x02;
const TAG_SUBSCRIBE: u8 = 0x03;
const TAG_UNSUBSCRIBE: u8 = 0x04;
const TAG_RETIRE: u8 = 0x05;

const FILTER_ALL: u8 = 0;
const FILTER_OBJECT: u8 = 1;
const FILTER_WINDOW: u8 = 2;

/// Why a wire payload was rejected. The magic/version variants are the
/// fail-fast path cross-process peers rely on: they fire on the first
/// two bytes, before any field of the payload is interpreted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload does not start with [`PROTOCOL_MAGIC`] — it was not
    /// produced by this protocol at all.
    BadMagic {
        /// The byte found where the magic was expected (`None` when the
        /// payload was empty).
        found: Option<u8>,
    },
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// The version this build supports ([`PROTOCOL_VERSION`]).
        supported: u8,
        /// The version stamped on the payload.
        found: u8,
    },
    /// The header checked out but the body failed validation (truncated
    /// fields, unknown tags, trailing bytes).
    Corrupt(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic { found: Some(b) } => {
                write!(
                    f,
                    "bad protocol magic {b:#04x} (expected {PROTOCOL_MAGIC:#04x})"
                )
            }
            Self::BadMagic { found: None } => write!(f, "empty payload (no protocol header)"),
            Self::VersionMismatch { supported, found } => write!(
                f,
                "protocol version mismatch: peer speaks v{found}, this build supports v{supported}"
            ),
            Self::Corrupt(msg) => write!(f, "corrupt wire payload: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<StorageError> for WireError {
    fn from(e: StorageError) -> Self {
        Self::Corrupt(e.to_string())
    }
}

/// Stamps the two-byte protocol header on a payload under construction.
pub fn put_header(w: &mut ByteWriter) {
    w.put_u8(PROTOCOL_MAGIC);
    w.put_u8(PROTOCOL_VERSION);
}

/// Validates a payload's protocol header and returns the body after it.
///
/// # Errors
/// [`WireError::BadMagic`] when the first byte is not
/// [`PROTOCOL_MAGIC`]; [`WireError::VersionMismatch`] when the second
/// byte is not [`PROTOCOL_VERSION`].
pub fn check_header(payload: &[u8]) -> Result<&[u8], WireError> {
    match payload {
        [] => Err(WireError::BadMagic { found: None }),
        [magic, ..] if *magic != PROTOCOL_MAGIC => Err(WireError::BadMagic {
            found: Some(*magic),
        }),
        [_] => Err(WireError::Corrupt("header truncated after magic".into())),
        [_, version, ..] if *version != PROTOCOL_VERSION => Err(WireError::VersionMismatch {
            supported: PROTOCOL_VERSION,
            found: *version,
        }),
        [_, _, body @ ..] => Ok(body),
    }
}

/// One journaled service operation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalRecord {
    /// The initial object sets and start time — written once, first.
    Genesis {
        /// Service start time.
        start: Time,
        /// Initial A-side objects.
        set_a: Vec<MovingObject>,
        /// Initial B-side objects.
        set_b: Vec<MovingObject>,
    },
    /// One coalesced update batch, journaled before it is applied.
    Batch {
        /// The batch's tick.
        at: Time,
        /// The updates, in application order.
        updates: Vec<ObjectUpdate>,
    },
    /// A subscriber registration.
    Subscribe {
        /// The id handed to the subscriber.
        id: SubscriberId,
        /// Its filter.
        filter: SubscriptionFilter,
    },
    /// A subscriber removal.
    Unsubscribe {
        /// The removed id.
        id: SubscriberId,
    },
    /// An object retirement: the object leaves the engine, its tracks
    /// and its ingest translation entry are pruned.
    Retire {
        /// The service clock at retirement.
        at: Time,
        /// Which side the object belonged to.
        set: SetTag,
        /// The retired object.
        id: ObjectId,
    },
}

/// Appends a moving rectangle's fields.
pub fn put_mrect(w: &mut ByteWriter, r: &MovingRect) {
    for d in 0..cij_geom::DIMS {
        w.put_f64(r.lo[d]);
        w.put_f64(r.hi[d]);
        w.put_f64(r.vlo[d]);
        w.put_f64(r.vhi[d]);
    }
    w.put_f64(r.t_ref);
}

/// Reads a moving rectangle written by [`put_mrect`].
///
/// # Errors
/// [`StorageError::Corrupt`] on truncation.
pub fn get_mrect(r: &mut ByteReader<'_>) -> StorageResult<MovingRect> {
    let mut m = MovingRect {
        lo: [0.0; cij_geom::DIMS],
        hi: [0.0; cij_geom::DIMS],
        vlo: [0.0; cij_geom::DIMS],
        vhi: [0.0; cij_geom::DIMS],
        t_ref: 0.0,
    };
    for d in 0..cij_geom::DIMS {
        m.lo[d] = r.get_f64()?;
        m.hi[d] = r.get_f64()?;
        m.vlo[d] = r.get_f64()?;
        m.vhi[d] = r.get_f64()?;
    }
    m.t_ref = r.get_f64()?;
    Ok(m)
}

/// Appends a length-prefixed object list.
pub fn put_objects(w: &mut ByteWriter, objects: &[MovingObject]) {
    w.put_u32(objects.len() as u32);
    for o in objects {
        w.put_u64(o.id.0);
        put_mrect(w, &o.mbr);
    }
}

/// Reads an object list written by [`put_objects`].
///
/// # Errors
/// [`StorageError::Corrupt`] on truncation.
pub fn get_objects(r: &mut ByteReader<'_>) -> StorageResult<Vec<MovingObject>> {
    let n = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let id = ObjectId(r.get_u64()?);
        let mbr = get_mrect(r)?;
        out.push(MovingObject { id, mbr });
    }
    Ok(out)
}

/// Encodes a set tag as one byte.
#[must_use]
pub fn set_to_byte(set: SetTag) -> u8 {
    match set {
        SetTag::A => 1,
        SetTag::B => 2,
    }
}

/// Decodes a set tag byte written by [`set_to_byte`].
///
/// # Errors
/// [`StorageError::Corrupt`] on any other byte.
pub fn set_from_byte(b: u8) -> StorageResult<SetTag> {
    match b {
        1 => Ok(SetTag::A),
        2 => Ok(SetTag::B),
        other => Err(StorageError::Corrupt(format!("invalid set tag {other}"))),
    }
}

/// Appends one trajectory update.
pub fn put_update(w: &mut ByteWriter, u: &ObjectUpdate) {
    w.put_u64(u.id.0);
    w.put_u8(set_to_byte(u.set));
    put_mrect(w, &u.old_mbr);
    w.put_f64(u.last_update);
    put_mrect(w, &u.new_mbr);
}

/// Reads one trajectory update written by [`put_update`].
///
/// # Errors
/// [`StorageError::Corrupt`] on truncation or an invalid set tag.
pub fn get_update(r: &mut ByteReader<'_>) -> StorageResult<ObjectUpdate> {
    let id = ObjectId(r.get_u64()?);
    let set = set_from_byte(r.get_u8()?)?;
    let old_mbr = get_mrect(r)?;
    let last_update = r.get_f64()?;
    let new_mbr = get_mrect(r)?;
    Ok(ObjectUpdate {
        id,
        set,
        old_mbr,
        last_update,
        new_mbr,
    })
}

/// Tag and body of a [`WalRecord::Batch`].
fn put_batch(w: &mut ByteWriter, at: Time, updates: &[ObjectUpdate]) {
    w.put_u8(TAG_BATCH);
    w.put_f64(at);
    w.put_u32(updates.len() as u32);
    for u in updates {
        put_update(w, u);
    }
}

impl WalRecord {
    /// The payload of a [`Batch`](Self::Batch) record, from a borrowed
    /// batch: the per-tick journal write needs no owned record.
    pub(crate) fn encode_batch(at: Time, updates: &[ObjectUpdate]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        put_header(&mut w);
        put_batch(&mut w, at, updates);
        w.into_bytes()
    }

    /// Serializes the record into a WAL payload (protocol header
    /// included).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        put_header(&mut w);
        match self {
            Self::Genesis {
                start,
                set_a,
                set_b,
            } => {
                w.put_u8(TAG_GENESIS);
                w.put_f64(*start);
                put_objects(&mut w, set_a);
                put_objects(&mut w, set_b);
            }
            Self::Batch { at, updates } => put_batch(&mut w, *at, updates),
            Self::Subscribe { id, filter } => {
                w.put_u8(TAG_SUBSCRIBE);
                w.put_u64(id.0);
                match filter {
                    SubscriptionFilter::All => w.put_u8(FILTER_ALL),
                    SubscriptionFilter::Object(oid) => {
                        w.put_u8(FILTER_OBJECT);
                        w.put_u64(oid.0);
                    }
                    SubscriptionFilter::Window(rect) => {
                        w.put_u8(FILTER_WINDOW);
                        for d in 0..cij_geom::DIMS {
                            w.put_f64(rect.lo[d]);
                            w.put_f64(rect.hi[d]);
                        }
                    }
                }
            }
            Self::Unsubscribe { id } => {
                w.put_u8(TAG_UNSUBSCRIBE);
                w.put_u64(id.0);
            }
            Self::Retire { at, set, id } => {
                w.put_u8(TAG_RETIRE);
                w.put_f64(*at);
                w.put_u8(set_to_byte(*set));
                w.put_u64(id.0);
            }
        }
        w.into_bytes()
    }

    /// Deserializes one WAL payload. The protocol header is validated
    /// first (typed magic/version errors); trailing bytes are rejected —
    /// a record is exactly one frame.
    pub(crate) fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let body = check_header(payload)?;
        let mut r = ByteReader::new(body);
        let record = match r.get_u8()? {
            TAG_GENESIS => {
                let start = r.get_f64()?;
                let set_a = get_objects(&mut r)?;
                let set_b = get_objects(&mut r)?;
                Self::Genesis {
                    start,
                    set_a,
                    set_b,
                }
            }
            TAG_BATCH => {
                let at = r.get_f64()?;
                let n = r.get_u32()? as usize;
                let mut updates = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    updates.push(get_update(&mut r)?);
                }
                Self::Batch { at, updates }
            }
            TAG_SUBSCRIBE => {
                let id = SubscriberId(r.get_u64()?);
                let filter = match r.get_u8()? {
                    FILTER_ALL => SubscriptionFilter::All,
                    FILTER_OBJECT => SubscriptionFilter::Object(ObjectId(r.get_u64()?)),
                    FILTER_WINDOW => {
                        let mut lo = [0.0; cij_geom::DIMS];
                        let mut hi = [0.0; cij_geom::DIMS];
                        for d in 0..cij_geom::DIMS {
                            lo[d] = r.get_f64()?;
                            hi[d] = r.get_f64()?;
                        }
                        // Not `Rect::new`: it only debug-asserts its order.
                        let filter = SubscriptionFilter::Window(Rect { lo, hi });
                        filter.check().map_err(WireError::Corrupt)?;
                        filter
                    }
                    other => {
                        return Err(WireError::Corrupt(format!(
                            "invalid subscription filter tag {other}"
                        )))
                    }
                };
                Self::Subscribe { id, filter }
            }
            TAG_UNSUBSCRIBE => Self::Unsubscribe {
                id: SubscriberId(r.get_u64()?),
            },
            TAG_RETIRE => {
                let at = r.get_f64()?;
                let set = set_from_byte(r.get_u8()?)?;
                let id = ObjectId(r.get_u64()?);
                Self::Retire { at, set, id }
            }
            other => {
                return Err(WireError::Corrupt(format!(
                    "unknown WAL record tag {other:#04x}"
                )))
            }
        };
        if r.remaining() != 0 {
            return Err(WireError::Corrupt(format!(
                "{} trailing bytes after WAL record",
                r.remaining()
            )));
        }
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mrect(seed: f64) -> MovingRect {
        MovingRect {
            lo: [seed, seed + 1.0],
            hi: [seed + 2.0, seed + 3.0],
            vlo: [-seed, 0.5],
            vhi: [-seed, 0.75],
            t_ref: seed * 10.0,
        }
    }

    #[test]
    fn all_record_kinds_round_trip() {
        let records = vec![
            WalRecord::Genesis {
                start: 3.5,
                set_a: vec![MovingObject {
                    id: ObjectId(1),
                    mbr: mrect(1.0),
                }],
                set_b: vec![
                    MovingObject {
                        id: ObjectId(2),
                        mbr: mrect(2.0),
                    },
                    MovingObject {
                        id: ObjectId(3),
                        mbr: mrect(3.0),
                    },
                ],
            },
            WalRecord::Batch {
                at: 7.0,
                updates: vec![ObjectUpdate {
                    id: ObjectId(9),
                    set: SetTag::B,
                    old_mbr: mrect(4.0),
                    last_update: 2.0,
                    new_mbr: mrect(5.0),
                }],
            },
            WalRecord::Batch {
                at: 8.0,
                updates: Vec::new(),
            },
            WalRecord::Subscribe {
                id: SubscriberId(11),
                filter: SubscriptionFilter::All,
            },
            WalRecord::Subscribe {
                id: SubscriberId(12),
                filter: SubscriptionFilter::Object(ObjectId(77)),
            },
            WalRecord::Subscribe {
                id: SubscriberId(13),
                filter: SubscriptionFilter::Window(Rect::new([0.0, 1.0], [10.0, 11.0])),
            },
            WalRecord::Unsubscribe {
                id: SubscriberId(12),
            },
            WalRecord::Retire {
                at: 9.5,
                set: SetTag::A,
                id: ObjectId(4),
            },
        ];
        for record in records {
            let bytes = record.encode();
            assert_eq!(bytes[0], PROTOCOL_MAGIC, "{record:?}");
            assert_eq!(bytes[1], PROTOCOL_VERSION, "{record:?}");
            assert_eq!(WalRecord::decode(&bytes).unwrap(), record, "{record:?}");
        }
    }

    #[test]
    fn garbage_is_rejected_not_misparsed() {
        assert_eq!(
            WalRecord::decode(&[]),
            Err(WireError::BadMagic { found: None })
        );
        assert_eq!(
            WalRecord::decode(&[0xFF]),
            Err(WireError::BadMagic { found: Some(0xFF) })
        );
        // Truncated batch: claims one update, carries none.
        let mut w = ByteWriter::new();
        put_header(&mut w);
        w.put_u8(0x02);
        w.put_f64(1.0);
        w.put_u32(1);
        assert!(matches!(
            WalRecord::decode(&w.into_bytes()),
            Err(WireError::Corrupt(_))
        ));
        // Trailing junk after a valid record.
        let mut bytes = WalRecord::Unsubscribe {
            id: SubscriberId(1),
        }
        .encode();
        bytes.push(0);
        assert!(matches!(
            WalRecord::decode(&bytes),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn hostile_subscription_window_is_corrupt_not_a_panic() {
        // The journal is bytes from disk: a window that is inverted, NaN
        // or unbounded must come back as a typed error (`Rect::new` would
        // debug-panic on the first two, the window index sorts the rest).
        let hostile = [
            ([5.0, 0.0], [1.0, 9.0]),
            ([0.0, 0.0], [9.0, f64::NAN]),
            ([f64::NAN, 0.0], [9.0, 9.0]),
            ([f64::NEG_INFINITY, 0.0], [9.0, 9.0]),
        ];
        for (lo, hi) in hostile {
            let record = WalRecord::Subscribe {
                id: SubscriberId(3),
                filter: SubscriptionFilter::Window(Rect { lo, hi }),
            };
            match WalRecord::decode(&record.encode()) {
                Err(WireError::Corrupt(msg)) => assert!(msg.contains("window"), "{msg}"),
                other => panic!("lo={lo:?} hi={hi:?} decoded to {other:?}"),
            }
        }
        // A degenerate (zero-extent) window is legal.
        let point = WalRecord::Subscribe {
            id: SubscriberId(3),
            filter: SubscriptionFilter::Window(Rect::point([2.0, 2.0])),
        };
        assert_eq!(WalRecord::decode(&point.encode()).unwrap(), point);
    }

    #[test]
    fn foreign_magic_and_future_version_are_typed_errors() {
        let good = WalRecord::Unsubscribe {
            id: SubscriberId(1),
        }
        .encode();

        // Same bytes under a different magic: BadMagic, before any
        // payload field is read.
        let mut foreign = good.clone();
        foreign[0] = 0x42;
        assert_eq!(
            WalRecord::decode(&foreign),
            Err(WireError::BadMagic { found: Some(0x42) })
        );

        // A future version of our own protocol: VersionMismatch naming
        // both sides.
        let mut future = good.clone();
        future[1] = PROTOCOL_VERSION + 1;
        assert_eq!(
            WalRecord::decode(&future),
            Err(WireError::VersionMismatch {
                supported: PROTOCOL_VERSION,
                found: PROTOCOL_VERSION + 1
            })
        );

        // check_header returns the body unchanged on a good payload.
        assert_eq!(check_header(&good).unwrap(), &good[2..]);
    }

    #[test]
    fn update_codec_round_trips() {
        let u = ObjectUpdate {
            id: ObjectId(42),
            set: SetTag::B,
            old_mbr: mrect(1.5),
            last_update: 3.0,
            new_mbr: mrect(2.5),
        };
        let mut w = ByteWriter::new();
        put_update(&mut w, &u);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(get_update(&mut r).unwrap(), u);
        assert_eq!(r.remaining(), 0);
    }
}
