//! The value and message levels of the wire stack (DESIGN.md §8 has the
//! whole stack in one table): everything that crosses a crash — the
//! service's write-ahead log — or a process boundary — the `cij-dist`
//! protocol — is laid out here, once.
//!
//! A value's layout is its [`Wire`] impl. A message family (the journal's
//! `WalRecord` here, `Request`/`Response` in `cij-dist`) is a
//! [`wire_enum!`](crate::wire_enum) *declaration* — variant, tag byte,
//! fields in wire order — from which the enum, its `encode`/`decode` and
//! its `kind` are derived; a new verb is one more variant. Every payload
//! opens with [`PROTOCOL_MAGIC`] and [`PROTOCOL_VERSION`], so a peer (or a
//! recovery pass) reading bytes from a different build fails fast with a
//! typed [`WireError`] instead of misparsing garbage.

use std::borrow::Cow;

use cij_core::{EngineOp, PairStatus};
use cij_geom::{in_range, MovingRect, Rect, Time, TimeInterval, DIMS};
use cij_join::JoinCounters;
pub use cij_storage::codec::{ByteReader, ByteWriter};
use cij_storage::StorageError;
use cij_tpr::ObjectId;
use cij_workload::{MovingObject, ObjectUpdate, SetTag};

use crate::subscribe::{SubscriberId, SubscriptionFilter};

/// First byte of every wire payload. Anything else is not ours.
pub const PROTOCOL_MAGIC: u8 = 0xC1;

/// Current protocol version, bumped on any incompatible layout change.
/// Peers (and recovery) refuse payloads from other versions outright —
/// there is no cross-version negotiation.
pub const PROTOCOL_VERSION: u8 = 1;

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

/// Wraps `message` in the protocol header: the encode half of the one
/// envelope every message family goes through.
#[must_use]
pub fn encode_message<T: Wire + ?Sized>(message: &T) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_header(&mut w);
    message.put(&mut w);
    w.into_bytes()
}

/// Opens the envelope: validates the header, decodes one `T` and insists
/// that nothing follows it — a message is exactly one payload. `what`
/// names the family in the error.
///
/// # Errors
/// [`check_header`]'s, then whatever `T::get` rejects, then
/// [`WireError::Corrupt`] on trailing bytes.
pub fn decode_message<T: Wire>(what: &str, payload: &[u8]) -> Result<T, WireError> {
    let mut r = ByteReader::new(check_header(payload)?);
    let message = T::get(&mut r)?;
    match r.remaining() {
        0 => Ok(message),
        n => Err(WireError::Corrupt(format!(
            "{n} trailing bytes after {what}"
        ))),
    }
}

/// A value with one wire layout: how it is written, how it is read back,
/// and the fewest bytes it can occupy.
pub trait Wire {
    /// Fewest bytes any value of this type encodes to (at least 1). The
    /// sequence decoder divides the bytes left by it to refuse a hostile
    /// element count before allocating for it.
    const MIN_LEN: usize;

    /// Appends the value.
    fn put(&self, w: &mut ByteWriter);

    /// Reads one value back.
    ///
    /// # Errors
    /// [`WireError::Corrupt`] on truncation or an invalid field.
    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError>
    where
        Self: Sized;
}

macro_rules! wire_scalar {
    ($($t:ty: $put:ident, $get:ident;)*) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put(&self, w: &mut ByteWriter) {
                w.$put(*self);
            }
            #[inline]
            fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
                Ok(r.$get()?)
            }
        }
    )*};
}

wire_scalar! {
    u8: put_u8, get_u8;
    u32: put_u32, get_u32;
    u64: put_u64, get_u64;
    f64: put_f64, get_f64;
}

/// A presence flag (0 / 1), then the value.
impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;
    fn put(&self, w: &mut ByteWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.put(w);
            }
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            other => Err(WireError::Corrupt(format!("invalid option flag {other}"))),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;
    #[inline]
    fn put(&self, w: &mut ByteWriter) {
        self.0.put(w);
        self.1.put(w);
    }
    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// A `u32` element count, then the elements. Write-only: a borrowed
/// slice encodes exactly like the `Vec` it is read back into.
impl<T: Wire> Wire for [T] {
    const MIN_LEN: usize = 4;
    fn put(&self, w: &mut ByteWriter) {
        w.put_u32(u32::try_from(self.len()).expect("a sequence on the wire has a u32 count"));
        for item in self {
            item.put(w);
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 4;
    fn put(&self, w: &mut ByteWriter) {
        self[..].put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let n = r.get_u32()? as usize;
        // The count comes from a peer or a disk: hold it against the
        // bytes that are actually there before reserving anything.
        if n > r.remaining() / T::MIN_LEN {
            return Err(WireError::Corrupt(format!(
                "sequence claims {n} elements, {} bytes remain",
                r.remaining()
            )));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

/// Lets a message own its sequence when decoded and borrow it when
/// encoded (the per-tick journal write clones no batch).
impl<T: Wire + Clone> Wire for Cow<'_, [T]> {
    const MIN_LEN: usize = 4;
    fn put(&self, w: &mut ByteWriter) {
        self[..].put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(Cow::Owned(Vec::get(r)?))
    }
}

/// A `u32` byte count, then UTF-8 (invalid sequences are replaced on the
/// way in, not rejected: the text is a diagnostic).
impl Wire for String {
    const MIN_LEN: usize = 4;
    fn put(&self, w: &mut ByteWriter) {
        w.put_u32(u32::try_from(self.len()).expect("a string on the wire has a u32 length"));
        w.put_bytes(self.as_bytes());
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let n = r.get_u32()? as usize;
        Ok(String::from_utf8_lossy(r.get_bytes(n)?).into_owned())
    }
}

/// Per dimension `lo, hi, vlo, vhi`; then `t_ref`.
impl Wire for MovingRect {
    const MIN_LEN: usize = (4 * DIMS + 1) * 8;
    fn put(&self, w: &mut ByteWriter) {
        for d in 0..DIMS {
            w.put_f64(self.lo[d]);
            w.put_f64(self.hi[d]);
            w.put_f64(self.vlo[d]);
            w.put_f64(self.vhi[d]);
        }
        w.put_f64(self.t_ref);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let mut m = MovingRect::stationary(Rect::point([0.0; DIMS]), 0.0);
        for d in 0..DIMS {
            m.lo[d] = r.get_f64()?;
            m.hi[d] = r.get_f64()?;
            m.vlo[d] = r.get_f64()?;
            m.vhi[d] = r.get_f64()?;
        }
        m.t_ref = r.get_f64()?;
        Ok(m)
    }
}

/// Per dimension `lo, hi`. Not validated here (`Rect::new` only
/// debug-asserts its order): the filter that carries it checks it.
impl Wire for Rect {
    const MIN_LEN: usize = 2 * DIMS * 8;
    fn put(&self, w: &mut ByteWriter) {
        for d in 0..DIMS {
            w.put_f64(self.lo[d]);
            w.put_f64(self.hi[d]);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let mut rect = Rect::point([0.0; DIMS]);
        for d in 0..DIMS {
            rect.lo[d] = r.get_f64()?;
            rect.hi[d] = r.get_f64()?;
        }
        Ok(rect)
    }
}

/// A struct whose layout is its fields in the order given.
macro_rules! wire_struct {
    ($($name:ident { $($f:tt: $ft:ty),* })*) => {$(
        impl Wire for $name {
            const MIN_LEN: usize = 0 $(+ <$ft as Wire>::MIN_LEN)*;
            #[inline]
            fn put(&self, w: &mut ByteWriter) {
                $(self.$f.put(w);)*
            }
            #[inline]
            fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
                Ok(Self { $($f: <$ft as Wire>::get(r)?),* })
            }
        }
    )*};
}

wire_struct! {
    ObjectId { 0: u64 }
    SubscriberId { 0: u64 }
    TimeInterval { start: Time, end: Time }
    MovingObject { id: ObjectId, mbr: MovingRect }
    ObjectUpdate { id: ObjectId, set: SetTag, old_mbr: MovingRect, last_update: Time, new_mbr: MovingRect }
    PairStatus { active: Option<TimeInterval>, next_start: Option<Time> }
    JoinCounters { node_pairs: u64, entry_comparisons: u64, ic_pruned: u64, pairs_emitted: u64 }
}

/// The smallest of `lens`: a tagged enum's [`Wire::MIN_LEN`] is its tag
/// plus its shortest variant.
#[doc(hidden)]
#[must_use]
pub const fn min_of(lens: &[usize]) -> usize {
    let mut min = usize::MAX;
    let mut i = 0;
    while i < lens.len() {
        if lens[i] < min {
            min = lens[i];
        }
        i += 1;
    }
    min
}

/// Declares a tagged enum's wire layout — per variant its tag byte, then
/// its fields in wire order — and derives [`Wire`] from it.
///
/// `impl Wire for Name, "what" { … }` lays out an enum defined elsewhere;
/// an optional `, check path` names a `fn(&Name) -> Result<(), String>`
/// run on every decoded value. `pub enum Name, "what" { … }` (attributes
/// and docs allowed wherever an enum takes them) also *defines* the enum
/// and makes it a message: `encode`/`decode` through the protocol
/// envelope ([`encode_message`]/[`decode_message`](crate::wire::decode_message))
/// and `kind`, the variant's name. A single-field tuple variant names its
/// field: `0x33 => Status(status: PairStatus)`.
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$em:meta])*
        $vis:vis enum $name:ident $(<$lt:lifetime>)?, $what:literal $(, check $check:path)? {
            $(
                $(#[$vm:meta])*
                $tag:literal => $v:ident
                $({ $($(#[$fm:meta])* $f:ident: $ft:ty),* $(,)? })?
                $(($b:ident: $bt:ty))?
            ),* $(,)?
        }
    ) => {
        $(#[$em])*
        $vis enum $name $(<$lt>)? {
            $($(#[$vm])* $v $({ $($(#[$fm])* $f: $ft),* })? $(($bt))?),*
        }

        impl $(<$lt>)? $name $(<$lt>)? {
            /// The variant's name, for diagnostics.
            #[must_use]
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Self::$v { .. } => stringify!($v)),*
                }
            }

            /// Serializes the message: protocol header, variant tag,
            /// fields in declaration order.
            #[must_use]
            pub fn encode(&self) -> Vec<u8> {
                $crate::wire::encode_message(self)
            }

            /// Deserializes one payload.
            ///
            /// # Errors
            /// Typed `WireError`s: bad magic or a foreign version before
            /// any field is read, `Corrupt` on truncation, an unknown
            /// tag, an invalid field or trailing bytes.
            pub fn decode(payload: &[u8]) -> Result<Self, $crate::WireError> {
                $crate::wire::decode_message($what, payload)
            }
        }

        $crate::wire_enum! {
            impl Wire for $name $(<$lt>)?, $what $(, check $check)? {
                $($tag => $v $({ $($f: $ft),* })? $(($b: $bt))?),*
            }
        }
    };
    (
        impl Wire for $name:ident $(<$lt:lifetime>)?, $what:literal $(, check $check:path)? {
            $(
                $tag:literal => $v:ident
                $({ $($f:ident: $ft:ty),* $(,)? })?
                $(($b:ident: $bt:ty))?
            ),* $(,)?
        }
    ) => {
        impl $(<$lt>)? $crate::wire::Wire for $name $(<$lt>)? {
            const MIN_LEN: usize = 1 + $crate::wire::min_of(&[$(
                0 $($(+ <$ft as $crate::wire::Wire>::MIN_LEN)*)?
                    $(+ <$bt as $crate::wire::Wire>::MIN_LEN)?
            ),*]);

            fn put(&self, w: &mut $crate::wire::ByteWriter) {
                match self {
                    $(Self::$v $({ $($f),* })? $(($b))? => {
                        w.put_u8($tag);
                        $($($crate::wire::Wire::put($f, w);)*)?
                        $($crate::wire::Wire::put($b, w);)?
                    })*
                }
            }

            fn get(r: &mut $crate::wire::ByteReader<'_>) -> Result<Self, $crate::WireError> {
                let value = match r.get_u8()? {
                    $($tag => Self::$v
                        $({ $($f: <$ft as $crate::wire::Wire>::get(r)?),* })?
                        $((<$bt as $crate::wire::Wire>::get(r)?))?,)*
                    other => {
                        return Err($crate::WireError::Corrupt(format!(
                            "unknown {} tag {other:#04x}",
                            $what
                        )))
                    }
                };
                $($check(&value).map_err($crate::WireError::Corrupt)?;)?
                Ok(value)
            }
        }
    };
}

wire_enum! {
    impl Wire for SetTag, "set" {
        1 => A,
        2 => B,
    }
}

wire_enum! {
    impl Wire for EngineOp, "op" {
        0 => Apply(update: ObjectUpdate),
        1 => Insert { set: SetTag, id: ObjectId, mbr: MovingRect },
        2 => Remove { set: SetTag, id: ObjectId, old_mbr: MovingRect, last_update: Time },
    }
}

wire_enum! {
    impl Wire for SubscriptionFilter, "subscription filter", check SubscriptionFilter::check {
        0 => All,
        1 => Object(id: ObjectId),
        2 => Window(window: Rect),
    }
}

wire_enum! {
    /// One journaled service operation. Everything an engine needs to be
    /// rebuilt deterministically is journaled: the genesis object sets,
    /// every applied update batch, object retirements, and the
    /// subscription control operations.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) enum WalRecord<'a>, "WAL record" {
        /// The initial object sets and start time — written once, first.
        0x01 => Genesis {
            /// Service start time.
            start: Time,
            /// Initial A-side objects.
            set_a: Vec<MovingObject>,
            /// Initial B-side objects.
            set_b: Vec<MovingObject>,
        },
        /// One coalesced update batch, journaled before it is applied.
        0x02 => Batch {
            /// The batch's tick.
            at: Time,
            /// The updates, in application order.
            updates: Cow<'a, [ObjectUpdate]>,
        },
        /// A subscriber registration.
        0x03 => Subscribe {
            /// The id handed to the subscriber.
            id: SubscriberId,
            /// Its filter.
            filter: SubscriptionFilter,
        },
        /// A subscriber removal.
        0x04 => Unsubscribe {
            /// The removed id.
            id: SubscriberId,
        },
        /// An object retirement: the object leaves the engine, its tracks
        /// and its ingest translation entry are pruned.
        0x05 => Retire {
            /// The service clock at retirement.
            at: Time,
            /// Which side the object belonged to.
            set: SetTag,
            /// The retired object.
            id: ObjectId,
        },
    }
}

impl WalRecord<'_> {
    /// Whether recovery may replay the record: it hands the record's
    /// times and trajectories to an engine, which assumes them
    /// [sound](MovingRect::is_sound_from) and asserts on it.
    pub(crate) fn is_sound(&self) -> bool {
        match self {
            Self::Genesis {
                start,
                set_a,
                set_b,
            } => set_a
                .iter()
                .chain(set_b)
                .all(|o| o.mbr.is_sound_from(*start)),
            Self::Batch { at, updates } => {
                in_range(*at) && updates.iter().all(|u| EngineOp::Apply(*u).is_sound_at(*at))
            }
            Self::Retire { at, .. } => in_range(*at),
            Self::Subscribe { .. } | Self::Unsubscribe { .. } => true,
        }
    }

    /// The payload of a [`Batch`](Self::Batch) record, from a borrowed
    /// batch: the per-tick journal write needs no owned record.
    pub(crate) fn encode_batch(at: Time, updates: &[ObjectUpdate]) -> Vec<u8> {
        WalRecord::Batch {
            at,
            updates: Cow::Borrowed(updates),
        }
        .encode()
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

    /// The records of `all_record_kinds_round_trip`, as the first
    /// `PROTOCOL_VERSION` 1 build encoded them.
    const GOLDEN: [&str; 8] = [
        "\
            c101010000000000000c40010000000100000000000000000000000000f03f000000000000084000\
            0000000000f0bf000000000000f0bf00000000000000400000000000001040000000000000e03f00\
            0000000000e83f000000000000244002000000020000000000000000000000000000400000000000\
            00104000000000000000c000000000000000c0000000000000084000000000000014400000000000\
            00e03f000000000000e83f0000000000003440030000000000000000000000000008400000000000\
            00144000000000000008c000000000000008c0000000000000104000000000000018400000000000\
            00e03f000000000000e83f0000000000003e40",
        "\
            c101020000000000001c400100000009000000000000000200000000000010400000000000001840\
            00000000000010c000000000000010c000000000000014400000000000001c40000000000000e03f\
            000000000000e83f0000000000004440000000000000004000000000000014400000000000001c40\
            00000000000014c000000000000014c000000000000018400000000000002040000000000000e03f\
            000000000000e83f0000000000004940",
        "c10102000000000000204000000000",
        "c101030b0000000000000000",
        "c101030c00000000000000014d00000000000000",
        "\
            c101030d000000000000000200000000000000000000000000002440000000000000f03f00000000\
            00002640",
        "c101040c00000000000000",
        "c101050000000000002340010400000000000000",
    ];

    fn unhex(text: &str) -> Vec<u8> {
        let digits: Vec<u8> = text.bytes().filter(u8::is_ascii_hexdigit).collect();
        digits
            .chunks(2)
            .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
            .collect()
    }

    #[test]
    fn all_record_kinds_round_trip() {
        let records = [
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
                }]
                .into(),
            },
            WalRecord::Batch {
                at: 8.0,
                updates: Vec::new().into(),
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
        assert_eq!(records.len(), GOLDEN.len());
        for (record, golden) in records.iter().zip(GOLDEN) {
            let golden = unhex(golden);
            assert_eq!(golden[..2], [PROTOCOL_MAGIC, PROTOCOL_VERSION]);
            assert_eq!(record.encode(), golden, "{record:?}");
            assert_eq!(&WalRecord::decode(&golden).unwrap(), record);
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
    fn borrowed_batch_encodes_like_the_owned_record() {
        let updates = vec![ObjectUpdate {
            id: ObjectId(42),
            set: SetTag::B,
            old_mbr: mrect(1.5),
            last_update: 3.0,
            new_mbr: mrect(2.5),
        }];
        let bytes = WalRecord::encode_batch(6.0, &updates);
        let owned = WalRecord::Batch {
            at: 6.0,
            updates: updates.into(),
        };
        assert_eq!(bytes, owned.encode());
        assert_eq!(WalRecord::decode(&bytes).unwrap(), owned);
    }
}
