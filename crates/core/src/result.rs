//! The continuously-maintained join answer.
//!
//! Pairs map to sets of disjoint time intervals during which the two
//! objects (are predicted to) intersect. The paper assumes the result
//! always fits in main memory (§II-A); maintenance removes *all* of an
//! object's pairs when it updates and re-adds what the fresh join run
//! finds, so the buffer is only ever queried at the present or future
//! (`active_at(t)` for `t ≥` the last maintenance time).
//!
//! Time moves through the buffer as a **sweep line**
//! ([`prune_before`](ResultBuffer::prune_before)). Every interval's end,
//! and every start that still lies ahead of the line, is filed in an
//! endpoint calendar when the interval is added, so advancing the line
//! visits the endpoints it crosses and nothing else: an end crossed drops
//! that pair's expired intervals, a start crossed marks the pair in the
//! changelog. That is the plan of *Cache-Efficient Sweeping-Based Interval
//! Joins* (PAPERS.md) — "what expired / what started in (t₁, t₂]" read off
//! an endpoint-ordered index — applied to a result that is rewritten
//! under the sweep: calendar entries are never updated in place, they are
//! checked against the pair's current intervals when they come due.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::BTreeMap;

use cij_geom::{Time, TimeInterval};
use cij_tpr::{IdMap, IdSet, ObjectId};

/// Ordered pair key: `a` from set A, `b` from set B.
pub type PairKey = (ObjectId, ObjectId);

/// Activity of one pair at a queried instant, as needed by the
/// delta-extraction layer (`cij-stream`): the interval currently making
/// the pair active, and the next time it will become active if it is
/// not.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PairStatus {
    /// The stored interval containing the queried instant, if any.
    pub active: Option<TimeInterval>,
    /// Start of the earliest stored interval that begins strictly after
    /// the queried instant.
    pub next_start: Option<Time>,
}

/// One pair's disjoint intervals in time order. Almost every pair has
/// exactly one, which is kept inline.
#[derive(Debug)]
enum Intervals {
    One(TimeInterval),
    Many(Vec<TimeInterval>),
}

impl Intervals {
    fn as_slice(&self) -> &[TimeInterval] {
        match self {
            Self::One(iv) => std::slice::from_ref(iv),
            Self::Many(list) => list,
        }
    }

    /// Adds `iv`, absorbing every stored interval it overlaps or touches;
    /// returns the interval that now covers it.
    fn insert(&mut self, iv: TimeInterval) -> TimeInterval {
        match self {
            Self::One(only) if only.end < iv.start => *self = Self::Many(vec![*only, iv]),
            Self::One(only) if only.start > iv.end => *self = Self::Many(vec![iv, *only]),
            Self::One(only) => {
                *only = hull(iv, *only, *only);
                return *only;
            }
            Self::Many(list) => {
                // list[..i] ends before `iv`, list[j..] starts after it.
                let i = list.partition_point(|x| x.end < iv.start);
                let j = i + list[i..].partition_point(|x| x.start <= iv.end);
                if i < j {
                    list[i] = hull(iv, list[i], list[j - 1]);
                    list.drain(i + 1..j);
                    return list[i];
                }
                list.insert(i, iv);
            }
        }
        iv
    }

    /// Drops the intervals that ended before `t`; returns how many.
    fn drop_ended_before(&mut self, t: Time) -> usize {
        match self {
            Self::One(only) if only.end < t => {
                *self = Self::Many(Vec::new());
                1
            }
            Self::One(_) => 0,
            Self::Many(list) => {
                let before = list.len();
                list.retain(|iv| iv.end >= t);
                before - list.len()
            }
        }
    }
}

/// `iv` merged with the run of stored intervals from `first` to `last`.
fn hull(iv: TimeInterval, first: TimeInterval, last: TimeInterval) -> TimeInterval {
    TimeInterval::new_unchecked(iv.start.min(first.start), iv.end.max(last.end))
}

/// Interval endpoints waiting for the sweep line, in buckets one time
/// unit wide: filing is an append, sweeping reads the buckets the line
/// has reached in order. Entries are not removed when their interval is:
/// whoever drains them checks them against the pair's current intervals.
#[derive(Debug, Default)]
struct Calendar {
    buckets: BTreeMap<i64, Vec<(Time, PairKey)>>,
    len: usize,
}

impl Calendar {
    fn bucket_of(time: Time) -> i64 {
        time.floor() as i64
    }

    fn file(&mut self, time: Time, pair: PairKey) {
        self.buckets
            .entry(Self::bucket_of(time))
            .or_default()
            .push((time, pair));
        self.len += 1;
    }

    /// Removes every entry `crossed` by a sweep line now at `now` and
    /// hands it to `visit`. Only the buckets up to `now`'s are read.
    fn sweep(
        &mut self,
        now: Time,
        crossed: impl Fn(Time) -> bool,
        mut visit: impl FnMut(Time, PairKey),
    ) {
        let ahead = match Self::bucket_of(now).checked_add(1) {
            Some(next) => self.buckets.split_off(&next),
            None => BTreeMap::new(),
        };
        let reached = std::mem::replace(&mut self.buckets, ahead);
        for (bucket, mut entries) in reached {
            let filed = entries.len();
            entries.retain(|&(time, pair)| {
                let due = crossed(time);
                if due {
                    visit(time, pair);
                }
                !due
            });
            self.len -= filed - entries.len();
            if !entries.is_empty() {
                // The line stands inside this bucket.
                self.buckets.insert(bucket, entries);
            }
        }
    }

    /// Drops repeated entries and those `live` disowns.
    fn compact(&mut self, mut live: impl FnMut(Time, PairKey) -> bool) {
        self.buckets.retain(|_, entries| {
            entries.sort_unstable_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
            entries.dedup();
            entries.retain(|&(time, pair)| live(time, pair));
            !entries.is_empty()
        });
        self.len = self.buckets.values().map(Vec::len).sum();
    }
}

/// The live join result: pair → disjoint, sorted intersection intervals.
///
/// ```
/// use cij_core::ResultBuffer;
/// use cij_geom::TimeInterval;
/// use cij_tpr::ObjectId;
///
/// let (a, b) = (ObjectId(1), ObjectId(101));
/// let mut buf = ResultBuffer::new();
/// buf.add(a, b, TimeInterval::new_unchecked(5.0, 12.0));
/// assert!(buf.is_active(a, b, 7.0));
/// assert!(!buf.is_active(a, b, 13.0));
///
/// // Object 1 updates at t = 7: all its predictions are dropped and the
/// // follow-up join re-adds what still holds.
/// buf.remove_object(a);
/// assert!(buf.active_at(7.0).is_empty());
/// ```
///
/// The maps are keyed by ids the engine already indexes and hashed with
/// the process-seeded [`IdHasher`](cij_tpr::IdHasher); every list that
/// leaves the buffer is sorted, so nothing observes their order.
#[derive(Debug)]
pub struct ResultBuffer {
    pairs: IdMap<PairKey, Intervals>,
    /// Number of intervals stored across all pairs.
    intervals: usize,
    /// Per object, the keys of the pairs it was ever part of — a superset
    /// of its live pairs, so `remove_object` is proportional to the
    /// object's own history rather than the whole result. Keys of pairs
    /// that have since gone stay listed until the object is removed or
    /// the list is about to grow (see [`list_pair`](Self::list_pair)).
    by_object: IdMap<ObjectId, Vec<PairKey>>,
    /// Every finite interval end, filed when the interval is added.
    ends: Calendar,
    /// Every interval start that lay ahead of the sweep line when the
    /// interval was added.
    starts: Calendar,
    /// The sweep line: the largest `t` passed to
    /// [`prune_before`](Self::prune_before).
    swept_to: Time,
    /// Pairs whose interval set changed, or whose interval started, since
    /// the last [`take_changes`](Self::take_changes) — `None` until
    /// [`enable_change_tracking`](Self::enable_change_tracking) turns
    /// the changelog on, so engines that never stream deltas pay
    /// nothing.
    changed: Option<IdSet<PairKey>>,
}

impl Default for ResultBuffer {
    fn default() -> Self {
        Self {
            pairs: IdMap::default(),
            intervals: 0,
            by_object: IdMap::default(),
            ends: Calendar::default(),
            starts: Calendar::default(),
            swept_to: Time::NEG_INFINITY,
            changed: None,
        }
    }
}

/// Calendar entries tolerated per stored interval (each interval accounts
/// for at most two live ones) before the dead ones are swept out.
const CALENDAR_SLACK: usize = 4;

impl ResultBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct pairs with at least one interval.
    #[must_use]
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the buffer holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Turns on the changelog consumed by
    /// [`take_changes`](Self::take_changes). Idempotent; off by default.
    pub fn enable_change_tracking(&mut self) {
        if self.changed.is_none() {
            self.changed = Some(IdSet::default());
        }
    }

    /// Drains the changelog: every pair whose interval set was touched
    /// by `add` / `remove_object` / `prune_before`, or one of whose
    /// intervals started as `prune_before` moved the sweep line across
    /// it, since the previous call — sorted for deterministic downstream
    /// processing. `None` when change tracking was never enabled.
    ///
    /// A consumer that rechecks each listed pair at instant `t`, after
    /// `prune_before(t)`, therefore sees every pair whose activity at `t`
    /// differs from its activity at the previous such instant.
    pub fn take_changes(&mut self) -> Option<Vec<PairKey>> {
        let set = self.changed.as_mut()?;
        let mut out: Vec<PairKey> = set.drain().collect();
        out.sort_unstable();
        Some(out)
    }

    /// The activity of `(a, b)` at instant `t`: the interval containing
    /// `t` if the pair is active, and otherwise/additionally the start
    /// of its next future interval.
    #[must_use]
    pub fn status_at(&self, a: ObjectId, b: ObjectId, t: Time) -> PairStatus {
        let ivs = self.intervals_of(a, b);
        // Interval lists are sorted and disjoint.
        let active = ivs.iter().copied().find(|iv| iv.contains(t));
        let next_start = ivs.iter().map(|iv| iv.start).find(|&s| s > t);
        PairStatus { active, next_start }
    }

    fn intervals_of(&self, a: ObjectId, b: ObjectId) -> &[TimeInterval] {
        self.pairs.get(&(a, b)).map_or(&[], Intervals::as_slice)
    }

    /// Records that `(a, b)` intersect during `interval`, merging with
    /// any overlapping or touching intervals already recorded.
    pub fn add(&mut self, a: ObjectId, b: ObjectId, interval: TimeInterval) {
        let key = (a, b);
        if let Some(set) = self.changed.as_mut() {
            set.insert(key);
        }
        let merged = match self.pairs.entry(key) {
            MapEntry::Occupied(slot) => {
                let ivs = slot.into_mut();
                let before = ivs.as_slice().len();
                let merged = ivs.insert(interval);
                self.intervals = self.intervals + ivs.as_slice().len() - before;
                merged
            }
            MapEntry::Vacant(slot) => {
                slot.insert(Intervals::One(interval));
                self.intervals += 1;
                self.list_pair(a, key);
                self.list_pair(b, key);
                interval
            }
        };
        // An endpoint the merged interval took from a stored one is on
        // the calendar already.
        if merged.end == interval.end && !interval.is_unbounded() {
            self.ends.file(interval.end, key);
        }
        if merged.start == interval.start && interval.start > self.swept_to {
            self.starts.file(interval.start, key);
        }
    }

    /// Appends `key` to `oid`'s pair list. A full list first sheds the
    /// keys of pairs that are gone (and repeats), and doubles if that
    /// frees less than half of it — so lists stay within twice the
    /// object's live pairs at amortised constant cost, even for an object
    /// that never updates (a §V window).
    fn list_pair(&mut self, oid: ObjectId, key: PairKey) {
        let list = self.by_object.entry(oid).or_default();
        if list.len() == list.capacity() && list.len() >= 8 {
            list.sort_unstable();
            list.dedup();
            list.retain(|k| self.pairs.contains_key(k));
            if list.len() > list.capacity() / 2 {
                list.reserve(list.len());
            }
        }
        list.push(key);
    }

    /// Drops every pair involving `oid` (both sides). Called when `oid`
    /// updates: all predictions involving it are invalidated from that
    /// moment on, and the follow-up join re-adds what still holds.
    pub fn remove_object(&mut self, oid: ObjectId) {
        let Some(keys) = self.by_object.get_mut(&oid) else {
            return;
        };
        // The partners' lists keep their copy of each key; it is dead
        // weight there until they are removed or compacted in turn.
        for key in keys.drain(..) {
            if let Some(ivs) = self.pairs.remove(&key) {
                self.intervals -= ivs.as_slice().len();
                if let Some(set) = self.changed.as_mut() {
                    set.insert(key);
                }
            }
        }
    }

    /// The pairs intersecting at instant `t`, sorted. This is the answer
    /// the continuous query reports at timestamp `t`.
    #[must_use]
    pub fn active_at(&self, t: Time) -> Vec<PairKey> {
        let mut out: Vec<PairKey> = self
            .pairs
            .iter()
            .filter(|(_, ivs)| ivs.as_slice().iter().any(|iv| iv.contains(t)))
            .map(|(k, _)| *k)
            .collect();
        out.sort_unstable();
        out
    }

    /// Whether `(a, b)` is reported as intersecting at `t`.
    #[must_use]
    pub fn is_active(&self, a: ObjectId, b: ObjectId, t: Time) -> bool {
        self.intervals_of(a, b).iter().any(|iv| iv.contains(t))
    }

    /// Advances the sweep line to `t` (a `t` at or behind the line is a
    /// no-op) over the endpoints filed between the old line and the new:
    ///
    /// * an interval that **ended before** `t` is history the continuous
    ///   query will never report again and is dropped. An interval ending
    ///   *exactly* at `t` is kept: `active_at(t)` still reports it
    ///   (closed-interval semantics), so dropping it here would change
    ///   the answer at `t` itself;
    /// * a pair with an interval that **started at or before** `t`, and
    ///   after the old line, is marked in the changelog (as is every pair
    ///   that lost an interval), so a consumer of
    ///   [`take_changes`](Self::take_changes) learns that the pair became
    ///   active without any `add` in between.
    ///
    /// Work is proportional to the endpoints crossed, not to the buffer.
    pub fn prune_before(&mut self, t: Time) {
        if t.is_nan() || t <= self.swept_to {
            return;
        }
        self.swept_to = t;
        let Self {
            pairs,
            intervals,
            ends,
            starts,
            changed,
            ..
        } = self;
        let mut mark = |pair: PairKey| {
            if let Some(set) = changed.as_mut() {
                set.insert(pair);
            }
        };
        ends.sweep(
            t,
            |end| end < t,
            |_, pair| {
                let MapEntry::Occupied(mut slot) = pairs.entry(pair) else {
                    return;
                };
                let dropped = slot.get_mut().drop_ended_before(t);
                if dropped > 0 {
                    *intervals -= dropped;
                    mark(pair);
                    if slot.get().as_slice().is_empty() {
                        slot.remove();
                    }
                }
            },
        );
        starts.sweep(
            t,
            |start| start <= t,
            |start, pair| {
                let started = pairs
                    .get(&pair)
                    .is_some_and(|ivs| ivs.as_slice().iter().any(|iv| iv.start == start));
                if started {
                    mark(pair);
                }
            },
        );
        if ends.len + starts.len > CALENDAR_SLACK * *intervals + 1024 {
            // Mostly entries of intervals that were removed, merged away
            // or re-added before their time came (far-future ends under
            // the unbounded NaiveJoin window, above all).
            let stored = |pair: &PairKey| pairs.get(pair).map_or(&[][..], Intervals::as_slice);
            ends.compact(|end, pair| stored(&pair).iter().any(|iv| iv.end == end));
            starts.compact(|start, pair| stored(&pair).iter().any(|iv| iv.start == start));
        }
    }

    /// Total number of stored intervals (diagnostics).
    #[must_use]
    pub fn interval_count(&self) -> usize {
        self.intervals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cij_geom::INFINITE_TIME;

    fn iv(s: f64, e: f64) -> TimeInterval {
        TimeInterval::new_unchecked(s, e)
    }
    const A1: ObjectId = ObjectId(1);
    const B1: ObjectId = ObjectId(101);
    const B2: ObjectId = ObjectId(102);

    #[test]
    fn add_and_query() {
        let mut buf = ResultBuffer::new();
        buf.add(A1, B1, iv(5.0, 10.0));
        assert!(buf.is_active(A1, B1, 5.0));
        assert!(buf.is_active(A1, B1, 10.0));
        assert!(!buf.is_active(A1, B1, 10.1));
        assert_eq!(buf.active_at(7.0), vec![(A1, B1)]);
        assert!(buf.active_at(4.9).is_empty());
    }

    #[test]
    fn overlapping_intervals_merge() {
        let mut buf = ResultBuffer::new();
        buf.add(A1, B1, iv(0.0, 5.0));
        buf.add(A1, B1, iv(4.0, 8.0));
        buf.add(A1, B1, iv(8.0, 9.0)); // touching merges too
        assert_eq!(buf.interval_count(), 1);
        assert!(buf.is_active(A1, B1, 8.5));
    }

    #[test]
    fn disjoint_intervals_coexist() {
        let mut buf = ResultBuffer::new();
        buf.add(A1, B1, iv(10.0, 12.0));
        buf.add(A1, B1, iv(0.0, 2.0));
        buf.add(A1, B1, iv(5.0, 6.0));
        assert_eq!(buf.interval_count(), 3);
        assert!(buf.is_active(A1, B1, 1.0));
        assert!(!buf.is_active(A1, B1, 3.0));
        assert!(buf.is_active(A1, B1, 5.5));
        assert!(!buf.is_active(A1, B1, 8.0));
        assert!(buf.is_active(A1, B1, 11.0));
    }

    #[test]
    fn bridging_interval_collapses_neighbors() {
        let mut buf = ResultBuffer::new();
        buf.add(A1, B1, iv(0.0, 2.0));
        buf.add(A1, B1, iv(4.0, 6.0));
        buf.add(A1, B1, iv(1.0, 5.0)); // bridges both
        assert_eq!(buf.interval_count(), 1);
        assert!(buf.is_active(A1, B1, 3.0));
    }

    #[test]
    fn unbounded_intervals() {
        let mut buf = ResultBuffer::new();
        buf.add(A1, B1, TimeInterval::from(3.0));
        assert!(buf.is_active(A1, B1, 1e15));
        buf.add(A1, B1, iv(0.0, 1.0));
        assert_eq!(buf.interval_count(), 2);
        buf.add(A1, B1, iv(1.0, 5.0)); // merges with both
        assert_eq!(buf.interval_count(), 1);
        assert_eq!(
            buf.status_at(A1, B1, 0.0).active,
            Some(iv(0.0, INFINITE_TIME))
        );
    }

    #[test]
    fn remove_object_clears_both_directions() {
        let mut buf = ResultBuffer::new();
        buf.add(A1, B1, iv(0.0, 10.0));
        buf.add(A1, B2, iv(0.0, 10.0));
        buf.add(ObjectId(2), B1, iv(0.0, 10.0));
        buf.remove_object(B1); // removes (A1,B1) and (2,B1)
        assert_eq!(buf.pair_count(), 1);
        assert!(buf.is_active(A1, B2, 5.0));
        assert!(!buf.is_active(A1, B1, 5.0));
        // Removing an unknown object is a no-op.
        buf.remove_object(ObjectId(999));
        assert_eq!(buf.pair_count(), 1);
        // Reverse index stays consistent: removing A1 clears the rest.
        buf.remove_object(A1);
        assert!(buf.is_empty());
    }

    #[test]
    fn prune_drops_expired_history() {
        let mut buf = ResultBuffer::new();
        buf.add(A1, B1, iv(0.0, 5.0));
        buf.add(A1, B2, iv(0.0, 100.0));
        buf.prune_before(50.0);
        assert_eq!(buf.pair_count(), 1);
        assert!(buf.is_active(A1, B2, 60.0));
        // remove_object still works after pruning (index consistency).
        buf.remove_object(B2);
        assert!(buf.is_empty());
    }

    #[test]
    fn readd_after_remove() {
        let mut buf = ResultBuffer::new();
        buf.add(A1, B1, iv(0.0, 10.0));
        buf.remove_object(A1);
        buf.add(A1, B1, iv(20.0, 30.0));
        assert!(!buf.is_active(A1, B1, 5.0));
        assert!(buf.is_active(A1, B1, 25.0));
    }

    // ------------------------------------------------------------------
    // Edge-case semantics the delta layer (cij-stream) relies on.
    // ------------------------------------------------------------------

    #[test]
    fn default_is_an_empty_buffer() {
        let buf = ResultBuffer::default();
        assert!(buf.is_empty());
        assert_eq!(buf.pair_count(), 0);
        assert_eq!(buf.interval_count(), 0);
        assert!(buf.active_at(0.0).is_empty());
    }

    #[test]
    fn empty_buffer_ops_are_noops() {
        let mut buf = ResultBuffer::new();
        buf.prune_before(100.0);
        buf.remove_object(A1);
        assert!(buf.is_empty());
        assert_eq!(buf.status_at(A1, B1, 0.0), PairStatus::default());
    }

    #[test]
    fn pair_removed_twice_is_a_noop() {
        let mut buf = ResultBuffer::new();
        buf.add(A1, B1, iv(0.0, 10.0));
        buf.remove_object(A1);
        assert!(buf.is_empty());
        // Second removal of either side of the already-gone pair.
        buf.remove_object(A1);
        buf.remove_object(B1);
        assert!(buf.is_empty());
        // The buffer stays usable afterwards.
        buf.add(A1, B1, iv(1.0, 2.0));
        assert!(buf.is_active(A1, B1, 1.5));
    }

    #[test]
    fn prune_at_exact_interval_end_keeps_the_interval() {
        let mut buf = ResultBuffer::new();
        buf.add(A1, B1, iv(0.0, 5.0));
        // `active_at(5.0)` reports the pair, so pruning *at* 5.0 must
        // not change the answer at 5.0.
        buf.prune_before(5.0);
        assert_eq!(buf.active_at(5.0), vec![(A1, B1)]);
        // Strictly past the end it is history and goes away.
        buf.prune_before(5.0 + 1e-9);
        assert!(buf.is_empty());
        assert!(buf.active_at(5.0).is_empty());
    }

    #[test]
    fn status_reports_active_interval_and_next_start() {
        let mut buf = ResultBuffer::new();
        buf.add(A1, B1, iv(2.0, 4.0));
        buf.add(A1, B1, iv(8.0, 9.0));
        assert_eq!(
            buf.status_at(A1, B1, 3.0),
            PairStatus {
                active: Some(iv(2.0, 4.0)),
                next_start: Some(8.0),
            }
        );
        assert_eq!(
            buf.status_at(A1, B1, 5.0),
            PairStatus {
                active: None,
                next_start: Some(8.0),
            }
        );
        assert_eq!(
            buf.status_at(A1, B1, 8.5),
            PairStatus {
                active: Some(iv(8.0, 9.0)),
                next_start: None,
            }
        );
        assert_eq!(buf.status_at(A1, B1, 10.0), PairStatus::default());
        // Boundary instants are inclusive on both ends.
        assert_eq!(buf.status_at(A1, B1, 4.0).active, Some(iv(2.0, 4.0)));
        assert_eq!(buf.status_at(A1, B1, 4.0).next_start, Some(8.0));
    }

    #[test]
    fn changelog_tracks_all_mutation_paths() {
        let mut buf = ResultBuffer::new();
        // Disabled by default: mutations report no changelog.
        buf.add(A1, B1, iv(0.0, 1.0));
        assert_eq!(buf.take_changes(), None);

        buf.enable_change_tracking();
        assert_eq!(buf.take_changes(), Some(vec![]));
        buf.add(A1, B1, iv(2.0, 3.0));
        buf.add(A1, B2, iv(0.0, 9.0));
        assert_eq!(buf.take_changes(), Some(vec![(A1, B1), (A1, B2)]));

        // remove_object dirties every pair it touches, including ones
        // whose intervals are already in the past.
        buf.remove_object(A1);
        assert_eq!(buf.take_changes(), Some(vec![(A1, B1), (A1, B2)]));
        // Removing again: nothing left to dirty.
        buf.remove_object(A1);
        assert_eq!(buf.take_changes(), Some(vec![]));

        // prune dirties the pairs it modifies and — the sweep contract,
        // wider than "exactly the pairs it modifies" — the pairs one of
        // whose intervals started in the span the sweep line crossed.
        let a2 = ObjectId(2);
        buf.add(A1, B1, iv(0.0, 2.0));
        buf.add(A1, B2, iv(0.0, 50.0));
        buf.add(a2, B1, iv(20.0, 30.0));
        let _ = buf.take_changes();
        buf.prune_before(10.0);
        assert_eq!(buf.take_changes(), Some(vec![(A1, B1), (A1, B2)]));
        // A prune that crosses nothing dirties nothing.
        buf.prune_before(10.0);
        buf.prune_before(19.5);
        assert_eq!(buf.take_changes(), Some(vec![]));
        // Crossing an activation dirties the pair with no `add` in
        // between; so does crossing its end.
        buf.prune_before(20.0);
        assert_eq!(buf.take_changes(), Some(vec![(a2, B1)]));
        buf.prune_before(30.0);
        assert_eq!(buf.take_changes(), Some(vec![]));
        buf.prune_before(30.5);
        assert_eq!(buf.take_changes(), Some(vec![(a2, B1)]));
        // A start already behind the line is the `add`'s own mark only.
        buf.add(a2, B1, iv(5.0, 60.0));
        assert_eq!(buf.take_changes(), Some(vec![(a2, B1)]));
        buf.prune_before(45.0);
        assert_eq!(buf.take_changes(), Some(vec![]));
    }

    /// The buffer as it was before the calendar: one sorted list per
    /// pair, every operation a scan. Its changelog follows the sweep
    /// contract by definition — a pair is dirty when a prune drops one of
    /// its intervals or moves the line across one of their starts.
    #[derive(Default)]
    struct ScanModel {
        pairs: std::collections::BTreeMap<PairKey, Vec<TimeInterval>>,
        swept_to: Option<Time>,
        changed: std::collections::BTreeSet<PairKey>,
    }

    impl ScanModel {
        fn add(&mut self, a: ObjectId, b: ObjectId, new: TimeInterval) {
            self.changed.insert((a, b));
            let list = self.pairs.entry((a, b)).or_default();
            let mut merged = new;
            list.retain(|iv| {
                let apart = iv.end < merged.start || iv.start > merged.end;
                if !apart {
                    merged = hull(merged, *iv, *iv);
                }
                apart
            });
            // Absorbing an interval can bring its neighbour within reach
            // only if they touched already, which the list never allows.
            list.push(merged);
            list.sort_by(|x, y| x.start.total_cmp(&y.start));
        }

        fn remove_object(&mut self, oid: ObjectId) {
            let changed = &mut self.changed;
            self.pairs.retain(|key, _| {
                let hit = key.0 == oid || key.1 == oid;
                if hit {
                    changed.insert(*key);
                }
                !hit
            });
        }

        fn prune_before(&mut self, t: Time) {
            if self.swept_to.is_some_and(|line| t <= line) {
                return;
            }
            let line = self.swept_to.replace(t);
            let changed = &mut self.changed;
            self.pairs.retain(|key, list| {
                let started =
                    |iv: &TimeInterval| iv.start <= t && line.is_none_or(|line| iv.start > line);
                let stored = list.len();
                if list.iter().any(started) {
                    changed.insert(*key);
                }
                list.retain(|iv| iv.end >= t);
                if list.len() != stored {
                    changed.insert(*key);
                }
                !list.is_empty()
            });
        }
    }

    #[test]
    fn calendar_sweep_matches_a_full_scan() {
        use rand::{rngs::StdRng, Rng, SeedableRng};

        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut buf = ResultBuffer::new();
            buf.enable_change_tracking();
            let mut model = ScanModel::default();
            let mut now = 0.0;
            // Few ids, so pairs collect several intervals, merge, and are
            // removed and re-added; quarter-unit times, so endpoints tie
            // with each other and with the sweep line.
            let quarter = |rng: &mut StdRng, lo: i64, hi: i64| rng.gen_range(lo..hi) as f64 / 4.0;
            for step in 0..600 {
                match rng.gen_range(0..10u32) {
                    0..=5 => {
                        let a = ObjectId(rng.gen_range(0..6u64));
                        let b = ObjectId(100 + rng.gen_range(0..6u64));
                        let start = now + quarter(&mut rng, -8, 60);
                        let end = match rng.gen_range(0..8u32) {
                            0 => INFINITE_TIME,
                            _ => start + quarter(&mut rng, 0, 40),
                        };
                        let new = TimeInterval::new_unchecked(start, end);
                        buf.add(a, b, new);
                        model.add(a, b, new);
                    }
                    6 | 7 => {
                        let side = 100 * rng.gen_range(0..2u64);
                        let oid = ObjectId(side + rng.gen_range(0..6u64));
                        buf.remove_object(oid);
                        model.remove_object(oid);
                    }
                    _ => {
                        // Mostly the next quarter, sometimes several
                        // units on, now and then not forward at all.
                        now += match rng.gen_range(0..6u32) {
                            0 => 0.0,
                            1 => quarter(&mut rng, 4, 40),
                            _ => 0.25,
                        };
                        let t = if rng.gen_bool(0.1) { now - 1.0 } else { now };
                        buf.prune_before(t);
                        model.prune_before(t);
                        let dirty: Vec<PairKey> =
                            std::mem::take(&mut model.changed).into_iter().collect();
                        assert_eq!(buf.take_changes(), Some(dirty), "seed {seed} step {step}");
                    }
                }
                let tag = format!("seed {seed} step {step}");
                assert_eq!(buf.pair_count(), model.pairs.len(), "{tag}");
                let stored: usize = model.pairs.values().map(Vec::len).sum();
                assert_eq!(buf.interval_count(), stored, "{tag}");
                for (&(a, b), list) in &model.pairs {
                    assert_eq!(buf.intervals_of(a, b), &list[..], "{tag}: {a} {b}");
                }
                // Dead calendar entries stay within the slack the sweep
                // allows itself.
                let filed = buf.ends.len + buf.starts.len;
                assert!(filed <= 2 * (CALENDAR_SLACK * stored + 1024) + 600, "{tag}");
            }
        }
    }

    #[test]
    fn dead_calendar_entries_do_not_pile_up() {
        // NaiveJoin's shape: every update re-adds its pairs with ends far
        // beyond any tick the sweep will reach, then drops them again.
        let mut buf = ResultBuffer::new();
        buf.enable_change_tracking();
        for tick in 0..5_000u32 {
            let now = f64::from(tick);
            buf.remove_object(A1);
            buf.add(A1, B1, iv(now, 1e9));
            buf.add(A1, B2, iv(now + 2.5, 2e9));
            buf.prune_before(now);
            assert!(buf.ends.len + buf.starts.len <= 2 * 1024 + 16, "t={now}");
        }
        // The entries that matter survived the clean-ups: (A1, B2)'s
        // start is still announced when the line reaches it.
        let _ = buf.take_changes();
        buf.prune_before(5_001.0);
        assert_eq!(buf.take_changes(), Some(vec![]));
        buf.prune_before(5_001.5);
        assert_eq!(buf.take_changes(), Some(vec![(A1, B2)]));
    }

    #[test]
    fn pair_lists_of_an_object_that_never_updates_stay_bounded() {
        // A §V window: partners come and go, the window is never removed.
        let mut buf = ResultBuffer::new();
        let window = ObjectId(1_000);
        for round in 0..200u64 {
            for k in 0..10 {
                buf.add(ObjectId(k), window, iv(round as f64, round as f64 + 0.5));
            }
            for k in 0..10 {
                buf.remove_object(ObjectId(k));
            }
        }
        assert!(buf.is_empty());
        assert!(
            buf.by_object[&window].len() <= 32,
            "{}",
            buf.by_object[&window].len()
        );
        // The stale keys are inert: removing the window finds nothing.
        buf.enable_change_tracking();
        buf.remove_object(window);
        assert_eq!(buf.take_changes(), Some(vec![]));
    }
}
