//! The continuously-maintained join answer.
//!
//! Each pair maps to one time interval: the interval during which the
//! two objects are predicted to intersect, as the bounded join run that
//! found the pair computed it. The paper assumes the result always fits
//! in main memory (§II-A); maintenance removes *all* of an object's pairs
//! when it updates and re-adds what the fresh join run finds, so a pair
//! is never added while it is held, and the buffer is only ever queried
//! at the present or future (`active_at(t)` for `t ≥` the last
//! maintenance time).
//!
//! Time moves through the buffer as a **sweep line**
//! ([`prune_before`](ResultBuffer::prune_before)). Every interval's end,
//! and every start that still lies ahead of the line, is filed in an
//! endpoint calendar when the interval is added, so advancing the line
//! visits the endpoints it crosses and nothing else: an end crossed drops
//! that pair, a start crossed marks the pair in the changelog. That is
//! the plan of *Cache-Efficient Sweeping-Based Interval Joins*
//! (PAPERS.md) — "what expired / what started in (t₁, t₂]" read off an
//! endpoint-ordered index — applied to a result that is rewritten under
//! the sweep: calendar entries are never updated in place, they are
//! checked against the pair's current interval when they come due.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::BTreeMap;

use cij_geom::{Time, TimeInterval};
use cij_tpr::{IdMap, IdSet, ObjectId};

/// Ordered pair key: `a` from set A, `b` from set B.
pub type PairKey = (ObjectId, ObjectId);

/// Interval endpoints waiting for the sweep line, in buckets one time
/// unit wide: filing is an append, sweeping reads the buckets the line
/// has reached in order. Entries are not removed when their interval is:
/// whoever drains them checks them against the pair's current interval.
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

/// The live join result: pair → its predicted intersection interval.
///
/// ```
/// use cij_core::ResultBuffer;
/// use cij_geom::TimeInterval;
/// use cij_tpr::ObjectId;
///
/// let (a, b) = (ObjectId(1), ObjectId(101));
/// let mut buf = ResultBuffer::new();
/// buf.add(a, b, TimeInterval::new_unchecked(5.0, 12.0));
/// assert_eq!(buf.active_at(7.0), [(a, b)]);
/// assert!(buf.active_at(13.0).is_empty());
///
/// // Object 1 updates at t = 7: all its predictions are dropped and the
/// // follow-up join re-adds what still holds.
/// buf.remove_object(a);
/// assert_eq!(buf.interval(a, b), None);
/// ```
///
/// The maps are keyed by ids the engine already indexes and hashed with
/// the process-seeded [`IdHasher`](cij_tpr::IdHasher); every list that
/// leaves the buffer is sorted, so nothing observes their order.
#[derive(Debug)]
pub struct ResultBuffer {
    pairs: IdMap<PairKey, TimeInterval>,
    /// Per object, the keys of the pairs it was ever part of — a superset
    /// of its live pairs, so `remove_object` is proportional to the
    /// object's own history rather than the whole result. Keys of pairs
    /// that have since gone stay listed until the object is removed or
    /// the list is about to grow (see [`list_pair`](Self::list_pair)).
    by_object: IdMap<ObjectId, Vec<PairKey>>,
    /// Every interval end, filed when the interval is added.
    ends: Calendar,
    /// Every interval start that lay ahead of the sweep line when the
    /// interval was added.
    starts: Calendar,
    /// The sweep line: the largest `t` passed to
    /// [`prune_before`](Self::prune_before).
    swept_to: Time,
    /// Pairs added, removed or dropped, or whose interval started, since
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
            by_object: IdMap::default(),
            ends: Calendar::default(),
            starts: Calendar::default(),
            swept_to: Time::NEG_INFINITY,
            changed: None,
        }
    }
}

/// Calendar entries tolerated per stored pair (each accounts for at most
/// two live ones) before the dead ones are swept out.
const CALENDAR_SLACK: usize = 4;

impl ResultBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Turns on the changelog consumed by
    /// [`take_changes`](Self::take_changes). Idempotent; off by default.
    pub fn enable_change_tracking(&mut self) {
        if self.changed.is_none() {
            self.changed = Some(IdSet::default());
        }
    }

    /// Drains the changelog: every pair that `add` / `remove_object` /
    /// `prune_before` filed or dropped, or whose interval started as
    /// `prune_before` moved the sweep line across it, since the previous
    /// call — sorted for deterministic downstream processing. `None` when
    /// change tracking was never enabled.
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

    /// The interval held for `(a, b)` — active or still ahead — if any.
    #[must_use]
    pub fn interval(&self, a: ObjectId, b: ObjectId) -> Option<TimeInterval> {
        self.pairs.get(&(a, b)).copied()
    }

    /// Records that `(a, b)` intersect during `interval`. The pair must
    /// not be held: an update drops every pair of its object before the
    /// fresh join run re-adds them, and a tick's probes file each pair
    /// once (the later-endpoint rule).
    pub fn add(&mut self, a: ObjectId, b: ObjectId, interval: TimeInterval) {
        let key = (a, b);
        let held = self.pairs.insert(key, interval);
        debug_assert!(held.is_none(), "{key:?} added while held");
        if let Some(set) = self.changed.as_mut() {
            set.insert(key);
        }
        self.list_pair(a, key);
        self.list_pair(b, key);
        self.ends.file(interval.end, key);
        if interval.start > self.swept_to {
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
            if self.pairs.remove(&key).is_some() {
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
            .filter(|(_, iv)| iv.contains(t))
            .map(|(k, _)| *k)
            .collect();
        out.sort_unstable();
        out
    }

    /// Advances the sweep line to `t` (a `t` at or behind the line is a
    /// no-op) over the endpoints filed between the old line and the new:
    ///
    /// * a pair whose interval **ended before** `t` is history the
    ///   continuous query will never report again and is dropped. An
    ///   interval ending *exactly* at `t` is kept: `active_at(t)` still
    ///   reports it (closed-interval semantics), so dropping it here
    ///   would change the answer at `t` itself;
    /// * a pair whose interval **started at or before** `t`, and after
    ///   the old line, is marked in the changelog (as is every pair
    ///   dropped), so a consumer of [`take_changes`](Self::take_changes)
    ///   learns that the pair became active without any `add` in between.
    ///
    /// Work is proportional to the endpoints crossed, not to the buffer.
    pub fn prune_before(&mut self, t: Time) {
        if t.is_nan() || t <= self.swept_to {
            return;
        }
        self.swept_to = t;
        let Self {
            pairs,
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
                if let MapEntry::Occupied(slot) = pairs.entry(pair) {
                    if slot.get().end < t {
                        slot.remove();
                        mark(pair);
                    }
                }
            },
        );
        starts.sweep(
            t,
            |start| start <= t,
            |start, pair| {
                if pairs.get(&pair).is_some_and(|iv| iv.start == start) {
                    mark(pair);
                }
            },
        );
        if ends.len + starts.len > CALENDAR_SLACK * pairs.len() + 1024 {
            // Entries of pairs dropped before their time came: an update
            // drops its object's pairs, whose ends lie up to `T_M` ahead.
            ends.compact(|end, pair| pairs.get(&pair).is_some_and(|iv| iv.end == end));
            starts.compact(|start, pair| pairs.get(&pair).is_some_and(|iv| iv.start == start));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(buf.interval(A1, B1), Some(iv(5.0, 10.0)));
        assert_eq!(buf.interval(B1, A1), None);
        assert_eq!(buf.active_at(5.0), vec![(A1, B1)]);
        assert_eq!(buf.active_at(7.0), vec![(A1, B1)]);
        assert_eq!(buf.active_at(10.0), vec![(A1, B1)]);
        assert!(buf.active_at(10.1).is_empty());
        assert!(buf.active_at(4.9).is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "added while held")]
    fn a_held_pair_is_not_added_again() {
        let mut buf = ResultBuffer::new();
        buf.add(A1, B1, iv(0.0, 5.0));
        buf.add(A1, B1, iv(4.0, 8.0));
    }

    #[test]
    fn remove_object_clears_both_directions() {
        let mut buf = ResultBuffer::new();
        buf.add(A1, B1, iv(0.0, 10.0));
        buf.add(A1, B2, iv(0.0, 10.0));
        buf.add(ObjectId(2), B1, iv(0.0, 10.0));
        buf.remove_object(B1); // removes (A1,B1) and (2,B1)
        assert_eq!(buf.active_at(5.0), vec![(A1, B2)]);
        // Removing an unknown object is a no-op.
        buf.remove_object(ObjectId(999));
        assert_eq!(buf.active_at(5.0), vec![(A1, B2)]);
        // Reverse index stays consistent: removing A1 clears the rest.
        buf.remove_object(A1);
        assert!(buf.pairs.is_empty());
    }

    #[test]
    fn prune_drops_expired_history() {
        let mut buf = ResultBuffer::new();
        buf.add(A1, B1, iv(0.0, 5.0));
        buf.add(A1, B2, iv(0.0, 100.0));
        buf.prune_before(50.0);
        assert_eq!(buf.interval(A1, B1), None);
        assert_eq!(buf.active_at(60.0), vec![(A1, B2)]);
        // remove_object still works after pruning (index consistency).
        buf.remove_object(B2);
        assert!(buf.pairs.is_empty());
    }

    #[test]
    fn readd_after_remove() {
        let mut buf = ResultBuffer::new();
        buf.add(A1, B1, iv(0.0, 10.0));
        buf.remove_object(A1);
        buf.add(A1, B1, iv(20.0, 30.0));
        assert_eq!(buf.interval(A1, B1), Some(iv(20.0, 30.0)));
        assert!(buf.active_at(5.0).is_empty());
    }

    // ------------------------------------------------------------------
    // Edge-case semantics the delta layer (cij-stream) relies on.
    // ------------------------------------------------------------------

    #[test]
    fn default_is_an_empty_buffer() {
        let buf = ResultBuffer::default();
        assert!(buf.pairs.is_empty());
        assert!(buf.active_at(0.0).is_empty());
    }

    #[test]
    fn empty_buffer_ops_are_noops() {
        let mut buf = ResultBuffer::new();
        buf.prune_before(100.0);
        buf.remove_object(A1);
        assert!(buf.pairs.is_empty());
        assert_eq!(buf.interval(A1, B1), None);
    }

    #[test]
    fn pair_removed_twice_is_a_noop() {
        let mut buf = ResultBuffer::new();
        buf.add(A1, B1, iv(0.0, 10.0));
        buf.remove_object(A1);
        assert!(buf.pairs.is_empty());
        // Second removal of either side of the already-gone pair.
        buf.remove_object(A1);
        buf.remove_object(B1);
        assert!(buf.pairs.is_empty());
        // The buffer stays usable afterwards.
        buf.add(A1, B1, iv(1.0, 2.0));
        assert_eq!(buf.active_at(1.5), vec![(A1, B1)]);
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
        assert!(buf.pairs.is_empty());
        assert!(buf.active_at(5.0).is_empty());
    }

    #[test]
    fn changelog_tracks_all_mutation_paths() {
        let mut buf = ResultBuffer::new();
        // Disabled by default: mutations report no changelog.
        buf.add(A1, B1, iv(0.0, 1.0));
        assert_eq!(buf.take_changes(), None);

        buf.enable_change_tracking();
        assert_eq!(buf.take_changes(), Some(vec![]));
        // An update: the object's pairs go, the fresh run re-adds one.
        buf.remove_object(A1);
        buf.add(A1, B1, iv(2.0, 3.0));
        buf.add(A1, B2, iv(0.0, 9.0));
        assert_eq!(buf.take_changes(), Some(vec![(A1, B1), (A1, B2)]));

        // remove_object dirties every pair it touches, including ones
        // whose intervals are still ahead.
        buf.remove_object(A1);
        assert_eq!(buf.take_changes(), Some(vec![(A1, B1), (A1, B2)]));
        // Removing again: nothing left to dirty.
        buf.remove_object(A1);
        assert_eq!(buf.take_changes(), Some(vec![]));

        // prune dirties the pairs it drops and — the sweep contract,
        // wider than "exactly the pairs it modifies" — the pairs whose
        // interval started in the span the sweep line crossed.
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
        // A pair dropped and re-added before its start came is announced
        // at its new start, not its old one.
        buf.remove_object(A1);
        buf.add(A1, B2, iv(50.0, 52.0));
        buf.remove_object(A1);
        buf.add(A1, B2, iv(55.0, 56.0));
        let _ = buf.take_changes();
        buf.prune_before(51.0);
        assert_eq!(buf.take_changes(), Some(vec![]));
        buf.prune_before(55.0);
        assert_eq!(buf.take_changes(), Some(vec![(A1, B2)]));
    }

    /// The buffer without the calendar: one interval per pair, every
    /// operation a scan. Its changelog follows the sweep contract by
    /// definition — a pair is dirty when a prune drops it or moves the
    /// line across its start.
    #[derive(Default)]
    struct ScanModel {
        pairs: std::collections::BTreeMap<PairKey, TimeInterval>,
        swept_to: Option<Time>,
        changed: std::collections::BTreeSet<PairKey>,
    }

    impl ScanModel {
        fn add(&mut self, a: ObjectId, b: ObjectId, new: TimeInterval) {
            self.changed.insert((a, b));
            assert!(self.pairs.insert((a, b), new).is_none());
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
            self.pairs.retain(|key, iv| {
                let started = iv.start <= t && line.is_none_or(|line| iv.start > line);
                let ended = iv.end < t;
                if started || ended {
                    changed.insert(*key);
                }
                !ended
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
            // Few ids, so pairs are removed and re-added often;
            // quarter-unit times, so endpoints tie with each other and
            // with the sweep line.
            let quarter = |rng: &mut StdRng, lo: i64, hi: i64| rng.gen_range(lo..hi) as f64 / 4.0;
            for step in 0..600 {
                match rng.gen_range(0..10u32) {
                    0..=5 => {
                        let a = ObjectId(rng.gen_range(0..6u64));
                        let b = ObjectId(100 + rng.gen_range(0..6u64));
                        if model.pairs.contains_key(&(a, b)) {
                            // An update of either side drops the pair
                            // before its fresh run may find it again.
                            let oid = if rng.gen_bool(0.5) { a } else { b };
                            buf.remove_object(oid);
                            model.remove_object(oid);
                        }
                        // Starts behind the line, at it and ahead of it.
                        let start = now + quarter(&mut rng, -8, 60);
                        let end = start + quarter(&mut rng, 0, 40);
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
                assert_eq!(buf.pairs.len(), model.pairs.len(), "{tag}");
                for (&(a, b), &held) in &model.pairs {
                    assert_eq!(buf.interval(a, b), Some(held), "{tag}: {a} {b}");
                }
                // Dead calendar entries stay within the slack the sweep
                // allows itself.
                let filed = buf.ends.len + buf.starts.len;
                let stored = model.pairs.len();
                assert!(filed <= 2 * (CALENDAR_SLACK * stored + 1024) + 600, "{tag}");
            }
        }
    }

    #[test]
    fn dead_calendar_entries_do_not_pile_up() {
        // An object that updates every tick drops its pairs, ends and
        // all, long before the sweep line reaches their ends.
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
        assert!(buf.pairs.is_empty());
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
