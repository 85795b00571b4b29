//! Subscriptions: per-consumer delta delivery with filters and bounded
//! outboxes.
//!
//! Each subscriber declares a [`SubscriptionFilter`] and owns a bounded
//! outbox. Deliveries beyond the bound evict the oldest queued item
//! under a drop-oldest policy; the next poll then starts with a
//! [`Gap`](crate::OutboxItem::Gap) marker carrying the exact drop count
//! (drop-oldest keeps the lost region contiguous at the queue front, so
//! one counter suffices).
//!
//! Filter semantics are asymmetric on purpose: a `PairAdded` is
//! delivered only when the filter matches at the delivery tick, while a
//! `PairRemoved` is delivered whenever the *subscriber still holds the
//! pair* — otherwise an object drifting out of a window filter would
//! strand pairs in the subscriber's replayed state forever.
//!
//! Delivery is driven by the delta, not by the subscriber list. The
//! standing filters are registered in a match index — the plan of
//! *Distributed processing of continuous range queries over moving
//! objects* (PAPERS.md): index the queries, so an event meets only the
//! queries it can affect — and a `PairAdded` looks up who could want it:
//! the `All` subscribers, the `Object` subscribers of its two ids, and
//! the `Window` subscribers whose rectangle the two objects' positions
//! can touch. A `PairRemoved` goes to the subscribers recorded as holding
//! the pair.

use std::collections::{BTreeMap, VecDeque};

use cij_core::PairKey;
use cij_geom::{MovingRect, Rect, Time, DIMS};
use cij_tpr::{IdMap, ObjectId};

use crate::event::{OutboxItem, ResultDelta, StampedDelta};

/// Identifier of a registered subscriber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriberId(pub u64);

/// What subset of the result stream a subscriber wants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubscriptionFilter {
    /// Every delta.
    All,
    /// Deltas whose pair involves this object (either side).
    Object(ObjectId),
    /// Deltas where at least one of the pair's objects is spatially
    /// inside the window at the delivery tick — the same
    /// rectangle-intersection predicate the continuous window queries of
    /// §V use, evaluated against the objects' registered trajectories.
    Window(Rect),
}

impl SubscriptionFilter {
    /// Why this filter cannot be registered, if it cannot: a window needs
    /// finite bounds with `lo ≤ hi` in every dimension. Checked wherever
    /// a filter enters — `subscribe` and the journal decoder — because
    /// the match index orders windows by these coordinates.
    pub(crate) fn check(&self) -> Result<(), String> {
        match self {
            Self::Window(w) if w.lo.iter().chain(&w.hi).any(|c| !c.is_finite()) => Err(format!(
                "subscription window has a NaN or infinite bound: lo={:?} hi={:?}",
                w.lo, w.hi
            )),
            Self::Window(w) if (0..DIMS).any(|d| w.lo[d] > w.hi[d]) => Err(format!(
                "subscription window is inverted: lo={:?} hi={:?}",
                w.lo, w.hi
            )),
            _ => Ok(()),
        }
    }

    /// Whether an addition of `pair` at tick `at` passes this filter.
    /// `tracks` resolves an object's currently registered trajectory.
    fn admits(&self, pair: PairKey, at: Time, tracks: &IdMap<ObjectId, MovingRect>) -> bool {
        match self {
            Self::All => true,
            Self::Object(id) => pair.0 == *id || pair.1 == *id,
            Self::Window(window) => [pair.0, pair.1].iter().any(|oid| {
                tracks
                    .get(oid)
                    .is_some_and(|mbr| window_sees(window, mbr, at))
            }),
        }
    }
}

/// The `Window` predicate: whether the object on trajectory `mbr` touches
/// `window` at instant `at`. Every admit decision for a window goes
/// through here, whichever way the candidate was found.
fn window_sees(window: &Rect, mbr: &MovingRect, at: Time) -> bool {
    MovingRect::stationary(*window, at)
        .intersect_interval(mbr, at, at)
        .is_some()
}

/// The rectangle the match index is probed with for an object: its
/// position at `at`, grown on every side by a margin some seven orders of
/// magnitude above any rounding [`window_sees`] and `MovingRect::at` can
/// disagree by, so a window touched exactly on its edge is always among
/// the candidates.
fn probe_rect(mbr: &MovingRect, at: Time) -> Rect {
    let mut rect = mbr.at(at);
    let reach = mbr.t_ref.abs() + at.abs();
    for d in 0..DIMS {
        let lo = mbr.lo[d].abs() + mbr.vlo[d].abs() * reach;
        let hi = mbr.hi[d].abs() + mbr.vhi[d].abs() * reach;
        let margin = 1e-9 * (1.0 + lo.max(hi));
        rect.lo[d] -= margin;
        rect.hi[d] += margin;
    }
    rect
}

/// The registered windows, packed into a static R-tree: sorted by x
/// centre, cut into vertical slabs, each slab sorted by y centre
/// (sort-tile-recursive), then bounded bottom-up in runs of [`FANOUT`].
/// Its shape comes from the windows alone; it is rebuilt, never updated.
#[derive(Debug, Default)]
struct WindowIndex {
    windows: Vec<(Rect, SubscriberId)>,
    /// `levels[0][i]` bounds `windows[i * FANOUT..][..FANOUT]`,
    /// `levels[k + 1][i]` the same run of `levels[k]`; the last level is
    /// one box.
    levels: Vec<Vec<Rect>>,
}

const FANOUT: usize = 8;

impl WindowIndex {
    fn build(mut windows: Vec<(Rect, SubscriberId)>) -> Self {
        if windows.is_empty() {
            return Self::default();
        }
        let centre = |d: usize| {
            move |a: &(Rect, SubscriberId), b: &(Rect, SubscriberId)| {
                a.0.center()[d].total_cmp(&b.0.center()[d])
            }
        };
        let leaves = windows.len().div_ceil(FANOUT);
        let slabs = (leaves as f64).sqrt().ceil() as usize;
        windows.sort_by(centre(0));
        for slab in windows.chunks_mut(leaves.div_ceil(slabs) * FANOUT) {
            slab.sort_by(centre(1));
        }
        let bound = |run: &[Rect]| run.iter().skip(1).fold(run[0], |acc, r| acc.union(r));
        let rects: Vec<Rect> = windows.iter().map(|w| w.0).collect();
        let mut levels = vec![rects.chunks(FANOUT).map(bound).collect::<Vec<_>>()];
        while levels[levels.len() - 1].len() > 1 {
            let next = levels[levels.len() - 1].chunks(FANOUT).map(bound).collect();
            levels.push(next);
        }
        Self { windows, levels }
    }

    /// Calls `visit` with every window whose rectangle meets `query`.
    fn for_each_meeting(&self, query: &Rect, visit: &mut impl FnMut(&Rect, SubscriberId)) {
        if let Some(top) = self.levels.len().checked_sub(1) {
            if self.levels[top][0].intersects(query) {
                self.descend(top, 0, query, visit);
            }
        }
    }

    /// Visits below box `node` of `levels[level]`, which meets `query`.
    fn descend(
        &self,
        level: usize,
        node: usize,
        query: &Rect,
        visit: &mut impl FnMut(&Rect, SubscriberId),
    ) {
        let first = node * FANOUT;
        if level == 0 {
            for (window, id) in self.windows.iter().skip(first).take(FANOUT) {
                if window.intersects(query) {
                    visit(window, *id);
                }
            }
            return;
        }
        let below = self.levels[level - 1].iter().enumerate();
        for (child, bound) in below.skip(first).take(FANOUT) {
            if bound.intersects(query) {
                self.descend(level - 1, child, query, visit);
            }
        }
    }
}

/// The registered filters, arranged so a `PairAdded` finds the
/// subscribers that can want it without asking the others.
#[derive(Debug, Default)]
struct MatchIndex {
    all: Vec<SubscriberId>,
    by_object: IdMap<ObjectId, Vec<SubscriberId>>,
    windows: WindowIndex,
}

impl MatchIndex {
    fn build(subscribers: &BTreeMap<SubscriberId, SubscriberState>) -> Self {
        let mut index = Self::default();
        let mut windows = Vec::new();
        for (&id, state) in subscribers {
            match state.filter {
                SubscriptionFilter::All => index.all.push(id),
                SubscriptionFilter::Object(oid) => index.by_object.entry(oid).or_default().push(id),
                SubscriptionFilter::Window(window) => windows.push((window, id)),
            }
        }
        index.windows = WindowIndex::build(windows);
        index
    }

    /// Fills `out` with the subscribers whose filter admits an addition
    /// of `pair` at tick `at`, ascending, each once.
    fn admitting(
        &self,
        pair: PairKey,
        at: Time,
        tracks: &IdMap<ObjectId, MovingRect>,
        out: &mut Vec<SubscriberId>,
    ) {
        out.clear();
        out.extend_from_slice(&self.all);
        for oid in [pair.0, pair.1] {
            if let Some(watchers) = self.by_object.get(&oid) {
                out.extend_from_slice(watchers);
            }
            if self.windows.levels.is_empty() {
                continue;
            }
            if let Some(mbr) = tracks.get(&oid) {
                self.windows
                    .for_each_meeting(&probe_rect(mbr, at), &mut |window, id| {
                        if window_sees(window, mbr, at) {
                            out.push(id);
                        }
                    });
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// One subscriber's delivery state.
#[derive(Debug)]
struct SubscriberState {
    filter: SubscriptionFilter,
    outbox: VecDeque<StampedDelta>,
    /// Deltas evicted (or lost to a crash) since the last poll. The
    /// drop-oldest policy keeps the lost region contiguous at the front
    /// of the queue, so this single counter describes it exactly.
    dropped: u64,
    /// How many entries of the registry's `holders` name this subscriber.
    holding: usize,
}

impl SubscriberState {
    /// Hands over one wanted delivery: into the outbox, evicting the
    /// oldest item of a full one, or — with `suppress` — straight into
    /// the gap counter.
    fn hand(&mut self, item: StampedDelta, suppress: bool, capacity: usize, lost: &mut u64) {
        let evicts = self.outbox.len() >= capacity;
        if suppress || evicts {
            self.dropped += 1;
            *lost += 1;
        }
        if suppress {
            return;
        }
        if evicts {
            self.outbox.pop_front();
        }
        self.outbox.push_back(item);
    }
}

/// The set of subscribers and their outboxes.
///
/// Besides the subscribers themselves the registry keeps two derived
/// structures. The `MatchIndex` over their filters is dropped whenever a
/// subscriber comes or goes and rebuilt by the next delivery (so a WAL
/// replay of many subscriptions builds it once). `holders` records, per
/// pair, who has been handed an unrevoked `PairAdded` for it — the state
/// each subscriber's replay would hold if it kept up; removals are routed
/// by it, not by the filter.
#[derive(Debug)]
pub(crate) struct SubscriptionRegistry {
    subscribers: BTreeMap<SubscriberId, SubscriberState>,
    index: Option<MatchIndex>,
    holders: IdMap<PairKey, Vec<SubscriberId>>,
    /// Scratch for one delta's admitting subscribers.
    admitting: Vec<SubscriberId>,
    next_id: u64,
    outbox_capacity: usize,
    /// Cumulative deliveries lost across all subscribers (outbox
    /// evictions plus crash/resync losses) — never reset; the service
    /// mirrors it into the `stream.subscribers.dropped_deltas` metric.
    total_dropped: u64,
}

impl SubscriptionRegistry {
    pub(crate) fn new(outbox_capacity: usize) -> Self {
        assert!(outbox_capacity > 0, "outbox capacity must be nonzero");
        Self {
            subscribers: BTreeMap::new(),
            index: None,
            holders: IdMap::default(),
            admitting: Vec::new(),
            next_id: 0,
            outbox_capacity,
            total_dropped: 0,
        }
    }

    /// The id the next [`subscribe`](Self::subscribe) will hand out.
    pub(crate) fn next_id(&self) -> SubscriberId {
        SubscriberId(self.next_id)
    }

    /// Registers a subscriber and returns its fresh id.
    #[cfg(test)]
    pub(crate) fn subscribe(&mut self, filter: SubscriptionFilter) -> SubscriberId {
        let id = self.next_id();
        self.insert_with_id(id, filter);
        id
    }

    /// Re-registers a subscriber under a known id (WAL replay).
    pub(crate) fn insert_with_id(&mut self, id: SubscriberId, filter: SubscriptionFilter) {
        self.next_id = self.next_id.max(id.0.saturating_add(1));
        self.unsubscribe(id);
        self.index = None;
        self.subscribers.insert(
            id,
            SubscriberState {
                filter,
                outbox: VecDeque::new(),
                dropped: 0,
                holding: 0,
            },
        );
    }

    /// Drops a subscriber. Returns whether it existed.
    pub(crate) fn unsubscribe(&mut self, id: SubscriberId) -> bool {
        let Some(state) = self.subscribers.remove(&id) else {
            return false;
        };
        self.index = None;
        Self::release_holdings(&mut self.holders, id, state.holding);
        true
    }

    /// Strikes `id` from the `holding` holder lists that name it.
    fn release_holdings(
        holders: &mut IdMap<PairKey, Vec<SubscriberId>>,
        id: SubscriberId,
        mut holding: usize,
    ) {
        if holding == 0 {
            return;
        }
        holders.retain(|_, held| {
            if holding > 0 {
                if let Some(at) = held.iter().position(|&h| h == id) {
                    held.swap_remove(at);
                    holding -= 1;
                }
            }
            !held.is_empty()
        });
    }

    /// Routes one extraction's deltas to the subscribers that want them,
    /// delta by delta: an addition to the subscribers the match index
    /// finds admitting it and not yet holding the pair, a removal to the
    /// pair's holders.
    ///
    /// With `suppress` set (the service's `DegradeToResync` degraded
    /// window), filters and holders are evaluated exactly as in normal
    /// delivery, but instead of entering the outbox each wanted delivery
    /// is counted into the subscriber's gap counter — so the `Gap` a
    /// subscriber later sees is **exact**, not a lower bound.
    pub(crate) fn deliver(
        &mut self,
        deltas: &[StampedDelta],
        tracks: &IdMap<ObjectId, MovingRect>,
        suppress: bool,
    ) {
        let Self {
            subscribers,
            index,
            holders,
            admitting,
            outbox_capacity,
            total_dropped,
            ..
        } = self;
        if subscribers.is_empty() {
            return;
        }
        let index = index.get_or_insert_with(|| MatchIndex::build(subscribers));
        let mut hand = |id: SubscriberId, item: &StampedDelta, gained: bool| {
            let state = subscribers
                .get_mut(&id)
                .expect("the index and the holder lists name registered subscribers only");
            if gained {
                state.holding += 1;
            } else {
                state.holding -= 1;
            }
            state.hand(*item, suppress, *outbox_capacity, total_dropped);
        };
        for item in deltas {
            match item.delta {
                ResultDelta::PairAdded { pair, .. } => {
                    index.admitting(pair, item.at, tracks, admitting);
                    if admitting.is_empty() {
                        continue;
                    }
                    let held = holders.entry(pair).or_default();
                    for &id in admitting.iter() {
                        if !held.contains(&id) {
                            held.push(id);
                            hand(id, item, true);
                        }
                    }
                }
                ResultDelta::PairRemoved { pair } => {
                    for id in holders.remove(&pair).unwrap_or_default() {
                        hand(id, item, false);
                    }
                }
            }
        }
    }

    /// Drains a subscriber's outbox. A [`Gap`](OutboxItem::Gap) marker
    /// leads when deliveries were lost since the previous poll. `None`
    /// for unknown subscribers.
    pub(crate) fn poll(&mut self, id: SubscriberId) -> Option<Vec<OutboxItem>> {
        let state = self.subscribers.get_mut(&id)?;
        let mut out = Vec::with_capacity(state.outbox.len() + 1);
        if state.dropped > 0 {
            out.push(OutboxItem::Gap {
                dropped: std::mem::take(&mut state.dropped),
            });
        }
        out.extend(state.outbox.drain(..).map(OutboxItem::Delta));
        Some(out)
    }

    /// Rebuilds a subscriber's view from authoritative state: clears the
    /// outbox, records `lost` dropped deliveries (0 for a voluntary
    /// resync), and seeds filtered `PairAdded`s for the currently
    /// reported pairs. Returns whether the subscriber exists.
    ///
    /// `charge_cleared` additionally counts every undelivered outbox
    /// item discarded by the clear into the gap counter — the
    /// degrade-resync path uses it so gap accounting stays exact even
    /// for subscribers that had not polled before degradation; crash
    /// recovery passes `false` (those outboxes died with the process
    /// and are covered by the explicit `lost` lower bound), as does a
    /// voluntary resync (the subscriber itself asked for the clear).
    pub(crate) fn reseed(
        &mut self,
        id: SubscriberId,
        lost: u64,
        at: Time,
        current: &[(PairKey, cij_geom::TimeInterval)],
        tracks: &IdMap<ObjectId, MovingRect>,
        charge_cleared: bool,
    ) -> bool {
        let capacity = self.outbox_capacity;
        let Some(state) = self.subscribers.get_mut(&id) else {
            return false;
        };
        let cleared = if charge_cleared {
            state.outbox.len() as u64
        } else {
            0
        };
        state.outbox.clear();
        state.dropped += cleared + lost;
        self.total_dropped += cleared + lost;
        Self::release_holdings(&mut self.holders, id, std::mem::take(&mut state.holding));
        for &(pair, valid) in current {
            if !state.filter.admits(pair, at, tracks) {
                continue;
            }
            let held = self.holders.entry(pair).or_default();
            if !held.contains(&id) {
                held.push(id);
                state.holding += 1;
                let delta = ResultDelta::PairAdded { pair, valid };
                let seed = StampedDelta { at, delta };
                state.hand(seed, false, capacity, &mut self.total_dropped);
            }
        }
        true
    }

    /// Cumulative deliveries lost across all subscribers (see the field
    /// docs) — monotonic, suitable for a counter metric.
    pub(crate) fn total_dropped(&self) -> u64 {
        self.total_dropped
    }

    /// All subscriber ids, ascending.
    pub(crate) fn ids(&self) -> Vec<SubscriberId> {
        self.subscribers.keys().copied().collect()
    }

    /// Number of subscribers.
    pub(crate) fn len(&self) -> usize {
        self.subscribers.len()
    }

    /// A subscriber's filter, if registered.
    pub(crate) fn filter(&self, id: SubscriberId) -> Option<SubscriptionFilter> {
        self.subscribers.get(&id).map(|s| s.filter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cij_geom::TimeInterval;

    fn pair(a: u64, b: u64) -> PairKey {
        (ObjectId(a), ObjectId(b))
    }

    fn add(at: Time, a: u64, b: u64) -> StampedDelta {
        StampedDelta {
            at,
            delta: ResultDelta::PairAdded {
                pair: pair(a, b),
                valid: TimeInterval::from(at),
            },
        }
    }

    fn remove(at: Time, a: u64, b: u64) -> StampedDelta {
        StampedDelta {
            at,
            delta: ResultDelta::PairRemoved { pair: pair(a, b) },
        }
    }

    fn tracks(entries: &[(u64, f64, f64)]) -> IdMap<ObjectId, MovingRect> {
        entries
            .iter()
            .map(|&(id, x, y)| {
                let mbr = MovingRect::stationary(Rect::new([x, y], [x + 1.0, y + 1.0]), 0.0);
                (ObjectId(id), mbr)
            })
            .collect()
    }

    #[test]
    fn object_filter_delivers_both_sides() {
        let mut reg = SubscriptionRegistry::new(16);
        let s = reg.subscribe(SubscriptionFilter::Object(ObjectId(7)));
        let t = tracks(&[]);
        reg.deliver(
            &[add(1.0, 7, 100), add(1.0, 8, 100), add(1.0, 3, 7)],
            &t,
            false,
        );
        let items = reg.poll(s).unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0], OutboxItem::Delta(add(1.0, 7, 100)));
        assert_eq!(items[1], OutboxItem::Delta(add(1.0, 3, 7)));
        // Polling again yields nothing new.
        assert!(reg.poll(s).unwrap().is_empty());
    }

    #[test]
    fn window_filter_uses_object_positions() {
        let mut reg = SubscriptionRegistry::new(16);
        let s = reg.subscribe(SubscriptionFilter::Window(Rect::new(
            [0.0, 0.0],
            [10.0, 10.0],
        )));
        // Object 1 inside the window, objects 2 and 3 far away.
        let t = tracks(&[(1, 5.0, 5.0), (2, 100.0, 100.0), (3, 200.0, 200.0)]);
        reg.deliver(&[add(1.0, 1, 2), add(1.0, 2, 3)], &t, false);
        let items = reg.poll(s).unwrap();
        assert_eq!(items, vec![OutboxItem::Delta(add(1.0, 1, 2))]);
    }

    #[test]
    fn removal_reaches_holders_even_outside_the_filter() {
        let mut reg = SubscriptionRegistry::new(16);
        let s = reg.subscribe(SubscriptionFilter::Window(Rect::new(
            [0.0, 0.0],
            [10.0, 10.0],
        )));
        let inside = tracks(&[(1, 5.0, 5.0), (2, 5.0, 5.0)]);
        reg.deliver(&[add(1.0, 1, 2)], &inside, false);
        // Both objects have left the window by the time the pair ends.
        let outside = tracks(&[(1, 500.0, 500.0), (2, 500.0, 500.0)]);
        reg.deliver(&[remove(9.0, 1, 2)], &outside, false);
        let items = reg.poll(s).unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[1], OutboxItem::Delta(remove(9.0, 1, 2)));
        // A removal of a never-delivered pair is filtered out entirely.
        reg.deliver(&[remove(10.0, 3, 4)], &outside, false);
        assert!(reg.poll(s).unwrap().is_empty());
    }

    #[test]
    fn slow_consumer_gets_gap_marker_with_exact_count() {
        let mut reg = SubscriptionRegistry::new(3);
        let s = reg.subscribe(SubscriptionFilter::All);
        let t = tracks(&[]);
        for i in 0..5 {
            reg.deliver(&[add(i as f64, i, 100 + i)], &t, false);
        }
        let items = reg.poll(s).unwrap();
        assert_eq!(items[0], OutboxItem::Gap { dropped: 2 });
        assert_eq!(items.len(), 4); // gap + the 3 newest deliveries
        assert_eq!(items[1], OutboxItem::Delta(add(2.0, 2, 102)));
        // The gap is reported once.
        assert!(reg.poll(s).unwrap().is_empty());
    }

    #[test]
    fn reseed_replaces_outbox_with_current_state() {
        let mut reg = SubscriptionRegistry::new(16);
        let s = reg.subscribe(SubscriptionFilter::All);
        let t = tracks(&[]);
        reg.deliver(&[add(1.0, 1, 2), add(1.0, 3, 4)], &t, false);
        let current = vec![(pair(5, 6), TimeInterval::from(2.0))];
        assert!(reg.reseed(s, 7, 2.0, &current, &t, false));
        let items = reg.poll(s).unwrap();
        assert_eq!(items[0], OutboxItem::Gap { dropped: 7 });
        assert_eq!(items.len(), 2);
        assert!(
            matches!(items[1], OutboxItem::Delta(d) if d.delta.pair() == pair(5, 6) && d.delta.is_add())
        );
        assert!(!reg.reseed(SubscriberId(99), 0, 2.0, &current, &t, false));
    }

    #[test]
    fn unsubscribe_stops_delivery_and_ids_stay_unique() {
        let mut reg = SubscriptionRegistry::new(16);
        let a = reg.subscribe(SubscriptionFilter::All);
        let b = reg.subscribe(SubscriptionFilter::All);
        assert_ne!(a, b);
        assert!(reg.unsubscribe(a));
        assert!(!reg.unsubscribe(a));
        assert!(reg.poll(a).is_none());
        assert_eq!(reg.ids(), vec![b]);
        // Replayed ids never collide with fresh ones.
        reg.insert_with_id(SubscriberId(10), SubscriptionFilter::All);
        let c = reg.subscribe(SubscriptionFilter::All);
        assert!(c.0 > 10);
    }
    // ------------------------------------------------------------------
    // The index-driven registry against the per-subscriber scan.
    // ------------------------------------------------------------------

    /// The delivery rule as it was first written — every subscriber asked
    /// about every delta, each with its own set of held pairs — kept as
    /// the reference the index-driven registry is checked against.
    struct ScanRegistry {
        subscribers: BTreeMap<SubscriberId, ScanState>,
        outbox_capacity: usize,
        total_dropped: u64,
    }

    struct ScanState {
        filter: SubscriptionFilter,
        outbox: VecDeque<StampedDelta>,
        dropped: u64,
        delivered: std::collections::HashSet<PairKey>,
    }

    impl ScanRegistry {
        fn new(outbox_capacity: usize) -> Self {
            Self {
                subscribers: BTreeMap::new(),
                outbox_capacity,
                total_dropped: 0,
            }
        }

        fn insert_with_id(&mut self, id: SubscriberId, filter: SubscriptionFilter) {
            let state = ScanState {
                filter,
                outbox: VecDeque::new(),
                dropped: 0,
                delivered: std::collections::HashSet::new(),
            };
            self.subscribers.insert(id, state);
        }

        fn unsubscribe(&mut self, id: SubscriberId) -> bool {
            self.subscribers.remove(&id).is_some()
        }

        fn deliver(
            &mut self,
            deltas: &[StampedDelta],
            tracks: &IdMap<ObjectId, MovingRect>,
            suppress: bool,
        ) {
            for state in self.subscribers.values_mut() {
                for item in deltas {
                    let wanted = match item.delta {
                        ResultDelta::PairAdded { pair, .. } => {
                            state.filter.admits(pair, item.at, tracks)
                                && state.delivered.insert(pair)
                        }
                        ResultDelta::PairRemoved { pair } => state.delivered.remove(&pair),
                    };
                    if !wanted {
                        continue;
                    }
                    if suppress {
                        state.dropped += 1;
                        self.total_dropped += 1;
                    } else {
                        Self::push_bounded(
                            state,
                            *item,
                            self.outbox_capacity,
                            &mut self.total_dropped,
                        );
                    }
                }
            }
        }

        fn push_bounded(
            state: &mut ScanState,
            item: StampedDelta,
            capacity: usize,
            total_dropped: &mut u64,
        ) {
            if state.outbox.len() >= capacity {
                state.outbox.pop_front();
                state.dropped += 1;
                *total_dropped += 1;
            }
            state.outbox.push_back(item);
        }

        fn poll(&mut self, id: SubscriberId) -> Option<Vec<OutboxItem>> {
            let state = self.subscribers.get_mut(&id)?;
            let mut out = Vec::new();
            if state.dropped > 0 {
                out.push(OutboxItem::Gap {
                    dropped: std::mem::take(&mut state.dropped),
                });
            }
            out.extend(state.outbox.drain(..).map(OutboxItem::Delta));
            Some(out)
        }

        fn reseed(
            &mut self,
            id: SubscriberId,
            lost: u64,
            at: Time,
            current: &[(PairKey, TimeInterval)],
            tracks: &IdMap<ObjectId, MovingRect>,
            charge_cleared: bool,
        ) -> bool {
            let Some(state) = self.subscribers.get_mut(&id) else {
                return false;
            };
            if charge_cleared {
                let cleared = state.outbox.len() as u64;
                state.dropped += cleared;
                self.total_dropped += cleared;
            }
            state.outbox.clear();
            state.delivered.clear();
            state.dropped += lost;
            self.total_dropped += lost;
            for &(pair, valid) in current {
                if state.filter.admits(pair, at, tracks) && state.delivered.insert(pair) {
                    let delta = ResultDelta::PairAdded { pair, valid };
                    Self::push_bounded(
                        state,
                        StampedDelta { at, delta },
                        self.outbox_capacity,
                        &mut self.total_dropped,
                    );
                }
            }
            true
        }
    }

    #[test]
    fn index_driven_delivery_matches_the_per_subscriber_scan() {
        use rand::{rngs::StdRng, Rng, SeedableRng};

        // Everything sits on a quarter-unit grid — positions, speeds,
        // reference times, ticks, window bounds — so object edges meet
        // window edges exactly, over and over.
        fn grid(rng: &mut StdRng, lo: i64, hi: i64) -> f64 {
            rng.gen_range(lo..hi) as f64 / 4.0
        }
        fn trajectory(rng: &mut StdRng, now: Time) -> MovingRect {
            let (x, y) = (grid(rng, 0, 160), grid(rng, 0, 160));
            let rect = Rect::new([x, y], [x + grid(rng, 0, 12), y + grid(rng, 0, 12)]);
            let v = [grid(rng, -8, 9), grid(rng, -8, 9)];
            MovingRect::rigid(rect, v, now - grid(rng, 0, 20))
        }
        fn filter(rng: &mut StdRng) -> SubscriptionFilter {
            match rng.gen_range(0..6u32) {
                0 => SubscriptionFilter::All,
                1 | 2 => {
                    let side = 100 * rng.gen_range(0..2u64);
                    SubscriptionFilter::Object(ObjectId(side + rng.gen_range(0..25u64)))
                }
                _ => {
                    // Zero extents (a point, a segment) included.
                    let (x, y) = (grid(rng, 0, 160), grid(rng, 0, 160));
                    let hi = [x + grid(rng, 0, 60), y + grid(rng, 0, 60)];
                    SubscriptionFilter::Window(Rect::new([x, y], hi))
                }
            }
        }
        // Ids 20..25 of either side never get a trajectory.
        fn pair(rng: &mut StdRng) -> PairKey {
            (
                ObjectId(rng.gen_range(0..25u64)),
                ObjectId(100 + rng.gen_range(0..25u64)),
            )
        }

        /// Polls `id` on both sides; returns how many deltas a `Window`
        /// subscriber was handed (0 for the other kinds).
        fn same_outbox(
            reg: &mut SubscriptionRegistry,
            scan: &mut ScanRegistry,
            id: SubscriberId,
            tag: &str,
        ) -> usize {
            let items = reg.poll(id).expect("live subscriber");
            assert_eq!(
                Some(&items),
                scan.poll(id).as_ref(),
                "{tag}: outbox of {id:?}"
            );
            match reg.filter(id) {
                Some(SubscriptionFilter::Window(_)) => items.len(),
                _ => 0,
            }
        }

        let mut window_items = 0usize;
        for seed in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Small outboxes: eviction is the common case.
            let capacity = 2 + (seed % 5) as usize;
            let mut reg = SubscriptionRegistry::new(capacity);
            let mut scan = ScanRegistry::new(capacity);
            let mut tracks: IdMap<ObjectId, MovingRect> = IdMap::default();
            for id in (0..20u64).chain(100..120) {
                tracks.insert(ObjectId(id), trajectory(&mut rng, 0.0));
            }
            let mut live: Vec<SubscriberId> = Vec::new();
            let mut now = 0.0;
            for step in 0..500 {
                let tag = format!("seed {seed} step {step}");
                match rng.gen_range(0..14u32) {
                    0..=6 => {
                        now += 0.25;
                        let batch: Vec<StampedDelta> = (0..rng.gen_range(1..9u32))
                            .map(|_| {
                                let (a, b) = pair(&mut rng);
                                match rng.gen_bool(0.6) {
                                    true => add(now, a.0, b.0),
                                    false => remove(now, a.0, b.0),
                                }
                            })
                            .collect();
                        let suppress = rng.gen_bool(0.1);
                        reg.deliver(&batch, &tracks, suppress);
                        scan.deliver(&batch, &tracks, suppress);
                    }
                    7 | 8 if live.len() < 40 => {
                        let id = reg.next_id();
                        let filter = filter(&mut rng);
                        assert!(filter.check().is_ok(), "{tag}");
                        reg.insert_with_id(id, filter);
                        scan.insert_with_id(id, filter);
                        live.push(id);
                    }
                    9 if !live.is_empty() => {
                        let id = live.swap_remove(rng.gen_range(0..live.len()));
                        assert!(reg.unsubscribe(id), "{tag}");
                        assert!(scan.unsubscribe(id), "{tag}");
                    }
                    10 if !live.is_empty() => {
                        // `resync`, a degrade-close or a recovery reseed,
                        // over a snapshot that may repeat a pair.
                        let id = live[rng.gen_range(0..live.len())];
                        let current: Vec<(PairKey, TimeInterval)> = (0..rng.gen_range(0..30u32))
                            .map(|_| (pair(&mut rng), TimeInterval::from(now)))
                            .collect();
                        let (lost, charge) = (rng.gen_range(0..3u64), rng.gen_bool(0.5));
                        assert!(
                            reg.reseed(id, lost, now, &current, &tracks, charge),
                            "{tag}"
                        );
                        assert!(
                            scan.reseed(id, lost, now, &current, &tracks, charge),
                            "{tag}"
                        );
                    }
                    11 if !live.is_empty() => {
                        let id = live[rng.gen_range(0..live.len())];
                        window_items += same_outbox(&mut reg, &mut scan, id, &tag);
                    }
                    12 => {
                        // Objects move on; now and then one loses its
                        // trajectory, or a replay repeats a subscription.
                        for _ in 0..4 {
                            let side = 100 * rng.gen_range(0..2u64);
                            let id = ObjectId(side + rng.gen_range(0..20u64));
                            tracks.insert(id, trajectory(&mut rng, now));
                        }
                        if rng.gen_bool(0.2) {
                            tracks.remove(&ObjectId(rng.gen_range(0..20u64)));
                        }
                        if rng.gen_bool(0.1) && !live.is_empty() {
                            let id = live[rng.gen_range(0..live.len())];
                            let filter = filter(&mut rng);
                            reg.insert_with_id(id, filter);
                            scan.insert_with_id(id, filter);
                        }
                    }
                    _ => {}
                }
                assert_eq!(
                    reg.total_dropped(),
                    scan.total_dropped,
                    "{tag}: total_dropped"
                );
            }
            for id in live {
                window_items += same_outbox(&mut reg, &mut scan, id, &format!("seed {seed} end"));
            }
            // Every holder entry is accounted for by its subscriber.
            let held: usize = reg.holders.values().map(Vec::len).sum();
            let counted: usize = reg.subscribers.values().map(|s| s.holding).sum();
            assert_eq!(held, counted, "seed {seed}: holder bookkeeping");
        }
        assert!(
            window_items > 2_000,
            "windows saw too little: {window_items}"
        );
    }

    #[test]
    fn window_touched_exactly_on_its_edge_is_admitted_through_the_index() {
        let mut reg = SubscriptionRegistry::new(16);
        // Enough windows for a two-level index; the one under test shares
        // its left edge, x = 3, with the right edge of both objects.
        for k in 0..20 {
            let x = 50.0 + 10.0 * f64::from(k);
            reg.subscribe(SubscriptionFilter::Window(Rect::new(
                [x, 0.0],
                [x + 5.0, 5.0],
            )));
        }
        let touching = reg.subscribe(SubscriptionFilter::Window(Rect::new(
            [3.0, 0.0],
            [5.0, 9.0],
        )));
        let apart = reg.subscribe(SubscriptionFilter::Window(Rect::new(
            [3.0 + 1e-12, 0.0],
            [5.0, 9.0],
        )));
        let mut t: IdMap<ObjectId, MovingRect> = IdMap::default();
        // Object 1 stands at [2, 3]; object 2 started at [0, 1] and
        // reaches [2, 3] at t = 4.
        t.insert(
            ObjectId(1),
            MovingRect::stationary(Rect::new([2.0, 2.0], [3.0, 3.0]), 0.0),
        );
        let moving = MovingRect::rigid(Rect::new([0.0, 2.0], [1.0, 3.0]), [0.5, 0.0], 0.0);
        t.insert(ObjectId(2), moving);
        reg.deliver(&[add(4.0, 1, 100), add(4.0, 2, 101)], &t, false);
        assert_eq!(
            reg.poll(touching).unwrap(),
            vec![
                OutboxItem::Delta(add(4.0, 1, 100)),
                OutboxItem::Delta(add(4.0, 2, 101))
            ]
        );
        assert!(reg.poll(apart).unwrap().is_empty());
    }

    #[test]
    fn window_index_finds_what_a_scan_finds() {
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(22);
        // One leaf, a full leaf, one past it, several levels; mixed sizes
        // with a few windows covering most of the space.
        for n in [0usize, 1, 7, 8, 9, 65, 700] {
            let windows: Vec<(Rect, SubscriberId)> = (0..n)
                .map(|i| {
                    let side = if i % 50 == 3 {
                        900.0
                    } else {
                        rng.gen_range(0.0..40.0)
                    };
                    let (x, y) = (rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
                    (
                        Rect::new([x, y], [x + side, y + side]),
                        SubscriberId(i as u64),
                    )
                })
                .collect();
            let index = WindowIndex::build(windows.clone());
            for _ in 0..200 {
                let (x, y) = (rng.gen_range(-50.0..1050.0), rng.gen_range(-50.0..1050.0));
                let side = rng.gen_range(0.0..30.0);
                let query = Rect::new([x, y], [x + side, y + side]);
                let mut found = Vec::new();
                index.for_each_meeting(&query, &mut |_, id| found.push(id));
                found.sort_unstable();
                let mut expected: Vec<SubscriberId> = windows
                    .iter()
                    .filter(|(w, _)| w.intersects(&query))
                    .map(|&(_, id)| id)
                    .collect();
                expected.sort_unstable();
                assert_eq!(found, expected, "n = {n}, query {query:?}");
            }
        }
    }
}
