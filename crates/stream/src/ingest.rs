//! The ingestion front-end: a bounded queue that coalesces update
//! events into per-tick batches and applies explicit backpressure.
//!
//! Producers call [`IngestQueue::submit`] and must handle the outcome:
//! [`Accepted`](IngestOutcome::Accepted) enqueues, while
//! [`QueueFull`](IngestOutcome::QueueFull) tells the producer to back
//! off. Acceptance follows a high/low watermark hysteresis — the queue
//! closes when pending updates reach the high watermark and re-opens
//! only once a drain brings it back down to the low watermark, so a
//! saturated service refuses work in long stretches instead of
//! flapping per event.
//!
//! A submission always enqueues at its own tick. While the queue is
//! closed, a submission for an object with a pending update replaces
//! that update instead of being refused — see
//! [`ShedPolicy`](crate::ShedPolicy) for the `T_M` soundness argument.
//! Every queued update carries its wall-clock enqueue instant, so the
//! service can report per-update ingest latency.
//!
//! The service drains one due batch at a time
//! ([`IngestQueue::pop_due`]): a batch it refuses is lost on its own,
//! and the batches after it stay queued.
//!
//! The queue holds updates, not objects: its only per-object state is
//! the tick of each object's latest pending update. An update's delete
//! keys (`set`, `old_mbr`, `last_update`) are not read here, nor by
//! anything after — the engine derives them from its registration table
//! when the batch is applied, so a late or replaced update still deletes
//! exactly what the engine holds.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use cij_geom::Time;
use cij_tpr::ObjectId;
use cij_workload::ObjectUpdate;

/// Result of offering one update to the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Enqueued; it will be applied when its tick is drained.
    Accepted,
    /// Backpressure: the queue is at or above its high watermark (or at
    /// hard capacity). Retry after the service has drained.
    QueueFull,
    /// The update's tick has already been applied; accepting it would
    /// reorder time. The producer should re-read state and resubmit
    /// against a current tick.
    Stale,
}

/// Tick key with a total order (`f64` itself is not `Ord`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct TickKey(Time);

impl Eq for TickKey {}

impl PartialOrd for TickKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TickKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One queued update plus its acceptance instant.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedUpdate {
    /// The update to apply (possibly the replacement of a superseded
    /// one).
    pub(crate) update: ObjectUpdate,
    /// Wall-clock instant of acceptance, for ingest-latency histograms.
    pub(crate) enqueued: Instant,
}

/// Bounded, tick-coalescing ingestion queue.
#[derive(Debug)]
pub(crate) struct IngestQueue {
    batches: BTreeMap<TickKey, Vec<QueuedUpdate>>,
    pending: usize,
    capacity: usize,
    high_watermark: usize,
    low_watermark: usize,
    accepting: bool,
    drained_through: Time,
    /// Tick of the latest pending update per object — the supersede
    /// index a closed queue resolves against.
    latest_pending: HashMap<ObjectId, TickKey>,
    shed_dropped_stale: u64,
}

impl IngestQueue {
    /// Creates a queue whose stale frontier is `now`. Invariants
    /// (`low ≤ high ≤ capacity`, nonzero capacity) are the caller's
    /// responsibility — the service derives both watermarks from a
    /// nonzero [`batch_capacity`](crate::StreamConfig::batch_capacity),
    /// which keeps them.
    pub(crate) fn new(
        capacity: usize,
        high_watermark: usize,
        low_watermark: usize,
        now: Time,
    ) -> Self {
        Self {
            batches: BTreeMap::new(),
            pending: 0,
            capacity,
            high_watermark,
            low_watermark,
            accepting: true,
            drained_through: now,
            latest_pending: HashMap::new(),
            shed_dropped_stale: 0,
        }
    }

    /// Whether the object has a queued-but-unapplied update.
    pub(crate) fn has_pending(&self, id: ObjectId) -> bool {
        self.latest_pending.contains_key(&id)
    }

    /// Offers one update for tick `at`.
    pub(crate) fn submit(&mut self, update: ObjectUpdate, at: Time) -> IngestOutcome {
        if at <= self.drained_through {
            return IngestOutcome::Stale;
        }
        if !self.accepting || self.pending >= self.capacity {
            if self.try_supersede(update, at) {
                return IngestOutcome::Accepted;
            }
            return IngestOutcome::QueueFull;
        }
        self.enqueue(update, at);
        IngestOutcome::Accepted
    }

    /// Replaces the object's latest pending update with `update` at tick
    /// `tick` — the shed path of a closed queue. The pending update
    /// was never applied, so dropping it leaves nothing behind in the
    /// engine; the replacement's delete keys are the engine's, like any
    /// other update's. Pending count is unchanged (one out, one
    /// in), so the watermark state cannot flip here.
    ///
    /// Returns `false` (caller refuses as `QueueFull`) when the object
    /// has no pending update, or its pending update sits at a *later*
    /// tick than this submission (the pending one is newer).
    fn try_supersede(&mut self, update: ObjectUpdate, tick: Time) -> bool {
        let Some(&pending_tick) = self.latest_pending.get(&update.id) else {
            return false;
        };
        if pending_tick.0 > tick {
            return false;
        }
        let batch = self
            .batches
            .get_mut(&pending_tick)
            .expect("supersede index points at a live batch");
        let pos = batch
            .iter()
            .rposition(|q| q.update.id == update.id)
            .expect("supersede index tracks batch membership");
        batch.remove(pos);
        if batch.is_empty() {
            self.batches.remove(&pending_tick);
        }
        self.pending -= 1;
        self.shed_dropped_stale += 1;
        self.enqueue(update, tick);
        true
    }

    fn enqueue(&mut self, update: ObjectUpdate, tick: Time) {
        let key = TickKey(tick);
        self.batches.entry(key).or_default().push(QueuedUpdate {
            update,
            enqueued: Instant::now(),
        });
        let slot = self.latest_pending.entry(update.id).or_insert(key);
        if tick >= slot.0 {
            *slot = key;
        }
        self.pending += 1;
        if self.pending >= self.high_watermark {
            self.accepting = false;
        }
    }

    /// Removes and returns the earliest batch with tick ≤ `t`, or `None`
    /// when no batch is due. Later submissions for its tick or earlier
    /// are refused as [`Stale`](IngestOutcome::Stale); the batches after
    /// it stay queued.
    pub(crate) fn pop_due(&mut self, t: Time) -> Option<(Time, Vec<QueuedUpdate>)> {
        let entry = self.batches.first_entry().filter(|e| e.key().0 <= t)?;
        let (key, updates) = entry.remove_entry();
        self.pending -= updates.len();
        for q in &updates {
            if self.latest_pending.get(&q.update.id) == Some(&key) {
                self.latest_pending.remove(&q.update.id);
            }
        }
        self.close_through(key.0);
        Some((key.0, updates))
    }

    /// Refuses later submissions for ticks ≤ `t` as
    /// [`Stale`](IngestOutcome::Stale), and re-opens the queue once it
    /// is down to its low watermark. Batches due by `t` are the caller's
    /// to [`pop_due`](Self::pop_due) first.
    pub(crate) fn close_through(&mut self, t: Time) {
        if t > self.drained_through {
            self.drained_through = t;
        }
        if !self.accepting && self.pending <= self.low_watermark {
            self.accepting = true;
        }
    }

    /// Pending (queued, unapplied) updates across all ticks.
    pub(crate) fn len(&self) -> usize {
        self.pending
    }

    /// Whether the queue currently accepts submissions.
    pub(crate) fn is_accepting(&self) -> bool {
        self.accepting
    }

    /// Pending updates superseded-and-dropped by a closed queue
    /// (cumulative).
    pub(crate) fn shed_dropped_stale(&self) -> u64 {
        self.shed_dropped_stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cij_geom::{MovingRect, Rect};
    use cij_workload::SetTag;

    fn update(id: u64) -> ObjectUpdate {
        let mbr = MovingRect::stationary(Rect::new([0.0, 0.0], [1.0, 1.0]), 0.0);
        ObjectUpdate {
            id: ObjectId(id),
            set: SetTag::A,
            old_mbr: mbr,
            last_update: 0.0,
            new_mbr: mbr,
        }
    }

    /// An update for `id` onto a trajectory told apart by its `x`.
    fn moved_to(id: u64, x: f64) -> ObjectUpdate {
        ObjectUpdate {
            new_mbr: MovingRect::stationary(Rect::new([x, 0.0], [x + 1.0, 1.0]), 0.0),
            ..update(id)
        }
    }

    fn drained_updates(drained: Vec<(Time, Vec<QueuedUpdate>)>) -> Vec<(Time, Vec<ObjectUpdate>)> {
        drained
            .into_iter()
            .map(|(t, b)| (t, b.into_iter().map(|q| q.update).collect()))
            .collect()
    }

    #[test]
    fn coalesces_per_tick_in_order() {
        let mut q = IngestQueue::new(100, 80, 40, 0.0);
        assert_eq!(q.submit(update(1), 2.0), IngestOutcome::Accepted);
        assert_eq!(q.submit(update(2), 1.0), IngestOutcome::Accepted);
        assert_eq!(q.submit(update(3), 2.0), IngestOutcome::Accepted);
        assert_eq!(q.batches.len(), 2);
        let drained = drained_updates(q.drain_through(2.0));
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].0, 1.0);
        assert_eq!(drained[0].1.len(), 1);
        assert_eq!(drained[1].0, 2.0);
        assert_eq!(drained[1].1.len(), 2);
        // Batch order preserves submission order within the tick.
        assert_eq!(drained[1].1[0].id, ObjectId(1));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn drain_only_takes_due_ticks() {
        let mut q = IngestQueue::new(100, 80, 40, 0.0);
        q.submit(update(1), 1.0);
        q.submit(update(2), 5.0);
        let drained = q.drain_through(3.0);
        assert_eq!(drained.len(), 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.drain_through(5.0).len(), 1);
    }

    #[test]
    fn watermark_hysteresis() {
        let mut q = IngestQueue::new(10, 4, 2, 0.0);
        for i in 0..4 {
            assert_eq!(q.submit(update(i), 1.0), IngestOutcome::Accepted);
        }
        // Reached the high watermark: closed.
        assert!(!q.is_accepting());
        assert_eq!(q.submit(update(9), 1.0), IngestOutcome::QueueFull);

        // A partial drain that leaves pending above low keeps it closed.
        q.submit_unchecked_for_test(2.0, 3);
        assert_eq!(q.drain_through(1.0).len(), 1);
        assert_eq!(q.len(), 3);
        assert!(!q.is_accepting());
        assert_eq!(q.submit(update(9), 2.5), IngestOutcome::QueueFull);

        // Draining to ≤ low re-opens.
        q.drain_through(2.0);
        assert!(q.is_accepting());
        assert_eq!(q.submit(update(9), 3.0), IngestOutcome::Accepted);
    }

    #[test]
    fn hard_capacity_refuses_even_when_accepting() {
        let mut q = IngestQueue::new(3, 3, 0, 0.0);
        for i in 0..3 {
            assert_eq!(q.submit(update(i), 1.0), IngestOutcome::Accepted);
        }
        assert_eq!(q.submit(update(9), 1.0), IngestOutcome::QueueFull);
    }

    #[test]
    fn stale_ticks_are_refused() {
        let mut q = IngestQueue::new(10, 8, 4, 5.0);
        assert_eq!(q.submit(update(1), 5.0), IngestOutcome::Stale);
        assert_eq!(q.submit(update(1), 4.0), IngestOutcome::Stale);
        assert_eq!(q.submit(update(1), 6.0), IngestOutcome::Accepted);
        q.drain_through(6.0);
        assert_eq!(q.submit(update(2), 6.0), IngestOutcome::Stale);
        // Draining past empty ticks also advances the stale frontier.
        q.drain_through(9.0);
        assert_eq!(q.submit(update(2), 8.0), IngestOutcome::Stale);
        assert_eq!(q.submit(update(2), 10.0), IngestOutcome::Accepted);
    }

    // ------------------------------------------------------------------
    // Watermark-hysteresis edge cases
    // ------------------------------------------------------------------

    #[test]
    fn degenerate_low_equals_high_watermark() {
        // low == high == 4: the queue closes at 4 pending and re-opens
        // on the very next drain call even if nothing was removed
        // (pending 4 ≤ low 4). Degenerate hysteresis is defined, not UB.
        let mut q = IngestQueue::new(10, 4, 4, 0.0);
        for i in 0..4 {
            assert_eq!(q.submit(update(i), 2.0), IngestOutcome::Accepted);
        }
        assert!(!q.is_accepting());
        assert_eq!(q.submit(update(9), 2.0), IngestOutcome::QueueFull);
        // A drain that removes nothing (no batch due at 1.0) still
        // re-opens: pending == low.
        assert!(q.drain_through(1.0).is_empty());
        assert!(q.is_accepting());
        assert_eq!(q.len(), 4);
        // And the next accepted submission immediately closes it again.
        assert_eq!(q.submit(update(9), 2.0), IngestOutcome::Accepted);
        assert!(!q.is_accepting());
    }

    #[test]
    fn stale_frontier_advance_and_reopen_on_same_drain() {
        // One drain call both re-opens the queue (watermark crossing)
        // and advances the stale frontier past tick 3: a producer whose
        // submission was just refused cannot blindly resubmit for the
        // same tick after the queue reopens — staleness wins over
        // acceptance.
        let mut q = IngestQueue::new(10, 3, 1, 0.0);
        for i in 0..3 {
            assert_eq!(q.submit(update(i), 3.0), IngestOutcome::Accepted);
        }
        assert!(!q.is_accepting());
        assert_eq!(q.submit(update(7), 3.0), IngestOutcome::QueueFull);
        let drained = q.drain_through(3.0);
        assert_eq!(drained.len(), 1);
        assert!(q.is_accepting());
        // Reopened, but tick 3 is now behind the frontier: Stale, not
        // Accepted — the stale check precedes the acceptance check.
        assert_eq!(q.submit(update(7), 3.0), IngestOutcome::Stale);
        assert_eq!(q.submit(update(7), 4.0), IngestOutcome::Accepted);
    }

    #[test]
    fn reentry_flapping_alternates_per_submit_when_degenerate() {
        // With low == high == 1 every accepted submission closes the
        // queue and every drain re-opens it: maximal flapping. Pin the
        // exact flip sequence (the service-level test pins the cij-obs
        // flip counters for the same pattern).
        let mut q = IngestQueue::new(4, 1, 1, 0.0);
        let mut flips = 0u32;
        let mut was = q.is_accepting();
        for tick in 1..=6 {
            let t = f64::from(tick);
            assert_eq!(q.submit(update(tick as u64), t), IngestOutcome::Accepted);
            if q.is_accepting() != was {
                flips += 1;
                was = q.is_accepting();
            }
            assert!(!q.is_accepting(), "tick {tick}: closed after submit");
            q.drain_through(t);
            if q.is_accepting() != was {
                flips += 1;
                was = q.is_accepting();
            }
            assert!(q.is_accepting(), "tick {tick}: reopened after drain");
        }
        assert_eq!(flips, 12, "one engage + one release per tick");
    }

    #[test]
    fn equal_watermarks_collapse_hysteresis_to_a_threshold() {
        // low == high: the hysteresis band is empty, so ANY drain call
        // reopens the queue — even one that removed nothing — and the
        // next accepted submission closes it again. The flap rate
        // degrades to the submit/drain cadence, exactly as documented.
        let mut q = IngestQueue::new(10, 3, 3, 0.0);
        assert_eq!(q.submit(update(1), 1.0), IngestOutcome::Accepted);
        assert_eq!(q.submit(update(2), 1.5), IngestOutcome::Accepted);
        assert_eq!(q.submit(update(3), 2.0), IngestOutcome::Accepted);
        assert!(!q.is_accepting(), "pending == high must close");
        // Drains nothing (every batch sits past 0.5) — but pending ≤
        // low, so the queue reopens anyway.
        assert!(q.drain_through(0.5).is_empty());
        assert!(q.is_accepting(), "empty band: any drain reopens");
        assert_eq!(q.submit(update(4), 2.5), IngestOutcome::Accepted);
        assert!(!q.is_accepting(), "4 ≥ high closes again");
        assert_eq!(q.drain_through(2.5).len(), 4);
        assert!(q.is_accepting());
    }

    #[test]
    fn stale_frontier_advance_and_reopening_share_one_drain() {
        // A single drain_through call both advances the stale frontier
        // and releases backpressure. Afterwards the frontier must win:
        // a submission at (or before) the drained tick is Stale, never
        // Accepted, even though the queue just reopened.
        let mut q = IngestQueue::new(4, 2, 1, 0.0);
        assert_eq!(q.submit(update(1), 1.0), IngestOutcome::Accepted);
        assert_eq!(q.submit(update(2), 2.0), IngestOutcome::Accepted);
        assert!(!q.is_accepting());
        assert_eq!(q.drain_through(2.0).len(), 2);
        assert!(q.is_accepting(), "one call: frontier forward + reopen");
        assert_eq!(q.submit(update(3), 2.0), IngestOutcome::Stale);
        assert_eq!(q.submit(update(3), 1.5), IngestOutcome::Stale);
        assert_eq!(q.submit(update(3), 2.1), IngestOutcome::Accepted);
    }

    #[test]
    fn stale_beats_supersession_and_supersession_beats_queue_full() {
        // Refusal precedence on a closed queue under DropStalePerObject:
        // the stale frontier is checked first (a drained tick can never
        // be re-entered, not even by superseding), then supersession
        // admissibility (pending tick ≤ submission tick), then
        // QueueFull.
        let mut q = IngestQueue::new(4, 2, 1, 0.0);
        assert_eq!(q.submit(update(1), 1.0), IngestOutcome::Accepted);
        assert_eq!(q.submit(update(2), 2.0), IngestOutcome::Accepted);
        assert_eq!(q.drain_through(2.0).len(), 2);
        assert_eq!(q.submit(update(1), 3.0), IngestOutcome::Accepted);
        assert_eq!(q.submit(update(2), 3.0), IngestOutcome::Accepted);
        assert!(!q.is_accepting());
        // Stale wins even though object 2 has a pending update it could
        // otherwise supersede.
        assert_eq!(q.submit(update(2), 2.0), IngestOutcome::Stale);
        // Fresh but EARLIER than the pending tick: supersession refused
        // (the pending update is newer), so the closed queue says full.
        assert_eq!(q.submit(update(2), 2.5), IngestOutcome::QueueFull);
        // Fresh and at/after the pending tick: superseded.
        assert_eq!(q.submit(update(2), 3.5), IngestOutcome::Accepted);
        assert_eq!(q.shed_dropped_stale(), 1);
        // Supersession keeps pending constant: the closed queue must
        // NOT reopen from it (the watermark state cannot flip here).
        assert!(
            !q.is_accepting(),
            "supersession must not release backpressure"
        );
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drop_stale_replaces_the_latest_pending_update() {
        let mut q = IngestQueue::new(4, 2, 1, 0.0);
        // Object 1 moves to x = 10 at tick 1, then to x = 20 at tick 2.
        assert_eq!(q.submit(moved_to(1, 10.0), 1.0), IngestOutcome::Accepted);
        assert_eq!(q.submit(moved_to(2, 60.0), 1.0), IngestOutcome::Accepted);
        assert!(!q.is_accepting(), "high watermark reached");
        // Closed — but object 1 has a pending update, so the fresh one
        // replaces it instead of being refused.
        let fresh = moved_to(1, 20.0);
        assert_eq!(q.submit(fresh, 2.0), IngestOutcome::Accepted);
        assert_eq!(q.shed_dropped_stale(), 1);
        assert_eq!(q.len(), 2, "supersede keeps pending count unchanged");
        // Object 3 has nothing pending: refused.
        assert_eq!(q.submit(moved_to(3, 1.0), 2.0), IngestOutcome::QueueFull);
        let drained = drained_updates(q.drain_through(2.0));
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[1], (2.0, vec![fresh]), "a plain replacement");
        assert_eq!(q.len(), 0);
        assert!(q.latest_pending.is_empty(), "supersede index fully drained");
    }

    #[test]
    fn drop_stale_refuses_when_pending_is_newer() {
        let mut q = IngestQueue::new(2, 2, 0, 0.0);
        assert_eq!(q.submit(update(1), 5.0), IngestOutcome::Accepted);
        assert_eq!(q.submit(update(2), 5.0), IngestOutcome::Accepted);
        assert!(!q.is_accepting());
        // Out-of-order arrival for an *earlier* tick than the pending
        // update: superseding backwards would reorder time — refuse.
        assert_eq!(q.submit(update(1), 3.0), IngestOutcome::QueueFull);
        assert_eq!(q.shed_dropped_stale(), 0);
    }

    #[test]
    fn drop_stale_replaces_only_the_latest_of_several_pendings() {
        // Object 1 pending at ticks 1 (to x = 10) and 2 (to x = 20); the
        // submission at tick 3 (to x = 30) replaces the *latest* pending
        // (tick 2) and leaves the tick-1 update untouched.
        let mut q = IngestQueue::new(3, 3, 0, 0.0);
        assert_eq!(q.submit(moved_to(1, 10.0), 1.0), IngestOutcome::Accepted);
        assert_eq!(q.submit(moved_to(1, 20.0), 2.0), IngestOutcome::Accepted);
        assert_eq!(q.submit(moved_to(9, 1.0), 1.0), IngestOutcome::Accepted);
        assert!(!q.is_accepting(), "at hard capacity");
        assert_eq!(q.submit(moved_to(1, 30.0), 3.0), IngestOutcome::Accepted);
        let drained = drained_updates(q.drain_through(3.0));
        let ones: Vec<&ObjectUpdate> = drained
            .iter()
            .flat_map(|(_, b)| b.iter())
            .filter(|u| u.id == ObjectId(1))
            .collect();
        assert_eq!(ones.len(), 2);
        assert_eq!(ones[0].new_mbr.at(0.0).lo[0], 10.0); // tick 1 untouched
        assert_eq!(ones[1].new_mbr.at(0.0).lo[0], 30.0); // the replacement
    }

    impl IngestQueue {
        /// Pops every batch with tick ≤ `t`, in tick order, then closes
        /// through `t` — what one `advance_to` does when every batch is
        /// applied.
        fn drain_through(&mut self, t: Time) -> Vec<(Time, Vec<QueuedUpdate>)> {
            let out = std::iter::from_fn(|| self.pop_due(t)).collect();
            self.close_through(t);
            out
        }

        /// Test helper: force-enqueue `n` updates at `at`, bypassing
        /// the admission gate (`enqueue` still applies the high-water
        /// closing rule, which is what the hysteresis tests rely on).
        fn submit_unchecked_for_test(&mut self, at: Time, n: usize) {
            for i in 0..n {
                self.enqueue(update(1000 + i as u64), at);
            }
        }
    }
}
