//! The streaming service: ingestion, journaling, delta extraction and
//! subscription delivery around one join engine.
//!
//! Per [`advance_to`](StreamService::advance_to) call the service
//! drains the due update batches in tick order and, for each: journals
//! the batch to the write-ahead log (durability *before* application),
//! applies it to the engine, garbage-collects, extracts the result
//! deltas and routes them to every subscriber's outbox. A crash between
//! the journal write and anything later is therefore recoverable: the
//! WAL replay in [`recover`](StreamService::recover) reapplies the
//! durable prefix and lands on exactly the state the pre-crash service
//! had after its last completed batch.
//!
//! The service keeps no per-object state of its own: it reads the
//! engine's [`Registrations`](cij_core::Registrations) table — every
//! live object's side, the trajectory the engine indexes and the tick it
//! was registered. A producer sends the new trajectory, and nothing else
//! it sends is trusted: the engine derives every delete from its table,
//! so the journal records each update as its object and new trajectory
//! alone. Retirements, window filters and resync snapshots read the
//! table too.

use cij_core::{ContinuousJoinEngine, EngineConfig, PairKey};
use cij_geom::Time;
use cij_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use cij_storage::Wal;
use cij_tpr::{ObjectId, TprError, TprResult};
use cij_workload::{MovingObject, ObjectUpdate};

use crate::config::StreamConfig;
use crate::delta::DeltaExtractor;
use crate::error::{StreamError, StreamResult};
use crate::event::{OutboxItem, StampedDelta};
use crate::ingest::{IngestOutcome, IngestQueue, QueuedUpdate};
use crate::subscribe::{SubscriberId, SubscriptionFilter, SubscriptionRegistry};
use crate::wire::WalRecord;

/// Builds a join engine over the genesis object sets. The service calls
/// it once at construction and once per [`StreamService::recover`]; it
/// must be deterministic in its arguments for recovery to reproduce the
/// pre-crash engine exactly.
pub type EngineFactory<'a> = &'a dyn Fn(
    &EngineConfig,
    &[MovingObject],
    &[MovingObject],
    Time,
) -> TprResult<Box<dyn ContinuousJoinEngine>>;

/// What a WAL replay found and rebuilt.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Update batches reapplied from the log.
    pub batches_replayed: usize,
    /// The tick of the last durable batch (the recovered service's
    /// current time).
    pub last_tick: Time,
    /// Whether a torn record was truncated from the log tail — `true`
    /// is the expected outcome of a mid-write crash, not an error.
    pub tail_truncated: bool,
    /// Subscribers restored (their outboxes restart with a gap marker
    /// and a catch-up snapshot).
    pub subscribers: usize,
}

/// Event-driven streaming wrapper around one [`ContinuousJoinEngine`].
pub struct StreamService {
    config: StreamConfig,
    engine: Box<dyn ContinuousJoinEngine>,
    extractor: DeltaExtractor,
    queue: IngestQueue,
    registry: SubscriptionRegistry,
    wal: Option<Wal>,
    now: Time,
    /// Observability handles, shared with the engine's registry (all
    /// no-ops when `config.engine.metrics` is off).
    obs: ServiceMetrics,
}

/// The service's recording handles. Cloned from the engine's registry at
/// construction; every handle is a no-op when metrics are disabled, so
/// the hot paths pay one branch per record call and nothing else.
struct ServiceMetrics {
    registry: MetricsRegistry,
    queue_depth: Gauge,
    backpressure_engaged: Counter,
    backpressure_released: Counter,
    submissions_accepted: Counter,
    submissions_refused: Counter,
    batches_applied: Counter,
    deltas_emitted: Counter,
    subscriber_dropped: Counter,
    /// Pending updates superseded while the queue was closed (live
    /// mirror of the queue's counter).
    shed_dropped_stale: Counter,
    /// Objects retired via [`StreamService::retire_object`].
    objects_retired: Counter,
    /// Wall-clock nanoseconds from acceptance to application, one
    /// observation per applied update.
    ingest_latency: Histogram,
    /// Queue depth observed at each submission (the distribution behind
    /// the `stream.queue.depth` point gauge).
    queue_depth_hist: Histogram,
}

impl ServiceMetrics {
    fn new(registry: MetricsRegistry) -> Self {
        Self {
            queue_depth: registry.gauge("stream.queue.depth"),
            backpressure_engaged: registry.counter("stream.backpressure.engaged"),
            backpressure_released: registry.counter("stream.backpressure.released"),
            submissions_accepted: registry.counter("stream.submissions.accepted"),
            submissions_refused: registry.counter("stream.submissions.refused"),
            batches_applied: registry.counter("stream.batches_applied"),
            deltas_emitted: registry.counter("stream.deltas_emitted"),
            subscriber_dropped: registry.counter("stream.subscribers.dropped_deltas"),
            shed_dropped_stale: registry.counter("stream.shed.dropped_stale"),
            objects_retired: registry.counter("stream.objects.retired"),
            ingest_latency: registry.histogram("stream.ingest.latency_ns"),
            queue_depth_hist: registry.histogram("stream.ingest.queue_depth"),
            registry,
        }
    }

    /// Counts an accepting→refusing (or back) flip of the ingest queue.
    fn record_backpressure_flip(&self, was_accepting: bool, is_accepting: bool) {
        if was_accepting && !is_accepting {
            self.backpressure_engaged.inc();
        } else if !was_accepting && is_accepting {
            self.backpressure_released.inc();
        }
    }
}

impl StreamService {
    /// Builds the service: constructs the engine from the genesis sets
    /// via `build_engine`, runs the initial join at `start`, and (when
    /// [`wal_path`](StreamConfig::wal_path) is set) starts a fresh
    /// journal whose first record is the genesis itself.
    ///
    /// The initial join's pairs are *not* reported here — they surface
    /// as `PairAdded` deltas on the first [`advance_to`](Self::advance_to),
    /// so a subscriber replaying from the beginning starts from the
    /// empty set like any other replay.
    ///
    /// # Errors
    /// [`StreamError::InvalidConfig`] when a capacity in `config` is zero
    /// (see [`StreamConfig::is_valid`]) or an
    /// `ObjectId` appears twice across `set_a ∪ set_b`;
    /// [`StreamError::Engine`]/[`StreamError::Storage`] when engine
    /// construction or the journal fails.
    pub fn new(
        config: StreamConfig,
        set_a: &[MovingObject],
        set_b: &[MovingObject],
        start: Time,
        build_engine: EngineFactory<'_>,
    ) -> StreamResult<Self> {
        Self::check(&config)?;
        let mut service = Self::from_genesis(config, set_a, set_b, start, build_engine)?;
        if let Some(path) = &service.config.wal_path {
            service.attach_wal(Wal::create(path)?);
            service.journal(|| {
                WalRecord::Genesis {
                    start,
                    set_a: set_a.to_vec(),
                    set_b: set_b.to_vec(),
                }
                .encode()
            })?;
        }
        Ok(service)
    }

    /// Rebuilds a service from its write-ahead log after a crash.
    ///
    /// The log is opened with torn-tail truncation (a record cut short
    /// by the crash is discarded), the engine is rebuilt from the
    /// genesis record and every durable batch is reapplied in order.
    /// Restored subscribers keep their ids and filters but not their
    /// undelivered outboxes: each restarts with a
    /// [`Gap`](OutboxItem::Gap) marker followed by a catch-up snapshot
    /// of the currently reported pairs, after which deltas flow
    /// incrementally again.
    ///
    /// # Errors
    /// [`StreamError::MissingWalPath`] when `config.wal_path` is `None`;
    /// [`StreamError::CorruptJournal`] when the durable prefix is not a
    /// valid journal (no genesis, non-genesis first record, duplicate
    /// genesis, undecodable record); [`StreamError::InvalidConfig`] /
    /// [`StreamError::Storage`] / [`StreamError::Engine`] as in
    /// [`new`](Self::new). A torn *tail* is not an error — it is
    /// truncated and reported via
    /// [`RecoveryReport::tail_truncated`].
    pub fn recover(
        config: StreamConfig,
        build_engine: EngineFactory<'_>,
    ) -> StreamResult<(Self, RecoveryReport)> {
        Self::check(&config)?;
        let path = config
            .wal_path
            .as_ref()
            .ok_or(StreamError::MissingWalPath)?;
        let (wal, recovery) = Wal::open(path)?;

        let mut records = recovery.records.iter();
        let genesis = records
            .next()
            .ok_or_else(|| StreamError::CorruptJournal("no durable genesis record".into()))?;
        let (start, set_a, set_b) = match Self::decode_journal(genesis)? {
            WalRecord::Genesis {
                start,
                set_a,
                set_b,
            } => (start, set_a, set_b),
            other => {
                return Err(StreamError::CorruptJournal(format!(
                    "first record is a {}, not a genesis",
                    other.kind()
                )))
            }
        };
        let mut service = Self::from_genesis(config, &set_a, &set_b, start, build_engine)?;
        service.attach_wal(wal);

        let mut batches_replayed = 0usize;
        {
            let _span = service.obs.registry.span("phase.wal_replay");
            for payload in records {
                match Self::decode_journal(payload)? {
                    WalRecord::Genesis { .. } => {
                        return Err(StreamError::CorruptJournal(
                            "duplicate genesis record".into(),
                        ));
                    }
                    WalRecord::Batch { at, updates } => {
                        // The engine derives every delete key from its
                        // registrations and reads none of these.
                        let registrations = service.engine.registrations();
                        let updates = (updates.iter())
                            .map(|o| match registrations.get(&o.id) {
                                Some(r) => Ok(ObjectUpdate {
                                    id: o.id,
                                    set: r.set,
                                    old_mbr: r.mbr,
                                    last_update: r.registered_at,
                                    new_mbr: o.mbr,
                                }),
                                None => Err(StreamError::CorruptJournal(format!(
                                    "batch at {at} updates unknown object {:?}",
                                    o.id
                                ))),
                            })
                            .collect::<StreamResult<Vec<_>>>()?;
                        service.apply_batch(at, &updates)?;
                        // The queue's stale frontier follows the replayed clock.
                        service.queue.close_through(at);
                        service.now = at;
                        batches_replayed += 1;
                    }
                    WalRecord::Subscribe { id, filter } => {
                        service.registry.insert_with_id(id, filter)
                    }
                    WalRecord::Unsubscribe { id } => {
                        service.registry.unsubscribe(id);
                    }
                    WalRecord::Retire { at, id, .. } => {
                        if !service.engine.registrations().contains_key(&id) {
                            return Err(StreamError::CorruptJournal(format!(
                                "retire record for unknown object {id:?}"
                            )));
                        }
                        service.apply_retire(id, at)?;
                    }
                }
            }
        }
        service
            .obs
            .registry
            .counter("stream.recovery.batches_replayed")
            .store(batches_replayed as u64);

        // Undelivered outboxes died with the crashed process: every
        // restored subscriber gets a gap marker (count 1 — a lower
        // bound, the true loss is unknowable) and a catch-up snapshot.
        let current = service.extractor.current();
        let registrations = service.engine.registrations();
        for id in service.registry.ids() {
            (service.registry).reseed(id, 1, service.now, &current, registrations);
        }
        service
            .obs
            .subscriber_dropped
            .store(service.registry.total_dropped());

        let report = RecoveryReport {
            batches_replayed,
            last_tick: service.now,
            tail_truncated: recovery.tail_corrupt,
            subscribers: service.registry.len(),
        };
        Ok((service, report))
    }

    /// Refuses a configuration with a zero capacity.
    fn check(config: &StreamConfig) -> StreamResult<()> {
        if config.is_valid() {
            return Ok(());
        }
        Err(StreamError::InvalidConfig(format!(
            "need nonzero queue and outbox capacities, got {config:?}"
        )))
    }

    /// The service at `start`, before anything is journaled: the engine
    /// built from the genesis sets, the initial join run, no journal and
    /// no subscribers. Both [`new`](Self::new) and
    /// [`recover`](Self::recover) start here. Every later update is
    /// routed by `ObjectId` alone, so an id that appears twice across
    /// `set_a ∪ set_b` (say a window on side B sharing an id with a fleet
    /// object on side A) — which the engine refuses to register — is
    /// refused as a configuration error.
    fn from_genesis(
        config: StreamConfig,
        set_a: &[MovingObject],
        set_b: &[MovingObject],
        start: Time,
        build_engine: EngineFactory<'_>,
    ) -> StreamResult<Self> {
        let mut engine =
            build_engine(&config.engine, set_a, set_b, start).map_err(|e| match e {
                TprError::DuplicateObject(id) => StreamError::InvalidConfig(format!(
                    "object ids must be unique across both sets, but {id:?} appears twice"
                )),
                e => StreamError::Engine(e),
            })?;
        engine.enable_delta_tracking();
        engine.run_initial_join(start)?;
        Ok(Self {
            obs: ServiceMetrics::new(engine.metrics_registry()),
            queue: IngestQueue::new(
                config.batch_capacity,
                config.high_watermark(),
                config.low_watermark(),
                start,
            ),
            registry: SubscriptionRegistry::new(config.outbox_capacity),
            config,
            engine,
            extractor: DeltaExtractor::new(),
            wal: None,
            now: start,
        })
    }

    /// Journals every later record to `wal`, whose counters join the
    /// service's metrics.
    fn attach_wal(&mut self, wal: Wal) {
        wal.stats().register_in(&self.obs.registry, "stream.wal");
        self.wal = Some(wal);
    }

    /// Decodes one journal payload for replay, folding the wire layer's
    /// typed errors (bad magic, version mismatch, corrupt body) and a
    /// record no engine can be handed ([`WalRecord::is_sound`]) into
    /// [`StreamError::CorruptJournal`] so callers see one typed "bad
    /// journal" condition. The cause's own message — which names the
    /// exact mismatch — is preserved inside it.
    fn decode_journal(payload: &[u8]) -> StreamResult<WalRecord> {
        let record = WalRecord::decode(payload)
            .map_err(|e| StreamError::CorruptJournal(format!("undecodable record: {e}")))?;
        if !record.is_sound() {
            return Err(StreamError::CorruptJournal(format!(
                "{} record with an out-of-range time or an unsound trajectory",
                record.kind()
            )));
        }
        Ok(record)
    }

    /// Offers one update for tick `at`. The caller must handle the
    /// outcome — [`QueueFull`](IngestOutcome::QueueFull) is the
    /// backpressure signal, not an error.
    pub fn submit(&mut self, update: ObjectUpdate, at: Time) -> IngestOutcome {
        let was_accepting = self.queue.is_accepting();
        let outcome = self.queue.submit(update, at);
        match outcome {
            IngestOutcome::QueueFull => self.obs.submissions_refused.inc(),
            _ => self.obs.submissions_accepted.inc(),
        }
        self.obs.queue_depth.set(self.queue.len() as i64);
        self.obs.queue_depth_hist.record(self.queue.len() as u64);
        self.obs
            .shed_dropped_stale
            .store(self.queue.shed_dropped_stale());
        self.obs
            .record_backpressure_flip(was_accepting, self.queue.is_accepting());
        outcome
    }

    /// Advances the service clock to `t`: drains every queued batch
    /// with tick ≤ `t` one at a time (journal → apply → extract →
    /// deliver, in tick order), then runs a final extraction at `t`
    /// itself so that interval expiries between the last batch and `t`
    /// are reported. Returns the full delta stream of this call in
    /// emission order — the same stamped deltas the subscribers receive
    /// (pre-filter).
    ///
    /// Calls with `t` at or before the current clock are no-ops.
    ///
    /// # Errors
    /// A refused batch is discarded, unjournaled; the clock stays at the
    /// last batch applied, and the batches after the refused one stay
    /// queued for the next call. Before anything of the batch is
    /// journaled or applied:
    /// [`StreamError::Engine`] with [`TprError::ObjectNotFound`] when a
    /// due update names an object the engine does not hold (never
    /// registered, or retired), and [`StreamError::InvalidUpdate`] when a
    /// due update is one recovery would refuse to replay — a NaN or
    /// infinite component, an unordered bound or a reference time past
    /// its tick. Afterwards: [`StreamError::Storage`] when journaling
    /// fails, [`StreamError::Engine`] when the wrapped engine fails.
    pub fn advance_to(&mut self, t: Time) -> StreamResult<Vec<StampedDelta>> {
        if t <= self.now {
            return Ok(Vec::new());
        }
        let was_accepting = self.queue.is_accepting();
        let mut out = Vec::new();
        let mut last_extracted = self.now;
        while let Some((at, queued)) = self.queue.pop_due(t) {
            let applied = std::time::Instant::now();
            let updates: Vec<ObjectUpdate> = queued.iter().map(|q| q.update).collect();
            self.record_ingest_observations(&queued, applied);
            let registrations = self.engine.registrations();
            if let Some(u) = updates.iter().find(|u| !registrations.contains_key(&u.id)) {
                return Err(TprError::ObjectNotFound(u.id).into());
            }
            // The predicate recovery holds every journaled batch against
            // (`WalRecord::is_sound`): what fails it here would make the
            // journal unrecoverable from this batch on.
            if let Some(u) = updates.iter().find(|u| !u.new_mbr.is_sound_from(at)) {
                return Err(StreamError::InvalidUpdate(format!(
                    "update of {:?} at {at} has an out-of-range time or an unsound trajectory",
                    u.id
                )));
            }
            self.journal(|| {
                let updates = (updates.iter())
                    .map(|u| MovingObject {
                        id: u.id,
                        mbr: u.new_mbr,
                    })
                    .collect();
                WalRecord::Batch { at, updates }.encode()
            })?;
            let deltas = self.apply_batch(at, &updates)?;
            self.obs.batches_applied.inc();
            self.emit(at, deltas, &mut out);
            self.now = at;
            last_extracted = at;
        }
        self.queue.close_through(t);
        if last_extracted < t {
            // No batch exactly at `t`: still extract, so expiries and
            // activations due by `t` reach subscribers on time.
            let deltas = self.apply_batch(t, &[])?;
            self.emit(t, deltas, &mut out);
        }
        self.now = t;
        self.obs.queue_depth.set(self.queue.len() as i64);
        self.obs
            .record_backpressure_flip(was_accepting, self.queue.is_accepting());
        Ok(out)
    }

    /// Per-update wall-clock acceptance→application latency for one
    /// drained batch.
    fn record_ingest_observations(&self, queued: &[QueuedUpdate], applied: std::time::Instant) {
        if !self.obs.registry.is_enabled() {
            return;
        }
        for q in queued {
            let nanos = applied
                .saturating_duration_since(q.enqueued)
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64;
            self.obs.ingest_latency.record(nanos);
        }
    }

    /// One batch through the engine: advance, apply, gc, extract. Shared
    /// verbatim between live operation and WAL replay — the property the
    /// recovery guarantee rests on.
    fn apply_batch(
        &mut self,
        at: Time,
        updates: &[ObjectUpdate],
    ) -> TprResult<Vec<crate::event::ResultDelta>> {
        let engine = self.engine.as_mut();
        engine.advance_time(at)?;
        // One engine call per tick batch: plain engines run the default
        // sequential loop, buffered engines two phases, the dist
        // coordinator one step per worker (identical results every way) —
        // so WAL replay and live ingestion share one code path regardless
        // of engine shape.
        engine.apply_batch(updates, at)?;
        engine.gc(at);
        Ok(self.extractor.extract(engine, at))
    }

    /// One retirement through the engine, which deletes by the object's
    /// registration. Shared verbatim between
    /// [`retire_object`](Self::retire_object) and WAL replay — the same
    /// property `apply_batch` keeps.
    fn apply_retire(&mut self, id: ObjectId, at: Time) -> TprResult<()> {
        self.engine.remove_object(id, at)
    }

    fn emit(
        &mut self,
        at: Time,
        deltas: Vec<crate::event::ResultDelta>,
        out: &mut Vec<StampedDelta>,
    ) {
        let stamped: Vec<StampedDelta> = deltas
            .into_iter()
            .map(|delta| StampedDelta { at, delta })
            .collect();
        self.obs.deltas_emitted.add(stamped.len() as u64);
        self.registry.deliver(&stamped, self.engine.registrations());
        self.obs
            .subscriber_dropped
            .store(self.registry.total_dropped());
        out.extend(stamped);
    }

    /// Appends one record to the journal and syncs it. Without a journal
    /// the record is never built.
    fn journal(&mut self, payload: impl FnOnce() -> Vec<u8>) -> StreamResult<()> {
        if let Some(wal) = &mut self.wal {
            wal.append(&payload())?;
            wal.sync()?;
        }
        Ok(())
    }

    /// Retires an object: removes it from the engine's indexes (its
    /// pairs surface as `PairRemoved` deltas on the next
    /// [`advance_to`](Self::advance_to)), journals the retirement, and
    /// the engine drops its registration — which keeps the table bounded
    /// by the live population. Returns `false` for objects the engine does
    /// not hold.
    ///
    /// Retirement is refused while the object has a queued-but-unapplied
    /// update: that update would then name an object the service no
    /// longer holds. Drain the queue past the pending tick first.
    ///
    /// # Errors
    /// [`StreamError::InvalidConfig`] when an update for the object is
    /// still pending; [`StreamError::Engine`] when the engine cannot
    /// remove the object (e.g. an engine without routed single-object
    /// deletes); [`StreamError::Storage`] when journaling fails.
    pub fn retire_object(&mut self, id: ObjectId) -> StreamResult<bool> {
        if !self.engine.registrations().contains_key(&id) {
            return Ok(false);
        }
        if self.queue.has_pending(id) {
            return Err(StreamError::InvalidConfig(format!(
                "cannot retire {id:?}: an update for it is still queued"
            )));
        }
        let at = self.now;
        self.journal(|| WalRecord::Retire { at, id }.encode())?;
        self.apply_retire(id, at)?;
        self.obs.objects_retired.inc();
        Ok(true)
    }

    /// Registers a subscriber. Its outbox starts with a catch-up
    /// snapshot of the currently reported pairs (filtered), so replaying
    /// its deliveries yields the live result without a full-stream
    /// replay from genesis.
    ///
    /// # Errors
    /// [`StreamError::InvalidFilter`] for a window with a NaN, infinite or
    /// inverted bound; [`StreamError::Storage`] when journaling the
    /// subscription fails — in both cases nothing was registered.
    pub fn subscribe(&mut self, filter: SubscriptionFilter) -> StreamResult<SubscriberId> {
        filter.check().map_err(StreamError::InvalidFilter)?;
        // Journal first, apply after, like a batch: a subscriber the log
        // never heard of must not exist in memory either.
        let id = self.registry.next_id();
        self.journal(|| WalRecord::Subscribe { id, filter }.encode())?;
        self.registry.insert_with_id(id, filter);
        let current = self.extractor.current();
        (self.registry).reseed(id, 0, self.now, &current, self.engine.registrations());
        Ok(id)
    }

    /// Removes a subscriber. Returns whether it existed.
    ///
    /// # Errors
    /// [`StreamError::Storage`] when journaling the removal fails; the
    /// subscriber then stays registered.
    pub fn unsubscribe(&mut self, id: SubscriberId) -> StreamResult<bool> {
        if self.registry.filter(id).is_none() {
            return Ok(false);
        }
        self.journal(|| WalRecord::Unsubscribe { id }.encode())?;
        Ok(self.registry.unsubscribe(id))
    }

    /// Drains a subscriber's outbox (leading with a
    /// [`Gap`](OutboxItem::Gap) marker if deliveries were dropped).
    /// `None` for unknown ids.
    pub fn poll(&mut self, id: SubscriberId) -> Option<Vec<OutboxItem>> {
        self.registry.poll(id)
    }

    /// Rebuilds a subscriber's view after it detected a gap: clears its
    /// outbox and seeds a fresh filtered snapshot of the currently
    /// reported pairs. Returns whether the subscriber exists.
    pub fn resync(&mut self, id: SubscriberId) -> bool {
        let current = self.extractor.current();
        (self.registry).reseed(id, 0, self.now, &current, self.engine.registrations())
    }

    /// The engine's reported pairs at instant `t` (valid for `t` at or
    /// after the current clock, like the engine method itself).
    #[must_use]
    pub fn result_at(&self, t: Time) -> Vec<PairKey> {
        self.engine.result_at(t)
    }

    /// The service clock — the tick of the last completed
    /// [`advance_to`](Self::advance_to) (or batch replay).
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The wrapped engine's name.
    #[must_use]
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    /// Queued-but-unapplied updates.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the ingestion queue currently accepts submissions.
    #[must_use]
    pub fn is_accepting(&self) -> bool {
        self.queue.is_accepting()
    }

    /// Pending updates superseded while the queue was closed, so far
    /// (cumulative; see [`ShedPolicy`](crate::ShedPolicy)).
    #[must_use]
    pub fn shed_dropped_stale(&self) -> u64 {
        self.queue.shed_dropped_stale()
    }

    /// Number of registered subscribers.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.registry.len()
    }

    /// A subscriber's filter, if registered.
    #[must_use]
    pub fn subscriber_filter(&self, id: SubscriberId) -> Option<SubscriptionFilter> {
        self.registry.filter(id)
    }

    /// Number of pairs currently reported to the delta stream.
    #[must_use]
    pub fn reported_pairs(&self) -> usize {
        self.extractor.reported_len()
    }

    /// The service configuration.
    #[must_use]
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The metrics registry shared with the wrapped engine (disabled —
    /// all handles no-ops — unless `config.engine.metrics` is set).
    #[must_use]
    pub fn metrics_registry(&self) -> MetricsRegistry {
        self.obs.registry.clone()
    }

    /// Publishes the engine's totals and snapshots every registered
    /// metric (empty when metrics are disabled).
    #[must_use]
    pub fn metrics_snapshot(&self) -> cij_obs::MetricsSnapshot {
        self.engine.publish_metrics();
        self.obs.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cij_core::MtbEngine;
    use cij_geom::Rect;
    use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
    use cij_workload::{generate_pair, Params};

    use super::*;

    fn service() -> StreamService {
        let params = Params {
            dataset_size: 20,
            ..Params::default()
        };
        let (a, b) = generate_pair(&params, 0.0);
        let factory = |cfg: &EngineConfig, a: &[MovingObject], b: &[MovingObject], start: Time| {
            let store = Arc::new(InMemoryStore::new());
            let pool = BufferPool::new(store, BufferPoolConfig::with_capacity(64));
            let engine = MtbEngine::new(pool, *cfg, a, b, start)?;
            Ok(Box::new(engine) as Box<dyn ContinuousJoinEngine>)
        };
        StreamService::new(StreamConfig::builder().build(), &a, &b, 0.0, &factory).expect("service")
    }

    #[test]
    fn subscribe_refuses_a_window_the_index_cannot_order() {
        let mut svc = service();
        for (lo, hi) in [
            ([5.0, 0.0], [1.0, 9.0]),
            ([0.0, f64::NAN], [9.0, 9.0]),
            ([0.0, 0.0], [f64::INFINITY, 9.0]),
        ] {
            let filter = SubscriptionFilter::Window(Rect { lo, hi });
            match svc.subscribe(filter) {
                Err(StreamError::InvalidFilter(msg)) => assert!(msg.contains("window"), "{msg}"),
                other => panic!("lo={lo:?} hi={hi:?}: {other:?}"),
            }
        }
        assert_eq!(svc.subscriber_count(), 0);
        // The refusals consumed no ids and left the service usable.
        let ok = SubscriptionFilter::Window(Rect::new([0.0, 0.0], [9.0, 9.0]));
        assert_eq!(svc.subscribe(ok).expect("finite window"), SubscriberId(0));
    }

    /// A journal whose every append fails: memory must not get ahead of
    /// (subscribe) or fall behind (unsubscribe) what the log holds.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_journal_write_changes_nothing_in_memory() {
        let mut svc = service();
        let kept = svc
            .subscribe(SubscriptionFilter::All)
            .expect("no journal yet");
        svc.wal = Some(Wal::create(std::path::Path::new("/dev/full")).expect("open /dev/full"));

        let refused = svc.subscribe(SubscriptionFilter::All);
        assert!(
            matches!(refused, Err(StreamError::Storage(_))),
            "{refused:?}"
        );
        assert_eq!(
            svc.subscriber_count(),
            1,
            "a subscriber nobody was told about"
        );

        let refused = svc.unsubscribe(kept);
        assert!(
            matches!(refused, Err(StreamError::Storage(_))),
            "{refused:?}"
        );
        assert_eq!(svc.subscriber_filter(kept), Some(SubscriptionFilter::All));

        // With the journal gone the same calls go through, and the id the
        // failed subscribe would have taken is the next one handed out.
        svc.wal = None;
        assert_eq!(
            svc.subscribe(SubscriptionFilter::All).unwrap(),
            SubscriberId(1)
        );
        assert!(svc.unsubscribe(kept).unwrap());
    }
}
