//! The distributed coordinator: the shard coordinator's row/column
//! topology (one [`JoinPlan`], one [`ShardRouter`] projecting updates
//! onto it), with each shard-pair engine living behind a transport.
//!
//! # Bit-identical merged streams
//!
//! [`DistCoordinator`] implements [`ContinuousJoinEngine`], so it wraps
//! in the same `StreamService` as a single-process engine — and its
//! merged delta stream is *bit-identical* to a `ShardCoordinator` over
//! the same policy, because every engine-facing call maps to worker
//! RPCs that preserve the exact single-process call cadence:
//!
//! - one [`Request::Step`] per tick per worker — empty op lists
//!   included — bundling `advance_time → ops → gc → take_result_changes`
//!   in the order the stream service performs them;
//! - direct `insert_object`/`remove_object` trait calls map to
//!   [`Request::Immediate`], which applies the op *without* the tick
//!   bundle, so result-buffer changes stay queued until the next tick's
//!   drain, exactly as in-process;
//! - `pair_status_at` routes to the one worker owning the pair's shard
//!   pair, mirroring the shard coordinator's lookup.
//!
//! # Concurrent rounds
//!
//! Workers are state-disjoint, so every round that addresses all of
//! them — `new`'s `Init`s, `Track`, `Start`, each tick's `Step`s,
//! `result_at`, `counters` and `heartbeat` — goes through one helper
//! that fans the slots out over [`cij_join::fan_out_tasks`], the shard
//! coordinator's worklist, with the machine's available parallelism as
//! the width: a tick costs the slowest worker, not the sum. Everything
//! that orders a worker's journal — sequence numbers, `ack_through`,
//! the ack-lag sample, heartbeat nonces — is assigned in slot order
//! *before* the fan-out, and answers are merged in slot order after it,
//! so journals and the merged stream are those of a serial coordinator.
//! A failed round reports the first error in slot order, and every slot
//! that acked still records its request (see *Fault handling*).
//!
//! # Fault handling
//!
//! Every RPC runs under a reconnect loop with bounded exponential
//! backoff: a dead channel is redialed via the slot's [`Connector`],
//! the handshake's [`Response::HelloAck`] reveals the worker's durable
//! progress, and the coordinator replays its retained request history
//! past that point. A worker that restarted from its WAL replays
//! nothing; a worker that lost everything (outbox included) is rebuilt
//! from the full history. Either way the resent in-flight request is
//! answered from the worker's (rebuilt) outbox, so the merged stream
//! does not fork — the crate's differential tests kill workers mid-run
//! and compare streams byte for byte.

use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cij_core::{
    publish_engine_totals, ContinuousJoinEngine, EngineConfig, EngineOp, PairKey, PairStatus,
};
use cij_geom::{MovingRect, Time};
use cij_join::{fan_out_tasks, JoinCounters};
use cij_obs::{Counter, Histogram, MetricsRegistry};
use cij_shard::{JoinPlan, PartitionPolicy, ShardRouter};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::{ObjectId, TprError, TprResult};
use cij_workload::{MovingObject, ObjectUpdate, SetTag};
use parking_lot::Mutex;

use crate::error::{DistError, DistResult};
use crate::protocol::{EngineKind, Request, Response};
use crate::transport::{Connector, Transport};

/// Deployment parameters: what the workers build and how hard the
/// coordinator tries to reach them.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Engine each worker builds ([`EngineKind::Mtb`] by default).
    pub engine: EngineKind,
    /// Maximum update interval `T_M`.
    pub t_m: Time,
    /// MTB bucket granularity.
    pub buckets_per_tm: u32,
    /// Enables the coordinator's metrics registry (`dist.*` counters,
    /// per-worker RTT and ack-lag histograms).
    pub metrics: bool,
    /// Connection attempts per RPC before the worker is declared
    /// unavailable.
    pub connect_attempts: u32,
    /// First-retry backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for DistConfig {
    fn default() -> Self {
        let engine_defaults = EngineConfig::builder().build();
        Self {
            engine: EngineKind::Mtb,
            t_m: engine_defaults.t_m,
            buckets_per_tm: engine_defaults.buckets_per_tm,
            metrics: false,
            connect_attempts: 8,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(200),
        }
    }
}

/// The joinable shard pairs of `policy`, in the canonical slot order —
/// the [`JoinPlan`]'s, row-major over `(shard_a, shard_b)`. Deployments
/// must hand [`DistCoordinator::new`] one connector per entry, in this
/// order.
#[must_use]
pub fn joinable_pairs(policy: &dyn PartitionPolicy) -> Vec<(usize, usize)> {
    JoinPlan::new(policy).pairs().to_vec()
}

struct WorkerLink {
    connector: Box<dyn Connector>,
    transport: Option<Box<dyn Transport>>,
    /// Every mutating request sent to this worker, in sequence order —
    /// the recovery source for a worker that lost its WAL. Retained for
    /// the deployment's lifetime (`dist.history_requests` tracks the
    /// total).
    history: Vec<Request>,
    /// Highest sequence number whose response was consumed.
    acked_seq: u64,
    ever_connected: bool,
    /// `dist.worker.{slot}.rtt_us` / `.ack_lag`, resolved once so the
    /// per-RPC path formats no name and takes no registry lock.
    rtt_us: Histogram,
    ack_lag: Histogram,
}

impl WorkerLink {
    fn newest_seq(&self) -> u64 {
        self.history.last().and_then(Request::seq).unwrap_or(0)
    }

    /// Records an acknowledged mutating request: it is now part of the
    /// worker's durable past, and of the history that replays it.
    fn record_ack(&mut self, req: Request) {
        if let Some(seq) = req.seq() {
            self.acked_seq = self.acked_seq.max(seq);
        }
        self.history.push(req);
    }
}

/// `Ok` iff the answer is an [`Response::Ack`].
fn expect_ack(resp: DistResult<Response>) -> DistResult<()> {
    match resp? {
        Response::Ack { .. } => Ok(()),
        other => Err(DistError::UnexpectedResponse {
            expected: "Ack",
            got: other.kind(),
        }),
    }
}

/// A [`ContinuousJoinEngine`] whose shard-pair engines live in worker
/// processes (see the module docs). Drop-in wherever a single engine
/// runs — including as a `StreamService` factory product.
pub struct DistCoordinator {
    config: DistConfig,
    router: ShardRouter,
    /// The slot layout of the router's policy.
    plan: JoinPlan,
    /// One worker per slot of `plan`.
    slots: Vec<Mutex<WorkerLink>>,
    /// Fan-out width of every round: the machine's available
    /// parallelism, read once (`fan_out_tasks` caps it at the slots).
    threads: usize,
    /// Global mutating-request sequence; per-worker subsequences are
    /// strictly increasing (with gaps).
    seq: u64,
    /// Heartbeat nonce source.
    nonce: u64,
    /// Result changes harvested from step acks, drained by
    /// `take_result_changes`.
    pending: Vec<PairKey>,
    pending_none: bool,
    deltas_enabled: bool,
    /// An error from an infallible trait method (`enable_delta_tracking`),
    /// surfaced by the next fallible call.
    deferred: Option<DistError>,
    /// Local dummy pool: worker I/O is not visible here.
    pool: BufferPool,
    obs: MetricsRegistry,
    /// `dist.rpc.{calls, errors, dropped_reads}`, resolved once.
    rpc_calls: Counter,
    rpc_errors: Counter,
    dropped_reads: Counter,
}

impl DistCoordinator {
    /// Partitions both sets under `policy` and initialises one worker
    /// per joinable shard pair over `connectors` (one per
    /// [`joinable_pairs`] entry, same order). Workers receive their
    /// subsets via [`Request::Init`]; delta tracking and the initial
    /// join follow through the usual engine-trait calls.
    ///
    /// # Errors
    /// [`DistError::Config`] on a connector-count mismatch; connection
    /// or worker errors from the init round-trips.
    pub fn new(
        config: DistConfig,
        policy: Arc<dyn PartitionPolicy>,
        connectors: Vec<Box<dyn Connector>>,
        set_a: &[MovingObject],
        set_b: &[MovingObject],
        now: Time,
    ) -> DistResult<Self> {
        let plan = JoinPlan::new(&*policy);
        if connectors.len() != plan.pairs().len() {
            return Err(DistError::Config(format!(
                "policy {} (K={}) has {} joinable shard pairs but {} connectors were supplied",
                policy.name(),
                plan.shard_count(),
                plan.pairs().len(),
                connectors.len()
            )));
        }

        let mut router = ShardRouter::new(policy);
        let parts_a = router.place_set(SetTag::A, set_a, now);
        let parts_b = router.place_set(SetTag::B, set_b, now);

        let obs = MetricsRegistry::enabled_if(config.metrics);
        let slots = connectors
            .into_iter()
            .enumerate()
            .map(|(idx, connector)| {
                Mutex::new(WorkerLink {
                    connector,
                    transport: None,
                    history: Vec::new(),
                    acked_seq: 0,
                    ever_connected: false,
                    rtt_us: obs.histogram(&format!("dist.worker.{idx}.rtt_us")),
                    ack_lag: obs.histogram(&format!("dist.worker.{idx}.ack_lag")),
                })
            })
            .collect();

        let mut coordinator = Self {
            config,
            router,
            plan,
            slots,
            threads: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            seq: 0,
            nonce: 0,
            pending: Vec::new(),
            pending_none: false,
            deltas_enabled: false,
            deferred: None,
            pool: BufferPool::new(
                Arc::new(InMemoryStore::new()),
                BufferPoolConfig::with_capacity(8),
            ),
            rpc_calls: obs.counter("dist.rpc.calls"),
            rpc_errors: obs.counter("dist.rpc.errors"),
            dropped_reads: obs.counter("dist.rpc.dropped_reads"),
            obs,
        };

        let inits = (coordinator.round_seqs().zip(coordinator.plan.pairs()))
            .map(|(seq, &(i, j))| Request::Init {
                seq,
                engine: coordinator.config.engine,
                t_m: coordinator.config.t_m,
                buckets_per_tm: coordinator.config.buckets_per_tm,
                set_a: parts_a[i].clone(),
                set_b: parts_b[j].clone(),
                start: now,
            })
            .collect();
        coordinator.ack_round(inits)?;
        Ok(coordinator)
    }

    /// Shards per object set.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.plan.shard_count()
    }

    /// Workers in the join plan (one per joinable shard pair).
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.slots.len()
    }

    /// Cross-shard migrations routed so far.
    #[must_use]
    pub fn migrations(&self) -> u64 {
        self.router.migrations()
    }

    /// The shard pair each worker slot serves, in slot order.
    #[must_use]
    pub fn worker_pairs(&self) -> Vec<(usize, usize)> {
        self.plan.pairs().to_vec()
    }

    /// Pings every worker, reconnecting (and resyncing) any whose
    /// channel died. A worker that cannot be revived within the backoff
    /// budget surfaces as
    /// [`DistError::WorkerUnavailable`].
    ///
    /// # Errors
    /// The first unreachable or misbehaving worker, in slot order.
    pub fn heartbeat(&mut self) -> DistResult<()> {
        // Nonces are drawn in slot order before the round.
        let base = self.nonce;
        self.nonce += self.slots.len() as u64;
        let pongs = self.for_each_link(|idx, link| {
            let nonce = base + idx as u64 + 1;
            match self.call_link(idx, link, &Request::Ping { nonce })? {
                Response::Pong { nonce: echoed } if echoed == nonce => Ok(()),
                Response::Pong { .. } => Err(DistError::Worker(format!(
                    "worker {idx} echoed a stale heartbeat nonce"
                ))),
                other => Err(DistError::UnexpectedResponse {
                    expected: "Pong",
                    got: other.kind(),
                }),
            }
        });
        pongs.into_iter().collect()
    }

    /// Sends every worker a [`Request::Shutdown`] on a best-effort
    /// basis (for deployments whose workers are real processes).
    pub fn shutdown_workers(&mut self) {
        for slot in &self.slots {
            let mut link = slot.lock();
            let mut transport = match link.transport.take() {
                Some(t) => Some(t),
                None => link.connector.connect().ok(),
            };
            if let Some(t) = transport.as_mut() {
                let _ = t.call(&Request::Shutdown);
            }
        }
    }

    // ------------------------------------------------------------------
    // RPC plumbing
    // ------------------------------------------------------------------

    /// One RPC against a slot, with reconnect-and-resync on channel
    /// failure, under the bounded backoff budget.
    fn call_link(&self, idx: usize, link: &mut WorkerLink, req: &Request) -> DistResult<Response> {
        let mut attempts: u32 = 0;
        loop {
            if link.transport.is_none() {
                self.connect_link(idx, link, &mut attempts)?;
            }
            self.rpc_calls.inc();
            let t0 = Instant::now();
            match link.transport.as_mut().expect("connected above").call(req) {
                Ok(resp) => {
                    link.rtt_us.record(t0.elapsed().as_micros() as u64);
                    if let Response::Fail { message } = resp {
                        // Deterministic worker-side failure: retrying
                        // would reproduce it.
                        return Err(DistError::Worker(message));
                    }
                    return Ok(resp);
                }
                Err(DistError::Io(_) | DistError::Protocol(_)) => {
                    self.rpc_errors.inc();
                    link.transport = None;
                    // Loop: `connect_link` enforces the attempt budget.
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Dials the slot until connected or out of budget. On success the
    /// worker has been handshaken and resynced: its applied history is
    /// at least `link.newest_seq()`.
    fn connect_link(
        &self,
        idx: usize,
        link: &mut WorkerLink,
        attempts: &mut u32,
    ) -> DistResult<()> {
        loop {
            if *attempts >= self.config.connect_attempts {
                return Err(DistError::WorkerUnavailable {
                    slot: idx,
                    attempts: *attempts,
                });
            }
            if *attempts > 0 {
                let exp = (*attempts - 1).min(16);
                let delay = self
                    .config
                    .backoff_base
                    .saturating_mul(1 << exp)
                    .min(self.config.backoff_cap);
                std::thread::sleep(delay);
            }
            *attempts += 1;

            let Ok(mut transport) = link.connector.connect() else {
                continue;
            };
            let Ok(resp) = transport.call(&Request::Hello) else {
                continue;
            };
            let Response::HelloAck { last_applied } = resp else {
                return Err(DistError::UnexpectedResponse {
                    expected: "HelloAck",
                    got: resp.kind(),
                });
            };
            if link.ever_connected {
                self.obs.counter("dist.reconnects").inc();
            } else {
                link.ever_connected = true;
            }

            if last_applied < link.newest_seq() {
                // The worker is behind our history — it restarted with
                // a stale (or empty) WAL. Replay what it is missing;
                // sequence-number dedup makes over-replay harmless.
                self.obs.counter("dist.resyncs").inc();
                let mut replayed = 0u64;
                let mut channel_ok = true;
                for past in &link.history {
                    let seq = past.seq().expect("history holds mutating requests");
                    if seq <= last_applied {
                        continue;
                    }
                    match transport.call(past) {
                        Ok(Response::Fail { message }) => return Err(DistError::Worker(message)),
                        Ok(_) => replayed += 1,
                        Err(_) => {
                            channel_ok = false;
                            break;
                        }
                    }
                }
                self.obs.counter("dist.replayed_requests").add(replayed);
                if !channel_ok {
                    continue;
                }
            }
            link.transport = Some(transport);
            return Ok(());
        }
    }

    /// Sends one mutating request and returns the worker's response.
    /// The request joins the slot's history only once acknowledged: an
    /// in-flight request is retried by `call_link` itself, so the
    /// replay history must cover exactly the requests *before* it — a
    /// worker that applied the in-flight request but lost the response
    /// dedups the retry from its outbox either way.
    fn send_mutating(&self, idx: usize, req: Request) -> DistResult<Response> {
        let mut link = self.slots[idx].lock();
        let resp = self.call_link(idx, &mut link, &req)?;
        link.record_ack(req);
        Ok(resp)
    }

    /// Draws one sequence number per slot, in slot order: a round's
    /// requests are numbered before it fans out, so every worker's
    /// journal is the one a serial coordinator would have written.
    fn round_seqs(&mut self) -> std::ops::RangeInclusive<u64> {
        let first = self.seq + 1;
        self.seq += self.slots.len() as u64;
        first..=self.seq
    }

    /// Runs `f(slot, link)` for every worker slot, fanned out over the
    /// coordinator's threads — the counterpart of the shard
    /// coordinator's `for_each_slot` — and returns the results in slot
    /// order.
    fn for_each_link<R: Send>(&self, f: impl Fn(usize, &mut WorkerLink) -> R + Sync) -> Vec<R> {
        fan_out_tasks(self.slots.len(), self.threads, |idx| {
            f(idx, &mut self.slots[idx].lock())
        })
    }

    /// Sends `reqs[slot]` — one mutating request per slot, numbered in
    /// slot order by the caller — to every worker in one round, and
    /// returns the answers in slot order. As in [`send_mutating`], an
    /// acknowledged request joins its slot's history even when another
    /// slot failed, so replay stays exactly each worker's durable past.
    ///
    /// [`send_mutating`]: Self::send_mutating
    fn send_round(&self, reqs: Vec<Request>) -> Vec<DistResult<Response>> {
        let answers = self.for_each_link(|idx, link| self.call_link(idx, link, &reqs[idx]));
        for ((slot, req), answer) in self.slots.iter().zip(reqs).zip(&answers) {
            if answer.is_ok() {
                slot.lock().record_ack(req);
            }
        }
        answers
    }

    /// [`send_round`](Self::send_round) for requests answered by a plain
    /// [`Response::Ack`]; the first failure in slot order.
    fn ack_round(&self, reqs: Vec<Request>) -> DistResult<()> {
        self.send_round(reqs).into_iter().try_for_each(expect_ack)
    }

    fn take_deferred(&mut self) -> TprResult<()> {
        match self.deferred.take() {
            Some(e) => Err(e.into()),
            None => Ok(()),
        }
    }

    /// Sends an [`Request::Immediate`] op to every slot an object of
    /// (`set`, `shard`) lives in.
    fn send_immediate(
        &mut self,
        set: SetTag,
        shard: usize,
        op: EngineOp,
        now: Time,
    ) -> TprResult<()> {
        for &idx in self.plan.fan(set, shard) {
            self.seq += 1;
            let req = Request::Immediate {
                seq: self.seq,
                now,
                op,
            };
            expect_ack(self.send_mutating(idx, req))?;
        }
        Ok(())
    }
}

impl ContinuousJoinEngine for DistCoordinator {
    fn name(&self) -> &'static str {
        "Distributed"
    }

    fn run_initial_join(&mut self, now: Time) -> TprResult<()> {
        self.take_deferred()?;
        let starts = self
            .round_seqs()
            .map(|seq| Request::Start { seq, now })
            .collect();
        Ok(self.ack_round(starts)?)
    }

    fn apply_update(&mut self, update: &ObjectUpdate, now: Time) -> TprResult<()> {
        self.apply_batch(std::slice::from_ref(update), now)
    }

    /// One tick: routes the batch onto per-worker op lists and sends
    /// every worker — empty lists included — its [`Request::Step`], so
    /// each remote engine sees exactly the advance/apply/gc cadence of
    /// the in-process run. Harvested result changes queue locally, in
    /// slot order, until
    /// [`take_result_changes`](ContinuousJoinEngine::take_result_changes)
    /// — those of every slot that acked, even when another slot failed.
    fn apply_batch(&mut self, updates: &[ObjectUpdate], now: Time) -> TprResult<()> {
        self.take_deferred()?;
        let mut ops: Vec<Vec<EngineOp>> = vec![Vec::new(); self.slots.len()];
        for u in updates {
            self.router.project(u, now, &self.plan, &mut ops);
        }
        // `ack_through` and the ack-lag sample, like the sequence
        // numbers, are fixed in slot order before the round.
        let steps = (self.round_seqs().zip(ops).zip(&self.slots))
            .map(|((seq, ops), slot)| {
                let link = slot.lock();
                link.ack_lag.record(seq - link.acked_seq);
                Request::Step {
                    seq,
                    now,
                    ops,
                    ack_through: link.acked_seq,
                }
            })
            .collect();
        let mut first_err = None;
        for answer in self.send_round(steps) {
            let changes = answer.and_then(|resp| match resp {
                Response::StepAck { changes, .. } => Ok(changes),
                other => Err(DistError::UnexpectedResponse {
                    expected: "StepAck",
                    got: other.kind(),
                }),
            });
            match changes {
                Ok(Some(mut c)) => self.pending.append(&mut c),
                Ok(None) => self.pending_none = true,
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(()), |e| Err(e.into()))
    }

    fn insert_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        mbr: MovingRect,
        now: Time,
    ) -> TprResult<()> {
        self.take_deferred()?;
        let shard = self.router.place(id, set, &mbr, now);
        self.send_immediate(set, shard, EngineOp::Insert { set, id, mbr }, now)
    }

    fn remove_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        old_mbr: &MovingRect,
        last_update: Time,
        now: Time,
    ) -> TprResult<()> {
        self.take_deferred()?;
        let Some(record) = self.router.remove(set, id) else {
            return Err(TprError::ObjectNotFound(id));
        };
        self.send_immediate(
            set,
            record.shard,
            EngineOp::Remove {
                set,
                id,
                old_mbr: *old_mbr,
                last_update,
            },
            now,
        )
    }

    // `advance_time` and `gc` ride inside each tick's `Step` bundle;
    // locally they are no-ops so the cadence is dictated by
    // `apply_batch` alone.

    fn result_at(&self, t: Time) -> Vec<PairKey> {
        let mut out = Vec::new();
        let answers =
            self.for_each_link(|idx, link| self.call_link(idx, link, &Request::ResultAt { t }));
        for answer in answers {
            match answer {
                Ok(Response::Pairs(mut pairs)) => out.append(&mut pairs),
                // The trait's snapshot read is infallible: an
                // unreachable worker degrades the snapshot (flagged by
                // the counter) instead of panicking.
                _ => self.dropped_reads.inc(),
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn pool(&self) -> &BufferPool {
        // Worker I/O happens in the worker processes; this local pool
        // is idle and reports zeros.
        &self.pool
    }

    fn counters(&self) -> JoinCounters {
        let mut total = JoinCounters::new();
        let answers = self.for_each_link(|idx, link| self.call_link(idx, link, &Request::Counters));
        for answer in answers {
            match answer {
                Ok(Response::CountersAck(c)) => total = total.merged(c),
                _ => self.dropped_reads.inc(),
            }
        }
        total
    }

    fn enable_delta_tracking(&mut self) {
        self.deltas_enabled = true;
        let tracks = self
            .round_seqs()
            .map(|seq| Request::Track { seq })
            .collect();
        // The trait method is infallible; park the error for the next
        // fallible call (in practice the `run_initial_join` that
        // immediately follows).
        if let Err(e) = self.ack_round(tracks) {
            self.deferred = Some(e);
        }
    }

    fn take_result_changes(&mut self) -> Option<Vec<PairKey>> {
        if !self.deltas_enabled {
            return None;
        }
        if self.pending_none {
            self.pending.clear();
            self.pending_none = false;
            return None;
        }
        let mut out = std::mem::take(&mut self.pending);
        out.sort_unstable();
        out.dedup();
        Some(out)
    }

    fn pair_status_at(&self, pair: PairKey, t: Time) -> PairStatus {
        let Some(idx) = self.router.slot_of_pair(pair, &self.plan) else {
            return PairStatus::default();
        };
        let mut link = self.slots[idx].lock();
        match self.call_link(idx, &mut link, &Request::PairStatusAt { pair, t }) {
            Ok(Response::Status(status)) => status,
            _ => {
                self.dropped_reads.inc();
                PairStatus::default()
            }
        }
    }

    fn metrics_registry(&self) -> MetricsRegistry {
        self.obs.clone()
    }

    fn publish_metrics(&self) {
        if !self.obs.is_enabled() {
            return;
        }
        publish_engine_totals(&self.obs, self.counters(), None);
        self.obs
            .counter("dist.migrations")
            .store(self.router.migrations());
        self.obs.gauge("dist.workers").set(self.slots.len() as i64);
        let mut history_total = 0usize;
        for (idx, slot) in self.slots.iter().enumerate() {
            let link = slot.lock();
            history_total += link.history.len();
            self.obs
                .gauge(&format!("dist.worker.{idx}.acked_seq"))
                .set(link.acked_seq as i64);
        }
        self.obs
            .gauge("dist.history_requests")
            .set(history_total as i64);
        for (side, set) in [("a", SetTag::A), ("b", SetTag::B)] {
            for (shard, &n) in self.router.population(set).iter().enumerate() {
                self.obs
                    .gauge(&format!("dist.population.{side}.{shard}"))
                    .set(n as i64);
            }
        }
    }
}
