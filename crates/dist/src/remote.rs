//! The remote partition: one worker process behind the
//! [`IndexPair`] seam.
//!
//! A [`RemotePair`] is what the shard crate's partitioned pair holds in
//! place of an in-process index pair when the partition lives in a
//! worker. Phase 1 stays on the coordinator: the partitioned pair's
//! router picks the partition and derives every delete key, and the
//! remote pair only queues the resulting [`IndexOp`]s. Phase 2 is one
//! journaled [`Request::Step`] per tick — the queued mutations plus both
//! sides' probes — answered by the worker's hits and [`JoinCounters`].
//! The answer itself never leaves the coordinator's result buffer.
//!
//! # Fault handling
//!
//! Every RPC runs under a reconnect loop with bounded exponential
//! backoff: a dead channel is redialed via the partition's
//! [`Connector`], the handshake's [`Response::HelloAck`] reveals the
//! worker's durable progress, and the link replays its retained request
//! history past that point. A worker that restarted from its WAL replays
//! nothing; a worker that lost everything (outbox included) is rebuilt
//! from the full history. Either way the resent in-flight request is
//! answered from the worker's (rebuilt) outbox, so the answer does not
//! fork — the crate's differential tests kill workers mid-run and compare
//! streams byte for byte.

use std::sync::Arc;
use std::time::Instant;

use cij_core::{EngineConfig, IndexPair};
use cij_geom::{MovingRect, Time};
use cij_join::{JoinCounters, JoinPair, JoinScratch, ProbeHit};
use cij_obs::{Counter, Histogram, MetricsRegistry};
use cij_storage::{BufferPool, CacheSnapshot};
use cij_tpr::{ObjectId, TprError, TprResult};
use cij_workload::SetTag;
use parking_lot::Mutex;

use crate::coordinator::DistConfig;
use crate::error::{DistError, DistResult};
use crate::protocol::{IndexOp, Request, Response};
use crate::transport::{Connector, Transport};

/// What a [`RemotePair`] is built from: the coordinator's engine knobs,
/// the deployment, and the workers' connectors, handed out one per
/// partition in shard order.
#[derive(Clone)]
pub struct RemoteConfig {
    engine: EngineConfig,
    dist: Arc<DistConfig>,
    connectors: Arc<Mutex<Handout>>,
}

struct Handout {
    next: usize,
    connectors: std::vec::IntoIter<Box<dyn Connector>>,
}

impl RemoteConfig {
    /// The configuration of a deployment whose partitions fan out over
    /// `threads` and whose shard `i` lives behind `connectors[i]`.
    pub(crate) fn new(
        dist: DistConfig,
        threads: usize,
        connectors: Vec<Box<dyn Connector>>,
    ) -> Self {
        let engine = EngineConfig::builder()
            .t_m(dist.t_m)
            .buckets_per_tm(dist.buckets_per_tm)
            .threads(threads)
            .metrics(dist.metrics)
            .build();
        Self {
            engine,
            dist: Arc::new(dist),
            connectors: Arc::new(Mutex::new(Handout {
                next: 0,
                connectors: connectors.into_iter(),
            })),
        }
    }
}

/// One worker's channel, the mutations queued for it and its replay
/// state.
struct WorkerLink {
    slot: usize,
    /// Mutations since the last round, in phase-1 order.
    queued: Vec<IndexOp>,
    dist: Arc<DistConfig>,
    /// `None` for a partition no connector was supplied for.
    connector: Option<Box<dyn Connector>>,
    transport: Option<Box<dyn Transport>>,
    /// Every acknowledged mutating request, in sequence order — the
    /// recovery source for a worker that lost its WAL. Retained for the
    /// deployment's lifetime (`dist.history_requests` tracks the total).
    history: Vec<Request>,
    /// The last sequence number drawn; none is ever drawn twice.
    seq: u64,
    /// Highest sequence number whose response was consumed: the newest
    /// request in `history`.
    acked_seq: u64,
    nonce: u64,
    ever_connected: bool,
    obs: LinkMetrics,
}

/// A link's metric handles, resolved once so the per-RPC path formats no
/// name and takes no registry lock.
struct LinkMetrics {
    calls: Counter,
    errors: Counter,
    reconnects: Counter,
    resyncs: Counter,
    replayed: Counter,
    rtt_us: Histogram,
    ack_lag: Histogram,
}

impl WorkerLink {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// One RPC, with reconnect-and-resync on channel failure, under the
    /// bounded backoff budget.
    fn call(&mut self, req: &Request) -> DistResult<Response> {
        let mut attempts: u32 = 0;
        loop {
            if self.transport.is_none() {
                self.connect(&mut attempts)?;
            }
            self.obs.calls.inc();
            let t0 = Instant::now();
            match self.transport.as_mut().expect("connected above").call(req) {
                Ok(resp) => {
                    self.obs.rtt_us.record(t0.elapsed().as_micros() as u64);
                    if let Response::Fail { message } = resp {
                        // Deterministic worker-side failure: retrying
                        // would reproduce it.
                        return Err(DistError::Worker(message));
                    }
                    return Ok(resp);
                }
                Err(DistError::Io(_) | DistError::Protocol(_)) => {
                    self.obs.errors.inc();
                    self.transport = None;
                    // Loop: `connect` enforces the attempt budget.
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Dials the worker until connected or out of budget. On success the
    /// worker has been handshaken and resynced: its applied history
    /// reaches at least the newest acknowledged request.
    fn connect(&mut self, attempts: &mut u32) -> DistResult<()> {
        loop {
            let unavailable = DistError::WorkerUnavailable {
                slot: self.slot,
                attempts: *attempts,
            };
            let Some(connector) = &self.connector else {
                return Err(unavailable);
            };
            if *attempts >= self.dist.connect_attempts {
                return Err(unavailable);
            }
            if *attempts > 0 {
                let exp = (*attempts - 1).min(16);
                let delay = (self.dist.backoff_base)
                    .saturating_mul(1 << exp)
                    .min(self.dist.backoff_cap);
                std::thread::sleep(delay);
            }
            *attempts += 1;

            let Ok(mut transport) = connector.connect() else {
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
            if self.ever_connected {
                self.obs.reconnects.inc();
            } else {
                self.ever_connected = true;
            }

            if last_applied < self.acked_seq {
                // The worker is behind our history — it restarted with
                // a stale (or empty) WAL. Replay what it is missing;
                // sequence-number dedup makes over-replay harmless.
                self.obs.resyncs.inc();
                let mut replayed = 0u64;
                let mut channel_ok = true;
                for past in &self.history {
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
                self.obs.replayed.add(replayed);
                if !channel_ok {
                    continue;
                }
            }
            self.transport = Some(transport);
            return Ok(());
        }
    }

    /// Sends one mutating request and returns the worker's response. The
    /// request joins the history only once acknowledged: an in-flight
    /// request is retried by `call` itself, so the replay history must
    /// cover exactly the requests *before* it — a worker that applied
    /// the in-flight request but lost the response dedups the retry from
    /// its outbox either way. A `Step` is kept without its probes: a
    /// replay rebuilds the worker's indexes, and nobody reads a replayed
    /// answer.
    fn send(&mut self, mut req: Request) -> DistResult<Response> {
        let resp = self.call(&req)?;
        self.acked_seq = req.seq().unwrap_or(self.acked_seq);
        if let Request::Step {
            probes_a, probes_b, ..
        } = &mut req
        {
            *probes_a = Vec::new();
            *probes_b = Vec::new();
        }
        self.history.push(req);
        Ok(resp)
    }
}

/// One partition held by a worker process (see the module docs).
pub struct RemotePair {
    link: Mutex<WorkerLink>,
}

impl RemotePair {
    /// Builds the worker's index pair over the partition's initial
    /// objects — the inserts queued since [`empty`](IndexPair::empty).
    pub(crate) fn init(&self) -> DistResult<()> {
        let mut link = self.link.lock();
        let dist = Arc::clone(&link.dist);
        let req = Request::Init {
            seq: link.next_seq(),
            engine: dist.engine,
            t_m: dist.t_m,
            buckets_per_tm: dist.buckets_per_tm,
            ops: std::mem::take(&mut link.queued),
        };
        match link.send(req)? {
            Response::Ack { .. } => Ok(()),
            other => Err(DistError::UnexpectedResponse {
                expected: "Ack",
                got: other.kind(),
            }),
        }
    }

    /// Pings the worker, reconnecting (and resyncing) it if its channel
    /// died.
    pub(crate) fn heartbeat(&self) -> DistResult<()> {
        let mut link = self.link.lock();
        link.nonce += 1;
        let nonce = link.nonce;
        match link.call(&Request::Ping { nonce })? {
            Response::Pong { nonce: echoed } if echoed == nonce => Ok(()),
            Response::Pong { .. } => Err(DistError::Worker(format!(
                "worker {} echoed a stale heartbeat nonce",
                link.slot
            ))),
            other => Err(DistError::UnexpectedResponse {
                expected: "Pong",
                got: other.kind(),
            }),
        }
    }

    /// Asks the worker process to exit, best effort.
    pub(crate) fn shutdown(&self) {
        let mut link = self.link.lock();
        let mut transport = match link.transport.take() {
            Some(t) => Some(t),
            None => link.connector.as_ref().and_then(|c| c.connect().ok()),
        };
        if let Some(t) = transport.as_mut() {
            let _ = t.call(&Request::Shutdown);
        }
    }

    /// Requests retained for replay.
    pub(crate) fn history_len(&self) -> usize {
        self.link.lock().history.len()
    }
}

impl IndexPair for RemotePair {
    type Config = RemoteConfig;
    const NAME: &'static str = "Remote";
    const TREE_JOBS: bool = false;

    fn engine_config(config: &RemoteConfig) -> &EngineConfig {
        &config.engine
    }

    /// Takes the next connector of `config`: partition `i` is the `i`-th
    /// pair built. Nothing is sent until the coordinator's `Init` round.
    fn empty(_: &BufferPool, config: &RemoteConfig, obs: &MetricsRegistry) -> Self {
        let mut handout = config.connectors.lock();
        let slot = handout.next;
        handout.next += 1;
        let obs = LinkMetrics {
            calls: obs.counter("dist.rpc.calls"),
            errors: obs.counter("dist.rpc.errors"),
            reconnects: obs.counter("dist.reconnects"),
            resyncs: obs.counter("dist.resyncs"),
            replayed: obs.counter("dist.replayed_requests"),
            rtt_us: obs.histogram(&format!("dist.worker.{slot}.rtt_us")),
            ack_lag: obs.histogram(&format!("dist.worker.{slot}.ack_lag")),
        };
        let link = WorkerLink {
            slot,
            queued: Vec::new(),
            dist: Arc::clone(&config.dist),
            connector: handout.connectors.next(),
            transport: None,
            history: Vec::new(),
            seq: 0,
            acked_seq: 0,
            nonce: 0,
            ever_connected: false,
            obs,
        };
        Self {
            link: Mutex::new(link),
        }
    }

    fn insert(
        &mut self,
        set: SetTag,
        id: ObjectId,
        mbr: MovingRect,
        registered_at: Time,
        now: Time,
    ) -> TprResult<()> {
        self.link.get_mut().queued.push(IndexOp::Insert {
            set,
            id,
            mbr,
            registered_at,
            now,
        });
        Ok(())
    }

    fn remove(
        &mut self,
        set: SetTag,
        id: ObjectId,
        old_mbr: &MovingRect,
        last_update: Time,
        now: Time,
    ) -> TprResult<()> {
        self.link.get_mut().queued.push(IndexOp::Remove {
            set,
            id,
            old_mbr: *old_mbr,
            last_update,
            now,
        });
        Ok(())
    }

    /// A remote partition's trees are in its worker: its partitioned pair
    /// joins it by a probe round.
    fn initial_join(&mut self, _: Time) -> TprResult<(Vec<JoinPair>, JoinCounters)> {
        Err(TprError::Unsupported {
            what: format!("a tree-job initial join on {}", Self::NAME),
        })
    }

    /// A remote partition probes only in rounds, both sides at once
    /// ([`probe_sides`](IndexPair::probe_sides)).
    fn probe(
        &self,
        _: SetTag,
        _: &[MovingRect],
        _: Time,
        _: &mut JoinScratch,
        _: &mut JoinCounters,
        _: &mut Vec<ProbeHit>,
    ) -> TprResult<()> {
        Err(TprError::Unsupported {
            what: format!("a one-side probe on {}", Self::NAME),
        })
    }

    /// The round: one [`Request::Step`] carrying the queued mutations and
    /// both sides' probes.
    fn probe_sides(
        &self,
        probes: [&[MovingRect]; 2],
        now: Time,
        _: &mut JoinScratch,
        counters: &mut JoinCounters,
        hits: &mut [Vec<ProbeHit>; 2],
    ) -> TprResult<()> {
        let mut link = self.link.lock();
        let seq = link.next_seq();
        link.obs.ack_lag.record(seq - link.acked_seq);
        let req = Request::Step {
            seq,
            now,
            ack_through: link.acked_seq,
            ops: std::mem::take(&mut link.queued),
            probes_a: probes[0].to_vec(),
            probes_b: probes[1].to_vec(),
        };
        match link.send(req)? {
            Response::StepAck {
                hits_a,
                hits_b,
                counters: worked,
                ..
            } => {
                // The engine indexes its probes by these hits and files
                // their intervals: hold the peer's bytes against both.
                let sound = |hits: &[ProbeHit], sent: usize| {
                    (hits.iter()).all(|&(p, _, iv)| (p as usize) < sent && iv.start <= iv.end)
                };
                if !(sound(&hits_a, probes[0].len()) && sound(&hits_b, probes[1].len())) {
                    let message = "a hit names a probe the round did not send, or no interval";
                    return Err(DistError::Worker(message.into()).into());
                }
                *counters = counters.merged(worked);
                hits[0].extend(hits_a);
                hits[1].extend(hits_b);
                Ok(())
            }
            other => Err(DistError::UnexpectedResponse {
                expected: "StepAck",
                got: other.kind(),
            }
            .into()),
        }
    }

    /// Worker I/O happens in the worker process.
    fn page_format_stats(&self) -> CacheSnapshot {
        CacheSnapshot::default()
    }

    fn publish_extra(&self, registry: &MetricsRegistry) {
        let link = self.link.lock();
        registry
            .gauge(&format!("dist.worker.{}.acked_seq", link.slot))
            .set(link.acked_seq as i64);
    }
}
