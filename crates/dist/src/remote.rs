//! The remote partition: one worker process behind the
//! [`IndexPair`] seam.
//!
//! A [`RemotePair`] is what the shard crate's partitioned pair holds in
//! place of an in-process index pair when the partition lives in a
//! worker. Phase 1 stays on the coordinator: the engine's registration
//! table holds every delete key, the partitioned pair's router picks the
//! partition, and the remote pair only queues the resulting
//! [`IndexPair::refile`] calls, verbatim, as [`Refile`]s. Phase 2 is one
//! [`Request::Step`] per tick — the queued calls plus both sides'
//! probes — answered by the worker's hits and [`JoinCounters`].
//! The answer itself never leaves the coordinator's result buffer.
//!
//! # Fault handling
//!
//! A worker holds soft state: the coordinator engine's registration
//! table holds everything it indexes, so a worker that lost its index is
//! rebuilt from it, never from a log. Every RPC runs under
//! a reconnect loop with bounded exponential backoff: a dead channel is
//! redialed via the partition's [`Connector`], and the handshake's
//! [`Response::HelloAck`] says whether the worker still holds what this
//! link sent it.
//!
//! - A worker that is alive but lost its connection reports a sequence
//!   number between the last acknowledged and the last sent. It answers
//!   the resent request from its sequence-keyed outbox, so delivery
//!   stays exactly-once.
//! - A worker that reports less than the link acknowledged restarted
//!   blank. One that reports more than the link ever sent serves an
//!   earlier coordinator, and the link numbers on above it. Either is
//!   *lost*: its next round fails before anything is sent, and the
//!   partitioned pair [re-seeds](IndexPair::reseed) it with the
//!   partition's registrations — the [`Request::Init`] construction
//!   sends, built by the same function — and probes it once more.
//! - A worker whose `Step` goes unanswered within the reconnect budget
//!   may or may not have applied that round's mutations, so it is lost
//!   too, and re-seeded the same way once it answers again.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use cij_core::{EngineConfig, IndexPair, Registration, Registrations};
use cij_geom::{MovingRect, Time};
use cij_join::{JoinCounters, JoinScratch, ProbeHit};
use cij_obs::{Counter, Histogram, MetricsRegistry};
use cij_storage::{sync, BufferPool, CacheSnapshot};
use cij_tpr::{ObjectId, TprResult};

use crate::coordinator::DistConfig;
use crate::error::{DistError, DistResult};
use crate::protocol::{Refile, Request, Response};
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

/// One worker's channel, the mutations queued for it and its sequence
/// numbers.
struct WorkerLink {
    slot: usize,
    /// `refile` calls since the last round, in phase-1 order.
    queued: Vec<Refile>,
    dist: Arc<DistConfig>,
    /// `None` for a partition no connector was supplied for.
    connector: Option<Box<dyn Connector>>,
    transport: Option<Box<dyn Transport>>,
    /// The last sequence number drawn; none is ever drawn twice.
    seq: u64,
    /// Highest sequence number whose response was consumed.
    acked_seq: u64,
    /// The worker no longer holds what this link sent it (see the module
    /// docs): it is sent nothing mutating but a seed.
    lost: bool,
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
    reseeds: Counter,
    reseed_objects: Counter,
    rtt_us: Histogram,
    ack_lag: Histogram,
}

impl WorkerLink {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// One RPC, with reconnect on channel failure, under the bounded
    /// backoff budget. A mutating request is not sent to a lost worker.
    fn call(&mut self, req: &Request) -> DistResult<Response> {
        let mut attempts: u32 = 0;
        loop {
            if self.transport.is_none() {
                self.connect(&mut attempts)?;
            }
            if self.lost && req.seq().is_some() {
                return Err(DistError::WorkerLost { slot: self.slot });
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

    /// Dials the worker until connected or out of budget, and applies the
    /// handshake rule of the module docs.
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
            if last_applied < self.acked_seq || last_applied > self.seq {
                self.lost = true;
                self.seq = self.seq.max(last_applied);
            }
            self.transport = Some(transport);
            return Ok(());
        }
    }
}

/// One partition held by a worker process (see the module docs).
pub struct RemotePair {
    link: Mutex<WorkerLink>,
}

impl RemotePair {
    /// Builds the worker's index pair over `objects`, each filed at its
    /// registration time, with one [`Request::Init`]: the construction
    /// seed and the re-seed of a lost worker alike. The queued mutations
    /// are dropped: `objects` already holds their outcome.
    pub(crate) fn seed(&self, objects: &[(ObjectId, Registration)], now: Time) -> DistResult<()> {
        let link = &mut *sync::lock(&self.link);
        if link.transport.is_none() {
            // The handshake may renumber the link: draw the seed's
            // number after it.
            link.connect(&mut 0)?;
        }
        if link.lost {
            link.obs.reseeds.inc();
            link.obs.reseed_objects.add(objects.len() as u64);
            link.lost = false;
        }
        link.queued.clear();
        let seed = Refile {
            now,
            removes: Vec::new(),
            inserts: objects.to_vec(),
        };
        let seq = link.next_seq();
        let dist = &link.dist;
        let req = Request::Init {
            seq,
            engine: dist.engine,
            t_m: dist.t_m,
            buckets_per_tm: dist.buckets_per_tm,
            seed,
        };
        let answer = link.call(&req);
        // A seed that was not acknowledged leaves the worker's state
        // unknown: the next round seeds it again.
        link.lost = answer.is_err();
        match answer? {
            Response::Ack { .. } => {
                link.acked_seq = seq;
                Ok(())
            }
            other => Err(DistError::UnexpectedResponse {
                expected: "Ack",
                got: other.kind(),
            }),
        }
    }

    /// Pings the worker, reconnecting it if its channel died. A worker
    /// found lost is re-seeded at its next round.
    pub(crate) fn heartbeat(&self) -> DistResult<()> {
        let mut link = sync::lock(&self.link);
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
        let mut link = sync::lock(&self.link);
        let mut transport = match link.transport.take() {
            Some(t) => Some(t),
            None => link.connector.as_ref().and_then(|c| c.connect().ok()),
        };
        if let Some(t) = transport.as_mut() {
            let _ = t.call(&Request::Shutdown);
        }
    }
}

impl IndexPair for RemotePair {
    type Config = RemoteConfig;
    const NAME: &'static str = "Remote";

    fn engine_config(config: &RemoteConfig) -> &EngineConfig {
        &config.engine
    }

    /// Takes the next connector of `config`: partition `i` is the `i`-th
    /// pair built. Nothing is sent until the coordinator seeds it.
    fn empty(_: &BufferPool, config: &RemoteConfig, obs: &MetricsRegistry) -> Self {
        let mut handout = sync::lock(&config.connectors);
        let slot = handout.next;
        handout.next += 1;
        let obs = LinkMetrics {
            calls: obs.counter("dist.rpc.calls"),
            errors: obs.counter("dist.rpc.errors"),
            reconnects: obs.counter("dist.reconnects"),
            reseeds: obs.counter("dist.reseeds"),
            reseed_objects: obs.counter("dist.reseed_objects"),
            rtt_us: obs.histogram(&format!("dist.worker.{slot}.rtt_us")),
            ack_lag: obs.histogram(&format!("dist.worker.{slot}.ack_lag")),
        };
        let link = WorkerLink {
            slot,
            queued: Vec::new(),
            dist: Arc::clone(&config.dist),
            connector: handout.connectors.next(),
            transport: None,
            seq: 0,
            acked_seq: 0,
            lost: false,
            nonce: 0,
            ever_connected: false,
            obs,
        };
        Self {
            link: Mutex::new(link),
        }
    }

    /// Queues the call, as it was made, for the next round.
    fn refile(
        &mut self,
        removes: impl Iterator<Item = (ObjectId, Registration)> + Clone,
        inserts: impl Iterator<Item = (ObjectId, Registration)> + Clone,
        now: Time,
    ) -> TprResult<()> {
        sync::get_mut(&mut self.link).queued.push(Refile {
            now,
            removes: removes.collect(),
            inserts: inserts.collect(),
        });
        Ok(())
    }

    /// The round: one [`Request::Step`] carrying the queued calls and
    /// both sides' probes. A `Step` that fails leaves the worker's state
    /// unknown — its mutations are not queued again — so the link is
    /// lost and the worker re-seeded before it probes again.
    fn probe_sides(
        &self,
        _: &Registrations,
        probes: [&[MovingRect]; 2],
        now: Time,
        _: &mut JoinScratch,
        counters: &mut JoinCounters,
        hits: &mut [Vec<ProbeHit>; 2],
    ) -> TprResult<()> {
        let mut link = sync::lock(&self.link);
        let seq = link.next_seq();
        let lag = seq - link.acked_seq;
        let req = Request::Step {
            seq,
            now,
            ack_through: link.acked_seq,
            ops: std::mem::take(&mut link.queued),
            probes_a: probes[0].to_vec(),
            probes_b: probes[1].to_vec(),
        };
        let resp = link.call(&req).inspect_err(|_| link.lost = true)?;
        link.acked_seq = seq;
        link.obs.ack_lag.record(lag);
        match resp {
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

    /// Re-seeds a worker its link found lost from `objects`, and says
    /// whether it was.
    fn reseed(&self, objects: &[(ObjectId, Registration)], now: Time) -> TprResult<bool> {
        if !sync::lock(&self.link).lost {
            return Ok(false);
        }
        self.seed(objects, now)?;
        Ok(true)
    }

    /// Worker I/O happens in the worker process.
    fn page_format_stats(&self) -> CacheSnapshot {
        CacheSnapshot::default()
    }

    fn publish_extra(&self, registry: &MetricsRegistry) {
        let link = sync::lock(&self.link);
        registry
            .gauge(&format!("dist.worker.{}.acked_seq", link.slot))
            .set(link.acked_seq as i64);
    }
}
