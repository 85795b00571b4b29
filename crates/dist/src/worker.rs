//! The shard worker: one partition's index pair and a response outbox,
//! behind any [`Transport`](crate::Transport).
//!
//! A worker is a deterministic request-application machine, and it
//! holds soft state: nothing it keeps is durable, because the registration
//! table of the coordinator's engine holds everything it indexes. A worker
//! that restarts comes back blank, reports sequence number 0, and the
//! coordinator re-seeds it with an [`Init`](Request::Init) of its
//! partition. A mutating request ([`Request::seq`] = `Some`) whose
//! sequence number was already applied is answered from the outbox
//! without re-execution — exactly-once apply over at-least-once delivery
//! to a worker that stayed up.
//!
//! The worker holds no answer: the coordinator's one result buffer does.
//! A [`Request::Step`] is phase 2 of a tick for this partition — its
//! queued mutations, then both sides' probes against the indexes — and
//! the hits go back in the [`Response::StepAck`]. The mutations are the
//! coordinator's [`IndexPair::refile`] calls on the partition, verbatim
//! ([`Refile`]), and each runs here as that one call: the worker applies
//! exactly what the in-process partition would. An `Init`'s seed is one
//! call of insertions, as an engine's construction is.
//!
//! Everything the worker files is held first against the rule the
//! engine filed it under ([`Registration::is_sound_at`](cij_core::Registration::is_sound_at)),
//! and every probe against [`indexable`]: a window that starts later is
//! filed and probed as in process.

use std::collections::BTreeMap;
use std::sync::Arc;

use cij_core::{indexable, EngineConfig, IndexPair, MtbPair, Registrations, TcPair};
use cij_geom::{in_range, MovingRect, Time};
use cij_join::{JoinCounters, JoinScratch};
use cij_obs::MetricsRegistry;
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::TprResult;

use crate::protocol::{EngineKind, Refile, Request, Response};

/// The index pair a worker holds: the one [`Request::Init`] named.
enum WorkerPair {
    Tc(TcPair),
    Mtb(MtbPair),
}

impl WorkerPair {
    /// Builds `kind` over a private in-memory page store — the
    /// distributed deployment's point is that workers share *nothing*.
    /// `None` for parameters no index can be built from (they arrive from
    /// the wire, and the MTB-tree asserts on them).
    fn build(kind: EngineKind, t_m: Time, buckets_per_tm: u32) -> Option<Self> {
        if !(t_m.is_finite() && t_m > 0.0 && buckets_per_tm >= 1) {
            return None;
        }
        let pool = BufferPool::new(
            Arc::new(InMemoryStore::new()),
            BufferPoolConfig::with_capacity(1024),
        );
        let config = EngineConfig::builder()
            .t_m(t_m)
            .buckets_per_tm(buckets_per_tm)
            .build();
        let obs = MetricsRegistry::disabled();
        Some(match kind {
            EngineKind::Tc => Self::Tc(TcPair::empty(&pool, &config, &obs)),
            EngineKind::Mtb => Self::Mtb(MtbPair::empty(&pool, &config, &obs)),
        })
    }

    /// Runs each of `ops` as one [`IndexPair::refile`] call, then — when
    /// `probes` is `Some` — joins both sides' probes at `now` into a
    /// [`Response::StepAck`].
    fn run(
        &mut self,
        seq: u64,
        ops: &[Refile],
        probes: Option<([&[MovingRect]; 2], Time)>,
        scratch: &mut JoinScratch,
    ) -> TprResult<Response> {
        match self {
            Self::Tc(pair) => Self::run_on(pair, seq, ops, probes, scratch),
            Self::Mtb(pair) => Self::run_on(pair, seq, ops, probes, scratch),
        }
    }

    fn run_on<P: IndexPair>(
        pair: &mut P,
        seq: u64,
        ops: &[Refile],
        probes: Option<([&[MovingRect]; 2], Time)>,
        scratch: &mut JoinScratch,
    ) -> TprResult<Response> {
        for op in ops {
            let (removes, inserts) = (op.removes.iter().copied(), op.inserts.iter().copied());
            pair.refile(removes, inserts, op.now)?;
        }
        let Some((probes, now)) = probes else {
            return Ok(Response::Ack { seq });
        };
        let mut counters = JoinCounters::new();
        let mut hits = [Vec::new(), Vec::new()];
        // No engine around the pair, so no table: nothing to re-seed.
        let none = &Registrations::default();
        pair.probe_sides(none, probes, now, scratch, &mut counters, &mut hits)?;
        let [hits_a, hits_b] = hits;
        Ok(Response::StepAck {
            seq,
            hits_a,
            hits_b,
            counters,
        })
    }
}

/// Whether `req`'s times and trajectories can be handed to an index.
/// The indexes assume what a well-behaved coordinator sends and assert on
/// it; a socket promises nothing.
fn is_sound(req: &Request) -> bool {
    match req {
        Request::Init { seed, .. } => seed.is_sound(),
        Request::Step {
            now,
            ops,
            probes_a,
            probes_b,
            ..
        } => {
            in_range(*now)
                && ops.iter().all(Refile::is_sound)
                && (probes_a.iter().chain(probes_b)).all(|p| indexable(p, *now))
        }
        _ => true,
    }
}

/// One worker: index pair and outbox (see the module docs).
pub struct ShardWorker {
    pair: Option<WorkerPair>,
    scratch: JoinScratch,
    last_applied: u64,
    outbox: BTreeMap<u64, Response>,
    /// Mutating requests applied since construction — exported to
    /// observers, not used for control flow.
    applied: u64,
}

impl ShardWorker {
    /// A blank worker: no index pair until an `Init` builds one.
    #[must_use]
    pub fn ephemeral() -> Self {
        Self {
            pair: None,
            scratch: JoinScratch::new(),
            last_applied: 0,
            outbox: BTreeMap::new(),
            applied: 0,
        }
    }

    /// Highest applied sequence number (0 = fresh).
    #[must_use]
    pub fn last_applied(&self) -> u64 {
        self.last_applied
    }

    /// Mutating requests applied since construction.
    #[must_use]
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Cached responses awaiting coordinator acknowledgement.
    #[must_use]
    pub fn outbox_len(&self) -> usize {
        self.outbox.len()
    }

    /// Dispatches one request. Never panics and never returns transport
    /// errors — every failure is a [`Response::Fail`] so the peer can
    /// tell index trouble from connection trouble.
    pub fn handle(&mut self, req: &Request) -> Response {
        match req.seq() {
            None => self.handle_readonly(req),
            Some(seq) => {
                if seq <= self.last_applied {
                    return self.outbox.get(&seq).cloned().unwrap_or(Response::Fail {
                        message: format!("sequence {seq} already applied and its response pruned"),
                    });
                }
                let resp = self.apply(req, seq);
                self.last_applied = seq;
                self.applied += 1;
                self.outbox.insert(seq, resp.clone());
                if let Request::Step { ack_through, .. } = req {
                    // Everything at or below `ack_through` was consumed
                    // by the coordinator; it will never be re-asked.
                    self.outbox = self.outbox.split_off(&ack_through.saturating_add(1));
                }
                resp
            }
        }
    }

    fn handle_readonly(&mut self, req: &Request) -> Response {
        match req {
            Request::Hello => Response::HelloAck {
                last_applied: self.last_applied,
            },
            Request::Ping { nonce } => Response::Pong { nonce: *nonce },
            Request::Shutdown => Response::Bye,
            _ => Response::Fail {
                message: format!("{} reached the read-only path", req.kind()),
            },
        }
    }

    /// Applies one mutating request. Index errors become
    /// [`Response::Fail`] and are still recorded in the outbox — the
    /// application is deterministic, so a resend reproduces the same
    /// failure instead of silently diverging.
    fn apply(&mut self, req: &Request, seq: u64) -> Response {
        if !is_sound(req) {
            let message = format!(
                "{} with an out-of-range time or an unsound trajectory",
                req.kind()
            );
            return Response::Fail { message };
        }
        let outcome = match req {
            Request::Init {
                engine,
                t_m,
                buckets_per_tm,
                seed,
                ..
            } => match WorkerPair::build(*engine, *t_m, *buckets_per_tm) {
                Some(pair) => {
                    let pair = self.pair.insert(pair);
                    let seed = std::slice::from_ref(seed);
                    pair.run(seq, seed, None, &mut self.scratch)
                        .map_err(|e| e.to_string())
                }
                None => Err(format!(
                    "index parameters t_m={t_m}, buckets_per_tm={buckets_per_tm}: \
                     need a finite t_m > 0 and at least one bucket per t_m"
                )),
            },
            Request::Step {
                now,
                ops,
                probes_a,
                probes_b,
                ..
            } => match self.pair.as_mut() {
                Some(pair) => {
                    let probes = Some(([&probes_a[..], &probes_b[..]], *now));
                    pair.run(seq, ops, probes, &mut self.scratch)
                        .map_err(|e| e.to_string())
                }
                None => Err(format!("{} before Init", req.kind())),
            },
            _ => Err(format!("{} reached the mutating path", req.kind())),
        };
        outcome.unwrap_or_else(|message| Response::Fail { message })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cij_core::Registration;
    use cij_geom::{MovingRect, Rect};
    use cij_tpr::ObjectId;
    use cij_workload::SetTag;

    fn filed(set: SetTag, id: u64, x: f64) -> (ObjectId, Registration) {
        let mbr = MovingRect::stationary(Rect::new([x, 0.0], [x + 1.0, 1.0]), 0.0);
        let registration = Registration {
            set,
            mbr,
            registered_at: 0.0,
        };
        (ObjectId(id), registration)
    }

    fn init(seq: u64) -> Request {
        Request::Init {
            seq,
            engine: EngineKind::Mtb,
            t_m: 20.0,
            buckets_per_tm: 4,
            seed: Refile {
                now: 0.0,
                removes: vec![],
                inserts: vec![filed(SetTag::A, 1, 0.0), filed(SetTag::B, 2, 0.5)],
            },
        }
    }

    /// The round that joins A-object 1 against the B side.
    fn step(seq: u64, ack_through: u64) -> Request {
        let mbr = filed(SetTag::A, 1, 0.0).1.mbr;
        Request::Step {
            seq,
            now: 0.0,
            ack_through,
            ops: vec![],
            probes_a: vec![mbr],
            probes_b: vec![],
        }
    }

    #[test]
    fn duplicate_sequence_numbers_are_served_from_the_outbox() {
        let mut worker = ShardWorker::ephemeral();
        assert_eq!(worker.handle(&init(1)), Response::Ack { seq: 1 });
        let first = worker.handle(&step(2, 1));
        let Response::StepAck {
            seq: 2,
            hits_a,
            hits_b,
            ..
        } = &first
        else {
            panic!("unexpected {first:?}");
        };
        assert_eq!(hits_a.len(), 1, "probe 0 meets B-object 2");
        assert_eq!(hits_a[0].1, ObjectId(2));
        assert!(hits_b.is_empty());
        // Resending the same step must not re-apply it.
        assert_eq!(worker.handle(&step(2, 1)), first);
        assert_eq!(worker.applied(), 2);
        assert_eq!(worker.last_applied(), 2);
    }

    #[test]
    fn ack_through_prunes_the_outbox() {
        let mut worker = ShardWorker::ephemeral();
        worker.handle(&init(1));
        worker.handle(&step(2, 0));
        assert_eq!(worker.outbox_len(), 2);
        worker.handle(&step(3, 2));
        assert_eq!(worker.outbox_len(), 1, "only the unacked step remains");
    }

    #[test]
    fn a_restarted_worker_reports_zero_progress() {
        let mut worker = ShardWorker::ephemeral();
        worker.handle(&init(1));
        let fresh = ShardWorker::ephemeral();
        assert_eq!(fresh.last_applied(), 0);
        assert_eq!(
            worker.handle(&Request::Hello),
            Response::HelloAck { last_applied: 1 }
        );
    }
}
