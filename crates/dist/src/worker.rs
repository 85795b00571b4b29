//! The shard worker: one shard-pair engine, a request WAL, and a
//! response outbox, behind any [`Transport`](crate::Transport).
//!
//! A worker is a deterministic request-application machine. Mutating
//! requests ([`Request::seq`] = `Some`) are journaled to the worker's
//! WAL *before* they touch the engine; restart recovery replays the
//! durable prefix through the very same dispatch path, rebuilding the
//! engine **and** the outbox — so a restarted worker answers a resent
//! request with byte-identical content, which is what keeps the
//! coordinator's merged delta stream bit-identical across worker
//! crashes. A request whose sequence number was already applied is
//! answered from the outbox without re-execution (exactly-once apply
//! over at-least-once delivery).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use cij_core::{
    apply_op_runs, ContinuousJoinEngine, EngineConfig, EngineOp, MtbEngine, NaiveEngine, PairKey,
    TcEngine,
};
use cij_geom::{in_range, Time};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore, Wal};
use cij_tpr::{TprError, TprResult};
use cij_workload::MovingObject;

use crate::error::{DistError, DistResult};
use crate::protocol::{EngineKind, Request, Response};

/// Builds a worker's engine from the parameters shipped in
/// [`Request::Init`]. Each worker owns a private in-memory page store —
/// the distributed deployment's point is that workers share *nothing*.
///
/// # Errors
/// [`TprError::Unsupported`] for parameters no engine can be built from
/// (they arrive from the wire or the journal, and the MTB-tree asserts on
/// them); the engine constructors' own errors otherwise.
pub fn build_engine(
    kind: EngineKind,
    t_m: Time,
    buckets_per_tm: u32,
    set_a: &[MovingObject],
    set_b: &[MovingObject],
    start: Time,
) -> TprResult<Box<dyn ContinuousJoinEngine + Send>> {
    if !(start.is_finite() && t_m.is_finite() && t_m > 0.0 && buckets_per_tm >= 1) {
        return Err(TprError::Unsupported {
            what: format!(
                "engine parameters start={start}, t_m={t_m}, buckets_per_tm={buckets_per_tm}: \
                 need a finite start, a finite t_m > 0 and at least one bucket per t_m"
            ),
        });
    }
    let pool = BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(1024),
    );
    let config = EngineConfig::builder()
        .t_m(t_m)
        .buckets_per_tm(buckets_per_tm)
        .build();
    Ok(match kind {
        EngineKind::Naive => Box::new(NaiveEngine::new(pool, config, set_a, set_b, start)?),
        EngineKind::Tc => Box::new(TcEngine::new(pool, config, set_a, set_b, start)?),
        EngineKind::Mtb => Box::new(MtbEngine::new(pool, config, set_a, set_b, start)?),
    })
}

/// Whether `req`'s times and trajectories can be handed to an engine. The
/// engines assume what a well-behaved coordinator sends and assert on it;
/// a socket or a journal promises nothing.
fn is_sound(req: &Request) -> bool {
    match req {
        Request::Init {
            set_a,
            set_b,
            start,
            ..
        } => set_a
            .iter()
            .chain(set_b)
            .all(|o| o.mbr.is_sound_from(*start)),
        Request::Start { now, .. } => in_range(*now),
        Request::Step { now, ops, .. } => {
            in_range(*now) && ops.iter().all(|op| op.is_sound_at(*now))
        }
        Request::Immediate { now, op, .. } => op.is_sound_at(*now),
        _ => true,
    }
}

/// One worker: engine, WAL, outbox (see the module docs).
pub struct ShardWorker {
    engine: Option<Box<dyn ContinuousJoinEngine + Send>>,
    wal: Option<Wal>,
    last_applied: u64,
    outbox: BTreeMap<u64, Response>,
    /// Mutating requests applied since construction (replayed records
    /// included) — exported to observers, not used for control flow.
    applied: u64,
    /// Records replayed from the WAL at construction.
    recovered: u64,
}

impl ShardWorker {
    /// A worker with no durability: a crash loses everything and the
    /// coordinator must resync it from scratch.
    #[must_use]
    pub fn ephemeral() -> Self {
        Self {
            engine: None,
            wal: None,
            last_applied: 0,
            outbox: BTreeMap::new(),
            applied: 0,
            recovered: 0,
        }
    }

    /// Opens (or creates) a durable worker at `wal_path`. If the WAL
    /// already holds records — the worker is restarting after a crash —
    /// the durable prefix is replayed through the normal dispatch path,
    /// rebuilding engine, outbox and high-water sequence number. A torn
    /// tail record is dropped (it was never acknowledged; the
    /// coordinator resends it).
    ///
    /// # Errors
    /// [`DistError`] when the WAL cannot be opened or a durable record
    /// fails to decode (version mismatch included).
    pub fn open(wal_path: &Path) -> DistResult<Self> {
        let (wal, recovery) = Wal::open(wal_path).map_err(DistError::from)?;
        let mut worker = Self::ephemeral(); // no journaling during replay
        for record in &recovery.records {
            let req = Request::decode(record)?;
            worker.handle(&req);
            worker.recovered += 1;
        }
        worker.wal = Some(wal);
        Ok(worker)
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

    /// Records replayed from the WAL at construction.
    #[must_use]
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// Cached responses awaiting coordinator acknowledgement.
    #[must_use]
    pub fn outbox_len(&self) -> usize {
        self.outbox.len()
    }

    /// Dispatches one request. Never panics and never returns transport
    /// errors — every failure is a [`Response::Fail`] so the peer can
    /// tell engine trouble from connection trouble.
    pub fn handle(&mut self, req: &Request) -> Response {
        match req.seq() {
            None => self.handle_readonly(req),
            Some(seq) => {
                if seq <= self.last_applied {
                    return self.outbox.get(&seq).cloned().unwrap_or(Response::Fail {
                        message: format!("sequence {seq} already applied and its response pruned"),
                    });
                }
                if let Some(wal) = &mut self.wal {
                    let journal = wal.append(&req.encode()).and_then(|_| wal.sync());
                    if let Err(e) = journal {
                        return Response::Fail {
                            message: format!("journal write failed: {e}"),
                        };
                    }
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
            Request::PairStatusAt { pair, t } => Response::Status(
                self.engine
                    .as_ref()
                    .map(|e| e.pair_status_at(*pair, *t))
                    .unwrap_or_default(),
            ),
            Request::ResultAt { t } => Response::Pairs(
                self.engine
                    .as_ref()
                    .map(|e| e.result_at(*t))
                    .unwrap_or_default(),
            ),
            Request::Counters => Response::CountersAck(
                self.engine
                    .as_ref()
                    .map(|e| e.counters())
                    .unwrap_or_default(),
            ),
            Request::Ping { nonce } => Response::Pong { nonce: *nonce },
            Request::Shutdown => Response::Bye,
            _ => Response::Fail {
                message: format!("{} reached the read-only path", req.kind()),
            },
        }
    }

    /// Applies one journaled request. Engine errors become
    /// [`Response::Fail`] and are still recorded in the outbox — the
    /// application is deterministic, so a replay or resend reproduces
    /// the same failure instead of silently diverging.
    fn apply(&mut self, req: &Request, seq: u64) -> Response {
        if !is_sound(req) {
            let message = format!(
                "{} with an out-of-range time or an unsound trajectory",
                req.kind()
            );
            return Response::Fail { message };
        }
        let ack = Response::Ack { seq };
        let outcome = match req {
            Request::Init {
                engine,
                t_m,
                buckets_per_tm,
                set_a,
                set_b,
                start,
                ..
            } => build_engine(*engine, *t_m, *buckets_per_tm, set_a, set_b, *start)
                .map(|built| {
                    self.engine = Some(built);
                    ack
                })
                .map_err(|e| e.to_string()),
            Request::Track { .. } => self.on_engine(req, |e| {
                e.enable_delta_tracking();
                Ok(ack)
            }),
            Request::Start { now, .. } => {
                self.on_engine(req, |e| e.run_initial_join(*now).map(|()| ack))
            }
            Request::Step { now, ops, .. } => self.on_engine(req, |e| {
                Self::step(e, *now, ops).map(|changes| Response::StepAck { seq, changes })
            }),
            Request::Immediate { now, op, .. } => {
                self.on_engine(req, |e| op.apply(e, *now).map(|()| ack))
            }
            _ => Err(format!("{} reached the mutating path", req.kind())),
        };
        outcome.unwrap_or_else(|message| Response::Fail { message })
    }

    /// Runs `op` on the engine; the error (rendered, for
    /// [`Response::Fail`]) is `op`'s, or that `req` came before any
    /// [`Request::Init`] built one.
    fn on_engine(
        &mut self,
        req: &Request,
        op: impl FnOnce(&mut dyn ContinuousJoinEngine) -> TprResult<Response>,
    ) -> Result<Response, String> {
        match self.engine.as_mut() {
            Some(engine) => op(engine.as_mut()).map_err(|e| e.to_string()),
            None => Err(format!("{} before Init", req.kind())),
        }
    }

    /// One tick, in exactly the single-process service order: advance
    /// the clock, apply the ops, garbage-collect, drain the changes.
    fn step(
        engine: &mut dyn ContinuousJoinEngine,
        now: Time,
        ops: &[EngineOp],
    ) -> TprResult<Option<Vec<PairKey>>> {
        engine.advance_time(now)?;
        apply_op_runs(engine, ops, now)?;
        engine.gc(now);
        Ok(engine.take_result_changes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cij_geom::{MovingRect, Rect};
    use cij_tpr::ObjectId;

    fn obj(id: u64, x: f64) -> MovingObject {
        MovingObject {
            id: ObjectId(id),
            mbr: MovingRect::stationary(Rect::new([x, 0.0], [x + 1.0, 1.0]), 0.0),
        }
    }

    fn init(seq: u64) -> Request {
        Request::Init {
            seq,
            engine: EngineKind::Mtb,
            t_m: 20.0,
            buckets_per_tm: 4,
            set_a: vec![obj(1, 0.0)],
            set_b: vec![obj(2, 0.5)],
            start: 0.0,
        }
    }

    #[test]
    fn duplicate_sequence_numbers_are_served_from_the_outbox() {
        let mut worker = ShardWorker::ephemeral();
        assert_eq!(worker.handle(&init(1)), Response::Ack { seq: 1 });
        assert_eq!(
            worker.handle(&Request::Track { seq: 2 }),
            Response::Ack { seq: 2 }
        );
        assert_eq!(
            worker.handle(&Request::Start { seq: 3, now: 0.0 }),
            Response::Ack { seq: 3 }
        );
        let step = Request::Step {
            seq: 4,
            now: 1.0,
            ops: vec![],
            ack_through: 0,
        };
        let first = worker.handle(&step);
        let Response::StepAck {
            seq: 4,
            changes: Some(changes),
        } = &first
        else {
            panic!("unexpected {first:?}");
        };
        assert_eq!(changes.len(), 1, "the initial join found (1, 2)");
        // Resending the same step must not re-apply it.
        assert_eq!(worker.handle(&step), first);
        assert_eq!(worker.applied(), 4);
        assert_eq!(worker.last_applied(), 4);
    }

    #[test]
    fn ack_through_prunes_the_outbox() {
        let mut worker = ShardWorker::ephemeral();
        worker.handle(&init(1));
        worker.handle(&Request::Track { seq: 2 });
        worker.handle(&Request::Start { seq: 3, now: 0.0 });
        assert_eq!(worker.outbox_len(), 3);
        worker.handle(&Request::Step {
            seq: 4,
            now: 1.0,
            ops: vec![],
            ack_through: 3,
        });
        assert_eq!(worker.outbox_len(), 1, "only the unacked step remains");
    }

    #[test]
    fn a_worker_that_lost_its_wal_reports_zero_progress() {
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
