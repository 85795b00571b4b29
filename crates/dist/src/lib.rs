//! `cij-dist` — coordinator/worker distributed deployment of the
//! sharded continuous intersection join.
//!
//! The paper's join splits cleanly into K×K state-disjoint shard-pair
//! engines (one per A-shard × B-shard of `cij-shard`'s partitions)
//! whose merged answer equals the single engine's. This crate runs
//! those engines out of process:
//!
//! - a [`ShardWorker`] owns one shard-pair [`ContinuousJoinEngine`](cij_core::ContinuousJoinEngine),
//!   journals every mutating request to its own WAL *before* applying
//!   it, and keeps a response outbox keyed by sequence number — so it
//!   applies each request exactly once under at-least-once delivery and
//!   rebuilds both engine and outbox on restart;
//! - a [`DistCoordinator`] routes object updates through a
//!   [`PartitionPolicy`](cij_shard::PartitionPolicy) and the shard
//!   router's row/column fan-out, drives every worker in lockstep with
//!   one [`Step`](protocol::Request::Step) per tick — the workers of a
//!   round called concurrently, over [`cij_join::fan_out_tasks`] — and
//!   merges the workers' drained result
//!   changes in slot order — implementing
//!   `ContinuousJoinEngine` itself, so it wraps in the same
//!   `StreamService` as any local engine;
//! - the [`Transport`] seam is pluggable: an in-process [`loopback`]
//!   with deterministic kill/restart fault injection for the
//!   differential suite, and a length+CRC32-framed [`tcp`] transport
//!   (plus the `shard_worker` binary) for real multi-process runs.
//!
//! The headline property, pinned by the crate's differential tests: the
//! merged delta stream a `StreamService` emits over a
//! `DistCoordinator` is **bit-identical** to the one it emits over a
//! single-process `ShardCoordinator` with the same policy — including
//! runs where a worker is killed mid-stream and recovers from its WAL,
//! and runs where the worker's WAL is lost and the coordinator resyncs
//! it by replaying its retained request history.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod coordinator;
mod error;
pub mod loopback;
pub mod protocol;
pub mod tcp;
mod transport;
mod worker;

pub use coordinator::{joinable_pairs, DistConfig, DistCoordinator};
pub use error::{DistError, DistResult};
pub use protocol::{EngineKind, Request, Response};
pub use transport::{Connector, Transport};
pub use worker::{build_engine, ShardWorker};
