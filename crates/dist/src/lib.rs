//! `cij-dist` — coordinator/worker distributed deployment of the
//! partitioned continuous intersection join.
//!
//! The shard crate files every object in exactly one of K partitions and
//! runs one buffered engine over them. This crate moves the partitions
//! out of process, one worker per partition, and keeps the engine — its
//! router, its result buffer, its maintenance protocol — on the
//! coordinator:
//!
//! - a [`ShardWorker`] owns one partition's index pair (TC or MTB) and a
//!   response outbox keyed by sequence number, so it applies each request
//!   exactly once under at-least-once delivery. It holds soft state: a
//!   restarted worker comes back blank;
//! - a [`RemotePair`] is a worker behind the `IndexPair` seam: it queues
//!   the index mutations the coordinator's phase 1 routes to it and runs
//!   phase 2 as one [`Step`](protocol::Request::Step) — those mutations
//!   plus both sides' probes — answered by hits and traversal counters.
//!   A worker it finds lost is re-seeded from the engine's registrations with
//!   the [`Init`](protocol::Request::Init) construction sends;
//! - a [`DistCoordinator`] is the shard coordinator over K remote
//!   pairs: every round goes to all workers at once, over
//!   [`cij_join::fan_out_tasks`], and every read (`result_at`,
//!   `pair_status_at`, `counters`, the change list) is answered from the
//!   coordinator's one result buffer with no RPC. It implements
//!   `ContinuousJoinEngine`, so it wraps in the same `StreamService` as
//!   any local engine;
//! - the [`Transport`] seam is pluggable: an in-process [`loopback`]
//!   with deterministic kill/restart fault injection for the
//!   `conform` suite, and a length+CRC32-framed [`tcp`] transport
//!   (plus the `shard_worker` binary) for real multi-process runs.
//!
//! Pinned by the workspace's `conform` suite: the delta stream a
//! `StreamService` emits over a `DistCoordinator` is the one it emits
//! over a single-process `ShardCoordinator` with the same policy —
//! including runs where a worker is killed mid-stream, or mid-round, and
//! re-seeded, and a coordinator rebuilt over workers that are still up.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod coordinator;
mod error;
pub mod loopback;
pub mod protocol;
mod remote;
pub mod tcp;
mod transport;
mod worker;

pub use coordinator::{joinable_pairs, DistConfig, DistCoordinator};
pub use error::{DistError, DistResult};
pub use protocol::{EngineKind, IndexOp, Request, Response};
pub use remote::{RemoteConfig, RemotePair};
pub use transport::{Connector, Transport};
pub use worker::ShardWorker;
