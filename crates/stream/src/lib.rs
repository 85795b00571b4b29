//! `cij-stream` — streaming update-ingestion and result-delta
//! subscription service over the continuous-join engines.
//!
//! The paper's engines answer "which pairs intersect *now*" through
//! snapshot queries ([`result_at`](cij_core::ContinuousJoinEngine::result_at)).
//! This crate turns any of them into an event-driven service for
//! consumers that want to be *told* when the answer changes:
//!
//! - [`StreamService::submit`] ingests [`ObjectUpdate`](cij_workload::ObjectUpdate)
//!   events into a bounded, tick-coalescing queue with explicit
//!   backpressure ([`IngestOutcome`]);
//! - [`StreamService::advance_to`] applies the due batches and emits
//!   [`ResultDelta`]s — `PairAdded` with the pair's predicted valid
//!   interval, `PairRemoved` when it leaves — instead of snapshots.
//!   Replaying the deltas from the empty set reconstructs `result_at`
//!   exactly at every tick (the crate's differential tests pin this for
//!   all four engines);
//! - [`StreamService::subscribe`] registers consumers with per-consumer
//!   [`SubscriptionFilter`]s and bounded outboxes; slow consumers lose
//!   the oldest deliveries and see an explicit [`OutboxItem::Gap`];
//! - with a [`wal_path`](StreamConfig::wal_path) configured, every
//!   batch is journaled to a CRC-framed write-ahead log *before* it is
//!   applied, and [`StreamService::recover`] rebuilds engine and
//!   subscription state from the durable prefix after a crash — torn
//!   tail records included.
//!
//! The delta extraction is genuinely incremental for the
//! interval-predicting engines (Naive/TC/MTB): it consumes the
//! [`ResultBuffer`](cij_core::ResultBuffer) changelog — which the
//! buffer's endpoint sweep extends to the pairs whose interval began or
//! ran out since the last tick — so per-tick work scales with the number
//! of *changed* pairs, the streaming payoff of the paper's bounded valid
//! intervals (Theorems 1–2). ETP, which predicts no intervals, is
//! served by a snapshot-diff fallback behind the same contract. Fan-out
//! is index-driven as well: a delta looks its subscribers up (by object
//! id, by window position, by who holds the pair) instead of being shown
//! to each of them.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod config;
mod delta;
mod error;
mod event;
mod ingest;
mod service;
mod shed;
mod subscribe;
pub mod wire;

pub use config::{StreamConfig, StreamConfigBuilder};
pub use error::{StreamError, StreamResult};
pub use event::{OutboxItem, ResultDelta, StampedDelta};
pub use ingest::{IngestOutcome, IngestQueue, QueuedUpdate};
pub use service::{EngineFactory, RecoveryReport, StreamService};
pub use shed::ShedPolicy;
pub use subscribe::{SubscriberId, SubscriptionFilter};
pub use wire::{WireError, PROTOCOL_MAGIC, PROTOCOL_VERSION};
