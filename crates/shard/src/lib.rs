//! # cij-shard — velocity-partitioned indexes behind one engine
//!
//! The repo's engines each index *all* objects in one index pair, so a
//! handful of fast movers forces aggressive MBR expansion on every probe.
//! This crate splits each object set across `K` shards under a
//! [`PartitionPolicy`] — velocity-magnitude bands
//! ([`VelocityBandPolicy`], arXiv:1205.6697) — and files every object in
//! exactly one of K index pairs: a [`PartitionedPair`], run by one
//! [`BufferedEngine`](cij_core::BufferedEngine) with one result buffer.
//! [`ShardCoordinator`] is that engine behind the single-engine trait, so
//! it slots into `run_simulation`, the `cij-stream` service, and the bench
//! harness unchanged.
//!
//! The pair routes updates through a [`ShardRouter`]: an object's shard
//! is the policy's shard of the trajectory the engine's registration
//! table holds for it, and the router keeps only the policy, the
//! per-shard populations and the migration tallies. A
//! trajectory update that crosses a partition boundary becomes a
//! migration (remove from the old partition, insert into the new one)
//! inside a single logical update. The answer is pinned bit-identical to
//! the single-engine oracle by the workspace's `conform` suite
//! (`tests/conform.rs` at the repository root).
//!
//! Partitions need not stay fixed: the coordinator can
//! [`rebalance_to`](ShardCoordinator::rebalance_to) a new policy while the
//! join runs (boundary shift, shard split, shard merge) by moving objects
//! between partitions, and
//! [`enable_adaptive`](ShardCoordinator::enable_adaptive) arms an
//! [`AdaptiveController`] that derives equal-weight boundaries from a
//! streaming quantile sketch of the observed trajectories and triggers
//! those rebalances when the population imbalance crosses a threshold —
//! the `conform` suite pins the answer across re-partition events too.
//!
//! The distributed coordinator of `cij-dist` is the same engine over
//! remote partitions: one worker process per shard.
//!
//! ```
//! use std::sync::Arc;
//! use cij_core::{ContinuousJoinEngine, EngineConfig, MtbPair};
//! use cij_shard::{ShardCoordinator, VelocityBandPolicy};
//! use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
//! use cij_workload::{generate_pair, Params};
//!
//! let params = Params { dataset_size: 200, ..Params::default() };
//! let (set_a, set_b) = generate_pair(&params, 0.0);
//! let pool = BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default());
//! let policy = Arc::new(VelocityBandPolicy::new(4, params.max_speed));
//! let mut coordinator = ShardCoordinator::<MtbPair>::new(
//!     pool,
//!     EngineConfig::default(),
//!     policy,
//!     &set_a,
//!     &set_b,
//!     0.0,
//! )
//! .unwrap();
//! coordinator.run_initial_join(0.0).unwrap();
//! assert_eq!(coordinator.shard_count(), 4); // one index pair per shard
//! let indexed: usize = coordinator.partitions().iter().map(|p| p.mtb_a().len() + p.mtb_b().len()).sum();
//! assert_eq!(indexed, set_a.len() + set_b.len()); // each object once
//! let _pairs = coordinator.result_at(0.0);
//! ```

#![deny(missing_docs)]

pub mod adaptive;
pub mod coordinator;
pub mod partitioned;
pub mod policy;
pub mod report;
pub mod router;

pub use adaptive::{AdaptiveConfig, AdaptiveController};
pub use coordinator::{ShardCoordinator, SharedShardEngineFactory};
pub use partitioned::{PartitionedConfig, PartitionedPair};
pub use policy::{worst_corner_speed, PartitionPolicy, VelocityBandPolicy};
pub use report::ShardReport;
pub use router::{RebalanceMove, ShardRouter};
