//! # cij-shard — partitioned multi-engine coordination
//!
//! The repo's engines each index *all* objects in one TPR-tree pair, so
//! a handful of fast movers forces aggressive MBR expansion on every
//! probe and one engine owns the whole update stream. This crate splits
//! each object set across `K` shards under a pluggable
//! [`PartitionPolicy`] — velocity-magnitude bands (arXiv:1205.6697) or
//! spatial strips — runs one full
//! [`ContinuousJoinEngine`](cij_core::ContinuousJoinEngine) per
//! joinable shard pair (the slots of the policy's [`JoinPlan`]), and
//! hides the whole arrangement behind the single-engine trait:
//! [`ShardCoordinator`] slots into `run_simulation`, the `cij-stream`
//! service, and the bench harness unchanged.
//!
//! The coordinator routes updates through a [`ShardRouter`] that owns
//! object → shard placement and everything derived from it (the
//! per-shard populations, the update → engine-op projection); a
//! trajectory update that crosses a partition boundary becomes a
//! migration (delete from the old shard's engines, insert into the new
//! one's) inside a single logical update. Independent shard-pair
//! engines execute in parallel via the same deterministic fan-out
//! discipline as the PR-1 join worklist ([`cij_join::fan_out_tasks`]),
//! and the merged answer is pinned bit-identical to the single-engine
//! oracle by the differential suite in `tests/differential.rs`.
//!
//! Partitions need not stay fixed: the coordinator keeps its engine
//! factory, so it can [`rebalance_to`](ShardCoordinator::rebalance_to)
//! a new policy while the join runs (boundary shift, shard split, shard
//! merge), and [`enable_adaptive`](ShardCoordinator::enable_adaptive)
//! arms an [`AdaptiveController`] that derives equal-weight boundaries
//! from a streaming quantile sketch of the observed trajectories and
//! triggers those rebalances when the population imbalance crosses a
//! threshold — the differential suite pins the merged answer across
//! re-partition events too.
//!
//! ```
//! use std::sync::Arc;
//! use cij_core::{ContinuousJoinEngine, EngineConfig, MtbEngine};
//! use cij_shard::{ShardCoordinator, VelocityBandPolicy};
//! use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
//! use cij_workload::{generate_pair, Params};
//!
//! let params = Params { dataset_size: 200, ..Params::default() };
//! let (set_a, set_b) = generate_pair(&params, 0.0);
//! let pool = BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default());
//! let policy = Arc::new(VelocityBandPolicy::new(4, params.max_speed));
//! let mut coordinator = ShardCoordinator::with_factory(
//!     pool,
//!     EngineConfig::default(),
//!     policy,
//!     &set_a,
//!     &set_b,
//!     0.0,
//!     Arc::new(|pool, config, a, b, now| {
//!         Ok(Box::new(MtbEngine::new(pool, *config, a, b, now)?))
//!     }),
//! )
//! .unwrap();
//! coordinator.run_initial_join(0.0).unwrap();
//! assert_eq!(coordinator.engine_count(), 16); // 4×4 shard pairs
//! let _pairs = coordinator.result_at(0.0);
//! ```

#![deny(missing_docs)]

pub mod adaptive;
pub mod coordinator;
pub mod plan;
pub mod policy;
pub mod report;
pub mod router;

pub use adaptive::{AdaptiveConfig, AdaptiveController};
pub use coordinator::{ShardCoordinator, SharedShardEngineFactory};
pub use plan::JoinPlan;
pub use policy::{worst_corner_speed, PartitionPolicy, SpatialGridPolicy, VelocityBandPolicy};
pub use report::{PairReport, ShardReport};
pub use router::{ObjectRecord, RebalanceMove, ShardRouter};
