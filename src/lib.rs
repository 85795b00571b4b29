//! # cij — continuous intersection joins over moving objects
//!
//! A from-scratch Rust reproduction of *Continuous Intersection Joins
//! Over Moving Objects* (Zhang, Lin, Ramamohanarao, Bertino — ICDE
//! 2008): time-constrained (TC) query processing, the MTB-tree, the
//! improvement techniques it enables, and every baseline the paper
//! compares against — on top of a from-scratch disk-resident TPR-tree.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`geom`] | `cij-geom` | moving rectangles, time-interval algebra |
//! | [`storage`] | `cij-storage` | 4 KB pages, LRU buffer pool, I/O stats |
//! | [`tpr`] | `cij-tpr` | the TPR/TPR*-tree |
//! | [`join`] | `cij-join` | NaiveJoin, TP-Join, TC-Join, ImprovedJoin |
//! | [`core`] | `cij-core` | continuous engines (a window query is a `TcEngine` whose set B is the windows), MTB-tree |
//! | [`workload`] | `cij-workload` | the paper's synthetic workloads |
//! | [`stream`] | `cij-stream` | update ingestion, result-delta subscriptions, WAL recovery |
//! | [`shard`] | `cij-shard` | partitioned multi-engine coordinator with cross-shard join routing |
//! | [`dist`] | `cij-dist` | coordinator/worker distributed deployment with pluggable transport |
//! | [`simjoin`] | `cij-simjoin` | continuous ε-threshold similarity join (Minkowski candidates + exact refine) |
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use cij::core::{ContinuousJoinEngine, EngineConfig, MtbEngine};
//! use cij::storage::{BufferPool, BufferPoolConfig, InMemoryStore};
//! use cij::workload::{generate_pair, Params, UpdateStream};
//!
//! // Two sets of 500 moving objects, paper-default parameters.
//! let params = Params { dataset_size: 500, ..Params::default() };
//! let (set_a, set_b) = generate_pair(&params, 0.0);
//!
//! // A simulated disk with the paper's 50-page LRU buffer.
//! let pool = BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default());
//!
//! // The paper's full proposal: MTB-Join.
//! let mut engine = MtbEngine::new(pool, EngineConfig::default(), &set_a, &set_b, 0.0).unwrap();
//! engine.run_initial_join(0.0).unwrap();
//! println!("{} intersecting pairs at t=0", engine.result_at(0.0).len());
//!
//! // Maintain continuously as objects update.
//! let mut stream = UpdateStream::new(&params, &set_a, &set_b, 0.0);
//! for tick in 1..=10 {
//!     let now = f64::from(tick);
//!     // One call per tick: the engine probes the whole batch in one
//!     // traversal per index instead of one walk per update.
//!     engine.apply_batch(&stream.tick(now), now).unwrap();
//!     let _pairs = engine.result_at(now);
//! }
//! ```

#![deny(missing_docs)]

pub use cij_core as core;
pub use cij_dist as dist;
pub use cij_geom as geom;
pub use cij_join as join;
pub use cij_shard as shard;
pub use cij_simjoin as simjoin;
pub use cij_storage as storage;
pub use cij_stream as stream;
pub use cij_tpr as tpr;
pub use cij_workload as workload;
