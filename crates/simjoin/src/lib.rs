//! # cij-simjoin — continuous ε-threshold similarity join
//!
//! A second query class on the TC-processing stack: instead of "which
//! pairs *intersect*", maintain every pair `(a, b)` whose minimum
//! Euclidean distance within the valid time window is **≤ ε**, together
//! with the exact sub-interval during which the threshold holds.
//!
//! The engine is two existing mechanisms composed, not a new join
//! algorithm:
//!
//! 1. **Candidates — Minkowski inflation.** The B-side TPR-tree indexes
//!    rectangles inflated by ε per axis. `dist ≤ ε` implies every
//!    per-axis gap is ≤ ε, i.e. `a` intersects `inflate(b, ε)` — so the
//!    stock time-constrained intersection join over `(A, inflate(B, ε))`
//!    yields a complete candidate superset, Theorem-1/2 windows and all.
//! 2. **Refine — exact distance intervals.** Each candidate is passed to
//!    [`cij_geom::MovingRect::within_dist_sq_interval`], which solves the
//!    piecewise-quadratic `dist²(t) ≤ ε²` in closed form over the full
//!    maintenance window.
//!
//! Because refined intervals land in the standard `cij-core`
//! `ResultBuffer`, everything downstream — delta extraction, stream
//! subscriptions, WAL recovery, shard routing, metrics — works on the
//! proximity join without modification; see
//! [`proximity_stream_factory`] and [`proximity_shard_factory`].
//!
//! Correctness is pinned by [`BruteProximityEngine`], an exhaustive
//! oracle that calls the *same* refine primitive over the *same* window,
//! making engine-vs-oracle comparisons bit-identical (the tests use
//! `assert_eq!` on pair sets, intervals and `PairStatus`, no tolerance).

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod brute;
mod engine;
mod factory;

pub use brute::BruteProximityEngine;
pub use engine::{ProximityConfig, ProximityJoinEngine, ProximityPair};
pub use factory::{proximity_shard_factory, proximity_stream_factory};
