//! # cij-simjoin — continuous ε-threshold similarity join
//!
//! A second query class on the TC-processing stack: instead of "which
//! pairs *intersect*", maintain every pair `(a, b)` whose minimum
//! Euclidean distance within the valid time window is **≤ ε**, together
//! with the exact sub-interval during which the threshold holds.
//!
//! The join is two existing mechanisms composed, not a new join
//! algorithm, in one wrapper, [`Within<P>`](Within), over any
//! intersection index pair `P`:
//!
//! 1. **Candidates — Minkowski inflation.** `P` files the registrations
//!    as they are, and answers every probe inflated by ε per axis.
//!    `dist ≤ ε` implies every per-axis gap is ≤ ε, i.e. `inflate(a, ε)`
//!    intersects `b` — so `P`'s stock intersection join yields a complete
//!    candidate superset, over `P`'s own windows.
//! 2. **Refine — exact distance intervals.** Each candidate is passed to
//!    [`cij_geom::MovingRect::within_dist_sq_interval`], which solves the
//!    piecewise-quadratic `dist²(t) ≤ ε²` in closed form over the full
//!    maintenance window.
//!
//! [`ProximityJoinEngine`] is the join over a `TcPair` (Theorem 1's
//! windows). Over an `MtbPair` it runs Theorem 2's bucket windows, and
//! then the `T_M` contract binds both sides, as it does for `MtbEngine`:
//! an object that stays silent past its bucket's deadline drops out of
//! the candidates. Over the shard crate's `PartitionedPair` it is the
//! sharded ε-join: the partitions find the candidates, the refine runs
//! once outside them.
//!
//! Because refined intervals land in the standard `cij-core`
//! `ResultBuffer`, everything downstream — delta extraction, stream
//! subscriptions, WAL recovery, metrics — works on the proximity join
//! without modification; see [`proximity_stream_factory`].
//!
//! Correctness is pinned by [`BruteProximityEngine`], an exhaustive
//! oracle that calls the *same* refine primitive over the *same* window,
//! making engine-vs-oracle comparisons bit-identical (the tests use
//! `assert_eq!` on pair sets and held intervals, no tolerance).

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod brute;
mod engine;
mod factory;

pub use brute::BruteProximityEngine;
pub use engine::{ProximityConfig, ProximityJoinEngine, Within};
pub use factory::proximity_stream_factory;
