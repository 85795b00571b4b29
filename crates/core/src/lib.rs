//! # cij-core — continuous intersection joins over moving objects
//!
//! The paper's contribution, assembled from the substrate crates: given
//! two sets of moving objects (each indexed by TPR-trees through a shared
//! buffer pool), continuously report every intersecting pair as objects
//! send updates.
//!
//! Two engines implement the [`ContinuousJoinEngine`] trait.
//! [`BufferedEngine`] is the update-driven one: the maintenance protocol
//! (re-register, drop the object's pairs, probe the other side over a
//! window, buffer the hits) written once over an [`IndexPair`], which
//! picks the index and the window:
//!
//! * [`NaiveEngine`] — §II-C: unconstrained joins to the infinite
//!   timestamp; answer updates only on object updates, but each one
//!   touches nearly the whole opposing tree.
//! * [`TcEngine`] — §IV-B Theorem 1: identical structure, every join
//!   window capped at `t_u + T_M`.
//! * [`MtbEngine`] — §IV-C Theorem 2 + §IV-D: objects grouped into
//!   time-bucket TPR-trees ([`MtbTree`]), per-bucket windows
//!   `[t_c, t_eb + T_M]`, improvement techniques on the initial join —
//!   the paper's full proposal.
//!
//! [`EtpEngine`] — §III — is the extended time-parameterized join
//! competitor: no interval buffer, cheap per run, but re-run at every
//! result change.
//!
//! [`ResultBuffer`] holds the continuously-maintained answer (the paper
//! assumes it fits in main memory, §II-A).
//!
//! ## Continuous window queries (§V)
//!
//! A continuous window query is "essentially computing the intersection
//! between objects and query windows" — a join whose set B is the
//! windows. So a window monitor is a [`TcEngine`] with the windows
//! (static or moving) registered once on side B under ids disjoint from
//! the fleet's; "who is in window *q* at *t*" is
//! [`result_at`](ContinuousJoinEngine::result_at) filtered on the B id.
//! TC-Join needs only the *object* side to honour `T_M` (see [`TcPair`]),
//! so the windows never re-register.
//!
//! ```
//! use std::sync::Arc;
//! use cij_core::{ContinuousJoinEngine, EngineConfig, TcEngine};
//! use cij_geom::{MovingRect, Rect};
//! use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
//! use cij_tpr::ObjectId;
//! use cij_workload::MovingObject;
//!
//! // One object heading toward the monitored region.
//! let fleet = [MovingObject {
//!     id: ObjectId(9),
//!     mbr: MovingRect::rigid(Rect::new([0.0, 5.0], [1.0, 6.0]), [2.0, 0.0], 0.0),
//! }];
//! let q = ObjectId(1 << 32);
//! let windows = [MovingObject {
//!     id: q,
//!     mbr: MovingRect::stationary(Rect::new([50.0, 0.0], [70.0, 10.0]), 0.0),
//! }];
//!
//! let pool = BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default());
//! let mut monitor = TcEngine::new(pool, EngineConfig::default(), &fleet, &windows, 0.0)?;
//! monitor.run_initial_join(0.0)?;
//!
//! // Not inside yet at t = 0, but predicted inside by t = 25 (front
//! // reaches x = 50 at t = 24.5) — one bounded join covered the whole
//! // T_M window.
//! let inside = |t| -> Vec<ObjectId> {
//!     let pairs = monitor.result_at(t).into_iter();
//!     pairs.filter(|&(_, w)| w == q).map(|(o, _)| o).collect()
//! };
//! assert!(inside(0.0).is_empty());
//! assert_eq!(inside(25.0), vec![ObjectId(9)]);
//! # Ok::<(), cij_tpr::TprError>(())
//! ```
//!
//! "Tell me when membership of *q* changes" is `cij_stream`'s
//! `StreamService` over a `TcEngine` factory with
//! `SubscriptionFilter::Object(q)`. §V's MTB refinement is [`MtbEngine`]
//! on the same input, for callers whose windows re-register within `T_M`
//! like any object (see [`MtbPair`]).

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod buffered;
mod engine;
mod mtb;
mod result;
pub mod sim;

pub use buffered::{
    BufferedEngine, IndexPair, MtbEngine, MtbPair, NaiveEngine, NaivePair, TcEngine, TcPair,
    TprPair,
};
pub use engine::{
    apply_op_runs, publish_engine_totals, ContinuousJoinEngine, EngineConfig, EngineConfigBuilder,
    EngineOp, EtpEngine,
};
pub use mtb::MtbTree;
pub use result::{PairKey, PairStatus, ResultBuffer};
pub use sim::{run_simulation, SimMetrics};
