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
//! assumes it fits in main memory, §II-A), and [`window`] carries the
//! §V discussion: TC processing grafted onto continuous window queries.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod buffered;
mod engine;
pub mod knn;
mod mtb;
mod result;
pub mod sim;
pub mod window;

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
