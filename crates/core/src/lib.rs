//! # cij-core — continuous intersection joins over moving objects
//!
//! The paper's contribution, assembled from the substrate crates: given
//! two sets of moving objects (each indexed by TPR-trees through a shared
//! buffer pool), continuously report every intersecting pair as objects
//! send updates.
//!
//! Four interchangeable engines implement the
//! [`ContinuousJoinEngine`] trait:
//!
//! * [`NaiveEngine`] — §II-C: unconstrained joins to the infinite
//!   timestamp; answer updates only on object updates, but each one
//!   touches nearly the whole opposing tree.
//! * [`TcEngine`] — §IV-B Theorem 1: identical structure, every join
//!   window capped at `t_u + T_M`.
//! * [`EtpEngine`] — §III: the extended time-parameterized join
//!   competitor; cheap per run but re-runs at every result change.
//! * [`MtbEngine`] — §IV-C Theorem 2 + §IV-D: objects grouped into
//!   time-bucket TPR-trees ([`MtbTree`]), per-bucket windows
//!   `[t_c, t_eb + T_M]`, improvement techniques on the initial join —
//!   the paper's full proposal.
//!
//! [`ResultBuffer`] holds the continuously-maintained answer (the paper
//! assumes it fits in main memory, §II-A), and [`window`] carries the
//! §V discussion: TC processing grafted onto continuous window queries.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod engine;
pub mod knn;
mod mtb;
mod result;
pub mod sim;
pub mod window;

pub use engine::{
    apply_op_runs, publish_engine_totals, BxEngine, ContinuousJoinEngine, EngineConfig,
    EngineConfigBuilder, EtpEngine, MtbEngine, NaiveEngine, TcEngine,
};
pub use mtb::MtbTree;
pub use result::{PairKey, PairStatus, ResultBuffer};
pub use sim::{run_simulation, SimMetrics};
