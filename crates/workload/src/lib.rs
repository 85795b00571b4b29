//! # cij-workload — synthetic moving-object workloads
//!
//! The paper evaluates on synthetic datasets produced by the generator of
//! the TPR-tree authors (not publicly released); this crate rebuilds the
//! same workload family from the published description (§VI-A, Table I):
//!
//! * **Uniform** — positions and directions uniform, speed uniform in
//!   `(0, max_speed]`.
//! * **Gaussian** — positions Gaussian around the space center, motion as
//!   uniform.
//! * **Battlefield** — the two joined sets start clustered on opposite
//!   sides of the space and move toward the opposing party.
//!
//! Objects are squares; every object updates at least once every `T_M`
//! timestamps (the maximum update interval), with voluntary
//! direction/speed changes on top — [`UpdateStream`] produces exactly
//! that discipline, deterministically from a seed.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod dataset;
mod params;
mod updates;

pub use dataset::{
    generate_pair, generate_set, skew_speed_bounds, Distribution, MovingObject, SKEW_FAST_MODULUS,
};
pub use params::Params;
pub use updates::{ObjectUpdate, SetTag, UpdateStream};
