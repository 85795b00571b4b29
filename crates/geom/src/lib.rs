//! # cij-geom — time-parameterized geometry kernel
//!
//! The geometric substrate for *Continuous Intersection Joins Over Moving
//! Objects* (Zhang et al., ICDE 2008). Moving objects are modelled the way
//! the paper (and the TPR-tree literature it builds on) models them: a
//! minimum bounding rectangle (MBR) captured at a reference time plus a
//! velocity bounding rectangle (VBR), so every bound of the rectangle is a
//! linear function of time.
//!
//! The kernel provides:
//!
//! * [`TimeInterval`] — closed time intervals with an `∞` upper end, the
//!   currency of every join algorithm in the paper (`intersect(e_A, e_B,
//!   t_s, t_e)` returns one of these).
//! * [`Rect`] — plain axis-aligned rectangles (a moving rectangle frozen at
//!   one instant).
//! * [`MovingRect`] — the core type: evaluation at a timestamp, bounding
//!   unions, the time-interval intersection test of the paper's
//!   `intersect()` primitive, and the integral metrics (area and
//!   overlap integrals over a horizon) that drive TPR/TPR*-tree insertion
//!   heuristics.
//!
//! Everything is `f64`, two-dimensional (the paper presents 2-D and notes
//! the techniques generalize), and allocation-free on the hot paths.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod distance;
pub mod interval;
pub mod moving;
pub mod rect;

pub use interval::{TimeInterval, INFINITE_TIME};
pub use moving::{in_range, AnchoredRect, MovingRect};
pub use rect::Rect;

/// Timestamps and durations. The paper's driver advances integer ticks but
/// all geometry is continuous, so we keep `f64` throughout.
pub type Time = f64;

/// Number of spatial dimensions. The paper focuses on 2-D; the code is
/// written against this constant so a 3-D port is a one-line change plus
/// recompilation.
pub const DIMS: usize = 2;
