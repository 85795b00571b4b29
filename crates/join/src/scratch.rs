//! Reusable per-traversal scratch buffers for the join kernels.
//!
//! The synchronous traversal visits one node pair per recursion step and
//! needs several short-lived buffers at each depth: the IC-filtered entry
//! index lists, the two plane-sweep arrays, the candidate staging vector,
//! and the lanes the child nodes are read into.
//! Allocating them per visit (the seed behaviour) puts `malloc`/`free` on
//! the hottest loop of the system; [`JoinScratch`] instead keeps one
//! [`Frame`] of buffers per recursion depth and hands them out with
//! [`std::mem::take`], so a warm traversal allocates nothing. A batched
//! probe also keeps here what it computes once per call for each probe:
//! its swept region and its anchored bounds.

use crate::sweep::SweepSoa;
use cij_geom::{AnchoredRect, MovingRect, Rect, TimeInterval};
use cij_tpr::EntryLanes;

/// One recursion depth's worth of buffers. All vectors are cleared, not
/// shrunk, between visits.
#[derive(Debug, Default)]
pub(crate) struct Frame {
    /// IC-surviving entry positions in node `a` (indices into its
    /// lanes).
    pub sa: Vec<u32>,
    /// IC-surviving entry positions in node `b`.
    pub sb: Vec<u32>,
    /// Plane-sweep state for side `a`.
    pub sweep_a: SweepSoa,
    /// Plane-sweep state for side `b`.
    pub sweep_b: SweepSoa,
    /// Candidate pairs `(pos in sa, pos in sb, overlap interval)`.
    pub cands: Vec<(u32, u32, TimeInterval)>,
    /// The node being read at this depth: the `a`-side child a
    /// synchronous traversal is about to descend into (internal or
    /// leaf), or the node a batched probe visits.
    pub lanes_a: EntryLanes,
    /// The `b`-side child of a synchronous traversal.
    pub lanes_b: EntryLanes,
    /// Side `b`'s selected rectangles, contiguous, for the nested-loop
    /// comparison of a synchronous traversal without plane sweep.
    pub rects: Vec<MovingRect>,
    /// Swept regions of the probes live at a node, one lane per bound
    /// (batched probe).
    pub live: BoxLanes,
    /// The live probes (indices into the probe slice, in `sb` order)
    /// whose swept regions meet the entry under test (batched probe).
    pub meets: Vec<u32>,
}

/// Rectangles in four lanes, `lo[d][j]` / `hi[d][j]` for rectangle `j`.
#[derive(Debug, Default)]
pub(crate) struct BoxLanes {
    pub lo: [Vec<f64>; 2],
    pub hi: [Vec<f64>; 2],
}

/// What a batched probe computes once per call for each probe: its
/// swept region over the window and its anchored bounds.
#[derive(Debug, Default)]
pub(crate) struct ProbeAnchors {
    pub boxes: Vec<Rect>,
    pub anchored: Vec<AnchoredRect>,
}

/// Depth-indexed pool of buffer frames threaded through a join
/// traversal.
///
/// Create one per worker (or one per call site for sequential joins) and
/// reuse it across calls: the second and subsequent traversals run
/// allocation-free. A frame is *moved out* for the duration of a visit
/// (`mem::take`), so the recursion can borrow the scratch mutably for the
/// next depth without aliasing.
#[derive(Debug, Default)]
pub struct JoinScratch {
    frames: Vec<Frame>,
    probes: ProbeAnchors,
}

impl JoinScratch {
    /// An empty scratch pool; buffers grow on first use and are retained
    /// afterwards.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the frame for `depth` out of the pool (growing the pool the
    /// first time a depth is reached). Pair with [`Self::put_frame`].
    pub(crate) fn take_frame(&mut self, depth: usize) -> Frame {
        if self.frames.len() <= depth {
            self.frames.resize_with(depth + 1, Frame::default);
        }
        std::mem::take(&mut self.frames[depth])
    }

    /// Returns a frame taken with [`Self::take_frame`], preserving its
    /// grown capacity for the next visit at this depth.
    pub(crate) fn put_frame(&mut self, depth: usize, frame: Frame) {
        self.frames[depth] = frame;
    }

    /// Moves the per-call probe buffers out. Pair with
    /// [`Self::put_probes`].
    pub(crate) fn take_probes(&mut self) -> ProbeAnchors {
        std::mem::take(&mut self.probes)
    }

    /// Returns the buffers taken with [`Self::take_probes`].
    pub(crate) fn put_probes(&mut self, probes: ProbeAnchors) {
        self.probes = probes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_retain_capacity_across_take_put() {
        let mut s = JoinScratch::new();
        let mut f = s.take_frame(3);
        f.sa.reserve(128);
        let cap = f.sa.capacity();
        assert!(cap >= 128);
        s.put_frame(3, f);
        let f = s.take_frame(3);
        assert_eq!(f.sa.capacity(), cap);
        assert_eq!(f.sa.len(), 0);
    }
}
