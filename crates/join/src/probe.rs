//! The batched maintenance probe: a *set* of moving rectangles joined
//! against one TPR-tree in a single synchronized descent.
//!
//! Maintenance (paper §II-A phase 2) joins every updated object against
//! the other set's index. One root-to-leaf walk per object re-reads the
//! same upper nodes for every object of a tick; [`probe_batch`] instead
//! carries the whole tick's probes down together: each node is read at
//! most once (zero-copy, [`TprTree::read_node_lanes`]), each entry is
//! tested against the probes still alive at that node — a swept-region
//! reject in both dimensions, then the exact interval test — and every
//! child is entered once with the subset of probes that met its bound
//! inside the window.
//!
//! The window `[t_s, t_e]` is the same at every level, so a leaf hit
//! carries exactly `entry.intersect_interval(probe, t_s, t_e)` — the
//! value [`TprTree::intersect_window`] reports for that probe alone,
//! which stays the reference the kernel is tested against.

use cij_geom::{MovingRect, Rect, Time, TimeInterval};
use cij_storage::PageId;
use cij_tpr::{ObjectId, TprResult, TprTree};

use crate::counters::JoinCounters;
use crate::scratch::{Frame, JoinScratch};
use crate::sweep::swept_region;

/// One probe result: `(index into the probe slice, indexed object,
/// intersection interval within the window)`.
pub type ProbeHit = (u32, ObjectId, TimeInterval);

/// [`Rect::intersects`] without short-circuiting. The inner loop runs it
/// for every entry × live probe and rejects most pairs; four data-dependent
/// branches per pair mispredict, one does not (−25 % probe time on the
/// paper's default cell).
#[inline]
fn regions_meet(a: &Rect, b: &Rect) -> bool {
    (a.lo[0] <= b.hi[0]) & (b.lo[0] <= a.hi[0]) & (a.lo[1] <= b.hi[1]) & (b.lo[1] <= a.hi[1])
}

/// Appends to `out` every `(probe, object)` pair whose trajectories
/// intersect within `[t_s, t_e]` (`t_e` finite): for each probe exactly
/// the hits of `tree.intersect_window(probe, t_s, t_e)`, intervals
/// bit-identical. Hits come out in traversal order, not grouped by probe.
///
/// `counters` sees one `node_pairs` per node read, one
/// `entry_comparisons` per exact test, one `ic_pruned` per entry outside
/// the region the live probes cover, and one `pairs_emitted` per hit. All temporaries
/// live in `scratch`; a warm call over an uncached tree allocates nothing
/// per visited node.
pub fn probe_batch(
    tree: &TprTree,
    probes: &[MovingRect],
    t_s: Time,
    t_e: Time,
    scratch: &mut JoinScratch,
    counters: &mut JoinCounters,
    out: &mut Vec<ProbeHit>,
) -> TprResult<()> {
    assert!(t_e.is_finite(), "probe_batch requires a bounded window");
    let Some(root) = tree.root_page() else {
        return Ok(());
    };
    if probes.is_empty() {
        return Ok(());
    }
    let mut frame = scratch.take_frame(0);
    frame.sb.clear();
    frame.sb.extend(0..probes.len() as u32);
    let walk = Walk {
        tree,
        probes,
        t_s,
        t_e,
    };
    let result = walk.visit(root, 0, &mut frame, scratch, counters, out);
    scratch.put_frame(0, frame);
    result
}

/// The per-call constants of one descent.
struct Walk<'a> {
    tree: &'a TprTree,
    probes: &'a [MovingRect],
    t_s: Time,
    t_e: Time,
}

impl Walk<'_> {
    /// Visits `page` with the probes listed in `f.sb` (indices into
    /// `self.probes`); `f` is this depth's frame, already taken out of
    /// `scratch` by the caller.
    fn visit(
        &self,
        page: PageId,
        depth: usize,
        f: &mut Frame,
        scratch: &mut JoinScratch,
        counters: &mut JoinCounters,
        out: &mut Vec<ProbeHit>,
    ) -> TprResult<()> {
        let (t_s, t_e) = (self.t_s, self.t_e);
        self.tree.read_node_lanes(page, &mut f.lanes_a)?;
        counters.node_pairs += 1;
        let lanes = &f.lanes_a;

        // Swept regions of the live probes — a bound linear in time has
        // its extremes at the window's endpoints (the plane sweep's
        // `lb`/`ub` argument, §IV-D1, in both dimensions), so rectangles
        // whose regions are disjoint never meet inside the window — and
        // the region the probes cover together.
        f.boxes.clear();
        f.boxes.extend(
            f.sb.iter()
                .map(|&p| swept_region(&self.probes[p as usize], t_s, t_e)),
        );
        let mut covered = f.boxes[0];
        for b in &f.boxes[1..] {
            covered.union_assign(b);
        }

        // Candidates `(entry, probe, interval)`, grouped by entry. The
        // exact test is `entry.intersect_interval(probe)` over the whole
        // window — operands and window as in `intersect_window`.
        f.cands.clear();
        for i in 0..lanes.len() {
            let entry = lanes.mbr(i);
            let entry_box = swept_region(&entry, t_s, t_e);
            // Intersection check (§IV-D3) against the probe set's region.
            if !regions_meet(&entry_box, &covered) {
                counters.ic_pruned += 1;
                continue;
            }
            for (probe_box, &p) in f.boxes.iter().zip(&f.sb) {
                if !regions_meet(&entry_box, probe_box) {
                    continue;
                }
                counters.entry_comparisons += 1;
                if let Some(iv) = entry.intersect_interval(&self.probes[p as usize], t_s, t_e) {
                    f.cands.push((i as u32, p, iv));
                }
            }
        }

        if lanes.level() == 0 {
            counters.pairs_emitted += f.cands.len() as u64;
            out.extend(
                f.cands
                    .iter()
                    .map(|&(i, p, iv)| (p, lanes.object(i as usize), iv)),
            );
            return Ok(());
        }

        // Each run of equal entry index is the probe subset that child
        // is entered with.
        let mut child = scratch.take_frame(depth + 1);
        let mut result = Ok(());
        let mut k = 0;
        while k < f.cands.len() && result.is_ok() {
            let entry = f.cands[k].0;
            child.sb.clear();
            while k < f.cands.len() && f.cands[k].0 == entry {
                child.sb.push(f.cands[k].1);
                k += 1;
            }
            let page = f.lanes_a.page(entry as usize);
            result = self.visit(page, depth + 1, &mut child, scratch, counters, out);
        }
        scratch.put_frame(depth + 1, child);
        result
    }
}
