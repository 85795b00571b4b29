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
//! The per-pair work is laid out for the inner loop. Once per call, each
//! probe's swept region over the window and its anchored bounds
//! ([`MovingRect::anchored`]) go into the scratch, so no node recomputes
//! them. At a node the live probes' regions are gathered into four lanes
//! (`lo`/`hi` per dimension); for each entry, one branch-free pass over
//! the lanes compacts the probes whose regions meet the entry's into a
//! candidate list, in probe order, and each candidate then runs the
//! branch-free interval kernel ([`cij_geom::AnchoredRect::intersect_interval`])
//! with the entry anchored once and the probe's half read from the
//! scratch.
//!
//! The window `[t_s, t_e]` is the same at every level, so a leaf hit
//! carries exactly `entry.intersect_interval(probe, t_s, t_e)` — the
//! value [`TprTree::intersect_window`] reports for that probe alone,
//! which stays the reference the kernel is tested against.

use cij_geom::{MovingRect, Rect, Time, TimeInterval};
use cij_storage::PageId;
use cij_tpr::{ObjectId, TprResult, TprTree};

use crate::counters::JoinCounters;
use crate::scratch::{Frame, JoinScratch, ProbeAnchors};
use crate::sweep::swept_region;

/// One probe result: `(index into the probe slice, indexed object,
/// intersection interval within the window)`.
pub type ProbeHit = (u32, ObjectId, TimeInterval);

/// [`Rect::intersects`] without short-circuiting: one branch on the
/// combined verdict instead of four data-dependent ones.
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
    let mut anchors = scratch.take_probes();
    anchors.boxes.clear();
    anchors
        .boxes
        .extend(probes.iter().map(|p| swept_region(p, t_s, t_e)));
    anchors.anchored.clear();
    anchors
        .anchored
        .extend(probes.iter().map(MovingRect::anchored));
    let mut frame = scratch.take_frame(0);
    frame.sb.clear();
    frame.sb.extend(0..probes.len() as u32);
    let walk = Walk {
        tree,
        probes: &anchors,
        t_s,
        t_e,
    };
    let result = walk.visit(root, 0, &mut frame, scratch, counters, out);
    scratch.put_frame(0, frame);
    scratch.put_probes(anchors);
    result
}

/// The per-call constants of one descent.
struct Walk<'a> {
    tree: &'a TprTree,
    probes: &'a ProbeAnchors,
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

        // Swept regions of the live probes, in lanes — a bound linear in
        // time has its extremes at the window's endpoints (the plane
        // sweep's `lb`/`ub` argument, §IV-D1, in both dimensions), so
        // rectangles whose regions are disjoint never meet inside the
        // window — and the region the probes cover together.
        let live = &mut f.live;
        for d in 0..2 {
            live.lo[d].clear();
            live.hi[d].clear();
        }
        let mut covered = self.probes.boxes[f.sb[0] as usize];
        for &p in &f.sb {
            let b = &self.probes.boxes[p as usize];
            covered.union_assign(b);
            for d in 0..2 {
                live.lo[d].push(b.lo[d]);
                live.hi[d].push(b.hi[d]);
            }
        }
        let n = f.sb.len();
        f.meets.resize(n, 0);
        let meets = &mut f.meets[..n];
        let (lo0, hi0) = (&live.lo[0][..n], &live.hi[0][..n]);
        let (lo1, hi1) = (&live.lo[1][..n], &live.hi[1][..n]);

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
            // Every live probe is written at the next free slot; only one
            // whose region meets the entry's advances it.
            let mut m = 0;
            for (j, &p) in f.sb.iter().enumerate() {
                meets[m] = p;
                m += usize::from(
                    (entry_box.lo[0] <= hi0[j])
                        & (lo0[j] <= entry_box.hi[0])
                        & (entry_box.lo[1] <= hi1[j])
                        & (lo1[j] <= entry_box.hi[1]),
                );
            }
            counters.entry_comparisons += m as u64;
            let anchored = entry.anchored();
            for &p in &meets[..m] {
                let probe = &self.probes.anchored[p as usize];
                if let Some(iv) = anchored.intersect_interval(probe, t_s, t_e) {
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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
    use cij_tpr::TreeConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    fn square(rng: &mut StdRng) -> MovingRect {
        let x = rng.gen_range(0.0..1000.0);
        let y = rng.gen_range(0.0..1000.0);
        let side = rng.gen_range(0.5..5.0);
        let v = [rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)];
        MovingRect::rigid(Rect::new([x, y], [x + side, y + side]), v, 0.0)
    }

    /// The counters pin the set of (entry, probe) pairs the descent
    /// tests: a kernel that prunes, compacts or refines differently moves
    /// at least one of them. The values are the nested loop's with a
    /// branchy swept-box test per pair, before the probe's regions went
    /// into lanes.
    #[test]
    fn counters_are_pinned_on_a_seeded_tree() {
        let mut rng = StdRng::seed_from_u64(50);
        let pool = BufferPool::new(
            Arc::new(InMemoryStore::new()),
            BufferPoolConfig::with_capacity(1024),
        );
        let mut tree = TprTree::new(
            pool,
            TreeConfig {
                capacity: 10,
                ..TreeConfig::default()
            },
        );
        for i in 0..2_000 {
            tree.insert(ObjectId(i), square(&mut rng), 0.0).unwrap();
        }
        let probes: Vec<_> = (0..300).map(|_| square(&mut rng)).collect();
        let mut scratch = JoinScratch::new();
        let mut got = Vec::new();
        for (t_s, t_e) in [(0.0, 60.0), (10.0, 25.0)] {
            let mut counters = JoinCounters::new();
            let mut hits = Vec::new();
            probe_batch(
                &tree,
                &probes,
                t_s,
                t_e,
                &mut scratch,
                &mut counters,
                &mut hits,
            )
            .unwrap();
            assert_eq!(counters.pairs_emitted, hits.len() as u64);
            got.push((
                counters.node_pairs,
                counters.entry_comparisons,
                counters.ic_pruned,
                counters.pairs_emitted,
            ));
        }
        assert_eq!(got, [(337, 26_879, 8, 725), (332, 5_760, 199, 224)]);
    }
}
