//! The synchronous traversal of two TPR-trees — the one tree-vs-tree
//! algorithm of the paper, under its three names:
//!
//! | paper name | window | techniques |
//! |---|---|---|
//! | `NaiveJoin` (§II-C, Fig. 2) | `[t_c, ∞)` | none |
//! | `TC-Join` (§IV-B) | `[t_c, t_u + T_M]` | none |
//! | `ImprovedJoin` (§IV-D, Fig. 6) | finite | any of PS, DS, IC |
//!
//! A node pair is descended iff the entries' moving MBRs intersect within
//! the processing window. The three TC-enabled improvement techniques are
//! independently toggleable so the Fig. 8 ablation can be reproduced:
//!
//! * **PS — plane sweep** (§IV-D1): entries of a node pair are compared
//!   in sweep order instead of all-pairs ([`crate::ps_intersection_soa`]).
//! * **DS — dimension selection** (§IV-D2): the sweep dimension is the
//!   one with the smallest total speed mass, minimizing spurious sweep
//!   overlaps caused by movement.
//! * **IC — intersection check** (§IV-D3): entries are pre-filtered
//!   against the *other* node's region over the window; the interval
//!   during which the two node regions intersect becomes the (strictly
//!   tighter) window for the level below — so the time constraint
//!   tightens as the traversal descends.
//!
//! Every node, internal or leaf, is read straight into the SoA lanes of a
//! [`JoinScratch`] frame ([`TprTree::read_node_lanes`]), and all per-visit
//! buffers come from the same frames, so a warm traversal allocates
//! nothing (pinned by the `no_alloc` test).

use cij_geom::{Time, TimeInterval};
use cij_tpr::{EntryLanes, TprResult, TprTree};

use crate::counters::JoinCounters;
use crate::pair::JoinPair;
use crate::parallel::SpillSink;
use crate::scratch::{Frame, JoinScratch};
use crate::sweep::ps_intersection_soa;

/// Toggle set for the §IV-D improvement techniques.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Techniques {
    /// Plane sweep instead of nested-loop entry comparison.
    pub plane_sweep: bool,
    /// Choose the sweep dimension by minimal speed mass (implies a
    /// sweep; ignored unless `plane_sweep` is set).
    pub dim_selection: bool,
    /// Pre-filter entries against the other node's region and tighten
    /// the window while descending.
    pub intersection_check: bool,
}

/// Named technique combinations matching the Fig. 8 ablation.
pub mod techniques {
    use super::Techniques;

    /// No improvement techniques (TC-Join's plain traversal).
    pub const NONE: Techniques = Techniques {
        plane_sweep: false,
        dim_selection: false,
        intersection_check: false,
    };
    /// Intersection check only.
    pub const IC: Techniques = Techniques {
        plane_sweep: false,
        dim_selection: false,
        intersection_check: true,
    };
    /// Plane sweep only.
    pub const PS: Techniques = Techniques {
        plane_sweep: true,
        dim_selection: false,
        intersection_check: false,
    };
    /// Dimension selection + plane sweep.
    pub const DS_PS: Techniques = Techniques {
        plane_sweep: true,
        dim_selection: true,
        intersection_check: false,
    };
    /// Intersection check + plane sweep.
    pub const IC_PS: Techniques = Techniques {
        plane_sweep: true,
        dim_selection: false,
        intersection_check: true,
    };
    /// All techniques — the configuration MTB-Join runs with.
    pub const ALL: Techniques = Techniques {
        plane_sweep: true,
        dim_selection: true,
        intersection_check: true,
    };
}

/// `ImprovedJoin`: all join pairs within `[t_s, t_e]`, computed with the
/// selected techniques. `t_e` must be finite unless `tech` is
/// [`techniques::NONE`] — the improvement techniques exist *because* TC
/// processing bounds the window (a sweep has no upper bound to sort by,
/// an intersection check no window to clip, over `[t_c, ∞)`).
///
/// ```
/// use std::sync::Arc;
/// use cij_geom::{MovingRect, Rect};
/// use cij_join::{improved_join, techniques};
/// use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
/// use cij_tpr::{ObjectId, TprTree, TreeConfig};
///
/// let pool = BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default());
/// let mut ta = TprTree::new(pool.clone(), TreeConfig::default());
/// let mut tb = TprTree::new(pool, TreeConfig::default());
/// for i in 0..200u64 {
///     let x = (i as f64 * 11.0) % 900.0;
///     ta.insert(ObjectId(i), MovingRect::rigid(
///         Rect::new([x, 0.0], [x + 1.0, 1.0]), [1.0, 0.0], 0.0), 0.0)?;
///     tb.insert(ObjectId(1000 + i), MovingRect::rigid(
///         Rect::new([x + 5.0, 0.0], [x + 6.0, 1.0]), [-1.0, 0.0], 0.0), 0.0)?;
/// }
/// // Every technique combination produces the identical answer; ALL
/// // just gets there with the fewest comparisons.
/// let (all_pairs, all_counters) = improved_join(&ta, &tb, 0.0, 60.0, techniques::ALL)?;
/// let (none_pairs, none_counters) = improved_join(&ta, &tb, 0.0, 60.0, techniques::NONE)?;
/// assert_eq!(all_pairs.len(), none_pairs.len());
/// assert!(all_counters.entry_comparisons <= none_counters.entry_comparisons);
/// # Ok::<(), cij_tpr::TprError>(())
/// ```
pub fn improved_join(
    tree_a: &TprTree,
    tree_b: &TprTree,
    t_s: Time,
    t_e: Time,
    tech: Techniques,
) -> TprResult<(Vec<JoinPair>, JoinCounters)> {
    let mut out = Vec::new();
    let mut scratch = JoinScratch::new();
    let counters = improved_join_into(tree_a, tree_b, t_s, t_e, tech, &mut scratch, &mut out)?;
    Ok((out, counters))
}

/// [`improved_join`] writing into caller-owned buffers: `out` is cleared
/// and refilled, and all traversal temporaries come from `scratch`.
///
/// This is the steady-state entry point for repeated joins (maintenance
/// ticks, benchmarks): after a warm-up call it allocates nothing —
/// pinned by the `no_alloc` regression test.
pub fn improved_join_into(
    tree_a: &TprTree,
    tree_b: &TprTree,
    t_s: Time,
    t_e: Time,
    tech: Techniques,
    scratch: &mut JoinScratch,
    out: &mut Vec<JoinPair>,
) -> TprResult<JoinCounters> {
    assert_window(tech, t_e);
    out.clear();
    let mut counters = JoinCounters::new();
    let (Some(root_a), Some(root_b)) = (tree_a.root_page(), tree_b.root_page()) else {
        return Ok(counters);
    };
    // Frame 0 only lends its lanes to the roots; the traversal proper
    // starts at depth 1.
    let mut roots = scratch.take_frame(0);
    let result = tree_a
        .read_node_lanes(root_a, &mut roots.lanes_a)
        .and_then(|()| tree_b.read_node_lanes(root_b, &mut roots.lanes_b))
        .and_then(|()| {
            Traversal {
                tree_a,
                tree_b,
                tech,
                scratch,
                out,
                counters: &mut counters,
                spill: None,
            }
            .run(
                &roots.lanes_a,
                &roots.lanes_b,
                TimeInterval {
                    start: t_s,
                    end: t_e,
                },
                1,
            )
        });
    scratch.put_frame(0, roots);
    result.map(|()| counters)
}

/// Only the plain traversal runs unbounded (that is `NaiveJoin`): plane
/// sweep sorts by bounds that exist only over a finite window, and the
/// intersection check clips to one.
pub(crate) fn assert_window(tech: Techniques, t_e: Time) {
    assert!(
        tech == techniques::NONE || t_e.is_finite(),
        "ImprovedJoin requires a time-constrained window"
    );
}

/// One synchronous traversal: its constants and the places its results
/// go. The node pairs themselves are passed down by reference — each
/// lives in the lanes of the frame one depth above its visit (or in a
/// parallel task).
pub(crate) struct Traversal<'t> {
    pub tree_a: &'t TprTree,
    pub tree_b: &'t TprTree,
    pub tech: Techniques,
    pub scratch: &'t mut JoinScratch,
    pub out: &'t mut Vec<JoinPair>,
    pub counters: &'t mut JoinCounters,
    /// The parallel layer's hook. `Some`: visit one node pair only — every
    /// child pair the traversal would descend into (nodes already read,
    /// window already tightened) is captured here instead, in descent
    /// order. `None`: descend.
    pub spill: Option<&'t mut SpillSink>,
}

impl Traversal<'_> {
    /// Visits the pair `(na, nb)` under `win` with the buffers of frame
    /// `depth`, and everything below it with the deeper frames.
    pub(crate) fn run(
        &mut self,
        na: &EntryLanes,
        nb: &EntryLanes,
        win: TimeInterval,
        depth: usize,
    ) -> TprResult<()> {
        let mut frame = self.scratch.take_frame(depth);
        let result = self.join_nodes(na, nb, win, depth, &mut frame);
        self.scratch.put_frame(depth, frame);
        result
    }

    /// The recursive Fig. 2 / Fig. 6 visit of one node pair. `f` is this
    /// depth's frame, taken out of the scratch pool by the caller (so a
    /// node's children share one take): its index lists, sweep arrays and
    /// candidate vector serve this visit, its lanes receive the children
    /// read here, one pair at a time. The only vector that grows without
    /// bound is `out`.
    fn join_nodes(
        &mut self,
        na: &EntryLanes,
        nb: &EntryLanes,
        win: TimeInterval,
        depth: usize,
        f: &mut Frame,
    ) -> TprResult<()> {
        self.counters.node_pairs += 1;
        let tech = self.tech;

        // Height alignment: descend the deeper side alone, each qualifying
        // child against the other node whole.
        if na.level() != nb.level() {
            let a_deeper = na.level() > nb.level();
            let (deep, tree, other) = if a_deeper {
                (na, self.tree_a, nb)
            } else {
                (nb, self.tree_b, na)
            };
            let Some(other_mbr) = other.bounding_mbr() else {
                return Ok(());
            };
            let mut below = self.scratch.take_frame(depth + 1);
            let mut result = Ok(());
            for i in 0..deep.len() {
                self.counters.entry_comparisons += 1;
                let Some(iv) = deep
                    .mbr(i)
                    .intersect_interval(&other_mbr, win.start, win.end)
                else {
                    continue;
                };
                result = tree.read_node_lanes(deep.page(i), &mut f.lanes_a);
                if result.is_ok() {
                    let (ca, cb) = if a_deeper {
                        (&f.lanes_a, nb)
                    } else {
                        (na, &f.lanes_a)
                    };
                    result = self.descend(ca, cb, iv, win, depth, &mut below);
                }
                if result.is_err() {
                    break;
                }
            }
            self.scratch.put_frame(depth + 1, below);
            return result;
        }

        // Intersection check: clip the window to when the two node regions
        // intersect, and drop entries that never touch the other region.
        // `f.sa` / `f.sb` hold the surviving entry *positions*.
        f.sa.clear();
        f.sb.clear();
        let win = if tech.intersection_check {
            let (Some(na_mbr), Some(nb_mbr)) = (na.bounding_mbr(), nb.bounding_mbr()) else {
                return Ok(());
            };
            let Some(win) = na_mbr.intersect_interval(&nb_mbr, win.start, win.end) else {
                self.counters.ic_pruned += (na.len() + nb.len()) as u64;
                return Ok(());
            };
            // Safety of the filter: an entry pair can only intersect at an
            // instant when both node regions do (children are contained in
            // their node), and each member must touch the *other* node's
            // region at that instant.
            for i in 0..na.len() {
                if na
                    .mbr(i)
                    .intersect_interval(&nb_mbr, win.start, win.end)
                    .is_some()
                {
                    f.sa.push(i as u32);
                }
            }
            for j in 0..nb.len() {
                if nb
                    .mbr(j)
                    .intersect_interval(&na_mbr, win.start, win.end)
                    .is_some()
                {
                    f.sb.push(j as u32);
                }
            }
            self.counters.ic_pruned += (na.len() - f.sa.len() + nb.len() - f.sb.len()) as u64;
            win
        } else {
            f.sa.extend(0..na.len() as u32);
            f.sb.extend(0..nb.len() as u32);
            win
        };
        if f.sa.is_empty() || f.sb.is_empty() {
            return Ok(());
        }

        // Candidate entry pairs with their intersection intervals, staged
        // in `f.cands` as positions into `f.sa` / `f.sb`.
        if tech.plane_sweep {
            // Dimension selection: smallest total speed mass (§IV-D2).
            let dim = if tech.dim_selection {
                let mass = |lanes: &EntryLanes, sel: &[u32], d: usize| -> f64 {
                    sel.iter()
                        .map(|&i| lanes.mbr(i as usize).speed_sum(d))
                        .sum::<f64>()
                };
                let m0 = mass(na, &f.sa, 0) + mass(nb, &f.sb, 0);
                let m1 = mass(na, &f.sa, 1) + mass(nb, &f.sb, 1);
                if m0 <= m1 {
                    0
                } else {
                    1
                }
            } else {
                0
            };
            if tech.intersection_check {
                f.sweep_a.clear();
                for (pos, &ei) in f.sa.iter().enumerate() {
                    f.sweep_a
                        .push_from_lanes(na, ei as usize, pos as u32, dim, win.start, win.end);
                }
                f.sweep_b.clear();
                for (pos, &ej) in f.sb.iter().enumerate() {
                    f.sweep_b
                        .push_from_lanes(nb, ej as usize, pos as u32, dim, win.start, win.end);
                }
            } else {
                // Identity selection: refill whole lanes in bulk, no
                // per-entry gather at all.
                f.sweep_a.fill_all_from_lanes(na, dim, win.start, win.end);
                f.sweep_b.fill_all_from_lanes(nb, dim, win.start, win.end);
            }
            ps_intersection_soa(
                &mut f.sweep_a,
                &mut f.sweep_b,
                win.start,
                win.end,
                self.counters,
                &mut f.cands,
            );
        } else {
            // The paper's Fig. 2 double loop. Side `b` is gathered out of
            // its lanes once, not once per pair: the inner loop then walks
            // contiguous rectangles.
            f.rects.clear();
            f.rects.extend(f.sb.iter().map(|&eb| nb.mbr(eb as usize)));
            f.cands.clear();
            for (i, &ea) in f.sa.iter().enumerate() {
                let ma = na.mbr(ea as usize);
                for (j, mb) in f.rects.iter().enumerate() {
                    self.counters.entry_comparisons += 1;
                    if let Some(iv) = ma.intersect_interval(mb, win.start, win.end) {
                        f.cands.push((i as u32, j as u32, iv));
                    }
                }
            }
        }

        if na.level() == 0 {
            self.counters.pairs_emitted += f.cands.len() as u64;
            self.out.extend(f.cands.iter().map(|&(i, j, iv)| {
                JoinPair::new(
                    na.object(f.sa[i as usize] as usize),
                    nb.object(f.sb[j as usize] as usize),
                    iv,
                )
            }));
            return Ok(());
        }

        let mut below = self.scratch.take_frame(depth + 1);
        let mut result = Ok(());
        for &(i, j, iv) in &f.cands {
            let pa = na.page(f.sa[i as usize] as usize);
            let pb = nb.page(f.sb[j as usize] as usize);
            result = self
                .tree_a
                .read_node_lanes(pa, &mut f.lanes_a)
                .and_then(|()| self.tree_b.read_node_lanes(pb, &mut f.lanes_b))
                .and_then(|()| self.descend(&f.lanes_a, &f.lanes_b, iv, win, depth, &mut below));
            if result.is_err() {
                break;
            }
        }
        self.scratch.put_frame(depth + 1, below);
        result
    }

    /// The recursive call on a child pair just read at `depth`, whose
    /// parent entries intersect during `iv`. Fig. 6 passes that interval
    /// down — with IC the window tightens monotonically as the traversal
    /// descends; without it the recursion keeps the original window,
    /// faithful to Fig. 2.
    fn descend(
        &mut self,
        ca: &EntryLanes,
        cb: &EntryLanes,
        iv: TimeInterval,
        win: TimeInterval,
        depth: usize,
        below: &mut Frame,
    ) -> TprResult<()> {
        let win = if self.tech.intersection_check {
            iv
        } else {
            win
        };
        match &mut self.spill {
            Some(spill) => {
                spill.push((ca.clone(), cb.clone(), win));
                Ok(())
            }
            None => self.join_nodes(ca, cb, win, depth + 1, below),
        }
    }
}
