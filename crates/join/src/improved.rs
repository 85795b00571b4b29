//! `ImprovedJoin` (paper §IV-D, Fig. 6): the time-constrained traversal
//! with the three TC-enabled improvement techniques, each independently
//! toggleable so the Fig. 8 ablation can be reproduced:
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
//! All per-visit buffers come from a [`JoinScratch`] pool threaded
//! through the recursion, and leaves are read straight into its lanes;
//! what a warm traversal still allocates is one `Vec<Entry>` per
//! internal node read (pinned by the `no_alloc` test).

use cij_geom::{Time, TimeInterval};
use cij_tpr::{EntryLanes, Node, TprResult, TprTree};

use crate::counters::JoinCounters;
use crate::pair::JoinPair;
use crate::parallel::{SpillSink, NO_SPILL_BUDGET};
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
/// selected techniques. `t_e` must be finite — the improvement techniques
/// exist *because* TC processing bounds the window.
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
/// ticks, benchmarks): after a warm-up call, the only heap allocation
/// left is the entry vector of each internal node read — pinned by the
/// `no_alloc` regression test.
pub fn improved_join_into(
    tree_a: &TprTree,
    tree_b: &TprTree,
    t_s: Time,
    t_e: Time,
    tech: Techniques,
    scratch: &mut JoinScratch,
    out: &mut Vec<JoinPair>,
) -> TprResult<JoinCounters> {
    assert!(
        t_e.is_finite(),
        "ImprovedJoin requires a time-constrained window"
    );
    out.clear();
    let mut counters = JoinCounters::new();
    let (Some(root_a), Some(root_b)) = (tree_a.root_page(), tree_b.root_page()) else {
        return Ok(counters);
    };
    let na = tree_a.read_node(root_a)?;
    let nb = tree_b.read_node(root_b)?;
    // `Vec::new()` does not allocate; with an unlimited budget nothing is
    // ever pushed, so this stays allocation-free.
    let mut spill = SpillSink::new();
    join_nodes(
        tree_a,
        &na,
        tree_b,
        &nb,
        t_s,
        t_e,
        tech,
        out,
        &mut counters,
        NO_SPILL_BUDGET,
        &mut spill,
        0,
        scratch,
    )?;
    debug_assert!(spill.is_empty(), "unlimited budget never spills");
    Ok(counters)
}

/// Recursive Fig. 6 traversal. `budget` / `spill` serve the parallel
/// layer exactly as in [`crate::naive`]: once the budget is exhausted,
/// the would-be recursive call (nodes already read, window already
/// tightened) is pushed onto `spill` instead of executed. `depth` /
/// `scratch` select the reusable buffer frame for this recursion level.
#[allow(clippy::too_many_arguments)] // recursive kernel, all state is hot
pub(crate) fn join_nodes(
    tree_a: &TprTree,
    na: &Node,
    tree_b: &TprTree,
    nb: &Node,
    t_s: Time,
    t_e: Time,
    tech: Techniques,
    out: &mut Vec<JoinPair>,
    counters: &mut JoinCounters,
    budget: usize,
    spill: &mut SpillSink,
    depth: usize,
    scratch: &mut JoinScratch,
) -> TprResult<()> {
    counters.node_pairs += 1;

    let (Some(na_mbr), Some(nb_mbr)) = (na.bounding_mbr(), nb.bounding_mbr()) else {
        return Ok(());
    };

    // Height alignment: descend the deeper side alone.
    if na.level > nb.level {
        for ea in &na.entries {
            counters.entry_comparisons += 1;
            if let Some(iv) = ea.mbr.intersect_interval(&nb_mbr, t_s, t_e) {
                let child = tree_a.read_node(ea.child.page())?;
                let (ws, we) = if tech.intersection_check {
                    (iv.start, iv.end)
                } else {
                    (t_s, t_e)
                };
                if budget == 0 {
                    spill.push((child, nb.clone(), ws, we));
                } else {
                    join_nodes(
                        tree_a,
                        &child,
                        tree_b,
                        nb,
                        ws,
                        we,
                        tech,
                        out,
                        counters,
                        budget - 1,
                        spill,
                        depth + 1,
                        scratch,
                    )?;
                }
            }
        }
        return Ok(());
    }
    if nb.level > na.level {
        for eb in &nb.entries {
            counters.entry_comparisons += 1;
            if let Some(iv) = eb.mbr.intersect_interval(&na_mbr, t_s, t_e) {
                let child = tree_b.read_node(eb.child.page())?;
                let (ws, we) = if tech.intersection_check {
                    (iv.start, iv.end)
                } else {
                    (t_s, t_e)
                };
                if budget == 0 {
                    spill.push((na.clone(), child, ws, we));
                } else {
                    join_nodes(
                        tree_a,
                        na,
                        tree_b,
                        &child,
                        ws,
                        we,
                        tech,
                        out,
                        counters,
                        budget - 1,
                        spill,
                        depth + 1,
                        scratch,
                    )?;
                }
            }
        }
        return Ok(());
    }

    // Same level: take this depth's scratch frame for the duration of the
    // visit (moved out so the recursion below can re-borrow `scratch`).
    let mut frame = scratch.take_frame(depth);
    let result = join_aligned(
        tree_a, na, na_mbr, tree_b, nb, nb_mbr, t_s, t_e, tech, out, counters, budget, spill,
        depth, scratch, &mut frame,
    );
    scratch.put_frame(depth, frame);
    result
}

/// The equal-level body of [`join_nodes`]: IC filter, candidate
/// generation (plane sweep or nested loop), then emit (leaf) or descend.
/// All temporaries live in `frame`; the only vector that grows without
/// bound is `out`.
#[allow(clippy::too_many_arguments)] // recursive kernel, all state is hot
fn join_aligned(
    tree_a: &TprTree,
    na: &Node,
    na_mbr: cij_geom::MovingRect,
    tree_b: &TprTree,
    nb: &Node,
    nb_mbr: cij_geom::MovingRect,
    t_s: Time,
    t_e: Time,
    tech: Techniques,
    out: &mut Vec<JoinPair>,
    counters: &mut JoinCounters,
    budget: usize,
    spill: &mut SpillSink,
    depth: usize,
    scratch: &mut JoinScratch,
    frame: &mut Frame,
) -> TprResult<()> {
    // Intersection check: clip the window to when the two node regions
    // intersect, and drop entries that never touch the other region.
    // `frame.sa` / `frame.sb` hold the surviving entry *positions*.
    frame.sa.clear();
    frame.sb.clear();
    let win = if tech.intersection_check {
        let Some(win) = na_mbr.intersect_interval(&nb_mbr, t_s, t_e) else {
            counters.ic_pruned += (na.entries.len() + nb.entries.len()) as u64;
            return Ok(());
        };
        // Safety of the filter: an entry pair can only intersect at an
        // instant when both node regions do (children are contained in
        // their node), and each member must touch the *other* node's
        // region at that instant.
        for (i, e) in na.entries.iter().enumerate() {
            if e.mbr
                .intersect_interval(&nb_mbr, win.start, win.end)
                .is_some()
            {
                frame.sa.push(i as u32);
            }
        }
        for (j, e) in nb.entries.iter().enumerate() {
            if e.mbr
                .intersect_interval(&na_mbr, win.start, win.end)
                .is_some()
            {
                frame.sb.push(j as u32);
            }
        }
        counters.ic_pruned +=
            (na.entries.len() - frame.sa.len() + nb.entries.len() - frame.sb.len()) as u64;
        win
    } else {
        frame.sa.extend(0..na.entries.len() as u32);
        frame.sb.extend(0..nb.entries.len() as u32);
        TimeInterval::new_unchecked(t_s, t_e)
    };
    if frame.sa.is_empty() || frame.sb.is_empty() {
        return Ok(());
    }

    // Candidate entry pairs with their intersection intervals, staged in
    // `frame.cands` as positions into `frame.sa` / `frame.sb`.
    if tech.plane_sweep {
        // Dimension selection: smallest total speed mass (§IV-D2).
        let dim = if tech.dim_selection {
            let mass = |d: usize| -> f64 {
                frame
                    .sa
                    .iter()
                    .map(|&i| na.entries[i as usize].mbr.speed_sum(d))
                    .sum::<f64>()
                    + frame
                        .sb
                        .iter()
                        .map(|&j| nb.entries[j as usize].mbr.speed_sum(d))
                        .sum::<f64>()
            };
            if mass(0) <= mass(1) {
                0
            } else {
                1
            }
        } else {
            0
        };
        frame.sweep_a.clear();
        for (pos, &ei) in frame.sa.iter().enumerate() {
            frame.sweep_a.push(
                na.entries[ei as usize].mbr,
                pos as u32,
                dim,
                win.start,
                win.end,
            );
        }
        frame.sweep_b.clear();
        for (pos, &ej) in frame.sb.iter().enumerate() {
            frame.sweep_b.push(
                nb.entries[ej as usize].mbr,
                pos as u32,
                dim,
                win.start,
                win.end,
            );
        }
        ps_intersection_soa(
            &mut frame.sweep_a,
            &mut frame.sweep_b,
            win.start,
            win.end,
            counters,
            &mut frame.cands,
        );
    } else {
        frame.cands.clear();
        for (i, &ea) in frame.sa.iter().enumerate() {
            let ma = na.entries[ea as usize].mbr;
            for (j, &eb) in frame.sb.iter().enumerate() {
                counters.entry_comparisons += 1;
                if let Some(iv) =
                    ma.intersect_interval(&nb.entries[eb as usize].mbr, win.start, win.end)
                {
                    frame.cands.push((i as u32, j as u32, iv));
                }
            }
        }
    }

    if na.is_leaf() {
        for &(i, j, iv) in &frame.cands {
            counters.pairs_emitted += 1;
            out.push(JoinPair::new(
                na.entries[frame.sa[i as usize] as usize].child.object(),
                nb.entries[frame.sb[j as usize] as usize].child.object(),
                iv,
            ));
        }
        return Ok(());
    }

    // Leaf zero-copy fast path: when the children are leaves, read each
    // leaf's entries straight into SoA lanes — one logical read per
    // child, exactly like `read_node`, but no `Node` materialization and
    // no per-entry `Entry` decode. The leaf-pair join then runs over the
    // lanes with op-for-op the math of the general path below, so pairs,
    // counters, and I/O match it bit-for-bit. Spilling (`budget == 0`)
    // hands out `Node` tasks, so it keeps the general path.
    if na.level == 1 && budget > 0 {
        let mut leaf = scratch.take_frame(depth + 1);
        let mut result = Ok(());
        for &(i, j, iv) in &frame.cands {
            let pa = na.entries[frame.sa[i as usize] as usize].child.page();
            let pb = nb.entries[frame.sb[j as usize] as usize].child.page();
            result = tree_a
                .read_node_lanes(pa, &mut leaf.lanes_a)
                .and_then(|()| tree_b.read_node_lanes(pb, &mut leaf.lanes_b));
            if result.is_err() {
                break;
            }
            let (ws, we) = if tech.intersection_check {
                (iv.start, iv.end)
            } else {
                (t_s, t_e)
            };
            join_leaf_lanes(ws, we, tech, out, counters, &mut leaf);
        }
        scratch.put_frame(depth + 1, leaf);
        return result;
    }

    for &(i, j, iv) in &frame.cands {
        let ca = tree_a.read_node(na.entries[frame.sa[i as usize] as usize].child.page())?;
        let cb = tree_b.read_node(nb.entries[frame.sb[j as usize] as usize].child.page())?;
        // Fig. 6 passes the pair's own interval down — with IC the window
        // tightens monotonically as the traversal descends.
        let (ws, we) = if tech.intersection_check {
            (iv.start, iv.end)
        } else {
            (t_s, t_e)
        };
        if budget == 0 {
            spill.push((ca, cb, ws, we));
        } else {
            join_nodes(
                tree_a,
                &ca,
                tree_b,
                &cb,
                ws,
                we,
                tech,
                out,
                counters,
                budget - 1,
                spill,
                depth + 1,
                scratch,
            )?;
        }
    }
    Ok(())
}

/// One leaf-pair visit over the zero-copy lanes in `f.lanes_a` /
/// `f.lanes_b`: the [`join_nodes`] + [`join_aligned`] body specialized to
/// two leaves, with every counter increment and every floating-point
/// operation in the same order as the `Node` path — the two must stay
/// bit-identical (the parallel ≡ sequential suites compare them: a
/// budget-0 expansion of a level-1 pair takes the `Node` path).
fn join_leaf_lanes(
    t_s: Time,
    t_e: Time,
    tech: Techniques,
    out: &mut Vec<JoinPair>,
    counters: &mut JoinCounters,
    f: &mut Frame,
) {
    counters.node_pairs += 1;
    let (Some(a_mbr), Some(b_mbr)) = (f.lanes_a.bounding_mbr(), f.lanes_b.bounding_mbr()) else {
        return;
    };

    f.sa.clear();
    f.sb.clear();
    let win = if tech.intersection_check {
        let Some(win) = a_mbr.intersect_interval(&b_mbr, t_s, t_e) else {
            counters.ic_pruned += (f.lanes_a.len() + f.lanes_b.len()) as u64;
            return;
        };
        for i in 0..f.lanes_a.len() {
            if f.lanes_a
                .mbr(i)
                .intersect_interval(&b_mbr, win.start, win.end)
                .is_some()
            {
                f.sa.push(i as u32);
            }
        }
        for j in 0..f.lanes_b.len() {
            if f.lanes_b
                .mbr(j)
                .intersect_interval(&a_mbr, win.start, win.end)
                .is_some()
            {
                f.sb.push(j as u32);
            }
        }
        counters.ic_pruned += (f.lanes_a.len() - f.sa.len() + f.lanes_b.len() - f.sb.len()) as u64;
        win
    } else {
        f.sa.extend(0..f.lanes_a.len() as u32);
        f.sb.extend(0..f.lanes_b.len() as u32);
        TimeInterval::new_unchecked(t_s, t_e)
    };
    if f.sa.is_empty() || f.sb.is_empty() {
        return;
    }

    if tech.plane_sweep {
        let dim = if tech.dim_selection {
            let mass = |lanes: &EntryLanes, sel: &[u32], d: usize| -> f64 {
                sel.iter()
                    .map(|&i| lanes.mbr(i as usize).speed_sum(d))
                    .sum::<f64>()
            };
            // Summation order matches `join_aligned`: side `a` first.
            let m0 = mass(&f.lanes_a, &f.sa, 0) + mass(&f.lanes_b, &f.sb, 0);
            let m1 = mass(&f.lanes_a, &f.sa, 1) + mass(&f.lanes_b, &f.sb, 1);
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
                f.sweep_a.push_from_lanes(
                    &f.lanes_a,
                    ei as usize,
                    pos as u32,
                    dim,
                    win.start,
                    win.end,
                );
            }
            f.sweep_b.clear();
            for (pos, &ej) in f.sb.iter().enumerate() {
                f.sweep_b.push_from_lanes(
                    &f.lanes_b,
                    ej as usize,
                    pos as u32,
                    dim,
                    win.start,
                    win.end,
                );
            }
        } else {
            // Identity selection: refill whole lanes in bulk, no
            // per-entry gather at all.
            f.sweep_a
                .fill_all_from_lanes(&f.lanes_a, dim, win.start, win.end);
            f.sweep_b
                .fill_all_from_lanes(&f.lanes_b, dim, win.start, win.end);
        }
        ps_intersection_soa(
            &mut f.sweep_a,
            &mut f.sweep_b,
            win.start,
            win.end,
            counters,
            &mut f.cands,
        );
    } else {
        f.cands.clear();
        for (i, &ea) in f.sa.iter().enumerate() {
            let ma = f.lanes_a.mbr(ea as usize);
            for (j, &eb) in f.sb.iter().enumerate() {
                counters.entry_comparisons += 1;
                if let Some(iv) =
                    ma.intersect_interval(&f.lanes_b.mbr(eb as usize), win.start, win.end)
                {
                    f.cands.push((i as u32, j as u32, iv));
                }
            }
        }
    }

    for &(i, j, iv) in &f.cands {
        counters.pairs_emitted += 1;
        out.push(JoinPair::new(
            f.lanes_a.object(f.sa[i as usize] as usize),
            f.lanes_b.object(f.sb[j as usize] as usize),
            iv,
        ));
    }
}
