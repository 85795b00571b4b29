//! `NaiveJoin` (paper §II-C, Fig. 2) and its time-constrained variant
//! `TC-Join` (§IV-B).
//!
//! A synchronous top-down traversal of two TPR-trees: a node pair is
//! descended iff the entries' moving MBRs intersect within the processing
//! window. `NaiveJoin` runs with the window `[t_c, ∞)` — which is exactly
//! why it is slow: unless velocities are highly skewed every node MBR
//! eventually overlaps almost every other, so whole trees get compared.
//! `TC-Join` is the same algorithm with the window capped at
//! `t_u + T_M` (Theorem 1), obtained by literally "changing
//! `intersect(e_A, e_B, t_c, ∞)` to `intersect(e_A, e_B, t_c, t_u + T_M)`".

use cij_geom::{Time, INFINITE_TIME};
use cij_tpr::{Node, TprResult, TprTree};

use crate::counters::JoinCounters;
use crate::pair::JoinPair;
use crate::parallel::{SpillSink, NO_SPILL_BUDGET};

/// `NaiveJoin`: every join pair from `t_c` to the infinite timestamp.
pub fn naive_join(
    tree_a: &TprTree,
    tree_b: &TprTree,
    t_c: Time,
) -> TprResult<(Vec<JoinPair>, JoinCounters)> {
    join_window(tree_a, tree_b, t_c, INFINITE_TIME)
}

/// `TC-Join`: every join pair within `[t_s, t_e]` (callers pass
/// `t_e = t_u + T_M`, or the tighter per-bucket bound of MTB-Join).
///
/// ```
/// use std::sync::Arc;
/// use cij_geom::{MovingRect, Rect};
/// use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
/// use cij_tpr::{ObjectId, TprTree, TreeConfig};
///
/// let pool = BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default());
/// let mut police = TprTree::new(pool.clone(), TreeConfig::default());
/// let mut towns = TprTree::new(pool, TreeConfig::default());
///
/// // A patrol car sweeping right; a community it will reach at t = 49.
/// police.insert(
///     ObjectId(1),
///     MovingRect::rigid(Rect::new([0.0, 0.0], [2.0, 2.0]), [1.0, 0.0], 0.0),
///     0.0,
/// )?;
/// towns.insert(
///     ObjectId(100),
///     MovingRect::stationary(Rect::new([51.0, 0.0], [60.0, 9.0]), 0.0),
///     0.0,
/// )?;
///
/// // Within one maximum update interval (T_M = 60) the pair is found…
/// let (pairs, _) = cij_join::tc_join(&police, &towns, 0.0, 60.0)?;
/// assert_eq!(pairs.len(), 1);
/// assert!((pairs[0].interval.start - 49.0).abs() < 1e-9);
///
/// // …while a shorter window correctly excludes it.
/// let (pairs, _) = cij_join::tc_join(&police, &towns, 0.0, 40.0)?;
/// assert!(pairs.is_empty());
/// # Ok::<(), cij_tpr::TprError>(())
/// ```
pub fn tc_join(
    tree_a: &TprTree,
    tree_b: &TprTree,
    t_s: Time,
    t_e: Time,
) -> TprResult<(Vec<JoinPair>, JoinCounters)> {
    join_window(tree_a, tree_b, t_s, t_e)
}

fn join_window(
    tree_a: &TprTree,
    tree_b: &TprTree,
    t_s: Time,
    t_e: Time,
) -> TprResult<(Vec<JoinPair>, JoinCounters)> {
    let mut out = Vec::new();
    let mut counters = JoinCounters::new();
    let (Some(root_a), Some(root_b)) = (tree_a.root_page(), tree_b.root_page()) else {
        return Ok((out, counters));
    };
    let na = tree_a.read_node(root_a)?;
    let nb = tree_b.read_node(root_b)?;
    // `Vec::new()` does not allocate; with an unlimited budget nothing is
    // ever pushed, so no spill buffer is materialized.
    let mut spill = SpillSink::new();
    join_nodes(
        tree_a,
        &na,
        tree_b,
        &nb,
        t_s,
        t_e,
        &mut out,
        &mut counters,
        NO_SPILL_BUDGET,
        &mut spill,
    )?;
    debug_assert!(spill.is_empty(), "unlimited budget never spills");
    Ok((out, counters))
}

/// Recursive synchronous traversal. Handles trees of different heights by
/// descending only the deeper node until levels align.
///
/// `budget` / `spill` serve the parallel layer: every recursive descent
/// costs one unit of budget, and once it is exhausted the would-be
/// recursive call — its nodes already read, so I/O accounting is
/// unchanged — is pushed onto `spill` instead of executed. Sequential
/// entry points pass [`NO_SPILL_BUDGET`], which is never exhausted.
#[allow(clippy::too_many_arguments)] // recursive kernel, all state is hot
pub(crate) fn join_nodes(
    tree_a: &TprTree,
    na: &Node,
    tree_b: &TprTree,
    nb: &Node,
    t_s: Time,
    t_e: Time,
    out: &mut Vec<JoinPair>,
    counters: &mut JoinCounters,
    budget: usize,
    spill: &mut SpillSink,
) -> TprResult<()> {
    counters.node_pairs += 1;

    if na.level > nb.level {
        // Align levels: descend A's qualifying children against B whole.
        let nb_mbr = match nb.bounding_mbr() {
            Some(m) => m,
            None => return Ok(()),
        };
        for ea in &na.entries {
            counters.entry_comparisons += 1;
            if ea.mbr.intersect_interval(&nb_mbr, t_s, t_e).is_some() {
                let child = tree_a.read_node(ea.child.page())?;
                if budget == 0 {
                    spill.push((child, nb.clone(), t_s, t_e));
                } else {
                    join_nodes(
                        tree_a,
                        &child,
                        tree_b,
                        nb,
                        t_s,
                        t_e,
                        out,
                        counters,
                        budget - 1,
                        spill,
                    )?;
                }
            }
        }
        return Ok(());
    }
    if nb.level > na.level {
        let na_mbr = match na.bounding_mbr() {
            Some(m) => m,
            None => return Ok(()),
        };
        for eb in &nb.entries {
            counters.entry_comparisons += 1;
            if eb.mbr.intersect_interval(&na_mbr, t_s, t_e).is_some() {
                let child = tree_b.read_node(eb.child.page())?;
                if budget == 0 {
                    spill.push((na.clone(), child, t_s, t_e));
                } else {
                    join_nodes(
                        tree_a,
                        na,
                        tree_b,
                        &child,
                        t_s,
                        t_e,
                        out,
                        counters,
                        budget - 1,
                        spill,
                    )?;
                }
            }
        }
        return Ok(());
    }

    // Equal levels: the paper's Fig. 2 double loop.
    if na.is_leaf() {
        for ea in &na.entries {
            for eb in &nb.entries {
                counters.entry_comparisons += 1;
                if let Some(iv) = ea.mbr.intersect_interval(&eb.mbr, t_s, t_e) {
                    counters.pairs_emitted += 1;
                    out.push(JoinPair::new(ea.child.object(), eb.child.object(), iv));
                }
            }
        }
        return Ok(());
    }
    for ea in &na.entries {
        for eb in &nb.entries {
            counters.entry_comparisons += 1;
            if ea.mbr.intersect_interval(&eb.mbr, t_s, t_e).is_some() {
                let ca = tree_a.read_node(ea.child.page())?;
                let cb = tree_b.read_node(eb.child.page())?;
                // Faithful to Fig. 2: the recursion keeps the original
                // window (the clipped-interval refinement is part of the
                // §IV-D intersection check, not of NaiveJoin).
                if budget == 0 {
                    spill.push((ca, cb, t_s, t_e));
                } else {
                    join_nodes(
                        tree_a,
                        &ca,
                        tree_b,
                        &cb,
                        t_s,
                        t_e,
                        out,
                        counters,
                        budget - 1,
                        spill,
                    )?;
                }
            }
        }
    }
    Ok(())
}
