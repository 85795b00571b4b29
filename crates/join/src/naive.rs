//! `NaiveJoin` (paper §II-C, Fig. 2) and its time-constrained variant
//! `TC-Join` (§IV-B): the two windows the plain synchronous traversal of
//! [`crate::improved`] is run under.
//!
//! `NaiveJoin` runs with the window `[t_c, ∞)` — which is exactly why it
//! is slow: unless velocities are highly skewed every node MBR
//! eventually overlaps almost every other, so whole trees get compared.
//! `TC-Join` is the same algorithm with the window capped at
//! `t_u + T_M` (Theorem 1), obtained by literally "changing
//! `intersect(e_A, e_B, t_c, ∞)` to `intersect(e_A, e_B, t_c, t_u + T_M)`"
//! — here, by passing a different `t_e` to the same function.

use cij_geom::{Time, INFINITE_TIME};
use cij_tpr::{TprResult, TprTree};

use crate::counters::JoinCounters;
use crate::improved::{improved_join, techniques};
use crate::pair::JoinPair;

/// `NaiveJoin`: every join pair from `t_c` to the infinite timestamp.
pub fn naive_join(
    tree_a: &TprTree,
    tree_b: &TprTree,
    t_c: Time,
) -> TprResult<(Vec<JoinPair>, JoinCounters)> {
    improved_join(tree_a, tree_b, t_c, INFINITE_TIME, techniques::NONE)
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
    improved_join(tree_a, tree_b, t_s, t_e, techniques::NONE)
}
