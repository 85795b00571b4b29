//! The time-parameterized join (paper §III, after Tao & Papadias,
//! SIGMOD 2002): the building block of the `ETP-Join` competitor.
//!
//! `TP-Join(t_c)` returns the triple *(current result, expiry time,
//! events)*: the pairs intersecting at `t_c`, the earliest future time at
//! which the result changes, and the object pair(s) whose status flips
//! then. A synchronous traversal descends a node pair iff
//!
//! 1. the node regions intersect at `t_c` (to enumerate current pairs), or
//! 2. the regions' first-contact time does not exceed the best influence
//!    time found so far (the pruning that makes TP-Join cheap per run).
//!
//! [`tp_object_probe`] is the single-object version used when an update
//! arrives: it finds the updated object's current partners and its own
//! influence time in one traversal of the other tree.

use cij_geom::{MovingRect, Time, TimeInterval, INFINITE_TIME};
use cij_tpr::{Node, ObjectId, TprResult, TprTree};

use crate::counters::JoinCounters;

/// Tolerance for "same influence time": events produced by symmetric
/// arithmetic compare exactly, but transitive float drift merits slack.
const EVENT_TIE_EPS: f64 = 1e-9;

/// Result of one `TP-Join` run.
#[derive(Debug, Clone)]
pub struct TpAnswer {
    /// Pairs whose MBRs intersect at the query timestamp.
    pub current: Vec<(ObjectId, ObjectId)>,
    /// Earliest future time the result changes ([`INFINITE_TIME`] when it
    /// never does).
    pub expiry: Time,
    /// The object pair(s) whose intersection status flips at `expiry`.
    pub events: Vec<(ObjectId, ObjectId)>,
    /// Traversal work performed.
    pub counters: JoinCounters,
}

/// Runs `TP-Join` at timestamp `t_c` over two TPR-trees.
///
/// ```
/// use std::sync::Arc;
/// use cij_geom::{MovingRect, Rect};
/// use cij_join::tp_join;
/// use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
/// use cij_tpr::{ObjectId, TprTree, TreeConfig};
///
/// let pool = BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default());
/// let mut ta = TprTree::new(pool.clone(), TreeConfig::default());
/// let mut tb = TprTree::new(pool, TreeConfig::default());
/// // A pair currently intersecting, and a pair meeting at t = 4.
/// ta.insert(ObjectId(1),
///     MovingRect::stationary(Rect::new([0.0, 0.0], [2.0, 2.0]), 0.0), 0.0)?;
/// tb.insert(ObjectId(11),
///     MovingRect::stationary(Rect::new([1.0, 1.0], [3.0, 3.0]), 0.0), 0.0)?;
/// ta.insert(ObjectId(2),
///     MovingRect::stationary(Rect::new([50.0, 0.0], [51.0, 1.0]), 0.0), 0.0)?;
/// tb.insert(ObjectId(12), MovingRect::rigid(
///     Rect::new([56.0, 0.0], [57.0, 1.0]), [-1.25, 0.0], 0.0), 0.0)?;
///
/// let ans = tp_join(&ta, &tb, 0.0)?;
/// assert_eq!(ans.current, vec![(ObjectId(1), ObjectId(11))]);
/// assert!((ans.expiry - 4.0).abs() < 1e-9, "next event: 2 meets 12");
/// assert_eq!(ans.events, vec![(ObjectId(2), ObjectId(12))]);
/// # Ok::<(), cij_tpr::TprError>(())
/// ```
pub fn tp_join(tree_a: &TprTree, tree_b: &TprTree, t_c: Time) -> TprResult<TpAnswer> {
    let mut state = TpState {
        current: Vec::new(),
        expiry: INFINITE_TIME,
        events: Vec::new(),
        counters: JoinCounters::new(),
    };
    if let (Some(ra), Some(rb)) = (tree_a.root_page(), tree_b.root_page()) {
        let na = tree_a.read_node(ra)?;
        let nb = tree_b.read_node(rb)?;
        visit(tree_a, &na, tree_b, &nb, t_c, &mut state)?;
    }
    Ok(TpAnswer {
        current: state.current,
        expiry: state.expiry,
        events: state.events,
        counters: state.counters,
    })
}

struct TpState {
    current: Vec<(ObjectId, ObjectId)>,
    expiry: Time,
    events: Vec<(ObjectId, ObjectId)>,
    counters: JoinCounters,
}

impl TpState {
    /// Records an object pair's influence time, keeping the earliest.
    fn offer_event(&mut self, pair: (ObjectId, ObjectId), t: Time) {
        if t == INFINITE_TIME {
            return;
        }
        if t < self.expiry - EVENT_TIE_EPS {
            self.expiry = t;
            self.events.clear();
            self.events.push(pair);
        } else if (t - self.expiry).abs() <= EVENT_TIE_EPS {
            self.events.push(pair);
        }
    }
}

/// First time ≥ `t_c` the two rectangles touch; `t_c` itself when they
/// already intersect, `∞` when they never do.
fn first_contact(a: &MovingRect, b: &MovingRect, t_c: Time) -> Time {
    match a.intersect_interval(b, t_c, INFINITE_TIME) {
        Some(TimeInterval { start, .. }) => start,
        None => INFINITE_TIME,
    }
}

fn visit(
    tree_a: &TprTree,
    na: &Node,
    tree_b: &TprTree,
    nb: &Node,
    t_c: Time,
    state: &mut TpState,
) -> TprResult<()> {
    state.counters.node_pairs += 1;

    // Height alignment.
    if na.level > nb.level {
        let Some(nb_mbr) = nb.bounding_mbr() else {
            return Ok(());
        };
        for ea in &na.entries {
            state.counters.entry_comparisons += 1;
            let descend = ea.mbr.intersects_at(&nb_mbr, t_c)
                || first_contact(&ea.mbr, &nb_mbr, t_c) <= state.expiry + EVENT_TIE_EPS;
            if descend {
                let child = tree_a.read_node(ea.child.page())?;
                visit(tree_a, &child, tree_b, nb, t_c, state)?;
            }
        }
        return Ok(());
    }
    if nb.level > na.level {
        let Some(na_mbr) = na.bounding_mbr() else {
            return Ok(());
        };
        for eb in &nb.entries {
            state.counters.entry_comparisons += 1;
            let descend = eb.mbr.intersects_at(&na_mbr, t_c)
                || first_contact(&eb.mbr, &na_mbr, t_c) <= state.expiry + EVENT_TIE_EPS;
            if descend {
                let child = tree_b.read_node(eb.child.page())?;
                visit(tree_a, na, tree_b, &child, t_c, state)?;
            }
        }
        return Ok(());
    }

    if na.is_leaf() {
        for ea in &na.entries {
            for eb in &nb.entries {
                state.counters.entry_comparisons += 1;
                let a = ea.child.object();
                let b = eb.child.object();
                if ea.mbr.intersects_at(&eb.mbr, t_c) {
                    state.counters.pairs_emitted += 1;
                    state.current.push((a, b));
                }
                let t_inf = ea.mbr.influence_time(&eb.mbr, t_c);
                state.offer_event((a, b), t_inf);
            }
        }
        return Ok(());
    }

    for ea in &na.entries {
        for eb in &nb.entries {
            state.counters.entry_comparisons += 1;
            // Condition (i): current pairs may live below.
            // Condition (ii): an event no later than the best candidate
            // may live below (first contact lower-bounds every descendant
            // pair's influence time).
            let descend = ea.mbr.intersects_at(&eb.mbr, t_c)
                || first_contact(&ea.mbr, &eb.mbr, t_c) <= state.expiry + EVENT_TIE_EPS;
            if descend {
                let ca = tree_a.read_node(ea.child.page())?;
                let cb = tree_b.read_node(eb.child.page())?;
                visit(tree_a, &ca, tree_b, &cb, t_c, state)?;
            }
        }
    }
    Ok(())
}

/// Single-object TP probe: the current partners of `target` in `tree`,
/// plus the earliest time `target`'s intersection status with *any*
/// object of the tree changes (and with whom).
///
/// Used by `ETP-Join` on every object update (§III: "an answer update is
/// also performed by traversing the tree to find the object's influence
/// time `T_INF(O)`").
pub struct TpProbe {
    /// Objects currently intersecting the target.
    pub current: Vec<ObjectId>,
    /// Earliest status-change time (`∞` when none).
    pub influence: Time,
    /// The partners whose status flips at `influence`.
    pub events: Vec<ObjectId>,
    /// Traversal work performed.
    pub counters: JoinCounters,
}

/// Runs the single-object TP probe. See [`TpProbe`].
pub fn tp_object_probe(tree: &TprTree, target: &MovingRect, t_c: Time) -> TprResult<TpProbe> {
    let mut probe = TpProbe {
        current: Vec::new(),
        influence: INFINITE_TIME,
        events: Vec::new(),
        counters: JoinCounters::new(),
    };
    let Some(root) = tree.root_page() else {
        return Ok(probe);
    };
    probe_visit(tree, root, target, t_c, &mut probe)?;
    Ok(probe)
}

fn probe_visit(
    tree: &TprTree,
    page: cij_storage::PageId,
    target: &MovingRect,
    t_c: Time,
    probe: &mut TpProbe,
) -> TprResult<()> {
    let node = tree.read_node(page)?;
    probe.counters.node_pairs += 1;
    for e in &node.entries {
        probe.counters.entry_comparisons += 1;
        if node.is_leaf() {
            let oid = e.child.object();
            if e.mbr.intersects_at(target, t_c) {
                probe.current.push(oid);
            }
            let t_inf = e.mbr.influence_time(target, t_c);
            if t_inf == INFINITE_TIME {
                continue;
            }
            if t_inf < probe.influence - EVENT_TIE_EPS {
                probe.influence = t_inf;
                probe.events.clear();
                probe.events.push(oid);
            } else if (t_inf - probe.influence).abs() <= EVENT_TIE_EPS {
                probe.events.push(oid);
            }
        } else {
            let descend = e.mbr.intersects_at(target, t_c)
                || first_contact(&e.mbr, target, t_c) <= probe.influence + EVENT_TIE_EPS;
            if descend {
                probe_visit(tree, e.child.page(), target, t_c, probe)?;
            }
        }
    }
    Ok(())
}
