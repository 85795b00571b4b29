//! The TPR-tree proper: disk-resident insert/delete/update and queries.
//!
//! Structure-modifying operations follow the R*-tree skeleton with the
//! TPR/TPR* twist that every quality metric is an integral over the
//! horizon `[now, now + H]`:
//!
//! * **choose subtree** — minimal enlargement integral, area-integral
//!   tie-break;
//! * **overflow** — one forced reinsert per level per operation (the
//!   `reinsert_fraction` entries whose centers stray farthest from the
//!   node center over the horizon), then an R*-style split choosing the
//!   axis by margin integral and the distribution by overlap integral;
//! * **underflow** — dissolve the node and reinsert the orphaned entries
//!   at their level (classic `CondenseTree`);
//! * **active tightening** — every write-back recomputes the parent
//!   entry's bound from the child's current entries, rebased to `now`.

use std::cmp::{Ordering, Reverse};

use cij_geom::{MovingRect, Rect, Time, TimeInterval};
use cij_storage::{BufferPool, CacheSnapshot, CacheStats, PageId, StorageResult};

use crate::config::TreeConfig;
use crate::entry::{ChildRef, Entry, ObjectId};
use crate::error::{TprError, TprResult};
use crate::node::Node;
use crate::view::{EntryLanes, NodeView};

/// A disk-resident TPR-tree over moving rectangles.
///
/// ```
/// use std::sync::Arc;
/// use cij_geom::{MovingRect, Rect};
/// use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
/// use cij_tpr::{ObjectId, TprTree, TreeConfig};
///
/// let pool = BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default());
/// let mut tree = TprTree::new(pool, TreeConfig::default());
///
/// // A unit square at (10, 10) moving right at 2 units per tick.
/// let car = MovingRect::rigid(Rect::new([10.0, 10.0], [11.0, 11.0]), [2.0, 0.0], 0.0);
/// tree.insert(ObjectId(1), car, 0.0)?;
///
/// // Timeslice query at t = 20: the car is near x = 50 by then.
/// let hits = tree.range_at(&Rect::new([49.0, 9.0], [52.0, 12.0]), 20.0)?;
/// assert_eq!(hits, vec![ObjectId(1)]);
///
/// // When does it cross a toll line at x ∈ [100, 101]?
/// let toll = MovingRect::stationary(Rect::new([100.0, 0.0], [101.0, 1000.0]), 0.0);
/// let crossings = tree.intersect_window(&toll, 0.0, 60.0)?;
/// assert_eq!(crossings.len(), 1);
/// assert!((crossings[0].1.start - 44.5).abs() < 1e-9);
/// # Ok::<(), cij_tpr::TprError>(())
/// ```
pub struct TprTree {
    pool: BufferPool,
    config: TreeConfig,
    root: Option<PageId>,
    /// Number of levels (0 when empty; root level = height − 1).
    height: u32,
    /// Number of data objects.
    len: usize,
    /// Node pages read through the zero-copy view (`storage.page.*`).
    format_stats: CacheStats,
    /// Working memory of insert and delete, kept between operations so
    /// that a warm mutation allocates nothing. Boxed: engines hold trees
    /// by value, and the buffers are only touched by mutations.
    scratch: Box<Scratch>,
}

/// Aggregate statistics returned by [`TprTree::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStats {
    /// Number of levels (1 = the root is a leaf).
    pub height: u32,
    /// Total node count.
    pub nodes: usize,
    /// Total leaf count.
    pub leaves: usize,
    /// Number of indexed objects.
    pub objects: usize,
}

struct PathStep {
    page: PageId,
    node: Node,
    /// Index within `node.entries` of the child the path continues into
    /// (unused for the last step).
    child_idx: usize,
}

/// The buffers a mutation works in. Each is bounded by what one
/// operation holds at once — a root-to-leaf path, the nodes of a split,
/// the groups waiting to be reinserted — so nothing here grows with the
/// workload.
#[derive(Default)]
struct Scratch {
    /// Nodes a mutation has finished with, kept for their entry buffers.
    spare: Vec<Node>,
    /// The path of the running descent. One is live at a time: a path is
    /// used up before a reinsertion starts the next.
    path: Vec<PathStep>,
    /// Groups of entries waiting to be reinserted at their node's level —
    /// the victims of a forced reinsert, the orphans of a dissolved node —
    /// kept as a stack: each pass replays, in order, the groups it pushed.
    reinsert: Vec<Node>,
    /// `split_node`'s candidate ordering.
    sorted: Vec<Entry>,
    /// `evict_for_reinsert`'s (squared distance, index) list.
    scored: Vec<(f64, usize)>,
}

/// The levels that have had their forced reinsert in the running
/// top-level operation (R* rule: one per level).
type Reinserted = [bool; 1 << u8::BITS];

impl TprTree {
    /// Creates an empty tree whose nodes live in `pool`.
    ///
    /// # Panics
    /// Panics when `config` is invalid (see [`TreeConfig::assert_valid`]).
    #[must_use]
    pub fn new(pool: BufferPool, config: TreeConfig) -> Self {
        config.assert_valid();
        Self {
            pool,
            config,
            root: None,
            height: 0,
            len: 0,
            format_stats: CacheStats::new(),
            scratch: Box::default(),
        }
    }

    /// The tree's configuration.
    #[must_use]
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }

    /// The buffer pool the tree reads and writes through.
    #[must_use]
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Number of indexed objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no objects.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Root page, `None` when empty.
    #[must_use]
    pub fn root_page(&self) -> Option<PageId> {
        self.root
    }

    /// Number of levels (0 when empty, 1 when the root is a leaf).
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Reads and decodes a node through the buffer pool (counts I/O).
    pub fn read_node(&self, page: PageId) -> TprResult<Node> {
        self.read_view(page, |view| view.to_node())
    }

    /// Reads a node's entries straight into SoA `lanes` without
    /// materialising a [`Node`]: a lane-to-lane copy out of the page (no
    /// per-entry decode, no `Vec<Entry>` allocation). Counts one logical
    /// read exactly like [`read_node`](Self::read_node).
    pub fn read_node_lanes(&self, page: PageId, lanes: &mut EntryLanes) -> TprResult<()> {
        self.read_view(page, |view| lanes.fill_from_view(view))
    }

    /// The one node read path: `page` through the pool, parsed as a
    /// [`NodeView`], handed to `f` while the frame is latched.
    fn read_view<R>(&self, page: PageId, f: impl FnOnce(&NodeView<'_>) -> R) -> TprResult<R> {
        let out = self
            .pool
            .read(page, |p| -> StorageResult<R> {
                let view = NodeView::parse(p)?;
                self.format_stats.record_zero_copy_read();
                Ok(f(&view))
            })
            .map_err(TprError::from)??;
        Ok(out)
    }

    /// The one node write path: the capacity is checked first, then the
    /// node is encoded straight into the latched pool frame.
    fn write_node(&self, page: PageId, node: &Node) -> TprResult<()> {
        node.check_fits()?;
        self.pool
            .write_with(page, |frame| node.encode_fitting(frame))?;
        Ok(())
    }

    /// A node at `level` with no entries: a spare one, or a new one sized
    /// for the most a mutation puts in a node (a full node plus the entry
    /// that overflows it).
    fn take_node(&mut self, level: u8) -> Node {
        let mut node = self.scratch.spare.pop().unwrap_or_else(|| Node {
            level,
            entries: Vec::with_capacity(self.config.capacity + 1),
        });
        node.level = level;
        node
    }

    /// Keeps a node the mutation has finished with for its entry buffer.
    fn recycle(&mut self, mut node: Node) {
        node.entries.clear();
        self.scratch.spare.push(node);
    }

    /// Page-format counters: node pages read through the zero-copy view.
    #[must_use]
    pub fn page_format_stats(&self) -> CacheSnapshot {
        self.format_stats.snapshot()
    }

    // ------------------------------------------------------------------
    // Insert
    // ------------------------------------------------------------------

    /// Inserts object `oid` with trajectory `mbr`. `now` is the current
    /// timestamp (insertions always happen at the present; `mbr.t_ref`
    /// is typically `now`).
    pub fn insert(&mut self, oid: ObjectId, mbr: MovingRect, now: Time) -> TprResult<()> {
        // Groups a failed operation left behind are not replayed.
        self.scratch.reinsert.clear();
        let entry = Entry::object(oid, mbr);
        self.insert_entry(entry, 0, now, &mut [false; 1 << u8::BITS])?;
        self.len += 1;
        Ok(())
    }

    /// Inserts `entry` into a node at `target_level`, growing the tree as
    /// needed. `reinserted` limits forced reinserts to one per level per
    /// top-level operation (R* rule).
    fn insert_entry(
        &mut self,
        entry: Entry,
        target_level: u8,
        now: Time,
        reinserted: &mut Reinserted,
    ) -> TprResult<()> {
        let Some(root) = self.root else {
            // First entry: the root is born as a node at the target level
            // (target_level > 0 cannot happen on an empty tree — orphan
            // reinserts only occur on non-empty trees).
            debug_assert_eq!(target_level, 0, "orphan reinsert into empty tree");
            let mut node = self.take_node(target_level);
            node.entries.push(entry);
            let page = self.pool.allocate();
            self.write_node(page, &node)?;
            self.recycle(node);
            self.root = Some(page);
            self.height = u32::from(target_level) + 1;
            return Ok(());
        };

        let mut path = self.choose_path(root, &entry.mbr, target_level, now)?;
        path.last_mut()
            .expect("choose_path returns at least the root")
            .node
            .entries
            .push(entry);
        self.resolve_overflow(path, now, reinserted)
    }

    /// Descends from `root` to a node at `target_level`, minimizing the
    /// enlargement integral at every step. The path comes in the tree's
    /// retained path buffer; whoever uses it up hands it back.
    fn choose_path(
        &mut self,
        root: PageId,
        mbr: &MovingRect,
        target_level: u8,
        now: Time,
    ) -> TprResult<Vec<PathStep>> {
        let mut path = std::mem::take(&mut self.scratch.path);
        debug_assert!(path.is_empty());
        let mut page = root;
        loop {
            let mut node = self.take_node(0);
            self.read_view(page, |view| view.decode_into(&mut node))?;
            if node.level == target_level {
                path.push(PathStep {
                    page,
                    node,
                    child_idx: usize::MAX,
                });
                return Ok(path);
            }
            if node.level < target_level || node.is_leaf() {
                return Err(TprError::CorruptNode {
                    detail: format!(
                        "reached level {} searching for level {target_level}",
                        node.level
                    ),
                });
            }
            let idx = self.pick_child(&node, mbr, now);
            let next = node.entries[idx].child.page();
            path.push(PathStep {
                page,
                node,
                child_idx: idx,
            });
            page = next;
        }
    }

    /// The TPR/TPR* choose-subtree penalty: minimal enlargement integral
    /// over the horizon, ties broken by smaller area integral. With
    /// `integral_metrics` off, plain R* instantaneous penalties at `now`
    /// (the ablation baseline that ignores motion).
    fn pick_child(&self, node: &Node, mbr: &MovingRect, now: Time) -> usize {
        let h_end = now + self.config.horizon;
        let mut best = 0;
        let mut best_enl = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        for (i, e) in node.entries.iter().enumerate() {
            let (enl, area) = if self.config.integral_metrics {
                // Integrate from the later of `now` and the entry's
                // reference time — bounds are undefined before their
                // reference. The enlargement is `enlargement_integral`'s
                // difference, with the entry's own area integral taken
                // once.
                let t0 = now.max(e.mbr.t_ref);
                let t1 = h_end.max(t0);
                let area = e.mbr.area_integral(t0, t1);
                (e.mbr.union_moving(mbr).area_integral(t0, t1) - area, area)
            } else {
                let t = now.max(e.mbr.t_ref);
                let here = e.mbr.at(t);
                let grown = here.union(&mbr.at(t));
                (grown.area() - here.area(), here.area())
            };
            if enl < best_enl || (enl == best_enl && area < best_area) {
                best = i;
                best_enl = enl;
                best_area = area;
            }
        }
        best
    }

    /// Walks the path bottom-up handling overflows (forced reinsert or
    /// split) and tightening parent bounds, then replays the entries the
    /// forced reinserts evicted.
    fn resolve_overflow(
        &mut self,
        mut path: Vec<PathStep>,
        now: Time,
        reinserted: &mut Reinserted,
    ) -> TprResult<()> {
        // The groups this pass evicts go on the reinsert stack above `base`.
        let base = self.scratch.reinsert.len();
        // The sibling entry produced by a split at the level below, to be
        // added to the current node.
        let mut carry: Option<Entry> = None;

        while let Some(mut step) = path.pop() {
            if let Some(sibling_entry) = carry.take() {
                step.node.entries.push(sibling_entry);
            }

            if step.node.entries.len() <= self.config.capacity {
                self.write_node(step.page, &step.node)?;
                self.tighten_parent(&mut path, &step.node, now)?;
                self.recycle(step.node);
                continue;
            }

            let level = step.node.level;
            let is_root = path.is_empty();
            if self.config.forced_reinsert && !is_root && !reinserted[usize::from(level)] {
                // Forced reinsert: evict the entries farthest from the
                // node center over the horizon, keep the node, and replay
                // them as fresh insertions afterwards.
                reinserted[usize::from(level)] = true;
                let mut evicted = self.take_node(level);
                self.evict_for_reinsert(&mut step.node, &mut evicted.entries, now);
                self.write_node(step.page, &step.node)?;
                self.tighten_parent(&mut path, &step.node, now)?;
                self.recycle(step.node);
                self.scratch.reinsert.push(evicted);
                continue;
            }

            // Split: the node keeps the first group, a new page the second.
            let mut right = self.take_node(level);
            self.split_node(&mut step.node, &mut right, now);
            let right_page = self.pool.allocate();
            self.write_node(step.page, &step.node)?;
            self.write_node(right_page, &right)?;
            let left_mbr = step
                .node
                .bounding_mbr_at(now)
                .expect("split halves are non-empty");
            let right_mbr = right
                .bounding_mbr_at(now)
                .expect("split halves are non-empty");
            self.recycle(step.node);
            self.recycle(right);

            if is_root {
                let mut new_root = self.take_node(level + 1);
                new_root.entries.push(Entry::node(step.page, left_mbr));
                new_root.entries.push(Entry::node(right_page, right_mbr));
                let root_page = self.pool.allocate();
                self.write_node(root_page, &new_root)?;
                self.recycle(new_root);
                self.root = Some(root_page);
                self.height += 1;
            } else {
                let parent = path.last_mut().expect("non-root has a parent");
                parent.node.entries[parent.child_idx].mbr = left_mbr;
                carry = Some(Entry::node(right_page, right_mbr));
            }
        }
        self.scratch.path = path;

        // Replay evicted entries now that the tree is consistent.
        self.replay_reinserts(base, now, reinserted)
    }

    /// Reinserts the groups above `base` on the reinsert stack, in order,
    /// each entry into a node at its group's level; then recycles them.
    /// A reinsertion that overflows pushes and replays its own groups
    /// above these before it returns.
    fn replay_reinserts(
        &mut self,
        base: usize,
        now: Time,
        reinserted: &mut Reinserted,
    ) -> TprResult<()> {
        let end = self.scratch.reinsert.len();
        for group in base..end {
            let level = self.scratch.reinsert[group].level;
            for i in 0..self.scratch.reinsert[group].entries.len() {
                let entry = self.scratch.reinsert[group].entries[i];
                self.insert_entry(entry, level, now, reinserted)?;
            }
        }
        debug_assert_eq!(self.scratch.reinsert.len(), end);
        while self.scratch.reinsert.len() > base {
            let group = self.scratch.reinsert.pop().expect("a group above base");
            self.recycle(group);
        }
        Ok(())
    }

    /// Refreshes the parent's bound of the just-written child (active
    /// tightening). The parent node is only mutated in memory here; it is
    /// written back when its own turn in `resolve_overflow` comes.
    fn tighten_parent(&self, path: &mut [PathStep], child: &Node, now: Time) -> TprResult<()> {
        if let Some(parent) = path.last_mut() {
            let mbr = child
                .bounding_mbr_at(now)
                .ok_or_else(|| TprError::CorruptNode {
                    detail: "empty non-root child".into(),
                })?;
            parent.node.entries[parent.child_idx].mbr = mbr;
        }
        Ok(())
    }

    /// Moves the `reinsert_count` entries whose centers stray farthest
    /// from the node's center over the horizon (sampled at `now + H/2`)
    /// into `evicted`, nearest of them first.
    fn evict_for_reinsert(&mut self, node: &mut Node, evicted: &mut Vec<Entry>, now: Time) {
        let t_mid = if self.config.integral_metrics {
            now + self.config.horizon / 2.0
        } else {
            now
        };
        let center_of = |m: &MovingRect| m.at(t_mid).center();
        let node_mbr = node.bounding_mbr().expect("overflowing node is non-empty");
        let c = center_of(&node_mbr);
        let scored = &mut self.scratch.scored;
        scored.clear();
        scored.extend(node.entries.iter().enumerate().map(|(i, e)| {
            let ec = center_of(&e.mbr);
            let dx = ec[0] - c[0];
            let dy = ec[1] - c[1];
            (dx * dx + dy * dy, i)
        }));
        // Farthest first.
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite distances"));
        let k = self
            .config
            .reinsert_count()
            .min(node.entries.len().saturating_sub(1));
        let victims = &mut scored[..k];
        victims.sort_unstable_by_key(|&(_, i)| Reverse(i)); // remove back-to-front
        evicted.extend(victims.iter().map(|&(_, i)| node.entries.swap_remove(i)));
        // R* reinserts in *close-first* order: nearest evicted first.
        evicted.sort_by(|a, b| {
            let da = {
                let ec = center_of(&a.mbr);
                (ec[0] - c[0]).powi(2) + (ec[1] - c[1]).powi(2)
            };
            let db = {
                let ec = center_of(&b.mbr);
                (ec[0] - c[0]).powi(2) + (ec[1] - c[1]).powi(2)
            };
            da.partial_cmp(&db).expect("finite distances")
        });
    }

    /// R*-style split on integral metrics: axis by minimal margin-integral
    /// sum, distribution by minimal overlap integral (ties: total area
    /// integral). `node` keeps the first group; `right`, empty, receives
    /// the second.
    fn split_node(&mut self, node: &mut Node, right: &mut Node, now: Time) {
        let min = self.config.min_entries();
        let n = node.entries.len();
        debug_assert!(n > self.config.capacity);
        let t0 = now;
        let t1 = now + self.config.horizon;

        let union_mbr = |entries: &[Entry]| -> MovingRect {
            let mut it = entries.iter();
            let first = it.next().expect("non-empty group").mbr;
            it.fold(first, |acc, e| acc.union_moving(&e.mbr))
        };

        // (overlap, area, axis, by_upper, split_at) of the best
        // distribution so far.
        let mut best: Option<(f64, f64, usize, bool, usize)> = None;
        let sorted = &mut self.scratch.sorted;
        for axis in 0..cij_geom::DIMS {
            for by_upper in [false, true] {
                sorted.clear();
                sorted.extend_from_slice(&node.entries);
                sorted.sort_by(split_order(axis, by_upper, now));
                // Margin sum decides the axis in R*; folding it into one
                // pass with the distribution choice (margin as a third
                // tie-break) keeps quality while halving the scans.
                for split_at in min..=(n - min) {
                    let g1 = union_mbr(&sorted[..split_at]);
                    let g2 = union_mbr(&sorted[split_at..]);
                    let s0 = t0.max(g1.t_ref).max(g2.t_ref);
                    let s1 = t1.max(s0);
                    let (overlap, area) = if self.config.integral_metrics {
                        (
                            g1.overlap_integral(&g2, s0, s1),
                            g1.area_integral(s0, s1) + g2.area_integral(s0, s1),
                        )
                    } else {
                        let (r1, r2) = (g1.at(s0), g2.at(s0));
                        (r1.overlap_area(&r2), r1.area() + r2.area())
                    };
                    let better = match best {
                        None => true,
                        Some((bo, ba, ..)) => overlap < bo || (overlap == bo && area < ba),
                    };
                    if better {
                        best = Some((overlap, area, axis, by_upper, split_at));
                    }
                }
            }
        }
        let (_, _, axis, by_upper, split_at) = best.expect("at least one distribution considered");
        // The same stable sort of the same entries gives the order the
        // best distribution was scored in.
        node.entries.sort_by(split_order(axis, by_upper, now));
        right.level = node.level;
        right.entries.extend(node.entries.drain(split_at..));
    }

    // ------------------------------------------------------------------
    // Delete / update
    // ------------------------------------------------------------------

    /// Deletes object `oid`, locating it via its registered trajectory
    /// `mbr` (the exact `MovingRect` previously inserted). `now` is the
    /// current timestamp.
    pub fn delete(&mut self, oid: ObjectId, mbr: &MovingRect, now: Time) -> TprResult<()> {
        let Some(root) = self.root else {
            return Err(TprError::ObjectNotFound(oid));
        };
        // Groups a failed operation left behind are not replayed.
        self.scratch.reinsert.clear();
        let mut path = std::mem::take(&mut self.scratch.path);
        if !self.find_leaf(root, oid, mbr, now, &mut path)? {
            self.scratch.path = path;
            return Err(TprError::ObjectNotFound(oid));
        }

        // Remove the entry from the leaf (last path step).
        let leaf = path.last_mut().expect("find_leaf populated the path");
        let pos = leaf
            .node
            .entries
            .iter()
            .position(|e| e.child == ChildRef::Object(oid))
            .expect("find_leaf verified membership");
        leaf.node.entries.remove(pos);
        self.len -= 1;

        // Condense: dissolve under-full nodes; the entries of each become
        // a group to reinsert at its level.
        while let Some(step) = path.pop() {
            let is_root = path.is_empty();
            if !is_root && step.node.entries.len() < self.config.min_entries() {
                // Dissolve this node: orphan its entries, drop it from its
                // parent.
                self.pool.free(step.page)?;
                let parent = path.last_mut().expect("non-root has a parent");
                parent.node.entries.remove(parent.child_idx);
                // Removing shifts sibling indices; the parent's own
                // child_idx (into *its* parent) is unaffected.
                self.scratch.reinsert.push(step.node);
                continue;
            }
            self.write_node(step.page, &step.node)?;
            if let Some(parent) = path.last_mut() {
                // Non-root nodes this small were dissolved above.
                let mbr = step
                    .node
                    .bounding_mbr_at(now)
                    .expect("non-empty node has a bound");
                parent.node.entries[parent.child_idx].mbr = mbr;
            }
            self.recycle(step.node);
        }
        self.scratch.path = path;

        // Reinsert orphans: the dissolved node lived at its group's level,
        // so its entries must land in a node at that level again.
        self.replay_reinserts(0, now, &mut [false; 1 << u8::BITS])?;

        self.shrink_root()?;
        Ok(())
    }

    /// Replaces object `oid`'s trajectory: the paper's *update* — delete
    /// with the old trajectory, insert with the new one.
    pub fn update(
        &mut self,
        oid: ObjectId,
        old_mbr: &MovingRect,
        new_mbr: MovingRect,
        now: Time,
    ) -> TprResult<()> {
        self.delete(oid, old_mbr, now)?;
        self.insert(oid, new_mbr, now)
    }

    /// DFS for the leaf containing `oid`; fills `path` root→leaf on
    /// success. Children are pruned by rectangle intersection at `now`
    /// (a parent bounds its child at every `t` not earlier than both
    /// reference times, and `now` is never earlier than any write). A
    /// leaf is searched on its page view and decoded only if it holds
    /// `oid`.
    fn find_leaf(
        &mut self,
        page: PageId,
        oid: ObjectId,
        mbr: &MovingRect,
        now: Time,
        path: &mut Vec<PathStep>,
    ) -> TprResult<bool> {
        let mut node = self.take_node(0);
        let (leaf, found) = self.read_view(page, |view| {
            let leaf = view.is_leaf();
            let found = leaf && (0..view.len()).any(|i| view.child_raw(i) == oid.0);
            if found || !leaf {
                view.decode_into(&mut node);
            }
            (leaf, found)
        })?;
        if leaf {
            if found {
                path.push(PathStep {
                    page,
                    node,
                    child_idx: usize::MAX,
                });
            } else {
                self.recycle(node);
            }
            return Ok(found);
        }
        // One step per internal node, pushed once: trying the next
        // candidate child only moves `child_idx`.
        let target = mbr.at(now);
        let depth = path.len();
        path.push(PathStep {
            page,
            node,
            child_idx: usize::MAX,
        });
        for i in 0..path[depth].node.entries.len() {
            let e = &path[depth].node.entries[i];
            if e.mbr.at(now).intersects(&target) {
                let child = e.child.page();
                path[depth].child_idx = i;
                if self.find_leaf(child, oid, mbr, now, path)? {
                    return Ok(true);
                }
            }
        }
        let step = path.pop().expect("pushed above");
        self.recycle(step.node);
        Ok(false)
    }

    /// Collapses trivial roots: a non-leaf root with a single child makes
    /// the child the new root; an empty leaf root empties the tree. Reads
    /// only the root's header and first child off its page view.
    fn shrink_root(&mut self) -> TprResult<()> {
        loop {
            let Some(root) = self.root else { return Ok(()) };
            let (leaf, len, first) = self.read_view(root, |view| {
                (
                    view.is_leaf(),
                    view.len(),
                    (!view.is_empty()).then(|| view.child(0)),
                )
            })?;
            if leaf {
                if len == 0 {
                    self.pool.free(root)?;
                    self.root = None;
                    self.height = 0;
                }
                return Ok(());
            }
            if len == 1 {
                let child = first.expect("one entry").page();
                self.pool.free(root)?;
                self.root = Some(child);
                self.height -= 1;
                continue;
            }
            return Ok(());
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Objects whose rectangle intersects `window` at instant `t`
    /// (timeslice query).
    pub fn range_at(&self, window: &Rect, t: Time) -> TprResult<Vec<ObjectId>> {
        let mut out = Vec::new();
        let Some(root) = self.root else {
            return Ok(out);
        };
        let mut stack = vec![root];
        while let Some(page) = stack.pop() {
            let node = self.read_node(page)?;
            for e in &node.entries {
                if e.mbr.at(t).intersects(window) {
                    match e.child {
                        ChildRef::Object(oid) => out.push(oid),
                        ChildRef::Page(p) => stack.push(p),
                    }
                }
            }
        }
        Ok(out)
    }

    /// Objects whose trajectory intersects the moving rectangle `target`
    /// at some instant within `[t_s, t_e]`, with the intersection
    /// sub-interval. This is the single-object join used for maintenance
    /// (joining one updated object against a whole tree) and for
    /// TC-window queries.
    pub fn intersect_window(
        &self,
        target: &MovingRect,
        t_s: Time,
        t_e: Time,
    ) -> TprResult<Vec<(ObjectId, TimeInterval)>> {
        let mut out = Vec::new();
        let Some(root) = self.root else {
            return Ok(out);
        };
        let mut stack = vec![root];
        while let Some(page) = stack.pop() {
            let node = self.read_node(page)?;
            for e in &node.entries {
                if let Some(iv) = e.mbr.intersect_interval(target, t_s, t_e) {
                    match e.child {
                        ChildRef::Object(oid) => out.push((oid, iv)),
                        ChildRef::Page(p) => stack.push(p),
                    }
                }
            }
        }
        Ok(out)
    }

    /// Every `(oid, trajectory)` in the tree, in traversal order. Test
    /// and rebuild helper; a full scan, so it costs I/O like one.
    pub fn iter_objects(&self) -> TprResult<Vec<(ObjectId, MovingRect)>> {
        let mut out = Vec::with_capacity(self.len);
        let Some(root) = self.root else {
            return Ok(out);
        };
        let mut stack = vec![root];
        while let Some(page) = stack.pop() {
            let node = self.read_node(page)?;
            for e in &node.entries {
                match e.child {
                    ChildRef::Object(oid) => out.push((oid, e.mbr)),
                    ChildRef::Page(p) => stack.push(p),
                }
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Introspection / validation
    // ------------------------------------------------------------------

    /// Aggregate structure statistics (full scan).
    pub fn stats(&self) -> TprResult<TreeStats> {
        let mut nodes = 0;
        let mut leaves = 0;
        let mut objects = 0;
        if let Some(root) = self.root {
            let mut stack = vec![root];
            while let Some(page) = stack.pop() {
                let node = self.read_node(page)?;
                nodes += 1;
                if node.is_leaf() {
                    leaves += 1;
                    objects += node.entries.len();
                } else {
                    for e in &node.entries {
                        stack.push(e.child.page());
                    }
                }
            }
        }
        Ok(TreeStats {
            height: self.height,
            nodes,
            leaves,
            objects,
        })
    }

    /// Exhaustively checks structural invariants; returns the stats on
    /// success. Test-support API (full scan).
    ///
    /// Checked: level bookkeeping, fanout bounds, entry-kind/level
    /// consistency, conservative containment of children in parent bounds
    /// at `now` and over the horizon, and object count.
    pub fn validate(&self, now: Time) -> TprResult<TreeStats> {
        let stats = self.stats()?;
        if stats.objects != self.len {
            return Err(TprError::CorruptNode {
                detail: format!(
                    "tracked len {} != scanned objects {}",
                    self.len, stats.objects
                ),
            });
        }
        let Some(root) = self.root else {
            if self.len != 0 || self.height != 0 {
                return Err(TprError::CorruptNode {
                    detail: "empty root with nonzero len/height".into(),
                });
            }
            return Ok(stats);
        };
        let root_node = self.read_node(root)?;
        if u32::from(root_node.level) + 1 != self.height {
            return Err(TprError::CorruptNode {
                detail: format!(
                    "root level {} inconsistent with height {}",
                    root_node.level, self.height
                ),
            });
        }
        self.validate_node(root, &root_node, None, now, true)?;
        Ok(stats)
    }

    fn validate_node(
        &self,
        page: PageId,
        node: &Node,
        parent_bound: Option<&MovingRect>,
        now: Time,
        is_root: bool,
    ) -> TprResult<()> {
        let cap = self.config.capacity;
        let min = if is_root {
            1
        } else {
            self.config.min_entries()
        };
        if node.entries.len() > cap || node.entries.len() < min {
            return Err(TprError::CorruptNode {
                detail: format!(
                    "{page}: fanout {} outside [{min}, {cap}] (root={is_root})",
                    node.entries.len()
                ),
            });
        }
        if let Some(bound) = parent_bound {
            for e in &node.entries {
                for dt in [0.0, 1.0, 10.0, 60.0] {
                    let t = now + dt;
                    if !bound.at(t).contains_rect_eps(&e.mbr.at(t), 1e-6) {
                        return Err(TprError::CorruptNode {
                            detail: format!("{page}: child bound escapes parent at t={t}"),
                        });
                    }
                }
            }
        }
        if !node.is_leaf() {
            for e in &node.entries {
                let child_page = e.child.page();
                let child = self.read_node(child_page)?;
                if child.level + 1 != node.level {
                    return Err(TprError::CorruptNode {
                        detail: format!(
                            "{child_page}: level {} under parent level {}",
                            child.level, node.level
                        ),
                    });
                }
                self.validate_node(child_page, &child, Some(&e.mbr), now, false)?;
            }
        }
        Ok(())
    }
}

/// The order `split_node` sorts a candidate distribution in: by each
/// entry's lower (or upper) bound on `axis` at `now`.
fn split_order(axis: usize, by_upper: bool, now: Time) -> impl Fn(&Entry, &Entry) -> Ordering {
    let key = move |e: &Entry| {
        if by_upper {
            e.mbr.hi_at(axis, now)
        } else {
            e.mbr.lo_at(axis, now)
        }
    };
    move |a, b| key(a).partial_cmp(&key(b)).expect("finite coordinates")
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cij_storage::{BufferPoolConfig, InMemoryStore, StorageError};

    use super::*;

    #[test]
    fn an_over_capacity_node_is_refused_before_the_pool_sees_it() {
        let pool = BufferPool::new(
            Arc::new(InMemoryStore::new()),
            BufferPoolConfig::with_capacity(4),
        );
        let mut tree = TprTree::new(pool.clone(), TreeConfig::default());
        let mbr = MovingRect::rigid(Rect::new([0.0, 0.0], [1.0, 1.0]), [1.0, 0.0], 0.0);
        tree.insert(ObjectId(7), mbr, 0.0).unwrap();
        let root = tree.root_page().unwrap();
        let before = pool.read(root, |p| *p).unwrap();
        let writes = pool.stats().snapshot().logical_writes;

        let mut node = Node::new(0);
        node.entries = (0..=Node::max_capacity() as u64)
            .map(|i| Entry::object(ObjectId(i), mbr))
            .collect();
        assert!(matches!(
            tree.write_node(root, &node),
            Err(TprError::Storage(StorageError::Corrupt(_)))
        ));
        assert_eq!(pool.stats().snapshot().logical_writes, writes);
        assert!(
            pool.read(root, |p| *p == before).unwrap(),
            "page bytes moved"
        );
        assert_eq!(
            tree.range_at(&Rect::new([0.0, 0.0], [2.0, 2.0]), 0.0)
                .unwrap(),
            vec![ObjectId(7)]
        );
    }
}
