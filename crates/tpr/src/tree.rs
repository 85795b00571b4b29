//! The TPR-tree proper: disk-resident insert/delete/update and queries.
//!
//! Structure-modifying operations follow the R*-tree skeleton with the
//! TPR/TPR* twist that every quality metric is an integral over the
//! horizon `[now, now + H]`:
//!
//! * **choose subtree** — minimal enlargement integral, area-integral
//!   tie-break;
//! * **overflow** — one forced reinsert per level per operation (the
//!   30 % of entries whose centers stray farthest from the node center
//!   over the horizon), then a split that tries every axis, both sort
//!   keys and every admissible cut, and keeps the distribution of least
//!   overlap integral (ties: least area integral); a node
//!   a batch took more than twice over capacity is tiled instead
//!   (Sort-Tile-Recursive);
//! * **underflow** — dissolve the node and reinsert the orphaned entries
//!   at their level (classic `CondenseTree`);
//! * **active tightening** — every write-back recomputes the parent
//!   entry's bound from the child's current entries, rebased to `now`.

use std::cell::Cell;
use std::cmp::{Ordering, Reverse};

use cij_geom::{MovingRect, Rect, Time, TimeInterval};
use cij_storage::{BufferPool, PageId, StorageResult};

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
    /// Working memory of a mutation: the thread's buffers while one runs
    /// (see [`THREAD_SCRATCH`]), empty ones otherwise. Boxed, so that
    /// lending them costs two pointer swaps.
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

/// A node a mutation holds in memory between its one read and its one
/// write: its page, its decoded entries, and where its entry sits in
/// its parent.
struct Held {
    page: PageId,
    node: Node,
    /// Index of the parent in the held list ([`ROOT`] for the root).
    parent: usize,
    /// Index of this node's entry within the parent's entries.
    slot: usize,
}

/// A group of entries waiting to be reinserted into nodes at `level`:
/// `Scratch::reinsert_entries[start..end]`.
#[derive(Clone, Copy)]
struct Group {
    level: u8,
    start: usize,
    end: usize,
}

/// The `parent` and `slot` of the root.
const ROOT: usize = usize::MAX;

/// A delete of the running batch.
struct Victim {
    oid: ObjectId,
    /// The registered trajectory at `now`: a subtree whose bound misses
    /// it cannot hold the object.
    target: Rect,
    found: bool,
}

/// An insert of the running batch.
#[derive(Clone, Copy)]
struct Routed {
    /// The child the node being descended routes the entry to.
    child: u32,
    /// Position in the batch: entries bound for one child keep batch
    /// order.
    seq: u32,
    entry: Entry,
}

/// The buffers a mutation works in. Each holds what one batch holds at
/// once — the nodes it touches, the nodes of a split, the groups waiting
/// to be reinserted — and keeps at most [`SCRATCH_KEEP`] items of it
/// between batches ([`SPARE_KEEP`] spare nodes), so a construction's
/// batch does not leave the thread its size.
#[derive(Default)]
struct Scratch {
    /// Nodes a mutation has finished with, kept for their entry buffers.
    spare: Vec<Node>,
    /// The nodes the running descent holds: every node on a path to a
    /// victim (deletes, in pre-order), or the path being descended
    /// (inserts). One descent is live at a time.
    held: Vec<Held>,
    /// Groups of entries waiting to be reinserted at their node's level —
    /// the victims of a forced reinsert, the orphans of a dissolved node —
    /// kept as a stack: each pass replays the groups it pushed.
    reinsert: Vec<Group>,
    /// The entries of the groups, each group's a run.
    reinsert_entries: Vec<Entry>,
    /// The deletes of the running batch.
    victims: Vec<Victim>,
    /// Per held node of the delete descent, the victims its subtree may
    /// hold, as index runs into `victims` (a stack, one run per level).
    candidates: Vec<u32>,
    /// Entry positions of a leaf that hold victims.
    hits: Vec<usize>,
    /// The inserts of the running descent.
    routed: Vec<Routed>,
    /// The penalty areas of the node routing them.
    areas: Vec<f64>,
    /// A split's pieces and their pages.
    pieces: Vec<Node>,
    piece_pages: Vec<PageId>,
    /// `split_node`'s candidate ordering.
    sorted: Vec<Entry>,
    /// `evict_for_reinsert`'s (squared distance, index) list.
    scored: Vec<(f64, usize)>,
}

/// The most items a scratch buffer keeps between batches: room for a busy
/// tick's routes, victims or reinserts in one tree, and far below what a
/// construction's batch holds.
const SCRATCH_KEEP: usize = 2048;

/// The most spare nodes the scratch keeps between batches: more than the
/// nodes a tick's batch touches on one tree.
const SPARE_KEEP: usize = 128;

impl Scratch {
    /// Releases what a batch grew past [`SCRATCH_KEEP`] and
    /// [`SPARE_KEEP`]. Every buffer but `spare` is empty between batches
    /// (a failed batch's leftovers are cleared by the next).
    fn trim(&mut self) {
        fn keep<T>(buffer: &mut Vec<T>, most: usize) {
            if buffer.capacity() > most {
                buffer.truncate(most);
                buffer.shrink_to(most);
            }
        }
        keep(&mut self.spare, SPARE_KEEP);
        keep(&mut self.held, SCRATCH_KEEP);
        keep(&mut self.reinsert, SCRATCH_KEEP);
        keep(&mut self.reinsert_entries, SCRATCH_KEEP);
        keep(&mut self.victims, SCRATCH_KEEP);
        keep(&mut self.candidates, SCRATCH_KEEP);
        keep(&mut self.hits, SCRATCH_KEEP);
        keep(&mut self.routed, SCRATCH_KEEP);
        keep(&mut self.areas, SCRATCH_KEEP);
        keep(&mut self.pieces, SCRATCH_KEEP);
        keep(&mut self.piece_pages, SCRATCH_KEEP);
        keep(&mut self.sorted, SCRATCH_KEEP);
        keep(&mut self.scored, SCRATCH_KEEP);
    }
}

thread_local! {
    /// The mutation buffers of the thread, lent to each mutation it runs
    /// and kept between them, so that a warm mutation allocates nothing.
    /// They belong to the thread rather than the tree because an engine
    /// mutates many trees — one per side, time bucket and partition — and
    /// a tick's batch grows the buffers of each tree it touches: kept per
    /// tree, they would add up.
    static THREAD_SCRATCH: Cell<Option<Box<Scratch>>> = const { Cell::new(None) };
}

/// The levels that have had their forced reinsert in the running
/// batch (R* rule: one per level per operation).
type Reinserted = [bool; 1 << u8::BITS];

/// The state of one delete descent: the victims, the candidate runs
/// (see [`Scratch::candidates`]) and how many victims are still unfound.
struct DeleteRun<'v> {
    victims: &'v mut [Victim],
    candidates: Vec<u32>,
    pending: usize,
}

/// No entries, for the side of a batch that has none.
const NONE: [(ObjectId, MovingRect); 0] = [];

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

    /// Keeps a node the mutation has finished with for its entry buffer,
    /// unless a batch grew that past twice what a node needs.
    fn recycle(&mut self, mut node: Node) {
        if node.entries.capacity() <= 2 * (self.config.capacity + 1) {
            node.entries.clear();
            self.scratch.spare.push(node);
        }
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Inserts object `oid` with trajectory `mbr`. `now` is the current
    /// timestamp (insertions always happen at the present; `mbr.t_ref`
    /// is typically `now`). A batch of one.
    pub fn insert(&mut self, oid: ObjectId, mbr: MovingRect, now: Time) -> TprResult<()> {
        self.apply_batch(NONE, [(oid, mbr)], now)
    }

    /// Deletes object `oid`, locating it via its registered trajectory
    /// `mbr` (the exact `MovingRect` previously inserted). `now` is the
    /// current timestamp. A batch of one.
    pub fn delete(&mut self, oid: ObjectId, mbr: &MovingRect, now: Time) -> TprResult<()> {
        self.apply_batch([(oid, *mbr)], NONE, now)
    }

    /// Replaces object `oid`'s trajectory: the paper's *update* — delete
    /// with the old trajectory, insert with the new one. A batch of one
    /// delete and one insert.
    pub fn update(
        &mut self,
        oid: ObjectId,
        old_mbr: &MovingRect,
        new_mbr: MovingRect,
        now: Time,
    ) -> TprResult<()> {
        self.apply_batch([(oid, *old_mbr)], [(oid, new_mbr)], now)
    }

    /// One tick's share of this tree at `now`, in two synchronized
    /// descents: every `(oid, registered trajectory)` of `deletes` is
    /// removed, then every `(oid, trajectory)` of `inserts` is added.
    ///
    /// * **Deletes.** One descent reads every node whose bound meets some
    ///   victim's position at `now` until all victims are found, removes
    ///   them from their leaves, and writes every node on their paths once
    ///   as it leaves it, children first, each tightening its parent's
    ///   entry. A non-root node left under the minimum fill dissolves; its
    ///   entries are reinserted at its level.
    /// * **Inserts.** One descent routes every entry at every node it
    ///   reads with the choose-subtree penalty, against the node as held
    ///   in memory (a child's bound grows by each entry routed to it),
    ///   appends the entries to their leaves, and resolves every node it
    ///   touched once on the way up: written if it fits; relieved by a
    ///   forced reinsert if that makes it fit and its level has had none
    ///   in an earlier descent of the batch (R*); split otherwise, the
    ///   root growing the tree. A node at most twice over capacity splits
    ///   in two (R*); one further over is tiled into as many pieces as it
    ///   needs (STR), so a batch into an empty tree — a construction —
    ///   packs it bottom-up, level by level.
    ///
    /// Reinserted entries — the orphans of a dissolved node, the victims
    /// of a forced reinsert — go back once the tree is consistent: a
    /// one-entry operation's one at a time, as R* replays them, a larger
    /// batch's level by level in one descent each. A batch of one is the
    /// classic operation, page for page and I/O for I/O. A larger batch
    /// reads and writes each node it touches once per descent instead of
    /// once per entry, and may lay pages out differently from the same
    /// changes applied one by one; the indexed set is the same.
    ///
    /// An id appears at most once among `deletes`. A victim the tree does
    /// not hold fails the batch with [`TprError::ObjectNotFound`] (the
    /// first such in batch order) once the others are deleted, and before
    /// any insert; a batch of one changes nothing then.
    pub fn apply_batch(
        &mut self,
        deletes: impl IntoIterator<Item = (ObjectId, MovingRect)>,
        inserts: impl IntoIterator<Item = (ObjectId, MovingRect)>,
        now: Time,
    ) -> TprResult<()> {
        let lent = THREAD_SCRATCH.take();
        let own = lent.map(|warm| std::mem::replace(&mut self.scratch, warm));
        let outcome = self.apply_with_scratch(deletes, inserts, now);
        // The buffers go back to the thread, trimmed; the first mutation
        // on a thread leaves its tree fresh ones.
        let mut warm = match own {
            Some(own) => std::mem::replace(&mut self.scratch, own),
            None => std::mem::take(&mut self.scratch),
        };
        warm.trim();
        THREAD_SCRATCH.set(Some(warm));
        outcome
    }

    /// [`apply_batch`](Self::apply_batch) in the buffers of `self.scratch`.
    fn apply_with_scratch(
        &mut self,
        deletes: impl IntoIterator<Item = (ObjectId, MovingRect)>,
        inserts: impl IntoIterator<Item = (ObjectId, MovingRect)>,
        now: Time,
    ) -> TprResult<()> {
        // What a failed operation left behind is not replayed.
        self.scratch.reinsert.clear();
        self.scratch.reinsert_entries.clear();
        self.scratch.held.clear();
        let mut victims = std::mem::take(&mut self.scratch.victims);
        victims.clear();
        victims.extend(deletes.into_iter().map(|(oid, mbr)| Victim {
            oid,
            target: mbr.at(now),
            found: false,
        }));
        let deleted = if victims.is_empty() {
            Ok(())
        } else {
            self.delete_victims(&mut victims, now)
        };
        self.scratch.victims = victims;
        deleted?;

        let routed = &mut self.scratch.routed;
        routed.clear();
        routed.extend(
            inserts
                .into_iter()
                .enumerate()
                .map(|(seq, (oid, mbr))| Routed {
                    child: 0,
                    seq: seq as u32,
                    entry: Entry::object(oid, mbr),
                }),
        );
        let inserted = routed.len();
        if inserted > 0 {
            self.insert_routed(0, now, &mut [false; 1 << u8::BITS])?;
            self.len += inserted;
        }
        Ok(())
    }

    /// Inserts the entries waiting in the routed buffer into nodes at
    /// `level` in one descent, then replays the groups its forced
    /// reinserts evicted. `reinserted` holds the levels that had a forced
    /// reinsert in an earlier descent of the operation: they split
    /// instead (R* rule).
    fn insert_routed(
        &mut self,
        level: u8,
        now: Time,
        reinserted: &mut Reinserted,
    ) -> TprResult<()> {
        let base = self.scratch.reinsert.len();
        let mut routed = std::mem::take(&mut self.scratch.routed);
        let one_entry = routed.len() == 1;
        let descended = match self.root {
            Some(root) => self.descend(root, ROOT, &mut routed, level, now, reinserted),
            None => {
                // The first entries: the root is born as a node at their
                // level. It holds them now, so the buffer lets go of its
                // copy before a construction's batch is tiled.
                let mut node = self.take_node(level);
                node.entries.extend(routed.iter().map(|r| r.entry));
                routed.clear();
                routed.shrink_to(SCRATCH_KEEP);
                let page = self.pool.allocate();
                self.root = Some(page);
                self.height = u32::from(level) + 1;
                self.scratch.held.push(Held {
                    page,
                    node,
                    parent: ROOT,
                    slot: ROOT,
                });
                self.resolve(now, reinserted)
            }
        };
        routed.clear();
        self.scratch.routed = routed;
        descended?;
        // The levels this descent relieved by forced reinsert have had
        // theirs for the operation: a replay that overflows there splits.
        for group in &self.scratch.reinsert[base..] {
            reinserted[usize::from(group.level)] = true;
        }
        // Replay evicted entries now that the tree is consistent.
        self.replay_reinserts(base, one_entry, now, reinserted)
    }

    /// One node of the insert descent: reads `page` — the root, or the
    /// child at `slot` of the last held node — then appends `routed` if
    /// the node is at `level`, or routes each entry to a child and
    /// descends into every child that received some; then resolves the
    /// node.
    fn descend(
        &mut self,
        page: PageId,
        slot: usize,
        routed: &mut [Routed],
        level: u8,
        now: Time,
        reinserted: &mut Reinserted,
    ) -> TprResult<()> {
        let mut node = self.take_node(0);
        self.read_view(page, |view| view.decode_into(&mut node))?;
        let held = &mut self.scratch.held;
        let parent = if slot == ROOT { ROOT } else { held.len() - 1 };
        if node.level == level {
            node.entries.extend(routed.iter().map(|r| r.entry));
            held.push(Held {
                page,
                node,
                parent,
                slot,
            });
            return self.resolve(now, reinserted);
        }
        if node.level < level || node.is_leaf() {
            return Err(TprError::CorruptNode {
                detail: format!("reached level {} searching for level {level}", node.level),
            });
        }
        let mut areas = std::mem::take(&mut self.scratch.areas);
        areas.clear();
        areas.extend(node.entries.iter().map(|e| self.penalty_area(&e.mbr, now)));
        let last = routed.len() - 1;
        for (k, r) in routed.iter_mut().enumerate() {
            let child = self.pick_child(&node, &areas, &r.entry.mbr, now);
            r.child = child as u32;
            if k < last {
                // Later entries see the child's bound grown by this one.
                let bound = &mut node.entries[child].mbr;
                *bound = bound.union_moving(&r.entry.mbr);
                areas[child] = self.penalty_area(bound, now);
            }
        }
        self.scratch.areas = areas;
        // Children are descended from the last entry to the first. Behind
        // a pool smaller than the trees, which order misses less is a
        // matter of the access pattern; on the paper's 50-page pool this
        // one misses less than entry order (EXPERIMENTS.md, "Tick-batched
        // index mutation").
        routed.sort_unstable_by_key(|r| (Reverse(r.child), r.seq));
        let me = self.scratch.held.len();
        self.scratch.held.push(Held {
            page,
            node,
            parent,
            slot,
        });
        let mut rest = routed;
        while let Some(first) = rest.first() {
            let child = first.child;
            let run = rest.iter().take_while(|r| r.child == child).count();
            let (group, tail) = rest.split_at_mut(run);
            let child_page = self.scratch.held[me].node.entries[child as usize]
                .child
                .page();
            self.descend(child_page, child as usize, group, level, now, reinserted)?;
            rest = tail;
        }
        self.resolve(now, reinserted)
    }

    /// The interval the choose-subtree penalty integrates entry bound
    /// `e` over: from the later of `now` and its reference time — bounds
    /// are undefined before their reference — to the horizon.
    fn penalty_span(&self, e: &MovingRect, now: Time) -> (Time, Time) {
        let t0 = now.max(e.t_ref);
        (t0, (now + self.config.horizon).max(t0))
    }

    /// The area integral of entry bound `e` over its penalty span.
    fn penalty_area(&self, e: &MovingRect, now: Time) -> f64 {
        let (t0, t1) = self.penalty_span(e, now);
        e.area_integral(t0, t1)
    }

    /// The TPR/TPR* choose-subtree penalty: minimal enlargement integral
    /// over the horizon, ties broken by smaller area integral. `areas`
    /// holds each entry's own [`penalty_area`](Self::penalty_area), taken
    /// once per node for all the entries routed through it.
    fn pick_child(&self, node: &Node, areas: &[f64], mbr: &MovingRect, now: Time) -> usize {
        let mut best = 0;
        let mut best_enl = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        for (i, (e, &area)) in node.entries.iter().zip(areas).enumerate() {
            // The enlargement is `enlargement_integral`'s difference.
            let (t0, t1) = self.penalty_span(&e.mbr, now);
            let enl = e.mbr.union_moving(mbr).area_integral(t0, t1) - area;
            if enl < best_enl || (enl == best_enl && area < best_area) {
                best = i;
                best_enl = enl;
                best_area = area;
            }
        }
        best
    }

    /// Resolves the last held node now that its entries are final. It is
    /// written if it fits. A non-root node whose level has had no forced
    /// reinsert in an earlier descent of this operation, and which one
    /// would bring within capacity, evicts its farthest entries for
    /// replay and is written. Any other overflowing node splits: it keeps the first
    /// piece, new pages take the rest, and a split root grows the tree.
    /// The parent's entry is tightened to what was written, and the new
    /// pieces join the parent (which is resolved after its children).
    fn resolve(&mut self, now: Time, reinserted: &mut Reinserted) -> TprResult<()> {
        loop {
            let Held {
                page,
                mut node,
                parent,
                slot,
            } = self.scratch.held.pop().expect("a held node to resolve");
            let level = node.level;
            let overflow = node.entries.len().saturating_sub(self.config.capacity);
            if overflow == 0 {
                self.write_node(page, &node)?;
                self.tighten(parent, slot, &node, now)?;
                self.recycle(node);
                return Ok(());
            }

            if parent != ROOT
                && !reinserted[usize::from(level)]
                && self.config.reinsert_count() >= overflow
            {
                // Forced reinsert: evict the entries farthest from the
                // node center over the horizon, keep the node, and replay
                // them as fresh insertions afterwards.
                let start = self.scratch.reinsert_entries.len();
                self.evict_for_reinsert(&mut node, now);
                let end = self.scratch.reinsert_entries.len();
                self.write_node(page, &node)?;
                self.tighten(parent, slot, &node, now)?;
                self.recycle(node);
                self.scratch.reinsert.push(Group { level, start, end });
                return Ok(());
            }

            // Split: the node keeps the first piece, new pages the rest.
            let mut pieces = std::mem::take(&mut self.scratch.pieces);
            let mut pages = std::mem::take(&mut self.scratch.piece_pages);
            pieces.push(node);
            self.split_into_pieces(&mut pieces, now);
            pages.push(page);
            pages.extend((1..pieces.len()).map(|_| self.pool.allocate()));
            for (&p, piece) in pages.iter().zip(&pieces) {
                self.write_node(p, piece)?;
            }
            let bound = |piece: &Node| {
                piece
                    .bounding_mbr_at(now)
                    .expect("split pieces are non-empty")
            };
            let grown = if parent == ROOT {
                let mut root = self.take_node(level + 1);
                let entries = pages.iter().zip(&pieces);
                root.entries
                    .extend(entries.map(|(&p, piece)| Entry::node(p, bound(piece))));
                Some(root)
            } else {
                let held = &mut self.scratch.held[parent].node.entries;
                held[slot].mbr = bound(&pieces[0]);
                let siblings = pages.iter().zip(&pieces).skip(1);
                held.extend(siblings.map(|(&p, piece)| Entry::node(p, bound(piece))));
                None
            };
            while let Some(piece) = pieces.pop() {
                self.recycle(piece);
            }
            pages.clear();
            self.scratch.pieces = pieces;
            self.scratch.piece_pages = pages;
            let Some(root) = grown else {
                return Ok(());
            };
            // The tree grows by a level; the new root fits, or splits in
            // turn on the next pass.
            let root_page = self.pool.allocate();
            self.root = Some(root_page);
            self.height += 1;
            self.scratch.held.push(Held {
                page: root_page,
                node: root,
                parent: ROOT,
                slot: ROOT,
            });
        }
    }

    /// Sets the held parent's entry for a just-written child to the
    /// child's bound at `now` (active tightening).
    fn tighten(&mut self, parent: usize, slot: usize, child: &Node, now: Time) -> TprResult<()> {
        if parent != ROOT {
            let mbr = child
                .bounding_mbr_at(now)
                .ok_or_else(|| TprError::CorruptNode {
                    detail: "empty non-root child".into(),
                })?;
            self.scratch.held[parent].node.entries[slot].mbr = mbr;
        }
        Ok(())
    }

    /// Splits the one node in `pieces`, over capacity, into pieces that
    /// fit, the node keeping the first. A node at most twice over
    /// capacity splits in two ([`split_node`](Self::split_node), R*); one
    /// further over — a batch's overflow, a construction's every level —
    /// is tiled ([`tile`](Self::tile)).
    fn split_into_pieces(&mut self, pieces: &mut Vec<Node>, now: Time) {
        if pieces[0].entries.len() > 2 * self.config.capacity {
            self.tile(pieces, now);
        } else {
            let mut right = self.take_node(pieces[0].level);
            self.split_node(&mut pieces[0], &mut right, now);
            pieces.push(right);
        }
    }

    /// Sort-Tile-Recursive packing (Leutenegger, Lopez & Edgington, ICDE
    /// 1997) of the one node in `pieces`, more than twice over capacity:
    /// its `n` entries are cut into `P = ⌈n / (¾·capacity)⌉` pieces of
    /// `⌊n/P⌋` or `⌈n/P⌉` entries — at most three quarters full, and at
    /// least the minimum fill since `n > 2·capacity` — laid out as `⌈√P⌉`
    /// slabs by x-center, each slab cut into its pieces by y-center. An
    /// entry's position is taken at the later of `now` and its reference
    /// time. The node keeps the first piece.
    fn tile(&mut self, pieces: &mut Vec<Node>, now: Time) {
        let cap = self.config.capacity;
        let n = pieces[0].entries.len();
        debug_assert!(n > 2 * cap);
        let count = n.div_ceil(cap * 3 / 4);
        let slabs = count.isqrt() + usize::from(count.isqrt().pow(2) < count);
        // Piece `j` is the entries `start(j)..start(j + 1)` of the tiled
        // order; slab `s` is its pieces `count·s/slabs ..`.
        let start = |j: usize| j * n / count;
        debug_assert!(
            (n / count >= self.config.min_entries()) && n.div_ceil(count) <= cap,
            "{n} entries in {count} pieces"
        );
        // By center on `axis` (twice the center: the order is the same).
        let by = |axis: usize| {
            let key = move |e: &Entry| {
                let t = now.max(e.mbr.t_ref);
                e.mbr.lo_at(axis, t) + e.mbr.hi_at(axis, t)
            };
            move |a: &Entry, b: &Entry| key(a).total_cmp(&key(b))
        };
        let entries = &mut pieces[0].entries;
        entries.sort_unstable_by(by(0));
        for s in 0..slabs {
            let slab = start(count * s / slabs)..start(count * (s + 1) / slabs);
            entries[slab].sort_unstable_by(by(1));
        }
        let level = pieces[0].level;
        for j in 1..count {
            let mut piece = self.take_node(level);
            piece
                .entries
                .extend_from_slice(&pieces[0].entries[start(j)..start(j + 1)]);
            pieces.push(piece);
        }
        pieces[0].entries.truncate(start(1));
    }

    /// Reinserts the groups above `base` on the reinsert stack, each
    /// entry into a node at its group's level; then recycles them. The
    /// groups of a one-entry operation go back one entry at a time, in
    /// order, as R* replays them. Those of a batch go back level by
    /// level, highest first, all entries of a level in one descent. A
    /// reinsertion that overflows pushes and replays its own groups above
    /// these before it returns.
    fn replay_reinserts(
        &mut self,
        base: usize,
        one_at_a_time: bool,
        now: Time,
        reinserted: &mut Reinserted,
    ) -> TprResult<()> {
        let end = self.scratch.reinsert.len();
        if one_at_a_time {
            for g in base..end {
                let Group { level, start, end } = self.scratch.reinsert[g];
                for i in start..end {
                    let entry = self.scratch.reinsert_entries[i];
                    self.scratch.routed.push(Routed {
                        child: 0,
                        seq: 0,
                        entry,
                    });
                    self.insert_routed(level, now, reinserted)?;
                }
            }
        } else {
            let top = (self.scratch.reinsert[base..end].iter())
                .map(|g| g.level)
                .max();
            for level in (0..=top.unwrap_or(0)).rev() {
                let Scratch {
                    reinsert,
                    reinsert_entries,
                    routed,
                    ..
                } = &mut *self.scratch;
                let entries = (reinsert[base..end].iter())
                    .filter(|g| g.level == level)
                    .flat_map(|g| &reinsert_entries[g.start..g.end]);
                routed.extend(entries.enumerate().map(|(seq, &entry)| Routed {
                    child: 0,
                    seq: seq as u32,
                    entry,
                }));
                if !routed.is_empty() {
                    self.insert_routed(level, now, reinserted)?;
                }
            }
        }
        debug_assert_eq!(self.scratch.reinsert.len(), end);
        let groups = self.scratch.reinsert.drain(base..);
        if let Some(first) = groups.map(|g| g.start).min() {
            self.scratch.reinsert_entries.truncate(first);
        }
        Ok(())
    }

    /// Moves the `reinsert_count` entries whose centers stray farthest
    /// from the node's center over the horizon (sampled at `now + H/2`)
    /// to the end of the reinsert entries, nearest of them first.
    fn evict_for_reinsert(&mut self, node: &mut Node, now: Time) {
        let t_mid = now + self.config.horizon / 2.0;
        let center_of = |m: &MovingRect| m.at(t_mid).center();
        let node_mbr = node.bounding_mbr().expect("overflowing node is non-empty");
        let c = center_of(&node_mbr);
        let Scratch {
            scored,
            reinsert_entries,
            ..
        } = &mut *self.scratch;
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
        let from = reinsert_entries.len();
        reinsert_entries.extend(victims.iter().map(|&(_, i)| node.entries.swap_remove(i)));
        // R* reinserts in *close-first* order: nearest evicted first.
        reinsert_entries[from..].sort_by(|a, b| {
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

    /// R*-style split on integral metrics: over every axis, both sort
    /// keys (lower, upper bound) and every admissible cut, the
    /// distribution of minimal overlap integral (ties: total area
    /// integral); no margin is computed. `node`, over capacity but at most twice, keeps the first
    /// group; `right`, empty, receives the second; both fit. A node one
    /// entry over capacity weighs every distribution with both groups at
    /// least the minimum fill, as R* does; a node further over weighs as
    /// many, around the middle.
    fn split_node(&mut self, node: &mut Node, right: &mut Node, now: Time) {
        let min = self.config.min_entries();
        let cap = self.config.capacity;
        let n = node.entries.len();
        debug_assert!(n > cap && n <= 2 * cap);
        // `split_at` is the first group's size. R* weighs the
        // `cap + 2 - 2·min` distributions of a node one entry over
        // capacity, both groups at least `min`; a node further over weighs
        // as many, around the middle while both groups can fit.
        let count = cap + 2 - 2 * min;
        let first = min.max(n - cap).max((n + 2 - count) / 2);
        let last = (first + count - 1).min(n - min).min(cap);
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
                // The first group's bound is the fold `union_mbr`
                // computes, grown one entry at a time. Axis and
                // distribution are chosen in one pass: the first strictly
                // better distribution wins.
                let mut g1 = union_mbr(&sorted[..first]);
                for split_at in first..=last {
                    if split_at > first {
                        g1 = g1.union_moving(&sorted[split_at - 1].mbr);
                    }
                    let g2 = union_mbr(&sorted[split_at..]);
                    let s0 = t0.max(g1.t_ref).max(g2.t_ref);
                    let s1 = t1.max(s0);
                    let overlap = g1.overlap_integral(&g2, s0, s1);
                    let area = g1.area_integral(s0, s1) + g2.area_integral(s0, s1);
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

    /// The delete descent and what follows it: finds and removes every
    /// victim, condensing each node it touched as the search leaves it,
    /// then reinserts the orphans of dissolved nodes and collapses
    /// trivial roots. A victim not found fails the batch with
    /// [`TprError::ObjectNotFound`] once the others are deleted.
    fn delete_victims(&mut self, victims: &mut [Victim], now: Time) -> TprResult<()> {
        let Some(root) = self.root else {
            return Err(TprError::ObjectNotFound(victims[0].oid));
        };
        let mut candidates = std::mem::take(&mut self.scratch.candidates);
        candidates.clear();
        candidates.extend(0..victims.len() as u32);
        let mut run = DeleteRun {
            victims,
            candidates,
            pending: 0,
        };
        run.pending = run.victims.len();
        let all = run.candidates.len();
        let searched = self.find_victims(root, ROOT, ROOT, &mut run, 0, all, now);
        self.scratch.candidates = run.candidates;
        searched?;
        // Reinsert orphans: a dissolved node lived at its group's level,
        // so its entries must land in a node at that level again.
        let one_victim = run.victims.len() == 1;
        self.replay_reinserts(0, one_victim, now, &mut [false; 1 << u8::BITS])?;
        self.shrink_root()?;
        match run.victims.iter().find(|v| !v.found) {
            Some(missing) => Err(TprError::ObjectNotFound(missing.oid)),
            None => Ok(()),
        }
    }

    /// DFS for the leaves holding the victims named by
    /// `run.candidates[lo..hi]`, below `page` — the root, or the child at
    /// `slot` of held node `parent`. Children are pruned by rectangle
    /// intersection at `now` (a parent bounds its child at every `t` not
    /// earlier than both reference times, and `now` is never earlier than
    /// any write), and the search stops once every victim is found. A leaf
    /// is searched on its page view and decoded only if it holds a victim.
    /// A node with a victim below is condensed as the search leaves it
    /// ([`condense_last`](Self::condense_last)); the others are released
    /// unwritten.
    #[allow(clippy::too_many_arguments)]
    fn find_victims(
        &mut self,
        page: PageId,
        parent: usize,
        slot: usize,
        run: &mut DeleteRun<'_>,
        lo: usize,
        hi: usize,
        now: Time,
    ) -> TprResult<()> {
        let mut node = self.take_node(0);
        let mut hits = std::mem::take(&mut self.scratch.hits);
        hits.clear();
        let leaf = self.read_view(page, |view| {
            let leaf = view.is_leaf();
            if leaf {
                for i in 0..view.len() {
                    let raw = view.child_raw(i);
                    for &c in &run.candidates[lo..hi] {
                        let victim = &mut run.victims[c as usize];
                        if !victim.found && victim.oid.0 == raw {
                            victim.found = true;
                            hits.push(i);
                            break;
                        }
                    }
                }
            }
            if !leaf || !hits.is_empty() {
                view.decode_into(&mut node);
            }
            leaf
        });
        for &i in hits.iter().rev() {
            node.entries.remove(i);
        }
        let found = hits.len();
        self.scratch.hits = hits;
        let leaf = leaf?;
        if leaf && found == 0 {
            self.recycle(node);
            return Ok(());
        }
        run.pending -= found;
        self.len -= found;
        let me = self.scratch.held.len();
        self.scratch.held.push(Held {
            page,
            node,
            parent,
            slot,
        });
        if leaf {
            return self.condense_last(now);
        }
        let pending = run.pending;
        let mut i = 0;
        while run.pending > 0 && i < self.scratch.held[me].node.entries.len() {
            let entry = &self.scratch.held[me].node.entries[i];
            let (bound, child) = (entry.mbr.at(now), entry.child);
            let start = run.candidates.len();
            for k in lo..hi {
                let c = run.candidates[k];
                let victim = &run.victims[c as usize];
                if !victim.found && bound.intersects(&victim.target) {
                    run.candidates.push(c);
                }
            }
            let end = run.candidates.len();
            let entries = self.scratch.held[me].node.entries.len();
            if end > start {
                self.find_victims(child.page(), me, i, run, start, end, now)?;
            }
            run.candidates.truncate(start);
            // A child that dissolved took its entry with it: the next
            // sibling is at `i` now.
            if self.scratch.held[me].node.entries.len() == entries {
                i += 1;
            }
        }
        if run.pending == pending {
            // No victim below: the node is not touched.
            let held = self.scratch.held.pop().expect("pushed above");
            self.recycle(held.node);
            return Ok(());
        }
        self.condense_last(now)
    }

    /// Condenses the last held node of the delete descent, whose subtree
    /// has been searched. A non-root node under the minimum fill
    /// dissolves: its page is freed, its entry leaves the parent, and its
    /// entries become a group to reinsert at its level. Any other node is
    /// written and tightens its parent's entry.
    fn condense_last(&mut self, now: Time) -> TprResult<()> {
        let Held {
            page,
            node,
            parent,
            slot,
        } = self.scratch.held.pop().expect("a held node to condense");
        let dissolves = if parent == ROOT {
            // Every child of the root dissolved, which only a batch can
            // do: the tree is rebuilt from the orphans, highest level
            // first, so that each group finds a node at its level.
            !node.is_leaf() && node.entries.is_empty()
        } else {
            node.entries.len() < self.config.min_entries()
        };
        if !dissolves {
            self.write_node(page, &node)?;
            self.tighten(parent, slot, &node, now)?;
            self.recycle(node);
            return Ok(());
        }
        self.pool.free(page)?;
        if parent == ROOT {
            self.root = None;
            self.height = 0;
            (self.scratch.reinsert).sort_by_key(|group| Reverse(group.level));
        } else {
            self.scratch.held[parent].node.entries.remove(slot);
            let entries = &mut self.scratch.reinsert_entries;
            let start = entries.len();
            entries.extend_from_slice(&node.entries);
            let (level, end) = (node.level, entries.len());
            self.scratch.reinsert.push(Group { level, start, end });
        }
        self.recycle(node);
        Ok(())
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

    /// 10 000 objects, uniform over a 1 000 × 1 000 space, filed at `now`
    /// in one batch into an empty tree.
    fn constructed(now: Time) -> TprTree {
        let pool = BufferPool::new(
            Arc::new(InMemoryStore::new()),
            BufferPoolConfig::with_capacity(1024),
        );
        let mut tree = TprTree::new(pool, TreeConfig::default());
        let mut state = 0x0C0F_FEE5_u64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let objects: Vec<_> = (0..10_000u64)
            .map(|i| {
                let (x, y) = (unit() * 1000.0, unit() * 1000.0);
                let v = [unit() * 4.0 - 2.0, unit() * 4.0 - 2.0];
                let mbr = MovingRect::rigid(Rect::new([x, y], [x + 3.0, y + 3.0]), v, now);
                (ObjectId(i), mbr)
            })
            .collect();
        tree.apply_batch(NONE, objects, now).unwrap();
        tree
    }

    #[test]
    fn a_construction_tiles_its_leaves() {
        let now = 5.0;
        let tree = constructed(now);
        tree.validate(now).unwrap();
        let (mut leaves, mut margin) = (0u32, 0.0);
        let mut stack = vec![tree.root_page().unwrap()];
        while let Some(page) = stack.pop() {
            let node = tree.read_node(page).unwrap();
            if node.is_leaf() {
                leaves += 1;
                margin += node.bounding_mbr_at(now).unwrap().at(now).margin();
            } else {
                stack.extend(node.entries.iter().map(|e| e.child.page()));
            }
        }
        // `L` square tiles of the space have a summed margin of
        // 2 · 1000 · √L; `L` full-height slabs, 1000 · (L + 1).
        let square = 2.0 * 1000.0 * f64::from(leaves).sqrt();
        assert!(
            margin < 1.5 * square,
            "{leaves} leaves of summed margin {margin:.0}, square tiles {square:.0}"
        );
    }

    #[test]
    fn a_construction_leaves_the_thread_scratch_bounded() {
        let tree = constructed(0.0);
        assert_eq!(tree.len(), 10_000);
        let scratch = THREAD_SCRATCH
            .take()
            .expect("the batch lent its buffers to the thread");
        let Scratch {
            spare,
            held,
            reinsert,
            reinsert_entries,
            victims,
            candidates,
            hits,
            routed,
            areas,
            pieces,
            piece_pages,
            sorted,
            scored,
        } = &*scratch;
        assert!(
            spare.capacity() <= SPARE_KEEP,
            "{} spare nodes",
            spare.capacity()
        );
        let node_buffer = 2 * (tree.config.capacity + 1);
        assert!(spare.iter().all(|n| n.entries.capacity() <= node_buffer));
        let capacities = [
            held.capacity(),
            reinsert.capacity(),
            reinsert_entries.capacity(),
            victims.capacity(),
            candidates.capacity(),
            hits.capacity(),
            routed.capacity(),
            areas.capacity(),
            pieces.capacity(),
            piece_pages.capacity(),
            sorted.capacity(),
            scored.capacity(),
        ];
        assert!(
            capacities.iter().all(|&c| c <= SCRATCH_KEEP),
            "{capacities:?}"
        );
    }

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
