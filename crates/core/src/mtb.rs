//! The MTB-tree (§IV-C): multiple TPR-trees over time buckets.
//!
//! Theorem 2 lets a join run for object `O` stop at
//! `t(lu(otherset(O))) + T_M` — the later the other set last updated, the
//! shorter the window. A single tree's latest-update time is always
//! "just now", so the paper groups objects into *time buckets* by their
//! last update: one TPR-tree per bucket of length `T_M / m` (the paper
//! uses `m = 2`, following the Bˣ-tree). Every object in bucket
//! `[t_b, t_eb)` updated before `t_eb`, so joins against that bucket's
//! tree only need the window `[t_c, t_eb + T_M]`.
//!
//! At most `m + 1` buckets are ever live: any object older than `T_M`
//! must have re-registered into a newer bucket, emptying the old tree.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use cij_geom::{MovingRect, Time};
use cij_join::{probe_batch, JoinCounters, JoinScratch, ProbeHit};
use cij_storage::BufferPool;
use cij_tpr::{ObjectId, TprError, TprResult, TprTree, TreeConfig};

/// A group of TPR-trees keyed by time bucket.
///
/// ```
/// use std::iter;
/// use std::sync::Arc;
/// use cij_core::MtbTree;
/// use cij_geom::{MovingRect, Rect};
/// use cij_join::{JoinCounters, JoinScratch};
/// use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
/// use cij_tpr::{ObjectId, TreeConfig};
///
/// let pool = BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default());
/// let t_m = 60.0;
/// let mut mtb = MtbTree::new(pool, TreeConfig::default(), t_m);
///
/// // One object registered at t = 0, another at t = 35: different
/// // buckets (bucket length is T_M / 2 = 30).
/// let still = |x: f64, t| MovingRect::stationary(Rect::new([x, 0.0], [x + 1.0, 1.0]), t);
/// let file = |id, mbr, t| iter::once((ObjectId(id), mbr, t));
/// mtb.apply_batch(iter::empty(), file(1, still(100.0, 0.0), 0.0), 0.0)?;
/// mtb.apply_batch(iter::empty(), file(2, still(200.0, 35.0), 35.0), 35.0)?;
/// assert_eq!(mtb.bucket_count(), 2);
///
/// // A maintenance probe at t = 40 uses per-bucket windows
/// // [40, t_eb + T_M]: tighter for the older bucket (Theorem 2).
/// let probes = [still(100.2, 40.0)];
/// let mut found = Vec::new();
/// mtb.probe_batch(
///     &probes,
///     40.0,
///     |t_eb| t_eb + t_m,
///     &mut JoinScratch::new(),
///     &mut JoinCounters::new(),
///     &mut found,
/// )?;
/// assert_eq!(found.len(), 1);
/// let (probe, partner, interval) = found[0];
/// assert_eq!((probe, partner), (0, ObjectId(1)));
/// assert!(interval.end <= 90.0, "old bucket's window ends at 30 + 60");
/// # Ok::<(), cij_tpr::TprError>(())
/// ```
pub struct MtbTree {
    pool: BufferPool,
    config: TreeConfig,
    bucket_len: Time,
    /// Live buckets: bucket index → tree. A bucket covers
    /// `[idx · bucket_len, (idx + 1) · bucket_len)`.
    buckets: BTreeMap<i64, TprTree>,
    len: usize,
    /// The buckets the running batch touches, kept between batches so a
    /// warm one allocates nothing.
    touched: Vec<i64>,
}

impl MtbTree {
    /// Creates an empty MTB-tree. `t_m` is the maximum update interval;
    /// the bucket length is `t_m / m` with the paper's `m = 2`.
    #[must_use]
    pub fn new(pool: BufferPool, config: TreeConfig, t_m: Time) -> Self {
        Self::with_buckets_per_tm(pool, config, t_m, 2)
    }

    /// Creates an MTB-tree with `m` buckets per `T_M` (the paper's
    /// trade-off knob: larger `m` → tighter windows, more trees).
    ///
    /// # Panics
    /// Panics when `m == 0` or `t_m <= 0`.
    #[must_use]
    pub fn with_buckets_per_tm(pool: BufferPool, config: TreeConfig, t_m: Time, m: u32) -> Self {
        assert!(m > 0, "at least one bucket per T_M");
        assert!(t_m > 0.0, "T_M must be positive");
        Self {
            pool,
            config,
            bucket_len: t_m / f64::from(m),
            buckets: BTreeMap::new(),
            len: 0,
            touched: Vec::new(),
        }
    }

    /// Bucket index for an update at time `t`.
    #[must_use]
    pub fn bucket_of(&self, t: Time) -> i64 {
        (t / self.bucket_len).floor() as i64
    }

    /// End of bucket `idx` — the `t_eb` of the per-bucket window bound.
    #[must_use]
    pub fn bucket_end(&self, idx: i64) -> Time {
        (idx as f64 + 1.0) * self.bucket_len
    }

    /// Number of indexed objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no objects are indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of live (non-empty) buckets.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The live buckets as `(bucket_end, tree)` pairs, oldest first.
    pub fn buckets(&self) -> impl Iterator<Item = (Time, &TprTree)> {
        self.buckets
            .iter()
            .map(|(idx, tree)| (self.bucket_end(*idx), tree))
    }

    /// One tick's share of this MTB-tree at `now`: removes every
    /// `(oid, trajectory, last update time)` of `removes` from the bucket
    /// of its last update, and files every `(oid, trajectory, update
    /// time)` of `inserts` in the bucket of its update time. Each bucket
    /// tree gets its share in one [`TprTree::apply_batch`], oldest bucket
    /// first (one pass over the changes per bucket), and a bucket left
    /// empty is dropped. A removal from a bucket that does not exist
    /// fails with [`TprError::ObjectNotFound`], as do the tree's own
    /// misses.
    pub fn apply_batch(
        &mut self,
        removes: impl Iterator<Item = (ObjectId, MovingRect, Time)> + Clone,
        inserts: impl Iterator<Item = (ObjectId, MovingRect, Time)> + Clone,
        now: Time,
    ) -> TprResult<()> {
        let bucket_len = self.bucket_len;
        let bucket_of = move |t: Time| (t / bucket_len).floor() as i64;
        self.touched.clear();
        for (.., at) in removes.clone().chain(inserts.clone()) {
            let idx = bucket_of(at);
            if !self.touched.contains(&idx) {
                self.touched.push(idx);
            }
        }
        self.touched.sort_unstable();
        for &idx in &self.touched {
            let in_bucket = move |(oid, mbr, at): (ObjectId, MovingRect, Time)| {
                (bucket_of(at) == idx).then_some((oid, mbr))
            };
            let removes = removes.clone().filter_map(in_bucket);
            let inserts = inserts.clone().filter_map(in_bucket);
            let tree = match self.buckets.entry(idx) {
                Entry::Occupied(tree) => tree.into_mut(),
                Entry::Vacant(slot) => match removes.clone().next() {
                    Some((oid, _)) => return Err(TprError::ObjectNotFound(oid)),
                    None => slot.insert(TprTree::new(self.pool.clone(), self.config)),
                },
            };
            let before = tree.len();
            tree.apply_batch(removes, inserts, now)?;
            self.len = self.len + tree.len() - before;
            if tree.is_empty() {
                self.buckets.remove(&idx);
            }
        }
        Ok(())
    }

    /// The MTB maintenance join (§IV-C) for a whole tick: every probe's
    /// intersection pairs against every bucket tree, one synchronized
    /// descent per bucket ([`cij_join::probe_batch`]), each bucket with its
    /// own window `[now, window_for(t_eb)]`. Theorem 2's bound depends on
    /// the *bucket*, not on the probing object, which is why all probes
    /// of a tick share it.
    ///
    /// `window_for(t_eb)` maps a bucket end to the window end (callers
    /// pass `t_eb + T_M`; kept as a closure so tests can probe variants).
    /// Hits are appended to `out`, indexed into `probes`.
    pub fn probe_batch(
        &self,
        probes: &[MovingRect],
        now: Time,
        window_for: impl Fn(Time) -> Time,
        scratch: &mut JoinScratch,
        counters: &mut JoinCounters,
        out: &mut Vec<ProbeHit>,
    ) -> TprResult<()> {
        for (idx, tree) in &self.buckets {
            let t_end = window_for(self.bucket_end(*idx));
            if t_end <= now {
                continue;
            }
            probe_batch(tree, probes, now, t_end, scratch, counters, out)?;
        }
        Ok(())
    }

    /// Validates every bucket tree and the aggregate count.
    pub fn validate(&self, now: Time) -> TprResult<()> {
        let mut total = 0;
        for tree in self.buckets.values() {
            let stats = tree.validate(now)?;
            total += stats.objects;
        }
        if total != self.len {
            return Err(TprError::CorruptNode {
                detail: format!("MTB len {} != bucket sum {total}", self.len),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cij_geom::Rect;
    use cij_storage::{BufferPoolConfig, InMemoryStore};
    use std::iter;
    use std::sync::Arc;

    fn pool() -> BufferPool {
        BufferPool::new(
            Arc::new(InMemoryStore::new()),
            BufferPoolConfig::with_capacity(256),
        )
    }

    fn mbr(x: f64, t: Time) -> MovingRect {
        MovingRect::rigid(Rect::new([x, 0.0], [x + 1.0, 1.0]), [1.0, 0.0], t)
    }

    /// `oid` on `mbr`, last updated at `at`, as a batch of one.
    fn one(oid: ObjectId, mbr: MovingRect, at: Time) -> iter::Once<(ObjectId, MovingRect, Time)> {
        iter::once((oid, mbr, at))
    }

    /// Files `oid` in the bucket of `at`, at `at`.
    fn file(m: &mut MtbTree, oid: ObjectId, mbr: MovingRect, at: Time) {
        m.apply_batch(iter::empty(), one(oid, mbr, at), at).unwrap();
    }

    /// One probe through [`MtbTree::probe_batch`] with the engine's
    /// `t_eb + T_M` windows.
    fn probe_one(m: &MtbTree, probe: MovingRect, now: Time, t_m: Time) -> Vec<ProbeHit> {
        let mut hits = Vec::new();
        m.probe_batch(
            &[probe],
            now,
            |t_eb| t_eb + t_m,
            &mut JoinScratch::new(),
            &mut JoinCounters::new(),
            &mut hits,
        )
        .unwrap();
        hits
    }

    #[test]
    fn bucket_arithmetic() {
        let m = MtbTree::new(pool(), TreeConfig::default(), 60.0);
        assert_eq!(m.bucket_of(0.0), 0);
        assert_eq!(m.bucket_of(29.9), 0);
        assert_eq!(m.bucket_of(30.0), 1);
        assert_eq!(m.bucket_of(61.0), 2);
        assert_eq!(m.bucket_end(0), 30.0);
        assert_eq!(m.bucket_end(2), 90.0);
    }

    #[test]
    fn insert_remove_across_buckets() {
        let mut m = MtbTree::new(pool(), TreeConfig::default(), 60.0);
        file(&mut m, ObjectId(1), mbr(0.0, 0.0), 0.0);
        file(&mut m, ObjectId(2), mbr(10.0, 35.0), 35.0);
        assert_eq!(m.bucket_count(), 2);
        assert_eq!(m.len(), 2);
        m.validate(35.0).unwrap();

        // Object 1 updates at t=40: moves bucket 0 → bucket 1.
        let old = one(ObjectId(1), mbr(0.0, 0.0), 0.0);
        let new = one(ObjectId(1), mbr(5.0, 40.0), 40.0);
        m.apply_batch(old, new, 40.0).unwrap();
        assert_eq!(m.bucket_count(), 1, "bucket 0 emptied and dropped");
        assert_eq!(m.len(), 2);
        m.validate(40.0).unwrap();
    }

    #[test]
    fn remove_unknown_bucket_errors() {
        let mut m = MtbTree::new(pool(), TreeConfig::default(), 60.0);
        assert!(matches!(
            m.apply_batch(one(ObjectId(1), mbr(0.0, 0.0), 0.0), iter::empty(), 0.0),
            Err(TprError::ObjectNotFound(_))
        ));
    }

    #[test]
    fn at_most_m_plus_one_buckets_under_heartbeat_discipline() {
        let mut m = MtbTree::new(pool(), TreeConfig::default(), 60.0);
        // 50 objects, all heartbeating every T_M.
        let mut state: Vec<(ObjectId, MovingRect, Time)> = (0..50)
            .map(|i| (ObjectId(i), mbr(i as f64 * 5.0, 0.0), 0.0))
            .collect();
        for &(oid, m0, t0) in &state {
            file(&mut m, oid, m0, t0);
        }
        for tick in 1..=240u32 {
            let now = f64::from(tick);
            for (oid, old, t0) in state.iter_mut() {
                if now - *t0 >= 60.0 {
                    let new = mbr((oid.0 as f64 * 7.0) % 900.0, now);
                    let removal = one(*oid, *old, *t0);
                    m.apply_batch(removal, one(*oid, new, now), now).unwrap();
                    *old = new;
                    *t0 = now;
                }
            }
            assert!(
                m.bucket_count() <= 3,
                "{} buckets live at t={now}",
                m.bucket_count()
            );
        }
        m.validate(240.0).unwrap();
    }

    #[test]
    fn probe_batch_unions_buckets_with_tight_windows() {
        let mut m = MtbTree::new(pool(), TreeConfig::default(), 60.0);
        // Two static-ish objects in different buckets, both near x=100.
        let o1 = MovingRect::rigid(Rect::new([100.0, 0.0], [101.0, 1.0]), [0.0, 0.0], 0.0);
        let o2 = MovingRect::rigid(Rect::new([100.0, 0.0], [101.0, 1.0]), [0.0, 0.0], 35.0);
        file(&mut m, ObjectId(1), o1, 0.0);
        file(&mut m, ObjectId(2), o2, 35.0);

        // Probe overlapping both.
        let probe = MovingRect::rigid(Rect::new([100.5, 0.0], [101.5, 1.0]), [0.0, 0.0], 40.0);
        let got = probe_one(&m, probe, 40.0, 60.0);
        let ids: Vec<_> = got.iter().map(|&(_, o, _)| o).collect();
        assert!(ids.contains(&ObjectId(1)));
        assert!(ids.contains(&ObjectId(2)));
        // Windows differ by bucket: o1 lives in bucket [0,30) → window end
        // 90; o2 in [30,60) → 120.
        for (_, oid, iv) in got {
            let bound = if oid == ObjectId(1) { 90.0 } else { 120.0 };
            assert!(iv.end <= bound + 1e-9, "{oid}: {iv:?} beyond {bound}");
        }
    }

    #[test]
    fn stale_bucket_windows_are_skipped() {
        let mut m = MtbTree::new(pool(), TreeConfig::default(), 60.0);
        file(&mut m, ObjectId(1), mbr(0.0, 0.0), 0.0);
        // now = 95 > bucket_end(0) + T_M = 90: nothing can be valid.
        let got = probe_one(&m, mbr(0.0, 95.0), 95.0, 60.0);
        assert!(
            got.is_empty(),
            "window entirely in the past must be skipped"
        );
    }
}
