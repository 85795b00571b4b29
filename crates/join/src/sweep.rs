//! Plane sweep over *moving* rectangles (paper §IV-D1, `PSIntersection`).
//!
//! Classic plane sweep orders static rectangles by their lower bound in
//! one dimension and scans each against the run of rectangles whose lower
//! bound does not exceed its upper bound. For moving rectangles over a
//! *constrained* window `[t⊢, t⊣]`, the paper's insight is that
//!
//! * `lb = min(O.Rx−(t⊢), O.Rx−(t⊣))` and
//! * `ub = max(O.Rx+(t⊢), O.Rx+(t⊣))`
//!
//! are valid sweep bounds: a bound linear in time attains its extremes at
//! the window's endpoints, so `O₁.ub < O₂.lb` proves the two never meet
//! in that dimension within the window. An unbounded window has no such
//! `ub` — which is precisely why plane sweep *requires* time-constrained
//! processing.

use cij_geom::{MovingRect, Rect, Time, TimeInterval};
use cij_tpr::EntryLanes;

use crate::counters::JoinCounters;

/// The static rectangle swept by a moving rectangle over `[t_s, t_e]`:
/// the sweep bounds `lb`/`ub` above, taken in both dimensions at once.
/// Two rectangles whose swept regions are disjoint never meet inside the
/// window — the reject box of [`probe_batch`](crate::probe_batch).
#[must_use]
pub fn swept_region(mbr: &MovingRect, t_s: Time, t_e: Time) -> Rect {
    let (r0, r1) = (mbr.at(t_s), mbr.at(t_e));
    Rect::new(
        [r0.lo[0].min(r1.lo[0]), r0.lo[1].min(r1.lo[1])],
        [r0.hi[0].max(r1.hi[0]), r0.hi[1].max(r1.hi[1])],
    )
}

/// Structure-of-arrays sweep state with retained capacity.
///
/// One side of a sweep: for each participant its sweep bounds in the
/// sort dimension over the window (`lb`/`ub`, see the module docs), its
/// rectangle, and the caller's index for identifying it in the output,
/// in parallel vectors that are `clear()`ed and refilled, so
/// steady-state sweeps allocate nothing. The rectangles stay contiguous
/// as structs — the refinement loop walks each candidate run as one
/// `&[MovingRect]` stream, which keeps every run element on adjacent
/// cache lines instead of scattering it across nine component arrays.
/// Sorting is done through a permutation array with reusable gather
/// buffers; it breaks `lb` ties by insertion position, like a stable
/// sort, which fixes the emission order of [`ps_intersection_soa`].
#[derive(Debug, Default)]
pub struct SweepSoa {
    pub(crate) lb: Vec<f64>,
    pub(crate) ub: Vec<f64>,
    pub(crate) mbrs: Vec<MovingRect>,
    pub(crate) idxs: Vec<u32>,
    perm: Vec<u32>,
    back_f64: Vec<f64>,
    back_mbrs: Vec<MovingRect>,
    back_idxs: Vec<u32>,
}

impl SweepSoa {
    /// An empty sweep buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffered items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lb.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lb.is_empty()
    }

    /// Drops all items, keeping every buffer's capacity.
    pub fn clear(&mut self) {
        self.lb.clear();
        self.ub.clear();
        self.mbrs.clear();
        self.idxs.clear();
    }

    /// Appends one item, computing its sweep bounds for the window
    /// `[t_s, t_e]` in dimension `dim`.
    pub fn push(&mut self, mbr: MovingRect, idx: u32, dim: usize, t_s: Time, t_e: Time) {
        self.lb.push(mbr.lo_at(dim, t_s).min(mbr.lo_at(dim, t_e)));
        self.ub.push(mbr.hi_at(dim, t_s).max(mbr.hi_at(dim, t_e)));
        self.mbrs.push(mbr);
        self.idxs.push(idx);
    }

    /// [`Self::push`] reading entry `i` of a zero-copy lane set directly —
    /// no intermediate [`MovingRect`]. Bounds use the same
    /// `lo + vlo·(t − t_ref)` expressions as [`MovingRect::lo_at`] /
    /// [`MovingRect::hi_at`], so the buffered values are bit-identical to
    /// the `push` path.
    pub fn push_from_lanes(
        &mut self,
        lanes: &EntryLanes,
        i: usize,
        idx: u32,
        dim: usize,
        t_s: Time,
        t_e: Time,
    ) {
        let (lo, vlo) = (lanes.lo[dim][i], lanes.vlo[dim][i]);
        let (hi, vhi) = (lanes.hi[dim][i], lanes.vhi[dim][i]);
        let tr = lanes.t_ref[i];
        self.lb
            .push((lo + vlo * (t_s - tr)).min(lo + vlo * (t_e - tr)));
        self.ub
            .push((hi + vhi * (t_s - tr)).max(hi + vhi * (t_e - tr)));
        self.mbrs.push(lanes.mbr(i));
        self.idxs.push(idx);
    }

    /// Bulk refill from a whole lane set (indices `0..lanes.len()` in
    /// order): the sweep bounds are one tight loop per side over the
    /// component lanes, the rectangles one assembly pass. Equivalent to
    /// `clear` + `push_from_lanes` for every entry.
    pub fn fill_all_from_lanes(&mut self, lanes: &EntryLanes, dim: usize, t_s: Time, t_e: Time) {
        self.clear();
        let n = lanes.len();
        let (lo, vlo) = (&lanes.lo[dim], &lanes.vlo[dim]);
        let (hi, vhi) = (&lanes.hi[dim], &lanes.vhi[dim]);
        let tr = &lanes.t_ref;
        self.lb.extend(
            (0..n).map(|i| (lo[i] + vlo[i] * (t_s - tr[i])).min(lo[i] + vlo[i] * (t_e - tr[i]))),
        );
        self.ub.extend(
            (0..n).map(|i| (hi[i] + vhi[i] * (t_s - tr[i])).max(hi[i] + vhi[i] * (t_e - tr[i]))),
        );
        self.mbrs.extend((0..n).map(|i| lanes.mbr(i)));
        self.idxs.extend(0..n as u32);
    }

    /// Sorts every array by `lb` (ties: insertion order, matching a
    /// stable sort) via a permutation + gather; no allocation once the
    /// buffers have grown to size. The `back_f64` scratch buffer serves
    /// both key lanes in turn — each gather swaps it with the lane it
    /// just permuted.
    fn sort_by_lb(&mut self) {
        let n = self.len();
        self.perm.clear();
        self.perm.extend(0..n as u32);
        let lb = &self.lb;
        self.perm.sort_unstable_by(|&a, &b| {
            lb[a as usize]
                .partial_cmp(&lb[b as usize])
                .expect("finite bounds")
                .then(a.cmp(&b))
        });
        gather_f64(&self.perm, &mut self.lb, &mut self.back_f64);
        gather_f64(&self.perm, &mut self.ub, &mut self.back_f64);
        self.back_mbrs.clear();
        self.back_mbrs
            .extend(self.perm.iter().map(|&p| self.mbrs[p as usize]));
        std::mem::swap(&mut self.mbrs, &mut self.back_mbrs);
        self.back_idxs.clear();
        self.back_idxs
            .extend(self.perm.iter().map(|&p| self.idxs[p as usize]));
        std::mem::swap(&mut self.idxs, &mut self.back_idxs);
    }
}

/// Permutes `lane` by `perm` through the reusable `back` buffer (which
/// takes over the lane's old allocation on the way out).
fn gather_f64(perm: &[u32], lane: &mut Vec<f64>, back: &mut Vec<f64>) {
    back.clear();
    back.extend(perm.iter().map(|&p| lane[p as usize]));
    std::mem::swap(lane, back);
}

/// The paper's `PSIntersection`: all pairs from `sa × sb` whose moving
/// rectangles intersect within `[t_s, t_e]`, found in plane-sweep order.
///
/// Sorts both sides in place by `lb`, then advances the sweep over the
/// merged order, refining each candidate run in one fused scan; `out` is
/// cleared and refilled with `(idx_a, idx_b, interval)` triples (caller
/// owned, capacity retained: zero allocation in steady state). `t_e`
/// must be finite (see module docs).
///
/// ```
/// use cij_geom::{MovingRect, Rect};
/// use cij_join::{ps_intersection_soa, JoinCounters, SweepSoa};
///
/// let side = |xs: [(f64, f64); 2]| {
///     let mut s = SweepSoa::new();
///     for (idx, (x, vx)) in xs.into_iter().enumerate() {
///         let m = MovingRect::rigid(Rect::new([x, 0.0], [x + 1.0, 1.0]), [vx, 0.0], 0.0);
///         s.push(m, idx as u32, 0, 0.0, 60.0);
///     }
///     s
/// };
/// let mut sa = side([(0.0, 1.0), (500.0, 0.0)]);
/// let mut sb = side([(10.0, 0.0), (900.0, 0.0)]);
/// let mut counters = JoinCounters::new();
/// let mut pairs = Vec::new();
/// ps_intersection_soa(&mut sa, &mut sb, 0.0, 60.0, &mut counters, &mut pairs);
/// // Only (a0, b0) meet within the window (contact at t = 9); the sweep
/// // never even compared the far-apart pairs.
/// assert_eq!(pairs.len(), 1);
/// assert_eq!((pairs[0].0, pairs[0].1), (0, 0));
/// assert!(counters.entry_comparisons < 4);
/// ```
pub fn ps_intersection_soa(
    sa: &mut SweepSoa,
    sb: &mut SweepSoa,
    t_s: Time,
    t_e: Time,
    counters: &mut JoinCounters,
    out: &mut Vec<(u32, u32, TimeInterval)>,
) {
    debug_assert!(t_e.is_finite(), "plane sweep requires a bounded window");
    out.clear();
    sa.sort_by_lb();
    sb.sort_by_lb();
    let (mut i, mut j) = (0usize, 0usize);
    while i < sa.lb.len() && j < sb.lb.len() {
        if sa.lb[i] <= sb.lb[j] {
            let (c_ub, c_idx) = (sa.ub[i], sa.idxs[i]);
            let c_mbr = &sa.mbrs[i];
            let mut k = j;
            while k < sb.lb.len() && sb.lb[k] <= c_ub {
                counters.entry_comparisons += 1;
                if let Some(iv) = c_mbr.intersect_interval(&sb.mbrs[k], t_s, t_e) {
                    out.push((c_idx, sb.idxs[k], iv));
                }
                k += 1;
            }
            i += 1;
        } else {
            let (c_ub, c_idx) = (sb.ub[j], sb.idxs[j]);
            let c_mbr = &sb.mbrs[j];
            let mut k = i;
            while k < sa.lb.len() && sa.lb[k] <= c_ub {
                counters.entry_comparisons += 1;
                if let Some(iv) = sa.mbrs[k].intersect_interval(c_mbr, t_s, t_e) {
                    out.push((sa.idxs[k], c_idx, iv));
                }
                k += 1;
            }
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Triple = (u32, u32, TimeInterval);

    fn rect(x: f64, vx: f64) -> MovingRect {
        MovingRect::rigid(Rect::new([x, 0.0], [x + 1.0, 1.0]), [vx, 0.0], 0.0)
    }

    /// A sweep side holding `mbrs` in order, indexed by position.
    fn side(mbrs: &[MovingRect], t0: f64, t1: f64) -> SweepSoa {
        let mut s = SweepSoa::new();
        for (i, m) in mbrs.iter().enumerate() {
            s.push(*m, i as u32, 0, t0, t1);
        }
        s
    }

    fn sweep(a: &[MovingRect], b: &[MovingRect], t0: f64, t1: f64) -> (Vec<Triple>, JoinCounters) {
        let mut counters = JoinCounters::new();
        let mut out = Vec::new();
        let (mut sa, mut sb) = (side(a, t0, t1), side(b, t0, t1));
        ps_intersection_soa(&mut sa, &mut sb, t0, t1, &mut counters, &mut out);
        (out, counters)
    }

    /// The array-of-structs sweep the SoA kernel replaced, kept as the
    /// reference for its emission order and comparison count: items
    /// `(lb, ub, mbr, idx)` sorted by `(lb, idx)` — what a stable sort
    /// by `lb` alone gives when `idx` ascends in push order.
    fn aos_reference(a: &[MovingRect], b: &[MovingRect], t0: f64, t1: f64) -> (Vec<Triple>, u64) {
        let items = |ms: &[MovingRect]| {
            let mut v: Vec<(f64, f64, MovingRect, u32)> = ms
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    let lb = m.lo_at(0, t0).min(m.lo_at(0, t1));
                    let ub = m.hi_at(0, t0).max(m.hi_at(0, t1));
                    (lb, ub, *m, i as u32)
                })
                .collect();
            v.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap().then(x.3.cmp(&y.3)));
            v
        };
        let (sa, sb) = (items(a), items(b));
        let (mut out, mut comparisons) = (Vec::new(), 0u64);
        let (mut i, mut j) = (0usize, 0usize);
        while i < sa.len() && j < sb.len() {
            if sa[i].0 <= sb[j].0 {
                let c = sa[i];
                let mut k = j;
                while k < sb.len() && sb[k].0 <= c.1 {
                    comparisons += 1;
                    if let Some(iv) = c.2.intersect_interval(&sb[k].2, t0, t1) {
                        out.push((c.3, sb[k].3, iv));
                    }
                    k += 1;
                }
                i += 1;
            } else {
                let c = sb[j];
                let mut k = i;
                while k < sa.len() && sa[k].0 <= c.1 {
                    comparisons += 1;
                    if let Some(iv) = c.2.intersect_interval(&sa[k].2, t0, t1) {
                        out.push((sa[k].3, c.3, iv));
                    }
                    k += 1;
                }
                j += 1;
            }
        }
        (out, comparisons)
    }

    #[test]
    fn sweep_bounds_cover_motion() {
        // Moving right at speed 2 over [0, 10]: lb = x(0).lo, ub = x(10).hi.
        let s = side(&[rect(5.0, 2.0), rect(5.0, -2.0)], 0.0, 10.0);
        assert_eq!((s.lb[0], s.ub[0]), (5.0, 5.0 + 1.0 + 20.0));
        // Moving left: lb comes from the window end.
        assert_eq!((s.lb[1], s.ub[1]), (5.0 - 20.0, 6.0));
    }

    #[test]
    fn swept_region_covers_motion() {
        let m = MovingRect::rigid(Rect::new([0.0, 0.0], [1.0, 1.0]), [2.0, -1.0], 0.0);
        let s = swept_region(&m, 0.0, 10.0);
        assert_eq!(s, Rect::new([0.0, -10.0], [21.0, 1.0]));
        for t in [0.0, 3.7, 10.0] {
            assert!(s.contains_rect(&m.at(t)));
        }
    }

    #[test]
    fn matches_nested_loop_on_random_input() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for round in 0..50 {
            let (t0, t1) = (0.0, 20.0);
            let n = 1 + round % 17;
            let make = |rng: &mut StdRng| {
                let x = rng.gen_range(-50.0..50.0);
                let y = rng.gen_range(-50.0..50.0);
                let s = rng.gen_range(0.1..5.0);
                MovingRect::rigid(
                    Rect::new([x, y], [x + s, y + s]),
                    [rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)],
                    0.0,
                )
            };
            let a: Vec<_> = (0..n).map(|_| make(&mut rng)).collect();
            let b: Vec<_> = (0..n + 3).map(|_| make(&mut rng)).collect();

            let mut expect = Vec::new();
            for (i, ma) in a.iter().enumerate() {
                for (j, mb) in b.iter().enumerate() {
                    if let Some(iv) = ma.intersect_interval(mb, t0, t1) {
                        expect.push((i as u32, j as u32, iv));
                    }
                }
            }
            let (mut got, _) = sweep(&a, &b, t0, t1);
            got.sort_by_key(|&(a, b, _)| (a, b));
            expect.sort_by_key(|&(a, b, _)| (a, b));
            assert_eq!(got.len(), expect.len(), "round {round}");
            for (g, e) in got.iter().zip(&expect) {
                assert_eq!((g.0, g.1), (e.0, e.1));
                assert!((g.2.start - e.2.start).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn sweep_prunes_comparisons_on_sparse_input() {
        // Widely separated static items: nested loop would do n·m = 100
        // comparisons, the sweep a handful.
        let a: Vec<_> = (0..10).map(|i| rect(i as f64 * 100.0, 0.0)).collect();
        let b: Vec<_> = (0..10)
            .map(|i| rect(i as f64 * 100.0 + 50.0, 0.0))
            .collect();
        let (got, counters) = sweep(&a, &b, 0.0, 1.0);
        assert!(got.is_empty());
        assert!(
            counters.entry_comparisons < 100,
            "sweep did {} comparisons",
            counters.entry_comparisons
        );
    }

    #[test]
    fn empty_inputs() {
        let a = [rect(0.0, 0.0)];
        assert!(sweep(&a, &[], 0.0, 1.0).0.is_empty());
        assert!(sweep(&[], &a, 0.0, 1.0).0.is_empty());
    }

    #[test]
    fn identical_bounds_do_not_miss() {
        // Items with equal lb must still be paired.
        let (got, _) = sweep(
            &[rect(1.0, 0.0), rect(1.0, 0.0)],
            &[rect(1.0, 0.0)],
            0.0,
            5.0,
        );
        assert_eq!(got.len(), 2);
    }

    /// SoA sweep emits exactly the AoS sweep's pairs in exactly its
    /// order, with the same comparison count — including duplicate `lb`
    /// values, where the stable AoS sort is mirrored by the SoA
    /// permutation's index tie-break.
    #[test]
    fn soa_matches_aos_output_and_order() {
        let (t0, t1) = (0.0, 30.0);
        // Deterministic pseudo-random layout with plenty of lb ties.
        let mut state = 0x9e37_79b9_u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut mk = |n: usize| -> Vec<MovingRect> {
            (0..n)
                .map(|_| {
                    let x = (rnd() % 40) as f64; // coarse grid => lb ties
                    let y = (rnd() % 40) as f64;
                    let vx = ((rnd() % 5) as f64 - 2.0) * 0.5;
                    MovingRect::rigid(Rect::new([x, y], [x + 3.0, y + 3.0]), [vx, 0.0], 0.0)
                })
                .collect()
        };
        for (na, nb) in [(25usize, 25usize), (1, 40), (40, 1), (0, 10)] {
            let ra = mk(na);
            let rb = mk(nb);
            let (want, want_comparisons) = aos_reference(&ra, &rb, t0, t1);
            let (got, counters) = sweep(&ra, &rb, t0, t1);
            assert_eq!(want, got, "pairs/order differ at ({na},{nb})");
            assert_eq!(want_comparisons, counters.entry_comparisons);
        }
    }

    #[test]
    fn soa_buffers_are_reused_without_allocation_growth() {
        let (t0, t1) = (0.0, 10.0);
        let mut soa_a = SweepSoa::new();
        let mut soa_b = SweepSoa::new();
        let mut out = Vec::new();
        let mut counters = JoinCounters::new();
        let m = MovingRect::rigid(Rect::new([0.0, 0.0], [2.0, 2.0]), [0.1, 0.0], 0.0);
        for _ in 0..3 {
            soa_a.clear();
            soa_b.clear();
            for i in 0..16u32 {
                soa_a.push(m, i, 0, t0, t1);
                soa_b.push(m, i, 0, t0, t1);
            }
            ps_intersection_soa(&mut soa_a, &mut soa_b, t0, t1, &mut counters, &mut out);
            assert_eq!(out.len(), 256);
        }
        assert_eq!(soa_a.len(), 16);
        assert!(!soa_a.is_empty());
    }
}
