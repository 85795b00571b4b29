//! Moving rectangles: an MBR captured at a reference time plus a velocity
//! bounding rectangle (VBR). Every bound is a linear function of time.
//!
//! This is the object model of the paper (§II-A): a moving object `O` is
//! `⟨O.Rx−, O.Rx+, O.Ry−, O.Ry+⟩` at reference time `t_ref` together with
//! `⟨O.Vx−, O.Vx+, O.Vy−, O.Vy+⟩`. Data objects move rigidly
//! (`vlo == vhi` per dimension); TPR-tree node rectangles have
//! `vlo <= vhi`, so they expand over time and conservatively bound their
//! children at every future instant.

use crate::interval::{TimeInterval, INFINITE_TIME};
use crate::{Rect, Time, DIMS};

/// Whether `x` — a coordinate, a speed or a time from outside the program
/// — is a number and no larger than 2⁵³ in magnitude, where an `f64` stops
/// resolving unit steps. The indexes multiply several of these (extent ×
/// speed × time); bounding the operands keeps the products finite.
#[must_use]
pub fn in_range(x: f64) -> bool {
    x.abs() <= 9_007_199_254_740_992.0
}

/// A time-parameterized rectangle: `lo(t) = lo + vlo·(t − t_ref)`,
/// `hi(t) = hi + vhi·(t − t_ref)` per dimension.
///
/// Invariants (checked in debug builds):
/// * `lo[d] <= hi[d]` at `t_ref`;
/// * bounds remain ordered for all `t >= t_ref` whenever `vlo[d] <=
///   vhi[d]` — which holds for rigid objects and for bounding unions.
///
/// The rectangle is only meaningful for `t >= t_ref` (TPR semantics: a
/// node's bounds are conservative from the time they were written
/// onward). All queries in this codebase satisfy that by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MovingRect {
    /// Lower bounds at `t_ref`.
    pub lo: [f64; DIMS],
    /// Upper bounds at `t_ref`.
    pub hi: [f64; DIMS],
    /// Velocities of the lower bounds.
    pub vlo: [f64; DIMS],
    /// Velocities of the upper bounds.
    pub vhi: [f64; DIMS],
    /// Reference time at which `lo`/`hi` were captured.
    pub t_ref: Time,
}

impl MovingRect {
    /// Creates a moving rectangle from explicit bounds.
    ///
    /// # Panics
    /// Panics in debug builds when the rectangle is inverted at `t_ref`.
    #[inline]
    pub fn new(
        lo: [f64; DIMS],
        hi: [f64; DIMS],
        vlo: [f64; DIMS],
        vhi: [f64; DIMS],
        t_ref: Time,
    ) -> Self {
        debug_assert!(
            (0..DIMS).all(|d| lo[d] <= hi[d]),
            "inverted moving rect at t_ref: lo={lo:?} hi={hi:?}"
        );
        Self {
            lo,
            hi,
            vlo,
            vhi,
            t_ref,
        }
    }

    /// A rigid moving rectangle: the whole MBR translates with one
    /// velocity `v` (the common case for data objects).
    #[inline]
    pub fn rigid(rect: Rect, v: [f64; DIMS], t_ref: Time) -> Self {
        Self::new(rect.lo, rect.hi, v, v, t_ref)
    }

    /// A stationary rectangle (zero velocities).
    #[inline]
    pub fn stationary(rect: Rect, t_ref: Time) -> Self {
        Self::rigid(rect, [0.0; DIMS], t_ref)
    }

    /// Whether this is a trajectory an index can hold from `now` on: every
    /// component [in range](in_range), bounds ordered and staying ordered
    /// (`lo ≤ hi`, `vlo ≤ vhi` per dimension) and `t_ref ≤ now`. The
    /// constructors only debug-assert part of this; a trajectory that
    /// arrives as bytes (a socket, a journal) is held against it before it
    /// reaches a tree.
    #[must_use]
    pub fn is_sound_from(&self, now: Time) -> bool {
        let ordered = (0..DIMS).all(|d| self.lo[d] <= self.hi[d] && self.vlo[d] <= self.vhi[d]);
        let bounds = self
            .lo
            .iter()
            .chain(&self.hi)
            .chain(&self.vlo)
            .chain(&self.vhi);
        let in_range = bounds.chain([&self.t_ref, &now]).all(|&x| in_range(x));
        ordered && in_range && self.t_ref <= now
    }

    /// The rectangle frozen at timestamp `t`.
    #[inline]
    pub fn at(&self, t: Time) -> Rect {
        let dt = t - self.t_ref;
        let mut lo = [0.0; DIMS];
        let mut hi = [0.0; DIMS];
        for d in 0..DIMS {
            lo[d] = self.lo[d] + self.vlo[d] * dt;
            hi[d] = self.hi[d] + self.vhi[d] * dt;
        }
        Rect { lo, hi }
    }

    /// Lower bound of dimension `d` at time `t`.
    #[inline]
    pub fn lo_at(&self, d: usize, t: Time) -> f64 {
        self.lo[d] + self.vlo[d] * (t - self.t_ref)
    }

    /// Upper bound of dimension `d` at time `t`.
    #[inline]
    pub fn hi_at(&self, d: usize, t: Time) -> f64 {
        self.hi[d] + self.vhi[d] * (t - self.t_ref)
    }

    /// Re-expresses the same trajectory with reference time `t`.
    ///
    /// Lossless for rigid rectangles; for expanding rectangles it simply
    /// freezes the current (already conservative) bounds at the new
    /// reference, so it stays conservative for `t' >= t` but does not
    /// tighten anything.
    #[inline]
    pub fn rebase(&self, t: Time) -> Self {
        let r = self.at(t);
        Self {
            lo: r.lo,
            hi: r.hi,
            vlo: self.vlo,
            vhi: self.vhi,
            t_ref: t,
        }
    }

    /// Whether `self` bounds `other` at every instant `t >= from`.
    ///
    /// For linear bounds this reduces to containment at `from` plus the
    /// velocity dominance test — the invariant a TPR-tree node must
    /// maintain over its children.
    pub fn contains_moving_from(&self, other: &Self, from: Time) -> bool {
        let a = self.at(from);
        let b = other.at(from);
        if !a.contains_rect(&b) {
            return false;
        }
        (0..DIMS).all(|d| self.vlo[d] <= other.vlo[d] && other.vhi[d] <= self.vhi[d])
    }

    /// The tightest moving rectangle that bounds both `self` and `other`
    /// for all `t >= max(self.t_ref, other.t_ref)`.
    ///
    /// Both inputs are rebased to the later reference time; spatial bounds
    /// take min/max there and velocity bounds take min/max directly.
    pub fn union_moving(&self, other: &Self) -> Self {
        let t = self.t_ref.max(other.t_ref);
        let a = self.at(t);
        let b = other.at(t);
        let mut lo = [0.0; DIMS];
        let mut hi = [0.0; DIMS];
        let mut vlo = [0.0; DIMS];
        let mut vhi = [0.0; DIMS];
        for d in 0..DIMS {
            lo[d] = a.lo[d].min(b.lo[d]);
            hi[d] = a.hi[d].max(b.hi[d]);
            vlo[d] = self.vlo[d].min(other.vlo[d]);
            vhi[d] = self.vhi[d].max(other.vhi[d]);
        }
        Self {
            lo,
            hi,
            vlo,
            vhi,
            t_ref: t,
        }
    }

    /// The same trajectory with its bounds anchored at time 0 — the half
    /// of [`Self::intersect_interval`] that depends on one operand only.
    #[inline]
    #[must_use]
    pub fn anchored(&self) -> AnchoredRect {
        let mut lo = [0.0; DIMS];
        let mut hi = [0.0; DIMS];
        for d in 0..DIMS {
            lo[d] = self.lo[d] - self.vlo[d] * self.t_ref;
            hi[d] = self.hi[d] - self.vhi[d] * self.t_ref;
        }
        AnchoredRect {
            lo,
            hi,
            vlo: self.vlo,
            vhi: self.vhi,
        }
    }

    /// The paper's `intersect(e_A, e_B, t_s, t_e)` primitive: the
    /// sub-interval of `[t_s, t_e]` during which the two moving
    /// rectangles intersect, or `None`.
    ///
    /// [`AnchoredRect::intersect_interval`] of the two anchored operands;
    /// callers that meet one operand many times anchor it once. `t_e` may
    /// be [`INFINITE_TIME`] (that is exactly what `NaiveJoin` passes) and
    /// may equal `t_s`.
    #[inline]
    pub fn intersect_interval(&self, other: &Self, t_s: Time, t_e: Time) -> Option<TimeInterval> {
        self.anchored()
            .intersect_interval(&other.anchored(), t_s, t_e)
    }

    /// Whether the two rectangles intersect at instant `t`.
    #[inline]
    pub fn intersects_at(&self, other: &Self, t: Time) -> bool {
        self.at(t).intersects(&other.at(t))
    }

    /// The *influence time* of the pair (TP-join, §III): the earliest
    /// `t > t_c` at which the intersection status of the pair changes,
    /// or [`INFINITE_TIME`] when the status never changes after `t_c`.
    ///
    /// Since the pair's intersection set over `[t_c, ∞)` is one interval
    /// `I`, the next change is `I.start` when the pair is currently
    /// separated, and `I.end` when currently intersecting (∞ when they
    /// never separate).
    pub fn influence_time(&self, other: &Self, t_c: Time) -> Time {
        match self.intersect_interval(other, t_c, INFINITE_TIME) {
            None => INFINITE_TIME,
            Some(i) => {
                if i.start > t_c {
                    i.start
                } else if i.end == INFINITE_TIME {
                    INFINITE_TIME
                } else {
                    i.end
                }
            }
        }
    }

    /// Extent in dimension `d` at time `t`.
    #[inline]
    pub fn extent_at(&self, d: usize, t: Time) -> f64 {
        (self.hi[d] - self.lo[d]) + (self.vhi[d] - self.vlo[d]) * (t - self.t_ref)
    }

    /// Area at time `t`.
    #[inline]
    pub fn area_at(&self, t: Time) -> f64 {
        self.extent_at(0, t) * self.extent_at(1, t)
    }

    /// `∫_{t0}^{t1} area(t) dt`, exact closed form.
    ///
    /// This is the TPR-tree's core quality metric: insertion heuristics
    /// minimize the integral of (enlarged) area over the horizon instead
    /// of instantaneous area. Valid whenever the extents stay
    /// non-negative over `[t0, t1]`, which holds for `t0 >= t_ref` and
    /// `vhi >= vlo` (bounding rectangles always satisfy both).
    pub fn area_integral(&self, t0: Time, t1: Time) -> f64 {
        debug_assert!(t1 >= t0);
        // extent_d(t) = e_d + de_d·(t − t_ref); substitute u = t − t_ref.
        let e0 = self.hi[0] - self.lo[0];
        let e1 = self.hi[1] - self.lo[1];
        let de0 = self.vhi[0] - self.vlo[0];
        let de1 = self.vhi[1] - self.vlo[1];
        let u0 = t0 - self.t_ref;
        let u1 = t1 - self.t_ref;
        // ∫ (e0 + de0·u)(e1 + de1·u) du
        //   = e0·e1·u + (e0·de1 + e1·de0)·u²/2 + de0·de1·u³/3
        let poly = |u: f64| {
            e0 * e1 * u + (e0 * de1 + e1 * de0) * u * u / 2.0 + de0 * de1 * u * u * u / 3.0
        };
        poly(u1) - poly(u0)
    }

    /// `∫_{t0}^{t1} overlap_area(self(t), other(t)) dt`, exact.
    ///
    /// The overlap extent in each dimension is
    /// `max(0, min(hiA, hiB)(t) − max(loA, loB)(t))` — piecewise linear
    /// with breakpoints where the competing lines cross or the extent hits
    /// zero. We split `[t0, t1]` at all such breakpoints and integrate the
    /// (quadratic) product exactly on each smooth segment.
    pub fn overlap_integral(&self, other: &Self, t0: Time, t1: Time) -> f64 {
        debug_assert!(t1 >= t0);
        if t1 == t0 {
            return 0.0;
        }
        // Collect breakpoints: per dimension, crossings of (hiA, hiB),
        // (loA, loB), and zeros of the clamped extent (crossings of the
        // chosen min-hi with the chosen max-lo change only at the other
        // crossings, so including all pairwise line crossings of the four
        // bounds is sufficient and cheap).
        let mut cuts = [0.0f64; 2 + DIMS * 6];
        let mut n_cuts = 0;
        let push = |t: f64, cuts: &mut [f64], n: &mut usize| {
            if t > t0 && t < t1 && t.is_finite() {
                cuts[*n] = t;
                *n += 1;
            }
        };
        for d in 0..DIMS {
            // Line form: value(t) = b + v·t with b normalized to t=0.
            let a_lo = (self.lo[d] - self.vlo[d] * self.t_ref, self.vlo[d]);
            let a_hi = (self.hi[d] - self.vhi[d] * self.t_ref, self.vhi[d]);
            let b_lo = (other.lo[d] - other.vlo[d] * other.t_ref, other.vlo[d]);
            let b_hi = (other.hi[d] - other.vhi[d] * other.t_ref, other.vhi[d]);
            let crossings = [
                (a_hi, b_hi),
                (a_lo, b_lo),
                (a_hi, b_lo),
                (a_lo, b_hi),
                (a_hi, a_lo), // degenerate, never crosses for valid rects
                (b_hi, b_lo),
            ];
            for ((b1, v1), (b2, v2)) in crossings {
                if v1 != v2 {
                    push((b2 - b1) / (v1 - v2), &mut cuts, &mut n_cuts);
                }
            }
        }
        let cuts = &mut cuts[..n_cuts];
        cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite cuts"));

        // Integrate segment by segment; within a segment each dimension's
        // clamped overlap extent is a single linear function, so sampling
        // the extent lines at the segment midpoint identifies the active
        // pieces and the product integrates exactly via Simpson's rule
        // (exact for quadratics).
        let mut total = 0.0;
        let mut seg_start = t0;
        let mut i = 0;
        loop {
            let seg_end = if i < cuts.len() { cuts[i] } else { t1 };
            if seg_end > seg_start {
                let f = |t: Time| -> f64 {
                    let ra = self.at(t);
                    let rb = other.at(t);
                    let mut prod = 1.0;
                    for d in 0..DIMS {
                        let ext = (ra.hi[d].min(rb.hi[d]) - ra.lo[d].max(rb.lo[d])).max(0.0);
                        prod *= ext;
                    }
                    prod
                };
                let m = (seg_start + seg_end) / 2.0;
                let h = seg_end - seg_start;
                total += h / 6.0 * (f(seg_start) + 4.0 * f(m) + f(seg_end));
            }
            if i >= cuts.len() {
                break;
            }
            seg_start = seg_end.max(seg_start);
            i += 1;
        }
        total
    }

    /// Integral over `[t0, t1]` of the *enlargement* of `self`'s area if
    /// it had to absorb `other` — the TPR-tree choose-subtree penalty.
    pub fn enlargement_integral(&self, other: &Self, t0: Time, t1: Time) -> f64 {
        let u = self.union_moving(other);
        u.area_integral(t0, t1) - self.area_integral(t0, t1)
    }

    /// The Minkowski-inflated rectangle: every spatial bound pushed
    /// outward by `eps`, velocities unchanged (a rigid inflation, so the
    /// result is a valid TPR registration with the same `t_ref`).
    ///
    /// Inflation turns a distance predicate into an intersection one:
    /// `self` intersects `other.inflate(eps)` at `t` **iff** every
    /// per-dimension gap between `self` and `other` is ≤ `eps` at `t`
    /// (L∞ distance ≤ `eps`). Since the Euclidean rectangle distance
    /// dominates every per-dimension gap, `dist(self, other) ≤ eps`
    /// implies the inflated intersection — the candidate-superset
    /// property the ε-threshold similarity join (`cij-simjoin`) builds
    /// its filter phase on.
    #[must_use]
    pub fn inflate(&self, eps: f64) -> Self {
        debug_assert!(eps >= 0.0, "negative inflation {eps}");
        let mut lo = self.lo;
        let mut hi = self.hi;
        for d in 0..DIMS {
            lo[d] -= eps;
            hi[d] += eps;
        }
        Self {
            lo,
            hi,
            vlo: self.vlo,
            vhi: self.vhi,
            t_ref: self.t_ref,
        }
    }

    /// Sum over dimensions of `|vlo| + |vhi|` — the speed mass used by the
    /// paper's *dimension selection* heuristic (§IV-D2) to pick the
    /// sorting dimension with the least movement.
    #[inline]
    pub fn speed_sum(&self, d: usize) -> f64 {
        self.vlo[d].abs() + self.vhi[d].abs()
    }
}

/// A moving rectangle with every bound anchored at time 0:
/// `lo(t) = lo + vlo·t`, `hi(t) = hi + vhi·t` per dimension, where `lo`
/// is [`MovingRect`]'s `lo − vlo·t_ref` (and `hi` likewise).
///
/// The reference time is folded into the bounds once
/// ([`MovingRect::anchored`]), so two anchored rectangles meet in a
/// handful of subtractions and four divisions — the form the batched
/// probe keeps for each probe for a whole descent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnchoredRect {
    /// Lower bounds at time 0.
    pub lo: [f64; DIMS],
    /// Upper bounds at time 0.
    pub hi: [f64; DIMS],
    /// Velocities of the lower bounds.
    pub vlo: [f64; DIMS],
    /// Velocities of the upper bounds.
    pub vhi: [f64; DIMS],
}

impl AnchoredRect {
    /// The sub-interval of `[t_s, t_e]` during which the two rectangles
    /// intersect, or `None` — the kernel of
    /// [`MovingRect::intersect_interval`].
    ///
    /// Because every bound is linear, each of the four "lower bound of one
    /// stays at or below upper bound of the other" constraints
    /// `c0 + c1·t ≤ 0` solves to a half-line `t ≤ −c0/c1` (`c1 > 0`) or
    /// `t ≥ −c0/c1` (`c1 < 0`), or holds everywhere or nowhere
    /// (`c1 = 0`). The window is narrowed by every constraint's bound in
    /// turn — per dimension `self.lo ≤ other.hi`, then `other.lo ≤
    /// self.hi` — with one `max` on the start and one `min` on the end
    /// each; an empty constraint or a NaN root clears a flag. Nothing
    /// branches on the data until the single emptiness test at the end:
    /// the start only grows and the end only shrinks, so a window that
    /// empties on the way stays empty. `t_e` may be [`INFINITE_TIME`].
    #[inline]
    #[must_use]
    pub fn intersect_interval(&self, other: &Self, t_s: Time, t_e: Time) -> Option<TimeInterval> {
        let mut c0 = [0.0; 2 * DIMS];
        let mut c1 = [0.0; 2 * DIMS];
        for d in 0..DIMS {
            c0[2 * d] = self.lo[d] - other.hi[d];
            c1[2 * d] = self.vlo[d] - other.vhi[d];
            c0[2 * d + 1] = other.lo[d] - self.hi[d];
            c1[2 * d + 1] = other.vlo[d] - self.vhi[d];
        }
        let mut root = [0.0; 2 * DIMS];
        for k in 0..2 * DIMS {
            root[k] = -c0[k] / c1[k];
        }
        let mut ok = t_s <= t_e;
        let (mut start, mut end) = (t_s, t_e);
        for k in 0..2 * DIMS {
            // c1 > 0: t ≤ root; c1 < 0: t ≥ root; c1 = 0: everywhere
            // (c0 ≤ 0) or nowhere. A NaN empties the constraint.
            let (c0, c1, root) = (c0[k], c1[k], root[k]);
            ok &= if c1 == 0.0 { c0 <= 0.0 } else { !root.is_nan() };
            let lower = if c1 < 0.0 { root } else { f64::NEG_INFINITY };
            let upper = if c1 > 0.0 { root } else { INFINITE_TIME };
            start = start.max(lower);
            end = end.min(upper);
        }
        (ok & (start <= end)).then_some(TimeInterval { start, end })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rigid(x: f64, y: f64, side: f64, vx: f64, vy: f64, t_ref: Time) -> MovingRect {
        MovingRect::rigid(Rect::new([x, y], [x + side, y + side]), [vx, vy], t_ref)
    }

    #[test]
    fn at_evaluates_linear_motion() {
        let m = rigid(0.0, 0.0, 2.0, 1.0, -0.5, 10.0);
        let r = m.at(14.0);
        assert_eq!(r, Rect::new([4.0, -2.0], [6.0, 0.0]));
    }

    #[test]
    fn rebase_is_lossless_for_rigid() {
        let m = rigid(3.0, 4.0, 1.0, -2.0, 0.5, 0.0);
        let rb = m.rebase(7.0);
        for t in [7.0, 8.5, 100.0] {
            assert_eq!(m.at(t), rb.at(t));
        }
        assert_eq!(rb.t_ref, 7.0);
    }

    #[test]
    fn head_on_collision_interval() {
        // Two unit squares 10 apart closing at combined speed 2 in x.
        let a = rigid(0.0, 0.0, 1.0, 1.0, 0.0, 0.0);
        let b = rigid(11.0, 0.0, 1.0, -1.0, 0.0, 0.0);
        // Gap is 10 at t=0; contact when a.hi(t) = b.lo(t):
        //   1 + t = 11 − t  ⇒  t = 5; separation when a.lo = b.hi:
        //   t = ... a.lo(t)=t, b.hi(t)=12−t ⇒ t=6.
        let i = a.intersect_interval(&b, 0.0, INFINITE_TIME).unwrap();
        assert!((i.start - 5.0).abs() < 1e-12);
        assert!((i.end - 6.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_movers_never_meet() {
        let a = rigid(0.0, 0.0, 1.0, 3.0, 3.0, 0.0);
        let b = rigid(5.0, 5.0, 1.0, 3.0, 3.0, 0.0);
        assert!(a.intersect_interval(&b, 0.0, INFINITE_TIME).is_none());
    }

    #[test]
    fn already_intersecting_pair() {
        let a = rigid(0.0, 0.0, 4.0, 0.0, 0.0, 0.0);
        let b = rigid(1.0, 1.0, 1.0, 1.0, 0.0, 0.0);
        let i = a.intersect_interval(&b, 0.0, INFINITE_TIME).unwrap();
        assert_eq!(i.start, 0.0);
        // b escapes to the right: b.lo_x(t) = 1 + t > 4 at t = 3.
        assert!((i.end - 3.0).abs() < 1e-12);
    }

    #[test]
    fn window_clamps_interval() {
        let a = rigid(0.0, 0.0, 1.0, 1.0, 0.0, 0.0);
        let b = rigid(11.0, 0.0, 1.0, -1.0, 0.0, 0.0);
        // Contact interval is [5, 6]; a [0, 5.5] window clips it.
        let i = a.intersect_interval(&b, 0.0, 5.5).unwrap();
        assert_eq!(i.end, 5.5);
        // A window that ends before contact yields nothing.
        assert!(a.intersect_interval(&b, 0.0, 4.9).is_none());
        // A window strictly inside the contact interval is returned as-is.
        let i = a.intersect_interval(&b, 5.2, 5.4).unwrap();
        assert_eq!(i, TimeInterval::new_unchecked(5.2, 5.4));
    }

    #[test]
    fn different_reference_times_agree() {
        let a = rigid(0.0, 0.0, 1.0, 1.0, 0.0, 0.0);
        let b = rigid(11.0, 0.0, 1.0, -1.0, 0.0, 0.0).rebase(3.0);
        let i = a.intersect_interval(&b, 0.0, INFINITE_TIME).unwrap();
        assert!((i.start - 5.0).abs() < 1e-12);
        assert!((i.end - 6.0).abs() < 1e-12);
    }

    #[test]
    fn influence_time_cases() {
        let a = rigid(0.0, 0.0, 1.0, 1.0, 0.0, 0.0);
        let b = rigid(11.0, 0.0, 1.0, -1.0, 0.0, 0.0);
        // Not yet intersecting: next change is first contact at t=5.
        assert!((a.influence_time(&b, 0.0) - 5.0).abs() < 1e-12);
        // Mid-contact: next change is separation at t=6.
        assert!((a.influence_time(&b, 5.5) - 6.0).abs() < 1e-12);
        // After separation: they never meet again.
        assert_eq!(a.influence_time(&b, 7.0), INFINITE_TIME);
        // Two static overlapping squares never change status.
        let c = rigid(0.0, 0.0, 2.0, 0.0, 0.0, 0.0);
        let d = rigid(1.0, 1.0, 2.0, 0.0, 0.0, 0.0);
        assert_eq!(c.influence_time(&d, 0.0), INFINITE_TIME);
    }

    #[test]
    fn union_bounds_members_over_time() {
        let a = rigid(0.0, 0.0, 1.0, 1.0, -1.0, 0.0);
        let b = rigid(5.0, 5.0, 2.0, -2.0, 3.0, 0.0);
        let u = a.union_moving(&b);
        for t in [0.0, 1.0, 2.5, 10.0, 100.0] {
            assert!(u.at(t).contains_rect(&a.at(t)), "t={t}");
            assert!(u.at(t).contains_rect(&b.at(t)), "t={t}");
        }
        assert!(u.contains_moving_from(&a, 0.0));
        assert!(u.contains_moving_from(&b, 0.0));
    }

    #[test]
    fn union_with_later_reference_time() {
        let a = rigid(0.0, 0.0, 1.0, 1.0, 0.0, 0.0);
        let b = rigid(5.0, 5.0, 1.0, 0.0, 1.0, 4.0);
        let u = a.union_moving(&b);
        assert_eq!(u.t_ref, 4.0);
        for t in [4.0, 6.0, 50.0] {
            assert!(u.at(t).contains_rect(&a.at(t)));
            assert!(u.at(t).contains_rect(&b.at(t)));
        }
    }

    #[test]
    fn contains_moving_needs_velocity_dominance() {
        // Spatial containment at t=0 but child out-runs the parent.
        let parent = MovingRect::new([0.0, 0.0], [10.0, 10.0], [0.0, 0.0], [0.0, 0.0], 0.0);
        let child = rigid(4.0, 4.0, 1.0, 2.0, 0.0, 0.0);
        assert!(!parent.contains_moving_from(&child, 0.0));
        let roomy = MovingRect::new([0.0, 0.0], [10.0, 10.0], [0.0, 0.0], [2.0, 0.0], 0.0);
        assert!(roomy.contains_moving_from(&child, 0.0));
    }

    #[test]
    fn area_integral_static_rect() {
        let m = rigid(0.0, 0.0, 2.0, 5.0, -3.0, 0.0); // rigid ⇒ area constant 4
        assert!((m.area_integral(0.0, 10.0) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn area_integral_expanding_rect() {
        // Extents (1 + t) × (1 + t): ∫₀¹ (1+t)² dt = 7/3.
        let m = MovingRect::new([0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], 0.0);
        assert!((m.area_integral(0.0, 1.0) - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_integral_matches_hand_computation() {
        // Unit squares, b slides right over a static a:
        // overlap_x(t) = 1 − t for t ∈ [0,1], overlap_y = 1.
        // ∫₀¹ (1−t) dt = 0.5.
        let a = rigid(0.0, 0.0, 1.0, 0.0, 0.0, 0.0);
        let b = rigid(0.0, 0.0, 1.0, 1.0, 0.0, 0.0);
        assert!((a.overlap_integral(&b, 0.0, 1.0) - 0.5).abs() < 1e-9);
        // After separation the integral stays 0.
        assert!((a.overlap_integral(&b, 1.0, 5.0)).abs() < 1e-9);
        // Whole window [0, 5] = just the initial 0.5.
        assert!((a.overlap_integral(&b, 0.0, 5.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn overlap_integral_disjoint_then_crossing() {
        // b approaches from the right, crosses a, and leaves:
        // contact over [5, 6] with triangular overlap profile in x
        // (peak 1 at t=5.5? No — unit squares crossing: overlap_x rises
        // 0→1 over [5,?]...). Use symmetry: total sweep equals
        // 2·∫₀^{0.5} 2u du? Simpler: validate against dense numeric
        // integration.
        let a = rigid(0.0, 0.0, 1.0, 1.0, 0.0, 0.0);
        let b = rigid(11.0, 0.0, 1.0, -1.0, 0.0, 0.0);
        let exact = a.overlap_integral(&b, 0.0, 10.0);
        let mut numeric = 0.0;
        let steps = 200_000;
        let h = 10.0 / steps as f64;
        for k in 0..steps {
            let t = (k as f64 + 0.5) * h;
            numeric += a.at(t).overlap_area(&b.at(t)) * h;
        }
        assert!(
            (exact - numeric).abs() < 1e-4,
            "exact={exact} numeric={numeric}"
        );
    }

    #[test]
    fn enlargement_integral_zero_for_contained_child() {
        let parent = MovingRect::new([0.0, 0.0], [10.0, 10.0], [-1.0, -1.0], [1.0, 1.0], 0.0);
        let child = rigid(4.0, 4.0, 1.0, 0.5, -0.5, 0.0);
        assert!(parent.contains_moving_from(&child, 0.0));
        let e = parent.enlargement_integral(&child, 0.0, 60.0);
        assert!(e.abs() < 1e-9, "enlargement {e}");
    }

    #[test]
    fn enlargement_integral_positive_for_outsider() {
        let parent = MovingRect::new([0.0, 0.0], [2.0, 2.0], [0.0, 0.0], [0.0, 0.0], 0.0);
        let outsider = rigid(5.0, 5.0, 1.0, 0.0, 0.0, 0.0);
        assert!(parent.enlargement_integral(&outsider, 0.0, 10.0) > 0.0);
    }

    #[test]
    fn inflate_pushes_bounds_and_keeps_motion() {
        let m = rigid(3.0, 4.0, 2.0, 1.0, -0.5, 7.0);
        let f = m.inflate(1.5);
        assert_eq!(f.lo, [1.5, 2.5]);
        assert_eq!(f.hi, [6.5, 7.5]);
        assert_eq!(f.vlo, m.vlo);
        assert_eq!(f.vhi, m.vhi);
        assert_eq!(f.t_ref, 7.0);
        // Zero inflation is the identity.
        assert_eq!(m.inflate(0.0), m);
    }

    #[test]
    fn inflated_intersection_is_linf_distance() {
        // Static geometry: gap 3 in x, 0 in y ⇒ L∞ distance 3. The pair
        // intersects the inflated partner exactly when eps ≥ 3.
        let a = rigid(0.0, 0.0, 1.0, 0.0, 0.0, 0.0);
        let b = rigid(4.0, 0.0, 1.0, 0.0, 0.0, 0.0);
        assert!(a.intersect_interval(&b.inflate(3.0), 0.0, 10.0).is_some());
        assert!(a.intersect_interval(&b.inflate(2.9), 0.0, 10.0).is_none());
    }

    #[test]
    fn speed_sum_per_dimension() {
        let m = MovingRect::new([0.0; 2], [1.0; 2], [-2.0, 0.5], [3.0, 1.0], 0.0);
        assert_eq!(m.speed_sum(0), 5.0);
        assert_eq!(m.speed_sum(1), 1.5);
    }
}
