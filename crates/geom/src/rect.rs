//! Static axis-aligned rectangles — a [`MovingRect`](crate::MovingRect)
//! frozen at one instant.

use crate::DIMS;

/// An axis-aligned rectangle `[lo, hi]` in 2-D space.
///
/// Degenerate rectangles (points, segments) are legal: `lo[d] == hi[d]`.
/// An "empty" rectangle is not representable; constructors enforce
/// `lo[d] <= hi[d]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower bound per dimension.
    pub lo: [f64; DIMS],
    /// Upper bound per dimension.
    pub hi: [f64; DIMS],
}

impl Rect {
    /// Creates a rectangle from bounds.
    ///
    /// # Panics
    /// Panics in debug builds when any `lo[d] > hi[d]`.
    #[inline]
    pub fn new(lo: [f64; DIMS], hi: [f64; DIMS]) -> Self {
        debug_assert!(
            (0..DIMS).all(|d| lo[d] <= hi[d]),
            "inverted rect: lo={lo:?} hi={hi:?}"
        );
        Self { lo, hi }
    }

    /// A square of side `side` centered at `center`.
    #[inline]
    pub fn square(center: [f64; DIMS], side: f64) -> Self {
        let h = side / 2.0;
        Self::new(
            [center[0] - h, center[1] - h],
            [center[0] + h, center[1] + h],
        )
    }

    /// A degenerate point rectangle.
    #[inline]
    pub fn point(p: [f64; DIMS]) -> Self {
        Self { lo: p, hi: p }
    }

    /// Side length in dimension `d`.
    #[inline]
    pub fn extent(&self, d: usize) -> f64 {
        self.hi[d] - self.lo[d]
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> [f64; DIMS] {
        [
            (self.lo[0] + self.hi[0]) / 2.0,
            (self.lo[1] + self.hi[1]) / 2.0,
        ]
    }

    /// Area (product of extents).
    #[inline]
    pub fn area(&self) -> f64 {
        self.extent(0) * self.extent(1)
    }

    /// Half-perimeter (sum of extents) — the R*-tree "margin" metric.
    #[inline]
    pub fn margin(&self) -> f64 {
        self.extent(0) + self.extent(1)
    }

    /// Whether the two rectangles share at least a boundary point.
    #[inline]
    pub fn intersects(&self, other: &Self) -> bool {
        (0..DIMS).all(|d| self.lo[d] <= other.hi[d] && other.lo[d] <= self.hi[d])
    }

    /// The intersection rectangle, or `None` when disjoint.
    #[inline]
    pub fn intersection(&self, other: &Self) -> Option<Self> {
        let mut lo = [0.0; DIMS];
        let mut hi = [0.0; DIMS];
        for d in 0..DIMS {
            lo[d] = self.lo[d].max(other.lo[d]);
            hi[d] = self.hi[d].min(other.hi[d]);
            if lo[d] > hi[d] {
                return None;
            }
        }
        Some(Self { lo, hi })
    }

    /// Overlap area with `other` (zero when disjoint).
    #[inline]
    pub fn overlap_area(&self, other: &Self) -> f64 {
        self.intersection(other).map_or(0.0, |r| r.area())
    }

    /// Smallest rectangle containing both.
    #[inline]
    pub fn union(&self, other: &Self) -> Self {
        let mut lo = [0.0; DIMS];
        let mut hi = [0.0; DIMS];
        for d in 0..DIMS {
            lo[d] = self.lo[d].min(other.lo[d]);
            hi[d] = self.hi[d].max(other.hi[d]);
        }
        Self { lo, hi }
    }

    /// Grows `self` to contain `other`.
    #[inline]
    pub fn union_assign(&mut self, other: &Self) {
        for d in 0..DIMS {
            self.lo[d] = self.lo[d].min(other.lo[d]);
            self.hi[d] = self.hi[d].max(other.hi[d]);
        }
    }

    /// Whether `other` lies entirely inside `self` (boundaries count).
    #[inline]
    pub fn contains_rect(&self, other: &Self) -> bool {
        (0..DIMS).all(|d| self.lo[d] <= other.lo[d] && other.hi[d] <= self.hi[d])
    }

    /// Like [`contains_rect`](Self::contains_rect) but tolerates a
    /// magnitude-scaled slack of `eps` per bound.
    ///
    /// Rebasing a moving rectangle to a new reference time accumulates a
    /// few ulps of rounding error (`v·t_ref + v·(t − t_ref) ≠ v·t` in
    /// floating point), so containment invariants between a bounding
    /// union and its members hold only up to that slack. Invariant checks
    /// and tree validators use this predicate.
    #[inline]
    pub fn contains_rect_eps(&self, other: &Self, eps: f64) -> bool {
        (0..DIMS).all(|d| {
            let slack = eps * (1.0 + self.lo[d].abs().max(self.hi[d].abs()));
            self.lo[d] - slack <= other.lo[d] && other.hi[d] <= self.hi[d] + slack
        })
    }

    /// Whether point `p` lies inside `self` (boundaries count).
    #[inline]
    pub fn contains_point(&self, p: [f64; DIMS]) -> bool {
        (0..DIMS).all(|d| self.lo[d] <= p[d] && p[d] <= self.hi[d])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new([x0, y0], [x1, y1])
    }

    #[test]
    fn basic_metrics() {
        let a = r(0.0, 0.0, 4.0, 2.0);
        assert_eq!(a.area(), 8.0);
        assert_eq!(a.margin(), 6.0);
        assert_eq!(a.center(), [2.0, 1.0]);
        assert_eq!(a.extent(0), 4.0);
        assert_eq!(a.extent(1), 2.0);
    }

    #[test]
    fn square_constructor() {
        let s = Rect::square([10.0, 20.0], 2.0);
        assert_eq!(s, r(9.0, 19.0, 11.0, 21.0));
    }

    #[test]
    fn point_is_degenerate() {
        let p = Rect::point([1.0, 2.0]);
        assert_eq!(p.area(), 0.0);
        assert!(p.contains_point([1.0, 2.0]));
        assert!(p.intersects(&p));
    }

    #[test]
    fn intersect_and_overlap() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        let c = r(5.0, 5.0, 6.0, 6.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection(&b).unwrap(), r(1.0, 1.0, 2.0, 2.0));
        assert_eq!(a.overlap_area(&b), 1.0);
        assert_eq!(a.overlap_area(&c), 0.0);
    }

    #[test]
    fn touching_edges_intersect() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
        assert_eq!(a.overlap_area(&b), 0.0);
    }

    #[test]
    fn union_contains_both() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(3.0, -1.0, 4.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u, r(0.0, -1.0, 4.0, 1.0));
        let mut m = a;
        m.union_assign(&b);
        assert_eq!(m, u);
    }

    #[test]
    fn containment() {
        let outer = r(0.0, 0.0, 10.0, 10.0);
        let inner = r(2.0, 2.0, 3.0, 3.0);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_rect(&outer));
        assert!(outer.contains_point([0.0, 10.0]));
        assert!(!outer.contains_point([-0.1, 5.0]));
    }
}
