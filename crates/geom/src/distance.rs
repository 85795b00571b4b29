//! Distance between moving rectangles over time intervals.
//!
//! The squared distance between two moving rectangles is, per dimension,
//! the square of a *gap* function `max(0, loA−hiB, loB−hiA)(t)` — the
//! maximum of two linear functions and zero, hence piecewise linear,
//! non-negative and convex. Summing squared convex non-negative
//! functions keeps convexity, so `dist²(t)` is a **convex piecewise
//! quadratic**: split a window at the gap breakpoints and every piece
//! is one quadratic, so `dist²(t) ≤ ε²` is solved in closed form per
//! piece — the refine step of the ε-threshold similarity join.

use crate::{MovingRect, Time, TimeInterval, DIMS};

/// A linear function `b + v·t`.
#[derive(Debug, Clone, Copy)]
struct Linear {
    b: f64,
    v: f64,
}

impl Linear {
    #[inline]
    fn at(self, t: f64) -> f64 {
        self.b + self.v * t
    }
}

/// The two candidate gap lines of one dimension (`loA−hiB`, `loB−hiA`);
/// the realized gap is `max(0, l1, l2)`.
fn gap_lines(a: &MovingRect, b: &MovingRect, d: usize) -> (Linear, Linear) {
    let lo_a = Linear {
        b: a.lo[d] - a.vlo[d] * a.t_ref,
        v: a.vlo[d],
    };
    let hi_a = Linear {
        b: a.hi[d] - a.vhi[d] * a.t_ref,
        v: a.vhi[d],
    };
    let lo_b = Linear {
        b: b.lo[d] - b.vlo[d] * b.t_ref,
        v: b.vlo[d],
    };
    let hi_b = Linear {
        b: b.hi[d] - b.vhi[d] * b.t_ref,
        v: b.vhi[d],
    };
    (
        Linear {
            b: lo_a.b - hi_b.b,
            v: lo_a.v - hi_b.v,
        },
        Linear {
            b: lo_b.b - hi_a.b,
            v: lo_b.v - hi_a.v,
        },
    )
}

#[inline]
fn gap_at(l1: Linear, l2: Linear, t: f64) -> f64 {
    l1.at(t).max(l2.at(t)).max(0.0)
}

/// Collects the time points in `(t0, t1)` where any gap's active piece
/// may change: pairwise crossings of `{l1, l2, 0}` per dimension.
fn breakpoints(a: &MovingRect, b: &MovingRect, t0: Time, t1: Time, out: &mut Vec<f64>) {
    for d in 0..DIMS {
        let (l1, l2) = gap_lines(a, b, d);
        let mut push_root = |num: f64, den: f64| {
            if den != 0.0 {
                let t = num / den;
                if t > t0 && t < t1 && t.is_finite() {
                    out.push(t);
                }
            }
        };
        push_root(l2.b - l1.b, l1.v - l2.v); // l1 = l2
        push_root(-l1.b, l1.v); // l1 = 0
        push_root(-l2.b, l2.v); // l2 = 0
    }
}

impl MovingRect {
    /// Squared distance between the two rectangles at instant `t`
    /// (0 when intersecting).
    #[must_use]
    pub fn dist_sq_at(&self, other: &Self, t: Time) -> f64 {
        (0..DIMS)
            .map(|d| {
                let (l1, l2) = gap_lines(self, other, d);
                let g = gap_at(l1, l2, t);
                g * g
            })
            .sum()
    }

    /// The quadratic `[a, b, c]` (`dist²(t) = a·t² + b·t + c`) valid on
    /// the smooth piece of the squared-distance function containing
    /// `t_probe`.
    ///
    /// The piece boundaries are the gap breakpoints; a caller that has
    /// already split time at those probes at a segment midpoint to get
    /// the exact quadratic for the whole segment.
    fn dist_sq_quad_piece(&self, other: &Self, t_probe: Time) -> [f64; 3] {
        let mut qa = 0.0;
        let mut qb = 0.0;
        let mut qc = 0.0;
        for d in 0..DIMS {
            let (l1, l2) = gap_lines(self, other, d);
            let (g1, g2) = (l1.at(t_probe), l2.at(t_probe));
            let active = if g1 <= 0.0 && g2 <= 0.0 {
                None
            } else if g1 >= g2 {
                Some(l1)
            } else {
                Some(l2)
            };
            if let Some(l) = active {
                // (b + v·t)² = v²·t² + 2bv·t + b²
                qa += l.v * l.v;
                qb += 2.0 * l.b * l.v;
                qc += l.b * l.b;
            }
        }
        [qa, qb, qc]
    }

    /// The sub-interval of `[t0, t1]` during which `dist²(t) ≤ eps_sq`,
    /// or `None` when the rectangles never come that close.
    ///
    /// `dist²(t)` is convex piecewise quadratic (see the module docs),
    /// so its `≤ eps_sq` sub-level set intersected with the window is a
    /// *single* closed interval: we split the window at the gap
    /// breakpoints, solve each quadratic piece's inequality in closed
    /// form, and return the earliest entry / latest exit. A tangency
    /// (minimum distance exactly `√eps_sq`) yields the degenerate
    /// single-instant interval — closed semantics, matching
    /// [`intersect_interval`](Self::intersect_interval) which this
    /// generalizes (`eps_sq = 0` solves the same predicate through the
    /// distance machinery).
    ///
    /// This is the refine primitive of the ε-threshold similarity join
    /// (`cij-simjoin`); both the engine and its brute-force oracle call
    /// it with identical arguments, so their answers agree bit for bit.
    /// Both window ends must be finite.
    #[must_use]
    pub fn within_dist_sq_interval(
        &self,
        other: &Self,
        eps_sq: f64,
        t0: Time,
        t1: Time,
    ) -> Option<TimeInterval> {
        debug_assert!(t1 >= t0);
        debug_assert!(eps_sq >= 0.0);
        debug_assert!(t0.is_finite() && t1.is_finite(), "window must be finite");
        let mut cuts = Vec::with_capacity(3 * DIMS + 2);
        cuts.push(t0);
        breakpoints(self, other, t0, t1, &mut cuts);
        cuts.push(t1);
        cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite cuts"));

        let mut entry: Option<f64> = None;
        let mut exit = t0;
        for w in cuts.windows(2) {
            let (s, e) = (w[0], w[1]);
            // Identify the quadratic of this smooth piece at its
            // midpoint (valid across the whole piece; for a degenerate
            // piece s == e the midpoint is the point itself).
            let [qa, qb, qc] = self.dist_sq_quad_piece(other, (s + e) / 2.0);
            // Solve qa·t² + qb·t + qc ≤ eps_sq on [s, e].
            let (lo, hi) = if qa == 0.0 {
                // All active gap lines are constant on this piece, so the
                // linear term vanishes with the quadratic one.
                debug_assert!(qb == 0.0, "linear term without quadratic term");
                if qc <= eps_sq {
                    (s, e)
                } else {
                    continue;
                }
            } else {
                let disc = qb * qb - 4.0 * qa * (qc - eps_sq);
                if disc < 0.0 {
                    continue;
                }
                let root = disc.sqrt();
                let r_lo = (-qb - root) / (2.0 * qa);
                let r_hi = (-qb + root) / (2.0 * qa);
                (r_lo.max(s), r_hi.min(e))
            };
            if lo <= hi {
                if entry.is_none() {
                    entry = Some(lo);
                }
                exit = exit.max(hi);
            }
        }
        TimeInterval::new(entry?, exit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rect;

    fn rect(x: f64, y: f64, side: f64, vx: f64, vy: f64) -> MovingRect {
        MovingRect::rigid(Rect::new([x, y], [x + side, y + side]), [vx, vy], 0.0)
    }

    #[test]
    fn dist_at_matches_static_geometry() {
        let a = rect(0.0, 0.0, 1.0, 0.0, 0.0);
        let b = rect(4.0, 0.0, 1.0, 0.0, 0.0);
        assert_eq!(a.dist_sq_at(&b, 0.0), 9.0); // gap 3 in x
        let c = rect(4.0, 5.0, 1.0, 0.0, 0.0);
        assert_eq!(a.dist_sq_at(&c, 0.0), 9.0 + 16.0);
        // Intersecting rects: zero.
        let d = rect(0.5, 0.5, 1.0, 0.0, 0.0);
        assert_eq!(a.dist_sq_at(&d, 0.0), 0.0);
    }

    #[test]
    fn within_interval_flyby() {
        // b passes a at constant y-offset 3 (see min_over_interval_flyby):
        // dist ≤ 4 exactly while the x-gap g(t) satisfies g² + 9 ≤ 16.
        let a = rect(0.0, 0.0, 1.0, 0.0, 0.0);
        let b = rect(10.0, 4.0, 1.0, -1.0, 0.0);
        let iv = a.within_dist_sq_interval(&b, 16.0, 0.0, 30.0).unwrap();
        // x-gap before overlap is 9 − t (b.lo − a.hi): ≤ √7 at
        // t = 9 − √7; after overlap it is t − 11: exits at 11 + √7.
        assert!((iv.start - (9.0 - 7.0f64.sqrt())).abs() < 1e-9, "{iv:?}");
        assert!((iv.end - (11.0 + 7.0f64.sqrt())).abs() < 1e-9, "{iv:?}");
        // Below the minimum distance (3): never within.
        assert!(a.within_dist_sq_interval(&b, 8.9, 0.0, 30.0).is_none());
    }

    #[test]
    fn within_at_exact_tangency_is_a_single_instant() {
        // Minimum distance is exactly 3 (flyby geometry): eps = 3 yields
        // a non-empty interval even though the quadratic only touches.
        let a = rect(0.0, 0.0, 1.0, 0.0, 0.0);
        let b = rect(10.0, 4.0, 1.0, -1.0, 0.0);
        let iv = a.within_dist_sq_interval(&b, 9.0, 0.0, 30.0).unwrap();
        assert!(iv.start <= iv.end);
        // Tangency happens while the rects overlap in x: t ∈ [9, 11].
        assert!((9.0..=11.0).contains(&iv.start), "{iv:?}");
        assert!((a.dist_sq_at(&b, iv.start) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn within_zero_eps_matches_intersection() {
        let a = rect(0.0, 0.0, 1.0, 1.0, 0.0);
        let b = rect(11.0, 0.0, 1.0, -1.0, 0.0);
        let via_dist = a.within_dist_sq_interval(&b, 0.0, 0.0, 30.0).unwrap();
        let via_intersect = a.intersect_interval(&b, 0.0, 30.0).unwrap();
        assert!((via_dist.start - via_intersect.start).abs() < 1e-9);
        assert!((via_dist.end - via_intersect.end).abs() < 1e-9);
    }

    #[test]
    fn within_clamps_to_window() {
        let a = rect(0.0, 0.0, 1.0, 0.0, 0.0);
        let b = rect(10.0, 0.0, 1.0, -1.0, 0.0);
        // Contact at t = 9; with eps = 2 the pair is within from t = 7.
        let iv = a.within_dist_sq_interval(&b, 4.0, 0.0, 8.0).unwrap();
        assert!((iv.start - 7.0).abs() < 1e-9, "{iv:?}");
        assert_eq!(iv.end, 8.0);
        // A window entirely inside the within-range is returned whole.
        let iv = a.within_dist_sq_interval(&b, 4.0, 7.5, 8.0).unwrap();
        assert_eq!((iv.start, iv.end), (7.5, 8.0));
        // A window ending before the approach sees nothing.
        assert!(a.within_dist_sq_interval(&b, 4.0, 0.0, 5.0).is_none());
    }

    #[test]
    fn within_agrees_with_dense_sampling() {
        // Sample dist² on a fine grid and check interval membership
        // matches the closed form (away from the boundary).
        let a = rect(2.0, 1.0, 2.0, 0.5, -0.25);
        let b = rect(14.0, -6.0, 1.5, -0.75, 0.5);
        for eps_sq in [0.5, 4.0, 25.0, 100.0] {
            let iv = a.within_dist_sq_interval(&b, eps_sq, 0.0, 40.0);
            for k in 0..=4000 {
                let t = k as f64 * 0.01;
                let d2 = a.dist_sq_at(&b, t);
                let inside = iv.is_some_and(|iv| iv.contains(t));
                if d2 < eps_sq - 1e-6 {
                    assert!(inside, "t={t} d²={d2} eps²={eps_sq} iv={iv:?}");
                }
                if d2 > eps_sq + 1e-6 {
                    assert!(!inside, "t={t} d²={d2} eps²={eps_sq} iv={iv:?}");
                }
            }
        }
    }

    #[test]
    fn within_interval_respects_inflation_equivalence() {
        // L∞ soundness of Minkowski inflation: whenever dist ≤ eps, the
        // eps-inflated partner intersects the original — the candidate
        // superset property the similarity join's candidate phase uses.
        let a = rect(0.0, 0.0, 1.0, 0.4, -0.2);
        let b = rect(9.0, 7.0, 1.0, -0.6, -0.5);
        let eps = 2.5;
        if let Some(iv) = a.within_dist_sq_interval(&b, eps * eps, 0.0, 30.0) {
            let inflated = b.inflate(eps);
            let cand = a
                .intersect_interval(&inflated, 0.0, 30.0)
                .expect("within ⇒ inflated intersection");
            assert!(cand.start <= iv.start + 1e-9 && iv.end <= cand.end + 1e-9);
        }
    }
}
