//! Property tests for the geometry kernel: the analytic interval algebra
//! must agree with brute-force sampling of the rectangles' positions.

use cij_geom::{MovingRect, Rect, TimeInterval, INFINITE_TIME};
use proptest::prelude::*;

const EPS: f64 = 1e-7;

fn arb_rigid() -> impl Strategy<Value = MovingRect> {
    (
        -100.0f64..100.0,
        -100.0f64..100.0,
        0.01f64..20.0,
        0.01f64..20.0,
        -5.0f64..5.0,
        -5.0f64..5.0,
        0.0f64..10.0,
    )
        .prop_map(|(x, y, w, h, vx, vy, t_ref)| {
            MovingRect::rigid(Rect::new([x, y], [x + w, y + h]), [vx, vy], t_ref)
        })
}

fn arb_expanding() -> impl Strategy<Value = MovingRect> {
    (arb_rigid(), 0.0f64..3.0, 0.0f64..3.0).prop_map(|(m, gx, gy)| {
        MovingRect::new(
            m.lo,
            m.hi,
            [m.vlo[0] - gx, m.vlo[1] - gy],
            [m.vhi[0] + gx, m.vhi[1] + gy],
            m.t_ref,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The analytic intersection interval must agree with point sampling:
    /// inside the interval (away from the ends) rectangles intersect, and
    /// outside it (away from the ends) they do not.
    #[test]
    fn intersect_interval_matches_sampling(a in arb_rigid(), b in arb_rigid()) {
        let window = (10.0, 200.0);
        let result = a.intersect_interval(&b, window.0, window.1);
        match result {
            Some(TimeInterval { start, end }) => {
                prop_assert!(start >= window.0 - EPS && end <= window.1 + EPS);
                // Sample strictly inside.
                if end - start > 4.0 * EPS {
                    for frac in [0.25, 0.5, 0.75] {
                        let t = start + (end - start) * frac;
                        prop_assert!(a.intersects_at(&b, t), "inside t={t}");
                    }
                }
                // Sample outside (before start / after end) within window.
                if start - window.0 > 1e-3 {
                    prop_assert!(!a.intersects_at(&b, start - 1e-3));
                }
                if window.1 - end > 1e-3 {
                    prop_assert!(!a.intersects_at(&b, end + 1e-3));
                }
            }
            None => {
                // Sample the whole window: never intersecting.
                for k in 0..40 {
                    let t = window.0 + (window.1 - window.0) * (k as f64 + 0.5) / 40.0;
                    prop_assert!(!a.intersects_at(&b, t), "t={t} should not intersect");
                }
            }
        }
    }

    /// Unbounded windows behave like a very large bounded window.
    #[test]
    fn unbounded_matches_large_window(a in arb_rigid(), b in arb_rigid()) {
        let unb = a.intersect_interval(&b, 10.0, INFINITE_TIME);
        let big = a.intersect_interval(&b, 10.0, 1e12);
        match (unb, big) {
            (None, None) => {}
            (Some(u), Some(g)) => {
                prop_assert!((u.start - g.start).abs() < EPS);
                prop_assert!(u.end == g.end || (u.end == INFINITE_TIME && g.end == 1e12));
            }
            // An interval starting beyond 1e12 is astronomically unlikely
            // with bounded speeds but tolerate it.
            (Some(u), None) => prop_assert!(u.start > 1e12 - 1.0),
            (None, Some(_)) => prop_assert!(false, "bounded found, unbounded missed"),
        }
    }

    /// A moving union must bound its members at every sampled future time,
    /// including expanding (node-style) members.
    #[test]
    fn union_bounds_members(a in arb_expanding(), b in arb_expanding()) {
        let u = a.union_moving(&b);
        let t0 = u.t_ref;
        for k in 0..20 {
            let t = t0 + k as f64 * 7.3;
            // Rebasing costs a few ulps, hence the eps-tolerant check.
            prop_assert!(u.at(t).contains_rect_eps(&a.at(t), 1e-9), "a escapes at t={t}");
            prop_assert!(u.at(t).contains_rect_eps(&b.at(t), 1e-9), "b escapes at t={t}");
        }
    }

    /// Exact area integral agrees with numeric quadrature.
    #[test]
    fn area_integral_matches_numeric(m in arb_expanding(), span in 1.0f64..50.0) {
        let t0 = m.t_ref;
        let t1 = t0 + span;
        let exact = m.area_integral(t0, t1);
        let steps = 2000;
        let h = span / steps as f64;
        let mut numeric = 0.0;
        for k in 0..steps {
            numeric += m.area_at(t0 + (k as f64 + 0.5) * h) * h;
        }
        let tol = 1e-6 * (1.0 + exact.abs());
        prop_assert!((exact - numeric).abs() < tol.max(1e-3), "exact={exact} num={numeric}");
    }

    /// Exact overlap integral agrees with numeric quadrature.
    #[test]
    fn overlap_integral_matches_numeric(a in arb_rigid(), b in arb_rigid(), span in 1.0f64..40.0) {
        let t0 = a.t_ref.max(b.t_ref);
        let t1 = t0 + span;
        let exact = a.overlap_integral(&b, t0, t1);
        let steps = 4000;
        let h = span / steps as f64;
        let mut numeric = 0.0;
        for k in 0..steps {
            let t = t0 + (k as f64 + 0.5) * h;
            numeric += a.at(t).overlap_area(&b.at(t)) * h;
        }
        let tol = (1e-4 * (1.0 + exact.abs())).max(5e-2);
        prop_assert!((exact - numeric).abs() < tol, "exact={exact} num={numeric}");
    }

    /// Influence time is consistent with the status flip it predicts.
    #[test]
    fn influence_time_is_a_status_change(a in arb_rigid(), b in arb_rigid()) {
        let t_c = 10.0;
        let inf = a.influence_time(&b, t_c);
        if inf.is_finite() && inf > t_c + 1e-3 {
            let before =
                a.intersects_at(&b, (t_c + inf) / 2.0) || a.intersects_at(&b, inf - 1e-4);
            let after = a.intersects_at(&b, inf + 1e-4);
            // Status just before vs just after the influence time differs
            // (allowing for grazing contacts where the flip is momentary).
            prop_assert!(before != after || a.intersects_at(&b, inf),
                "no status change at influence time {inf}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The closed-form `dist ≤ ε` interval vs dense sampling.
    #[test]
    fn within_dist_interval_matches_sampling(
        a in arb_rigid(),
        b in arb_rigid(),
        span in 1.0f64..60.0,
        eps in 0.0f64..40.0,
    ) {
        let t0 = a.t_ref.max(b.t_ref);
        let t1 = t0 + span;
        let eps_sq = eps * eps;
        let iv = a.within_dist_sq_interval(&b, eps_sq, t0, t1);
        let steps = 400;
        for k in 0..=steps {
            let t = t0 + (t1 - t0) * k as f64 / steps as f64;
            let d = a.dist_sq_at(&b, t);
            let inside = iv.is_some_and(|iv| iv.contains(t));
            // The last sample may land one ulp past `t1`.
            let near = iv.is_some_and(|iv| iv.start - 1e-9 <= t && t <= iv.end + 1e-9);
            let slack = 1e-6 * (1.0 + d);
            prop_assert!(d >= eps_sq - slack || near, "within ε at t={t} but outside {iv:?}");
            prop_assert!(d <= eps_sq + slack || !inside, "beyond ε at t={t} but inside {iv:?}");
        }
    }
}

/// Pinned regression, promoted from `prop.proptest-regressions` so it
/// always runs (the offline proptest shim does not replay recorded
/// shrinks): a pair with **mismatched `t_ref`s** — one rectangle sweeping
/// down from `t_ref = 0`, the other stationary and referenced at
/// `t ≈ 8.275` — once made `intersect_interval` disagree with sampling,
/// because positions were compared without rebasing to a common
/// reference time. This is the shrunken witness from
/// `intersect_interval_matches_sampling`, checked with the same body.
#[test]
fn regression_mismatched_t_ref_interval_matches_sampling() {
    let a = MovingRect::rigid(
        Rect::new([0.0, 0.0], [0.01, 0.01]),
        [0.0, -4.585113918007131],
        0.0,
    );
    let b = MovingRect::rigid(
        Rect::new([0.0, 0.0], [0.01, 0.01]),
        [0.0, 0.0],
        8.275216375486172,
    );
    assert_eq!(a.t_ref, 0.0);
    assert_eq!(b.t_ref, 8.275216375486172);

    let window = (10.0, 200.0);
    match a.intersect_interval(&b, window.0, window.1) {
        Some(TimeInterval { start, end }) => {
            assert!(start >= window.0 - EPS && end <= window.1 + EPS);
            if end - start > 4.0 * EPS {
                for frac in [0.25, 0.5, 0.75] {
                    let t = start + (end - start) * frac;
                    assert!(a.intersects_at(&b, t), "inside t={t}");
                }
            }
            if start - window.0 > 1e-3 {
                assert!(!a.intersects_at(&b, start - 1e-3));
            }
            if window.1 - end > 1e-3 {
                assert!(!a.intersects_at(&b, end + 1e-3));
            }
        }
        None => {
            for k in 0..40 {
                let t = window.0 + (window.1 - window.0) * (k as f64 + 0.5) / 40.0;
                assert!(!a.intersects_at(&b, t), "t={t} should not intersect");
            }
        }
    }
}
