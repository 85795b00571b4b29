//! Property tests for the geometry kernel: the analytic interval algebra
//! must agree with brute-force sampling of the rectangles' positions, and
//! the branch-free interval kernel with the branchy formulation it
//! replaced, bit for bit.

use cij_geom::{MovingRect, Rect, Time, TimeInterval, INFINITE_TIME};
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

/// Reference: the solution set of `c0 + c1·t ≤ 0` over the whole time
/// axis, `None` when empty.
fn solve_linear_leq(c0: f64, c1: f64) -> Option<TimeInterval> {
    if c1 == 0.0 {
        // Constant constraint: either always or never satisfied.
        if c0 <= 0.0 {
            Some(TimeInterval {
                start: f64::NEG_INFINITY,
                end: INFINITE_TIME,
            })
        } else {
            None
        }
    } else {
        let root = -c0 / c1;
        if c1 > 0.0 {
            // Satisfied for t <= root.
            TimeInterval::new(f64::NEG_INFINITY, root)
        } else {
            // Satisfied for t >= root.
            TimeInterval::new(root, INFINITE_TIME)
        }
    }
}

/// Reference: `intersect_interval` as a chain of early exits — each of
/// the four constraints solved on its own and intersected into the window
/// in turn, `None` as soon as anything is empty. The library's
/// branch-free kernel must return the same bits.
fn reference_interval(
    a: &MovingRect,
    b: &MovingRect,
    t_s: Time,
    t_e: Time,
) -> Option<TimeInterval> {
    let mut acc = TimeInterval::new(t_s, t_e)?;
    for d in 0..2 {
        // a.lo_d(t) <= b.hi_d(t)
        //   (lo_a − vlo_a·ta) − (hi_b − vhi_b·tb) + (vlo_a − vhi_b)·t <= 0
        let c0 = (a.lo[d] - a.vlo[d] * a.t_ref) - (b.hi[d] - b.vhi[d] * b.t_ref);
        let c1 = a.vlo[d] - b.vhi[d];
        acc = acc.intersect(&solve_linear_leq(c0, c1)?)?;

        // b.lo_d(t) <= a.hi_d(t)
        let c0 = (b.lo[d] - b.vlo[d] * b.t_ref) - (a.hi[d] - a.vhi[d] * a.t_ref);
        let c1 = b.vlo[d] - a.vhi[d];
        acc = acc.intersect(&solve_linear_leq(c0, c1)?)?;
    }
    Some(acc)
}

/// An interval's bits, for comparisons that tell `-0.0` from `0.0`.
fn bits(iv: Option<TimeInterval>) -> Option<(u64, u64)> {
    iv.map(|iv| (iv.start.to_bits(), iv.end.to_bits()))
}

/// Asserts the kernel equal to the reference, bit for bit.
fn assert_same_bits(a: &MovingRect, b: &MovingRect, t_s: Time, t_e: Time) {
    let got = a.intersect_interval(b, t_s, t_e);
    let want = reference_interval(a, b, t_s, t_e);
    assert_eq!(
        bits(got),
        bits(want),
        "{a:?} vs {b:?} over [{t_s}, {t_e}]: {got:?} vs reference {want:?}"
    );
}

/// Coordinates, speeds and times on a coarse grid, `-0.0` included, so
/// that two random rectangles often have parallel edges (equal speeds),
/// touch exactly at a grid instant, or are flat.
fn grid() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        (-3i32..4).prop_map(f64::from),
        (-6i32..7).prop_map(|k| f64::from(k) * 0.5),
    ]
}

/// A moving rectangle off [`grid`]: a zero extent or spread copies the
/// lower bound's bits (a flat rectangle, a rigid bound), signed zero
/// included.
fn arb_grid_rect() -> impl Strategy<Value = MovingRect> {
    let step = || prop_oneof![Just(0.0), Just(1.0), Just(2.0)];
    let t_ref = prop_oneof![Just(0.0), Just(-0.0), Just(1.0), Just(2.0)];
    (
        grid(),
        grid(),
        step(),
        step(),
        grid(),
        grid(),
        step(),
        step(),
        t_ref,
    )
        .prop_map(|(x, y, w, h, vx, vy, gx, gy, t_ref)| {
            let up = |base: f64, by: f64| if by == 0.0 { base } else { base + by };
            MovingRect {
                lo: [x, y],
                hi: [up(x, w), up(y, h)],
                vlo: [vx, vy],
                vhi: [up(vx, gx), up(vy, gy)],
                t_ref,
            }
        })
}

/// Windows with ties: `t_s == t_e`, grid ends, and an unbounded end.
fn arb_window() -> impl Strategy<Value = (Time, Time)> {
    let t_s = prop_oneof![Just(0.0), Just(-0.0), Just(1.0), Just(2.0), Just(3.0)];
    let len = prop_oneof![Just(0.0), Just(1.0), Just(4.0), Just(INFINITE_TIME)];
    (t_s, len).prop_map(|(t_s, len)| (t_s, if len == 0.0 { t_s } else { t_s + len }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The branch-free kernel returns the reference's bits on tie-rich
    /// grid pairs: parallel edges with the gap zero, positive or
    /// negative, exact touches at the window's ends, flat rectangles,
    /// signed zeros, `t_s == t_e` and `t_e = ∞`.
    #[test]
    fn intersect_interval_bits_match_reference_on_ties(
        a in arb_grid_rect(),
        b in arb_grid_rect(),
        window in arb_window(),
    ) {
        let (t_s, t_e) = window;
        assert_same_bits(&a, &b, t_s, t_e);
        assert_same_bits(&b, &a, t_s, t_e);
    }

    /// The same on random pairs, rigid and expanding, over random,
    /// instantaneous and unbounded windows.
    #[test]
    fn intersect_interval_bits_match_reference(
        a in prop_oneof![arb_rigid(), arb_expanding()],
        b in prop_oneof![arb_rigid(), arb_expanding()],
        t_s in 0.0f64..50.0,
        len in prop_oneof![0.0f64..100.0, Just(0.0), Just(INFINITE_TIME)],
    ) {
        assert_same_bits(&a, &b, t_s, t_s + len);
    }
}

/// Hand-built ties, each with its expected answer as well as the
/// reference's bits.
#[test]
fn forced_ties_match_the_reference() {
    let square =
        |x: f64, vx: f64| MovingRect::rigid(Rect::new([x, 0.0], [x + 1.0, 1.0]), [vx, 0.0], 0.0);
    let a = square(0.0, 0.0);
    let cases = [
        // Touches at t_s = 0, then moves away: the instant [0, 0].
        (square(1.0, 1.0), 0.0, 10.0, Some((0.0, 0.0))),
        // Closes in and touches exactly at t_e = 2.
        (square(3.0, -1.0), 0.0, 2.0, Some((2.0, 2.0))),
        // Parallel edges (c1 = 0): touching (c0 = 0), apart (c0 > 0),
        // overlapping (c0 < 0) — the whole window or nothing.
        (square(1.0, 0.0), 0.0, 5.0, Some((0.0, 5.0))),
        (square(1.5, 0.0), 0.0, 5.0, None),
        (square(0.5, 0.0), 0.0, 5.0, Some((0.0, 5.0))),
        // Touching at t_s == t_e.
        (square(3.0, -1.0), 2.0, 2.0, Some((2.0, 2.0))),
        // Unbounded window: overlapping and never separating.
        (
            square(0.5, 0.0),
            1.0,
            INFINITE_TIME,
            Some((1.0, INFINITE_TIME)),
        ),
    ];
    for (b, t_s, t_e, want) in cases {
        let got = a
            .intersect_interval(&b, t_s, t_e)
            .map(|iv| (iv.start, iv.end));
        assert_eq!(got, want, "{b:?} over [{t_s}, {t_e}]");
        assert_same_bits(&a, &b, t_s, t_e);
        assert_same_bits(&b, &a, t_s, t_e);
    }
    // A flat rectangle on a signed-zero edge, with signed-zero speeds.
    let flat = MovingRect {
        lo: [-0.0, 0.0],
        hi: [-0.0, 1.0],
        vlo: [-0.0, 0.0],
        vhi: [-0.0, -0.0],
        t_ref: -0.0,
    };
    assert!(a.intersect_interval(&flat, -0.0, 0.0).is_some());
    for (t_s, t_e) in [(-0.0, 0.0), (0.0, -0.0), (0.0, 3.0), (-0.0, INFINITE_TIME)] {
        assert_same_bits(&a, &flat, t_s, t_e);
        assert_same_bits(&flat, &a, t_s, t_e);
    }
    // A NaN anywhere, in a bound or in the window, meets nothing.
    let mut nan = square(0.5, 0.0);
    nan.lo[1] = f64::NAN;
    assert_eq!(a.intersect_interval(&nan, 0.0, 5.0), None);
    assert_eq!(a.intersect_interval(&square(0.5, 0.0), f64::NAN, 5.0), None);
    let mut nan_speed = square(0.5, 1.0);
    nan_speed.vlo[0] = f64::NAN;
    assert_eq!(a.intersect_interval(&nan_speed, 0.0, 5.0), None);
    for b in [nan, nan_speed] {
        assert_same_bits(&a, &b, 0.0, 5.0);
        assert_same_bits(&b, &a, 0.0, 5.0);
    }
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
