//! Partition-Based Spatial-Merge join (PBSM, Patel & DeWitt SIGMOD '96)
//! adapted to moving objects over a constrained window.
//!
//! The paper's related work (§VII) contrasts index joins with the
//! partition-join family ("there is a rich literature on traditional
//! intersection joins … most of the techniques are not applicable to
//! continuous joins on moving objects"). This module adapts the one that
//! *is* adaptable — PBSM — the same way §IV-D adapts plane sweep: time
//! constraints make a moving rectangle's **swept region** over
//! `[t_s, t_e]` a finite static rectangle (bounds are linear, so extremes
//! sit at the window endpoints). The algorithm:
//!
//! 1. tile the space with a uniform grid;
//! 2. replicate each object into every cell its swept region overlaps;
//! 3. per cell, run the moving plane sweep of §IV-D1 on the two sets;
//! 4. de-duplicate with the *reference-point* rule: a pair is reported
//!    only by the cell containing the lower-left corner of the
//!    intersection of the two swept regions.
//!
//! PBSM has no index to maintain, which makes it a one-shot algorithm:
//! fine for a single (initial) join, useless for continuous maintenance —
//! exactly the trade-off the benchmark harness demonstrates.

use cij_geom::{MovingRect, Rect, Time};
use cij_tpr::ObjectId;

use crate::counters::JoinCounters;
use crate::pair::JoinPair;
use crate::sweep::{ps_intersection_soa, swept_region, SweepSoa};

/// Uniform grid over the joint bounding box of all swept regions.
struct Grid {
    origin: [f64; 2],
    cell: [f64; 2],
    per_axis: usize,
}

impl Grid {
    fn fit(bounds: Rect, per_axis: usize) -> Self {
        let cell = [
            (bounds.extent(0) / per_axis as f64).max(f64::MIN_POSITIVE),
            (bounds.extent(1) / per_axis as f64).max(f64::MIN_POSITIVE),
        ];
        Self {
            origin: bounds.lo,
            cell,
            per_axis,
        }
    }

    fn clamp_axis(&self, i: isize) -> usize {
        i.clamp(0, self.per_axis as isize - 1) as usize
    }

    /// Cell index range `(x0..=x1, y0..=y1)` overlapped by `r`.
    fn cover(&self, r: &Rect) -> (usize, usize, usize, usize) {
        let x0 = self.clamp_axis(((r.lo[0] - self.origin[0]) / self.cell[0]).floor() as isize);
        let x1 = self.clamp_axis(((r.hi[0] - self.origin[0]) / self.cell[0]).floor() as isize);
        let y0 = self.clamp_axis(((r.lo[1] - self.origin[1]) / self.cell[1]).floor() as isize);
        let y1 = self.clamp_axis(((r.hi[1] - self.origin[1]) / self.cell[1]).floor() as isize);
        (x0, x1, y0, y1)
    }

    /// The single cell containing point `p` (clamped to the grid).
    fn locate(&self, p: [f64; 2]) -> (usize, usize) {
        (
            self.clamp_axis(((p[0] - self.origin[0]) / self.cell[0]).floor() as isize),
            self.clamp_axis(((p[1] - self.origin[1]) / self.cell[1]).floor() as isize),
        )
    }

    fn id(&self, x: usize, y: usize) -> usize {
        y * self.per_axis + x
    }
}

/// PBSM over moving objects: all pairs from `a × b` whose rectangles
/// intersect within `[t_s, t_e]`. `cells_per_axis` controls the grid
/// granularity (≈ `√(n / 64)` is a reasonable rule of thumb; see
/// [`partition_join_auto`]).
///
/// ```
/// use cij_geom::{MovingRect, Rect};
/// use cij_join::partition_join;
/// use cij_tpr::ObjectId;
///
/// // A static square and one sweeping into it around t = 5.
/// let a = vec![(
///     ObjectId(1),
///     MovingRect::stationary(Rect::new([50.0, 50.0], [52.0, 52.0]), 0.0),
/// )];
/// let b = vec![(
///     ObjectId(2),
///     MovingRect::rigid(Rect::new([40.0, 50.0], [42.0, 52.0]), [1.6, 0.0], 0.0),
/// )];
/// let (pairs, _) = partition_join(&a, &b, 0.0, 60.0, 4);
/// assert_eq!(pairs.len(), 1);
/// assert!((pairs[0].interval.start - 5.0).abs() < 1e-9);
/// ```
pub fn partition_join(
    a: &[(ObjectId, MovingRect)],
    b: &[(ObjectId, MovingRect)],
    t_s: Time,
    t_e: Time,
    cells_per_axis: usize,
) -> (Vec<JoinPair>, JoinCounters) {
    assert!(t_e.is_finite(), "PBSM requires a time-constrained window");
    assert!(cells_per_axis > 0, "grid needs at least one cell");
    assert!(
        u32::try_from(a.len().max(b.len())).is_ok(),
        "sweep indices are u32"
    );
    let mut counters = JoinCounters::new();
    let mut out = Vec::new();
    if a.is_empty() || b.is_empty() {
        return (out, counters);
    }

    // Joint bounds of all swept regions.
    let sweep_a: Vec<Rect> = a.iter().map(|(_, m)| swept_region(m, t_s, t_e)).collect();
    let sweep_b: Vec<Rect> = b.iter().map(|(_, m)| swept_region(m, t_s, t_e)).collect();
    let mut bounds = sweep_a[0];
    for r in sweep_a.iter().chain(sweep_b.iter()) {
        bounds.union_assign(r);
    }
    let grid = Grid::fit(bounds, cells_per_axis);

    // Replicate object indexes into cells.
    let n_cells = cells_per_axis * cells_per_axis;
    let mut cells_a: Vec<Vec<usize>> = vec![Vec::new(); n_cells];
    let mut cells_b: Vec<Vec<usize>> = vec![Vec::new(); n_cells];
    for (i, r) in sweep_a.iter().enumerate() {
        let (x0, x1, y0, y1) = grid.cover(r);
        for y in y0..=y1 {
            for x in x0..=x1 {
                cells_a[grid.id(x, y)].push(i);
            }
        }
    }
    for (i, r) in sweep_b.iter().enumerate() {
        let (x0, x1, y0, y1) = grid.cover(r);
        for y in y0..=y1 {
            for x in x0..=x1 {
                cells_b[grid.id(x, y)].push(i);
            }
        }
    }

    // Per-cell moving plane sweep, reference-point de-duplication.
    let (mut side_a, mut side_b) = (SweepSoa::new(), SweepSoa::new());
    let mut cands = Vec::new();
    for cy in 0..cells_per_axis {
        for cx in 0..cells_per_axis {
            let cell_id = grid.id(cx, cy);
            let (ia, ib) = (&cells_a[cell_id], &cells_b[cell_id]);
            if ia.is_empty() || ib.is_empty() {
                continue;
            }
            // Sweep index = object index (ascending within a cell).
            side_a.clear();
            for &i in ia {
                side_a.push(a[i].1, i as u32, 0, t_s, t_e);
            }
            side_b.clear();
            for &i in ib {
                side_b.push(b[i].1, i as u32, 0, t_s, t_e);
            }
            ps_intersection_soa(
                &mut side_a,
                &mut side_b,
                t_s,
                t_e,
                &mut counters,
                &mut cands,
            );
            for &(i, j, iv) in &cands {
                let (i, j) = (i as usize, j as usize);
                // Reference point: lower-left corner of the overlap of
                // the two swept regions — it lies in exactly one cell.
                let o = sweep_a[i]
                    .intersection(&sweep_b[j])
                    .expect("intersecting pair has overlapping swept regions");
                if grid.locate(o.lo) == (cx, cy) {
                    counters.pairs_emitted += 1;
                    out.push(JoinPair::new(a[i].0, b[j].0, iv));
                }
            }
        }
    }
    (out, counters)
}

/// [`partition_join`] with an automatic grid granularity: aims for ~64
/// objects per cell on the larger input.
pub fn partition_join_auto(
    a: &[(ObjectId, MovingRect)],
    b: &[(ObjectId, MovingRect)],
    t_s: Time,
    t_e: Time,
) -> (Vec<JoinPair>, JoinCounters) {
    let n = a.len().max(b.len()).max(1);
    let cells = ((n as f64 / 64.0).sqrt().ceil() as usize).max(1);
    partition_join(a, b, t_s, t_e, cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::pair::assert_pairs_equal;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_set(rng: &mut StdRng, n: usize, base: u64) -> Vec<(ObjectId, MovingRect)> {
        (0..n)
            .map(|i| {
                let x = rng.gen_range(0.0..1000.0);
                let y = rng.gen_range(0.0..1000.0);
                let s = rng.gen_range(0.2..6.0);
                (
                    ObjectId(base + i as u64),
                    MovingRect::rigid(
                        Rect::new([x, y], [x + s, y + s]),
                        [rng.gen_range(-4.0..4.0), rng.gen_range(-4.0..4.0)],
                        0.0,
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn matches_oracle_across_grid_sizes() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random_set(&mut rng, 300, 0);
        let b = random_set(&mut rng, 300, 10_000);
        let expect = brute::brute_join(&a, &b, 0.0, 60.0);
        for cells in [1, 2, 5, 16, 50] {
            let (got, _) = partition_join(&a, &b, 0.0, 60.0, cells);
            assert_pairs_equal(got, expect.clone(), 1e-7);
        }
    }

    #[test]
    fn auto_grid_matches_oracle() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = random_set(&mut rng, 500, 0);
        let b = random_set(&mut rng, 400, 10_000);
        let (got, counters) = partition_join_auto(&a, &b, 0.0, 60.0);
        assert_pairs_equal(got, brute::brute_join(&a, &b, 0.0, 60.0), 1e-7);
        assert!(counters.entry_comparisons > 0);
    }

    #[test]
    fn no_duplicates_despite_replication() {
        // Big slow objects spanning many cells must still be reported
        // exactly once per pair.
        let a = vec![(
            ObjectId(1),
            MovingRect::rigid(Rect::new([100.0, 100.0], [400.0, 400.0]), [1.0, 1.0], 0.0),
        )];
        let b = vec![(
            ObjectId(2),
            MovingRect::rigid(Rect::new([300.0, 300.0], [600.0, 600.0]), [-1.0, -1.0], 0.0),
        )];
        let (got, _) = partition_join(&a, &b, 0.0, 60.0, 10);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn empty_inputs() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_set(&mut rng, 10, 0);
        assert!(partition_join(&a, &[], 0.0, 60.0, 4).0.is_empty());
        assert!(partition_join(&[], &a, 0.0, 60.0, 4).0.is_empty());
    }

    #[test]
    fn partitioning_prunes_comparisons() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = random_set(&mut rng, 800, 0);
        let b = random_set(&mut rng, 800, 10_000);
        let (_, one_cell) = partition_join(&a, &b, 0.0, 60.0, 1);
        let (_, gridded) = partition_join(&a, &b, 0.0, 60.0, 10);
        assert!(
            gridded.entry_comparisons < one_cell.entry_comparisons,
            "grid {} vs single cell {}",
            gridded.entry_comparisons,
            one_cell.entry_comparisons
        );
    }

    #[test]
    #[should_panic(expected = "time-constrained")]
    fn unbounded_window_rejected() {
        let a = vec![(
            ObjectId(1),
            MovingRect::stationary(Rect::new([0.0, 0.0], [1.0, 1.0]), 0.0),
        )];
        let _ = partition_join(&a, &a.clone(), 0.0, f64::INFINITY, 4);
    }
}
