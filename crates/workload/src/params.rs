//! The experiment parameter space of Table I.

use cij_geom::Time;

use crate::dataset::Distribution;

/// Workload parameters, defaults matching the bold entries of the
/// paper's Table I (see DESIGN.md for the two OCR-ambiguous defaults —
/// maximum speed and object size — and how they were resolved).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Objects per joined set (Table I: 1K, **10K**, 50K, 100K).
    pub dataset_size: usize,
    /// Side length of the square space domain (paper: 1000).
    pub space: f64,
    /// Maximum object speed in space units per timestamp
    /// (Table I: 1, 2, **3**, 4, 5).
    pub max_speed: f64,
    /// Object side length as a fraction of the space side
    /// (Table I: 0.05 %, **0.1 %**, 0.2 %, 0.4 %, 0.8 %).
    pub object_size_pct: f64,
    /// Maximum update interval `T_M` (Table I: **60**, 120, 240).
    pub maximum_update_interval: Time,
    /// TPR-tree node capacity (Table I: 30).
    pub node_capacity: usize,
    /// Spatial distribution of the datasets.
    pub distribution: Distribution,
    /// RNG seed — every experiment is reproducible from its parameters.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            dataset_size: 10_000,
            space: 1000.0,
            max_speed: 3.0,
            object_size_pct: 0.1,
            maximum_update_interval: 60.0,
            node_capacity: 30,
            distribution: Distribution::Uniform,
            seed: 0xC1_1AB5,
        }
    }
}

impl Params {
    /// Object side length in space units.
    #[must_use]
    pub fn object_side(&self) -> f64 {
        self.space * self.object_size_pct / 100.0
    }

    /// Sanity-checks the parameter combination.
    ///
    /// # Panics
    /// Panics on non-positive sizes/speeds or an object larger than the
    /// space.
    pub fn assert_valid(&self) {
        assert!(self.dataset_size > 0, "empty dataset");
        assert!(self.space > 0.0, "degenerate space");
        assert!(self.max_speed >= 0.0, "negative speed");
        assert!(
            self.object_side() < self.space,
            "objects larger than the space"
        );
        assert!(self.maximum_update_interval > 0.0, "T_M must be positive");
        assert!(self.node_capacity >= 4, "node capacity too small");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_table_i_bold() {
        let p = Params::default();
        assert_eq!(p.dataset_size, 10_000);
        assert_eq!(p.maximum_update_interval, 60.0);
        assert_eq!(p.node_capacity, 30);
        assert_eq!(p.max_speed, 3.0);
        assert!((p.object_side() - 1.0).abs() < 1e-12, "0.1% of 1000 = 1");
        p.assert_valid();
    }

    #[test]
    fn object_side_scales_with_pct() {
        let p = Params {
            object_size_pct: 0.8,
            ..Params::default()
        };
        assert!((p.object_side() - 8.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn zero_size_rejected() {
        Params {
            dataset_size: 0,
            ..Params::default()
        }
        .assert_valid();
    }
}
