//! Tree tuning parameters.

use cij_geom::Time;

/// TPR-tree configuration.
///
/// Defaults match the paper's Table I: node capacity 30, and a horizon
/// equal to the default maximum update interval `T_M = 60` (the TPR-tree
/// literature sets the horizon to the expected time between index
/// rebuilds/updates; with TC processing every query window is at most `T_M`
/// long, so integrating penalties past `t + T_M` would optimize for
/// queries that never run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum number of entries per node (paper: 30).
    pub capacity: usize,
    /// Minimum number of entries per node, as a fraction of `capacity`
    /// (R*-tree convention: 40 %).
    pub min_fill: f64,
    /// Fraction of entries removed by a forced reinsert on overflow
    /// (R*-tree convention: 30 %).
    pub reinsert_fraction: f64,
    /// Horizon `H` over which integral penalties are evaluated.
    pub horizon: Time,
    /// R*-style forced reinsert on first overflow per level (default
    /// on). Off ⇒ overflow always splits — an ablation knob showing the
    /// R* heuristic's contribution.
    pub forced_reinsert: bool,
    /// Evaluate insertion/split penalties as *integrals over the
    /// horizon* (the TPR/TPR* innovation, default on) instead of
    /// instantaneous values at the operation time (plain R*-tree
    /// behaviour, which ignores motion). Ablation knob.
    pub integral_metrics: bool,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            capacity: 30,
            min_fill: 0.4,
            reinsert_fraction: 0.3,
            horizon: 60.0,
            forced_reinsert: true,
            integral_metrics: true,
        }
    }
}

impl TreeConfig {
    /// Configuration with a given node capacity, other knobs default.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity,
            ..Self::default()
        }
    }

    /// Configuration with a given horizon, other knobs default.
    #[must_use]
    pub fn with_horizon(horizon: Time) -> Self {
        Self {
            horizon,
            ..Self::default()
        }
    }

    /// Minimum entry count for a non-root node.
    #[must_use]
    pub fn min_entries(&self) -> usize {
        ((self.capacity as f64 * self.min_fill) as usize).max(2)
    }

    /// Number of entries evicted by one forced reinsert.
    #[must_use]
    pub fn reinsert_count(&self) -> usize {
        ((self.capacity as f64 * self.reinsert_fraction) as usize).clamp(1, self.capacity / 2)
    }

    /// Validates the knobs; called by the tree constructor.
    ///
    /// # Panics
    /// Panics on nonsensical configurations (capacity < 4, fractions out
    /// of range, non-positive horizon) — these are programmer errors, not
    /// runtime conditions.
    pub fn assert_valid(&self) {
        assert!(self.capacity >= 4, "node capacity must be >= 4");
        assert!(
            self.min_fill > 0.0 && self.min_fill <= 0.5,
            "min_fill must be in (0, 0.5]"
        );
        assert!(
            self.reinsert_fraction > 0.0 && self.reinsert_fraction < 0.5,
            "reinsert_fraction must be in (0, 0.5)"
        );
        assert!(self.horizon > 0.0, "horizon must be positive");
        assert!(
            crate::node::Node::max_capacity() >= self.capacity,
            "capacity {} exceeds what fits in a page ({})",
            self.capacity,
            crate::node::Node::max_capacity()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_i() {
        let c = TreeConfig::default();
        assert_eq!(c.capacity, 30);
        assert_eq!(c.horizon, 60.0);
        c.assert_valid();
    }

    #[test]
    fn derived_counts() {
        let c = TreeConfig::default();
        assert_eq!(c.min_entries(), 12);
        assert_eq!(c.reinsert_count(), 9);
    }

    #[test]
    fn min_entries_never_below_two() {
        let c = TreeConfig {
            capacity: 4,
            ..TreeConfig::default()
        };
        assert_eq!(c.min_entries(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn tiny_capacity_rejected() {
        TreeConfig {
            capacity: 2,
            ..TreeConfig::default()
        }
        .assert_valid();
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn zero_horizon_rejected() {
        TreeConfig {
            horizon: 0.0,
            ..TreeConfig::default()
        }
        .assert_valid();
    }
}
