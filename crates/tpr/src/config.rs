//! Tree tuning parameters.

use cij_geom::Time;

/// Minimum entries per non-root node, as a fraction of the capacity
/// (R*-tree convention: 40 %).
const MIN_FILL: f64 = 0.4;
/// Fraction of a node's entries one forced reinsert evicts (R*-tree
/// convention: 30 %).
const REINSERT_FRACTION: f64 = 0.3;

/// TPR-tree configuration.
///
/// Defaults match the paper's Table I: node capacity 30, and a horizon
/// equal to the default maximum update interval `T_M = 60` (the TPR-tree
/// literature sets the horizon to the expected time between index
/// rebuilds/updates; with TC processing every query window is at most `T_M`
/// long, so integrating penalties past `t + T_M` would optimize for
/// queries that never run). The heuristics are the TPR*-tree's, always
/// on: integral penalties, R* forced reinsert, 40 % minimum fill and
/// 30 % reinsert fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum number of entries per node (paper: 30).
    pub capacity: usize,
    /// Horizon `H` over which integral penalties are evaluated.
    pub horizon: Time,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            capacity: 30,
            horizon: 60.0,
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

    /// Minimum entry count for a non-root node.
    #[must_use]
    pub fn min_entries(&self) -> usize {
        ((self.capacity as f64 * MIN_FILL) as usize).max(2)
    }

    /// Number of entries evicted by one forced reinsert.
    #[must_use]
    pub fn reinsert_count(&self) -> usize {
        ((self.capacity as f64 * REINSERT_FRACTION) as usize).clamp(1, self.capacity / 2)
    }

    /// Validates the knobs; called by the tree constructor.
    ///
    /// # Panics
    /// Panics on nonsensical configurations (capacity < 4, capacity
    /// past what fits in a page, non-positive horizon) — these are
    /// programmer errors, not runtime conditions.
    pub fn assert_valid(&self) {
        assert!(self.capacity >= 4, "node capacity must be >= 4");
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
