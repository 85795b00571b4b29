//! Closed time intervals `[start, end]` with a possibly-infinite end.
//!
//! Join algorithms in the paper communicate exclusively through such
//! intervals: `intersect(e_A, e_B, t_s, t_e)` either returns the
//! sub-interval of `[t_s, t_e]` during which the two entries intersect, or
//! `NULL`. We encode `NULL` as `Option<TimeInterval>` and the infinite
//! timestamp `∞` as [`INFINITE_TIME`].

use crate::Time;

/// The paper's `∞` timestamp: `NaiveJoin` computes join pairs over
/// `[t_c, ∞)`; time-constrained processing replaces this bound.
pub const INFINITE_TIME: Time = f64::INFINITY;

/// A closed time interval `[start, end]`, `start <= end`; `end` may be
/// [`INFINITE_TIME`].
///
/// Intervals returned by intersection tests are always non-empty: an empty
/// result is represented as `None` at the call site, never as a degenerate
/// interval with `start > end`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeInterval {
    /// Inclusive lower end.
    pub start: Time,
    /// Inclusive upper end; may be `+∞`.
    pub end: Time,
}

impl TimeInterval {
    /// Creates `[start, end]`. Returns `None` when `start > end` (the
    /// empty interval) so that emptiness is impossible to ignore.
    #[inline]
    pub fn new(start: Time, end: Time) -> Option<Self> {
        if start <= end {
            Some(Self { start, end })
        } else {
            None
        }
    }

    /// Creates `[start, end]` without the emptiness check.
    ///
    /// # Panics
    /// Panics in debug builds when `start > end`.
    #[inline]
    pub fn new_unchecked(start: Time, end: Time) -> Self {
        debug_assert!(start <= end, "empty interval [{start}, {end}]");
        Self { start, end }
    }

    /// The half-open-at-infinity interval `[start, ∞)`.
    #[inline]
    pub fn from(start: Time) -> Self {
        Self {
            start,
            end: INFINITE_TIME,
        }
    }

    /// Intersection of two closed intervals; `None` when disjoint.
    #[inline]
    pub fn intersect(&self, other: &Self) -> Option<Self> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        Self::new(start, end)
    }

    /// Whether `t` lies inside the interval (inclusive ends).
    #[inline]
    pub fn contains(&self, t: Time) -> bool {
        self.start <= t && t <= self.end
    }

    /// Whether the upper end is the infinite timestamp.
    #[inline]
    pub fn is_unbounded(&self) -> bool {
        self.end == INFINITE_TIME
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_empty() {
        assert!(TimeInterval::new(2.0, 1.0).is_none());
        assert!(TimeInterval::new(1.0, 1.0).is_some());
    }

    #[test]
    fn intersect_overlapping() {
        let a = TimeInterval::new_unchecked(0.0, 10.0);
        let b = TimeInterval::new_unchecked(5.0, 15.0);
        let c = a.intersect(&b).unwrap();
        assert_eq!(c, TimeInterval::new_unchecked(5.0, 10.0));
    }

    #[test]
    fn intersect_disjoint_is_none() {
        let a = TimeInterval::new_unchecked(0.0, 1.0);
        let b = TimeInterval::new_unchecked(2.0, 3.0);
        assert!(a.intersect(&b).is_none());
    }

    #[test]
    fn intersect_touching_is_instant() {
        let a = TimeInterval::new_unchecked(0.0, 2.0);
        let b = TimeInterval::new_unchecked(2.0, 3.0);
        let c = a.intersect(&b).unwrap();
        assert_eq!(c.start, 2.0);
        assert_eq!(c.end, 2.0);
    }

    #[test]
    fn unbounded_interval() {
        let a = TimeInterval::from(3.0);
        assert!(a.is_unbounded());
        assert!(a.contains(1e18));
        assert!(!a.contains(2.9));
    }
}
