//! The join plan: which engine watches which shard pair, and which
//! engines an object of a given shard lives in.
//!
//! The distributed coordinator keeps one worker slot per shard pair —
//! the dense K×K grid, row-major over `(shard_a, shard_b)` — and reads
//! that layout three ways: the slot of a pair
//! (`i·K + j`), of a row (A-shard `i`: slots `i·K .. i·K + K`), of a
//! column (B-shard `j`: every K-th slot from `j`). Everything is computed
//! from K; [`JoinPlan::new`] is the one place a plan is made.

use cij_workload::SetTag;

use crate::policy::PartitionPolicy;

/// The dense K×K slot layout of a [`PartitionPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinPlan {
    k: usize,
}

impl JoinPlan {
    /// Lays out one slot per shard pair of `policy`.
    #[must_use]
    pub fn new(policy: &dyn PartitionPolicy) -> Self {
        Self {
            k: policy.shard_count(),
        }
    }

    /// Shards per object set.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.k
    }

    /// Slots in the plan: K².
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.k * self.k
    }

    /// The shard pair of every slot, in slot order — the order
    /// deployments hand worker connectors over in.
    pub fn pairs(&self) -> impl ExactSizeIterator<Item = (usize, usize)> {
        let k = self.k;
        (0..k * k).map(move |slot| (slot / k, slot % k))
    }

    /// The slot serving `(shard_a, shard_b)`; `None` when either shard
    /// is outside this plan.
    #[must_use]
    pub fn slot_of(&self, shard_a: usize, shard_b: usize) -> Option<usize> {
        (shard_a < self.k && shard_b < self.k).then(|| shard_a * self.k + shard_b)
    }

    /// The slots an object of (`set`, `shard`) lives in: the whole row
    /// for A-objects, the whole column for B-objects.
    pub fn fan(&self, set: SetTag, shard: usize) -> impl ExactSizeIterator<Item = usize> {
        let k = self.k;
        match set {
            SetTag::A => (shard * k..(shard + 1) * k).step_by(1),
            SetTag::B => (shard..k * k).step_by(k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::VelocityBandPolicy;

    /// Slot order is row-major over all K² pairs, and the three views
    /// agree with it.
    #[test]
    fn slots_are_row_major_over_every_pair() {
        for k in 1..=4 {
            let plan = JoinPlan::new(&VelocityBandPolicy::new(k, 3.0));
            assert_eq!(plan.shard_count(), k);
            assert_eq!(plan.slot_count(), k * k);
            let row_major: Vec<(usize, usize)> =
                (0..k).flat_map(|i| (0..k).map(move |j| (i, j))).collect();
            assert_eq!(plan.pairs().collect::<Vec<_>>(), row_major);
            for (slot, &(i, j)) in row_major.iter().enumerate() {
                assert_eq!(plan.slot_of(i, j), Some(slot));
                assert!(plan.fan(SetTag::A, i).any(|s| s == slot));
                assert!(plan.fan(SetTag::B, j).any(|s| s == slot));
            }
            for shard in 0..k {
                assert_eq!(plan.fan(SetTag::A, shard).len(), k);
                assert_eq!(plan.fan(SetTag::B, shard).len(), k);
            }
            assert_eq!(plan.slot_of(k, 0), None, "a shard outside the plan");
            assert_eq!(plan.slot_of(0, k), None, "a shard outside the plan");
        }
    }
}
