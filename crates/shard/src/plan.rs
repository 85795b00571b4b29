//! The join plan: which shard pairs get an engine, and which engines an
//! object of a given shard lives in.
//!
//! Both coordinators (in-process and distributed) keep one slot per
//! *joinable* pair, row-major over `(shard_a, shard_b)`, and read that
//! layout three ways: the slot of a pair, of a row (A-shard `i`), of a
//! column (B-shard `j`). [`JoinPlan::new`] is the one place it is built.

use cij_workload::SetTag;

use crate::policy::PartitionPolicy;

/// The K×K (or sparser) slot layout of a [`PartitionPolicy`].
#[derive(Debug)]
pub struct JoinPlan {
    /// Joinable pairs in slot order: row-major over `(shard_a, shard_b)`.
    pairs: Vec<(usize, usize)>,
    /// Dense `shard_a · k + shard_b` → slot; `None` for pruned pairs.
    slot_of: Vec<Option<usize>>,
    /// Slots of row `i` (A-shard `i`) / column `j` (B-shard `j`).
    rows: Vec<Vec<usize>>,
    cols: Vec<Vec<usize>>,
}

impl JoinPlan {
    /// Lays out one slot per joinable shard pair of `policy`.
    #[must_use]
    pub fn new(policy: &dyn PartitionPolicy) -> Self {
        let k = policy.shard_count();
        let mut plan = Self {
            pairs: Vec::new(),
            slot_of: vec![None; k * k],
            rows: vec![Vec::new(); k],
            cols: vec![Vec::new(); k],
        };
        for i in 0..k {
            for j in 0..k {
                if policy.joinable(i, j) {
                    let slot = plan.pairs.len();
                    plan.pairs.push((i, j));
                    plan.slot_of[i * k + j] = Some(slot);
                    plan.rows[i].push(slot);
                    plan.cols[j].push(slot);
                }
            }
        }
        plan
    }

    /// Shards per object set.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.rows.len()
    }

    /// The joinable pairs in slot order — the order deployments hand
    /// worker connectors over in.
    #[must_use]
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// The slot serving `(shard_a, shard_b)`; `None` when the policy
    /// pruned the pair or either shard is outside this plan.
    #[must_use]
    pub fn slot_of(&self, shard_a: usize, shard_b: usize) -> Option<usize> {
        let k = self.shard_count();
        if shard_a >= k || shard_b >= k {
            return None;
        }
        self.slot_of[shard_a * k + shard_b]
    }

    /// The slots an object of (`set`, `shard`) lives in: the whole row
    /// for A-objects, the whole column for B-objects.
    #[must_use]
    pub fn fan(&self, set: SetTag, shard: usize) -> &[usize] {
        match set {
            SetTag::A => &self.rows[shard],
            SetTag::B => &self.cols[shard],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{SpatialGridPolicy, VelocityBandPolicy};

    /// Slot order is row-major over the joinable pairs, and the three
    /// views agree with it — for a full plan and a pruned one.
    #[test]
    fn slots_are_row_major_over_joinable_pairs() {
        let full = VelocityBandPolicy::new(3, 3.0);
        let pruned = SpatialGridPolicy::new(4, 2000.0, 22.0);
        for policy in [&full as &dyn PartitionPolicy, &pruned] {
            let plan = JoinPlan::new(policy);
            let k = policy.shard_count();
            assert_eq!(plan.shard_count(), k);
            let mut expect = Vec::new();
            for i in 0..k {
                for j in 0..k {
                    if policy.joinable(i, j) {
                        assert_eq!(plan.slot_of(i, j), Some(expect.len()));
                        expect.push((i, j));
                    } else {
                        assert_eq!(plan.slot_of(i, j), None);
                    }
                }
            }
            assert_eq!(plan.pairs(), expect);
            for (slot, &(i, j)) in expect.iter().enumerate() {
                assert!(plan.fan(SetTag::A, i).contains(&slot));
                assert!(plan.fan(SetTag::B, j).contains(&slot));
            }
            assert_eq!(plan.slot_of(k, 0), None, "a shard outside the plan");
        }
        assert_eq!(JoinPlan::new(&full).pairs().len(), 9);
        assert_eq!(JoinPlan::new(&pruned).pairs().len(), 10);
    }
}
