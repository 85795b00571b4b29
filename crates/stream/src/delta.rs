//! Delta extraction: turning engine state changes into
//! [`ResultDelta`] events without recomputing snapshots.
//!
//! The extractor keeps one thing: the set of pairs it has reported. After
//! each applied batch, and the engine's
//! [`gc`](cij_core::ContinuousJoinEngine::gc) for the tick, it drains the
//! engine's changelog
//! ([`take_result_changes`](cij_core::ContinuousJoinEngine::take_result_changes))
//! and asks [`pair_status_at`](cij_core::ContinuousJoinEngine::pair_status_at)
//! about exactly those pairs. The changelog names every pair an update
//! touched *and* every pair whose predicted interval began or ran out as
//! the engine's sweep line moved to the tick (the result buffer files
//! each interval's endpoints when it stores it), so time passing needs no
//! bookkeeping here. Work per tick is proportional to the number of
//! changed pairs, not the result size; this is precisely what the paper's
//! bounded valid-intervals (Theorems 1–2) buy: every admitted pair
//! carries the interval that announces its own expiry.
//!
//! Engines that do not maintain interval predictions (ETP) report no
//! changelog; for them the extractor falls back to diffing
//! `result_at` snapshots, trading the incremental cost model for the
//! same delta contract.
//!
//! The changelog is a *dirty list*, not an event stream: every recheck
//! resolves pair membership from the engine's current state, so
//! spurious entries are harmless and only missing ones would be a bug.
//! That is what makes online shard re-partitioning (the `cij-shard`
//! coordinator's `rebalance_to`) transparent here — a rebalance drains
//! the changelogs of dropped
//! shard-pair engines into the coordinator's own changelog, so every
//! pair whose owning engine changed gets rechecked against the *new*
//! topology, and pairs pruned out of the join plan read as inactive
//! exactly when their predicted intervals say so. The rebalance tests
//! in `tests/shard_rebalance.rs` pin the resulting delta stream
//! bit-identical to the single-engine stream across re-partitions.

use std::collections::hash_map::Entry;
use std::collections::HashSet;

use cij_core::{ContinuousJoinEngine, PairKey};
use cij_geom::{Time, TimeInterval};
use cij_tpr::IdMap;

use crate::event::ResultDelta;

/// Incremental delta extractor over one engine.
#[derive(Debug, Default)]
pub(crate) struct DeltaExtractor {
    /// Pairs currently reported to subscribers, with the interval they
    /// were last seen active under.
    reported: IdMap<PairKey, TimeInterval>,
    last_tick: Option<Time>,
}

impl DeltaExtractor {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The currently-reported pairs with their admission intervals,
    /// sorted by pair (catch-up state for new or resyncing
    /// subscribers).
    pub(crate) fn current(&self) -> Vec<(PairKey, TimeInterval)> {
        let mut out: Vec<_> = self.reported.iter().map(|(&k, &iv)| (k, iv)).collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Extracts the deltas at tick `t`: removals first, then additions,
    /// each sorted by pair. `t` must be strictly greater than the
    /// previous extraction tick, and the engine's
    /// [`gc(t)`](ContinuousJoinEngine::gc) must have run.
    pub(crate) fn extract(
        &mut self,
        engine: &mut dyn ContinuousJoinEngine,
        t: Time,
    ) -> Vec<ResultDelta> {
        debug_assert!(
            self.last_tick.is_none_or(|prev| t > prev),
            "extraction ticks must be strictly increasing"
        );
        self.last_tick = Some(t);

        let mut adds: Vec<(PairKey, TimeInterval)> = Vec::new();
        let mut removes: Vec<PairKey> = Vec::new();

        match engine.take_result_changes() {
            Some(dirty) => {
                for pair in dirty {
                    match (
                        engine.pair_status_at(pair, t).active,
                        self.reported.entry(pair),
                    ) {
                        (Some(valid), Entry::Vacant(slot)) => {
                            slot.insert(valid);
                            adds.push((pair, valid));
                        }
                        (Some(valid), Entry::Occupied(mut slot)) => {
                            slot.insert(valid);
                        }
                        (None, Entry::Occupied(slot)) => {
                            slot.remove();
                            removes.push(pair);
                        }
                        (None, Entry::Vacant(_)) => {}
                    }
                }
            }
            None => self.snapshot_diff(engine, t, &mut adds, &mut removes),
        }

        removes.sort_unstable();
        adds.sort_unstable_by_key(|&(pair, _)| pair);
        let mut out = Vec::with_capacity(removes.len() + adds.len());
        out.extend(
            removes
                .into_iter()
                .map(|pair| ResultDelta::PairRemoved { pair }),
        );
        out.extend(
            adds.into_iter()
                .map(|(pair, valid)| ResultDelta::PairAdded { pair, valid }),
        );
        out
    }

    /// Fallback for engines without a changelog: diff full snapshots.
    /// Additions are admitted under `[t, ∞)` (see
    /// [`ResultDelta::PairAdded`]).
    fn snapshot_diff(
        &mut self,
        engine: &dyn ContinuousJoinEngine,
        t: Time,
        adds: &mut Vec<(PairKey, TimeInterval)>,
        removes: &mut Vec<PairKey>,
    ) {
        let now: HashSet<PairKey> = engine.result_at(t).into_iter().collect();
        removes.extend(self.reported.keys().copied().filter(|k| !now.contains(k)));
        for &pair in removes.iter() {
            self.reported.remove(&pair);
        }
        for pair in now {
            if let Entry::Vacant(slot) = self.reported.entry(pair) {
                let valid = TimeInterval::from(t);
                slot.insert(valid);
                adds.push((pair, valid));
            }
        }
    }

    /// Number of currently reported pairs.
    pub(crate) fn reported_len(&self) -> usize {
        self.reported.len()
    }
}
