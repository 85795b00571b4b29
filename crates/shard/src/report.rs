//! Aggregated diagnostics for a sharded run: traversal counters, shard
//! populations, and the shared pool's I/O snapshot — one report in the
//! shape the bench harness and the `shard_demo` example print.

use cij_join::JoinCounters;
use cij_obs::MetricsSnapshot;
use cij_storage::IoSnapshot;
use cij_workload::SetTag;

use crate::router::ShardRouter;

/// Aggregated state of a [`ShardCoordinator`](crate::ShardCoordinator).
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Partition policy name.
    pub policy: &'static str,
    /// Shards per object set.
    pub k: usize,
    /// Width of the phase-2 fan-out over the partitions.
    pub threads: usize,
    /// Cross-shard migrations routed so far (update-driven).
    pub migrations: u64,
    /// Re-partition events committed so far.
    pub rebalances: u64,
    /// Objects relocated by re-partitioning so far (policy-driven,
    /// counted separately from `migrations`).
    pub rebalance_moved: u64,
    /// A-side objects per shard.
    pub population_a: Vec<usize>,
    /// B-side objects per shard.
    pub population_b: Vec<usize>,
    /// The engine's accumulated traversal counters.
    pub counters: JoinCounters,
    /// Cumulative I/O of the shared buffer pool.
    pub io: IoSnapshot,
    /// Published snapshot of the engine's metrics registry — `None` when
    /// metrics are disabled in the engine config.
    pub metrics: Option<MetricsSnapshot>,
}

impl ShardReport {
    /// The report of a coordinator: everything derived from placement
    /// is read off its `router`, the rest is the coordinator's own.
    pub(crate) fn new(
        router: &ShardRouter,
        threads: usize,
        rebalances: u64,
        counters: JoinCounters,
        io: IoSnapshot,
        metrics: Option<MetricsSnapshot>,
    ) -> Self {
        Self {
            policy: router.policy().name(),
            k: router.policy().shard_count(),
            threads,
            migrations: router.migrations(),
            rebalances,
            rebalance_moved: router.rebalanced(),
            population_a: router.population(SetTag::A).to_vec(),
            population_b: router.population(SetTag::B).to_vec(),
            counters,
            io,
            metrics,
        }
    }

    /// Index pairs in the coordinator: one per shard.
    #[must_use]
    pub fn engine_count(&self) -> usize {
        self.k
    }
}

impl std::fmt::Display for ShardReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "policy={} K={} threads={} engines={} migrations={} rebalances={} rebalanced={}",
            self.policy,
            self.k,
            self.threads,
            self.engine_count(),
            self.migrations,
            self.rebalances,
            self.rebalance_moved
        )?;
        writeln!(
            f,
            "population A={:?} B={:?}",
            self.population_a, self.population_b
        )?;
        let c = &self.counters;
        writeln!(
            f,
            "totals: node_pairs={} comparisons={} emitted={}",
            c.node_pairs, c.entry_comparisons, c.pairs_emitted
        )?;
        write!(
            f,
            "pool I/O: logical_reads={} physical={} hit_ratio={}",
            self.io.logical_reads,
            self.io.physical_total(),
            self.io
                .hit_ratio()
                .map_or_else(|| "n/a".to_string(), |r| format!("{r:.3}"))
        )
    }
}
