//! Aggregated diagnostics for a sharded run: per-pair traversal
//! counters, merged totals, shard populations, and the shared pool's I/O
//! snapshot — one report in the shape the bench harness and the
//! `shard_demo` example print.

use cij_join::JoinCounters;
use cij_obs::MetricsSnapshot;
use cij_storage::IoSnapshot;
use cij_workload::SetTag;

use crate::router::ShardRouter;

/// Diagnostics of one shard-pair engine.
#[derive(Debug, Clone, Copy)]
pub struct PairReport {
    /// A-side shard index.
    pub shard_a: usize,
    /// B-side shard index.
    pub shard_b: usize,
    /// The engine's accumulated traversal counters.
    pub counters: JoinCounters,
}

/// Aggregated state of a [`ShardCoordinator`](crate::ShardCoordinator).
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Partition policy name.
    pub policy: &'static str,
    /// Shards per object set.
    pub k: usize,
    /// Coordinator fan-out width.
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
    /// One entry per shard-pair engine, in (shard_a, shard_b) order.
    pub pairs: Vec<PairReport>,
    /// Cumulative I/O of the shared buffer pool.
    pub io: IoSnapshot,
    /// Published snapshot of the coordinator's metrics registry —
    /// `None` when metrics are disabled in the engine config.
    pub metrics: Option<MetricsSnapshot>,
}

impl ShardReport {
    /// The report of a coordinator: everything derived from placement
    /// is read off its `router`, the rest is the coordinator's own.
    pub(crate) fn new(
        router: &ShardRouter,
        threads: usize,
        rebalances: u64,
        pairs: Vec<PairReport>,
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
            pairs,
            io,
            metrics,
        }
    }

    /// Number of shard-pair engines in the join plan (≤ K², strictly
    /// less when the policy prunes pairs).
    #[must_use]
    pub fn engine_count(&self) -> usize {
        self.pairs.len()
    }

    /// Traversal counters summed over every shard-pair engine.
    #[must_use]
    pub fn total_counters(&self) -> JoinCounters {
        self.pairs
            .iter()
            .fold(JoinCounters::new(), |acc, p| acc.merged(p.counters))
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
        for p in &self.pairs {
            writeln!(
                f,
                "  pair ({}, {}): node_pairs={} emitted={}",
                p.shard_a, p.shard_b, p.counters.node_pairs, p.counters.pairs_emitted
            )?;
        }
        let totals = self.total_counters();
        writeln!(
            f,
            "totals: node_pairs={} comparisons={} emitted={}",
            totals.node_pairs, totals.entry_comparisons, totals.pairs_emitted
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
