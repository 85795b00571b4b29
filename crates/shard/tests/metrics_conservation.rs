//! Shard-axis counter conservation: the coordinator's unified
//! [`MetricsSnapshot`] (carried on [`ShardReport::metrics`]) must agree
//! bit-exactly with the legacy report fields — aggregated traversal
//! counters, merged page-format totals, shared-pool I/O, migrations, and
//! the per-pair / per-shard breakdowns — at K = 1, 2 and 4. The
//! per-engine × thread axis of the same guarantee lives in
//! `crates/core/tests/metrics_conservation.rs`.

use std::sync::Arc;

use cij_core::{ContinuousJoinEngine, EngineConfig, MtbEngine};
use cij_geom::Time;
use cij_obs::validate_prometheus;
use cij_shard::{ShardCoordinator, VelocityBandPolicy};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_workload::{generate_pair, Distribution, Params, UpdateStream};

fn params(seed: u64) -> Params {
    Params {
        dataset_size: 150,
        distribution: Distribution::VelocitySkew,
        seed,
        space: 300.0,
        object_size_pct: 1.0,
        maximum_update_interval: 20.0,
        ..Params::default()
    }
}

#[test]
fn shard_report_metrics_match_legacy_fields_bit_exactly() {
    let p = params(11);
    for k in [1usize, 2, 4] {
        let pool = BufferPool::new(
            Arc::new(InMemoryStore::new()),
            BufferPoolConfig::with_capacity(1024),
        );
        let config = EngineConfig {
            t_m: p.maximum_update_interval,
            metrics: true,
            ..EngineConfig::default()
        };
        let (a, b) = generate_pair(&p, 0.0);
        let mut coord = ShardCoordinator::with_factory(
            pool,
            config,
            Arc::new(VelocityBandPolicy::new(k, p.max_speed)),
            &a,
            &b,
            0.0,
            Arc::new(|pool, cfg, sa, sb, now| {
                Ok(Box::new(MtbEngine::new(pool, *cfg, sa, sb, now)?))
            }),
        )
        .expect("coordinator");
        coord.run_initial_join(0.0).expect("initial join");
        let mut stream = UpdateStream::new(&p, &a, &b, 0.0);
        for tick in 1..=30u32 {
            let now = Time::from(tick);
            let updates = stream.tick(now);
            coord.advance_time(now).expect("advance");
            coord.apply_batch(&updates, now).expect("batch");
            coord.gc(now);
        }

        let report = coord.report();
        let tag = format!("K={k}");
        let snap = report
            .metrics
            .clone()
            .unwrap_or_else(|| panic!("{tag}: metrics-on coordinator must snapshot"));

        // Aggregated traversal counters.
        let totals = report.total_counters();
        for (name, legacy) in [
            ("join.node_pairs", totals.node_pairs),
            ("join.entry_comparisons", totals.entry_comparisons),
            ("join.ic_pruned", totals.ic_pruned),
            ("join.pairs_emitted", totals.pairs_emitted),
        ] {
            assert_eq!(snap.counter(name), Some(legacy), "{tag}: {name} drifted");
        }

        // Page-format totals merged over every shard-pair engine.
        let page = coord
            .page_format_snapshot()
            .unwrap_or_else(|| panic!("{tag}: TPR engines must report page-format totals"));
        assert_eq!(
            snap.counter("storage.page.zero_copy_reads"),
            Some(page.zero_copy_reads),
            "{tag}: storage.page.zero_copy_reads drifted"
        );
        assert!(page.zero_copy_reads > 0, "{tag}: no node was read");

        // Shared-pool I/O (live registered views).
        for (name, legacy) in [
            ("storage.pool.physical_reads", report.io.physical_reads),
            ("storage.pool.physical_writes", report.io.physical_writes),
            ("storage.pool.logical_reads", report.io.logical_reads),
            ("storage.pool.logical_writes", report.io.logical_writes),
            ("storage.pool.allocations", report.io.allocations),
            ("storage.pool.frees", report.io.frees),
        ] {
            assert_eq!(snap.counter(name), Some(legacy), "{tag}: {name} drifted");
        }

        // Coordinator telemetry: migrations, shard count, populations.
        assert_eq!(
            snap.counter("shard.migrations"),
            Some(report.migrations),
            "{tag}: migrations drifted"
        );
        assert_eq!(
            snap.gauge("shard.engines"),
            Some(report.engine_count() as i64),
            "{tag}: engine count drifted"
        );
        for (i, (pa, pb)) in report
            .population_a
            .iter()
            .zip(&report.population_b)
            .enumerate()
        {
            assert_eq!(
                snap.gauge(&format!("shard.population.a.{i}")),
                Some(*pa as i64),
                "{tag}: shard {i} population A drifted"
            );
            assert_eq!(
                snap.gauge(&format!("shard.population.b.{i}")),
                Some(*pb as i64),
                "{tag}: shard {i} population B drifted"
            );
        }

        // Per-pair breakdown: one counter pair per shard-pair engine.
        for pr in &report.pairs {
            let prefix = format!("shard.pair.{}_{}", pr.shard_a, pr.shard_b);
            assert_eq!(
                snap.counter(&format!("{prefix}.node_pairs")),
                Some(pr.counters.node_pairs),
                "{tag}: {prefix}.node_pairs drifted"
            );
            assert_eq!(
                snap.counter(&format!("{prefix}.pairs_emitted")),
                Some(pr.counters.pairs_emitted),
                "{tag}: {prefix}.pairs_emitted drifted"
            );
        }

        // The coordinator owns telemetry: no double counting from inner
        // engines (their registries are disabled).
        assert!(
            !coord.metrics_registry().snapshot().is_empty(),
            "{tag}: coordinator registry empty"
        );
    }
}

/// Re-partitioning must keep the metrics view conserved: rebalance
/// counters track the coordinator's own tallies, population gauges sum
/// to the datasets under the *new* K, and names from the retired
/// topology (higher shard indices, dropped pairs) read zero rather than
/// lingering at their last pre-rebalance values.
#[test]
fn rebalance_keeps_metrics_conserved_and_zeroes_stale_names() {
    let p = params(13);
    let pool = BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(1024),
    );
    let config = EngineConfig {
        t_m: p.maximum_update_interval,
        metrics: true,
        ..EngineConfig::default()
    };
    let (a, b) = generate_pair(&p, 0.0);
    let factory: cij_shard::SharedShardEngineFactory =
        Arc::new(|pool, cfg, sa, sb, now| Ok(Box::new(MtbEngine::new(pool, *cfg, sa, sb, now)?)));
    let mut coord = ShardCoordinator::with_factory(
        pool,
        config,
        Arc::new(VelocityBandPolicy::new(2, p.max_speed)),
        &a,
        &b,
        0.0,
        factory,
    )
    .expect("coordinator");
    coord.run_initial_join(0.0).expect("initial join");

    let mut stream = UpdateStream::new(&p, &a, &b, 0.0);
    let mut run = |coord: &mut ShardCoordinator, from: u32, to: u32| {
        for tick in from..=to {
            let now = Time::from(tick);
            let updates = stream.tick(now);
            coord.advance_time(now).expect("advance");
            coord.apply_batch(&updates, now).expect("batch");
            coord.gc(now);
        }
    };

    run(&mut coord, 1, 10);
    let moved_split = coord
        .rebalance_to(
            Arc::new(VelocityBandPolicy::new(4, p.max_speed)),
            Time::from(10u32),
        )
        .expect("split");
    run(&mut coord, 11, 20);

    let snap = coord.report().metrics.expect("metrics-on snapshot");
    assert_eq!(snap.counter("shard.rebalances"), Some(1));
    assert_eq!(
        snap.counter("shard.rebalance.moved_objects"),
        Some(moved_split as u64)
    );
    let pop = |snap: &cij_obs::MetricsSnapshot, side: char, i: usize| {
        snap.gauge(&format!("shard.population.{side}.{i}"))
            .unwrap_or_else(|| panic!("population.{side}.{i} missing"))
    };
    let total_a: i64 = (0..4).map(|i| pop(&snap, 'a', i)).sum();
    let total_b: i64 = (0..4).map(|i| pop(&snap, 'b', i)).sum();
    assert_eq!(total_a, a.len() as i64);
    assert_eq!(total_b, b.len() as i64);

    let moved_merge = coord
        .rebalance_to(
            Arc::new(VelocityBandPolicy::new(2, p.max_speed)),
            Time::from(20u32),
        )
        .expect("merge");
    run(&mut coord, 21, 30);

    let snap = coord.report().metrics.expect("metrics-on snapshot");
    // The exposition of the rebalanced coordinator — per-pair and
    // per-shard names of both topologies included — parses cleanly.
    validate_prometheus(&snap.to_prometheus()).expect("exposition");
    assert_eq!(snap.counter("shard.rebalances"), Some(2));
    assert_eq!(
        snap.counter("shard.rebalance.moved_objects"),
        Some((moved_split + moved_merge) as u64)
    );
    // Shards 2 and 3 are gone: their gauges must read zero, and the
    // surviving two must again account for every object.
    for i in 2..4 {
        assert_eq!(pop(&snap, 'a', i), 0, "stale shard {i} gauge lingered");
        assert_eq!(pop(&snap, 'b', i), 0, "stale shard {i} gauge lingered");
    }
    assert_eq!(pop(&snap, 'a', 0) + pop(&snap, 'a', 1), a.len() as i64);
    assert_eq!(pop(&snap, 'b', 0) + pop(&snap, 'b', 1), b.len() as i64);
    assert_eq!(snap.gauge("shard.engines"), Some(4));
    // Retired pair counters (any index touching shard 2 or 3) read zero.
    for (i, j) in [(0usize, 2usize), (2, 0), (3, 3), (1, 2)] {
        for metric in ["node_pairs", "pairs_emitted"] {
            if let Some(v) = snap.counter(&format!("shard.pair.{i}_{j}.{metric}")) {
                assert_eq!(v, 0, "stale pair ({i},{j}) {metric} lingered");
            }
        }
    }
}

#[test]
fn metrics_off_coordinator_reports_no_snapshot() {
    let p = params(12);
    let pool = BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(512),
    );
    let config = EngineConfig {
        t_m: p.maximum_update_interval,
        ..EngineConfig::default()
    };
    let (a, b) = generate_pair(&p, 0.0);
    let mut coord = ShardCoordinator::with_factory(
        pool,
        config,
        Arc::new(VelocityBandPolicy::new(2, p.max_speed)),
        &a,
        &b,
        0.0,
        Arc::new(|pool, cfg, sa, sb, now| Ok(Box::new(MtbEngine::new(pool, *cfg, sa, sb, now)?))),
    )
    .expect("coordinator");
    coord.run_initial_join(0.0).expect("initial join");
    let report = coord.report();
    assert!(
        report.metrics.is_none(),
        "metrics-off report carried a snapshot"
    );
    assert!(!coord.metrics_registry().is_enabled());
}
