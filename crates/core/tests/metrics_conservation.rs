//! Counter conservation: the unified [`MetricsSnapshot`] must agree
//! **bit-exactly** with the legacy per-subsystem stats the engines have
//! always reported — `counters()` (traversal work) and `pool().stats()`
//! (buffer-pool I/O). The metrics layer is a second window onto the same
//! atomics, never a second bookkeeping path that can drift; and
//! `page_format_snapshot()`'s zero-copy reads are the pool's logical
//! reads, not a count of their own.
//!
//! Covers every engine at 1 and 4 join threads (the shard-K axis of the
//! same guarantee lives in `crates/shard/tests/metrics_conservation.rs`),
//! plus the disabled path: an engine built without `metrics` must hand
//! out a registry whose snapshot is empty.

use std::sync::Arc;

use cij_core::{ContinuousJoinEngine, EngineConfig, EtpEngine, MtbEngine, TcEngine};
use cij_geom::Time;
use cij_obs::validate_prometheus;
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_workload::{generate_pair, Distribution, Params, UpdateStream};

fn pool() -> BufferPool {
    BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(256),
    )
}

fn params(seed: u64) -> Params {
    Params {
        dataset_size: 120,
        distribution: Distribution::Uniform,
        seed,
        space: 200.0,
        object_size_pct: 1.0,
        ..Params::default()
    }
}

const ENGINES: [&str; 3] = ["tc", "etp", "mtb"];

fn build(kind: &str, config: EngineConfig, p: &Params) -> Box<dyn ContinuousJoinEngine> {
    let (a, b) = generate_pair(p, 0.0);
    let pool = pool();
    match kind {
        "tc" => Box::new(TcEngine::new(pool, config, &a, &b, 0.0).expect("tc")),
        "etp" => Box::new(EtpEngine::new(pool, config, &a, &b, 0.0).expect("etp")),
        "mtb" => Box::new(MtbEngine::new(pool, config, &a, &b, 0.0).expect("mtb")),
        other => panic!("unknown engine kind {other}"),
    }
}

fn drive(engine: &mut Box<dyn ContinuousJoinEngine>, p: &Params, ticks: u32) {
    let (a, b) = generate_pair(p, 0.0);
    let mut stream = UpdateStream::new(p, &a, &b, 0.0);
    engine.run_initial_join(0.0).expect("initial join");
    for tick in 1..=ticks {
        let now = Time::from(tick);
        let updates = stream.tick(now);
        engine.advance_time(now).expect("advance");
        for u in &updates {
            engine.apply_update(u, now).expect("update");
        }
        engine.gc(now);
    }
}

#[test]
fn snapshot_totals_match_legacy_stats_bit_exactly() {
    let p = params(71);
    for kind in ENGINES {
        for threads in [1usize, 4] {
            let config = EngineConfig::builder()
                .threads(threads)
                .metrics(true)
                .build();
            let mut engine = build(kind, config, &p);
            drive(&mut engine, &p, 40);

            engine.publish_metrics();
            let snap = engine.metrics_registry().snapshot();
            let tag = format!("{kind} (threads={threads})");

            // Traversal counters.
            let counters = engine.counters();
            for (name, legacy) in [
                ("join.node_pairs", counters.node_pairs),
                ("join.entry_comparisons", counters.entry_comparisons),
                ("join.ic_pruned", counters.ic_pruned),
                ("join.pairs_emitted", counters.pairs_emitted),
            ] {
                assert_eq!(snap.counter(name), Some(legacy), "{tag}: {name} drifted");
            }

            // Buffer-pool I/O: registered live views over the same atomics.
            let io = engine.pool().stats().snapshot();
            for (name, legacy) in [
                ("storage.pool.physical_reads", io.physical_reads),
                ("storage.pool.physical_writes", io.physical_writes),
                ("storage.pool.logical_reads", io.logical_reads),
                ("storage.pool.logical_writes", io.logical_writes),
                ("storage.pool.allocations", io.allocations),
                ("storage.pool.frees", io.frees),
            ] {
                assert_eq!(snap.counter(name), Some(legacy), "{tag}: {name} drifted");
            }
            assert!(io.logical_writes > 0, "{tag}: pool saw no writes");

            // Every node read went through the zero-copy view, and is one
            // logical read of the pool: no second count is published.
            let page = engine.page_format_snapshot().expect("the stopgap");
            assert_eq!(page.zero_copy_reads, io.logical_reads, "{tag}");
            assert!(page.zero_copy_reads > 0, "{tag}: no node was read");
            assert_eq!(page.decode_fallbacks, 0, "{tag}");
            assert_eq!(snap.counter("storage.page.zero_copy_reads"), None, "{tag}");

            // The exposition of the same snapshot parses cleanly.
            let samples =
                validate_prometheus(&snap.to_prometheus()).unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert!(samples > 0, "{tag}: empty exposition");
        }
    }
}

/// The zero-copy read count is a counter: it never falls, and it is the
/// pool's logical reads however many MTB bucket trees have come and gone.
/// 200 ticks at `T_M = 60` drop the buckets of the first 140 ticks,
/// whose node reads a sum over the live buckets would lose.
#[test]
fn zero_copy_reads_stay_the_pools_logical_reads_as_buckets_drop() {
    let p = params(75);
    let (a, b) = generate_pair(&p, 0.0);
    let mut engine = build("mtb", EngineConfig::default(), &p);
    let mut stream = UpdateStream::new(&p, &a, &b, 0.0);
    engine.run_initial_join(0.0).expect("initial join");
    let mut last = 0;
    for tick in 1..=200u32 {
        let now = Time::from(tick);
        engine.advance_time(now).expect("advance");
        engine.apply_batch(&stream.tick(now), now).expect("tick");
        engine.gc(now);
        let reads = engine.page_format_snapshot().expect("the stopgap");
        let logical = engine.pool().stats().snapshot().logical_reads;
        assert_eq!(reads.zero_copy_reads, logical, "tick {tick}");
        assert!(reads.zero_copy_reads >= last, "tick {tick}: the count fell");
        last = reads.zero_copy_reads;
    }
}

/// Maintenance is traversal work too: the TC and MTB engines' batched
/// probes feed the same `JoinCounters` as the initial join, so the
/// totals keep moving after it and reach the published `join.*` series.
#[test]
fn maintenance_probes_feed_the_join_counters() {
    let p = params(74);
    for kind in ["tc", "mtb"] {
        let config = EngineConfig::builder().metrics(true).build();
        // `drive` starts with the initial join: zero ticks is that alone.
        let mut idle = build(kind, config, &p);
        drive(&mut idle, &p, 0);
        let initial = idle.counters();
        let mut engine = build(kind, config, &p);
        drive(&mut engine, &p, 20);
        let total = engine.counters();
        assert!(total.node_pairs > initial.node_pairs, "{kind}: node_pairs");
        assert!(
            total.entry_comparisons > initial.entry_comparisons,
            "{kind}: entry_comparisons"
        );
        assert!(total.ic_pruned > initial.ic_pruned, "{kind}: ic_pruned");
        assert!(
            total.pairs_emitted > initial.pairs_emitted,
            "{kind}: pairs_emitted"
        );
        engine.publish_metrics();
        let snap = engine.metrics_registry().snapshot();
        assert_eq!(snap.counter("join.node_pairs"), Some(total.node_pairs));
    }
}

#[test]
fn snapshot_names_are_sorted_and_stable_across_runs() {
    let p = params(72);
    let build_names = || {
        let config = EngineConfig::builder().metrics(true).build();
        let mut engine = build("mtb", config, &p);
        drive(&mut engine, &p, 20);
        engine.publish_metrics();
        let snap = engine.metrics_registry().snapshot();
        let names: Vec<String> = snap.counters.iter().map(|(n, _)| n.clone()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "counters are not name-sorted");
        names
    };
    assert_eq!(build_names(), build_names(), "metric name set is unstable");
}

#[test]
fn disabled_engines_expose_an_empty_registry() {
    let p = params(73);
    for kind in ENGINES {
        let mut engine = build(kind, EngineConfig::default(), &p);
        drive(&mut engine, &p, 10);
        engine.publish_metrics();
        let registry = engine.metrics_registry();
        assert!(!registry.is_enabled(), "{kind}: metrics default to off");
        assert!(
            registry.snapshot().is_empty(),
            "{kind}: disabled registry recorded something"
        );
    }
}
