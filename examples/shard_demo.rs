//! Tour of the `cij-shard` coordinator: four velocity-band shards, one
//! MTB index pair per shard with every object filed in exactly one of
//! them, cross-shard migration routing, a move-only rebalance, the
//! result-delta changelog, and the aggregated counter/I-O report.
//!
//! The demo checks itself and exits non-zero on a mismatch: at every
//! tick the answer must equal the brute-force intersection set, the
//! changelog must name every pair that joined or left it, and the
//! rebalance must leave the answer and the traversal counters alone.
//!
//! Run with `cargo run --release --example shard_demo`.

use std::collections::BTreeSet;
use std::sync::Arc;

use cij::core::{ContinuousJoinEngine, EngineConfig, MtbPair, PairKey};
use cij::join::brute::brute_pairs_at;
use cij::shard::{ShardCoordinator, VelocityBandPolicy};
use cij::storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij::tpr::TprResult;
use cij::workload::{generate_pair, Distribution, Params, SetTag, UpdateStream};

fn main() -> TprResult<()> {
    // The skewed-velocity workload: 20% of objects near top speed, the
    // rest slow — the regime velocity banding is built for.
    let params = Params {
        dataset_size: 400,
        distribution: Distribution::VelocitySkew,
        maximum_update_interval: 20.0,
        space: 500.0,
        object_size_pct: 1.0,
        ..Params::default()
    };
    let (set_a, set_b) = generate_pair(&params, 0.0);

    let pool = BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(4096),
    );
    let config = EngineConfig {
        t_m: params.maximum_update_interval,
        threads: 4,
        metrics: true, // so the report carries a registry snapshot
        ..EngineConfig::default()
    };

    let policy = Arc::new(VelocityBandPolicy::new(4, params.max_speed));
    let mut coordinator =
        ShardCoordinator::<MtbPair>::new(pool, config, policy, &set_a, &set_b, 0.0)?;
    println!(
        "{} over {} velocity bands: {} MTB index pairs",
        coordinator.name(),
        coordinator.shard_count(),
        coordinator.engine_count(),
    );

    // One ResultBuffer behind all partitions, and its changelog — the
    // same feed the cij-stream subscription path consumes. It is a
    // *dirty list*: every pair whose membership may have changed, which
    // the consumer rechecks.
    coordinator.enable_delta_tracking();
    coordinator.run_initial_join(0.0)?;
    let mut stream = UpdateStream::new(&params, &set_a, &set_b, 0.0);
    let mut previous = checked_answer(&coordinator, &stream, 0.0);
    println!(
        "t=   0: initial join reports {} intersecting pairs",
        previous.len()
    );

    let (mut added, mut removed) = (0usize, 0usize);
    for tick in 1..=30u32 {
        let now = f64::from(tick);
        let updates = stream.tick(now);
        coordinator.advance_time(now)?;
        coordinator.apply_batch(&updates, now)?;
        coordinator.gc(now);
        let dirty: BTreeSet<PairKey> = coordinator
            .take_result_changes()
            .expect("delta tracking is on")
            .into_iter()
            .collect();
        let live = checked_answer(&coordinator, &stream, now);
        // True adds and removals: the difference of successive answers.
        let adds = live.difference(&previous).count();
        let removes = previous.difference(&live).count();
        if let Some(missed) = live
            .symmetric_difference(&previous)
            .find(|p| !dirty.contains(p))
        {
            eprintln!("MISMATCH at t={now}: {missed:?} changed but is not in the changelog");
            std::process::exit(1);
        }
        added += adds;
        removed += removes;
        if tick == 15 {
            // Re-partition mid-run into three bands: the slow cluster
            // halved, the fast one on its own. Objects only move between
            // partitions; no probe runs.
            let counters = coordinator.counters();
            let edges = vec![0.15 * params.max_speed, 0.5 * params.max_speed];
            let moved =
                coordinator.rebalance_to(Arc::new(VelocityBandPolicy::from_edges(edges)), now)?;
            if coordinator.counters() != counters
                || checked_answer(&coordinator, &stream, now) != live
            {
                eprintln!("MISMATCH at t={now}: the rebalance moved the answer or probed");
                std::process::exit(1);
            }
            println!(
                "t={now:>4}: rebalanced to {} bands, {moved} objects moved, answer unchanged",
                coordinator.shard_count()
            );
        }
        if tick % 10 == 0 {
            println!(
                "t={now:>4}: {:>3} pairs live, +{adds} -{removes} this tick \
                 ({} dirty pairs in the changelog), {} migrations so far",
                live.len(),
                dirty.len(),
                coordinator.migrations(),
            );
        }
        previous = live;
    }
    println!("answer over 30 ticks: +{added} -{removed} pairs");
    println!("answer ≡ brute-force oracle at every tick through t=30");

    // The aggregated diagnostics: traversal totals, shard populations,
    // and the shared pool's I/O.
    let report = coordinator.report();
    println!("\n{report}");

    // The unified metrics view of the same run — traversal totals,
    // per-shard population gauges, migrations, and the shared pool's live
    // I/O counters — in Prometheus text exposition.
    if let Some(metrics) = &report.metrics {
        println!(
            "\nmetrics snapshot ({} counters, {} gauges):",
            metrics.counters.len(),
            metrics.gauges.len()
        );
        print!("{}", metrics.to_prometheus());
    }
    Ok(())
}

/// The coordinator's answer at `now`, or exit 1 when it is not the
/// brute-force intersection set of the stream's current trajectories.
fn checked_answer(
    coordinator: &ShardCoordinator,
    stream: &UpdateStream,
    now: f64,
) -> BTreeSet<PairKey> {
    let answer = coordinator.result_at(now);
    let expect = brute_pairs_at(
        &stream.snapshot(SetTag::A),
        &stream.snapshot(SetTag::B),
        now,
    );
    if answer != expect {
        eprintln!(
            "MISMATCH at t={now}: coordinator reports {} pairs, brute force {}",
            answer.len(),
            expect.len()
        );
        std::process::exit(1);
    }
    answer.into_iter().collect()
}
