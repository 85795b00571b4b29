//! End-to-end tour of the `cij-stream` service: ingestion with
//! backpressure, result-delta subscriptions with filters, WAL
//! crash recovery, and the unified metrics snapshot.
//!
//! The demo checks itself and exits non-zero on a mismatch: the
//! all-pairs subscriber's replayed deltas must equal `result_at` at the
//! last tick, and so must the service recovered from the journal.
//!
//! Run with `cargo run --release --example stream_demo`.

use std::collections::BTreeSet;
use std::sync::Arc;

use cij::core::PairKey;
use cij::core::{ContinuousJoinEngine, EngineConfig, MtbEngine};
use cij::geom::Rect;
use cij::storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij::stream::{
    IngestOutcome, OutboxItem, ResultDelta, StreamConfig, StreamService, SubscriberId,
    SubscriptionFilter,
};
use cij::tpr::TprResult;
use cij::workload::{generate_pair, MovingObject, Params, UpdateStream};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Params {
        dataset_size: 300,
        space: 300.0,
        object_size_pct: 1.0,
        ..Params::default()
    };
    let (set_a, set_b) = generate_pair(&params, 0.0);

    // Any engine plugs in through a factory; recovery reuses the same
    // factory to rebuild the identical engine from the journaled
    // genesis sets.
    let factory = |config: &EngineConfig,
                   a: &[MovingObject],
                   b: &[MovingObject],
                   start: f64|
     -> TprResult<Box<dyn ContinuousJoinEngine>> {
        let pool = BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default());
        Ok(Box::new(MtbEngine::new(pool, *config, a, b, start)?))
    };

    let wal_path = std::env::temp_dir().join("cij-stream-demo.wal");
    let config = StreamConfig::builder()
        .engine(EngineConfig::builder().metrics(true).build())
        .batch_capacity(4096)
        .outbox_capacity(256)
        .wal_path(wal_path.clone())
        .build();
    let mut service = StreamService::new(config.clone(), &set_a, &set_b, 0.0, &factory)?;
    println!(
        "service over {} engine, journaling to {}",
        service.engine_name(),
        wal_path.display()
    );

    // Two subscribers: one wants everything, one only cares about a
    // 60×60 neighbourhood (the continuous-window-query predicate).
    let all = service.subscribe(SubscriptionFilter::All)?;
    let corner = service.subscribe(SubscriptionFilter::Window(Rect::new(
        [0.0, 0.0],
        [60.0, 60.0],
    )))?;

    // The all-pairs subscriber polls every tick and replays its
    // deliveries; its 256-item outbox never overflows at this rate.
    let mut replayed = BTreeSet::new();
    let mut stream = UpdateStream::new(&params, &set_a, &set_b, 0.0);
    let mut accepted = 0u64;
    let last_tick = 30.0;
    for tick in 1..=30 {
        let now = f64::from(tick);
        for update in stream.tick(now) {
            match service.submit(update, now) {
                IngestOutcome::Accepted => accepted += 1,
                // A saturated queue is a signal, not an error: back off
                // and resubmit after the next advance.
                outcome => println!("  t={now}: backpressure ({outcome:?})"),
            }
        }
        let deltas = service.advance_to(now)?;
        replay(&mut service, all, &mut replayed);
        let adds = deltas.iter().filter(|d| d.delta.is_add()).count();
        if tick % 10 == 0 {
            println!(
                "t={now:>4}: {:>3} pairs reported, +{adds} -{} this tick",
                service.reported_pairs(),
                deltas.len() - adds,
            );
        }
    }
    println!("{accepted} updates ingested over 30 ticks");

    let expected = service.result_at(last_tick);
    let replayed: Vec<PairKey> = replayed.into_iter().collect();
    assert_eq!(
        replayed, expected,
        "the all-pairs subscriber's replay diverged from result_at"
    );
    println!(
        "subscriber     all-pairs: replay ≡ result_at ({} pairs)",
        expected.len()
    );

    let items = service.poll(corner).expect("known subscriber");
    let (mut added, mut removed, mut gaps) = (0u64, 0u64, 0u64);
    for item in items {
        match item {
            OutboxItem::Delta(d) => match d.delta {
                ResultDelta::PairAdded { .. } => added += 1,
                ResultDelta::PairRemoved { .. } => removed += 1,
            },
            OutboxItem::Gap { dropped } => gaps += dropped,
        }
    }
    println!("subscriber corner-window: +{added} -{removed} (gap: {gaps} dropped)");

    // The unified observability view: one snapshot spanning the engine
    // (join counters, pool I/O), the WAL, and the service's own queue
    // and subscriber metrics — here in Prometheus text exposition.
    let snapshot = service.metrics_snapshot();
    println!("\nmetrics snapshot ({} counters):", snapshot.counters.len());
    print!("{}", snapshot.to_prometheus());

    // Simulate a crash: drop the service, then rebuild from the WAL.
    drop(service);
    let (recovered, report) = StreamService::recover(config, &factory)?;
    println!(
        "recovered to t={} ({} batches replayed, {} subscribers, torn tail: {})",
        report.last_tick, report.batches_replayed, report.subscribers, report.tail_truncated
    );
    let _ = std::fs::remove_file(&wal_path);
    assert_eq!(
        recovered.result_at(last_tick),
        expected,
        "the recovered service diverged from the one that crashed"
    );
    println!(
        "recovered answer at t={last_tick}: {} pairs ≡ pre-crash",
        expected.len()
    );
    Ok(())
}

/// Polls `id` and applies its deliveries to `replayed`: an addition of a
/// held pair, a removal of an absent one or a gap fails the demo.
fn replay(service: &mut StreamService, id: SubscriberId, replayed: &mut BTreeSet<PairKey>) {
    for item in service.poll(id).expect("known subscriber") {
        match item {
            OutboxItem::Delta(d) => match d.delta {
                ResultDelta::PairAdded { pair, .. } => assert!(replayed.insert(pair), "{d:?}"),
                ResultDelta::PairRemoved { pair } => assert!(replayed.remove(&pair), "{d:?}"),
            },
            OutboxItem::Gap { dropped } => panic!("{dropped} deliveries lost"),
        }
    }
}
