//! Property tests for the load-shedding policies: random arrival
//! schedules and random queue geometries, instead of the fixed two-wave
//! driver of `shed_lockstep.rs`.
//!
//! * **`DropStalePerObject`** — for any schedule, the post-tick result
//!   set equals a policy-less oracle fed exactly the accepted
//!   submissions, and the conservation ledger balances:
//!   `accepted == applied + shed_dropped_stale` once the queue drains.
//! * **`DegradeToResync`** — the `Gap` markers an `All` subscriber
//!   observes are *exact*: a degraded window spans exactly one
//!   `advance_to` call (the drain that empties the queue also closes
//!   the window), so each `Gap.dropped` must equal that call's emitted
//!   delta count, and the cij-obs gap/engage/resync counters must agree
//!   with the markers to the last unit.
//!
//! Both tests use [`common::ChainedGen`]'s candidate/commit protocol:
//! a refused candidate is dropped with the object's update chain
//! intact, so the oracle and the shed service always see per-object
//! chains the engine can apply.

mod common;

use cij_core::EngineConfig;
use cij_geom::Time;
use cij_obs::validate_prometheus;
use cij_stream::{
    IngestOutcome, OutboxItem, ShedPolicy, StreamConfig, StreamService, SubscriptionFilter,
};
use cij_workload::{generate_pair, Params};
use proptest::collection::vec;
use proptest::prelude::*;

use common::{mtb_factory, ChainedGen};

fn small_params(seed: u64) -> Params {
    Params {
        dataset_size: 60,
        space: 200.0,
        object_size_pct: 1.0,
        seed,
        ..Params::default()
    }
}

fn service(
    policy: ShedPolicy,
    capacity: usize,
    high: usize,
    low: usize,
    a: &[cij_workload::MovingObject],
    b: &[cij_workload::MovingObject],
) -> StreamService {
    let config = StreamConfig::builder()
        .engine(EngineConfig::builder().threads(1).metrics(true).build())
        .batch_capacity(capacity)
        .high_watermark(high)
        .low_watermark(low)
        .outbox_capacity(1 << 16)
        .shed_policy(policy)
        .build();
    let factory = mtb_factory();
    StreamService::new(config, a, b, 0.0, &factory).unwrap()
}

/// A random arrival schedule: per tick, a wave of object indices (drawn
/// with repetition, so same-object supersession happens organically).
fn arb_schedule() -> impl Strategy<Value = Vec<Vec<usize>>> {
    vec(vec(0usize..1000, 0..30), 6..12)
}

/// Queue geometry: capacity with the conventional 3/4 high and 1/2 low
/// watermarks, small enough that dense waves saturate it.
fn arb_geometry() -> impl Strategy<Value = (usize, usize, usize)> {
    (8usize..36).prop_map(|cap| (cap, (cap * 3 / 4).max(1), cap / 2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random schedules under `DropStalePerObject`: after every tick's
    /// drain the shed service's result set is bit-identical to an
    /// unbounded oracle fed exactly the accepted submissions, and the
    /// ledger `accepted == applied + shed` balances.
    #[test]
    fn drop_stale_post_tick_equality_holds_for_random_schedules(
        schedule in arb_schedule(),
        geometry in arb_geometry(),
        seed in any::<u64>(),
    ) {
        let (capacity, high, low) = geometry;
        let params = small_params(seed);
        let (a, b) = generate_pair(&params, 0.0);
        let mut oracle = service(ShedPolicy::None, 1 << 16, 1 << 15, 1 << 14, &a, &b);
        let mut shed = service(ShedPolicy::DropStalePerObject, capacity, high, low, &a, &b);
        let mut gen = ChainedGen::new(&params, &a, &b, 0.0);
        let mut accepted = 0u64;
        for (t, wave) in schedule.iter().enumerate() {
            let now = Time::from(t as u32 + 1);
            for (j, &raw) in wave.iter().enumerate() {
                // Strictly increasing sub-ticks inside the wave, all
                // within (now - 1, now]: supersession stays admissible
                // and the tick's drain clears everything.
                let at = now - 0.9 + 0.9 * (j as f64 + 1.0) / (wave.len() as f64 + 1.0);
                let u = gen.candidate(raw, (t * 31 + j) as u64, at);
                match shed.submit(u, at) {
                    IngestOutcome::Accepted => {
                        gen.commit(&u, at);
                        accepted += 1;
                        prop_assert_eq!(
                            oracle.submit(u, at),
                            IngestOutcome::Accepted,
                            "oracle refused an update the shed service accepted"
                        );
                    }
                    // Refused: drop the candidate, chain intact.
                    IngestOutcome::QueueFull | IngestOutcome::Stale => {}
                }
            }
            oracle.advance_to(now).unwrap();
            shed.advance_to(now).unwrap();
            prop_assert_eq!(shed.queue_len(), 0, "drain must empty the queue");
            prop_assert_eq!(
                shed.result_at(now),
                oracle.result_at(now),
                "post-tick results diverge at t={}", now
            );
        }
        prop_assert_eq!(oracle.shed_dropped_stale(), 0);
        let snap = shed.metrics_snapshot();
        // Shed counters and latency histograms reach a well-formed
        // exposition.
        prop_assert_eq!(validate_prometheus(&snap.to_prometheus()).err(), None);
        let applied = snap
            .histogram("stream.ingest.latency_ns")
            .map_or(0, |h| h.count);
        prop_assert_eq!(
            accepted,
            applied + shed.shed_dropped_stale(),
            "conservation: accepted != applied + shed"
        );
    }

    /// Random schedules under `DegradeToResync`: every `Gap` marker the
    /// `All` subscriber sees carries *exactly* the delta count of the
    /// one degraded `advance_to` call it stands for, and the cij-obs
    /// counters (`degrade.engaged`, `degrade.resyncs`,
    /// `subscribers.dropped_deltas`) agree with the markers.
    #[test]
    fn degrade_gap_counters_are_exact_for_random_schedules(
        schedule in arb_schedule(),
        geometry in arb_geometry(),
        seed in any::<u64>(),
    ) {
        let (capacity, high, low) = geometry;
        let params = small_params(seed);
        let (a, b) = generate_pair(&params, 0.0);
        let mut svc = service(ShedPolicy::DegradeToResync, capacity, high, low, &a, &b);
        let sub = svc.subscribe(SubscriptionFilter::All).unwrap();
        svc.poll(sub); // drain the initial catch-up snapshot
        let mut gen = ChainedGen::new(&params, &a, &b, 0.0);
        let mut expected_gaps: Vec<u64> = Vec::new();
        let mut observed_gaps: Vec<u64> = Vec::new();
        for (t, wave) in schedule.iter().enumerate() {
            let now = Time::from(t as u32 + 1);
            for (j, &raw) in wave.iter().enumerate() {
                let at = now - 0.9 + 0.9 * (j as f64 + 1.0) / (wave.len() as f64 + 1.0);
                let u = gen.candidate(raw, (t * 31 + j) as u64, at);
                if svc.submit(u, at) == IngestOutcome::Accepted {
                    gen.commit(&u, at);
                }
            }
            let was_degraded = svc.is_degraded();
            let deltas = svc.advance_to(now).unwrap();
            // The drain empties the queue, so the window that opened
            // this tick must close within this very advance call.
            prop_assert!(!svc.is_degraded(), "window must close with the drain");
            let items = svc.poll(sub).unwrap();
            if was_degraded {
                expected_gaps.push(deltas.len() as u64);
                // A Gap marker leads the outbox iff deliveries were
                // actually suppressed; a degraded window with zero
                // emitted deltas leaves no marker (and owes none).
                let gap = match items.first() {
                    Some(OutboxItem::Gap { dropped }) => *dropped,
                    _ => 0,
                };
                observed_gaps.push(gap);
                // After the Gap, the reseed snapshot: one PairAdded per
                // currently reported pair.
                let lead = usize::from(gap > 0);
                prop_assert_eq!(
                    items.len() - lead,
                    svc.result_at(now).len(),
                    "reseed snapshot size mismatch at t={}", now
                );
            } else {
                prop_assert!(
                    !items.iter().any(|i| matches!(i, OutboxItem::Gap { .. })),
                    "spurious Gap outside a degraded window at t={}", now
                );
                prop_assert_eq!(items.len(), deltas.len());
            }
        }
        prop_assert_eq!(&observed_gaps, &expected_gaps, "Gap sizes must be exact");
        let snap = svc.metrics_snapshot();
        let windows = expected_gaps.len() as u64;
        prop_assert_eq!(snap.counter("stream.degrade.engaged"), Some(windows));
        prop_assert_eq!(snap.counter("stream.degrade.resyncs"), Some(windows));
        prop_assert_eq!(
            snap.counter("stream.subscribers.dropped_deltas"),
            Some(expected_gaps.iter().sum::<u64>()),
            "gap ledger must match the cij-obs counter"
        );
    }
}
