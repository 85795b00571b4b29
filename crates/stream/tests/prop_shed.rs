//! Property test for load shedding: random arrival schedules and random
//! queue geometries, instead of the fixed two-wave driver of
//! `shed_lockstep.rs`.
//!
//! For any schedule through a small queue, the post-tick result set
//! equals an oracle whose queue never closes, fed exactly the accepted
//! submissions, and the conservation ledger balances: `accepted ==
//! applied + shed_dropped_stale` once the queue drains.
//!
//! The test uses [`common::ChainedGen`]'s candidate/commit protocol: a
//! refused candidate is dropped with the object's update chain intact,
//! so the oracle and the shed service always see per-object chains the
//! engine can apply.

mod common;

use cij_core::EngineConfig;
use cij_geom::Time;
use cij_obs::validate_prometheus;
use cij_stream::{IngestOutcome, StreamConfig, StreamService};
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
    capacity: usize,
    a: &[cij_workload::MovingObject],
    b: &[cij_workload::MovingObject],
) -> StreamService {
    let config = StreamConfig::builder()
        .engine(EngineConfig::builder().threads(1).metrics(true).build())
        .batch_capacity(capacity)
        .outbox_capacity(1 << 16)
        .build();
    let factory = mtb_factory();
    StreamService::new(config, a, b, 0.0, &factory).unwrap()
}

/// A random arrival schedule: per tick, a wave of object indices (drawn
/// with repetition, so same-object supersession happens organically).
fn arb_schedule() -> impl Strategy<Value = Vec<Vec<usize>>> {
    vec(vec(0usize..1000, 0..30), 6..12)
}

/// Queue capacity (the watermarks follow at 3/4 and 1/2 of it), small
/// enough that dense waves saturate it.
fn arb_capacity() -> impl Strategy<Value = usize> {
    8usize..36
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random schedules through a small queue: after every tick's drain
    /// the shed service's result set is bit-identical to an unbounded
    /// oracle fed exactly the accepted submissions, and the ledger
    /// `accepted == applied + shed` balances.
    #[test]
    fn drop_stale_post_tick_equality_holds_for_random_schedules(
        schedule in arb_schedule(),
        capacity in arb_capacity(),
        seed in any::<u64>(),
    ) {
        let params = small_params(seed);
        let (a, b) = generate_pair(&params, 0.0);
        let mut oracle = service(1 << 16, &a, &b);
        let mut shed = service(capacity, &a, &b);
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
}
