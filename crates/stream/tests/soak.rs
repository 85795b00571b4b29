//! Long-running soak test for the ingest pipeline (`--ignored`; run
//! explicitly with `cargo test -p cij-stream --test soak -- --ignored`).
//!
//! A 10 000-object stream (5 000 per set) runs for 500 ticks at a
//! steady 250 updates/tick, with every 16th tick bursting to 400
//! distinct objects — enough to cross the high watermark, engage
//! backpressure, and exercise supersession while the queue is closed. The test pins the stability properties a soak
//! is for:
//!
//! * **No monotonic queue growth** — every drain empties the queue.
//! * **Backpressure flips are periodic, not cumulative** — exactly one
//!   engage and one release per burst tick, none on steady ticks.
//! * **Conservation** — accepted == applied + shed once drained, with
//!   `applied` read back from the cij-obs ingest-latency histogram.
//! * **No subscriber gaps** — an `All` subscriber polled every tick
//!   never falls behind and replays a strict delta stream.
//!
//! The driver rotates a cursor over the whole population and advances
//! it only past *accepted* submissions, so every object is refreshed
//! at least every `population / steady_rate = 40` ticks — inside the
//! engine's `T_M = 60` update-interval contract even when bursts are
//! refused at the closed queue.

mod common;

use cij_core::EngineConfig;
use cij_geom::Time;
use cij_stream::{
    IngestOutcome, OutboxItem, ResultDelta, StreamConfig, StreamService, SubscriptionFilter,
};
use cij_workload::{generate_pair, Params};

use common::{mtb_factory, ChainedGen};

const PER_SET: usize = 5_000;
const TICKS: u32 = 500;
const STEADY: usize = 250;
const BURST: usize = 400;
const BURST_EVERY: u32 = 16;
const SUPERSEDE_PER_BURST: usize = 50;
/// Queue capacity; backpressure engages at 3/4 of it (300 pending) and
/// releases at 1/2 (200).
const CAPACITY: usize = 400;

#[test]
#[ignore = "soak test: ~10k objects x 500 ticks, run explicitly"]
fn soak_sustained_stream_with_periodic_bursts_stays_stable() {
    let params = Params {
        dataset_size: PER_SET,
        // Constant density relative to the paper's 10k-per-set in a
        // 1000^2 space: side scales with sqrt(population).
        space: 1000.0 * (PER_SET as f64 / 10_000.0).sqrt(),
        ..Params::default()
    };
    let (a, b) = generate_pair(&params, 0.0);
    let config = StreamConfig::builder()
        .engine(EngineConfig::builder().threads(1).metrics(true).build())
        .batch_capacity(CAPACITY)
        .outbox_capacity(1 << 16)
        .build();
    let factory = mtb_factory();
    let mut svc = StreamService::new(config, &a, &b, 0.0, &factory).unwrap();
    let sub = svc.subscribe(SubscriptionFilter::All).unwrap();
    svc.poll(sub); // drain the initial catch-up snapshot

    let mut gen = ChainedGen::new(&params, &a, &b, 0.0);
    let population = gen.len();
    let mut cursor = 0usize;
    let mut accepted = 0u64;
    let mut burst_ticks = 0u64;
    // The extractor reports pairs lazily: everything live at t=0
    // arrives as `PairAdded` deltas on the first advance, so the
    // replayed count starts from zero.
    let mut live: i64 = 0;

    for tick in 1..=TICKS {
        let now = Time::from(tick);
        let at = now - 0.5;
        let bursting = tick % BURST_EVERY == 0;
        let attempts = if bursting { BURST } else { STEADY };
        if bursting {
            burst_ticks += 1;
        }
        let window_start = cursor;
        for k in 0..attempts {
            let u = gen.candidate(
                cursor,
                u64::from(tick).wrapping_mul(31).wrapping_add(k as u64),
                at,
            );
            match svc.submit(u, at) {
                IngestOutcome::Accepted => {
                    gen.commit(&u, at);
                    accepted += 1;
                    cursor = (cursor + 1) % population;
                }
                // The queue closed mid-burst: every further distinct
                // object would be refused too — stop, the cursor
                // resumes here next tick.
                IngestOutcome::QueueFull => break,
                IngestOutcome::Stale => panic!("stale refusal at t={now}"),
            }
        }
        assert_eq!(
            !svc.is_accepting(),
            bursting,
            "backpressure must engage exactly on burst ticks (t={now})"
        );
        if bursting {
            // The closed queue still admits newer updates for objects
            // with a pending one — supersession under `T_M`.
            for k in 0..SUPERSEDE_PER_BURST {
                let idx = (window_start + k) % population;
                let u = gen.candidate(idx, u64::from(tick) ^ 0xDEAD_BEEF ^ k as u64, now - 0.25);
                assert_eq!(
                    svc.submit(u, now - 0.25),
                    IngestOutcome::Accepted,
                    "supersession must absorb the burst tail at t={now}"
                );
                gen.commit(&u, now - 0.25);
                accepted += 1;
            }
        }
        svc.advance_to(now).unwrap();
        // Stability: the drain leaves nothing behind — queue depth is
        // sawtooth-periodic, never cumulative.
        assert_eq!(svc.queue_len(), 0, "queue residue after drain at t={now}");
        assert!(
            svc.is_accepting(),
            "drain must release backpressure at t={now}"
        );
        // The polled subscriber keeps up: strict delta stream, no gaps.
        for item in svc.poll(sub).unwrap() {
            match item {
                OutboxItem::Delta(d) => match d.delta {
                    ResultDelta::PairAdded { .. } => live += 1,
                    ResultDelta::PairRemoved { .. } => live -= 1,
                },
                OutboxItem::Gap { dropped } => {
                    panic!("subscriber fell behind at t={now} (dropped {dropped})")
                }
            }
        }
        assert_eq!(
            live,
            svc.result_at(now).len() as i64,
            "replayed live-pair count diverges at t={now}"
        );
    }

    let snap = svc.metrics_snapshot();
    // Backpressure flipped once per burst tick — periodic, not drifting.
    assert_eq!(
        snap.counter("stream.backpressure.engaged"),
        Some(burst_ticks),
        "one engage per burst tick"
    );
    assert_eq!(
        snap.counter("stream.backpressure.released"),
        Some(burst_ticks),
        "one release per burst tick"
    );
    // Conservation: every accepted update was either applied (one
    // latency sample each) or shed by supersession; nothing pending.
    let applied = snap
        .histogram("stream.ingest.latency_ns")
        .expect("ingest latency histogram")
        .count;
    assert_eq!(
        accepted,
        applied + svc.shed_dropped_stale(),
        "conservation: accepted != applied + shed"
    );
    assert_eq!(
        svc.shed_dropped_stale(),
        burst_ticks * SUPERSEDE_PER_BURST as u64,
        "every burst-tail update supersedes exactly one pending update"
    );
    assert!(accepted >= u64::from(TICKS) * STEADY as u64, "vacuous soak");
}
