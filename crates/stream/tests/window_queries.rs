//! §V at the stream level: "tell me when membership of window *q*
//! changes" is a [`StreamService`] over a [`TcEngine`] factory whose set
//! B is the windows, with one [`SubscriptionFilter::Object`] subscriber
//! per window — no window-specific code anywhere.
//!
//! Pinned here: replaying each subscriber's outbox reproduces
//! `result_at(t)` filtered on its window at every tick for more than
//! 3·`T_M` (the windows never re-register), and
//! [`StreamService::recover`] restores the windows — they live in the
//! WAL's genesis record like any set B — and the same answer.

use std::collections::BTreeSet;
use std::sync::Arc;

use cij_core::{ContinuousJoinEngine, EngineConfig, PairKey, TcEngine};
use cij_geom::{MovingRect, Rect, Time};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_stream::{
    IngestOutcome, OutboxItem, ResultDelta, StreamConfig, StreamError, StreamService, SubscriberId,
    SubscriptionFilter,
};
use cij_tpr::{ObjectId, TprResult};
use cij_workload::{generate_set, MovingObject, Params, SetTag, UpdateStream};

mod common;
use common::TempWal;

fn tc_factory(
    cfg: &EngineConfig,
    a: &[MovingObject],
    b: &[MovingObject],
    start: Time,
) -> TprResult<Box<dyn ContinuousJoinEngine>> {
    let pool = BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(256),
    );
    Ok(Box::new(TcEngine::new(pool, *cfg, a, b, start)?))
}

fn fleet_params() -> Params {
    Params {
        dataset_size: 300,
        object_size_pct: 2.0,
        seed: 2109,
        ..Params::default()
    }
}

/// A static region, a zero-extent point window and a moving patrol
/// window, on ids disjoint from the fleet's.
fn windows() -> Vec<MovingObject> {
    let mbrs = [
        MovingRect::stationary(Rect::new([300.0, 300.0], [600.0, 600.0]), 0.0),
        MovingRect::stationary(Rect::point([500.0, 500.0]), 0.0),
        MovingRect::rigid(Rect::new([0.0, 400.0], [150.0, 550.0]), [4.0, 0.0], 0.0),
    ];
    let ids = 1u64 << 32..;
    ids.zip(mbrs)
        .map(|(id, mbr)| MovingObject {
            id: ObjectId(id),
            mbr,
        })
        .collect()
}

/// One window's subscriber and the pair set its deliveries replay to.
struct Watcher {
    window: ObjectId,
    sub: SubscriberId,
    replayed: BTreeSet<PairKey>,
}

impl Watcher {
    /// Drains the outbox into the replayed set. A gap marker (recovery)
    /// voids the state; the catch-up snapshot behind it rebuilds it.
    fn poll(&mut self, svc: &mut StreamService) -> u64 {
        let mut gaps = 0;
        for item in svc.poll(self.sub).expect("subscriber exists") {
            match item {
                OutboxItem::Gap { dropped } => {
                    gaps += dropped;
                    self.replayed.clear();
                }
                OutboxItem::Delta(d) => match d.delta {
                    ResultDelta::PairAdded { pair, .. } => {
                        assert_eq!(pair.1, self.window, "delivery for another window");
                        self.replayed.insert(pair);
                    }
                    ResultDelta::PairRemoved { pair } => {
                        assert!(self.replayed.remove(&pair), "removal of an unheld pair");
                    }
                },
            }
        }
        gaps
    }

    fn assert_matches(&self, svc: &StreamService, now: Time) -> usize {
        let answer = svc.result_at(now).into_iter();
        let expect: BTreeSet<PairKey> = answer.filter(|&(_, w)| w == self.window).collect();
        assert_eq!(
            self.replayed, expect,
            "window {:?}: replayed outbox ≠ filtered result_at({now})",
            self.window
        );
        expect.len()
    }
}

#[test]
fn window_subscribers_replay_to_filtered_result_at_and_survive_recovery() {
    const TICKS: u32 = 200; // > 3·T_M
    const CRASH_AT: u32 = 110;
    let params = fleet_params();
    let fleet = generate_set(&params, SetTag::A, 0, 0.0);
    let regions = windows();
    let wal = TempWal::new("replay");
    let config = StreamConfig::builder()
        .batch_capacity(1 << 12)
        .outbox_capacity(1 << 12)
        .wal_path(wal.0.clone())
        .build();

    let mut svc =
        StreamService::new(config.clone(), &fleet, &regions, 0.0, &tc_factory).expect("service");
    let mut watchers: Vec<Watcher> = regions
        .iter()
        .map(|w| Watcher {
            window: w.id,
            sub: svc
                .subscribe(SubscriptionFilter::Object(w.id))
                .expect("subscribe"),
            replayed: BTreeSet::new(),
        })
        .collect();

    let mut stream = UpdateStream::new(&params, &fleet, &[], 0.0);
    let mut seen = vec![0; regions.len()];
    for tick in 1..=TICKS {
        let now = Time::from(tick);
        for u in stream.tick(now) {
            assert_eq!(svc.submit(u, now), IngestOutcome::Accepted);
        }
        svc.advance_to(now).expect("advance");
        for (w, seen) in watchers.iter_mut().zip(&mut seen) {
            assert_eq!(w.poll(&mut svc), 0, "live outbox overflowed");
            *seen += w.assert_matches(&svc, now);
        }

        if tick == CRASH_AT {
            // Crash: everything but the journal is lost. The windows come
            // back from the genesis record, the subscribers from theirs.
            let before = svc.result_at(now);
            drop(svc);
            let (recovered, report) =
                StreamService::recover(config.clone(), &tc_factory).expect("recover");
            svc = recovered;
            assert_eq!(report.subscribers, regions.len());
            assert_eq!(report.last_tick, now);
            assert_eq!(svc.result_at(now), before, "recovered answer differs");
            for w in &mut watchers {
                assert!(w.poll(&mut svc) > 0, "recovery must announce a gap");
                w.assert_matches(&svc, now);
            }
        }
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "every window must have had members at some tick: {seen:?}"
    );
}

#[test]
fn a_window_id_colliding_with_a_fleet_id_is_refused() {
    // Updates are routed by `ObjectId` alone: a window reusing a fleet id
    // would silently capture that object's updates on the wrong side.
    let fleet = generate_set(&fleet_params(), SetTag::A, 0, 0.0);
    let mut regions = windows();
    regions[1].id = fleet[7].id;
    let config = StreamConfig::builder().build();
    let Err(err) = StreamService::new(config, &fleet, &regions, 0.0, &tc_factory) else {
        panic!("a repeated id must be refused");
    };
    match err {
        StreamError::InvalidConfig(msg) => {
            assert!(
                msg.contains(&format!("{:?}", fleet[7].id)),
                "id not named: {msg}"
            );
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}
