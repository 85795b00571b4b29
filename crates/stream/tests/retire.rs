//! Object retirement and the registration table.
//!
//! [`StreamService::retire_object`] removes an object from the engine
//! and from the service's registration table, deleting by the table's
//! registration. These tests pin that it removes the object's pairs
//! from the live answer, refuses unsound retirements, keeps the table
//! to exactly the live population under churn, and survives WAL
//! recovery — including recovery of registrations whose apply tick a
//! late submission moved away from the producer's tick. Two updates of
//! one object in one batch delete in submission order.

use std::collections::HashMap;
use std::sync::Arc;

use cij_core::{ContinuousJoinEngine, EngineConfig, MtbEngine};
use cij_geom::{MovingRect, Rect, Time};
use cij_join::brute::brute_pairs_at;
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_stream::{
    IngestOutcome, OutboxItem, StreamConfig, StreamError, StreamService, SubscriptionFilter,
};
use cij_tpr::{ObjectId, TprResult};
use cij_workload::{MovingObject, ObjectUpdate, SetTag};

mod common;
use common::TempWal;

fn factory(
    cfg: &EngineConfig,
    a: &[MovingObject],
    b: &[MovingObject],
    start: Time,
) -> TprResult<Box<dyn ContinuousJoinEngine>> {
    let pool = BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(256),
    );
    Ok(Box::new(MtbEngine::new(pool, *cfg, a, b, start)?))
}

fn obj(id: u64, x: f64) -> MovingObject {
    MovingObject {
        id: ObjectId(id),
        mbr: MovingRect::stationary(Rect::new([x, 0.0], [x + 1.0, 1.0]), 0.0),
    }
}

/// Four A-objects squarely overlapping four B-objects: pairs
/// (i, 100 + i) are active from the start.
fn sets() -> (Vec<MovingObject>, Vec<MovingObject>) {
    let a = (1..=4).map(|i| obj(i, i as f64 * 10.0)).collect();
    let b = (1..=4).map(|i| obj(100 + i, i as f64 * 10.0)).collect();
    (a, b)
}

/// An in-place nudge for `id`: same overlap, fresh trajectory record.
fn nudge(id: u64, x: f64, old: &MovingRect, last_update: Time) -> ObjectUpdate {
    ObjectUpdate {
        id: ObjectId(id),
        set: if id < 100 { SetTag::A } else { SetTag::B },
        old_mbr: *old,
        last_update,
        new_mbr: MovingRect::stationary(Rect::new([x + 0.1, 0.0], [x + 1.1, 1.0]), 0.0),
    }
}

#[test]
fn retire_removes_the_object_and_its_pairs() {
    let (a, b) = sets();
    let config = StreamConfig::builder()
        .engine(EngineConfig::builder().metrics(true).build())
        .build();
    let mut svc = StreamService::new(config, &a, &b, 0.0, &factory).expect("service");
    let sub = svc.subscribe(SubscriptionFilter::All).expect("subscribe");
    svc.advance_to(1.0).expect("advance");
    let _ = svc.poll(sub); // drain the initial adds

    for (i, o) in a.iter().enumerate() {
        let u = nudge(o.id.0, (i + 1) as f64 * 10.0, &o.mbr, 0.0);
        assert_eq!(svc.submit(u, 2.0), IngestOutcome::Accepted);
    }
    svc.advance_to(2.0).expect("advance");
    let _ = svc.poll(sub);

    // Retiring an updated object removes it from its tick-2 bucket.
    assert!(svc.retire_object(ObjectId(1)).expect("retire"));
    let deltas = svc.advance_to(3.0).expect("advance");
    assert!(
        deltas
            .iter()
            .any(|d| !d.delta.is_add() && d.delta.pair().0 == ObjectId(1)),
        "retirement must surface as a PairRemoved delta, got {deltas:?}"
    );
    assert!(
        svc.result_at(3.0)
            .iter()
            .all(|p| p.0 != ObjectId(1) && p.1 != ObjectId(1)),
        "retired object still in the answer"
    );
    let items = svc.poll(sub).expect("poll");
    assert!(
        items.iter().any(|i| matches!(
            i,
            OutboxItem::Delta(s) if !s.delta.is_add() && s.delta.pair().0 == ObjectId(1)
        )),
        "subscriber missed the retirement removal"
    );

    // A never-updated B-object retires from its genesis bucket.
    assert!(svc.retire_object(ObjectId(104)).expect("retire genesis"));
    assert!(
        svc.result_at(3.0).iter().all(|p| p.1 != ObjectId(104)),
        "retired genesis object still in the answer"
    );

    // Unknown object: a clean `false`, twice in a row.
    assert!(!svc.retire_object(ObjectId(999)).expect("unknown"));
    assert!(!svc.retire_object(ObjectId(1)).expect("already retired"));

    let snap = svc.metrics_snapshot();
    assert_eq!(snap.counter("stream.objects.retired"), Some(2));
}

#[test]
fn retire_refuses_while_an_update_is_pending() {
    let (a, b) = sets();
    let mut svc = StreamService::new(StreamConfig::default(), &a, &b, 0.0, &factory).expect("svc");
    svc.advance_to(1.0).expect("advance");
    let u = nudge(2, 20.0, &a[1].mbr, 0.0);
    assert_eq!(svc.submit(u, 2.0), IngestOutcome::Accepted);
    // Retiring now would leave the pending update naming an object the
    // service no longer holds.
    let err = svc.retire_object(ObjectId(2)).expect_err("must refuse");
    assert!(matches!(err, StreamError::InvalidConfig(_)), "got {err:?}");
    // Draining the queue makes the same retirement legal.
    svc.advance_to(2.0).expect("advance");
    assert!(svc.retire_object(ObjectId(2)).expect("retire"));
}

/// Rounds of update-then-retire churn leave the registration table
/// holding exactly the live objects: every retired id is gone for good,
/// every live one — updated or still at genesis — is still registered.
#[test]
fn the_table_holds_exactly_the_live_population_under_retirement_churn() {
    let (a, b) = sets();
    let mut svc = StreamService::new(StreamConfig::default(), &a, &b, 0.0, &factory).expect("svc");
    svc.advance_to(1.0).expect("advance");

    let mut live: Vec<u64> = a.iter().map(|o| o.id.0).collect();
    let mut retired = Vec::new();
    let mut tick = 1.0;
    while live.len() > 1 {
        // Update every live A-object...
        tick += 1.0;
        for (i, id) in live.iter().enumerate() {
            let u = nudge(*id, (i + 1) as f64 * 10.0, &a[i].mbr, 0.0);
            assert_eq!(svc.submit(u, tick), IngestOutcome::Accepted);
        }
        svc.advance_to(tick).expect("advance");
        // ...then retire one: it, and every earlier one, is gone.
        let gone = live.pop().expect("nonempty");
        assert!(svc.retire_object(ObjectId(gone)).expect("retire"));
        retired.push(gone);
        for &id in &retired {
            assert!(
                !svc.retire_object(ObjectId(id)).expect("retired"),
                "{id} still registered after its retirement"
            );
        }
    }
    // Exactly the live ones are still held, and retiring them empties
    // the answer.
    let rest: Vec<u64> = live
        .iter()
        .copied()
        .chain(b.iter().map(|o| o.id.0))
        .collect();
    for id in rest {
        assert!(svc.retire_object(ObjectId(id)).expect("live"), "{id} lost");
    }
    svc.advance_to(tick + 1.0).expect("advance");
    assert!(svc.result_at(tick + 1.0).is_empty());
}

#[test]
fn retirement_survives_wal_recovery() {
    let wal = TempWal::new("recovery");
    let (a, b) = sets();
    let config = StreamConfig::builder().wal_path(wal.0.clone()).build();
    let mut svc = StreamService::new(config.clone(), &a, &b, 0.0, &factory).expect("service");
    svc.advance_to(1.0).expect("advance");
    for (i, o) in a.iter().enumerate() {
        let u = nudge(o.id.0, (i + 1) as f64 * 10.0, &o.mbr, 0.0);
        assert_eq!(svc.submit(u, 2.0), IngestOutcome::Accepted);
    }
    svc.advance_to(2.0).expect("advance");
    assert!(svc.retire_object(ObjectId(1)).expect("retire updated"));
    assert!(svc.retire_object(ObjectId(103)).expect("retire genesis"));
    svc.advance_to(3.0).expect("advance");
    let expected_pairs = svc.result_at(3.0);
    drop(svc);

    let (recovered, report) = StreamService::recover(config, &factory).expect("recover");
    assert!(!report.tail_truncated);
    assert_eq!(recovered.result_at(3.0), expected_pairs);
    // Retired objects stay retired across the crash.
    assert!(!recovered
        .result_at(3.0)
        .iter()
        .any(|p| p.0 == ObjectId(1) || p.1 == ObjectId(103)));
    let mut recovered = recovered;
    assert!(
        !recovered.retire_object(ObjectId(1)).expect("gone"),
        "object 1 resurrected by recovery"
    );
}

/// The brute-force answer over each object's latest trajectory.
fn brute(tracks: &HashMap<u64, MovingRect>, t: Time) -> Vec<(ObjectId, ObjectId)> {
    let side = |a: bool| -> Vec<(ObjectId, MovingRect)> {
        let mut set: Vec<_> = tracks
            .iter()
            .filter(|(id, _)| (**id < 100) == a)
            .map(|(id, mbr)| (ObjectId(*id), *mbr))
            .collect();
        set.sort_by_key(|(id, _)| *id);
        set
    };
    brute_pairs_at(&side(true), &side(false), t)
}

/// Two submissions for one object at one tick share a batch: the object
/// leaves its partner, then comes back. The second update must delete
/// what the first one registers at that tick — not what the table held
/// before the batch — or the engine misses it. Every object updates
/// every tick and MTB buckets are 4 ticks wide (`T_M` = 8), so at ticks
/// 4 and 8 the table's pre-batch entry sits in the bucket before the
/// one the first update filed the object in. Through a journal: the
/// live answer is the brute-force join every tick, and the recovered
/// service equals the live one and drives on from it.
#[test]
fn two_updates_of_one_object_in_one_batch_apply_in_order() {
    let wal = TempWal::new("same-tick");
    let (a, b) = sets();
    let config = StreamConfig::builder()
        .engine(EngineConfig {
            t_m: 8.0,
            ..EngineConfig::default()
        })
        .wal_path(wal.0.clone())
        .build();
    let mut svc = StreamService::new(config.clone(), &a, &b, 0.0, &factory).expect("service");
    let mut tracks: HashMap<u64, MovingRect> =
        a.iter().chain(&b).map(|o| (o.id.0, o.mbr)).collect();
    let step = |svc: &mut StreamService, tracks: &mut HashMap<u64, MovingRect>, t: Time| {
        let twice = 1 + (t as u64) % 4;
        let mut ids: Vec<u64> = tracks.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let back = nudge(id, (id % 100) as f64 * 10.0 + t * 0.01, &tracks[&id], 0.0);
            let away = nudge(id, 300.0, &tracks[&id], 0.0);
            let updates = if id == twice {
                vec![away, back]
            } else {
                vec![back]
            };
            for u in updates {
                assert_eq!(svc.submit(u, t), IngestOutcome::Accepted);
            }
            tracks.insert(id, back.new_mbr);
        }
        svc.advance_to(t).expect("advance");
        assert_eq!(svc.result_at(t), brute(tracks, t), "t = {t}");
    };
    for tick in 1..=8 {
        step(&mut svc, &mut tracks, f64::from(tick));
    }
    let expected = svc.result_at(8.0);
    assert_eq!(expected.len(), 4, "every pair back together");
    drop(svc);

    let (mut recovered, report) = StreamService::recover(config, &factory).expect("recover");
    assert_eq!(report.batches_replayed, 8);
    assert_eq!(recovered.result_at(8.0), expected);
    step(&mut recovered, &mut tracks, 9.0);
}

/// A producer that keys every update by its *own* clock: the new
/// trajectory's `t_ref` and the `last_update` key are the ticks it
/// generated this and the previous update for — not the ticks the
/// service applied them at.
struct Producer {
    state: HashMap<u64, (MovingRect, Time)>,
}

impl Producer {
    fn update(&mut self, id: u64, tick: Time) -> ObjectUpdate {
        let (old, last) = self.state[&id];
        let x = (id % 100) as f64 * 10.0 + tick * 0.01;
        let mut u = nudge(id, x, &old, last);
        // Stamped with the producer's tick, which a late submission
        // applies after.
        u.new_mbr.t_ref = tick;
        self.state.insert(id, (u.new_mbr, tick));
        u
    }
}

/// Churn with late submissions — retirements in between — then a crash.
/// The even-id objects' updates generated at a tick ≡ 2 (mod 4) are held
/// back and submitted two ticks later, and those objects generate
/// nothing in between. MTB buckets are 4 ticks wide here (`T_M` = 8),
/// so each late update is filed in a later bucket than the producer's
/// tick names, and the crash at tick 13 comes right after such a batch:
/// the recovered service must hold the registrations at their *apply*
/// ticks, or its next deletes miss. Driven on with the same inputs it
/// equals the service that never crashed, pair for pair, tick by tick.
#[test]
fn recovery_after_churn_and_late_submissions_equals_the_uncrashed_service() {
    let (a, b) = sets();
    let (crashing_wal, steady_wal) = (TempWal::new("churn-crash"), TempWal::new("churn-steady"));
    let config = |wal: &TempWal| {
        StreamConfig::builder()
            .engine(EngineConfig {
                t_m: 8.0,
                ..EngineConfig::default()
            })
            .wal_path(wal.0.clone())
            .build()
    };
    let new = |wal| StreamService::new(config(wal), &a, &b, 0.0, &factory).expect("service");
    let mut steady = new(&steady_wal);
    let mut crashing = Some(new(&crashing_wal));
    let genesis = a.iter().chain(&b);
    let mut producer = Producer {
        state: genesis.map(|o| (o.id.0, (o.mbr, 0.0))).collect(),
    };
    // A-objects first; the B-objects are updated every tick, never retired.
    let mut live: Vec<u64> = a.iter().chain(&b).map(|o| o.id.0).collect();
    let mut held: Vec<ObjectUpdate> = Vec::new();
    for tick in 1..=28u32 {
        let t = f64::from(tick);
        if tick == 13 {
            // Everything submitted so far sits in a drained batch.
            let svc = crashing.take().expect("live service");
            assert_eq!(svc.queue_len(), 0);
            drop(svc);
            let (svc, _) =
                StreamService::recover(config(&crashing_wal), &factory).expect("recover");
            crashing = Some(svc);
        }
        let svc = crashing.as_mut().expect("live service");
        let mut due = if tick % 4 == 0 {
            std::mem::take(&mut held)
        } else {
            Vec::new()
        };
        for &id in &live {
            match (id % 2 == 0, tick % 4) {
                (true, 2) => held.push(producer.update(id, t)),
                (true, 3 | 0) => {}
                _ => due.push(producer.update(id, t)),
            }
        }
        for u in due {
            assert_eq!(steady.submit(u, t), IngestOutcome::Accepted);
            assert_eq!(svc.submit(u, t), IngestOutcome::Accepted);
        }
        let expected = steady.advance_to(t).expect("steady advance");
        let got = svc.advance_to(t).expect("recovered advance");
        assert_eq!(got, expected, "tick {tick}: delta stream");
        assert_eq!(svc.result_at(t), steady.result_at(t), "tick {tick}");
        if tick % 4 == 0 && live[1] < 100 && (tick / 4) % 2 == 1 {
            let gone = ObjectId(live.remove(0));
            assert!(steady.retire_object(gone).expect("steady retire"));
            assert!(svc.retire_object(gone).expect("recovered retire"));
        }
    }
    assert!(held.is_empty());
    assert_eq!(
        live.len(),
        1 + b.len(),
        "the churn retired all but one A-object"
    );
    assert!(!steady.result_at(28.0).is_empty());
}
