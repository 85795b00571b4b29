//! Object retirement and the bounded ingest translation map.
//!
//! PR 6 made the ingest queue's per-object apply-tick translation map
//! *persistent* — entries must outlive drains because the next update
//! for an object may come a full `T_M` later. The cost was a map that
//! only ever grew: an object deleted upstream kept its stamp forever.
//! [`StreamService::retire_object`] is the pruning path; these tests
//! pin that it bounds the map (gauge included), removes the object's
//! pairs from the live answer, refuses unsound retirements, and
//! survives WAL recovery.

use std::collections::HashMap;
use std::sync::Arc;

use cij_core::{ContinuousJoinEngine, EngineConfig, MtbEngine};
use cij_geom::{MovingRect, Rect, Time};
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
        set: SetTag::A,
        old_mbr: *old,
        last_update,
        new_mbr: MovingRect::stationary(Rect::new([x + 0.1, 0.0], [x + 1.1, 1.0]), 0.0),
    }
}

#[test]
fn retire_prunes_translation_map_and_live_pairs() {
    let (a, b) = sets();
    let config = StreamConfig::builder()
        .engine(EngineConfig::builder().metrics(true).build())
        .build();
    let mut svc = StreamService::new(config, &a, &b, 0.0, &factory).expect("service");
    let sub = svc.subscribe(SubscriptionFilter::All).expect("subscribe");
    svc.advance_to(1.0).expect("advance");
    let _ = svc.poll(sub); // drain the initial adds
    assert_eq!(svc.translation_entries(), 0, "no updates applied yet");

    // One update per A-object: every one earns a translation entry.
    for (i, o) in a.iter().enumerate() {
        let u = nudge(o.id.0, (i + 1) as f64 * 10.0, &o.mbr, 0.0);
        assert_eq!(svc.submit(u, 2.0), IngestOutcome::Accepted);
    }
    svc.advance_to(2.0).expect("advance");
    let _ = svc.poll(sub);
    assert_eq!(svc.translation_entries(), 4);

    // Retiring an updated object prunes its entry and its pairs.
    assert!(svc.retire_object(ObjectId(1)).expect("retire"));
    assert_eq!(svc.translation_entries(), 3);
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

    // The gauge mirrors the map.
    let snap = svc.metrics_snapshot();
    assert_eq!(
        snap.gauge("stream.ingest.translation_entries"),
        Some(svc.translation_entries() as i64)
    );
    assert_eq!(snap.counter("stream.objects.retired"), Some(2));
}

#[test]
fn retire_refuses_while_an_update_is_pending() {
    let (a, b) = sets();
    let mut svc = StreamService::new(StreamConfig::default(), &a, &b, 0.0, &factory).expect("svc");
    svc.advance_to(1.0).expect("advance");
    let u = nudge(2, 20.0, &a[1].mbr, 0.0);
    assert_eq!(svc.submit(u, 2.0), IngestOutcome::Accepted);
    // The pending update's stamp points at tick 2.0, where no index
    // entry exists yet — retirement now would delete the wrong bucket.
    let err = svc.retire_object(ObjectId(2)).expect_err("must refuse");
    assert!(matches!(err, StreamError::InvalidConfig(_)), "got {err:?}");
    // Draining the queue makes the same retirement legal.
    svc.advance_to(2.0).expect("advance");
    assert!(svc.retire_object(ObjectId(2)).expect("retire"));
}

/// The unbounded-growth regression: rounds of update-then-retire churn
/// must leave the translation map bounded by the *live updated*
/// population — never the cumulative count of objects ever touched.
#[test]
fn translation_map_stays_bounded_under_retirement_churn() {
    let (a, b) = sets();
    let mut svc = StreamService::new(StreamConfig::default(), &a, &b, 0.0, &factory).expect("svc");
    svc.advance_to(1.0).expect("advance");

    let mut current: HashMap<u64, (MovingRect, Time)> =
        a.iter().map(|o| (o.id.0, (o.mbr, 0.0))).collect();
    let mut live: Vec<u64> = a.iter().map(|o| o.id.0).collect();
    let mut tick = 1.0;
    let mut high_water = 0usize;
    while live.len() > 1 {
        // Update every live A-object...
        tick += 1.0;
        for (i, id) in live.iter().enumerate() {
            let (mbr, last) = current[id];
            let u = nudge(*id, (i + 1) as f64 * 10.0, &mbr, last);
            assert_eq!(svc.submit(u, tick), IngestOutcome::Accepted);
            current.insert(*id, (u.new_mbr, tick));
        }
        svc.advance_to(tick).expect("advance");
        high_water = high_water.max(svc.translation_entries());
        // ...then retire one. The map must track the live count exactly.
        let gone = live.pop().expect("nonempty");
        assert!(svc.retire_object(ObjectId(gone)).expect("retire"));
        assert_eq!(
            svc.translation_entries(),
            live.len(),
            "translation map diverged from the live updated population"
        );
    }
    assert_eq!(high_water, 4, "all four objects were stamped at the peak");
    assert_eq!(svc.translation_entries(), 1);
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
    let expected_translation = svc.translation_entries();
    drop(svc);

    let (recovered, report) = StreamService::recover(config, &factory).expect("recover");
    assert!(!report.tail_truncated);
    assert_eq!(recovered.result_at(3.0), expected_pairs);
    assert_eq!(recovered.translation_entries(), expected_translation);
    // Retired objects stay retired across the crash: translation entry,
    // track, and set tag are all gone.
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
