//! The journal's bytes, pinned. A scripted service life that writes one
//! record of every kind (every filter shape included) must leave exactly
//! the journal file the first `PROTOCOL_VERSION` 1 build left, and
//! [`StreamService::recover`] must replay that build's file — so a codec
//! refactor cannot drift the on-disk format while still round-tripping
//! against itself.

use cij_geom::{MovingRect, Rect};
use cij_stream::{IngestOutcome, StreamConfig, StreamService, SubscriberId, SubscriptionFilter};
use cij_tpr::ObjectId;
use cij_workload::{MovingObject, ObjectUpdate, SetTag};

mod common;
use common::{hex, mtb_factory, unhex, TempWal, GOLDEN_JOURNAL};

fn obj(id: u64, x: f64) -> MovingObject {
    MovingObject {
        id: ObjectId(id),
        mbr: MovingRect::stationary(Rect::new([x, 0.0], [x + 1.0, 1.0]), 0.0),
    }
}

fn config(wal: &TempWal) -> StreamConfig {
    StreamConfig::builder().wal_path(wal.0.clone()).build()
}

/// Genesis, three subscriptions, an unsubscription, a batch and a
/// retirement; returns the service's answer at the end.
fn scripted_life(wal: &TempWal) -> Vec<(ObjectId, ObjectId)> {
    let a = [obj(1, 0.0), obj(3, 10.0)];
    let b = [obj(2, 0.5), obj(4, 20.0)];
    let mut svc = StreamService::new(config(wal), &a, &b, 0.0, &mtb_factory()).expect("service");
    let all = svc.subscribe(SubscriptionFilter::All).expect("all");
    let object = svc
        .subscribe(SubscriptionFilter::Object(ObjectId(2)))
        .expect("object");
    let window = Rect::new([0.0, -1.0], [5.0, 2.5]);
    svc.subscribe(SubscriptionFilter::Window(window))
        .expect("window");
    assert_eq!((all, object), (SubscriberId(0), SubscriberId(1)));
    assert!(svc.unsubscribe(object).expect("unsubscribe"));
    let update = ObjectUpdate {
        id: ObjectId(3),
        set: SetTag::A,
        old_mbr: a[1].mbr,
        last_update: 0.0,
        new_mbr: MovingRect::rigid(Rect::new([19.5, 0.0], [20.5, 1.0]), [0.25, 0.0], 1.0),
    };
    assert_eq!(svc.submit(update, 1.0), IngestOutcome::Accepted);
    svc.advance_to(1.0).expect("advance");
    assert!(svc.retire_object(ObjectId(1)).expect("retire"));
    svc.advance_to(2.0).expect("advance");
    svc.result_at(2.0)
}

#[test]
fn a_service_writes_the_golden_journal() {
    let wal = TempWal::new("golden-write");
    assert_eq!(scripted_life(&wal), [(ObjectId(3), ObjectId(4))]);
    let written = std::fs::read(&wal.0).expect("journal");
    assert_eq!(hex(&written), hex(&unhex(GOLDEN_JOURNAL)));
}

#[test]
fn a_service_recovers_from_the_golden_journal() {
    let wal = TempWal::new("golden-recover");
    std::fs::write(&wal.0, unhex(GOLDEN_JOURNAL)).expect("write image");
    let (mut svc, report) = StreamService::recover(config(&wal), &mtb_factory()).expect("recover");
    assert_eq!(report.batches_replayed, 1);
    assert_eq!(report.last_tick, 1.0);
    assert!(!report.tail_truncated);
    assert_eq!(report.subscribers, 2);
    assert_eq!(
        svc.subscriber_filter(SubscriberId(0)),
        Some(SubscriptionFilter::All)
    );
    assert_eq!(svc.subscriber_filter(SubscriberId(1)), None);
    assert_eq!(
        svc.subscriber_filter(SubscriberId(2)),
        Some(SubscriptionFilter::Window(Rect::new(
            [0.0, -1.0],
            [5.0, 2.5]
        )))
    );
    // Object 1 was retired, object 3 moved next to object 4.
    assert!(!svc.retire_object(ObjectId(1)).expect("already gone"));
    svc.advance_to(2.0).expect("advance");
    assert_eq!(svc.result_at(2.0), [(ObjectId(3), ObjectId(4))]);
}
