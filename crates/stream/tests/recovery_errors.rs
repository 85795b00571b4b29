//! The typed failure surface of WAL recovery. A crash can leave any
//! bytes on disk; [`StreamService::recover`] must answer every shape of
//! damage with a [`StreamError`] variant — never a panic — and must keep
//! the one *benign* shape (a torn tail, truncated mid-record) out of the
//! error path entirely. Each corruption here is crafted with the real
//! framing (`cij_storage::Wal`), so the CRC layer passes and the damage
//! reaches the journal decoder it is aimed at.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use cij_core::{ContinuousJoinEngine, EngineConfig, MtbEngine};
use cij_geom::{MovingRect, Rect, Time};
use cij_join::brute::brute_pairs_at;
use cij_storage::codec::ByteWriter;
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore, Wal};
use cij_stream::wire::Wire;
use cij_stream::{IngestOutcome, StreamConfig, StreamError, StreamService, SubscriptionFilter};
use cij_tpr::{ObjectId, TprError, TprResult};
use cij_workload::{
    generate_pair, Distribution, MovingObject, ObjectUpdate, Params, SetTag, UpdateStream,
};

mod common;
use common::TempWal;

fn params(seed: u64) -> Params {
    Params {
        dataset_size: 60,
        distribution: Distribution::Uniform,
        seed,
        space: 200.0,
        object_size_pct: 1.0,
        ..Params::default()
    }
}

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

fn config_with(path: Option<PathBuf>) -> StreamConfig {
    let mut builder = StreamConfig::builder()
        .batch_capacity(1 << 12)
        .outbox_capacity(1 << 12);
    if let Some(path) = path {
        builder = builder.wal_path(path);
    }
    builder.build()
}

/// Runs a short journaled life and returns its durable records
/// (genesis first, then at least one batch), for splicing into
/// corrupted journals.
fn durable_records(wal: &TempWal, seed: u64) -> Vec<Vec<u8>> {
    let p = params(seed);
    let (a, b) = generate_pair(&p, 0.0);
    let config = config_with(Some(wal.0.clone()));
    let mut svc = StreamService::new(config, &a, &b, 0.0, &factory).expect("service");
    let _sub = svc.subscribe(SubscriptionFilter::All).expect("subscribe");
    let mut stream = UpdateStream::new(&p, &a, &b, 0.0);
    for tick in 1..=10u32 {
        let now = Time::from(tick);
        for u in stream.tick(now) {
            assert_eq!(svc.submit(u, now), IngestOutcome::Accepted);
        }
        svc.advance_to(now).expect("advance");
    }
    drop(svc);
    let (_, recovery) = Wal::open(&wal.0).expect("reopen journal");
    assert!(!recovery.tail_corrupt, "clean shutdown left a torn tail");
    assert!(
        recovery.records.len() >= 2,
        "need a genesis plus at least one batch record"
    );
    recovery.records
}

/// Writes `records` as a fresh, correctly framed journal at `path`.
fn write_journal(path: &Path, records: &[Vec<u8>]) {
    let mut wal = Wal::create(path).expect("create journal");
    for r in records {
        wal.append(r).expect("append");
    }
    wal.sync().expect("sync");
}

#[test]
fn recover_without_wal_path_is_a_typed_error() {
    let Err(err) = StreamService::recover(config_with(None), &factory) else {
        panic!("recovery must fail");
    };
    assert!(matches!(err, StreamError::MissingWalPath), "got {err:?}");
}

#[test]
fn recover_empty_journal_reports_missing_genesis() {
    let wal = TempWal::new("empty");
    write_journal(&wal.0, &[]);
    let Err(err) = StreamService::recover(config_with(Some(wal.0.clone())), &factory) else {
        panic!("recovery must fail");
    };
    match err {
        StreamError::CorruptJournal(msg) => {
            assert!(msg.contains("genesis"), "unhelpful message: {msg}");
        }
        other => panic!("expected CorruptJournal, got {other:?}"),
    }
}

#[test]
fn recover_undecodable_record_is_corrupt_not_a_panic() {
    // A frame whose CRC is valid but whose payload is garbage: the
    // storage layer accepts it, the journal decoder must reject it.
    let wal = TempWal::new("garbage");
    write_journal(&wal.0, &[b"not a journal record".to_vec()]);
    let Err(err) = StreamService::recover(config_with(Some(wal.0.clone())), &factory) else {
        panic!("recovery must fail");
    };
    assert!(matches!(err, StreamError::CorruptJournal(_)), "got {err:?}");
}

#[test]
fn recover_batch_first_journal_reports_missing_genesis() {
    let source = TempWal::new("batch-first-src");
    let records = durable_records(&source, 501);
    // A journal that starts mid-history: real batch record, no genesis.
    let wal = TempWal::new("batch-first");
    write_journal(&wal.0, &records[1..2]);
    let Err(err) = StreamService::recover(config_with(Some(wal.0.clone())), &factory) else {
        panic!("recovery must fail");
    };
    match err {
        StreamError::CorruptJournal(msg) => {
            assert!(msg.contains("genesis"), "unhelpful message: {msg}");
        }
        other => panic!("expected CorruptJournal, got {other:?}"),
    }
}

#[test]
fn recover_duplicate_genesis_is_corrupt() {
    let source = TempWal::new("dup-genesis-src");
    let records = durable_records(&source, 502);
    let doubled = vec![records[0].clone(), records[0].clone()];
    let wal = TempWal::new("dup-genesis");
    write_journal(&wal.0, &doubled);
    let Err(err) = StreamService::recover(config_with(Some(wal.0.clone())), &factory) else {
        panic!("recovery must fail");
    };
    match err {
        StreamError::CorruptJournal(msg) => {
            assert!(msg.contains("duplicate"), "unhelpful message: {msg}");
        }
        other => panic!("expected CorruptJournal, got {other:?}"),
    }
}

#[test]
fn recover_rejects_a_genesis_that_repeats_an_object_id() {
    // `new` refuses such a genesis, so the journal is spliced by hand:
    // header + record tag from a real genesis, body re-encoded with the
    // first B object carrying the first A object's id.
    let source = TempWal::new("dup-id-src");
    let records = durable_records(&source, 505);
    let (a, mut b) = generate_pair(&params(505), 0.0);
    b[0].id = a[0].id;
    let mut body = ByteWriter::new();
    body.put_f64(0.0);
    a.put(&mut body);
    b.put(&mut body);
    let mut genesis = records[0][..3].to_vec();
    genesis.extend(body.into_bytes());

    let wal = TempWal::new("dup-id");
    write_journal(&wal.0, &[genesis]);
    let Err(err) = StreamService::recover(config_with(Some(wal.0.clone())), &factory) else {
        panic!("recovery must fail");
    };
    match err {
        StreamError::InvalidConfig(msg) => {
            assert!(
                msg.contains(&format!("{:?}", a[0].id)),
                "id not named: {msg}"
            );
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn recover_mid_record_corruption_fails_closed_with_crc() {
    // Flip one byte inside the *middle* of a journal (not the tail): the
    // CRC check treats everything from the damage onward as torn, so
    // recovery succeeds on the shorter durable prefix rather than
    // replaying a corrupted batch.
    let wal = TempWal::new("bitflip");
    let records = durable_records(&wal, 503);
    let mut bytes = std::fs::read(&wal.0).expect("read journal");
    // Damage the payload of the *second* record (the first batch): one
    // frame header (8 bytes) + the genesis payload + the next header.
    let target = 8 + records[0].len() + 8 + 1;
    assert!(target < bytes.len(), "journal shorter than two records");
    bytes[target] ^= 0xFF;
    std::fs::write(&wal.0, &bytes).expect("rewrite journal");

    let (svc, report) =
        StreamService::recover(config_with(Some(wal.0.clone())), &factory).expect("recover");
    assert!(report.tail_truncated, "damage must be detected");
    assert!(
        report.batches_replayed < records.len() - 1,
        "the damaged suffix must not be replayed"
    );
    drop(svc);
}

#[test]
fn recovery_metrics_agree_with_the_report() {
    let wal = TempWal::new("metrics");
    let p = params(504);
    let (a, b) = generate_pair(&p, 0.0);
    let config = config_with(Some(wal.0.clone()))
        .to_builder()
        .engine(EngineConfig::builder().metrics(true).build())
        .build();
    let mut svc = StreamService::new(config.clone(), &a, &b, 0.0, &factory).expect("service");
    let mut stream = UpdateStream::new(&p, &a, &b, 0.0);
    let mut journaled = 0usize;
    for tick in 1..=10u32 {
        let now = Time::from(tick);
        let updates = stream.tick(now);
        if !updates.is_empty() {
            journaled += 1;
        }
        for u in updates {
            assert_eq!(svc.submit(u, now), IngestOutcome::Accepted);
        }
        svc.advance_to(now).expect("advance");
    }
    drop(svc);

    let (recovered, report) = StreamService::recover(config, &factory).expect("recover");
    assert_eq!(report.batches_replayed, journaled);
    let snap = recovered.metrics_snapshot();
    assert_eq!(
        snap.counter("stream.recovery.batches_replayed"),
        Some(report.batches_replayed as u64),
        "replay counter disagrees with the report"
    );
    assert!(
        snap.histogram("phase.wal_replay").is_some(),
        "replay must be span-timed"
    );
    assert!(
        snap.counter("stream.wal.appends").is_some(),
        "recovered WAL stats must be registered"
    );
}

/// An update for `id` onto `object`'s trajectory; the delete keys are
/// whatever the service's registration table says.
fn update_onto(id: ObjectId, object: &MovingObject) -> ObjectUpdate {
    ObjectUpdate {
        id,
        set: SetTag::A,
        old_mbr: object.mbr,
        last_update: 0.0,
        new_mbr: object.mbr,
    }
}

/// An update naming an object the service does not hold — never
/// registered, or retired — fails `advance_to` with a typed error before
/// its batch is journaled, and the service carries on.
#[test]
fn advance_with_an_update_for_an_unknown_object_is_a_typed_error() {
    let wal = TempWal::new("unknown-live");
    let (a, b) = generate_pair(&params(506), 0.0);
    let config = config_with(Some(wal.0.clone()));
    let mut svc = StreamService::new(config.clone(), &a, &b, 0.0, &factory).expect("service");
    svc.advance_to(1.0).expect("advance");
    assert!(svc.retire_object(a[0].id).expect("retire"));
    for (tick, id) in [(2.0, ObjectId(9_999)), (3.0, a[0].id)] {
        assert_eq!(
            svc.submit(update_onto(id, &a[1]), tick),
            IngestOutcome::Accepted
        );
        match svc.advance_to(tick) {
            Err(StreamError::Engine(TprError::ObjectNotFound(got))) => assert_eq!(got, id),
            other => panic!("{id:?}: expected ObjectNotFound, got {other:?}"),
        }
    }
    let live = a[1].id;
    assert_eq!(
        svc.submit(update_onto(live, &a[2]), 4.0),
        IngestOutcome::Accepted
    );
    svc.advance_to(4.0).expect("a live object still updates");
    drop(svc);

    let (_, report) = StreamService::recover(config, &factory).expect("recover");
    assert_eq!(report.batches_replayed, 1, "a refused batch was journaled");
}

/// A refused batch is lost on its own: the due batches after it stay
/// queued, and the next `advance_to` applies them.
#[test]
fn a_refused_batch_keeps_the_later_batches_queued() {
    let wal = TempWal::new("refused-keeps-later");
    let (a, b) = generate_pair(&params(509), 0.0);
    let config = config_with(Some(wal.0.clone()));
    let mut svc = StreamService::new(config.clone(), &a, &b, 0.0, &factory).expect("service");
    svc.advance_to(1.0).expect("advance");
    let unknown = ObjectId(9_999);
    assert_eq!(
        svc.submit(update_onto(unknown, &a[1]), 2.0),
        IngestOutcome::Accepted
    );
    let live = a[1].id;
    assert_eq!(
        svc.submit(update_onto(live, &a[2]), 3.0),
        IngestOutcome::Accepted
    );
    match svc.advance_to(3.0) {
        Err(StreamError::Engine(TprError::ObjectNotFound(got))) => assert_eq!(got, unknown),
        other => panic!("expected ObjectNotFound, got {other:?}"),
    }
    assert_eq!(svc.now(), 1.0, "the refused batch moved the clock");
    assert_eq!(svc.queue_len(), 1, "the tick-3 batch was dropped with it");
    assert_eq!(
        svc.submit(update_onto(unknown, &a[1]), 2.0),
        IngestOutcome::Stale,
        "the refused tick is behind the stale frontier"
    );
    svc.advance_to(3.0).expect("the tick-3 batch applies");
    assert_eq!(svc.queue_len(), 0);
    assert_eq!(svc.now(), 3.0);
    let trajectories = |objects: &[MovingObject]| -> Vec<(ObjectId, MovingRect)> {
        (objects.iter())
            .map(|o| (o.id, if o.id == live { a[2].mbr } else { o.mbr }))
            .collect()
    };
    assert_eq!(
        svc.result_at(3.0),
        brute_pairs_at(&trajectories(&a), &trajectories(&b), 3.0),
        "the tick-3 update was not applied"
    );
    drop(svc);

    let (_, report) = StreamService::recover(config, &factory).expect("recover");
    assert_eq!(
        report.batches_replayed, 1,
        "only the tick-3 batch is journaled"
    );
    assert_eq!(report.last_tick, 3.0);
}

/// Replay keys every batch by the registration table too: a journaled
/// batch naming an object the journal never registered, or one it
/// retired, is a corrupt journal — not a panic.
#[test]
fn recover_batch_for_an_unknown_object_is_corrupt() {
    let source = TempWal::new("unknown-src");
    let (a, b) = generate_pair(&params(507), 0.0);
    let mut svc = StreamService::new(config_with(Some(source.0.clone())), &a, &b, 0.0, &factory)
        .expect("service");
    svc.advance_to(1.0).expect("advance");
    assert!(svc.retire_object(a[0].id).expect("retire"));
    drop(svc);
    let (_, recovery) = Wal::open(&source.0).expect("reopen journal");
    assert_eq!(recovery.records.len(), 2, "genesis and retirement");

    // The live object is the control: the spliced batch itself is sound.
    for (id, known) in [(a[1].id, true), (ObjectId(9_999), false), (a[0].id, false)] {
        let mut body = ByteWriter::new();
        body.put_f64(2.0);
        vec![MovingObject { id, mbr: a[2].mbr }].put(&mut body);
        let mut batch = recovery.records[0][..2].to_vec();
        batch.push(0x02);
        batch.extend(body.into_bytes());
        let wal = TempWal::new("unknown");
        write_journal(&wal.0, &[recovery.records.clone(), vec![batch]].concat());

        let recovered = StreamService::recover(config_with(Some(wal.0.clone())), &factory);
        match (known, recovered) {
            (true, Ok((_, report))) => assert_eq!(report.batches_replayed, 1),
            (false, Err(StreamError::CorruptJournal(msg))) => {
                assert!(msg.contains(&format!("{id:?}")), "id not named: {msg}");
            }
            (_, Err(err)) => panic!("{id:?}: got {err:?}"),
            (_, Ok(_)) => panic!("{id:?}: replayed a batch for an unknown object"),
        }
    }
}

/// An update no engine can be handed — here a NaN velocity — fails
/// `advance_to` with a typed error before its batch is journaled: one
/// unsound submission cannot make the journal unrecoverable. Recovery
/// lands on the service as it was before the refusal.
#[test]
fn advance_with_an_unsound_update_is_refused_before_the_journal() {
    let wal = TempWal::new("unsound-live");
    let p = params(508);
    let (a, b) = generate_pair(&p, 0.0);
    let config = config_with(Some(wal.0.clone()));
    let mut svc = StreamService::new(config.clone(), &a, &b, 0.0, &factory).expect("service");
    let mut stream = UpdateStream::new(&p, &a, &b, 0.0);
    for tick in 1..=3u32 {
        let now = Time::from(tick);
        for u in stream.tick(now) {
            assert_eq!(svc.submit(u, now), IngestOutcome::Accepted);
        }
        svc.advance_to(now).expect("advance");
    }
    let before = svc.result_at(3.0);
    assert!(!before.is_empty(), "vacuous: no pairs");

    let mut unsound = update_onto(a[0].id, &a[0]);
    unsound.new_mbr.vhi[0] = f64::NAN;
    assert_eq!(svc.submit(unsound, 4.0), IngestOutcome::Accepted);
    match svc.advance_to(4.0) {
        Err(StreamError::InvalidUpdate(msg)) => {
            assert!(
                msg.contains(&format!("{:?}", a[0].id)),
                "id not named: {msg}"
            );
        }
        other => panic!("expected InvalidUpdate, got {other:?}"),
    }
    assert_eq!(svc.now(), 3.0, "the refused batch moved the clock");
    drop(svc);

    let (recovered, report) = StreamService::recover(config, &factory).expect("recover");
    assert_eq!(report.last_tick, 3.0);
    assert_eq!(recovered.result_at(3.0), before);
}

/// A genesis window that starts later (§V) — referenced after the start
/// — is what the engine registers, so the journal that records it is
/// replayed too: recovery lands on the live service's answer, and the
/// window, never updated, is still in it when its time comes.
#[test]
fn a_genesis_window_that_starts_later_recovers() {
    let wal = TempWal::new("late-window");
    let p = params(510);
    let (a, mut b) = generate_pair(&p, 0.0);
    b[0].mbr = MovingRect::stationary(Rect::new([40.0, 40.0], [160.0, 160.0]), 5.0);
    let config = config_with(Some(wal.0.clone()));
    let mut svc = StreamService::new(config.clone(), &a, &b, 0.0, &factory).expect("service");
    let mut stream = UpdateStream::new(&p, &a, &b, 0.0);
    for tick in 1..=3u32 {
        let now = Time::from(tick);
        for u in stream.tick(now).into_iter().filter(|u| u.id != b[0].id) {
            assert_eq!(svc.submit(u, now), IngestOutcome::Accepted);
        }
        svc.advance_to(now).expect("advance");
    }
    let window = |pairs: &[(ObjectId, ObjectId)]| pairs.iter().any(|&(_, id)| id == b[0].id);
    assert!(
        window(&svc.result_at(6.0)),
        "vacuous: the window meets nothing"
    );
    let before = (svc.result_at(3.0), svc.result_at(6.0));
    drop(svc);

    let (recovered, report) = StreamService::recover(config, &factory).expect("recover");
    assert_eq!(report.last_tick, 3.0);
    assert_eq!((recovered.result_at(3.0), recovered.result_at(6.0)), before);
}

/// An update of such a window before its start replaces a registration
/// the engine holds; only the new trajectory is the producer's, and it is
/// sound from the tick. The batch is applied, journaled and replayed.
#[test]
fn a_window_updated_before_its_start_is_applied_and_replayed() {
    let wal = TempWal::new("late-window-update");
    let (a, mut b) = generate_pair(&params(511), 0.0);
    b[0].mbr = MovingRect::stationary(Rect::new([40.0, 40.0], [160.0, 160.0]), 5.0);
    let config = config_with(Some(wal.0.clone()));
    let mut svc = StreamService::new(config.clone(), &a, &b, 0.0, &factory).expect("service");
    svc.advance_to(1.0).expect("advance");
    let moved = MovingObject {
        id: b[0].id,
        mbr: MovingRect::stationary(Rect::new([40.0, 40.0], [150.0, 150.0]), 2.0),
    };
    assert_eq!(
        svc.submit(update_onto(moved.id, &moved), 2.0),
        IngestOutcome::Accepted
    );
    svc.advance_to(2.0)
        .expect("an update of a registered window");
    let before = svc.result_at(2.0);
    drop(svc);

    let (recovered, report) = StreamService::recover(config, &factory).expect("recover");
    assert_eq!(report.batches_replayed, 1);
    assert_eq!(recovered.result_at(2.0), before);
}
